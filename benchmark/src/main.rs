//! `cmap-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! One run of one workload in this process: prints the metric table, the
//! statistics digest and, as the last line, the result object the
//! benchmark contract asks for. `run.sh` loops it over the workloads;
//! `--compare` / `--spread` analyse the files `run.sh` leaves behind.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cmap_benchmark::metrics::{benchmark_json, RUN_SECONDS};
use cmap_benchmark::workload::{self, WORKLOADS};
use cmap_benchmark::{analyze, replay, run};

const USAGE: &str = "usage:
  cmap-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--out <dir>]
  cmap-benchmark --compare <set A dir> <set B dir>
  cmap-benchmark --spread <set dir>...
  cmap-benchmark --list | --print-benchmark-json";

struct Args {
    workload: &'static workload::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = RUN_SECONDS as f64;
    let mut trace = false;
    let mut out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::by_name(value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out,
    })
}

fn run_one(args: &Args) -> ExitCode {
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "# cmap-benchmark workload={} seed={} trace={} seconds={} sim_s_per_rep={} nproc={nproc} (one thread)",
        w.name,
        args.seed,
        u8::from(args.trace),
        args.seconds,
        cmap_sim::time::as_secs_f64(w.rep_sim),
    );
    let outcome = if args.trace {
        replay::per_layer(w, args.seed, args.seconds, &args.out)
    } else {
        run::end_to_end(w, args.seed, args.seconds)
    };
    print!("{}", outcome.report.table(args.trace));
    for note in &outcome.notes {
        println!("{note}");
    }
    println!("stats_digest {:016x}", outcome.digest);
    println!("timed_reps {}", outcome.reps);
    println!("attempted_ops {}", outcome.attempted);
    println!("failed_ops {}", outcome.failures.len());
    for f in &outcome.failures {
        println!("FAILED {f}");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.failures.is_empty(),
        outcome.attempted,
        outcome.failures.len(),
        outcome.report.metrics_json(args.trace)
    );
    ExitCode::SUCCESS
}

fn analysis(result: Result<(String, bool), String>) -> ExitCode {
    match result {
        Ok((table, ok)) => {
            print!("{table}");
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--list") => {
            for w in &WORKLOADS {
                println!("{}", w.name);
            }
            ExitCode::SUCCESS
        }
        Some("--print-benchmark-json") => {
            print!("{}", benchmark_json());
            ExitCode::SUCCESS
        }
        Some("--compare") if args.len() == 3 => {
            analysis(analyze::compare(Path::new(&args[1]), Path::new(&args[2])))
        }
        Some("--spread") if args.len() >= 3 => {
            let dirs: Vec<&Path> = args[1..].iter().map(Path::new).collect();
            analysis(analyze::spread(&dirs))
        }
        _ => match parse(&args) {
            Ok(args) => run_one(&args),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
    }
}
