//! The workspace's single approved threading module: a deterministic
//! parallel run executor.
//!
//! Every figure in the reproduction suite is a grid of *independent*
//! (parameter-point × seed) simulations. Each job owns its own
//! single-threaded [`World`](cmap_sim::World), so the simulations
//! themselves stay strictly deterministic; the only thing the pool
//! parallelises is *which core* a given job happens to run on. Results
//! are joined and reduced in **job-index order**, never completion order,
//! so every downstream artifact (figure reports, `BENCH_repro.json`, trace
//! JSONL) is byte-identical between `jobs = 1` and `jobs = N`.
//!
//! Design constraints (see DESIGN.md §9 "Performance architecture" and
//! §11.1):
//!
//! * std-only — [`map`] spawns up to `jobs` scoped `std::thread` workers
//!   that claim chunks of job indices from a shared cursor and return
//!   `(index, result)` pairs over an `mpsc` channel. No rayon, no vendored
//!   executor, and no state that outlives a call.
//! * `jobs == 1` takes a thread-free serial path on the calling thread.
//! * Each job runs exactly once, under `catch_unwind`. A job is a pure
//!   function of its item, so running a panicked job again would panic
//!   again; instead the whole batch finishes and then [`map`] panics with
//!   the failure of the lowest index, `job {i}: {msg}` — the same message
//!   at every pool width. The failure travels with that panic; the
//!   executor keeps no log of it.
//! * The core-count probe (`default_jobs`) may consult the machine, but
//!   its answer must never leak into report bytes — callers only use it to
//!   size the pool, and the root `clippy.toml` bans every threading
//!   primitive, so the two `#[expect]`s here are the whole audit trail.
//! * The executor reads no clock: how long a batch took is the caller's
//!   measurement, kept in the `timing` block of its report.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Number of worker threads to use when the caller does not pin one: the
/// machine's available parallelism. Determinism note: this probe influences
/// *scheduling only*; job results are index-joined, so the value never
/// affects (and is never written into) deterministic report bytes.
#[expect(clippy::disallowed_methods, reason = "the one core-count probe")]
pub(crate) fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Render a caught panic payload. `panic!` with a literal yields
/// `&'static str`; `panic!` with a format string yields `String`.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Map `f` over `items` on up to `jobs` workers (clamped to ≥ 1), returning
/// outputs in **input order** regardless of which worker finished first.
///
/// Every job runs once, under `catch_unwind`, and the batch always runs to
/// the end. If any job panicked, this then panics with `job {i}: {msg}`
/// for the lowest failing index `i` — so the message does not depend on
/// `jobs`. `AssertUnwindSafe` is sound: a failed job's partially mutated
/// captures are never observed, because no result of the batch is.
pub fn map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let run = |item: &T| {
        std::panic::catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|p| panic_message(&*p))
    };
    let mut slots: Vec<Option<Result<R, String>>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let workers = effective_workers(jobs, items.len());
    if workers <= 1 {
        for (slot, item) in slots.iter_mut().zip(items) {
            *slot = Some(run(item));
        }
    } else {
        // Work distribution: a shared cursor hands out *chunks* of
        // contiguous job indices first-come-first-served (pure
        // scheduling — no effect on results). Chunked claiming plus
        // worker-local result accumulation amortizes the per-job
        // synchronization that made small-job batches slower under
        // `--jobs 2` than serial: one cursor RMW per chunk, and exactly
        // one channel send per worker instead of one per job. The
        // receive side slots results by index, which is what makes the
        // join deterministic.
        let chunk = chunk_size(items.len(), workers);
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<Vec<(usize, Result<R, String>)>>();
        let (run, cursor) = (&run, &cursor);
        #[expect(clippy::disallowed_methods, reason = "the pool's own workers")]
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= items.len() {
                            break;
                        }
                        let end = (start + chunk).min(items.len());
                        for (i, item) in items[start..end].iter().enumerate() {
                            local.push((start + i, run(item)));
                        }
                    }
                    if !local.is_empty() {
                        let _ = tx.send(local);
                    }
                });
            }
            drop(tx);
            // Every job is caught, so no worker panics and every index
            // arrives exactly once.
            for batch in rx {
                for (i, r) in batch {
                    slots[i] = Some(r);
                }
            }
        });
    }
    // In index order, so the first failure met is the lowest index.
    slots
        .into_iter()
        .enumerate()
        .map(|(i, r)| match r.expect("every job index is claimed once") {
            Ok(v) => v,
            Err(msg) => panic!("job {i}: {msg}"),
        })
        .collect()
}

/// Worker threads actually spawned for a batch of `len` jobs: `jobs`, but
/// at least one, never more than the jobs available and never more than
/// the machine's cores. Worker count is a scheduling resource only —
/// oversubscribing (e.g. `--jobs 2` on a single-core box) makes workers
/// time-slice one core, paying context-switch and cache overhead for zero
/// added parallelism (measured as a 0.77x slowdown on the
/// mesh-dissemination figure under exactly that condition). The result
/// join is index-based, so the clamp can never change report bytes.
fn effective_workers(jobs: usize, len: usize) -> usize {
    jobs.max(1).min(default_jobs()).min(len.max(1))
}

/// Contiguous indices claimed per cursor bump. 8 chunks per worker keeps
/// claims coarse enough to amortize synchronization while still letting a
/// straggler-heavy tail rebalance across workers.
fn chunk_size(len: usize, workers: usize) -> usize {
    (len / (workers * 8)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_pool_matches_plain_map() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        assert_eq!(map(1, &items, |&x| x * 3 + 1), expect);
    }

    #[test]
    fn parallel_pool_preserves_input_order() {
        let items: Vec<u64> = (0..997).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [2, 3, 4, 8] {
            assert_eq!(map(jobs, &items, |&x| x * x), expect);
        }
    }

    #[test]
    fn parallel_equals_serial_on_stateful_work() {
        // Each job derives from its index only, as real runs derive from
        // their (point, seed) — cross-checks the index-ordered join.
        let items: Vec<usize> = (0..64).collect();
        let work = |&i: &usize| -> u64 {
            let mut acc = i as u64 + 0x9E37_79B9;
            for _ in 0..1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        assert_eq!(map(4, &items, work), map(1, &items, work));
    }

    #[test]
    fn zero_jobs_clamps_to_one() {
        assert_eq!(effective_workers(0, 1000), 1);
        assert_eq!(map(0, &[1, 2, 3], |&x: &i32| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let empty: [u32; 0] = [];
        assert!(map(8, &empty, |&x| x).is_empty());
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn effective_workers_clamps_to_cores_and_batch() {
        let cores = default_jobs();
        // Oversubscription is capped at the core count: asking for more
        // workers than cores must not spawn them.
        assert_eq!(effective_workers(usize::MAX, 1000), cores.min(1000));
        assert_eq!(effective_workers(cores + 7, 1000), cores.min(1000));
        // Never more workers than jobs, and always at least one.
        assert_eq!(effective_workers(8, 1), 1);
        assert_eq!(effective_workers(1, 0), 1);
        assert_eq!(effective_workers(1, 1000), 1);
    }

    #[test]
    fn each_job_runs_once_and_the_lowest_failure_is_re_raised() {
        let items: Vec<usize> = (0..20).collect();
        for jobs in [1, 2, 4] {
            let runs: Vec<AtomicUsize> = items.iter().map(|_| AtomicUsize::new(0)).collect();
            let payload = std::panic::catch_unwind(|| {
                map(jobs, &items, |&i| {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    if i == 7 || i == 13 {
                        panic!("boom {i}");
                    }
                    i
                })
            })
            .unwrap_err();
            assert_eq!(panic_message(&*payload), "job 7: boom 7", "jobs={jobs}");
            // The batch ran to the end, and nothing ran twice.
            for (i, n) in runs.iter().enumerate() {
                assert_eq!(n.load(Ordering::Relaxed), 1, "jobs={jobs} job {i}");
            }
        }
    }

    #[test]
    fn chunk_size_is_coarse_but_balanced() {
        // Big batches: several chunks per worker, none empty.
        assert_eq!(chunk_size(64, 2), 4);
        assert_eq!(chunk_size(1000, 4), 31);
        // Small batches: never below one job per claim.
        assert_eq!(chunk_size(3, 2), 1);
        assert_eq!(chunk_size(1, 8), 1);
    }

    #[test]
    fn chunked_claims_cover_ragged_tails() {
        // Lengths straddling chunk boundaries for several worker counts:
        // every index must appear exactly once, in order.
        for jobs in [2, 3, 5] {
            for len in [1usize, 2, 7, 16, 17, 33, 100, 129] {
                let items: Vec<usize> = (0..len).collect();
                assert_eq!(map(jobs, &items, |&i| i), items, "jobs={jobs} len={len}");
            }
        }
    }
}
