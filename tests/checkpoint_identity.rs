//! The checkpoint byte-identity gate (DESIGN.md "Run-level fault
//! tolerance"): a run interrupted at an arbitrary mid-point, checkpointed,
//! and restored into a *fresh* identically-configured world must finish
//! with byte-identical statistics to the run that was never interrupted.
//!
//! This is the strongest form of the crash-safety claim — not "close
//! enough after resume" but the same determinism bar every other artifact
//! in the repo is held to (same seed ⇒ same bytes). It exercises the full
//! serialization surface: event queue, radio bank, per-node RNGs,
//! in-flight transmissions, MAC state (CMAP conflict map, windows, defer
//! table; DCF backoff/NAV), rate-adaptation state, stats, and fault
//! processes.
//!
//! A save and a load that drift together still pass this gate;
//! `checkpoint_golden.rs` pins the encoding of the same four scenarios
//! (`ckpt_scenarios`), so that drift is caught there.

mod ckpt_scenarios;
mod support;

use ckpt_scenarios::{rate_adaptive_cmap, spec, Scenario, CMAP, CMAP_FAULTS, DCF, RATE_ADAPTIVE};
use cmap_suite::bench::Protocol;
use cmap_suite::cmap::{CmapConfig, CmapMac};
use cmap_suite::mac80211::{DcfConfig, DcfMac};
use cmap_suite::phy::Rate;
use cmap_suite::sim::time::{secs, Time};
use cmap_suite::sim::{CkptError, FaultPlan, Mac, NodeCtx, RxErrorInfo, RxInfo, World};
use cmap_suite::wire::FrameView;
use support::exposed_pair_world;

fn finish(w: &mut World, until: Time) -> (String, u64) {
    w.run_until(until);
    assert_eq!(w.watchdog_violations(), 0, "watchdog violations");
    (w.stats().snapshot(), w.events_processed())
}

/// Core gate: straight run vs checkpoint-at-mid + restore-into-fresh-world.
fn assert_resume_identical(scenario: &Scenario) {
    let spec = spec();
    let name = scenario.name;

    // The uninterrupted reference run.
    let reference = finish(&mut scenario.setup(&spec), spec.duration);

    // Interrupted run: advance to the midpoint, checkpoint, drop the world.
    let ckpt = scenario.mid_checkpoint(&spec);

    // Checkpoint bytes are themselves deterministic.
    let ckpt2 = scenario.mid_checkpoint(&spec);
    assert_eq!(
        ckpt, ckpt2,
        "{name}: same-seed checkpoints are not byte-identical"
    );

    // Resume in a fresh world (a stand-in for a fresh process: nothing
    // carries over but the blob and the configuration recipe).
    let mut resumed_world = scenario.setup(&spec);
    resumed_world.restore(&ckpt).expect("restore");
    let resumed = finish(&mut resumed_world, spec.duration);

    assert_eq!(
        reference, resumed,
        "{name}: resumed run diverged from the uninterrupted run"
    );
}

#[test]
fn cmap_resume_is_byte_identical() {
    assert_resume_identical(&CMAP);
}

#[test]
fn cmap_resume_under_faults_is_byte_identical() {
    assert_resume_identical(&CMAP_FAULTS);
}

#[test]
fn dcf_resume_is_byte_identical() {
    assert_resume_identical(&DCF);
}

#[test]
fn rate_adaptive_cmap_resume_is_byte_identical() {
    assert_resume_identical(&RATE_ADAPTIVE);
}

type MakeMac = fn() -> Box<dyn Mac>;

/// Forwards every callback to the wrapped MAC but keeps the trait's
/// default `wants_channel_edges`, so the world hands it every CCA edge.
struct Forwarder(Box<dyn Mac>);

impl Mac for Forwarder {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.0.on_start(ctx);
    }
    fn on_restart(&mut self, ctx: &mut NodeCtx<'_>) {
        self.0.on_restart(ctx);
    }
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        self.0.on_timer(ctx, token);
    }
    fn on_rx_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: &FrameView<'_>, info: RxInfo) {
        self.0.on_rx_frame(ctx, frame, info);
    }
    fn on_rx_error(&mut self, ctx: &mut NodeCtx<'_>, err: RxErrorInfo) {
        self.0.on_rx_error(ctx, err);
    }
    fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>) {
        self.0.on_tx_done(ctx);
    }
    fn on_channel_state(&mut self, ctx: &mut NodeCtx<'_>, busy: bool) {
        self.0.on_channel_state(ctx, busy);
    }
    fn on_packet_queued(&mut self, ctx: &mut NodeCtx<'_>) {
        self.0.on_packet_queued(ctx);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self.0.as_any()
    }
    fn save_state(&self, out: &mut Vec<u8>) {
        self.0.save_state(out);
    }
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.0.load_state(bytes)
    }
}

/// A MAC is handed a CCA edge only while it watches edges. Each world runs
/// as built and with every MAC behind a [`Forwarder`], which is handed
/// every edge, and the two must give the same checkpoint images at two
/// instants and the same final snapshot.
#[test]
fn skipping_unwatched_channel_edges_is_invisible() {
    let spec = spec();
    let macs: [(&str, MakeMac); 3] = [
        ("cmap", || Box::new(CmapMac::new(CmapConfig::default()))),
        ("dcf", || Box::new(DcfMac::new(DcfConfig::status_quo()))),
        ("rate-adaptive cmap", rate_adaptive_cmap),
    ];
    for (name, make) in macs {
        for faults in [None, Some(FaultPlan::mixed(50, spec.duration))] {
            let run = |forward: bool| {
                let mut w = exposed_pair_world(&spec, 16);
                for node in 0..w.node_count() {
                    let mac: Box<dyn Mac> = if forward {
                        Box::new(Forwarder(make()))
                    } else {
                        make()
                    };
                    w.set_mac(node, mac);
                }
                if let Some(plan) = &faults {
                    w.install_faults(plan.clone());
                }
                let images: Vec<Vec<u8>> = [spec.duration / 4, spec.duration / 2]
                    .into_iter()
                    .map(|at| {
                        w.run_until(at);
                        w.checkpoint().expect("checkpoint")
                    })
                    .collect();
                (images, finish(&mut w, spec.duration), w.channel_edges())
            };
            let what = format!("{name}, faults: {}", faults.is_some());
            let (built, forwarded) = (run(false), run(true));
            assert!(built.0 == forwarded.0, "{what}: checkpoint images differ");
            assert_eq!(built.1, forwarded.1, "{what}: snapshots differ");
            let ((seen, delivered), (all, offered)) = (built.2, forwarded.2);
            assert_eq!(seen, all, "{what}: edges seen");
            assert_eq!(offered, all, "{what}: a forwarder is handed every edge");
            match name {
                "dcf" => assert!(
                    0 < delivered && delivered < seen,
                    "{what}: {delivered}/{seen}"
                ),
                _ => assert!(delivered == 0 && seen > 0, "{what}: {delivered}/{seen}"),
            }
        }
    }
}

/// Cut a run while one transmission's arrivals are half handed out — once
/// among its `FrameStart`s, once among its `FrameEnd`s — so the checkpoint
/// holds arrival cursors strictly inside a receiver row, and require the
/// resumed run to finish on the uninterrupted run's bytes.
fn assert_mid_row_resume_identical(configure: impl Fn(&mut World), faults: Option<FaultPlan>) {
    use cmap_suite::obs::TraceEvent;
    use cmap_suite::sim::time::millis;
    use cmap_suite::sim::NodeId;

    let spec = spec();
    let setup = || {
        let mut w = exposed_pair_world(&spec, 15);
        configure(&mut w);
        if let Some(plan) = &faults {
            w.install_faults(plan.clone());
        }
        w
    };
    let reference = finish(&mut setup(), spec.duration);

    // Tracing observes without perturbing: the first transmission the
    // traced run starts after 1 s, from a node whose receivers are not all
    // equally far, is on the air at the same instants in every run below.
    let (start, end, mid_row) = {
        let mut w = setup();
        w.run_until(secs(1));
        w.enable_trace(1 << 12);
        w.run_until(secs(1) + millis(50));
        let trace = w.take_trace().expect("tracing was enabled");
        let staggered = trace.records().find_map(|r| {
            let TraceEvent::TxStart {
                node,
                bytes,
                rate_mbps,
                ..
            } = r.ev
            else {
                return None;
            };
            let node = NodeId::new(node as usize);
            let medium = w.medium();
            let delays = || {
                medium
                    .reachable(node)
                    .iter()
                    .map(|&rx| medium.delay_ns(node, rx))
            };
            let (nearest, farthest) = (delays().min()?, delays().max()?);
            let rate = Rate::ALL
                .into_iter()
                .find(|r| r.bits_per_sec() == u64::from(rate_mbps) * 1_000_000)?;
            let end = r.at_ns + rate.frame_airtime_ns(bytes as usize);
            // Strictly inside the row: some receiver at or before the
            // midpoint, some receiver after it.
            (nearest < farthest).then_some((r.at_ns, end, (nearest + farthest) / 2))
        });
        staggered.expect("a transmission with staggered receivers within 50 ms")
    };

    for cut in [start + mid_row, end + mid_row] {
        let ckpt = {
            let mut w = setup();
            w.run_until(cut);
            assert!(w.inflight_tx_count() > 0, "nothing on the air at {cut}");
            w.checkpoint().expect("checkpoint mid-row")
        };
        let mut resumed = setup();
        resumed.restore(&ckpt).expect("restore");
        assert_eq!(
            finish(&mut resumed, spec.duration),
            reference,
            "run cut mid-row at {cut} diverged from the uninterrupted run"
        );
    }
}

#[test]
fn mid_row_resume_is_byte_identical_for_both_macs() {
    assert_mid_row_resume_identical(|w| Protocol::cmap().install(w), None);
    assert_mid_row_resume_identical(|w| Protocol::cs_on().install(w), None);
}

#[test]
fn mid_row_resume_under_faults_is_byte_identical_for_both_macs() {
    let plan = FaultPlan::mixed(50, spec().duration);
    assert_mid_row_resume_identical(|w| Protocol::cmap().install(w), Some(plan.clone()));
    assert_mid_row_resume_identical(|w| Protocol::cs_on().install(w), Some(plan));
}

#[test]
fn restore_rejects_mismatched_configuration() {
    let spec = spec();
    let ckpt = {
        let mut w = exposed_pair_world(&spec, 11);
        Protocol::cmap().install(&mut w);
        w.run_until(spec.duration / 2);
        w.checkpoint().expect("checkpoint")
    };

    // Different seed: the config echo must catch it.
    let mut wrong_seed = exposed_pair_world(&spec, 99);
    Protocol::cmap().install(&mut wrong_seed);
    assert!(
        matches!(wrong_seed.restore(&ckpt), Err(CkptError::Mismatch(_))),
        "restore accepted a world built with a different seed"
    );

    // Different flow set.
    let mut wrong_flows = exposed_pair_world(&spec, 11);
    wrong_flows.add_flow(0, 1, 100);
    Protocol::cmap().install(&mut wrong_flows);
    assert!(
        matches!(wrong_flows.restore(&ckpt), Err(CkptError::Mismatch(_))),
        "restore accepted a world with extra flows"
    );

    // Already-started worlds cannot be restored into.
    let mut started = exposed_pair_world(&spec, 11);
    Protocol::cmap().install(&mut started);
    started.run_until(secs(1));
    assert!(
        matches!(started.restore(&ckpt), Err(CkptError::Mismatch(_))),
        "restore accepted an already-started world"
    );

    // Truncated blobs fail loudly (the world is then poisoned and must be
    // rebuilt — restore makes no atomicity promise, only detection).
    let mut fresh = exposed_pair_world(&spec, 11);
    Protocol::cmap().install(&mut fresh);
    assert!(
        fresh.restore(&ckpt[..ckpt.len() / 2]).is_err(),
        "restore accepted a truncated checkpoint"
    );
}

#[test]
fn checkpoint_requires_a_started_world() {
    let spec = spec();
    let w = exposed_pair_world(&spec, 11);
    assert!(
        matches!(w.checkpoint(), Err(CkptError::Mismatch(_))),
        "checkpoint of a never-started world must be refused"
    );
}
