//! Frame-pool soak: sustained CMAP traffic with crash/restart churn, frame
//! corruption and duplication faults, and a checkpoint/restore taken with
//! frames in flight. The pool must neither leak (the high-water mark stays
//! bounded by the radio population — at most one transmission per node plus
//! propagation stragglers) nor double-free (debug assertions in the pool
//! fire on stale handles), and once every radio quiesces the live-slot
//! count must drain to exactly zero.

mod support;

use cmap_suite::bench::{runner::Spec, Protocol};
use cmap_suite::sim::time::{millis, secs};
use cmap_suite::sim::Outage;
use cmap_suite::sim::{FaultPlan, NodeId, World};
use support::exposed_pair_world;

/// Churn + channel-fault plan ending with every node held down long enough
/// for all in-flight frame events to drain.
fn soak_plan(nodes: usize) -> FaultPlan {
    let mut plan = FaultPlan::clean();
    // Exercise the corrupted-frame (slot released, nothing dispatched) and
    // duplicated-frame (one slot graded twice) pool paths.
    plan.corrupt_prob = 0.05;
    plan.dup_frame_prob = 0.05;
    // Staggered mid-run crashes: restart churn recycles any slot the dead
    // node had in flight via the normal TxEnd/FrameEnd events.
    for (i, down_ms) in [(1usize, 800u64), (2, 1200), (3, 1600)] {
        plan.churn.push(Outage {
            node: NodeId::new(i),
            down_at: millis(down_ms),
            up_at: millis(down_ms + 300),
        });
    }
    // Quiesce: everyone down for the final stretch; transmissions already
    // on the air complete (and release their slots), nothing new starts.
    for node in 0..nodes {
        plan.churn.push(Outage {
            node: NodeId::new(node),
            down_at: secs(3),
            up_at: secs(10),
        });
    }
    plan
}

fn build_soak_world(spec: &Spec, run_seed: u64) -> World {
    let mut world = exposed_pair_world(spec, run_seed);
    Protocol::cmap().install(&mut world);
    world.install_faults(soak_plan(world.node_count()));
    world
}

#[test]
fn pool_drains_to_zero_after_churn_and_restore() {
    let spec = Spec {
        duration: secs(4),
        configs: 2,
        ..Spec::default()
    };

    // Phase 1: run to mid-flight and checkpoint with slots live.
    let mut w = build_soak_world(&spec, 21);
    w.run_until(secs(2));
    assert!(w.pool_high_water() > 0, "no transmissions recorded");
    assert!(
        w.pool_recycled() > 1000,
        "pool barely cycled: {}",
        w.pool_recycled()
    );
    let ckpt = w.checkpoint().expect("checkpoint at mid-run");
    let live_at_ckpt = w.inflight_tx_count();
    let recycled_at_ckpt = w.pool_recycled();

    // Phase 2: restore into a fresh world; the counters continue and the
    // restored live set matches the checkpointed one.
    let mut r = build_soak_world(&spec, 21);
    r.restore(&ckpt).expect("restore");
    assert_eq!(r.inflight_tx_count(), live_at_ckpt);
    assert_eq!(r.pool_recycled(), recycled_at_ckpt);

    // Phase 3: soak to the end of the faulted run, then through the
    // all-nodes-down quiesce window.
    r.run_until(spec.duration);
    assert_eq!(r.watchdog_violations(), 0, "watchdog violations");

    // No leak: one slot per node at the half-duplex limit, plus a little
    // headroom for propagation-delay stragglers.
    assert!(
        r.pool_high_water() <= 2 * r.node_count(),
        "pool high water {} exceeds the in-flight bound for {} nodes",
        r.pool_high_water(),
        r.node_count()
    );
    // Quiesced: every claimed slot was released exactly once.
    assert_eq!(
        r.inflight_tx_count(),
        0,
        "live slots remain after quiesce (leak)"
    );
    assert!(
        r.pool_recycled() > recycled_at_ckpt,
        "no recycling after restore"
    );
}
