//! End-to-end conflict-map convergence on an engineered topology: the
//! defer machinery must engage for conflicting pairs and stay out of the
//! way for exposed pairs.

use cmap_suite::prelude::*;
use cmap_suite::topo::micro::{CONFLICTING, EXPOSED};

fn cmap_world(links: &[(usize, usize, f64)], seed: u64) -> World {
    let phy = PhyConfig::default();
    let medium = MediumBuilder::new(&phy).rss_links(4, links).build();
    let mut w = World::builder().medium(medium).phy(phy).seed(seed).build();
    w.add_flow(0, 1, 1400);
    w.add_flow(2, 3, 1400);
    for node in 0..4 {
        w.set_mac(node, Box::new(CmapMac::new(CmapConfig::default())));
    }
    w
}

fn defer_entries(w: &World, node: usize) -> usize {
    w.mac_ref(node)
        .as_any()
        .downcast_ref::<CmapMac>()
        .unwrap()
        .defer_table()
        .len_at(w.now())
}

#[test]
fn conflicting_pair_converges_within_seconds() {
    let mut w = cmap_world(CONFLICTING, 21);
    // Within a few broadcast periods both senders must hold defer entries.
    let mut converged_at = None;
    for sec in 1..=10u64 {
        w.run_until(time::secs(sec));
        if defer_entries(&w, 0) > 0 && defer_entries(&w, 2) > 0 {
            converged_at = Some(sec);
            break;
        }
    }
    let at = converged_at.expect("defer tables never populated");
    assert!(at <= 6, "convergence took {at}s");
    // And deferral must actually be happening.
    w.run_until(time::secs(12));
    assert!(w.stats().counter(CounterId::CmapDefer) > 10);
}

#[test]
fn exposed_pair_never_learns_false_conflicts() {
    let mut w = cmap_world(EXPOSED, 22);
    w.run_until(time::secs(12));
    // A handful of transient entries are tolerable; sustained deferral on
    // an exposed pair would throw away the concurrency gain.
    let defers = w.stats().counter(CounterId::CmapDefer);
    let vpkts = w.stats().counter(CounterId::CmapTxVpkt);
    assert!(
        defers * 5 < vpkts,
        "{defers} defers vs {vpkts} vpkts on an exposed pair"
    );
    // Both flows near full single-link rate.
    let t1 = w
        .stats()
        .flow_throughput_mbps(0, 1400, time::secs(4), time::secs(12));
    let t2 = w
        .stats()
        .flow_throughput_mbps(1, 1400, time::secs(4), time::secs(12));
    assert!(t1 + t2 > 9.0, "exposed aggregate {t1} + {t2}");
}

#[test]
fn defer_entries_expire_when_broadcasts_stop() {
    // Learn conflicts, then verify entries decay after their lifetime when
    // no refresh arrives (we stop time-advancing traffic by just letting
    // the expiry horizon pass: entries must not outlive DEFER_ENTRY_TIMEOUT
    // without refresh).
    let mut w = cmap_world(CONFLICTING, 23);
    w.run_until(time::secs(10));
    let before = defer_entries(&w, 0) + defer_entries(&w, 2);
    assert!(before > 0, "nothing learned to expire");
    // Entries are refreshed continuously while traffic flows; the check
    // here is structural: every live entry's expiry is within the
    // configured lifetime from now.
    for node in [0usize, 2] {
        let mac = w.mac_ref(node).as_any().downcast_ref::<CmapMac>().unwrap();
        let now = w.now();
        let horizon = now + cmap_core::DEFER_ENTRY_TIMEOUT;
        // All entries still live at `now` must be gone by `horizon` unless
        // refreshed — len_at(horizon) counts those that would survive
        // without refresh, which must be zero.
        assert_eq!(
            mac.defer_table().len_at(horizon),
            0,
            "node {node} has entries outliving their lifetime"
        );
    }
}
