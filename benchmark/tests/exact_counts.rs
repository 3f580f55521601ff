//! Alone in its test binary: the allocation counter is process-wide, so
//! nothing else may allocate while it is read.

use cmap_benchmark::run::{run_rep, untouched};
use cmap_benchmark::workload::{by_name, Workload};
use cmap_sim::time::millis;

/// Digest and timed-region allocation count of three reps in a row, on a
/// thread of their own: the engine recycles scheduler storage per thread,
/// so a fresh thread has the history a fresh process has.
fn three_reps(w: &'static Workload) -> Vec<(u64, u64)> {
    std::thread::spawn(move || {
        (0..3)
            .map(|_| {
                let rep = run_rep(w, 6, None, true, &untouched);
                (rep.digest, rep.allocs)
            })
            .collect()
    })
    .join()
    .expect("reps do not panic")
}

#[test]
fn the_same_history_repeats_digest_and_allocation_count_exactly() {
    for name in ["testbed_cmap", "testbed_dcf", "ckpt_cycle"] {
        let w: &'static Workload = Box::leak(Box::new(Workload {
            rep_sim: millis(1000),
            ..*by_name(name).expect("declared")
        }));
        let first = three_reps(w);
        assert!(
            first.iter().all(|r| r.0 == first[0].0),
            "{name}: digests {first:x?}"
        );
        assert!(
            first[0].1 > 0,
            "{name}: the counting allocator is not installed"
        );
        assert_eq!(
            first,
            three_reps(w),
            "{name}: same seed, same history, other counts"
        );
    }
}
