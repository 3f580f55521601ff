//! How fast the host is right now, from a fixed kernel of the benchmark's
//! own.
//!
//! The box this runs on changes speed for ten to sixty seconds at a time:
//! in a five-minute series of 0.3 s reps, stretches of reps run 35-55 %
//! slower than the rest, and a pure floating-point loop timed between them
//! slows by the same factor (3 s medians: rep wall varies 12.8 %, rep wall
//! ÷ loop time 3.3 %; README.md, "Host speed"). Nothing inside a run of
//! seconds averages that out. So a run times this kernel before and after
//! every rep and reports the rep's timings in *nominal* host seconds:
//! measured seconds × (the kernel's nominal time ÷ its time beside the
//! rep). The kernel never changes with the repository, so a change to the
//! simulator moves the reported numbers one for one, and a host that
//! slows down does not. Raw medians and the factor are printed beside
//! them.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the baseline box at full speed, seconds. Sets the
/// scale of nominal seconds; never retuned.
pub const NOMINAL_S: f64 = 0.0055;

/// Time the kernel once: a dependent chain of multiply-adds with a
/// logarithm and a square root per step. Compute only; the slow stretches
/// it is there to see slow computation and memory traffic alike.
pub fn kernel_s() -> f64 {
    let t0 = Instant::now();
    let mut x = 1.0001f64;
    let mut acc = 0.0f64;
    for _ in 0..1_000_000 {
        x = x * 1.000_000_1 + 0.000_001;
        acc += x.ln() * x.sqrt();
    }
    black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// Host speed between two kernel timings: 1.0 is the baseline box at full
/// speed, 0.8 a host on which the kernel took a quarter longer.
pub fn host_speed(before_s: f64, after_s: f64) -> f64 {
    NOMINAL_S / ((before_s + after_s) / 2.0)
}
