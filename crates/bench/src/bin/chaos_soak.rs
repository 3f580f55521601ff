//! Chaos soak: fault plans × seeds over the exposed-terminal topology.
//!
//! The robustness gauntlet behind the §4 safety argument: under node
//! churn, bursty channels, lockups, clock skew and frame corruption,
//! CMAP must degrade *gracefully* — no panics, no watchdog violations,
//! goodput within a stated bound of the 802.11 DCF baseline under the
//! same fault plan — and stay bit-deterministic (same seed + same plan
//! ⇒ byte-identical `Stats::snapshot()`).
//!
//! Exits nonzero on any violation, so CI can gate on it.

fn main() {
    cmap_bench::figures::figure_main(env!("CARGO_BIN_NAME"));
}
