//! Explore a generated 50-node testbed: link-population bands (§5.1),
//! degree distribution, region partition and an ASCII floor map.
//!
//! ```text
//! cargo run --release --example testbed_explorer [seed]
//! ```

use cmap_suite::bench::runner::{testbed_ctx, Spec, TestbedCtx};
use cmap_suite::prelude::*;
use cmap_topo::select;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let TestbedCtx { tb, lm, .. } = testbed_ctx(&Spec {
        testbed_seed: seed,
        ..Spec::default()
    });

    println!(
        "testbed seed {seed}: {} nodes on {:.0}x{:.0} m\n",
        tb.len(),
        Testbed::WIDTH_M,
        Testbed::DEPTH_M
    );

    // ASCII floor map (x -> columns, y -> rows), region digits.
    let regions = select::regions(&tb);
    let (cols, rows) = (70usize, 20usize);
    let mut grid = vec![vec![b'.'; cols]; rows];
    for (i, &(x, y)) in tb.positions.iter().enumerate() {
        let c = ((x / Testbed::WIDTH_M) * (cols - 1) as f64) as usize;
        let r = ((y / Testbed::DEPTH_M) * (rows - 1) as f64) as usize;
        grid[r][c] = b'0' + regions[i] as u8;
    }
    for row in &grid {
        println!("{}", String::from_utf8_lossy(row));
    }

    let c = lm.connectivity();
    println!("\nlink population (paper §5.1 in parentheses):");
    println!("  connected directed pairs: {} (2162)", c.connected_pairs);
    println!(
        "  PRR bands: weak {:.0}% (68), intermediate {:.0}% (12), perfect {:.0}% (20)",
        100.0 * c.frac_weak,
        100.0 * c.frac_intermediate,
        100.0 * c.frac_perfect
    );
    println!(
        "  degree: mean {:.1} (15.2), median {:.0} (17)",
        c.mean_degree, c.median_degree
    );
    println!(
        "  signal percentiles: p10 {:.1} dBm, p90 {:.1} dBm",
        lm.signal_p10(),
        lm.signal_p90()
    );

    // Degree histogram.
    let mut degrees: Vec<usize> = (0..tb.len())
        .map(|a| {
            (0..tb.len())
                .filter(|&b| b != a && lm.prr(a, b) >= 0.1 && lm.prr(b, a) >= 0.1)
                .count()
        })
        .collect();
    degrees.sort_unstable();
    println!("\ndegree distribution (PRR >= 0.1 both ways):");
    for chunk in degrees.chunks(10) {
        println!("  {chunk:?}");
    }

    // How many experiment configurations does this seed support?
    let mut rng = cmap_sim::rng::stream_rng(seed, 0xE0);
    println!("\nselectable experiment configurations:");
    println!(
        "  exposed-terminal pairs: {}",
        select::exposed_pairs(&lm, usize::MAX, &mut rng).len()
    );
    println!(
        "  in-range sender pairs: {}",
        select::in_range_pairs(&lm, usize::MAX, &mut rng).len()
    );
    println!(
        "  hidden-terminal pairs: {}",
        select::hidden_pairs(&lm, usize::MAX, &mut rng).len()
    );
    println!(
        "  mesh trees (fanout 3): {}",
        select::mesh_topologies(&lm, 3, 10, &mut rng).len()
    );
}
