//! Table 2: performance improvements on different storage levels in the
//! single-thread blocking-free experiments, relative to Multiple Loads
//! (paper means: 1.00 / 1.11 / 1.35 / 1.98 / 2.79).

use stencil_bench::suite::{run_blockfree_1d_with, BlockFreeMethod};
use stencil_bench::{Args, Table};

/// (storage level, representative sizes) — two sizes per level, averaged.
const LEVELS: [(&str, [usize; 2]); 4] = [
    ("L1 Cache", [1_000, 2_000]),
    ("L2 Cache", [16_000, 48_000]),
    ("L3 Cache", [512_000, 1_500_000]),
    ("Memory", [4_000_000, 10_240_000]),
];

fn main() {
    let args = Args::parse();
    let t = if args.paper {
        1000
    } else if args.quick {
        20
    } else {
        100
    };
    let levels: &[(&str, [usize; 2])] = if args.quick { &LEVELS[..2] } else { &LEVELS };

    println!("Table 2 — relative improvement per storage level (base: Multiple Loads)");
    // build each method's sweep once for the whole table
    let plans: Vec<_> = BlockFreeMethod::ALL
        .iter()
        .map(|m| m.sweep_1d_heat())
        .collect();
    let mut tab = Table::new("Table 2", "x over Multiple Loads");
    let mut means = vec![0.0f64; BlockFreeMethod::ALL.len()];
    for (level, ns) in levels {
        let mut base = 0.0;
        let mut vals = vec![0.0f64; BlockFreeMethod::ALL.len()];
        for &n in ns {
            let steps = (t * 2_000_000 / n).clamp(t, 200 * t);
            for (i, plan) in plans.iter().enumerate() {
                let gf = run_blockfree_1d_with(plan, n, steps);
                vals[i] += gf;
                if i == 0 {
                    base += gf;
                }
            }
        }
        for (i, m) in BlockFreeMethod::ALL.iter().enumerate() {
            let rel = vals[i] / base;
            tab.put(*level, m.name(), Some(rel));
            means[i] += rel;
        }
        eprint!(".");
    }
    eprintln!();
    for (i, m) in BlockFreeMethod::ALL.iter().enumerate() {
        tab.put("Mean", m.name(), Some(means[i] / levels.len() as f64));
    }
    tab.print();
    println!("paper means: 1.00x / 1.11x / 1.35x / 1.98x / 2.79x");
    if let Some(path) = &args.json {
        Table::dump_json(&[&tab], path).expect("write json");
    }
}
