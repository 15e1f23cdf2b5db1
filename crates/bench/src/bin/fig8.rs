//! Fig. 8: absolute performance of the vectorization methods in
//! single-thread blocking-free experiments, across problem sizes spanning
//! L1 cache to main memory, for T and 10T total time steps.

use stencil_bench::suite::{run_blockfree_1d_with, BlockFreeMethod};
use stencil_bench::{Args, Table};

/// (label, problem size in doubles) spanning the storage hierarchy of a
/// Skylake-class core: 32 KB L1, 1 MB L2, ~24 MB shared L3.
pub const SIZE_LADDER: [(&str, usize); 8] = [
    ("L1/1000", 1_000),
    ("L1/2000", 2_000),
    ("L2/16k", 16_000),
    ("L2/48k", 48_000),
    ("L3/512k", 512_000),
    ("L3/1.5M", 1_500_000),
    ("Mem/4M", 4_000_000),
    ("Mem/10.24M", 10_240_000),
];

fn main() {
    let args = Args::parse();
    let (t_small, t_big) = if args.paper {
        (1000, 10_000)
    } else if args.quick {
        (20, 200)
    } else {
        (100, 1000)
    };
    let sizes: Vec<(&str, usize)> = if args.quick {
        SIZE_LADDER[..5].to_vec()
    } else {
        SIZE_LADDER.to_vec()
    };

    println!(
        "Fig. 8 — single-thread blocking-free 1D-Heat ({})",
        stencil_simd::backend_summary()
    );
    // one sweep per method, reused across every size and both step
    // counts — the harness never re-plans between cells
    let plans: Vec<_> = BlockFreeMethod::ALL
        .iter()
        .map(|&m| (m, m.sweep_1d_heat()))
        .collect();
    let mut tables = Vec::new();
    for (label, t) in [("T", t_small), ("10T", t_big)] {
        let mut tab = Table::new(format!("Fig 8 ({label} = {t} steps)"), "GFLOP/s");
        for &(size_label, n) in &sizes {
            // keep total work roughly constant across sizes so small
            // sizes don't finish in microseconds
            let steps = (t * 2_000_000 / n).clamp(t, 200 * t);
            for (m, plan) in &plans {
                let gf = run_blockfree_1d_with(plan, n, steps);
                tab.put(size_label, m.name(), Some(gf));
            }
            eprint!(".");
        }
        eprintln!();
        tab.print();
        tables.push(tab);
    }
    if let Some(path) = &args.json {
        Table::dump_json(&tables.iter().collect::<Vec<_>>(), path).expect("write json");
        eprintln!("wrote {path}");
    }
}
