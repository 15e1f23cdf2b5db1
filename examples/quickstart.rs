//! Quickstart: compile a plan per vectorization method for a 1D heat
//! equation, verify they agree, then time the paper's folded method
//! against the baselines — each plan compiled once and reused. Data
//! reorganization and DLT are baselines no plan runs: they are called
//! through their executors' own entries.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::time::Instant;
use stencil_lab::core::exec::{dlt, reorg};
use stencil_lab::core::kernels;
use stencil_lab::simd::NativeF64x4;
use stencil_lab::{Grid1D, Method, Pattern, PingPong, Solver, Tiling, Width};

/// `t` steps of 1D heat from a grid, into a new one.
type Sweep = Box<dyn Fn(&Grid1D) -> Grid1D>;

fn main() {
    let n = 1 << 20;
    let t = 200;
    let grid = Grid1D::from_fn(n, |i| if i == n / 2 { 1.0 } else { 0.0 });
    let pattern = kernels::heat1d();

    println!(
        "1D heat, n = {n}, T = {t} ({})",
        stencil_lab::simd::backend_summary()
    );
    println!();

    // One compiled plan per method (compilation validates the
    // configuration up front), and the baselines' entries, all at 4
    // lanes as in Fig. 8.
    let plan = |method| -> Sweep {
        let plan = Solver::new(pattern.clone())
            .method(method)
            .width(Width::W4)
            .compile()
            .expect("valid block-free configuration");
        Box::new(move |g| plan.run_1d(g, t).unwrap())
    };
    let baseline = |sweep: fn(&mut PingPong<Grid1D>, &Pattern, usize)| -> Sweep {
        let p = pattern.clone();
        Box::new(move |g| {
            let mut pp = PingPong::new(g.clone());
            sweep(&mut pp, &p, t);
            pp.into_current()
        })
    };
    let methods = [
        ("Multiple Loads ", plan(Method::MultipleLoads)),
        ("Data Reorg     ", baseline(reorg::sweep_1d::<NativeF64x4>)),
        ("DLT            ", baseline(dlt::sweep_1d::<NativeF64x4>)),
        ("Our            ", plan(Method::TransposeLayout)),
        ("Our (2 steps)  ", plan(Method::Folded { m: 2 })),
    ];

    // 1. The single-step methods agree with the scalar reference (the
    //    folded one differs near the edges: its Dirichlet band is wider).
    let reference = Solver::new(pattern.clone())
        .method(Method::Scalar)
        .compile()
        .expect("scalar plan")
        .run_1d(&grid, t)
        .unwrap();
    for (name, sweep) in &methods[..4] {
        let out = sweep(&grid);
        let err = stencil_lab::grid::max_abs_diff(reference.as_slice(), out.as_slice());
        println!("{name}: max |diff vs scalar| = {err:.2e}");
        assert!(err < 1e-12);
    }
    println!();

    // 2. Throughput comparison (block-free, single thread). Each sweep was
    //    built once above; the timed loop only runs it.
    let flops = 2.0 * pattern.points() as f64 * n as f64 * t as f64;
    for (name, sweep) in &methods {
        let t0 = Instant::now();
        let out = sweep(&grid);
        let dt = t0.elapsed();
        let mass: f64 = out.as_slice().iter().sum();
        println!(
            "{name} {:>7.2} GFLOP/s   (mass error {:.1e})",
            flops / dt.as_secs_f64() / 1e9,
            (mass - 1.0).abs()
        );
    }
    println!();

    // 3. The full configuration: folding + tessellate tiling + threads,
    //    compiled once and run three times — the pool and the folded
    //    kernel are reused across runs.
    let threads = stencil_lab::runtime::available_parallelism().min(8);
    let plan = Solver::new(pattern.clone())
        .method(Method::Folded { m: 2 })
        .tiling(Tiling::Tessellate { time_block: 32 })
        .threads(threads)
        .compile()
        .expect("folded + tessellate");
    for round in 1..=3 {
        let t0 = Instant::now();
        let out = plan.run_1d(&grid, t).unwrap();
        let dt = t0.elapsed();
        let err = stencil_lab::grid::max_abs_diff(reference.as_slice(), out.as_slice());
        println!(
            "Folded + tessellation on {threads} threads, run {round}: {:.2} GFLOP/s \
             (max |diff vs scalar| = {err:.2e})",
            flops / dt.as_secs_f64() / 1e9
        );
    }
    println!("(the folded Dirichlet band differs only near the edges)");
    println!();

    // 4. Or let the library choose: Method::Auto resolves through the
    //    cost model at compile time.
    let auto = Solver::new(pattern).method(Method::Auto).compile().unwrap();
    println!("Method::Auto resolved to {:?}", auto.method());
}
