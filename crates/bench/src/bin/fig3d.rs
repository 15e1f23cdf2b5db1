//! Fig. 3D: the dedicated 3D register pipeline. Measures the z-ring
//! pipeline (plane rotation + separable two-stage fold) on the 3D
//! kernels, block-free at one thread and tessellate-tiled at the
//! configured thread count. The reload-per-block pipeline it replaced is
//! gone; its last numbers are frozen in the `historical` block of
//! `BENCH_fig3d.json` / `BENCH_smoke_fig3d.json`.
//!
//! Also runs one measured-tuner probe for the radius-2 box (3D125P):
//! the deeper fold window (`MAX_R3 = 4`) keeps `Folded { m: 2 }`
//! selectable there, and the probe report shows what the tuner picked.

use std::ops::Range;
use stencil_bench::{gflops, measure, workload, Args, Table};
use stencil_core::exec::folded::FoldedKernel;
use stencil_core::exec::folded3d::{self, Ring3};
use stencil_core::tile::{tessellate, tile_width};
use stencil_core::{kernels, Method, Pattern, Solver, Tiling, Tuning, Width};
use stencil_grid::{Grid3D, PingPong};
use stencil_runtime::PoolHandle;
use stencil_simd::{SimdF64, WithSimd};

fn cases() -> Vec<(&'static str, Pattern)> {
    vec![
        ("3D-Heat", kernels::heat3d()),
        ("3D27P", kernels::box3d27p()),
        ("3D125P", kernels::box3d125p()),
        ("3DStar-R2", kernels::star3d_r2()),
    ]
}

/// Block-free sweep through the z-ring pipeline: a one-thread plan, which
/// runs [`Ring3::auto`].
fn ring_blockfree(m: usize, g: &Grid3D, p: &Pattern, t: usize, reps: usize) -> f64 {
    let plan = Solver::new(p.clone())
        .method(Method::Folded { m })
        .width(Width::W4)
        .compile()
        .expect("every fig3d case compiles at m = 1, 2");
    let (_, d) = measure::best_of(reps, || plan.run_3d(g, t).expect("a 3D plan"));
    rate(g, p, t, d)
}

/// One z-ring range call, run by [`stencil_simd::dispatch`] at 4 lanes
/// on the backend the plans run on.
struct RingStep<'a> {
    k: &'a FoldedKernel,
    ring: Ring3,
    src: &'a Grid3D,
    dst: &'a mut Grid3D,
    zs: Range<usize>,
    ys: Range<usize>,
    xs: Range<usize>,
}

impl WithSimd for RingStep<'_> {
    type Output = ();

    #[inline(always)]
    fn run<V: SimdF64>(self) {
        let Self {
            k,
            ring,
            src,
            dst,
            zs,
            ys,
            xs,
        } = self;
        folded3d::step_range_3d_ring::<V>(k, ring, src, dst, zs, ys, xs)
    }
}

/// Tessellate-tiled sweep of `steps` folded inner steps through the
/// z-ring range kernel, at the geometry a 4-lane plan derives.
fn ring_tess(pool: &PoolHandle, k: &FoldedKernel, g: &Grid3D, tb: usize, steps: usize) -> Grid3D {
    let reff = k.radius();
    let ring = Ring3::auto(4, reff);
    let mut pp = PingPong::new(g.clone());
    tessellate::run_3d(
        pool,
        &mut pp,
        reff,
        reff,
        tile_width(&[g.ny(), g.nx()], reff, tb),
        tb,
        steps,
        &|src: &Grid3D, dst: &mut Grid3D, zs, ys, xs| {
            let step = RingStep {
                k,
                ring,
                src,
                dst,
                zs,
                ys,
                xs,
            };
            stencil_simd::dispatch(4, step)
        },
    );
    pp.into_current()
}

fn rate(g: &Grid3D, p: &Pattern, t: usize, d: std::time::Duration) -> f64 {
    gflops(g.nz() * g.ny() * g.nx(), t, 2 * p.points(), d)
}

fn main() {
    let args = Args::parse();
    let ((nz, ny, nx), t, tb, reps) = if args.paper {
        ((320, 320, 320), 40, 4, 1)
    } else if args.quick {
        ((40, 40, 40), 8, 2, 2)
    } else {
        ((128, 128, 128), 32, 4, 2)
    };
    let threads = args.threads();
    println!(
        "Fig. 3D — z-ring 3D register pipeline ({}, {nz}x{ny}x{nx}, t = {t})",
        stencil_simd::backend_summary()
    );

    let mut bf = Table::new("Fig 3D (block-free, 1 thread)", "GFLOP/s");
    let mut tess = Table::new("Fig 3D (tessellate)", "GFLOP/s");
    let pool = PoolHandle::new(threads);
    for (name, p) in cases() {
        if !args.wants(name) {
            continue;
        }
        let g = workload::random_3d(nz, ny, nx, 42);
        for m in [1usize, 2] {
            // the deeper window admits every case here: radius-2 at
            // m = 2 reaches folded radius 4 = MAX_R3
            let zring = ring_blockfree(m, &g, &p, t, reps);
            bf.put(name, format!("Z-ring (m={m})"), Some(zring));
            if m == 2 {
                // t is even, so the folded body covers every step
                let k = FoldedKernel::new(&p, m);
                let (_, d) = measure::best_of(reps, || ring_tess(&pool, &k, &g, tb, t / m));
                tess.put(name, "Z-ring tess (m=2)", Some(rate(&g, &p, t, d)));
            }
        }
    }
    bf.print();
    tess.print();

    // Measured tuner over the radius-2 box: Folded { m: 2 } must be in
    // the candidate pool (folded radius 4 fits the deeper window), and
    // the probe report shows the pick.
    stencil_tune::install();
    match Solver::new(kernels::box3d125p())
        .method(Method::Auto)
        .tiling(Tiling::Auto)
        .threads(threads)
        .tuning(Tuning::Measured)
        .domain_hint(&[nz, ny, nx])
        .compile()
    {
        Ok(plan) => println!(
            "tuner pick for 3D125P ({threads} threads): {:?} + {:?} at {:?}",
            plan.method(),
            plan.tiling(),
            plan.width()
        ),
        Err(e) => eprintln!("tuner probe for 3D125P failed: {e}"),
    }

    if let Some(path) = &args.json {
        Table::dump_json(&[&bf, &tess], path).expect("write json");
        eprintln!("wrote {path}");
    }
}
