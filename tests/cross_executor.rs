//! Integration: every vectorization method must produce the same fields
//! as the scalar reference, for every linear benchmark kernel, across
//! widths — the core correctness claim behind the performance numbers.

use std::sync::OnceLock;
use stencil_lab::core::api::Width;
use stencil_lab::core::exec::{dlt, reorg};
use stencil_lab::core::kernels;
use stencil_lab::grid::max_abs_diff;
use stencil_lab::simd::{NativeF64x4, NativeF64x8};
use stencil_lab::tune::probe::Budget;
use stencil_lab::{
    AutoTuner, Grid1D, Grid2D, Grid3D, Method, Pattern, PingPong, Solver, Tiling, Tuning,
};

const TOL: f64 = 1e-11;

/// A block-free 1D sweep entry: `t` steps of a pattern on a pair.
type Sweep1 = fn(&mut PingPong<Grid1D>, &Pattern, usize);

/// The paper's block-free 1D baselines no plan runs — data
/// reorganization and DLT — through their own entries at `width`.
fn baselines_1d(width: Width) -> [(&'static str, Sweep1); 2] {
    match width {
        Width::W8 => [
            ("DataReorg", reorg::sweep_1d::<NativeF64x8>),
            ("Dlt", dlt::sweep_1d::<NativeF64x8>),
        ],
        _ => [
            ("DataReorg", reorg::sweep_1d::<NativeF64x4>),
            ("Dlt", dlt::sweep_1d::<NativeF64x4>),
        ],
    }
}

/// `t` steps of `sweep` from `g`, on a pair cloned from it.
fn run_baseline(sweep: Sweep1, g: &Grid1D, p: &Pattern, t: usize) -> Grid1D {
    let mut pp = PingPong::new(g.clone());
    sweep(&mut pp, p, t);
    pp.into_current()
}

fn grid1(n: usize) -> Grid1D {
    Grid1D::from_fn(n, |i| ((i * 2654435761) % 1024) as f64 / 1024.0)
}

fn grid2(ny: usize, nx: usize) -> Grid2D {
    Grid2D::from_fn(ny, nx, |y, x| ((y * 31 + x * 17) % 257) as f64 / 257.0)
}

fn grid3(nz: usize, ny: usize, nx: usize) -> Grid3D {
    Grid3D::from_fn(nz, ny, nx, |z, y, x| {
        ((z * 7 + y * 11 + x * 13) % 127) as f64
    })
}

#[test]
fn one_dimensional_methods_agree() {
    for p in [kernels::heat1d(), kernels::d1p5()] {
        let g = grid1(1024);
        let t = 20;
        let want = Solver::new(p.clone())
            .method(Method::Scalar)
            .compile()
            .unwrap()
            .run_1d(&g, t)
            .unwrap();
        for width in [Width::W4, Width::W8] {
            for method in [Method::MultipleLoads, Method::TransposeLayout] {
                let got = Solver::new(p.clone())
                    .method(method)
                    .width(width)
                    .compile()
                    .unwrap()
                    .run_1d(&g, t)
                    .unwrap();
                assert!(
                    max_abs_diff(want.as_slice(), got.as_slice()) < TOL,
                    "{method:?} {width:?} pts={}",
                    p.points()
                );
            }
            for (name, sweep) in baselines_1d(width) {
                let got = run_baseline(sweep, &g, &p, t);
                assert!(
                    max_abs_diff(want.as_slice(), got.as_slice()) < TOL,
                    "{name} {width:?} pts={}",
                    p.points()
                );
            }
        }
    }
}

#[test]
fn folded_1d_matches_scalar_folded() {
    for p in [kernels::heat1d(), kernels::d1p5()] {
        for m in [2usize, 3] {
            let folded = stencil_lab::core::folding::fold(&p, m);
            if folded.radius() > 8 {
                continue; // beyond the 8-lane assembled-vector reach
            }
            // the assembled vectors reach at most `vl` lanes: use the
            // 8-lane width when the folded radius exceeds 4
            let width = if folded.radius() > 4 {
                Width::W8
            } else {
                Width::W4
            };
            let g = grid1(640);
            let steps = 4 * m;
            let want = Solver::new(folded)
                .method(Method::Scalar)
                .compile()
                .unwrap()
                .run_1d(&g, steps / m)
                .unwrap();
            let got = Solver::new(p.clone())
                .method(Method::Folded { m })
                .width(width)
                .compile()
                .unwrap()
                .run_1d(&g, steps)
                .unwrap();
            assert!(
                max_abs_diff(want.as_slice(), got.as_slice()) < TOL,
                "m={m} pts={}",
                p.points()
            );
        }
    }
}

#[test]
fn two_dimensional_methods_agree() {
    // life_count has weight sum 8, so the field grows as 8^t and only a
    // relative comparison is meaningful; the others are averaging.
    for p in [
        kernels::heat2d(),
        kernels::box2d9p(),
        kernels::gb(),
        kernels::life_count(),
    ] {
        let g = grid2(64, 72);
        let t = 10;
        let want = Solver::new(p.clone())
            .method(Method::Scalar)
            .compile()
            .unwrap()
            .run_2d(&g, t)
            .unwrap();
        for method in [Method::MultipleLoads, Method::TransposeLayout] {
            let got = Solver::new(p.clone())
                .method(method)
                .compile()
                .unwrap()
                .run_2d(&g, t)
                .unwrap();
            assert!(
                stencil_lab::grid::rel_l2_error(&got.to_dense(), &want.to_dense()) < 1e-13,
                "{method:?} pts={}",
                p.points()
            );
        }
    }
}

#[test]
fn folded_2d_matches_scalar_folded_all_kernels() {
    for p in [kernels::heat2d(), kernels::box2d9p(), kernels::gb()] {
        let g = grid2(57, 63);
        let folded = stencil_lab::core::folding::fold(&p, 2);
        let want = Solver::new(folded)
            .method(Method::Scalar)
            .compile()
            .unwrap()
            .run_2d(&g, 4)
            .unwrap();
        for width in [Width::W4, Width::W8] {
            let got = Solver::new(p.clone())
                .method(Method::Folded { m: 2 })
                .width(width)
                .compile()
                .unwrap()
                .run_2d(&g, 8)
                .unwrap();
            assert!(
                max_abs_diff(&want.to_dense(), &got.to_dense()) < 1e-10,
                "{width:?} pts={}",
                p.points()
            );
        }
    }
}

#[test]
fn three_dimensional_methods_agree() {
    for p in [kernels::heat3d(), kernels::box3d27p()] {
        let g = grid3(18, 20, 24);
        let t = 5;
        let want = Solver::new(p.clone())
            .method(Method::Scalar)
            .compile()
            .unwrap()
            .run_3d(&g, t)
            .unwrap();
        for method in [Method::MultipleLoads, Method::TransposeLayout] {
            let got = Solver::new(p.clone())
                .method(method)
                .compile()
                .unwrap()
                .run_3d(&g, t)
                .unwrap();
            assert!(
                max_abs_diff(&want.to_dense(), &got.to_dense()) < TOL,
                "{method:?} pts={}",
                p.points()
            );
        }
        // folded m=2
        let folded = stencil_lab::core::folding::fold(&p, 2);
        let want2 = Solver::new(folded)
            .method(Method::Scalar)
            .compile()
            .unwrap()
            .run_3d(&g, 2)
            .unwrap();
        let got2 = Solver::new(p.clone())
            .method(Method::Folded { m: 2 })
            .compile()
            .unwrap()
            .run_3d(&g, 4)
            .unwrap();
        assert!(
            max_abs_diff(&want2.to_dense(), &got2.to_dense()) < 1e-10,
            "folded pts={}",
            p.points()
        );
    }
}

/// Install a private-cache tuner once for this test binary.
fn tuner_ready() {
    static T: OnceLock<()> = OnceLock::new();
    T.get_or_init(|| {
        let path = std::env::temp_dir().join(format!(
            "stencil-cross-exec-tune-{}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let t: &'static AutoTuner = Box::leak(Box::new(
            AutoTuner::with_cache_path(path).budget(Budget::from_millis(120)),
        ));
        stencil_lab::core::tune::install_tuner(t);
    });
}

#[test]
fn three_dimensional_tuned_and_static_selection_agree() {
    // heat3d / box3d27p end-to-end through Plan::run_3d with the full
    // auto pipeline, under both the cost model (Static) and the
    // measured tuner — whatever either selects must reproduce the
    // scalar reference field away from the Dirichlet band a folded
    // choice widens
    tuner_ready();
    for p in [kernels::heat3d(), kernels::box3d27p()] {
        // the deeper 3D fold window lets the tuner pick m = 3 (band up
        // to 12 at t = 4): the grid must keep an interior even then
        let (nz, ny, nx) = (30, 30, 32);
        let g = grid3(nz, ny, nx);
        let t = 4;
        let want = Solver::new(p.clone())
            .method(Method::Scalar)
            .compile()
            .unwrap()
            .run_3d(&g, t)
            .unwrap();
        for tuning in [Tuning::Static, Tuning::Measured] {
            let plan = Solver::new(p.clone())
                .method(Method::Auto)
                .tiling(Tiling::Auto)
                .threads(2)
                .tuning(tuning)
                .domain_hint(&[nz, ny, nx])
                .compile()
                .unwrap();
            assert_ne!(plan.method(), Method::Auto, "{tuning:?}");
            assert_ne!(plan.tiling(), Tiling::Auto, "{tuning:?}");
            assert_eq!(plan.dims(), 3);
            let got = plan.run_3d(&g, t).unwrap();
            let band = plan.m() * p.radius() * t;
            assert!(band * 2 < nz, "interior must be nonempty");
            let mut worst = 0.0f64;
            for z in band..nz - band {
                for y in band..ny - band {
                    let (a, b) = (want.row(z, y), got.row(z, y));
                    for x in band..nx - band {
                        worst = worst.max((a[x] - b[x]).abs());
                    }
                }
            }
            assert!(
                worst < 1e-10,
                "{tuning:?} {:?} pts={} worst={worst:e}",
                plan.method(),
                p.points()
            );
        }
        // the measured decision is now cached: CacheOnly must resolve
        // it deterministically for the same shape class
        let cached = Solver::new(p.clone())
            .method(Method::Auto)
            .tiling(Tiling::Auto)
            .threads(2)
            .tuning(Tuning::CacheOnly)
            .domain_hint(&[nz, ny, nx])
            .compile()
            .unwrap();
        assert_ne!(cached.method(), Method::Auto);
    }
}

#[test]
fn arbitrary_asymmetric_patterns_1d() {
    // beyond the named benchmarks: random asymmetric taps
    let taps = [0.11, -0.2, 0.37, 0.4, 0.05];
    let p = Pattern::new_1d(&taps);
    let g = grid1(512);
    let want = Solver::new(p.clone())
        .method(Method::Scalar)
        .compile()
        .unwrap()
        .run_1d(&g, 8)
        .unwrap();
    for method in [Method::MultipleLoads, Method::TransposeLayout] {
        let got = Solver::new(p.clone())
            .method(method)
            .compile()
            .unwrap()
            .run_1d(&g, 8)
            .unwrap();
        assert!(
            max_abs_diff(want.as_slice(), got.as_slice()) < TOL,
            "{method:?}"
        );
    }
    for (name, sweep) in baselines_1d(Width::native_max()) {
        let got = run_baseline(sweep, &g, &p, 8);
        assert!(
            max_abs_diff(want.as_slice(), got.as_slice()) < TOL,
            "{name}"
        );
    }
}
