//! Integration: the compile-once/run-many `Plan` API.
//!
//! Three claims are pinned here:
//!
//! 1. **Typed error surface** — every invalid configuration returns the
//!    right [`PlanError`] variant from `compile()`; no configuration
//!    reachable through the public API panics, and every accepted one
//!    agrees with the scalar plan through every run entry point (the
//!    method × tiling × width route table). The DLT baselines, which no
//!    plan runs, refuse a grid their lifted rows cannot hold with a
//!    panic before any load.
//! 2. **Plan reuse** — a single compiled plan produces identical results
//!    across repeated runs while reusing its thread pool and its folded
//!    kernel (no per-run re-planning).
//! 3. **Leftover steps** — the `t % m` tessellate tail goes through the
//!    same range-step kernels as the tiled body, in all three
//!    dimensions.

use stencil_lab::core::exec::dlt;
use stencil_lab::core::kernels;
use stencil_lab::core::tile::split;
use stencil_lab::grid::max_abs_diff;
use stencil_lab::simd::NativeF64x4;
use stencil_lab::{
    Domain, Grid1D, Grid2D, Grid3D, Method, Pattern, PingPong, Plan, PlanConfig, PlanError,
    PoolHandle, Ring3, Solver, ThreadPool, Tiling, Tuning, Width,
};

/// What the entry-point checks need of a grid of any dimensionality.
trait TestGrid: Domain {
    /// A grid of this one's shape with every cell — padding included —
    /// NaN: a scratch surface that proves a run never reads what it did
    /// not write.
    fn poisoned(&self) -> Self;
    /// The logical cells, outermost axis first.
    fn dense(&self) -> Vec<f64>;
    fn bits(&self) -> Vec<u64> {
        self.dense().iter().map(|v| v.to_bits()).collect()
    }
}

impl TestGrid for Grid1D {
    fn poisoned(&self) -> Self {
        let mut g = self.clone();
        g.as_mut_slice().fill(f64::NAN);
        g
    }
    fn dense(&self) -> Vec<f64> {
        self.as_slice().to_vec()
    }
}

impl TestGrid for Grid2D {
    fn poisoned(&self) -> Self {
        let mut g = self.clone();
        g.as_mut_slice().fill(f64::NAN);
        g
    }
    fn dense(&self) -> Vec<f64> {
        self.to_dense()
    }
}

impl TestGrid for Grid3D {
    fn poisoned(&self) -> Self {
        let mut g = self.clone();
        g.as_mut_slice().fill(f64::NAN);
        g
    }
    fn dense(&self) -> Vec<f64> {
        self.to_dense()
    }
}

/// `plan.run_pair_at` on a pair whose current surface is `g` and whose
/// scratch surface is [`TestGrid::poisoned`].
fn run_poisoned<D: TestGrid>(plan: &Plan, g: &D, t: usize, origin: usize) -> Result<D, PlanError> {
    let mut pair = PingPong::from_pair(g.clone(), g.poisoned());
    plan.run_pair_at(&mut pair, t, origin)
        .map(|()| pair.into_current())
}

/// Every entry point on `g`: the owned-grid run, and the pair entry at
/// origin 0 and off it.
fn entries<D: TestGrid>(plan: &Plan, g: &D, t: usize) -> Vec<Result<Vec<f64>, PlanError>> {
    [
        plan.run(g, t),
        run_poisoned(plan, g, t, 0),
        run_poisoned(plan, g, t, 5),
    ]
    .map(|r| r.map(|o| o.dense()))
    .into()
}

// ---------------------------------------------------------------------
// 1. error surface
// ---------------------------------------------------------------------

fn compile_err(s: Solver) -> PlanError {
    s.compile().expect_err("configuration must be rejected")
}

#[test]
fn zero_fold_factor_is_invalid() {
    let err = compile_err(Solver::new(kernels::heat1d()).method(Method::Folded { m: 0 }));
    assert!(matches!(err, PlanError::InvalidFold { m: 0, .. }), "{err}");
}

#[test]
fn invalid_ring_is_rejected_before_any_tuner_involvement() {
    let bad = Ring3 { depth: 0, slab: 4 };
    // static path: typed error, not a panic
    let err = compile_err(
        Solver::new(kernels::heat3d())
            .method(Method::Folded { m: 2 })
            .ring3(bad),
    );
    assert!(matches!(err, PlanError::InvalidRing { .. }), "{err}");
    // measured path: the pinned ring is validated before the tuner is
    // even looked up — no tuner is installed in this test binary, yet
    // the error is still InvalidRing, never TunerUnavailable or a
    // TuningFailed after a wasted probe pass
    let err = compile_err(
        Solver::new(kernels::heat3d())
            .method(Method::Auto)
            .tiling(Tiling::Auto)
            .tuning(Tuning::Measured)
            .ring3(bad),
    );
    assert!(matches!(err, PlanError::InvalidRing { .. }), "{err}");
    // a valid ring sticks on the compiled plan
    let good = Ring3 { depth: 6, slab: 3 };
    let plan = Solver::new(kernels::heat3d())
        .method(Method::Folded { m: 2 })
        .ring3(good)
        .compile()
        .unwrap();
    assert_eq!(plan.ring3(), Some(good));
}

#[test]
fn oversized_fold_radius_is_invalid() {
    // 1D: d1p5 has radius 2; m = 3 folds to radius 6 > 4 lanes
    let err = compile_err(
        Solver::new(kernels::d1p5())
            .method(Method::Folded { m: 3 })
            .width(Width::W4),
    );
    assert!(
        matches!(
            err,
            PlanError::InvalidFold {
                m: 3,
                folded_radius: 6,
                max_radius: 4,
            }
        ),
        "{err}"
    );
    // 3D: the z-ring window is bounded to folded radius 4 — a radius-2
    // pattern folded three times (radius 6) exceeds it at any width
    let err = compile_err(Solver::new(kernels::box3d125p()).method(Method::Folded { m: 3 }));
    assert!(
        matches!(
            err,
            PlanError::InvalidFold {
                m: 3,
                folded_radius: 6,
                max_radius: 4,
            }
        ),
        "{err}"
    );
    // ...and scalar lanes keep the narrow cap (the fallback sweep has
    // no register window to spend)
    let err = compile_err(
        Solver::new(kernels::heat3d())
            .method(Method::Folded { m: 3 })
            .width(Width::W1),
    );
    assert!(
        matches!(
            err,
            PlanError::InvalidFold {
                m: 3,
                folded_radius: 3,
                max_radius: 2,
            }
        ),
        "{err}"
    );
}

#[test]
fn degenerate_tiling_parameters_are_invalid() {
    for p in [kernels::heat1d(), kernels::heat2d(), kernels::heat3d()] {
        let err = compile_err(Solver::new(p).tiling(Tiling::Tessellate { time_block: 0 }));
        assert!(matches!(err, PlanError::InvalidTiling { .. }), "{err}");
    }
}

// The DLT baselines lift the innermost axis into lanes: a ragged extent,
// or a lifted row shorter than the radius (whose seam loads would reach
// before the row), panics before the first load.

#[test]
#[should_panic(expected = "n must be a multiple of vl")]
fn dlt_rejects_ragged_grids_1d() {
    let mut pp = PingPong::new(Grid1D::from_fn(1023, |i| i as f64));
    dlt::sweep_1d::<NativeF64x4>(&mut pp, &kernels::heat1d(), 2);
}

#[test]
#[should_panic(expected = "n must be a multiple of vl")]
fn dlt_rejects_ragged_grids_2d() {
    let mut pp = PingPong::new(Grid2D::from_fn(16, 30, |y, x| (y + x) as f64));
    split::sweep_2d::<NativeF64x4>(&ThreadPool::new(1), &mut pp, &kernels::heat2d(), 2, 2);
}

#[test]
#[should_panic(expected = "n must be a multiple of vl")]
fn dlt_rejects_ragged_grids_3d() {
    let mut pp = PingPong::new(Grid3D::from_fn(12, 12, 30, |z, y, x| (z + y + x) as f64));
    split::sweep_3d::<NativeF64x4>(&ThreadPool::new(1), &mut pp, &kernels::heat3d(), 2, 2);
}

#[test]
#[should_panic(expected = "radius exceeds lifted row")]
fn dlt_rejects_grids_shorter_than_the_lifted_radius_1d() {
    // aligned (4 % 4 == 0), but the lifted row has 1 point < radius 2
    let mut pp = PingPong::new(Grid1D::from_fn(4, |i| i as f64));
    split::sweep_1d::<NativeF64x4>(&ThreadPool::new(1), &mut pp, &kernels::d1p5(), 2, 1);
}

#[test]
#[should_panic(expected = "radius exceeds lifted row")]
fn dlt_rejects_grids_shorter_than_the_lifted_radius_2d() {
    let mut pp = PingPong::new(Grid2D::from_fn(16, 4, |y, x| (y + x) as f64));
    let p = Pattern::new_2d(2, &[0.04; 25]);
    split::sweep_2d::<NativeF64x4>(&ThreadPool::new(1), &mut pp, &p, 2, 1);
}

#[test]
#[should_panic(expected = "radius exceeds lifted row")]
fn dlt_rejects_grids_shorter_than_the_lifted_radius_3d() {
    let mut pp = PingPong::new(Grid3D::from_fn(12, 12, 4, |z, y, x| (z + y + x) as f64));
    let p = kernels::box3d125p();
    split::sweep_3d::<NativeF64x4>(&ThreadPool::new(1), &mut pp, &p, 2, 1);
}

#[test]
fn run_rejects_wrong_dimensionality() {
    let plan = Solver::new(kernels::heat1d()).compile().unwrap();
    let g2 = Grid2D::from_fn(16, 16, |_, _| 0.0);
    let g3 = Grid3D::from_fn(8, 8, 8, |_, _, _| 0.0);
    assert!(matches!(
        plan.run_2d(&g2, 1),
        Err(PlanError::DimensionMismatch {
            pattern_dims: 1,
            domain_dims: 2,
        })
    ));
    assert!(matches!(
        plan.run_3d(&g3, 1),
        Err(PlanError::DimensionMismatch {
            pattern_dims: 1,
            domain_dims: 3,
        })
    ));
    let plan2 = Solver::new(kernels::heat2d()).compile().unwrap();
    let g1 = Grid1D::from_fn(64, |_| 0.0);
    assert!(matches!(
        plan2.run_1d(&g1, 1),
        Err(PlanError::DimensionMismatch { .. })
    ));
}

/// Agreement of `got` with the scalar reference `want` away from the
/// boundary: folding widens the Dirichlet band from `r` to `m * r`, and
/// the discrepancy zone then grows by `r` per time step, so only cells
/// at least `band = t * r` inside every face are comparable across
/// methods. `extents` is outermost-first.
fn interior_diff(want: &[f64], got: &[f64], extents: &[usize], band: usize) -> f64 {
    let mut worst = 0.0f64;
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        let mut rest = i;
        let inside = extents.iter().rev().all(|&n| {
            let c = rest % n;
            rest /= n;
            c >= band && c + band < n
        });
        if inside {
            worst = worst.max((w - g).abs());
        }
    }
    worst
}

#[test]
fn no_configuration_panics_through_the_public_api() {
    // Sweep the whole method × tiling × width product on an aligned and
    // a ragged grid per dimensionality, through every run entry point:
    // compile() either returns a typed error or a plan whose runs agree
    // with the Method::Scalar plan — never a panic.
    // The rule table is the oracle for which: PlanConfig::validate
    // accepts exactly the cells that compile, with the same error.
    // Those grids are one tile under the production width rule, so every
    // tessellated cell also runs a third grid the rule cuts in three —
    // trapezoids against the same scalar oracle — on one thread and on
    // four, which must agree bit for bit: the width reads no thread count.
    const T: usize = 5; // odd: Folded { m: 2 } also runs its t % m tail
    let patterns: [Pattern; 3] = [kernels::heat1d(), kernels::heat2d(), kernels::heat3d()];
    let methods = [
        Method::Scalar,
        Method::MultipleLoads,
        Method::TransposeLayout,
        Method::Folded { m: 1 },
        Method::Folded { m: 2 },
        Method::Folded { m: 9 },
        Method::Auto,
    ];
    let tilings = [Tiling::None, Tiling::Tessellate { time_block: 3 }];
    let widths = [Width::W1, Width::W4, Width::W8];
    // second grid of each pair: innermost extent not a lane multiple
    let g1 = [128usize, 131].map(|n| Grid1D::from_fn(n, |i| (i % 7) as f64));
    let g2 = [(32usize, 40usize), (30, 37)]
        .map(|(ny, nx)| Grid2D::from_fn(ny, nx, |y, x| ((y + x) % 5) as f64));
    let g3 = [(16usize, 14usize, 24usize), (15, 14, 19)]
        .map(|(nz, ny, nx)| Grid3D::from_fn(nz, ny, nx, |z, y, x| ((z + y + x) % 3) as f64));
    // (dense scalar reference, extents) per dimensionality and grid
    let scalar = |d: usize| {
        Solver::new(patterns[d - 1].clone())
            .method(Method::Scalar)
            .compile()
            .unwrap()
    };
    let want: [[(Vec<f64>, Vec<usize>); 2]; 3] = [
        g1.each_ref().map(|g| {
            let out = scalar(1).run_1d(g, T).unwrap();
            (out.as_slice().to_vec(), vec![g.len()])
        }),
        g2.each_ref().map(|g| {
            let out = scalar(2).run_2d(g, T).unwrap();
            (out.to_dense(), vec![g.ny(), g.nx()])
        }),
        g3.each_ref().map(|g| {
            let out = scalar(3).run_3d(g, T).unwrap();
            (out.to_dense(), vec![g.nz(), g.ny(), g.nx()])
        }),
    ];

    // multi-tile at time block 3: 65 536 cells, 16 rows of 4096, 15
    // planes of 64 x 66 are what a tile's budget holds (every floor here
    // is lower), so each grid is two whole tiles and a ragged third
    let wide1 = Grid1D::from_fn(2 * 65_536 + 8_001, |i| (i as f64 * 0.013).sin());
    let wide2 = Grid2D::from_fn(38, 4096, |y, x| (y as f64 * 0.37 + x as f64 * 0.011).sin());
    let wide3 = Grid3D::from_fn(34, 64, 66, |z, y, x| {
        (z as f64 * 0.41 + y as f64 * 0.23 + x as f64 * 0.07).sin()
    });
    let wide_want: [(Vec<f64>, Vec<usize>); 3] = [
        (
            scalar(1).run_1d(&wide1, T).unwrap().as_slice().to_vec(),
            vec![wide1.len()],
        ),
        (
            scalar(2).run_2d(&wide2, T).unwrap().to_dense(),
            vec![38, 4096],
        ),
        (
            scalar(3).run_3d(&wide3, T).unwrap().to_dense(),
            vec![34, 64, 66],
        ),
    ];
    let pool = PoolHandle::new(2);
    let (mut ok, mut rejected) = (0usize, 0usize);
    for p in &patterns {
        for &m in &methods {
            for &tl in &tilings {
                for &w in &widths {
                    let cfg = Solver::new(p.clone())
                        .method(m)
                        .tiling(tl)
                        .width(w)
                        .pool(pool.clone());
                    let cell = PlanConfig {
                        method: m,
                        tiling: tl,
                        width: w,
                        ring3: None,
                    };
                    let compiled = cfg.compile();
                    assert_eq!(
                        cell.validate(p).err(),
                        compiled.as_ref().err().cloned(),
                        "{}D {cell:?}: validate and compile disagree",
                        p.dims()
                    );
                    let Ok(plan) = compiled else {
                        rejected += 1;
                        continue;
                    };
                    ok += 1;
                    // what a plan reports recompiles to the same plan
                    assert_eq!(plan.config().validate(p), Ok(()));
                    if m != Method::Auto {
                        let ring3 = plan.ring3();
                        assert_eq!(plan.config(), PlanConfig { ring3, ..cell });
                    }
                    for i in 0..2 {
                        let runs = match p.dims() {
                            1 => entries(&plan, &g1[i], T),
                            2 => entries(&plan, &g2[i], T),
                            _ => entries(&plan, &g3[i], T),
                        };
                        let (want, extents) = &want[p.dims() - 1][i];
                        let ctx = format!("{}D {m:?}/{tl:?}/{w:?} grid {i}", p.dims());
                        for (entry, run) in runs.iter().enumerate() {
                            let got = run.as_ref().unwrap_or_else(|e| {
                                panic!("{ctx} entry {entry}: unexpected run error {e}")
                            });
                            let diff = interior_diff(want, got, extents, T * p.radius());
                            assert!(diff < 1e-10, "{ctx} entry {entry}: diff {diff}");
                        }
                    }
                    if !matches!(tl, Tiling::Tessellate { .. }) {
                        continue;
                    }
                    let ctx = format!("{}D {m:?}/{tl:?}/{w:?} wide grid", p.dims());
                    let (want, extents) = &wide_want[p.dims() - 1];
                    let on = |threads: usize| {
                        let plan = cfg.clone().threads(threads).compile().expect(&ctx);
                        match p.dims() {
                            1 => plan.run_1d(&wide1, T).map(|o| o.as_slice().to_vec()),
                            2 => plan.run_2d(&wide2, T).map(|o| o.to_dense()),
                            _ => plan.run_3d(&wide3, T).map(|o| o.to_dense()),
                        }
                        .expect(&ctx)
                    };
                    let (one, four) = (on(1), on(4));
                    let diff = interior_diff(want, &one, extents, T * p.radius());
                    assert!(diff < 1e-10, "{ctx}: diff {diff}");
                    assert!(
                        one.iter()
                            .zip(&four)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{ctx}: 1 and 4 threads differ"
                    );
                }
            }
        }
    }
    assert_eq!(
        ok + rejected,
        patterns.len() * methods.len() * tilings.len() * widths.len()
    );
    assert!(ok > 0 && rejected > 0);
}

#[test]
fn register_plans_survive_grids_without_an_interior() {
    // The register pipeline addresses its surfaces with raw vector loads
    // and stores, and nothing between the wire and `Plan::run_*` checks
    // extents: every grid from one cell per axis up must come back `Ok` —
    // untouched when an axis is no wider than the 2R Dirichlet band (no
    // interior ⇒ every folded step is the identity), and otherwise equal
    // to the scalar plan of the folded pattern. Under the sanitize lane
    // this is the standing proof that those accesses stay in bounds.
    let methods = [
        Method::Auto,
        Method::TransposeLayout,
        Method::Folded { m: 2 },
    ];
    let compile = |p: &Pattern, method: Method, width: Width| {
        Solver::new(p.clone())
            .method(method)
            .tiling(Tiling::None)
            .width(width)
            .compile()
            .unwrap()
    };
    let sizes = |rr: usize, vl: usize| [1, 2, 2 * rr, 2 * rr + 1, 2 * rr + vl - 1, 40];
    let field = |z: usize, y: usize, x: usize| ((z * 5 + y * 3 + x * 7) % 11) as f64 - 4.0;
    let mut identities = 0usize;
    for (width, vl) in [(Width::W4, 4usize), (Width::W8, 8)] {
        for p in [kernels::heat2d(), kernels::box2d9p(), kernels::gb()] {
            for method in methods {
                let plan = compile(&p, method, width);
                let (rr, m) = (plan.effective_radius(), plan.m());
                let scalar = compile(plan.folded(), Method::Scalar, width);
                for ny in sizes(rr, vl) {
                    for nx in sizes(rr, vl) {
                        let g = Grid2D::from_fn(ny, nx, |y, x| field(0, y, x));
                        let ctx = format!("{}pt {method:?} {width:?} {ny}x{nx}", p.points());
                        // 2m steps: folded steps only, no `t % m` tail
                        let got = plan.run_2d(&g, 2 * m).expect(&ctx).to_dense();
                        if ny <= 2 * rr || nx <= 2 * rr {
                            assert_eq!(got, g.to_dense(), "{ctx}");
                            identities += 1;
                        } else {
                            let want = scalar.run_2d(&g, 2).unwrap().to_dense();
                            assert!(max_abs_diff(&want, &got) < 1e-10, "{ctx}");
                        }
                    }
                }
            }
        }
        // the 3D analogue: the ring kernel has had the guard since PR 18
        let p = kernels::heat3d();
        for method in methods {
            let plan = compile(&p, method, width);
            let (rr, m) = (plan.effective_radius(), plan.m());
            let scalar = compile(plan.folded(), Method::Scalar, width);
            let sizes = sizes(rr, vl);
            for (nz, ny, nx) in sizes
                .into_iter()
                .flat_map(|nz| sizes.into_iter().map(move |ny| (nz, ny)))
                .flat_map(|(nz, ny)| sizes.into_iter().map(move |nx| (nz, ny, nx)))
            {
                let g = Grid3D::from_fn(nz, ny, nx, field);
                let ctx = format!("heat3d {method:?} {width:?} {nz}x{ny}x{nx}");
                let got = plan.run_3d(&g, 2 * m).expect(&ctx).to_dense();
                if nz <= 2 * rr || ny <= 2 * rr || nx <= 2 * rr {
                    assert_eq!(got, g.to_dense(), "{ctx}");
                    identities += 1;
                } else {
                    let want = scalar.run_3d(&g, 2).unwrap().to_dense();
                    assert!(max_abs_diff(&want, &got) < 1e-10, "{ctx}");
                }
            }
        }
    }
    assert!(identities > 0);
}

#[test]
fn tessellated_plans_treat_a_grid_without_an_interior_as_the_block_free_route_does() {
    // Every route of every plan on grids without an interior. An axis no
    // wider than the 2R band used to trip tessellate's tile geometry
    // (`assert!`, "grid smaller than its Dirichlet bands") and the
    // block-free scalar sweeps' `n >= 2r` assert — both reachable from a
    // tenant's grid. Every method × {None, Tessellate} × width, every
    // extent from one cell up to the
    // first with an interior (2R + 1: one cell, narrower than any
    // vector), on each axis in turn, through every entry point (the pair
    // entry with its scratch surface poisoned), comes back `Ok` and the
    // same from every entry point — and while there is no interior (an
    // axis no wider than 2r, or than 2R when only folded steps run) it is
    // the grid itself. t = 2m runs folded steps only, t = 2m + 1 the
    // `t % m` tail too. At t = 2m a tiled plan gives its block-free
    // plan's bits; with a tail the two routes run it through different
    // kernels.
    let methods = [
        Method::Scalar,
        Method::MultipleLoads,
        Method::TransposeLayout,
        Method::Folded { m: 2 },
        Method::Auto,
    ];
    let tiled = Tiling::Tessellate { time_block: 3 };
    let field = |z: usize, y: usize, x: usize| ((z * 5 + y * 3 + x * 7) % 11) as f64 * 0.3 - 1.0;
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let pool = PoolHandle::new(2);
    let (mut cells, mut identities) = (0usize, 0usize);
    for width in [Width::W4, Width::W8] {
        // radius 2 too: a grid narrower than r reached slices a full step
        // of the vector methods cut short
        for p in [
            kernels::heat1d(),
            kernels::d1p5(),
            kernels::heat2d(),
            kernels::heat3d(),
            kernels::star3d_r2(),
        ] {
            for method in methods {
                let compile = |tiling: Tiling| {
                    let cell = PlanConfig {
                        method,
                        tiling,
                        width,
                        ring3: None,
                    };
                    cell.validate(&p).ok()?;
                    let plan = Solver::new(p.clone()).with_config(cell).pool(pool.clone());
                    Some(plan.compile().unwrap())
                };
                let Some(free) = compile(Tiling::None) else {
                    continue;
                };
                let tess = compile(tiled);
                let plans = tess.iter().map(|plan| (tiled, plan));
                for (tiling, plan) in std::iter::once((Tiling::None, &free)).chain(plans) {
                    cells += 1;
                    let (m, rr, r) = (plan.m(), plan.effective_radius(), p.radius());
                    // `Auto` may resolve differently per tiling
                    let same_method = plan.config().method == free.config().method;
                    for (n, t) in (1..=2 * rr + 1).flat_map(|n| [(n, 2 * m), (n, 2 * m + 1)]) {
                        let ctx = format!(
                            "{}pt {method:?}/{tiling:?}/{width:?} extent {n} t {t}",
                            p.points()
                        );
                        let no_interior = |e: &[usize]| {
                            e.iter().any(|&e| e <= 2 * r || e <= 2 * rr && t % m == 0)
                        };
                        // one grid: every entry point's output against the
                        // first, the block-free plan's and the input
                        let mut check =
                            |extents: &[usize], input: &[f64], outs: &[Vec<f64>], free: &[f64]| {
                                let ctx = format!("{ctx} {extents:?}");
                                for out in outs {
                                    assert_eq!(bits(out), bits(&outs[0]), "{ctx}: entry points");
                                }
                                if t % m == 0 && same_method {
                                    assert_eq!(bits(&outs[0]), bits(free), "{ctx}: block-free");
                                }
                                if no_interior(extents) {
                                    assert_eq!(bits(&outs[0]), bits(input), "{ctx}: identity");
                                    identities += 1;
                                }
                            };
                        // the owned-grid entry and the pair entry, its
                        // scratch surface poisoned
                        match p.dims() {
                            1 => {
                                let g = Grid1D::from_fn(n, |x| field(0, 0, x));
                                let outs = [plan.run(&g, t), run_poisoned(plan, &g, t, 5)]
                                    .map(|o| o.expect(&ctx).dense());
                                let want = free.run(&g, t).unwrap().dense();
                                check(&[n], &g.dense(), &outs, &want);
                            }
                            2 => {
                                for (ny, nx) in [(n, 12), (12, n), (n, n)] {
                                    let g = Grid2D::from_fn(ny, nx, |y, x| field(0, y, x));
                                    let outs = [plan.run(&g, t), run_poisoned(plan, &g, t, 5)]
                                        .map(|o| o.expect(&ctx).dense());
                                    let want = free.run(&g, t).unwrap().dense();
                                    check(&[ny, nx], &g.dense(), &outs, &want);
                                }
                            }
                            _ => {
                                for (nz, ny, nx) in
                                    [(n, 12, 12), (12, n, 12), (12, 12, n), (n, n, n)]
                                {
                                    let g = Grid3D::from_fn(nz, ny, nx, field);
                                    let outs = [plan.run(&g, t), run_poisoned(plan, &g, t, 5)]
                                        .map(|o| o.expect(&ctx).dense());
                                    let want = free.run(&g, t).unwrap().dense();
                                    check(&[nz, ny, nx], &g.dense(), &outs, &want);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    // 100 cells and 1728 identities in the portable build; the rule
    // table's accepted cells follow the build's fold caps
    assert!(
        cells >= 85 && identities >= 1400,
        "{cells} cells, {identities} identities"
    );
}

#[test]
fn the_pair_entry_equals_the_owned_grid_entry_with_a_poisoned_scratch() {
    // `run_pair_at` sweeps a caller-owned pair whose scratch surface is
    // a recycled buffer: it may copy the Dirichlet band and nothing else,
    // so every route has to write an interior cell before reading it —
    // the layout-changing one (the 1D transpose layout) included, which
    // moves the grid onto the scratch surface and back.
    // NaN in every scratch cell (padding included) is what proves it:
    // over every cell of the product the rule table accepts, in every
    // dimensionality, on an aligned, a ragged and an interior-less window,
    // at and off the origin, for folded, tail and zero step counts, the
    // pair's current surface carries the bits of the clone-a-pair run
    // (`run` at origin 0), and again when the same pair is reused.
    let field = |z: usize, y: usize, x: usize| ((z * 5 + y * 3 + x * 7) % 11) as f64 * 0.5 - 2.0;
    let pool = PoolHandle::new(2);
    let (mut cells, mut identities) = (0usize, 0usize);
    for p in [
        kernels::heat1d(),
        kernels::d1p5(),
        kernels::heat2d(),
        kernels::box2d9p(),
        kernels::heat3d(),
        kernels::box3d27p(),
        kernels::star3d_r2(),
    ] {
        for method in [
            Method::Scalar,
            Method::MultipleLoads,
            Method::TransposeLayout,
            Method::Folded { m: 2 },
            Method::Folded { m: 3 },
        ] {
            for tiling in [Tiling::None, Tiling::Tessellate { time_block: 2 }] {
                for width in [Width::W4, Width::W8] {
                    let cell = PlanConfig {
                        method,
                        tiling,
                        width,
                        ring3: None,
                    };
                    if cell.validate(&p).is_err() {
                        continue;
                    }
                    let plan = Solver::new(p.clone())
                        .with_config(cell)
                        .pool(pool.clone())
                        .compile()
                        .unwrap();
                    cells += 1;
                    let rr = plan.effective_radius();
                    let ctx = format!("{}pt {cell:?}", p.points());
                    // aligned to 4 and 8 lanes, ragged, and no interior
                    // along the outer axis
                    identities += match p.dims() {
                        1 => pair_entry_cell(
                            &plan,
                            &[200, 203, 2 * rr].map(|n| Grid1D::from_fn(n, |x| field(0, 0, x))),
                            &ctx,
                        ),
                        2 => pair_entry_cell(
                            &plan,
                            &[(27, 24), (27, 21), (2 * rr, 24)]
                                .map(|(ny, nx)| Grid2D::from_fn(ny, nx, |y, x| field(0, y, x))),
                            &ctx,
                        ),
                        _ => pair_entry_cell(
                            &plan,
                            &[(27, 24), (27, 21), (2 * rr, 24)]
                                .map(|(nz, nx)| Grid3D::from_fn(nz, 2 * rr + 3, nx, field)),
                            &ctx,
                        ),
                    };
                }
            }
        }
    }
    // 134 cells and 1040 identities in the portable build; the rule
    // table's accepted cells follow the build's fold caps
    assert!(
        cells >= 115 && identities >= 900,
        "{cells} cells, {identities} identities"
    );

    // a dimensionality the plan was not compiled for: refused with
    // `run`'s error, and the pair untouched
    let plan = Solver::new(kernels::heat2d()).compile().unwrap();
    let g = Grid3D::from_fn(6, 6, 8, field);
    let mut pair = PingPong::from_pair(g.clone(), g.poisoned());
    assert_eq!(
        plan.run_pair_at(&mut pair, 2, 0).err(),
        plan.run(&g, 2).err()
    );
    assert!(pair.current().bits() == g.bits());
    assert!(pair.previous().as_slice().iter().all(|v| v.is_nan()));
}

/// One cell of the pair-entry product over `windows`, the last of which
/// has no interior along its outer axis: returns how many runs were
/// identities.
fn pair_entry_cell<D: TestGrid>(plan: &Plan, windows: &[D], ctx: &str) -> usize {
    let m = plan.m();
    let mut identities = 0;
    // what `run` sweeps — a pair cloned from the input — at `origin`
    let clone_pair = |g: &D, t: usize, origin: usize| {
        if origin == 0 {
            return plan.run(g, t);
        }
        let mut pp = PingPong::new(g.clone());
        plan.run_pair_at(&mut pp, t, origin)
            .map(|()| pp.into_current())
    };
    for (w, g) in windows.iter().enumerate() {
        for origin in [0, 7] {
            for t in [0, 1, m, m + 1, 2 * m + 1] {
                let ctx = format!("{ctx} window {w} origin {origin} t {t}");
                let mut pair = PingPong::from_pair(g.clone(), g.poisoned());
                let once = clone_pair(g, t, origin).expect(&ctx);
                let twice = clone_pair(&once, t, origin).expect(&ctx);
                plan.run_pair_at(&mut pair, t, origin).expect(&ctx);
                assert!(pair.current().bits() == once.bits(), "{ctx}");
                if w + 1 == windows.len() && t % m == 0 {
                    assert!(once.bits() == g.bits(), "{ctx}: identity");
                    identities += 1;
                }
                // the same pair again: its scratch surface now holds
                // whatever the first run left there
                plan.run_pair_at(&mut pair, t, origin).expect(&ctx);
                assert!(pair.current().bits() == twice.bits(), "{ctx}: reused");
            }
        }
    }
    identities
}

// ---------------------------------------------------------------------
// 2. plan reuse
// ---------------------------------------------------------------------

#[test]
fn compiled_plan_is_reused_across_runs() {
    let plan = Solver::new(kernels::box2d9p())
        .method(Method::Folded { m: 2 })
        .tiling(Tiling::Tessellate { time_block: 3 })
        .threads(4)
        .compile()
        .unwrap();

    // the derived artifacts exist before any run and are owned by the plan
    assert_eq!(plan.method(), Method::Folded { m: 2 });
    assert_eq!(plan.m(), 2);
    assert_eq!(plan.effective_radius(), 2);
    let folded_before: *const Pattern = plan.folded();
    let pool_before = plan.pool().clone();

    let g = Grid2D::from_fn(64, 72, |y, x| ((y * 13 + x * 7) % 97) as f64);
    let first = plan.run_2d(&g, 10).unwrap();
    for _ in 0..2 {
        let again = plan.run_2d(&g, 10).unwrap();
        // bit-identical: same kernel plan, same schedule, no re-planning
        assert_eq!(first.to_dense(), again.to_dense());
    }

    // the folded pattern Λ and the thread pool are the same objects the
    // plan was compiled with — nothing was rebuilt per run
    assert!(std::ptr::eq(folded_before, plan.folded() as *const Pattern));
    assert!(PoolHandle::ptr_eq(&pool_before, plan.pool()));
    assert_eq!(plan.pool().threads(), 4);

    // and the result matches the one-shot reference semantics
    let want = Solver::new(kernels::box2d9p())
        .method(Method::Folded { m: 2 })
        .compile()
        .unwrap()
        .run_2d(&g, 10)
        .unwrap();
    assert!(max_abs_diff(&want.to_dense(), &first.to_dense()) < 1e-10);
}

#[test]
fn plans_can_share_one_pool() {
    let pool = PoolHandle::new(3);
    let a = Solver::new(kernels::heat1d())
        .tiling(Tiling::Tessellate { time_block: 4 })
        .pool(pool.clone())
        .compile()
        .unwrap();
    let b = Solver::new(kernels::heat2d())
        .tiling(Tiling::Tessellate { time_block: 2 })
        .pool(pool.clone())
        .compile()
        .unwrap();
    assert!(PoolHandle::ptr_eq(a.pool(), b.pool()));
    assert!(PoolHandle::ptr_eq(a.pool(), &pool));
    // both plans run fine on the shared workers, repeatedly
    let g1 = Grid1D::from_fn(512, |i| (i % 11) as f64);
    let g2 = Grid2D::from_fn(40, 44, |y, x| ((y + x) % 7) as f64);
    for _ in 0..3 {
        a.run_1d(&g1, 6).unwrap();
        b.run_2d(&g2, 4).unwrap();
    }
}

#[test]
fn dimension_generic_run() {
    fn advance<D: Domain>(plan: &stencil_lab::Plan, state: &D, t: usize) -> D {
        plan.run(state, t).expect("matching dimensionality")
    }
    let p1 = Solver::new(kernels::heat1d()).compile().unwrap();
    let p2 = Solver::new(kernels::heat2d()).compile().unwrap();
    let p3 = Solver::new(kernels::heat3d()).compile().unwrap();
    let g1 = advance(&p1, &Grid1D::from_fn(64, |i| i as f64), 2);
    let g2 = advance(&p2, &Grid2D::from_fn(16, 16, |y, x| (y + x) as f64), 2);
    let g3 = advance(
        &p3,
        &Grid3D::from_fn(8, 8, 8, |z, y, x| (z + y + x) as f64),
        2,
    );
    assert_eq!(g1.len(), 64);
    assert_eq!(g2.to_dense().len(), 256);
    assert_eq!(g3.to_dense().len(), 512);
}

// ---------------------------------------------------------------------
// 3. leftover (t % m) steps through the tiled range kernels
// ---------------------------------------------------------------------

fn scalar_ref_1d(p: &Pattern, g: &Grid1D, t: usize) -> Grid1D {
    Solver::new(p.clone())
        .method(Method::Scalar)
        .compile()
        .unwrap()
        .run_1d(g, t)
        .unwrap()
}

#[test]
fn tessellate_leftover_steps_1d() {
    let p = kernels::heat1d();
    let g = Grid1D::from_fn(1024, |i| ((i * 29) % 71) as f64);
    let plan = Solver::new(p.clone())
        .method(Method::Folded { m: 2 })
        .tiling(Tiling::Tessellate { time_block: 4 })
        .threads(3)
        .compile()
        .unwrap();
    for t in [13usize, 15] {
        // odd: one unfolded tail step
        let want = scalar_ref_1d(&p, &g, t);
        let got = plan.run_1d(&g, t).unwrap();
        let band = 2 * t;
        assert!(
            max_abs_diff(
                &want.as_slice()[band..1024 - band],
                &got.as_slice()[band..1024 - band]
            ) < 1e-11,
            "t={t}"
        );
    }
}

#[test]
fn tessellate_leftover_steps_2d() {
    let p = kernels::box2d9p();
    let g = Grid2D::from_fn(72, 80, |y, x| ((y * 3 + x * 19) % 101) as f64);
    let t = 9; // m = 2 -> 4 folded rounds + 1 tail step
    let want = Solver::new(p.clone())
        .method(Method::Scalar)
        .compile()
        .unwrap()
        .run_2d(&g, t)
        .unwrap();
    let got = Solver::new(p)
        .method(Method::Folded { m: 2 })
        .tiling(Tiling::Tessellate { time_block: 2 })
        .threads(4)
        .compile()
        .unwrap()
        .run_2d(&g, t)
        .unwrap();
    let (wd, gd) = (want.to_dense(), got.to_dense());
    let (ny, nx) = (72, 80);
    let band = 2 * t;
    let mut err = 0.0f64;
    for y in band..ny - band {
        for x in band..nx - band {
            err = err.max((wd[y * nx + x] - gd[y * nx + x]).abs());
        }
    }
    assert!(err < 1e-10, "interior err = {err}");
}

#[test]
fn tessellate_leftover_steps_3d() {
    let p = kernels::heat3d();
    let g = Grid3D::from_fn(28, 26, 30, |z, y, x| ((z * 3 + y * 7 + x * 11) % 53) as f64);
    let t = 5; // m = 2 -> 2 folded rounds + 1 tail step
    let want = Solver::new(p.clone())
        .method(Method::Scalar)
        .compile()
        .unwrap()
        .run_3d(&g, t)
        .unwrap();
    let got = Solver::new(p)
        .method(Method::Folded { m: 2 })
        .tiling(Tiling::Tessellate { time_block: 2 })
        .threads(4)
        .compile()
        .unwrap()
        .run_3d(&g, t)
        .unwrap();
    let (wd, gd) = (want.to_dense(), got.to_dense());
    let (nz, ny, nx) = (28, 26, 30);
    let band = 2 * t;
    let mut err = 0.0f64;
    for z in band..nz - band {
        for y in band..ny - band {
            for x in band..nx - band {
                err = err.max((wd[(z * ny + y) * nx + x] - gd[(z * ny + y) * nx + x]).abs());
            }
        }
    }
    assert!(err < 1e-10, "interior err = {err}");
}
