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

#[macro_use]
#[path = "conformance/mod.rs"]
mod conformance;

use conformance::{Extent::*, Route, Steps, TestGrid};
use stencil_lab::core::exec::dlt;
use stencil_lab::core::kernels;
use stencil_lab::core::tile::split;
use stencil_lab::grid::max_abs_diff;
use stencil_lab::simd::NativeF64x4;
use stencil_lab::{
    Domain, Grid1D, Grid2D, Grid3D, Method, Pattern, PingPong, PlanError, PoolHandle, Solver,
    ThreadPool, Tiling, Width,
};

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
    // 2D: the pane holds one column per lane, so 4 lanes cap the fold
    // at radius 4 — heat2d folded five times (radius 5) and a radius-2
    // box folded three times (radius 6) compile at 8 lanes only
    for (p, m, folded_radius) in [
        (kernels::heat2d(), 5, 5),
        (Pattern::new_2d(2, &[1.0 / 25.0; 25]), 3, 6),
    ] {
        let err = compile_err(
            Solver::new(p.clone())
                .method(Method::Folded { m })
                .width(Width::W4),
        );
        assert_eq!(
            err,
            PlanError::InvalidFold {
                m,
                folded_radius,
                max_radius: 4,
            }
        );
        let at_w8 = Solver::new(p).method(Method::Folded { m }).width(Width::W8);
        assert!(at_w8.compile().is_ok());
    }
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

#[test]
fn no_configuration_panics_through_the_public_api() {
    // The whole method × tiling × width product per dimensionality, on an
    // aligned and a ragged grid: compile() either returns the typed error
    // `validate` predicts, or a plan that agrees with `exec/scalar.rs`
    // through the owned-grid and pair entries and recompiles from what it
    // reports — never a panic. Odd step counts run the `t % m` tail too.
    check!(kernels: ["heat1d", "heat2d", "heat3d"],
        tilings: [Tiling::None, Tiling::Tessellate { time_block: 3 }],
        extents: [Aligned, Ragged], steps: [Steps::Exact(5)],
        routes: [Route::Scalar, Route::Pair, Route::Recompile, Route::Threads]);
}

#[test]
fn register_plans_survive_grids_without_an_interior() {
    // The register pipeline addresses its surfaces with raw vector loads
    // and stores, and nothing between the wire and `Plan::run_*` checks
    // extents: a grid with an axis no wider than the band comes back
    // untouched, one a cell wider equals the scalar plan of the folded
    // pattern. Under the sanitize lane this is the standing proof that
    // those accesses stay in bounds.
    check!(kernels: ["heat2d", "box2d9p", "gb", "heat3d"],
        methods: [Method::Auto, Method::TransposeLayout, Method::Folded { m: 2 }],
        tilings: [Tiling::None], widths: [Width::W4, Width::W8],
        extents: [NoInterior, OneTile, Ragged], steps: [Steps::Folds(2, 0)], routes: [Route::Scalar]);
}

#[test]
fn tessellated_plans_treat_a_grid_without_an_interior_as_the_block_free_route_does() {
    // An axis no wider than the 2R band used to trip tessellate's tile
    // geometry and the block-free scalar sweeps' `n >= 2r` assert — both
    // reachable from a tenant's grid. Every route of every plan on such
    // grids, radius 2 included, comes back `Ok`: the grid itself while
    // there is no interior, the block-free plan's result otherwise.
    check!(kernels: ["heat1d", "d1p5", "heat2d", "heat3d", "star3d_r2"],
        methods: [Method::Scalar, Method::MultipleLoads, Method::TransposeLayout,
            Method::Folded { m: 2 }, Method::Auto],
        tilings: [Tiling::None, Tiling::Tessellate { time_block: 3 }],
        widths: [Width::W4, Width::W8], extents: [NoInterior, OneTile],
        routes: [Route::Scalar, Route::Pair, Route::Twin]);
}

#[test]
fn the_pair_entry_equals_the_owned_grid_entry_with_a_poisoned_scratch() {
    // `run_pair` sweeps a caller-owned pair whose scratch surface is a
    // recycled buffer: it may copy the Dirichlet band and nothing else, so
    // every route has to write an interior cell before reading it. NaN in
    // every scratch cell (padding included) is what proves it, for zero,
    // tail-only, folded and tail step counts, and again on the reused
    // pair; without an interior the grid comes back.
    check!(kernels: ["heat1d", "d1p5", "heat2d", "box2d9p", "heat3d", "box3d27p", "star3d_r2"],
        methods: [Method::Scalar, Method::MultipleLoads, Method::TransposeLayout,
            Method::Folded { m: 2 }, Method::Folded { m: 3 }],
        tilings: [Tiling::None, Tiling::Tessellate { time_block: 2 }],
        widths: [Width::W4, Width::W8], extents: [Aligned, Ragged, NoInterior],
        steps: [Steps::Exact(0), Steps::Exact(1), Steps::Folds(1, 0), Steps::Folds(1, 1),
            Steps::Folds(2, 1)],
        routes: [Route::Scalar, Route::Reuse]);
}

#[test]
fn the_pair_entry_refuses_a_grid_of_another_dimensionality() {
    // refused with `run`'s error, and the pair untouched
    let plan = Solver::new(kernels::heat2d()).compile().unwrap();
    let g = Grid3D::from_fn(6, 6, 8, |z, y, x| (z * 5 + y * 3 + x * 7) as f64);
    let mut pair = PingPong::from_pair(g.clone(), g.poisoned());
    assert_eq!(plan.run_pair(&mut pair, 2).err(), plan.run(&g, 2).err());
    assert!(conformance::bits(&pair.current().dense()) == conformance::bits(&g.dense()));
    assert!(pair.previous().as_slice().iter().all(|v| v.is_nan()));
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

// The `t % m` tail of a folded tessellated plan, against the scalar
// reference inside the band folding widens.

#[test]
fn tessellate_leftover_steps_1d() {
    check!(kernels: ["heat1d"], methods: [Method::Folded { m: 2 }],
        tilings: [Tiling::Tessellate { time_block: 4 }], widths: [Width::W4], threads: [3],
        extents: [Aligned], steps: [Steps::Exact(13), Steps::Exact(15), Steps::Rounds],
        routes: [Route::Scalar]);
}

#[test]
fn tessellate_leftover_steps_2d() {
    check!(kernels: ["box2d9p"], methods: [Method::Folded { m: 2 }],
        tilings: [Tiling::Tessellate { time_block: 2 }], widths: [Width::W4], threads: [4],
        extents: [Aligned], steps: [Steps::Exact(9), Steps::Rounds], routes: [Route::Scalar]);
}

#[test]
fn tessellate_leftover_steps_3d() {
    check!(kernels: ["heat3d"], methods: [Method::Folded { m: 2 }],
        tilings: [Tiling::Tessellate { time_block: 2 }], widths: [Width::W4],
        threads: [4], extents: [Aligned], steps: [Steps::Exact(5), Steps::Rounds],
        routes: [Route::Scalar]);
}
