//! Facade smoke test: exercise the `stencil_lab` re-export surface
//! end-to-end on a tiny grid, exactly as the README quickstart does.
//!
//! `heat1d` is a convex-combination stencil (weights sum to 1), so the
//! total mass of an impulse must be conserved by every method/tiling
//! combination until the diffusion front reaches the Dirichlet boundary.

use stencil_lab::core::exec::{dlt, reorg};
use stencil_lab::core::kernels;
use stencil_lab::grid::Grid1D;
use stencil_lab::simd::NativeF64x4;
use stencil_lab::{Method, PingPong, Solver, Tiling};

const N: usize = 512;
const STEPS: usize = 40;

fn impulse() -> Grid1D {
    Grid1D::from_fn(N, |i| if i == N / 2 { 1.0 } else { 0.0 })
}

fn mass(g: &Grid1D) -> f64 {
    g.as_slice().iter().sum()
}

#[test]
fn quickstart_path_conserves_mass() {
    // The exact configuration documented in src/lib.rs and the README.
    let out = Solver::new(kernels::heat1d())
        .method(Method::Folded { m: 2 })
        .tiling(Tiling::Tessellate { time_block: 16 })
        .threads(2)
        .compile()
        .unwrap()
        .run_1d(&impulse(), STEPS)
        .unwrap();
    assert!((mass(&out) - 1.0).abs() < 1e-9, "mass = {}", mass(&out));
}

#[test]
fn every_reexported_method_conserves_mass() {
    for method in [
        Method::Scalar,
        Method::MultipleLoads,
        Method::TransposeLayout,
        Method::Folded { m: 1 },
        Method::Folded { m: 2 },
    ] {
        let out = Solver::new(kernels::heat1d())
            .method(method)
            .compile()
            .unwrap()
            .run_1d(&impulse(), STEPS)
            .unwrap();
        assert!(
            (mass(&out) - 1.0).abs() < 1e-9,
            "{method:?}: mass = {}",
            mass(&out)
        );
    }
    // the re-exported baselines no plan runs, through their own entries
    type Sweep = fn(&mut PingPong<Grid1D>, &stencil_lab::Pattern, usize);
    let baselines: [(&str, Sweep); 2] = [
        ("DataReorg", reorg::sweep_1d::<NativeF64x4>),
        ("Dlt", dlt::sweep_1d::<NativeF64x4>),
    ];
    for (name, sweep) in baselines {
        let mut pp = PingPong::new(impulse());
        sweep(&mut pp, &kernels::heat1d(), STEPS);
        let out = pp.current();
        assert!(
            (mass(out) - 1.0).abs() < 1e-9,
            "{name}: mass = {}",
            mass(out)
        );
    }
}

#[test]
fn facade_reexports_agree_with_scalar_reference() {
    let grid = Grid1D::from_fn(N, |i| ((i * 13 + 5) % 89) as f64 * 0.01);
    let want = Solver::new(kernels::heat1d())
        .method(Method::Scalar)
        .compile()
        .unwrap()
        .run_1d(&grid, STEPS)
        .unwrap();
    let got = Solver::new(kernels::heat1d())
        .method(Method::Folded { m: 2 })
        .tiling(Tiling::Tessellate { time_block: 8 })
        .threads(2)
        .compile()
        .unwrap()
        .run_1d(&grid, STEPS)
        .unwrap();
    // Interior agreement; the folded Dirichlet band differs near edges.
    let band = 2 * STEPS;
    let diff = stencil_lab::grid::max_abs_diff(
        &want.as_slice()[band..N - band],
        &got.as_slice()[band..N - band],
    );
    assert!(diff < 1e-9, "interior diff = {diff}");
}

#[test]
fn runtime_reexport_is_usable() {
    let pool = stencil_lab::ThreadPool::new(3);
    assert_eq!(pool.threads(), 3);
    assert!(stencil_lab::simd::backend_summary().contains("lane"));
}
