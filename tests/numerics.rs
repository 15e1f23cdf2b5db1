//! Integration: physical/numerical invariants of the solvers —
//! mass conservation, maximum principle, symmetry preservation, and
//! stability over long runs for every execution path.

use stencil_lab::core::exec::dlt;
use stencil_lab::core::kernels;
use stencil_lab::simd::NativeF64x4;
use stencil_lab::{Grid1D, Grid2D, Method, PingPong, Solver, Tiling};

#[test]
fn diffusion_conserves_mass_1d() {
    let n = 4096;
    let g = Grid1D::from_fn(n, |i| if (2000..2100).contains(&i) { 1.0 } else { 0.0 });
    let mass0: f64 = g.as_slice().iter().sum();
    for method in [
        Method::MultipleLoads,
        Method::TransposeLayout,
        Method::Folded { m: 2 },
    ] {
        let out = Solver::new(kernels::heat1d())
            .method(method)
            .compile()
            .unwrap()
            .run_1d(&g, 200)
            .unwrap();
        let mass: f64 = out.as_slice().iter().sum();
        assert!(
            (mass - mass0).abs() < 1e-9,
            "{method:?}: mass {mass} vs {mass0}"
        );
    }
    // the DLT baseline, through its own entry
    let mut pp = PingPong::new(g);
    dlt::sweep_1d::<NativeF64x4>(&mut pp, &kernels::heat1d(), 200);
    let mass: f64 = pp.current().as_slice().iter().sum();
    assert!((mass - mass0).abs() < 1e-9, "DLT: mass {mass} vs {mass0}");
}

#[test]
fn maximum_principle_2d() {
    // averaging stencils cannot create new extrema
    let g = Grid2D::from_fn(128, 128, |y, x| ((y * 7 + x * 13) % 100) as f64 / 100.0);
    for method in [Method::MultipleLoads, Method::Folded { m: 2 }] {
        let out = Solver::new(kernels::box2d9p())
            .method(method)
            .tiling(Tiling::Tessellate { time_block: 4 })
            .threads(4)
            .compile()
            .unwrap()
            .run_2d(&g, 60)
            .unwrap();
        for v in out.to_dense() {
            assert!(
                (-1e-12..=1.0 + 1e-12).contains(&v),
                "{method:?}: value {v} escapes [0,1]"
            );
        }
    }
}

#[test]
fn symmetry_preserved_1d() {
    // symmetric initial data + symmetric stencil => symmetric evolution
    let n = 1001;
    let g = Grid1D::from_fn(n, |i| {
        let d = (i as isize - 500).unsigned_abs();
        (-(d as f64) * 0.01).exp()
    });
    let out = Solver::new(kernels::heat1d())
        .method(Method::Folded { m: 2 })
        .compile()
        .unwrap()
        .run_1d(&g, 100)
        .unwrap();
    for i in 0..n {
        assert!((out[i] - out[n - 1 - i]).abs() < 1e-12, "asymmetry at {i}");
    }
}

#[test]
fn long_run_stability() {
    // 2000 steps through the tiled folded path stays bounded and finite
    let g = Grid1D::from_fn(2048, |i| ((i * 31) % 17) as f64);
    let max0 = g.as_slice().iter().cloned().fold(f64::MIN, f64::max);
    let out = Solver::new(kernels::heat1d())
        .method(Method::Folded { m: 2 })
        .tiling(Tiling::Tessellate { time_block: 25 })
        .threads(8)
        .compile()
        .unwrap()
        .run_1d(&g, 2000)
        .unwrap();
    for &v in out.as_slice() {
        assert!(v.is_finite());
        assert!(v <= max0 + 1e-9);
        assert!(v >= -1e-9);
    }
}

#[test]
fn impulse_response_is_binomial_1d() {
    // heat1d = [1/4, 1/2, 1/4]: t steps of an impulse produce the
    // binomial distribution B(2t, 1/2) / 4^t — an exact analytic check.
    let n = 257;
    let t = 8;
    let g = Grid1D::from_fn(n, |i| if i == n / 2 { 1.0 } else { 0.0 });
    let out = Solver::new(kernels::heat1d())
        .method(Method::TransposeLayout)
        .compile()
        .unwrap()
        .run_1d(&g, t)
        .unwrap();
    // binomial coefficients C(2t, k)
    let mut c = vec![0.0f64; 2 * t + 1];
    c[0] = 1.0;
    for row in 1..=2 * t {
        for k in (1..=row).rev() {
            c[k] += c[k - 1];
        }
    }
    let scale = 0.25f64.powi(t as i32);
    for (k, &coeff) in c.iter().enumerate() {
        let idx = n / 2 - t + k;
        let want = coeff * scale;
        assert!(
            (out[idx] - want).abs() < 1e-12,
            "k={k}: {} vs {want}",
            out[idx]
        );
    }
}

#[test]
fn life_population_is_integer_valued() {
    use stencil_lab::core::exec::life;
    use stencil_lab::simd::NativeF64x4;
    let g = life::random_soup(64, 64, 11);
    let out = life::sweep::<NativeF64x4>(&g, 30);
    for v in out.to_dense() {
        assert!(v == 0.0 || v == 1.0, "non-binary state {v}");
    }
}
