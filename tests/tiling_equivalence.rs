//! Integration: tiled execution (tessellate, and the SDSL baseline's
//! split tiling) must be bit-compatible with whole-grid sweeps under any
//! thread count — the tessellation correctness argument, exercised end
//! to end.

use stencil_lab::core::kernels;
use stencil_lab::core::tile::split;
use stencil_lab::grid::max_abs_diff;
use stencil_lab::simd::NativeF64x4;
use stencil_lab::{Grid1D, Grid2D, Grid3D, Method, PingPong, Solver, ThreadPool, Tiling};

const TOL: f64 = 1e-11;

#[test]
fn tessellation_1d_across_thread_counts() {
    let p = kernels::heat1d();
    let g = Grid1D::from_fn(2048, |i| ((i * 97) % 61) as f64);
    let t = 40;
    let want = Solver::new(p.clone())
        .method(Method::Scalar)
        .compile()
        .unwrap()
        .run_1d(&g, t)
        .unwrap();
    for threads in [1usize, 2, 7, 16] {
        for tb in [1usize, 3, 8, 32] {
            let got = Solver::new(p.clone())
                .method(Method::MultipleLoads)
                .tiling(Tiling::Tessellate { time_block: tb })
                .threads(threads)
                .compile()
                .unwrap()
                .run_1d(&g, t)
                .unwrap();
            assert!(
                max_abs_diff(want.as_slice(), got.as_slice()) < TOL,
                "threads={threads} tb={tb}"
            );
        }
    }
}

#[test]
fn tessellation_1d_folded_register_kernel() {
    let p = kernels::heat1d();
    let g = Grid1D::from_fn(4096, |i| (i as f64 * 0.013).sin());
    let t = 48;
    // reference: block-free folded (identical m=2 semantics)
    let want = Solver::new(p.clone())
        .method(Method::Folded { m: 2 })
        .compile()
        .unwrap()
        .run_1d(&g, t)
        .unwrap();
    for threads in [1usize, 4, 12] {
        let got = Solver::new(p.clone())
            .method(Method::Folded { m: 2 })
            .tiling(Tiling::Tessellate { time_block: 6 })
            .threads(threads)
            .compile()
            .unwrap()
            .run_1d(&g, t)
            .unwrap();
        assert!(
            max_abs_diff(want.as_slice(), got.as_slice()) < TOL,
            "threads={threads}"
        );
    }
}

#[test]
fn split_tiling_sdsl_1d() {
    for p in [kernels::heat1d(), kernels::d1p5()] {
        let g = Grid1D::from_fn(1536, |i| ((i * 41) % 83) as f64 * 0.1);
        let t = 30;
        let want = Solver::new(p.clone())
            .method(Method::Scalar)
            .compile()
            .unwrap()
            .run_1d(&g, t)
            .unwrap();
        for threads in [1usize, 6] {
            let mut pp = PingPong::new(g.clone());
            split::sweep_1d::<NativeF64x4>(&ThreadPool::new(threads), &mut pp, &p, 5, t);
            assert!(
                max_abs_diff(want.as_slice(), pp.current().as_slice()) < TOL,
                "threads={threads} pts={}",
                p.points()
            );
        }
    }
}

#[test]
fn tessellation_2d_all_methods() {
    let p = kernels::box2d9p();
    let g = Grid2D::from_fn(96, 88, |y, x| ((y * 3 + x * 19) % 101) as f64);
    let t = 18;
    let want = Solver::new(p.clone())
        .method(Method::Scalar)
        .compile()
        .unwrap()
        .run_2d(&g, t)
        .unwrap();
    for (method, label) in [
        (Method::MultipleLoads, "tess+multiload"),
        (Method::TransposeLayout, "tess+register"),
    ] {
        let got = Solver::new(p.clone())
            .method(method)
            .tiling(Tiling::Tessellate { time_block: 4 })
            .threads(8)
            .compile()
            .unwrap()
            .run_2d(&g, t)
            .unwrap();
        assert!(
            max_abs_diff(&want.to_dense(), &got.to_dense()) < TOL,
            "{label}"
        );
    }
}

#[test]
fn tessellation_2d_folded_vs_blockfree_folded() {
    for p in [kernels::heat2d(), kernels::gb()] {
        let g = Grid2D::from_fn(72, 80, |y, x| ((y * 13 + x * 7) % 97) as f64);
        let t = 12;
        let want = Solver::new(p.clone())
            .method(Method::Folded { m: 2 })
            .compile()
            .unwrap()
            .run_2d(&g, t)
            .unwrap();
        let got = Solver::new(p.clone())
            .method(Method::Folded { m: 2 })
            .tiling(Tiling::Tessellate { time_block: 3 })
            .threads(6)
            .compile()
            .unwrap()
            .run_2d(&g, t)
            .unwrap();
        assert!(
            max_abs_diff(&want.to_dense(), &got.to_dense()) < 1e-10,
            "pts={}",
            p.points()
        );
    }
}

#[test]
fn sdsl_hybrid_2d_and_3d() {
    let pool = ThreadPool::new(4);
    let p2 = kernels::heat2d();
    let g2 = Grid2D::from_fn(60, 64, |y, x| ((y + 3 * x) % 43) as f64);
    let want2 = Solver::new(p2.clone())
        .method(Method::Scalar)
        .compile()
        .unwrap()
        .run_2d(&g2, 12)
        .unwrap();
    let mut got2 = PingPong::new(g2);
    split::sweep_2d::<NativeF64x4>(&pool, &mut got2, &p2, 4, 12);
    assert!(max_abs_diff(&want2.to_dense(), &got2.current().to_dense()) < TOL);

    let p3 = kernels::box3d27p();
    let g3 = Grid3D::from_fn(20, 18, 24, |z, y, x| ((z * 9 + y * 5 + x) % 29) as f64);
    let want3 = Solver::new(p3.clone())
        .method(Method::Scalar)
        .compile()
        .unwrap()
        .run_3d(&g3, 6)
        .unwrap();
    let mut got3 = PingPong::new(g3);
    split::sweep_3d::<NativeF64x4>(&pool, &mut got3, &p3, 3, 6);
    assert!(max_abs_diff(&want3.to_dense(), &got3.current().to_dense()) < TOL);
}

#[test]
fn tessellation_3d_folded() {
    let p = kernels::heat3d();
    let g = Grid3D::from_fn(24, 22, 26, |z, y, x| ((z * 3 + y * 7 + x * 11) % 53) as f64);
    let t = 8;
    let want = Solver::new(p.clone())
        .method(Method::Folded { m: 2 })
        .compile()
        .unwrap()
        .run_3d(&g, t)
        .unwrap();
    let got = Solver::new(p)
        .method(Method::Folded { m: 2 })
        .tiling(Tiling::Tessellate { time_block: 2 })
        .threads(8)
        .compile()
        .unwrap()
        .run_3d(&g, t)
        .unwrap();
    assert!(max_abs_diff(&want.to_dense(), &got.to_dense()) < 1e-10);
}

/// The register pipeline is range independent: every output is one fixed
/// chain of fused multiply-adds over its own inputs, whichever range call
/// produces it. So a partition of the interior into blocks — every
/// block, the remainder ones included, at least a vector wide and not a
/// multiple of it — reproduces the block-free plan's bits. No plan tiles
/// that way, so the blocks are stepped here with the kernel the plan
/// itself steps with, serially: a pool only reorders the calls, and the
/// property is about the ranges. 2D tessellate stays at tolerance (the
/// tests above): it cuts `y`, and the tips of its inverted tiles are
/// fewer rows than a vector and take the scalar guard, which sums in
/// another order. 3D tessellate cuts `z` only and is bitwise
/// (`tessellated_3d_register_plans_equal_their_block_free_twin_bitwise`).
#[test]
fn register_plans_are_partition_independent() {
    use core::ops::Range;
    use stencil_lab::core::exec::folded::{step_range_2d, FoldedKernel};
    use stencil_lab::core::exec::folded3d::step_range_3d_ring;
    use stencil_lab::Width;

    // `[lo, hi)` in blocks of `b`, the last one short
    fn blocks(lo: usize, hi: usize, b: usize) -> impl Iterator<Item = Range<usize>> {
        (lo..hi).step_by(b).map(move |s| s..(s + b).min(hi))
    }
    let bits = |dense: Vec<f64>| dense.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let block_free = |p: &stencil_lab::Pattern, method: Method| {
        Solver::new(p.clone())
            .method(method)
            .tiling(Tiling::None)
            .width(Width::W4)
            .threads(1)
            .compile()
            .unwrap()
    };
    let methods = [Method::TransposeLayout, Method::Folded { m: 2 }];
    for p in [kernels::heat2d(), kernels::box2d9p(), kernels::gb()] {
        for method in methods {
            let plan = block_free(&p, method);
            let (m, rr) = (plan.m(), plan.effective_radius());
            // interior 40 x 42: blocks of 7 x 9 leave remainders 5 and 6
            let (ny, nx) = (40 + 2 * rr, 42 + 2 * rr);
            let g = Grid2D::from_fn(ny, nx, |y, x| ((y * 13 + x * 7) % 97) as f64 * 0.3);
            let want = bits(plan.run_2d(&g, 3 * m).unwrap().to_dense());
            let k = FoldedKernel::new(&p, m);
            let mut pp = PingPong::new(g);
            for _ in 0..3 {
                let (s, d) = pp.src_dst();
                for ys in blocks(rr, ny - rr, 7) {
                    for xs in blocks(rr, nx - rr, 9) {
                        step_range_2d::<NativeF64x4>(&k, s, d, ys.clone(), xs);
                    }
                }
                pp.swap();
            }
            assert!(
                want == bits(pp.current().to_dense()),
                "{}pt {method:?}",
                p.points()
            );
        }
    }
    // what PR 18 established for the ring, pinned beside it
    for p in [kernels::heat3d(), kernels::box3d27p()] {
        for method in methods {
            let plan = block_free(&p, method);
            let (m, rr) = (plan.m(), plan.effective_radius());
            let ring = plan.ring3().expect("3D register plan");
            let (nz, ny, nx) = (11 + 2 * rr, 19 + 2 * rr, 23 + 2 * rr);
            let g = Grid3D::from_fn(nz, ny, nx, |z, y, x| {
                ((z * 3 + y * 7 + x * 11) % 53) as f64 * 0.3
            });
            let want = bits(plan.run_3d(&g, 2 * m).unwrap().to_dense());
            let k = FoldedKernel::new(&p, m);
            let mut pp = PingPong::new(g);
            // blocks of 3 x 7 over z and y, whole x rows
            for _ in 0..2 {
                let (s, d) = pp.src_dst();
                for zs in blocks(rr, nz - rr, 3) {
                    for ys in blocks(rr, ny - rr, 7) {
                        let xs = rr..nx - rr;
                        step_range_3d_ring::<NativeF64x4>(&k, ring, s, d, zs.clone(), ys, xs);
                    }
                }
                pp.swap();
            }
            assert!(
                want == bits(pp.current().to_dense()),
                "{}pt {method:?}",
                p.points()
            );
        }
    }
}

#[test]
fn odd_step_counts_and_leftovers() {
    // t not divisible by m: leftover steps must complete correctly
    let p = kernels::heat1d();
    let g = Grid1D::from_fn(768, |i| ((i * 29) % 71) as f64);
    let t = 13; // 6 folded + 1 plain
    let want = Solver::new(p.clone())
        .method(Method::Scalar)
        .compile()
        .unwrap()
        .run_1d(&g, t)
        .unwrap();
    let got = Solver::new(p)
        .method(Method::Folded { m: 2 })
        .tiling(Tiling::Tessellate { time_block: 4 })
        .threads(3)
        .compile()
        .unwrap()
        .run_1d(&g, t)
        .unwrap();
    // interior agreement (folded widens the frozen band)
    let n = 768;
    let band = 2 * t;
    for i in band..n - band {
        assert!((want[i] - got[i]).abs() < TOL, "i={i}");
    }
}

fn bits(dense: Vec<f64>) -> Vec<u64> {
    dense.iter().map(|v| v.to_bits()).collect()
}

/// Tessellation cuts `z` only, so every 3D kernel call has `y` and `x`
/// whole — never narrower than a vector — and by range independence a
/// register plan's tessellated folded steps are the block-free plan's,
/// bit for bit, whatever the tile width, time block or thread count.
/// 64 x 66 planes put 15 of them in a tile's budget: `fold2` at
/// `time_block` 4 runs at its floor of 16 planes (triangles, tips one
/// fold deep), everything else at 15 (trapezoids) — three tiles along
/// the 36 planes either way. `t % m == 0`: the two routes run a `t % m`
/// tail through different kernels (`multiload` block-free, the `m = 1`
/// register kernel tessellated), so only the folded steps are
/// comparable.
#[test]
fn tessellated_3d_register_plans_equal_their_block_free_twin_bitwise() {
    use stencil_lab::Width;
    let g = Grid3D::from_fn(36, 64, 66, |z, y, x| {
        (z as f64 * 0.41 + y as f64 * 0.23 + x as f64 * 0.07).sin()
    });
    let t = 8;
    let widths = [Width::W1, Width::W4, Width::W8];
    // the 27-point box at one width: its debug-build sweeps are the slow ones
    for (p, widths) in [
        (kernels::heat3d(), &widths[..]),
        (kernels::box3d27p(), &widths[1..2]),
    ] {
        for method in [Method::Folded { m: 2 }, Method::TransposeLayout] {
            for &width in widths {
                let plan = |tiling, threads| {
                    Solver::new(p.clone())
                        .method(method)
                        .tiling(tiling)
                        .width(width)
                        .threads(threads)
                        .compile()
                        .unwrap()
                };
                let want = bits(plan(Tiling::None, 1).run_3d(&g, t).unwrap().to_dense());
                for time_block in [2usize, 4] {
                    let tess = plan(Tiling::Tessellate { time_block }, 3);
                    assert!(
                        want == bits(tess.run_3d(&g, t).unwrap().to_dense()),
                        "{}pt {method:?} {width:?} tb={time_block}",
                        p.points()
                    );
                }
            }
        }
    }
}

/// A grid wide enough that the production width rule cuts it: 4096-wide
/// rows leave 16 of them in a tile's budget, which is `fold2`'s floor at
/// `time_block` 4 (triangles) and twice the transpose layout's
/// (trapezoids) — five tiles along the 72 rows, tips included, through
/// `Plan` rather than through a hand-set width. The tiled result agrees
/// with the block-free plan to rounding (2D tips take the scalar guard)
/// and reproduces its own bits on another thread count: the width reads
/// neither the pool nor the outer extent.
#[test]
fn tessellation_2d_cuts_a_wide_grid_into_cache_sized_tiles() {
    // inexact weights and field: heat2d's dyadic ones round nowhere
    let g = Grid2D::from_fn(72, 4096, |y, x| (y as f64 * 0.37 + x as f64 * 0.011).sin());
    let t = 8;
    for (p, method) in [
        (kernels::gb(), Method::Folded { m: 2 }),
        (kernels::gb(), Method::TransposeLayout),
        (kernels::box2d9p(), Method::Folded { m: 2 }),
    ] {
        let plan = |tiling, threads| {
            Solver::new(p.clone())
                .method(method)
                .tiling(tiling)
                .threads(threads)
                .compile()
                .unwrap()
        };
        let want = plan(Tiling::None, 1).run_2d(&g, t).unwrap().to_dense();
        let tiling = Tiling::Tessellate { time_block: 4 };
        let got = plan(tiling, 1).run_2d(&g, t).unwrap().to_dense();
        let ctx = format!("{}pt {method:?}", p.points());
        assert!(max_abs_diff(&want, &got) < 1e-10, "{ctx}");
        let again = plan(tiling, 3).run_2d(&g, t).unwrap().to_dense();
        assert!(bits(got) == bits(again), "{ctx}: 1 and 3 threads differ");
    }
}
