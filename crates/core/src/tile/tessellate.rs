//! Tessellate tiling drivers (1D/2D/3D), generic over the inner kernel.
//!
//! Each driver advances a ping-pong pair by `steps` *inner* steps (one
//! time level for plain kernels, `m` for folded ones) in rounds of at
//! most `tb` steps. Only the outermost axis is cut, into tiles `w` wide —
//! the caller's width, [`tile_width`](super::tile_width) on the
//! production routes; the inner axes go to the kernel whole. A round is
//! two stages under pool barriers, trapezoids then inverted tiles, in
//! every dimensionality; the tiles of a stage run in parallel, each its
//! whole time loop (the temporal reuse that makes tessellation a
//! cache-blocking scheme). A stage with no tiles — the inverted stage of
//! a one-tile axis — does nothing, and a stage of one tile runs on the
//! calling thread: a one-tile run, block-free ones included, never
//! dispatches to the pool.
//!
//! Kernel contract (the tiles' disjointness proof depends on it): a call
//! `kernel(src, dst, region)` writes exactly `region` of `dst` and reads
//! only within `reff` of `region` in `src`.
//!
//! A grid with no interior on some axis (`n <= 2 * band`) is all
//! Dirichlet band and every step the identity: the drivers advance the
//! pair's step count and write nothing.

// every driver takes the geometry's inputs flat: reff, band, w, tb, steps
#![allow(clippy::too_many_arguments)]

use crate::exec::all_band;
use crate::tile::{DimTiling, RawPair};
use core::ops::Range;
use stencil_grid::{Grid1D, Grid2D, Grid3D, PingPong};
use stencil_runtime::{parallel_for, ThreadPool};

/// The one driver body: rounds of two stages over tiles `w` wide of the
/// cut axis `extents[0]`; `kernel(src, dst, range)` steps `range` of the
/// cut axis across the whole interior of the other `extents`.
pub(crate) fn run_cut<G, K>(
    pool: &ThreadPool,
    pp: &mut PingPong<G>,
    extents: &[usize],
    reff: usize,
    band: usize,
    w: usize,
    tb: usize,
    steps: usize,
    kernel: &K,
) where
    K: Fn(&G, &mut G, Range<usize>) + Sync,
{
    if all_band(extents, band) {
        // all band: both surfaces agree on it, every step is the identity
        return (0..steps).for_each(|_| pp.swap());
    }
    let n = extents[0];
    let mut remaining = steps;
    while remaining > 0 {
        let tb_round = DimTiling::max_tb(n, band, reff, tb).min(remaining);
        let dim = DimTiling::new(n, band, reff, tb_round, w);
        let (cur, scratch) = pp.both_mut();
        let pair = RawPair::new(cur, scratch);
        for inv in [false, true] {
            let stage = |tile_range: Range<usize>| {
                for i in tile_range {
                    for t in 0..tb_round {
                        let r = dim.range(inv, i, t);
                        if r.is_empty() {
                            continue;
                        }
                        // SAFETY: within a stage, tile write regions are
                        // disjoint across all step pairs at any width the
                        // geometry accepts (tile::tests), and reads stay
                        // within reff of the region: quiescent or own data.
                        let (src, dst) = unsafe { pair.src_dst(t) };
                        kernel(src, dst, r);
                    }
                }
            };
            match dim.count(inv) {
                0 => {}
                1 => stage(0..1),
                tiles => parallel_for(pool, tiles, 1, &stage),
            }
        }
        // the band was never written and both surfaces agree on it
        (0..tb_round).for_each(|_| pp.swap());
        remaining -= tb_round;
    }
}

/// Tessellated 1D run: advances `pp` by `steps` inner steps.
///
/// `reff`: radius of one inner step; `band`: Dirichlet band width; `w`:
/// tile width, at least [`DimTiling::min_width`] of `reff` and `tb`;
/// `tb`: requested inner steps per round; `kernel(src, dst, lo, hi)`.
pub fn run_1d<K>(
    pool: &ThreadPool,
    pp: &mut PingPong<Grid1D>,
    reff: usize,
    band: usize,
    w: usize,
    tb: usize,
    steps: usize,
    kernel: &K,
) where
    K: Fn(&[f64], &mut [f64], usize, usize) + Sync,
{
    let n = pp.current().len();
    let step = |s: &Grid1D, d: &mut Grid1D, xs: Range<usize>| {
        kernel(s.as_slice(), d.as_mut_slice(), xs.start, xs.end)
    };
    run_cut(pool, pp, &[n], reff, band, w, tb, steps, &step)
}

/// Tessellated 2D run: `y` is cut into tiles `w` rows wide and every
/// `kernel(src, dst, ys, xs)` call gets the whole interior of `x`.
pub fn run_2d<K>(
    pool: &ThreadPool,
    pp: &mut PingPong<Grid2D>,
    reff: usize,
    band: usize,
    w: usize,
    tb: usize,
    steps: usize,
    kernel: &K,
) where
    K: Fn(&Grid2D, &mut Grid2D, Range<usize>, Range<usize>) + Sync,
{
    let (ny, nx) = (pp.current().ny(), pp.current().nx());
    // run_cut calls the kernel only on a grid with an interior on every axis
    let step = |s: &Grid2D, d: &mut Grid2D, ys: Range<usize>| kernel(s, d, ys, band..nx - band);
    run_cut(pool, pp, &[ny, nx], reff, band, w, tb, steps, &step)
}

/// Tessellated 3D run: `z` is cut into tiles `w` planes wide and every
/// `kernel(src, dst, zs, ys, xs)` call gets the whole interior of `y` and
/// `x`.
pub fn run_3d<K>(
    pool: &ThreadPool,
    pp: &mut PingPong<Grid3D>,
    reff: usize,
    band: usize,
    w: usize,
    tb: usize,
    steps: usize,
    kernel: &K,
) where
    K: Fn(&Grid3D, &mut Grid3D, Range<usize>, Range<usize>, Range<usize>) + Sync,
{
    let (nz, ny, nx) = (pp.current().nz(), pp.current().ny(), pp.current().nx());
    let step = |s: &Grid3D, d: &mut Grid3D, zs: Range<usize>| {
        kernel(s, d, zs, band..ny - band, band..nx - band)
    };
    run_cut(pool, pp, &[nz, ny, nx], reff, band, w, tb, steps, &step)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{folded, multiload, scalar};
    use crate::folding::fold;
    use crate::kernels;
    use crate::pattern::Pattern;
    use stencil_grid::max_abs_diff;
    use stencil_simd::NativeF64x4;

    fn pool() -> ThreadPool {
        ThreadPool::new(8)
    }

    /// The widths every driver test runs at: the floor (many narrow
    /// tiles, triangle tips), an odd trapezoid, and one tile — what the
    /// production rule makes of every grid this small.
    fn widths(n: usize, reff: usize, tb: usize) -> [usize; 3] {
        let floor = DimTiling::min_width(reff, tb);
        [floor, floor + 3, n.max(floor)]
    }

    #[test]
    fn tess_1d_scalar_kernel_matches_plain_sweep() {
        let p = kernels::heat1d();
        let n = 257;
        let steps = 11;
        let g = Grid1D::from_fn(n, |i| ((i * 37) % 19) as f64 * 0.4);
        let mut want = PingPong::new(g.clone());
        scalar::sweep_1d(&mut want, &p, steps);
        let taps = p.weights().to_vec();
        for w in widths(n, 1, 4) {
            let mut pp = PingPong::new(g.clone());
            run_1d(
                &pool(),
                &mut pp,
                1,
                1,
                w,
                4,
                steps,
                &|s: &[f64], d: &mut [f64], lo, hi| scalar::step_range_1d(s, d, &taps, lo, hi),
            );
            assert_eq!(pp.steps(), steps);
            assert!(max_abs_diff(want.current().as_slice(), pp.current().as_slice()) < 1e-12);
        }
    }

    #[test]
    fn tess_1d_vector_kernel_and_radius2() {
        let p = kernels::d1p5();
        let n = 400;
        let steps = 9;
        let g = Grid1D::from_fn(n, |i| (i as f64 * 0.05).sin());
        let mut want = PingPong::new(g.clone());
        scalar::sweep_1d(&mut want, &p, steps);
        let taps = p.weights().to_vec();
        for w in widths(n, 2, 5) {
            let mut pp = PingPong::new(g.clone());
            run_1d(
                &pool(),
                &mut pp,
                2,
                2,
                w,
                5,
                steps,
                &|s: &[f64], d: &mut [f64], lo, hi| {
                    multiload::step_range_1d::<NativeF64x4>(s, d, &taps, lo, hi)
                },
            );
            assert!(max_abs_diff(want.current().as_slice(), pp.current().as_slice()) < 1e-12);
        }
    }

    #[test]
    fn tess_1d_folded_squares_kernel() {
        // folded m=2 kernel within tessellation: reff = 2, band = 2
        let p = kernels::heat1d();
        let f = fold(&p, 2);
        let n = 512;
        let folded_steps = 8; // = 16 time levels
        let g = Grid1D::from_fn(n, |i| ((i * 13) % 31) as f64);
        let mut want = PingPong::new(g.clone());
        scalar::sweep_1d(&mut want, &f, folded_steps);
        let taps = f.weights().to_vec();
        for w in widths(n, 2, 3) {
            let mut pp = PingPong::new(g.clone());
            run_1d(
                &pool(),
                &mut pp,
                2,
                2,
                w,
                3,
                folded_steps,
                &|s: &[f64], d: &mut [f64], lo, hi| {
                    folded::step_squares_range_1d::<NativeF64x4>(s, d, &taps, lo, hi)
                },
            );
            assert!(max_abs_diff(want.current().as_slice(), pp.current().as_slice()) < 1e-12);
        }
    }

    #[test]
    fn tess_2d_matches_plain_sweep() {
        for p in [kernels::heat2d(), kernels::box2d9p(), kernels::gb()] {
            let g = Grid2D::from_fn(49, 61, |y, x| ((y * 11 + x * 3) % 23) as f64);
            let steps = 7;
            let mut want = PingPong::new(g.clone());
            scalar::sweep_2d(&mut want, &p, steps);
            let pc = p.clone();
            for w in widths(49, 1, 3) {
                let mut pp = PingPong::new(g.clone());
                run_2d(
                    &pool(),
                    &mut pp,
                    1,
                    1,
                    w,
                    3,
                    steps,
                    &|s: &Grid2D, d: &mut Grid2D, ys, xs| {
                        multiload::step_range_2d::<NativeF64x4>(s, d, &pc, ys, xs)
                    },
                );
                assert!(
                    max_abs_diff(&want.current().to_dense(), &pp.current().to_dense()) < 1e-12,
                    "pts={} w={w}",
                    p.points()
                );
            }
        }
    }

    #[test]
    fn tess_2d_folded_kernel_matches_scalar_folded() {
        let p = kernels::box2d9p();
        let f = fold(&p, 2);
        let k = folded::FoldedKernel::new(&p, 2);
        let g = Grid2D::from_fn(53, 47, |y, x| ((y * 7 + x * 13) % 29) as f64 * 0.3);
        let folded_steps = 5;
        let mut want = PingPong::new(g.clone());
        scalar::sweep_2d(&mut want, &f, folded_steps);
        for w in widths(53, 2, 2) {
            let mut pp = PingPong::new(g.clone());
            run_2d(
                &pool(),
                &mut pp,
                2,
                2,
                w,
                2,
                folded_steps,
                &|s: &Grid2D, d: &mut Grid2D, ys, xs| {
                    folded::step_range_2d::<NativeF64x4>(&k, s, d, ys, xs)
                },
            );
            assert!(max_abs_diff(&want.current().to_dense(), &pp.current().to_dense()) < 1e-10);
        }
    }

    #[test]
    fn tess_3d_matches_plain_sweep() {
        let p = kernels::heat3d();
        let g = Grid3D::from_fn(17, 19, 23, |z, y, x| ((z * 3 + y * 5 + x * 7) % 13) as f64);
        let steps = 5;
        let mut want = PingPong::new(g.clone());
        scalar::sweep_3d(&mut want, &p, steps);
        let pc = p.clone();
        for w in widths(17, 1, 2) {
            let mut pp = PingPong::new(g.clone());
            run_3d(
                &pool(),
                &mut pp,
                1,
                1,
                w,
                2,
                steps,
                &|s: &Grid3D, d: &mut Grid3D, zs, ys, xs| {
                    multiload::step_range_3d::<NativeF64x4>(s, d, &pc, zs, ys, xs)
                },
            );
            assert!(max_abs_diff(&want.current().to_dense(), &pp.current().to_dense()) < 1e-12);
        }
    }

    #[test]
    fn tess_many_threads_stress() {
        // race detector by repetition: high thread count, tiny tiles
        let p = kernels::heat1d();
        let taps = p.weights().to_vec();
        let n = 1000;
        let g = Grid1D::from_fn(n, |i| (i % 97) as f64);
        let mut want = PingPong::new(g.clone());
        scalar::sweep_1d(&mut want, &p, 24);
        let big_pool = ThreadPool::new(16);
        for w in widths(n, 1, 6) {
            for _ in 0..5 {
                let mut pp = PingPong::new(g.clone());
                run_1d(
                    &big_pool,
                    &mut pp,
                    1,
                    1,
                    w,
                    6,
                    24,
                    &|s: &[f64], d: &mut [f64], lo, hi| scalar::step_range_1d(s, d, &taps, lo, hi),
                );
                assert!(max_abs_diff(want.current().as_slice(), pp.current().as_slice()) < 1e-12);
            }
        }
    }

    #[test]
    fn tess_handles_tb_larger_than_grid_allows() {
        // requested tb too big: driver clamps it per round, so the
        // narrowest width it accepts is the capped round's floor
        let p = kernels::heat1d();
        let taps = p.weights().to_vec();
        let g = Grid1D::from_fn(24, |i| i as f64);
        let mut want = PingPong::new(g.clone());
        scalar::sweep_1d(&mut want, &p, 10);
        for w in widths(24, 1, DimTiling::max_tb(24, 1, 1, 1000)) {
            let mut pp = PingPong::new(g.clone());
            run_1d(
                &pool(),
                &mut pp,
                1,
                1,
                w,
                1000,
                10,
                &|s: &[f64], d: &mut [f64], lo, hi| scalar::step_range_1d(s, d, &taps, lo, hi),
            );
            assert!(max_abs_diff(want.current().as_slice(), pp.current().as_slice()) < 1e-12);
        }
    }

    #[test]
    fn tess_2d_life_nonlinear_kernel() {
        use crate::exec::life;
        let g = life::random_soup(40, 44, 3);
        let steps = 6;
        // reference: plain generations
        let want = life::sweep::<NativeF64x4>(&g, steps);
        for w in widths(40, 1, 3) {
            let mut pp = PingPong::new(g.clone());
            run_2d(
                &pool(),
                &mut pp,
                1,
                1,
                w,
                3,
                steps,
                &|s: &Grid2D, d: &mut Grid2D, ys, xs| life::step_range::<NativeF64x4>(s, d, ys, xs),
            );
            assert!(max_abs_diff(&want.to_dense(), &pp.current().to_dense()) < 1e-15);
        }
    }

    /// Property-style: random shapes and step counts, scalar kernel.
    #[test]
    fn tess_2d_randomized_shapes() {
        let p = Pattern::new_2d(1, &[0.05, 0.1, 0.05, 0.1, 0.4, 0.1, 0.05, 0.1, 0.05]);
        for (ny, nx, steps, tb) in [
            (20usize, 35usize, 3usize, 2usize),
            (31, 22, 8, 5),
            (64, 17, 6, 4),
        ] {
            let g = Grid2D::from_fn(ny, nx, |y, x| ((y * 17 + x * 29) % 41) as f64);
            let mut want = PingPong::new(g.clone());
            scalar::sweep_2d(&mut want, &p, steps);
            let pc = p.clone();
            for w in widths(ny, 1, tb) {
                let mut pp = PingPong::new(g.clone());
                run_2d(
                    &pool(),
                    &mut pp,
                    1,
                    1,
                    w,
                    tb,
                    steps,
                    &|s: &Grid2D, d: &mut Grid2D, ys, xs| scalar::step_range_2d(s, d, &pc, ys, xs),
                );
                assert!(
                    max_abs_diff(&want.current().to_dense(), &pp.current().to_dense()) < 1e-12,
                    "ny={ny} nx={nx} steps={steps} tb={tb} w={w}"
                );
            }
        }
    }

    #[test]
    fn a_grid_without_an_interior_only_advances_the_step_count() {
        // n <= 2 * band on any axis: all band, every step the identity —
        // the kernel is never called and neither surface is written
        let never_1d = |_: &[f64], _: &mut [f64], _, _| panic!("no interior, no call");
        let never_2d = |_: &Grid2D, _: &mut Grid2D, _, _| panic!("no interior, no call");
        let never_3d = |_: &Grid3D, _: &mut Grid3D, _, _, _| panic!("no interior, no call");
        let band = 2;
        for n in 1..=2 * band {
            let g = Grid1D::from_fn(n, |i| i as f64 + 0.5);
            let mut pp = PingPong::new(g.clone());
            run_1d(&pool(), &mut pp, band, band, 8, 2, 5, &never_1d);
            assert_eq!((pp.steps(), pp.current().as_slice()), (5, g.as_slice()));
            for (ny, nx) in [(n, 9), (9, n)] {
                let g = Grid2D::from_fn(ny, nx, |y, x| (y * 10 + x) as f64);
                let mut pp = PingPong::new(g.clone());
                run_2d(&pool(), &mut pp, band, band, 8, 2, 5, &never_2d);
                assert_eq!((pp.steps(), pp.current().to_dense()), (5, g.to_dense()));
            }
            for (nz, ny, nx) in [(n, 9, 9), (9, n, 9), (9, 9, n)] {
                let g = Grid3D::from_fn(nz, ny, nx, |z, y, x| (z * 100 + y * 10 + x) as f64);
                let mut pp = PingPong::new(g.clone());
                run_3d(&pool(), &mut pp, band, band, 8, 2, 5, &never_3d);
                assert_eq!((pp.steps(), pp.current().to_dense()), (5, g.to_dense()));
            }
        }
    }
}
