//! Plain spatial blocking: one time step at a time, space cut into
//! cache-sized tiles processed in parallel. No temporal reuse — the
//! baseline tiling the temporal schemes are measured against, and the
//! parallelization used for the block-free multicore rows.
//!
//! A grid with no interior on some axis (`n <= 2 * band`) is all
//! Dirichlet band and every step the identity: the drivers advance the
//! pair's step count and write nothing, as the tessellate drivers and
//! the block-free routes do.

use crate::exec::all_band;
use crate::tile::RawPair;
use core::ops::Range;
use stencil_grid::{Grid2D, Grid3D, PingPong};
use stencil_runtime::{parallel_for, ThreadPool};

/// Parallel spatially-blocked 2D run: `steps` inner steps, tiles of
/// `by x bx` cells over the interior `[band, n-band)`.
pub fn run_2d<K>(
    pool: &ThreadPool,
    pp: &mut PingPong<Grid2D>,
    band: usize,
    (by, bx): (usize, usize),
    steps: usize,
    kernel: &K,
) where
    K: Fn(&Grid2D, &mut Grid2D, Range<usize>, Range<usize>) + Sync,
{
    let (ny, nx) = (pp.current().ny(), pp.current().nx());
    if all_band(&[ny, nx], band) {
        // all band: both surfaces agree on it, every step is the identity
        return (0..steps).for_each(|_| pp.swap());
    }
    let (ylo, yhi) = (band, ny - band);
    let (xlo, xhi) = (band, nx - band);
    let tiles_y = (yhi - ylo).div_ceil(by).max(1);
    let tiles_x = (xhi - xlo).div_ceil(bx).max(1);
    for _step in 0..steps {
        let (cur, scratch) = pp.both_mut();
        let pair = RawPair::new(cur, scratch);
        parallel_for(pool, tiles_y * tiles_x, 1, &|tr| {
            for tile in tr {
                let (ty, tx) = (tile / tiles_x, tile % tiles_x);
                let yr = (ylo + ty * by)..(ylo + (ty + 1) * by).min(yhi);
                let xr = (xlo + tx * bx)..(xlo + (tx + 1) * bx).min(xhi);
                if yr.is_empty() || xr.is_empty() {
                    continue;
                }
                // SAFETY: tiles partition the interior (disjoint writes);
                // all tiles read the same quiescent source level.
                let (src, dst) = unsafe { pair.src_dst(0) };
                kernel(src, dst, yr, xr);
            }
        });
        // both_mut is re-taken each step, so src is always the latest
        // level and dst the scratch; one swap advances the pair.
        pp.swap();
    }
}

/// Parallel spatially-blocked 3D run (tiles over z and y, full x rows).
pub fn run_3d<K>(
    pool: &ThreadPool,
    pp: &mut PingPong<Grid3D>,
    band: usize,
    (bz, by): (usize, usize),
    steps: usize,
    kernel: &K,
) where
    K: Fn(&Grid3D, &mut Grid3D, Range<usize>, Range<usize>, Range<usize>) + Sync,
{
    let (nz, ny, nx) = (pp.current().nz(), pp.current().ny(), pp.current().nx());
    if all_band(&[nz, ny, nx], band) {
        // all band, as in run_2d
        return (0..steps).for_each(|_| pp.swap());
    }
    let (zlo, zhi) = (band, nz - band);
    let (ylo, yhi) = (band, ny - band);
    let tiles_z = (zhi - zlo).div_ceil(bz).max(1);
    let tiles_y = (yhi - ylo).div_ceil(by).max(1);
    for _step in 0..steps {
        let (cur, scratch) = pp.both_mut();
        let pair = RawPair::new(cur, scratch);
        parallel_for(pool, tiles_z * tiles_y, 1, &|tr| {
            for tile in tr {
                let (tz, ty) = (tile / tiles_y, tile % tiles_y);
                let zr = (zlo + tz * bz)..(zlo + (tz + 1) * bz).min(zhi);
                let yr = (ylo + ty * by)..(ylo + (ty + 1) * by).min(yhi);
                if zr.is_empty() || yr.is_empty() {
                    continue;
                }
                // SAFETY: disjoint tiles, quiescent source.
                let (src, dst) = unsafe { pair.src_dst(0) };
                kernel(src, dst, zr, yr, band..nx - band);
            }
        });
        pp.swap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{multiload, scalar};
    use crate::kernels;
    use stencil_grid::max_abs_diff;
    use stencil_simd::NativeF64x4;

    #[test]
    fn spatial_2d_matches_plain() {
        let p = kernels::box2d9p();
        let g = Grid2D::from_fn(37, 45, |y, x| ((y * 3 + x * 11) % 23) as f64);
        let steps = 4;
        let mut want = PingPong::new(g.clone());
        scalar::sweep_2d(&mut want, &p, steps);
        let pc = p.clone();
        let pool = ThreadPool::new(4);
        let mut pp = PingPong::new(g);
        run_2d(
            &pool,
            &mut pp,
            1,
            (8, 16),
            steps,
            &|s: &Grid2D, d: &mut Grid2D, ys, xs| {
                multiload::step_range_2d::<NativeF64x4>(s, d, &pc, ys, xs)
            },
        );
        assert!(max_abs_diff(&want.current().to_dense(), &pp.current().to_dense()) < 1e-12);
    }

    #[test]
    fn spatial_3d_matches_plain() {
        let p = kernels::heat3d();
        let g = Grid3D::from_fn(13, 15, 17, |z, y, x| ((z + y * 2 + x * 3) % 7) as f64);
        let steps = 3;
        let mut want = PingPong::new(g.clone());
        scalar::sweep_3d(&mut want, &p, steps);
        let pc = p.clone();
        let pool = ThreadPool::new(4);
        let mut pp = PingPong::new(g);
        run_3d(
            &pool,
            &mut pp,
            1,
            (4, 4),
            steps,
            &|s: &Grid3D, d: &mut Grid3D, zs, ys, xs| {
                multiload::step_range_3d::<NativeF64x4>(s, d, &pc, zs, ys, xs)
            },
        );
        assert!(max_abs_diff(&want.current().to_dense(), &pp.current().to_dense()) < 1e-12);
    }
}
