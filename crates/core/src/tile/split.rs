//! Split tiling over DLT layout — the "SDSL" baseline (Henretty et al.).
//!
//! SDSL vectorizes with the global dimension-lifted transpose and blocks
//! time with split tiling (upright/inverted triangles; nested in 1D,
//! hybrid for higher dimensions). We reproduce both properties:
//!
//! * **1D**: the lifted space `p in [0, cols)` is a *ring* — original
//!   position `l*cols + (cols-1)` neighbours `(l+1)*cols + 0`, i.e.
//!   column `cols-1` feeds column `0` one lane down. Split tiles are
//!   triangles on that ring; the wrap tile handles the lane seam through
//!   the same shifted-vector fix-up the plain DLT sweep uses. Because a
//!   p-tile touches `vl` memory segments `cols` elements apart, its cache
//!   footprint is `vl` spread stripes — the locality penalty the paper
//!   attributes to DLT-constrained blocking.
//! * **2D/3D (hybrid)**: DLT along x (per row), split-tiling triangles
//!   along the outermost dimension, full sweeps in between — Henretty's
//!   hybrid tiling shape, which is tessellate's cut-axis round (the
//!   driver body of [`crate::tile::tessellate`], same tile-width rule)
//!   over lifted rows.

use crate::exec::dlt::{relayout, step_dlt_range};
use crate::pattern::Pattern;
use crate::tile::tessellate::run_cut;
use crate::tile::{tile_width, RawPair};
use stencil_grid::layout::DltLayout;
use stencil_grid::{Grid1D, Grid2D, Grid3D, PingPong};
use stencil_runtime::{parallel_for, ThreadPool};
use stencil_simd::SimdF64;

/// Ring-tile geometry over the lifted dimension.
#[derive(Debug, Clone, Copy)]
struct RingTiling {
    cols: usize,
    r: usize,
    tb: usize,
    w: usize,
    ntiles: usize,
}

impl RingTiling {
    fn new(cols: usize, r: usize, tb_wanted: usize) -> Self {
        // Need w = 2*r*tb <= cols; clamp tb accordingly.
        let tb = tb_wanted.max(1).min((cols / (2 * r)).max(1));
        let w = 2 * r * tb;
        let ntiles = (cols / w).max(1);
        Self {
            cols,
            r,
            tb,
            w,
            ntiles,
        }
    }

    /// Triangle tile `k`'s p-range at inner step `t` (non-wrapping).
    fn triangle(&self, k: usize, t: usize) -> (usize, usize) {
        let shrink = self.r * (t + 1);
        let lo = k * self.w + shrink;
        let base_hi = if k == self.ntiles - 1 {
            self.cols
        } else {
            (k + 1) * self.w
        };
        let hi = base_hi.saturating_sub(shrink);
        (lo, hi.max(lo))
    }

    /// Inverted tile at ring boundary `b` (0..ntiles; 0 is the wrap
    /// boundary): p-range at step `t`, possibly extending past `cols`
    /// (positions wrap modulo `cols` in the step kernel).
    fn inverted(&self, b: usize, t: usize) -> (usize, usize) {
        let grow = self.r * (t + 1);
        let c = if b == 0 { self.cols } else { b * self.w };
        // widths differ at the last (ragged) tile; cap by neighbours
        (c - grow, c + grow)
    }
}

/// SDSL-style 1D sweep of a pair: the current surface is lifted onto the
/// scratch one, `t_steps` split-tiled steps run on the pair in DLT space
/// (the ring tiles of a step cover every column, so the scratch surface
/// may hold anything), and the result is transposed back onto the other
/// surface.
///
/// # Panics
/// If the length is not a multiple of `V::LANES`, or the lifted row
/// (`len / V::LANES` points) is shorter than the radius.
pub fn sweep_1d<V: SimdF64>(
    pool: &ThreadPool,
    pp: &mut PingPong<Grid1D>,
    p: &Pattern,
    tb: usize,
    t_steps: usize,
) {
    assert_eq!(p.dims(), 1);
    let layout = DltLayout::new(pp.current().len(), V::LANES);
    let cols = layout.cols();
    let r = p.radius();
    // the seam loads of a lifted row reach back `r` columns
    assert!(r <= cols, "radius exceeds lifted row");
    let taps = p.weights();
    relayout(pp, |s, d| {
        layout.to_dlt::<V>(s.as_slice(), d.as_mut_slice())
    });

    let mut remaining = t_steps;
    while remaining > 0 {
        let ring = RingTiling::new(cols, r, tb.min(remaining));
        let tb_round = ring.tb.min(remaining);
        let ring = RingTiling::new(cols, r, tb_round);
        let (cur, scratch) = pp.both_mut();
        let pair = RawPair::new(cur, scratch);
        // stage 1: triangles
        parallel_for(pool, ring.ntiles, 1, &|tiles| {
            for k in tiles {
                for t in 0..tb_round {
                    let (lo, hi) = ring.triangle(k, t);
                    if lo >= hi {
                        continue;
                    }
                    // SAFETY: triangle ranges are disjoint across tiles
                    // at every step pair; reads stay within r.
                    let (src, dst) = unsafe { pair.src_dst(t) };
                    step_dlt_range::<V>(src.as_slice(), dst.as_mut_slice(), taps, cols, lo, hi);
                }
            }
        });
        // stage 2: inverted triangles (incl. the wrap tile b = 0)
        parallel_for(pool, ring.ntiles, 1, &|tiles| {
            for bidx in tiles {
                for t in 0..tb_round {
                    let (lo, hi) = ring.inverted(bidx, t);
                    if lo >= hi {
                        continue;
                    }
                    // SAFETY: inverted ranges are disjoint across
                    // boundaries (half-width <= w/2).
                    let (src, dst) = unsafe { pair.src_dst(t) };
                    step_dlt_range::<V>(src.as_slice(), dst.as_mut_slice(), taps, cols, lo, hi);
                }
            }
        });
        for _ in 0..tb_round {
            pp.swap();
        }
        remaining -= tb_round;
    }
    relayout(pp, |s, d| {
        layout.from_dlt::<V>(s.as_slice(), d.as_mut_slice())
    });
}

/// One 2D step over DLT-lifted rows: `ys` rows, all lifted columns.
/// `src`/`dst` hold each row in DLT layout (`nx = cols * vl`).
fn step_dlt_rows_2d<V: SimdF64>(
    src: &Grid2D,
    dst: &mut Grid2D,
    p: &Pattern,
    ys: core::ops::Range<usize>,
) {
    let vl = V::LANES;
    let r = p.radius();
    let side = p.side();
    let w = p.weights();
    let nx = src.nx();
    let cols = nx / vl;
    let stride = src.stride();
    let s = src.as_slice();
    let d = dst.as_mut_slice();
    for y in ys {
        for q in 0..cols {
            let mut acc = V::zero();
            for dy in 0..side {
                let row = &s[(y + dy - r) * stride..(y + dy - r) * stride + nx];
                for dx in 0..side {
                    let wv = w[dy * side + dx];
                    if wv == 0.0 {
                        continue;
                    }
                    let v = dlt_vec_at::<V>(row, cols, q as isize + dx as isize - r as isize);
                    acc = v.mul_add(V::splat(wv), acc);
                }
            }
            // SAFETY: q*vl + vl <= nx <= stride
            unsafe { acc.store(d.as_mut_ptr().add(y * stride + q * vl)) };
            // Dirichlet fix-up on original x-edges
            if q < r {
                d[y * stride + q * vl] = s[y * stride + q * vl];
            }
            if q >= cols - r {
                d[y * stride + q * vl + vl - 1] = s[y * stride + q * vl + vl - 1];
            }
        }
    }
}

#[inline(always)]
fn dlt_vec_at<V: SimdF64>(row: &[f64], cols: usize, q: isize) -> V {
    let c = cols as isize;
    if q >= 0 && q < c {
        // SAFETY: in-bounds by construction.
        unsafe { V::load(row.as_ptr().add(q as usize * V::LANES)) }
    } else if q < 0 {
        let base = unsafe { V::load(row.as_ptr().add((q + c) as usize * V::LANES)) };
        base.shift_in_left(V::zero())
    } else {
        let base = unsafe { V::load(row.as_ptr().add((q - c) as usize * V::LANES)) };
        base.shift_in_right(V::zero())
    }
}

/// SDSL-style 2D sweep of a pair: DLT along x, split-tiling triangles
/// along y. Every row of the current surface is lifted onto the scratch
/// one, the steps run on the pair, and the rows are un-lifted onto the
/// other surface; the scratch surface may hold anything.
///
/// # Panics
/// If `nx` is not a multiple of `V::LANES`, or the lifted row
/// (`nx / V::LANES` points) is shorter than the radius.
pub fn sweep_2d<V: SimdF64>(
    pool: &ThreadPool,
    pp: &mut PingPong<Grid2D>,
    p: &Pattern,
    tb: usize,
    t_steps: usize,
) {
    assert_eq!(p.dims(), 2);
    let (ny, nx) = (pp.current().ny(), pp.current().nx());
    let r = p.radius();
    let row_layout = DltLayout::new(nx, V::LANES);
    // `dlt_vec_at`'s wrapped loads reach back `r` lifted columns
    assert!(r <= row_layout.cols(), "radius exceeds lifted row");
    let rows = |src: &Grid2D, dst: &mut Grid2D, map: Relayout| {
        for y in 0..ny {
            map(&row_layout, src.row(y), dst.row_mut(y));
        }
    };
    relayout(pp, |s, d| rows(s, d, DltLayout::to_dlt::<V>));
    // the lifted steps never write the band rows: both surfaces need them
    let (cur, scratch) = pp.both_mut();
    scratch.copy_band_from(cur, r);
    // the triangles along y are tessellate's cut-axis rounds, same width rule
    let w = tile_width(&[nx], r, tb);
    let step = |s: &Grid2D, d: &mut Grid2D, ys| step_dlt_rows_2d::<V>(s, d, p, ys);
    run_cut(pool, pp, &[ny], r, r, w, tb, t_steps, &step);
    relayout(pp, |s, d| rows(s, d, DltLayout::from_dlt::<V>));
}

/// One 3D step over DLT-lifted rows: planes `zs`, all rows, all lifted
/// columns.
fn step_dlt_rows_3d<V: SimdF64>(
    src: &Grid3D,
    dst: &mut Grid3D,
    p: &Pattern,
    zs: core::ops::Range<usize>,
) {
    let vl = V::LANES;
    let r = p.radius();
    let side = p.side();
    let w = p.weights();
    let (ny, nx) = (src.ny(), src.nx());
    let cols = nx / vl;
    let (sy, sz) = (src.stride_y(), src.stride_z());
    let s = src.as_slice();
    let d = dst.as_mut_slice();
    for z in zs {
        for y in r..ny - r {
            for q in 0..cols {
                let mut acc = V::zero();
                for dz in 0..side {
                    for dy in 0..side {
                        let base = (z + dz - r) * sz + (y + dy - r) * sy;
                        let row = &s[base..base + nx];
                        for dx in 0..side {
                            let wv = w[(dz * side + dy) * side + dx];
                            if wv == 0.0 {
                                continue;
                            }
                            let v =
                                dlt_vec_at::<V>(row, cols, q as isize + dx as isize - r as isize);
                            acc = v.mul_add(V::splat(wv), acc);
                        }
                    }
                }
                let off = z * sz + y * sy + q * vl;
                // SAFETY: q*vl + vl <= nx <= stride_y
                unsafe { acc.store(d.as_mut_ptr().add(off)) };
                if q < r {
                    d[off] = s[off];
                }
                if q >= cols - r {
                    d[off + vl - 1] = s[off + vl - 1];
                }
            }
        }
        // frozen y-boundary rows keep their values in both arrays
    }
}

/// SDSL-style 3D sweep of a pair: DLT along x, split-tiling triangles
/// along z, full y sweeps, the pair handled as in [`sweep_2d`].
///
/// # Panics
/// As [`sweep_2d`].
pub fn sweep_3d<V: SimdF64>(
    pool: &ThreadPool,
    pp: &mut PingPong<Grid3D>,
    p: &Pattern,
    tb: usize,
    t_steps: usize,
) {
    assert_eq!(p.dims(), 3);
    let (nz, ny, nx) = (pp.current().nz(), pp.current().ny(), pp.current().nx());
    let r = p.radius();
    let row_layout = DltLayout::new(nx, V::LANES);
    // `dlt_vec_at`'s wrapped loads reach back `r` lifted columns
    assert!(r <= row_layout.cols(), "radius exceeds lifted row");
    let rows = |src: &Grid3D, dst: &mut Grid3D, map: Relayout| {
        for z in 0..nz {
            for y in 0..ny {
                map(&row_layout, src.row(z, y), dst.row_mut(z, y));
            }
        }
    };
    relayout(pp, |s, d| rows(s, d, DltLayout::to_dlt::<V>));
    let (cur, scratch) = pp.both_mut();
    scratch.copy_band_from(cur, r);
    let w = tile_width(&[ny, nx], r, tb);
    let step = |s: &Grid3D, d: &mut Grid3D, zs| step_dlt_rows_3d::<V>(s, d, p, zs);
    // y is never cut, but a y extent without an interior is all band too
    run_cut(pool, pp, &[nz, ny], r, r, w, tb, t_steps, &step);
    relayout(pp, |s, d| rows(s, d, DltLayout::from_dlt::<V>));
}

/// One row's layout change: [`DltLayout::to_dlt`] or [`DltLayout::from_dlt`].
type Relayout = fn(&DltLayout, &[f64], &mut [f64]);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::scalar;
    use crate::kernels;
    use stencil_grid::max_abs_diff;
    use stencil_simd::{NativeF64x4, NativeF64x8};

    fn pool() -> ThreadPool {
        ThreadPool::new(6)
    }

    #[test]
    fn sdsl_1d_matches_scalar() {
        for p in [kernels::heat1d(), kernels::d1p5()] {
            for n in [128usize, 256, 512] {
                let g = Grid1D::from_fn(n, |i| ((i * 23) % 17) as f64 * 0.6);
                let steps = 10;
                let mut want = PingPong::new(g.clone());
                scalar::sweep_1d(&mut want, &p, steps);
                let mut out = PingPong::new(g.clone());
                sweep_1d::<NativeF64x4>(&pool(), &mut out, &p, 3, steps);
                assert!(
                    max_abs_diff(want.current().as_slice(), out.current().as_slice()) < 1e-12,
                    "x4 n={n} pts={}",
                    p.points()
                );
            }
        }
    }

    #[test]
    fn sdsl_1d_avx512_width() {
        let p = kernels::heat1d();
        let n = 512;
        let g = Grid1D::from_fn(n, |i| (i as f64 * 0.07).cos());
        let steps = 8;
        let mut want = PingPong::new(g.clone());
        scalar::sweep_1d(&mut want, &p, steps);
        let mut out = PingPong::new(g.clone());
        sweep_1d::<NativeF64x8>(&pool(), &mut out, &p, 4, steps);
        assert!(max_abs_diff(want.current().as_slice(), out.current().as_slice()) < 1e-12);
    }

    #[test]
    fn sdsl_1d_single_tile_ring() {
        // cols so small only one ring tile fits
        let p = kernels::heat1d();
        let n = 64; // cols = 16 with vl=4
        let g = Grid1D::from_fn(n, |i| (i % 9) as f64);
        let steps = 6;
        let mut want = PingPong::new(g.clone());
        scalar::sweep_1d(&mut want, &p, steps);
        let mut out = PingPong::new(g.clone());
        sweep_1d::<NativeF64x4>(&pool(), &mut out, &p, 8, steps);
        assert!(max_abs_diff(want.current().as_slice(), out.current().as_slice()) < 1e-12);
    }

    #[test]
    fn sdsl_3d_matches_scalar() {
        for p in [kernels::heat3d(), kernels::box3d27p()] {
            let g = Grid3D::from_fn(15, 13, 32, |z, y, x| ((z * 5 + y * 11 + x * 3) % 17) as f64);
            let steps = 5;
            let mut want = PingPong::new(g.clone());
            scalar::sweep_3d(&mut want, &p, steps);
            let mut out = PingPong::new(g.clone());
            sweep_3d::<NativeF64x4>(&pool(), &mut out, &p, 2, steps);
            assert!(
                max_abs_diff(&want.current().to_dense(), &out.current().to_dense()) < 1e-12,
                "pts={}",
                p.points()
            );
        }
    }

    #[test]
    fn sdsl_2d_matches_scalar() {
        for p in [kernels::heat2d(), kernels::box2d9p()] {
            let g = Grid2D::from_fn(41, 64, |y, x| ((y * 29 + x * 7) % 31) as f64);
            let steps = 6;
            let mut want = PingPong::new(g.clone());
            scalar::sweep_2d(&mut want, &p, steps);
            let mut out = PingPong::new(g.clone());
            sweep_2d::<NativeF64x4>(&pool(), &mut out, &p, 3, steps);
            assert!(
                max_abs_diff(&want.current().to_dense(), &out.current().to_dense()) < 1e-12,
                "pts={}",
                p.points()
            );
        }
    }
}
