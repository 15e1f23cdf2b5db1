//! DLT executor: global dimension-lifted transpose (Henretty et al.),
//! the paper's strongest vectorization baseline in small working sets.
//!
//! The array of length `n = vl * cols` is viewed as a `vl x cols` matrix
//! and globally transposed into a separate buffer (`dlt[p*vl + l] =
//! orig[l*cols + p]`). Original-space neighbours `x +- k` then live in the
//! *adjacent DLT vectors* `p +- k` at the same lane, so the steady-state
//! sweep runs on aligned full-vector loads with **zero shuffles**. The
//! price — which the paper's transpose layout avoids — is the two global
//! transpose passes and the loss of spatial locality (elements of one
//! vector sit `cols` apart in original space).
//!
//! Seam columns (`p` within `r` of 0 or `cols`) need values from the
//! neighbouring lane: `orig[l*cols - k]` is lane `l-1` of DLT vector
//! `cols - k`. The private `vec_at` helper builds those wrapped vectors with a single lane
//! shift; the out-of-domain lanes they carry are restored by the
//! Dirichlet fix-up, mirroring how DLT codes patch their boundaries.

// Indexed tap/window loops keep the offset arithmetic explicit and unrolled.
#![allow(clippy::needless_range_loop)]

use crate::pattern::Pattern;
use stencil_grid::layout::DltLayout;
use stencil_grid::{Grid1D, PingPong};
use stencil_simd::SimdF64;

/// Vector of DLT column `q`, for `q` in `[-cols, 2*cols)`: in-range
/// columns are aligned loads; wrapped columns shift lanes by one (the
/// seam property of the lifted view). Out-of-domain lanes are zero.
#[inline(always)]
fn vec_at<V: SimdF64>(dlt: &[f64], cols: usize, q: isize) -> V {
    let vl = V::LANES as isize;
    let c = cols as isize;
    if q >= 0 && q < c {
        // SAFETY: q*vl + vl <= cols*vl = len
        unsafe { V::load(dlt.as_ptr().add((q as usize) * V::LANES)) }
    } else if q < 0 {
        // lane l = orig[l*cols + q] = lane l-1 of column q + cols
        debug_assert!(q + c >= 0);
        let base = unsafe { V::load(dlt.as_ptr().add(((q + c) as usize) * vl as usize)) };
        base.shift_in_left(V::zero())
    } else {
        // lane l = lane l+1 of column q - cols
        debug_assert!(q - c < c);
        let base = unsafe { V::load(dlt.as_ptr().add(((q - c) as usize) * vl as usize)) };
        base.shift_in_right(V::zero())
    }
}

/// One Jacobi step over DLT columns `p_lo..p_hi` (ring positions:
/// `p_hi` may exceed `cols`, positions wrap modulo `cols`). After
/// computing each column, original-domain Dirichlet cells (orig `[0,r)`
/// in lane 0, orig `[n-r, n)` in the last lane) are restored from `src`.
#[inline(always)]
pub fn step_dlt_range<V: SimdF64>(
    src: &[f64],
    dst: &mut [f64],
    taps: &[f64],
    cols: usize,
    p_lo: usize,
    p_hi: usize,
) {
    crate::exec::dispatch_taps!(
        step_dlt_range_t,
        V,
        taps,
        (src, dst, taps, cols, p_lo, p_hi)
    );
}

#[inline(always)]
fn step_dlt_range_t<V: SimdF64, const T: usize>(
    src: &[f64],
    dst: &mut [f64],
    taps: &[f64],
    cols: usize,
    p_lo: usize,
    p_hi: usize,
) {
    let nt = crate::exec::tap_count::<T>(taps);
    let vl = V::LANES;
    let r = nt / 2;
    debug_assert_eq!(src.len(), cols * vl);
    debug_assert!(p_hi - p_lo <= cols);
    let mut tapv = [V::zero(); 17];
    for k in 0..nt {
        tapv[k] = V::splat(taps[k]);
    }
    for q in p_lo..p_hi {
        let p = q % cols;
        let mut acc = V::zero();
        if p >= r && p + r < cols {
            // interior: pure aligned loads, no shuffles — DLT's selling
            // point; keep this path branch-free.
            for k in 0..nt {
                // SAFETY: (p+k-r+1)*vl <= cols*vl
                let v = unsafe { V::load(src.as_ptr().add((p + k - r) * vl)) };
                acc = v.mul_add(tapv[k], acc);
            }
        } else {
            for k in 0..nt {
                let v = vec_at::<V>(src, cols, p as isize + k as isize - r as isize);
                acc = v.mul_add(tapv[k], acc);
            }
        }
        // SAFETY: p < cols
        unsafe { acc.store(dst.as_mut_ptr().add(p * vl)) };
        // Dirichlet fix-up on seam columns.
        if p < r {
            dst[p * vl] = src[p * vl]; // orig index p, lane 0
        }
        if p >= cols - r {
            dst[p * vl + vl - 1] = src[p * vl + vl - 1]; // orig n - cols + p
        }
    }
}

/// DLT block-free sweep of a pair: the current surface is lifted onto
/// the scratch one (the global transpose the paper counts as part of
/// DLT's cost, out of place), `t` steps run on the pair in DLT space, and
/// the result is transposed back onto the other surface. A step writes
/// every cell, so the scratch surface may hold anything. The length must
/// be a multiple of `V::LANES` whose lifted row covers the radius.
#[inline(always)]
pub fn sweep_1d<V: SimdF64>(pp: &mut PingPong<Grid1D>, p: &Pattern, t: usize) {
    let layout = DltLayout::new(pp.current().len(), V::LANES);
    let cols = layout.cols();
    assert!(p.radius() <= cols, "radius exceeds lifted row");
    // the closures inline too, or their transposes compile out of line
    // from a dispatch entry
    relayout(
        pp,
        #[inline(always)]
        |s, d| layout.to_dlt::<V>(s.as_slice(), d.as_mut_slice()),
    );
    for _ in 0..t {
        let (src, dst) = pp.src_dst();
        step_dlt_range::<V>(
            src.as_slice(),
            dst.as_mut_slice(),
            p.weights(),
            cols,
            0,
            cols,
        );
        pp.swap();
    }
    relayout(
        pp,
        #[inline(always)]
        |s, d| layout.from_dlt::<V>(s.as_slice(), d.as_mut_slice()),
    );
}

/// Move `pp`'s current surface to another layout: `convert(current,
/// scratch)` writes every cell of the scratch surface, which becomes the
/// current one — a change of layout, not a time level, so no step counts.
#[inline(always)]
pub(crate) fn relayout<G>(pp: &mut PingPong<G>, convert: impl FnOnce(&G, &mut G)) {
    let (src, dst) = pp.src_dst();
    convert(src, dst);
    pp.swap_folded(0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::scalar;
    use crate::kernels;
    use stencil_grid::max_abs_diff;
    use stencil_simd::{NativeF64x4, NativeF64x8};

    /// [`sweep_1d`] on a fresh pair seeded with `g`.
    fn sweep<V: SimdF64>(g: &Grid1D, p: &Pattern, t: usize) -> Grid1D {
        let mut pp = PingPong::new(g.clone());
        sweep_1d::<V>(&mut pp, p, t);
        pp.into_current()
    }

    #[test]
    fn matches_scalar_1d() {
        for p in [kernels::heat1d(), kernels::d1p5()] {
            for n in [64usize, 128, 256] {
                let g = Grid1D::from_fn(n, |i| ((i * 41) % 23) as f64 * 0.5);
                let mut a = PingPong::new(g.clone());
                scalar::sweep_1d(&mut a, &p, 6);
                let out4 = sweep::<NativeF64x4>(&g, &p, 6);
                assert!(
                    max_abs_diff(a.current().as_slice(), out4.as_slice()) < 1e-12,
                    "x4 n={n} p={}pt",
                    p.points()
                );
                let out8 = sweep::<NativeF64x8>(&g, &p, 6);
                assert!(
                    max_abs_diff(a.current().as_slice(), out8.as_slice()) < 1e-12,
                    "x8 n={n}"
                );
            }
        }
    }

    #[test]
    fn seam_dependencies_flow_across_lanes() {
        // An impulse at the end of lane 0's segment must diffuse into
        // lane 1's segment — only possible through the wrapped columns.
        let n = 64;
        let cols = n / 4;
        let p = kernels::heat1d();
        let g = Grid1D::from_fn(n, |i| if i == cols - 1 { 1.0 } else { 0.0 });
        let out = sweep::<NativeF64x4>(&g, &p, 1);
        assert!(out[cols] > 0.0, "impulse must cross the seam");
        let mut a = PingPong::new(g);
        scalar::sweep_1d(&mut a, &p, 1);
        assert!(max_abs_diff(a.current().as_slice(), out.as_slice()) < 1e-12);
    }

    #[test]
    fn ring_range_steps_cover_once() {
        // one step round the ring from column 5, wrapping past `cols`,
        // equals a full step
        let n = 96;
        let p = kernels::heat1d();
        let g = Grid1D::from_fn(n, |i| (i as f64 * 0.17).cos());
        let layout = DltLayout::new(n, 4);
        let cols = layout.cols();
        let (mut lifted, mut stepped, mut out) = (g.clone(), g.clone(), g.clone());
        layout.to_dlt::<NativeF64x4>(g.as_slice(), lifted.as_mut_slice());
        let (s, d) = (lifted.as_slice(), stepped.as_mut_slice());
        step_dlt_range::<NativeF64x4>(s, d, p.weights(), cols, 5, cols + 5);
        layout.from_dlt::<NativeF64x4>(stepped.as_slice(), out.as_mut_slice());
        let mut a = PingPong::new(g);
        scalar::sweep_1d(&mut a, &p, 1);
        assert!(max_abs_diff(a.current().as_slice(), out.as_slice()) < 1e-12);
    }
}
