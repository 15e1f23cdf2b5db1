//! Data-reorganization executor: aligned loads + per-tap shuffles.
//!
//! The paper's second auto-vectorization-class baseline: each output
//! vector is produced from *aligned* loads of the three surrounding
//! vectors, with every off-center tap assembled by concat-shift shuffles
//! (`vpalignr`-style; on AVX2 each single-lane shift costs a blend +
//! permute, so a radius-r stencil pays `2 * 2r` shuffle ops per vector —
//! the "frequent inter-vector permutations" the paper's scheme avoids).

use crate::pattern::Pattern;
use stencil_grid::{Grid1D, PingPong};
use stencil_simd::SimdF64;

/// Build the vector holding `src[i + off .. i + off + vl]` from the
/// aligned vectors `prev`/`cur`/`next` at aligned base `i`
/// (`-vl <= off <= vl`), by repeated single-lane shifts.
#[inline(always)]
fn offset_vec<V: SimdF64>(prev: V, cur: V, next: V, off: isize) -> V {
    let mut out = cur;
    match off.cmp(&0) {
        core::cmp::Ordering::Equal => out,
        core::cmp::Ordering::Greater => {
            let mut carry = next;
            for _ in 0..off {
                // shift left by one lane, pulling lane 0 of carry in
                out = out.shift_in_right(carry);
                carry = carry.rotate_lanes_left();
            }
            out
        }
        core::cmp::Ordering::Less => {
            let mut carry = prev;
            for _ in 0..(-off) {
                out = out.shift_in_left(carry);
                carry = carry.rotate_lanes_right();
            }
            out
        }
    }
}

/// One Jacobi step on `dst[lo..hi]` using aligned loads + shuffles.
/// Requires `r <= V::LANES`.
#[inline(always)]
pub fn step_range_1d<V: SimdF64>(src: &[f64], dst: &mut [f64], taps: &[f64], lo: usize, hi: usize) {
    let r = taps.len() / 2;
    let vl = V::LANES;
    assert!(r <= vl, "reorg executor requires r <= vector length");
    debug_assert!(lo >= r && hi + r <= src.len());
    // First aligned vector index >= lo, with room for an aligned prev.
    let astart = lo.next_multiple_of(vl).max(vl);
    let mut i = astart;
    let mut tapv = [V::zero(); 17];
    for (k, &w) in taps.iter().enumerate() {
        tapv[k] = V::splat(w);
    }
    // scalar head
    head_tail_scalar(src, dst, taps, lo, astart.min(hi));
    while i + vl <= hi && i + 2 * vl <= src.len() {
        // SAFETY: aligned full-vector loads within bounds (prev at i-vl
        // exists because i >= vl; next at i+vl checked above).
        let (prev, cur, next) = unsafe {
            (
                V::load(src.as_ptr().add(i - vl)),
                V::load(src.as_ptr().add(i)),
                V::load(src.as_ptr().add(i + vl)),
            )
        };
        let mut acc = cur.mul(tapv[r]);
        for k in 1..=r {
            let left = offset_vec(prev, cur, next, -(k as isize));
            let right = offset_vec(prev, cur, next, k as isize);
            acc = left.mul_add(tapv[r - k], acc);
            acc = right.mul_add(tapv[r + k], acc);
        }
        // SAFETY: i+vl <= hi
        unsafe { acc.store(dst.as_mut_ptr().add(i)) };
        i += vl;
    }
    // scalar tail
    head_tail_scalar(src, dst, taps, i.max(lo), hi);
}

fn head_tail_scalar(src: &[f64], dst: &mut [f64], taps: &[f64], lo: usize, hi: usize) {
    let r = taps.len() / 2;
    for j in lo..hi {
        let mut acc = 0.0;
        for (k, &w) in taps.iter().enumerate() {
            acc += w * src[j + k - r];
        }
        dst[j] = acc;
    }
}

/// Full 1D step with Dirichlet boundaries.
#[inline(always)]
pub fn step_1d<V: SimdF64>(src: &[f64], dst: &mut [f64], taps: &[f64]) {
    let n = src.len();
    let r = taps.len() / 2;
    if crate::exec::all_band(&[n], r) {
        // no interior: the step is the identity
        return dst.copy_from_slice(src);
    }
    dst[..r].copy_from_slice(&src[..r]);
    dst[n - r..].copy_from_slice(&src[n - r..]);
    step_range_1d::<V>(src, dst, taps, r, n - r);
}

/// Run `t` steps on a 1D ping-pong pair.
#[inline(always)]
pub fn sweep_1d<V: SimdF64>(pp: &mut PingPong<Grid1D>, p: &Pattern, t: usize) {
    for _ in 0..t {
        let (src, dst) = pp.src_dst();
        step_1d::<V>(src.as_slice(), dst.as_mut_slice(), p.weights());
        pp.swap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::scalar;
    use crate::kernels;
    use stencil_grid::max_abs_diff;
    use stencil_simd::portable::PF64x4;
    use stencil_simd::{NativeF64x4, NativeF64x8};

    #[test]
    fn offset_vec_all_offsets() {
        let mk = |b: usize| {
            let mut v = PF64x4::zero();
            for k in 0..4 {
                v = v.insert(k, (b + k) as f64);
            }
            v
        };
        let (prev, cur, next) = (mk(0), mk(4), mk(8));
        for off in -4isize..=4 {
            let v = offset_vec(prev, cur, next, off);
            for k in 0..4 {
                assert_eq!(v.extract(k), (4 + k) as f64 + off as f64, "off={off}");
            }
        }
    }

    #[test]
    fn matches_scalar_1d() {
        for p in [kernels::heat1d(), kernels::d1p5()] {
            for n in [33usize, 64, 100, 257] {
                let g = Grid1D::from_fn(n, |i| ((i * 97) % 31) as f64 * 0.25);
                let mut a = PingPong::new(g.clone());
                scalar::sweep_1d(&mut a, &p, 5);
                let mut b = PingPong::new(g.clone());
                sweep_1d::<NativeF64x4>(&mut b, &p, 5);
                assert!(
                    max_abs_diff(a.current().as_slice(), b.current().as_slice()) < 1e-12,
                    "x4 n={n}"
                );
                let mut c = PingPong::new(g);
                sweep_1d::<NativeF64x8>(&mut c, &p, 5);
                assert!(
                    max_abs_diff(a.current().as_slice(), c.current().as_slice()) < 1e-12,
                    "x8 n={n}"
                );
            }
        }
    }

    #[test]
    fn small_grid_falls_back_to_scalar() {
        // hi - lo smaller than a vector: everything goes the scalar path
        let p = kernels::heat1d();
        let g = Grid1D::from_fn(6, |i| i as f64);
        let mut a = PingPong::new(g.clone());
        scalar::sweep_1d(&mut a, &p, 2);
        let mut b = PingPong::new(g);
        sweep_1d::<NativeF64x4>(&mut b, &p, 2);
        assert_eq!(a.current().as_slice(), b.current().as_slice());
    }
}
