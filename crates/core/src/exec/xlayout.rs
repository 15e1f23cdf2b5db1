//! Transpose-layout executor — the paper's §2 contribution ("Our").
//!
//! Memory holds the 1D grid in the *local transpose layout*: every
//! aligned `vl*vl` block transposed in place (done once before the sweep,
//! undone once after). Inside a block, the `x +- k` neighbours of vector
//! `j` are simply vectors `j +- k` of the same set; only the `2r` vectors
//! crossing block boundaries need assembly — one blend + one circular
//! shift each ([`stencil_simd::assemble`]), versus per-tap shuffles for
//! data-reorganization and redundant loads for multiple-loads. Unlike
//! DLT, elements within a block stay contiguous (one or two cache lines),
//! so cache blocking still works.

// Indexed tap/window loops keep the offset arithmetic explicit and unrolled.
#![allow(clippy::needless_range_loop)]

use crate::pattern::Pattern;
use stencil_grid::layout::TransposeLayout;
use stencil_grid::{Grid1D, PingPong};
use stencil_simd::assemble::neighbor_vector;
use stencil_simd::SimdF64;

/// One Jacobi step over a buffer already in transpose layout.
///
/// Full interior blocks are processed as vector sets; the first and last
/// blocks and the non-covered tail fall back to scalar accesses through
/// the layout's index map. Requires `r <= V::LANES`.
#[inline(always)]
pub fn step_x<V: SimdF64>(src: &[f64], dst: &mut [f64], taps: &[f64]) {
    crate::exec::dispatch_taps!(step_x_t, V, taps, (src, dst, taps));
}

#[inline(always)]
fn step_x_t<V: SimdF64, const T: usize>(src: &[f64], dst: &mut [f64], taps: &[f64]) {
    let nt = crate::exec::tap_count::<T>(taps);
    let n = src.len();
    let vl = V::LANES;
    let r = nt / 2;
    assert!(r <= vl, "transpose layout requires r <= vl");
    let lay = TransposeLayout::new(vl);
    let block = lay.block();
    let nblocks = n / block;

    // hoist tap broadcasts out of the sweep
    let mut tapv = [V::zero(); 17];
    for k in 0..nt {
        tapv[k] = V::splat(taps[k]);
    }

    // Vectorized middle: blocks 1 .. nblocks-1 (each has both neighbours
    // fully inside the covered region).
    if nblocks >= 3 {
        let mut prev = load_set::<V>(src, 0);
        let mut cur = load_set::<V>(src, block);
        for b in 1..nblocks - 1 {
            let next = load_set::<V>(src, (b + 1) * block);
            let base = b * block;
            // Extended window: ext[i] holds the vector whose elements sit
            // at offset (i - r) from those of vector 0 — the 2r assembled
            // dependents are built once per set (paper §2.2), interior
            // entries are the set's own vectors.
            let mut ext = [V::zero(); 8 + 2 * 8];
            for k in 1..=r {
                ext[r - k] =
                    neighbor_vector(&cur[..vl], &prev[..vl], &next[..vl], 0, -(k as isize));
                ext[r + vl - 1 + k] =
                    neighbor_vector(&cur[..vl], &prev[..vl], &next[..vl], vl - 1, k as isize);
            }
            ext[r..r + vl].copy_from_slice(&cur[..vl]);
            for j in 0..vl {
                let mut acc = ext[j].mul(tapv[0]);
                for k in 1..nt {
                    acc = ext[j + k].mul_add(tapv[k], acc);
                }
                // SAFETY: base + (j+1)*vl <= (b+1)*block <= n
                unsafe { acc.store(dst.as_mut_ptr().add(base + j * vl)) };
            }
            prev = cur;
            cur = next;
        }
    }

    // Scalar edges: block 0, last block, tail, via the index map.
    let scalar_cell = |i: usize, dst: &mut [f64]| {
        if i < r || i >= n - r {
            dst[lay.index(i, n)] = src[lay.index(i, n)];
        } else {
            let mut acc = 0.0;
            for (k, &w) in taps.iter().enumerate() {
                acc += w * src[lay.index(i + k - r, n)];
            }
            dst[lay.index(i, n)] = acc;
        }
    };
    let first_edge_end = block.min(n);
    for i in 0..first_edge_end {
        scalar_cell(i, dst);
    }
    // the last block unless it is block 0, and the tail either way
    let last_edge = if nblocks >= 2 {
        (nblocks - 1) * block
    } else {
        first_edge_end
    };
    for i in last_edge..n {
        scalar_cell(i, dst);
    }
}

#[inline(always)]
fn load_set<V: SimdF64>(src: &[f64], base: usize) -> [V; 8] {
    let vl = V::LANES;
    let mut set = [V::zero(); 8];
    for (j, v) in set[..vl].iter_mut().enumerate() {
        // SAFETY: caller passes base of a full block.
        *v = unsafe { V::load(src.as_ptr().add(base + j * vl)) };
    }
    set
}

/// "Our" / "Our (m steps)" block-free sweep of a pair: the transpose
/// layout is applied in place on the current surface (once before and
/// once after the stencil computation — paper §2.2), `t / m` steps of
/// the folded pattern Λ = `folded` advance `m` levels each (temporal
/// computation folding; `folded` is `p` when `m = 1`, and a plan
/// computes it once for every run), the `t % m` leftovers run unfolded
/// with `p`, and the layout is undone on the surface holding the result.
/// [`step_x`] writes every cell, so the scratch surface may hold
/// anything.
#[inline(always)]
pub fn sweep_1d<V: SimdF64>(
    pp: &mut PingPong<Grid1D>,
    p: &Pattern,
    folded: &Pattern,
    m: usize,
    t: usize,
) {
    assert!(m >= 1);
    assert!(folded.radius() <= V::LANES, "folded radius exceeds vl");
    let lay = TransposeLayout::new(V::LANES);
    lay.apply::<V>(pp.both_mut().0.as_mut_slice());
    for _ in 0..t / m {
        let (src, dst) = pp.src_dst();
        step_x::<V>(src.as_slice(), dst.as_mut_slice(), folded.weights());
        pp.swap_folded(m);
    }
    for _ in 0..t % m {
        let (src, dst) = pp.src_dst();
        step_x::<V>(src.as_slice(), dst.as_mut_slice(), p.weights());
        pp.swap();
    }
    lay.apply::<V>(pp.both_mut().0.as_mut_slice());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::scalar;
    use crate::folding::fold;
    use crate::kernels;
    use stencil_grid::max_abs_diff;
    use stencil_simd::{NativeF64x4, NativeF64x8};

    /// [`sweep_1d`] on a fresh pair seeded with `g`.
    fn sweep<V: SimdF64>(g: &Grid1D, p: &Pattern, folded: &Pattern, m: usize, t: usize) -> Grid1D {
        let mut pp = PingPong::new(g.clone());
        sweep_1d::<V>(&mut pp, p, folded, m, t);
        pp.into_current()
    }

    fn scalar_ref(g: &Grid1D, p: &Pattern, t: usize) -> Grid1D {
        let mut a = PingPong::new(g.clone());
        scalar::sweep_1d(&mut a, p, t);
        a.into_current()
    }

    #[test]
    fn matches_scalar_1d() {
        for p in [kernels::heat1d(), kernels::d1p5()] {
            // 20 and 100: one whole block and a ragged tail at 4 and 8 lanes
            for n in [20usize, 48, 64, 100, 160, 203] {
                let g = Grid1D::from_fn(n, |i| ((i * 67) % 29) as f64 * 0.3);
                let want = scalar_ref(&g, &p, 5);
                let out4 = sweep::<NativeF64x4>(&g, &p, &p, 1, 5);
                assert!(
                    max_abs_diff(want.as_slice(), out4.as_slice()) < 1e-12,
                    "x4 n={n} pts={}",
                    p.points()
                );
                let out8 = sweep::<NativeF64x8>(&g, &p, &p, 1, 5);
                assert!(
                    max_abs_diff(want.as_slice(), out8.as_slice()) < 1e-12,
                    "x8 n={n}"
                );
            }
        }
    }

    #[test]
    fn folded_matches_interior_of_scalar() {
        // Folding widens the Dirichlet band from r to m*r, so compare the
        // interior beyond that band.
        let p = kernels::heat1d();
        let m = 2;
        let t = 8;
        let n = 128;
        let g = Grid1D::from_fn(n, |i| (i as f64 * 0.11).sin());
        let want = scalar_ref(&g, &p, t);
        let out = sweep::<NativeF64x4>(&g, &p, &fold(&p, m), m, t);
        let band = p.radius() * m * t; // generous: discrepancy zone growth
        for i in band..n - band {
            assert!((want[i] - out[i]).abs() < 1e-12, "i={i}");
        }
    }

    #[test]
    fn folded_equals_folded_scalar_everywhere() {
        // Exact equality (including boundary band) against a scalar sweep
        // of the folded pattern — same semantics, so identical results.
        let p = kernels::heat1d();
        let (m, t, n) = (2usize, 6usize, 96usize);
        let folded = fold(&p, m);
        let g = Grid1D::from_fn(n, |i| ((i * 13) % 7) as f64);
        let want = scalar_ref(&g, &folded, t / m);
        let out = sweep::<NativeF64x4>(&g, &p, &folded, m, t);
        assert!(max_abs_diff(want.as_slice(), out.as_slice()) < 1e-12);
    }

    #[test]
    fn odd_leftover_steps_run_unfolded() {
        let p = kernels::heat1d();
        let n = 64;
        let g = Grid1D::from_fn(n, |i| (i % 5) as f64);
        // t=5, m=2: two folded + one plain. Interior equals 5 scalar steps.
        let want = scalar_ref(&g, &p, 5);
        let out = sweep::<NativeF64x4>(&g, &p, &fold(&p, 2), 2, 5);
        for i in 12..n - 12 {
            assert!((want[i] - out[i]).abs() < 1e-12, "i={i}");
        }
    }

    #[test]
    fn r_equals_vl_is_supported() {
        // folded 1D5P with m=2 has radius 4 = AVX2 vl: the extreme case
        // where the assembled vector is an entire neighbouring-block
        // column.
        let p = kernels::d1p5();
        let folded = fold(&p, 2);
        assert_eq!(folded.radius(), 4);
        let n = 160;
        let g = Grid1D::from_fn(n, |i| ((i * 31) % 11) as f64);
        let want = scalar_ref(&g, &folded, 3);
        let out = sweep::<NativeF64x4>(&g, &p, &folded, 2, 6);
        assert!(max_abs_diff(want.as_slice(), out.as_slice()) < 1e-12);
    }
}
