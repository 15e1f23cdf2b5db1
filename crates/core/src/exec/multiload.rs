//! Multiple-loads executor: one (mostly unaligned) vector load per tap.
//!
//! This is the paper's first auto-vectorization-class baseline: no data
//! reorganization at all, at the price of `2r+1` overlapping loads per
//! output vector — redundant cache traffic that makes it the slowest
//! scheme in Fig. 8.
//!
//! Every cell is one chain over its nonzero taps, in tap order, fused
//! (`mul_add`), whether a vector lane or the scalar remainder computes
//! it: any partition of a region into range calls gives the same bits.

// Indexed tap/window loops keep the offset arithmetic explicit and unrolled.
#![allow(clippy::needless_range_loop)]

use crate::exec::{dispatch_taps, tap_count};
use crate::pattern::Pattern;
use stencil_grid::{Grid2D, Grid3D};
use stencil_simd::SimdF64;

/// One Jacobi step on `dst[lo..hi]`, vectorized with unaligned loads.
/// Dispatches on the tap count so the hot loop fully unrolls.
pub fn step_range_1d<V: SimdF64>(src: &[f64], dst: &mut [f64], taps: &[f64], lo: usize, hi: usize) {
    dispatch_taps!(step_range_1d_t, V, taps, (src, dst, taps, lo, hi));
}

fn step_range_1d_t<V: SimdF64, const T: usize>(
    src: &[f64],
    dst: &mut [f64],
    taps: &[f64],
    lo: usize,
    hi: usize,
) {
    let nt = tap_count::<T>(taps);
    let r = nt / 2;
    debug_assert!(lo >= r && hi + r <= src.len());
    let vl = V::LANES;
    let mut tapv = [V::zero(); 17];
    for k in 0..nt {
        tapv[k] = V::splat(taps[k]);
    }
    let mut i = lo;
    while i + vl <= hi {
        // SAFETY: i+k-r+vl <= hi+r <= src.len()
        let mut acc = unsafe { V::load(src.as_ptr().add(i - r)) }.mul(tapv[0]);
        for k in 1..nt {
            let v = unsafe { V::load(src.as_ptr().add(i + k - r)) };
            acc = v.mul_add(tapv[k], acc);
        }
        // SAFETY: i+vl <= hi <= dst.len()
        unsafe { acc.store(dst.as_mut_ptr().add(i)) };
        i += vl;
    }
    // the remainder: one lane of the same chain, so no range edge shows
    for j in i..hi {
        let mut acc = taps[0] * src[j - r];
        for k in 1..nt {
            acc = src[j + k - r].mul_add(taps[k], acc);
        }
        dst[j] = acc;
    }
}

/// One 2D Jacobi step on rectangle `ys x xs`, row-vectorized.
pub fn step_range_2d<V: SimdF64>(
    src: &Grid2D,
    dst: &mut Grid2D,
    p: &Pattern,
    ys: core::ops::Range<usize>,
    xs: core::ops::Range<usize>,
) {
    let r = p.radius();
    let side = p.side();
    let w = p.weights();
    let stride = src.stride();
    let s = src.as_slice();
    let vl = V::LANES;
    let (xlo, xhi) = (xs.start, xs.end);
    // nonzero taps with hoisted broadcasts: (dy, dx, splat(w))
    let taps_nz: Vec<(usize, usize, V)> = (0..side * side)
        .filter(|i| w[*i] != 0.0)
        .map(|i| (i / side, i % side, V::splat(w[i])))
        .collect();
    for y in ys {
        let dbase = y * stride;
        let dstm = dst.as_mut_slice();
        let mut x = xlo;
        while x + vl <= xhi {
            let mut acc = V::zero();
            for &(dy, dx, wv) in &taps_nz {
                let base = (y + dy - r) * stride + x - r;
                // SAFETY: rectangle stays r away from boundaries.
                let v = unsafe { V::load(s.as_ptr().add(base + dx)) };
                acc = v.mul_add(wv, acc);
            }
            // SAFETY: x+vl <= xhi <= nx-r
            unsafe { acc.store(dstm.as_mut_ptr().add(dbase + x)) };
            x += vl;
        }
        // the remainder: one lane of the same chain
        for xx in x..xhi {
            let mut acc = 0.0f64;
            for &(dy, dx, _) in &taps_nz {
                let v = s[(y + dy - r) * stride + xx + dx - r];
                acc = v.mul_add(w[dy * side + dx], acc);
            }
            dstm[dbase + xx] = acc;
        }
    }
}

/// One 3D Jacobi step on cuboid `zs x ys x xs`, row-vectorized.
pub fn step_range_3d<V: SimdF64>(
    src: &Grid3D,
    dst: &mut Grid3D,
    p: &Pattern,
    zs: core::ops::Range<usize>,
    ys: core::ops::Range<usize>,
    xs: core::ops::Range<usize>,
) {
    let r = p.radius();
    let side = p.side();
    let w = p.weights();
    let (sy, sz) = (src.stride_y(), src.stride_z());
    let s = src.as_slice();
    let vl = V::LANES;
    let (xlo, xhi) = (xs.start, xs.end);
    // nonzero taps with hoisted broadcasts: (dz, dy, dx, splat(w))
    let taps_nz: Vec<(usize, usize, usize, V)> = (0..side * side * side)
        .filter(|i| w[*i] != 0.0)
        .map(|i| (i / (side * side), i / side % side, i % side, V::splat(w[i])))
        .collect();
    for z in zs {
        for y in ys.clone() {
            let dbase = z * sz + y * sy;
            let dstm = dst.as_mut_slice();
            let mut x = xlo;
            while x + vl <= xhi {
                let mut acc = V::zero();
                for &(dz, dy, dx, wv) in &taps_nz {
                    let base = (z + dz - r) * sz + (y + dy - r) * sy + x - r;
                    // SAFETY: cuboid stays r away from boundaries.
                    let v = unsafe { V::load(s.as_ptr().add(base + dx)) };
                    acc = v.mul_add(wv, acc);
                }
                // SAFETY: x+vl <= xhi
                unsafe { acc.store(dstm.as_mut_ptr().add(dbase + x)) };
                x += vl;
            }
            // the remainder: one lane of the same chain
            for xx in x..xhi {
                let mut acc = 0.0f64;
                for &(dz, dy, dx, _) in &taps_nz {
                    let v = s[(z + dz - r) * sz + (y + dy - r) * sy + xx + dx - r];
                    acc = v.mul_add(w[(dz * side + dy) * side + dx], acc);
                }
                dstm[dbase + xx] = acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::scalar;
    use crate::kernels;
    use stencil_grid::{max_abs_diff, Grid1D, PingPong};
    use stencil_simd::{NativeF64x4, NativeF64x8};

    fn random_grid1(n: usize) -> Grid1D {
        Grid1D::from_fn(n, |i| ((i * 2654435761) % 1000) as f64 / 1000.0)
    }

    /// `t` range-kernel steps over the interior of a pair seeded with `g`.
    fn sweep_1d<V: SimdF64>(g: &Grid1D, p: &Pattern, t: usize) -> Grid1D {
        let (n, r) = (g.len(), p.radius());
        let mut pp = PingPong::new(g.clone());
        for _ in 0..t {
            let (src, dst) = pp.src_dst();
            step_range_1d::<V>(src.as_slice(), dst.as_mut_slice(), p.weights(), r, n - r);
            pp.swap();
        }
        pp.into_current()
    }

    fn scalar_1d(g: &Grid1D, p: &Pattern, t: usize) -> Grid1D {
        let mut pp = PingPong::new(g.clone());
        scalar::sweep_1d(&mut pp, p, t);
        pp.into_current()
    }

    #[test]
    fn matches_scalar_1d() {
        for p in [kernels::heat1d(), kernels::d1p5()] {
            for n in [37usize, 64, 129] {
                let g = random_grid1(n);
                let a = scalar_1d(&g, &p, 4);
                let b = sweep_1d::<NativeF64x4>(&g, &p, 4);
                let c = sweep_1d::<NativeF64x8>(&g, &p, 4);
                assert!(max_abs_diff(a.as_slice(), b.as_slice()) < 1e-12, "x4 n={n}");
                assert!(max_abs_diff(a.as_slice(), c.as_slice()) < 1e-12, "x8 n={n}");
            }
        }
    }

    #[test]
    fn matches_scalar_2d() {
        for p in [kernels::heat2d(), kernels::box2d9p(), kernels::gb()] {
            let g = Grid2D::from_fn(21, 19, |y, x| ((y * 31 + x * 7) % 17) as f64);
            let (ny, nx, r) = (g.ny(), g.nx(), p.radius());
            let mut a = PingPong::new(g.clone());
            scalar::sweep_2d(&mut a, &p, 3);
            let mut b = PingPong::new(g);
            for _ in 0..3 {
                let (src, dst) = b.src_dst();
                step_range_2d::<NativeF64x4>(src, dst, &p, r..ny - r, r..nx - r);
                b.swap();
            }
            assert!(max_abs_diff(&a.current().to_dense(), &b.current().to_dense()) < 1e-12);
        }
    }

    #[test]
    fn matches_scalar_3d() {
        for p in [kernels::heat3d(), kernels::box3d27p()] {
            let g = Grid3D::from_fn(9, 11, 13, |z, y, x| ((z * 5 + y * 3 + x) % 7) as f64);
            let (nz, ny, nx, r) = (g.nz(), g.ny(), g.nx(), p.radius());
            let mut a = PingPong::new(g.clone());
            scalar::sweep_3d(&mut a, &p, 2);
            let mut b = PingPong::new(g);
            for _ in 0..2 {
                let (src, dst) = b.src_dst();
                step_range_3d::<NativeF64x8>(src, dst, &p, r..nz - r, r..ny - r, r..nx - r);
                b.swap();
            }
            assert!(max_abs_diff(&a.current().to_dense(), &b.current().to_dense()) < 1e-12);
        }
    }

    #[test]
    fn scalar_lane_executor_matches_scalar_module() {
        // V = f64 (LANES = 1) must agree exactly: the heat taps are
        // powers of two, so every product is exact, fused or not.
        let p = kernels::heat1d();
        let g = random_grid1(40);
        let a = scalar_1d(&g, &p, 5);
        let b = sweep_1d::<f64>(&g, &p, 5);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn a_range_split_off_the_lane_count_gives_the_same_bits() {
        // the cut lands mid-vector, so cells move between the vector body
        // and the remainder: one chain computes them either way
        let g = Grid1D::from_fn(203, |i| ((i * 37) % 101) as f64 * 0.013 - 0.5);
        let p1 = Pattern::new_1d(&[0.1, 0.7, 0.2]);
        for p in [p1, kernels::d1p5()] {
            let (n, r) = (g.len(), p.radius());
            let mut whole = g.clone();
            step_range_1d::<NativeF64x4>(g.as_slice(), whole.as_mut_slice(), p.weights(), r, n - r);
            let mut split = g.clone();
            for (lo, hi) in [(r, 103), (103, n - r)] {
                step_range_1d::<NativeF64x4>(
                    g.as_slice(),
                    split.as_mut_slice(),
                    p.weights(),
                    lo,
                    hi,
                );
            }
            assert!(
                whole.as_slice() == split.as_slice(),
                "1D pts={}",
                p.points()
            );
        }
        let g = Grid2D::from_fn(13, 31, |y, x| ((y * 29 + x * 7) % 97) as f64 * 0.021 - 1.0);
        let (ny, nx) = (g.ny(), g.nx());
        let mut whole = g.clone();
        step_range_2d::<NativeF64x4>(&g, &mut whole, &kernels::gb(), 1..ny - 1, 1..nx - 1);
        let mut split = g.clone();
        for xs in [1..14, 14..nx - 1] {
            step_range_2d::<NativeF64x4>(&g, &mut split, &kernels::gb(), 1..ny - 1, xs);
        }
        assert!(whole.to_dense() == split.to_dense(), "2D");
        let g = Grid3D::from_fn(5, 6, 23, |z, y, x| {
            ((z * 11 + y * 5 + x * 3) % 37) as f64 * 0.3
        });
        let (nz, ny, nx) = (g.nz(), g.ny(), g.nx());
        let p = kernels::heat3d();
        let mut whole = g.clone();
        step_range_3d::<NativeF64x4>(&g, &mut whole, &p, 1..nz - 1, 1..ny - 1, 1..nx - 1);
        let mut split = g.clone();
        for xs in [1..10, 10..nx - 1] {
            step_range_3d::<NativeF64x4>(&g, &mut split, &p, 1..nz - 1, 1..ny - 1, xs);
        }
        assert!(whole.to_dense() == split.to_dense(), "3D");
    }
}
