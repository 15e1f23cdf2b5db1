//! Multiple-loads executor: one (mostly unaligned) vector load per tap.
//!
//! This is the paper's first auto-vectorization-class baseline: no data
//! reorganization at all, at the price of `2r+1` overlapping loads per
//! output vector — redundant cache traffic that makes it the slowest
//! scheme in Fig. 8.

// Indexed tap/window loops keep the offset arithmetic explicit and unrolled.
#![allow(clippy::needless_range_loop)]

use crate::exec::{all_band, dispatch_taps, tap_count};
use crate::pattern::Pattern;
use stencil_grid::{Grid1D, Grid2D, Grid3D, PingPong};
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
    // scalar tail
    for j in i..hi {
        let mut acc = 0.0;
        for (k, &w) in taps.iter().enumerate() {
            acc += w * src[j + k - r];
        }
        dst[j] = acc;
    }
}

/// Full 1D step with Dirichlet boundaries (a grid with no interior is
/// copied whole: the step is the identity, as for every full step here).
pub fn step_1d<V: SimdF64>(src: &[f64], dst: &mut [f64], taps: &[f64]) {
    let n = src.len();
    let r = taps.len() / 2;
    if all_band(&[n], r) {
        return dst.copy_from_slice(src);
    }
    dst[..r].copy_from_slice(&src[..r]);
    dst[n - r..].copy_from_slice(&src[n - r..]);
    step_range_1d::<V>(src, dst, taps, r, n - r);
}

/// Run `t` steps on a 1D ping-pong pair.
pub fn sweep_1d<V: SimdF64>(pp: &mut PingPong<Grid1D>, p: &Pattern, t: usize) {
    for _ in 0..t {
        let (src, dst) = pp.src_dst();
        step_1d::<V>(src.as_slice(), dst.as_mut_slice(), p.weights());
        pp.swap();
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
        for xx in x..xhi {
            let mut acc = 0.0;
            for dy in 0..side {
                for dx in 0..side {
                    acc += w[dy * side + dx] * s[(y + dy - r) * stride + xx + dx - r];
                }
            }
            dstm[dbase + xx] = acc;
        }
    }
}

/// Full 2D step with Dirichlet boundaries.
pub fn step_2d<V: SimdF64>(src: &Grid2D, dst: &mut Grid2D, p: &Pattern) {
    let (ny, nx, r) = (src.ny(), src.nx(), p.radius());
    dst.copy_band_from(src, r);
    if !all_band(&[ny, nx], r) {
        step_range_2d::<V>(src, dst, p, r..ny - r, r..nx - r);
    }
}

/// Run `t` steps on a 2D ping-pong pair.
pub fn sweep_2d<V: SimdF64>(pp: &mut PingPong<Grid2D>, p: &Pattern, t: usize) {
    for _ in 0..t {
        let (src, dst) = pp.src_dst();
        step_2d::<V>(src, dst, p);
        pp.swap();
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
            for xx in x..xhi {
                let mut acc = 0.0;
                for dz in 0..side {
                    for dy in 0..side {
                        for dx in 0..side {
                            acc += w[(dz * side + dy) * side + dx]
                                * s[(z + dz - r) * sz + (y + dy - r) * sy + xx + dx - r];
                        }
                    }
                }
                dstm[dbase + xx] = acc;
            }
        }
    }
}

/// Full 3D step with Dirichlet boundaries.
pub fn step_3d<V: SimdF64>(src: &Grid3D, dst: &mut Grid3D, p: &Pattern) {
    let (nz, ny, nx, r) = (src.nz(), src.ny(), src.nx(), p.radius());
    dst.copy_band_from(src, r);
    if !all_band(&[nz, ny, nx], r) {
        step_range_3d::<V>(src, dst, p, r..nz - r, r..ny - r, r..nx - r);
    }
}

/// Run `t` steps on a 3D ping-pong pair.
pub fn sweep_3d<V: SimdF64>(pp: &mut PingPong<Grid3D>, p: &Pattern, t: usize) {
    for _ in 0..t {
        let (src, dst) = pp.src_dst();
        step_3d::<V>(src, dst, p);
        pp.swap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::scalar;
    use crate::kernels;
    use stencil_grid::max_abs_diff;
    use stencil_simd::{NativeF64x4, NativeF64x8};

    fn random_grid1(n: usize) -> Grid1D {
        Grid1D::from_fn(n, |i| ((i * 2654435761) % 1000) as f64 / 1000.0)
    }

    #[test]
    fn matches_scalar_1d() {
        for p in [kernels::heat1d(), kernels::d1p5()] {
            for n in [37usize, 64, 129] {
                let g = random_grid1(n);
                let mut a = PingPong::new(g.clone());
                scalar::sweep_1d(&mut a, &p, 4);
                let mut b = PingPong::new(g.clone());
                sweep_1d::<NativeF64x4>(&mut b, &p, 4);
                let mut c = PingPong::new(g);
                sweep_1d::<NativeF64x8>(&mut c, &p, 4);
                assert!(
                    max_abs_diff(a.current().as_slice(), b.current().as_slice()) < 1e-12,
                    "x4 n={n}"
                );
                assert!(
                    max_abs_diff(a.current().as_slice(), c.current().as_slice()) < 1e-12,
                    "x8 n={n}"
                );
            }
        }
    }

    #[test]
    fn matches_scalar_2d() {
        for p in [kernels::heat2d(), kernels::box2d9p(), kernels::gb()] {
            let g = Grid2D::from_fn(21, 19, |y, x| ((y * 31 + x * 7) % 17) as f64);
            let mut a = PingPong::new(g.clone());
            scalar::sweep_2d(&mut a, &p, 3);
            let mut b = PingPong::new(g);
            sweep_2d::<NativeF64x4>(&mut b, &p, 3);
            assert!(max_abs_diff(&a.current().to_dense(), &b.current().to_dense()) < 1e-12);
        }
    }

    #[test]
    fn matches_scalar_3d() {
        for p in [kernels::heat3d(), kernels::box3d27p()] {
            let g = Grid3D::from_fn(9, 11, 13, |z, y, x| ((z * 5 + y * 3 + x) % 7) as f64);
            let mut a = PingPong::new(g.clone());
            scalar::sweep_3d(&mut a, &p, 2);
            let mut b = PingPong::new(g);
            sweep_3d::<NativeF64x8>(&mut b, &p, 2);
            assert!(max_abs_diff(&a.current().to_dense(), &b.current().to_dense()) < 1e-12);
        }
    }

    #[test]
    fn scalar_lane_executor_matches_scalar_module() {
        // V = f64 (LANES = 1) must agree exactly, by construction.
        let p = kernels::heat1d();
        let g = random_grid1(40);
        let mut a = PingPong::new(g.clone());
        scalar::sweep_1d(&mut a, &p, 5);
        let mut b = PingPong::new(g);
        sweep_1d::<f64>(&mut b, &p, 5);
        assert_eq!(a.current().as_slice(), b.current().as_slice());
    }
}
