//! Scalar reference executors (1D/2D/3D, arbitrary linear pattern).
//!
//! Every other executor in this crate is validated against these sweeps;
//! they favour obviousness over speed.
//!
//! The sweeps take any grid: one with no interior on some axis (`n <=
//! 2r`) is all Dirichlet band and every step the identity, so they
//! advance the pair's step count and write nothing, as every other route
//! does. The `step_*` helpers keep `n >= 2r` as their contract.

use crate::exec::all_band;
use crate::pattern::Pattern;
use stencil_grid::{Grid1D, Grid2D, Grid3D, PingPong};

/// One Jacobi step on `dst[lo..hi]` of a 1D grid (taps = `2r+1` weights).
/// The caller guarantees `lo >= r` and `hi <= n - r`.
pub fn step_range_1d(src: &[f64], dst: &mut [f64], taps: &[f64], lo: usize, hi: usize) {
    let r = taps.len() / 2;
    debug_assert!(lo >= r && hi + r <= src.len());
    for i in lo..hi {
        let mut acc = 0.0;
        for (k, &w) in taps.iter().enumerate() {
            acc += w * src[i + k - r];
        }
        dst[i] = acc;
    }
}

/// One full Jacobi step with Dirichlet boundary copy.
pub fn step_1d(src: &[f64], dst: &mut [f64], taps: &[f64]) {
    let n = src.len();
    let r = taps.len() / 2;
    assert!(n >= 2 * r, "grid smaller than stencil support");
    dst[..r].copy_from_slice(&src[..r]);
    dst[n - r..].copy_from_slice(&src[n - r..]);
    step_range_1d(src, dst, taps, r, n - r);
}

/// Run `t` Jacobi steps on a ping-pong pair.
pub fn sweep_1d(pp: &mut PingPong<Grid1D>, p: &Pattern, t: usize) {
    assert_eq!(p.dims(), 1);
    if all_band(&[pp.current().len()], p.radius()) {
        return (0..t).for_each(|_| pp.swap());
    }
    for _ in 0..t {
        let (src, dst) = pp.src_dst();
        step_1d(src.as_slice(), dst.as_mut_slice(), p.weights());
        pp.swap();
    }
}

/// One Jacobi step on the rectangle `ys x xs` of a 2D grid.
/// Caller guarantees the rectangle stays `r` away from the boundary.
pub fn step_range_2d(
    src: &Grid2D,
    dst: &mut Grid2D,
    p: &Pattern,
    ys: core::ops::Range<usize>,
    xs: core::ops::Range<usize>,
) {
    debug_assert_eq!(p.dims(), 2);
    let r = p.radius();
    let side = p.side();
    let w = p.weights();
    let stride = src.stride();
    let s = src.as_slice();
    for y in ys {
        debug_assert!(y >= r && y + r < src.ny());
        let drow = dst.row_mut(y);
        for x in xs.clone() {
            debug_assert!(x >= r && x + r < stride);
            let mut acc = 0.0;
            for dy in 0..side {
                let base = (y + dy - r) * stride + x - r;
                let wrow = &w[dy * side..(dy + 1) * side];
                for (dx, &wv) in wrow.iter().enumerate() {
                    acc += wv * s[base + dx];
                }
            }
            drow[x] = acc;
        }
    }
}

/// One full 2D Jacobi step with Dirichlet boundary copy.
pub fn step_2d(src: &Grid2D, dst: &mut Grid2D, p: &Pattern) {
    let (ny, nx, r) = (src.ny(), src.nx(), p.radius());
    assert!(ny >= 2 * r && nx >= 2 * r);
    // boundary rows/cols keep previous values
    for y in 0..ny {
        if y < r || y >= ny - r {
            dst.row_mut(y).copy_from_slice(src.row(y));
        } else {
            let srow = src.row(y);
            let drow = dst.row_mut(y);
            drow[..r].copy_from_slice(&srow[..r]);
            drow[nx - r..].copy_from_slice(&srow[nx - r..]);
        }
    }
    step_range_2d(src, dst, p, r..ny - r, r..nx - r);
}

/// Run `t` Jacobi steps on a 2D ping-pong pair.
pub fn sweep_2d(pp: &mut PingPong<Grid2D>, p: &Pattern, t: usize) {
    if all_band(&[pp.current().ny(), pp.current().nx()], p.radius()) {
        return (0..t).for_each(|_| pp.swap());
    }
    for _ in 0..t {
        let (src, dst) = pp.src_dst();
        step_2d(src, dst, p);
        pp.swap();
    }
}

/// One Jacobi step on the cuboid `zs x ys x xs` of a 3D grid.
pub fn step_range_3d(
    src: &Grid3D,
    dst: &mut Grid3D,
    p: &Pattern,
    zs: core::ops::Range<usize>,
    ys: core::ops::Range<usize>,
    xs: core::ops::Range<usize>,
) {
    debug_assert_eq!(p.dims(), 3);
    let r = p.radius();
    let side = p.side();
    let w = p.weights();
    let (sy, sz) = (src.stride_y(), src.stride_z());
    let s = src.as_slice();
    for z in zs {
        for y in ys.clone() {
            let drow = dst.row_mut(z, y);
            for x in xs.clone() {
                let mut acc = 0.0;
                for dz in 0..side {
                    for dy in 0..side {
                        let base = (z + dz - r) * sz + (y + dy - r) * sy + x - r;
                        let wrow = &w[(dz * side + dy) * side..(dz * side + dy + 1) * side];
                        for (dx, &wv) in wrow.iter().enumerate() {
                            acc += wv * s[base + dx];
                        }
                    }
                }
                drow[x] = acc;
            }
        }
    }
}

/// One full 3D Jacobi step with Dirichlet boundary copy.
pub fn step_3d(src: &Grid3D, dst: &mut Grid3D, p: &Pattern) {
    let (nz, ny, nx, r) = (src.nz(), src.ny(), src.nx(), p.radius());
    assert!(nz >= 2 * r && ny >= 2 * r && nx >= 2 * r);
    dst.copy_band_from(src, r);
    step_range_3d(src, dst, p, r..nz - r, r..ny - r, r..nx - r);
}

/// Run `t` Jacobi steps on a 3D ping-pong pair.
pub fn sweep_3d(pp: &mut PingPong<Grid3D>, p: &Pattern, t: usize) {
    let g = pp.current();
    if all_band(&[g.nz(), g.ny(), g.nx()], p.radius()) {
        return (0..t).for_each(|_| pp.swap());
    }
    for _ in 0..t {
        let (src, dst) = pp.src_dst();
        step_3d(src, dst, p);
        pp.swap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::folding::fold;
    use crate::kernels;

    #[test]
    fn heat1d_conserves_mass_interior() {
        let p = kernels::heat1d();
        let n = 65; // odd: cell n/2 is the exact mirror center
        let g = Grid1D::from_fn(n, |i| if i == n / 2 { 1.0 } else { 0.0 });
        let mut pp = PingPong::new(g);
        sweep_1d(&mut pp, &p, 10);
        let total: f64 = pp.current().as_slice().iter().sum();
        assert!((total - 1.0).abs() < 1e-12, "diffusion conserves mass");
        // symmetric initial condition stays symmetric
        let s = pp.current().as_slice();
        for i in 0..n {
            assert!((s[i] - s[n - 1 - i]).abs() < 1e-12);
        }
    }

    #[test]
    fn folded_pattern_equals_two_steps_1d() {
        let p = kernels::heat1d();
        let f = fold(&p, 2);
        let n = 50;
        let g = Grid1D::from_fn(n, |i| (i as f64 * 0.3).sin());
        let mut a = PingPong::new(g.clone());
        sweep_1d(&mut a, &p, 2);
        let mut b = PingPong::new(g);
        sweep_1d(&mut b, &f, 1);
        // interiors match except within R of the boundary where the
        // folded stencil's wider Dirichlet band differs
        let (sa, sb) = (a.current().as_slice(), b.current().as_slice());
        for i in 2..n - 2 {
            assert!((sa[i] - sb[i]).abs() < 1e-12, "i={i}");
        }
    }

    #[test]
    fn boundary_is_dirichlet_2d() {
        let p = kernels::box2d9p();
        let g = Grid2D::from_fn(8, 8, |y, x| (y * 8 + x) as f64);
        let mut pp = PingPong::new(g.clone());
        sweep_2d(&mut pp, &p, 3);
        let cur = pp.current();
        for x in 0..8 {
            assert_eq!(cur[(0, x)], g[(0, x)]);
            assert_eq!(cur[(7, x)], g[(7, x)]);
            assert_eq!(cur[(x, 0)], g[(x, 0)]);
            assert_eq!(cur[(x, 7)], g[(x, 7)]);
        }
    }

    #[test]
    fn folded_pattern_equals_two_steps_2d() {
        let p = kernels::heat2d();
        let f = fold(&p, 2);
        let g = Grid2D::from_fn(16, 16, |y, x| ((y * 31 + x * 17) % 13) as f64);
        let mut a = PingPong::new(g.clone());
        sweep_2d(&mut a, &p, 2);
        let mut b = PingPong::new(g);
        sweep_2d(&mut b, &f, 1);
        for y in 2..14 {
            for x in 2..14 {
                assert!(
                    (a.current()[(y, x)] - b.current()[(y, x)]).abs() < 1e-12,
                    "({y},{x})"
                );
            }
        }
    }

    #[test]
    fn folded_pattern_equals_two_steps_3d() {
        let p = kernels::heat3d();
        let f = fold(&p, 2);
        let g = Grid3D::from_fn(10, 10, 10, |z, y, x| ((z * 7 + y * 5 + x * 3) % 11) as f64);
        let mut a = PingPong::new(g.clone());
        sweep_3d(&mut a, &p, 2);
        let mut b = PingPong::new(g);
        sweep_3d(&mut b, &f, 1);
        for z in 2..8 {
            for y in 2..8 {
                for x in 2..8 {
                    assert!(
                        (a.current()[(z, y, x)] - b.current()[(z, y, x)]).abs() < 1e-12,
                        "({z},{y},{x})"
                    );
                }
            }
        }
    }

    #[test]
    fn gb_asymmetric_3x3_hand_check() {
        let p = kernels::gb();
        let g = Grid2D::from_fn(3, 3, |y, x| (1 + y * 3 + x) as f64);
        let mut pp = PingPong::new(g);
        sweep_2d(&mut pp, &p, 1);
        // hand-computed weighted sum at the center
        let w = p.weights();
        let expect: f64 = w.iter().zip(1..=9).map(|(wv, v)| wv * v as f64).sum();
        assert!((pp.current()[(1, 1)] - expect).abs() < 1e-12);
    }
}
