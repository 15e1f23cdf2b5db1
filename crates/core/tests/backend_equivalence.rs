//! Every range kernel a plan routes to computes the same bits on the
//! intrinsic backend [`dispatch`] picks as on the portable one: AVX2
//! `F64x4` against `PF64x4`, AVX-512 `F64x8` against `PF64x8`. Both run
//! the same fused `mul_add` chain per cell, so a mismatch names a kernel
//! whose chain differs by backend. Where the CPU lacks a backend,
//! dispatch picks the portable type too; the test says so on stderr.

use stencil_core::exec::folded::{self, FoldedKernel};
use stencil_core::exec::folded3d::{self, Ring3};
use stencil_core::exec::{multiload, xlayout};
use stencil_core::folding::fold;
use stencil_core::{kernels, Pattern};
use stencil_grid::{Grid1D, Grid2D, Grid3D, PingPong};
use stencil_simd::portable::{PF64x4, PF64x8};
use stencil_simd::{dispatch, Isa, SimdF64, WithSimd};

const STEPS: usize = 3;

/// The range kernels of the three dimensionalities.
#[derive(Clone, Copy, Debug)]
enum Kernel {
    /// `multiload::step_range_{1d,2d,3d}`
    Multiload,
    /// `folded::step_squares_range_1d`
    Squares,
    /// `xlayout::sweep_1d` (layout, `step_x`, layout back)
    Layout,
    /// `folded::step_range_2d` and `folded3d::step_range_3d_ring`
    Pane,
}

/// A grid of one dimensionality.
#[derive(Clone)]
enum Grid {
    D1(Grid1D),
    D2(Grid2D),
    D3(Grid3D),
}

/// [`STEPS`] steps of `kernel` with `p` folded `m` times over the
/// interior of `grid`; the result's bits.
#[derive(Clone)]
struct Case {
    kernel: Kernel,
    p: Pattern,
    m: usize,
    grid: Grid,
}

impl WithSimd for Case {
    type Output = Vec<u64>;

    fn run<V: SimdF64>(self) -> Vec<u64> {
        let Case { kernel, p, m, grid } = self;
        let q = fold(&p, m);
        let r = q.radius();
        let dense = match grid {
            Grid::D1(g) => {
                let n = g.len();
                let mut pp = PingPong::from_pair(g.clone(), g);
                if let Kernel::Layout = kernel {
                    xlayout::sweep_1d::<V>(&mut pp, &p, &q, m, STEPS * m);
                } else {
                    for _ in 0..STEPS {
                        let (s, d) = pp.src_dst();
                        let (s, d, taps) = (s.as_slice(), d.as_mut_slice(), q.weights());
                        match kernel {
                            Kernel::Multiload => {
                                multiload::step_range_1d::<V>(s, d, taps, r, n - r)
                            }
                            _ => folded::step_squares_range_1d::<V>(s, d, taps, r, n - r),
                        }
                        pp.swap();
                    }
                }
                pp.current().as_slice().to_vec()
            }
            Grid::D2(g) => {
                let (ny, nx) = (g.ny(), g.nx());
                let k = FoldedKernel::new(&p, m);
                let mut pp = PingPong::from_pair(g.clone(), g);
                for _ in 0..STEPS {
                    let (s, d) = pp.src_dst();
                    let (ys, xs) = (r..ny - r, r..nx - r);
                    match kernel {
                        Kernel::Multiload => multiload::step_range_2d::<V>(s, d, &q, ys, xs),
                        _ => folded::step_range_2d::<V>(&k, s, d, ys, xs),
                    }
                    pp.swap();
                }
                pp.current().to_dense()
            }
            Grid::D3(g) => {
                let (nz, ny, nx) = (g.nz(), g.ny(), g.nx());
                let k = FoldedKernel::new(&p, m);
                let ring = Ring3::auto(V::LANES, r);
                let mut pp = PingPong::from_pair(g.clone(), g);
                for _ in 0..STEPS {
                    let (s, d) = pp.src_dst();
                    let (zs, ys, xs) = (r..nz - r, r..ny - r, r..nx - r);
                    match kernel {
                        Kernel::Multiload => multiload::step_range_3d::<V>(s, d, &q, zs, ys, xs),
                        _ => folded3d::step_range_3d_ring::<V>(&k, ring, s, d, zs, ys, xs),
                    }
                    pp.swap();
                }
                pp.current().to_dense()
            }
        };
        dense.into_iter().map(f64::to_bits).collect()
    }
}

/// A deterministic, irregular field value at a flat index.
fn field(i: usize) -> f64 {
    ((i * 7919 % 1009) as f64 - 504.0) / 97.0
}

fn cases() -> Vec<Case> {
    use Kernel::*;
    let g1 = Grid::D1(Grid1D::from_fn(613, field));
    let g2 = Grid::D2(Grid2D::from_fn(37, 45, |y, x| field(y * 45 + x)));
    let g3 = Grid::D3(Grid3D::from_fn(19, 21, 23, |z, y, x| {
        field((z * 21 + y) * 23 + x)
    }));
    let dims = [
        (
            g1,
            vec![kernels::heat1d(), kernels::d1p5()],
            &[Multiload, Squares, Layout][..],
        ),
        (
            g2,
            vec![kernels::heat2d(), kernels::box2d9p(), kernels::gb()],
            &[Multiload, Pane],
        ),
        (
            g3,
            vec![kernels::heat3d(), kernels::box3d27p()],
            &[Multiload, Pane],
        ),
    ];
    let mut cases = Vec::new();
    for (grid, patterns, kernels) in dims {
        for p in &patterns {
            for &kernel in kernels {
                for m in [1, 2] {
                    let (p, grid) = (p.clone(), grid.clone());
                    cases.push(Case { kernel, p, m, grid });
                }
            }
        }
    }
    cases
}

#[test]
fn every_range_kernel_computes_the_portable_bits_on_the_dispatched_backend() {
    let isa = Isa::detected();
    for lanes in [4, 8] {
        if isa.backend(lanes) == "portable" {
            eprintln!("CPU has no intrinsic {lanes}-lane backend: comparing portable with itself");
        }
        for case in cases() {
            let what = format!(
                "{:?} m={} r={} at {lanes} lanes",
                case.kernel,
                case.m,
                case.p.radius()
            );
            let portable = match lanes {
                4 => case.clone().run::<PF64x4>(),
                _ => case.clone().run::<PF64x8>(),
            };
            assert!(portable.len() > 1, "{what}");
            let dispatched = dispatch(lanes, case);
            assert!(
                portable == dispatched,
                "{what}: {} backend differs",
                isa.backend(lanes)
            );
        }
    }
}

/// One register kernel's narrow ranges at the dispatched width: every
/// `ys` or `xs` range of 1..vl cells, at the band and mid-axis, against
/// the same cells of one call over the whole interior (ragged: `2 vl + 3`
/// cells an axis, three planes in 3D). Returns the ranges whose result —
/// the range's cells and, untouched, every other — differs.
struct Narrow {
    p: Pattern,
    m: usize,
}

impl WithSimd for Narrow {
    type Output = Vec<String>;

    fn run<V: SimdF64>(self) -> Vec<String> {
        let vl = V::LANES;
        let k = FoldedKernel::new(&self.p, self.m);
        let (r, n) = (k.radius(), 2 * vl + 3);
        let (whole, zs, side) = (r..r + n, r..r + 3, n + 2 * r);
        let mut ranges = Vec::new();
        for w in 1..vl {
            for lo in [r, r + n / 2] {
                ranges.push((lo..lo + w, whole.clone()));
                ranges.push((whole.clone(), lo..lo + w));
            }
        }
        let mut bad = Vec::new();
        if self.p.dims() == 2 {
            let g = Grid2D::from_fn(side, side, |y, x| field(y * side + x));
            let step = |ys, xs| {
                let mut d = g.clone();
                folded::step_range_2d::<V>(&k, &g, &mut d, ys, xs);
                d
            };
            let wide = step(whole.clone(), whole.clone());
            for (ys, xs) in ranges {
                let mut want = g.clone();
                for y in ys.clone() {
                    want.row_mut(y)[xs.clone()].copy_from_slice(&wide.row(y)[xs.clone()]);
                }
                if bits(&step(ys.clone(), xs.clone()).to_dense()) != bits(&want.to_dense()) {
                    bad.push(format!("ys={ys:?} xs={xs:?}"));
                }
            }
        } else {
            let g = Grid3D::from_fn(3 + 2 * r, side, side, |z, y, x| {
                field((z * side + y) * side + x)
            });
            let ring = Ring3::auto(vl, r);
            let step = |ys, xs| {
                let mut d = g.clone();
                folded3d::step_range_3d_ring::<V>(&k, ring, &g, &mut d, zs.clone(), ys, xs);
                d
            };
            let wide = step(whole.clone(), whole.clone());
            for (ys, xs) in ranges {
                let mut want = g.clone();
                for (z, y) in zs.clone().flat_map(|z| ys.clone().map(move |y| (z, y))) {
                    want.row_mut(z, y)[xs.clone()].copy_from_slice(&wide.row(z, y)[xs.clone()]);
                }
                if bits(&step(ys.clone(), xs.clone()).to_dense()) != bits(&want.to_dense()) {
                    bad.push(format!("ys={ys:?} xs={xs:?}"));
                }
            }
        }
        bad
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn a_narrow_range_computes_the_bits_of_a_wide_call() {
    // a range narrower than one vector in y or x is staged through the
    // same pane, so its cells carry the wide call's bits: separable
    // (boxes) and generic (star, general box) schedules, 2D and 3D, at
    // the 4- and 8-lane backends dispatch picks
    let patterns = [
        kernels::box2d9p(),
        kernels::gb(),
        kernels::box3d27p(),
        kernels::heat3d(),
    ];
    for lanes in [4, 8] {
        for p in &patterns {
            for m in [1, 2] {
                let bad = dispatch(lanes, Narrow { p: p.clone(), m });
                assert!(
                    bad.is_empty(),
                    "{} points, m={m}, {lanes} lanes: {bad:?}",
                    p.points()
                );
            }
        }
    }
}
