//! Register-folded executor — the paper's §3.3 pipeline ("Our (m steps)"):
//! the planned kernel ([`FoldedKernel`]), the 1D squares kernel, and the
//! 2D entry points of the register pipeline.
//!
//! Memory stays in the original layout. In 2D and 3D each `vl x vl`
//! block of grid points is folded vertically, transposed in registers,
//! folded horizontally and transposed back by the one pane kernel of
//! [`crate::exec::folded3d`]; a 2D grid is its one-plane case, entered
//! through [`step_range_2d`].
//!
//! The 1D variant ([`step_squares_range_1d`]) degenerates to: transpose
//! square, horizontal fold with assembled block-edge vectors, transpose
//! back — matching the paper's "view 4N points as a 4 x N grid".

#![allow(clippy::needless_range_loop)]
// indexed loops here are offset
// windows (ext[j + k]) where iterator rewrites obscure the paper's
// notation and codegen alike

use crate::exec::folded3d::{self, step_ring_r, Ring3, Sched, View};
use crate::pattern::Pattern;
use crate::plan::FoldPlan;
use stencil_grid::Grid2D;
use stencil_simd::SimdF64;

/// Upper bound on folded radius supported by the fixed-size register
/// windows (1D/2D). 3D is bounded by [`MAX_R3`].
pub const MAX_R: usize = 8;
/// Folded-radius bound for the 3D z-ring pipeline
/// ([`crate::exec::folded3d`]). Deep enough that `Folded { m: 2 }` stays
/// available for radius-2 3D stencils; the per-width register budget is
/// enforced at compile time by `fold_radius_cap`, not here.
pub const MAX_R3: usize = 4;
/// Upper bound on fresh counterparts (incl. the raw square basis).
pub const MAX_F: usize = 10;

/// Precomputed, executor-friendly form of a [`FoldPlan`].
pub struct FoldedKernel {
    plan: FoldPlan,
    /// Flattened horizontal terms `(dense id, dx index, coeff)`, dx-major
    /// (`dense id` counts the fresh ids some term uses, in id order;
    /// `dx index = dx + R`).
    hterms: Vec<(usize, usize, f64)>,
    /// Flat vertical schedule of a 2D or 3D plan within the register
    /// pipeline's radius bound (`None` otherwise).
    sched: Option<Sched>,
}

impl FoldedKernel {
    /// Plan an `m`-step folded kernel for `p`.
    pub fn new(p: &Pattern, m: usize) -> Self {
        Self::from_plan(FoldPlan::new(p, m))
    }

    /// Build the executor form of an already-computed [`FoldPlan`]
    /// (lets a compile step validate the plan first and reuse it).
    pub fn from_plan(plan: FoldPlan) -> Self {
        assert!(plan.fresh.len() <= MAX_F, "too many counterparts");
        // fresh ids that must actually be computed per square
        let mut used_ids: Vec<usize> = plan.h.iter().flatten().map(|t| t.id).collect();
        used_ids.sort_unstable();
        used_ids.dedup();
        let mut hterms = Vec::new();
        for (dxi, terms) in plan.h.iter().enumerate() {
            for t in terms {
                let u = used_ids.iter().position(|&i| i == t.id).expect("used id");
                hterms.push((u, dxi, t.coeff));
            }
        }
        // the register pipeline's radius bound; 1D has its squares kernel
        let cap = match plan.dims {
            2 => MAX_R,
            3 => MAX_R3,
            _ => 0,
        };
        let sched = (plan.radius <= cap).then(|| Sched::new(&plan, &used_ids));
        Self {
            plan,
            hterms,
            sched,
        }
    }

    /// Folded radius `R = m * r`.
    pub fn radius(&self) -> usize {
        self.plan.radius
    }

    /// Unrolling factor m.
    pub fn m(&self) -> usize {
        self.plan.m
    }

    /// The folded pattern Λ (for scalar fallbacks and tests).
    pub fn folded(&self) -> &Pattern {
        &self.plan.folded
    }

    /// Horizontal terms `(dense id, dx index, coeff)`, dx-major.
    pub(crate) fn hterms(&self) -> &[(usize, usize, f64)] {
        &self.hterms
    }

    /// The flat vertical schedule of a 2D or 3D plan within the register
    /// pipeline's radius bound; `None` otherwise.
    pub(crate) fn sched(&self) -> Option<&Sched> {
        self.sched.as_ref()
    }

    /// The underlying plan.
    pub fn plan(&self) -> &FoldPlan {
        &self.plan
    }

    /// True when the folded matrix is rank-1 (separable): exactly one
    /// fresh counterpart, dense over the full column, and every
    /// horizontal offset contributes a single scaled term of it — the
    /// paper's Fig. 5 case (uniform boxes). Enables the const-trip
    /// marches of the register pipeline.
    pub fn is_separable(&self) -> bool {
        separable(&self.plan)
    }
}

/// [`FoldedKernel::is_separable`] of the kernel `plan` builds.
pub(crate) fn separable(plan: &FoldPlan) -> bool {
    let column = (2 * plan.radius + 1).pow(plan.dims as u32 - 1);
    plan.h.iter().all(|t| t.len() == 1 && t[0].id == 1)
        && plan.fold_taps(1).iter().map(|t| t.0).eq(0..column)
}

// ---------------------------------------------------------------------
// 1D squares kernel
// ---------------------------------------------------------------------

/// One (possibly folded) step on `dst[lo..hi]` of a 1D grid in original
/// layout: on-the-fly register transpose per `vl*vl` square, horizontal
/// fold, transpose back. Block-edge dependents are built from scalar edge
/// loads, so all reads stay within `[lo - R, hi + R)` — the contract the
/// tessellation tiles rely on. Requires `R = taps.len()/2 <= V::LANES`
/// and `lo >= R`, `hi + R <= src.len()`.
#[inline(always)]
pub fn step_squares_range_1d<V: SimdF64>(
    src: &[f64],
    dst: &mut [f64],
    taps: &[f64],
    lo: usize,
    hi: usize,
) {
    crate::exec::dispatch_taps!(step_squares_range_1d_t, V, taps, (src, dst, taps, lo, hi));
}

#[inline(always)]
fn step_squares_range_1d_t<V: SimdF64, const T: usize>(
    src: &[f64],
    dst: &mut [f64],
    taps: &[f64],
    lo: usize,
    hi: usize,
) {
    let nt = crate::exec::tap_count::<T>(taps);
    let vl = V::LANES;
    let rr = nt / 2;
    debug_assert!(
        rr <= vl,
        "validated by Solver::compile (1D fold cap = lanes)"
    );
    if rr > vl {
        // unreachable through the Plan API (compile rejects the fold);
        // degrade instead of panicking for direct kernel callers
        return crate::exec::scalar::step_range_1d(src, dst, taps, lo, hi);
    }
    debug_assert!(lo >= rr && hi + rr <= src.len());
    let square = vl * vl;
    let nsq = (hi.saturating_sub(lo)) / square;

    // hoist tap broadcasts out of the sweep
    let mut tapv = [V::zero(); 17];
    for k in 0..nt {
        tapv[k] = V::splat(taps[k]);
    }

    for q in 0..nsq {
        let s = lo + q * square;
        // load + transpose the square; the transposed vectors land in the
        // middle of an extended window whose edges are the assembled
        // dependents (built once per square from scalar edge loads).
        let mut ext = [V::zero(); 8 + 2 * 8];
        for (j, v) in ext[rr..rr + vl].iter_mut().enumerate() {
            // SAFETY: s + (j+1)*vl <= hi <= src.len()
            *v = unsafe { V::load(src.as_ptr().add(s + j * vl)) };
        }
        V::transpose(&mut ext[rr..rr + vl]);
        for k in 1..=rr {
            ext[rr - k] = ext[rr + vl - k].shift_in_left(V::splat(src[s - k]));
            ext[rr + vl - 1 + k] =
                ext[rr + k - 1].shift_in_right(V::splat(src[s + square + k - 1]));
        }
        // horizontal fold
        let mut out = [V::zero(); 8];
        for (j, o) in out[..vl].iter_mut().enumerate() {
            let mut acc = ext[j].mul(tapv[0]);
            for k in 1..nt {
                acc = ext[j + k].mul_add(tapv[k], acc);
            }
            *o = acc;
        }
        // weighted transpose back + store
        V::transpose(&mut out[..vl]);
        for (j, o) in out[..vl].iter().enumerate() {
            // SAFETY: same bounds as the load above.
            unsafe { o.store(dst.as_mut_ptr().add(s + j * vl)) };
        }
    }
    // scalar tail
    for i in lo + nsq * square..hi {
        let mut acc = 0.0;
        for (k, &w) in taps.iter().enumerate() {
            acc += w * src[i + k - rr];
        }
        dst[i] = acc;
    }
}

// ---------------------------------------------------------------------
// 2D entry points of the pane kernel
// ---------------------------------------------------------------------

/// One folded step on the rectangle `ys x xs` of a 2D grid (original
/// layout) through the register pipeline of [`crate::exec::folded3d`],
/// of which a 2D grid is the one-plane case. Range-kernel contract of
/// the tiling drivers: writes exactly the rectangle, reads within `R` of
/// it, caller keeps it `R` from the grid boundary (checked). Rectangles
/// narrower than one vector in `x` or `y`, degenerate widths and
/// out-of-bound radii (the latter two unreachable through the Plan API)
/// run the scalar folded sweep — no panic.
#[inline(always)]
pub fn step_range_2d<V: SimdF64>(
    k: &FoldedKernel,
    src: &Grid2D,
    dst: &mut Grid2D,
    ys: core::ops::Range<usize>,
    xs: core::ops::Range<usize>,
) {
    let rr = k.plan.radius;
    debug_assert!(
        rr <= MAX_R && k.plan.dims == 2,
        "validated by Solver::compile"
    );
    let Some(sched) = folded3d::vector_sched::<V>(k, &ys, &xs) else {
        return crate::exec::scalar::step_range_2d(src, dst, &k.plan.folded, ys, xs);
    };
    // one plane deep: the pane budget `Ring3::auto` splits between strip
    // and slab goes to the slab — half of it, which keeps the pane of
    // every 2D plan (up to `MAX_F` counterparts) within 32 KiB
    let auto = Ring3::auto(V::LANES, rr);
    let ring = Ring3 {
        depth: 1,
        slab: auto.depth * auto.slab / 2,
    };
    let view = View::plane(src, dst);
    // monomorphize on the folded radius: constant window trip counts
    match rr {
        1 => step_ring_r::<V, 1, 0>(k, sched, ring, view, 0..1, ys, xs),
        2 => step_ring_r::<V, 2, 0>(k, sched, ring, view, 0..1, ys, xs),
        3 => step_ring_r::<V, 3, 0>(k, sched, ring, view, 0..1, ys, xs),
        4 => step_ring_r::<V, 4, 0>(k, sched, ring, view, 0..1, ys, xs),
        _ => step_ring_r::<V, 0, 0>(k, sched, ring, view, 0..1, ys, xs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::scalar;
    use crate::folding::fold;
    use crate::kernels;
    use stencil_grid::{max_abs_diff, Grid1D, PingPong};
    use stencil_simd::{NativeF64x4, NativeF64x8};

    /// `steps` range-kernel steps with `taps` over the interior of `g`.
    fn squares_sweep_1d<V: SimdF64>(g: &Grid1D, taps: &[f64], steps: usize) -> Grid1D {
        let (n, rr) = (g.len(), taps.len() / 2);
        let mut pp = PingPong::new(g.clone());
        for _ in 0..steps {
            let (src, dst) = pp.src_dst();
            step_squares_range_1d::<V>(src.as_slice(), dst.as_mut_slice(), taps, rr, n - rr);
            pp.swap();
        }
        pp.into_current()
    }

    /// `steps` folded steps of `k` over the interior of `g`.
    fn sweep<V: SimdF64>(k: &FoldedKernel, g: &Grid2D, steps: usize) -> Grid2D {
        let (ny, nx, rr) = (g.ny(), g.nx(), k.radius());
        let mut pp = PingPong::new(g.clone());
        for _ in 0..steps {
            let (src, dst) = pp.src_dst();
            step_range_2d::<V>(k, src, dst, rr..ny - rr, rr..nx - rr);
            pp.swap();
        }
        pp.into_current()
    }

    fn scalar_folded_2d(g: &Grid2D, p: &Pattern, m: usize, steps: usize) -> Grid2D {
        let f = fold(p, m);
        let mut pp = PingPong::new(g.clone());
        scalar::sweep_2d(&mut pp, &f, steps);
        pp.into_current()
    }

    #[test]
    fn squares_1d_matches_scalar() {
        for p in [kernels::heat1d(), kernels::d1p5()] {
            for n in [64usize, 100, 203] {
                let g = Grid1D::from_fn(n, |i| ((i * 53) % 17) as f64 * 0.7);
                let mut a = PingPong::new(g.clone());
                scalar::sweep_1d(&mut a, &p, 4);
                let out = squares_sweep_1d::<NativeF64x4>(&g, p.weights(), 4);
                assert!(
                    max_abs_diff(a.current().as_slice(), out.as_slice()) < 1e-12,
                    "n={n}"
                );
            }
        }
    }

    #[test]
    fn squares_1d_folded_matches_scalar_folded() {
        let p = kernels::heat1d();
        let f = fold(&p, 2);
        let n = 131;
        let g = Grid1D::from_fn(n, |i| (i as f64 * 0.21).cos());
        let mut a = PingPong::new(g.clone());
        scalar::sweep_1d(&mut a, &f, 3);
        let out = squares_sweep_1d::<NativeF64x8>(&g, f.weights(), 3);
        assert!(max_abs_diff(a.current().as_slice(), out.as_slice()) < 1e-12);
    }

    #[test]
    fn folded_2d_m1_matches_plain_scalar() {
        for p in [kernels::heat2d(), kernels::box2d9p(), kernels::gb()] {
            let g = Grid2D::from_fn(23, 29, |y, x| ((y * 13 + x * 7) % 19) as f64);
            let mut a = PingPong::new(g.clone());
            scalar::sweep_2d(&mut a, &p, 3);
            let out = sweep::<NativeF64x4>(&FoldedKernel::new(&p, 1), &g, 3);
            assert!(
                max_abs_diff(&a.current().to_dense(), &out.to_dense()) < 1e-12,
                "pts={}",
                p.points()
            );
        }
    }

    #[test]
    fn folded_2d_m2_matches_scalar_folded() {
        for p in [kernels::heat2d(), kernels::box2d9p(), kernels::gb()] {
            let g = Grid2D::from_fn(26, 33, |y, x| ((y * 31 + x * 3) % 23) as f64 * 0.5);
            let want = scalar_folded_2d(&g, &p, 2, 3);
            let out = sweep::<NativeF64x4>(&FoldedKernel::new(&p, 2), &g, 3);
            assert!(
                max_abs_diff(&want.to_dense(), &out.to_dense()) < 1e-10,
                "pts={}",
                p.points()
            );
        }
    }

    #[test]
    fn folded_2d_narrow_ranges_fall_back() {
        // ranges narrower than a vector exercise the scalar paths
        let p = kernels::box2d9p();
        let k = FoldedKernel::new(&p, 2);
        let g = Grid2D::from_fn(16, 16, |y, x| (y * 16 + x) as f64);
        let mut dst = g.clone();
        step_range_2d::<NativeF64x4>(&k, &g, &mut dst, 3..6, 2..5);
        let mut want = g.clone();
        scalar::step_range_2d(&g, &mut want, k.folded(), 3..6, 2..5);
        assert!(max_abs_diff(&want.to_dense(), &dst.to_dense()) < 1e-12);
    }

    #[test]
    fn folded_2d_avx512_width() {
        let p = kernels::heat2d();
        let g = Grid2D::from_fn(33, 41, |y, x| ((y * 5 + x * 11) % 29) as f64);
        let want = scalar_folded_2d(&g, &p, 2, 2);
        let out = sweep::<NativeF64x8>(&FoldedKernel::new(&p, 2), &g, 2);
        assert!(max_abs_diff(&want.to_dense(), &out.to_dense()) < 1e-10);
    }

    #[test]
    fn leftover_steps_complete_odd_totals() {
        let p = kernels::box2d9p();
        let g = Grid2D::from_fn(20, 20, |y, x| ((y + x) % 4) as f64);
        // t=5 with m=2: 2 folded + 1 plain; compare interior to 5 scalar
        let mut a = PingPong::new(g.clone());
        scalar::sweep_2d(&mut a, &p, 5);
        let plan = crate::Solver::new(p).method(crate::Method::Folded { m: 2 });
        let out = plan.compile().unwrap().run_2d(&g, 5).unwrap();
        let ad = a.current().to_dense();
        let od = out.to_dense();
        let nx = 20;
        for y in 6..14 {
            for x in 6..14 {
                assert!((ad[y * nx + x] - od[y * nx + x]).abs() < 1e-10, "({y},{x})");
            }
        }
    }
}
