//! Register-folded executor — the paper's §3.3 pipeline ("Our (m steps)").
//!
//! Memory stays in the original layout; each `vl x vl` square of grid
//! points is processed entirely in registers:
//!
//! 1. **Vertical folding** — fold the `vl + 2R` surrounding rows with
//!    each fresh counterpart's λ column (one row-vector load per row,
//!    *shared* by every counterpart).
//! 2. **Register transpose** — the §2.3 two/three-stage transpose turns
//!    counterpart rows into per-x columns.
//! 3. **Horizontal folding** — combine counterpart columns across
//!    x-offsets with the planned coefficients (the separable case touches
//!    a single counterpart, cf. Eq. 6).
//! 4. **Weighted transpose** — transpose the output square back and store
//!    rows (the paper's optional final transpose; we always restore the
//!    original layout so tiling layers see one consistent layout).
//!
//! **Shifts reusing** (§3.4): the transposed counterpart columns of the
//! current square are carried over as the left-halo of the next square —
//! each column is computed exactly once per sweep.
//!
//! The 1D variant ([`step_squares_range_1d`]) degenerates to: transpose
//! square, horizontal fold with assembled block-edge vectors, transpose
//! back — matching the paper's "view 4N points as a 4 x N grid".

#![allow(clippy::needless_range_loop)]
// indexed loops here are offset
// windows (ext[j + k]) where iterator rewrites obscure the paper's
// notation and codegen alike
// Kernel entry points mirror the (plan, grid, strides, block) parameter
// sets of the paper's pseudocode.
#![allow(clippy::too_many_arguments)]

use crate::exec::folded3d::Sched3;
use crate::pattern::Pattern;
use crate::plan::FoldPlan;
use stencil_grid::{Grid2D, PingPong};
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
    /// `(slab_index, weight)` vertical taps per fresh id (empty for id 0).
    taps_by_id: Vec<Vec<(usize, f64)>>,
    /// Flattened horizontal terms `(dense id, dx index, coeff)`, dx-major
    /// (`dense id` indexes [`Self::used_ids`], `dx index = dx + R`).
    hterms: Vec<(usize, usize, f64)>,
    /// Fresh ids that must actually be computed per square.
    used_ids: Vec<usize>,
    /// Flat vertical schedule of a 3D plan within the z-ring's radius
    /// bound (`None` otherwise).
    sched3: Option<Sched3>,
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
        let taps_by_id: Vec<_> = (0..plan.fresh.len()).map(|id| plan.fold_taps(id)).collect();
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
        let mut k = Self {
            plan,
            taps_by_id,
            hterms,
            used_ids,
            sched3: None,
        };
        if k.plan.dims == 3 && k.plan.radius <= MAX_R3 {
            k.sched3 = Some(Sched3::new(&k));
        }
        k
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

    /// Fresh ids referenced by at least one horizontal term, in dense
    /// window order (shared with the z-ring pipeline).
    pub(crate) fn used_ids(&self) -> &[usize] {
        &self.used_ids
    }

    /// `(slab_index, weight)` vertical taps per fresh id.
    pub(crate) fn taps_by_id(&self) -> &[Vec<(usize, f64)>] {
        &self.taps_by_id
    }

    /// Horizontal terms `(dense id, dx index, coeff)`, dx-major.
    pub(crate) fn hterms(&self) -> &[(usize, usize, f64)] {
        &self.hterms
    }

    /// The flat vertical schedule of a 3D plan within the z-ring's
    /// radius bound; `None` otherwise.
    pub(crate) fn sched3(&self) -> Option<&Sched3> {
        self.sched3.as_ref()
    }

    /// The underlying plan.
    pub fn plan(&self) -> &FoldPlan {
        &self.plan
    }

    /// True when the folded matrix is rank-1 (separable): exactly one
    /// fresh counterpart, dense over the full column, and every
    /// horizontal offset contributes a single scaled term of it — the
    /// paper's Fig. 5 case (uniform boxes). Enables the fully-unrolled
    /// fast path.
    pub fn is_separable(&self) -> bool {
        let side = 2 * self.plan.radius + 1;
        self.used_ids == [1]
            && self.taps_by_id.len() > 1
            && self.taps_by_id[1].len() == side.pow(self.plan.dims as u32 - 1)
            && self.taps_by_id[1]
                .iter()
                .enumerate()
                .all(|(i, &(slab, _))| slab == i)
            && self.plan.h.iter().all(|t| t.len() == 1 && t[0].id == 1)
    }
}

/// Per-call splatted form of the plan for the 2D generic kernel:
/// broadcasts hoisted out of the block loops (they would otherwise
/// re-issue per square).
struct PlanV<V> {
    /// `(slab_index, splat(w))` vertical taps per fresh id.
    taps: Vec<Vec<(usize, V)>>,
    /// Horizontal terms grouped by x-offset: `hcols[dx + R]` lists
    /// `(dense id, splat(coeff))` — usually a single term per offset.
    hcols: Vec<Vec<(usize, V)>>,
}

impl<V: SimdF64> PlanV<V> {
    fn new(k: &FoldedKernel) -> Self {
        let mut hcols = vec![Vec::new(); 2 * k.plan.radius + 1];
        for &(u, dxi, c) in &k.hterms {
            hcols[dxi].push((u, V::splat(c)));
        }
        Self {
            taps: k
                .taps_by_id
                .iter()
                .map(|t| t.iter().map(|&(s, w)| (s, V::splat(w))).collect())
                .collect(),
            hcols,
        }
    }
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
pub fn step_squares_range_1d<V: SimdF64>(
    src: &[f64],
    dst: &mut [f64],
    taps: &[f64],
    lo: usize,
    hi: usize,
) {
    crate::exec::dispatch_taps!(step_squares_range_1d_t, V, taps, (src, dst, taps, lo, hi));
}

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

/// Full 1D folded step (Dirichlet band of width `R`).
pub fn step_1d<V: SimdF64>(src: &[f64], dst: &mut [f64], taps: &[f64]) {
    let n = src.len();
    let rr = taps.len() / 2;
    dst[..rr].copy_from_slice(&src[..rr]);
    dst[n - rr..].copy_from_slice(&src[n - rr..]);
    step_squares_range_1d::<V>(src, dst, taps, rr, n - rr);
}

// ---------------------------------------------------------------------
// 2D plan-driven kernel
// ---------------------------------------------------------------------

/// Scalar construction of one transposed counterpart column: lane `j` =
/// vertical fold of counterpart `id` at `(y0 + j, x)`.
#[inline]
fn scalar_col_2d<V: SimdF64>(
    k: &FoldedKernel,
    s: &[f64],
    stride: usize,
    y0: usize,
    x: usize,
    id: usize,
) -> V {
    let vl = V::LANES;
    let rr = k.plan.radius;
    let mut lanes = [0.0f64; 8];
    for (j, lane) in lanes[..vl].iter_mut().enumerate() {
        if id == 0 {
            *lane = s[(y0 + j) * stride + x];
        } else {
            let mut acc = 0.0;
            for &(slab, w) in &k.taps_by_id[id] {
                let dy = slab as isize - rr as isize;
                let yy = (y0 + j) as isize + dy;
                acc += w * s[yy as usize * stride + x];
            }
            *lane = acc;
        }
    }
    V::from_slice(&lanes[..vl])
}

/// Compute the transposed counterpart columns of the `vl`-wide block at
/// `(y0, bx)`: `cols[id][kk]` = column `bx + kk`. Row vectors are loaded
/// once and shared by all counterparts (the flops/byte gain of §3.3).
/// One folded step on the rectangle `ys x xs` of a 2D grid (original
/// layout). All reads stay within `R` of the rectangle. Caller keeps the
/// rectangle at least `R` away from the grid boundary.
pub fn step_range_2d<V: SimdF64>(
    k: &FoldedKernel,
    src: &Grid2D,
    dst: &mut Grid2D,
    ys: core::ops::Range<usize>,
    xs: core::ops::Range<usize>,
) {
    let vl = V::LANES;
    let rr = k.plan.radius;
    debug_assert!(
        rr <= MAX_R && k.plan.dims == 2,
        "validated by Solver::compile"
    );
    if vl < rr.max(2) || rr > MAX_R || k.plan.dims != 2 {
        // Degenerate widths (scalar lanes, or R wider than the vector) and
        // out-of-bound radii (unreachable through the Plan API, which
        // rejects them as PlanError::InvalidFold at compile time): the
        // register pipeline has nothing to fold — plain folded sweep, no
        // panic path.
        crate::exec::scalar::step_range_2d(src, dst, &k.plan.folded, ys, xs);
        return;
    }
    // monomorphize on the folded radius: the window loops then have
    // constant trip counts and the position branches resolve statically
    if k.is_separable() {
        return match rr {
            1 => step_range_2d_sep::<V, 1>(k, src, dst, ys, xs),
            2 => step_range_2d_sep::<V, 2>(k, src, dst, ys, xs),
            3 => step_range_2d_sep::<V, 3>(k, src, dst, ys, xs),
            4 => step_range_2d_sep::<V, 4>(k, src, dst, ys, xs),
            _ => step_range_2d_r::<V, 0>(k, src, dst, ys, xs),
        };
    }
    match rr {
        1 => step_range_2d_r::<V, 1>(k, src, dst, ys, xs),
        2 => step_range_2d_r::<V, 2>(k, src, dst, ys, xs),
        3 => step_range_2d_r::<V, 3>(k, src, dst, ys, xs),
        4 => step_range_2d_r::<V, 4>(k, src, dst, ys, xs),
        _ => step_range_2d_r::<V, 0>(k, src, dst, ys, xs),
    }
}

/// Separable (rank-1) fast path: single counterpart `c1`, fully
/// const-trip loops. This is exactly Fig. 5's pipeline: vertical fold
/// with λ(1), transpose, horizontal fold with the same scaled weights,
/// weighted transpose back — with the previous square's last `R`
/// transposed columns reused as shifts.
fn step_range_2d_sep<V: SimdF64, const R: usize>(
    k: &FoldedKernel,
    src: &Grid2D,
    dst: &mut Grid2D,
    ys: core::ops::Range<usize>,
    xs: core::ops::Range<usize>,
) {
    let vl = V::LANES;
    let stride = src.stride();
    let s = src.as_slice();
    let (xlo, xhi) = (xs.start, xs.end);
    let nfull = (xhi - xlo) / vl;

    // broadcast the single counterpart's vertical taps and the
    // horizontal scale coefficients once
    let mut vtap = [V::zero(); 16];
    for (t, &(_, w)) in k.taps_by_id[1].iter().enumerate() {
        vtap[t] = V::splat(w);
    }
    let mut htap = [V::zero(); 16];
    for (dxi, terms) in k.plan.h.iter().enumerate() {
        htap[dxi] = V::splat(terms[0].coeff);
    }

    let mut y = ys.start;
    while y + vl <= ys.end {
        if nfull == 0 {
            crate::exec::scalar::step_range_2d(src, dst, &k.plan.folded, y..y + vl, xs.clone());
            y += vl;
            continue;
        }
        // window of transposed counterpart columns [bx - R, bx + vl + R)
        let mut win = [V::zero(); 8 + 2 * 8];
        // left tail: scalar vertical folds
        for kk in 0..R {
            win[kk] = scalar_col_2d::<V>(k, s, stride, y, xlo - R + kk, 1);
        }
        // first block
        compute_sep_block_2d::<V, R>(s, stride, y, xlo, &vtap, &mut win, R);

        for b in 0..nfull {
            let bx = xlo + b * vl;
            // lookahead: columns [bx + vl, bx + vl + R)
            if b + 1 < nfull {
                compute_sep_block_2d::<V, R>(s, stride, y, bx + vl, &vtap, &mut win, R + vl);
            } else {
                for kk in 0..R {
                    win[R + vl + kk] = scalar_col_2d::<V>(k, s, stride, y, bx + vl + kk, 1);
                }
            }
            // horizontal fold: out[kk] = sum_dx htap[dx] * win[kk + dx]
            let mut out = [V::zero(); 8];
            for (kk, o) in out[..vl].iter_mut().enumerate() {
                let mut acc = win[kk].mul(htap[0]);
                for dxi in 1..2 * R + 1 {
                    acc = win[kk + dxi].mul_add(htap[dxi], acc);
                }
                *o = acc;
            }
            V::transpose(&mut out[..vl]);
            let d = dst.as_mut_slice();
            for (j, o) in out[..vl].iter().enumerate() {
                // SAFETY: bx + vl <= xhi <= nx, rows y..y+vl inside grid.
                unsafe { o.store(d.as_mut_ptr().add((y + j) * stride + bx)) };
            }
            // shifts reuse: slide the window left by vl (tail plus the
            // freshly computed block become the next iteration's prefix)
            for kk in 0..R + vl {
                win[kk] = win[kk + vl];
            }
        }
        if xlo + nfull * vl < xhi {
            crate::exec::scalar::step_range_2d(
                src,
                dst,
                &k.plan.folded,
                y..y + vl,
                xlo + nfull * vl..xhi,
            );
        }
        y += vl;
    }
    if y < ys.end {
        crate::exec::scalar::step_range_2d(src, dst, &k.plan.folded, y..ys.end, xs);
    }
}

/// Compute the transposed single-counterpart columns of the block at
/// `(y0, bx)` into `win[at..at + vl]`.
#[inline(always)]
fn compute_sep_block_2d<V: SimdF64, const R: usize>(
    s: &[f64],
    stride: usize,
    y0: usize,
    bx: usize,
    vtap: &[V; 16],
    win: &mut [V; 8 + 2 * 8],
    at: usize,
) {
    let vl = V::LANES;
    let mut rowvec = [V::zero(); 8 + 2 * 8];
    for (t, rv) in rowvec[..vl + 2 * R].iter_mut().enumerate() {
        // SAFETY: caller keeps the block R away from grid edges.
        *rv = unsafe { V::load(s.as_ptr().add((y0 - R + t) * stride + bx)) };
    }
    let mut rows = [V::zero(); 8];
    for (j, row) in rows[..vl].iter_mut().enumerate() {
        let mut acc = rowvec[j].mul(vtap[0]);
        for t in 1..2 * R + 1 {
            acc = rowvec[j + t].mul_add(vtap[t], acc);
        }
        *row = acc;
    }
    V::transpose(&mut rows[..vl]);
    win[at..at + vl].copy_from_slice(&rows[..vl]);
}

fn step_range_2d_r<V: SimdF64, const R: usize>(
    k: &FoldedKernel,
    src: &Grid2D,
    dst: &mut Grid2D,
    ys: core::ops::Range<usize>,
    xs: core::ops::Range<usize>,
) {
    let vl = V::LANES;
    let rr = if R == 0 { k.plan.radius } else { R };
    let stride = src.stride();
    let s = src.as_slice();
    let (xlo, xhi) = (xs.start, xs.end);
    let nfull = (xhi - xlo) / vl;
    let pv = PlanV::<V>::new(k);
    let nids = k.used_ids.len();

    let mut y = ys.start;
    while y + vl <= ys.end {
        if nfull == 0 {
            crate::exec::scalar::step_range_2d(src, dst, &k.plan.folded, y..y + vl, xs.clone());
            y += vl;
            continue;
        }
        // sliding windows of transposed counterpart columns, one per used
        // id, indexed densely 0..nids (not by raw id) to keep them hot
        let mut win = [[V::zero(); 8 + 2 * 8]; MAX_F];
        for kk in 0..rr {
            for (u, &id) in k.used_ids.iter().enumerate() {
                win[u][kk] = scalar_col_2d::<V>(k, s, stride, y, xlo - rr + kk, id);
            }
        }
        compute_block_2d_win::<V, R>(k, &pv, s, stride, y, xlo, &mut win, rr);

        for b in 0..nfull {
            let bx = xlo + b * vl;
            if b + 1 < nfull {
                compute_block_2d_win::<V, R>(k, &pv, s, stride, y, bx + vl, &mut win, rr + vl);
            } else {
                for kk in 0..rr {
                    for (u, &id) in k.used_ids.iter().enumerate() {
                        win[u][rr + vl + kk] =
                            scalar_col_2d::<V>(k, s, stride, y, bx + vl + kk, id);
                    }
                }
            }
            // horizontal folding over the windows (ids remapped dense)
            let mut out = [V::zero(); 8];
            for (kk, o) in out[..vl].iter_mut().enumerate() {
                let mut acc = V::zero();
                for dxi in 0..2 * rr + 1 {
                    for &(u, cv) in &pv.hcols[dxi] {
                        acc = win[u][kk + dxi].mul_add(cv, acc);
                    }
                }
                *o = acc;
            }
            V::transpose(&mut out[..vl]);
            let d = dst.as_mut_slice();
            for (j, o) in out[..vl].iter().enumerate() {
                // SAFETY: bx + vl <= xhi <= nx, rows y..y+vl inside grid.
                unsafe { o.store(d.as_mut_ptr().add((y + j) * stride + bx)) };
            }
            // shifts reuse: slide each window left by vl
            for w in win[..nids].iter_mut() {
                for kk in 0..rr + vl {
                    w[kk] = w[kk + vl];
                }
            }
        }
        if xlo + nfull * vl < xhi {
            crate::exec::scalar::step_range_2d(
                src,
                dst,
                &k.plan.folded,
                y..y + vl,
                xlo + nfull * vl..xhi,
            );
        }
        y += vl;
    }
    if y < ys.end {
        crate::exec::scalar::step_range_2d(src, dst, &k.plan.folded, y..ys.end, xs);
    }
}

/// Compute all used counterparts' transposed columns of the block at
/// `(y0, bx)` into `win[u][at..at + vl]` (dense id index `u`). Row
/// vectors are loaded once and shared by every counterpart.
#[inline(always)]
fn compute_block_2d_win<V: SimdF64, const R: usize>(
    k: &FoldedKernel,
    pv: &PlanV<V>,
    s: &[f64],
    stride: usize,
    y0: usize,
    bx: usize,
    win: &mut [[V; 8 + 2 * 8]; MAX_F],
    at: usize,
) {
    let vl = V::LANES;
    let rr = if R == 0 { k.plan.radius } else { R };
    let mut rowvec = [V::zero(); 8 + 2 * MAX_R];
    for (t, rv) in rowvec[..vl + 2 * rr].iter_mut().enumerate() {
        // SAFETY: caller keeps the block R away from grid edges.
        *rv = unsafe { V::load(s.as_ptr().add((y0 - rr + t) * stride + bx)) };
    }
    for (u, &id) in k.used_ids.iter().enumerate() {
        let mut rows = [V::zero(); 8];
        if id == 0 {
            rows[..vl].copy_from_slice(&rowvec[rr..rr + vl]);
        } else {
            for (j, row) in rows[..vl].iter_mut().enumerate() {
                let mut acc = V::zero();
                for &(slab, wv) in &pv.taps[id] {
                    acc = rowvec[j + slab].mul_add(wv, acc);
                }
                *row = acc;
            }
        }
        V::transpose(&mut rows[..vl]);
        win[u][at..at + vl].copy_from_slice(&rows[..vl]);
    }
}

/// Full folded 2D step (Dirichlet band of width `R`).
pub fn step_2d<V: SimdF64>(k: &FoldedKernel, src: &Grid2D, dst: &mut Grid2D) {
    let (ny, nx) = (src.ny(), src.nx());
    let rr = k.plan.radius;
    for y in 0..ny {
        if y < rr || y >= ny - rr {
            dst.row_mut(y).copy_from_slice(src.row(y));
        } else {
            let srow = src.row(y);
            let drow = dst.row_mut(y);
            drow[..rr].copy_from_slice(&srow[..rr]);
            drow[nx - rr..].copy_from_slice(&srow[nx - rr..]);
        }
    }
    step_range_2d::<V>(k, src, dst, rr..ny - rr, rr..nx - rr);
}

/// Block-free "Our (m steps)" 2D sweep with the planned kernel supplied
/// by the caller — the compile-once/run-many entry point: a plan builds
/// the [`FoldedKernel`] once and reuses it across every run. `t % m`
/// leftovers run unfolded through the multiple-loads kernel.
pub fn sweep_2d_with<V: SimdF64>(k: &FoldedKernel, grid: &Grid2D, p: &Pattern, t: usize) -> Grid2D {
    let m = k.m();
    let mut pp = PingPong::new(grid.clone());
    for _ in 0..t / m {
        let (src, dst) = pp.src_dst();
        step_2d::<V>(k, src, dst);
        pp.swap_folded(m);
    }
    for _ in 0..t % m {
        let (src, dst) = pp.src_dst();
        crate::exec::multiload::step_2d::<V>(src, dst, p);
        pp.swap();
    }
    pp.into_current()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::scalar;
    use crate::folding::fold;
    use crate::kernels;
    use stencil_grid::{max_abs_diff, Grid1D};
    use stencil_simd::{NativeF64x4, NativeF64x8};

    /// `steps` whole-grid [`step_1d`] steps with `taps`.
    fn squares_sweep_1d<V: SimdF64>(g: &Grid1D, taps: &[f64], steps: usize) -> Grid1D {
        let mut pp = PingPong::new(g.clone());
        for _ in 0..steps {
            let (src, dst) = pp.src_dst();
            step_1d::<V>(src.as_slice(), dst.as_mut_slice(), taps);
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
            let out = sweep_2d_with::<NativeF64x4>(&FoldedKernel::new(&p, 1), &g, &p, 3);
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
            let out = sweep_2d_with::<NativeF64x4>(&FoldedKernel::new(&p, 2), &g, &p, 6);
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
        let out = sweep_2d_with::<NativeF64x8>(&FoldedKernel::new(&p, 2), &g, &p, 4);
        assert!(max_abs_diff(&want.to_dense(), &out.to_dense()) < 1e-10);
    }

    #[test]
    fn leftover_steps_complete_odd_totals() {
        let p = kernels::box2d9p();
        let g = Grid2D::from_fn(20, 20, |y, x| ((y + x) % 4) as f64);
        // t=5 with m=2: 2 folded + 1 plain; compare interior to 5 scalar
        let mut a = PingPong::new(g.clone());
        scalar::sweep_2d(&mut a, &p, 5);
        let out = sweep_2d_with::<NativeF64x4>(&FoldedKernel::new(&p, 2), &g, &p, 5);
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
