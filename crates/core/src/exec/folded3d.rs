//! Z-ring 3D register pipeline — the dedicated 3D form of the paper's
//! §3.3 folded executor.
//!
//! Stacking the 2D pipeline of [`crate::exec::folded`] along `z` would
//! reload the full `(2R+1)`-plane × `(vl+2R)`-row vector window from
//! memory for every output block and discard all plane overlap as `z`
//! advances — exactly the data-organization redundancy the paper removes
//! in 1D/2D. This module marches along `z` instead:
//!
//! * **Z-plane rotation** — for each x-block the `(2R+1)` planes the
//!   vertical fold reads live in a rotating ring (`slot = z mod (2R+1)`)
//!   of register/stack-resident row vectors. Each inner-loop step loads
//!   only the one newly-entering plane and rotates the other `2R` in
//!   place, turning `~(2R+1)×` redundant plane loads into `~1×`.
//! * **Separable two-stage fold** — when the counterpart schedule is
//!   rank-1 (uniform boxes, Fig. 5) and its `(dz, dy)` tap matrix
//!   factors as `wz ⊗ wy`, the ring holds *y-prefolded* plane rows:
//!   each plane is dy-folded once on entry and reused by the `2R+1`
//!   consecutive z outputs it participates in — the arithmetic analogue
//!   of the load reuse (`(2R+1)²` → `2(2R+1)` vertical mul-adds per
//!   row).
//! * **Fused assemble** — the scalar-assembled edge columns are built
//!   once per (x-slab, z) and shared by every block of the slab, instead
//!   of per block.
//!
//! The sweep is organized as y-block → x-slab ([`Ring3::slab`] vector
//! blocks) → z-strip ([`Ring3::depth`] outputs): phase A fills a small
//! L1-resident pane of transposed counterpart columns via the ring,
//! phase B runs the horizontal fold + weighted transpose over the pane.
//! Both knobs are part of the measured tuner's 3D candidate space.
//!
//! Every per-output computation depends only on its global coordinates
//! and the supplied ranges — never on strip/slab phase — so the pipeline
//! is translation-invariant per call, which is what bit-exact domain
//! sharding (serve) relies on.

#![allow(clippy::needless_range_loop)]
// offset windows (ring[j + py]) mirror the paper's notation
#![allow(clippy::too_many_arguments)]
// kernel entry points mirror the (plan, grid, strides, block) sets

use crate::exec::folded::{scalar_col_3d, FoldedKernel, PlanV, MAX_F, MAX_R3};
use crate::pattern::Pattern;
use core::any::{Any, TypeId};
use core::cell::RefCell;
use core::ops::Range;
use std::collections::HashMap;
use stencil_grid::{Grid3D, PingPong};
use stencil_simd::SimdF64;

/// Largest z-strip depth the pipeline accepts.
pub const MAX_RING_DEPTH: usize = 64;
/// Largest x-slab width (in vector blocks) the pipeline accepts.
pub const MAX_RING_SLAB: usize = 32;

/// Geometry of the z-ring pipeline: how many consecutive z outputs one
/// ring march produces before the column pane is drained (`depth`), and
/// how many x vector blocks share one pane (`slab`). Both bound the
/// pane's footprint (`slab × depth × counterparts × vl` vectors), which
/// should stay L1-resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ring3 {
    /// Z-strip length (consecutive z outputs per ring march), `>= 1`.
    pub depth: usize,
    /// X-slab width in vector blocks, `>= 1`.
    pub slab: usize,
}

impl Ring3 {
    /// Static default for `lanes`-wide vectors and folded radius
    /// `radius`: sized so the column pane of a typical (≤ 3
    /// counterpart) plan stays within ~16 KB of L1. The measured tuner
    /// probes neighbors of this point.
    pub fn auto(lanes: usize, radius: usize) -> Self {
        let depth = if radius <= 2 { 8 } else { 4 };
        let slab = if lanes >= 8 { 2 } else { 4 };
        Self { depth, slab }
    }

    /// True when both knobs are inside the supported bounds.
    pub fn valid(self) -> bool {
        (1..=MAX_RING_DEPTH).contains(&self.depth) && (1..=MAX_RING_SLAB).contains(&self.slab)
    }
}

impl Default for Ring3 {
    fn default() -> Self {
        Ring3 { depth: 8, slab: 4 }
    }
}

/// One folded step on the cuboid `zs × ys × xs` of a 3D grid through the
/// z-ring pipeline. Range-kernel contract of the tiling drivers: writes
/// exactly the region, reads within `R` of it, caller keeps the region
/// `R` from the grid boundary. Degenerate widths and out-of-bound radii (unreachable
/// through the Plan API) degrade to the scalar folded sweep — no panic.
pub fn step_range_3d_ring<V: SimdF64>(
    k: &FoldedKernel,
    ring: Ring3,
    src: &Grid3D,
    dst: &mut Grid3D,
    zs: Range<usize>,
    ys: Range<usize>,
    xs: Range<usize>,
) {
    let vl = V::LANES;
    let rr = k.radius();
    debug_assert!(
        (1..=MAX_R3).contains(&rr) && k.folded().dims() == 3,
        "validated by Solver::compile"
    );
    if rr == 0 || rr > MAX_R3 || vl < rr.max(2) || k.folded().dims() != 3 {
        crate::exec::scalar::step_range_3d(src, dst, k.folded(), zs, ys, xs);
        return;
    }
    // monomorphize on the folded radius: constant ring/window trip counts
    match rr {
        1 => step_ring_r::<V, 1>(k, ring, src, dst, zs, ys, xs),
        2 => step_ring_r::<V, 2>(k, ring, src, dst, zs, ys, xs),
        3 => step_ring_r::<V, 3>(k, ring, src, dst, zs, ys, xs),
        _ => step_ring_r::<V, 4>(k, ring, src, dst, zs, ys, xs),
    }
}

/// Per-worker scratch backing one [`step_ring_r`] call: the two column
/// panes and the cross-slab carry. Hoisted into a thread-local so the
/// tessellate path — many small trapezoid tile calls per worker per
/// sweep — stops paying two heap allocations per tile. Keyed by the
/// SIMD backend type, since the kernel is monomorphized over it.
struct Scratch<V: SimdF64> {
    cols: Vec<[V; 8]>,
    carry: Vec<[V; MAX_R3]>,
}

thread_local! {
    static SCRATCH: RefCell<HashMap<TypeId, Box<dyn Any>>> = RefCell::new(HashMap::new());
}

/// Check out this thread's scratch for backend `V` (empty buffers on
/// first use); [`put_scratch`] returns it. Checkout semantics — rather
/// than a borrow held across the sweep — keep the `RefCell` borrow
/// scoped to the map access alone, so no reachable call graph can
/// observe it borrowed.
fn take_scratch<V: SimdF64>() -> Scratch<V> {
    SCRATCH.with(|cell| {
        cell.borrow_mut()
            .remove(&TypeId::of::<V>())
            .and_then(|b| b.downcast::<Scratch<V>>().ok())
            .map(|b| *b)
            .unwrap_or(Scratch {
                cols: Vec::new(),
                carry: Vec::new(),
            })
    })
}

fn put_scratch<V: SimdF64>(sc: Scratch<V>) {
    SCRATCH.with(|cell| {
        cell.borrow_mut().insert(TypeId::of::<V>(), Box::new(sc));
    });
}

fn step_ring_r<V: SimdF64, const R: usize>(
    k: &FoldedKernel,
    ring: Ring3,
    src: &Grid3D,
    dst: &mut Grid3D,
    zs: Range<usize>,
    ys: Range<usize>,
    xs: Range<usize>,
) {
    let vl = V::LANES;
    let (sy, sz) = (src.stride_y(), src.stride_z());
    let s = src.as_slice();
    let (xlo, xhi) = (xs.start, xs.end);
    let nfull = (xhi - xlo) / vl;
    let pv = PlanV::<V>::new(k);
    let nids = k.used_ids().len();
    let sep = SepV::<V, R>::detect(k);
    // clamp the pane to the region actually covered: tessellate hands
    // this kernel small trapezoid tiles, whose per-call pane allocation
    // must stay proportional to the tile, not to the configured maxima
    let depth = ring
        .depth
        .clamp(1, MAX_RING_DEPTH)
        .min((zs.end - zs.start).max(1));
    let slab = ring.slab.clamp(1, MAX_RING_SLAB).min(nfull.max(1));
    // Two panes of transposed counterpart columns, software-pipelined
    // across x-slabs: while slab `s`'s horizontal fold (phase B) runs
    // off one pane, slab `s+1`'s ring march (phase A) has already
    // filled the other — so interior slab boundaries read block-computed
    // columns on both sides. cols[pane][(b * depth + zi) * nids + u]
    // holds block `b`'s columns of dense counterpart `u` at strip
    // index `zi`. Checked out of the per-worker scratch, reused by
    // every strip — and across calls: no zeroing, because every pane
    // entry is written by a phase-A march before phase B reads it, and
    // the carry is read only behind `b0 != 0`, after the previous
    // slab's phase B rewrote it, so stale values from an earlier tile
    // can never reach an output (the resize fill only seeds growth).
    let pane_len = slab * depth * nids;
    let mut scratch = take_scratch::<V>();
    scratch.cols.resize(2 * pane_len, [V::zero(); 8]);
    // Shifts reuse across x-slabs: the last R columns of each slab's
    // last block, kept per strip z so the next slab's left edge is
    // register data too. Only the sweep's own edges (x = xlo and the
    // last block's right halo) are ever assembled from scalar loads.
    scratch.carry.resize(depth * nids, [V::zero(); MAX_R3]);
    let Scratch { cols, carry } = &mut scratch;

    let mut y = ys.start;
    while y + vl <= ys.end {
        if nfull == 0 {
            crate::exec::scalar::step_range_3d(
                src,
                dst,
                k.folded(),
                zs.clone(),
                y..y + vl,
                xs.clone(),
            );
            y += vl;
            continue;
        }
        let mut z0 = zs.start;
        while z0 < zs.end {
            let nz = depth.min(zs.end - z0);
            // march one slab's blocks into the given pane
            let march = |cols: &mut [[V; 8]], pane: usize, b0: usize, nb: usize| {
                for b in 0..nb {
                    let base = pane * pane_len + b * depth * nids;
                    let bx = xlo + (b0 + b) * vl;
                    let dest = &mut cols[base..base + nz * nids];
                    if let Some(sv) = &sep {
                        march_sep::<V, R>(sv, s, sy, sz, z0, nz, y, bx, dest);
                    } else {
                        march_gen::<V, R>(k, &pv, s, sy, sz, z0, nz, y, bx, nids, dest);
                    }
                }
            };
            let mut cur = 0usize;
            march(cols, cur, 0, slab.min(nfull));
            let mut b0 = 0usize;
            while b0 < nfull {
                let nb = slab.min(nfull - b0);
                let sxlo = xlo + b0 * vl;
                let next_b0 = b0 + nb;
                let next_nb = slab.min(nfull.saturating_sub(next_b0));
                if next_nb > 0 {
                    // phase A of the next slab, ahead of this phase B
                    march(cols, 1 - cur, next_b0, next_nb);
                }
                // phase B: per z, horizontal fold + weighted transpose
                let pane = cur * pane_len;
                let next_pane = (1 - cur) * pane_len;
                for zi in 0..nz {
                    let z = z0 + zi;
                    // sweep-edge columns, once per z and shared by all
                    // nb blocks (the fused assemble step); interior
                    // slab boundaries use carry / the pipelined pane
                    let mut ltail = [[V::zero(); MAX_R3]; MAX_F];
                    let mut rhead = [[V::zero(); MAX_R3]; MAX_F];
                    for kk in 0..R {
                        for (u, &id) in k.used_ids().iter().enumerate() {
                            ltail[u][kk] = if b0 == 0 {
                                scalar_col_3d::<V>(k, s, sy, sz, z, y, sxlo - R + kk, id)
                            } else {
                                carry[zi * nids + u][kk]
                            };
                            rhead[u][kk] = if next_nb > 0 {
                                cols[next_pane + zi * nids + u][kk]
                            } else {
                                scalar_col_3d::<V>(k, s, sy, sz, z, y, sxlo + nb * vl + kk, id)
                            };
                        }
                    }
                    let d = dst.as_mut_slice();
                    for b in 0..nb {
                        let bx = sxlo + b * vl;
                        let mut out = [V::zero(); 8];
                        for (kk, o) in out[..vl].iter_mut().enumerate() {
                            let mut acc = V::zero();
                            for dxi in 0..2 * R + 1 {
                                let pos = kk as isize + dxi as isize - R as isize;
                                for &(u, cv) in &pv.hcols[dxi] {
                                    let col = if pos < 0 {
                                        if b == 0 {
                                            ltail[u][(pos + R as isize) as usize]
                                        } else {
                                            cols[pane + ((b - 1) * depth + zi) * nids + u]
                                                [(pos + vl as isize) as usize]
                                        }
                                    } else if (pos as usize) < vl {
                                        cols[pane + (b * depth + zi) * nids + u][pos as usize]
                                    } else if b + 1 < nb {
                                        cols[pane + ((b + 1) * depth + zi) * nids + u]
                                            [pos as usize - vl]
                                    } else {
                                        rhead[u][pos as usize - vl]
                                    };
                                    acc = col.mul_add(cv, acc);
                                }
                            }
                            *o = acc;
                        }
                        V::transpose(&mut out[..vl]);
                        for (j, o) in out[..vl].iter().enumerate() {
                            // SAFETY: in-bounds by the range contract.
                            unsafe { o.store(d.as_mut_ptr().add(z * sz + (y + j) * sy + bx)) };
                        }
                    }
                    // refresh the carry for the next slab (read above,
                    // so same-strip ordering is safe)
                    for u in 0..nids {
                        let last = &cols[pane + ((nb - 1) * depth + zi) * nids + u];
                        for kk in 0..R {
                            carry[zi * nids + u][kk] = last[vl - R + kk];
                        }
                    }
                }
                cur = 1 - cur;
                b0 = next_b0;
            }
            z0 += nz;
        }
        if xlo + nfull * vl < xhi {
            crate::exec::scalar::step_range_3d(
                src,
                dst,
                k.folded(),
                zs.clone(),
                y..y + vl,
                xlo + nfull * vl..xhi,
            );
        }
        y += vl;
    }
    if y < ys.end {
        crate::exec::scalar::step_range_3d(src, dst, k.folded(), zs.clone(), y..ys.end, xs);
    }
    put_scratch(scratch);
}

/// Load the `(vl + 2R)` row vectors of plane `zp` at `(y0, bx)`.
#[inline(always)]
fn load_plane<V: SimdF64, const R: usize>(
    plane: &mut [V; 8 + 2 * MAX_R3],
    s: &[f64],
    sy: usize,
    sz: usize,
    zp: usize,
    y0: usize,
    bx: usize,
) {
    let vl = V::LANES;
    for (t, rv) in plane[..vl + 2 * R].iter_mut().enumerate() {
        // SAFETY: caller keeps the block R away from grid edges.
        *rv = unsafe { V::load(s.as_ptr().add(zp * sz + (y0 - R + t) * sy + bx)) };
    }
}

/// Generic z-march: ring of raw plane rows, full `(dz, dy)` vertical
/// fold per output z, in the counterpart schedule's tap order.
#[inline(always)]
fn march_gen<V: SimdF64, const R: usize>(
    k: &FoldedKernel,
    pv: &PlanV<V>,
    s: &[f64],
    sy: usize,
    sz: usize,
    z0: usize,
    nz: usize,
    y0: usize,
    bx: usize,
    nids: usize,
    out: &mut [[V; 8]],
) {
    let vl = V::LANES;
    let side = 2 * R + 1;
    let mut ring = [[V::zero(); 8 + 2 * MAX_R3]; 2 * MAX_R3 + 1];
    // prime the 2R planes behind the first output; the march loads the
    // one entering plane per step
    for zp in z0 - R..z0 + R {
        load_plane::<V, R>(&mut ring[zp % side], s, sy, sz, zp, y0, bx);
    }
    for zi in 0..nz {
        let z = z0 + zi;
        load_plane::<V, R>(&mut ring[(z + R) % side], s, sy, sz, z + R, y0, bx);
        for (u, &id) in k.used_ids().iter().enumerate() {
            let mut rows = [V::zero(); 8];
            if id == 0 {
                rows[..vl].copy_from_slice(&ring[z % side][R..R + vl]);
            } else {
                for (j, row) in rows[..vl].iter_mut().enumerate() {
                    let mut acc = V::zero();
                    for &(slab, wv) in &pv.taps[id] {
                        let (pz, py) = (slab / side, slab % side);
                        acc = ring[(z - R + pz) % side][j + py].mul_add(wv, acc);
                    }
                    *row = acc;
                }
            }
            V::transpose(&mut rows[..vl]);
            out[zi * nids + u] = rows;
        }
    }
}

/// Splatted rank-1 factorization `taps[dz][dy] = wz[dz] * wy[dy]` of a
/// separable single-counterpart schedule.
struct SepV<V, const R: usize> {
    wy: [V; 2 * MAX_R3 + 1],
    wz: [V; 2 * MAX_R3 + 1],
}

impl<V: SimdF64, const R: usize> SepV<V, R> {
    /// Detect a rank-1 `(dz, dy)` tap matrix (uniform boxes and their
    /// folds). Requires the plan to be separable in the Fig.-5 sense
    /// (single dense counterpart) *and* the tap matrix to factor exactly
    /// to rounding; anything else runs the generic march.
    fn detect(k: &FoldedKernel) -> Option<Self> {
        if k.folded().dims() != 3 || !k.is_separable() {
            return None;
        }
        let side = 2 * R + 1;
        let taps = &k.taps_by_id()[1];
        debug_assert_eq!(taps.len(), side * side);
        let m = |dz: usize, dy: usize| taps[dz * side + dy].1;
        let (mut pz, mut py, mut piv) = (0usize, 0usize, 0.0f64);
        for dz in 0..side {
            for dy in 0..side {
                if m(dz, dy).abs() > piv.abs() {
                    (pz, py, piv) = (dz, dy, m(dz, dy));
                }
            }
        }
        if piv == 0.0 {
            return None;
        }
        let mut wy = [0.0f64; 2 * MAX_R3 + 1];
        let mut wz = [0.0f64; 2 * MAX_R3 + 1];
        for dy in 0..side {
            wy[dy] = m(pz, dy);
        }
        for dz in 0..side {
            wz[dz] = m(dz, py) / piv;
        }
        let tol = 1e-12 * piv.abs().max(1.0);
        for dz in 0..side {
            for dy in 0..side {
                if (wz[dz] * wy[dy] - m(dz, dy)).abs() > tol {
                    return None;
                }
            }
        }
        let mut out = SepV {
            wy: [V::zero(); 2 * MAX_R3 + 1],
            wz: [V::zero(); 2 * MAX_R3 + 1],
        };
        for i in 0..side {
            out.wy[i] = V::splat(wy[i]);
            out.wz[i] = V::splat(wz[i]);
        }
        Some(out)
    }
}

/// Dy-fold plane `zp`'s rows with `wy` into `g[j] = Σ_dy wy[dy] ·
/// row(zp, y0 + j + dy)` — done once per plane entry, reused by the
/// `2R+1` outputs the plane participates in.
#[inline(always)]
fn fold_plane_y<V: SimdF64, const R: usize>(
    g: &mut [V; 8],
    sv: &SepV<V, R>,
    s: &[f64],
    sy: usize,
    sz: usize,
    zp: usize,
    y0: usize,
    bx: usize,
) {
    let vl = V::LANES;
    let mut rowvec = [V::zero(); 8 + 2 * MAX_R3];
    load_plane::<V, R>(&mut rowvec, s, sy, sz, zp, y0, bx);
    for (j, gj) in g[..vl].iter_mut().enumerate() {
        let mut acc = rowvec[j].mul(sv.wy[0]);
        for t in 1..2 * R + 1 {
            acc = rowvec[j + t].mul_add(sv.wy[t], acc);
        }
        *gj = acc;
    }
}

/// Separable z-march: ring of y-prefolded plane rows, dz-fold per output
/// z — `2(2R+1)` vertical mul-adds per row instead of `(2R+1)²`.
#[inline(always)]
fn march_sep<V: SimdF64, const R: usize>(
    sv: &SepV<V, R>,
    s: &[f64],
    sy: usize,
    sz: usize,
    z0: usize,
    nz: usize,
    y0: usize,
    bx: usize,
    out: &mut [[V; 8]],
) {
    let vl = V::LANES;
    let side = 2 * R + 1;
    let mut ring = [[V::zero(); 8]; 2 * MAX_R3 + 1];
    for zp in z0 - R..z0 + R {
        fold_plane_y::<V, R>(&mut ring[zp % side], sv, s, sy, sz, zp, y0, bx);
    }
    for zi in 0..nz {
        let z = z0 + zi;
        fold_plane_y::<V, R>(&mut ring[(z + R) % side], sv, s, sy, sz, z + R, y0, bx);
        let mut rows = [V::zero(); 8];
        for (j, row) in rows[..vl].iter_mut().enumerate() {
            let mut acc = ring[(z - R) % side][j].mul(sv.wz[0]);
            for dz in 1..side {
                acc = ring[(z - R + dz) % side][j].mul_add(sv.wz[dz], acc);
            }
            *row = acc;
        }
        V::transpose(&mut rows[..vl]);
        // single dense counterpart: nids == 1
        out[zi] = rows;
    }
}

/// Full folded 3D step through the z-ring pipeline (Dirichlet band of
/// width `R`). Grids too small to hold an interior degenerate to a copy.
pub fn step_3d_ring<V: SimdF64>(k: &FoldedKernel, ring: Ring3, src: &Grid3D, dst: &mut Grid3D) {
    let (nz, ny, nx) = (src.nz(), src.ny(), src.nx());
    let rr = k.radius();
    if nz <= 2 * rr || ny <= 2 * rr || nx <= 2 * rr {
        for z in 0..nz {
            for y in 0..ny {
                dst.row_mut(z, y).copy_from_slice(src.row(z, y));
            }
        }
        return;
    }
    for z in 0..nz {
        for y in 0..ny {
            let interior = z >= rr && z < nz - rr && y >= rr && y < ny - rr;
            if !interior {
                dst.row_mut(z, y).copy_from_slice(src.row(z, y));
            } else {
                let srow = src.row(z, y);
                let drow = dst.row_mut(z, y);
                drow[..rr].copy_from_slice(&srow[..rr]);
                drow[nx - rr..].copy_from_slice(&srow[nx - rr..]);
            }
        }
    }
    step_range_3d_ring::<V>(k, ring, src, dst, rr..nz - rr, rr..ny - rr, rr..nx - rr);
}

/// Block-free "Our (m steps)" 3D sweep through the z-ring pipeline, with
/// the planned kernel supplied by the caller (the compile-once/run-many
/// entry point, cf. [`crate::exec::folded::sweep_2d_with`]). Leftover
/// `t % m` steps run unfolded through the multiple-loads kernel.
pub fn sweep_3d_ring_with<V: SimdF64>(
    k: &FoldedKernel,
    ring: Ring3,
    grid: &Grid3D,
    p: &Pattern,
    t: usize,
) -> Grid3D {
    let m = k.m();
    let mut pp = PingPong::new(grid.clone());
    for _ in 0..t / m {
        let (src, dst) = pp.src_dst();
        step_3d_ring::<V>(k, ring, src, dst);
        pp.swap_folded(m);
    }
    for _ in 0..t % m {
        let (src, dst) = pp.src_dst();
        crate::exec::multiload::step_3d::<V>(src, dst, p);
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
    use stencil_grid::max_abs_diff;
    use stencil_simd::{NativeF64x4, NativeF64x8};

    fn scalar_folded_3d(g: &Grid3D, p: &Pattern, m: usize, steps: usize) -> Grid3D {
        let f = fold(p, m);
        let mut pp = PingPong::new(g.clone());
        scalar::sweep_3d(&mut pp, &f, steps);
        pp.into_current()
    }

    #[test]
    fn ring_matches_scalar_folded() {
        for p in [kernels::heat3d(), kernels::box3d27p()] {
            for m in [1usize, 2] {
                let k = FoldedKernel::new(&p, m);
                let g = Grid3D::from_fn(18, 15, 22, |z, y, x| ((z * 3 + y * 7 + x) % 13) as f64);
                let want = scalar_folded_3d(&g, &p, m, 2);
                let got = sweep_3d_ring_with::<NativeF64x4>(&k, Ring3::default(), &g, &p, 2 * m);
                assert!(
                    max_abs_diff(&want.to_dense(), &got.to_dense()) < 1e-10,
                    "m={m} pts={}",
                    p.points()
                );
            }
        }
    }

    #[test]
    fn ring_geometry_does_not_change_results() {
        // strip/slab phase must never leak into the arithmetic: every
        // geometry produces the same field (to rounding at slab edges)
        let p = kernels::box3d27p();
        let k = FoldedKernel::new(&p, 2);
        let g = Grid3D::from_fn(20, 17, 25, |z, y, x| {
            ((z + 2 * y + 3 * x) % 23) as f64 * 0.4
        });
        let want = scalar_folded_3d(&g, &p, 2, 3);
        for ring in [
            Ring3 { depth: 1, slab: 1 },
            Ring3 { depth: 2, slab: 3 },
            Ring3 { depth: 8, slab: 4 },
            Ring3 {
                depth: 64,
                slab: 32,
            },
        ] {
            let got = sweep_3d_ring_with::<NativeF64x4>(&k, ring, &g, &p, 6);
            assert!(
                max_abs_diff(&want.to_dense(), &got.to_dense()) < 1e-10,
                "{ring:?}"
            );
        }
    }

    #[test]
    fn ring_radius2_pattern_folds_to_radius_4() {
        // a radius-2 uniform box folded twice: R = 4 — the deeper window
        // MAX_R3 = 4 exists for
        let p = Pattern::new_3d(2, &[1.0 / 125.0; 125]);
        for (m, w8) in [(1usize, false), (2, false), (2, true)] {
            let k = FoldedKernel::new(&p, m);
            assert!(k.radius() <= MAX_R3);
            let g = Grid3D::from_fn(26, 24, 28, |z, y, x| ((z * 7 + y + x * 5) % 19) as f64);
            let want = scalar_folded_3d(&g, &p, m, 2);
            let got = if w8 {
                sweep_3d_ring_with::<NativeF64x8>(&k, Ring3::auto(8, k.radius()), &g, &p, 2 * m)
            } else {
                sweep_3d_ring_with::<NativeF64x4>(&k, Ring3::auto(4, k.radius()), &g, &p, 2 * m)
            };
            assert!(
                max_abs_diff(&want.to_dense(), &got.to_dense()) < 1e-10,
                "m={m} w8={w8}"
            );
        }
    }

    #[test]
    fn separable_factorization_detected_for_boxes_only() {
        let box3 = FoldedKernel::new(&kernels::box3d27p(), 2);
        assert!(SepV::<NativeF64x4, 2>::detect(&box3).is_some());
        let star = FoldedKernel::new(&kernels::heat3d(), 2);
        assert!(SepV::<NativeF64x4, 2>::detect(&star).is_none());
    }

    #[test]
    fn narrow_ranges_and_widths_fall_back_without_panic() {
        let p = kernels::box3d27p();
        let k = FoldedKernel::new(&p, 2);
        let g = Grid3D::from_fn(12, 12, 12, |z, y, x| (z * 144 + y * 12 + x) as f64);
        let mut dst = g.clone();
        // ranges narrower than a vector exercise the scalar paths
        step_range_3d_ring::<NativeF64x4>(&k, Ring3::default(), &g, &mut dst, 3..5, 2..5, 2..5);
        let mut want = g.clone();
        scalar::step_range_3d(&g, &mut want, k.folded(), 3..5, 2..5, 2..5);
        assert!(max_abs_diff(&want.to_dense(), &dst.to_dense()) < 1e-12);
        // scalar lanes: whole call degrades to the scalar sweep
        let mut dst1 = g.clone();
        step_range_3d_ring::<f64>(&k, Ring3::default(), &g, &mut dst1, 3..9, 2..10, 2..10);
        let mut want1 = g.clone();
        scalar::step_range_3d(&g, &mut want1, k.folded(), 3..9, 2..10, 2..10);
        assert!(max_abs_diff(&want1.to_dense(), &dst1.to_dense()) < 1e-12);
    }

    #[test]
    fn tiny_grids_degenerate_to_copy() {
        let p = Pattern::new_3d(2, &[1.0 / 125.0; 125]);
        let k = FoldedKernel::new(&p, 2); // R = 4
        let g = Grid3D::from_fn(6, 6, 6, |z, y, x| (z + y + x) as f64);
        let mut dst = Grid3D::zeros(6, 6, 6);
        step_3d_ring::<NativeF64x4>(&k, Ring3::default(), &g, &mut dst);
        assert!(max_abs_diff(&g.to_dense(), &dst.to_dense()) < 1e-15);
    }
}
