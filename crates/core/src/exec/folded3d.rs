//! The register pipeline — the paper's §3.3 folded executor for 2D and 3D
//! grids in the original layout: vertical fold of each `vl × vl` block in
//! registers, register transpose (§2.3) into per-x counterpart columns,
//! horizontal fold, weighted transpose back. One kernel serves both
//! dimensionalities: it marches along `z`, and a 2D grid is the volume
//! that is one plane deep ([`crate::exec::folded::step_range_2d`]).
//!
//! * **Z-plane rotation** — for each x-block the `2R+1` planes the
//!   vertical fold reads live in a rotating ring (`slot = z mod (2R+1)`)
//!   of stack-resident row vectors. Each step of the march loads only
//!   the one newly-entering plane, turning `~(2R+1)×` redundant plane
//!   loads into `~1×`. On one plane the ring is that plane's one slot,
//!   nothing is primed and the `(dz, dy)` taps all have `dz = 0`.
//! * **Separable two-stage fold** — when the counterpart schedule is
//!   rank-1 (uniform boxes, Fig. 5) and its `(dz, dy)` tap matrix
//!   factors as `wz ⊗ wy`, the ring holds *y-prefolded* plane rows:
//!   each plane is dy-folded once on entry and reused by the `2R+1`
//!   consecutive z outputs it participates in — the arithmetic analogue
//!   of the load reuse (`(2R+1)²` → `2(2R+1)` vertical mul-adds per
//!   row). On one plane `wz = [1]`: the dy-fold is the counterpart row.
//!   Such a schedule is dense in `x` too, so both halves of its fold run
//!   const-trip loops over hoisted weights.
//! * **One halo-inclusive column pane** — the transposed counterpart
//!   columns of `x ∈ [xlo − R, xhi + R)`, halo included, are produced
//!   by `vl`-wide vector block marches alone and shared by every output
//!   block that reads them (§3.4's shifts reuse: each column is computed
//!   once). Where the width is not a multiple of `vl` the last block is
//!   *shifted back* to end at the range edge (in `x` and in `y`), so it
//!   recomputes a few columns instead of falling to scalar code: no
//!   column, edge or remainder is ever assembled from scalar loads.
//!
//! The sweep is organized as y-block → z-strip ([`Ring3::depth`]
//! outputs) → x-slab ([`Ring3::slab`] vector blocks): phase A marches
//! the slab's blocks through the ring into the pane
//! (`pane[(zi · nids + u) · pw + (x − org)]`, one vector of `vl` rows per
//! column; consecutive slabs keep the columns they share), phase B runs
//! the horizontal fold + weighted transpose over it at one uniform
//! index. A call's pane follows its clamped geometry —
//! `depth.min(nz) × nids × (slab.min(nblk) · vl + 2R)` vectors of
//! `8 · vl` bytes, 15 KiB for a 3-counterpart plan at [`Ring3::auto`] —
//! and is the head of a per-thread scratch allocated once at 32 KiB, so
//! a warmed-up call allocates nothing and a thread that alternates
//! plans never reallocates. Both knobs are part of the measured tuner's 3D candidate
//! space; on one plane the depth is 1 and the slab derived from the same
//! budget. The schedule itself is flattened once at plan time
//! ([`FoldedKernel::from_plan`]); the generic loops walk its taps
//! outermost with the `vl` rows/columns of a block innermost.
//!
//! **One guard, one contract.** `vector_sched` decides per range call:
//! ranges narrower than one vector in `x` or `y` (and the degenerate
//! widths the Plan API never produces) run the scalar folded sweep
//! whole. Every other call reaches `step_ring_r`, whose one `assert!`
//! bounds every raw load and store of both dimensionalities. A plan
//! calls the range kernel on its tiles, block-free runs being the one
//! tile of the whole interior; the tiling driver never calls it on a
//! grid with no interior, where every step is the identity.
//!
//! **Range independence.** Every output is one fixed chain of fused
//! multiply-adds over its own inputs — the same chain whichever block,
//! slab, strip or call produces it. So any partition of a region into
//! ranges at least `vl` wide in `x` and `y` yields identical bits
//! (overlapped blocks merely rewrite them), in 2D and in 3D, which is
//! what bit-exact domain sharding (serve), static partitions and
//! out-of-core windows rely on — and what makes a 3D tessellate tile
//! (`z` cut, `y` and `x` whole) bit-identical to the block-free tile.
//! Ranges narrower than one vector in `x` or `y` — the tips of 2D
//! tessellate's inverted tiles, `y` being the cut axis there — agree to
//! rounding only.

#![allow(clippy::needless_range_loop)]
// offset windows (plane[j + dy]) mirror the paper's notation
#![allow(clippy::too_many_arguments)]
// kernel entry points mirror the (plan, grid, strides, block) sets

use crate::exec::folded::{separable, FoldedKernel, MAX_R, MAX_R3};
use crate::plan::FoldPlan;
use core::any::{Any, TypeId};
use core::cell::RefCell;
use core::ops::Range;
use std::collections::HashMap;
use stencil_grid::{Grid2D, Grid3D};
use stencil_simd::SimdF64;

/// Largest z-strip depth the pipeline accepts.
pub const MAX_RING_DEPTH: usize = 64;
/// Largest x-slab width (in vector blocks) the pipeline accepts.
pub const MAX_RING_SLAB: usize = 32;

/// Geometry of the z-ring pipeline: how many consecutive z outputs one
/// ring march produces before the column pane is drained (`depth`), and
/// how many x vector blocks share one pane (`slab`). Both bound the
/// pane's footprint (`depth × counterparts × (slab · vl + 2R)` vectors),
/// which should stay L1-resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ring3 {
    /// Z-strip length (consecutive z outputs per ring march), `>= 1`.
    pub depth: usize,
    /// X-slab width in vector blocks, `>= 1`.
    pub slab: usize,
}

impl Ring3 {
    /// Static default for `lanes`-wide vectors and folded radius
    /// `radius`, sized from the pane formula `depth × nids × (slab ·
    /// lanes + 2 · radius) × 8 · lanes` bytes: a 3-counterpart star fold
    /// (`nids = 3`, radius 2) takes 8 × 3 × 20 × 32 B = 15 KiB at 4
    /// lanes and 30 KiB at 8, and every Table-1 3D kernel at every fold
    /// the cap admits stays within 32 KiB (pinned by a unit test) — the
    /// pane fits L1 beside the ring. The measured tuner probes
    /// neighbors of this point.
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

/// Weights of one axis of a separable vertical fold (`2R+1` used).
type AxisTaps = [f64; 2 * MAX_R3 + 1];

/// The vertical half of a 2D or 3D plan's schedule as plain index tables
/// — flattened once in [`FoldedKernel::from_plan`], so a kernel call
/// re-derives and allocates nothing.
pub(crate) struct Sched {
    /// `(dz index, dy index, weight)` vertical taps of every used id,
    /// concatenated in dense order; `dz index ≡ 0` in 2D.
    vtaps: Vec<(usize, usize, f64)>,
    /// `vtaps[vspan[u]..vspan[u + 1]]` belong to dense id `u` (an empty
    /// span for the raw-square basis, which is copied, not folded).
    vspan: Vec<usize>,
    /// Rank-1 factorization `taps[dz][dy] = wz[dz] * wy[dy]` of a
    /// separable single-counterpart schedule, as `(wy, wz)`; `wz = [1]`
    /// in 2D, where the taps are the one row `dz = 0`.
    sep: Option<(AxisTaps, AxisTaps)>,
}

impl Sched {
    /// Flatten the schedule of a 2D plan with `radius <= MAX_R` or a 3D
    /// one with `radius <= MAX_R3`; `used_ids` are the fresh ids its
    /// horizontal terms refer to, in dense order.
    pub(crate) fn new(plan: &FoldPlan, used_ids: &[usize]) -> Self {
        let side = 2 * plan.radius + 1;
        let mut vtaps = Vec::new();
        let mut vspan = vec![0];
        for &id in used_ids {
            if id != 0 {
                // slab index = dz · side + dy; a 2D slab is its dy
                let split = |&(slab, w): &(usize, f64)| (slab / side, slab % side, w);
                vtaps.extend(plan.fold_taps(id).iter().map(split));
            }
            vspan.push(vtaps.len());
        }
        // separable in the Fig.-5 sense (single dense counterpart)
        // *and* a (dz, dy) tap matrix that factors, within the radius
        // the separable march is monomorphized for; anything else runs
        // the generic march
        let side_z = if plan.dims == 3 { side } else { 1 };
        let sep = (plan.radius <= MAX_R3 && separable(plan))
            .then(|| factor_rank1(&plan.fold_taps(1), side_z, side))
            .flatten();
        Self { vtaps, vspan, sep }
    }

    /// Dense counterparts the plan uses.
    #[inline(always)]
    fn nids(&self) -> usize {
        self.vspan.len() - 1
    }

    /// Vertical taps of dense id `u`; empty for the raw-square basis.
    #[inline(always)]
    fn vtaps(&self, u: usize) -> &[(usize, usize, f64)] {
        &self.vtaps[self.vspan[u]..self.vspan[u + 1]]
    }
}

/// Factor a dense `side_z × side` tap matrix (`dz`-major) as `wz ⊗ wy`
/// (uniform boxes and their folds); `None` unless it factors exactly to
/// rounding. The one-row matrix of a 2D plan factors as `[1] ⊗ taps`.
fn factor_rank1(taps: &[(usize, f64)], side_z: usize, side: usize) -> Option<(AxisTaps, AxisTaps)> {
    debug_assert_eq!(taps.len(), side_z * side);
    let m = |dz: usize, dy: usize| taps[dz * side + dy].1;
    let (mut pz, mut py, mut piv) = (0usize, 0usize, 0.0f64);
    for dz in 0..side_z {
        for dy in 0..side {
            if m(dz, dy).abs() > piv.abs() {
                (pz, py, piv) = (dz, dy, m(dz, dy));
            }
        }
    }
    if piv == 0.0 {
        return None;
    }
    let (mut wy, mut wz) = ([0.0; 2 * MAX_R3 + 1], [0.0; 2 * MAX_R3 + 1]);
    for dy in 0..side {
        wy[dy] = m(pz, dy);
    }
    for dz in 0..side_z {
        wz[dz] = m(dz, py) / piv;
    }
    let tol = 1e-12 * piv.abs().max(1.0);
    for dz in 0..side_z {
        for dy in 0..side {
            if (wz[dz] * wy[dy] - m(dz, dy)).abs() > tol {
                return None;
            }
        }
    }
    Some((wy, wz))
}

/// The plan's flat schedule when the register pipeline can run the range
/// `ys × xs` at width `V`; `None` sends the call to the scalar folded
/// sweep — ranges narrower than one vector in `x` or `y`, and the
/// degenerate widths and out-of-bound radii the Plan API never produces
/// (scalar lanes, `R` wider than the vector or past the pipeline's cap).
/// The one guard of both dimensionalities.
pub(crate) fn vector_sched<'k, V: SimdF64>(
    k: &'k FoldedKernel,
    ys: &Range<usize>,
    xs: &Range<usize>,
) -> Option<&'k Sched> {
    let (vl, rr) = (V::LANES, k.radius());
    k.sched()
        .filter(|_| rr >= 1 && vl >= rr.max(2) && xs.len() >= vl && ys.len() >= vl)
}

/// One folded step on the cuboid `zs × ys × xs` of a 3D grid through the
/// z-ring pipeline. Range-kernel contract of the tiling drivers: writes
/// exactly the region, reads within `R` of it, caller keeps the region
/// `R` from the grid boundary (checked). Ranges narrower than one vector
/// in `x` or `y`, degenerate widths and out-of-bound radii (the latter
/// two unreachable through the Plan API) run the scalar folded sweep —
/// no panic.
#[inline(always)]
pub fn step_range_3d_ring<V: SimdF64>(
    k: &FoldedKernel,
    ring: Ring3,
    src: &Grid3D,
    dst: &mut Grid3D,
    zs: Range<usize>,
    ys: Range<usize>,
    xs: Range<usize>,
) {
    debug_assert!(
        k.radius() <= MAX_R3 && k.folded().dims() == 3,
        "validated by Solver::compile"
    );
    let Some(sched) = vector_sched::<V>(k, &ys, &xs) else {
        return crate::exec::scalar::step_range_3d(src, dst, k.folded(), zs, ys, xs);
    };
    let view = View::volume(src, dst);
    // monomorphize on the folded radius: constant ring/window trip counts
    match k.radius() {
        1 => step_ring_r::<V, 1, 1>(k, sched, ring, view, zs, ys, xs),
        2 => step_ring_r::<V, 2, 2>(k, sched, ring, view, zs, ys, xs),
        3 => step_ring_r::<V, 3, 3>(k, sched, ring, view, zs, ys, xs),
        _ => step_ring_r::<V, 4, 4>(k, sched, ring, view, zs, ys, xs),
    }
}

thread_local! {
    /// Per-worker column panes, keyed by the SIMD backend type the
    /// kernel is monomorphized over. Thread-local so the tessellate path
    /// — many small trapezoid tile calls per worker per sweep — pays no
    /// heap traffic per tile.
    static SCRATCH: RefCell<HashMap<TypeId, Box<dyn Any>>> = RefCell::new(HashMap::new());
}

/// What a thread's pane is first allocated at: the bound every
/// [`Ring3::auto`] geometry stays within, 2D and 3D. The buffer outlives
/// every run, so it must not be reallocated between a run's transient
/// surfaces as plans of growing footprint take their turn on the thread:
/// each regrowth lands in a hole those surfaces cycle through, the
/// largest pair ends up on top of the heap and is trimmed and
/// page-faulted back on every run (measured on `blockfree_1t`: 134
/// faults per operation, 3D cells −25 %).
const PANE_BYTES: usize = 32 << 10;

/// Run `f` over `len` vectors of this thread's pane for backend `V`,
/// allocated on first use at [`PANE_BYTES`] and grown only by a geometry
/// pinned beyond the default's bound. Checkout semantics — the box leaves the
/// map for the duration of `f` and the *same* box goes back — keep the
/// `RefCell` borrow scoped to the map access alone, so no reachable call
/// graph can observe it borrowed, and a warmed-up call allocates
/// nothing. Contents are whatever the previous call left: every entry
/// phase B reads was written by this call's phase A first.
#[inline(always)]
fn with_pane<V: SimdF64>(len: usize, f: impl FnOnce(&mut [V])) {
    let key = TypeId::of::<V>();
    let mut boxed = SCRATCH
        .with(|cell| cell.borrow_mut().remove(&key))
        .unwrap_or_else(|| Box::new(Vec::<V>::new()));
    let pane = boxed
        .downcast_mut::<Vec<V>>()
        .expect("scratch entries are keyed by their element type");
    if pane.len() < len {
        // exact growth: the footprint is the larger of the bound and the
        // formula, not a doubling
        let grown = len.max(PANE_BYTES / core::mem::size_of::<V>());
        pane.reserve_exact(grown - pane.len());
        pane.resize(grown, V::zero());
    }
    f(&mut pane[..len]);
    SCRATCH.with(|cell| cell.borrow_mut().insert(key, boxed));
}

/// `(bytes, buffer address)` of this thread's pane for backend `V`.
#[cfg(test)]
fn pane_footprint<V: SimdF64>() -> (usize, usize) {
    SCRATCH.with(|cell| {
        let map = cell.borrow();
        let pane = map
            .get(&TypeId::of::<V>())
            .and_then(|b| b.downcast_ref::<Vec<V>>());
        pane.map_or((0, 0), |p| {
            (
                p.capacity() * core::mem::size_of::<V>(),
                p.as_ptr() as usize,
            )
        })
    })
}

/// The two surfaces of a range call as the pipeline addresses them —
/// `(z, y, x)` at `z · sz + y · sy + x` — so that one kernel, one contract
/// `assert!` and one set of `SAFETY` arguments serve both
/// dimensionalities: a [`Grid3D`] as it is, a [`Grid2D`] as the single
/// plane `z = 0`.
pub(crate) struct View<'a> {
    src: &'a [f64],
    dst: &'a mut [f64],
    /// `[nz, ny, nx, sy, sz]` of `src` and of `dst`.
    shape: [[usize; 5]; 2],
}

impl<'a> View<'a> {
    pub(crate) fn plane(src: &'a Grid2D, dst: &'a mut Grid2D) -> Self {
        let shape = |g: &Grid2D| [1, g.ny(), g.nx(), g.stride(), g.ny() * g.stride()];
        Self {
            shape: [shape(src), shape(dst)],
            src: src.as_slice(),
            dst: dst.as_mut_slice(),
        }
    }

    fn volume(src: &'a Grid3D, dst: &'a mut Grid3D) -> Self {
        let shape = |g: &Grid3D| [g.nz(), g.ny(), g.nx(), g.stride_y(), g.stride_z()];
        Self {
            shape: [shape(src), shape(dst)],
            src: src.as_slice(),
            dst: dst.as_mut_slice(),
        }
    }
}

/// Vectors in the ring of one block march: `2·RZ + 1` plane slots of
/// `vl + 2R` row vectors each — 9 × 16 at the 3D cap, one slot of up to
/// 24 at the 2D cap. Owned by [`step_ring_r`] and reused by every march
/// of the call (a slot is always loaded before it is read).
const RING_VECS: usize = (8 + 2 * MAX_R3) * (2 * MAX_R3 + 1);
const _: () = assert!(8 + 2 * MAX_R <= RING_VECS);
type PlaneRing<V> = [V; RING_VECS];

/// The pipeline at folded radius `R` (`0`: read it from the plan — the
/// 2D folds of radius 5..=8, which only 8-lane vectors admit) and
/// z-radius `RZ`: `R` for a volume, `0` for a plane, whose ring is the
/// one slot of the plane itself, `zs = 0..1`.
#[inline(always)]
pub(crate) fn step_ring_r<V: SimdF64, const R: usize, const RZ: usize>(
    k: &FoldedKernel,
    sched: &Sched,
    ring: Ring3,
    view: View<'_>,
    zs: Range<usize>,
    ys: Range<usize>,
    xs: Range<usize>,
) {
    if zs.is_empty() {
        return;
    }
    let vl = V::LANES;
    let rr = if R == 0 { k.radius() } else { R };
    let View {
        src,
        dst: d,
        shape: [[gz, gy, gx, sy, sz], dst_shape],
    } = view;
    // every raw load and store below is inside `[start − R, end + R)` of
    // the three ranges, on surfaces of one shape, and every vector block
    // fits its range
    assert!(
        zs.start >= RZ
            && ys.start >= rr
            && xs.start >= rr
            && zs.end + RZ <= gz
            && ys.end + rr <= gy
            && xs.end + rr <= gx
            && ys.len() >= vl
            && xs.len() >= vl
            && dst_shape == [gz, gy, gx, sy, sz]
            && (gz - 1) * sz + (gy - 1) * sy + gx <= src.len().min(d.len()),
        "range kernel contract: region R from the boundary, equal shapes"
    );
    let nids = sched.nids();
    let hterms = k.hterms();
    // vector blocks tile each axis from its start; where the width is
    // ragged the last one is shifted back to end at the range edge
    let nblk = xs.len().div_ceil(vl);
    let block_x = |b: usize| (xs.start + b * vl).min(xs.end - vl);
    // clamp the pane to the region actually covered: tessellate hands
    // this kernel small trapezoid tiles, and the footprint must follow
    // the tile, not the configured maxima
    let depth = ring.depth.clamp(1, MAX_RING_DEPTH).min(zs.len());
    let slab = ring.slab.clamp(1, MAX_RING_SLAB).min(nblk);
    let pw = slab * vl + 2 * rr;
    let mut planes: PlaneRing<V> = [V::zero(); RING_VECS];
    // a separable schedule is dense in x as well — one term of the one
    // counterpart per offset (`FoldedKernel::is_separable`): its
    // horizontal fold runs const-trip over weights splatted once
    // (`R > 0` always holds for one: it only tells the runtime-radius
    // instantiation that its const-trip paths are dead)
    let sep = sched.sep.as_ref().filter(|_| R > 0);
    let mut hw = [V::zero(); 2 * MAX_R3 + 1];
    if sep.is_some() {
        for (w, &(_, _, c)) in hw.iter_mut().zip(hterms) {
            *w = V::splat(c);
        }
    }

    // inlined like the rest, or its intrinsics compile out of line
    with_pane::<V>(
        depth * nids * pw,
        #[inline(always)]
        |pane| {
            for yb in 0..ys.len().div_ceil(vl) {
                let y = (ys.start + yb * vl).min(ys.end - vl);
                for z0 in zs.clone().step_by(depth) {
                    let nz = depth.min(zs.end - z0);
                    // the pane holds columns `[org, have)` of x
                    let (mut org, mut have) = (0usize, 0usize);
                    for b0 in (0..nblk).step_by(slab) {
                        let nb = slab.min(nblk - b0);
                        let (sx0, sx1) = (block_x(b0), block_x(b0 + nb - 1) + vl);
                        // phase A: columns [sx0 − R, sx1 + R). Later slabs
                        // keep what the previous one already produced — its
                        // last 2R columns, more when a lone ragged block was
                        // shifted back into it.
                        let c_hi = sx1 + rr;
                        let c_lo = if b0 == 0 {
                            sx0 - rr
                        } else {
                            let (from, n) = (sx0 - rr - org, have - (sx0 - rr));
                            for row in 0..nz * nids {
                                pane.copy_within(row * pw + from..row * pw + from + n, row * pw);
                            }
                            have
                        };
                        (org, have) = (sx0 - rr, c_hi);
                        for a in (c_lo..c_hi).step_by(vl) {
                            let bx = a.min(c_hi - vl);
                            let blk = Block { src, sy, sz, y, bx };
                            let cols = &mut pane[bx - org..];
                            match sep {
                                Some(w) => {
                                    march_sep::<V, R, RZ>(w, &mut planes, blk, z0, nz, cols, pw)
                                }
                                _ => march_gen::<V, RZ>(
                                    sched,
                                    &mut planes,
                                    blk,
                                    rr,
                                    z0,
                                    nz,
                                    cols,
                                    pw,
                                ),
                            }
                        }
                        // phase B: per z, horizontal fold + weighted
                        // transpose of every block of the slab
                        for zi in 0..nz {
                            for b in b0..b0 + nb {
                                let bx = block_x(b);
                                let mut out = [V::zero(); 8];
                                let o = zi * nids * pw + (bx - rr - org);
                                if sep.is_some() {
                                    let cols = &pane[o..o + vl + 2 * R];
                                    for kk in 0..vl {
                                        out[kk] = cols[kk].mul(hw[0]);
                                    }
                                    for dxi in 1..2 * R + 1 {
                                        for kk in 0..vl {
                                            out[kk] = cols[kk + dxi].mul_add(hw[dxi], out[kk]);
                                        }
                                    }
                                } else {
                                    for &(u, dxi, c) in hterms {
                                        let cv = V::splat(c);
                                        let cols = &pane[o + u * pw + dxi..][..vl];
                                        for kk in 0..vl {
                                            out[kk] = cols[kk].mul_add(cv, out[kk]);
                                        }
                                    }
                                }
                                V::transpose(&mut out[..vl]);
                                let row0 = (z0 + zi) * sz + y * sy + bx;
                                for (j, o) in out[..vl].iter().enumerate() {
                                    // SAFETY: row `y + j` of plane `z0 + zi` at
                                    // columns `bx..bx + vl` is inside the three
                                    // ranges, which the assert above keeps in
                                    // bounds of `dst`.
                                    unsafe { o.store(d.as_mut_ptr().add(row0 + j * sy)) };
                                }
                            }
                        }
                    }
                }
            }
        },
    );
}

/// The block one march covers: rows `y..y + vl` at columns `bx..bx + vl`
/// of the planes of `src`.
#[derive(Clone, Copy)]
struct Block<'a> {
    src: &'a [f64],
    sy: usize,
    sz: usize,
    y: usize,
    bx: usize,
}

impl Block<'_> {
    /// Load the block's rows of plane `zp` with their `rr`-halo in `y`
    /// into `plane`, `vl + 2·rr` vectors long.
    #[inline(always)]
    fn load_plane<V: SimdF64>(self, plane: &mut [V], rr: usize, zp: usize) {
        let top = zp * self.sz + (self.y - rr) * self.sy + self.bx;
        for (t, rv) in plane.iter_mut().enumerate() {
            // SAFETY: rows `y − R..y + vl + R` of plane `zp` at columns
            // `bx..bx + vl` are inside the R-halo of the ranges, which
            // `step_ring_r` asserts in bounds of `src` (measured: checked
            // loads cost the separable march 25 %).
            *rv = unsafe { V::load(self.src.as_ptr().add(top + t * self.sy)) };
        }
    }
}

/// Transpose a block's `vl` counterpart rows into columns and file them
/// at `cols[o..o + vl]`.
#[inline(always)]
fn put_columns<V: SimdF64>(rows: &mut [V; 8], cols: &mut [V], o: usize) {
    let vl = V::LANES;
    V::transpose(&mut rows[..vl]);
    cols[o..o + vl].copy_from_slice(&rows[..vl]);
}

/// Generic march of the block `blk` along `z`: ring of raw plane
/// rows, full `(dz, dy)` vertical fold per output z in the counterpart
/// schedule's tap order — taps outermost, the block's `vl` rows
/// innermost, so `vl` independent FMA chains are in flight. With `RZ = 0`
/// the march is one step over the one plane: nothing is primed and every
/// tap reads slot 0. Columns land at `cols[(zi * nids + u) * pw..][..vl]`.
#[inline(always)]
fn march_gen<V: SimdF64, const RZ: usize>(
    sched: &Sched,
    ring: &mut PlaneRing<V>,
    blk: Block<'_>,
    rr: usize,
    z0: usize,
    nz: usize,
    cols: &mut [V],
    pw: usize,
) {
    let vl = V::LANES;
    let side = 2 * RZ + 1;
    let pitch = vl + 2 * rr;
    let nids = sched.nids();
    // ring offset of plane `zp`'s slot
    let at = |zp: usize| zp % side * pitch;
    // prime the 2·RZ planes behind the first output; the march loads the
    // one entering plane per step
    for zp in z0 - RZ..z0 + RZ {
        blk.load_plane(&mut ring[at(zp)..][..pitch], rr, zp);
    }
    for zi in 0..nz {
        let z = z0 + zi;
        blk.load_plane(&mut ring[at(z + RZ)..][..pitch], rr, z + RZ);
        let mut slot = [0usize; 2 * MAX_R3 + 1];
        for (dz, sl) in slot[..side].iter_mut().enumerate() {
            *sl = at(z - RZ + dz);
        }
        for u in 0..nids {
            let mut rows = [V::zero(); 8];
            let taps = sched.vtaps(u);
            if taps.is_empty() {
                rows[..vl].copy_from_slice(&ring[slot[RZ] + rr..][..vl]);
            } else {
                for &(dz, dy, w) in taps {
                    let wv = V::splat(w);
                    let win = &ring[slot[if RZ == 0 { 0 } else { dz }] + dy..][..vl];
                    for j in 0..vl {
                        rows[j] = win[j].mul_add(wv, rows[j]);
                    }
                }
            }
            put_columns(&mut rows, cols, (zi * nids + u) * pw);
        }
    }
}

/// Dy-fold plane `zp`'s rows with `wy` into `g[j] = Σ_dy wy[dy] ·
/// row(zp, y + j + dy)` — done once per plane entry, reused by the
/// `2R+1` outputs the plane participates in.
#[inline(always)]
fn fold_plane_y<V: SimdF64, const R: usize>(g: &mut [V], wy: &AxisTaps, blk: Block<'_>, zp: usize) {
    let vl = V::LANES;
    let mut rowvec = [V::zero(); 8 + 2 * MAX_R3];
    blk.load_plane(&mut rowvec[..vl + 2 * R], R, zp);
    let w0 = V::splat(wy[0]);
    for j in 0..vl {
        g[j] = rowvec[j].mul(w0);
    }
    for t in 1..2 * R + 1 {
        let wv = V::splat(wy[t]);
        for j in 0..vl {
            g[j] = rowvec[j + t].mul_add(wv, g[j]);
        }
    }
}

/// Separable march of the block `blk` along `z`: ring of
/// y-prefolded plane rows, dz-fold per output z — `2(2R+1)` vertical
/// mul-adds per row instead of `(2R+1)²`; with `RZ = 0` there is no
/// dz-fold (`wz = [1]`) and no ring. Single dense counterpart
/// (`nids == 1`): columns land at `cols[zi * pw..][..vl]`.
#[inline(always)]
fn march_sep<V: SimdF64, const R: usize, const RZ: usize>(
    (wy, wz): &(AxisTaps, AxisTaps),
    ring: &mut PlaneRing<V>,
    blk: Block<'_>,
    z0: usize,
    nz: usize,
    cols: &mut [V],
    pw: usize,
) {
    let vl = V::LANES;
    let side = 2 * RZ + 1;
    let at = |zp: usize| zp % side * vl;
    for zp in z0 - RZ..z0 + RZ {
        fold_plane_y::<V, R>(&mut ring[at(zp)..][..vl], wy, blk, zp);
    }
    for zi in 0..nz {
        let z = z0 + zi;
        let mut rows = [V::zero(); 8];
        if RZ == 0 {
            // one plane: its y-fold is the counterpart row
            fold_plane_y::<V, R>(&mut rows[..vl], wy, blk, z);
        } else {
            fold_plane_y::<V, R>(&mut ring[at(z + RZ)..][..vl], wy, blk, z + RZ);
            let w0 = V::splat(wz[0]);
            let g = &ring[at(z - RZ)..][..vl];
            for j in 0..vl {
                rows[j] = g[j].mul(w0);
            }
            for dz in 1..side {
                let wv = V::splat(wz[dz]);
                let g = &ring[at(z - RZ + dz)..][..vl];
                for j in 0..vl {
                    rows[j] = g[j].mul_add(wv, rows[j]);
                }
            }
        }
        put_columns(&mut rows, cols, zi * pw);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::folded::{step_range_2d, MAX_F};
    use crate::exec::scalar;
    use crate::folding::fold;
    use crate::kernels;
    use crate::pattern::Pattern;
    use stencil_grid::{max_abs_diff, PingPong};
    use stencil_simd::{NativeF64x4, NativeF64x8};

    fn scalar_folded_3d(g: &Grid3D, p: &Pattern, m: usize, steps: usize) -> Grid3D {
        let f = fold(p, m);
        let mut pp = PingPong::new(g.clone());
        scalar::sweep_3d(&mut pp, &f, steps);
        pp.into_current()
    }

    fn scalar_folded_2d(g: &Grid2D, p: &Pattern, m: usize, steps: usize) -> Grid2D {
        let f = fold(p, m);
        let mut pp = PingPong::new(g.clone());
        scalar::sweep_2d(&mut pp, &f, steps);
        pp.into_current()
    }

    /// `steps` folded steps of `k` over the interior of `g`.
    fn ring_steps<V: SimdF64>(k: &FoldedKernel, ring: Ring3, g: &Grid3D, steps: usize) -> Grid3D {
        let (nz, ny, nx, rr) = (g.nz(), g.ny(), g.nx(), k.radius());
        let mut pp = PingPong::new(g.clone());
        for _ in 0..steps {
            let (src, dst) = pp.src_dst();
            step_range_3d_ring::<V>(k, ring, src, dst, rr..nz - rr, rr..ny - rr, rr..nx - rr);
            pp.swap();
        }
        pp.into_current()
    }

    /// The one-plane case of [`ring_steps`].
    fn plane_steps<V: SimdF64>(k: &FoldedKernel, g: &Grid2D, steps: usize) -> Grid2D {
        let (ny, nx, rr) = (g.ny(), g.nx(), k.radius());
        let mut pp = PingPong::new(g.clone());
        for _ in 0..steps {
            let (src, dst) = pp.src_dst();
            step_range_2d::<V>(k, src, dst, rr..ny - rr, rr..nx - rr);
            pp.swap();
        }
        pp.into_current()
    }

    fn bits(dense: Vec<f64>) -> Vec<u64> {
        dense.iter().map(|v| v.to_bits()).collect()
    }

    /// The one-plane case of [`grid_with_interior`].
    fn plane_with_interior(rr: usize, iy: usize, ix: usize) -> Grid2D {
        Grid2D::from_fn(iy + 2 * rr, ix + 2 * rr, |y, x| {
            ((y * 7 + x) % 13) as f64 * 0.7 - 2.0
        })
    }

    /// A grid whose interior at folded radius `rr` is `iz × iy × ix`.
    fn grid_with_interior(rr: usize, iz: usize, iy: usize, ix: usize) -> Grid3D {
        Grid3D::from_fn(iz + 2 * rr, iy + 2 * rr, ix + 2 * rr, |z, y, x| {
            ((z * 3 + y * 7 + x) % 13) as f64 * 0.7 - 2.0
        })
    }

    /// Every x/y residue mod `vl` — ragged last blocks in both axes, a
    /// lone ragged final slab (`slab` 1 and 2 over three blocks) and
    /// `nblk < slab` (`slab` 4) — against the scalar folded sweep.
    fn residues_match_scalar<V: SimdF64>(p: &Pattern, m: usize) {
        let vl = V::LANES;
        let k = FoldedKernel::new(p, m);
        let rr = k.radius();
        for rx in 0..vl {
            for ry in 0..vl {
                let g = grid_with_interior(rr, 3, vl + ry, 2 * vl + rx);
                let want = scalar_folded_3d(&g, p, m, 1).to_dense();
                for slab in [1usize, 2, 4] {
                    let ring = Ring3 { depth: 2, slab };
                    let got = ring_steps::<V>(&k, ring, &g, 1);
                    assert!(
                        max_abs_diff(&want, &got.to_dense()) < 1e-10,
                        "pts={} m={m} vl={vl} rx={rx} ry={ry} slab={slab}",
                        p.points()
                    );
                }
            }
        }
    }

    /// The same residues on one plane: the slab only changes with the
    /// width there, so the x extent spans one slab and a ragged second.
    fn residues_match_scalar_2d<V: SimdF64>(p: &Pattern, m: usize) {
        let vl = V::LANES;
        let k = FoldedKernel::new(p, m);
        let rr = k.radius();
        for rx in 0..vl {
            for ry in 0..vl {
                for blocks in [2, 2 * MAX_RING_SLAB + 1] {
                    let g = plane_with_interior(rr, vl + ry, blocks * vl + rx);
                    let want = scalar_folded_2d(&g, p, m, 1).to_dense();
                    let got = plane_steps::<V>(&k, &g, 1);
                    assert!(
                        max_abs_diff(&want, &got.to_dense()) < 1e-10,
                        "pts={} m={m} vl={vl} rx={rx} ry={ry} blocks={blocks}",
                        p.points()
                    );
                }
            }
        }
    }

    #[test]
    fn ring_matches_scalar_folded() {
        for p in [kernels::heat2d(), kernels::box2d9p(), kernels::gb()] {
            // R = 1..=4, generic (star, gb) and separable (box) marches
            for m in 1..=4 {
                residues_match_scalar_2d::<NativeF64x4>(&p, m);
            }
            residues_match_scalar_2d::<NativeF64x8>(&p, 2);
        }
        // R = 6: the runtime-radius instantiation only 8 lanes admit
        for p in [kernels::heat2d(), kernels::box2d9p()] {
            residues_match_scalar_2d::<NativeF64x8>(&p, 6);
        }
        for p in [kernels::heat3d(), kernels::box3d27p()] {
            for m in [1usize, 2] {
                let k = FoldedKernel::new(&p, m);
                let g = Grid3D::from_fn(18, 15, 22, |z, y, x| ((z * 3 + y * 7 + x) % 13) as f64);
                let want = scalar_folded_3d(&g, &p, m, 2);
                let ring = Ring3::auto(4, k.radius());
                let got = ring_steps::<NativeF64x4>(&k, ring, &g, 2);
                assert!(
                    max_abs_diff(&want.to_dense(), &got.to_dense()) < 1e-10,
                    "m={m} pts={}",
                    p.points()
                );
            }
            // R = 1..=4, generic (star) and separable (box) marches
            for m in 1..=4 {
                residues_match_scalar::<NativeF64x4>(&p, m);
            }
            for m in [1usize, 2] {
                residues_match_scalar::<NativeF64x8>(&p, m);
            }
        }
    }

    #[test]
    fn ring_geometry_does_not_change_results() {
        // strip/slab phase must never leak into the arithmetic: every
        // geometry produces the same bits
        let p = kernels::box3d27p();
        let k = FoldedKernel::new(&p, 2);
        let g = Grid3D::from_fn(20, 17, 25, |z, y, x| {
            ((z + 2 * y + 3 * x) % 23) as f64 * 0.4
        });
        let want = scalar_folded_3d(&g, &p, 2, 3);
        let mut first = None;
        for ring in [
            Ring3 { depth: 1, slab: 1 },
            Ring3 { depth: 2, slab: 3 },
            Ring3 { depth: 8, slab: 4 },
            Ring3 {
                depth: 64,
                slab: 32,
            },
        ] {
            let got = ring_steps::<NativeF64x4>(&k, ring, &g, 3);
            assert!(
                max_abs_diff(&want.to_dense(), &got.to_dense()) < 1e-10,
                "{ring:?}"
            );
            let got = bits(got.to_dense());
            assert!(*first.get_or_insert_with(|| got.clone()) == got, "{ring:?}");
        }
    }

    /// Cut `r` into seeded pieces of at least `min` cells each.
    fn cut(r: Range<usize>, min: usize, seed: &mut u64) -> Vec<Range<usize>> {
        let mut pieces = Vec::new();
        let mut lo = r.start;
        while r.end - lo >= 2 * min {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let w = min + (*seed >> 33) as usize % (min + 1);
            let hi = if r.end - (lo + w) < min {
                r.end
            } else {
                lo + w
            };
            pieces.push(lo..hi);
            lo = hi;
        }
        if lo < r.end {
            pieces.push(lo..r.end);
        }
        pieces
    }

    fn partition_gives_identical_bits<V: SimdF64>(p: &Pattern, m: usize, seed: &mut u64) {
        let vl = V::LANES;
        let k = FoldedKernel::new(p, m);
        let rr = k.radius();
        let ring = Ring3::auto(vl, rr);
        // ragged on purpose: neither extent is a multiple of vl
        let g = grid_with_interior(rr, 11, 3 * vl + 1, 4 * vl + 3);
        let (nz, ny, nx) = (g.nz(), g.ny(), g.nx());
        let mut whole = g.clone();
        step_range_3d_ring::<V>(
            &k,
            ring,
            &g,
            &mut whole,
            rr..nz - rr,
            rr..ny - rr,
            rr..nx - rr,
        );
        let mut pieces = g.clone();
        for zs in cut(rr..nz - rr, 1, seed) {
            for ys in cut(rr..ny - rr, vl, seed) {
                for xs in cut(rr..nx - rr, vl, seed) {
                    step_range_3d_ring::<V>(&k, ring, &g, &mut pieces, zs.clone(), ys.clone(), xs);
                }
            }
        }
        assert!(
            bits(whole.to_dense()) == bits(pieces.to_dense()),
            "pts={} m={m} vl={vl}",
            p.points()
        );
    }

    fn partition_gives_identical_bits_2d<V: SimdF64>(p: &Pattern, m: usize, seed: &mut u64) {
        let vl = V::LANES;
        let k = FoldedKernel::new(p, m);
        let rr = k.radius();
        // ragged on purpose, and wider than one slab
        let g = plane_with_interior(rr, 3 * vl + 1, (MAX_RING_SLAB + 2) * vl + 3);
        let (ny, nx) = (g.ny(), g.nx());
        let mut whole = g.clone();
        step_range_2d::<V>(&k, &g, &mut whole, rr..ny - rr, rr..nx - rr);
        let mut pieces = g.clone();
        for ys in cut(rr..ny - rr, vl, seed) {
            for xs in cut(rr..nx - rr, vl, seed) {
                step_range_2d::<V>(&k, &g, &mut pieces, ys.clone(), xs);
            }
        }
        assert!(
            bits(whole.to_dense()) == bits(pieces.to_dense()),
            "pts={} m={m} vl={vl}",
            p.points()
        );
    }

    #[test]
    fn any_partition_of_the_interior_gives_identical_bits() {
        // each output is one fixed FMA chain over its own inputs, so the
        // cut into range calls (every piece >= vl wide in x and y) cannot
        // show in the bits
        let mut seed = 18;
        for p in [kernels::heat3d(), kernels::box3d27p(), kernels::star3d_r2()] {
            for m in [1usize, 2] {
                partition_gives_identical_bits::<NativeF64x4>(&p, m, &mut seed);
                partition_gives_identical_bits::<NativeF64x8>(&p, m, &mut seed);
            }
        }
        for p in [kernels::heat2d(), kernels::box2d9p(), kernels::gb()] {
            for m in [1usize, 2] {
                partition_gives_identical_bits_2d::<NativeF64x4>(&p, m, &mut seed);
                partition_gives_identical_bits_2d::<NativeF64x8>(&p, m, &mut seed);
            }
        }
    }

    /// One block-free step on `g` plus a tessellate-shaped run of small,
    /// shifting ranges; returns the pane's `(bytes, address)` afterwards.
    fn exercise_pane<V: SimdF64>(p: &Pattern, m: usize, g: &Grid3D) -> (usize, usize) {
        let vl = V::LANES;
        let k = FoldedKernel::new(p, m);
        let rr = k.radius();
        let ring = Ring3::auto(vl, rr);
        let out = ring_steps::<V>(&k, ring, g, 1);
        let mut dst = out.clone();
        for i in 0..6 {
            let (z0, y0, x0) = (rr + i, rr + i, rr + 3 * i);
            let (zs, ys, xs) = (z0..z0 + 2 + i, y0..y0 + vl + i, x0..x0 + vl + 5 * i);
            step_range_3d_ring::<V>(&k, ring, &out, &mut dst, zs, ys, xs);
        }
        pane_footprint::<V>()
    }

    /// The one-plane case of [`exercise_pane`].
    fn exercise_pane_2d<V: SimdF64>(p: &Pattern, m: usize, g: &Grid2D) -> (usize, usize) {
        let vl = V::LANES;
        let k = FoldedKernel::new(p, m);
        let rr = k.radius();
        let out = plane_steps::<V>(&k, g, 1);
        let mut dst = out.clone();
        for i in 0..6 {
            let (y0, x0) = (rr + i, rr + 3 * i);
            step_range_2d::<V>(&k, &out, &mut dst, y0..y0 + vl + i, x0..x0 + vl + 5 * i);
        }
        pane_footprint::<V>()
    }

    #[test]
    fn pane_is_sized_by_the_clamped_geometry_and_reused_across_calls() {
        let field = |z: usize, y: usize, x: usize| ((z + 2 * y + 3 * x) % 11) as f64;
        // one plane first, on a thread of its own so that the volumes
        // below start from an empty pane: 320 cells in x reach the slab
        // clamp at every radius, up to the 2D cap only 8 lanes admit
        std::thread::scope(|s| {
            let plane = Grid2D::from_fn(40, 320, |y, x| field(0, y, x));
            let run = s.spawn(move || {
                for p in [kernels::heat2d(), kernels::box2d9p(), kernels::gb()] {
                    let planned =
                        |m: &usize| crate::plan::FoldPlan::new(&p, *m).fresh.len() <= MAX_F;
                    for m in (1..=MAX_R).filter(planned) {
                        let lanes4 =
                            (m <= 4).then(|| exercise_pane_2d::<NativeF64x4>(&p, m, &plane));
                        let lanes8 = exercise_pane_2d::<NativeF64x8>(&p, m, &plane);
                        for (bytes, _) in lanes4.into_iter().chain([lanes8]) {
                            assert!(
                                (1..=32 << 10).contains(&bytes),
                                "pts={} m={m}: pane of {bytes} B",
                                p.points()
                            );
                        }
                    }
                }
                // warmed up: the same buffer serves every later call,
                // tessellate-shaped small ranges included
                let warm = exercise_pane_2d::<NativeF64x8>(&kernels::gb(), 2, &plane);
                assert_eq!(
                    warm,
                    exercise_pane_2d::<NativeF64x8>(&kernels::gb(), 2, &plane)
                );
            });
            run.join().expect("2D pane checks");
        });
        // 96 cells in x and 24 planes reach every clamp (slab <= 4
        // blocks, depth <= 8); the y extent never enters the formula
        let slice = Grid3D::from_fn(24, 32, 96, field);
        let cases = [
            kernels::heat3d(),
            kernels::box3d27p(),
            kernels::box3d125p(),
            kernels::star3d_r2(),
        ];
        for p in &cases {
            for m in (1..=MAX_R3).filter(|m| m * p.radius() <= MAX_R3) {
                for (bytes, lanes) in [
                    (exercise_pane::<NativeF64x4>(p, m, &slice).0, 4),
                    (exercise_pane::<NativeF64x8>(p, m, &slice).0, 8),
                ] {
                    assert!(
                        (1..=32 << 10).contains(&bytes),
                        "pts={} m={m} lanes={lanes}: pane of {bytes} B",
                        p.points()
                    );
                }
            }
        }
        // the binding case on the benchmark's 96³: nothing grows with
        // the grid, and — warmed up — the same box and the same buffer
        // serve the next call, so a kernel call allocates nothing
        let cube = Grid3D::from_fn(96, 96, 96, field);
        let p = kernels::heat3d();
        assert!(exercise_pane::<NativeF64x4>(&p, 2, &cube).0 <= 32 << 10);
        let warm = exercise_pane::<NativeF64x8>(&p, 2, &cube);
        assert_eq!(
            warm.0, PANE_BYTES,
            "allocated once, at the bound 8 x 3 x (2*8 + 4) vectors of 64 B = 30 KiB fit"
        );
        assert_eq!(warm, exercise_pane::<NativeF64x8>(&p, 2, &cube));
        // only a geometry pinned beyond the bound grows the buffer — to
        // its own clamped formula: 23 blocks of 4 lanes span the interior
        let k = FoldedKernel::new(&p, 2);
        let (pinned, mut dst) = (
            Ring3 {
                depth: 64,
                slab: 32,
            },
            cube.clone(),
        );
        step_range_3d_ring::<NativeF64x4>(&k, pinned, &cube, &mut dst, 2..94, 2..94, 2..94);
        assert_eq!(
            pane_footprint::<NativeF64x4>().0,
            64 * 3 * (23 * 4 + 4) * 32,
            "depth x nids x (nblk * vl + 2R) vectors of 32 B"
        );
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
                ring_steps::<NativeF64x8>(&k, Ring3::auto(8, k.radius()), &g, 2)
            } else {
                ring_steps::<NativeF64x4>(&k, Ring3::auto(4, k.radius()), &g, 2)
            };
            assert!(
                max_abs_diff(&want.to_dense(), &got.to_dense()) < 1e-10,
                "m={m} w8={w8}"
            );
        }
    }

    #[test]
    fn separable_factorization_detected_for_boxes_only() {
        let sep = |p: &Pattern| FoldedKernel::new(p, 2).sched().expect("3D plan").sep;
        assert!(sep(&kernels::box3d27p()).is_some());
        assert!(sep(&kernels::heat3d()).is_none());
    }

    #[test]
    fn narrow_ranges_and_widths_fall_back_without_panic() {
        let p = kernels::box3d27p();
        let k = FoldedKernel::new(&p, 2);
        let g = Grid3D::from_fn(12, 12, 12, |z, y, x| (z * 144 + y * 12 + x) as f64);
        let mut dst = g.clone();
        let ring = Ring3::auto(4, k.radius());
        // ranges narrower than a vector exercise the scalar paths
        step_range_3d_ring::<NativeF64x4>(&k, ring, &g, &mut dst, 3..5, 2..5, 2..5);
        let mut want = g.clone();
        scalar::step_range_3d(&g, &mut want, k.folded(), 3..5, 2..5, 2..5);
        assert!(max_abs_diff(&want.to_dense(), &dst.to_dense()) < 1e-12);
        // scalar lanes: whole call degrades to the scalar sweep
        let mut dst1 = g.clone();
        step_range_3d_ring::<f64>(&k, ring, &g, &mut dst1, 3..9, 2..10, 2..10);
        let mut want1 = g.clone();
        scalar::step_range_3d(&g, &mut want1, k.folded(), 3..9, 2..10, 2..10);
        assert!(max_abs_diff(&want1.to_dense(), &dst1.to_dense()) < 1e-12);
    }

    #[test]
    fn tiny_grids_degenerate_to_copy() {
        // R = 4 leaves a 6³ grid no interior: every folded step is the
        // identity
        let p = Pattern::new_3d(2, &[1.0 / 125.0; 125]);
        let g = Grid3D::from_fn(6, 6, 6, |z, y, x| (z + y + x) as f64);
        let plan = crate::Solver::new(p)
            .method(crate::Method::Folded { m: 2 })
            .width(crate::Width::W4)
            .compile()
            .unwrap();
        assert_eq!(plan.run_3d(&g, 2).unwrap(), g);
    }
}
