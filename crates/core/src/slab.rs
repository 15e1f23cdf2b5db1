//! Halo-correct slab geometry along the outermost axis — the shared
//! arithmetic behind bit-exact domain sharding (the serving layer) and
//! out-of-core streaming (`stencil-ooc`).
//!
//! ## Why slab execution is exact, not approximate
//!
//! Every executor in this crate advances a cell with fixed tap-order
//! arithmetic, and treats grid edges as a frozen Dirichlet band whose
//! influence travels inward at one stencil radius per time step. A slab
//! that extends `halo = t * r` layers beyond its interior therefore
//! reproduces the full-domain run exactly on the interior: after `s`
//! steps only cells within `s * r` of the slab's artificial edge can
//! differ from the full run, and the halo keeps that contamination
//! outside the interior for all `t` steps. Folding does not change the
//! bound — an `m`-step folded macro-step has radius `m * r` but
//! advances `m` steps, so the budget stays `t * r` total.
//!
//! Slabs cut only the outermost axis (`y` in 2D, `z` in 3D): the
//! innermost extent — which drives vector chunking, alignment and the
//! DLT lane constraints — is untouched.
//!
//! Two executor families need two levels of care:
//!
//! * **Row-independent families** (scalar, multiple-loads,
//!   data-reorganization): a cell's instruction stream depends only on
//!   its x position, so any slab geometry is bit-exact — these slab
//!   under every tiling.
//! * **Register pipelines** (transpose-layout, folded): every output is
//!   one fixed chain of fused multiply-adds whichever block, strip or
//!   call produces it, so any partition into ranges at least one vector
//!   wide in `x` and `y` gives identical bits (range independence, see
//!   `exec::folded3d`). A block-free slab is such a partition, and so is
//!   every **3D** tessellate tile — tessellation cuts `z` only and hands
//!   the kernel `y` and `x` whole — so a 3D register plan slabs with the
//!   classic `t * r` halo under either tiling, and its tessellated
//!   result equals its block-free one bit for bit wherever both run the
//!   same kernels (`t % m == 0`). What is left is **2D tessellate
//!   tips**: `y` is the cut axis there, an inverted tile's first steps
//!   are `2 * reff * (t + 1)` rows tall, and below one vector they run
//!   the scalar folded sweep, which agrees with the vector chain to
//!   rounding only. Since [`DimTiling`] anchors tile phase to global
//!   coordinates and [`tile_width`] reads nothing a window does not
//!   share with its domain, a slab swept through `Plan::run_pair_at`
//!   with its global origin reproduces every interior tile of the full
//!   run, tips included. Only the slab-edge tiles diverge (they see a
//!   frozen band where the full run has live cells and do not shrink on
//!   that side), so the halo grows by one real tile width — the
//!   divergence starts inside the edge tile and travels inward at one
//!   effective radius per inner step, exactly like the classic bound —
//!   and every slab must stay large enough to run the same per-round
//!   time blocks as the full run ([`shard_geometry`]).
//!
//! [`slab_bounds`] still aligns slab starts to [`SLAB_ALIGN`] rows and
//! pads interior slab tops to a whole number of alignment units. Range
//! independence no longer needs either for the answer; they keep every
//! slab's rows on the vector-group phase of the full sweep, so a slab
//! runs the blocks the full run runs rather than shifted-back ones.
//!
//! ## Time-axis composition ([`pass_quantum`])
//!
//! The out-of-core executor additionally splits the *time* axis: a
//! `t`-step run becomes several passes of `s` steps each, every pass a
//! full stitched traversal of the domain. The concatenation is
//! bit-identical to the resident run exactly when the sequence of
//! executed (round, time-block) pairs is unchanged. Block-free folded
//! runs group steps as `t / m` macro-steps plus a `t % m` unfolded
//! tail, so any pass boundary at a multiple of `m` composes exactly.
//! Tessellate runs additionally group (possibly folded) rounds into
//! per-round time blocks of `C = min(time_block, the cut axis' round
//! cap)` — a constant of the full-domain outer extent
//! ([`DimTiling::max_tb`]) — consuming `C, C, ..., rest` rounds; a pass
//! boundary at a multiple of `m * C` steps preserves that grouping.
//! [`pass_quantum`] returns this composition unit.

use crate::api::{Method, Plan, Tiling};
use crate::tile::{tile_width, DimTiling};

/// Slab starts are aligned down to this many outer-axis layers — the
/// widest vector lane count, so every register pipeline's row grouping
/// keeps its phase across slab boundaries.
pub const SLAB_ALIGN: usize = 8;

/// True when `plan` is eligible for bit-exact slab execution (see the
/// module docs): 2D/3D, natural layout (no DLT/SDSL). Register
/// pipelines slab block-free (slab alignment preserves their
/// origin-relative row grouping) and under tessellate tiling (global
/// tile-phase anchoring plus the widened halo of [`shard_geometry`]).
pub fn shardable(plan: &Plan) -> bool {
    if plan.dims() < 2 {
        return false;
    }
    match plan.method() {
        Method::Scalar | Method::MultipleLoads | Method::DataReorg => true,
        m if m.is_register() => {
            matches!(plan.tiling(), Tiling::None | Tiling::Tessellate { .. })
        }
        _ => false,
    }
}

/// Halo depth and minimum slab span for running `t` steps of `plan`
/// sharded along an outer axis of extent `outer` (inner extents in
/// `inners`).
///
/// The base halo is the classic contamination bound `t * r`, and it is
/// the whole answer for every plan whose bits do not depend on the tile
/// geometry: untiled ones, row-independent kernels, and 3D register
/// pipelines (see the module docs). A **2D** register pipeline under
/// tessellate tiling diverges from the full run inside its slab-edge
/// tiles, anywhere in them, so its halo grows by one tile width — the
/// real one, [`tile_width`] of the slab's rows, for the folded body
/// rounds and the `t % m` unfolded tail rounds alike. The returned
/// minimum span keeps every such slab able to run the same per-round
/// time blocks as the full run ([`DimTiling::max_tb`] of the cut axis)
/// — the condition under which the per-round tile geometry (and
/// therefore every kernel call on interior tiles) is identical, making
/// the stitch bit-exact.
pub fn shard_geometry(plan: &Plan, t: usize, outer: usize, inners: &[usize]) -> (usize, usize) {
    let r = plan.pattern().radius();
    let base = t * r;
    let Tiling::Tessellate { time_block } = plan.tiling() else {
        return (base, 0);
    };
    if !plan.method().is_register() || plan.dims() != 2 {
        return (base, 0);
    }
    let (mut extra, mut min_span) = (0usize, 0usize);
    for (rad, steps) in [(plan.effective_radius(), t / plan.m()), (r, t % plan.m())] {
        if steps > 0 && rad > 0 {
            let tb = DimTiling::max_tb(outer, rad, rad, time_block).min(steps);
            extra = extra.max(tile_width(inners, rad, time_block));
            min_span = min_span.max(DimTiling::min_extent(rad, rad, tb));
        }
    }
    (base + extra, min_span)
}

/// The slab a shard of interior `[lo, hi)` reads: the interior plus a
/// `halo`-deep apron, the start aligned down to [`SLAB_ALIGN`], and —
/// for slabs that do not reach the true top edge — the top padded so
/// the processed row count `(len - 2 * r_eff)` is a multiple of
/// [`SLAB_ALIGN`] (no mid-grid scalar remainder) and snapped to the
/// edge when it comes within one alignment unit of it (so the full
/// run's own top-remainder rows land in an edge slab that reproduces
/// them exactly).
pub fn slab_bounds(
    lo: usize,
    hi: usize,
    extent: usize,
    halo: usize,
    r_eff: usize,
) -> (usize, usize) {
    let mut slab_lo = lo.saturating_sub(halo);
    slab_lo -= slab_lo % SLAB_ALIGN;
    let mut slab_hi = (hi + halo).min(extent);
    if slab_hi < extent {
        let span = slab_hi - slab_lo;
        let want = (2 * r_eff) % SLAB_ALIGN;
        let pad = (want + SLAB_ALIGN - span % SLAB_ALIGN) % SLAB_ALIGN;
        slab_hi += pad;
        if slab_hi + SLAB_ALIGN > extent {
            slab_hi = extent;
        }
    }
    (slab_lo, slab_hi)
}

/// Split `extent` into `shards` contiguous interior ranges (first
/// ranges one longer when it does not divide evenly).
pub fn interior_ranges(extent: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.clamp(1, extent.max(1));
    let base = extent / shards;
    let extra = extent % shards;
    let mut out = Vec::with_capacity(shards);
    let mut lo = 0;
    for i in 0..shards {
        let len = base + usize::from(i < extra);
        out.push((lo, lo + len));
        lo += len;
    }
    out
}

/// The slab count actually worth executing for an outer axis of
/// `extent` layers when `requested` parallel slabs were asked for.
///
/// Two degradations apply, in order:
///
/// * **One aligned slab per worker.** [`slab_bounds`] aligns every
///   slab start down to [`SLAB_ALIGN`]; when `extent <
///   SLAB_ALIGN * requested` the aligned starts of neighbouring shards
///   collapse onto each other, leaving workers with no layers of their
///   own — each re-runs (almost) the whole domain for an interior a
///   few layers high. The shard count is capped at
///   `extent / SLAB_ALIGN` so every shard owns at least one aligned
///   slab of the axis.
/// * **Minimum span.** Tessellate register plans need every slab to
///   span at least `min_span` layers (see [`shard_geometry`]) to run
///   the full run's per-round time blocks; the count is reduced until
///   that holds (1 always does: the slab is the whole domain).
///
/// Results are bit-identical at any shard count — this is purely a
/// work-amplification guard.
pub fn effective_shards(
    extent: usize,
    requested: usize,
    halo: usize,
    r_eff: usize,
    min_span: usize,
) -> usize {
    let mut shards = requested
        .clamp(1, extent.max(1))
        .min((extent / SLAB_ALIGN).max(1));
    while shards > 1
        && interior_ranges(extent, shards).iter().any(|&(lo, hi)| {
            let (slo, shi) = slab_bounds(lo, hi, extent, halo, r_eff);
            shi - slo < min_span
        })
    {
        shards -= 1;
    }
    shards
}

/// The time-axis composition unit of `plan` on a domain of `extents`:
/// splitting a `t`-step run at any multiple of this many steps (the
/// final segment takes the remainder, including the `t % m` tail)
/// executes exactly the resident run's sequence of folded macro-steps,
/// per-round time blocks and tail steps — the condition under which a
/// multi-pass out-of-core run is bit-identical to the resident one
/// (see the module docs).
///
/// * Untiled plans compose at the fold factor `m` (1 when unfolded).
/// * Tessellate plans compose at `m * C`, where `C` is the constant
///   per-round time block the resident run settles on:
///   `min(time_block, the round cap of the cut axis extents[0])`.
pub fn pass_quantum(plan: &Plan, extents: &[usize]) -> usize {
    let m = plan.m().max(1);
    let reff = plan.effective_radius();
    match (plan.tiling(), extents.first()) {
        (Tiling::Tessellate { time_block }, Some(&outer)) if reff > 0 => {
            m * DimTiling::max_tb(outer, reff, reff, time_block)
        }
        _ => m,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{kernels, Solver};

    #[test]
    fn interior_ranges_cover_exactly() {
        assert_eq!(interior_ranges(10, 3), vec![(0, 4), (4, 7), (7, 10)]);
        assert_eq!(interior_ranges(4, 8), vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(interior_ranges(5, 1), vec![(0, 5)]);
    }

    #[test]
    fn slab_bounds_align_and_pad() {
        // aligned start, padded top keeping (span - 2 r_eff) % 8 == 0
        let (lo, hi) = slab_bounds(30, 60, 1000, 6, 2);
        assert_eq!(lo % SLAB_ALIGN, 0);
        assert!(lo <= 24 && hi >= 66);
        assert_eq!((hi - lo - 4) % SLAB_ALIGN, 0);
        // near the top edge: snapped to it
        let (_, hi) = slab_bounds(900, 995, 1000, 6, 2);
        assert_eq!(hi, 1000);
        // huge halo clips to the whole extent
        let (lo, hi) = slab_bounds(10, 20, 64, 1000, 1);
        assert_eq!((lo, hi), (0, 64));
    }

    #[test]
    fn effective_shards_caps_at_one_aligned_slab_per_worker() {
        // a short outer axis cannot feed more workers than it has
        // aligned slabs: nz = 20 < SLAB_ALIGN * 4 degrades to 2
        assert_eq!(effective_shards(20, 4, 2, 1, 0), 2);
        // below one aligned slab the whole axis is one shard
        assert_eq!(effective_shards(6, 4, 1, 1, 0), 1);
        // a long axis keeps the requested count
        assert_eq!(effective_shards(1000, 4, 6, 2, 0), 4);
        // never zero, even for degenerate extents
        assert_eq!(effective_shards(0, 3, 0, 0, 0), 1);
    }

    #[test]
    fn effective_shards_sheds_below_min_span() {
        // min_span larger than a quarter of the axis: 4 shards shed
        let got = effective_shards(64, 4, 2, 1, 40);
        assert!((1..4).contains(&got), "got {got}");
        // one shard always satisfies any span (the slab is the domain)
        assert_eq!(effective_shards(16, 1, 2, 1, 1000), 1);
    }

    #[test]
    fn pass_quantum_matches_plan_structure() {
        use crate::{Method, Tiling};
        // untiled folded plan: the fold factor
        let p = Solver::new(kernels::heat3d())
            .method(Method::Folded { m: 2 })
            .compile()
            .unwrap();
        assert_eq!(pass_quantum(&p, &[64, 64, 64]), 2);
        // tessellate: m * min(time_block, the cut axis' round cap). Only
        // z is cut, so ny = 12 no longer caps the round (it read 2 * 2
        // while y was tiled too: (12 - 4) / 4 = 2) ...
        let p = Solver::new(kernels::heat3d())
            .method(Method::Folded { m: 2 })
            .tiling(Tiling::Tessellate { time_block: 4 })
            .compile()
            .unwrap();
        assert_eq!(pass_quantum(&p, &[64, 12, 64]), 2 * 4);
        // ... and a short z does: reff = 2, (12 - 4) / 4 = 2
        assert_eq!(pass_quantum(&p, &[12, 64, 64]), 2 * 2);
        // no interior along z: one step a round, not an underflow
        assert_eq!(pass_quantum(&p, &[3, 64, 64]), 2);
        // wide domain: time_block itself is the cap
        assert_eq!(pass_quantum(&p, &[64, 64, 64]), 2 * 4);
        // unfolded tessellate vector plan: just the round cap
        let p = Solver::new(kernels::heat3d())
            .method(Method::MultipleLoads)
            .tiling(Tiling::Tessellate { time_block: 3 })
            .compile()
            .unwrap();
        assert_eq!(pass_quantum(&p, &[64, 64, 64]), 3);
    }

    #[test]
    fn shard_geometry_widens_2d_register_tessellate_by_the_real_tile_width() {
        use crate::{Method, Tiling, Width};
        let plan = |p: crate::Pattern, method, tiling| {
            Solver::new(p)
                .method(method)
                .tiling(tiling)
                .width(Width::W4)
                .compile()
                .unwrap()
        };
        let fold2 = Method::Folded { m: 2 };
        let tess = Tiling::Tessellate { time_block: 8 };
        // 2D fold2, tb 8, 4096-wide rows: 16 rows fit the budget, the
        // floor 2 * 2 * 8 = 32 binds. t = 17: eight folded rounds and a
        // one-step tail; halo = 17 * 1 + 32, span = the body's
        // 2 * 2 * 8 + 4 (the parent widened by the same 32 here, by a
        // coincidence of floor and rule)
        let p = plan(kernels::heat2d(), fold2, tess);
        assert_eq!(shard_geometry(&p, 17, 200, &[4096]), (17 + 32, 36));
        // 1024-wide rows: the rule's 64 rows, twice the floor (the parent
        // widened by 2 * rad * tb = 32: less than the tile the run uses)
        assert_eq!(shard_geometry(&p, 16, 1024, &[1024]), (16 + 64, 36));
        // few steps shorten the round a slab must fit, not the tile
        assert_eq!(shard_geometry(&p, 2, 1024, &[1024]), (2 + 64, 8));
        // 3D register plans are range independent with y and x whole: the
        // classic halo and no minimum span (the parent: 8 + 16 and 20)
        let p3 = plan(
            kernels::heat3d(),
            fold2,
            Tiling::Tessellate { time_block: 4 },
        );
        assert_eq!(shard_geometry(&p3, 8, 128, &[128, 128]), (8, 0));
        // row-independent kernels and untiled plans: always the classic halo
        let ml = plan(kernels::heat2d(), Method::MultipleLoads, tess);
        assert_eq!(shard_geometry(&ml, 16, 1024, &[1024]), (16, 0));
        let free = plan(kernels::heat2d(), fold2, Tiling::None);
        assert_eq!(shard_geometry(&free, 16, 1024, &[1024]), (16, 0));
    }
}
