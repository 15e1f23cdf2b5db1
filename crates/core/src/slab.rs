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
//! innermost extent — which drives vector chunking and alignment — is
//! untouched, so every 2D and 3D plan slabs.
//!
//! The halo is the whole answer because no 2D or 3D plan's bits depend
//! on how its interior is cut into range calls:
//!
//! * **Row-independent families** (scalar, multiple-loads): a cell's
//!   instruction stream depends only on its x position, and `x` is never
//!   cut.
//! * **Register pipelines** (transpose-layout, folded): every output is
//!   one fixed chain of fused multiply-adds whichever block, strip or
//!   call produces it — a range narrower than one vector included, which
//!   the pipeline stages through the same pane (range independence, see
//!   `exec::folded3d`).
//!
//! So a slab swept through `Plan::run_pair` on its own extent — its tile
//! edges where that extent puts them, not where the full run's fall —
//! reproduces every cell of its interior under either tiling, and
//! [`slab_halo`] is `t * r` for every plan.
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
//! bit-identical to the resident run exactly when it executes the same
//! kernels in the same order: a folded run groups its steps as `t / m`
//! macro-steps plus a `t % m` unfolded tail, so any pass boundary at a
//! multiple of `m` composes exactly. How a tessellated run groups its
//! rounds into time blocks changes no bit (above), so `m` is the whole
//! unit: [`pass_quantum`].

use crate::api::Plan;
use crate::pattern::Pattern;

/// Slab starts are aligned down to this many outer-axis layers — the
/// widest vector lane count, so every register pipeline's row grouping
/// keeps its phase across slab boundaries.
pub const SLAB_ALIGN: usize = 8;

/// Halo depth for running `t` steps of any plan of `pattern` on a slab
/// of a larger domain: the classic contamination bound `t * r`, whatever
/// the method and tiling (see the module docs).
pub fn slab_halo(pattern: &Pattern, t: usize) -> usize {
    t * pattern.radius()
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
/// `extent` layers when `requested` parallel slabs were asked for: one
/// aligned slab per worker. [`slab_bounds`] aligns every slab start down
/// to [`SLAB_ALIGN`]; when `extent < SLAB_ALIGN * requested` the aligned
/// starts of neighbouring shards collapse onto each other, leaving
/// workers with no layers of their own — each re-runs (almost) the whole
/// domain for an interior a few layers high. The shard count is capped
/// at `extent / SLAB_ALIGN` so every shard owns at least one aligned
/// slab of the axis.
///
/// Results are bit-identical at any shard count — this is purely a
/// work-amplification guard.
pub fn effective_shards(extent: usize, requested: usize) -> usize {
    requested
        .clamp(1, extent.max(1))
        .min((extent / SLAB_ALIGN).max(1))
}

/// The time-axis composition unit of a 2D or 3D `plan`, its fold factor
/// `m`: splitting a `t`-step run at any multiple of this many steps (the
/// final segment takes the remainder, including the `t % m` tail)
/// executes exactly the resident run's sequence of folded macro-steps
/// and tail steps — the condition under which a multi-pass out-of-core
/// run is bit-identical to the resident one (see the module docs).
pub fn pass_quantum(plan: &Plan) -> usize {
    plan.m()
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
        assert_eq!(effective_shards(20, 4), 2);
        // below one aligned slab the whole axis is one shard
        assert_eq!(effective_shards(6, 4), 1);
        // a long axis keeps the requested count
        assert_eq!(effective_shards(1000, 4), 4);
        // never zero, even for degenerate extents
        assert_eq!(effective_shards(0, 3), 1);
    }

    #[test]
    fn pass_quantum_matches_plan_structure() {
        use crate::{Method, Tiling};
        // the fold factor under either tiling and whatever the extents:
        // a tessellated run's grouping of rounds into time blocks changes
        // no bit, so a pass needs no round cap
        for p in [kernels::heat2d(), kernels::heat3d()] {
            for tiling in [Tiling::None, Tiling::Tessellate { time_block: 4 }] {
                for (method, m) in [
                    (Method::Folded { m: 2 }, 2),
                    (Method::MultipleLoads, 1),
                    (Method::TransposeLayout, 1),
                ] {
                    let plan = Solver::new(p.clone())
                        .method(method)
                        .tiling(tiling)
                        .compile()
                        .unwrap();
                    assert_eq!(pass_quantum(&plan), m, "{method:?} {tiling:?}");
                }
            }
        }
    }
}
