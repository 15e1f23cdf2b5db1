//! Tiling layer: tessellate tiling (§3.4), the one tiling a plan runs,
//! and split tiling over the DLT layout ([`split`]), the SDSL baseline of
//! Fig. 9 and Table 3, which the figures call directly.
//!
//! ## Tessellation geometry
//!
//! Time blocking runs in *rounds* of `tb` (possibly folded) steps, and
//! only the **outermost** axis is cut (`x` in 1D, `y` in 2D, `z` in 3D):
//! the unit-stride axis feeds the register pipeline's transposed
//! `vl × vl` block march, which wants whole rows ("An Efficient
//! Vectorization Scheme", PAPERS.md), and a tile that keeps its inner
//! axes whole is never narrower than a vector there. An uncut axis is
//! the one-tile case — its whole interior `[band, n - band)` at every
//! step — so the drivers pass it to the kernel as is. So is block-free
//! tiling ([`Tiling::None`]): one tile spanning the cut axis too
//! (`cut`), which is how every plan runs its legs through the one
//! driver, `tessellate::run_cut`.
//!
//! **Tile width and time block are separate parameters** (the paper's
//! Table 1 tunes them apart). The time block `tb` is how many steps a
//! tile advances between barriers; the width `w` is how much of the cut
//! axis it owns. [`DimTiling::min_width`] is the geometric floor — both
//! slopes of a tile advance `reff` cells a step (`reff` = radius of one
//! inner step: `m * r` for an m-folded kernel) — and [`tile_width`] is
//! the one rule the production routes size a tile by: as wide as
//! [`TILE_BYTES`] of the two surfaces allows, so a tile's working set
//! sits in a core's private L2 for its whole time loop (Casper,
//! PAPERS.md: stencils are bound at the last-level cache). Past the
//! budget — inner slices so large that even a floor-width tile outgrows
//! it, from ~256² planes up — the floor binds and tessellation behaves
//! like a static partition of the cut axis with one barrier per `tb`
//! steps; a second-level cut of the next axis waits for a workload that
//! needs it.
//!
//! With tile edges at multiples of `w`, a round has **two
//! stages** in every dimensionality, a pool barrier between them. At
//! inner step `t` they update:
//!
//! * trapezoid ranges `[L + reff*(t+1), R - reff*(t+1))` — shrinking
//!   from a tile's edges `L`, `R`; the flat top left after `tb` steps is
//!   `w - 2*reff*tb` wide (a triangle at the floor width);
//! * inverted ranges `[B - reff*(t+1), B + reff*(t+1))` — growing around
//!   each interior tile boundary `B`.
//!
//! Every cell is updated exactly `tb` times per round with no redundant
//! computation. **Disjointness** — what every `unsafe { pair.src_dst(t) }`
//! site of the drivers rests on — holds for any `w >= 2*reff*tb`: two
//! trapezoids of one stage lie strictly inside different tiles at every
//! step pair, and two inverted tiles reach at most `reff*tb <= w/2` from
//! centres `w` apart, so `[B - w/2, B + w/2)` never overlap; a tile's
//! reads at step `t` stay within `reff` of its own range, which is
//! inside its range at step `t - 1` or in cells the previous stage (or
//! round) left quiescent. The property tests below walk both facts over
//! floor, odd, wide and one-tile widths; the drivers' tests check
//! results against plain sweeps under heavy thread counts.
//!
//! Domain edges: ranges are clamped to the Dirichlet interior
//! `[band, n - band)`, and tiles touching a domain edge do not shrink on
//! that side (their reads hit frozen boundary cells).

pub mod split;
pub mod tessellate;

use crate::api::Tiling;
use crate::tune::TILE_BYTES;
use core::ops::Range;

/// The tile width of the cut (outermost) axis — the one rule every
/// production route, shard and out-of-core window derives it from:
/// as many slices of the inner axes as [`TILE_BYTES`] holds of both
/// surfaces, and never below the floor [`DimTiling::min_width`].
///
/// `inners` are the extents of the axes *inside* the cut one (none in
/// 1D, `[nx]` in 2D, `[ny, nx]` in 3D), so a slice is 8 B, a row or a
/// plane. The width depends on them, `reff` and `tb` **only** — never
/// on the cut axis' own extent or on the thread count. Where the edges
/// fall changes no bit of a 2D or 3D plan (the register pipeline
/// computes every range, however narrow, with the same chain), so the
/// width is a pure cache choice there.
pub fn tile_width(inners: &[usize], reff: usize, tb: usize) -> usize {
    let slice_bytes = inners
        .iter()
        .fold(8usize, |b, &n| b.saturating_mul(n.max(1)));
    DimTiling::min_width(reff, tb).max(TILE_BYTES / 2 / slice_bytes)
}

/// The tile width and time block a leg of radius `reff` runs under
/// `tiling` (`inners` as in [`tile_width`]). Block-free tiling is one
/// tile spanning the cut axis, as many steps a round as the axis admits
/// ([`DimTiling::max_tb`]): with no tile edge, rounds change no bit.
pub(crate) fn cut(tiling: Tiling, inners: &[usize], reff: usize) -> (usize, usize) {
    match tiling {
        Tiling::Tessellate { time_block } => (tile_width(inners, reff, time_block), time_block),
        Tiling::None => (usize::MAX, usize::MAX),
        Tiling::Auto => unreachable!("compile resolved every open axis"),
    }
}

/// Tessellation geometry of the cut axis for one round: tile edges at
/// multiples of the tile width `w`.
#[derive(Debug, Clone, Copy)]
pub struct DimTiling {
    /// Grid extent in this dimension.
    pub n: usize,
    /// Dirichlet band width (frozen cells at each end of the axis).
    pub band: usize,
    /// Radius advanced per inner step (`m * r` for folded kernels).
    pub reff: usize,
    /// Inner steps per round.
    pub tb: usize,
    /// Tile width, at least [`DimTiling::min_width`] of `reff`, `tb`.
    pub w: usize,
    /// Number of trapezoid tiles.
    pub ntri: usize,
}

impl DimTiling {
    /// The narrowest tile a round of `tb` steps fits in: both slopes
    /// advance `reff` cells a step, so a narrower tile's trapezoids
    /// would cross and its inverted neighbours overlap.
    pub fn min_width(reff: usize, tb: usize) -> usize {
        2 * reff * tb
    }

    /// Build the geometry of an axis of `n` cells.
    ///
    /// `reff` may be 0: a radius-0 stencil reads no neighbour, so any
    /// width is valid.
    ///
    /// # Panics
    /// If the axis has no interior (`n <= 2 * band`: the drivers never
    /// build a geometry for one) or `w` is below [`DimTiling::min_width`].
    pub fn new(n: usize, band: usize, reff: usize, tb: usize, w: usize) -> Self {
        assert!(tb >= 1);
        assert!(n > 2 * band, "grid smaller than its Dirichlet bands");
        assert!(
            w >= Self::min_width(reff, tb),
            "tile narrower than its time block"
        );
        Self {
            n,
            band,
            reff,
            tb,
            w,
            ntri: n.div_ceil(w).max(1),
        }
    }

    /// The round cap of the cut axis: the largest `tb <= wanted` whose
    /// floor-width tile fits the interior. An axis it binds on is one
    /// tile at every width, so the cap only shortens that tile's rounds.
    pub fn max_tb(n: usize, band: usize, reff: usize, wanted: usize) -> usize {
        // no interior: the drivers run no round at all; callers sizing a
        // schedule get 1 rather than an underflow
        let interior = n.saturating_sub(2 * band);
        // radius 0: no slope, so no width caps the rounds
        let cap = interior.checked_div(Self::min_width(reff, 1));
        wanted.max(1).min(cap.unwrap_or(usize::MAX).max(1))
    }

    /// Trapezoid tile `k`'s update range at inner step `t` (may be
    /// empty). Tiles at the axis edges do not shrink on the edge side
    /// (the edge is a frozen band — the true domain edge or a slab's
    /// halo boundary).
    pub fn triangle_range(&self, k: usize, t: usize) -> Range<usize> {
        debug_assert!(k < self.ntri && t < self.tb);
        let shrink = self.reff * (t + 1);
        let lo = if k == 0 {
            self.band
        } else {
            (k * self.w + shrink).max(self.band)
        };
        let hi = if k == self.ntri - 1 {
            self.n - self.band
        } else {
            ((k + 1) * self.w)
                .saturating_sub(shrink)
                .min(self.n - self.band)
        };
        lo..hi.max(lo)
    }

    /// Inverted tile at interior boundary `b` (1..ntri): update range at
    /// inner step `t`.
    pub fn inverted_range(&self, b: usize, t: usize) -> Range<usize> {
        debug_assert!(b >= 1 && b < self.ntri && t < self.tb);
        let grow = self.reff * (t + 1);
        let c = b * self.w;
        let lo = c.saturating_sub(grow).max(self.band);
        let hi = (c + grow).min(self.n - self.band);
        lo..hi.max(lo)
    }

    /// Number of inverted tiles (interior boundaries).
    pub fn ninv(&self) -> usize {
        self.ntri - 1
    }

    /// Range for stage-kind `inv` and tile index `i` at step `t`.
    pub fn range(&self, inv: bool, i: usize, t: usize) -> Range<usize> {
        if inv {
            self.inverted_range(i + 1, t)
        } else {
            self.triangle_range(i, t)
        }
    }

    /// Tile count for stage-kind `inv`.
    pub fn count(&self, inv: bool) -> usize {
        if inv {
            self.ninv()
        } else {
            self.ntri
        }
    }
}

/// Raw two-buffer handle for tile-parallel Jacobi rounds.
///
/// Tiles running concurrently need simultaneous access to both time
/// levels with disjoint write regions; this wrapper hands out raw
/// pointers under the tiling layer's region-disjointness contract
/// (see module docs), keeping all mutation inside documented unsafe.
pub(crate) struct RawPair<G> {
    src0: *mut G,
    dst0: *mut G,
}

// SAFETY: tiles write disjoint regions; stage barriers order everything
// else (contract documented on the tiling drivers).
unsafe impl<G> Send for RawPair<G> {}
unsafe impl<G> Sync for RawPair<G> {}

impl<G> RawPair<G> {
    /// Wrap `(current, scratch)` mutable references.
    pub fn new(cur: &mut G, scratch: &mut G) -> Self {
        Self {
            src0: cur as *mut G,
            dst0: scratch as *mut G,
        }
    }

    /// `(src, dst)` for inner step `t` (parity alternates).
    ///
    /// # Safety
    /// Caller must only write regions no other thread touches during the
    /// same stage, per the tessellation disjointness argument.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn src_dst(&self, t: usize) -> (&G, &mut G) {
        if t.is_multiple_of(2) {
            (&*self.src0, &mut *self.dst0)
        } else {
            (&*self.dst0, &mut *self.src0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The widths every property test walks for `(n, reff, tb)`: the
    /// floor, one past it, a flat top of half a floor, an odd wide tile
    /// and one tile — widths [`tile_width`] never yields on a test grid.
    fn widths(n: usize, reff: usize, tb: usize) -> [usize; 5] {
        let floor = DimTiling::min_width(reff, tb);
        [
            floor,
            floor + 1,
            3 * reff * tb,
            4 * reff * tb + 3,
            n.max(floor),
        ]
    }

    /// Per-cell update counts of one round (trapezoids plus inverted).
    fn update_counts(d: &DimTiling) -> Vec<usize> {
        let mut count = vec![0usize; d.n];
        for inv in [false, true] {
            for i in 0..d.count(inv) {
                for t in 0..d.tb {
                    for c in d.range(inv, i, t) {
                        count[c] += 1;
                    }
                }
            }
        }
        count
    }

    fn assert_every_interior_cell_updated_tb_times(d: &DimTiling) {
        for (i, &c) in update_counts(d).iter().enumerate() {
            let want = if i < d.band || i >= d.n - d.band {
                0
            } else {
                d.tb
            };
            assert_eq!(c, want, "{d:?} i={i}");
        }
    }

    #[test]
    fn triangle_profiles_match_paper_fig7() {
        // W = 8, tb = 4, reff = 1: per-cell update counts from triangles
        // must be the staircase min(dist, tb) for interior tiles.
        let d = DimTiling::new(24, 1, 1, 4, 8);
        assert_eq!(d.w, 8);
        let mut count = [0usize; 24];
        for k in 0..d.ntri {
            for t in 0..d.tb {
                for i in d.triangle_range(k, t) {
                    count[i] += 1;
                }
            }
        }
        // middle tile [8, 16): profile 0,1,2,3,3,2,1,0 relative to edges
        assert_eq!(&count[8..16], &[0, 1, 2, 3, 3, 2, 1, 0]);
        // a wider tile is a trapezoid: the same slopes, a flat top of
        // w - 2*reff*tb cells at the full tb
        let d = DimTiling::new(36, 1, 1, 4, 12);
        let mut count = [0usize; 36];
        for t in 0..d.tb {
            for i in d.triangle_range(1, t) {
                count[i] += 1;
            }
        }
        assert_eq!(&count[12..24], &[0, 1, 2, 3, 4, 4, 4, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn triangles_plus_inverted_update_everything_tb_times() {
        for (n, band, reff, tb) in [(40usize, 1, 1, 4), (64, 2, 2, 3), (33, 1, 1, 2)] {
            for w in widths(n, reff, tb) {
                assert_every_interior_cell_updated_tb_times(&DimTiling::new(n, band, reff, tb, w));
            }
        }
    }

    #[test]
    fn no_write_overlap_within_stage_at_any_step_pair() {
        // Disjointness of concurrent tiles: trapezoid tiles never overlap
        // at any (t, t') pair, and inverted tiles never overlap — at the
        // floor width and at every wider one.
        for (n, band, reff, tb) in [(48usize, 1, 1, 4), (96, 2, 2, 3)] {
            for w in widths(n, reff, tb) {
                let d = DimTiling::new(n, band, reff, tb, w);
                for inv in [false, true] {
                    for i1 in 0..d.count(inv) {
                        for i2 in i1 + 1..d.count(inv) {
                            for t1 in 0..d.tb {
                                for t2 in 0..d.tb {
                                    let a = d.range(inv, i1, t1);
                                    let b = d.range(inv, i2, t2);
                                    assert!(
                                        a.is_empty() || b.is_empty() || a.end <= b.start,
                                        "{d:?} inv={inv} tiles {i1},{i2} steps {t1},{t2}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn an_uncut_axis_is_one_tile_with_no_inverted_stage() {
        for (n, band, reff, tb) in [(40usize, 1, 1, 4), (9, 2, 2, 1), (5, 2, 2, 7)] {
            let d = DimTiling::new(n, band, reff, tb, n.max(DimTiling::min_width(reff, tb)));
            assert_eq!((d.count(false), d.count(true)), (1, 0));
            for t in 0..tb {
                assert_eq!(d.triangle_range(0, t), band..n - band);
            }
        }
    }

    #[test]
    fn tile_width_is_the_budget_over_two_surfaces_of_a_slice() {
        // 1D: 1 MiB / (2 * 8 B) cells, whatever the time block asks for
        assert_eq!(tile_width(&[], 1, 32), 65_536);
        assert_eq!(tile_width(&[], 2, 32), 65_536);
        // 2D, 1024-wide rows: 64 rows (tiled_mt's 1024^2 cells)
        assert_eq!(tile_width(&[1024], 2, 8), 64);
        assert_eq!(tile_width(&[1024], 1, 8), 64);
        // a 61-wide row: 1074 rows — every small test grid is one tile
        assert_eq!(tile_width(&[61], 1, 3), 1074);
        // 3D, 96^2 planes: 7 planes fit, the floor 2 * 2 * 4 = 16 binds
        assert_eq!(tile_width(&[96, 96], 2, 4), 16);
        assert_eq!(tile_width(&[96, 96], 1, 4), 8);
        // 512^2 planes (2 MiB each): far past the budget, the floor
        assert_eq!(tile_width(&[512, 512], 2, 4), 16);
        assert_eq!(tile_width(&[512, 512], 1, 1), 2);
        // the floor end in 1D and 2D: a time block deeper than the budget
        assert_eq!(tile_width(&[], 4, 16_384), 131_072);
        assert_eq!(tile_width(&[4096], 2, 8), 32);
        // degenerate inner extents never divide by zero or overflow
        assert_eq!(tile_width(&[0], 1, 1), 65_536);
        assert_eq!(tile_width(&[usize::MAX, usize::MAX], 1, 2), 4);
    }

    #[test]
    #[should_panic(expected = "tile narrower than its time block")]
    fn a_tile_narrower_than_its_time_block_is_refused() {
        DimTiling::new(40, 1, 1, 4, 7);
    }

    #[test]
    fn max_tb_keeps_tiles_inside() {
        assert_eq!(DimTiling::max_tb(100, 1, 1, 10), 10);
        assert_eq!(DimTiling::max_tb(100, 1, 1, 1000), 49);
        assert_eq!(DimTiling::max_tb(20, 2, 2, 8), 4);
        assert!(DimTiling::max_tb(6, 2, 1, 5) >= 1);
    }

    #[test]
    fn raw_pair_parity() {
        let mut a = vec![1.0f64];
        let mut b = vec![2.0f64];
        let pair = RawPair::new(&mut a, &mut b);
        unsafe {
            let (s0, d0) = pair.src_dst(0);
            assert_eq!(s0[0], 1.0);
            d0[0] = 5.0;
            let (s1, _) = pair.src_dst(1);
            assert_eq!(s1[0], 5.0);
        }
    }
}
