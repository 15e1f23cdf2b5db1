//! Integration: tiled execution (tessellate, and the SDSL baseline's
//! split tiling) must be bit-compatible with whole-grid sweeps under any
//! thread count — the tessellation correctness argument, exercised end
//! to end. Each test is its slice of the conformance product
//! (`conformance/mod.rs`); `Steps::Rounds` runs several time blocks and a
//! tail.

#[macro_use]
#[path = "conformance/mod.rs"]
mod conformance;

use conformance::{Extent::*, Route::*, Steps::*};
use stencil_lab::Method::{self, Folded, MultipleLoads, TransposeLayout};
use stencil_lab::{Tiling::Tessellate, Width::*};

#[test]
fn tessellation_1d_across_thread_counts() {
    check!(kernels: ["heat1d"], methods: [MultipleLoads],
        tilings: [Tessellate { time_block: 1 }, Tessellate { time_block: 3 },
            Tessellate { time_block: 8 }, Tessellate { time_block: 32 }],
        widths: [W4], threads: [1, 2, 7, 16], extents: [Aligned], steps: [Exact(40), Rounds],
        routes: [Scalar, Threads]);
}

#[test]
fn tessellation_1d_folded_register_kernel() {
    check!(kernels: ["heat1d"], methods: [Folded { m: 2 }], tilings: [Tessellate { time_block: 6 }],
        widths: [W4], threads: [1, 4, 12], extents: [Aligned], steps: [Exact(48), Rounds],
        routes: [Twin, Threads]);
}

#[test]
fn split_tiling_sdsl_1d() {
    check!(kernels: ["heat1d", "d1p5"], methods: [Method::Scalar],
        tilings: [Tessellate { time_block: 5 }], widths: [W4], threads: [1, 6], extents: [Aligned],
        steps: [Exact(30), Rounds], routes: [Baselines]);
}

#[test]
fn tessellation_2d_all_methods() {
    check!(kernels: ["box2d9p"], methods: [MultipleLoads, TransposeLayout],
        tilings: [Tessellate { time_block: 4 }], threads: [8], extents: [Aligned],
        steps: [Exact(18), Rounds],
        routes: [Scalar]);
}

#[test]
fn tessellation_2d_folded_vs_blockfree_folded() {
    check!(kernels: ["heat2d", "gb"], methods: [Folded { m: 2 }],
        tilings: [Tessellate { time_block: 3 }], threads: [6], extents: [Aligned],
        steps: [Exact(12), Rounds],
        routes: [Twin]);
}

#[test]
fn sdsl_hybrid_2d_and_3d() {
    check!(kernels: ["heat2d", "box3d27p"], methods: [Method::Scalar],
        tilings: [Tessellate { time_block: 3 }, Tessellate { time_block: 4 }], widths: [W4],
        rings: [None], threads: [4], extents: [Aligned], steps: [Exact(8), Rounds],
        routes: [Baselines]);
}

#[test]
fn tessellation_3d_folded() {
    check!(kernels: ["heat3d"], methods: [Folded { m: 2 }], tilings: [Tessellate { time_block: 2 }],
        widths: [W4], rings: [None], threads: [8], extents: [Aligned], steps: [Exact(8), Rounds],
        routes: [Twin]);
}

/// The register pipeline is range independent: every output is one fixed
/// chain of fused multiply-adds over its own inputs, whichever range call
/// produces it — so slabs of the outer axis, at any alignment, stitch to
/// the block-free plan's bits.
#[test]
fn register_plans_are_partition_independent() {
    check!(kernels: ["heat2d", "box2d9p", "gb", "heat3d", "box3d27p"],
        methods: [TransposeLayout, Folded { m: 2 }], tilings: [stencil_lab::Tiling::None],
        widths: [W4], rings: [None], extents: [Aligned, Ragged], steps: [Folds(2, 0), Folds(3, 0)],
        routes: [Shard]);
}

#[test]
fn odd_step_counts_and_leftovers() {
    check!(kernels: ["heat1d"], methods: [Folded { m: 2 }], tilings: [Tessellate { time_block: 4 }],
        threads: [3], extents: [Aligned], steps: [Exact(13), Folds(2, 1), Rounds],
        routes: [Scalar]);
}

/// Tessellation cuts `z` only, so every 3D kernel call has `y` and `x`
/// whole and a register plan's tessellated folded steps are the
/// block-free plan's, bit for bit, on a grid the width rule cuts in three.
#[test]
fn tessellated_3d_register_plans_equal_their_block_free_twin_bitwise() {
    check!(kernels: ["heat3d", "box3d27p"], methods: [Folded { m: 2 }, TransposeLayout],
        tilings: [Tessellate { time_block: 2 }, Tessellate { time_block: 4 }], widths: [W4],
        rings: [None], threads: [3], extents: [Tiles3], steps: [Exact(8)], routes: [Twin]);
}

/// The width rule cuts a wide 2D grid into cache-sized tiles: the tiled
/// result agrees with the block-free plan to rounding (2D tips take the
/// scalar guard) and reproduces its own bits on another thread count.
#[test]
fn tessellation_2d_cuts_a_wide_grid_into_cache_sized_tiles() {
    check!(kernels: ["gb", "box2d9p"], methods: [Folded { m: 2 }, TransposeLayout],
        tilings: [Tessellate { time_block: 4 }], widths: [W4], threads: [3], extents: [Tiles3],
        steps: [Exact(8)], routes: [Twin, Threads]);
}
