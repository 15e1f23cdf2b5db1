//! Cross-backend 3D parity suite for the z-ring register pipeline, as
//! slices of the conformance product (`conformance/mod.rs`):
//!
//! * every width agrees with the `exec/scalar.rs` folded reference for
//!   `heat3d`, `box3d27p` and the radius-2 `box3d125p` and `star3d_r2`,
//!   at m ∈ {1, 2}, block-free and tessellated;
//! * scalar-lane plans agree with `exec/scalar.rs` **bit for bit** (they
//!   execute through it), and a fold past their cap is a compile error;
//! * tessellate thread counts never change a single bit;
//! * Static and Measured tuning agree on the field, and a Measured →
//!   CacheOnly replay is bit-identical.

#[macro_use]
#[path = "conformance/mod.rs"]
mod conformance;

use conformance::{Extent::*, Route, Steps};
use stencil_lab::Method::Folded;
use stencil_lab::{Tiling, Width::*};

#[test]
fn zring_agrees_with_scalar_reference_across_widths_and_tilings() {
    check!(kernels: ["heat3d", "box3d27p", "box3d125p", "star3d_r2"],
        methods: [Folded { m: 1 }, Folded { m: 2 }],
        tilings: [Tiling::None, Tiling::Tessellate { time_block: 2 }], widths: [W4, W8],
        rings: [None], threads: [3], extents: [Ragged], steps: [Steps::Folds(2, 0)],
        routes: [Route::Scalar]);
}

#[test]
fn scalar_lane_plans_agree_bitwise_with_scalar_executor() {
    check!(kernels: ["heat3d", "box3d27p", "box3d125p", "star3d_r2"],
        methods: [Folded { m: 1 }, Folded { m: 2 }], tilings: [Tiling::None], widths: [W1],
        rings: [None], extents: [Ragged], steps: [Steps::Folds(2, 0)], routes: [Route::Scalar]);
}

#[test]
fn tessellate_thread_count_never_changes_bits() {
    check!(kernels: ["heat3d", "box3d125p"], methods: [Folded { m: 2 }],
        tilings: [Tiling::Tessellate { time_block: 2 }], widths: [W4], rings: [None],
        threads: [1, 4], extents: [Aligned], steps: [Steps::Exact(6), Steps::Rounds], routes: [Route::Threads]);
}

#[test]
fn static_and_measured_tuning_agree_and_cache_only_replays_bitwise() {
    check!(kernels: ["heat3d", "box3d27p"], methods: [Folded { m: 2 }], tilings: [Tiling::Auto],
        widths: [W4], rings: [None], threads: [2], extents: [Aligned], steps: [Steps::Folds(2, 0)],
        routes: [Route::Tuned]);
}
