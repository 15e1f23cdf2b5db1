//! Integration: every vectorization method must produce the same fields
//! as the scalar reference, for every linear benchmark kernel, across
//! widths — the core correctness claim behind the performance numbers.
//! Each test is its slice of the conformance product
//! (`conformance/mod.rs`); the paper's baselines ride on the scalar cells.

#[macro_use]
#[path = "conformance/mod.rs"]
mod conformance;

use conformance::{Extent::*, Route, Steps};
use stencil_lab::Method::{Folded, MultipleLoads, Scalar, TransposeLayout};
use stencil_lab::{Method, Tiling, Width::*};

#[test]
fn one_dimensional_methods_agree() {
    check!(kernels: ["heat1d", "d1p5"], methods: [Scalar, MultipleLoads, TransposeLayout],
        tilings: [Tiling::None], widths: [W4, W8], extents: [Aligned], steps: [Steps::Exact(20)],
        routes: [Route::Scalar, Route::Baselines]);
}

#[test]
fn folded_1d_matches_scalar_folded() {
    check!(kernels: ["heat1d", "d1p5"], methods: [Folded { m: 2 }, Folded { m: 3 }],
        tilings: [Tiling::None], widths: [W4, W8], extents: [Aligned], steps: [Steps::Folds(4, 0)],
        routes: [Route::Scalar]);
}

#[test]
fn two_dimensional_methods_agree() {
    // life_count's weight sum is 8: the tolerance scales with the field,
    // and the relative L2 error stays under 1e-13
    check!(kernels: ["heat2d", "box2d9p", "gb", "life_count"],
        methods: [MultipleLoads, TransposeLayout], tilings: [Tiling::None], widths: [W4, W8],
        extents: [Aligned, Ragged], steps: [Steps::Exact(10)], routes: [Route::Scalar]);
}

#[test]
fn folded_2d_matches_scalar_folded_all_kernels() {
    check!(kernels: ["heat2d", "box2d9p", "gb"], methods: [Folded { m: 2 }],
        tilings: [Tiling::None], widths: [W4, W8], extents: [Ragged], steps: [Steps::Folds(4, 0)],
        routes: [Route::Scalar]);
}

#[test]
fn three_dimensional_methods_agree() {
    check!(kernels: ["heat3d", "box3d27p"], methods: [MultipleLoads, TransposeLayout, Folded { m: 2 }],
        tilings: [Tiling::None], widths: [W4], rings: [None], extents: [Aligned, Ragged],
        steps: [Steps::Exact(5), Steps::Folds(2, 0)], routes: [Route::Scalar]);
}

#[test]
fn three_dimensional_tuned_and_static_selection_agree() {
    // the full auto pipeline under the cost model and the measured tuner,
    // and the measured decision replayed from the cache
    check!(kernels: ["heat3d", "box3d27p"], methods: [Method::Auto], tilings: [Tiling::Auto],
        widths: [W4], rings: [None], threads: [2], extents: [Aligned], steps: [Steps::Exact(4)],
        routes: [Route::Tuned]);
}

#[test]
fn arbitrary_asymmetric_patterns_1d() {
    check!(kernels: ["asym1d"], methods: [Scalar, MultipleLoads, TransposeLayout],
        tilings: [Tiling::None], widths: [W4, W8], extents: [Aligned], steps: [Steps::Exact(8)],
        routes: [Route::Scalar, Route::Baselines]);
}
