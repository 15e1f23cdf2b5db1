//! The whole conformance product (see `conformance/mod.rs`): every cell
//! through the cheap routes, the seeded sample through the expensive
//! ones, and no (axis value × route) a route could take left uncovered.
//! One test per dimensionality (3D per tiling), so they run side by side.

#[macro_use]
#[path = "conformance/mod.rs"]
mod conformance;

use conformance::Report;
use stencil_lab::Tiling::{None as BlockFree, Tessellate};

fn whole(report: Report) {
    assert!(report.accepted > 0 && report.rejected > 0, "{report:?}");
    assert!(
        report.uncovered.is_empty(),
        "uncovered: {:?}",
        report.uncovered
    );
}

#[test]
fn conformance_1d() {
    whole(check!(dims: [1]));
}

#[test]
fn conformance_2d() {
    whole(check!(dims: [2]));
}

#[test]
fn conformance_3d_block_free() {
    whole(check!(dims: [3], tilings: [BlockFree, Tessellate { time_block: 0 }]));
}

#[test]
fn conformance_3d_tessellated_tb2() {
    whole(check!(dims: [3], tilings: [Tessellate { time_block: 2 }]));
}

#[test]
fn conformance_3d_tessellated_tb3() {
    whole(check!(dims: [3], tilings: [Tessellate { time_block: 3 }]));
}
