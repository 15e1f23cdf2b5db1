//! # stencil-grid
//!
//! Data-space substrate for the stencil library: cache-line-aligned `f64`
//! buffers ([`aligned::AlignedBuf`]) recycled through one bounded
//! surface pool ([`pool`]), dense 1D/2D/3D grids with padded row
//! strides ([`Grid1D`], [`Grid2D`], [`Grid3D`]), Jacobi ping-pong pairs
//! ([`pingpong::PingPong`]), and the two memory-layout transforms the
//! paper contrasts:
//!
//! * the **local transpose layout** (§2.2) — every aligned `vl*vl` block
//!   transposed in place, an involution applied once before and once after
//!   a sweep ([`layout::TransposeLayout`]);
//! * the **DLT layout** (Henretty; §2.1) — a *global* dimension-lifted
//!   transpose into a separate buffer ([`layout::DltLayout`]), whose cost
//!   and locality loss are exactly what the paper's scheme avoids.
//!
//! ```
//! use stencil_grid::{Grid1D, Grid2D, PingPong};
//!
//! // Row-padded 2D grid: rows are aligned, so vector loads on any row
//! // start at a cache-line boundary.
//! let g = Grid2D::from_fn(3, 5, |y, x| (y * 5 + x) as f64);
//! assert_eq!(g.row(2)[4], 14.0);
//! assert!(g.stride() >= 5);
//!
//! // Jacobi ping-pong pair: write into dst, swap, read from current.
//! let mut pp = PingPong::new(Grid1D::zeros(8));
//! let (_src, dst) = pp.src_dst();
//! dst.as_mut_slice()[3] = 1.0;
//! pp.swap();
//! assert_eq!(pp.current().as_slice()[3], 1.0);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod aligned;
pub mod grid1d;
pub mod grid2d;
pub mod grid3d;
pub mod layout;
pub mod pingpong;
pub mod pool;

pub use aligned::AlignedBuf;
pub use grid1d::Grid1D;
pub use grid2d::Grid2D;
pub use grid3d::Grid3D;
pub use pingpong::PingPong;
pub use pool::{pool_stats, PoolStats};

/// Maximum absolute difference between two equal-length slices.
///
/// The workhorse of every cross-executor correctness test in the
/// workspace.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Relative L2 error `||a-b|| / max(||b||, eps)`.
pub fn rel_l2_error(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    let mut num = 0.0;
    let mut den = 0.0;
    for (x, y) in a.iter().zip(b) {
        num += (x - y) * (x - y);
        den += y * y;
    }
    num.sqrt() / den.sqrt().max(1e-300)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_helpers() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 2.5, 3.0];
        assert_eq!(max_abs_diff(&a, &b), 0.5);
        assert!(rel_l2_error(&a, &a) == 0.0);
        assert!(rel_l2_error(&a, &b) > 0.0);
    }

    #[test]
    #[should_panic]
    fn diff_len_mismatch_panics() {
        max_abs_diff(&[1.0], &[1.0, 2.0]);
    }
}
