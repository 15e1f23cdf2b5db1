//! Dense 1D grid.

use crate::aligned::AlignedBuf;

/// A dense 1D grid of `f64` backed by an aligned buffer.
///
/// Boundary convention across the workspace: Jacobi sweeps update the
/// interior `[r, n-r)` for a radius-`r` stencil and copy the boundary
/// values through unchanged (Dirichlet).
#[derive(Clone, Debug, PartialEq)]
pub struct Grid1D {
    buf: AlignedBuf,
}

impl Grid1D {
    /// Zero-initialized grid of `n` points.
    pub fn zeros(n: usize) -> Self {
        Self {
            buf: AlignedBuf::zeroed(n),
        }
    }

    /// Grid initialized from a function of the index.
    pub fn from_fn(n: usize, f: impl FnMut(usize) -> f64) -> Self {
        Self {
            buf: AlignedBuf::from_fn(n, f),
        }
    }

    /// Grid initialized from a slice.
    pub fn from_slice(s: &[f64]) -> Self {
        Self {
            buf: AlignedBuf::from_slice(s),
        }
    }

    /// Number of points.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when empty.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// All points.
    #[inline(always)]
    pub fn as_slice(&self) -> &[f64] {
        self.buf.as_slice()
    }

    /// All points, mutable.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        self.buf.as_mut_slice()
    }

    /// Fill with a constant.
    pub fn fill(&mut self, v: f64) {
        self.buf.fill(v);
    }

    /// Copy `src`'s Dirichlet band — the `r` cells at each end — into
    /// `self`, which must have `src`'s length; interior cells of `self`
    /// are left as they are. A grid no longer than `2r` has no interior
    /// and is copied whole.
    pub fn copy_band_from(&mut self, src: &Grid1D, r: usize) {
        let n = self.len();
        assert_eq!(n, src.len(), "shape mismatch");
        let (s, d) = (src.as_slice(), self.as_mut_slice());
        if n <= 2 * r {
            return d.copy_from_slice(s);
        }
        d[..r].copy_from_slice(&s[..r]);
        d[n - r..].copy_from_slice(&s[n - r..]);
    }
}

impl core::ops::Index<usize> for Grid1D {
    type Output = f64;
    #[inline(always)]
    fn index(&self, i: usize) -> &f64 {
        &self.buf[i]
    }
}

impl core::ops::IndexMut<usize> for Grid1D {
    #[inline(always)]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.buf[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_index() {
        let mut g = Grid1D::from_fn(10, |i| i as f64);
        assert_eq!(g.len(), 10);
        assert_eq!(g[7], 7.0);
        g[7] = 1.5;
        assert_eq!(g.as_slice()[7], 1.5);
    }

    #[test]
    fn copy_band_from_leaves_the_interior_alone() {
        let src = Grid1D::from_fn(9, |i| i as f64);
        for r in 0..6 {
            let mut dst = Grid1D::zeros(9);
            dst.fill(f64::NAN);
            dst.copy_band_from(&src, r);
            for i in 0..9 {
                // r = 5 leaves no interior: all band
                if r >= 5 || i < r || i >= 9 - r {
                    assert_eq!(dst[i], src[i], "r={r} i={i}");
                } else {
                    assert!(dst[i].is_nan(), "r={r} i={i}");
                }
            }
        }
    }

    #[test]
    fn clone_is_deep() {
        let g = Grid1D::from_fn(5, |i| i as f64);
        let mut h = g.clone();
        h[0] = 42.0;
        assert_eq!(g[0], 0.0);
    }
}
