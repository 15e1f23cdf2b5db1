//! Dense 2D grid with padded row stride.

use crate::aligned::AlignedBuf;

/// Row stride padding unit, in `f64` elements (one cache line).
pub const STRIDE_PAD: usize = 8;

/// A dense row-major 2D grid (`ny` rows of `nx` points) whose row stride
/// is padded up to a multiple of [`STRIDE_PAD`] so every row starts
/// 64-byte aligned.
#[derive(Clone, Debug, PartialEq)]
pub struct Grid2D {
    buf: AlignedBuf,
    ny: usize,
    nx: usize,
    stride: usize,
}

/// Round `n` up to a multiple of `unit`.
#[inline]
pub fn round_up(n: usize, unit: usize) -> usize {
    n.div_ceil(unit) * unit
}

impl Grid2D {
    /// Zero-initialized `ny x nx` grid.
    pub fn zeros(ny: usize, nx: usize) -> Self {
        let stride = round_up(nx.max(1), STRIDE_PAD);
        Self {
            buf: AlignedBuf::zeroed(ny * stride),
            ny,
            nx,
            stride,
        }
    }

    /// Grid initialized from a function of `(y, x)`.
    pub fn from_fn(ny: usize, nx: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut g = Self::zeros(ny, nx);
        for y in 0..ny {
            for x in 0..nx {
                g[(y, x)] = f(y, x);
            }
        }
        g
    }

    /// Rows.
    #[inline(always)]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Columns (logical row length).
    #[inline(always)]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Physical row stride in elements (`>= nx`, multiple of 8).
    #[inline(always)]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Shared view of row `y` (logical length `nx`).
    #[inline(always)]
    pub fn row(&self, y: usize) -> &[f64] {
        debug_assert!(y < self.ny);
        &self.buf[y * self.stride..y * self.stride + self.nx]
    }

    /// Mutable view of row `y`.
    #[inline(always)]
    pub fn row_mut(&mut self, y: usize) -> &mut [f64] {
        debug_assert!(y < self.ny);
        &mut self.buf[y * self.stride..y * self.stride + self.nx]
    }

    /// Whole padded backing buffer.
    #[inline(always)]
    pub fn as_slice(&self) -> &[f64] {
        self.buf.as_slice()
    }

    /// Whole padded backing buffer, mutable.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        self.buf.as_mut_slice()
    }

    /// Raw pointer to `(0,0)`.
    #[inline(always)]
    pub fn as_ptr(&self) -> *const f64 {
        self.buf.as_ptr()
    }

    /// Raw mutable pointer to `(0,0)`.
    #[inline(always)]
    pub fn as_mut_ptr(&mut self) -> *mut f64 {
        self.buf.as_mut_ptr()
    }

    /// Copy the logical contents (without padding) into a flat `Vec`
    /// of length `ny * nx` — used by tests to compare grids with
    /// different strides.
    pub fn to_dense(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.ny * self.nx);
        for y in 0..self.ny {
            out.extend_from_slice(self.row(y));
        }
        out
    }

    /// Fill every logical cell with a constant (padding untouched).
    pub fn fill(&mut self, v: f64) {
        for y in 0..self.ny {
            self.row_mut(y).fill(v);
        }
    }

    /// Copy `src`'s Dirichlet band — every cell within `r` of an edge —
    /// into `self`, which must have `src`'s shape; interior cells of
    /// `self` are left as they are. A grid no wider than `2r` along some
    /// axis has no interior and is copied whole.
    pub fn copy_band_from(&mut self, src: &Grid2D, r: usize) {
        let (ny, nx) = (self.ny, self.nx);
        assert_eq!((ny, nx), (src.ny, src.nx), "shape mismatch");
        let all_band = ny <= 2 * r || nx <= 2 * r;
        for y in 0..ny {
            let (srow, drow) = (src.row(y), self.row_mut(y));
            if all_band || y < r || y >= ny - r {
                drow.copy_from_slice(srow);
            } else {
                drow[..r].copy_from_slice(&srow[..r]);
                drow[nx - r..].copy_from_slice(&srow[nx - r..]);
            }
        }
    }
}

impl core::ops::Index<(usize, usize)> for Grid2D {
    type Output = f64;
    #[inline(always)]
    fn index(&self, (y, x): (usize, usize)) -> &f64 {
        debug_assert!(y < self.ny && x < self.nx);
        &self.buf[y * self.stride + x]
    }
}

impl core::ops::IndexMut<(usize, usize)> for Grid2D {
    #[inline(always)]
    fn index_mut(&mut self, (y, x): (usize, usize)) -> &mut f64 {
        debug_assert!(y < self.ny && x < self.nx);
        &mut self.buf[y * self.stride + x]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_is_padded_and_rows_aligned() {
        let g = Grid2D::zeros(3, 13);
        assert_eq!(g.stride(), 16);
        assert_eq!(g.row(2).len(), 13);
        assert_eq!(g.row(1).as_ptr() as usize % 64, 0);
    }

    #[test]
    fn from_fn_and_index() {
        let g = Grid2D::from_fn(4, 5, |y, x| (y * 10 + x) as f64);
        assert_eq!(g[(3, 4)], 34.0);
        assert_eq!(g.row(2)[1], 21.0);
    }

    #[test]
    fn to_dense_strips_padding() {
        let g = Grid2D::from_fn(2, 3, |y, x| (y * 3 + x) as f64);
        assert_eq!(g.to_dense(), vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn copy_band_from_leaves_the_interior_alone() {
        let src = Grid2D::from_fn(6, 9, |y, x| (y * 10 + x) as f64);
        for r in 0..5 {
            let mut dst = Grid2D::zeros(6, 9);
            dst.fill(f64::NAN);
            dst.copy_band_from(&src, r);
            for y in 0..6usize {
                for x in 0..9usize {
                    // r = 3 leaves no interior along y: all band
                    let band = r >= 3 || [(y, 6), (x, 9)].iter().any(|&(c, n)| c < r || c >= n - r);
                    let got = dst[(y, x)];
                    if band {
                        assert_eq!(got, src[(y, x)], "r={r} ({y},{x})");
                    } else {
                        assert!(got.is_nan(), "r={r} ({y},{x})");
                    }
                }
            }
        }
    }

    #[test]
    fn exact_multiple_stride() {
        let g = Grid2D::zeros(2, 16);
        assert_eq!(g.stride(), 16);
    }
}
