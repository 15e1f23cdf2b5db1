//! Dense 3D grid with padded x-stride.

use crate::aligned::AlignedBuf;
use crate::grid2d::row_stride;

/// A dense 3D grid (`nz` planes of `ny` rows of `nx` points), stored
/// z-major / row-major with the x-stride padded to a multiple of 8 so
/// every row starts 64-byte aligned. The paper manipulates 3D volumes as
/// `nz`-layer stacks of 2D slices (§3.3); this container makes each slice
/// directly addressable as a `Grid2D`-compatible region.
#[derive(Clone, Debug, PartialEq)]
pub struct Grid3D {
    buf: AlignedBuf,
    nz: usize,
    ny: usize,
    nx: usize,
    stride_y: usize,
    stride_z: usize,
}

impl Grid3D {
    /// Zero-initialized `nz x ny x nx` grid.
    pub fn zeros(nz: usize, ny: usize, nx: usize) -> Self {
        let stride_y = row_stride(nx);
        let stride_z = stride_y * ny;
        Self {
            buf: AlignedBuf::zeroed(nz * stride_z),
            nz,
            ny,
            nx,
            stride_y,
            stride_z,
        }
    }

    /// Zero-initialized `nz x ny x nx` grid whose pages are first
    /// touched from `workers` threads (see
    /// [`AlignedBuf::zeroed_parallel`]): large-grid allocation stops
    /// serializing on one zeroing loop and NUMA first-touch placement
    /// follows the threads that will sweep the data. Bit-identical to
    /// [`Self::zeros`].
    pub fn zeros_parallel(nz: usize, ny: usize, nx: usize, workers: usize) -> Self {
        let stride_y = row_stride(nx);
        let stride_z = stride_y * ny;
        Self {
            buf: AlignedBuf::zeroed_parallel(nz * stride_z, workers),
            nz,
            ny,
            nx,
            stride_y,
            stride_z,
        }
    }

    /// Grid initialized from a function of `(z, y, x)`.
    pub fn from_fn(
        nz: usize,
        ny: usize,
        nx: usize,
        mut f: impl FnMut(usize, usize, usize) -> f64,
    ) -> Self {
        let mut g = Self::zeros(nz, ny, nx);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    g[(z, y, x)] = f(z, y, x);
                }
            }
        }
        g
    }

    /// Planes.
    #[inline(always)]
    pub fn nz(&self) -> usize {
        self.nz
    }
    /// Rows per plane.
    #[inline(always)]
    pub fn ny(&self) -> usize {
        self.ny
    }
    /// Points per row.
    #[inline(always)]
    pub fn nx(&self) -> usize {
        self.nx
    }
    /// Elements between consecutive rows.
    #[inline(always)]
    pub fn stride_y(&self) -> usize {
        self.stride_y
    }
    /// Elements between consecutive planes.
    #[inline(always)]
    pub fn stride_z(&self) -> usize {
        self.stride_z
    }

    /// Shared view of row `(z, y)`.
    #[inline(always)]
    pub fn row(&self, z: usize, y: usize) -> &[f64] {
        debug_assert!(z < self.nz && y < self.ny);
        let off = z * self.stride_z + y * self.stride_y;
        &self.buf[off..off + self.nx]
    }

    /// Mutable view of row `(z, y)`.
    #[inline(always)]
    pub fn row_mut(&mut self, z: usize, y: usize) -> &mut [f64] {
        debug_assert!(z < self.nz && y < self.ny);
        let off = z * self.stride_z + y * self.stride_y;
        &mut self.buf[off..off + self.nx]
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

    /// Raw pointer to `(0,0,0)`.
    #[inline(always)]
    pub fn as_ptr(&self) -> *const f64 {
        self.buf.as_ptr()
    }

    /// Raw mutable pointer to `(0,0,0)`.
    #[inline(always)]
    pub fn as_mut_ptr(&mut self) -> *mut f64 {
        self.buf.as_mut_ptr()
    }

    /// Logical contents without padding, flattened z-major.
    pub fn to_dense(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.nz * self.ny * self.nx);
        for z in 0..self.nz {
            for y in 0..self.ny {
                out.extend_from_slice(self.row(z, y));
            }
        }
        out
    }

    /// Copy `src`'s Dirichlet band — every cell within `r` of a face —
    /// into `self`, which must have `src`'s shape; interior cells of
    /// `self` are left as they are. A grid no wider than `2r` along some
    /// axis has no interior and is copied whole.
    pub fn copy_band_from(&mut self, src: &Grid3D, r: usize) {
        let (nz, ny, nx) = (self.nz, self.ny, self.nx);
        assert_eq!((nz, ny, nx), (src.nz, src.ny, src.nx), "shape mismatch");
        let all_band = nz <= 2 * r || ny <= 2 * r || nx <= 2 * r;
        for z in 0..nz {
            for y in 0..ny {
                let (srow, drow) = (src.row(z, y), self.row_mut(z, y));
                if all_band || z < r || z >= nz - r || y < r || y >= ny - r {
                    drow.copy_from_slice(srow);
                } else {
                    drow[..r].copy_from_slice(&srow[..r]);
                    drow[nx - r..].copy_from_slice(&srow[nx - r..]);
                }
            }
        }
    }

    /// Fill every logical cell with a constant.
    pub fn fill(&mut self, v: f64) {
        for z in 0..self.nz {
            for y in 0..self.ny {
                self.row_mut(z, y).fill(v);
            }
        }
    }
}

impl core::ops::Index<(usize, usize, usize)> for Grid3D {
    type Output = f64;
    #[inline(always)]
    fn index(&self, (z, y, x): (usize, usize, usize)) -> &f64 {
        debug_assert!(z < self.nz && y < self.ny && x < self.nx);
        &self.buf[z * self.stride_z + y * self.stride_y + x]
    }
}

impl core::ops::IndexMut<(usize, usize, usize)> for Grid3D {
    #[inline(always)]
    fn index_mut(&mut self, (z, y, x): (usize, usize, usize)) -> &mut f64 {
        debug_assert!(z < self.nz && y < self.ny && x < self.nx);
        &mut self.buf[z * self.stride_z + y * self.stride_y + x]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_index() {
        let g = Grid3D::from_fn(2, 3, 5, |z, y, x| (z * 100 + y * 10 + x) as f64);
        assert_eq!(g[(1, 2, 4)], 124.0);
        assert_eq!(g.row(1, 2)[4], 124.0);
        assert_eq!(g.stride_y(), 8);
        assert_eq!(g.stride_z(), 24);
    }

    #[test]
    fn to_dense() {
        let g = Grid3D::from_fn(2, 2, 2, |z, y, x| (z * 4 + y * 2 + x) as f64);
        assert_eq!(g.to_dense(), (0..8).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn copy_band_from_leaves_the_interior_alone() {
        let src = Grid3D::from_fn(7, 6, 9, |z, y, x| (z * 100 + y * 10 + x) as f64);
        for r in 0..5 {
            let mut dst = Grid3D::zeros(7, 6, 9);
            dst.fill(f64::NAN);
            dst.copy_band_from(&src, r);
            for z in 0..7usize {
                for y in 0..6usize {
                    for x in 0..9usize {
                        // r = 3 leaves no interior along y: all band
                        let band = r >= 3
                            || [(z, 7), (y, 6), (x, 9)]
                                .iter()
                                .any(|&(c, n)| c < r || c >= n - r);
                        let got = dst[(z, y, x)];
                        if band {
                            assert_eq!(got, src[(z, y, x)], "r={r} ({z},{y},{x})");
                        } else {
                            assert!(got.is_nan(), "r={r} ({z},{y},{x})");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rows_are_aligned() {
        let g = Grid3D::zeros(2, 3, 13);
        for z in 0..2 {
            for y in 0..3 {
                assert_eq!(g.row(z, y).as_ptr() as usize % 64, 0);
            }
        }
    }
}
