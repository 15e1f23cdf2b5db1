//! Memory layout transforms: local transpose layout vs global DLT.

use stencil_simd::transpose::{transpose_blocks_in_place, transpose_layout_index, transpose_rect};
use stencil_simd::SimdF64;

/// The paper's **local transpose layout** (§2.2).
///
/// A buffer of length `n` is split into `n / (vl*vl)` full blocks plus a
/// scalar tail. Each full block is viewed as a `vl x vl` row-major matrix
/// and transposed in place; the tail is left untouched (executors process
/// it with scalar code). The transform is its own inverse.
#[derive(Debug, Clone, Copy)]
pub struct TransposeLayout {
    vl: usize,
}

impl TransposeLayout {
    /// Layout for vector length `vl` (4 for AVX2, 8 for AVX-512).
    pub fn new(vl: usize) -> Self {
        assert!(vl.is_power_of_two() && (1..=8).contains(&vl));
        Self { vl }
    }

    /// Vector length.
    #[inline(always)]
    pub fn vl(&self) -> usize {
        self.vl
    }

    /// Elements per transposed block.
    #[inline(always)]
    pub fn block(&self) -> usize {
        self.vl * self.vl
    }

    /// Length of the prefix covered by full blocks.
    #[inline(always)]
    pub fn covered(&self, n: usize) -> usize {
        n - n % self.block()
    }

    /// Apply (or undo — it is an involution) the layout in place.
    #[inline(always)]
    pub fn apply<V: SimdF64>(&self, buf: &mut [f64]) {
        assert_eq!(V::LANES, self.vl, "vector width mismatch");
        let covered = self.covered(buf.len());
        transpose_blocks_in_place::<V>(&mut buf[..covered]);
    }

    /// Where original element `i` lives in the transposed buffer
    /// (identity in the scalar tail).
    #[inline]
    pub fn index(&self, i: usize, n: usize) -> usize {
        if i < self.covered(n) {
            transpose_layout_index(i, self.vl)
        } else {
            i
        }
    }
}

/// **DLT layout** (dimension-lifted transpose, Henretty et al.).
///
/// The whole array of length `n` (require `n % vl == 0` for the lifted
/// view; executors pad) is viewed as a `vl x (n/vl)` row-major matrix and
/// globally transposed into a *separate* buffer of shape
/// `(n/vl) x vl` — i.e. `dlt[p*vl + l] = orig[l*(n/vl) + p]`. Lane `l` of
/// vector `p` holds original element `l*cols + p`: the `x +- 1` neighbours
/// are the *adjacent vectors* `p +- 1`, so the steady-state sweep needs no
/// shuffles at all — but elements of one vector are `n/vl` apart in the
/// original space, which destroys spatial locality for tiling, and the
/// global transpose costs two full passes over the array.
#[derive(Debug, Clone, Copy)]
pub struct DltLayout {
    vl: usize,
    n: usize,
}

impl DltLayout {
    /// Layout for array length `n` and vector length `vl`.
    /// Panics unless `n` is a positive multiple of `vl`.
    pub fn new(n: usize, vl: usize) -> Self {
        assert!(
            vl >= 1 && n > 0 && n.is_multiple_of(vl),
            "n must be a multiple of vl"
        );
        Self { vl, n }
    }

    /// Lifted row length (`n / vl`): number of vectors in DLT space.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.n / self.vl
    }

    /// Vector length.
    #[inline(always)]
    pub fn vl(&self) -> usize {
        self.vl
    }

    /// Forward transform `orig -> dlt` (out of place, the extra array the
    /// paper notes DLT needs).
    #[inline(always)]
    pub fn to_dlt<V: SimdF64>(&self, orig: &[f64], dlt: &mut [f64]) {
        assert_eq!(orig.len(), self.n);
        assert_eq!(dlt.len(), self.n);
        // orig is vl rows x cols; dlt is its transpose (cols rows x vl).
        transpose_rect::<V>(orig, dlt, self.vl, self.cols());
    }

    /// Inverse transform `dlt -> orig`.
    #[inline(always)]
    pub fn from_dlt<V: SimdF64>(&self, dlt: &[f64], orig: &mut [f64]) {
        assert_eq!(orig.len(), self.n);
        assert_eq!(dlt.len(), self.n);
        transpose_rect::<V>(dlt, orig, self.cols(), self.vl);
    }

    /// Position of original element `i` in the DLT buffer.
    #[inline]
    pub fn index(&self, i: usize) -> usize {
        let cols = self.cols();
        let (lane, p) = (i / cols, i % cols);
        p * self.vl + lane
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_simd::portable::PF64x4;

    #[test]
    fn transpose_layout_roundtrip_with_tail() {
        let n = 16 * 3 + 7; // three blocks + scalar tail
        let orig: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let lay = TransposeLayout::new(4);
        let mut buf = orig.clone();
        lay.apply::<PF64x4>(&mut buf);
        // index map agrees
        for i in 0..n {
            assert_eq!(buf[lay.index(i, n)], orig[i], "i={i}");
        }
        // tail untouched
        assert_eq!(&buf[48..], &orig[48..]);
        lay.apply::<PF64x4>(&mut buf);
        assert_eq!(buf, orig);
    }

    #[test]
    fn dlt_roundtrip_and_index() {
        let n = 40;
        let lay = DltLayout::new(n, 4);
        let orig: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut dlt = vec![0.0; n];
        lay.to_dlt::<PF64x4>(&orig, &mut dlt);
        for i in 0..n {
            assert_eq!(dlt[lay.index(i)], orig[i], "i={i}");
        }
        let mut back = vec![0.0; n];
        lay.from_dlt::<PF64x4>(&dlt, &mut back);
        assert_eq!(back, orig);
    }

    #[test]
    fn dlt_neighbors_are_adjacent_vectors() {
        // The property DLT exists for: orig[x+1] sits exactly vl elements
        // after orig[x] in DLT space (same lane, next vector), except at
        // lifted-row boundaries.
        let n = 32;
        let lay = DltLayout::new(n, 4);
        let cols = lay.cols();
        for x in 0..n - 1 {
            if (x + 1) % cols != 0 {
                assert_eq!(lay.index(x + 1), lay.index(x) + 4, "x={x}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn dlt_requires_multiple_of_vl() {
        DltLayout::new(10, 4);
    }
}
