//! AVX2 backend: `__m256d` (4 x f64).
//!
//! Compiled on every x86_64 build and private to the crate: a value is
//! built only inside [`crate::dispatch`]'s `avx2,fma` entry, after
//! detection, or as [`crate::NativeF64x4`] in a build that enables both
//! features statically. Every method is `#[inline(always)]`, so the
//! intrinsics compile into the entry — no dispatch inside the hot loops.
//!
//! The lane shuffles map 1:1 onto the instructions named in the paper:
//!
//! * `shift_in_left` / `shift_in_right` (assembled dependents, Fig. 2):
//!   one `vblendpd` + one `vpermpd` (blend, then circular lane shift).
//! * `transpose` (Fig. 3): stage 1 `vperm2f128` x4, stage 2
//!   `vunpcklpd`/`vunpckhpd` x4 — 8 single-uop instructions for a full
//!   4x4 `f64` tile.

#![allow(clippy::missing_safety_doc)]

use crate::vector::SimdF64;
use core::arch::x86_64::*;

/// 4-lane `f64` vector backed by `__m256d`.
#[derive(Copy, Clone, Debug)]
#[repr(transparent)]
pub struct F64x4(pub __m256d);

impl F64x4 {
    /// Construct from lane values (lane 0 first).
    #[inline(always)]
    pub fn new(lanes: [f64; 4]) -> Self {
        // SAFETY: lanes has 4 elements; the CPU has AVX2 (module docs).
        unsafe { Self(_mm256_loadu_pd(lanes.as_ptr())) }
    }

    /// Copy lanes out to an array.
    #[inline(always)]
    pub fn to_array(self) -> [f64; 4] {
        let mut out = [0.0; 4];
        // SAFETY: out has 4 elements.
        unsafe { _mm256_storeu_pd(out.as_mut_ptr(), self.0) };
        out
    }
}

impl SimdF64 for F64x4 {
    const LANES: usize = 4;

    #[inline(always)]
    fn splat(x: f64) -> Self {
        unsafe { Self(_mm256_set1_pd(x)) }
    }

    #[inline(always)]
    unsafe fn load(ptr: *const f64) -> Self {
        Self(_mm256_loadu_pd(ptr))
    }

    #[inline(always)]
    unsafe fn store(self, ptr: *mut f64) {
        _mm256_storeu_pd(ptr, self.0)
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        unsafe { Self(_mm256_add_pd(self.0, o.0)) }
    }

    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        unsafe { Self(_mm256_sub_pd(self.0, o.0)) }
    }

    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        unsafe { Self(_mm256_mul_pd(self.0, o.0)) }
    }

    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        unsafe { Self(_mm256_fmadd_pd(self.0, a.0, b.0)) }
    }

    #[inline(always)]
    fn max(self, o: Self) -> Self {
        unsafe { Self(_mm256_max_pd(self.0, o.0)) }
    }

    #[inline(always)]
    fn min(self, o: Self) -> Self {
        unsafe { Self(_mm256_min_pd(self.0, o.0)) }
    }

    #[inline(always)]
    fn ge01(self, o: Self) -> Self {
        unsafe {
            let mask = _mm256_cmp_pd::<_CMP_GE_OQ>(self.0, o.0);
            Self(_mm256_and_pd(mask, _mm256_set1_pd(1.0)))
        }
    }

    #[inline(always)]
    fn extract(self, i: usize) -> f64 {
        self.to_array()[i]
    }

    #[inline(always)]
    fn insert(self, i: usize, v: f64) -> Self {
        let mut a = self.to_array();
        a[i] = v;
        Self::new(a)
    }

    /// `[a1, a2, a3, b0]` — blend lane 3 of `next`'s rotation, then one
    /// `vpermpd` circular shift. Matches the paper's "blend instruction
    /// followed by a permute operation".
    #[inline(always)]
    fn shift_in_right(self, next: Self) -> Self {
        unsafe {
            // blended = [a0, a1, a2, b0] wrong lane order; instead rotate
            // then blend: rot(self) = [a1,a2,a3,a0]; take b0 into lane 3.
            let rot = _mm256_permute4x64_pd::<0b00_11_10_01>(self.0); // [a1,a2,a3,a0]
            let nrot = _mm256_permute4x64_pd::<0b00_11_10_01>(next.0); // [b1,b2,b3,b0]
            Self(_mm256_blend_pd::<0b1000>(rot, nrot)) // [a1,a2,a3,b0]
        }
    }

    /// `[p3, a0, a1, a2]` — the left-dependent assembly.
    #[inline(always)]
    fn shift_in_left(self, prev: Self) -> Self {
        unsafe {
            let rot = _mm256_permute4x64_pd::<0b10_01_00_11>(self.0); // [a3,a0,a1,a2]
            let prot = _mm256_permute4x64_pd::<0b10_01_00_11>(prev.0); // [p3,p0,p1,p2]
            Self(_mm256_blend_pd::<0b0001>(rot, prot)) // [p3,a0,a1,a2]
        }
    }

    /// Two-stage 8-instruction transpose (paper Fig. 3):
    /// stage 1: `vperm2f128` pairs vectors at distance 2;
    /// stage 2: `vunpcklpd`/`vunpckhpd` pairs adjacent vectors.
    #[inline(always)]
    fn transpose(set: &mut [Self]) {
        assert_eq!(set.len(), 4, "transpose needs a full vector set");
        unsafe {
            let (r0, r1, r2, r3) = (set[0].0, set[1].0, set[2].0, set[3].0);
            // Stage 1: exchange 128-bit halves between rows 0<->2, 1<->3.
            let t0 = _mm256_permute2f128_pd::<0x20>(r0, r2); // [a0 a1 | c0 c1]
            let t1 = _mm256_permute2f128_pd::<0x20>(r1, r3); // [b0 b1 | d0 d1]
            let t2 = _mm256_permute2f128_pd::<0x31>(r0, r2); // [a2 a3 | c2 c3]
            let t3 = _mm256_permute2f128_pd::<0x31>(r1, r3); // [b2 b3 | d2 d3]

            // Stage 2: interleave 64-bit lanes within halves.
            set[0] = Self(_mm256_unpacklo_pd(t0, t1)); // [a0 b0 c0 d0]
            set[1] = Self(_mm256_unpackhi_pd(t0, t1)); // [a1 b1 c1 d1]
            set[2] = Self(_mm256_unpacklo_pd(t2, t3)); // [a2 b2 c2 d2]
            set[3] = Self(_mm256_unpackhi_pd(t2, t3)); // [a3 b3 c3 d3]
        }
    }
}

// Each test builds `F64x4` values: it runs only where the CPU has the
// backend's features, and says so where it does not.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::portable::PF64x4;
    use crate::Isa;

    fn skip() -> bool {
        let skip = Isa::detected() < Isa::Avx2;
        if skip {
            eprintln!("CPU lacks avx2 + fma: skipping the AVX2 backend test");
        }
        skip
    }

    fn p(v: F64x4) -> PF64x4 {
        PF64x4::new(v.to_array())
    }

    #[test]
    fn matches_portable_arithmetic() {
        if skip() {
            return;
        }
        let a = F64x4::new([1.5, -2.0, 3.25, 4.0]);
        let b = F64x4::new([0.5, 8.0, -1.0, 2.0]);
        let pa = p(a);
        let pb = p(b);
        assert_eq!(p(a.add(b)), pa.add(pb));
        assert_eq!(p(a.sub(b)), pa.sub(pb));
        assert_eq!(p(a.mul(b)), pa.mul(pb));
        assert_eq!(p(a.mul_add(b, a)), pa.mul_add(pb, pa));
        assert_eq!(p(a.max(b)), pa.max(pb));
        assert_eq!(p(a.min(b)), pa.min(pb));
    }

    #[test]
    fn matches_portable_shifts() {
        if skip() {
            return;
        }
        let a = F64x4::new([1.0, 2.0, 3.0, 4.0]);
        let b = F64x4::new([5.0, 6.0, 7.0, 8.0]);
        assert_eq!(p(a.shift_in_right(b)), p(a).map_shift_r(p(b)));
        assert_eq!(p(a.shift_in_left(b)), p(a).map_shift_l(p(b)));
    }

    trait ShiftHelpers {
        fn map_shift_r(self, n: PF64x4) -> PF64x4;
        fn map_shift_l(self, n: PF64x4) -> PF64x4;
    }
    impl ShiftHelpers for PF64x4 {
        fn map_shift_r(self, n: PF64x4) -> PF64x4 {
            self.shift_in_right(n)
        }
        fn map_shift_l(self, n: PF64x4) -> PF64x4 {
            self.shift_in_left(n)
        }
    }

    #[test]
    fn transpose_matches_portable() {
        if skip() {
            return;
        }
        let mut a = [
            F64x4::new([1.0, 2.0, 3.0, 4.0]),
            F64x4::new([5.0, 6.0, 7.0, 8.0]),
            F64x4::new([9.0, 10.0, 11.0, 12.0]),
            F64x4::new([13.0, 14.0, 15.0, 16.0]),
        ];
        F64x4::transpose(&mut a);
        assert_eq!(a[0].to_array(), [1.0, 5.0, 9.0, 13.0]);
        assert_eq!(a[1].to_array(), [2.0, 6.0, 10.0, 14.0]);
        assert_eq!(a[2].to_array(), [3.0, 7.0, 11.0, 15.0]);
        assert_eq!(a[3].to_array(), [4.0, 8.0, 12.0, 16.0]);
    }
}
