//! Portable `[f64; N]` vector backend.
//!
//! Every operation is a fixed-trip-count lane loop marked
//! `#[inline(always)]`; with optimizations (and especially with the AVX2
//! and FMA target features, which the workspace does not set by default)
//! LLVM turns these into the same packed instructions the intrinsic
//! backends emit. This backend is the correctness oracle for
//! the intrinsic backends in the property tests, and the fallback on
//! targets without AVX.

use crate::vector::SimdF64;

macro_rules! portable_vec {
    ($(#[$doc:meta])* $name:ident, $lanes:expr, $align:expr) => {
        $(#[$doc])*
        #[derive(Copy, Clone, Debug, PartialEq)]
        #[repr(C, align($align))]
        pub struct $name(pub [f64; $lanes]);

        impl $name {
            /// Construct from an array of lane values.
            #[inline(always)]
            pub const fn new(lanes: [f64; $lanes]) -> Self {
                Self(lanes)
            }

            /// Borrow the lanes as an array.
            #[inline(always)]
            pub const fn as_array(&self) -> &[f64; $lanes] {
                &self.0
            }
        }

        impl SimdF64 for $name {
            const LANES: usize = $lanes;

            #[inline(always)]
            fn splat(x: f64) -> Self {
                Self([x; $lanes])
            }

            #[inline(always)]
            unsafe fn load(ptr: *const f64) -> Self {
                let mut out = [0.0f64; $lanes];
                core::ptr::copy_nonoverlapping(ptr, out.as_mut_ptr(), $lanes);
                Self(out)
            }

            #[inline(always)]
            unsafe fn store(self, ptr: *mut f64) {
                core::ptr::copy_nonoverlapping(self.0.as_ptr(), ptr, $lanes);
            }

            #[inline(always)]
            fn add(self, o: Self) -> Self {
                let mut r = self.0;
                for i in 0..$lanes {
                    r[i] += o.0[i];
                }
                Self(r)
            }

            #[inline(always)]
            fn sub(self, o: Self) -> Self {
                let mut r = self.0;
                for i in 0..$lanes {
                    r[i] -= o.0[i];
                }
                Self(r)
            }

            #[inline(always)]
            fn mul(self, o: Self) -> Self {
                let mut r = self.0;
                for i in 0..$lanes {
                    r[i] *= o.0[i];
                }
                Self(r)
            }

            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                let mut r = [0.0f64; $lanes];
                for i in 0..$lanes {
                    r[i] = f64::mul_add(self.0[i], a.0[i], b.0[i]);
                }
                Self(r)
            }

            #[inline(always)]
            fn max(self, o: Self) -> Self {
                let mut r = self.0;
                for i in 0..$lanes {
                    r[i] = r[i].max(o.0[i]);
                }
                Self(r)
            }

            #[inline(always)]
            fn min(self, o: Self) -> Self {
                let mut r = self.0;
                for i in 0..$lanes {
                    r[i] = r[i].min(o.0[i]);
                }
                Self(r)
            }

            #[inline(always)]
            fn ge01(self, o: Self) -> Self {
                let mut r = [0.0f64; $lanes];
                for i in 0..$lanes {
                    r[i] = if self.0[i] >= o.0[i] { 1.0 } else { 0.0 };
                }
                Self(r)
            }

            #[inline(always)]
            fn extract(self, i: usize) -> f64 {
                self.0[i]
            }

            #[inline(always)]
            fn insert(self, i: usize, v: f64) -> Self {
                let mut r = self.0;
                r[i] = v;
                Self(r)
            }

            #[inline(always)]
            fn shift_in_right(self, next: Self) -> Self {
                let mut r = [0.0f64; $lanes];
                for i in 0..$lanes - 1 {
                    r[i] = self.0[i + 1];
                }
                r[$lanes - 1] = next.0[0];
                Self(r)
            }

            #[inline(always)]
            fn shift_in_left(self, prev: Self) -> Self {
                let mut r = [0.0f64; $lanes];
                r[0] = prev.0[$lanes - 1];
                for i in 1..$lanes {
                    r[i] = self.0[i - 1];
                }
                Self(r)
            }

            #[inline(always)]
            fn transpose(set: &mut [Self]) {
                assert_eq!(set.len(), $lanes, "transpose needs a full vector set");
                for r in 0..$lanes {
                    for c in (r + 1)..$lanes {
                        let tmp = set[r].0[c];
                        set[r].0[c] = set[c].0[r];
                        set[c].0[r] = tmp;
                    }
                }
            }
        }
    };
}

portable_vec!(
    /// Portable 4-lane `f64` vector (AVX2-width fallback).
    PF64x4,
    4,
    32
);

portable_vec!(
    /// Portable 8-lane `f64` vector (AVX-512-width fallback).
    PF64x8,
    8,
    64
);

portable_vec!(
    /// Portable 2-lane `f64` vector (SSE2-width; used in width ablations).
    PF64x2,
    2,
    16
);

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;

    fn v4(a: f64, b: f64, c: f64, d: f64) -> PF64x4 {
        PF64x4::new([a, b, c, d])
    }

    #[test]
    fn arithmetic() {
        let a = v4(1.0, 2.0, 3.0, 4.0);
        let b = v4(10.0, 20.0, 30.0, 40.0);
        assert_eq!(a.add(b), v4(11.0, 22.0, 33.0, 44.0));
        assert_eq!(b.sub(a), v4(9.0, 18.0, 27.0, 36.0));
        assert_eq!(a.mul(b), v4(10.0, 40.0, 90.0, 160.0));
        assert_eq!(a.mul_add(b, a), v4(11.0, 42.0, 93.0, 164.0));
        assert_eq!(a.max(v4(2.0, 1.0, 5.0, 0.0)), v4(2.0, 2.0, 5.0, 4.0));
        assert_eq!(a.min(v4(2.0, 1.0, 5.0, 0.0)), v4(1.0, 1.0, 3.0, 0.0));
    }

    #[test]
    fn shifts_match_paper_fig2() {
        // Current last vector (D,H,L,P), previous block last vector (*,*,*,Z):
        // the left dependent of first vector (A,E,I,M) must be (Z,D,H,L).
        let cur_last = v4(4.0, 8.0, 12.0, 16.0); // D H L P
        let prev_last = v4(-1.0, -2.0, -3.0, 0.0); // * * * Z
        let left_dep = cur_last.shift_in_left(prev_last);
        assert_eq!(left_dep, v4(0.0, 4.0, 8.0, 12.0)); // Z D H L

        // Current first vector (A,E,I,M), next block first (A',..):
        // right dependent of last vector (D,H,L,P) must be (E,I,M,A').
        let cur_first = v4(1.0, 5.0, 9.0, 13.0); // A E I M
        let next_first = v4(17.0, 99.0, 99.0, 99.0); // A' ...
        let right_dep = cur_first.shift_in_right(next_first);
        assert_eq!(right_dep, v4(5.0, 9.0, 13.0, 17.0)); // E I M A'
    }

    #[test]
    fn rotates() {
        let a = v4(1.0, 2.0, 3.0, 4.0);
        assert_eq!(a.rotate_lanes_left(), v4(2.0, 3.0, 4.0, 1.0));
        assert_eq!(a.rotate_lanes_right(), v4(4.0, 1.0, 2.0, 3.0));
    }

    #[test]
    fn transpose_4x4() {
        let mut set = [
            v4(1.0, 2.0, 3.0, 4.0),
            v4(5.0, 6.0, 7.0, 8.0),
            v4(9.0, 10.0, 11.0, 12.0),
            v4(13.0, 14.0, 15.0, 16.0),
        ];
        PF64x4::transpose(&mut set);
        assert_eq!(set[0], v4(1.0, 5.0, 9.0, 13.0));
        assert_eq!(set[1], v4(2.0, 6.0, 10.0, 14.0));
        assert_eq!(set[2], v4(3.0, 7.0, 11.0, 15.0));
        assert_eq!(set[3], v4(4.0, 8.0, 12.0, 16.0));
    }

    #[test]
    fn transpose_8x8_involution() {
        let mut set = [PF64x8::zero(); 8];
        for (r, row) in set.iter_mut().enumerate() {
            for c in 0..8 {
                *row = row.insert(c, (r * 8 + c) as f64);
            }
        }
        let orig = set;
        PF64x8::transpose(&mut set);
        for r in 0..8 {
            for c in 0..8 {
                assert_eq!(set[r].extract(c), orig[c].extract(r));
            }
        }
        PF64x8::transpose(&mut set);
        assert_eq!(set.map(|v| v.to_vec()), orig.map(|v| v.to_vec()));
    }

    #[test]
    fn alignment_is_width() {
        assert_eq!(core::mem::align_of::<PF64x4>(), 32);
        assert_eq!(core::mem::align_of::<PF64x8>(), 64);
        assert_eq!(core::mem::align_of::<PF64x2>(), 16);
    }

    #[test]
    fn horizontal_sum() {
        assert_eq!(v4(1.0, 2.0, 3.0, 4.0).horizontal_sum(), 10.0);
    }

    #[test]
    #[should_panic]
    fn transpose_wrong_len_panics() {
        let mut set = [PF64x4::zero(); 3];
        PF64x4::transpose(&mut set);
    }
}
