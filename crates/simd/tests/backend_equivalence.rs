#![allow(clippy::needless_range_loop)]

//! Property tests: the intrinsic backend [`dispatch`] picks must agree
//! bit for bit with the portable reference on every operation, for
//! arbitrary lane values — AVX2 `F64x4` with `PF64x4`, AVX-512
//! `F64x8` with `PF64x8`. Each operation runs twice: on the portable
//! type directly and through [`dispatch`]. Where the CPU lacks a
//! backend, dispatch picks the portable type too, and the comparison
//! says so on stderr and passes trivially.

use proptest::prelude::*;
use stencil_simd::portable::{PF64x4, PF64x8};
use stencil_simd::{dispatch, Isa, SimdF64, WithSimd};

fn lanes(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, n)
}

/// `op` on the portable `lanes`-wide type and on the backend [`dispatch`]
/// picks.
fn both<Op: WithSimd + Clone>(lanes: usize, op: Op) -> (Op::Output, Op::Output) {
    if Isa::detected().backend(lanes) == "portable" {
        eprintln!("CPU has no intrinsic {lanes}-lane backend: comparing portable with itself");
    }
    let portable = match lanes {
        4 => op.clone().run::<PF64x4>(),
        _ => op.clone().run::<PF64x8>(),
    };
    (portable, dispatch(lanes, op))
}

fn v<V: SimdF64>(s: &[f64]) -> V {
    V::from_slice(s)
}

/// Every lane-wise operation on `a`, `b`, `c` (one vector each).
#[derive(Clone)]
struct Arithmetic(Vec<f64>, Vec<f64>, Vec<f64>);

impl WithSimd for Arithmetic {
    type Output = Vec<Vec<f64>>;
    fn run<V: SimdF64>(self) -> Self::Output {
        let (a, b, c) = (v::<V>(&self.0), v::<V>(&self.1), v::<V>(&self.2));
        [
            a.add(b),
            a.sub(b),
            a.mul(b),
            a.max(b),
            a.min(b),
            a.ge01(b),
            a.eq01(b),
            a.eq01(a),
            a.mul_add(b, c),
        ]
        .iter()
        .map(|r| r.to_vec())
        .collect()
    }
}

/// The assembled-vector shuffles of `a` with `b`.
#[derive(Clone)]
struct Shifts(Vec<f64>, Vec<f64>);

impl WithSimd for Shifts {
    type Output = Vec<Vec<f64>>;
    fn run<V: SimdF64>(self) -> Self::Output {
        let (a, b) = (v::<V>(&self.0), v::<V>(&self.1));
        [
            a.shift_in_right(b),
            a.shift_in_left(b),
            a.rotate_lanes_left(),
            a.rotate_lanes_right(),
        ]
        .iter()
        .map(|r| r.to_vec())
        .collect()
    }
}

/// The in-register transpose of a `lanes × lanes` tile, row-major.
#[derive(Clone)]
struct Transpose(Vec<f64>);

impl WithSimd for Transpose {
    type Output = Vec<f64>;
    fn run<V: SimdF64>(self) -> Self::Output {
        let mut set: Vec<V> = self.0.chunks(V::LANES).map(v::<V>).collect();
        V::transpose(&mut set);
        set.iter().flat_map(|r| r.to_vec()).collect()
    }
}

/// An unaligned load and store at offset `.1` of a buffer, then
/// `insert(.2, .3)`, `extract` of every lane and the horizontal sum.
#[derive(Clone)]
struct Memory(Vec<f64>, usize, usize, f64);

impl WithSimd for Memory {
    type Output = (Vec<f64>, Vec<f64>, f64);
    fn run<V: SimdF64>(self) -> Self::Output {
        let Memory(a, off, i, x) = self;
        let mut buf = vec![0.0f64; 3 * V::LANES];
        buf[off..off + V::LANES].copy_from_slice(&a);
        // SAFETY: `off + LANES <= buf.len()` for `off < 2 * LANES`.
        let w = unsafe { V::load(buf.as_ptr().add(off)) };
        let mut out = vec![0.0f64; 3 * V::LANES];
        // SAFETY: as above.
        unsafe { w.store(out.as_mut_ptr().add(off)) };
        let w = w.insert(i, x);
        let lanes = (0..V::LANES).map(|j| w.extract(j)).collect();
        (out, lanes, w.horizontal_sum())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arithmetic_matches_portable_x4(a in lanes(4), b in lanes(4), c in lanes(4)) {
        let (p, n) = both(4, Arithmetic(a, b, c));
        prop_assert_eq!(p, n);
    }

    #[test]
    fn arithmetic_matches_portable_x8(a in lanes(8), b in lanes(8), c in lanes(8)) {
        let (p, n) = both(8, Arithmetic(a, b, c));
        prop_assert_eq!(p, n);
    }

    #[test]
    fn shifts_match_portable_x4(a in lanes(4), b in lanes(4)) {
        let (p, n) = both(4, Shifts(a, b));
        prop_assert_eq!(p, n);
    }

    #[test]
    fn shifts_match_portable_x8(a in lanes(8), b in lanes(8)) {
        let (p, n) = both(8, Shifts(a, b));
        prop_assert_eq!(p, n);
    }

    #[test]
    fn transpose_matches_portable_x4(tile in lanes(16)) {
        let (p, n) = both(4, Transpose(tile.clone()));
        prop_assert_eq!(&p, &n);
        // and it is the transpose
        for r in 0..4 {
            for c in 0..4 {
                prop_assert_eq!(n[c * 4 + r], tile[r * 4 + c]);
            }
        }
    }

    #[test]
    fn transpose_matches_portable_x8(tile in lanes(64)) {
        let (p, n) = both(8, Transpose(tile.clone()));
        prop_assert_eq!(&p, &n);
        for r in 0..8 {
            for c in 0..8 {
                prop_assert_eq!(n[c * 8 + r], tile[r * 8 + c]);
            }
        }
    }

    #[test]
    fn load_store_roundtrip(a in lanes(8), off in 0usize..16, i in 0usize..8, x in -1e6f64..1e6) {
        let (p, n) = both(8, Memory(a.clone(), off, i, x));
        prop_assert_eq!(&p, &n);
        prop_assert_eq!(&n.0[off..off + 8], &a[..]);
    }

    #[test]
    fn insert_extract_consistency(a in lanes(4), off in 0usize..8, i in 0usize..4, x in -1e6f64..1e6) {
        let (p, n) = both(4, Memory(a.clone(), off, i, x));
        prop_assert_eq!(&p, &n);
        for j in 0..4 {
            prop_assert_eq!(n.1[j], if j == i { x } else { a[j] });
        }
    }

    #[test]
    fn horizontal_sum_matches(a in lanes(4)) {
        let (_, (_, lanes, sum)) = both(4, Memory(a, 0, 0, 0.5));
        let want: f64 = lanes.iter().sum();
        prop_assert!((want - sum).abs() <= 1e-9 * want.abs().max(1.0));
    }
}
