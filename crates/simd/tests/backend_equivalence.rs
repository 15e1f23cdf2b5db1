#![allow(clippy::needless_range_loop)]

//! Property tests: the intrinsic backend [`dispatch`] picks must agree
//! bit for bit with the portable reference on every operation, for
//! arbitrary lane values — AVX2 `F64x4` with `PF64x4`, AVX-512
//! `F64x8` with `PF64x8`. Each operation runs twice: on the portable
//! type directly and through [`dispatch`]. Where the CPU lacks a
//! backend, dispatch picks the portable type too, and the comparison
//! says so on stderr and passes trivially.
//!
//! Each property draws [`CASES`] operations from one seeded
//! `SplitMix64`; a failing case names its index and operation, and
//! rerunning the test replays it.

use std::fmt::Debug;
use stencil_faults::SplitMix64;
use stencil_simd::portable::{PF64x4, PF64x8};
use stencil_simd::{dispatch, Isa, SimdF64, WithSimd};

const SEED: u64 = 128;
const CASES: usize = 128;

/// `n` lane values in `[-1e6, 1e6)`.
fn lanes(rng: &mut SplitMix64, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.uniform(-1e6, 1e6)).collect()
}

/// Draw [`CASES`] ops with `draw`; each must give the same output on
/// the portable and the dispatched backend, and pass `check`.
fn agree<Op>(
    lanes: usize,
    mut draw: impl FnMut(&mut SplitMix64) -> Op,
    check: impl Fn(&Op, &Op::Output) -> bool,
) where
    Op: WithSimd + Clone + Debug,
    Op::Output: PartialEq + Debug,
{
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        let op = draw(&mut rng);
        let (p, n) = both(lanes, op.clone());
        assert_eq!(p, n, "case {case}: {op:?}");
        assert!(check(&op, &n), "case {case}: {op:?} -> {n:?}");
    }
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
#[derive(Clone, Debug)]
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
#[derive(Clone, Debug)]
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
#[derive(Clone, Debug)]
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
#[derive(Clone, Debug)]
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

#[test]
fn arithmetic_matches_portable_x4() {
    agree(
        4,
        |r| Arithmetic(lanes(r, 4), lanes(r, 4), lanes(r, 4)),
        |_, _| true,
    );
}

#[test]
fn arithmetic_matches_portable_x8() {
    agree(
        8,
        |r| Arithmetic(lanes(r, 8), lanes(r, 8), lanes(r, 8)),
        |_, _| true,
    );
}

#[test]
fn shifts_match_portable_x4() {
    agree(4, |r| Shifts(lanes(r, 4), lanes(r, 4)), |_, _| true);
}

#[test]
fn shifts_match_portable_x8() {
    agree(8, |r| Shifts(lanes(r, 8), lanes(r, 8)), |_, _| true);
}

/// The dispatched `l × l` transpose is the transpose.
fn transposes(l: usize) {
    agree(
        l,
        |r| Transpose(lanes(r, l * l)),
        |Transpose(tile), n| (0..l).all(|r| (0..l).all(|c| n[c * l + r] == tile[r * l + c])),
    );
}

#[test]
fn transpose_matches_portable_x4() {
    transposes(4);
}

#[test]
fn transpose_matches_portable_x8() {
    transposes(8);
}

#[test]
fn load_store_roundtrip() {
    let draw =
        |r: &mut SplitMix64| Memory(lanes(r, 8), r.below(16), r.below(8), r.uniform(-1e6, 1e6));
    agree(8, draw, |Memory(a, off, ..), n| {
        n.0[*off..*off + 8] == a[..]
    });
}

#[test]
fn insert_extract_consistency() {
    let draw =
        |r: &mut SplitMix64| Memory(lanes(r, 4), r.below(8), r.below(4), r.uniform(-1e6, 1e6));
    agree(4, draw, |&Memory(ref a, _, i, x), n| {
        (0..4).all(|j| n.1[j] == if j == i { x } else { a[j] })
    });
}

#[test]
fn horizontal_sum_matches() {
    agree(
        4,
        |r| Memory(lanes(r, 4), 0, 0, 0.5),
        |_, (_, lanes, sum)| {
            let want: f64 = lanes.iter().sum();
            (want - sum).abs() <= 1e-9 * want.abs().max(1.0)
        },
    );
}
