//! Property tests on the core invariants, each a loop of cases drawn
//! from the workspace's one seeded generator (`SplitMix64`):
//!
//! * folding matrices compose like repeated application;
//! * counterpart plans reconstruct Λ exactly for random patterns;
//! * layout transforms are involutions / inverses on random data;
//! * vectorized executors agree with scalar on random taps and sizes.
//!
//! A failing case names its index and drawn inputs; the stream is fixed
//! by `SEED`, so rerunning the test replays it.

use stencil_lab::core::exec::reorg;
use stencil_lab::core::folding::fold;
use stencil_lab::core::{FoldPlan, Pattern};
use stencil_lab::faults::SplitMix64;
use stencil_lab::grid::layout::{DltLayout, TransposeLayout};
use stencil_lab::grid::max_abs_diff;
use stencil_lab::simd::{NativeF64x4, NativeF64x8};
use stencil_lab::{Grid1D, Method, PingPong, Solver};

const SEED: u64 = 48;
const CASES: usize = 48;

/// `t` steps of `p` on `g` by `method`.
fn run_1d(p: &Pattern, method: Method, g: &Grid1D, t: usize) -> Grid1D {
    let plan = Solver::new(p.clone()).method(method).compile().unwrap();
    plan.run_1d(g, t).unwrap()
}

/// `n` taps in `[-1, 1)`.
fn taps(rng: &mut SplitMix64, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()
}

#[test]
fn fold_commutes_with_application_1d() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        let (taps, seed) = (taps(&mut rng, 3), rng.next_u64());
        let p = Pattern::new_1d(&taps);
        let f = fold(&p, 2);
        let n = 96usize;
        let mut fill = SplitMix64::new(seed);
        let g = Grid1D::from_fn(n, |_| fill.next_f64());
        let two = run_1d(&p, Method::Scalar, &g, 2);
        let one = run_1d(&f, Method::Scalar, &g, 1);
        // interior only: the folded Dirichlet band is wider
        for i in 4..n - 4 {
            assert!(
                (two[i] - one[i]).abs() < 1e-9,
                "case {case}: taps={taps:?} seed={seed} i={i}"
            );
        }
    }
}

#[test]
fn plans_reconstruct_lambda_for_random_2d_patterns() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        let (w, m) = (taps(&mut rng, 9), rng.range(1..4));
        let plan = FoldPlan::new(&Pattern::new_2d(1, &w), m);
        assert!(
            plan.reconstruction_error() < 1e-8,
            "case {case}: w={w:?} m={m}"
        );
    }
}

#[test]
fn transpose_layout_is_involution() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        let (len, fill) = (rng.range(1..512), rng.uniform(-100.0, 100.0));
        let lay = TransposeLayout::new(4);
        let orig: Vec<f64> = (0..len).map(|i| fill + i as f64).collect();
        let mut buf = orig.clone();
        lay.apply::<NativeF64x4>(&mut buf);
        lay.apply::<NativeF64x4>(&mut buf);
        assert_eq!(buf, orig, "case {case}: len={len} fill={fill}");
    }
}

#[test]
fn dlt_roundtrips() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        let blocks = rng.range(1..64);
        let n = blocks * 8;
        let lay = DltLayout::new(n, 8);
        let orig: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut dlt = vec![0.0; n];
        let mut back = vec![0.0; n];
        lay.to_dlt::<NativeF64x8>(&orig, &mut dlt);
        lay.from_dlt::<NativeF64x8>(&dlt, &mut back);
        assert_eq!(back, orig, "case {case}: blocks={blocks}");
    }
}

#[test]
fn executors_agree_on_random_taps() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        let (taps, n, t) = (taps(&mut rng, 3), rng.range(32..300), rng.range(1..6));
        let inputs = format!("case {case}: taps={taps:?} n={n} t={t}");
        let p = Pattern::new_1d(&taps);
        let g = Grid1D::from_fn(n, |i| ((i * 37 + 11) % 101) as f64 * 0.01);
        let want = run_1d(&p, Method::Scalar, &g, t);
        for method in [Method::MultipleLoads, Method::TransposeLayout] {
            let got = run_1d(&p, method, &g, t);
            assert!(
                max_abs_diff(want.as_slice(), got.as_slice()) < 1e-10,
                "{inputs}: {method:?}"
            );
        }
        // the data-reorganization baseline, through its own entry
        let mut pp = PingPong::new(g);
        reorg::sweep_1d::<NativeF64x4>(&mut pp, &p, t);
        assert!(
            max_abs_diff(want.as_slice(), pp.current().as_slice()) < 1e-10,
            "{inputs}: DataReorg"
        );
    }
}

#[test]
fn weight_sum_powers_under_folding() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        let (w, m) = (taps(&mut rng, 9), rng.range(1..5));
        let p = Pattern::new_2d(1, &w);
        let f = fold(&p, m);
        let want = p.weight_sum().powi(m as i32);
        assert!(
            (f.weight_sum() - want).abs() < 1e-6 * want.abs().max(1.0),
            "case {case}: w={w:?} m={m}"
        );
    }
}

#[test]
fn folded_profitability_at_least_one() {
    // folding never plans more work than the naive expansion
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        let w = taps(&mut rng, 9);
        let p = Pattern::new_2d(1, &w);
        if p.points() == 0 {
            continue;
        }
        let prof = stencil_lab::core::cost::profitability(&p, 2);
        assert!(prof >= 1.0, "case {case}: w={w:?} profitability {prof}");
    }
}
