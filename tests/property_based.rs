//! Property-based tests (proptest) on the core invariants:
//!
//! * folding matrices compose like repeated application;
//! * counterpart plans reconstruct Λ exactly for random patterns;
//! * layout transforms are involutions / inverses on random data;
//! * vectorized executors agree with scalar on random taps and sizes.

use proptest::prelude::*;
use stencil_lab::core::exec::reorg;
use stencil_lab::core::folding::fold;
use stencil_lab::core::{FoldPlan, Pattern};
use stencil_lab::grid::layout::{DltLayout, TransposeLayout};
use stencil_lab::grid::max_abs_diff;
use stencil_lab::simd::{NativeF64x4, NativeF64x8};
use stencil_lab::{Grid1D, Method, PingPong, Solver};

fn taps3() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0f64..1.0, 3)
}

fn taps_matrix_3x3() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0f64..1.0, 9)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fold_commutes_with_application_1d(taps in taps3(), seed in 0u64..1000) {
        let p = Pattern::new_1d(&taps);
        let f = fold(&p, 2);
        let n = 96usize;
        let g = Grid1D::from_fn(n, |i| {
            let h = (i as u64).wrapping_mul(seed.wrapping_add(1)).wrapping_mul(0x9E3779B97F4A7C15);
            (h % 1000) as f64 / 1000.0
        });
        let two = Solver::new(p).method(Method::Scalar).compile().unwrap().run_1d(&g, 2).unwrap();
        let one = Solver::new(f).method(Method::Scalar).compile().unwrap().run_1d(&g, 1).unwrap();
        // interior only: the folded Dirichlet band is wider
        for i in 4..n - 4 {
            prop_assert!((two[i] - one[i]).abs() < 1e-9, "i={}", i);
        }
    }

    #[test]
    fn plans_reconstruct_lambda_for_random_2d_patterns(w in taps_matrix_3x3(), m in 1usize..=3) {
        let p = Pattern::new_2d(1, &w);
        let plan = FoldPlan::new(&p, m);
        prop_assert!(plan.reconstruction_error() < 1e-8);
    }

    #[test]
    fn transpose_layout_is_involution(len in 1usize..512, fill in -100.0f64..100.0) {
        let lay = TransposeLayout::new(4);
        let orig: Vec<f64> = (0..len).map(|i| fill + i as f64).collect();
        let mut buf = orig.clone();
        lay.apply::<NativeF64x4>(&mut buf);
        lay.apply::<NativeF64x4>(&mut buf);
        prop_assert_eq!(buf, orig);
    }

    #[test]
    fn dlt_roundtrips(blocks in 1usize..64) {
        let n = blocks * 8;
        let lay = DltLayout::new(n, 8);
        let orig: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut dlt = vec![0.0; n];
        let mut back = vec![0.0; n];
        lay.to_dlt::<NativeF64x8>(&orig, &mut dlt);
        lay.from_dlt::<NativeF64x8>(&dlt, &mut back);
        prop_assert_eq!(back, orig);
    }

    #[test]
    fn executors_agree_on_random_taps(taps in taps3(), n in 32usize..300, t in 1usize..6) {
        let p = Pattern::new_1d(&taps);
        let g = Grid1D::from_fn(n, |i| ((i * 37 + 11) % 101) as f64 * 0.01);
        let want = Solver::new(p.clone()).method(Method::Scalar).compile().unwrap().run_1d(&g, t).unwrap();
        for method in [Method::MultipleLoads, Method::TransposeLayout] {
            let got = Solver::new(p.clone()).method(method).compile().unwrap().run_1d(&g, t).unwrap();
            prop_assert!(
                max_abs_diff(want.as_slice(), got.as_slice()) < 1e-10,
                "{:?}", method
            );
        }
        // the data-reorganization baseline, through its own entry
        let mut pp = PingPong::new(g);
        reorg::sweep_1d::<NativeF64x4>(&mut pp, &p, t);
        prop_assert!(max_abs_diff(want.as_slice(), pp.current().as_slice()) < 1e-10, "DataReorg");
    }

    #[test]
    fn weight_sum_powers_under_folding(w in taps_matrix_3x3(), m in 1usize..=4) {
        let p = Pattern::new_2d(1, &w);
        let f = fold(&p, m);
        let want = p.weight_sum().powi(m as i32);
        prop_assert!((f.weight_sum() - want).abs() < 1e-6 * want.abs().max(1.0));
    }

    #[test]
    fn folded_profitability_at_least_one(w in taps_matrix_3x3()) {
        // folding never plans more work than the naive expansion
        let p = Pattern::new_2d(1, &w);
        if p.points() == 0 {
            return Ok(());
        }
        let prof = stencil_lab::core::cost::profitability(&p, 2);
        prop_assert!(prof >= 1.0, "profitability {}", prof);
    }
}
