//! Op-collect cost model and profitability index (paper §3.2, §3.4).
//!
//! The paper counts arithmetic instructions (add / multiply /
//! multiply-add, each one unit) in the *collect* `C(E)` of an update
//! expression, and calls a folding profitable when
//! `P(E, E_Λ) = |C(E)| / |C(E_Λ)| >= θ >= 1` (Eq. 3). The worked 2D9P
//! m=2 example gives `|C(E)| = 90`, `|C(E_Λ)| = 25`, `P = 3.6`, improving
//! to `|C(E_Λ)| = 9`, `P = 10` with counterpart reuse; shifts reusing
//! turns a 9-op 9-point update into 4 ops (`P = 2.25`). All of those are
//! unit tests below.

use crate::folding::fold;
use crate::pattern::Pattern;
use crate::plan::FoldPlan;

/// `|C(E)|` of the naive m-step update: the recursive expansion needs
/// `S(m)` single-step subexpressions (`S(1) = 1`, `S(m) = 1 + P·S(m-1)`
/// for a P-point stencil), each costing `P` instructions.
pub fn collect_naive(p: &Pattern, m: usize) -> usize {
    assert!(m >= 1);
    let pts = p.points();
    let mut s = 1usize;
    for _ in 1..m {
        s = 1 + pts * s;
    }
    s * pts
}

/// `|C(E_Λ)|` of evaluating the folded matrix directly, one weighted
/// reference per nonzero λ (Eq. 2): the folded pattern's point count.
pub fn collect_folded(p: &Pattern, m: usize) -> usize {
    fold(p, m).points()
}

/// `|C(E_Λ)|` after counterpart reuse (§3.3): vertical-fold taps of every
/// *used* fresh counterpart plus the horizontal combination
/// (`terms - 1` additions plus one instruction per scaled term... the
/// paper's accounting: `taps + (h_terms - 1)`), evaluated from a
/// [`FoldPlan`].
pub fn collect_planned(plan: &FoldPlan) -> usize {
    let vertical: usize = (1..plan.fresh.len())
        .filter(|&id| plan.is_used(id))
        .map(|id| plan.fold_taps(id).len())
        .sum();
    let h_terms: usize = plan.h.iter().map(|t| t.len()).sum();
    vertical + h_terms.saturating_sub(1)
}

/// Profitability index `P(E, E_Λ)` (Eq. 3) for a planned folding.
pub fn profitability(p: &Pattern, m: usize) -> f64 {
    planned_profitability(p, &FoldPlan::new(p, m))
}

/// [`profitability`] of `plan`, an already-built fold plan of `p`.
pub(crate) fn planned_profitability(p: &Pattern, plan: &FoldPlan) -> f64 {
    collect_naive(p, plan.m) as f64 / collect_planned(plan) as f64
}

/// Per-point collect of a single-step update with shifts reusing
/// (Fig. 6): only the newly-entering column must be folded
/// (`(2r+1)^(d-1)` taps for a box; fewer for sparse columns) and one add
/// appends it to the reused partial horizontal sum.
pub fn collect_shift_reuse(p: &Pattern) -> usize {
    let cols = p.x_columns();
    let new_col = cols
        .last()
        .map(|c| c.iter().filter(|&&w| w != 0.0).count())
        .unwrap_or(0);
    new_col + 1
}

/// Profitability of shifts reusing alone (Fig. 6's 9/4 = 2.25 for 2D9P).
pub fn shift_reuse_profitability(p: &Pattern) -> f64 {
    collect_naive(p, 1) as f64 / collect_shift_reuse(p) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;

    #[test]
    fn paper_naive_collect_is_90() {
        // 10 subexpressions x 9 instructions (Fig. 4a)
        assert_eq!(collect_naive(&kernels::box2d9p(), 2), 90);
    }

    #[test]
    fn paper_folded_collect_is_25() {
        // Fig. 4b / Eq. 2
        assert_eq!(collect_folded(&kernels::box2d9p(), 2), 25);
    }

    #[test]
    fn paper_profitable_index_before_reuse() {
        let p = collect_naive(&kernels::box2d9p(), 2) as f64
            / collect_folded(&kernels::box2d9p(), 2) as f64;
        assert!((p - 3.6).abs() < 1e-12);
    }

    #[test]
    fn paper_planned_collect_is_9_and_p_is_10() {
        // §3.3: using only counterpart c1, |C(E_Λ)| drops to 9 and the
        // profitability index becomes 10.
        let plan = FoldPlan::new(&kernels::box2d9p(), 2);
        assert_eq!(collect_planned(&plan), 9);
        assert!((profitability(&kernels::box2d9p(), 2) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn paper_shift_reuse_is_2_25() {
        // Fig. 6: |C(E_F)| = 9 -> |C(E_G)| = 4, ratio 2.25
        assert_eq!(collect_shift_reuse(&kernels::box2d9p()), 4);
        assert!((shift_reuse_profitability(&kernels::box2d9p()) - 2.25).abs() < 1e-12);
    }

    #[test]
    fn folding_is_profitable_for_all_linear_benchmarks() {
        for (_, name, pattern) in kernels::NAMED {
            let prof = profitability(&pattern(), 2);
            assert!(prof > 1.0, "{name}: P = {prof}");
        }
    }

    #[test]
    fn gb_gains_are_least_prominent_among_2d_boxes() {
        // The paper observes GB (asymmetric weights) is the stress test:
        // its profitability must trail the symmetric 2D9P.
        let gb = profitability(&kernels::gb(), 2);
        let sym = profitability(&kernels::box2d9p(), 2);
        assert!(gb < sym, "GB {gb} should be < 2D9P {sym}");
    }

    #[test]
    fn deeper_folding_grows_naive_collect_fast() {
        let p = kernels::heat1d();
        assert_eq!(collect_naive(&p, 1), 3);
        assert_eq!(collect_naive(&p, 2), 12); // (1 + 3) * 3
        assert_eq!(collect_naive(&p, 3), 39); // (1 + 3*4) * 3
    }

    #[test]
    fn one_d_folding_profit() {
        // 1D heat m=2: naive 12 vs folded 5-point horizontal = 4 + ... :
        // planned = 0 vertical + (5 - 1) = 4 -> P = 3
        let plan = FoldPlan::new(&kernels::heat1d(), 2);
        assert_eq!(collect_planned(&plan), 4);
        assert!((profitability(&kernels::heat1d(), 2) - 3.0).abs() < 1e-12);
    }
}
