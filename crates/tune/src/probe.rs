//! The probe harness: short timed sweeps of candidate configurations
//! on small representative domains.
//!
//! Probing follows the library's own compile-once/run-many discipline:
//! every candidate is compiled into a [`Plan`] exactly once, all plans
//! of a session share one process-wide [`PoolHandle`]
//! ([`PoolHandle::shared`] — worker threads are never respawned per
//! probe), and the timed sweep reuses the plan a warm-up pass already
//! exercised. A time budget bounds the whole search: candidates are
//! probed in the (cost-model-ranked) order given, and when the budget
//! runs out the remaining candidates are simply never measured.

use crate::candidates::Candidate;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use stencil_core::{Pattern, Plan, Solver, Tiling};
use stencil_grid::{Grid1D, Grid2D, Grid3D};
use stencil_runtime::PoolHandle;

/// Bounds on one probe session.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Wall-clock ceiling for the whole search (warm-ups, sweeps and
    /// the runoff). At least one candidate is always probed.
    pub max_total: Duration,
    /// Largest candidate time block the probe will measure. A tiled
    /// candidate is only representative when the sweep executes two
    /// full time-block rounds — i.e. up to `2 × max_steps` timed steps
    /// — so candidates with `time_block > max_steps` are *skipped*
    /// rather than probed on a truncated sweep whose measurement would
    /// not reflect the tiling being selected.
    pub max_steps: usize,
}

impl Default for Budget {
    /// ~1 s of probing — a fraction of any real workload, enough for
    /// the top-ranked candidates at the probe domain sizes.
    fn default() -> Self {
        Self {
            max_total: Duration::from_millis(1000),
            max_steps: 64,
        }
    }
}

impl Budget {
    /// A budget of `ms` milliseconds total.
    pub fn from_millis(ms: u64) -> Self {
        Self {
            max_total: Duration::from_millis(ms),
            ..Self::default()
        }
    }
}

/// The probe domain: one small representative grid per dimensionality,
/// sized by the request's shape class so cache-resident and
/// memory-bound problems are measured on the right side of the
/// storage hierarchy.
#[derive(Debug, Clone)]
pub enum ProbeDomain {
    /// 1D grid.
    D1(Grid1D),
    /// 2D grid.
    D2(Grid2D),
    /// 3D grid.
    D3(Grid3D),
}

impl ProbeDomain {
    /// Build the probe grid for `p` under shape class `class`
    /// (see [`crate::cache::shape_class`]).
    pub fn build(p: &Pattern, class: &str) -> ProbeDomain {
        // per-class point targets: tiny stays L1/L2-resident, large is
        // firmly memory-bound; all far below real problem sizes
        let scale = match class {
            "tiny" => 0,
            "small" => 1,
            "medium" => 2,
            _ => 3,
        };
        match p.dims() {
            1 => {
                let n = [4_096, 16_384, 65_536, 262_144][scale];
                ProbeDomain::D1(Grid1D::from_fn(n, |i| {
                    ((i * 31 + 7) % 1024) as f64 / 1024.0
                }))
            }
            2 => {
                let n = [48, 96, 160, 256][scale];
                ProbeDomain::D2(Grid2D::from_fn(n, n, |y, x| {
                    ((y * 13 + x * 7) % 257) as f64 / 257.0
                }))
            }
            _ => {
                let n = [16, 24, 40, 64][scale];
                ProbeDomain::D3(Grid3D::from_fn(n, n, n, |z, y, x| {
                    ((z * 5 + y * 3 + x) % 127) as f64 / 127.0
                }))
            }
        }
    }

    /// Grid points per sweep step.
    pub fn points(&self) -> usize {
        match self {
            ProbeDomain::D1(g) => g.len(),
            ProbeDomain::D2(g) => g.ny() * g.nx(),
            ProbeDomain::D3(g) => g.nz() * g.ny() * g.nx(),
        }
    }

    fn run(&self, plan: &Plan, steps: usize) -> Result<(), stencil_core::PlanError> {
        match self {
            ProbeDomain::D1(g) => plan.run_1d(g, steps).map(drop),
            ProbeDomain::D2(g) => plan.run_2d(g, steps).map(drop),
            ProbeDomain::D3(g) => plan.run_3d(g, steps).map(drop),
        }
    }
}

/// One measured candidate.
#[derive(Debug, Clone)]
pub struct ProbeOutcome {
    /// The configuration that was timed.
    pub candidate: Candidate,
    /// Measured throughput in grid-point updates per second.
    pub rate: f64,
}

/// A finished probe session.
#[derive(Debug, Clone)]
pub struct ProbeReport {
    /// Outcomes in probe order (only candidates that compiled and ran
    /// before the budget closed).
    pub outcomes: Vec<ProbeOutcome>,
    /// Candidates skipped because they failed to compile.
    pub skipped: usize,
    /// Candidates never reached before the budget ran out.
    pub unprobed: usize,
    /// Total wall time spent.
    pub spent: Duration,
}

impl ProbeReport {
    /// The fastest measured candidate.
    pub fn best(&self) -> Option<&ProbeOutcome> {
        self.outcomes
            .iter()
            .max_by(|a, b| a.rate.partial_cmp(&b.rate).unwrap())
    }
}

/// Probe `candidates` for `p` in order, sharing one pool of `threads`
/// workers, stopping when `budget` is exhausted. `probe_counter` is
/// incremented once per *timed sweep* (warm-ups and the runoff
/// included) — the determinism tests assert it stays flat on cache
/// hits.
pub fn run(
    p: &Pattern,
    candidates: &[Candidate],
    threads: usize,
    domain: &ProbeDomain,
    budget: &Budget,
    probe_counter: &AtomicU64,
) -> ProbeReport {
    let t0 = Instant::now();
    let pool = PoolHandle::shared(threads);
    let points = domain.points() as f64;
    let mut outcomes: Vec<(ProbeOutcome, Plan)> = Vec::new();
    let mut skipped = 0usize;
    let mut unprobed = 0usize;

    let sweep = |plan: &Plan, steps: usize| -> Option<f64> {
        probe_counter.fetch_add(1, Ordering::Relaxed);
        let _span = stencil_obs::span(stencil_obs::SpanId::TuneProbe);
        let t = Instant::now();
        domain.run(plan, steps).ok()?;
        Some(points * steps as f64 / t.elapsed().as_secs_f64().max(1e-9))
    };

    for (i, &cand) in candidates.iter().enumerate() {
        if !outcomes.is_empty() && t0.elapsed() >= budget.max_total {
            unprobed = candidates.len() - i;
            break;
        }
        // a sweep must fit >= 2 full rounds of the candidate's time
        // block or the measurement says nothing about that tiling
        if time_block_of(&cand) > budget.max_steps {
            skipped += 1;
            continue;
        }
        // compile once; warm-up and the timed sweep reuse the plan
        let solver = Solver::new(p.clone())
            .with_config(cand.config)
            .pool(pool.clone());
        let Ok(plan) = solver.compile() else {
            skipped += 1;
            continue;
        };
        let steps = steps_for(&cand);
        if sweep(&plan, steps.min(4)).is_none() {
            skipped += 1;
            continue;
        }
        let Some(rate) = sweep(&plan, steps) else {
            skipped += 1;
            continue;
        };
        outcomes.push((
            ProbeOutcome {
                candidate: cand,
                rate,
            },
            plan,
        ));
    }

    // Runoff: single probes are noisy; re-measure the two leaders on
    // their already-compiled plans and rank them by the *fresh*
    // measurement only (same discipline as core's time-block tuner) —
    // a noise-inflated first reading must be demotable, so the spike
    // is replaced, never kept.
    if outcomes.len() >= 2 && t0.elapsed() < budget.max_total {
        outcomes.sort_by(|a, b| b.0.rate.partial_cmp(&a.0.rate).unwrap());
        for (o, plan) in outcomes.iter_mut().take(2) {
            let steps = steps_for(&o.candidate);
            if let Some(rate) = sweep(plan, steps) {
                o.rate = rate;
            }
        }
    }

    ProbeReport {
        outcomes: outcomes.into_iter().map(|(o, _)| o).collect(),
        skipped,
        unprobed,
        spent: t0.elapsed(),
    }
}

/// The candidate's time block (0 for untiled schemes).
fn time_block_of(c: &Candidate) -> usize {
    match c.config.tiling {
        Tiling::Tessellate { time_block } => time_block,
        _ => 0,
    }
}

/// Steps for one timed sweep: two full time-block rounds for tiled
/// candidates (oversized time blocks never reach here — `run` skips
/// them), a small fixed sweep for untiled ones.
fn steps_for(c: &Candidate) -> usize {
    (2 * time_block_of(c)).max(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{candidates, open_config as open};
    use stencil_core::{kernels, Method, PlanConfig, Width};

    #[test]
    fn probes_pick_a_candidate_and_count_sweeps() {
        let p = kernels::heat1d();
        let cands = candidates::generate(&p, &open(Width::W4), 2, 2);
        let domain = ProbeDomain::build(&p, "tiny");
        let counter = AtomicU64::new(0);
        let report = run(&p, &cands, 2, &domain, &Budget::from_millis(400), &counter);
        let best = report.best().expect("at least one candidate measured");
        assert!(best.rate > 0.0);
        assert!(counter.load(Ordering::Relaxed) >= 2, "warm-up + sweep");
    }

    #[test]
    fn budget_early_exit_still_measures_one() {
        let p = kernels::box2d9p();
        let cands = candidates::generate(&p, &open(Width::W4), 1, 4);
        let domain = ProbeDomain::build(&p, "tiny");
        let counter = AtomicU64::new(0);
        // zero budget: the first candidate is still probed (never return
        // empty-handed), the rest are reported unprobed
        let report = run(&p, &cands, 1, &domain, &Budget::from_millis(0), &counter);
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(
            report.outcomes.len() + report.skipped + report.unprobed,
            cands.len()
        );
    }

    #[test]
    fn probe_domains_match_dims_and_class_ordering() {
        for (p, dims) in [
            (kernels::heat1d(), 1),
            (kernels::heat2d(), 2),
            (kernels::heat3d(), 3),
        ] {
            let tiny = ProbeDomain::build(&p, "tiny").points();
            let large = ProbeDomain::build(&p, "large").points();
            assert!(tiny < large, "dims {dims}");
        }
    }

    #[test]
    fn uncompilable_candidates_are_skipped_not_fatal() {
        let p = kernels::heat1d();
        // folded m=2 at W1 cannot fit the register pipeline in 1D
        let cands = [Candidate {
            config: PlanConfig {
                method: Method::Folded { m: 2 },
                tiling: Tiling::None,
                ..open(Width::W1)
            },
            score: f64::NAN,
        }];
        let domain = ProbeDomain::build(&p, "tiny");
        let counter = AtomicU64::new(0);
        let report = run(&p, &cands, 1, &domain, &Budget::default(), &counter);
        assert!(report.outcomes.is_empty());
        assert_eq!(report.skipped, 1);
    }
}
