//! The challenger lane: where a hot key's incumbent plan is put on
//! trial.
//!
//! The decider never probes inline — it hands a [`ChallengeRequest`]
//! to a [`ChallengerLane`] and acts on the verdict, a
//! [`ChallengeOutcome`]. Production uses [`ProbeLane`], which re-runs
//! the `stencil-tune` hill-climb over the incumbent's neighborhood
//! (method × width × time-block, as far as the key's own request leaves
//! those axes open) through the
//! process-installed [`AutoTuner`] on a small per-challenge budget;
//! tests use [`ScriptedLane`], whose verdicts are fixed up front so
//! every decider decision is reproducible down to the bit.
//!
//! A lane never states a configuration or a tune request of its own:
//! the challenge carries the registry's request for the key, and what a
//! lane asks the tuner is that request's `tune_request()`.

use std::collections::VecDeque;
use stencil_core::{PlanConfig, Solver};
use stencil_runtime::sync::Mutex;
use stencil_tune::probe::Budget;
use stencil_tune::{AutoTuner, ChallengeOutcome};

/// Everything a lane needs to put one hot key on trial.
#[derive(Debug, Clone)]
pub struct ChallengeRequest {
    /// The registry key under trial (diagnostics).
    pub key: String,
    /// The key's own request
    /// ([`PlanRegistry::request`](crate::PlanRegistry::request)): the
    /// pattern, the axes the key pins, the shared pool and the domain
    /// hint of the traffic observed under it. Lanes ask the tuner with
    /// its [`Solver::tune_request`] — the question the key's next
    /// compile asks — so a verdict is searched within, and persisted
    /// under, exactly what a warm-start resolves.
    pub request: Solver,
    /// The configuration currently serving the key.
    pub incumbent: PlanConfig,
    /// Probe budget for this challenge, in milliseconds.
    pub budget_ms: u64,
}

/// Where challenger sessions run and where winning verdicts are
/// persisted. Implementations must tolerate concurrent calls (the
/// decider is single-threaded, but tests drive lanes directly).
pub trait ChallengerLane: Send + Sync {
    /// Run one challenge session. `None` means no verdict could be
    /// produced (no tuner installed, every candidate failed) — the
    /// decider counts it as a rejected challenge and moves on.
    fn challenge(&self, req: &ChallengeRequest) -> Option<ChallengeOutcome>;

    /// Persist a winning verdict to the per-host tune cache, so the
    /// next warm-start resolves straight to it.
    fn persist(&self, req: &ChallengeRequest, verdict: &ChallengeOutcome);
}

/// The production lane: challenges run as real probe sessions through
/// the process-installed [`AutoTuner`] ([`stencil_tune::installed_auto`]),
/// so they share its probe counter, cache image and cache file. The
/// per-challenge budget is the request's, not the tuner's — a few tens
/// of milliseconds in a background lane, independent of how generous
/// startup tuning was.
#[derive(Debug, Default)]
pub struct ProbeLane;

impl ProbeLane {
    /// A lane over the installed tuner (challenges return `None` until
    /// one is installed).
    pub fn new() -> Self {
        Self
    }
}

impl ChallengerLane for ProbeLane {
    fn challenge(&self, req: &ChallengeRequest) -> Option<ChallengeOutcome> {
        let tuner = stencil_tune::installed_auto()?;
        let budget = Budget::from_millis(req.budget_ms);
        tuner
            .challenge(&req.request.tune_request(), &req.incumbent, &budget)
            .ok()
    }

    fn persist(&self, req: &ChallengeRequest, verdict: &ChallengeOutcome) {
        if let Some(tuner) = stencil_tune::installed_auto() {
            tuner.persist_verdict(&req.request.tune_request(), verdict);
        }
    }
}

/// A deterministic lane for tests and the CI smoke scenario: verdicts
/// are dequeued from a fixed script (in order; an exhausted script
/// yields `None`), and persisted verdicts go to this lane's *own*
/// [`AutoTuner`] (when one is attached) rather than the process-global
/// one, so parallel tests never share cache files.
#[derive(Default)]
pub struct ScriptedLane {
    verdicts: Mutex<VecDeque<ChallengeOutcome>>,
    persisted: Mutex<Vec<String>>,
    tuner: Option<AutoTuner>,
}

impl ScriptedLane {
    /// A lane that will answer challenges with `verdicts`, in order.
    pub fn new(verdicts: Vec<ChallengeOutcome>) -> Self {
        Self {
            verdicts: Mutex::new(verdicts.into()),
            persisted: Mutex::new(Vec::new()),
            tuner: None,
        }
    }

    /// Attach an owned tuner; winning verdicts are persisted through
    /// it (and its cache file) instead of being dropped.
    pub fn with_tuner(mut self, tuner: AutoTuner) -> Self {
        self.tuner = Some(tuner);
        self
    }

    /// Registry keys whose verdicts the decider asked to persist.
    pub fn persisted_keys(&self) -> Vec<String> {
        self.persisted.lock().clone()
    }

    /// Verdicts not yet consumed by challenges.
    pub fn remaining(&self) -> usize {
        self.verdicts.lock().len()
    }
}

impl std::fmt::Debug for ScriptedLane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScriptedLane")
            .field("remaining", &self.remaining())
            .field("persisted", &self.persisted_keys())
            .finish()
    }
}

impl ChallengerLane for ScriptedLane {
    fn challenge(&self, _req: &ChallengeRequest) -> Option<ChallengeOutcome> {
        self.verdicts.lock().pop_front()
    }

    fn persist(&self, req: &ChallengeRequest, verdict: &ChallengeOutcome) {
        self.persisted.lock().push(req.key.clone());
        if let Some(tuner) = &self.tuner {
            tuner.persist_verdict(&req.request.tune_request(), verdict);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{PlanRegistry, PlanShape};
    use crate::{ServeStats, ShardPolicy};
    use std::sync::Arc;
    use stencil_core::{kernels, Method, Tiling, Tuning, Width};
    use stencil_tune::candidates::Candidate;

    fn registry(threads: usize) -> PlanRegistry {
        PlanRegistry::new(threads, ShardPolicy::default(), Arc::new(ServeStats::new()))
    }

    fn vector_block_free(width: Width) -> PlanConfig {
        PlanConfig {
            method: Method::MultipleLoads,
            tiling: Tiling::None,
            width,
        }
    }

    fn req() -> ChallengeRequest {
        ChallengeRequest {
            key: "k".into(),
            request: registry(2).request(
                &kernels::heat2d(),
                Some(&[64, 64]),
                Tuning::Static,
                PlanShape::Pooled,
            ),
            incumbent: vector_block_free(Width::native_max()),
            budget_ms: 5,
        }
    }

    #[test]
    fn scripted_lane_replays_verdicts_in_order_then_dries_up() {
        let v = |rate: f64| ChallengeOutcome {
            best: Candidate {
                config: vector_block_free(Width::W4),
                score: f64::NAN,
            },
            rate,
            incumbent_rate: Some(1.0),
            probes: 0,
            spent_ms: 0.0,
            method_rates: vec![(Method::MultipleLoads, rate)],
        };
        let lane = ScriptedLane::new(vec![v(2.0), v(3.0)]);
        assert_eq!(lane.challenge(&req()).unwrap().rate, 2.0);
        assert_eq!(lane.challenge(&req()).unwrap().rate, 3.0);
        assert!(lane.challenge(&req()).is_none());
        let verdict = v(2.0);
        lane.persist(&req(), &verdict);
        assert_eq!(lane.persisted_keys(), vec!["k".to_string()]);
    }

    #[test]
    fn unconstrained_request_leaves_every_tunable_axis_open() {
        // what a lane asks for a pooled key: the registry's own request
        let p = kernels::heat2d();
        let hint = [64usize, 64];
        let registry = registry(4);
        let pooled = registry.request(&p, Some(&hint), Tuning::Measured, PlanShape::Pooled);
        let r = pooled.tune_request();
        let open = PlanConfig {
            method: Method::Auto,
            tiling: Tiling::Auto,
            width: Width::native_max(),
        };
        assert_eq!(r.config, open);
        assert_eq!(r.threads, 4);
        assert_eq!(r.domain_hint, Some(&hint[..]));
        // a block-free key pins the tiling, and nothing else
        let block_free = registry.request(&p, Some(&hint), Tuning::Measured, PlanShape::BlockFree);
        let pinned = PlanConfig {
            tiling: Tiling::None,
            ..open
        };
        assert_eq!(block_free.tune_request().config, pinned);
    }
}
