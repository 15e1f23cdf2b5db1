//! The retuning decider: watches per-key traffic, challenges hot
//! incumbents, and hot-swaps the registry when a challenger wins by
//! enough.
//!
//! One [`Decider::tick`] is the whole control loop, deliberately
//! synchronous and side-effect-ordered so a test driving ticks by hand
//! sees exactly what the background thread does:
//!
//! 1. scan the [`TrafficMap`](super::TrafficMap) for keys whose
//!    samples-since-challenge window reached `min_samples`,
//! 2. run each hot key through the [`ChallengerLane`],
//! 3. reset the key's window (win or lose — the hysteresis),
//! 4. on a win by more than `margin`, compile the challenger against
//!    the shared pool at the next epoch, [`PlanRegistry::swap_plan`] it
//!    in, and persist the verdict to the per-host tune cache.
//!
//! In-flight jobs keep their `Arc<Plan>` across a swap and finish on
//! the old generation bit-exactly; only jobs resolved after the swap
//! see the new epoch.

use super::lane::{ChallengeRequest, ChallengerLane, PlanChoice};
use crate::metrics::ServeStats;
use crate::registry::PlanRegistry;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Duration;
use stencil_core::{Plan, PlanError, Solver, Tuning};

/// Knobs of the adaptive retuning loop.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptConfig {
    /// The master switch. Off by default: retuning spends probe time
    /// and changes serving plans at runtime, so a deployment opts in.
    pub enabled: bool,
    /// A challenger must beat the incumbent's re-measured rate by this
    /// fraction to swap (`0.10` = 10% faster). The margin plus the
    /// post-challenge window reset is what keeps two near-equal
    /// configurations from flapping.
    pub margin: f64,
    /// Samples a key must accumulate since its last challenge before
    /// it counts as hot.
    pub min_samples: u64,
    /// Probe budget per challenge, milliseconds — the background
    /// lane's spend, independent of the tuner's startup budget.
    pub lane_budget_ms: u64,
    /// Background decider tick period. `Duration::ZERO` spawns no
    /// thread: ticks only run through
    /// [`StencilService::retune_tick`](crate::StencilService::retune_tick)
    /// (what deterministic tests use).
    pub interval: Duration,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            margin: 0.10,
            min_samples: 64,
            lane_budget_ms: 40,
            interval: Duration::from_millis(200),
        }
    }
}

/// The retuning control loop (see the module docs for the tick
/// anatomy).
pub struct Decider {
    cfg: AdaptConfig,
    registry: Arc<PlanRegistry>,
    stats: Arc<ServeStats>,
    lane: Box<dyn ChallengerLane>,
}

impl std::fmt::Debug for Decider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Decider").field("cfg", &self.cfg).finish()
    }
}

impl Decider {
    /// A decider over a registry and its stats surface, challenging
    /// through `lane`.
    pub fn new(
        cfg: AdaptConfig,
        registry: Arc<PlanRegistry>,
        stats: Arc<ServeStats>,
        lane: Box<dyn ChallengerLane>,
    ) -> Self {
        Self {
            cfg,
            registry,
            stats,
            lane,
        }
    }

    /// The configured knobs.
    pub fn config(&self) -> &AdaptConfig {
        &self.cfg
    }

    /// Run one decider pass; returns how many registry entries were
    /// hot-swapped. Hot keys are visited in key order, so a scripted
    /// lane sees a reproducible challenge sequence.
    pub fn tick(&self) -> usize {
        let mut swaps = 0;
        for (key, traffic) in self.stats.traffic.hot(self.cfg.min_samples) {
            let Some(incumbent) = self.registry.plan_for_key(&key) else {
                // traffic under a key the registry no longer serves:
                // nothing to challenge, stop counting it as hot
                traffic.reset_window();
                continue;
            };
            let req = ChallengeRequest {
                key: key.clone(),
                pattern: incumbent.pattern().clone(),
                domain_hint: traffic.hint().to_vec(),
                threads: self.registry.pool().threads(),
                incumbent: PlanChoice::from_plan(&incumbent),
                budget_ms: self.cfg.lane_budget_ms,
            };
            self.stats.challenges.fetch_add(1, Relaxed);
            let verdict = self.lane.challenge(&req);
            // win or lose, the key starts a fresh window: a margin-edge
            // loser must re-earn min_samples before the next trial
            traffic.reset_window();
            let Some(v) = verdict else {
                self.stats.challenges_rejected.fetch_add(1, Relaxed);
                continue;
            };
            let beats = v.rate > v.incumbent_rate * (1.0 + self.cfg.margin);
            if !beats || v.choice == req.incumbent {
                self.stats.challenges_rejected.fetch_add(1, Relaxed);
                continue;
            }
            match compile_choice(&req, &v.choice, incumbent.epoch() + 1, &self.registry) {
                Ok(plan) => {
                    self.registry.swap_plan(&key, Arc::new(plan));
                    self.lane.persist(&req, &v);
                    swaps += 1;
                }
                Err(e) => {
                    self.stats.challenges_rejected.fetch_add(1, Relaxed);
                    self.stats.warn(format!(
                        "retune: winning challenger for {key:?} failed to compile ({e}); \
                         keeping the incumbent"
                    ));
                }
            }
        }
        swaps
    }
}

/// Compile a fully-pinned challenger configuration against the
/// registry's shared pool, tagged with the next plan epoch.
fn compile_choice(
    req: &ChallengeRequest,
    choice: &PlanChoice,
    epoch: u64,
    registry: &PlanRegistry,
) -> Result<Plan, PlanError> {
    let mut solver = Solver::new(req.pattern.clone())
        .method(choice.method)
        .tiling(choice.tiling)
        .width(choice.width)
        .tuning(Tuning::Static)
        .pool(registry.pool().clone())
        .domain_hint(&req.domain_hint)
        .epoch(epoch);
    if let Some(r) = choice.ring {
        solver = solver.ring3(r);
    }
    solver.compile()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapt::lane::{ChallengeVerdict, ScriptedLane};
    use crate::registry::PlanShape;
    use crate::shard::ShardPolicy;
    use std::time::Duration;
    use stencil_core::api::Width;
    use stencil_core::{kernels, Method, Tiling};

    fn harness() -> (Arc<PlanRegistry>, Arc<ServeStats>, String) {
        let stats = Arc::new(ServeStats::new());
        let registry = Arc::new(PlanRegistry::new(
            2,
            ShardPolicy::default(),
            Arc::clone(&stats),
        ));
        let p = kernels::heat2d();
        let hint = [48usize, 48];
        let (key, _) = registry
            .entry_for(&p, Some(&hint), Tuning::Static, PlanShape::Pooled)
            .unwrap();
        (registry, stats, key)
    }

    fn heat_traffic(stats: &ServeStats, key: &str, n: usize, epoch: u64) {
        for _ in 0..n {
            stats.traffic.record(
                key,
                Duration::from_micros(80),
                epoch,
                stencil_obs::Timeline::default(),
                || vec![48, 48],
            );
        }
    }

    fn winning_verdict(registry: &PlanRegistry, key: &str, rate: f64) -> ChallengeVerdict {
        // a challenger that differs from whatever the incumbent
        // resolved to (flip the width), and always compiles for heat2d
        let incumbent = registry.plan_for_key(key).unwrap();
        let width = match incumbent.width() {
            Width::W4 => Width::W8,
            _ => Width::W4,
        };
        ChallengeVerdict {
            choice: PlanChoice {
                method: Method::MultipleLoads,
                tiling: Tiling::None,
                width,
                ring: None,
            },
            rate,
            incumbent_rate: 1.0,
            probes: 3,
            spent_ms: 1.0,
            method_rates: vec![(Method::MultipleLoads, rate)],
        }
    }

    #[test]
    fn cold_keys_are_never_challenged() {
        let (registry, stats, key) = harness();
        let lane = ScriptedLane::new(vec![winning_verdict(&registry, &key, 10.0)]);
        let decider = Decider::new(
            AdaptConfig {
                enabled: true,
                min_samples: 8,
                ..AdaptConfig::default()
            },
            Arc::clone(&registry),
            Arc::clone(&stats),
            Box::new(lane),
        );
        heat_traffic(&stats, &key, 7, 0);
        assert_eq!(decider.tick(), 0);
        assert_eq!(stats.challenges.load(Relaxed), 0);
        // the 8th sample crosses min_samples
        heat_traffic(&stats, &key, 1, 0);
        assert_eq!(decider.tick(), 1);
        assert_eq!(stats.challenges.load(Relaxed), 1);
        assert_eq!(stats.swaps.load(Relaxed), 1);
    }

    #[test]
    fn margin_boundary_does_not_swap_and_window_resets_either_way() {
        let (registry, stats, key) = harness();
        let incumbent = registry.plan_for_key(&key).unwrap();
        // exactly at the boundary: rate == incumbent * (1 + margin) is
        // NOT a win (strict inequality) — the anti-flapping edge
        let mut at_margin = winning_verdict(&registry, &key, 1.10);
        at_margin.incumbent_rate = 1.0;
        let lane = ScriptedLane::new(vec![at_margin]);
        let cfg = AdaptConfig {
            enabled: true,
            margin: 0.10,
            min_samples: 4,
            ..AdaptConfig::default()
        };
        let decider = Decider::new(
            cfg,
            Arc::clone(&registry),
            Arc::clone(&stats),
            Box::new(lane),
        );
        heat_traffic(&stats, &key, 4, 0);
        assert_eq!(decider.tick(), 0);
        assert_eq!(stats.challenges.load(Relaxed), 1);
        assert_eq!(stats.challenges_rejected.load(Relaxed), 1);
        assert_eq!(stats.swaps.load(Relaxed), 0);
        // the incumbent survived untouched...
        assert!(Arc::ptr_eq(
            &registry.plan_for_key(&key).unwrap(),
            &incumbent
        ));
        // ...and the losing challenge still reset the window: the very
        // next tick has no hot key, so no immediate re-trial
        assert_eq!(decider.tick(), 0);
        assert_eq!(stats.challenges.load(Relaxed), 1);
    }

    #[test]
    fn winning_challenge_swaps_once_and_does_not_flap_back() {
        let (registry, stats, key) = harness();
        let old = registry.plan_for_key(&key).unwrap();
        let win = winning_verdict(&registry, &key, 2.0);
        // after the swap the script answers with an incumbent-favoring
        // verdict (challenger loses): a second hot window must not swap
        let lose = ChallengeVerdict {
            choice: PlanChoice::from_plan(&old),
            rate: 1.0,
            incumbent_rate: 2.0,
            probes: 3,
            spent_ms: 1.0,
            method_rates: vec![(old.method(), 2.0)],
        };
        let lane = ScriptedLane::new(vec![win.clone(), lose]);
        let decider = Decider::new(
            AdaptConfig {
                enabled: true,
                margin: 0.10,
                min_samples: 4,
                ..AdaptConfig::default()
            },
            Arc::clone(&registry),
            Arc::clone(&stats),
            Box::new(lane),
        );
        heat_traffic(&stats, &key, 4, 0);
        assert_eq!(decider.tick(), 1);
        let swapped = registry.plan_for_key(&key).unwrap();
        assert!(!Arc::ptr_eq(&swapped, &old));
        assert_eq!(swapped.epoch(), old.epoch() + 1);
        assert_eq!(swapped.width(), win.choice.width);
        // second hot window, losing verdict: no swap back
        heat_traffic(&stats, &key, 4, swapped.epoch());
        assert_eq!(decider.tick(), 0);
        assert!(Arc::ptr_eq(&registry.plan_for_key(&key).unwrap(), &swapped));
        assert_eq!(stats.swaps.load(Relaxed), 1);
        assert_eq!(stats.challenges.load(Relaxed), 2);
        assert_eq!(stats.challenges_rejected.load(Relaxed), 1);
    }
}
