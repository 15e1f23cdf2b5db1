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
//! 2. run each hot key through the [`ChallengerLane`], asking with the
//!    key's own registry request ([`PlanRegistry::request_for_key`]),
//! 3. reset the key's window (win or lose — the hysteresis),
//! 4. on a win by more than `margin` that honors the axes the request
//!    pins, compile the challenger — the request with the verdict's
//!    configuration — at the next epoch, [`PlanRegistry::swap_plan`] it
//!    in, and persist the verdict to the per-host tune cache.
//!
//! In-flight jobs keep their `Arc<Plan>` across a swap and finish on
//! the old generation bit-exactly; only jobs resolved after the swap
//! see the new epoch.

use super::lane::{ChallengeRequest, ChallengerLane};
use crate::metrics::ServeStats;
use crate::registry::PlanRegistry;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Duration;

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
            let target = self.registry.plan_for_key(&key).and_then(|plan| {
                let request =
                    self.registry
                        .request_for_key(&key, plan.pattern(), traffic.hint())?;
                Some((plan, request))
            });
            let Some((incumbent, request)) = target else {
                // traffic under a key the registry no longer serves:
                // nothing to challenge, stop counting it as hot
                traffic.reset_window();
                continue;
            };
            let req = ChallengeRequest {
                key: key.clone(),
                request,
                incumbent: incumbent.config(),
                budget_ms: self.cfg.lane_budget_ms,
            };
            self.stats.challenges.fetch_add(1, Relaxed);
            let verdict = self.lane.challenge(&req);
            // win or lose, the key starts a fresh window: a margin-edge
            // loser must re-earn min_samples before the next trial
            traffic.reset_window();
            // no re-measured incumbent rate means no fair comparison: a
            // swap decided against a stale number is how flapping
            // starts. A winner outside the axes the key pins (a tiled
            // plan for a block-free slot) is no answer to its request.
            let winner = verdict.and_then(|v| {
                let challenger = v.best.config;
                let beats = v.rate > v.incumbent_rate? * (1.0 + self.cfg.margin);
                let eligible =
                    challenger != req.incumbent && req.request.tune_request().admits(&challenger);
                (beats && eligible).then_some(v)
            });
            let Some(v) = winner else {
                self.stats.challenges_rejected.fetch_add(1, Relaxed);
                continue;
            };
            // the verdict pins every axis: no tuner is consulted
            let challenger = req
                .request
                .clone()
                .with_config(v.best.config)
                .epoch(incumbent.epoch() + 1);
            match challenger.compile() {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapt::lane::ScriptedLane;
    use crate::registry::PlanShape;
    use crate::shard::ShardPolicy;
    use std::time::Duration;
    use stencil_core::{kernels, Method, PlanConfig, Tiling, Tuning};
    use stencil_tune::candidates::Candidate;
    use stencil_tune::{AutoTuner, ChallengeOutcome};

    const HINT: [usize; 2] = [48, 48];

    fn harness_for(shape: PlanShape) -> (Arc<PlanRegistry>, Arc<ServeStats>, String) {
        let stats = Arc::new(ServeStats::new());
        let registry = Arc::new(PlanRegistry::new(
            2,
            ShardPolicy::default(),
            Arc::clone(&stats),
        ));
        let (key, _) = registry
            .entry_for(&kernels::heat2d(), Some(&HINT), Tuning::Static, shape)
            .unwrap();
        (registry, stats, key)
    }

    fn harness() -> (Arc<PlanRegistry>, Arc<ServeStats>, String) {
        harness_for(PlanShape::Pooled)
    }

    fn heat_traffic(stats: &ServeStats, key: &str, n: usize, epoch: u64) {
        for _ in 0..n {
            stats.traffic.record(
                key,
                Duration::from_micros(80),
                epoch,
                stencil_obs::Timeline::default(),
                || HINT.to_vec(),
            );
        }
    }

    fn verdict(config: PlanConfig, rate: f64) -> ChallengeOutcome {
        ChallengeOutcome {
            best: Candidate {
                config,
                score: f64::NAN,
            },
            rate,
            incumbent_rate: Some(1.0),
            probes: 3,
            spent_ms: 1.0,
            method_rates: vec![(config.method, rate)],
        }
    }

    fn winning_verdict(registry: &PlanRegistry, key: &str, rate: f64) -> ChallengeOutcome {
        // a challenger that differs from what the incumbent resolved
        // to (the vector kernel, block-free, where the cost model picks
        // a fold), and always compiles for heat2d
        let incumbent = registry.plan_for_key(key).unwrap();
        assert_ne!(incumbent.method(), Method::MultipleLoads);
        let config = PlanConfig {
            method: Method::MultipleLoads,
            tiling: Tiling::None,
            width: incumbent.width(),
        };
        verdict(config, rate)
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
        let at_margin = winning_verdict(&registry, &key, 1.10);
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
        let lose = ChallengeOutcome {
            incumbent_rate: Some(2.0),
            ..verdict(old.config(), 1.0)
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
        assert_eq!(swapped.config(), win.best.config);
        // second hot window, losing verdict: no swap back
        heat_traffic(&stats, &key, 4, swapped.epoch());
        assert_eq!(decider.tick(), 0);
        assert!(Arc::ptr_eq(&registry.plan_for_key(&key).unwrap(), &swapped));
        assert_eq!(stats.swaps.load(Relaxed), 1);
        assert_eq!(stats.challenges.load(Relaxed), 2);
        assert_eq!(stats.challenges_rejected.load(Relaxed), 1);
    }

    #[test]
    fn block_free_keys_retune_under_their_own_request() {
        // the slab-lane slot pins Tiling::None: its challenge, its
        // verdict and its cache entry all live under that request, not
        // under the pooled key's open one
        let (registry, stats, key) = harness_for(PlanShape::BlockFree);
        let incumbent = registry.plan_for_key(&key).unwrap();
        assert_eq!(incumbent.tiling(), Tiling::None);
        let cache = std::env::temp_dir().join(format!(
            "stencil-decider-block-free-{}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&cache);
        // a tessellated "winner" is no answer to a block-free request,
        // however fast; a block-free one is
        let tiled = PlanConfig {
            tiling: Tiling::Tessellate { time_block: 4 },
            ..incumbent.config()
        };
        let block_free = winning_verdict(&registry, &key, 5.0);
        let lane = ScriptedLane::new(vec![verdict(tiled, 5.0), block_free.clone()])
            .with_tuner(AutoTuner::with_cache_path(&cache));
        let decider = Decider::new(
            AdaptConfig {
                enabled: true,
                min_samples: 4,
                ..AdaptConfig::default()
            },
            Arc::clone(&registry),
            Arc::clone(&stats),
            Box::new(lane),
        );
        heat_traffic(&stats, &key, 4, 0);
        assert_eq!(decider.tick(), 0, "a tiled plan must not take the slot");
        assert_eq!(stats.challenges_rejected.load(Relaxed), 1);
        assert!(Arc::ptr_eq(
            &registry.plan_for_key(&key).unwrap(),
            &incumbent
        ));
        heat_traffic(&stats, &key, 4, 0);
        assert_eq!(decider.tick(), 1);
        let swapped = registry.plan_for_key(&key).unwrap();
        assert_eq!(swapped.config(), block_free.best.config);
        // persisted where the key's next warm-start looks (ti=none),
        // leaving the pooled key's entry alone
        let tuner = AutoTuner::with_cache_path(&cache);
        let request =
            |shape| registry.request(&kernels::heat2d(), Some(&HINT), Tuning::CacheOnly, shape);
        let entry = tuner
            .lookup(&request(PlanShape::BlockFree).tune_request())
            .expect("the verdict persists under the block-free request");
        assert!(entry.key.ends_with("|m=*|ti=none"), "{}", entry.key);
        assert_eq!(entry.config, block_free.best.config);
        assert!(tuner
            .lookup(&request(PlanShape::Pooled).tune_request())
            .is_none());
        let _ = std::fs::remove_file(&cache);
    }
}
