//! The plan registry: a concurrent map from (pattern signature ×
//! domain shape class × tuning mode) to compiled [`Plan`]s, shared by
//! every executor worker.
//!
//! Keys reuse the exact identity the per-host tuning cache keys by —
//! [`Pattern::signature`] and [`stencil_core::tune::shape_class`] — so
//! a registry slot and its tuning-cache entry always describe the same
//! problem class. All plans compile against one shared worker pool
//! ([`stencil_runtime::PoolHandle::shared`]); lookups on the serving
//! path are a lock + string hash, never a compile.
//!
//! Warm-at-startup: [`PlanRegistry::warm`] walks a
//! [`Manifest`] and compiles every declared pattern up
//! front. Under `Tuning::CacheOnly` a warmed host reaches serving state
//! with **zero probe runs**; a cold cache (or a binary whose ISA
//! fingerprint diverged from the cache's host stamp) degrades to the
//! static cost model and surfaces a one-line warning on the stats
//! surface instead of silently re-probing.

use crate::manifest::{tuning_from_str, tuning_to_str, Manifest};
use crate::metrics::ServeStats;
use crate::shard::{self, ShardPolicy};
use std::collections::HashMap;
use std::sync::Arc;
use stencil_core::tune::shape_class;
use stencil_core::{Method, Pattern, Plan, PlanError, Solver, Tiling, Tuning};
use stencil_runtime::sync::Mutex;
use stencil_runtime::PoolHandle;

/// Which execution shape a registry entry serves.
///
/// Large 2D/3D jobs are sharded into single-thread slabs, and the slab
/// lanes run the block-free configuration (slabs of tessellated plans
/// are bit-exact too; the service does not shard those) —
/// so a pattern the service both shards and serves unsharded gets two
/// entries: the pool-parallel tiled plan and the block-free slab plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanShape {
    /// The tiling the tuner/cost model picks; runs on the shared pool.
    Pooled,
    /// Block-free (`Tiling::None`); the configuration slab lanes clone.
    BlockFree,
}

impl PlanShape {
    fn token(self) -> &'static str {
        match self {
            PlanShape::Pooled => "pooled",
            PlanShape::BlockFree => "bf",
        }
    }

    fn from_token(token: &str) -> Option<Self> {
        [PlanShape::Pooled, PlanShape::BlockFree]
            .into_iter()
            .find(|shape| shape.token() == token)
    }
}

/// Outcome of a manifest warm-up.
#[derive(Debug, Default)]
pub struct WarmReport {
    /// Manifest entries (× shapes) resolved to a registered plan —
    /// compiled, or already present when two entries share a registry
    /// key (same signature, shape class and mode).
    pub loaded: usize,
    /// Entry × shape resolutions (same granularity as `loaded`) that
    /// fell back from a measured tuning mode to the static cost model
    /// (cold tune cache / missing tuner / foreign-ISA stamp) — each
    /// also produced a stats warning.
    pub fallbacks: usize,
    /// Entries that failed to compile at all.
    pub failed: Vec<(String, PlanError)>,
}

/// Concurrent map from plan key to compiled plan (plus the per-key
/// single-thread lane plans the sharder uses).
pub struct PlanRegistry {
    pool: PoolHandle,
    policy: ShardPolicy,
    plans: Mutex<HashMap<String, Arc<Plan>>>,
    /// Single-thread slab lanes per key, tagged with the plan they
    /// were compiled from: a cold-key recovery replaces the registry
    /// plan, and stale lanes must never be served for it.
    lanes: Mutex<HashMap<String, LaneSet>>,
    /// Keys currently served by a cold-start fallback plan (CacheOnly
    /// requested, static model delivered), with a hit counter that
    /// throttles recovery retries. Periodic hits on these keys retry
    /// the real resolution, so re-warming the tune cache takes effect
    /// in a running service instead of requiring a restart.
    cold: Mutex<HashMap<String, u64>>,
    /// Consecutive worker-panic counts per key; a key at or past
    /// [`QUARANTINE_PANICS`] is quarantined (see
    /// [`PlanRegistry::quarantined`]).
    panics: Mutex<HashMap<String, u32>>,
    stats: Arc<ServeStats>,
}

/// A cold key retries its real resolution on the first hit and then
/// every this-many hits — recovery stays prompt without putting a
/// tuner consult on every request of a permanently cold deployment.
pub const COLD_RETRY_PERIOD: u64 = 16;

/// Consecutive worker panics on one registry key before the key is
/// quarantined: further submissions are rejected with
/// [`crate::ServeError::Quarantined`] instead of burning a worker (and
/// a caller timeout) per crash. Any panic-free execution on the key
/// resets the count; [`PlanRegistry::swap_plan`] lifts an active
/// quarantine, so a retune/hot-swap is the recovery path.
pub const QUARANTINE_PANICS: u32 = 3;

/// Cached slab lanes plus the source plan they were cloned from. The
/// strong `Arc` is the identity tag: holding it pins the allocation,
/// so pointer equality can never alias a recycled address (no ABA).
type LaneSet = (Arc<Plan>, Arc<Vec<Plan>>);

impl PlanRegistry {
    /// Registry whose plans share one process-wide pool of `threads`
    /// workers; `policy` decides which manifest entries also pre-warm
    /// their block-free shard variant.
    pub fn new(threads: usize, policy: ShardPolicy, stats: Arc<ServeStats>) -> Self {
        Self {
            pool: PoolHandle::shared(threads),
            policy,
            plans: Mutex::new(HashMap::new()),
            lanes: Mutex::new(HashMap::new()),
            cold: Mutex::new(HashMap::new()),
            panics: Mutex::new(HashMap::new()),
            stats,
        }
    }

    /// The registry key for a request:
    /// `signature|shape-class|mode|shape`.
    pub fn key(
        pattern: &Pattern,
        domain_hint: Option<&[usize]>,
        tuning: Tuning,
        shape: PlanShape,
    ) -> String {
        format!(
            "{}|{}|{}|{}",
            pattern.signature(),
            shape_class(domain_hint),
            tuning_to_str(tuning),
            shape.token()
        )
    }

    /// The shared pool every registered plan runs on.
    pub fn pool(&self) -> &PoolHandle {
        &self.pool
    }

    /// Number of registered plans.
    pub fn len(&self) -> usize {
        self.plans.lock().len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The already-registered plan for a request, if any (counts a
    /// hit/miss either way).
    pub fn get(
        &self,
        pattern: &Pattern,
        domain_hint: Option<&[usize]>,
        tuning: Tuning,
        shape: PlanShape,
    ) -> Option<Arc<Plan>> {
        use std::sync::atomic::Ordering::Relaxed;
        let key = Self::key(pattern, domain_hint, tuning, shape);
        let found = self.plans.lock().get(&key).cloned();
        match &found {
            Some(_) => self.stats.plan_hits.fetch_add(1, Relaxed),
            None => self.stats.plan_misses.fetch_add(1, Relaxed),
        };
        found
    }

    /// The plan for a request, compiling and registering it on first
    /// use. `Method::Auto` + `Tiling::Auto` are resolved through the
    /// requested tuning mode; a `CacheOnly` request whose per-host
    /// cache entry is missing (cold cache, foreign ISA stamp) or whose
    /// tuner is absent **falls back to the static cost model** and
    /// pushes a one-line warning — a registered plan beats a refused
    /// job, but the cold start must be visible to operators.
    pub fn get_or_compile(
        &self,
        pattern: &Pattern,
        domain_hint: Option<&[usize]>,
        tuning: Tuning,
        shape: PlanShape,
    ) -> Result<Arc<Plan>, PlanError> {
        self.entry_for(pattern, domain_hint, tuning, shape)
            .map(|(_, plan)| plan)
    }

    /// [`PlanRegistry::get_or_compile`] returning the registry key
    /// alongside the plan — the submission path needs both, and the
    /// key (an FNV hash over every pattern weight) should be built
    /// once per job, not twice.
    pub fn entry_for(
        &self,
        pattern: &Pattern,
        domain_hint: Option<&[usize]>,
        tuning: Tuning,
        shape: PlanShape,
    ) -> Result<(String, Arc<Plan>), PlanError> {
        use std::sync::atomic::Ordering::Relaxed;
        let key = Self::key(pattern, domain_hint, tuning, shape);
        // bind the lookup before the `if let`: a scrutinee temporary
        // would hold the plans lock across the body, deadlocking the
        // re-lock in the recovery path below
        let hit = self.plans.lock().get(&key).cloned();
        if let Some(plan) = hit {
            self.stats.plan_hits.fetch_add(1, Relaxed);
            // a key served by a cold-start fallback periodically
            // retries the real resolution, so re-warming the tune
            // cache upgrades a running service instead of requiring a
            // restart — throttled, so a permanently cold deployment
            // does not pay a tuner consult per request
            let retry_now = {
                let mut cold = self.cold.lock();
                match cold.get_mut(&key) {
                    None => false,
                    Some(hits) => {
                        *hits += 1;
                        *hits % COLD_RETRY_PERIOD == 1
                    }
                }
            };
            if retry_now {
                // always retry under CacheOnly, whatever mode went
                // cold: a warm cache upgrades the key, and a probing
                // Measured resolve must never run on the serving path
                if let Ok(fresh) = self.compile(pattern, domain_hint, Tuning::CacheOnly, shape) {
                    let fresh = Arc::new(fresh);
                    self.plans.lock().insert(key.clone(), Arc::clone(&fresh));
                    self.lanes.lock().remove(&key);
                    self.cold.lock().remove(&key);
                    self.stats.cold_recoveries.fetch_add(1, Relaxed);
                    self.stats.warn(format!(
                        "recovered: tune cache now resolves the previously cold key; \
                         serving the measured plan for {key:?}"
                    ));
                    return Ok((key, fresh));
                }
            }
            return Ok((key, plan));
        }
        self.stats.plan_misses.fetch_add(1, Relaxed);
        let mut went_cold = false;
        let plan = match self.compile(pattern, domain_hint, tuning, shape) {
            Ok(plan) => plan,
            Err(PlanError::TuneCacheMiss { key: miss }) if tuning == Tuning::CacheOnly => {
                self.stats.cold_fallbacks.fetch_add(1, Relaxed);
                self.stats.warn(format!(
                    "cold start: tune cache has no entry for {miss:?}; serving the static \
                     cost-model plan (re-warm with Tuning::Measured or `stencil-bench tune`)"
                ));
                went_cold = true;
                self.compile(pattern, domain_hint, Tuning::Static, shape)?
            }
            Err(PlanError::TunerUnavailable { mode }) => {
                self.stats.cold_fallbacks.fetch_add(1, Relaxed);
                self.stats.warn(format!(
                    "cold start: {mode:?} tuning requested but no measured tuner is \
                     installed; serving the static cost-model plan"
                ));
                went_cold = true;
                self.compile(pattern, domain_hint, Tuning::Static, shape)?
            }
            Err(e) => return Err(e),
        };
        let plan = Arc::new(plan);
        if went_cold {
            self.cold.lock().insert(key.clone(), 0);
        }
        // two racers may compile the same key; first insert wins so
        // every caller sees one canonical plan per key
        let mut map = self.plans.lock();
        let entry = map.entry(key.clone()).or_insert_with(|| Arc::clone(&plan));
        let plan = Arc::clone(entry);
        drop(map);
        Ok((key, plan))
    }

    /// The consecutive-panic count for `key` when it has reached the
    /// [`QUARANTINE_PANICS`] threshold — `None` while the key is still
    /// servable. The submission path consults this *after* resolving
    /// the registry key and rejects quarantined jobs before they reach
    /// the queue.
    pub fn quarantined(&self, key: &str) -> Option<u32> {
        self.panics
            .lock()
            .get(key)
            .copied()
            .filter(|&n| n >= QUARANTINE_PANICS)
    }

    /// Record a worker panic while executing a job resolved to `key`;
    /// returns the new consecutive count (the caller warns when it
    /// crosses [`QUARANTINE_PANICS`]).
    pub fn note_panic(&self, key: &str) -> u32 {
        let mut map = self.panics.lock();
        let n = map.entry(key.to_string()).or_insert(0);
        *n += 1;
        *n
    }

    /// Record a panic-free execution on `key`: the consecutive-panic
    /// count resets, so only an unbroken run of panics quarantines.
    pub fn note_panic_free(&self, key: &str) {
        self.panics.lock().remove(key);
    }

    /// The plan currently registered under a raw key, if any — no
    /// hit/miss accounting (this is the retuning decider's
    /// introspection path, not the serving path).
    pub fn plan_for_key(&self, key: &str) -> Option<Arc<Plan>> {
        self.plans.lock().get(key).cloned()
    }

    /// Atomically replace the plan registered under `key` — the
    /// retuning hot-swap. Same invalidation discipline as a cold-key
    /// recovery: the stale shard lanes are dropped (the `Arc::ptr_eq`
    /// tag in [`PlanRegistry::lane_plans`] would refuse them anyway),
    /// any cold marker is cleared, and an active panic quarantine is
    /// lifted. Jobs already resolved keep
    /// their `Arc<Plan>` and finish on the old generation bit-exactly;
    /// only jobs resolved after this call see the new plan.
    pub fn swap_plan(&self, key: &str, plan: Arc<Plan>) {
        use std::sync::atomic::Ordering::Relaxed;
        let epoch = plan.epoch();
        self.plans.lock().insert(key.to_string(), plan);
        self.lanes.lock().remove(key);
        self.cold.lock().remove(key);
        // a hot-swap is the recovery path out of a panic quarantine:
        // the new generation starts with a clean consecutive count
        self.panics.lock().remove(key);
        self.stats.swaps.fetch_add(1, Relaxed);
        self.stats.warn(format!(
            "retune: hot-swapped the plan for {key:?} (now epoch {epoch}); in-flight \
             jobs finish on the previous generation"
        ));
    }

    /// The request behind a registry entry: what
    /// [`PlanRegistry::entry_for`] compiles and — through
    /// [`Solver::tune_request`] — what its tune-cache entry answers.
    /// `Method::Auto` on the shared pool; the shape decides the tiling
    /// (open when pooled, pinned block-free for slab lanes). The
    /// retuning decider challenges a key with this same value.
    pub fn request(
        &self,
        pattern: &Pattern,
        domain_hint: Option<&[usize]>,
        tuning: Tuning,
        shape: PlanShape,
    ) -> Solver {
        let tiling = match shape {
            PlanShape::Pooled => Tiling::Auto,
            PlanShape::BlockFree => Tiling::None,
        };
        let solver = Solver::new(pattern.clone())
            .method(Method::Auto)
            .tiling(tiling)
            .tuning(tuning)
            .pool(self.pool.clone());
        match domain_hint {
            Some(hint) => solver.domain_hint(hint),
            None => solver,
        }
    }

    fn compile(
        &self,
        pattern: &Pattern,
        domain_hint: Option<&[usize]>,
        tuning: Tuning,
        shape: PlanShape,
    ) -> Result<Plan, PlanError> {
        self.request(pattern, domain_hint, tuning, shape).compile()
    }

    /// [`PlanRegistry::request`] for a raw registry `key` (whose tuning
    /// mode and shape tokens it decodes) serving `pattern` on domains
    /// like `domain_hint`; `None` for a string that is not a key.
    pub fn request_for_key(
        &self,
        key: &str,
        pattern: &Pattern,
        domain_hint: &[usize],
    ) -> Option<Solver> {
        let mut tokens = key.rsplit('|');
        let shape = PlanShape::from_token(tokens.next()?)?;
        let tuning = tuning_from_str(tokens.next()?).ok()?;
        Some(self.request(pattern, Some(domain_hint), tuning, shape))
    }

    /// The cached single-thread lane plans backing sharded execution of
    /// `plan` (compiled once per registry key, sized to `lanes`; a
    /// request for more lanes than cached recompiles the set). Cached
    /// sets are only reused for the *same* plan instance — after a
    /// cold-key recovery swaps the registry plan, the next sharded job
    /// rebuilds its lanes from the fresh configuration.
    pub fn lane_plans(
        &self,
        key: &str,
        plan: &Arc<Plan>,
        lanes: usize,
    ) -> Result<Arc<Vec<Plan>>, PlanError> {
        if let Some((src, set)) = self.lanes.lock().get(key) {
            if Arc::ptr_eq(src, plan) && set.len() >= lanes {
                return Ok(Arc::clone(set));
            }
        }
        let set = Arc::new(shard::lane_plans(plan.as_ref(), lanes)?);
        // compiled outside the lock, so re-check before inserting: a
        // concurrent compile for the same key and plan may have cached
        // a set already — keep whichever is larger (smaller sets are a
        // strict prefix use-case); a different plan always replaces
        let mut map = self.lanes.lock();
        match map.get(key) {
            Some((src, existing)) if Arc::ptr_eq(src, plan) && existing.len() >= set.len() => {
                Ok(Arc::clone(existing))
            }
            _ => {
                map.insert(key.to_string(), (Arc::clone(plan), Arc::clone(&set)));
                Ok(set)
            }
        }
    }

    /// Compile every manifest entry up front (see the module docs for
    /// the cold-start semantics). Entries whose expected domain is
    /// large enough for the shard policy also pre-warm their
    /// block-free slab variant, so the first big job does not pay a
    /// compile either. Also drains the installed tuner's load warnings
    /// (corrupt cache file, foreign-ISA entries) onto the stats
    /// surface, so `warm` is the moment a bad cache becomes visible.
    pub fn warm(&self, manifest: &Manifest) -> WarmReport {
        use std::sync::atomic::Ordering::Relaxed;
        let mut report = WarmReport::default();
        for entry in &manifest.entries {
            let tuning = entry.tuning.unwrap_or(manifest.default_tuning);
            let hint = entry.domain_hint.as_deref();
            let mut shapes = vec![PlanShape::Pooled];
            if entry.pattern.dims() >= 2 {
                let points: usize = hint.map(|h| h.iter().product()).unwrap_or(0);
                if points >= self.policy.min_points && self.policy.max_shards > 1 {
                    shapes.push(PlanShape::BlockFree);
                }
            }
            for shape in shapes {
                match self.entry_for(&entry.pattern, hint, tuning, shape) {
                    Ok((key, plan)) => {
                        report.loaded += 1;
                        self.stats.warm_loaded.fetch_add(1, Relaxed);
                        // per-entry cold state, not a diff of the global
                        // counter: concurrent submissions' fallbacks
                        // must not be misattributed to this entry
                        if self.cold.lock().contains_key(&key) {
                            report.fallbacks += 1;
                        }
                        // pre-warm the slab lanes too: the first big
                        // job must not pay `shards` compiles on the
                        // executor hot path
                        if shape == PlanShape::BlockFree && plan.dims() >= 2 {
                            if let Err(e) = self.lane_plans(&key, &plan, self.policy.max_shards) {
                                self.stats.warn(format!(
                                    "warm-up: lane plans for {:?} failed to compile: {e}",
                                    entry.name
                                ));
                            }
                        }
                    }
                    Err(e) => {
                        self.stats.warn(format!(
                            "warm-up: manifest entry {:?} ({shape:?}) failed to compile: {e}",
                            entry.name
                        ));
                        report.failed.push((entry.name.clone(), e));
                    }
                }
            }
        }
        // a Static-only manifest never touched the tuner; draining
        // here would steal another (measured) service's load warnings
        let used_measured = manifest
            .entries
            .iter()
            .any(|e| e.tuning.unwrap_or(manifest.default_tuning) != Tuning::Static);
        if used_measured {
            if let Some(tuner) = stencil_tune::installed_auto() {
                for w in tuner.drain_warnings() {
                    self.stats.warn(w);
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::kernels;

    fn registry() -> (PlanRegistry, Arc<ServeStats>) {
        let stats = Arc::new(ServeStats::new());
        let policy = ShardPolicy {
            min_points: 1 << 20,
            max_shards: 4,
            min_slab: 16,
        };
        (PlanRegistry::new(2, policy, Arc::clone(&stats)), stats)
    }

    #[test]
    fn keys_split_by_signature_class_mode_and_shape() {
        let p = kernels::heat2d();
        let a = PlanRegistry::key(&p, None, Tuning::Static, PlanShape::Pooled);
        assert_ne!(
            a,
            PlanRegistry::key(&kernels::box2d9p(), None, Tuning::Static, PlanShape::Pooled)
        );
        assert_ne!(
            a,
            PlanRegistry::key(&p, Some(&[64, 64]), Tuning::Static, PlanShape::Pooled)
        );
        assert_ne!(
            a,
            PlanRegistry::key(&p, None, Tuning::CacheOnly, PlanShape::Pooled)
        );
        assert_ne!(
            a,
            PlanRegistry::key(&p, None, Tuning::Static, PlanShape::BlockFree)
        );
        assert_eq!(
            a,
            PlanRegistry::key(&p, None, Tuning::Static, PlanShape::Pooled)
        );
    }

    #[test]
    fn compile_once_then_hit() {
        use std::sync::atomic::Ordering::Relaxed;
        let (reg, stats) = registry();
        let p = kernels::heat2d();
        let a = reg
            .get_or_compile(&p, None, Tuning::Static, PlanShape::Pooled)
            .unwrap();
        let b = reg
            .get_or_compile(&p, None, Tuning::Static, PlanShape::Pooled)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(reg.len(), 1);
        assert_eq!(stats.plan_misses.load(Relaxed), 1);
        assert_eq!(stats.plan_hits.load(Relaxed), 1);
        // every plan shares the registry pool
        assert!(PoolHandle::ptr_eq(a.pool(), reg.pool()));
        assert_ne!(a.method(), Method::Auto);
        assert_ne!(a.tiling(), Tiling::Auto);
        // the block-free shape is a distinct entry with Tiling::None
        let bf = reg
            .get_or_compile(&p, None, Tuning::Static, PlanShape::BlockFree)
            .unwrap();
        assert_eq!(bf.tiling(), Tiling::None);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn cache_only_without_tuner_degrades_to_static_with_warning() {
        use std::sync::atomic::Ordering::Relaxed;
        let (reg, stats) = registry();
        let p = kernels::heat1d();
        // this test binary installs no tuner: CacheOnly cannot resolve,
        // the registry must fall back and say so
        let plan = reg
            .get_or_compile(&p, None, Tuning::CacheOnly, PlanShape::Pooled)
            .unwrap();
        assert_ne!(plan.method(), Method::Auto);
        assert_eq!(stats.cold_fallbacks.load(Relaxed), 1);
        let snap = stats.snapshot();
        assert!(
            snap.warnings.iter().any(|w| w.contains("cold start")),
            "{:?}",
            snap.warnings
        );
    }

    #[test]
    fn warm_compiles_every_manifest_entry_plus_shard_variants() {
        let (reg, stats) = registry();
        let mut m = Manifest::new(Tuning::Static);
        m.push_kernel("heat2d", Some(&[2048, 2048])) // large: + bf variant
            .push_kernel("box2d9p", None) // no hint: pooled only
            .push_kernel("heat1d", Some(&[1 << 22])); // 1D: pooled only
        let report = reg.warm(&m);
        assert_eq!(report.loaded, 4, "3 pooled + 1 block-free");
        assert!(report.failed.is_empty());
        assert_eq!(reg.len(), 4);
        assert_eq!(stats.snapshot().warm_loaded, 4);
        // warm plans are hits now
        let p = kernels::heat2d();
        assert!(reg
            .get(&p, Some(&[2048, 2048]), Tuning::Static, PlanShape::Pooled)
            .is_some());
        assert!(reg
            .get(
                &p,
                Some(&[2048, 2048]),
                Tuning::Static,
                PlanShape::BlockFree
            )
            .is_some());
    }

    #[test]
    fn swap_plan_replaces_the_entry_and_invalidates_stale_lanes() {
        let (reg, stats) = registry();
        let p = kernels::box2d9p();
        let plan = reg
            .get_or_compile(&p, None, Tuning::Static, PlanShape::BlockFree)
            .unwrap();
        let key = PlanRegistry::key(&p, None, Tuning::Static, PlanShape::BlockFree);
        let lanes = reg.lane_plans(&key, &plan, 2).unwrap();
        // a challenger generation: same configuration, next epoch
        let fresh = Arc::new(
            Solver::new(p.clone())
                .with_config(plan.config())
                .pool(reg.pool().clone())
                .epoch(plan.epoch() + 1)
                .compile()
                .unwrap(),
        );
        reg.swap_plan(&key, Arc::clone(&fresh));
        let now = reg.plan_for_key(&key).unwrap();
        assert!(Arc::ptr_eq(&now, &fresh));
        assert_eq!(now.epoch(), plan.epoch() + 1);
        let snap = stats.snapshot();
        assert_eq!(snap.swaps, 1);
        assert!(snap.warnings.iter().any(|w| w.contains("hot-swapped")));
        // the stale lane set was dropped: the next sharded request
        // rebuilds against the new generation
        let rebuilt = reg.lane_plans(&key, &fresh, 2).unwrap();
        assert!(!Arc::ptr_eq(&lanes, &rebuilt));
        // the old Arc is untouched — an in-flight job holding it
        // finishes on its own generation
        assert_eq!(plan.epoch(), 0);
    }

    #[test]
    fn cold_retry_is_throttled_while_the_cache_stays_cold() {
        use std::sync::atomic::Ordering::Relaxed;
        let (reg, stats) = registry();
        let p = kernels::heat1d();
        // no tuner is installed in this binary: the CacheOnly resolve
        // falls back to the static model and marks the key cold
        let (key, first) = reg
            .entry_for(&p, None, Tuning::CacheOnly, PlanShape::Pooled)
            .unwrap();
        assert_eq!(stats.cold_fallbacks.load(Relaxed), 1);
        assert_eq!(reg.cold.lock().get(&key).copied(), Some(0));
        // hammer the cold key for several retry periods; every retry
        // fails (still no tuner), so the key must stay cold, keep
        // serving the same fallback plan, and never warn again — the
        // throttle is what keeps a permanently cold deployment quiet
        let hits = 2 * COLD_RETRY_PERIOD + 3;
        for _ in 0..hits {
            let (_, plan) = reg
                .entry_for(&p, None, Tuning::CacheOnly, PlanShape::Pooled)
                .unwrap();
            assert!(Arc::ptr_eq(&plan, &first));
        }
        assert_eq!(
            reg.cold.lock().get(&key).copied(),
            Some(hits),
            "every hit on a cold key advances its throttle counter"
        );
        assert_eq!(stats.cold_recoveries.load(Relaxed), 0);
        assert_eq!(stats.cold_fallbacks.load(Relaxed), 1);
        let snap = stats.snapshot();
        assert_eq!(
            snap.warnings
                .iter()
                .filter(|w| w.contains("cold start"))
                .count(),
            1,
            "failed retries must not spam warnings: {:?}",
            snap.warnings
        );
        assert_eq!(snap.tuner_probes, 0, "retries never probe");
    }

    #[test]
    fn measured_cold_keys_throttle_the_same_and_never_probe() {
        use std::sync::atomic::Ordering::Relaxed;
        let (reg, stats) = registry();
        let p = kernels::heat1d();
        // Measured with no tuner installed degrades to the static
        // model too (TunerUnavailable), and the key goes cold under
        // its own mode token
        let (key, _) = reg
            .entry_for(&p, None, Tuning::Measured, PlanShape::Pooled)
            .unwrap();
        assert_eq!(stats.cold_fallbacks.load(Relaxed), 1);
        assert!(reg.cold.lock().contains_key(&key));
        for _ in 0..COLD_RETRY_PERIOD + 1 {
            reg.entry_for(&p, None, Tuning::Measured, PlanShape::Pooled)
                .unwrap();
        }
        // the periodic retry resolves under CacheOnly regardless of
        // the mode that went cold — a probing Measured resolve must
        // never run on the serving path
        assert_eq!(stats.snapshot().tuner_probes, 0);
        assert_eq!(stats.cold_recoveries.load(Relaxed), 0);
        assert!(reg.cold.lock().contains_key(&key), "key stays cold");
    }

    #[test]
    fn quarantine_needs_consecutive_panics_and_success_resets() {
        let (reg, _) = registry();
        let key = "sig|class|static|pooled";
        assert_eq!(reg.quarantined(key), None);
        for n in 1..QUARANTINE_PANICS {
            assert_eq!(reg.note_panic(key), n);
            assert_eq!(
                reg.quarantined(key),
                None,
                "below the threshold the key still serves"
            );
        }
        // a clean execution in between resets the streak
        reg.note_panic_free(key);
        assert_eq!(reg.note_panic(key), 1);
        reg.note_panic_free(key);
        // an unbroken streak quarantines at exactly the threshold
        for _ in 0..QUARANTINE_PANICS {
            reg.note_panic(key);
        }
        assert_eq!(reg.quarantined(key), Some(QUARANTINE_PANICS));
        // other keys are unaffected
        assert_eq!(reg.quarantined("other|key"), None);
    }

    #[test]
    fn swap_plan_lifts_an_active_quarantine() {
        let (reg, _) = registry();
        let p = kernels::heat2d();
        let plan = reg
            .get_or_compile(&p, None, Tuning::Static, PlanShape::Pooled)
            .unwrap();
        let key = PlanRegistry::key(&p, None, Tuning::Static, PlanShape::Pooled);
        for _ in 0..QUARANTINE_PANICS + 2 {
            reg.note_panic(&key);
        }
        assert!(reg.quarantined(&key).is_some());
        reg.swap_plan(&key, plan);
        assert_eq!(
            reg.quarantined(&key),
            None,
            "a hot-swapped generation starts with a clean record"
        );
    }

    #[test]
    fn lane_plans_are_cached_per_key_and_grow_on_demand() {
        let (reg, _) = registry();
        let p = kernels::box2d9p();
        let plan = reg
            .get_or_compile(&p, None, Tuning::Static, PlanShape::BlockFree)
            .unwrap();
        let key = PlanRegistry::key(&p, None, Tuning::Static, PlanShape::BlockFree);
        let a = reg.lane_plans(&key, &plan, 2).unwrap();
        let b = reg.lane_plans(&key, &plan, 2).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 2);
        let c = reg.lane_plans(&key, &plan, 4).unwrap();
        assert_eq!(c.len(), 4);
        for lane in c.iter() {
            assert_eq!(lane.method(), plan.method());
            assert_eq!(lane.pool().threads(), 1);
        }
    }
}
