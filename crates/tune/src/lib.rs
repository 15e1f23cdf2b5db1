//! # stencil-tune
//!
//! Measured autotuning for `stencil-core` plans — the paper's declared
//! future work ("significant efforts are required in automatic tuning",
//! §4.1), built as a subsystem:
//!
//! * [`candidates`] — a search space seeded by the §3.2 op-collect cost
//!   model: the top-K predicted methods plus neighborhood moves over
//!   time blocks, widths and spatial tiles.
//! * [`probe`] — short timed sweeps of each candidate on small
//!   representative domains, compile-once/run-many, all probes sharing
//!   one process-wide worker pool, bounded by a wall-clock budget.
//! * [`cache`] — a persistent per-host plan cache (JSON through
//!   `stencil_obs::json`, keyed by hostname × ISA build × threads ×
//!   pattern signature × domain shape class), so a host probes once
//!   and every later `compile()` is a warm lookup.
//! * [`AutoTuner`] — ties the three together and implements
//!   `stencil-core`'s [`MeasuredTuner`] hook.
//!
//! ## Usage
//!
//! ```no_run
//! use stencil_core::{kernels, Method, Solver, Tiling, Tuning};
//!
//! stencil_tune::install(); // once per process
//!
//! let plan = Solver::new(kernels::heat2d())
//!     .method(Method::Auto)
//!     .tiling(Tiling::Auto)
//!     .threads(8)
//!     .tuning(Tuning::Measured) // probe (or reuse this host's cache)
//!     .compile()
//!     .unwrap();
//! assert_ne!(plan.method(), Method::Auto);
//! ```
//!
//! The first measured compile probes for ~1 s and persists the winner;
//! every later compile of the same problem class on this host — in this
//! process or any other — resolves from the cache without a single
//! probe run. [`Tuning::CacheOnly`] makes that determinism a contract.
//!
//! ## Environment
//!
//! * `STENCIL_TUNE_CACHE` — cache file path (default
//!   `$XDG_CACHE_HOME/stencil-tune/plans.json`, falling back to
//!   `$HOME/.cache/...`, then the system temp dir).
//! * `STENCIL_TUNE_BUDGET_MS` — probe budget per tuning request in
//!   milliseconds (default 1000).

// Offset-indexed loops are the domain idiom here (windows, tiles, taps);
// iterators would hide the math.
#![allow(clippy::needless_range_loop)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod cache;
pub mod candidates;
pub mod host;
pub mod probe;

use cache::{CacheEntry, CacheHealth, TuneCache};
use host::HostFingerprint;
use probe::{Budget, ProbeDomain};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use stencil_core::tune::{auto_method, MeasuredTuner, TuneDecision, TuneFailure, TuneRequest};
use stencil_core::{Method, PlanConfig, Tuning};

pub use stencil_core::tune::{install_tuner, installed_tuner};

/// The probing autotuner: cost-model-seeded candidate search, budgeted
/// probes, persistent per-host cache. Implements [`MeasuredTuner`], so
/// installing it (see [`install`]) routes every
/// [`Tuning::Measured`]/[`Tuning::CacheOnly`] `compile()` through it.
pub struct AutoTuner {
    cache_path: PathBuf,
    budget: Budget,
    top_k: usize,
    hostd: HostFingerprint,
    /// Lazily loaded cache image (`None` until first use). A corrupt
    /// file loads as an empty cache — the degradation contract: bad
    /// persistence never breaks compilation, it only costs a re-probe
    /// (and `Tuning::Static` never reads the file at all).
    state: Mutex<Option<TuneCache>>,
    probes: AtomicU64,
    /// One-line operator warnings accumulated by cache loading (corrupt
    /// files, foreign-ISA entries). The serving layer drains these into
    /// its stats surface so cold starts are visible, not silent.
    warnings: Mutex<Vec<String>>,
}

impl AutoTuner {
    /// Tuner with explicit cache path (see [`AutoTuner::from_env`] for
    /// the default resolution).
    pub fn with_cache_path(path: impl Into<PathBuf>) -> Self {
        Self {
            cache_path: path.into(),
            budget: Budget::default(),
            top_k: 3,
            hostd: HostFingerprint::detect(),
            state: Mutex::new(None),
            probes: AtomicU64::new(0),
            warnings: Mutex::new(Vec::new()),
        }
    }

    /// Tuner configured from the environment (`STENCIL_TUNE_CACHE`,
    /// `STENCIL_TUNE_BUDGET_MS`).
    pub fn from_env() -> Self {
        let mut t = Self::with_cache_path(default_cache_path());
        if let Some(ms) = std::env::var("STENCIL_TUNE_BUDGET_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
        {
            t.budget = Budget::from_millis(ms);
        }
        t
    }

    /// Override the probe budget.
    pub fn budget(mut self, b: Budget) -> Self {
        self.budget = b;
        self
    }

    /// Override how many cost-model-ranked methods enter the search.
    pub fn top_k(mut self, k: usize) -> Self {
        self.top_k = k.max(1);
        self
    }

    /// Override the host fingerprint (tests use this to simulate a
    /// foreign cache).
    pub fn with_host(mut self, hostd: HostFingerprint) -> Self {
        self.hostd = hostd;
        self
    }

    /// The cache file this tuner reads and writes.
    pub fn cache_path(&self) -> &Path {
        &self.cache_path
    }

    /// Timed probe sweeps run so far (warm-ups and runoffs included).
    /// Flat across cache hits — the determinism tests pin that.
    pub fn probe_count(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// The persisted entry a request would resolve to, if any — the
    /// full measurement record (winner, rate, the cost model's pick,
    /// probe spend), not just the decision. `stencil-bench tune` uses
    /// this for its chosen-vs-model report.
    pub fn lookup(&self, req: &TuneRequest<'_>) -> Option<CacheEntry> {
        let key = cache::cache_key(&self.hostd, req);
        self.with_cache(|c| c.get(&key).cloned())
    }

    /// Run `f` against the lazily-loaded cache image.
    fn with_cache<R>(&self, f: impl FnOnce(&mut TuneCache) -> R) -> R {
        let mut guard = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if guard.is_none() {
            *guard = Some(match TuneCache::load(&self.cache_path) {
                Ok(Some(c)) => {
                    // loaded fine, but entries from a different ISA
                    // build of this machine are dead weight compiles
                    // can never hit — tell the operator why the warm
                    // start they expected will re-probe
                    let h = c.health_for(&self.hostd);
                    if h.foreign_isa > 0 {
                        self.warn(format!(
                            "tune cache {:?}: {} of {} entries were measured under a \
                             different ISA build than {} — invalidated, compiles under \
                             those keys re-probe (cold start)",
                            self.cache_path, h.foreign_isa, h.total, self.hostd.isa
                        ));
                    }
                    c
                }
                Ok(None) => TuneCache::new(),
                Err(reason) => {
                    // corrupt/unreadable: degrade to an empty cache and
                    // say so once; the next save overwrites the file.
                    // The warning is also queued for the serving stats
                    // surface, so operators of long-running services
                    // see the cold start instead of a silent re-probe.
                    eprintln!("stencil-tune: {reason}; starting with an empty cache");
                    self.warn(format!(
                        "{reason}; starting with an empty cache (every compile under this \
                         host re-probes until the cache is re-warmed)"
                    ));
                    TuneCache::new()
                }
            });
        }
        f(guard.as_mut().expect("just initialized"))
    }

    fn warn(&self, line: String) {
        self.warnings
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(line);
    }

    /// Drain the one-line warnings cache loading has accumulated
    /// (corrupt file, foreign-ISA entries). Non-destructive reads are
    /// deliberately not offered: each warning is meant to be surfaced
    /// exactly once, by whichever stats sink drains first.
    pub fn drain_warnings(&self) -> Vec<String> {
        std::mem::take(&mut *self.warnings.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Health of the persisted cache image relative to this host/build
    /// (forces the lazy load). A service can export these counts so a
    /// cold start is attributable: `foreign_isa > 0` means the binary
    /// was rebuilt with different target features since the cache was
    /// warmed.
    pub fn cache_health(&self) -> CacheHealth {
        let hostd = self.hostd.clone();
        self.with_cache(|c| c.health_for(&hostd))
    }

    /// Probe the hill-climb neighborhood of an `incumbent` configuration
    /// — the challenger session of online retuning. Unlike
    /// [`MeasuredTuner::tune`], this ignores any cache hit (the point is
    /// to re-measure under *today's* machine and workload), probes the
    /// incumbent itself alongside its [`candidates::neighborhood`]
    /// moves — dominated methods included, which is how periodic
    /// dominance re-probe falls out; moves that contradict an axis
    /// `req` pins are dropped before any budget is spent on them — and
    /// touches neither the cache image nor the disk: the caller decides
    /// whether the verdict is worth keeping
    /// ([`AutoTuner::persist_verdict`]).
    ///
    /// `budget` is per call, independent of the tuner's own probe
    /// budget, so a low-priority background lane can spend a few tens of
    /// milliseconds per challenge without reconfiguring the tuner.
    pub fn challenge(
        &self,
        req: &TuneRequest<'_>,
        incumbent: &PlanConfig,
        budget: &Budget,
    ) -> Result<ChallengeOutcome, TuneFailure> {
        let mut cands = candidates::neighborhood(req.pattern, incumbent, req.threads, self.top_k);
        cands.retain(|c| req.admits(&c.config));
        let class = cache::shape_class(req.domain_hint);
        let domain = ProbeDomain::build(req.pattern, class);
        let report = probe::run(
            req.pattern,
            &cands,
            req.threads,
            &domain,
            budget,
            &self.probes,
        );
        let Some(mut outcome) = session_outcome(&report) else {
            return Err(TuneFailure::Failed {
                reason: format!(
                    "challenge: every candidate failed to compile or run ({} skipped)",
                    report.skipped
                ),
            });
        };
        outcome.incumbent_rate = report
            .outcomes
            .iter()
            .find(|o| o.candidate.config == *incumbent)
            .map(|o| o.rate);
        Ok(outcome)
    }

    /// Persist a [`challenge`](AutoTuner::challenge) verdict under the
    /// request's cache key, so the next warm-start resolves straight to
    /// the session's winner. The prior entry's per-method probe history
    /// is carried forward for methods this session did not re-measure —
    /// the dominance bookkeeping keeps accumulating across challenges.
    pub fn persist_verdict(&self, req: &TuneRequest<'_>, outcome: &ChallengeOutcome) {
        let mut entry = session_entry(cache::cache_key(&self.hostd, req), req, outcome);
        self.with_cache(|c| {
            if let Some(prev) = c.get(&entry.key) {
                for &(m, r) in &prev.method_rates {
                    if !entry.method_rates.iter().any(|&(pm, _)| pm == m) {
                        entry.method_rates.push((m, r));
                    }
                }
            }
            self.put_and_save(c, entry);
        });
    }

    /// Record `entry` in the cache image and write the image through to
    /// disk.
    fn put_and_save(&self, c: &mut TuneCache, entry: CacheEntry) {
        c.put(entry);
        // fold in decisions other processes persisted since our lazy
        // load — the full-image write below must not erase them (our
        // own entries win on key conflict)
        if let Ok(Some(disk)) = TuneCache::load(&self.cache_path) {
            c.merge_missing_from(disk);
        }
        // persistence is best-effort: a read-only cache dir costs
        // re-probes in later processes, never a failed compile
        if let Err(e) = c.save(&self.cache_path) {
            eprintln!("stencil-tune: could not persist {:?}: {e}", self.cache_path);
        }
    }
}

/// Summarize a probe session: the fastest candidate, the spend, and
/// the best rate each method reached (the per-method probe history
/// behind the dominance pruning of future sessions). `None` when no
/// candidate was measured; `incumbent_rate` is left for
/// [`AutoTuner::challenge`] to fill.
fn session_outcome(report: &probe::ProbeReport) -> Option<ChallengeOutcome> {
    let best = report.best()?;
    let mut method_rates: Vec<(Method, f64)> = Vec::new();
    for o in &report.outcomes {
        let method = o.candidate.config.method;
        match method_rates.iter_mut().find(|(m, _)| *m == method) {
            Some(mr) => mr.1 = mr.1.max(o.rate),
            None => method_rates.push((method, o.rate)),
        }
    }
    Some(ChallengeOutcome {
        best: best.candidate,
        rate: best.rate,
        incumbent_rate: None,
        probes: report.outcomes.len(),
        spent_ms: report.spent.as_secs_f64() * 1e3,
        method_rates,
    })
}

/// The cache entry recording a probe session's winner under `key`.
fn session_entry(key: String, req: &TuneRequest<'_>, session: &ChallengeOutcome) -> CacheEntry {
    CacheEntry {
        key,
        config: session.best.config,
        rate: session.rate,
        // the cost model's own pick for this request, so
        // `stencil-bench tune` can print chosen-vs-model
        model_method: auto_method(req.pattern, req.config.width, req.config.tiling),
        probes: session.probes,
        spent_ms: session.spent_ms,
        method_rates: session.method_rates.clone(),
    }
}

/// Result of one [`AutoTuner::challenge`] probe session — and the
/// verdict the serving layer's retune lanes pass around (a scripted
/// lane fills one in by hand, with `probes: 0`).
#[derive(Debug, Clone)]
pub struct ChallengeOutcome {
    /// The session's winning configuration (possibly the incumbent).
    pub best: candidates::Candidate,
    /// The winner's measured rate (points × steps per second).
    pub rate: f64,
    /// The incumbent's own re-measured rate in the same session, when
    /// the budget reached it (it is probed first).
    pub incumbent_rate: Option<f64>,
    /// Probe sweeps completed.
    pub probes: usize,
    /// Wall-clock spent probing, in milliseconds.
    pub spent_ms: f64,
    /// Best rate per probed method — the probe history fed back into
    /// the cache by [`AutoTuner::persist_verdict`].
    pub method_rates: Vec<(Method, f64)>,
}

/// Fraction of a session's best rate below which a probed method counts
/// as dominated in that session (see
/// [`cache::TuneCache::dominated_methods`]).
pub const DOMINANCE_MARGIN: f64 = 0.7;

/// Probe sessions that must consistently dominate a method before the
/// candidate generator drops it.
pub const DOMINANCE_SESSIONS: usize = 2;

impl MeasuredTuner for AutoTuner {
    fn tune(&self, req: &TuneRequest<'_>) -> Result<TuneDecision, TuneFailure> {
        let key = cache::cache_key(&self.hostd, req);
        if let Some(hit) = self.with_cache(|c| c.get(&key).map(|e| e.config)) {
            return Ok(TuneDecision {
                config: hit,
                from_cache: true,
            });
        }
        if req.mode == Tuning::CacheOnly {
            return Err(TuneFailure::CacheMiss { key });
        }

        let mut cands = candidates::generate(req.pattern, &req.config, req.threads, self.top_k);
        // Probe history shrinks the list: methods this host's prior
        // sessions consistently measured far off the lead are dropped
        // before any budget is spent on them. Fixed methods are never
        // pruned (the caller asked for exactly that one), and the prune
        // never empties the list — the top-ranked survivor always runs.
        if req.config.method == Method::Auto {
            let sig = cache::pattern_signature(req.pattern);
            let hostd = self.hostd.clone();
            let doomed = self.with_cache(|c| {
                c.dominated_methods(
                    &hostd,
                    req.threads,
                    req.config.width,
                    &sig,
                    DOMINANCE_SESSIONS,
                    DOMINANCE_MARGIN,
                )
            });
            if !doomed.is_empty() {
                let kept: Vec<candidates::Candidate> = cands
                    .iter()
                    .filter(|c| !doomed.contains(&c.config.method))
                    .copied()
                    .collect();
                if !kept.is_empty() {
                    cands = kept;
                }
            }
        }
        if cands.is_empty() {
            return Err(TuneFailure::Failed {
                reason: format!("no candidate configurations for key {key:?}"),
            });
        }
        let class = cache::shape_class(req.domain_hint);
        let domain = ProbeDomain::build(req.pattern, class);
        let report = probe::run(
            req.pattern,
            &cands,
            req.threads,
            &domain,
            &self.budget,
            &self.probes,
        );
        let Some(session) = session_outcome(&report) else {
            return Err(TuneFailure::Failed {
                reason: format!(
                    "every candidate failed to compile or run ({} skipped) for key {key:?}",
                    report.skipped
                ),
            });
        };
        let entry = session_entry(key, req, &session);
        let decision = TuneDecision {
            config: entry.config,
            from_cache: false,
        };
        self.with_cache(|c| self.put_and_save(c, entry));
        Ok(decision)
    }
}

/// Default cache location: `$STENCIL_TUNE_CACHE`, else
/// `$XDG_CACHE_HOME/stencil-tune/plans.json`, else
/// `$HOME/.cache/stencil-tune/plans.json`, else the system temp dir.
pub fn default_cache_path() -> PathBuf {
    if let Ok(p) = std::env::var("STENCIL_TUNE_CACHE") {
        if !p.is_empty() {
            return PathBuf::from(p);
        }
    }
    let base = std::env::var("XDG_CACHE_HOME")
        .ok()
        .filter(|p| !p.is_empty())
        .map(PathBuf::from)
        .or_else(|| {
            std::env::var("HOME")
                .ok()
                .filter(|p| !p.is_empty())
                .map(|h| Path::new(&h).join(".cache"))
        })
        .unwrap_or_else(std::env::temp_dir);
    base.join("stencil-tune").join("plans.json")
}

/// Install the process-wide [`AutoTuner`] (configured from the
/// environment) as the measured tuner behind
/// [`Tuning::Measured`]/[`Tuning::CacheOnly`], and return it.
///
/// Idempotent: later calls return the same instance. If a *different*
/// [`MeasuredTuner`] was installed first via
/// [`stencil_core::tune::install_tuner`], that one stays active for
/// `compile()` (first installation wins) — the returned `AutoTuner` is
/// then only reachable directly.
pub fn install() -> &'static AutoTuner {
    INSTALLED.get_or_init(|| register(AutoTuner::from_env()))
}

/// [`install`] with an explicitly configured tuner instead of the
/// environment-derived one — lets embedders (and tests) pin the cache
/// path and probe budget without mutating process-wide environment
/// variables. First installation wins: if a tuner is already active,
/// `tuner` is dropped and the active one is returned.
pub fn install_with(tuner: AutoTuner) -> &'static AutoTuner {
    INSTALLED.get_or_init(move || register(tuner))
}

fn register(tuner: AutoTuner) -> &'static AutoTuner {
    let t: &'static AutoTuner = Box::leak(Box::new(tuner));
    stencil_core::tune::install_tuner(t);
    t
}

static INSTALLED: OnceLock<&'static AutoTuner> = OnceLock::new();

/// The [`AutoTuner`] a previous [`install`] call created, if it is the
/// *active* measured tuner — `None` when nothing was installed yet, or
/// when a foreign [`MeasuredTuner`] won the first-installation race
/// (an inactive `AutoTuner`'s probe counter and warnings would
/// misrepresent what compiles actually do). Long-running services use
/// this to export the tuner's probe counter and cache warnings on
/// their stats surface without forcing an installation.
pub fn installed_auto() -> Option<&'static AutoTuner> {
    let ours = INSTALLED.get().copied()?;
    let active = stencil_core::tune::installed_tuner()?;
    // compare data pointers: `active` is a fat dyn pointer
    std::ptr::eq(
        active as *const dyn MeasuredTuner as *const (),
        ours as *const AutoTuner as *const (),
    )
    .then_some(ours)
}

/// Test fixture: a request at `width` with every tunable axis open.
#[cfg(test)]
pub(crate) fn open_config(width: stencil_core::Width) -> PlanConfig {
    PlanConfig {
        method: Method::Auto,
        tiling: stencil_core::Tiling::Auto,
        width,
        ring3: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::{kernels, Tiling, Width};

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "stencil-tune-lib-{tag}-{}.json",
            std::process::id()
        ))
    }

    fn req<'a>(
        p: &'a stencil_core::Pattern,
        mode: Tuning,
        hint: Option<&'a [usize]>,
    ) -> TuneRequest<'a> {
        TuneRequest {
            pattern: p,
            config: open_config(Width::W4),
            threads: 2,
            domain_hint: hint,
            mode,
        }
    }

    #[test]
    fn measured_probes_persist_then_hit() {
        let path = temp_path("persist");
        let _ = std::fs::remove_file(&path);
        let tuner = AutoTuner::with_cache_path(&path).budget(Budget::from_millis(150));
        let p = kernels::heat1d();

        let d1 = tuner.tune(&req(&p, Tuning::Measured, None)).unwrap();
        assert!(!d1.from_cache);
        assert_ne!(d1.config.method, Method::Auto);
        assert_ne!(d1.config.tiling, Tiling::Auto);
        let probes_after_first = tuner.probe_count();
        assert!(probes_after_first > 0);
        assert!(path.exists(), "cache must be persisted");

        // same request: cache hit, identical decision, zero new probes
        let d2 = tuner.tune(&req(&p, Tuning::Measured, None)).unwrap();
        assert!(d2.from_cache);
        assert_eq!(d2.config, d1.config);
        assert_eq!(tuner.probe_count(), probes_after_first);

        // a fresh tuner instance reads the same decision from disk
        let cold = AutoTuner::with_cache_path(&path);
        let d3 = cold.tune(&req(&p, Tuning::CacheOnly, None)).unwrap();
        assert!(d3.from_cache);
        assert_eq!(d3.config.method, d1.config.method);
        assert_eq!(cold.probe_count(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cache_only_misses_are_typed() {
        let path = temp_path("miss");
        let _ = std::fs::remove_file(&path);
        let tuner = AutoTuner::with_cache_path(&path);
        let p = kernels::heat2d();
        match tuner.tune(&req(&p, Tuning::CacheOnly, None)) {
            Err(TuneFailure::CacheMiss { key }) => assert!(key.contains("d2r1p5")),
            other => panic!("expected CacheMiss, got {other:?}"),
        }
        assert_eq!(tuner.probe_count(), 0, "CacheOnly must never probe");
    }

    #[test]
    fn foreign_host_cache_forces_reprobe() {
        let path = temp_path("foreign");
        let _ = std::fs::remove_file(&path);
        let p = kernels::heat1d();
        // warm the cache under a fake fingerprint...
        let foreign = AutoTuner::with_cache_path(&path)
            .budget(Budget::from_millis(100))
            .with_host(HostFingerprint {
                hostname: "some-other-box".into(),
                isa: "avx512f-w8".into(),
                threads: 64,
            });
        foreign.tune(&req(&p, Tuning::Measured, None)).unwrap();
        // ...then read it back as the real host: the entry must not match
        let local = AutoTuner::with_cache_path(&path).budget(Budget::from_millis(100));
        match local.tune(&req(&p, Tuning::CacheOnly, None)) {
            Err(TuneFailure::CacheMiss { .. }) => {}
            other => panic!("foreign entries must not be reused: {other:?}"),
        }
        let d = local.tune(&req(&p, Tuning::Measured, None)).unwrap();
        assert!(!d.from_cache, "must re-probe on this host");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_cache_degrades_to_probing() {
        let path = temp_path("corrupt");
        std::fs::write(&path, "{{{ not json").unwrap();
        let tuner = AutoTuner::with_cache_path(&path).budget(Budget::from_millis(100));
        let p = kernels::heat1d();
        let d = tuner.tune(&req(&p, Tuning::Measured, None)).unwrap();
        assert!(!d.from_cache);
        // and the corrupt file was replaced by a valid one
        let reloaded = TuneCache::load(&path).unwrap().unwrap();
        assert_eq!(reloaded.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_tuner_saves_do_not_erase_each_other() {
        // simulates two processes sharing one cache file: an instance
        // that loaded its image early must not clobber entries another
        // instance persisted in the meantime
        let path = temp_path("merge");
        let _ = std::fs::remove_file(&path);
        let budget = Budget::from_millis(60);
        let p1 = kernels::heat1d();
        let p2 = kernels::heat2d();
        let p3 = kernels::d1p5();

        let a = AutoTuner::with_cache_path(&path).budget(budget);
        a.tune(&req(&p1, Tuning::Measured, None)).unwrap(); // A: loads empty, saves {p1}
        let b = AutoTuner::with_cache_path(&path).budget(budget);
        b.tune(&req(&p2, Tuning::Measured, None)).unwrap(); // B: saves {p1, p2}
        a.tune(&req(&p3, Tuning::Measured, None)).unwrap(); // A's image predates p2
        let on_disk = TuneCache::load(&path).unwrap().unwrap();
        assert_eq!(on_disk.len(), 3, "A's save must not erase B's entry");
        // and a cold reader resolves all three without probing
        let c = AutoTuner::with_cache_path(&path);
        for p in [&p1, &p2, &p3] {
            assert!(c.tune(&req(p, Tuning::CacheOnly, None)).unwrap().from_cache);
        }
        assert_eq!(c.probe_count(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fixed_axes_are_honored_in_decisions() {
        let path = temp_path("fixed");
        let _ = std::fs::remove_file(&path);
        let tuner = AutoTuner::with_cache_path(&path).budget(Budget::from_millis(100));
        let p = kernels::heat2d();
        let mut r = req(&p, Tuning::Measured, None);
        r.config.method = Method::TransposeLayout;
        let d = tuner.tune(&r).unwrap();
        assert_eq!(d.config.method, Method::TransposeLayout);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn challenge_spends_no_probe_on_moves_the_request_pins_away() {
        let tuner = AutoTuner::with_cache_path(temp_path("pinned-challenge"));
        let p = kernels::heat2d();
        let incumbent = PlanConfig {
            method: Method::MultipleLoads,
            tiling: Tiling::None,
            width: Width::W4,
            ring3: None,
        };
        let budget = Budget::from_millis(200);
        // unconstrained: the tiling move and the method alternates are
        // all probed
        let open = req(&p, Tuning::Measured, None);
        let free = tuner.challenge(&open, &incumbent, &budget).unwrap();
        assert!(free.probes > 1, "{free:?}");
        // block-free pinned: the method alternates, block-free like the
        // incumbent, are still probed
        let mut block_free = req(&p, Tuning::Measured, None);
        block_free.config.tiling = Tiling::None;
        let alternates = tuner.challenge(&block_free, &incumbent, &budget).unwrap();
        assert!(alternates.probes > 1, "{alternates:?}");
        // method and tiling pinned: every one of those moves contradicts
        // the request, so the incumbent is the only configuration measured
        let mut pinned = block_free.clone();
        pinned.config.method = Method::MultipleLoads;
        let before = tuner.probe_count();
        let held = tuner.challenge(&pinned, &incumbent, &budget).unwrap();
        assert_eq!(held.probes, 1, "{held:?}");
        assert_eq!(held.best.config, incumbent);
        assert!(held.incumbent_rate.is_some());
        // warm-up + timed sweep of that one candidate, nothing else
        assert_eq!(tuner.probe_count() - before, 2);
    }

    #[test]
    fn probe_history_prunes_dominated_methods() {
        let path = temp_path("dominance");
        let _ = std::fs::remove_file(&path);
        let p = kernels::heat1d();
        let hostd = HostFingerprint::detect();
        // seed two prior sessions (distinct shape classes) whose probe
        // history shows DataReorg hopelessly dominated
        let mut seeded = cache::TuneCache::new();
        for (hint, rate) in [(&[2048usize][..], 1.0e8), (&[500_000usize][..], 1.2e8)] {
            let key = cache::cache_key(&hostd, &req(&p, Tuning::Measured, Some(hint)));
            seeded.put(cache::CacheEntry {
                key,
                config: PlanConfig {
                    method: Method::Folded { m: 2 },
                    tiling: Tiling::Tessellate { time_block: 8 },
                    width: Width::W4,
                    ring3: None,
                },
                rate: 10.0 * rate,
                model_method: Method::Folded { m: 2 },
                probes: 5,
                spent_ms: 20.0,
                method_rates: vec![
                    (Method::Folded { m: 2 }, 10.0 * rate),
                    (Method::TransposeLayout, 9.0 * rate),
                    (Method::DataReorg, rate),
                ],
            });
        }
        seeded.save(&path).unwrap();
        // a fresh probe session under a *new* key must not spend budget
        // on the dominated method: its session history excludes it
        let tuner = AutoTuner::with_cache_path(&path)
            .budget(Budget::from_millis(1500))
            .top_k(8);
        let hint: &[usize] = &[60_000];
        let d = tuner.tune(&req(&p, Tuning::Measured, Some(hint))).unwrap();
        assert!(!d.from_cache);
        let entry = tuner
            .lookup(&req(&p, Tuning::CacheOnly, Some(hint)))
            .unwrap();
        assert!(
            !entry
                .method_rates
                .iter()
                .any(|&(m, _)| m == Method::DataReorg),
            "dominated method must be pruned from the probe list: {:?}",
            entry.method_rates
        );
        // methods with a clean record still get probed
        assert!(entry
            .method_rates
            .iter()
            .any(|&(m, _)| matches!(m, Method::Folded { .. })));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shape_classes_cache_separately() {
        let path = temp_path("classes");
        let _ = std::fs::remove_file(&path);
        let tuner = AutoTuner::with_cache_path(&path).budget(Budget::from_millis(80));
        let p = kernels::heat1d();
        let tiny: &[usize] = &[2048];
        tuner.tune(&req(&p, Tuning::Measured, Some(tiny))).unwrap();
        // the large class was never probed, so CacheOnly misses it
        let large: &[usize] = &[8_000_000];
        match tuner.tune(&req(&p, Tuning::CacheOnly, Some(large))) {
            Err(TuneFailure::CacheMiss { .. }) => {}
            other => panic!("distinct shape classes must not share entries: {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }
}
