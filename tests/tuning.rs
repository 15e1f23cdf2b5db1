//! Integration: the measured autotuning subsystem end-to-end through
//! the facade — probe, persist, reuse, and the determinism contract of
//! `Tuning::CacheOnly`.
//!
//! The probe-count assertions share one installed process-wide tuner,
//! so the two counter-sensitive tests (`measured_tuning_end_to_end` and
//! `invalid_pinned_axes_get_the_static_error_in_every_tuning_mode`)
//! take [`probe_counter`]'s lock; the other tests either never probe or
//! use private `AutoTuner` instances with their own cache files and
//! counters.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use stencil_lab::core::kernels;
use stencil_lab::core::tune::{TuneFailure, TuneRequest};
use stencil_lab::grid::max_abs_diff;
use stencil_lab::tune::cache::TuneCache;
use stencil_lab::tune::probe::Budget;
use stencil_lab::{
    AutoTuner, Grid1D, Method, Pattern, PlanConfig, PlanError, Solver, Tiling, Tuning, Width,
};

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "stencil-tuning-itest-{tag}-{}.json",
        std::process::id()
    ))
}

/// The process-wide tuner every `Solver::compile` in this binary
/// resolves through (fresh cache file per run, small probe budget).
fn global_tuner() -> &'static AutoTuner {
    static T: OnceLock<&'static AutoTuner> = OnceLock::new();
    T.get_or_init(|| {
        let path = temp_path("global");
        let _ = std::fs::remove_file(&path);
        let t: &'static AutoTuner = Box::leak(Box::new(
            AutoTuner::with_cache_path(path).budget(Budget::from_millis(150)),
        ));
        assert!(
            stencil_lab::core::tune::install_tuner(t),
            "this binary owns the first installation"
        );
        t
    })
}

/// A measured request for `p` on two threads at four lanes, every
/// tunable axis open.
fn open_request(p: &Pattern) -> TuneRequest<'_> {
    TuneRequest {
        pattern: p,
        config: PlanConfig {
            method: Method::Auto,
            tiling: Tiling::Auto,
            width: Width::W4,
        },
        threads: 2,
        domain_hint: None,
        mode: Tuning::Measured,
    }
}

/// The installed tuner with its probe counter held still: tests that
/// assert on `probe_count()` deltas run one at a time.
fn probe_counter() -> (&'static AutoTuner, MutexGuard<'static, ()>) {
    static LOCK: Mutex<()> = Mutex::new(());
    (
        global_tuner(),
        LOCK.lock().unwrap_or_else(PoisonError::into_inner),
    )
}

/// The acceptance path: `Solver::tuning(Tuning::Measured).compile()`
/// probes once, persists the winner to the per-host cache, and every
/// later compile — Measured or CacheOnly — reuses the cached choice
/// without running a single probe.
#[test]
fn measured_tuning_end_to_end() {
    let (tuner, _held) = probe_counter();
    let p = kernels::heat1d();
    let solve = |mode: Tuning| {
        Solver::new(p.clone())
            .method(Method::Auto)
            .tiling(Tiling::Auto)
            .threads(2)
            .tuning(mode)
            .compile()
    };

    // 1. cold: the compile probes and persists
    let plan1 = solve(Tuning::Measured).expect("measured compile");
    assert_ne!(plan1.method(), Method::Auto);
    assert_ne!(plan1.tiling(), Tiling::Auto);
    let probes_cold = tuner.probe_count();
    assert!(probes_cold > 0, "a cold measured compile must probe");
    let cache = TuneCache::load(tuner.cache_path())
        .expect("cache parses")
        .expect("cache file exists after a measured compile");
    assert_eq!(cache.len(), 1, "one decision persisted");

    // 2. warm: same problem, identical decision, zero new probes
    let plan2 = solve(Tuning::Measured).expect("warm measured compile");
    assert_eq!(plan2.method(), plan1.method());
    assert_eq!(plan2.tiling(), plan1.tiling());
    assert_eq!(plan2.width(), plan1.width());
    assert_eq!(
        tuner.probe_count(),
        probes_cold,
        "warm compiles never probe"
    );

    // 3. CacheOnly with a warmed cache is deterministic and probe-free
    for _ in 0..3 {
        let plan3 = solve(Tuning::CacheOnly).expect("cache-only compile");
        assert_eq!(plan3.method(), plan1.method());
        assert_eq!(plan3.tiling(), plan1.tiling());
    }
    assert_eq!(
        tuner.probe_count(),
        probes_cold,
        "Tuning::CacheOnly must never run probes"
    );

    // 4. the tuned plan computes the same field as the scalar reference
    //    (away from the Dirichlet band a folded choice may widen)
    let g = Grid1D::from_fn(512, |i| ((i * 13 + 5) % 97) as f64 / 97.0);
    let t = 8;
    let want = Solver::new(p.clone())
        .method(Method::Scalar)
        .compile()
        .unwrap()
        .run_1d(&g, t)
        .unwrap();
    let got = plan1.run_1d(&g, t).unwrap();
    let band = plan1.m() * p.radius() * t;
    assert!(
        max_abs_diff(
            &want.as_slice()[band..512 - band],
            &got.as_slice()[band..512 - band]
        ) < 1e-12
    );
}

/// A request whose *pinned* axes cannot compile gets the typed error
/// of the static path in every tuning mode — the rule table runs before
/// any tuner is consulted, so no probe is spent on it either.
#[test]
fn invalid_pinned_axes_get_the_static_error_in_every_tuning_mode() {
    let (tuner, _held) = probe_counter();
    // m = 3 folds this asymmetric radius-2 pattern to 13 distinct
    // columns: inside the 2D radius cap, beyond the counterpart budget
    let busy: Vec<f64> = (0..25).map(|i| 1.0 / (3.0 + i as f64)).collect();
    let auto = |p: Pattern| Solver::new(p).method(Method::Auto).tiling(Tiling::Auto);
    // each case pins one axis to a value no plan admits; the rest is open
    let cases = [
        (
            "m = 0",
            auto(kernels::heat2d()).method(Method::Folded { m: 0 }),
        ),
        (
            "m = 9",
            auto(kernels::heat2d()).method(Method::Folded { m: 9 }),
        ),
        (
            "time_block = 0",
            auto(kernels::heat2d()).tiling(Tiling::Tessellate { time_block: 0 }),
        ),
        (
            "counterpart budget",
            auto(Pattern::new_2d(2, &busy)).method(Method::Folded { m: 3 }),
        ),
    ];
    for (name, request) in cases {
        let compile = |mode: Tuning| request.clone().threads(2).tuning(mode).compile();
        let before = tuner.probe_count();
        let want = compile(Tuning::Static).expect_err(name);
        assert!(
            !matches!(
                want,
                PlanError::TuningFailed { .. } | PlanError::TuneCacheMiss { .. }
            ),
            "{name}: {want}"
        );
        for mode in [Tuning::Measured, Tuning::CacheOnly] {
            let got = compile(mode).expect_err(name);
            assert_eq!(got, want, "{name} under {mode:?}");
        }
        assert_eq!(
            tuner.probe_count(),
            before,
            "{name}: a request that cannot compile spends no probe"
        );
    }
}

#[test]
fn cache_only_cold_is_a_typed_miss() {
    // gb() is tuned by no other test in this binary, so its class is
    // guaranteed cold; no probes are run on the miss path
    global_tuner();
    let err = Solver::new(kernels::gb())
        .method(Method::Auto)
        .tiling(Tiling::Auto)
        .threads(2)
        .tuning(Tuning::CacheOnly)
        .compile()
        .unwrap_err();
    match err {
        PlanError::TuneCacheMiss { key } => {
            assert!(key.contains('|'), "key is the structured cache key: {key}")
        }
        other => panic!("expected TuneCacheMiss, got {other}"),
    }
}

#[test]
fn static_mode_never_consults_the_tuner() {
    // even with a tuner installed, Tuning::Static resolves analytically
    // (and is the documented degradation target for corrupt caches)
    global_tuner();
    let plan = Solver::new(kernels::heat2d())
        .method(Method::Auto)
        .tiling(Tiling::Auto)
        .threads(4)
        .tuning(Tuning::Static)
        .compile()
        .unwrap();
    assert_ne!(plan.method(), Method::Auto);
    assert!(matches!(plan.tiling(), Tiling::Tessellate { .. }));
}

#[test]
fn cache_round_trips_and_foreign_hosts_reprobe() {
    // private tuner instances: cache persisted by one is readable by a
    // second (round-trip through disk), but a different host/ISA
    // fingerprint must miss and re-probe
    let path = temp_path("private");
    let _ = std::fs::remove_file(&path);
    let p = kernels::d1p5();
    let req = |mode: Tuning| TuneRequest {
        mode,
        ..open_request(&p)
    };

    let warm = AutoTuner::with_cache_path(&path).budget(Budget::from_millis(100));
    let d1 = stencil_lab::core::tune::MeasuredTuner::tune(&warm, &req(Tuning::Measured)).unwrap();
    assert!(!d1.from_cache);

    // round-trip: a fresh instance resolves from disk without probing
    let cold = AutoTuner::with_cache_path(&path);
    let d2 = stencil_lab::core::tune::MeasuredTuner::tune(&cold, &req(Tuning::CacheOnly)).unwrap();
    assert!(d2.from_cache);
    assert_eq!(d2.config, d1.config);
    assert_eq!(cold.probe_count(), 0);

    // foreign fingerprint: same file, different host → miss
    let foreign =
        AutoTuner::with_cache_path(&path).with_host(stencil_lab::tune::host::HostFingerprint {
            hostname: "elsewhere".into(),
            isa: "avx512f-w8".into(),
            threads: 96,
        });
    match stencil_lab::core::tune::MeasuredTuner::tune(&foreign, &req(Tuning::CacheOnly)) {
        Err(TuneFailure::CacheMiss { .. }) => {}
        other => panic!("foreign host must miss: {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupt_cache_degrades_gracefully() {
    // a corrupt cache file must not fail compilation: the measured path
    // silently re-probes (and rewrites the file), and Tuning::Static
    // stays available untouched
    let path = temp_path("corrupt");
    std::fs::write(&path, "not json at all {{{").unwrap();
    let p = kernels::heat2d();
    let tuner = AutoTuner::with_cache_path(&path).budget(Budget::from_millis(100));
    let req = open_request(&p);
    let d = stencil_lab::core::tune::MeasuredTuner::tune(&tuner, &req).unwrap();
    assert!(!d.from_cache, "corrupt cache must re-probe, not error");
    // the rewritten file is valid again
    assert_eq!(TuneCache::load(&path).unwrap().unwrap().len(), 1);
    // ...and the static path never touched the file in the first place
    let plan = Solver::new(p)
        .method(Method::Auto)
        .tuning(Tuning::Static)
        .compile()
        .unwrap();
    assert_ne!(plan.method(), Method::Auto);
    let _ = std::fs::remove_file(&path);
}
