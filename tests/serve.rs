//! Integration tests for the serving subsystem through the facade:
//! the acceptance contracts of `stencil-serve`.
//!
//! * Sharded `run_2d`/`run_3d` through the service is **bit-identical**
//!   to a single unsharded `Plan::run_*` on the same domain.
//! * Manifest warm-start under `Tuning::CacheOnly` reaches serving
//!   state with **zero probe runs** once the per-host tune cache is
//!   warm, and surfaces corrupt-cache/cold-start conditions as
//!   one-line warnings on the stats surface instead of silent
//!   re-probes.
//! * Backpressure is a typed, observable signal, and the stats dump
//!   round-trips through the shared hand-rolled JSON.

#[macro_use]
#[path = "conformance/mod.rs"]
mod conformance;

use conformance::{bits, Extent, Report, Route, Steps};
use std::sync::Arc;
use std::time::Duration;
use stencil_lab::core::api::Width;
use stencil_lab::core::kernels;
use stencil_lab::serve::registry::PlanShape;
use stencil_lab::serve::{
    AdaptConfig, Decider, JobDomain, JobSpec, LatencyHistogram, Manifest, ScriptedLane,
    ServeConfig, ServeError, ShardPolicy, SharedClock, StatsSnapshot, StencilService, VirtualClock,
};
use stencil_lab::tune::candidates::Candidate;
use stencil_lab::tune::ChallengeOutcome;
use stencil_lab::{Grid2D, Method, PlanConfig, Tiling, Tuning};

fn sharded_cfg() -> ServeConfig {
    ServeConfig {
        threads: 2,
        workers: 2,
        queue_capacity: 16,
        batch_max: 4,
        tuning: Tuning::Static,
        shard: ShardPolicy {
            min_points: 1,
            max_shards: 3,
            min_slab: 8,
        },
        ..ServeConfig::default()
    }
}

/// The sharding service split every case of the slice.
fn all_sharded(report: Report) {
    assert!(
        report.cases > 0 && report.sharded == report.cases,
        "{report:?}"
    );
}

#[test]
fn service_sharded_2d_bit_identical_to_unsharded_plan_run() {
    // rows off the 8-row slab alignment (33 and 101): slab alignment and
    // the top scalar remainder of the register pipeline
    let report = check!(kernels: ["heat2d"], methods: [Method::Auto], tilings: [Tiling::None],
        widths: [Width::W4], extents: [Extent::Aligned, Extent::Ragged, Extent::Deep],
        steps: [Steps::Exact(4)], routes: [Route::Service]);
    all_sharded(report);
}

#[test]
fn service_sharded_3d_bit_identical_to_unsharded_plan_run() {
    let report = check!(kernels: ["box3d27p"], methods: [Method::Auto], tilings: [Tiling::None],
        widths: [Width::W4], rings: [None], extents: [Extent::Aligned, Extent::Deep],
        steps: [Steps::Exact(3)], routes: [Route::Service]);
    all_sharded(report);
}

#[test]
fn sharded_3d_zring_pipeline_bit_identical_to_unsharded() {
    // the z-ring register pipeline, block-free and tessellated, through
    // the borrowed and the owned entries — including a radius-2 pattern
    // at folded radius 4
    check!(kernels: ["heat3d", "box3d27p", "box3d125p"], methods: [Method::Folded { m: 2 }],
        tilings: [Tiling::None, Tiling::Tessellate { time_block: 2 }], widths: [Width::W4],
        rings: [None], extents: [Extent::Deep], steps: [Steps::Folds(2, 0)],
        routes: [Route::Shard]);
}

/// The full warm-start story, one test so the process-global tuner and
/// its cache path are controlled end to end:
///
/// 1. a corrupt cache file surfaces as a stats warning (not a silent
///    re-probe), and a `CacheOnly` service over it serves cold-start
///    fallback plans,
/// 2. a `Measured` warm-up probes once and persists — after which the
///    still-running cold service *recovers* its keys at runtime,
/// 3. a fresh `CacheOnly` service warm-starts and serves with **zero**
///    further probe runs and zero cold fallbacks,
/// 4. an adapt-enabled service challenges a hot key through the
///    production `ProbeLane` — a live probe session on that same tuner
///    ([`live_probe_lane_challenges_a_hot_key`]).
#[test]
fn manifest_warm_start_cache_only_serves_with_zero_probe_runs() {
    let cache = std::env::temp_dir().join(format!(
        "stencil-serve-warmstart-{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&cache);
    std::fs::write(&cache, "{{{ not json").unwrap();
    // install_with, not env vars: sibling tests in this binary run in
    // parallel and setenv racing getenv is a crash hazard
    let tuner = stencil_lab::tune::install_with(
        stencil_lab::AutoTuner::with_cache_path(&cache)
            .budget(stencil_lab::tune::probe::Budget::from_millis(120)),
    );
    assert_eq!(tuner.cache_path(), cache.as_path());

    let mut manifest = Manifest::new(Tuning::Measured);
    manifest
        .push_kernel("heat2d", Some(&[96, 96]))
        .push_kernel("heat1d", Some(&[4096]));

    // phase 1: a CacheOnly service over the cold (corrupt) cache —
    // every warm-up entry falls back to the static model, and both the
    // corrupt file and the cold starts surface as warnings
    let mut cache_only = manifest.clone();
    cache_only.default_tuning = Tuning::CacheOnly;
    for e in &mut cache_only.entries {
        e.tuning = Some(Tuning::CacheOnly);
    }
    let cold = StencilService::start(ServeConfig {
        tuning: Tuning::CacheOnly,
        ..sharded_cfg()
    });
    let report = cold.warm(&cache_only);
    assert!(report.failed.is_empty(), "{:?}", report.failed);
    assert!(report.fallbacks > 0, "a cold cache must fall back");
    let stats = cold.stats();
    assert!(
        stats
            .warnings
            .iter()
            .any(|w| w.contains("corrupt") || w.contains("empty cache")),
        "corrupt cache must surface as an operator warning: {:?}",
        stats.warnings
    );
    assert!(stats.warnings.iter().any(|w| w.contains("cold start")));
    assert_eq!(stats.tuner_probes, 0, "CacheOnly must never probe");

    // phase 2: measured warm-up probes and persists
    let probing = StencilService::start(ServeConfig {
        tuning: Tuning::Measured,
        ..sharded_cfg()
    });
    let report = probing.warm(&manifest);
    assert!(report.failed.is_empty(), "{:?}", report.failed);
    assert_eq!(
        report.fallbacks, 0,
        "Measured mode probes, never falls back"
    );
    let probes_after_warm = probing.stats().tuner_probes;
    assert!(probes_after_warm > 0, "measured warm-up must probe");
    probing.shutdown();

    // ...and the still-running cold service upgrades its fallback keys
    // from the re-warmed cache without a restart
    let g0 = Grid2D::from_fn(96, 96, |y, x| ((y + x) % 5) as f64);
    let mut spec = JobSpec::new(kernels::heat2d(), JobDomain::D2(g0), 2);
    spec.tuning = Some(Tuning::CacheOnly);
    cold.submit(spec).unwrap().wait().unwrap();
    let stats = cold.shutdown();
    assert!(
        stats.cold_recoveries > 0,
        "re-warming the tune cache must upgrade cold keys at runtime: {stats:?}"
    );
    assert_eq!(
        stats.tuner_probes, probes_after_warm,
        "the recovery is a cache lookup, not a probe"
    );

    // phase 3: a fresh service warm-starts CacheOnly — every manifest
    // plan resolves from the persisted cache without one probe sweep
    manifest.default_tuning = Tuning::CacheOnly;
    for e in &mut manifest.entries {
        e.tuning = Some(Tuning::CacheOnly);
    }
    let warm = StencilService::start(ServeConfig {
        tuning: Tuning::CacheOnly,
        ..sharded_cfg()
    });
    let report = warm.warm(&manifest);
    assert!(report.failed.is_empty(), "{:?}", report.failed);
    assert_eq!(
        report.fallbacks, 0,
        "a warmed cache must resolve CacheOnly without fallbacks"
    );
    // serve real traffic against the warmed plans
    let g = Grid2D::from_fn(96, 96, |y, x| ((y + 2 * x) % 9) as f64);
    for _ in 0..3 {
        let spec = JobSpec::new(kernels::heat2d(), JobDomain::D2(g.clone()), 4);
        let mut spec = spec;
        spec.tuning = Some(Tuning::CacheOnly);
        warm.submit(spec).unwrap().wait().unwrap();
    }
    let stats = warm.shutdown();
    assert_eq!(stats.jobs_completed, 3);
    assert_eq!(stats.cold_fallbacks, 0);
    assert_eq!(
        stats.tuner_probes, probes_after_warm,
        "warm-start (CacheOnly) must serve with zero probe runs"
    );

    live_probe_lane_challenges_a_hot_key(tuner);
    let _ = std::fs::remove_file(&cache);
}

/// Phase 4 of the warm-start story (it runs there because the phases
/// before it pin the process-global tuner's probe counter exactly): a
/// service with `adapt` enabled and no background thread serves a key
/// hot, one manual `retune_tick()` puts it on trial through the real
/// `ProbeLane` — every other adapt test substitutes a `ScriptedLane` —
/// and whatever the measured verdict, every result is bit-identical to
/// a direct run of the plan generation that served it.
fn live_probe_lane_challenges_a_hot_key(tuner: &stencil_lab::AutoTuner) {
    const HOT: u64 = 6;
    let svc = StencilService::start(ServeConfig {
        adapt: AdaptConfig {
            enabled: true,
            min_samples: HOT,
            lane_budget_ms: 20,
            interval: Duration::ZERO,
            ..AdaptConfig::default()
        },
        ..unsharded_cfg()
    });
    let g = Grid2D::from_fn(64, 64, |y, x| ((y * 13 + x * 5) % 17) as f64);
    let spec = || JobSpec::new(kernels::box2d9p(), JobDomain::D2(g.clone()), 2);
    let serve_one = || {
        let r = svc.submit(spec()).unwrap().wait().unwrap();
        match r.output {
            JobDomain::D2(out) => (r.epoch, bits(&out.to_dense())),
            _ => panic!("wrong dimensionality"),
        }
    };
    let (incumbent, _) = svc.plan_for(&spec()).unwrap();
    let before = bits(&incumbent.run_2d(&g, 2).unwrap().to_dense());
    for _ in 0..HOT {
        assert_eq!(serve_one(), (incumbent.epoch(), before.clone()));
    }

    let probes = tuner.probe_count();
    let swapped = svc.retune_tick();
    assert!(
        tuner.probe_count() > probes,
        "the production lane must run a live probe session"
    );
    let stats = svc.stats();
    assert_eq!(stats.challenges, 1, "one hot key, one challenge");
    assert_eq!(stats.swaps as usize, swapped);
    assert_eq!(stats.challenges_rejected as usize, 1 - swapped);

    // the measured challenger may or may not have won on this host:
    // either way post-tick traffic runs the registry's current
    // generation bit-exactly
    let (current, _) = svc.plan_for(&spec()).unwrap();
    assert_eq!(current.epoch(), incumbent.epoch() + swapped as u64);
    let after = bits(&current.run_2d(&g, 2).unwrap().to_dense());
    assert_eq!(serve_one(), (current.epoch(), after.clone()));
    if swapped == 0 {
        assert!(Arc::ptr_eq(&current, &incumbent));
        assert_eq!(before, after);
    }
    let stats = svc.shutdown();
    assert_eq!(stats.jobs_completed, HOT + 1);
    assert_eq!(stats.jobs_failed, 0);
}

#[test]
fn backpressure_is_typed_and_counted() {
    let svc = StencilService::start(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        shard: ShardPolicy {
            min_points: usize::MAX,
            ..ShardPolicy::default()
        },
        ..sharded_cfg()
    });
    let spec = || {
        JobSpec::new(
            kernels::box2d9p(),
            JobDomain::D2(Grid2D::from_fn(128, 128, |y, x| ((y + x) % 7) as f64)),
            100,
        )
    };
    let mut accepted = Vec::new();
    let mut rejected = 0;
    for _ in 0..16 {
        match svc.try_submit(spec()) {
            Ok(t) => accepted.push(t),
            Err(ServeError::Backpressure { capacity }) => {
                assert_eq!(capacity, 1);
                rejected += 1;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(rejected > 0, "a one-slot queue must reject under a burst");
    for t in accepted {
        t.wait().unwrap();
    }
    let stats = svc.shutdown();
    assert!(stats.jobs_rejected >= rejected as u64 - 1);
    assert_eq!(stats.jobs_failed, 0);
}

#[test]
fn manifest_file_drives_warm_start_and_stats_round_trip() {
    let path = std::env::temp_dir().join(format!(
        "stencil-serve-it-manifest-{}.json",
        std::process::id()
    ));
    let mut m = Manifest::new(Tuning::Static);
    m.push_kernel("box2d9p", Some(&[64, 64]))
        .push_kernel("star3d", Some(&[24, 24, 24]));
    m.save(&path).unwrap();
    let loaded = Manifest::load(&path).unwrap();
    assert_eq!(loaded, m);

    let svc = StencilService::start(sharded_cfg());
    let report = svc.warm(&loaded);
    assert!(report.failed.is_empty());
    assert!(report.loaded >= 2);
    let spec = JobSpec::new(
        kernels::box2d9p(),
        JobDomain::D2(Grid2D::from_fn(64, 64, |y, x| ((y * x) % 5) as f64)),
        3,
    );
    svc.submit(spec).unwrap().wait().unwrap();
    let stats = svc.shutdown();
    assert!(stats.plan_hits >= 1, "the job must hit the warmed plan");

    // the stats surface round-trips through the shared JSON
    // implementation (the same writer/parser as the tune cache and the
    // bench dumps)
    let text = stats.to_json().pretty();
    let back = StatsSnapshot::from_json(&stencil_lab::obs::json::parse(&text).unwrap()).unwrap();
    assert_eq!(back, stats);
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// Adaptive retuning (the `serve::adapt` family)
// ---------------------------------------------------------------------------

/// The log-bucketed histogram against a sorted-reference oracle: for
/// every quantile, the reported value must be the upper bound of the
/// bucket holding the exact rank-order statistic of the sample set.
#[test]
fn histogram_quantiles_match_a_sorted_reference_oracle() {
    let h = LatencyHistogram::default();
    // deterministic LCG: spans ~6 decades of microseconds
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut samples = Vec::new();
    for _ in 0..997 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let us = (x >> 33) % 900_000 + 1;
        samples.push(us);
        h.record(Duration::from_micros(us));
    }
    let mut sorted = samples;
    sorted.sort_unstable();
    for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        let v = sorted[rank - 1];
        // oracle: the bucket of value v is floor(log2 v); the histogram
        // reports that bucket's upper bound
        let floor_log2 = 63 - u64::from(v.leading_zeros());
        let expect = 1u64 << (floor_log2 + 1).min(63);
        assert_eq!(h.quantile_us(q), expect, "q={q} rank={rank} v={v}");
    }
}

fn flip_width(w: Width) -> Width {
    match w {
        Width::W4 => Width::W8,
        _ => Width::W4,
    }
}

/// A scripted verdict whose challenger differs from the statically
/// resolved incumbent (a tessellated fold on two threads): the vector
/// kernel, block-free, at the incumbent's width — always compilable for
/// the 2D kernels used here.
fn scripted_verdict(incumbent_width: Width, rate: f64, incumbent_rate: f64) -> ChallengeOutcome {
    ChallengeOutcome {
        best: Candidate {
            config: PlanConfig {
                method: Method::MultipleLoads,
                tiling: Tiling::None,
                width: incumbent_width,
                ring3: None,
            },
            score: f64::NAN,
        },
        rate,
        incumbent_rate: Some(incumbent_rate),
        probes: 3,
        spent_ms: 1.0,
        method_rates: vec![(Method::MultipleLoads, rate)],
    }
}

fn unsharded_cfg() -> ServeConfig {
    ServeConfig {
        threads: 2,
        workers: 1,
        queue_capacity: 8,
        batch_max: 1,
        tuning: Tuning::Static,
        shard: ShardPolicy {
            min_points: usize::MAX,
            ..ShardPolicy::default()
        },
        ..ServeConfig::default()
    }
}

/// Decider hysteresis against live service traffic: a margin-edge
/// challenger does not swap (and resets the hot window, so there is no
/// immediate re-trial), a clear winner swaps exactly once, and a
/// post-swap losing challenge never flaps the registry back.
#[test]
fn decider_hysteresis_prevents_swap_flapping_at_the_margin_boundary() {
    const HOT: u64 = 6;
    let svc = StencilService::start(unsharded_cfg());
    let g = Grid2D::from_fn(56, 48, |y, x| ((y * 7 + x * 3) % 11) as f64);
    let spec = || JobSpec::new(kernels::heat2d(), JobDomain::D2(g.clone()), 2);
    let serve_hot = |n: u64| {
        for _ in 0..n {
            svc.submit(spec()).unwrap().wait().unwrap();
        }
    };
    serve_hot(HOT);
    let (incumbent, _) = svc.plan_for(&spec()).unwrap();
    assert_ne!(incumbent.method(), Method::MultipleLoads);
    let w = incumbent.width();
    // script: margin-edge loser (1.10 == 1.0 * (1 + margin), strict
    // comparison -> not a win), then a clear winner, then a loser
    let lane = ScriptedLane::new(vec![
        scripted_verdict(w, 1.10, 1.0),
        scripted_verdict(w, 2.0, 1.0),
        scripted_verdict(w, 0.5, 1.0),
    ]);
    let decider = Decider::new(
        AdaptConfig {
            enabled: true,
            margin: 0.10,
            min_samples: HOT,
            interval: Duration::ZERO,
            ..AdaptConfig::default()
        },
        svc.registry_handle(),
        svc.stats_handle(),
        Box::new(lane),
    );
    // margin edge: challenged, not swapped...
    assert_eq!(decider.tick(), 0);
    // ...and the losing challenge reset the window — an immediate
    // second tick finds no hot key (the anti-flapping hysteresis)
    assert_eq!(decider.tick(), 0);
    let stats = svc.stats();
    assert_eq!((stats.challenges, stats.swaps), (1, 0));

    // a clear winner after a fresh hot window swaps exactly once
    serve_hot(HOT);
    assert_eq!(decider.tick(), 1);
    let key = svc.stats().plans.keys().next().unwrap().clone();
    let swapped = svc.registry_handle().plan_for_key(&key).unwrap();
    assert_eq!(swapped.epoch(), incumbent.epoch() + 1);
    assert_eq!(swapped.method(), Method::MultipleLoads);

    // a post-swap loser leaves the new incumbent untouched
    serve_hot(HOT);
    assert_eq!(decider.tick(), 0);
    assert!(Arc::ptr_eq(
        &svc.registry_handle().plan_for_key(&key).unwrap(),
        &swapped
    ));
    let stats = svc.shutdown();
    assert_eq!(stats.challenges, 3);
    assert_eq!(stats.swaps, 1);
    assert_eq!(stats.challenges_rejected, 2);
}

/// A hot-swap must never change the bits of jobs already resolved:
/// plan resolution happens at submit, so queued/in-flight jobs hold
/// their `Arc<Plan>` across the swap, finish on the old generation
/// (observable through `JobResult::epoch`) and produce exactly the old
/// plan's bits; jobs submitted after the swap run the new generation.
#[test]
fn hot_swap_mid_stream_never_changes_in_flight_result_bits() {
    use stencil_lab::Solver;
    let svc = StencilService::start(unsharded_cfg());
    let g = Grid2D::from_fn(72, 64, |y, x| ((y * 31 + x * 7) % 23) as f64 * 0.25);
    let steps = 3;
    let spec = || JobSpec::new(kernels::heat2d(), JobDomain::D2(g.clone()), steps);
    let (old_plan, _) = svc.plan_for(&spec()).unwrap();
    assert_eq!(old_plan.epoch(), 0);

    // two jobs resolved against the incumbent; the swap lands while
    // they are queued or in flight
    let a = svc.submit(spec()).unwrap();
    let b = svc.submit(spec()).unwrap();

    let registry = svc.registry_handle();
    let (key, same) = registry
        .entry_for(
            &kernels::heat2d(),
            Some(&[72, 64]),
            Tuning::Static,
            PlanShape::Pooled,
        )
        .unwrap();
    assert!(Arc::ptr_eq(&same, &old_plan), "key derivation drifted");
    let new_plan = Arc::new(
        Solver::new(kernels::heat2d())
            .method(Method::MultipleLoads)
            .tiling(Tiling::None)
            .width(flip_width(old_plan.width()))
            .tuning(Tuning::Static)
            .pool(registry.pool().clone())
            .domain_hint(&[72, 64])
            .epoch(old_plan.epoch() + 1)
            .compile()
            .unwrap(),
    );
    registry.swap_plan(&key, Arc::clone(&new_plan));

    let want_old = old_plan.run_2d(&g, steps).unwrap().to_dense();
    for ticket in [a, b] {
        let r = ticket.wait().unwrap();
        assert_eq!(r.epoch, 0, "in-flight jobs finish on the old generation");
        let out = match r.output {
            JobDomain::D2(out) => out,
            _ => panic!("wrong dimensionality"),
        };
        assert_eq!(
            bits(&want_old),
            bits(&out.to_dense()),
            "a swap mid-stream must not change in-flight result bits"
        );
    }

    // a job submitted after the swap runs the new generation
    let r = svc.submit(spec()).unwrap().wait().unwrap();
    assert_eq!(r.epoch, 1);
    let out = match r.output {
        JobDomain::D2(out) => out,
        _ => panic!("wrong dimensionality"),
    };
    let want_new = new_plan.run_2d(&g, steps).unwrap().to_dense();
    assert_eq!(bits(&want_new), bits(&out.to_dense()));
    assert_eq!(svc.shutdown().swaps, 1);
}

/// The seeded end-to-end scenario the CI `retune-smoke` lane pins:
/// under a virtual clock and a scripted challenger, the decider
/// produces exactly one deterministic hot-swap, the swapped plan
/// serves bit-exactly, and the verdict lands in the per-host tune
/// cache under the unconstrained key a warm-start would resolve.
#[test]
fn seeded_virtual_clock_retune_swaps_once_and_persists_the_verdict() {
    use stencil_lab::AutoTuner;
    const HOT: u64 = 12;
    let cache =
        std::env::temp_dir().join(format!("stencil-retune-e2e-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&cache);

    let vclock = Arc::new(VirtualClock::new());
    let svc = StencilService::start(ServeConfig {
        clock: SharedClock::new(Arc::clone(&vclock) as Arc<_>),
        ..unsharded_cfg()
    });
    let g = Grid2D::from_fn(64, 64, |y, x| ((y * 13 + x * 5) % 17) as f64);
    let spec = || JobSpec::new(kernels::box2d9p(), JobDomain::D2(g.clone()), 2);
    let (old_plan, _) = svc.plan_for(&spec()).unwrap();

    // the clock only advances between completed jobs, so every latency
    // sample is exactly zero -> the telemetry is bit-reproducible
    for _ in 0..HOT {
        svc.submit(spec()).unwrap().wait().unwrap();
        vclock.advance(Duration::from_millis(1));
    }
    let stats = svc.stats();
    assert_eq!(stats.plans.len(), 1, "one kernel, one traffic key");
    let (key, telemetry) = stats.plans.iter().next().unwrap();
    assert_eq!(telemetry.samples, HOT);
    assert_eq!(telemetry.epoch, 0);
    assert_eq!(
        telemetry.p50_us, 2,
        "zero-latency samples pin the first bucket"
    );

    let verdict = scripted_verdict(old_plan.width(), 3.0, 1.0);
    let lane =
        ScriptedLane::new(vec![verdict.clone()]).with_tuner(AutoTuner::with_cache_path(&cache));
    let decider = Decider::new(
        AdaptConfig {
            enabled: true,
            margin: 0.10,
            min_samples: HOT,
            interval: Duration::ZERO,
            ..AdaptConfig::default()
        },
        svc.registry_handle(),
        svc.stats_handle(),
        Box::new(lane),
    );
    assert_eq!(decider.tick(), 1, "the scripted challenger must swap");
    // the swap consumed the hot window: an immediate re-tick is a no-op
    assert_eq!(decider.tick(), 0);

    let new_plan = svc.registry_handle().plan_for_key(key).unwrap();
    assert_eq!(new_plan.epoch(), 1);
    assert_eq!(new_plan.config(), verdict.best.config);
    let r = svc.submit(spec()).unwrap().wait().unwrap();
    assert_eq!(r.epoch, 1, "post-swap traffic runs the new generation");
    let out = match r.output {
        JobDomain::D2(out) => out,
        _ => panic!("wrong dimensionality"),
    };
    let want = new_plan.run_2d(&g, 2).unwrap().to_dense();
    assert_eq!(bits(&want), bits(&out.to_dense()));

    let stats = svc.stats();
    assert_eq!(stats.swaps, 1);
    assert_eq!(stats.challenges, 1);
    assert_eq!(stats.challenges_rejected, 0);
    assert_eq!(stats.plans[key].epoch, 1, "telemetry tracks the new epoch");
    // the swap counters ride the JSON stats surface (what `/metrics`
    // serves)
    let dump = stats.to_json().pretty();
    assert!(dump.contains("\"swaps\"") && dump.contains("\"challenges\""));

    // the verdict was persisted under the key's own (pooled, hence
    // unconstrained) request — the exact key a fresh warm-start resolves
    let fresh = AutoTuner::with_cache_path(&cache);
    let warm_start = svc.registry_handle().request(
        &kernels::box2d9p(),
        Some(&[64, 64]),
        Tuning::CacheOnly,
        PlanShape::Pooled,
    );
    let entry = fresh
        .lookup(&warm_start.tune_request())
        .expect("the winning verdict must persist to the tune cache");
    assert!(entry.key.ends_with("|m=*|ti=*|ri=*"), "{}", entry.key);
    assert_eq!(entry.config, verdict.best.config);
    svc.shutdown();
    let _ = std::fs::remove_file(&cache);
}
