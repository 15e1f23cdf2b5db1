//! Seeded chaos suite for the fault-tolerance layer: every failpoint in
//! the `stencil-faults` vocabulary is armed against the subsystem that
//! carries it, and the system must either absorb the fault (retry,
//! fall back, recover, resume — with **bit-exact** results) or fail
//! with a *typed* error. Never a hang, never a process exit, never a
//! silently wrong answer.
//!
//! Every trigger is seeded or scripted, so a failing run replays
//! exactly — the point of deterministic failpoints over `kill -9`
//! chaos.

#[macro_use]
#[path = "conformance/mod.rs"]
mod conformance;

use std::sync::Mutex;
use std::time::{Duration, Instant};

use stencil_lab::core::kernels;
use stencil_lab::faults::{self, Failpoint};
use stencil_lab::grid::{Grid2D, Grid3D};
use stencil_lab::ooc::{self, OocConfig, SlabStore};
use stencil_lab::serve::net::{JobEvent, NetClient, NetConfig, NetError, NetServer, SubmitHeader};
use stencil_lab::serve::{JobDomain, JobSpec, ServeConfig, ServeError, StencilService};
use stencil_lab::{Method, Solver, Width};

use conformance::{bits, budget_for, workload, Route};

/// Failpoint state is process-global; tests that arm it must not
/// interleave with each other.
static GLOBALS: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    GLOBALS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Panic-safe teardown: whatever a test armed is disarmed on exit.
struct Reset;
impl Drop for Reset {
    fn drop(&mut self) {
        faults::disarm_all();
        faults::set_enabled(false);
    }
}

fn bits3(g: &Grid3D) -> Vec<u64> {
    bits(&g.to_dense())
}

fn streamable_plan() -> stencil_lab::Plan {
    Solver::new(kernels::heat3d())
        .method(Method::Folded { m: 2 })
        .compile()
        .expect("streamable plan compiles")
}

#[test]
fn transient_store_io_faults_are_retried_to_a_bit_exact_result() {
    let _g = serial();
    let _r = Reset;
    let plan = streamable_plan();
    let grid = workload(48, 14, 16);
    let steps = 6;
    let want = bits3(&plan.run_3d(&grid, steps).unwrap());
    // synchronous mode: all store IO happens on the sweep thread, so
    // the seeded fault schedule is hit in one deterministic order
    let cfg = OocConfig {
        budget_bytes: budget_for(14, 16, 24, false),
        steps_per_pass: 0,
        prefetch: false,
    };
    // a transient store is unnamed and owes no sync (it never consults
    // `ooc_fsync`): that leg runs the resumable route's named store
    let mut path = std::env::temp_dir();
    path.push(format!("stencil-chaos-fsync-{}.slab", std::process::id()));
    let _ = std::fs::remove_file(&path);
    for (fp, seed) in [
        (Failpoint::OocRead, 0xC0FF_EE01),
        (Failpoint::OocWrite, 0xC0FF_EE02),
        (Failpoint::OocFsync, 0xC0FF_EE03),
    ] {
        faults::disarm_all();
        faults::arm_probability(fp, 0.25, seed);
        faults::set_enabled(true);
        let run = if fp == Failpoint::OocFsync {
            ooc::run_streaming_grid_resumable(&plan, &grid, steps, &cfg, &path)
        } else {
            ooc::run_streaming_grid(&plan, &grid, steps, &cfg)
        };
        let (got, report) = run.unwrap_or_else(|e| {
            panic!("{}: streamed run must absorb p=0.25 faults: {e}", fp.name())
        });
        assert_eq!(want, bits3(&got), "{}: result diverged", fp.name());
        assert!(
            faults::fired(fp) > 0,
            "{}: the armed failpoint must actually fire",
            fp.name()
        );
        assert!(
            report.stats.io_retries > 0,
            "{}: every injected fault crosses the retry path",
            fp.name()
        );
    }
}

#[test]
fn an_unnamed_store_owes_no_sync() {
    let _g = serial();
    let _r = Reset;
    let plan = streamable_plan();
    let grid = workload(48, 14, 16);
    let steps = 6;
    let want = bits3(&plan.run_3d(&grid, steps).unwrap());
    // every sync would fail, hard: a transient run never asks for one
    faults::arm_probability(Failpoint::OocFsync, 1.0, 17);
    faults::set_enabled(true);
    for prefetch in [true, false] {
        let cfg = OocConfig {
            budget_bytes: budget_for(14, 16, 24, prefetch),
            steps_per_pass: 2,
            prefetch,
        };
        let (got, report) = ooc::run_streaming_grid(&plan, &grid, steps, &cfg)
            .expect("nothing a transient store does can hit ooc_fsync");
        assert_eq!(want, bits3(&got), "prefetch={prefetch}");
        assert_eq!(report.passes, 3);
        assert_eq!(faults::hits(Failpoint::OocFsync), 0, "prefetch={prefetch}");
    }
}

#[test]
fn a_named_store_syncs_exactly_as_before() {
    let _g = serial();
    let _r = Reset;
    let plan = streamable_plan();
    let grid = workload(48, 12, 14);
    let cfg = OocConfig {
        budget_bytes: budget_for(12, 14, 24, false),
        steps_per_pass: 2,
        prefetch: false,
    };
    let mut path = std::env::temp_dir();
    path.push(format!("stencil-chaos-syncs-{}.slab", std::process::id()));
    // a site counts hits only while armed: this arms it without ever firing
    faults::arm_nth(Failpoint::OocFsync, u64::MAX);
    faults::set_enabled(true);
    let syncs = || faults::hits(Failpoint::OocFsync);

    let store = SlabStore::create(&path, &grid, plan.pattern().radius()).unwrap();
    assert_eq!(syncs(), 1, "create: the round-0 payload");
    let report = ooc::run_streaming(&plan, &store, 6, &cfg).unwrap();
    assert_eq!(report.passes, 3);
    assert_eq!(syncs(), 7, "begin_pass + commit_pass, three times");
    drop(store);
    let store = SlabStore::recover(&path).unwrap();
    assert_eq!(syncs(), 8, "recover: the cleared dirty flag");
    drop(store);
    let (store, report) = ooc::resume_streaming(&plan, &path, 8, &cfg).unwrap();
    assert_eq!((store.round(), report.passes), (8, 1));
    assert_eq!(syncs(), 11, "recover, then one more pass");
    assert_eq!(faults::fired(Failpoint::OocFsync), 0);
    drop(store);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn prefetch_faults_degrade_to_synchronous_reads_bit_exactly() {
    let _g = serial();
    let _r = Reset;
    let plan = streamable_plan();
    let grid = workload(56, 14, 16);
    let steps = 7;
    let want = bits3(&plan.run_3d(&grid, steps).unwrap());
    let cfg = OocConfig {
        budget_bytes: budget_for(14, 16, 24, true),
        steps_per_pass: 0,
        prefetch: true,
    };
    // every background load fails: the sweep thread must fall back to
    // synchronous re-reads for the whole run and still match bits
    faults::arm_probability(Failpoint::OocPrefetch, 1.0, 7);
    faults::set_enabled(true);
    let (got, _) = ooc::run_streaming_grid(&plan, &grid, steps, &cfg)
        .expect("prefetch faults must degrade, not fail the job");
    assert_eq!(want, bits3(&got), "sync fallback diverged");
    assert!(faults::fired(Failpoint::OocPrefetch) > 0);
}

#[test]
fn a_hard_io_failure_leaves_a_resumable_store_and_the_resume_is_bit_exact() {
    let _g = serial();
    let _r = Reset;
    let plan = streamable_plan();
    let grid = workload(48, 12, 14);
    let total = 6;
    let want = bits3(&plan.run_3d(&grid, total).unwrap());
    // fixed pass depth, so the interrupted and resumed schedules are
    // prefixes/suffixes of the same pass sequence
    let cfg = OocConfig {
        budget_bytes: budget_for(12, 14, 24, false),
        steps_per_pass: 2,
        prefetch: false,
    };
    let mut path = std::env::temp_dir();
    path.push(format!("stencil-chaos-resume-{}.slab", std::process::id()));
    let _ = std::fs::remove_file(&path);

    // first attempt: one pass commits cleanly, then every fsync fails
    // hard (probability 1.0 outlives the retry budget) — the attempt
    // dies mid-job with a typed transient error, file left in place
    let store = SlabStore::create(&path, &grid, plan.pattern().radius()).unwrap();
    ooc::run_streaming(&plan, &store, 2, &cfg).expect("clean first pass");
    assert_eq!(store.round(), 2);
    faults::arm_probability(Failpoint::OocFsync, 1.0, 11);
    faults::set_enabled(true);
    let err = ooc::run_streaming(&plan, &store, total - 2, &cfg)
        .expect_err("a fault outliving the retry budget must fail the attempt");
    assert!(
        err.is_transient(),
        "exhausted retries surface the transient error, typed: {err}"
    );
    drop(store);
    faults::disarm_all();
    faults::set_enabled(false);
    assert!(
        path.exists(),
        "the interrupted store must survive for resume"
    );

    // resubmission: the serve layer's route recovers the leftover store
    // (rolling the dirty mid-pass state back to committed round 2),
    // streams only the remaining steps, and matches the uninterrupted
    // run bit for bit
    let (got, _) = ooc::run_streaming_grid_resumable(&plan, &grid, total, &cfg, &path)
        .expect("resume after recovery");
    assert_eq!(want, bits3(&got), "resumed run diverged from uninterrupted");
    assert!(!path.exists(), "a successful resume removes the store");
}

/// The conformance product's fault route: a 3D cell of every method ×
/// tiling streams a pass, dies on a hard store fault with its store left
/// behind, and the resumed run gives `plan.run`'s bits.
#[test]
fn every_sampled_3d_cell_resumes_after_a_hard_store_fault_bit_exactly() {
    let _g = serial();
    let _r = Reset;
    check!(dims: [3], kernels: ["heat3d", "star3d_r2"], widths: [Width::W4], rings: [None],
        routes: [Route::Fault]);
}

#[test]
fn queue_aged_jobs_are_shed_with_a_typed_deadline_error() {
    let _g = serial();
    let _r = Reset;
    // every dequeue stalls a bounded 20 ms before taking the lock, so
    // the doomed job deterministically outlives its 1 ms deadline in
    // the queue no matter how fast the blocker executes
    faults::arm_probability(Failpoint::QueueStall, 1.0, 3);
    faults::set_enabled(true);
    let service = StencilService::start(ServeConfig {
        threads: 1,
        workers: 1,
        queue_capacity: 8,
        ..ServeConfig::default()
    });
    let blocker_grid = Grid2D::from_fn(96, 96, |y, x| ((y + x) % 9) as f64);
    // a different size class resolves to a different registry key, so
    // the doomed job can never ride the blocker's batch
    let doomed_grid = Grid2D::from_fn(160, 160, |y, x| ((y * 3 + x) % 7) as f64);
    let blocker = service
        .submit(JobSpec::new(
            kernels::heat2d(),
            JobDomain::D2(blocker_grid),
            120,
        ))
        .unwrap();
    let doomed = service
        .submit(JobSpec::new(kernels::heat2d(), JobDomain::D2(doomed_grid), 2).with_deadline_ms(1))
        .unwrap();
    match doomed.wait() {
        Err(ServeError::DeadlineExceeded {
            deadline_ms,
            waited_ms,
        }) => {
            assert_eq!(deadline_ms, 1);
            assert!(waited_ms >= 1, "shed records the actual wait: {waited_ms}");
        }
        other => panic!("expected a typed deadline shed, got {other:?}"),
    }
    blocker.wait().expect("the blocker itself completes");
    assert!(faults::fired(Failpoint::QueueStall) > 0);
    let stats = service.shutdown();
    assert_eq!(stats.jobs_shed, 1);
    assert_eq!(stats.jobs_completed, 1);
}

#[test]
fn repeated_worker_panics_quarantine_the_plan_key_with_a_typed_rejection() {
    let _g = serial();
    let _r = Reset;
    faults::arm_probability(Failpoint::WorkerPanic, 1.0, 5);
    faults::set_enabled(true);
    let service = StencilService::start(ServeConfig {
        threads: 1,
        workers: 1,
        queue_capacity: 8,
        ..ServeConfig::default()
    });
    let spec = || {
        JobSpec::new(
            kernels::heat2d(),
            JobDomain::D2(Grid2D::from_fn(32, 32, |y, x| (y * x % 5) as f64)),
            2,
        )
    };
    // consecutive panics on one key: each waiter gets the typed
    // WorkerLost (the executor survives every one of them) until the
    // quarantine gate engages and refuses the key, typed. The waiter is
    // resolved during the panic's unwind, *before* the worker records
    // the panic, so the gate may lag a submission or two behind the
    // threshold — loop until it closes rather than counting to three.
    let mut lost = 0u32;
    let quarantine_panics = loop {
        match service.submit(spec()) {
            Err(ServeError::Quarantined { panics, .. }) => break panics,
            Ok(ticket) => match ticket.wait() {
                Err(ServeError::WorkerLost) => {
                    lost += 1;
                    assert!(lost <= 50, "quarantine never engaged");
                }
                other => panic!("expected WorkerLost, got {other:?}"),
            },
            Err(e) => panic!("unexpected submit failure: {e}"),
        }
    };
    assert!(quarantine_panics >= 3, "gate closes at the threshold");
    assert!(lost >= 3, "at least the threshold count of panics ran");
    // quarantine outlives the fault itself: disarming does not lift it
    faults::disarm_all();
    faults::set_enabled(false);
    assert!(matches!(
        service.submit(spec()),
        Err(ServeError::Quarantined { .. })
    ));
    // an unrelated key (a different size class) is unaffected
    service
        .submit(JobSpec::new(
            kernels::heat2d(),
            JobDomain::D2(Grid2D::from_fn(160, 160, |y, x| (y + x) as f64)),
            2,
        ))
        .unwrap()
        .wait()
        .expect("other keys keep serving");
    let stats = service.shutdown();
    assert_eq!(stats.jobs_failed, u64::from(lost));
    assert_eq!(stats.jobs_quarantined, 2);
    assert_eq!(stats.jobs_completed, 1);
}

#[test]
fn one_byte_socket_reads_fragment_every_frame_but_jobs_stay_bit_exact() {
    let _g = serial();
    let _r = Reset;
    // the server reads at most one byte per syscall: every frame
    // arrives maximally fragmented and reassembly runs on each boundary
    faults::arm_probability(Failpoint::NetShortRead, 1.0, 13);
    faults::set_enabled(true);
    let service = StencilService::start(ServeConfig {
        threads: 2,
        workers: 2,
        queue_capacity: 8,
        ..ServeConfig::default()
    });
    let server = NetServer::start(service, NetConfig::default()).expect("bind");
    let grid = Grid2D::from_fn(32, 32, |y, x| ((y * 13 + x * 7) % 29) as f64);
    let mut client = NetClient::connect(server.addr(), "chaos").unwrap();
    let out = client
        .run(
            SubmitHeader {
                id: 0,
                name: "heat2d".into(),
                pattern: kernels::heat2d(),
                extents: vec![32, 32],
                steps: 4,
                rounds: 1,
                tuning: None,
                deadline_ms: None,
            },
            &grid.to_dense(),
        )
        .expect("fragmented frames must still serve");
    let spec = JobSpec::new(kernels::heat2d(), JobDomain::D2(grid.clone()), 4);
    let (plan, _) = server.service().plan_for(&spec).unwrap();
    let want: Vec<u64> = plan
        .run_2d(&grid, 4)
        .unwrap()
        .to_dense()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let got: Vec<u64> = out.data.iter().map(|v| v.to_bits()).collect();
    assert_eq!(want, got, "fragmentation corrupted a frame");
    assert!(faults::fired(Failpoint::NetShortRead) > 0);
    client.bye().unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.jobs_completed, 1);
    assert_eq!(stats.jobs_failed, 0);
}

#[test]
fn a_dropped_connection_fails_typed_and_the_server_keeps_serving() {
    let _g = serial();
    let _r = Reset;
    let service = StencilService::start(ServeConfig {
        threads: 1,
        workers: 1,
        queue_capacity: 8,
        ..ServeConfig::default()
    });
    let server = NetServer::start(service, NetConfig::default()).expect("bind");
    let mut victim = NetClient::connect(server.addr(), "victim").unwrap();
    // script the cable pull: the next per-session server tick severs
    // the (only) established connection
    faults::arm_nth(Failpoint::NetDrop, 1);
    faults::set_enabled(true);
    // bound the wait so even a wedged server would fail typed, not hang
    victim
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let err = victim
        .health()
        .expect_err("a severed connection must surface an error");
    assert!(
        matches!(err, NetError::Protocol(_) | NetError::Io(_)),
        "expected a typed disconnect, got {err:?}"
    );
    assert_eq!(faults::fired(Failpoint::NetDrop), 1);
    faults::disarm_all();
    faults::set_enabled(false);
    // the server survived the drop: a fresh client serves a job
    let grid = Grid2D::from_fn(24, 24, |y, x| ((y + 2 * x) % 5) as f64);
    let mut fresh = NetClient::connect(server.addr(), "fresh").unwrap();
    let out = fresh
        .run(
            SubmitHeader {
                id: 0,
                name: "heat2d".into(),
                pattern: kernels::heat2d(),
                extents: vec![24, 24],
                steps: 2,
                rounds: 1,
                tuning: None,
                deadline_ms: None,
            },
            &grid.to_dense(),
        )
        .expect("the server keeps serving after a drop");
    assert_eq!(out.data.len(), 24 * 24);
    fresh.bye().unwrap();
    server.shutdown();
}

#[test]
fn deadline_shed_surfaces_as_a_typed_frame_over_the_wire() {
    let _g = serial();
    let _r = Reset;
    let service = StencilService::start(ServeConfig {
        threads: 1,
        workers: 1,
        queue_capacity: 8,
        ..ServeConfig::default()
    });
    let server = NetServer::start(service, NetConfig::default()).expect("bind");
    let mut client = NetClient::connect(server.addr(), "t").unwrap();
    // a long blocker on one key occupies the single worker while the
    // doomed job (a different size class, hence a different registry
    // key — never batched with the blocker) ages out in the queue
    let blocker = Grid2D::from_fn(96, 96, |y, x| ((y ^ x) % 7) as f64);
    let doomed = Grid2D::from_fn(160, 160, |y, x| ((y + x) % 3) as f64);
    let blocker_id = client
        .submit(
            SubmitHeader {
                id: 0,
                name: "blocker".into(),
                pattern: kernels::heat2d(),
                extents: vec![96, 96],
                steps: 400,
                rounds: 1,
                tuning: None,
                deadline_ms: None,
            },
            &blocker.to_dense(),
        )
        .unwrap();
    let doomed_id = client
        .submit(
            SubmitHeader {
                id: 0,
                name: "doomed".into(),
                pattern: kernels::heat2d(),
                extents: vec![160, 160],
                steps: 2,
                rounds: 1,
                tuning: None,
                deadline_ms: Some(1),
            },
            &doomed.to_dense(),
        )
        .unwrap();
    let err = loop {
        match client.next_event(doomed_id) {
            Ok(JobEvent::Progress { .. }) => {}
            Ok(JobEvent::Done(_)) => panic!("the doomed job must be shed, not served"),
            Err(e) => break e,
        }
    };
    match err {
        NetError::Deadline {
            deadline_ms,
            waited_ms,
        } => {
            assert_eq!(deadline_ms, 1);
            assert!(waited_ms >= 1);
        }
        other => panic!("expected the typed deadline frame, got {other:?}"),
    }
    // the blocker is unaffected by its neighbor's shed
    loop {
        match client.next_event(blocker_id).unwrap() {
            JobEvent::Progress { .. } => {}
            JobEvent::Done(out) => {
                assert_eq!(out.data.len(), 96 * 96);
                break;
            }
        }
    }
    client.bye().unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.jobs_shed, 1);
    assert_eq!(stats.jobs_completed, 1);
    assert_eq!(stats.jobs_failed, 0, "a shed is not a failure");
}

#[test]
fn enabled_but_idle_failpoints_stay_within_noise_of_disabled() {
    let _g = serial();
    let _r = Reset;
    let plan = streamable_plan();
    let grid = workload(40, 12, 14);
    let cfg = OocConfig {
        budget_bytes: budget_for(12, 14, 28, false),
        steps_per_pass: 0,
        prefetch: false,
    };
    // best-of floors compare each configuration against its own noise
    // floor, the stable way to bound a wall-clock ratio in CI
    let best_of = |reps: usize| -> Duration {
        (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                let (out, _) = ooc::run_streaming_grid(&plan, &grid, 4, &cfg).unwrap();
                assert_eq!(out.nz(), 40);
                t0.elapsed()
            })
            .min()
            .unwrap()
    };
    faults::disarm_all();
    faults::set_enabled(false);
    let disabled = best_of(5);
    // gate open, nothing armed: every site pays the slow-path mode
    // check on each hit — the worst "idle" configuration
    faults::set_enabled(true);
    let enabled = best_of(5);
    let bound = disabled.mul_f64(1.5) + Duration::from_millis(2);
    assert!(
        enabled <= bound,
        "enabled-but-idle failpoints too slow: disabled {disabled:?}, enabled {enabled:?} (bound {bound:?})"
    );
}
