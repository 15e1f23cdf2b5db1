//! Seeded schedule fuzz of the fork-join pool and its poison-free
//! `sync` wrappers.
//!
//! Caller threads share pools of 1–4 workers (private and process-wide
//! shared handles) and run job bodies perturbed by seeded yields and
//! 0–200 µs sleeps; some bodies panic on worker 0 (the caller) or on
//! another worker, some while holding a `sync::Mutex`, and callers purge
//! the shared pools between runs. Every `run` must keep the barrier
//! contract:
//!
//! * each worker index runs the body exactly once;
//! * no body is still executing when `run` returns;
//! * a body's panic re-raises on the caller, and the pool (and a mutex
//!   the panic unwound through) stays usable;
//! * every scenario finishes within the watchdog bound.
//!
//! Nothing is hooked into the pool: the perturbations live in the bodies,
//! so the schedules they force are ones production code can meet. A
//! failing scenario names its seed; rerun it with `SEEDS` narrowed to it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::mpsc;
use std::time::Duration;

use stencil_faults::SplitMix64;
use stencil_runtime::sync::Mutex;
use stencil_runtime::{purge_shared, PoolHandle};

const SEEDS: std::ops::Range<u64> = 0..128;
const RUNS_PER_CALLER: usize = 10;
const WATCHDOG: Duration = Duration::from_secs(60);
const SCHEDULED: &str = "scheduled panic";

/// A seeded nudge to the schedule: a yield, a 0–200 µs sleep, or nothing.
fn perturb(rng: &mut SplitMix64) {
    match rng.next_u64() % 3 {
        0 => std::thread::yield_now(),
        1 => std::thread::sleep(Duration::from_micros(rng.next_u64() % 201)),
        _ => {}
    }
}

/// Counts a body as executing from its first statement until it has
/// returned or finished unwinding.
struct InFlight<'a>(&'a AtomicUsize);

impl<'a> InFlight<'a> {
    fn enter(n: &'a AtomicUsize) -> Self {
        n.fetch_add(1, SeqCst);
        Self(n)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, SeqCst);
    }
}

/// One caller's runs on `pool`, each checked against the barrier
/// contract.
fn caller(pool: PoolHandle, seed: u64, log: &Mutex<Vec<usize>>) {
    let mut rng = SplitMix64::new(seed);
    let n = pool.threads();
    for run in 0..RUNS_PER_CALLER {
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let in_flight = AtomicUsize::new(0);
        let panic_on = match rng.next_u64() % 4 {
            0 => Some(0),
            1 if n > 1 => Some(1 + (rng.next_u64() as usize) % (n - 1)),
            _ => None,
        };
        let body_seed = rng.next_u64();
        let body = |w: usize| {
            let _in = InFlight::enter(&in_flight);
            hits[w].fetch_add(1, SeqCst);
            let mut rng = SplitMix64::new(body_seed ^ (w as u64).wrapping_mul(0x9E37));
            perturb(&mut rng);
            let mut held = log.lock();
            held.push(w);
            if panic_on == Some(w) {
                panic!("{SCHEDULED} on worker {w}");
            }
            drop(held);
            perturb(&mut rng);
        };
        let ctx = format!("seed {seed} run {run}: {n} workers, panic on {panic_on:?}");
        let outcome = catch_unwind(AssertUnwindSafe(|| pool.run(&body)));
        assert_eq!(in_flight.load(SeqCst), 0, "{ctx}: a body outlived run");
        for (w, h) in hits.iter().enumerate() {
            assert_eq!(h.load(SeqCst), 1, "{ctx}: worker {w}");
        }
        assert_eq!(
            outcome.is_err(),
            panic_on.is_some(),
            "{ctx}: panic re-raise"
        );
        log.lock().clear();
        if rng.next_u64().is_multiple_of(8) {
            purge_shared();
        }
    }
    // the pool a panic went through still runs a clean job
    let clean = AtomicUsize::new(0);
    pool.run(&|_| {
        clean.fetch_add(1, SeqCst);
    });
    assert_eq!(
        clean.load(SeqCst),
        n,
        "seed {seed}: pool unusable after the runs"
    );
}

/// Two to four callers over two pools, shared or private, of 1–4
/// workers.
fn scenario(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let pools: Vec<PoolHandle> = (0..2)
        .map(|_| {
            let threads = 1 + (rng.next_u64() % 4) as usize;
            if rng.next_u64().is_multiple_of(2) {
                PoolHandle::shared(threads)
            } else {
                PoolHandle::new(threads)
            }
        })
        .collect();
    let callers = 2 + (rng.next_u64() % 3) as usize;
    let log = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for c in 0..callers {
            let (pool, seed, log) = (pools[c % 2].clone(), rng.next_u64(), &log);
            s.spawn(move || caller(pool, seed, log));
        }
    });
    drop(pools);
    purge_shared();
}

#[test]
fn seeded_schedules_keep_the_pool_barrier_contract() {
    // the scheduled panics are expected: keep them off stderr, and let
    // every other panic report as usual
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let scheduled = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with(SCHEDULED));
        if !scheduled {
            report(info);
        }
    }));
    for seed in SEEDS {
        let (done, finished) = mpsc::channel();
        let runner = std::thread::spawn(move || {
            let _ = done.send(catch_unwind(|| scenario(seed)).is_ok());
        });
        match finished.recv_timeout(WATCHDOG) {
            Ok(true) => runner.join().expect("the scenario's panics are caught"),
            Ok(false) => panic!("schedule-fuzz seed {seed} failed (see the panic above)"),
            // a hung scenario's thread cannot be joined; the test fails
            Err(_) => panic!("schedule-fuzz seed {seed} hung past {WATCHDOG:?}"),
        }
    }
}
