//! # stencil-obs
//!
//! The workspace's tracing and measurement substrate: always compiled,
//! near-zero overhead while idle, dependency-free (it sits *below*
//! `stencil-runtime`, so it can only use `std`).
//!
//! ## Architecture
//!
//! * [`ring`] — lock-free per-thread span ring buffers. Each recording
//!   thread owns a fixed-size [`SpanRing`] (single writer, seqlock
//!   slots, overwrite-oldest); a global registry lets any thread
//!   [`snapshot`] every ring without stopping the writers. Recording a
//!   span is two clock reads and a handful of relaxed atomic stores —
//!   no allocation, no locks, no syscalls. While tracing is disabled
//!   ([`set_enabled`]), recording is a single relaxed load and a
//!   branch.
//! * [`clock`] — the injectable monotonic time source the whole
//!   workspace shares ([`Clock`] / [`WallClock`] / [`VirtualClock`] /
//!   [`SharedClock`]; `stencil-serve` re-exports these for its config).
//!   Tests [`install_clock`] a [`VirtualClock`] to make every span
//!   timestamp deterministic.
//! * [`SpanId`] — a small static vocabulary of instrumented stages:
//!   plan compilation, tune probes, queue wait, batch drain, shard
//!   fan-out/join, the 3D ring-pipeline sweep, runtime pool jobs, OOC
//!   window load/compute/writeback/prefetch, and net frame
//!   encode/decode.
//! * [`chrome`] — [`TraceSink`]: renders a snapshot as Chrome
//!   trace-event JSON (hand-rolled, like every other artifact the
//!   project emits) loadable in Perfetto or `chrome://tracing`.
//! * [`json`] — the workspace's one JSON [`Value`](json::Value),
//!   writer and parser. Here because this crate sits below every crate
//!   that reads or writes a document (tune cache, serve manifest, wire
//!   headers, `/metrics`, `/healthz`, benchmark dumps).
//! * [`timeline`] — the per-job [`Timeline`]: where one job's wall
//!   time went (queue wait, compute, blocking IO, IO hidden under
//!   compute). Assembled by the serve executor at job completion and
//!   exported on `JobResult` and the `/metrics` surface.
//!
//! ## Usage
//!
//! ```
//! use stencil_obs as obs;
//!
//! obs::set_enabled(true);
//! {
//!     let _span = obs::span(obs::SpanId::PlanCompile);
//!     // ... work ...
//! } // recorded on drop
//! let events = obs::snapshot();
//! assert!(events.iter().any(|e| e.id == obs::SpanId::PlanCompile));
//! let json = obs::TraceSink::chrome_json(None);
//! assert!(json.contains("\"traceEvents\""));
//! obs::set_enabled(false);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod chrome;
pub mod clock;
pub mod json;
pub mod ring;
pub mod timeline;

pub use chrome::TraceSink;
pub use clock::{Clock, SharedClock, VirtualClock, WallClock};
pub use ring::{snapshot, SpanEvent, SpanRing, RING_CAP};
pub use timeline::Timeline;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

/// Process-wide tracing switch. All recording entry points check it
/// first with one relaxed load, so disabled tracing costs a branch.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Spans that finished at or before this obs-clock microsecond are
/// hidden from snapshots — the race-free way to "clear" rings whose
/// writers may still be live (see [`clear`]).
static FLOOR: AtomicU64 = AtomicU64::new(0);

/// Turn span recording on or off (off at startup). Flipping the switch
/// does not touch the rings: spans recorded earlier stay visible to
/// [`snapshot`] until overwritten or [`clear`]ed.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// True when span recording is on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn clock_cell() -> &'static RwLock<SharedClock> {
    static CLOCK: OnceLock<RwLock<SharedClock>> = OnceLock::new();
    CLOCK.get_or_init(|| RwLock::new(SharedClock::wall()))
}

/// Install the process-wide span clock (the wall clock by default).
/// Tests install a [`VirtualClock`] here so trace timestamps are
/// exactly reproducible.
pub fn install_clock(clock: SharedClock) {
    // a panic elsewhere while holding this lock must not cascade into
    // every later span timestamp — the clock value itself is always
    // whole (replaced atomically under the lock), so recover it
    *clock_cell()
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = clock;
}

/// Current time on the installed span clock, in microseconds since the
/// clock's origin. Only read while tracing is enabled.
pub fn now_us() -> u64 {
    let c = clock_cell()
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    c.now().as_micros().min(u128::from(u64::MAX)) as u64
}

/// Hide everything recorded so far from future snapshots (without
/// touching the rings — their writers may be mid-record on other
/// threads). New spans keep accumulating normally; a span must *end*
/// strictly after the clear instant to be visible. A plain store, not
/// a max: installing a different clock legitimately moves the time
/// domain backwards, and the floor must follow it.
pub fn clear() {
    FLOOR.store(now_us() + 1, Ordering::Relaxed);
}

pub(crate) fn floor_us() -> u64 {
    FLOOR.load(Ordering::Relaxed)
}

/// The static span vocabulary: every instrumented stage in the
/// workspace. Kept small and flat so a span record is one byte of
/// identity — names and categories are resolved at export time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SpanId {
    /// `Solver::compile`: folding matrix, kernel plan, pool resolution.
    PlanCompile = 1,
    /// One timed autotuner probe sweep.
    TuneProbe = 2,
    /// A job's wait in the serve submission queue (submit → dequeue).
    QueueWait = 3,
    /// An executor worker draining one same-plan batch.
    BatchDrain = 4,
    /// Sharded execution: slab fan-out across lanes (spawn → barrier).
    ShardFanout = 5,
    /// Sharded execution: stitching slab results into the output grid.
    ShardJoin = 6,
    /// One 3D register ring-pipeline sweep (the paper's executor).
    RingSweep = 7,
    /// One fork-join job on a runtime pool worker.
    WorkerJob = 8,
    /// Synchronous OOC window load from the slab store.
    OocLoad = 9,
    /// OOC window compute (the plan sweep over one resident window).
    OocCompute = 10,
    /// OOC window writeback to the slab store.
    OocWriteback = 11,
    /// Background OOC prefetch of the next window (IO thread).
    OocPrefetch = 12,
    /// Encoding one protocol frame onto a connection's write buffer.
    NetEncode = 13,
    /// Decoding one protocol frame out of a connection's read buffer.
    NetDecode = 14,
}

impl SpanId {
    /// Every span id, in declaration order.
    pub const ALL: [SpanId; 14] = [
        SpanId::PlanCompile,
        SpanId::TuneProbe,
        SpanId::QueueWait,
        SpanId::BatchDrain,
        SpanId::ShardFanout,
        SpanId::ShardJoin,
        SpanId::RingSweep,
        SpanId::WorkerJob,
        SpanId::OocLoad,
        SpanId::OocCompute,
        SpanId::OocWriteback,
        SpanId::OocPrefetch,
        SpanId::NetEncode,
        SpanId::NetDecode,
    ];

    /// Stable snake_case name (the Chrome trace event name).
    pub fn name(self) -> &'static str {
        match self {
            SpanId::PlanCompile => "plan_compile",
            SpanId::TuneProbe => "tune_probe",
            SpanId::QueueWait => "queue_wait",
            SpanId::BatchDrain => "batch_drain",
            SpanId::ShardFanout => "shard_fanout",
            SpanId::ShardJoin => "shard_join",
            SpanId::RingSweep => "ring_sweep",
            SpanId::WorkerJob => "worker_job",
            SpanId::OocLoad => "ooc_load",
            SpanId::OocCompute => "ooc_compute",
            SpanId::OocWriteback => "ooc_writeback",
            SpanId::OocPrefetch => "ooc_prefetch",
            SpanId::NetEncode => "net_encode",
            SpanId::NetDecode => "net_decode",
        }
    }

    /// Coarse subsystem category (the Chrome trace `cat` field).
    pub fn category(self) -> &'static str {
        match self {
            SpanId::PlanCompile => "plan",
            SpanId::TuneProbe => "tune",
            SpanId::QueueWait | SpanId::BatchDrain | SpanId::ShardFanout | SpanId::ShardJoin => {
                "serve"
            }
            SpanId::RingSweep | SpanId::WorkerJob => "exec",
            SpanId::OocLoad | SpanId::OocCompute | SpanId::OocWriteback | SpanId::OocPrefetch => {
                "ooc"
            }
            SpanId::NetEncode | SpanId::NetDecode => "net",
        }
    }

    pub(crate) fn from_u8(v: u8) -> Option<SpanId> {
        SpanId::ALL.get(v.wrapping_sub(1) as usize).copied()
    }
}

std::thread_local! {
    /// Job id spans on this thread are tagged with (0 = no job).
    static CURRENT_JOB: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Run `f` with this thread's spans tagged as belonging to `job`,
/// restoring the previous tag afterwards (including on unwind). Job ids
/// correlate ring spans with serve [`Timeline`]s in trace exports.
pub fn with_job<R>(job: u64, f: impl FnOnce() -> R) -> R {
    struct Restore(u64);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT_JOB.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(CURRENT_JOB.with(|c| c.replace(job)));
    f()
}

/// The job id this thread's spans are currently tagged with (0 = none).
pub fn current_job() -> u64 {
    CURRENT_JOB.with(|c| c.get())
}

/// An in-flight span: records `[construction, drop]` on the calling
/// thread's ring. Inert (no clock read, nothing recorded) while tracing
/// is disabled at construction time.
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing useful"]
pub struct SpanGuard {
    id: SpanId,
    t0_us: u64,
    armed: bool,
}

impl SpanGuard {
    /// Drop the guard without recording anything.
    pub fn cancel(mut self) {
        self.armed = false;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed && enabled() {
            record(self.id, self.t0_us, now_us());
        }
    }
}

/// Open a span of `id` ending when the returned guard drops. The
/// disabled path is one relaxed load and a branch.
#[inline]
pub fn span(id: SpanId) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            id,
            t0_us: 0,
            armed: false,
        };
    }
    SpanGuard {
        id,
        t0_us: now_us(),
        armed: true,
    }
}

/// Record a completed span `[t0_us, t1_us]` (obs-clock microseconds)
/// on this thread's ring, tagged with [`current_job`]. No-op while
/// disabled.
#[inline]
pub fn record(id: SpanId, t0_us: u64, t1_us: u64) {
    if !enabled() {
        return;
    }
    record_for_job(id, current_job(), t0_us, t1_us);
}

/// Record a completed span under an explicit job id (for spans whose
/// endpoints straddle threads, like queue wait: opened at submission,
/// closed by the executor). No-op while disabled.
#[inline]
pub fn record_for_job(id: SpanId, job: u64, t0_us: u64, t1_us: u64) {
    if !enabled() {
        return;
    }
    ring::local_ring().push(id, job, t0_us, t1_us);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::sync::Mutex;
    use std::time::Duration;

    /// Obs globals (enabled flag, clock, floor, rings) are process-wide;
    /// tests that touch them serialize here so `cargo test` parallelism
    /// cannot interleave them.
    static GLOBALS: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        GLOBALS.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_recording_is_inert() {
        let _g = lock();
        set_enabled(false);
        // tag with a job id no other test uses: rings and the floor are
        // process-global, so emptiness is asserted per-tag, not per-ring
        with_job(777_001, || {
            record(SpanId::PlanCompile, now_us(), now_us() + 10);
            let guard = span(SpanId::TuneProbe);
            drop(guard);
        });
        assert!(!snapshot().iter().any(|e| e.job == 777_001));
    }

    #[test]
    fn spans_round_trip_with_job_tags() {
        let _g = lock();
        set_enabled(true);
        clear();
        let base = now_us();
        with_job(42, || {
            record(SpanId::OocLoad, base + 1, base + 5);
        });
        record(SpanId::OocCompute, base + 6, base + 9);
        let events = snapshot();
        set_enabled(false);
        let load = events
            .iter()
            .find(|e| e.id == SpanId::OocLoad && e.job == 42)
            .expect("tagged span visible");
        assert_eq!((load.t0_us, load.t1_us), (base + 1, base + 5));
        assert!(events
            .iter()
            .any(|e| e.id == SpanId::OocCompute && e.job == 0));
    }

    #[test]
    fn virtual_clock_makes_timestamps_deterministic() {
        let _g = lock();
        let vc = Arc::new(VirtualClock::new());
        vc.advance(Duration::from_micros(1_000_000));
        install_clock(SharedClock::new(Arc::clone(&vc) as Arc<dyn Clock>));
        set_enabled(true);
        clear();
        let s = span(SpanId::RingSweep);
        vc.advance(Duration::from_micros(250));
        drop(s);
        let events = snapshot();
        set_enabled(false);
        install_clock(SharedClock::wall());
        let e = events
            .iter()
            .find(|e| e.id == SpanId::RingSweep)
            .expect("sweep span recorded");
        assert_eq!((e.t0_us, e.t1_us), (1_000_000, 1_000_250));
    }

    #[test]
    fn clear_hides_earlier_spans() {
        let _g = lock();
        let vc = Arc::new(VirtualClock::new());
        vc.advance(Duration::from_micros(500));
        install_clock(SharedClock::new(Arc::clone(&vc) as Arc<dyn Clock>));
        set_enabled(true);
        clear(); // floor at 501
        record(SpanId::NetEncode, 510, 600);
        assert!(snapshot()
            .iter()
            .any(|e| e.id == SpanId::NetEncode && e.t0_us == 510));
        vc.advance(Duration::from_micros(500)); // now 1000
        clear(); // floor at 1001: the 600-end span is gone
        assert!(!snapshot()
            .iter()
            .any(|e| e.id == SpanId::NetEncode && e.t0_us == 510));
        set_enabled(false);
        install_clock(SharedClock::wall());
    }

    #[test]
    fn span_ids_have_stable_names_and_categories() {
        for id in SpanId::ALL {
            assert!(!id.name().is_empty());
            assert!(!id.category().is_empty());
            assert_eq!(SpanId::from_u8(id as u8), Some(id));
        }
        assert_eq!(SpanId::from_u8(0), None);
        assert_eq!(SpanId::from_u8(200), None);
    }
}
