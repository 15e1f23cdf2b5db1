//! Lock-free per-thread span rings.
//!
//! Each recording thread owns one fixed-size [`SpanRing`]: a single
//! writer (the owning thread) and any number of concurrent snapshot
//! readers. Slots follow the classic seqlock protocol — the writer
//! marks a slot torn (odd sequence), stores the span fields, then marks
//! it stable (even sequence); readers re-check the sequence after
//! reading and simply skip slots that changed under them. Recording
//! never allocates, never locks, never syscalls: it is a handful of
//! relaxed atomic stores between two fences.
//!
//! Rings register themselves in a process-wide list on first use, so
//! [`snapshot`] can walk every thread's ring without stopping the
//! writers. The ring is overwrite-oldest: a thread recording more than
//! [`RING_CAP`] spans between snapshots loses its oldest spans, never
//! its newest, and never blocks.

use crate::SpanId;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Spans retained per thread (power of two; ~160 KiB of slots).
pub const RING_CAP: usize = 4096;

/// One seqlock slot. `seq` is 0 when never written, odd while the
/// writer is mid-store, and `2*push_index + 2` (even, nonzero) when the
/// fields are stable.
struct Slot {
    seq: AtomicU64,
    id: AtomicU64,
    t0: AtomicU64,
    t1: AtomicU64,
    job: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Self {
            seq: AtomicU64::new(0),
            id: AtomicU64::new(0),
            t0: AtomicU64::new(0),
            t1: AtomicU64::new(0),
            job: AtomicU64::new(0),
        }
    }
}

/// A completed span read out of a ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Which instrumented stage this span measured.
    pub id: SpanId,
    /// Start, obs-clock microseconds.
    pub t0_us: u64,
    /// End, obs-clock microseconds.
    pub t1_us: u64,
    /// Serve job id the span belongs to (0 = not tied to a job).
    pub job: u64,
    /// Stable per-ring thread ordinal (the Chrome trace `tid`).
    pub tid: u64,
    /// Name of the recording thread at ring creation (may be empty).
    pub thread: String,
}

impl SpanEvent {
    /// Span duration in microseconds.
    pub fn dur_us(&self) -> u64 {
        self.t1_us.saturating_sub(self.t0_us)
    }
}

/// One thread's fixed-size span ring: single writer, lock-free
/// concurrent readers, overwrite-oldest.
pub struct SpanRing {
    head: AtomicU64,
    tid: u64,
    thread: String,
    slots: Box<[Slot]>,
}

impl std::fmt::Debug for SpanRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanRing")
            .field("tid", &self.tid)
            .field("thread", &self.thread)
            .field("pushed", &self.head.load(Ordering::Relaxed))
            .finish()
    }
}

impl SpanRing {
    /// A fresh ring for thread ordinal `tid` (not yet registered).
    pub fn new(tid: u64, thread: String) -> Self {
        Self {
            head: AtomicU64::new(0),
            tid,
            thread,
            slots: (0..RING_CAP).map(|_| Slot::new()).collect(),
        }
    }

    /// Record one completed span. Must only be called by the ring's
    /// owning thread (the single-writer invariant is what makes the
    /// slot protocol safe without CAS loops).
    pub fn push(&self, id: SpanId, job: u64, t0_us: u64, t1_us: u64) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h as usize) & (RING_CAP - 1)];
        // Torn marker first; the release fence keeps the field stores
        // from being reordered before it.
        slot.seq.store(2 * h + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.id.store(id as u64, Ordering::Relaxed);
        slot.t0.store(t0_us, Ordering::Relaxed);
        slot.t1.store(t1_us, Ordering::Relaxed);
        slot.job.store(job, Ordering::Relaxed);
        // Stable marker: the release store publishes the fields.
        slot.seq.store(2 * h + 2, Ordering::Release);
        self.head.store(h + 1, Ordering::Relaxed);
    }

    /// Total spans ever pushed (including overwritten ones).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Read every stable slot. Slots the writer is concurrently
    /// rewriting are skipped, not waited on — a snapshot never blocks
    /// recording.
    pub fn events(&self) -> Vec<SpanEvent> {
        let mut out = Vec::new();
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 % 2 == 1 {
                continue; // never written, or torn right now
            }
            let id = slot.id.load(Ordering::Relaxed);
            let t0 = slot.t0.load(Ordering::Relaxed);
            let t1 = slot.t1.load(Ordering::Relaxed);
            let job = slot.job.load(Ordering::Relaxed);
            // The acquire fence orders the field reads before the
            // re-check; an unchanged sequence proves they were not
            // overwritten mid-read.
            fence(Ordering::Acquire);
            let s2 = slot.seq.load(Ordering::Relaxed);
            if s1 != s2 {
                continue;
            }
            let Some(id) = SpanId::from_u8(id as u8) else {
                continue;
            };
            out.push(SpanEvent {
                id,
                t0_us: t0,
                t1_us: t1,
                job,
                tid: self.tid,
                thread: self.thread.clone(),
            });
        }
        out
    }
}

/// Process-wide ring registry; rings live for the process lifetime
/// (threads are pooled, and a dead thread's final spans stay readable).
static REGISTRY: Mutex<Vec<Arc<SpanRing>>> = Mutex::new(Vec::new());

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

std::thread_local! {
    static LOCAL: Arc<SpanRing> = {
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        let name = std::thread::current().name().unwrap_or("").to_string();
        let ring = Arc::new(SpanRing::new(tid, name));
        REGISTRY
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::clone(&ring));
        ring
    };
}

/// This thread's ring, creating and registering it on first use.
pub(crate) fn local_ring() -> Arc<SpanRing> {
    LOCAL.with(Arc::clone)
}

/// Collect every visible span from every thread's ring, sorted by
/// `(t0_us, tid)`. Spans hidden by [`crate::clear`] (ended at or before
/// the floor) are filtered out; torn slots are skipped.
pub fn snapshot() -> Vec<SpanEvent> {
    let rings: Vec<Arc<SpanRing>> = REGISTRY
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(Arc::clone)
        .collect();
    let floor = crate::floor_us();
    let mut out: Vec<SpanEvent> = rings
        .iter()
        .flat_map(|r| r.events())
        .filter(|e| e.t1_us >= floor)
        .collect();
    out.sort_by_key(|e| (e.t0_us, e.tid));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest_and_keeps_newest() {
        let ring = SpanRing::new(99, "test".into());
        let extra = 100u64;
        for i in 0..(RING_CAP as u64 + extra) {
            ring.push(SpanId::WorkerJob, i, i, i + 1);
        }
        let mut events = ring.events();
        assert_eq!(events.len(), RING_CAP);
        events.sort_by_key(|e| e.t0_us);
        // the oldest `extra` spans were overwritten; the newest survive
        assert_eq!(events.first().unwrap().t0_us, extra);
        assert_eq!(events.last().unwrap().t0_us, RING_CAP as u64 + extra - 1);
        assert_eq!(ring.pushed(), RING_CAP as u64 + extra);
        assert!(events.iter().all(|e| e.tid == 99 && e.thread == "test"));
    }

    #[test]
    fn partially_filled_ring_reports_only_written_slots() {
        let ring = SpanRing::new(7, String::new());
        for i in 0..10u64 {
            ring.push(SpanId::OocCompute, 0, 100 + i, 200 + i);
        }
        let events = ring.events();
        assert_eq!(events.len(), 10);
        assert!(events.iter().all(|e| e.id == SpanId::OocCompute));
        assert!(events.iter().all(|e| e.dur_us() == 100));
    }

    #[test]
    fn concurrent_reads_never_observe_torn_spans() {
        // Writer invariant: every span has t1 == t0 + 17 and job == t0.
        // Any interleaving a reader observes must preserve it — a torn
        // read would mix fields from different pushes.
        let ring = Arc::new(SpanRing::new(1, "w".into()));
        let stop = Arc::new(AtomicU64::new(0));
        let writer = {
            let ring = Arc::clone(&ring);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut t = 0u64;
                while stop.load(Ordering::Relaxed) == 0 {
                    ring.push(SpanId::RingSweep, t, t, t + 17);
                    t += 1;
                }
            })
        };
        // An optimised reader finishes any fixed number of scans before
        // the writer thread's first push: wait for the writer, then scan
        // until a fixed number of spans has been checked — so the
        // invariant is exercised in both profiles, with no clock in it.
        while ring.pushed() == 0 {
            std::thread::yield_now();
        }
        let mut seen = 0usize;
        while seen < 200 * RING_CAP {
            for e in ring.events() {
                assert_eq!(e.t1_us, e.t0_us + 17, "torn slot leaked to a reader");
                assert_eq!(e.job, e.t0_us);
                seen += 1;
            }
        }
        stop.store(1, Ordering::Relaxed);
        writer.join().unwrap();
    }
}
