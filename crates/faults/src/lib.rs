//! Deterministic fault injection for the stencil serving stack.
//!
//! A fixed vocabulary of **failpoints** ([`Failpoint`]) is compiled into
//! the IO, network, queue and worker paths of the workspace. Each site
//! asks [`should_fire`] whether to inject a failure; the answer is
//! driven by one of two trigger kinds, armed per failpoint:
//!
//! - **Probability** ([`arm_probability`]): every hit draws from a
//!   seeded SplitMix64 stream and fires with probability `p`. Same
//!   seed, same hit sequence, same faults — chaos runs are replayable.
//! - **Scripted nth hit** ([`arm_nth`]): fires exactly once, on the
//!   n-th hit of the site. This is how tests place a fault at a precise
//!   point in an execution ("fail the third fsync").
//!
//! The discipline mirrors `stencil-obs`: the crate has no dependencies,
//! is always compiled in, and costs exactly **one relaxed atomic load
//! per site** while globally disabled ([`set_enabled`]), so production
//! binaries carry the failpoints for free. Per-process configuration is
//! available through the `STENCIL_FAULTS` environment variable
//! ([`init_from_env`]), e.g.
//!
//! ```text
//! STENCIL_FAULTS="ooc_read=p0.01@42,net_drop=n3"
//! ```
//!
//! arms `ooc_read` with probability 0.01 (seed 42) and scripts
//! `net_drop` to fire on its third hit.

#![deny(missing_docs)]
#![warn(clippy::all)]

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};

/// The static failpoint vocabulary. Each variant names one injection
/// site family; the wiring lives in the crate that owns the path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Failpoint {
    /// A positioned read in the out-of-core slab store.
    OocRead = 0,
    /// A positioned write in the out-of-core slab store.
    OocWrite = 1,
    /// A data sync (fsync) in the out-of-core slab store.
    OocFsync = 2,
    /// A prefetch-thread read in the streaming executor.
    OocPrefetch = 3,
    /// A panic inside a serve worker's job execution.
    WorkerPanic = 4,
    /// The net server reads at most one byte per socket read call.
    NetShortRead = 5,
    /// The net server drops an established connection.
    NetDrop = 6,
    /// A bounded artificial stall at queue dequeue.
    QueueStall = 7,
}

/// Every failpoint, in declaration order (index == discriminant).
pub const ALL: [Failpoint; 8] = [
    Failpoint::OocRead,
    Failpoint::OocWrite,
    Failpoint::OocFsync,
    Failpoint::OocPrefetch,
    Failpoint::WorkerPanic,
    Failpoint::NetShortRead,
    Failpoint::NetDrop,
    Failpoint::QueueStall,
];

impl Failpoint {
    /// Stable wire/config name of this failpoint.
    pub fn name(self) -> &'static str {
        match self {
            Failpoint::OocRead => "ooc_read",
            Failpoint::OocWrite => "ooc_write",
            Failpoint::OocFsync => "ooc_fsync",
            Failpoint::OocPrefetch => "ooc_prefetch",
            Failpoint::WorkerPanic => "worker_panic",
            Failpoint::NetShortRead => "net_short_read",
            Failpoint::NetDrop => "net_drop",
            Failpoint::QueueStall => "queue_stall",
        }
    }

    /// Parse a config name back into a failpoint.
    pub fn from_name(name: &str) -> Option<Self> {
        ALL.into_iter().find(|f| f.name() == name)
    }

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// Trigger modes (the `mode` field of a [`Site`]).
const MODE_OFF: u8 = 0;
const MODE_PROB: u8 = 1;
const MODE_NTH: u8 = 2;

/// SplitMix64 additive constant; `fetch_add` of this constant is the
/// generator's state advance, so concurrent hitters each draw a
/// distinct, deterministic value from the same seeded stream.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Finalizer of SplitMix64: maps the raw counter state to output bits.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 (Steele, Lea, Flood): the workspace's one seeded generator.
/// The probability failpoints draw from this recurrence (through an
/// atomic state), and seeded workloads and tests use it directly, so
/// one seed names one stream everywhere.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose first draw advances `seed` once.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        mix(self.0)
    }

    /// Uniform `f64` in `[0, 1)` (53 significant bits).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A draw in `0..n`: `next_u64() % n`, so the stream a caller sees
    /// is the raw one reduced (the modulo bias is below `n / 2^64`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A draw in `r` ([`below`](Self::below) shifted to its start).
    pub fn range(&mut self, r: std::ops::Range<usize>) -> usize {
        r.start + self.below(r.len())
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }
}

/// Per-failpoint trigger state. All fields are plain atomics so the
/// armed path stays lock-free and the disabled path costs nothing.
struct Site {
    mode: AtomicU8,
    /// Probability mode: fire threshold in u64 space. Nth mode: the
    /// 1-based target hit count.
    param: AtomicU64,
    /// SplitMix64 counter state (probability mode).
    rng: AtomicU64,
    hits: AtomicU64,
    fired: AtomicU64,
}

impl Site {
    const fn new() -> Self {
        Self {
            mode: AtomicU8::new(MODE_OFF),
            param: AtomicU64::new(0),
            rng: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            fired: AtomicU64::new(0),
        }
    }
}

static SITES: [Site; 8] = [const { Site::new() }; 8];

/// Global gate. While false, [`should_fire`] is one relaxed load.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn the fault layer on or off globally. Arming a failpoint does not
/// enable injection by itself; the gate keeps the disabled cost at one
/// relaxed atomic load per site regardless of what is armed.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the global gate is open.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Should this site inject a failure now? The armed decision is
/// deterministic for a given seed and hit sequence. Disabled cost: one
/// relaxed atomic load.
#[inline]
pub fn should_fire(fp: Failpoint) -> bool {
    if !ENABLED.load(Ordering::Relaxed) {
        return false;
    }
    fire_slow(fp)
}

#[cold]
fn fire_slow(fp: Failpoint) -> bool {
    let site = &SITES[fp.index()];
    let mode = site.mode.load(Ordering::Relaxed);
    if mode == MODE_OFF {
        return false;
    }
    let hit = site.hits.fetch_add(1, Ordering::Relaxed) + 1;
    let fire = match mode {
        MODE_PROB => {
            let state = site
                .rng
                .fetch_add(GOLDEN, Ordering::Relaxed)
                .wrapping_add(GOLDEN);
            mix(state) < site.param.load(Ordering::Relaxed)
        }
        MODE_NTH => hit == site.param.load(Ordering::Relaxed),
        _ => false,
    };
    if fire {
        site.fired.fetch_add(1, Ordering::Relaxed);
    }
    fire
}

/// Arm `fp` to fire with probability `p` (clamped to `[0, 1]`) on every
/// hit, drawing from a SplitMix64 stream seeded with `seed`. Resets the
/// site's hit and fired counters.
pub fn arm_probability(fp: Failpoint, p: f64, seed: u64) {
    let site = &SITES[fp.index()];
    let p = p.clamp(0.0, 1.0);
    // Threshold in u64 space; p == 1.0 saturates to always-fire.
    let threshold = if p >= 1.0 {
        u64::MAX
    } else {
        (p * (u64::MAX as f64)) as u64
    };
    site.param.store(threshold, Ordering::Relaxed);
    site.rng.store(seed, Ordering::Relaxed);
    site.hits.store(0, Ordering::Relaxed);
    site.fired.store(0, Ordering::Relaxed);
    site.mode.store(MODE_PROB, Ordering::Relaxed);
}

/// Arm `fp` to fire exactly once, on its `n`-th hit (1-based; `n == 0`
/// is treated as 1). Resets the site's hit and fired counters.
pub fn arm_nth(fp: Failpoint, n: u64) {
    let site = &SITES[fp.index()];
    site.param.store(n.max(1), Ordering::Relaxed);
    site.hits.store(0, Ordering::Relaxed);
    site.fired.store(0, Ordering::Relaxed);
    site.mode.store(MODE_NTH, Ordering::Relaxed);
}

/// Disarm `fp` (it keeps its counters until re-armed).
pub fn disarm(fp: Failpoint) {
    SITES[fp.index()].mode.store(MODE_OFF, Ordering::Relaxed);
}

/// Disarm every failpoint and zero all counters. Leaves the global
/// gate as-is; pair with [`set_enabled`] in test teardown.
pub fn disarm_all() {
    for site in &SITES {
        site.mode.store(MODE_OFF, Ordering::Relaxed);
        site.param.store(0, Ordering::Relaxed);
        site.rng.store(0, Ordering::Relaxed);
        site.hits.store(0, Ordering::Relaxed);
        site.fired.store(0, Ordering::Relaxed);
    }
}

/// How many times `fp`'s site has been evaluated while armed.
pub fn hits(fp: Failpoint) -> u64 {
    SITES[fp.index()].hits.load(Ordering::Relaxed)
}

/// How many times `fp` actually fired.
pub fn fired(fp: Failpoint) -> u64 {
    SITES[fp.index()].fired.load(Ordering::Relaxed)
}

/// The canonical injected IO failure for failpoint `fp`: a
/// transient-classified `ErrorKind::Interrupted` error, so the injection
/// exercises the same retry/backoff path a real transient fault would.
pub fn injected_io_error(fp: Failpoint) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::Interrupted,
        format!("injected failpoint: {}", fp.name()),
    )
}

/// Arm failpoints from the `STENCIL_FAULTS` environment variable and
/// open the global gate if anything was armed. Returns how many
/// failpoints were armed. Syntax (comma-separated, whitespace ignored):
///
/// - `name=p<prob>` or `name=p<prob>@<seed>` — probability trigger
///   (default seed 0);
/// - `name=n<hit>` — scripted nth-hit trigger.
///
/// Unknown names and malformed specs are skipped, never fatal: a typo'd
/// fault config must not take down a production process.
pub fn init_from_env() -> usize {
    match std::env::var("STENCIL_FAULTS") {
        Ok(spec) => init_from_spec(&spec),
        Err(_) => 0,
    }
}

/// [`init_from_env`] on an explicit spec string (testable core).
pub fn init_from_spec(spec: &str) -> usize {
    let mut armed = 0;
    for item in spec.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        let Some((name, trig)) = item.split_once('=') else {
            continue;
        };
        let Some(fp) = Failpoint::from_name(name.trim()) else {
            continue;
        };
        let trig = trig.trim();
        if let Some(rest) = trig.strip_prefix('p') {
            let (p, seed) = match rest.split_once('@') {
                Some((p, s)) => (p.parse::<f64>(), s.parse::<u64>().unwrap_or(0)),
                None => (rest.parse::<f64>(), 0),
            };
            if let Ok(p) = p {
                arm_probability(fp, p, seed);
                armed += 1;
            }
        } else if let Some(rest) = trig.strip_prefix('n') {
            if let Ok(n) = rest.parse::<u64>() {
                arm_nth(fp, n);
                armed += 1;
            }
        }
    }
    if armed > 0 {
        set_enabled(true);
    }
    armed
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Failpoint state is process-global; tests that touch it must not
    /// interleave.
    static GLOBALS: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        GLOBALS.lock().unwrap_or_else(|e| e.into_inner())
    }

    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            disarm_all();
            set_enabled(false);
        }
    }

    /// Seeded grids and committed benchmark inputs hang on these bits.
    #[test]
    fn splitmix64_stream_is_pinned() {
        let mut g = SplitMix64::new(42);
        let draws = [g.next_u64(), g.next_u64(), g.next_u64()];
        assert_eq!(
            draws,
            [
                0xBDD7_3226_2FEB_6E95,
                0x28EF_E333_B266_F103,
                0x4752_6757_130F_9F52
            ]
        );
        assert_eq!(SplitMix64::new(42).next_f64(), 0.7415648787718233);
        // the range draws reduce the same stream
        let mut g = SplitMix64::new(42);
        assert_eq!(g.below(1000), (draws[0] % 1000) as usize);
        assert_eq!(g.range(5..9), 5 + (draws[1] % 4) as usize);
        assert_eq!(
            g.uniform(-2.0, 2.0),
            -2.0 + 4.0 * (draws[2] >> 11) as f64 / (1u64 << 53) as f64
        );
    }

    #[test]
    fn names_round_trip() {
        for fp in ALL {
            assert_eq!(Failpoint::from_name(fp.name()), Some(fp));
        }
        assert_eq!(Failpoint::from_name("bogus"), None);
    }

    #[test]
    fn disabled_gate_never_fires_even_when_armed() {
        let _g = serial();
        let _r = Reset;
        disarm_all();
        set_enabled(false);
        arm_probability(Failpoint::OocRead, 1.0, 7);
        for _ in 0..100 {
            assert!(!should_fire(Failpoint::OocRead));
        }
        // the gated-off path must not even count hits
        assert_eq!(hits(Failpoint::OocRead), 0);
    }

    #[test]
    fn nth_hit_fires_exactly_once_at_the_scripted_hit() {
        let _g = serial();
        let _r = Reset;
        disarm_all();
        set_enabled(true);
        arm_nth(Failpoint::OocFsync, 3);
        let pattern: Vec<bool> = (0..6).map(|_| should_fire(Failpoint::OocFsync)).collect();
        assert_eq!(pattern, [false, false, true, false, false, false]);
        assert_eq!(hits(Failpoint::OocFsync), 6);
        assert_eq!(fired(Failpoint::OocFsync), 1);
    }

    #[test]
    fn probability_stream_is_deterministic_per_seed() {
        let _g = serial();
        let _r = Reset;
        disarm_all();
        set_enabled(true);
        let draw = |seed: u64| -> Vec<bool> {
            arm_probability(Failpoint::NetDrop, 0.25, seed);
            (0..64).map(|_| should_fire(Failpoint::NetDrop)).collect()
        };
        let a = draw(42);
        let b = draw(42);
        let c = draw(43);
        assert_eq!(a, b, "same seed must replay the same fault schedule");
        assert_ne!(a, c, "a different seed must give a different schedule");
        assert!(a.iter().any(|&f| f), "p=0.25 over 64 hits should fire");
        assert!(!a.iter().all(|&f| f), "p=0.25 must not always fire");
    }

    #[test]
    fn probability_extremes_behave() {
        let _g = serial();
        let _r = Reset;
        disarm_all();
        set_enabled(true);
        arm_probability(Failpoint::OocWrite, 1.0, 1);
        assert!((0..32).all(|_| should_fire(Failpoint::OocWrite)));
        arm_probability(Failpoint::OocWrite, 0.0, 1);
        assert!((0..32).all(|_| !should_fire(Failpoint::OocWrite)));
    }

    #[test]
    fn unarmed_sites_are_independent() {
        let _g = serial();
        let _r = Reset;
        disarm_all();
        set_enabled(true);
        arm_probability(Failpoint::OocRead, 1.0, 9);
        assert!(should_fire(Failpoint::OocRead));
        assert!(!should_fire(Failpoint::OocWrite));
        assert!(!should_fire(Failpoint::QueueStall));
    }

    #[test]
    fn spec_parser_arms_and_skips_garbage() {
        let _g = serial();
        let _r = Reset;
        disarm_all();
        set_enabled(false);
        let n = init_from_spec("ooc_read = p0.5@42 , net_drop=n3, bogus=p1, ooc_write=x9, ,");
        assert_eq!(n, 2);
        assert!(enabled(), "arming via spec opens the gate");
        // net_drop fires exactly on hit 3
        assert!(!should_fire(Failpoint::NetDrop));
        assert!(!should_fire(Failpoint::NetDrop));
        assert!(should_fire(Failpoint::NetDrop));
        // the malformed ooc_write spec stayed off
        assert!(!should_fire(Failpoint::OocWrite));
    }

    #[test]
    fn empty_spec_leaves_the_gate_closed() {
        let _g = serial();
        let _r = Reset;
        disarm_all();
        set_enabled(false);
        assert_eq!(init_from_spec(""), 0);
        assert!(!enabled());
    }

    #[test]
    fn injected_error_is_transient_classified() {
        let e = injected_io_error(Failpoint::OocRead);
        assert_eq!(e.kind(), std::io::ErrorKind::Interrupted);
        assert!(e.to_string().contains("ooc_read"));
    }
}
