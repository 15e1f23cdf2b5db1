//! The repo's benchmark: four seeded, verified workloads that separate
//! in-cache register reuse (`blockfree_1t`) from the beyond-cache
//! multi-thread path (`tiled_mt`), the wire path (`serve_wire`) and the
//! out-of-core path (`ooc_stream`). The untraced run of a workload gives
//! its end-to-end metrics, the traced run its per-layer metrics. See
//! `README.md` beside this package, and `BENCHMARK.json` at the root.
//!
//! The benchmark uses the workspace's public surface only, resolves every
//! plan with `Tuning::Static` and never reads the per-host tune cache, so
//! a result depends on the commit, the host and the seed alone.

pub mod field;
pub mod host;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod micro;
pub mod ooc_stream;
pub mod resident;
pub mod rng;
pub mod serve_wire;
pub mod spans;
pub mod stats;

use metrics::Outcome;
use spans::Tracer;
use std::path::PathBuf;

/// Frozen sizes, or sizes small enough for a dry run in the unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The committed sizes.
    Full,
    /// A few thousand points per grid: catches a break of the public API
    /// under `crates/` in seconds.
    Tiny,
}

impl Scale {
    /// Fewest rounds a measured phase runs, whatever its time budget.
    pub fn min_rounds(self) -> usize {
        match self {
            Scale::Full => 3,
            Scale::Tiny => 1,
        }
    }
}

/// What the driver passes to one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// One of [`metrics::WORKLOADS`].
    pub workload: String,
    /// Drives grid contents and job order.
    pub seed: u64,
    /// Length of the measured region.
    pub seconds: f64,
    /// Traced (per-layer) or untraced (end-to-end) run.
    pub trace: bool,
    /// Where traces, results and the out-of-core stores go.
    pub out_dir: PathBuf,
    /// Pool threads and client connections: the host's parallelism.
    pub threads: usize,
    /// Frozen or dry-run sizes.
    pub scale: Scale,
}

impl RunArgs {
    /// A dry run at tiny sizes into a directory of its own.
    pub fn dry_run() -> Self {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        RunArgs {
            workload: String::new(),
            seed: 1,
            seconds: 0.05,
            trace: false,
            out_dir: std::env::temp_dir()
                .join(format!("stencil-benchmark-dry-{}-{n}", std::process::id())),
            threads: 2,
            scale: Scale::Tiny,
        }
    }
}

/// Set up `count` times, keep the last state and record the fastest as
/// `setup_s`. The fastest and not the median: the first set-ups of a
/// process are cold, and other tenants of the host only ever add time —
/// the median of a run follows their load (it drifted by half within an
/// hour) where the fastest repeats. `count` is fixed per workload — more
/// for a shorter set-up, whose fastest is harder to find — and not timed,
/// so that every run has the same allocation history behind it when
/// measuring starts (`peak_rss_mib` follows that history).
pub fn repeat_set_up<T>(out: &mut Outcome, count: usize, mut set_up: impl FnMut() -> T) -> T {
    let mut times = Vec::new();
    let mut state = None;
    for _ in 0..count.max(1) {
        drop(state.take());
        let t0 = std::time::Instant::now();
        state = Some(set_up());
        times.push(t0.elapsed().as_secs_f64());
    }
    out.samples.insert("set-ups".into(), times.len() as u64);
    eprintln!(
        "setup_s: fastest {:.6}, median {:.6}",
        stats::fastest(&times),
        stats::median(&times)
    );
    out.set("setup_s", stats::fastest(&times));
    state.expect("set up at least once")
}

/// `job_p50_ms` and `job_p95_ms` of the traced run: median and 95th
/// percentile (nearest rank) of the job latencies `ms`, with a warning
/// when fewer than ten samples lie beyond the latter.
pub fn job_latency(ms: &[f64], out: &mut Outcome) {
    let (p95, beyond) = stats::nearest_rank(ms, 95.0);
    if beyond < stats::MIN_BEYOND {
        eprintln!(
            "warning: job_p95_ms rests on {} jobs, {beyond} beyond it (fewer than {})",
            ms.len(),
            stats::MIN_BEYOND
        );
    }
    out.samples.insert("jobs".into(), ms.len() as u64);
    out.set("job_p50_ms", stats::median(ms));
    out.set("job_p95_ms", p95);
}

/// The dry runs share process-wide state — the shared worker pool whose
/// handles the leak checks count, and the `stencil_obs` switch — so the
/// test harness, which runs tests on parallel threads, must run them one at
/// a time.
#[cfg(test)]
pub(crate) fn dry_run_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Run one workload as the driver asks, write its trace when traced, and
/// return what it measured.
pub fn run_workload(args: &RunArgs) -> Result<Outcome, String> {
    let tracer = Tracer::new();
    let tr = args.trace.then_some(&tracer);
    let out = match args.workload.as_str() {
        "blockfree_1t" => resident::run(resident::Kind::Blockfree, args, tr),
        "tiled_mt" => resident::run(resident::Kind::Tiled, args, tr),
        "serve_wire" => serve_wire::run(args, tr),
        "ooc_stream" => ooc_stream::run(args, tr),
        other => return Err(format!("unknown workload {other:?}")),
    };
    if args.trace {
        std::fs::create_dir_all(&args.out_dir).map_err(|e| e.to_string())?;
        let path = args.out_dir.join(format!("trace-{}.json", args.workload));
        std::fs::write(&path, tracer.chrome_json()).map_err(|e| e.to_string())?;
        eprintln!("self time by span (count, total ms, self ms):");
        for (name, st) in tracer.self_times() {
            eprintln!(
                "  {name:<28} {:>7} {:>12.3} {:>12.3}",
                st.count,
                st.total_us as f64 / 1e3,
                st.self_us as f64 / 1e3
            );
        }
        eprintln!("wrote {}", path.display());
    }
    Ok(out)
}
