//! The streaming temporal-blocked executor.
//!
//! A run of `t` steps becomes a sequence of **passes**; each pass
//! advances the whole domain by `s` steps by marching halo-widened
//! z-slab windows through a bounded resident buffer pool:
//!
//! ```text
//! pass (s steps, surface S -> 1-S):
//!   for each window k (interior [lo, hi), slab [slo, shi)):
//!     load  planes [slo, shi) of surface S           (slab + halo)
//!     run   plan.run_3d_at(window, s, slo)           (origin-anchored)
//!     store planes [lo, hi) to surface 1-S           (interior only)
//!   commit: sync, flip surface, round += s
//! ```
//!
//! Temporal blocking is the whole economy: every slab crosses the IO
//! boundary **once per pass of `s` steps** instead of once per step —
//! `s` defaults to the largest value the memory budget can carry. Pass
//! lengths are multiples of the plan's [`pass_quantum`] (the fold
//! factor `m`, times the tessellate round block where applicable), so
//! the concatenated passes execute exactly the resident run's sequence
//! of folded macro-steps, per-round time blocks and tail steps; window
//! geometry reuses the serving sharder's halo arithmetic
//! ([`shard_geometry`] / [`slab_bounds`]) and the origin-anchored
//! `run_3d_at` tile phase — which together make the streamed result
//! **bit-identical** to the resident run.
//!
//! With [`OocConfig::prefetch`] set, a background IO thread loads
//! window `k + 1` and writes back window `k - 1` while the plan's pool
//! sweeps window `k`; the sweep only stalls (counted in
//! [`StoreStats::stall_us`]) when a load has not landed by the time it
//! is needed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use stencil_core::slab::{
    interior_ranges, pass_quantum, shard_geometry, shardable, slab_bounds, SLAB_ALIGN,
};
use stencil_core::Plan;
use stencil_faults::Failpoint;
use stencil_grid::Grid3D;

use crate::error::OocError;
use crate::store::{SlabStore, StoreStats};

/// Resident windows a prefetching run holds at peak: the window being
/// swept, the sweep's internal pingpong pair, the prefetched next
/// window and the previous window's output awaiting writeback.
pub const RESIDENT_WINDOWS_PREFETCH: usize = 5;
/// Resident windows a synchronous run holds at peak: the window being
/// swept and the sweep's internal pingpong pair.
pub const RESIDENT_WINDOWS_SYNC: usize = 3;

/// Streaming executor knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OocConfig {
    /// Resident-memory budget in bytes for window buffers. The
    /// executor sizes windows so that its peak buffer residency
    /// (`RESIDENT_WINDOWS_*` windows) stays within this budget.
    pub budget_bytes: usize,
    /// Steps per pass — the temporal-blocking depth. `0` (the default)
    /// means "as many as the budget allows"; other values are rounded
    /// to the plan's composition quantum. Deeper passes cross the IO
    /// boundary less often but carry deeper halos.
    pub steps_per_pass: usize,
    /// Overlap IO with compute on a background thread (default true).
    pub prefetch: bool,
}

impl Default for OocConfig {
    fn default() -> Self {
        Self {
            budget_bytes: 256 << 20,
            steps_per_pass: 0,
            prefetch: true,
        }
    }
}

/// What a streaming run did, for benches and the serve stats surface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamReport {
    /// Passes executed (IO round trips per slab).
    pub passes: usize,
    /// Steps advanced per full-depth pass.
    pub steps_per_pass: usize,
    /// Windows per pass (of the first, deepest pass).
    pub windows_per_pass: usize,
    /// Planes of the widest window (slab + halo).
    pub window_planes: usize,
    /// Peak resident window bytes the executor accounted for —
    /// guaranteed `<=` the configured budget.
    pub resident_bytes: usize,
    /// Microseconds the sweep thread was *blocked* on IO during this
    /// run: all of it in synchronous mode, only the prefetch stalls
    /// (plus store spill/materialize when run via
    /// [`run_streaming_grid`]) when prefetching.
    pub io_blocked_us: u64,
    /// Microseconds of IO the prefetch pipeline ran in the background
    /// while compute proceeded — data movement hidden under arithmetic.
    /// Zero in synchronous mode.
    pub io_overlap_us: u64,
    /// Store IO counters accumulated over the run.
    pub stats: StoreStats,
}

/// True when `plan` can stream through a [`SlabStore`] bit-exactly:
/// 3D, and slab-shardable (see [`stencil_core::slab::shardable`]).
pub fn streamable(plan: &Plan) -> bool {
    plan.dims() == 3 && shardable(plan)
}

/// Resident bytes of one z plane (padded row stride, as the window
/// buffers store it).
fn plane_resident_bytes(ny: usize, nx: usize) -> usize {
    Grid3D::zeros(1, ny, nx).stride_z() * 8
}

/// One pass's window geometry: `(lo, hi, slab_lo, slab_hi)` per window.
struct PassGeom {
    windows: Vec<(usize, usize, usize, usize)>,
}

/// Smallest slab span a pass of `s` steps may run: the tessellate
/// minimum span, and in all cases enough planes to clear the Dirichlet
/// band of the deepest kernel the pass runs (`2 * band + 1` — the
/// "2R+1 planes" floor).
fn span_floor(plan: &Plan, s: usize, min_span: usize) -> usize {
    let band = if s >= plan.m().max(1) {
        plan.effective_radius()
    } else {
        plan.pattern().radius()
    };
    min_span.max(2 * band + 1)
}

/// Lay out the windows of a pass of `s` steps under a budget of
/// `cap_planes` resident planes per window, or `None` when no window
/// count satisfies both the cap and the span floor.
fn plan_pass(
    plan: &Plan,
    (nz, ny, nx): (usize, usize, usize),
    s: usize,
    cap_planes: usize,
) -> Option<PassGeom> {
    let (halo, min_span) = shard_geometry(plan, s, nz, &[ny, nx]);
    let r_eff = plan.effective_radius();
    let floor = span_floor(plan, s, min_span);
    if cap_planes < floor {
        return None;
    }
    // start from the fewest windows whose slabs can fit the cap and
    // grow until they do; growing further only shrinks spans, so the
    // floor check at that point is conclusive
    let per = cap_planes.saturating_sub(2 * halo + 2 * SLAB_ALIGN).max(1);
    let mut w = nz.div_ceil(per).max(1);
    loop {
        if w > nz {
            return None;
        }
        let windows: Vec<_> = interior_ranges(nz, w)
            .into_iter()
            .map(|(lo, hi)| {
                let (slo, shi) = slab_bounds(lo, hi, nz, halo, r_eff);
                (lo, hi, slo, shi)
            })
            .collect();
        if windows
            .iter()
            .all(|&(_, _, slo, shi)| shi - slo <= cap_planes)
        {
            if windows.iter().all(|&(_, _, slo, shi)| shi - slo >= floor) {
                return Some(PassGeom { windows });
            }
            return None;
        }
        w += 1;
    }
}

/// A bounded freelist of window buffers: windows are recycled across
/// loads and outputs instead of reallocated, and at most `cap` spares
/// are retained. New buffers are first-touched in parallel by the
/// plan's worker count.
struct WindowPool {
    spare: Vec<Grid3D>,
    cap: usize,
    workers: usize,
}

impl WindowPool {
    fn new(cap: usize, workers: usize) -> Self {
        Self {
            spare: Vec::new(),
            cap,
            workers,
        }
    }

    fn acquire(&mut self, nz: usize, ny: usize, nx: usize) -> Grid3D {
        if let Some(i) = self
            .spare
            .iter()
            .position(|g| (g.nz(), g.ny(), g.nx()) == (nz, ny, nx))
        {
            return self.spare.swap_remove(i);
        }
        Grid3D::zeros_parallel(nz, ny, nx, self.workers)
    }

    fn release(&mut self, g: Grid3D) {
        if self.spare.len() < self.cap {
            self.spare.push(g);
        }
    }
}

enum IoReq {
    Load {
        idx: usize,
        surface: u64,
        z0: usize,
        z1: usize,
        buf: Grid3D,
    },
    Store {
        surface: u64,
        z_global: usize,
        grid: Grid3D,
        z_lo: usize,
        z_hi: usize,
    },
}

enum IoDone {
    Loaded {
        idx: usize,
        buf: Grid3D,
        res: Result<(), OocError>,
    },
    Stored {
        buf: Grid3D,
        res: Result<(), OocError>,
    },
}

/// Run `t` steps of `plan` on the domain in `store`, streaming windows
/// within `cfg.budget_bytes` of resident buffer memory. On success the
/// store's current surface holds the advanced domain (`round()` is
/// bumped by `t`) and the report carries the pass/window geometry and
/// IO stats. The result is bit-identical to the resident
/// `plan.run_3d(grid, t)`.
///
/// On failure mid-pass the store is left dirty, so a subsequent
/// [`SlabStore::open`] reports it as crashed instead of serving
/// mixed-round data.
pub fn run_streaming(
    plan: &Plan,
    store: &SlabStore,
    t: usize,
    cfg: &OocConfig,
) -> Result<StreamReport, OocError> {
    if !streamable(plan) {
        return Err(OocError::UnsupportedPlan {
            reason: "streaming needs a 3D slab-shardable plan \
                     (natural layout, block-free or tessellate tiling)",
        });
    }
    let shape = store.shape();
    let (nz, ny, nx) = shape;
    if nz == 0 || ny == 0 || nx == 0 {
        return Err(OocError::UnsupportedPlan {
            reason: "empty domain",
        });
    }
    let mut report = StreamReport::default();
    if t == 0 {
        return Ok(report);
    }

    let plane = plane_resident_bytes(ny, nx);
    let residency = if cfg.prefetch {
        RESIDENT_WINDOWS_PREFETCH
    } else {
        RESIDENT_WINDOWS_SYNC
    };
    let cap_planes = cfg.budget_bytes / residency.max(1) / plane.max(1);

    // deepest pass the budget can carry: multiples of the composition
    // quantum (or a single pass of all t steps), descending
    let u = pass_quantum(plan, &[nz, ny, nx]);
    let want = match cfg.steps_per_pass {
        0 => t,
        w => w.min(t),
    };
    let mut s = if want >= t { t } else { (want / u).max(1) * u };
    let geom = loop {
        if let Some(g) = plan_pass(plan, shape, s, cap_planes) {
            break g;
        }
        if s <= u {
            // even the shallowest legal pass does not fit: report the
            // smallest budget that would
            let (halo, min_span) = shard_geometry(plan, s, nz, &[ny, nx]);
            let needed_planes = span_floor(plan, s, min_span).max(2 * halo + 1) + 2 * SLAB_ALIGN;
            return Err(OocError::BudgetTooSmall {
                budget: cfg.budget_bytes,
                needed: needed_planes.min(nz) * plane * residency,
            });
        }
        s = ((s - 1) / u).max(1) * u;
    };

    report.steps_per_pass = s;
    report.windows_per_pass = geom.windows.len();
    report.window_planes = geom
        .windows
        .iter()
        .map(|&(_, _, slo, shi)| shi - slo)
        .max()
        .unwrap_or(0);
    report.resident_bytes = residency * report.window_planes * plane;
    debug_assert!(report.resident_bytes <= cfg.budget_bytes);

    let mut pool = WindowPool::new(2, plan.pool().threads());
    let stats0 = store.stats();
    let mut remaining = t;
    while remaining > 0 {
        let s_pass = s.min(remaining);
        // the final pass may be shallower (it takes the t % quantum
        // tail); its shallower halo always fits where the deep one did
        let geom = plan_pass(plan, shape, s_pass, cap_planes)
            .expect("a shallower pass fits wherever the deep pass fits");
        store.begin_pass()?;
        if cfg.prefetch {
            run_pass_prefetch(plan, store, s_pass, &geom, &mut pool)?;
        } else {
            run_pass_sync(plan, store, s_pass, &geom, &mut pool)?;
        }
        store.commit_pass(s_pass as u64)?;
        report.passes += 1;
        remaining -= s_pass;
    }
    report.stats = store.stats();
    // Split this run's IO time (stores are reusable, so deltas) into
    // sweep-blocking vs. hidden-under-compute. Synchronously, every IO
    // microsecond blocked the sweep; under prefetch only the stalls did,
    // and the rest ran concurrently with compute.
    let io_delta = report.stats.io_us.saturating_sub(stats0.io_us);
    let stall_delta = report.stats.stall_us.saturating_sub(stats0.stall_us);
    if cfg.prefetch {
        report.io_blocked_us = stall_delta;
        report.io_overlap_us = io_delta.saturating_sub(stall_delta);
    } else {
        report.io_blocked_us = io_delta;
    }
    Ok(report)
}

fn run_pass_sync(
    plan: &Plan,
    store: &SlabStore,
    s: usize,
    geom: &PassGeom,
    pool: &mut WindowPool,
) -> Result<(), OocError> {
    let (_, ny, nx) = store.shape();
    let src = store.surface();
    let mut scratch = Vec::new();
    for &(lo, hi, slo, shi) in &geom.windows {
        let mut win = pool.acquire(shi - slo, ny, nx);
        {
            let _span = stencil_obs::span(stencil_obs::SpanId::OocLoad);
            store.read_window(src, slo, shi, &mut win, &mut scratch)?;
        }
        let out = {
            let _span = stencil_obs::span(stencil_obs::SpanId::OocCompute);
            plan.run_3d_at(&win, s, slo)?
        };
        pool.release(win);
        {
            let _span = stencil_obs::span(stencil_obs::SpanId::OocWriteback);
            store.write_planes(1 - src, lo, &out, lo - slo, hi - slo)?;
        }
        pool.release(out);
    }
    Ok(())
}

fn run_pass_prefetch(
    plan: &Plan,
    store: &SlabStore,
    s: usize,
    geom: &PassGeom,
    pool: &mut WindowPool,
) -> Result<(), OocError> {
    let (_, ny, nx) = store.shape();
    let src = store.surface();
    let windows = &geom.windows;
    std::thread::scope(|scope| -> Result<(), OocError> {
        let (req_tx, req_rx) = mpsc::channel::<IoReq>();
        let (done_tx, done_rx) = mpsc::channel::<IoDone>();
        // the IO thread borrows the store (positioned reads/writes, no
        // shared cursor) and exits when the request channel closes —
        // the scope guarantees it is joined before this function
        // returns, so no thread or buffer can leak. Its spans carry the
        // sweep thread's job tag so traces group the background IO with
        // the job it serves.
        let job = stencil_obs::current_job();
        scope.spawn(move || {
            stencil_obs::with_job(job, || {
                let mut scratch = Vec::new();
                for req in req_rx {
                    let done = match req {
                        IoReq::Load {
                            idx,
                            surface,
                            z0,
                            z1,
                            mut buf,
                        } => {
                            let _span = stencil_obs::span(stencil_obs::SpanId::OocPrefetch);
                            // the prefetch failpoint fails the whole
                            // background load; the sweep thread degrades
                            // to a synchronous re-read instead of
                            // failing the pass
                            let res = if stencil_faults::should_fire(Failpoint::OocPrefetch) {
                                Err(OocError::Io(stencil_faults::injected_io_error(
                                    Failpoint::OocPrefetch,
                                )))
                            } else {
                                store.read_window(surface, z0, z1, &mut buf, &mut scratch)
                            };
                            IoDone::Loaded { idx, buf, res }
                        }
                        IoReq::Store {
                            surface,
                            z_global,
                            grid,
                            z_lo,
                            z_hi,
                        } => {
                            let _span = stencil_obs::span(stencil_obs::SpanId::OocWriteback);
                            let res = store.write_planes(surface, z_global, &grid, z_lo, z_hi);
                            IoDone::Stored { buf: grid, res }
                        }
                    };
                    if done_tx.send(done).is_err() {
                        break;
                    }
                }
            })
        });

        let issue_load = |pool: &mut WindowPool, tx: &mpsc::Sender<IoReq>, idx: usize| {
            let (_, _, slo, shi) = windows[idx];
            let buf = pool.acquire(shi - slo, ny, nx);
            tx.send(IoReq::Load {
                idx,
                surface: src,
                z0: slo,
                z1: shi,
                buf,
            })
            .expect("io thread alive while requests are issued");
        };

        let mut stores_outstanding = 0usize;
        let mut sync_scratch = Vec::new();
        issue_load(&mut *pool, &req_tx, 0);
        for (k, &(lo, hi, slo, _shi)) in windows.iter().enumerate() {
            // wait for this window's load, recycling store acks that
            // arrive first; a load already in the done queue is a
            // prefetch hit, anything else is a miss timed as a stall
            let mut win = None;
            let mut blocked = false;
            let wait_span = stencil_obs::span(stencil_obs::SpanId::OocLoad);
            let wait_start = Instant::now();
            while win.is_none() {
                let done = match done_rx.try_recv() {
                    Ok(d) => d,
                    Err(mpsc::TryRecvError::Empty) => {
                        blocked = true;
                        done_rx.recv().expect("io thread alive")
                    }
                    Err(mpsc::TryRecvError::Disconnected) => {
                        unreachable!("io thread alive")
                    }
                };
                match done {
                    IoDone::Loaded { idx, mut buf, res } => {
                        debug_assert_eq!(idx, k);
                        if let Err(e) = res {
                            // a transiently failed prefetch degrades to
                            // a synchronous re-read (itself behind the
                            // store's retry loop); anything else is a
                            // hard error
                            if !e.is_transient() {
                                return Err(e);
                            }
                            let (_, _, fslo, fshi) = windows[idx];
                            store.read_window(src, fslo, fshi, &mut buf, &mut sync_scratch)?;
                        }
                        win = Some(buf);
                    }
                    IoDone::Stored { buf, res } => {
                        res?;
                        stores_outstanding -= 1;
                        pool.release(buf);
                    }
                }
            }
            store.note_prefetch(!blocked);
            if blocked {
                store.note_stall(wait_start.elapsed().as_micros() as u64);
                drop(wait_span); // record the stall as a load span
            } else {
                wait_span.cancel(); // hit: nothing blocked, no span
            }
            let win = win.expect("loaded above");
            if k + 1 < windows.len() {
                issue_load(&mut *pool, &req_tx, k + 1);
            }
            let out = {
                let _span = stencil_obs::span(stencil_obs::SpanId::OocCompute);
                plan.run_3d_at(&win, s, slo)?
            };
            pool.release(win);
            req_tx
                .send(IoReq::Store {
                    surface: 1 - src,
                    z_global: lo,
                    grid: out,
                    z_lo: lo - slo,
                    z_hi: hi - slo,
                })
                .expect("io thread alive while requests are issued");
            stores_outstanding += 1;
        }
        // drain the writebacks before the commit syncs the pass
        drop(req_tx);
        while stores_outstanding > 0 {
            match done_rx.recv().expect("io thread drains pending stores") {
                IoDone::Stored { buf, res } => {
                    res?;
                    stores_outstanding -= 1;
                    pool.release(buf);
                }
                IoDone::Loaded { .. } => unreachable!("no loads outstanding at drain"),
            }
        }
        Ok(())
    })
}

static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A collision-free temp path for a transient store.
fn temp_store_path() -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "stencil-ooc-{}-{}.slab",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    p
}

/// Convenience wrapper for resident callers (the serve router, tests,
/// benches): [`run_streaming_grid_resumable`] against a fresh transient
/// store under the system temp directory, with the file removed on
/// error too, so transient stores never accumulate.
pub fn run_streaming_grid(
    plan: &Plan,
    grid: &Grid3D,
    t: usize,
    cfg: &OocConfig,
) -> Result<(Grid3D, StreamReport), OocError> {
    let path = temp_store_path();
    // a store a killed process left under a recycled pid is not an
    // earlier attempt at this job: never resume from it
    let _ = std::fs::remove_file(&path);
    let result = run_streaming_grid_resumable(plan, grid, t, cfg, &path);
    let _ = std::fs::remove_file(&path);
    result
}

/// Resume an interrupted streamed job at `path`: recover the store
/// (rolling a mid-pass crash back to its last committed round — see
/// [`SlabStore::recover`]) and stream however many of `total_steps` the
/// committed round has not yet applied. Because a resumed schedule
/// re-derives exactly the remaining passes of the original schedule,
/// the final surface is bit-identical to an uninterrupted run of
/// `total_steps`. Returns the recovered store (its surface holds the
/// finished domain) and the report of the resumed portion.
pub fn resume_streaming(
    plan: &Plan,
    path: &std::path::Path,
    total_steps: usize,
    cfg: &OocConfig,
) -> Result<(SlabStore, StreamReport), OocError> {
    let store = SlabStore::recover(path)?;
    let done = (store.round().min(total_steps as u64)) as usize;
    let report = run_streaming(plan, &store, total_steps - done, cfg)?;
    Ok((store, report))
}

/// [`run_streaming_grid`] against a caller-chosen store path with
/// resume-on-resubmission semantics: if `path` already holds a store of
/// the same shape and radius — left behind by an earlier attempt that
/// died or errored mid-job — it is recovered and the job resumes from
/// its committed round instead of starting over. On success the file is
/// removed; on error it is **left in place** so a resubmission of the
/// same job can pick up where this attempt stopped. This is the serve
/// layer's crash-recovery route for out-of-core jobs.
pub fn run_streaming_grid_resumable(
    plan: &Plan,
    grid: &Grid3D,
    total_steps: usize,
    cfg: &OocConfig,
    path: &std::path::Path,
) -> Result<(Grid3D, StreamReport), OocError> {
    let radius = plan.pattern().radius();
    let shape = (grid.nz(), grid.ny(), grid.nx());
    let spill = Instant::now();
    let store = match SlabStore::recover(path) {
        Ok(s) if s.shape() == shape && s.radius() == radius && s.round() <= total_steps as u64 => s,
        // no usable leftover (missing, mismatched, or already past the
        // requested round): start fresh
        _ => {
            let _span = stencil_obs::span(stencil_obs::SpanId::OocWriteback);
            SlabStore::create(path, grid, radius)?
        }
    };
    let spill_us = spill.elapsed().as_micros() as u64;
    let done = store.round() as usize;
    let result = (|| {
        let mut report = run_streaming(plan, &store, total_steps - done, cfg)?;
        let gather = Instant::now();
        let out = {
            let _span = stencil_obs::span(stencil_obs::SpanId::OocLoad);
            store.to_grid()?
        };
        // spilling in and materializing out block the caller regardless
        // of prefetch mode: count them as blocked IO on the report
        report.io_blocked_us += spill_us + gather.elapsed().as_micros() as u64;
        Ok((out, report))
    })();
    if result.is_ok() {
        let _ = std::fs::remove_file(path);
    }
    result
}
