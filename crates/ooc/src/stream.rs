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
//!     run   plan.run_pair_at(pair, s, slo)           (origin-anchored)
//!     store planes [lo, hi) to surface 1-S           (interior only)
//!           ... and, on the final pass of a grid job, scatter them to
//!           the result grid
//!   commit: sync (a named store), flip surface, round += s
//! ```
//!
//! Each byte moves once. The loaded window *is* one surface of the pair
//! the plan sweeps ([`Plan::run_pair_at`]; the other is a recycled
//! buffer that needs no contents), the swept pair's output surface is
//! what write-back hands to the store, and the store reads and writes
//! the window's memory directly (see [`crate::store`]). What a run holds
//! is therefore [`RESIDENT_WINDOWS_PREFETCH`] = 4 windows — the swept
//! pair, the prefetched next window, the previous output awaiting
//! write-back — or [`RESIDENT_WINDOWS_SYNC`] = 2 without the IO thread,
//! and windows are sized as the budget divided by that.
//! The grid entries allocate the result grid up front and the final pass
//! lands each window's interior in it on its way to the file: the file
//! is still written and committed, it is just not read back.
//!
//! What a run owes a crash depends on who could reopen its store.
//! [`run_streaming`], [`resume_streaming`] and
//! [`run_streaming_grid_resumable`] work on a *named* store: every pass
//! syncs the dirty flag before its first write and the payload before
//! its commit, so a later process resumes from the last committed round.
//! [`run_streaming_grid`] spills into an *unnamed* store
//! ([`SlabStore::unnamed`]): the same passes, no syncs, no file to
//! delete — a killed run leaves nothing and is rerun from its input.
//! Both grid entries size the run first (`schedule`), so a job that can
//! never run (plan not streamable, budget below the minimum window) is
//! refused before a byte is spilled.
//!
//! Temporal blocking is the whole economy: every slab crosses the IO
//! boundary **once per pass of `s` steps** instead of once per step —
//! `s` defaults to the largest value the memory budget can carry. Pass
//! lengths are multiples of the plan's [`pass_quantum`] (the fold
//! factor `m`, times the tessellate round block where applicable), so
//! the concatenated passes execute exactly the resident run's sequence
//! of folded macro-steps, per-round time blocks and tail steps; window
//! geometry reuses the serving sharder's halo arithmetic
//! ([`shard_geometry`] / [`slab_bounds`]) and the origin-anchored tile
//! phase of `run_pair_at` — which together make the streamed result
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

use stencil_core::slab::{interior_ranges, pass_quantum, shard_geometry, slab_bounds, SLAB_ALIGN};
use stencil_core::Plan;
use stencil_faults::Failpoint;
use stencil_grid::{Grid3D, PingPong};

use crate::error::OocError;
use crate::store::{staging_bytes, SlabStore, StoreStats};

/// Resident windows a prefetching run holds at peak: the swept pair (the
/// loaded window *is* one of its two surfaces), the prefetched next
/// window and the previous window's output awaiting write-back.
pub const RESIDENT_WINDOWS_PREFETCH: usize = 4;
/// Resident windows a synchronous run holds at peak: the swept pair —
/// the loaded window and the scratch surface it is advanced against.
pub const RESIDENT_WINDOWS_SYNC: usize = 2;

/// One-plane staging buffers alive at once when windows take the store's
/// staged path (padded rows): the IO thread's read buffer, the write
/// buffer of a `write_planes` call and the sweep thread's read buffer
/// for a failed prefetch.
const STAGING_PLANES_PREFETCH: usize = 3;
/// Synchronously: one read buffer, one write buffer.
const STAGING_PLANES_SYNC: usize = 2;

/// Streaming executor knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OocConfig {
    /// Resident-memory budget in bytes for window buffers. The
    /// executor sizes windows so that its peak buffer residency
    /// (`RESIDENT_WINDOWS_*` windows, plus a few one-plane staging
    /// buffers when rows are padded) stays within this budget.
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
    /// Planes of the widest window (slab + halo) of any pass.
    pub window_planes: usize,
    /// Peak resident bytes the executor accounts for: `RESIDENT_WINDOWS_*`
    /// windows of `window_planes` planes plus the staging buffers —
    /// checked on every run against the buffers actually alive, and
    /// guaranteed `<=` the configured budget.
    pub resident_bytes: usize,
    /// Microseconds the sweep thread was *blocked* on IO during this
    /// run: all of it in synchronous mode, only the prefetch stalls
    /// (plus the store spill when run via [`run_streaming_grid`]) when
    /// prefetching.
    pub io_blocked_us: u64,
    /// Microseconds of IO the prefetch pipeline ran in the background
    /// while compute proceeded — data movement hidden under arithmetic.
    /// Zero in synchronous mode.
    pub io_overlap_us: u64,
    /// Store IO counters accumulated over the run.
    pub stats: StoreStats,
}

/// True when `plan` can stream through a [`SlabStore`] bit-exactly: a 3D
/// plan (every 2D/3D plan slabs, see [`stencil_core::slab`]).
pub fn streamable(plan: &Plan) -> bool {
    plan.dims() == 3
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
/// count satisfies both the cap and the span floor. A domain the cap
/// holds whole is always one window, however short: it needs no halo
/// and has no span floor.
fn plan_pass(
    plan: &Plan,
    (nz, ny, nx): (usize, usize, usize),
    s: usize,
    cap_planes: usize,
) -> Option<PassGeom> {
    let (halo, min_span) = shard_geometry(plan, s, nz, &[ny, nx]);
    let r_eff = plan.effective_radius();
    let floor = span_floor(plan, s, min_span);
    let whole = (nz <= cap_planes).then(|| PassGeom {
        windows: vec![(0, nz, 0, nz)],
    });
    if cap_planes < floor {
        return whole;
    }
    // start from the fewest windows whose slabs can fit the cap and
    // grow until they do; growing further only shrinks spans, so the
    // floor check at that point is conclusive
    let per = cap_planes.saturating_sub(2 * halo + 2 * SLAB_ALIGN).max(1);
    let mut w = nz.div_ceil(per).max(1);
    loop {
        if w > nz {
            return whole;
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
            return whole;
        }
        w += 1;
    }
}

/// The window buffers of a run: every buffer alive is either handed out
/// or a spare, and `live` counts both, so its high-water mark is what
/// [`StreamReport::resident_bytes`] has to cover. Buffers are recycled
/// across loads, scratch surfaces and passes; once `cap` are alive a
/// request no spare fits (the first and last windows of a pass are
/// shorter) frees a spare before it allocates — spares are recycled out
/// of the cap, never kept beside it. New buffers are first-touched in
/// parallel by the plan's worker count.
struct WindowPool {
    spare: Vec<Grid3D>,
    live: usize,
    peak: usize,
    cap: usize,
    workers: usize,
}

impl WindowPool {
    fn new(cap: usize, workers: usize) -> Self {
        Self {
            spare: Vec::new(),
            live: 0,
            peak: 0,
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
        if self.live >= self.cap && self.spare.pop().is_some() {
            self.live -= 1;
        }
        self.live += 1;
        self.peak = self.peak.max(self.live);
        Grid3D::zeros_parallel(nz, ny, nx, self.workers)
    }

    fn release(&mut self, g: Grid3D) {
        self.spare.push(g);
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
    stream(plan, store, t, cfg, None)
}

/// What a run does, fixed by the plan, the shape and the budget alone.
struct Schedule {
    /// `RESIDENT_WINDOWS_*` of the mode.
    residency: usize,
    /// Resident bytes of one plane, and of the mode's staging buffers.
    plane: usize,
    staging: usize,
    /// Most planes a window may hold.
    cap_planes: usize,
    /// Steps of a full-depth pass, and the windows it is cut into.
    s: usize,
    windows_per_pass: usize,
}

/// The part of a run of `t` steps that needs no IO: refuse what can never
/// stream (so callers ask before they spill a domain), and size the
/// windows and the deepest pass the budget carries. `None`: nothing to run.
fn schedule(
    plan: &Plan,
    shape: (usize, usize, usize),
    t: usize,
    cfg: &OocConfig,
) -> Result<Option<Schedule>, OocError> {
    if !streamable(plan) {
        return Err(OocError::UnsupportedPlan {
            reason: "streaming needs a 3D plan",
        });
    }
    let (nz, ny, nx) = shape;
    if nz == 0 || ny == 0 || nx == 0 {
        return Err(OocError::UnsupportedPlan {
            reason: "empty domain",
        });
    }
    if t == 0 {
        return Ok(None);
    }

    let plane = plane_resident_bytes(ny, nx);
    let (residency, staging_planes) = if cfg.prefetch {
        (RESIDENT_WINDOWS_PREFETCH, STAGING_PLANES_PREFETCH)
    } else {
        (RESIDENT_WINDOWS_SYNC, STAGING_PLANES_SYNC)
    };
    // nothing on the direct path: windows move without a staging copy
    let staging = staging_planes * staging_bytes(ny, nx);
    let cap_planes = cfg.budget_bytes.saturating_sub(staging) / residency / plane.max(1);

    // deepest pass the budget can carry: multiples of the composition
    // quantum (or a single pass of all t steps), descending
    let u = pass_quantum(plan, &[nz, ny, nx]);
    let want = match cfg.steps_per_pass {
        0 => t,
        w => w.min(t),
    };
    let mut s = if want >= t { t } else { (want / u).max(1) * u };
    // a depth fits when its passes and the final, shallower one (the
    // `t % s` remainder) all lay out within the cap
    let fits = |s: usize, cap: usize| {
        let tail = t.is_multiple_of(s) || plan_pass(plan, shape, t % s, cap).is_some();
        plan_pass(plan, shape, s, cap).filter(|_| tail)
    };
    loop {
        if let Some(geom) = fits(s, cap_planes) {
            return Ok(Some(Schedule {
                residency,
                plane,
                staging,
                cap_planes,
                s,
                windows_per_pass: geom.windows.len(),
            }));
        }
        if s <= u {
            // even the shallowest legal pass does not fit: report the
            // smallest budget that would (the whole domain always does)
            let (halo, min_span) = shard_geometry(plan, s, nz, &[ny, nx]);
            let least = span_floor(plan, s, min_span).max(2 * halo + 1).min(nz);
            let needed_planes = (least..=nz)
                .find(|&cap| fits(s, cap).is_some())
                .unwrap_or(nz);
            return Err(OocError::BudgetTooSmall {
                budget: cfg.budget_bytes,
                needed: needed_planes * plane * residency + staging,
            });
        }
        s = ((s - 1) / u).max(1) * u;
    }
}

/// [`run_streaming`]; with `result` (a grid of the store's shape) the
/// final pass also lands every window's interior there, so a caller who
/// wants the domain resident does not read the file back (`t > 0`: there
/// is no pass to land it otherwise).
fn stream(
    plan: &Plan,
    store: &SlabStore,
    t: usize,
    cfg: &OocConfig,
    mut result: Option<&mut Grid3D>,
) -> Result<StreamReport, OocError> {
    let shape = store.shape();
    let mut report = StreamReport::default();
    let Some(sch) = schedule(plan, shape, t, cfg)? else {
        return Ok(report);
    };
    let (residency, plane, staging) = (sch.residency, sch.plane, sch.staging);
    report.steps_per_pass = sch.s;
    report.windows_per_pass = sch.windows_per_pass;

    let mut pool = WindowPool::new(residency, plan.pool().threads());
    let stats0 = store.stats();
    let mut remaining = t;
    while remaining > 0 {
        let s_pass = sch.s.min(remaining);
        // the final pass may be shallower (it takes the t % quantum
        // tail); `schedule` checked that it fits too
        let geom = plan_pass(plan, shape, s_pass, sch.cap_planes)
            .expect("`schedule` fits the final pass too");
        let widest = geom.windows.iter().map(|&(_, _, slo, shi)| shi - slo);
        report.window_planes = report.window_planes.max(widest.max().unwrap_or(0));
        // only the final pass produces the planes the caller asked for
        let result = result.as_deref_mut().filter(|_| s_pass == remaining);
        store.begin_pass()?;
        if cfg.prefetch {
            run_pass_prefetch(plan, store, s_pass, &geom, &mut pool, result)?;
        } else {
            run_pass_sync(plan, store, s_pass, &geom, &mut pool, result)?;
        }
        store.commit_pass(s_pass as u64)?;
        report.passes += 1;
        remaining -= s_pass;
    }
    report.resident_bytes = residency * report.window_planes * plane + staging;
    assert!(
        pool.peak * report.window_planes * plane + staging <= report.resident_bytes
            && report.resident_bytes <= cfg.budget_bytes,
        "{} windows of {} planes were alive at once: the report accounts {} bytes, the budget is {}",
        pool.peak,
        report.window_planes,
        report.resident_bytes,
        cfg.budget_bytes
    );
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

/// Advance the loaded window `win` by `s` steps as one surface of a pair
/// whose other surface is a recycled buffer: `(output, spare)`.
fn sweep_window(
    plan: &Plan,
    pool: &mut WindowPool,
    win: Grid3D,
    s: usize,
    origin_z: usize,
) -> Result<(Grid3D, Grid3D), OocError> {
    let scratch = pool.acquire(win.nz(), win.ny(), win.nx());
    let mut pair = PingPong::from_pair(win, scratch);
    let _span = stencil_obs::span(stencil_obs::SpanId::OocCompute);
    plan.run_pair_at(&mut pair, s, origin_z)?;
    Ok(pair.into_pair())
}

/// Write a window's interior planes back and, on the final pass, land
/// them in `result` as well (timed as IO: it is the transfer a
/// read-back of the file would otherwise make).
fn write_back(
    store: &SlabStore,
    surface: u64,
    z_global: usize,
    grid: &Grid3D,
    z_lo: usize,
    z_hi: usize,
    result: Option<&mut Grid3D>,
) -> Result<(), OocError> {
    let _span = stencil_obs::span(stencil_obs::SpanId::OocWriteback);
    store.write_planes(surface, z_global, grid, z_lo, z_hi)?;
    if let Some(result) = result {
        let t0 = Instant::now();
        for z in z_lo..z_hi {
            for y in 0..grid.ny() {
                result
                    .row_mut(z_global + z - z_lo, y)
                    .copy_from_slice(grid.row(z, y));
            }
        }
        store.note_io(t0.elapsed());
    }
    Ok(())
}

fn run_pass_sync(
    plan: &Plan,
    store: &SlabStore,
    s: usize,
    geom: &PassGeom,
    pool: &mut WindowPool,
    mut result: Option<&mut Grid3D>,
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
        let (out, spare) = sweep_window(plan, pool, win, s, slo)?;
        pool.release(spare);
        let result = result.as_deref_mut();
        write_back(store, 1 - src, lo, &out, lo - slo, hi - slo, result)?;
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
    mut result: Option<&mut Grid3D>,
) -> Result<(), OocError> {
    let (_, ny, nx) = store.shape();
    let src = store.surface();
    let windows = &geom.windows;
    std::thread::scope(|scope| -> Result<(), OocError> {
        let (req_tx, req_rx) = mpsc::channel::<IoReq>();
        let (done_tx, done_rx) = mpsc::channel::<IoDone>();
        // the IO thread borrows the store (positioned reads/writes, no
        // shared cursor) and the result grid, and exits when the request
        // channel closes — the scope guarantees it is joined before this
        // function returns, so no thread or buffer can leak. Its spans
        // carry the sweep thread's job tag so traces group the
        // background IO with the job it serves.
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
                            let result = result.as_deref_mut();
                            let res =
                                write_back(store, surface, z_global, &grid, z_lo, z_hi, result);
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
            let (out, spare) = sweep_window(plan, pool, win, s, slo)?;
            pool.release(spare);
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

/// A collision-free temp path: the name a transient store has until it
/// is unlinked.
fn temp_store_path() -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "stencil-ooc-{}-{}.slab",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    p
}

/// `t` steps of `plan` on a resident `grid`, streamed through a transient
/// store, for callers who hold the domain and want it back (tests,
/// benches, a service without a store directory). The store is
/// [unnamed](SlabStore::unnamed): a file under the system temp directory
/// that is unlinked before it holds a byte of payload. Nothing can reopen
/// it, so this entry owes a crash nothing — it syncs nothing, has no file
/// to delete on success or on error, and transient stores never
/// accumulate, under `kill -9` included (the kernel frees an unlinked
/// file with its last handle). A run that dies is rerun from `grid`.
pub fn run_streaming_grid(
    plan: &Plan,
    grid: &Grid3D,
    t: usize,
    cfg: &OocConfig,
) -> Result<(Grid3D, StreamReport), OocError> {
    if schedule(plan, (grid.nz(), grid.ny(), grid.nx()), t, cfg)?.is_none() {
        return Ok((grid.clone(), StreamReport::default()));
    }
    let spill = Instant::now();
    let store = {
        let _span = stencil_obs::span(stencil_obs::SpanId::OocWriteback);
        SlabStore::unnamed(&temp_store_path(), grid, plan.pattern().radius())?
    };
    stream_to_grid(plan, &store, t, cfg, spill)
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

/// [`run_streaming_grid`] against a named store at a caller-chosen path,
/// with resume-on-resubmission semantics — the entry that owes a crash
/// something, and pays it: every pass is bracketed by the synced dirty
/// flag and committed behind a payload sync (see [`crate::store`]). If
/// `path` already holds a store of the same shape and radius — left
/// behind by an earlier attempt that died or errored mid-job — it is
/// recovered and the job resumes from its committed round instead of
/// starting over. On success the file is removed; on an error of the run
/// it is **left in place** so a resubmission of the same job can pick up
/// where this attempt stopped. A job that can never run (a plan that does
/// not stream, a budget below the minimum window) is refused before
/// `path` is touched. While another handle holds the store at `path` (an
/// identical job still in flight), the run streams through an unnamed
/// store as [`run_streaming_grid`] does and leaves `path` to the live
/// attempt. This is the serve layer's crash-recovery route for
/// out-of-core jobs.
pub fn run_streaming_grid_resumable(
    plan: &Plan,
    grid: &Grid3D,
    total_steps: usize,
    cfg: &OocConfig,
    path: &std::path::Path,
) -> Result<(Grid3D, StreamReport), OocError> {
    let radius = plan.pattern().radius();
    let shape = (grid.nz(), grid.ny(), grid.nx());
    schedule(plan, shape, total_steps, cfg)?;
    let spill = Instant::now();
    let recovered = match SlabStore::recover(path) {
        Err(OocError::Busy { .. }) => return run_streaming_grid(plan, grid, total_steps, cfg),
        Ok(s) if s.shape() == shape && s.radius() == radius && s.round() <= total_steps as u64 => {
            Some(s)
        }
        // no usable leftover (missing, mismatched, or already past the
        // requested round): start fresh, the mismatched handle dropped
        _ => None,
    };
    let store = match recovered {
        Some(s) => s,
        None => {
            let _span = stencil_obs::span(stencil_obs::SpanId::OocWriteback);
            match SlabStore::create(path, grid, radius) {
                Err(OocError::Busy { .. }) => {
                    return run_streaming_grid(plan, grid, total_steps, cfg)
                }
                created => created?,
            }
        }
    };
    let result = stream_to_grid(plan, &store, total_steps, cfg, spill);
    if result.is_ok() {
        let _ = std::fs::remove_file(path);
    }
    result
}

/// What both grid entries do once their store exists (since `spill`):
/// stream the steps its committed round lacks, the final pass landing
/// the result in a resident grid.
fn stream_to_grid(
    plan: &Plan,
    store: &SlabStore,
    total_steps: usize,
    cfg: &OocConfig,
    spill: Instant,
) -> Result<(Grid3D, StreamReport), OocError> {
    let spill_us = spill.elapsed().as_micros() as u64;
    let done = store.round() as usize;
    if done == total_steps {
        // no pass left to land the result: the leftover store had
        // already committed its last one
        let _span = stencil_obs::span(stencil_obs::SpanId::OocLoad);
        let out = store.to_grid()?;
        let report = StreamReport {
            io_blocked_us: spill.elapsed().as_micros() as u64,
            ..StreamReport::default()
        };
        return Ok((out, report));
    }
    let (nz, ny, nx) = store.shape();
    let mut out = Grid3D::zeros(nz, ny, nx);
    let mut report = stream(plan, store, total_steps - done, cfg, Some(&mut out))?;
    // spilling in blocks the caller regardless of prefetch mode
    report.io_blocked_us += spill_us;
    Ok((out, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::{kernels, Method, Solver};

    fn shape(g: &Grid3D) -> (usize, usize, usize) {
        (g.nz(), g.ny(), g.nx())
    }

    #[test]
    fn window_pool_recycles_inside_its_cap() {
        let mut pool = WindowPool::new(2, 1);
        let (a, b) = (pool.acquire(6, 4, 8), pool.acquire(6, 4, 8));
        assert_eq!((pool.live, pool.peak), (2, 2));
        pool.release(a);
        // a fitting spare is handed back, nothing is allocated
        let a = pool.acquire(6, 4, 8);
        assert_eq!((pool.live, pool.spare.len()), (2, 0));
        // no spare fits a shorter window: one is freed to make room
        pool.release(a);
        pool.release(b);
        let c = pool.acquire(4, 4, 8);
        assert_eq!(shape(&c), (4, 4, 8));
        assert_eq!((pool.live, pool.peak, pool.spare.len()), (2, 2, 1));
        // with nothing to free the pool grows — and its peak says so,
        // which is what `stream` holds against the report
        let _d = pool.acquire(5, 4, 8);
        let _e = pool.acquire(5, 4, 8);
        assert_eq!((pool.live, pool.peak), (3, 3));
    }

    #[test]
    fn the_accounted_residency_is_the_residency_held() {
        // passes whose first and last windows are shorter than the rest
        // (no halo beyond the domain), run one after the other on one
        // pool: exactly RESIDENT_WINDOWS_* buffers are ever alive, spares
        // included; unpadded (16) and padded (12) rows
        let plan = Solver::new(kernels::heat3d())
            .method(Method::Folded { m: 2 })
            .compile()
            .unwrap();
        for (prefetch, residency) in [
            (true, RESIDENT_WINDOWS_PREFETCH),
            (false, RESIDENT_WINDOWS_SYNC),
        ] {
            for nx in [16usize, 12] {
                let g = Grid3D::from_fn(96, 10, nx, |z, y, x| ((z * 7 + y * 3 + x) % 13) as f64);
                let path = temp_store_path();
                let store = SlabStore::create(&path, &g, 1).unwrap();
                let mut pool = WindowPool::new(residency, 1);
                for s in [4usize, 2] {
                    let geom = plan_pass(&plan, store.shape(), s, 28).expect("28 planes fit");
                    let mut spans: Vec<_> = geom.windows.iter().map(|w| w.3 - w.2).collect();
                    spans.dedup();
                    assert!(spans.len() >= 3, "short first and last windows: {spans:?}");
                    store.begin_pass().unwrap();
                    if prefetch {
                        run_pass_prefetch(&plan, &store, s, &geom, &mut pool, None).unwrap();
                    } else {
                        run_pass_sync(&plan, &store, s, &geom, &mut pool, None).unwrap();
                    }
                    store.commit_pass(s as u64).unwrap();
                    assert_eq!(pool.peak, residency, "prefetch={prefetch} nx={nx} s={s}");
                    assert_eq!(pool.live, pool.spare.len(), "every buffer came back");
                }
                let want = plan.run_3d(&g, 6).unwrap();
                assert_eq!(store.to_grid().unwrap().to_dense(), want.to_dense());
                drop(store);
                std::fs::remove_file(&path).unwrap();

                // the same run through the front door: the report is the
                // formula, the budget holds, and the run's own always-on
                // check of both against the pool passed
                let plane = plane_resident_bytes(10, nx);
                let cfg = OocConfig {
                    budget_bytes: residency * 28 * plane + 3 * 10 * nx * 8,
                    steps_per_pass: 4,
                    prefetch,
                };
                let (got, report) = run_streaming_grid(&plan, &g, 6, &cfg).unwrap();
                assert_eq!(got.to_dense(), want.to_dense());
                let staging = report.resident_bytes - residency * report.window_planes * plane;
                let staged_planes = if prefetch { 3 } else { 2 };
                let padded = usize::from(nx == 12);
                assert_eq!(staging, padded * staged_planes * 10 * nx * 8);
                assert!(report.resident_bytes <= cfg.budget_bytes);
                assert!(report.passes == 2 && report.window_planes <= 28);
            }
        }
    }
}
