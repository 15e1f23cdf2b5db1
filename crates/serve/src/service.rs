//! The long-running job service: bounded submission queue, executor
//! workers over one shared pool, same-plan batching, policy-driven
//! domain sharding, graceful shutdown.
//!
//! ```
//! use stencil_serve::{JobDomain, JobSpec, ServeConfig, StencilService};
//! use stencil_core::kernels;
//! use stencil_grid::Grid1D;
//!
//! let service = StencilService::start(ServeConfig {
//!     threads: 2,
//!     workers: 1,
//!     ..ServeConfig::default()
//! });
//! let grid = Grid1D::from_fn(4096, |i| if i == 2048 { 1.0 } else { 0.0 });
//! let ticket = service
//!     .submit(JobSpec::new(kernels::heat1d(), JobDomain::D1(grid), 100))
//!     .unwrap();
//! let result = ticket.wait().unwrap();
//! let mass: f64 = match &result.output {
//!     JobDomain::D1(g) => g.as_slice().iter().sum(),
//!     _ => unreachable!(),
//! };
//! assert!((mass - 1.0).abs() < 1e-9);
//! let stats = service.shutdown();
//! assert_eq!(stats.jobs_completed, 1);
//! ```

use crate::adapt::{AdaptConfig, Decider, ProbeLane, SharedClock};
use crate::metrics::{ServeStats, StatsSnapshot};
use crate::queue::{Bounded, PushError};
use crate::registry::{PlanRegistry, PlanShape, WarmReport};
use crate::shard::{self, ShardPolicy};
use crate::Manifest;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use stencil_core::{Domain, Pattern, Plan, PlanError, Tuning};
use stencil_grid::{Grid1D, Grid2D, Grid3D, PingPong};
use stencil_runtime::sync::{Condvar, Mutex};

/// A job's input (and its result's output) domain.
#[derive(Debug, Clone)]
pub enum JobDomain {
    /// 1D grid.
    D1(Grid1D),
    /// 2D grid.
    D2(Grid2D),
    /// 3D grid.
    D3(Grid3D),
}

impl JobDomain {
    /// Total grid points.
    pub fn points(&self) -> usize {
        match self {
            JobDomain::D1(g) => g.len(),
            JobDomain::D2(g) => g.ny() * g.nx(),
            JobDomain::D3(g) => g.nz() * g.ny() * g.nx(),
        }
    }

    /// The extents, outermost first.
    pub fn extents(&self) -> Vec<usize> {
        match self {
            JobDomain::D1(g) => vec![g.len()],
            JobDomain::D2(g) => vec![g.ny(), g.nx()],
            JobDomain::D3(g) => vec![g.nz(), g.ny(), g.nx()],
        }
    }
}

/// A unit of work: advance `domain` by `steps` applications of
/// `pattern`.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The stencil to apply.
    pub pattern: Pattern,
    /// Input state.
    pub domain: JobDomain,
    /// Time steps to advance.
    pub steps: usize,
    /// Per-job tuning override (`None` = the service default).
    pub tuning: Option<Tuning>,
    /// Queue-wait deadline: a job still queued this long after
    /// submission is shed at dequeue with
    /// [`ServeError::DeadlineExceeded`] instead of burning pool time on
    /// an answer nobody is waiting for (`None` = no deadline).
    pub deadline: Option<Duration>,
}

impl JobSpec {
    /// Job with the service's default tuning mode.
    pub fn new(pattern: Pattern, domain: JobDomain, steps: usize) -> Self {
        Self {
            pattern,
            domain,
            steps,
            tuning: None,
            deadline: None,
        }
    }

    /// Set a queue-wait deadline in milliseconds.
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline = Some(Duration::from_millis(ms));
        self
    }
}

/// A completed job.
#[derive(Debug)]
pub struct JobResult {
    /// The advanced domain.
    pub output: JobDomain,
    /// Slabs the job was executed as (1 = unsharded).
    pub shards: usize,
    /// True when the job rode a multi-job batch.
    pub batched: bool,
    /// End-to-end latency, submission to completion.
    pub latency: Duration,
    /// Epoch of the plan generation that executed the job. Bumps when
    /// the retuning decider hot-swaps the job's registry entry — a job
    /// resolved before a swap finishes on (and reports) the old
    /// generation.
    pub epoch: u64,
    /// Where the latency went: queue wait, compute, blocked IO and
    /// (informationally) IO overlapped with compute. The first three
    /// sum to `latency` exactly.
    pub timeline: stencil_obs::Timeline,
}

/// Why a job was refused or failed.
#[derive(Debug)]
pub enum ServeError {
    /// `try_submit` on a full queue — the backpressure signal; retry
    /// later or use the blocking `submit`.
    Backpressure {
        /// The queue capacity that was exhausted.
        capacity: usize,
    },
    /// The service is shutting down; no further jobs are accepted.
    ShuttingDown,
    /// Plan compilation or execution failed.
    Plan(PlanError),
    /// The executor dropped the job without completing it (worker
    /// panic) — should not happen; surfaced instead of hanging the
    /// waiter.
    WorkerLost,
    /// An out-of-core-routed job failed in the streaming executor or
    /// its file-backed store (IO, budget, crash detection).
    Ooc(stencil_ooc::OocError),
    /// The job's queue-wait deadline expired before a worker dequeued
    /// it; the executor shed it without running.
    DeadlineExceeded {
        /// The deadline the job carried, in milliseconds.
        deadline_ms: u64,
        /// How long the job had actually waited when it was shed.
        waited_ms: u64,
    },
    /// The job's registry key is quarantined: previous jobs on this
    /// key panicked repeatedly, so further submissions are refused with
    /// a typed error instead of killing every batch that touches it.
    Quarantined {
        /// The quarantined registry key.
        key: String,
        /// Consecutive panics observed on the key.
        panics: u32,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Backpressure { capacity } => write!(
                f,
                "submission queue is full ({capacity} jobs): backpressure — retry or block"
            ),
            ServeError::ShuttingDown => write!(f, "the service is shutting down"),
            ServeError::Plan(e) => write!(f, "plan error: {e}"),
            ServeError::WorkerLost => write!(f, "the executor dropped this job"),
            ServeError::Ooc(e) => write!(f, "out-of-core execution failed: {e}"),
            ServeError::DeadlineExceeded {
                deadline_ms,
                waited_ms,
            } => write!(
                f,
                "deadline exceeded: job shed after waiting {waited_ms} ms \
                 (deadline {deadline_ms} ms)"
            ),
            ServeError::Quarantined { key, panics } => write!(
                f,
                "plan key {key:?} is quarantined after {panics} consecutive panics"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<PlanError> for ServeError {
    fn from(e: PlanError) -> Self {
        ServeError::Plan(e)
    }
}

impl From<stencil_ooc::OocError> for ServeError {
    fn from(e: stencil_ooc::OocError) -> Self {
        ServeError::Ooc(e)
    }
}

/// When to route an oversized 3D job through the out-of-core streaming
/// executor instead of the resident (possibly sharded) path.
///
/// Sharding splits a job *across workers* but still holds the whole
/// domain (plus halos) in memory; the out-of-core path caps residency
/// at the streaming executor's `budget_bytes` by marching file-backed
/// z-slab windows — bit-identical to the resident run. Routing is per
/// job: only 3D jobs above [`OocThreshold::max_resident_points`] whose
/// plan is [`stencil_ooc::streamable`] take the streaming path;
/// everything else falls through to the usual resident executor.
#[derive(Debug, Clone)]
pub struct OocThreshold {
    /// 3D jobs above this many grid points stream through the store.
    pub max_resident_points: usize,
    /// The streaming executor's knobs (resident window budget, pass
    /// depth, prefetch) for the jobs that do.
    pub stream: stencil_ooc::OocConfig,
}

impl Default for OocThreshold {
    fn default() -> Self {
        Self {
            // 128 Mi points = 1 GiB of f64 payload before padding
            max_resident_points: 1 << 27,
            stream: stencil_ooc::OocConfig::default(),
        }
    }
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker-pool threads unsharded runs parallelize over.
    pub threads: usize,
    /// Executor worker threads draining the queue.
    pub workers: usize,
    /// Submission queue capacity (backpressure bound).
    pub queue_capacity: usize,
    /// Most same-plan jobs drained per batch.
    pub batch_max: usize,
    /// Default tuning mode for plan compilation.
    pub tuning: Tuning,
    /// When and how much to shard large 2D/3D jobs.
    pub shard: ShardPolicy,
    /// Time source for latency telemetry (wall clock by default; tests
    /// and the CI retune scenario inject a
    /// [`VirtualClock`](crate::adapt::VirtualClock)).
    pub clock: SharedClock,
    /// Adaptive retuning knobs (disabled by default).
    pub adapt: AdaptConfig,
    /// Route oversized streamable 3D jobs through the out-of-core
    /// executor (`None` = always resident).
    pub ooc: Option<OocThreshold>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            threads: stencil_runtime::available_parallelism(),
            workers: 2,
            queue_capacity: 64,
            batch_max: 8,
            tuning: Tuning::Static,
            shard: ShardPolicy::default(),
            clock: SharedClock::wall(),
            adapt: AdaptConfig::default(),
            ooc: None,
        }
    }
}

/// One-slot promise the waiter blocks on. `completed` records that a
/// result was *delivered* (even if already consumed by `try_take`), so
/// the executor's drop-completion can tell "never finished" apart from
/// "finished and collected".
struct TicketState {
    result: Option<Result<JobResult, ServeError>>,
    completed: bool,
}

struct TicketCell {
    state: Mutex<TicketState>,
    done: Condvar,
}

impl TicketCell {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(TicketState {
                result: None,
                completed: false,
            }),
            done: Condvar::new(),
        })
    }

    fn complete(&self, r: Result<JobResult, ServeError>) {
        let mut st = self.state.lock();
        st.result = Some(r);
        st.completed = true;
        drop(st);
        self.done.notify_all();
    }
}

/// The executor's side of a ticket. Completion-on-drop: if the job is
/// dropped without an explicit [`TicketHandle::complete`] — a worker
/// panic unwinding the batch, a queue discarded mid-drain — the waiter
/// is woken with [`ServeError::WorkerLost`] instead of parking forever
/// (a plain `Arc` drop would never notify the condvar). A ticket that
/// did complete is left alone even when `try_take` already consumed
/// the result — the `completed` flag, not slot emptiness, is the
/// authority.
struct TicketHandle(Arc<TicketCell>);

impl TicketHandle {
    fn complete(&self, r: Result<JobResult, ServeError>) {
        self.0.complete(r);
    }
}

impl Drop for TicketHandle {
    fn drop(&mut self) {
        let mut st = self.0.state.lock();
        if !st.completed {
            st.result = Some(Err(ServeError::WorkerLost));
            st.completed = true;
            drop(st);
            self.0.done.notify_all();
        }
    }
}

/// Handle to a submitted job; [`JobTicket::wait`] blocks until the
/// executor completes it.
pub struct JobTicket {
    cell: Arc<TicketCell>,
}

impl std::fmt::Debug for JobTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobTicket")
            .field("done", &self.cell.state.lock().completed)
            .finish()
    }
}

impl JobTicket {
    /// Block until the job completes. A job whose executor died
    /// resolves to [`ServeError::WorkerLost`] (the executor side
    /// completes on drop), so this never parks forever — including
    /// after a [`JobTicket::try_take`] already consumed the result
    /// (which returns `WorkerLost` here rather than blocking).
    pub fn wait(self) -> Result<JobResult, ServeError> {
        let mut st = self.cell.state.lock();
        loop {
            if let Some(r) = st.result.take() {
                return r;
            }
            if st.completed {
                // delivered but consumed by an earlier try_take
                return Err(ServeError::WorkerLost);
            }
            // belt and braces alongside TicketHandle's drop-complete:
            // if the executor's handle is somehow gone without filling
            // the slot, fail fast instead of waiting
            if Arc::strong_count(&self.cell) == 1 {
                return Err(ServeError::WorkerLost);
            }
            self.cell.done.wait(&mut st);
        }
    }

    /// The result if already available (non-blocking, consumes it).
    pub fn try_take(&self) -> Option<Result<JobResult, ServeError>> {
        self.cell.state.lock().result.take()
    }
}

/// How a job executes — decided once, at submission (`resolve`), from
/// the spec, the service configuration and the resolved plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobRoute {
    /// One `Plan::run_*` on the shared pool.
    Resident,
    /// This many (> 1) single-thread slabs along the outer axis.
    Sharded(usize),
    /// A 3D job through the file-backed out-of-core executor.
    Streamed,
}

impl JobRoute {
    /// Slabs the job executes as (1 = unsharded).
    fn shards(self) -> usize {
        match self {
            JobRoute::Sharded(n) => n,
            JobRoute::Resident | JobRoute::Streamed => 1,
        }
    }
}

struct Job {
    /// Service-unique job id — the span correlation tag all of this
    /// job's trace events carry.
    id: u64,
    key: String,
    plan: Arc<Plan>,
    route: JobRoute,
    domain: JobDomain,
    steps: usize,
    ticket: TicketHandle,
    /// Queue-wait deadline carried from the spec.
    deadline: Option<Duration>,
    /// Submission time on the service clock (virtual in tests).
    submitted: Duration,
    /// Submission time on the obs clock (0 when tracing is disabled) —
    /// the queue-wait span's start, stamped on the submitting thread
    /// and closed on the executing one.
    enqueued_obs_us: u64,
}

struct Inner {
    cfg: ServeConfig,
    registry: Arc<PlanRegistry>,
    queue: Bounded<Job>,
    stats: Arc<ServeStats>,
    closing: AtomicBool,
    next_job_id: AtomicU64,
    /// Unix seconds when the service started (the `/healthz` uptime
    /// anchor).
    started_unix: u64,
}

/// The tuning-aware stencil job service (see the crate docs for the
/// architecture).
pub struct StencilService {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Present when `cfg.adapt.enabled`: the retuning control loop,
    /// tickable by hand ([`StencilService::retune_tick`]) and, with a
    /// non-zero `adapt.interval`, driven by `adapt_thread`.
    decider: Option<Arc<Decider>>,
    adapt_thread: Option<std::thread::JoinHandle<()>>,
}

impl StencilService {
    /// Start a service: spawns the executor workers and the shared
    /// worker pool. No plans are compiled yet — call
    /// [`StencilService::warm`] with a manifest to pre-compile the
    /// expected patterns.
    pub fn start(cfg: ServeConfig) -> Self {
        let stats = Arc::new(ServeStats::new());
        let inner = Arc::new(Inner {
            registry: Arc::new(PlanRegistry::new(
                cfg.threads,
                cfg.shard,
                Arc::clone(&stats),
            )),
            queue: Bounded::new(cfg.queue_capacity),
            stats,
            closing: AtomicBool::new(false),
            next_job_id: AtomicU64::new(1),
            started_unix: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            cfg,
        });
        let workers = (0..inner.cfg.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("stencil-serve-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("failed to spawn executor worker")
            })
            .collect();
        let decider = inner.cfg.adapt.enabled.then(|| {
            Arc::new(Decider::new(
                inner.cfg.adapt.clone(),
                Arc::clone(&inner.registry),
                Arc::clone(&inner.stats),
                Box::new(ProbeLane::new()),
            ))
        });
        // the background lane: low-duty decider ticks between sleeps,
        // joined on shutdown. A zero interval means manual ticks only —
        // what deterministic tests use.
        let adapt_thread = decider.as_ref().and_then(|d| {
            let interval = inner.cfg.adapt.interval;
            if interval.is_zero() {
                return None;
            }
            let decider = Arc::clone(d);
            let inner = Arc::clone(&inner);
            Some(
                std::thread::Builder::new()
                    .name("stencil-serve-retune".into())
                    .spawn(move || {
                        // sleep in short slices so shutdown joins
                        // promptly even under a long tick interval
                        let slice = Duration::from_millis(10).min(interval);
                        let mut slept = Duration::ZERO;
                        while !inner.closing.load(Ordering::Acquire) {
                            std::thread::sleep(slice);
                            slept += slice;
                            if slept >= interval {
                                slept = Duration::ZERO;
                                decider.tick();
                            }
                        }
                    })
                    .expect("failed to spawn retune decider"),
            )
        });
        Self {
            inner,
            workers,
            decider,
            adapt_thread,
        }
    }

    /// Run one retuning decider pass by hand; returns how many registry
    /// entries were hot-swapped (always 0 when `adapt.enabled` is
    /// off). With `adapt.interval == 0` this is the *only* way ticks
    /// run, which is what makes seeded scenarios reproducible.
    pub fn retune_tick(&self) -> usize {
        self.decider.as_ref().map(|d| d.tick()).unwrap_or(0)
    }

    /// The registry as a shared handle — lets an external retuning
    /// decider (e.g. a [`ScriptedLane`](crate::adapt::ScriptedLane)
    /// harness in tests) operate on the live service's plans.
    pub fn registry_handle(&self) -> Arc<PlanRegistry> {
        Arc::clone(&self.inner.registry)
    }

    /// Pre-compile every pattern a manifest declares (warm-at-startup;
    /// see [`PlanRegistry::warm`] for the cold-start semantics).
    pub fn warm(&self, manifest: &Manifest) -> WarmReport {
        self.inner.registry.warm(manifest)
    }

    /// The plan registry (for introspection; plans register through
    /// submission automatically).
    pub fn registry(&self) -> &PlanRegistry {
        &self.inner.registry
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner
            .stats
            .queue_depth
            .store(self.inner.queue.len() as u64, Ordering::Relaxed);
        self.inner.stats.snapshot()
    }

    /// The live stats surface itself — for front ends (the network
    /// layer) that update counters alongside the service rather than
    /// through it.
    pub fn stats_handle(&self) -> Arc<ServeStats> {
        Arc::clone(&self.inner.stats)
    }

    /// Current `(depth, capacity)` of the submission queue — the cheap
    /// backlog probe behind admission backoff hints.
    pub fn queue_backlog(&self) -> (usize, usize) {
        (self.inner.queue.len(), self.inner.queue.capacity())
    }

    /// Unix seconds when this service started (the `/healthz` uptime
    /// anchor).
    pub fn started_unix(&self) -> u64 {
        self.inner.started_unix
    }

    /// Submit a job, blocking while the queue is full (closed-loop
    /// backpressure). Plan resolution happens here, so an invalid
    /// pattern/configuration fails synchronously with a typed error.
    pub fn submit(&self, spec: JobSpec) -> Result<JobTicket, ServeError> {
        self.enqueue(spec, true)
    }

    /// Submit without blocking: a full queue returns
    /// [`ServeError::Backpressure`] immediately (load shedding).
    pub fn try_submit(&self, spec: JobSpec) -> Result<JobTicket, ServeError> {
        self.enqueue(spec, false)
    }

    /// The execution decision for a spec: registry key, compiled plan
    /// and route. Large 2D/3D jobs resolve to the block-free registry
    /// shape (the configuration the single-thread slab lanes clone);
    /// everything else gets the pooled tiled plan.
    fn resolve(&self, spec: &JobSpec) -> Result<(String, Arc<Plan>, JobRoute), ServeError> {
        let inner = &self.inner;
        let extents = spec.domain.extents();
        if spec.pattern.dims() != extents.len() {
            return Err(ServeError::Plan(PlanError::DimensionMismatch {
                pattern_dims: spec.pattern.dims(),
                domain_dims: extents.len(),
            }));
        }
        let tuning = spec.tuning.unwrap_or(inner.cfg.tuning);
        let halo = spec.steps * spec.pattern.radius();
        let want_shards = if spec.pattern.dims() >= 2 {
            inner
                .cfg
                .shard
                .shards_for(spec.domain.points(), extents[0], halo)
        } else {
            1
        };
        let shape = if want_shards > 1 {
            PlanShape::BlockFree
        } else {
            PlanShape::Pooled
        };
        let (key, plan) = inner
            .registry
            .entry_for(&spec.pattern, Some(&extents), tuning, shape)?;
        // the out-of-core gate outranks sharding: a domain too big to
        // hold resident is too big to hold in sharded halves too
        let streams = inner.cfg.ooc.as_ref().is_some_and(|th| {
            matches!(spec.domain, JobDomain::D3(_))
                && spec.domain.points() > th.max_resident_points
                && stencil_ooc::streamable(&plan)
        });
        let route = if streams {
            JobRoute::Streamed
        } else if want_shards > 1 && shard::shardable(&plan) {
            JobRoute::Sharded(want_shards)
        } else {
            JobRoute::Resident
        };
        Ok((key, plan, route))
    }

    /// The plan (and shard count) a spec would execute with — the same
    /// decision [`StencilService::submit`] makes, exposed for
    /// introspection and tests.
    pub fn plan_for(&self, spec: &JobSpec) -> Result<(Arc<Plan>, usize), ServeError> {
        let (_, plan, route) = self.resolve(spec)?;
        Ok((plan, route.shards()))
    }

    fn enqueue(&self, spec: JobSpec, block: bool) -> Result<JobTicket, ServeError> {
        let inner = &self.inner;
        if inner.closing.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        let (key, plan, route) = self.resolve(&spec)?;
        if let Some(panics) = inner.registry.quarantined(&key) {
            inner.stats.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            inner.stats.jobs_quarantined.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Quarantined { key, panics });
        }
        let ticket = TicketCell::new();
        let job = Job {
            id: inner.next_job_id.fetch_add(1, Ordering::Relaxed),
            key,
            plan,
            route,
            domain: spec.domain,
            steps: spec.steps,
            ticket: TicketHandle(Arc::clone(&ticket)),
            deadline: spec.deadline,
            submitted: inner.cfg.clock.now(),
            enqueued_obs_us: if stencil_obs::enabled() {
                stencil_obs::now_us()
            } else {
                0
            },
        };
        let pushed = if block {
            inner.queue.push(job)
        } else {
            inner.queue.try_push(job)
        };
        match pushed {
            Ok(()) => {
                inner.stats.jobs_submitted.fetch_add(1, Ordering::Relaxed);
                inner
                    .stats
                    .queue_depth
                    .store(inner.queue.len() as u64, Ordering::Relaxed);
                Ok(JobTicket { cell: ticket })
            }
            Err(PushError::Full(_)) => {
                inner.stats.jobs_rejected.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Backpressure {
                    capacity: inner.queue.capacity(),
                })
            }
            Err(PushError::Closed(_)) => Err(ServeError::ShuttingDown),
        }
    }

    /// Graceful shutdown: stop accepting jobs, drain the queue, join
    /// the workers, release the shared pool if nothing else pins it,
    /// and return the final statistics.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.inner.closing.store(true, Ordering::Release);
        self.inner.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(t) = self.adapt_thread.take() {
            let _ = t.join();
        }
        let stats = self.inner.stats.snapshot();
        // the registry (and its plans, each pinning the shared pool)
        // lives inside `inner`: it must be dropped *before* the purge,
        // or the pool's worker threads survive as unreclaimable —
        // callers that cloned plan Arcs out keep the pool alive, which
        // is the documented contract
        drop(self);
        stencil_runtime::purge_shared();
        stats
    }
}

impl Drop for StencilService {
    fn drop(&mut self) {
        self.inner.closing.store(true, Ordering::Release);
        self.inner.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(t) = self.adapt_thread.take() {
            let _ = t.join();
        }
    }
}

fn worker_loop(inner: &Inner) {
    while let Some(batch) = inner
        .queue
        .pop_batch(inner.cfg.batch_max, |a, b| a.key == b.key)
    {
        inner
            .stats
            .queue_depth
            .store(inner.queue.len() as u64, Ordering::Relaxed);
        inner.stats.record_batch(batch.len());
        let batched = batch.len() > 1;
        let _drain = stencil_obs::span(stencil_obs::SpanId::BatchDrain);
        for job in batch {
            // a panicking job (the pool re-raises worker-job panics on
            // this thread) must not kill the executor: the unwinding
            // drop of the job's TicketHandle resolves its waiter with
            // WorkerLost, and this worker lives on to serve the rest
            // of the queue
            let key = job.key.clone();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                execute(inner, job, batched);
            }));
            if outcome.is_err() {
                inner.stats.jobs_failed.fetch_add(1, Ordering::Relaxed);
                let panics = inner.registry.note_panic(&key);
                inner
                    .stats
                    .warn("a job panicked in the executor; its waiter received WorkerLost");
                if panics == crate::registry::QUARANTINE_PANICS {
                    inner.stats.warn(format!(
                        "plan key {key:?} quarantined after {panics} consecutive panics"
                    ));
                }
            } else {
                inner.registry.note_panic_free(&key);
            }
        }
    }
}

fn execute(inner: &Inner, job: Job, batched: bool) {
    // queue wait ends now, at dequeue: measured on the service clock
    // for the timeline, and recorded as a span from the obs-clock
    // stamp the submitting thread left on the job
    let dequeued = inner.cfg.clock.now();
    let waited = dequeued.saturating_sub(job.submitted);
    let queue_us = waited.as_micros() as u64;
    if job.enqueued_obs_us != 0 {
        stencil_obs::record_for_job(
            stencil_obs::SpanId::QueueWait,
            job.id,
            job.enqueued_obs_us,
            stencil_obs::now_us(),
        );
    }
    // deadline shedding happens here, at dequeue: a job whose queue
    // wait already blew its deadline is completed with a typed error
    // without spending a single pool cycle on it
    if let Some(deadline) = job.deadline {
        if waited > deadline {
            inner.stats.jobs_shed.fetch_add(1, Ordering::Relaxed);
            job.ticket.complete(Err(ServeError::DeadlineExceeded {
                deadline_ms: deadline.as_millis() as u64,
                waited_ms: waited.as_millis() as u64,
            }));
            return;
        }
    }
    // the job's grid goes to the run by value: a sharded job stitches
    // its result back into it
    let extents = job.domain.extents();
    let outcome = stencil_obs::with_job(job.id, || {
        run_job(inner, &job.key, &job.plan, job.route, job.domain, job.steps)
    });
    let latency = inner.cfg.clock.now().saturating_sub(job.submitted);
    let latency_us = latency.as_micros() as u64;
    let epoch = job.plan.epoch();
    let io = match &outcome {
        Ok((_, io)) => *io,
        Err(_) => ExecIo::default(),
    };
    // compute is the remainder, so queue + compute + io == latency
    // exactly (overlap is informational and deliberately outside the
    // sum — it is time IO ran *under* compute, not in addition to it)
    let timeline = stencil_obs::Timeline {
        queue_us,
        compute_us: latency_us
            .saturating_sub(queue_us)
            .saturating_sub(io.blocked_us),
        io_us: io.blocked_us,
        overlap_us: io.overlap_us,
    };
    inner.stats.latency.record(latency);
    // per-plan telemetry: the retuning decider's hot-key input. The
    // extents closure only runs when this key's first job creates the
    // entry.
    inner
        .stats
        .traffic
        .record(&job.key, latency, epoch, timeline, || extents);
    match outcome {
        Ok((output, _)) => {
            let shards = job.route.shards();
            inner.stats.jobs_completed.fetch_add(1, Ordering::Relaxed);
            if shards > 1 {
                inner.stats.sharded_jobs.fetch_add(1, Ordering::Relaxed);
                inner
                    .stats
                    .shards_executed
                    .fetch_add(shards as u64, Ordering::Relaxed);
            }
            job.ticket.complete(Ok(JobResult {
                output,
                shards,
                batched,
                latency,
                epoch,
                timeline,
            }));
        }
        Err(e) => {
            inner.stats.jobs_failed.fetch_add(1, Ordering::Relaxed);
            job.ticket.complete(Err(e));
        }
    }
}

/// Storage-time accounting of one executed job — zero for resident
/// jobs, the streaming report's split for out-of-core ones.
#[derive(Debug, Clone, Copy, Default)]
struct ExecIo {
    /// Microseconds the job sat blocked on storage.
    blocked_us: u64,
    /// Microseconds of IO hidden under compute (prefetch overlap).
    overlap_us: u64,
}

/// A collision-resistant stable path for an out-of-core job's backing
/// store, derived from the registry key, shape, step count and the
/// domain contents (FNV-1a over the raw bits). A resubmission of the
/// same job lands on the same path, which is what lets the streaming
/// executor recover and resume an earlier interrupted attempt.
fn ooc_store_path(key: &str, g: &Grid3D, steps: usize) -> std::path::PathBuf {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    };
    eat(key.as_bytes());
    for v in [g.nz(), g.ny(), g.nx(), steps] {
        eat(&(v as u64).to_le_bytes());
    }
    for z in 0..g.nz() {
        for y in 0..g.ny() {
            for v in g.row(z, y) {
                eat(&v.to_bits().to_le_bytes());
            }
        }
    }
    let mut p = std::env::temp_dir();
    p.push(format!("stencil-serve-ooc-{h:016x}.slab"));
    p
}

/// Advance a job's own grid by `steps` as one surface of the pair the
/// plan sweeps; `scratch`, of the grid's shape, is the other.
fn sweep_owned<D: Domain>(plan: &Plan, grid: D, scratch: D, steps: usize) -> Result<D, PlanError> {
    let mut pair = PingPong::from_pair(grid, scratch);
    plan.run_pair_at(&mut pair, steps, 0)?;
    Ok(pair.into_current())
}

fn run_job(
    inner: &Inner,
    key: &str,
    plan: &Arc<Plan>,
    route: JobRoute,
    domain: JobDomain,
    steps: usize,
) -> Result<(JobDomain, ExecIo), ServeError> {
    let resident = ExecIo::default();
    if stencil_faults::should_fire(stencil_faults::Failpoint::WorkerPanic) {
        panic!("injected failpoint: worker_panic");
    }
    Ok(match (route, domain) {
        (JobRoute::Resident, JobDomain::D1(g)) => {
            let scratch = Grid1D::zeros(g.len());
            (
                JobDomain::D1(sweep_owned(plan, g, scratch, steps)?),
                resident,
            )
        }
        (JobRoute::Resident, JobDomain::D2(g)) => {
            let scratch = Grid2D::zeros(g.ny(), g.nx());
            (
                JobDomain::D2(sweep_owned(plan, g, scratch, steps)?),
                resident,
            )
        }
        (JobRoute::Resident, JobDomain::D3(g)) => {
            let scratch = Grid3D::zeros(g.nz(), g.ny(), g.nx());
            (
                JobDomain::D3(sweep_owned(plan, g, scratch, steps)?),
                resident,
            )
        }
        (JobRoute::Sharded(n), JobDomain::D2(g)) => {
            let lanes = inner.registry.lane_plans(key, plan, n)?;
            let out = shard::run_sharded_2d_owned(&lanes, g, steps, n)?;
            (JobDomain::D2(out), resident)
        }
        (JobRoute::Sharded(n), JobDomain::D3(g)) => {
            let lanes = inner.registry.lane_plans(key, plan, n)?;
            let out = shard::run_sharded_3d_owned(&lanes, g, steps, n)?;
            (JobDomain::D3(out), resident)
        }
        (JobRoute::Streamed, JobDomain::D3(g)) => {
            let cfg = &inner
                .cfg
                .ooc
                .as_ref()
                .expect("resolve streams only with an ooc config")
                .stream;
            // content-keyed store path: a failed attempt leaves its
            // store behind, and a resubmission of the same job recovers
            // it and resumes from the committed round instead of
            // starting over
            let path = ooc_store_path(key, &g, steps);
            let (out, report) =
                stencil_ooc::run_streaming_grid_resumable(plan, &g, steps, cfg, &path)?;
            inner.stats.ooc_jobs.fetch_add(1, Ordering::Relaxed);
            inner.stats.record_ooc(&report.stats);
            let io = ExecIo {
                blocked_us: report.io_blocked_us,
                overlap_us: report.io_overlap_us,
            };
            (JobDomain::D3(out), io)
        }
        (JobRoute::Sharded(_), JobDomain::D1(_)) | (JobRoute::Streamed, _) => {
            unreachable!("resolve shards only 2D/3D jobs and streams only 3D ones")
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::kernels;

    fn small_cfg() -> ServeConfig {
        ServeConfig {
            threads: 2,
            workers: 2,
            queue_capacity: 8,
            batch_max: 4,
            tuning: Tuning::Static,
            shard: ShardPolicy {
                min_points: 1 << 30, // effectively off unless a test opts in
                ..ShardPolicy::default()
            },
            ..ServeConfig::default()
        }
    }

    #[test]
    fn serves_jobs_of_every_dimensionality() {
        let svc = StencilService::start(small_cfg());
        let t1 = svc
            .submit(JobSpec::new(
                kernels::heat1d(),
                JobDomain::D1(Grid1D::from_fn(512, |i| (i % 7) as f64)),
                8,
            ))
            .unwrap();
        let t2 = svc
            .submit(JobSpec::new(
                kernels::heat2d(),
                JobDomain::D2(Grid2D::from_fn(48, 40, |y, x| ((y + x) % 5) as f64)),
                4,
            ))
            .unwrap();
        let t3 = svc
            .submit(JobSpec::new(
                kernels::heat3d(),
                JobDomain::D3(Grid3D::from_fn(10, 12, 14, |z, y, x| {
                    ((z + y + x) % 3) as f64
                })),
                2,
            ))
            .unwrap();
        for t in [t1, t2, t3] {
            let r = t.wait().unwrap();
            assert_eq!(r.shards, 1);
        }
        let stats = svc.shutdown();
        assert_eq!(stats.jobs_completed, 3);
        assert_eq!(stats.jobs_failed, 0);
        assert!(stats.p99_us > 0);
    }

    #[test]
    fn results_match_a_direct_plan_run() {
        let svc = StencilService::start(small_cfg());
        let g = Grid2D::from_fn(40, 36, |y, x| ((y * 3 + x) % 11) as f64);
        let ticket = svc
            .submit(JobSpec::new(
                kernels::box2d9p(),
                JobDomain::D2(g.clone()),
                5,
            ))
            .unwrap();
        let served = match ticket.wait().unwrap().output {
            JobDomain::D2(out) => out,
            _ => panic!("wrong dimensionality"),
        };
        // the service's plan for this spec is the reference
        let (plan, shards) = svc
            .plan_for(&JobSpec::new(
                kernels::box2d9p(),
                JobDomain::D2(g.clone()),
                5,
            ))
            .unwrap();
        assert_eq!(shards, 1);
        let want = plan.run_2d(&g, 5).unwrap();
        assert_eq!(want.to_dense(), served.to_dense());
        svc.shutdown();
    }

    #[test]
    fn dimension_mismatch_is_synchronous() {
        let svc = StencilService::start(small_cfg());
        let err = svc
            .submit(JobSpec::new(
                kernels::heat2d(),
                JobDomain::D1(Grid1D::zeros(64)),
                1,
            ))
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::Plan(PlanError::DimensionMismatch { .. })
        ));
        let stats = svc.shutdown();
        assert_eq!(stats.jobs_submitted, 0);
    }

    #[test]
    fn sharding_kicks_in_for_large_jobs_and_matches_unsharded() {
        let mut cfg = small_cfg();
        cfg.shard = ShardPolicy {
            min_points: 1,
            max_shards: 3,
            min_slab: 4,
        };
        let svc = StencilService::start(cfg);
        let g = Grid2D::from_fn(90, 32, |y, x| ((y * 7 + x * 3) % 13) as f64);
        let steps = 3;
        let ticket = svc
            .submit(JobSpec::new(
                kernels::heat2d(),
                JobDomain::D2(g.clone()),
                steps,
            ))
            .unwrap();
        let r = ticket.wait().unwrap();
        assert!(r.shards > 1, "expected sharding, got {} shard(s)", r.shards);
        let served = match r.output {
            JobDomain::D2(out) => out,
            _ => panic!("wrong dimensionality"),
        };
        let (plan, shards) = svc
            .plan_for(&JobSpec::new(
                kernels::heat2d(),
                JobDomain::D2(g.clone()),
                steps,
            ))
            .unwrap();
        assert!(shards > 1);
        let want = plan.run_2d(&g, steps).unwrap();
        let wb: Vec<u64> = want.to_dense().iter().map(|v| v.to_bits()).collect();
        let gb: Vec<u64> = served.to_dense().iter().map(|v| v.to_bits()).collect();
        assert_eq!(wb, gb, "sharded result must be bit-identical");
        let stats = svc.shutdown();
        assert_eq!(stats.sharded_jobs, 1);
        assert!(stats.shards_executed >= 2);
    }

    #[test]
    fn try_submit_sheds_load_when_full() {
        // one worker, tiny queue, slow-ish jobs: the queue must fill
        let cfg = ServeConfig {
            workers: 1,
            queue_capacity: 2,
            ..small_cfg()
        };
        let svc = StencilService::start(cfg);
        let spec = || {
            JobSpec::new(
                kernels::heat2d(),
                JobDomain::D2(Grid2D::from_fn(96, 96, |y, x| ((y + x) % 9) as f64)),
                200,
            )
        };
        let mut tickets = Vec::new();
        let mut saw_backpressure = false;
        for _ in 0..32 {
            match svc.try_submit(spec()) {
                Ok(t) => tickets.push(t),
                Err(ServeError::Backpressure { capacity }) => {
                    assert_eq!(capacity, 2);
                    saw_backpressure = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(saw_backpressure, "a 2-slot queue must reject eventually");
        for t in tickets {
            t.wait().unwrap();
        }
        let stats = svc.shutdown();
        assert!(stats.jobs_rejected >= 1);
        assert_eq!(stats.jobs_failed, 0);
    }

    #[test]
    fn same_plan_jobs_batch() {
        // one worker and a stream of identical-plan jobs: at least one
        // multi-job batch must form while the worker is busy
        let cfg = ServeConfig {
            workers: 1,
            queue_capacity: 64,
            batch_max: 8,
            ..small_cfg()
        };
        let svc = StencilService::start(cfg);
        let tickets: Vec<_> = (0..24)
            .map(|i| {
                svc.submit(JobSpec::new(
                    kernels::heat1d(),
                    JobDomain::D1(Grid1D::from_fn(8192, |j| ((i + j) % 13) as f64)),
                    64,
                ))
                .unwrap()
            })
            .collect();
        let mut any_batched = false;
        for t in tickets {
            any_batched |= t.wait().unwrap().batched;
        }
        let stats = svc.shutdown();
        assert_eq!(stats.jobs_completed, 24);
        assert!(
            any_batched && stats.batched_jobs > 0 && stats.max_batch > 1,
            "expected batching: {stats:?}"
        );
    }

    #[test]
    fn dropped_executor_handle_fails_the_waiter_instead_of_hanging() {
        // simulates a worker panic unwinding a job: the executor-side
        // handle is dropped without complete(); the parked waiter must
        // be woken with WorkerLost, not left blocked forever
        let cell = TicketCell::new();
        let ticket = JobTicket {
            cell: Arc::clone(&cell),
        };
        let handle = TicketHandle(cell);
        let waiter = std::thread::spawn(move || ticket.wait());
        std::thread::sleep(Duration::from_millis(30));
        drop(handle);
        match waiter.join().unwrap() {
            Err(ServeError::WorkerLost) => {}
            other => panic!("expected WorkerLost, got {other:?}"),
        }
    }

    #[test]
    fn oversized_jobs_stream_out_of_core_and_match_the_resident_run() {
        // the ooc gate outranks sharding: even with an eager shard
        // policy, a 3D job above the threshold goes through the
        // file-backed streaming executor — bit-exactly
        let mut cfg = small_cfg();
        cfg.shard = ShardPolicy {
            min_points: 1,
            max_shards: 2,
            min_slab: 4,
        };
        cfg.ooc = Some(OocThreshold {
            max_resident_points: 8192, // the big job is 16384 points
            // a budget of ~32 window planes forces several windows
            stream: stencil_ooc::OocConfig {
                budget_bytes: 32 * Grid3D::zeros(1, 16, 16).stride_z() * 8 * 5,
                ..Default::default()
            },
        });
        let svc = StencilService::start(cfg);
        let big = Grid3D::from_fn(64, 16, 16, |z, y, x| ((z * 5 + y * 3 + x) % 17) as f64);
        let small = Grid3D::from_fn(8, 12, 12, |z, y, x| ((z + y + x) % 3) as f64);
        let spec = |g: &Grid3D| JobSpec::new(kernels::heat3d(), JobDomain::D3(g.clone()), 4);
        let t_big = svc.submit(spec(&big)).unwrap();
        let t_small = svc.submit(spec(&small)).unwrap();
        let r = t_big.wait().unwrap();
        assert_eq!(r.shards, 1, "ooc-routed jobs report a single shard");
        let served = match r.output {
            JobDomain::D3(out) => out,
            _ => panic!("wrong dimensionality"),
        };
        let (plan, _) = svc.plan_for(&spec(&big)).unwrap();
        let want = plan.run_3d(&big, 4).unwrap();
        assert_eq!(want.to_dense(), served.to_dense());
        t_small.wait().unwrap();
        let stats = svc.shutdown();
        // only the oversized job streamed; the small one stayed resident
        assert_eq!(stats.ooc_jobs, 1, "{stats:?}");
        assert_eq!(stats.jobs_failed, 0);
    }

    #[test]
    fn job_timelines_account_for_the_full_latency() {
        // the timeline decomposition is exact by construction — queue +
        // compute + blocked IO == end-to-end latency — and an
        // ooc-routed job must actually populate the IO components
        let mut cfg = small_cfg();
        cfg.shard = ShardPolicy {
            min_points: 1,
            max_shards: 2,
            min_slab: 4,
        };
        cfg.ooc = Some(OocThreshold {
            max_resident_points: 8192, // the job is 16384 points
            stream: stencil_ooc::OocConfig {
                budget_bytes: 32 * Grid3D::zeros(1, 16, 16).stride_z() * 8 * 5,
                ..Default::default()
            },
        });
        let svc = StencilService::start(cfg);
        let big = Grid3D::from_fn(64, 16, 16, |z, y, x| ((z * 5 + y * 3 + x) % 17) as f64);
        let r = svc
            .submit(JobSpec::new(kernels::heat3d(), JobDomain::D3(big), 4))
            .unwrap()
            .wait()
            .unwrap();
        let latency_us = r.latency.as_micros() as u64;
        let total = r.timeline.total_us();
        // ±5% (plus 1 µs of truncation headroom) — in practice exact
        assert!(
            total.abs_diff(latency_us) <= latency_us / 20 + 1,
            "timeline {:?} does not account for latency {latency_us} µs",
            r.timeline
        );
        // streaming through the file store always pays some blocked IO
        // (the spill into the store and the gather back are never free)
        assert!(r.timeline.io_us > 0, "{:?}", r.timeline);
        let stats = svc.shutdown();
        assert_eq!(stats.ooc_jobs, 1);
        assert!(stats.ooc_bytes_read > 0 && stats.ooc_bytes_written > 0);
        // the per-plan aggregate carries the same breakdown
        let (_, row) = stats
            .plans
            .iter()
            .find(|(_, t)| t.samples == 1)
            .expect("the job's plan key has traffic");
        assert_eq!(row.queue_us, r.timeline.queue_us);
        assert_eq!(row.compute_us, r.timeline.compute_us);
        assert_eq!(row.io_us, r.timeline.io_us);
        assert_eq!(row.overlap_us, r.timeline.overlap_us);
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let svc = StencilService::start(small_cfg());
        let ticket = svc
            .submit(JobSpec::new(
                kernels::heat1d(),
                JobDomain::D1(Grid1D::from_fn(256, |i| i as f64)),
                4,
            ))
            .unwrap();
        let stats = svc.shutdown();
        // the queued job was served before the workers exited
        assert_eq!(stats.jobs_completed, 1);
        ticket.wait().unwrap();
    }
}
