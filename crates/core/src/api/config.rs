//! Solver configuration: method, tiling, width and thread selection.

use super::error::PlanError;
use super::plan_exec::Plan;
use crate::pattern::Pattern;
use stencil_runtime::PoolHandle;

pub use crate::exec::folded3d::Ring3;

/// Vectorization scheme (the methods compared in Fig. 8/9/10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Scalar reference sweep.
    Scalar,
    /// Multiple loads: one unaligned load per tap.
    MultipleLoads,
    /// Data reorganization: aligned loads + shuffles (1D only).
    DataReorg,
    /// Global dimension-lifted transpose (1D block-free, or SDSL when
    /// combined with [`Tiling::Split`]).
    Dlt,
    /// The paper's transpose layout, single-step (§2).
    TransposeLayout,
    /// The paper's temporal computation folding with unrolling factor
    /// `m` (§3); `m = 1` is the register-transpose pipeline without
    /// temporal fusion.
    Folded {
        /// Unrolling factor (time steps fused per register update).
        m: usize,
    },
    /// Let the library choose: [`Solver::compile`] resolves this via
    /// [`crate::tune::auto_method`] (cost-model profitability §3.2 plus
    /// the executor's radius bounds) into one of the concrete methods
    /// above. Query the choice with [`Plan::method`].
    Auto,
}

/// Tiling scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tiling {
    /// Whole-grid Jacobi sweeps (the "block-free" rows of Fig. 8).
    None,
    /// Let the library choose the tiling and its parameters.
    /// [`Solver::compile`] resolves this through the configured
    /// [`Tuning`] mode: statically via
    /// [`crate::tune::auto_tiling`], or empirically via the installed
    /// measured tuner. Query the choice with [`Plan::tiling`], which
    /// never reports `Auto`.
    Auto,
    /// Tessellate tiling (Yuan) with `time_block` inner steps per round.
    Tessellate {
        /// Inner (possibly folded) steps per round.
        time_block: usize,
    },
    /// Split tiling over DLT layout — the SDSL configuration.
    Split {
        /// Inner steps per round.
        time_block: usize,
    },
    /// Spatial blocking only (one step at a time).
    Spatial {
        /// Tile extents `(outer, inner)` = (y,x) in 2D / (z,y) in 3D.
        block: (usize, usize),
    },
}

/// SIMD width selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Width {
    /// Scalar lanes (1): useful for calibration.
    W1,
    /// 4 x f64 (AVX2-class).
    W4,
    /// 8 x f64 (AVX-512-class).
    W8,
}

impl Width {
    /// Widest width with a native backend on this build.
    pub fn native_max() -> Self {
        if stencil_simd::HAS_AVX512 {
            Width::W8
        } else {
            Width::W4
        }
    }

    /// Lane count.
    pub fn lanes(self) -> usize {
        match self {
            Width::W1 => 1,
            Width::W4 => 4,
            Width::W8 => 8,
        }
    }
}

/// How [`Solver::compile`] resolves [`Method::Auto`] and
/// [`Tiling::Auto`].
///
/// The paper's §3.2 cost model is a machine-independent instruction
/// count; real machines diverge from it (cache sizes, AVX-512
/// downclocking, core counts), so the measured modes route the choice
/// through an installed [`crate::tune::MeasuredTuner`] — normally the
/// `stencil-tune` crate's probing autotuner with its persistent
/// per-host plan cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tuning {
    /// Resolve analytically from the §3.2 cost model
    /// ([`crate::tune::auto_method`] / [`crate::tune::auto_tiling`]),
    /// with no probe runs. The default, and the fallback every other
    /// mode degrades to when there is nothing to tune.
    #[default]
    Static,
    /// Probe candidate configurations empirically (short timed sweeps on
    /// small representative domains) and persist the winner in the
    /// per-host tuning cache; cached hosts skip the probes entirely.
    /// Requires an installed tuner ([`PlanError::TunerUnavailable`]
    /// otherwise).
    Measured,
    /// Use only previously persisted measurements: a warm cache resolves
    /// without a single probe run, a cold one is a typed
    /// [`PlanError::TuneCacheMiss`] instead of a silent re-probe.
    /// Deterministic by construction — suited to latency-sensitive
    /// `compile()` calls and reproducible benchmarking.
    CacheOnly,
}

/// Stencil solver *configuration* — a cheap, cloneable builder.
///
/// Nothing is derived and no threads are spawned until
/// [`Solver::compile`] turns the configuration into a [`Plan`]; compile
/// once, run many times.
#[derive(Debug, Clone)]
pub struct Solver {
    pub(crate) pattern: Pattern,
    pub(crate) method: Method,
    pub(crate) tiling: Tiling,
    pub(crate) width: Width,
    pub(crate) threads: usize,
    pub(crate) pool: Option<PoolHandle>,
    pub(crate) tuning: Tuning,
    pub(crate) domain_hint: Option<Vec<usize>>,
    pub(crate) ring3: Option<Ring3>,
    pub(crate) epoch: u64,
}

impl Solver {
    /// New solver for `pattern` (defaults: multiple-loads, no tiling,
    /// the widest native vector width, single thread).
    pub fn new(pattern: Pattern) -> Self {
        Self {
            pattern,
            method: Method::MultipleLoads,
            tiling: Tiling::None,
            width: Width::native_max(),
            threads: 1,
            pool: None,
            tuning: Tuning::Static,
            domain_hint: None,
            ring3: None,
            epoch: 0,
        }
    }

    /// Select the vectorization method.
    pub fn method(mut self, m: Method) -> Self {
        self.method = m;
        self
    }

    /// Select the tiling scheme.
    pub fn tiling(mut self, t: Tiling) -> Self {
        self.tiling = t;
        self
    }

    /// Select the vector width (default: [`Width::native_max`]).
    pub fn width(mut self, w: Width) -> Self {
        self.width = w;
        self
    }

    /// Use `n` worker threads. The pool itself is spawned by
    /// [`Solver::compile`], not here; prefer [`Solver::pool`] to share
    /// one pool across several plans.
    ///
    /// `threads` and [`Solver::pool`] are two ways to set the same
    /// thing and the **last call wins**: calling `threads` discards a
    /// previously supplied shared pool (compile will spawn a fresh
    /// `n`-thread pool instead).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self.pool = None;
        self
    }

    /// Share an existing worker pool instead of spawning a new one at
    /// compile time — lets many plans amortize one set of threads.
    ///
    /// Last call wins: this overrides any earlier [`Solver::threads`]
    /// count (the plan uses `pool.threads()` workers), and a later
    /// `threads` call would discard this pool again.
    pub fn pool(mut self, pool: PoolHandle) -> Self {
        self.threads = pool.threads();
        self.pool = Some(pool);
        self
    }

    /// Select how [`Method::Auto`] and [`Tiling::Auto`] are resolved
    /// (default: [`Tuning::Static`], the §3.2 cost model).
    ///
    /// The measured modes consult the installed
    /// [`crate::tune::MeasuredTuner`] — install one with
    /// `stencil_tune::install()` (or [`crate::tune::install_tuner`]) —
    /// and only act when something is actually left to tune; a fully
    /// concrete configuration compiles identically under every mode.
    pub fn tuning(mut self, t: Tuning) -> Self {
        self.tuning = t;
        self
    }

    /// Hint the domain extents the compiled plan will mostly run on
    /// (e.g. `&[ny, nx]` for 2D). The measured tuner probes on a small
    /// representative domain of the same *shape class* and keys its
    /// per-host cache by that class, so plans tuned for L1-resident
    /// grids and for memory-bound grids are cached separately. Purely
    /// advisory: plans still run on any compatible grid.
    pub fn domain_hint(mut self, extents: &[usize]) -> Self {
        self.domain_hint = Some(extents.to_vec());
        self
    }

    /// Pin the z-ring pipeline geometry (z-strip depth × x-slab width)
    /// for 3D register plans. Left unset, [`Solver::compile`] resolves
    /// it — statically via [`Ring3::auto`], or through the measured
    /// tuner (the z-ring axes are part of its 3D candidate space).
    /// Ignored for 1D/2D patterns and non-register methods. Out-of-bound
    /// values are a compile-time [`PlanError::InvalidRing`].
    pub fn ring3(mut self, r: Ring3) -> Self {
        self.ring3 = Some(r);
        self
    }

    /// Tag the compiled plan with an identity epoch (default 0).
    ///
    /// The epoch changes nothing about execution — it is an opaque
    /// generation counter carried by the [`Plan`] so callers that
    /// hot-swap plans at runtime (the serve registry's adaptive
    /// retuning) can tell which generation produced a result: jobs
    /// holding an older `Arc<Plan>` finish on that exact plan,
    /// bit-exactly, and report its epoch.
    pub fn epoch(mut self, e: u64) -> Self {
        self.epoch = e;
        self
    }

    /// The configured pattern.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// The configured tuning mode.
    pub fn tuning_mode(&self) -> Tuning {
        self.tuning
    }

    /// Validate the configuration and derive everything the runs will
    /// reuse: the folded pattern Λ, the planned register kernel, the
    /// resolved method (for [`Method::Auto`]) and the worker pool.
    ///
    /// Every invalid method × tiling × dimension combination is reported
    /// here as a typed [`PlanError`]; the returned [`Plan`] can only fail
    /// on grid-shape errors at run time (wrong dimensionality, or a
    /// DLT-layout extent that is ragged or smaller than the lifted
    /// radius).
    pub fn compile(&self) -> Result<Plan, PlanError> {
        let _span = stencil_obs::span(stencil_obs::SpanId::PlanCompile);
        Plan::compile(self)
    }
}
