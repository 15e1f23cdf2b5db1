//! Solver configuration: method, tiling, width and thread selection —
//! and [`PlanConfig::validate`], the one statement of which
//! combinations a pattern admits.

use super::error::PlanError;
use super::plan_exec::Plan;
use crate::exec::folded::{MAX_F, MAX_R, MAX_R3};
use crate::pattern::Pattern;
use crate::plan::FoldPlan;
use crate::tune::TuneRequest;
use stencil_runtime::PoolHandle;

/// Vectorization scheme of a plan. The paper's other baselines (data
/// reorganization, DLT, and DLT under split tiling, SDSL) are not plan
/// methods: the figures call [`crate::exec::reorg`], [`crate::exec::dlt`]
/// and [`crate::tile::split`] directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Scalar reference sweep.
    Scalar,
    /// Multiple loads: one unaligned load per tap.
    MultipleLoads,
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

impl Method {
    /// True for the methods that run the register pipeline (transpose
    /// layout / temporal folding) — the ones the fold bounds and the
    /// slab alignment rules apply to.
    pub fn is_register(self) -> bool {
        matches!(self, Method::TransposeLayout | Method::Folded { .. })
    }

    /// Fold factor: `m` for `Folded { m }`, 1 for every other method.
    pub(crate) fn fold(self) -> usize {
        match self {
            Method::Folded { m } => m,
            _ => 1,
        }
    }
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
    /// Widest width with an intrinsic backend on this CPU: W8 where it
    /// has AVX-512F (with AVX2 + FMA), W4 otherwise
    /// ([`stencil_simd::Isa::detected`]).
    pub fn native_max() -> Self {
        if stencil_simd::Isa::detected() == stencil_simd::Isa::Avx512 {
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

/// One plan configuration: the three axes a compile resolves and a
/// tuner searches, as the one value every layer that names a
/// configuration holds — [`Solver`], [`Plan`], tune requests and
/// decisions, the measured tuner's candidates and cache entries, the
/// serving layer's retune verdicts. What a kernel derives from it (the
/// 3D register pipeline's z-ring pane geometry, [`crate::exec::folded3d`])
/// is not an axis.
///
/// In a *request* an axis may be open: [`Method::Auto`],
/// [`Tiling::Auto`]. A [`Plan::config`] has none open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanConfig {
    /// Vectorization method.
    pub method: Method,
    /// Tiling scheme.
    pub tiling: Tiling,
    /// Vector width (in a tune request: the widest the tuner may pick).
    pub width: Width,
}

/// Largest folded radius `m * r` the register pipeline supports for a
/// pattern of dimensionality `dims` at vector width `width` (the 1D
/// assembled vectors reach one lane per radius cell). The 2D and 3D
/// bound is the register-budget gate of the pane: the fixed register
/// windows of [`crate::exec::folded`] ([`MAX_R`] in 2D, [`MAX_R3`] for
/// the z-ring) capped by the lane count, since the transpose window
/// holds one column per lane — a deep fold the vector pane cannot run is
/// rejected at compile time rather than silently degraded to the scalar
/// folded sweep. Scalar lanes keep a cap of 2 (they run the scalar
/// folded sweep, where the window budget is moot).
pub(crate) fn fold_radius_cap(dims: usize, width: Width) -> usize {
    let pane = width.lanes().max(2);
    match dims {
        1 => width.lanes(),
        2 => MAX_R.min(pane),
        _ => MAX_R3.min(pane),
    }
}

/// The `m`-step counterpart plan of `p`, from (or added to) `built`, the
/// fold plans one compile has made so far: rule 4 needs the plan, the
/// static resolver prices it and the route executes it, and sharing
/// them keeps a compile at one [`FoldPlan::new`] per `m`.
pub(crate) fn fold_plan<'a>(built: &'a mut Vec<FoldPlan>, p: &Pattern, m: usize) -> &'a FoldPlan {
    let at = built.iter().position(|f| f.m == m).unwrap_or_else(|| {
        built.push(FoldPlan::new(p, m));
        built.len() - 1
    });
    &built[at]
}

impl PlanConfig {
    /// The rule table: can `p` be compiled under this configuration?
    ///
    /// The only statement of the method × tiling × width ×
    /// dimensionality rules: [`Solver::compile`] runs it on the request
    /// *before* any tuner is consulted and again on the resolved
    /// configuration, and the measured tuner filters its candidates with
    /// it. Every method composes with every tiling; an open axis passes
    /// every rule it takes part in, so on a request this checks exactly
    /// what the pinned axes decide, whatever the tuning mode. The first
    /// failing rule is reported, in this order:
    ///
    /// 1. a tessellate time block `>= 1` ([`PlanError::InvalidTiling`]);
    /// 2. fold factor `m >= 1`, then 3. a register method's folded
    ///    radius `m * r` within the pipeline's bound at this width and
    ///    dimensionality ([`PlanError::InvalidFold`]);
    /// 4. a 2D/3D register method's counterpart plan, and that of its
    ///    unfolded `t % m` tail under either tiling, within the register
    ///    budget ([`PlanError::FoldPlanTooComplex`]).
    pub fn validate(&self, p: &Pattern) -> Result<(), PlanError> {
        self.check(p, &mut Vec::new())
    }

    /// [`PlanConfig::validate`], leaving the counterpart plans rule 4
    /// had to build in `built` (see [`fold_plan`]).
    pub(crate) fn check(&self, p: &Pattern, built: &mut Vec<FoldPlan>) -> Result<(), PlanError> {
        let PlanConfig {
            method,
            tiling,
            width,
        } = *self;
        let dims = p.dims();

        if tiling == (Tiling::Tessellate { time_block: 0 }) {
            return Err(PlanError::InvalidTiling {
                tiling,
                reason: "time_block must be >= 1",
            });
        }

        let m = method.fold();
        if m == 0 {
            return Err(PlanError::InvalidFold {
                m: 0,
                folded_radius: 0,
                max_radius: 0,
            });
        }
        let (folded_radius, max_radius) =
            (m.saturating_mul(p.radius()), fold_radius_cap(dims, width));
        if method.is_register() && folded_radius > max_radius {
            return Err(PlanError::InvalidFold {
                m,
                folded_radius,
                max_radius,
            });
        }

        if method.is_register() && dims > 1 {
            for m in [Some(m), (m > 1).then_some(1)].into_iter().flatten() {
                let counterparts = fold_plan(built, p, m).fresh.len();
                if counterparts > MAX_F {
                    return Err(PlanError::FoldPlanTooComplex {
                        m,
                        counterparts,
                        max: MAX_F,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Stencil solver *configuration* — a cheap, cloneable builder.
///
/// Nothing is derived and no threads are spawned until
/// [`Solver::compile`] turns the configuration into a [`Plan`]; compile
/// once, run many times.
#[derive(Debug, Clone)]
pub struct Solver {
    pub(crate) pattern: Pattern,
    /// The requested configuration; `Auto` axes are resolved by
    /// [`Solver::compile`].
    pub(crate) config: PlanConfig,
    /// Worker threads (always `pool.threads()` when a pool is shared).
    pub(crate) threads: usize,
    pub(crate) pool: Option<PoolHandle>,
    pub(crate) tuning: Tuning,
    pub(crate) domain_hint: Option<Vec<usize>>,
    pub(crate) epoch: u64,
}

impl Solver {
    /// New solver for `pattern` (defaults: multiple-loads, no tiling,
    /// the widest native vector width, single thread).
    pub fn new(pattern: Pattern) -> Self {
        Self {
            pattern,
            config: PlanConfig {
                method: Method::MultipleLoads,
                tiling: Tiling::None,
                width: Width::native_max(),
            },
            threads: 1,
            pool: None,
            tuning: Tuning::Static,
            domain_hint: None,
            epoch: 0,
        }
    }

    /// Set method, tiling and width at once — e.g. to
    /// recompile exactly what another plan resolved to
    /// ([`Plan::config`]), or a tuner's decision.
    pub fn with_config(mut self, config: PlanConfig) -> Self {
        self.config = config;
        self
    }

    /// Select the vectorization method.
    pub fn method(mut self, m: Method) -> Self {
        self.config.method = m;
        self
    }

    /// Select the tiling scheme.
    pub fn tiling(mut self, t: Tiling) -> Self {
        self.config.tiling = t;
        self
    }

    /// Select the vector width (default: [`Width::native_max`]).
    pub fn width(mut self, w: Width) -> Self {
        self.config.width = w;
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

    /// The question [`Solver::compile`] puts to the installed measured
    /// tuner (and the identity of its per-host cache entry). A cache
    /// lookup or a retune challenge for this solver asks with it too.
    pub fn tune_request(&self) -> TuneRequest<'_> {
        TuneRequest {
            pattern: &self.pattern,
            config: self.config,
            threads: self.threads,
            domain_hint: self.domain_hint.as_deref(),
            mode: self.tuning,
        }
    }

    /// Validate the configuration and derive everything the runs will
    /// reuse: the folded pattern Λ, the planned register kernel, the
    /// resolved method (for [`Method::Auto`]) and the worker pool.
    ///
    /// Every invalid configuration is reported here as a typed
    /// [`PlanError`] — by [`PlanConfig::validate`], on the request before
    /// anything is resolved (so the pinned axes get the same error under
    /// every [`Tuning`] mode and an uncompilable request never reaches a
    /// tuner) and on the resolved configuration after; the returned
    /// [`Plan`] can only fail at run time on a grid of the wrong
    /// dimensionality.
    pub fn compile(&self) -> Result<Plan, PlanError> {
        let _span = stencil_obs::span(stencil_obs::SpanId::PlanCompile);
        Plan::compile(self)
    }
}
