//! Compiled execution plans: validation, derived artifacts, and the
//! dimension-dispatched run paths.

use super::config::{Method, PlanConfig, Ring3, Solver, Tiling, Tuning, Width};
use super::error::PlanError;
use crate::exec::folded::{self, FoldedKernel};
use crate::exec::folded3d;
use crate::exec::{dlt, multiload, reorg, scalar, xlayout};
use crate::folding::fold;
use crate::pattern::Pattern;
use crate::tile::{spatial, split, tessellate, tile_width};
use core::ops::Range;
use stencil_grid::{Grid1D, Grid2D, Grid3D, PingPong};
use stencil_runtime::PoolHandle;
use stencil_simd::{NativeF64x4, NativeF64x8, SimdF64};

/// Why a route constructor may assume its combination has a route.
const VALIDATED: &str = "PlanConfig::validate accepted the resolved configuration";

/// The kernel a route steps with. `R` is the register-pipeline state of
/// the plan's dimensionality: nothing in 1D (the squares kernel needs
/// only taps), the planned [`FoldedKernel`] in 2D, and the kernel plus
/// its z-ring geometry in 3D.
enum Kernel<R> {
    Scalar,
    /// Unaligned-load vector kernel: `MultipleLoads`, and `DataReorg`
    /// wherever it has no kernel of its own (tiled runs, 2D, 3D).
    Vector,
    Register(R),
}

impl<R> Kernel<R> {
    /// The kernel of `method`; `register` builds the pipeline state and
    /// is only called for the register methods.
    fn new(method: Method, register: impl FnOnce() -> R) -> Self {
        match method {
            Method::Scalar => Kernel::Scalar,
            m if m.is_register() => Kernel::Register(register()),
            // MultipleLoads / DataReorg. Dlt never steps a kernel (it
            // routes to split tiling or the 1D DLT sweep) and Auto was
            // resolved before any route is built.
            _ => Kernel::Vector,
        }
    }
}

impl Kernel<()> {
    fn step<V: SimdF64>(&self, taps: &[f64], s: &[f64], d: &mut [f64], lo: usize, hi: usize) {
        match self {
            Kernel::Scalar => scalar::step_range_1d(s, d, taps, lo, hi),
            Kernel::Vector => multiload::step_range_1d::<V>(s, d, taps, lo, hi),
            Kernel::Register(()) => folded::step_squares_range_1d::<V>(s, d, taps, lo, hi),
        }
    }
}

impl Kernel<FoldedKernel> {
    fn step<V: SimdF64>(
        &self,
        q: &Pattern,
        s: &Grid2D,
        d: &mut Grid2D,
        ys: Range<usize>,
        xs: Range<usize>,
    ) {
        match self {
            Kernel::Scalar => scalar::step_range_2d(s, d, q, ys, xs),
            Kernel::Vector => multiload::step_range_2d::<V>(s, d, q, ys, xs),
            Kernel::Register(k) => folded::step_range_2d::<V>(k, s, d, ys, xs),
        }
    }
}

impl Kernel<(FoldedKernel, Ring3)> {
    #[allow(clippy::too_many_arguments)] // the 3D range-kernel parameter set
    fn step<V: SimdF64>(
        &self,
        q: &Pattern,
        s: &Grid3D,
        d: &mut Grid3D,
        zs: Range<usize>,
        ys: Range<usize>,
        xs: Range<usize>,
    ) {
        match self {
            Kernel::Scalar => scalar::step_range_3d(s, d, q, zs, ys, xs),
            Kernel::Vector => multiload::step_range_3d::<V>(s, d, q, zs, ys, xs),
            Kernel::Register((k, ring)) => {
                folded3d::step_range_3d_ring::<V>(k, *ring, s, d, zs, ys, xs)
            }
        }
    }
}

/// Body and `t % m` tail kernels of a tiled route: the tail is the
/// single-step kernel of the same method and exists exactly when `m > 1`
/// leaves a remainder to run.
fn body_and_tail<R>(
    method: Method,
    mut register: impl FnMut(usize) -> R,
) -> (Kernel<R>, Option<Kernel<R>>) {
    let m = method.fold();
    let body = Kernel::new(method, || register(m));
    let tail = (m > 1).then(|| Kernel::new(method, || register(1)));
    (body, tail)
}

/// Whole-grid sweep of a block-free 1D plan, one per method.
enum Sweep1 {
    Scalar,
    MultipleLoads,
    DataReorg,
    Dlt,
    /// Transpose layout, folded `m` steps at a time (`m = 1` for
    /// `TransposeLayout`).
    Register,
}

/// What a 1D plan runs.
enum Route1 {
    BlockFree(Sweep1),
    Tessellate {
        time_block: usize,
        body: Kernel<()>,
        tail: Option<Kernel<()>>,
    },
    Split {
        time_block: usize,
    },
}

impl Route1 {
    fn new(PlanConfig { method, tiling, .. }: PlanConfig) -> Self {
        match tiling {
            Tiling::None => Route1::BlockFree(match method {
                Method::Scalar => Sweep1::Scalar,
                Method::DataReorg => Sweep1::DataReorg,
                Method::Dlt => Sweep1::Dlt,
                m if m.is_register() => Sweep1::Register,
                // MultipleLoads; Auto was resolved before any route is built.
                _ => Sweep1::MultipleLoads,
            }),
            Tiling::Tessellate { time_block } => {
                let (body, tail) = body_and_tail(method, |_| ());
                Route1::Tessellate {
                    time_block,
                    body,
                    tail,
                }
            }
            Tiling::Split { time_block } => Route1::Split { time_block },
            Tiling::Spatial { .. } | Tiling::Auto => unreachable!("{VALIDATED}"),
        }
    }
}

/// Tiling driver of a 2D/3D route.
enum Driver {
    Tessellate { time_block: usize },
    Spatial { block: (usize, usize) },
}

/// What a 2D/3D plan runs (`R` as in [`Kernel`]).
enum RouteN<R> {
    BlockFree(Kernel<R>),
    Tiled {
        driver: Driver,
        body: Kernel<R>,
        tail: Option<Kernel<R>>,
    },
    Split {
        time_block: usize,
    },
}

impl<R> RouteN<R> {
    /// `register(m)` builds the `m`-step register-pipeline state.
    fn new(
        PlanConfig { method, tiling, .. }: PlanConfig,
        mut register: impl FnMut(usize) -> R,
    ) -> Self {
        let mut tiled = |driver| {
            let (body, tail) = body_and_tail(method, &mut register);
            RouteN::Tiled { driver, body, tail }
        };
        match tiling {
            Tiling::None => RouteN::BlockFree(Kernel::new(method, || register(method.fold()))),
            Tiling::Tessellate { time_block } => tiled(Driver::Tessellate { time_block }),
            Tiling::Spatial { block } => tiled(Driver::Spatial { block }),
            Tiling::Split { time_block } => RouteN::Split { time_block },
            Tiling::Auto => unreachable!("{VALIDATED}"),
        }
    }
}

/// The one route a compiled plan runs: tiling driver plus the kernel it
/// steps, typed by dimensionality so a run can only reach the executors
/// of the pattern it was compiled for.
enum Route {
    D1(Route1),
    D2(RouteN<FoldedKernel>),
    D3(RouteN<(FoldedKernel, Ring3)>),
}

/// A validated, compiled stencil execution plan.
///
/// Produced by [`Solver::compile`]; owns everything the runs reuse:
///
/// * the folded pattern Λ ([`Plan::folded`]) and, for 2D/3D register
///   pipelines, the planned [`FoldedKernel`] with its counterpart
///   schedule,
/// * the resolved [`PlanConfig`] ([`Plan::config`]: no axis is open
///   any more),
/// * a shared [`PoolHandle`] whose worker threads outlive the plan's
///   runs — clone the handle into several plans to amortize one pool.
///
/// `run_1d`/`run_2d`/`run_3d` (or the dimension-generic [`Plan::run`])
/// can be invoked any number of times; the only errors they can return
/// concern the grid itself — [`PlanError::DimensionMismatch`], plus
/// [`PlanError::MisalignedDomain`]/[`PlanError::DomainTooSmall`] for
/// DLT-layout plans, whose lifted rows constrain the innermost extent.
/// No planning work happens per run.
pub struct Plan {
    pattern: Pattern,
    config: PlanConfig,
    pool: PoolHandle,
    /// `fold(pattern, m)`; equals `pattern` when `m == 1`.
    folded: Pattern,
    /// What the runs execute, with the register kernels and z-ring
    /// geometry inside the variants that use them.
    route: Route,
    /// Opaque identity epoch ([`Solver::epoch`]): a generation counter
    /// for plan hot-swapping, with no effect on execution.
    epoch: u64,
}

impl std::fmt::Debug for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Plan")
            .field("dims", &self.dims())
            .field("method", &self.config.method)
            .field("tiling", &self.config.tiling)
            .field("width", &self.config.width)
            .field("threads", &self.pool.threads())
            .field("m", &self.m())
            .field("effective_radius", &self.folded.radius())
            .field("ring3", &self.config.ring3)
            .field("epoch", &self.epoch)
            .finish()
    }
}

impl Plan {
    /// Validate `cfg` and derive the reusable artifacts (see
    /// [`Solver::compile`], the public entry point): validate the
    /// request, resolve its open axes, validate the result, build the
    /// route. Every rule lives in [`PlanConfig::validate`].
    pub(crate) fn compile(cfg: &Solver) -> Result<Plan, PlanError> {
        let p = &cfg.pattern;
        let dims = p.dims();
        let request = cfg.config;
        // the fold plans this compile builds, each `m` once
        let mut built = Vec::new();

        // What the pinned axes decide is decided here — the same typed
        // error in every tuning mode, and no tuner consulted (no probe
        // spent) for a request that cannot compile.
        request.check(p, &mut built)?;

        // The measured modes route through the installed tuner when
        // something is left to tune.
        let open = request.method == Method::Auto || request.tiling == Tiling::Auto;
        let mut resolved = if open && cfg.tuning != Tuning::Static {
            let tuner = crate::tune::installed_tuner()
                .ok_or(PlanError::TunerUnavailable { mode: cfg.tuning })?;
            let d = tuner.tune(&cfg.tune_request()).map_err(|e| match e {
                crate::tune::TuneFailure::CacheMiss { key } => PlanError::TuneCacheMiss { key },
                crate::tune::TuneFailure::Failed { reason } => PlanError::TuningFailed { reason },
            })?;
            PlanConfig {
                // the user's pinned ring always beats the tuner's
                ring3: request.ring3.or(d.config.ring3),
                ..d.config
            }
        } else {
            request
        };
        // Static (and whatever a buggy or foreign tuner leaves open —
        // no Plan ever carries Auto) resolves from the §3.2 cost model.
        if resolved.method == Method::Auto {
            resolved.method =
                crate::tune::resolve_method(p, &mut built, resolved.width, resolved.tiling);
        }
        if resolved.tiling == Tiling::Auto {
            resolved.tiling = crate::tune::auto_tiling(dims, resolved.method, cfg.threads);
        }

        // Nothing is open any more, so this decides every rule (a
        // tuner's decision — cache entries are external input — gets
        // the same validation as the user's request).
        resolved.check(p, &mut built)?;

        // Derive the reusable artifacts once.
        let m = resolved.method.fold();
        let folded = if m > 1 { fold(p, m) } else { p.clone() };
        // only a 3D register plan executes a ring; it always has one
        resolved.ring3 = (dims == 3 && resolved.method.is_register()).then(|| {
            resolved
                .ring3
                .unwrap_or_else(|| Ring3::auto(resolved.width.lanes(), m * p.radius()))
        });
        let ring = resolved.ring3;
        let mut kernel = |m| {
            let at = built.iter().position(|f| f.m == m);
            let at = at.expect("validating a 2D/3D register method plans its kernels");
            FoldedKernel::from_plan(built.swap_remove(at))
        };
        let route = match dims {
            1 => Route::D1(Route1::new(resolved)),
            2 => Route::D2(RouteN::new(resolved, kernel)),
            _ => Route::D3(RouteN::new(resolved, |m| {
                (kernel(m), ring.expect("a 3D register plan has a ring"))
            })),
        };

        let pool = cfg
            .pool
            .clone()
            .unwrap_or_else(|| PoolHandle::new(cfg.threads));
        Ok(Plan {
            pattern: p.clone(),
            config: resolved,
            pool,
            folded,
            route,
            epoch: cfg.epoch,
        })
    }

    /// The pattern this plan was compiled for.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// The configuration this plan resolved to — no axis open:
    /// `Solver::new(pattern).with_config(plan.config())` compiles the
    /// same plan again.
    pub fn config(&self) -> PlanConfig {
        self.config
    }

    /// The resolved vectorization method (never [`Method::Auto`]).
    pub fn method(&self) -> Method {
        self.config.method
    }

    /// The tiling scheme.
    pub fn tiling(&self) -> Tiling {
        self.config.tiling
    }

    /// The resolved vector width.
    pub fn width(&self) -> Width {
        self.config.width
    }

    /// The shared worker pool (clone the handle to reuse it elsewhere).
    pub fn pool(&self) -> &PoolHandle {
        &self.pool
    }

    /// Fold factor `m` (1 unless the method is `Folded { m > 1 }`).
    pub fn m(&self) -> usize {
        self.config.method.fold()
    }

    /// Resolved z-ring pipeline geometry — `Some` exactly for 3D
    /// register plans (transpose-layout / folded), `None` otherwise.
    /// Never `Some(invalid)`: compile validates pinned geometries.
    pub fn ring3(&self) -> Option<Ring3> {
        self.config.ring3
    }

    /// Identity epoch this plan was compiled with ([`Solver::epoch`]).
    /// Purely an identity tag for hot-swap bookkeeping — two plans that
    /// differ only in epoch execute identically, bit for bit.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Spatial dimensionality of the compiled pattern.
    pub fn dims(&self) -> usize {
        self.pattern.dims()
    }

    /// The precomputed folded pattern Λ (`== pattern()` when `m == 1`).
    /// The same allocation is reused by every run.
    pub fn folded(&self) -> &Pattern {
        &self.folded
    }

    /// Effective radius of one (possibly folded) inner step.
    pub fn effective_radius(&self) -> usize {
        self.folded.radius()
    }

    /// Run `t` time steps on any supported domain ([`Grid1D`],
    /// [`Grid2D`], [`Grid3D`]); dimension-generic front end of
    /// `run_1d`/`run_2d`/`run_3d`.
    ///
    /// Errors: [`PlanError::DimensionMismatch`] when the domain's
    /// dimensionality differs from the pattern's, and
    /// [`PlanError::MisalignedDomain`]/[`PlanError::DomainTooSmall`]
    /// when a DLT-layout plan is given a grid whose innermost extent is
    /// not a lane multiple or shorter than the lifted radius.
    pub fn run<D: Domain>(&self, domain: &D, t: usize) -> Result<D, PlanError> {
        self.run_at(domain, t, 0)
    }

    /// Run `t` time steps on a 1D grid.
    pub fn run_1d(&self, grid: &Grid1D, t: usize) -> Result<Grid1D, PlanError> {
        self.run(grid, t)
    }

    /// Run `t` time steps on a 2D grid.
    pub fn run_2d(&self, grid: &Grid2D, t: usize) -> Result<Grid2D, PlanError> {
        self.run(grid, t)
    }

    /// Run `t` time steps on a 3D grid.
    pub fn run_3d(&self, grid: &Grid3D, t: usize) -> Result<Grid3D, PlanError> {
        self.run(grid, t)
    }

    /// [`Plan::run_2d`] over a local window of a larger domain whose
    /// outer (y) axis starts at global coordinate `origin_y`: tessellate
    /// tile phase is derived from global coordinates, so windows of one
    /// domain agree on every tile they share — the contract bit-exact
    /// domain sharding (the serving layer) relies on. For non-tessellate
    /// tilings the origin changes nothing. Same errors as [`Plan::run`].
    pub fn run_2d_at(&self, grid: &Grid2D, t: usize, origin_y: usize) -> Result<Grid2D, PlanError> {
        self.run_at(grid, t, origin_y)
    }

    /// [`Plan::run_3d`] over a local window whose outer (z) axis starts
    /// at global coordinate `origin_z` (see [`Plan::run_2d_at`]).
    pub fn run_3d_at(&self, grid: &Grid3D, t: usize, origin_z: usize) -> Result<Grid3D, PlanError> {
        self.run_at(grid, t, origin_z)
    }

    /// [`Plan::run_3d_at`] in place on a caller-owned pair: `pp.current()`
    /// is the window going in and the advanced window coming out, and no
    /// grid is allocated. The scratch surface may hold anything — another
    /// window's data in a recycled buffer, say: the run establishes the
    /// current surface's Dirichlet band on it ([`Plan::effective_radius`]
    /// cells per axis) and writes every other cell before reading it.
    /// Bit-identical to `run_3d_at(pp.current(), t, origin_z)`; same
    /// errors, and on an error the pair is untouched.
    ///
    /// # Panics
    /// If the two surfaces differ in shape.
    pub fn run_3d_pair_at(
        &self,
        pp: &mut PingPong<Grid3D>,
        t: usize,
        origin_z: usize,
    ) -> Result<(), PlanError> {
        match self.config.width {
            Width::W1 => self.exec_3d_pair::<f64>(pp, t, origin_z),
            Width::W4 => self.exec_3d_pair::<NativeF64x4>(pp, t, origin_z),
            Width::W8 => self.exec_3d_pair::<NativeF64x8>(pp, t, origin_z),
        }
    }

    /// The one path behind every run entry point: pick the vector type
    /// of the compiled width, then let the domain's `exec_*` validate
    /// the grid against the route and run it.
    fn run_at<D: Domain>(&self, domain: &D, t: usize, origin: usize) -> Result<D, PlanError> {
        match self.config.width {
            Width::W1 => D::exec::<f64>(self, domain, t, origin),
            Width::W4 => D::exec::<NativeF64x4>(self, domain, t, origin),
            Width::W8 => D::exec::<NativeF64x8>(self, domain, t, origin),
        }
    }

    fn dimension_mismatch(&self, domain_dims: usize) -> PlanError {
        PlanError::DimensionMismatch {
            pattern_dims: self.dims(),
            domain_dims,
        }
    }

    /// The DLT layout (block-free 1D and the SDSL split-tiling hybrid)
    /// lifts the innermost dimension into lanes; a ragged or too-short
    /// `extent` is a typed run error, not an executor assert.
    fn check_layout(&self, extent: usize) -> Result<(), PlanError> {
        if self.config.method != Method::Dlt {
            return Ok(());
        }
        let lanes = self.config.width.lanes();
        if !extent.is_multiple_of(lanes) {
            return Err(PlanError::MisalignedDomain { extent, lanes });
        }
        // the lifted row (extent / lanes points) must cover the
        // stencil radius
        if extent / lanes < self.pattern.radius() {
            return Err(PlanError::DomainTooSmall {
                extent,
                min: self.pattern.radius() * lanes,
            });
        }
        Ok(())
    }

    /// The runs of a tiled route advancing `t` levels: `t / m` inner
    /// steps of `body` over Λ, then the `t % m` remainder as single
    /// steps of `tail` over the base pattern. Each entry is `(kernel,
    /// the pattern it steps, inner steps)`.
    fn legs<'a, R>(
        &'a self,
        body: &'a Kernel<R>,
        tail: &'a Option<Kernel<R>>,
        t: usize,
    ) -> impl Iterator<Item = (&'a Kernel<R>, &'a Pattern, usize)> {
        let m = self.m();
        let tail = tail.iter().map(move |k| (k, &self.pattern, t % m));
        std::iter::once((body, &self.folded, t / m)).chain(tail)
    }

    fn exec_1d<V: SimdF64>(&self, grid: &Grid1D, t: usize) -> Result<Grid1D, PlanError> {
        let Route::D1(route) = &self.route else {
            return Err(self.dimension_mismatch(Grid1D::DIMS));
        };
        self.check_layout(grid.len())?;
        let p = &self.pattern;
        Ok(match route {
            Route1::BlockFree(sweep) => match sweep {
                Sweep1::Scalar => ping_pong(grid, |pp| scalar::sweep_1d(pp, p, t)),
                Sweep1::MultipleLoads => ping_pong(grid, |pp| multiload::sweep_1d::<V>(pp, p, t)),
                Sweep1::DataReorg => ping_pong(grid, |pp| reorg::sweep_1d::<V>(pp, p, t)),
                Sweep1::Dlt => dlt::sweep_1d::<V>(grid, p, t),
                Sweep1::Register => {
                    xlayout::sweep_folded_1d_with::<V>(grid, p.weights(), &self.folded, self.m(), t)
                }
            },
            // Body and leftover steps go through the same tessellated
            // range kernel — threaded, same frozen-boundary discipline.
            Route1::Tessellate {
                time_block,
                body,
                tail,
            } => ping_pong(grid, |pp| {
                for (kernel, q, steps) in self.legs(body, tail, t) {
                    let (r, taps) = (q.radius(), q.weights());
                    tessellate::run_1d(
                        &self.pool,
                        pp,
                        r,
                        r,
                        tile_width(&[], r, *time_block),
                        *time_block,
                        steps,
                        &|s: &[f64], d: &mut [f64], lo, hi| kernel.step::<V>(taps, s, d, lo, hi),
                    );
                }
            }),
            Route1::Split { time_block } => {
                split::sweep_1d::<V>(&self.pool, grid, p, *time_block, t)
            }
        })
    }

    fn exec_2d<V: SimdF64>(
        &self,
        grid: &Grid2D,
        t: usize,
        origin_y: usize,
    ) -> Result<Grid2D, PlanError> {
        let Route::D2(route) = &self.route else {
            return Err(self.dimension_mismatch(Grid2D::DIMS));
        };
        self.check_layout(grid.nx())?;
        let p = &self.pattern;
        Ok(match route {
            RouteN::BlockFree(Kernel::Scalar) => ping_pong(grid, |pp| scalar::sweep_2d(pp, p, t)),
            RouteN::BlockFree(Kernel::Vector) => {
                ping_pong(grid, |pp| multiload::sweep_2d::<V>(pp, p, t))
            }
            RouteN::BlockFree(Kernel::Register(k)) => {
                let _span = ring_span();
                folded::sweep_2d_with::<V>(k, grid, p, t)
            }
            RouteN::Tiled { driver, body, tail } => ping_pong(grid, |pp| {
                for (kernel, q, steps) in self.legs(body, tail, t) {
                    let _span = matches!(kernel, Kernel::Register(_)).then(ring_span);
                    let r = q.radius();
                    let step =
                        |s: &Grid2D, d: &mut Grid2D, ys, xs| kernel.step::<V>(q, s, d, ys, xs);
                    match *driver {
                        Driver::Tessellate { time_block } => {
                            let w = tile_width(&[grid.nx()], r, time_block);
                            tessellate::run_2d_at(
                                &self.pool, pp, r, r, w, time_block, steps, origin_y, &step,
                            )
                        }
                        Driver::Spatial { block } => {
                            spatial::run_2d(&self.pool, pp, r, block, steps, &step)
                        }
                    }
                }
            }),
            RouteN::Split { time_block } => {
                split::sweep_2d::<V>(&self.pool, grid, p, *time_block, t)
            }
        })
    }

    /// The 3D route, once `nx` passes the layout check.
    fn route_3d(&self, nx: usize) -> Result<&RouteN<(FoldedKernel, Ring3)>, PlanError> {
        let Route::D3(route) = &self.route else {
            return Err(self.dimension_mismatch(Grid3D::DIMS));
        };
        self.check_layout(nx)?;
        Ok(route)
    }

    fn exec_3d<V: SimdF64>(
        &self,
        grid: &Grid3D,
        t: usize,
        origin_z: usize,
    ) -> Result<Grid3D, PlanError> {
        Ok(match self.route_3d(grid.nx())? {
            // split tiling lifts the grid into its own DLT pair
            RouteN::Split { time_block } => {
                split::sweep_3d::<V>(&self.pool, grid, &self.pattern, *time_block, t)
            }
            route => ping_pong(grid, |pp| self.sweep_3d::<V>(route, pp, t, origin_z)),
        })
    }

    fn exec_3d_pair<V: SimdF64>(
        &self,
        pp: &mut PingPong<Grid3D>,
        t: usize,
        origin_z: usize,
    ) -> Result<(), PlanError> {
        let route = self.route_3d(pp.current().nx())?;
        // all a sweep asks of the scratch surface (see `sweep_3d`)
        let (cur, scratch) = pp.both_mut();
        scratch.copy_band_from(cur, self.effective_radius());
        self.sweep_3d::<V>(route, pp, t, origin_z);
        Ok(())
    }

    /// Advance `pp` by `t` steps along `route`. Both surfaces must carry
    /// the Dirichlet band of `effective_radius()` cells per axis — the
    /// tiled and register sweeps never write it — and every route writes
    /// an interior cell of the scratch surface before reading it, so that
    /// is all the scratch surface needs to hold.
    fn sweep_3d<V: SimdF64>(
        &self,
        route: &RouteN<(FoldedKernel, Ring3)>,
        pp: &mut PingPong<Grid3D>,
        t: usize,
        origin_z: usize,
    ) {
        let p = &self.pattern;
        match route {
            RouteN::BlockFree(Kernel::Scalar) => scalar::sweep_3d(pp, p, t),
            RouteN::BlockFree(Kernel::Vector) => multiload::sweep_3d::<V>(pp, p, t),
            RouteN::BlockFree(Kernel::Register((k, ring))) => {
                let _span = ring_span();
                folded3d::sweep_3d_ring::<V>(k, *ring, pp, p, t)
            }
            RouteN::Tiled { driver, body, tail } => {
                for (kernel, q, steps) in self.legs(body, tail, t) {
                    let _span = matches!(kernel, Kernel::Register(_)).then(ring_span);
                    let r = q.radius();
                    let step = |s: &Grid3D, d: &mut Grid3D, zs, ys, xs| {
                        kernel.step::<V>(q, s, d, zs, ys, xs)
                    };
                    match *driver {
                        Driver::Tessellate { time_block } => {
                            let (ny, nx) = (pp.current().ny(), pp.current().nx());
                            let w = tile_width(&[ny, nx], r, time_block);
                            tessellate::run_3d_at(
                                &self.pool, pp, r, r, w, time_block, steps, origin_z, &step,
                            )
                        }
                        Driver::Spatial { block } => {
                            spatial::run_3d(&self.pool, pp, r, block, steps, &step)
                        }
                    }
                }
            }
            // never streamed or sharded: the owned-grid sweep lands in
            // the scratch surface
            RouteN::Split { time_block } => {
                let out = split::sweep_3d::<V>(&self.pool, pp.current(), p, *time_block, t);
                *pp.src_dst().1 = out;
                pp.swap();
            }
        }
    }
}

/// The register-kernel span of a run or leg (one per sweep, never per
/// tile): the ledger's "register-kernel self time" in 2D and 3D.
fn ring_span() -> stencil_obs::SpanGuard {
    stencil_obs::span(stencil_obs::SpanId::RingSweep)
}

/// Advance a fresh ping-pong pair seeded with `grid` through `sweep` and
/// return the latest level.
fn ping_pong<G: Clone>(grid: &G, sweep: impl FnOnce(&mut PingPong<G>)) -> G {
    let mut pp = PingPong::new(grid.clone());
    sweep(&mut pp);
    pp.into_current()
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for stencil_grid::Grid1D {}
    impl Sealed for stencil_grid::Grid2D {}
    impl Sealed for stencil_grid::Grid3D {}
}

/// A grid type a [`Plan`] can run on — implemented by [`Grid1D`],
/// [`Grid2D`] and [`Grid3D`] (sealed). Enables dimension-generic code:
///
/// ```
/// use stencil_core::{kernels, Domain, Plan, Solver};
/// use stencil_grid::Grid2D;
///
/// fn advance<D: Domain>(plan: &Plan, state: &D, t: usize) -> D {
///     plan.run(state, t).expect("dimensionality checked by caller")
/// }
///
/// let plan = Solver::new(kernels::heat2d()).compile().unwrap();
/// let g = Grid2D::from_fn(32, 32, |y, x| (y + x) as f64);
/// let out = advance(&plan, &g, 3);
/// assert_eq!(out.to_dense().len(), 32 * 32);
/// ```
pub trait Domain: Clone + sealed::Sealed {
    /// Spatial dimensionality of this domain type.
    const DIMS: usize;

    /// Validate `domain` against `plan` and run `t` steps at vector type
    /// `V`; `origin` is the global coordinate of the window's outer axis
    /// (see [`Plan::run_2d_at`]; 1D windows have none).
    #[doc(hidden)]
    fn exec<V: SimdF64>(
        plan: &Plan,
        domain: &Self,
        t: usize,
        origin: usize,
    ) -> Result<Self, PlanError>;
}

impl Domain for Grid1D {
    const DIMS: usize = 1;

    fn exec<V: SimdF64>(
        plan: &Plan,
        domain: &Self,
        t: usize,
        _origin: usize,
    ) -> Result<Self, PlanError> {
        plan.exec_1d::<V>(domain, t)
    }
}

impl Domain for Grid2D {
    const DIMS: usize = 2;

    fn exec<V: SimdF64>(
        plan: &Plan,
        domain: &Self,
        t: usize,
        origin: usize,
    ) -> Result<Self, PlanError> {
        plan.exec_2d::<V>(domain, t, origin)
    }
}

impl Domain for Grid3D {
    const DIMS: usize = 3;

    fn exec<V: SimdF64>(
        plan: &Plan,
        domain: &Self,
        t: usize,
        origin: usize,
    ) -> Result<Self, PlanError> {
        plan.exec_3d::<V>(domain, t, origin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;
    use stencil_grid::max_abs_diff;

    fn ref_1d(p: &Pattern, g: &Grid1D, t: usize) -> Grid1D {
        Solver::new(p.clone())
            .method(Method::Scalar)
            .compile()
            .unwrap()
            .run_1d(g, t)
            .unwrap()
    }

    #[test]
    fn all_1d_methods_agree_block_free() {
        let p = kernels::heat1d();
        let g = Grid1D::from_fn(256, |i| ((i * 7) % 13) as f64);
        let t = 6;
        let want = ref_1d(&p, &g, t);
        for m in [
            Method::MultipleLoads,
            Method::DataReorg,
            Method::Dlt,
            Method::TransposeLayout,
        ] {
            let plan = Solver::new(p.clone()).method(m).compile().unwrap();
            let got = plan.run_1d(&g, t).unwrap();
            assert!(
                max_abs_diff(want.as_slice(), got.as_slice()) < 1e-12,
                "{m:?}"
            );
        }
    }

    #[test]
    fn tessellated_methods_agree_1d() {
        let p = kernels::heat1d();
        let g = Grid1D::from_fn(300, |i| (i as f64 * 0.1).sin());
        let t = 12;
        let want = ref_1d(&p, &g, t);
        for (m, threads) in [
            (Method::MultipleLoads, 1),
            (Method::TransposeLayout, 4),
            (Method::Scalar, 3),
        ] {
            let plan = Solver::new(p.clone())
                .method(m)
                .tiling(Tiling::Tessellate { time_block: 4 })
                .threads(threads)
                .compile()
                .unwrap();
            let got = plan.run_1d(&g, t).unwrap();
            assert!(
                max_abs_diff(want.as_slice(), got.as_slice()) < 1e-12,
                "{m:?}"
            );
        }
    }

    #[test]
    fn sdsl_configuration_1d() {
        let p = kernels::heat1d();
        let g = Grid1D::from_fn(256, |i| (i % 11) as f64);
        let t = 8;
        let want = ref_1d(&p, &g, t);
        let got = Solver::new(p)
            .method(Method::Dlt)
            .tiling(Tiling::Split { time_block: 4 })
            .threads(4)
            .compile()
            .unwrap()
            .run_1d(&g, t)
            .unwrap();
        assert!(max_abs_diff(want.as_slice(), got.as_slice()) < 1e-12);
    }

    #[test]
    fn folded_tessellated_2d_matches_folded_reference() {
        let p = kernels::box2d9p();
        let g = Grid2D::from_fn(40, 44, |y, x| ((y * 3 + x) % 17) as f64);
        // reference: block-free folded (same m) — identical semantics
        let want = Solver::new(p.clone())
            .method(Method::Folded { m: 2 })
            .compile()
            .unwrap()
            .run_2d(&g, 8)
            .unwrap();
        let got = Solver::new(p)
            .method(Method::Folded { m: 2 })
            .tiling(Tiling::Tessellate { time_block: 2 })
            .threads(4)
            .compile()
            .unwrap()
            .run_2d(&g, 8)
            .unwrap();
        assert!(max_abs_diff(&want.to_dense(), &got.to_dense()) < 1e-10);
    }

    #[test]
    fn widths_agree_2d() {
        let p = kernels::heat2d();
        let g = Grid2D::from_fn(30, 34, |y, x| ((y * 13 + x * 5) % 19) as f64);
        let run = |w: Width| {
            Solver::new(p.clone())
                .method(Method::Folded { m: 2 })
                .width(w)
                .compile()
                .unwrap()
                .run_2d(&g, 4)
                .unwrap()
        };
        let (a, b, c) = (run(Width::W4), run(Width::W8), run(Width::W1));
        assert!(max_abs_diff(&a.to_dense(), &b.to_dense()) < 1e-10);
        assert!(max_abs_diff(&a.to_dense(), &c.to_dense()) < 1e-10);
    }

    #[test]
    fn three_d_paths_agree() {
        let p = kernels::heat3d();
        let g = Grid3D::from_fn(14, 14, 18, |z, y, x| ((z + y + x) % 5) as f64);
        let t = 4;
        let want = Solver::new(p.clone())
            .method(Method::Scalar)
            .compile()
            .unwrap()
            .run_3d(&g, t)
            .unwrap();
        let ml = Solver::new(p.clone())
            .method(Method::MultipleLoads)
            .compile()
            .unwrap()
            .run_3d(&g, t)
            .unwrap();
        assert!(max_abs_diff(&want.to_dense(), &ml.to_dense()) < 1e-12);
        let tess = Solver::new(p)
            .method(Method::MultipleLoads)
            .tiling(Tiling::Tessellate { time_block: 2 })
            .threads(4)
            .compile()
            .unwrap()
            .run_3d(&g, t)
            .unwrap();
        assert!(max_abs_diff(&want.to_dense(), &tess.to_dense()) < 1e-12);
    }

    #[test]
    fn spatial_blocking_2d() {
        let p = kernels::box2d9p();
        let g = Grid2D::from_fn(33, 37, |y, x| ((y + 2 * x) % 9) as f64);
        let want = Solver::new(p.clone())
            .method(Method::Scalar)
            .compile()
            .unwrap()
            .run_2d(&g, 5)
            .unwrap();
        let got = Solver::new(p)
            .tiling(Tiling::Spatial { block: (8, 8) })
            .threads(3)
            .compile()
            .unwrap()
            .run_2d(&g, 5)
            .unwrap();
        assert!(max_abs_diff(&want.to_dense(), &got.to_dense()) < 1e-12);
    }

    #[test]
    fn auto_resolves_to_a_concrete_method() {
        let plan = Solver::new(kernels::heat1d())
            .method(Method::Auto)
            .compile()
            .unwrap();
        assert_ne!(plan.method(), Method::Auto);
        let g = Grid1D::from_fn(256, |i| ((i * 7) % 13) as f64);
        let want = ref_1d(&kernels::heat1d(), &g, 6);
        let got = plan.run_1d(&g, 6).unwrap();
        // auto may pick a folded method whose Dirichlet band is wider;
        // compare away from the boundary
        let band = 2 * 6;
        assert!(
            max_abs_diff(
                &want.as_slice()[band..256 - band],
                &got.as_slice()[band..256 - band]
            ) < 1e-12
        );
    }
}
