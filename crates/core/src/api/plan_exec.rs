//! Compiled execution plans: validation, derived artifacts, and the
//! dimension-dispatched run paths.

use super::config::{Method, PlanConfig, Solver, Tiling, Tuning, Width};
use super::error::PlanError;
use crate::exec::folded::{self, FoldedKernel};
use crate::exec::folded3d::{self, Ring3};
use crate::exec::{multiload, scalar, xlayout};
use crate::folding::fold;
use crate::pattern::Pattern;
use crate::tile::{self, tessellate};
use core::ops::Range;
use stencil_grid::{Grid1D, Grid2D, Grid3D, PingPong};
use stencil_runtime::PoolHandle;
use stencil_simd::{SimdF64, WithSimd};

/// Why a sweep may assume the route of its dimensionality.
const CHECKED: &str = "Plan::check accepted the domain's dimensionality";

/// The kernel a route steps with. `R` is the register-pipeline state of
/// the plan's dimensionality: nothing in 1D (the squares kernel needs
/// only taps), the planned [`FoldedKernel`] in 2D, and the kernel plus
/// its z-ring geometry in 3D.
enum Kernel<R> {
    Scalar,
    /// Unaligned-load vector kernel (`MultipleLoads`).
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
            // MultipleLoads; Auto was resolved before any route is built.
            _ => Kernel::Vector,
        }
    }

    /// Step one range at `width`: [`stencil_simd::dispatch`] runs the
    /// call on the widest backend the CPU has, on whichever thread the
    /// tiling driver gave the range to.
    fn step<'a, A>(&'a self, width: Width, args: A)
    where
        Step<'a, R, A>: WithSimd<Output = ()>,
    {
        stencil_simd::dispatch(width.lanes(), Step { kernel: self, args })
    }
}

/// One range-kernel call of a route: the kernel and the range-kernel
/// arguments of its dimensionality (`Args1`..`Args3`). Everything under
/// `run` is `#[inline(always)]` down to the intrinsics, so each call
/// compiles into the dispatch entry of its backend.
struct Step<'a, R, A> {
    kernel: &'a Kernel<R>,
    args: A,
}

/// `(taps, src, dst, lo, hi)`
type Args1<'a> = (&'a [f64], &'a [f64], &'a mut [f64], usize, usize);

impl WithSimd for Step<'_, (), Args1<'_>> {
    type Output = ();

    #[inline(always)]
    fn run<V: SimdF64>(self) {
        let (taps, s, d, lo, hi) = self.args;
        match self.kernel {
            Kernel::Scalar => scalar::step_range_1d(s, d, taps, lo, hi),
            Kernel::Vector => multiload::step_range_1d::<V>(s, d, taps, lo, hi),
            Kernel::Register(()) => folded::step_squares_range_1d::<V>(s, d, taps, lo, hi),
        }
    }
}

/// `(pattern, src, dst, ys, xs)`
type Args2<'a> = (
    &'a Pattern,
    &'a Grid2D,
    &'a mut Grid2D,
    Range<usize>,
    Range<usize>,
);

impl WithSimd for Step<'_, FoldedKernel, Args2<'_>> {
    type Output = ();

    #[inline(always)]
    fn run<V: SimdF64>(self) {
        let (q, s, d, ys, xs) = self.args;
        match self.kernel {
            Kernel::Scalar => scalar::step_range_2d(s, d, q, ys, xs),
            Kernel::Vector => multiload::step_range_2d::<V>(s, d, q, ys, xs),
            Kernel::Register(k) => folded::step_range_2d::<V>(k, s, d, ys, xs),
        }
    }
}

/// `(pattern, src, dst, zs, ys, xs)`
type Args3<'a> = (
    &'a Pattern,
    &'a Grid3D,
    &'a mut Grid3D,
    Range<usize>,
    Range<usize>,
    Range<usize>,
);

impl WithSimd for Step<'_, (FoldedKernel, Ring3), Args3<'_>> {
    type Output = ();

    #[inline(always)]
    fn run<V: SimdF64>(self) {
        let (q, s, d, zs, ys, xs) = self.args;
        match self.kernel {
            Kernel::Scalar => scalar::step_range_3d(s, d, q, zs, ys, xs),
            Kernel::Vector => multiload::step_range_3d::<V>(s, d, q, zs, ys, xs),
            Kernel::Register((k, ring)) => {
                folded3d::step_range_3d_ring::<V>(k, *ring, s, d, zs, ys, xs)
            }
        }
    }
}

/// The 1D block-free transpose-layout arm (`xlayout::sweep_1d`), which
/// runs whole on the calling thread: one dispatch per run.
struct LayoutSweep<'a> {
    plan: &'a Plan,
    pp: &'a mut PingPong<Grid1D>,
    t: usize,
}

impl WithSimd for LayoutSweep<'_> {
    type Output = ();

    #[inline(always)]
    fn run<V: SimdF64>(self) {
        let Self { plan, pp, t } = self;
        xlayout::sweep_1d::<V>(pp, &plan.pattern, &plan.folded, plan.m(), t)
    }
}

/// The legs of a plan of one dimensionality (`R` as in [`Kernel`]):
/// `body` steps the folded pattern Λ, and `tail`, the single-step kernel
/// of the same method, the `t % m` remainder; it exists exactly when
/// `m > 1` leaves one to run. Both run under the plan's tiling.
struct Legs<R> {
    body: Kernel<R>,
    tail: Option<Kernel<R>>,
}

impl<R> Legs<R> {
    /// `register(m)` builds the `m`-step register-pipeline state.
    fn new(method: Method, mut register: impl FnMut(usize) -> R) -> Self {
        let m = method.fold();
        Legs {
            body: Kernel::new(method, || register(m)),
            tail: (m > 1).then(|| Kernel::new(method, || register(1))),
        }
    }
}

/// The one route a compiled plan runs: its legs, which the tiling driver
/// runs under the plan's tiling, typed by dimensionality so a run can
/// only reach the executors of the pattern it was compiled for.
enum Route {
    D1(Legs<()>),
    D2(Legs<FoldedKernel>),
    D3(Legs<(FoldedKernel, Ring3)>),
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
/// `run_1d`/`run_2d`/`run_3d` (or the dimension-generic [`Plan::run`]),
/// and [`Plan::run_pair`] on a pair the caller owns, can be invoked
/// any number of times; the only error they can return is
/// [`PlanError::DimensionMismatch`]. No planning work happens per run.
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
            d.config
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
            resolved.tiling = crate::tune::auto_tiling(dims, cfg.threads);
        }

        // Nothing is open any more, so this decides every rule (a
        // tuner's decision — cache entries are external input — gets
        // the same validation as the user's request).
        resolved.check(p, &mut built)?;

        // Derive the reusable artifacts once.
        let m = resolved.method.fold();
        let folded = if m > 1 { fold(p, m) } else { p.clone() };
        // the z-ring pane of a 3D register plan, derived once and run by
        // body and tail legs alike
        let ring = Ring3::auto(resolved.width.lanes(), m * p.radius());
        let mut kernel = |m| {
            let at = built.iter().position(|f| f.m == m);
            let at = at.expect("validating a 2D/3D register method plans its kernels");
            FoldedKernel::from_plan(built.swap_remove(at))
        };
        let method = resolved.method;
        let route = match dims {
            1 => Route::D1(Legs::new(method, |_| ())),
            2 => Route::D2(Legs::new(method, kernel)),
            _ => Route::D3(Legs::new(method, |m| (kernel(m), ring))),
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
    /// `run_1d`/`run_2d`/`run_3d`: [`Plan::run_pair`] on a pair of
    /// the grid's clone and a zeroed scratch surface, both from the
    /// surface pool, and the latest level returned.
    ///
    /// Errors: [`PlanError::DimensionMismatch`] when the domain's
    /// dimensionality differs from the pattern's.
    pub fn run<D: Domain>(&self, domain: &D, t: usize) -> Result<D, PlanError> {
        self.check::<D>()?;
        let mut pp = PingPong::from_pair(domain.clone(), domain.zeros_like());
        self.run_pair(&mut pp, t)?;
        Ok(pp.into_current())
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

    /// Run `t` time steps in place on a caller-owned pair of any
    /// dimensionality: `pp.current()` is the grid going in and the
    /// advanced grid coming out, and no grid is allocated. The scratch
    /// surface may hold anything — another window's data in a recycled
    /// buffer, say: the run establishes the current surface's Dirichlet
    /// band on it ([`Plan::effective_radius`] cells per axis) and writes
    /// every other cell before reading it.
    ///
    /// A 2D or 3D grid may be a slab of a larger domain (a shard, an
    /// out-of-core window): the slab's tile edges fall where its own
    /// extent puts them, and no bit depends on where they fall, so every
    /// cell farther than `t · r` from the slab's cut edges carries the
    /// bits of the whole domain's run.
    ///
    /// Bit-identical to [`Plan::run`]; same errors, and on an error the
    /// pair is untouched.
    ///
    /// # Panics
    /// If the two surfaces differ in shape.
    pub fn run_pair<D: Domain>(&self, pp: &mut PingPong<D>, t: usize) -> Result<(), PlanError> {
        self.check::<D>()?;
        // all a sweep asks of the scratch surface (see `sweep_3d`)
        let (cur, scratch) = pp.both_mut();
        scratch.copy_band_from(cur, self.effective_radius());
        D::sweep(self, pp, t);
        Ok(())
    }

    /// The error a run can return, decided before it touches a grid.
    fn check<D: Domain>(&self) -> Result<(), PlanError> {
        if D::DIMS != self.dims() {
            return Err(PlanError::DimensionMismatch {
                pattern_dims: self.dims(),
                domain_dims: D::DIMS,
            });
        }
        Ok(())
    }

    /// The legs of a route advancing `t` levels: `t / m` inner steps of
    /// `body` over Λ, then the `t % m` remainder as single steps of
    /// `tail` over the base pattern. Each entry is `(kernel, the pattern
    /// it steps, inner steps)`; a leg of no steps is left out.
    fn legs<'a, R>(
        &'a self,
        Legs { body, tail }: &'a Legs<R>,
        t: usize,
    ) -> impl Iterator<Item = (&'a Kernel<R>, &'a Pattern, usize)> {
        let m = self.m();
        let tail = tail.iter().map(move |k| (k, &self.pattern, t % m));
        let legs = std::iter::once((body, &self.folded, t / m)).chain(tail);
        legs.filter(|&(_, _, steps)| steps > 0)
    }

    /// Advance `pp` by `t` steps along the 1D route. The block-free
    /// transpose layout relayouts the whole grid, so it has no tiles: it
    /// changes layout on the pair's own surfaces and puts the result
    /// back into it.
    fn sweep_1d(&self, pp: &mut PingPong<Grid1D>, t: usize) {
        let Route::D1(legs) = &self.route else {
            unreachable!("{CHECKED}")
        };
        let width = self.config.width;
        if let (Tiling::None, Kernel::Register(())) = (self.config.tiling, &legs.body) {
            let sweep = LayoutSweep { plan: self, pp, t };
            return stencil_simd::dispatch(width.lanes(), sweep);
        }
        for (kernel, q, steps) in self.legs(legs, t) {
            let (r, taps) = (q.radius(), q.weights());
            let (w, tb) = tile::cut(self.config.tiling, &[], r);
            let step = |s: &[f64], d: &mut [f64], lo, hi| kernel.step(width, (taps, s, d, lo, hi));
            tessellate::run_1d(&self.pool, pp, r, r, w, tb, steps, &step);
        }
    }

    /// Advance `pp` by `t` steps along the 2D route (see `sweep_3d`).
    fn sweep_2d(&self, pp: &mut PingPong<Grid2D>, t: usize) {
        let Route::D2(legs) = &self.route else {
            unreachable!("{CHECKED}")
        };
        let width = self.config.width;
        for (kernel, q, steps) in self.legs(legs, t) {
            let _span = matches!(kernel, Kernel::Register(_)).then(ring_span);
            let r = q.radius();
            let (w, tb) = tile::cut(self.config.tiling, &[pp.current().nx()], r);
            let step = |s: &Grid2D, d: &mut Grid2D, ys, xs| kernel.step(width, (q, s, d, ys, xs));
            tessellate::run_2d(&self.pool, pp, r, r, w, tb, steps, &step)
        }
    }

    /// Advance `pp` by `t` steps along the 3D route. Both surfaces must
    /// carry the Dirichlet band of `effective_radius()` cells per axis —
    /// no leg writes it — and every leg writes an interior cell of the
    /// scratch surface before reading it, so that is all the scratch
    /// surface needs to hold.
    fn sweep_3d(&self, pp: &mut PingPong<Grid3D>, t: usize) {
        let Route::D3(legs) = &self.route else {
            unreachable!("{CHECKED}")
        };
        let width = self.config.width;
        for (kernel, q, steps) in self.legs(legs, t) {
            let _span = matches!(kernel, Kernel::Register(_)).then(ring_span);
            let r = q.radius();
            let inners = [pp.current().ny(), pp.current().nx()];
            let (w, tb) = tile::cut(self.config.tiling, &inners, r);
            let step =
                |s: &Grid3D, d: &mut Grid3D, zs, ys, xs| kernel.step(width, (q, s, d, zs, ys, xs));
            tessellate::run_3d(&self.pool, pp, r, r, w, tb, steps, &step)
        }
    }
}

/// The register-kernel span of a run or leg (one per sweep, never per
/// tile): the ledger's "register-kernel self time" in 2D and 3D.
fn ring_span() -> stencil_obs::SpanGuard {
    stencil_obs::span(stencil_obs::SpanId::RingSweep)
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for stencil_grid::Grid1D {}
    impl Sealed for stencil_grid::Grid2D {}
    impl Sealed for stencil_grid::Grid3D {}
}

/// A grid type a [`Plan`] can run on — implemented by [`Grid1D`],
/// [`Grid2D`] and [`Grid3D`] (sealed). Enables dimension-generic code,
/// both through [`Plan::run`] and through [`Plan::run_pair`] on a
/// [`PingPong`] pair of the domain:
///
/// ```
/// use stencil_core::{kernels, Domain, Plan, Solver};
/// use stencil_grid::{Grid2D, PingPong};
///
/// fn advance<D: Domain>(plan: &Plan, state: &D, t: usize) -> D {
///     plan.run(state, t).expect("dimensionality checked by caller")
/// }
///
/// let plan = Solver::new(kernels::heat2d()).compile().unwrap();
/// let g = Grid2D::from_fn(32, 32, |y, x| (y + x) as f64);
/// let out = advance(&plan, &g, 3);
/// assert_eq!(out.to_dense().len(), 32 * 32);
///
/// // the same run on a pair the caller owns: no grid is allocated
/// let mut pair = PingPong::from_pair(g, Grid2D::zeros(32, 32));
/// plan.run_pair(&mut pair, 3).unwrap();
/// assert_eq!(pair.current(), &out);
/// ```
pub trait Domain: Clone + sealed::Sealed {
    /// Spatial dimensionality of this domain type.
    const DIMS: usize;

    /// A zeroed grid of this one's shape.
    #[doc(hidden)]
    fn zeros_like(&self) -> Self;

    /// Copy `src`'s Dirichlet band of `r` cells per axis into `self`.
    #[doc(hidden)]
    fn copy_band_from(&mut self, src: &Self, r: usize);

    /// Advance `pp` by `t` steps of `plan`'s route at its compiled width;
    /// `plan` has accepted the domain. Not generic, so every route's
    /// kernels are compiled once, in this crate, whichever crate runs a
    /// plan.
    #[doc(hidden)]
    fn sweep(plan: &Plan, pp: &mut PingPong<Self>, t: usize);
}

impl Domain for Grid1D {
    const DIMS: usize = 1;

    fn zeros_like(&self) -> Self {
        Grid1D::zeros(self.len())
    }

    fn copy_band_from(&mut self, src: &Self, r: usize) {
        Grid1D::copy_band_from(self, src, r)
    }

    fn sweep(plan: &Plan, pp: &mut PingPong<Self>, t: usize) {
        plan.sweep_1d(pp, t)
    }
}

impl Domain for Grid2D {
    const DIMS: usize = 2;

    fn zeros_like(&self) -> Self {
        Grid2D::zeros(self.ny(), self.nx())
    }

    fn copy_band_from(&mut self, src: &Self, r: usize) {
        Grid2D::copy_band_from(self, src, r)
    }

    fn sweep(plan: &Plan, pp: &mut PingPong<Self>, t: usize) {
        plan.sweep_2d(pp, t)
    }
}

impl Domain for Grid3D {
    const DIMS: usize = 3;

    fn zeros_like(&self) -> Self {
        Grid3D::zeros(self.nz(), self.ny(), self.nx())
    }

    fn copy_band_from(&mut self, src: &Self, r: usize) {
        Grid3D::copy_band_from(self, src, r)
    }

    fn sweep(plan: &Plan, pp: &mut PingPong<Self>, t: usize) {
        plan.sweep_3d(pp, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{dlt, reorg};
    use crate::kernels;
    use crate::tile::split;
    use stencil_grid::max_abs_diff;
    use stencil_simd::NativeF64x4;

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
        for m in [Method::MultipleLoads, Method::TransposeLayout] {
            let plan = Solver::new(p.clone()).method(m).compile().unwrap();
            let got = plan.run_1d(&g, t).unwrap();
            assert!(
                max_abs_diff(want.as_slice(), got.as_slice()) < 1e-12,
                "{m:?}"
            );
        }
        // the paper's block-free baselines, through their own entries
        let mut pp = PingPong::new(g.clone());
        reorg::sweep_1d::<NativeF64x4>(&mut pp, &p, t);
        assert!(max_abs_diff(want.as_slice(), pp.current().as_slice()) < 1e-12);
        let mut pp = PingPong::new(g);
        dlt::sweep_1d::<NativeF64x4>(&mut pp, &p, t);
        assert!(max_abs_diff(want.as_slice(), pp.current().as_slice()) < 1e-12);
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
        let mut pp = PingPong::new(g);
        split::sweep_1d::<NativeF64x4>(&PoolHandle::new(4), &mut pp, &p, 4, t);
        assert!(max_abs_diff(want.as_slice(), pp.current().as_slice()) < 1e-12);
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
    fn a_run_after_a_run_of_another_shape_returns_the_same_grid() {
        // every surface is above the surface pool's floor, so the second
        // run of `a` may sweep on blocks the run of `b` (padded wider)
        // left behind; odd `t` ends on the scratch surface
        let plan = |p: Pattern| {
            let s = Solver::new(p).method(Method::Folded { m: 2 });
            s.compile().unwrap()
        };
        let f = |i: usize| ((i * 7919) % 101) as f64 * 0.25;
        let p2 = plan(kernels::heat2d());
        let a = Grid2D::from_fn(400, 397, |y, x| f(y * 397 + x));
        let b = Grid2D::from_fn(390, 411, |y, x| f(y + x));
        for t in [4, 5] {
            let first = p2.run_2d(&a, t).unwrap();
            drop(p2.run_2d(&b, t).unwrap());
            assert!(p2.run_2d(&a, t).unwrap() == first, "2D t={t}");
        }
        let p3 = plan(kernels::heat3d());
        let a = Grid3D::from_fn(64, 64, 37, |z, y, x| f(z * 4096 + y * 64 + x));
        let b = Grid3D::from_fn(66, 62, 41, |z, y, x| f(z + y + x));
        for t in [4, 5] {
            let first = p3.run_3d(&a, t).unwrap();
            drop(p3.run_3d(&b, t).unwrap());
            assert!(p3.run_3d(&a, t).unwrap() == first, "3D t={t}");
        }
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
    fn a_radius_0_pattern_runs_under_either_tiling() {
        // no neighbour read, so no band: every cell is scaled once a step
        // (0.5³, exact), whatever the tiling's geometry makes of radius 0
        let methods = [
            Method::Scalar,
            Method::MultipleLoads,
            Method::TransposeLayout,
            Method::Folded { m: 2 },
        ];
        let tilings = [Tiling::None, Tiling::Tessellate { time_block: 4 }];
        let field = |i: usize| (i % 7) as f64 - 2.5;
        for dims in 1..=3 {
            let p = Pattern::new(dims, 0, vec![0.5]);
            for (method, tiling) in methods.iter().flat_map(|&m| tilings.map(|t| (m, t))) {
                let plan = Solver::new(p.clone()).method(method).tiling(tiling);
                let plan = plan.threads(2).compile().unwrap();
                let (got, g) = match dims {
                    1 => {
                        let g = Grid1D::from_fn(37, field);
                        (
                            plan.run_1d(&g, 3).unwrap().as_slice().to_vec(),
                            g.as_slice().to_vec(),
                        )
                    }
                    2 => {
                        let g = Grid2D::from_fn(9, 13, |y, x| field(y * 13 + x));
                        (plan.run_2d(&g, 3).unwrap().to_dense(), g.to_dense())
                    }
                    _ => {
                        let g = Grid3D::from_fn(5, 6, 11, |z, y, x| field((z * 6 + y) * 11 + x));
                        (plan.run_3d(&g, 3).unwrap().to_dense(), g.to_dense())
                    }
                };
                let want: Vec<f64> = g.iter().map(|v| v * 0.125).collect();
                assert_eq!(got, want, "{dims}D {method:?} {tiling:?}");
            }
        }
    }

    #[test]
    fn a_one_tile_plan_runs_on_the_calling_thread() {
        // from inside a job of their own two-thread pool: a dispatch
        // would be a reentrant run, so both must stay on this thread
        let pool = PoolHandle::new(2);
        let g = Grid2D::from_fn(24, 20, |y, x| ((y * 5 + x * 3) % 11) as f64);
        let plans = [Tiling::None, Tiling::Tessellate { time_block: 2 }].map(|tiling| {
            let plan = Solver::new(kernels::heat2d()).tiling(tiling);
            plan.pool(pool.clone()).compile().unwrap()
        });
        let want = plans[0].run_2d(&g, 4).unwrap();
        pool.run(&|worker| {
            if worker == 0 {
                for plan in &plans {
                    assert_eq!(plan.run_2d(&g, 4).unwrap(), want, "{:?}", plan.tiling());
                }
            }
        });
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
