//! Parameter autotuning — the paper's declared future work ("the
//! performance is sensitive to the stencil parameters, significant
//! efforts are required in automatic tuning and this will be done
//! separately", §4.1).
//!
//! Two layers:
//!
//! * [`auto_method`] / [`auto_tiling`] — the compile-time static
//!   resolvers behind [`Method::Auto`] and [`Tiling::Auto`]: pick a
//!   vectorization method and tiling from the op-collect cost model
//!   (§3.2) and the register pipeline's radius bounds, with no probe
//!   runs. This is the [`Tuning::Static`](crate::Tuning) path and the
//!   fallback for everything else.
//! * The [`MeasuredTuner`] hook — the seam the measured
//!   [`Tuning`] modes route through. The `stencil-tune`
//!   crate installs its probing autotuner here ([`install_tuner`]);
//!   `stencil-core` itself stays free of probing and persistence so the
//!   dependency edge points outward (tune → core, never back).

use crate::api::{Method, Ring3, Tiling, Tuning, Width};
use crate::cost;
use crate::pattern::Pattern;
use crate::plan::FoldPlan;
use std::sync::OnceLock;

/// Profitability threshold θ >= 1 for choosing temporal folding
/// (Eq. 3); folding must save at least this factor of arithmetic to be
/// selected by [`auto_method`].
pub const AUTO_FOLD_THETA: f64 = 1.5;

/// Resolve [`Method::Auto`] for `p` at vector width `width` under
/// `tiling`, without probe runs:
///
/// * split tiling admits only DLT (the SDSL configuration);
/// * spatial blocking uses the straightforward vector kernel;
/// * otherwise prefer temporal folding `m = 2` when the folded radius
///   fits the register pipeline, the counterpart plan fits the register
///   budget, and the §3.2 profitability index clears
///   [`AUTO_FOLD_THETA`]; fall back to the transpose-layout pipeline,
///   then to multiple loads.
pub fn auto_method(p: &Pattern, width: Width, tiling: Tiling) -> Method {
    match tiling {
        Tiling::Split { .. } => return Method::Dlt,
        Tiling::Spatial { .. } => return Method::MultipleLoads,
        // Auto tiling resolves to None/Tessellate afterwards (see
        // auto_tiling), both of which admit every register method.
        Tiling::None | Tiling::Tessellate { .. } | Tiling::Auto => {}
    }
    let dims = p.dims();
    let cap = fold_radius_cap(dims, width);
    // The counterpart plan built here (and inside cost::profitability) is
    // rebuilt by Plan::compile for the chosen method; patterns are tiny
    // (<= (2R+1)^d weights), so this costs microseconds and only at
    // compile time — never on the run path.
    let fits = |m: usize| {
        m * p.radius() <= cap
            && (dims == 1 || FoldPlan::new(p, m).fresh.len() <= crate::exec::folded::MAX_F)
    };
    if fits(2) && cost::profitability(p, 2) >= AUTO_FOLD_THETA {
        Method::Folded { m: 2 }
    } else if fits(1) {
        Method::TransposeLayout
    } else {
        Method::MultipleLoads
    }
}

/// Largest folded radius `m * r` the register pipeline supports for a
/// pattern of dimensionality `dims` at vector width `width` — public
/// wrapper around the bound [`Solver::compile`](crate::Solver::compile) enforces, so candidate
/// generators (the measured tuner's `Folded { m: 3 }` probes) can
/// skip configurations compilation would reject.
pub fn fold_radius_cap(dims: usize, width: Width) -> usize {
    crate::api::plan_exec::fold_radius_cap(dims, width)
}

/// Bucket hinted domain extents into a coarse shape class: plans tuned
/// for cache-resident grids and for memory-bound grids must never share
/// a cache entry or a registry slot (the point of Fig. 8's storage-level
/// ladder). `None` (no hint) maps to the medium class the measured
/// tuner's probe domains default to.
pub fn shape_class(hint: Option<&[usize]>) -> &'static str {
    let Some(extents) = hint else { return "medium" };
    let points: usize = extents.iter().copied().filter(|&e| e > 0).product();
    match points {
        0..=16_384 => "tiny",
        16_385..=262_144 => "small",
        262_145..=4_194_304 => "medium",
        _ => "large",
    }
}

/// Default tessellation/split time block for `dims`-dimensional
/// patterns — the static seed the measured tuner searches around
/// (roughly the ratios of the paper's Table-1 hand-tuned values,
/// scaled to the harness's default domains).
pub fn default_time_block(dims: usize) -> usize {
    match dims {
        1 => 32,
        2 => 8,
        _ => 4,
    }
}

/// Resolve [`Tiling::Auto`] without probe runs: DLT must pair with
/// split tiling (the SDSL configuration); any other method gets
/// tessellate tiling with the [`default_time_block`] when worker
/// threads are available, and plain block-free sweeps single-threaded
/// (where tiling overhead cannot be amortized across cores).
pub fn auto_tiling(dims: usize, method: Method, threads: usize) -> Tiling {
    match method {
        Method::Dlt => Tiling::Split {
            time_block: default_time_block(dims),
        },
        _ if threads > 1 => Tiling::Tessellate {
            time_block: default_time_block(dims),
        },
        _ => Tiling::None,
    }
}

// ---------------------------------------------------------------------
// The measured-tuning hook.
// ---------------------------------------------------------------------

/// What [`Solver::compile`](crate::Solver::compile) asks an installed [`MeasuredTuner`] to
/// decide. Fields that the user fixed in the configuration arrive as
/// `Some(..)` and must be honored; `None` means "tune this".
#[derive(Debug, Clone)]
pub struct TuneRequest<'a> {
    /// The stencil pattern being compiled.
    pub pattern: &'a Pattern,
    /// The configured vector width (the tuner may probe narrower widths
    /// too — e.g. AVX-512 downclocking can make 4 lanes beat 8 — but
    /// must never widen beyond it).
    pub width: Width,
    /// Worker threads the compiled plan will run with.
    pub threads: usize,
    /// `Some` when the method was fixed by the user, `None` for
    /// [`Method::Auto`].
    pub method: Option<Method>,
    /// `Some` when the tiling was fixed by the user, `None` for
    /// [`Tiling::Auto`].
    pub tiling: Option<Tiling>,
    /// The extents from [`Solver::domain_hint`](crate::Solver::domain_hint), if any.
    pub domain_hint: Option<&'a [usize]>,
    /// `Some` when the z-ring geometry was pinned by the user
    /// ([`Solver::ring3`](crate::Solver::ring3)), `None` when the tuner may search the 3D
    /// ring axes (z-strip depth × x-slab width). Only meaningful for 3D
    /// register methods.
    pub ring3: Option<Ring3>,
    /// The requested mode — [`Tuning::Measured`] may probe,
    /// [`Tuning::CacheOnly`] must not.
    pub mode: Tuning,
}

/// A tuner's answer: the concrete configuration to compile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuneDecision {
    /// Chosen vectorization method (never [`Method::Auto`]).
    pub method: Method,
    /// Chosen tiling (never [`Tiling::Auto`]).
    pub tiling: Tiling,
    /// Chosen vector width (≤ the requested width).
    pub width: Width,
    /// Chosen z-ring geometry for 3D register plans (`None` = let the
    /// static [`Ring3::auto`] default stand).
    pub ring3: Option<Ring3>,
    /// True when the decision came from the persistent cache without
    /// running a probe.
    pub from_cache: bool,
}

/// Why a tuner could not decide; mapped onto the typed
/// [`PlanError`](crate::PlanError) tuning variants by
/// [`Solver::compile`](crate::Solver::compile).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TuneFailure {
    /// [`Tuning::CacheOnly`] and the per-host cache has no entry under
    /// this key.
    CacheMiss {
        /// The cache key that missed.
        key: String,
    },
    /// The tuner ran but produced no decision (every candidate failed
    /// to compile, probe harness error, ...).
    Failed {
        /// Human-readable cause.
        reason: String,
    },
}

/// A measured autotuner [`Solver::compile`](crate::Solver::compile) can route
/// [`Tuning::Measured`]/[`Tuning::CacheOnly`] resolutions through.
///
/// Implementations must be cheap to call on a cache hit — `compile()`
/// consults the tuner on **every** measured compile, and the
/// compile-once/run-many contract only holds if warm lookups are
/// microseconds. `stencil-tune`'s `AutoTuner` is the canonical
/// implementation.
pub trait MeasuredTuner: Send + Sync {
    /// Decide a concrete (method, tiling, width) for `req`, probing if
    /// the mode allows it.
    fn tune(&self, req: &TuneRequest<'_>) -> Result<TuneDecision, TuneFailure>;
}

static TUNER: OnceLock<&'static dyn MeasuredTuner> = OnceLock::new();

/// Install the process-wide measured tuner (first installation wins,
/// like `log::set_logger`). Returns `false` when a tuner was already
/// installed — the existing one stays active, so libraries can call
/// this defensively.
///
/// The `'static` borrow keeps the registry allocation-free and makes
/// the ownership story explicit: the tuner must outlive every compile
/// (leak a `Box` for dynamically created tuners, as
/// `stencil_tune::install()` does).
pub fn install_tuner(t: &'static dyn MeasuredTuner) -> bool {
    TUNER.set(t).is_ok()
}

/// The installed measured tuner, if any.
pub fn installed_tuner() -> Option<&'static dyn MeasuredTuner> {
    TUNER.get().copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;
    use crate::Solver;

    #[test]
    fn auto_prefers_folding_when_profitable() {
        // every linear Table-1 kernel has profitability > θ at m = 2 and
        // a folded radius within bounds at the native width
        for p in [kernels::heat1d(), kernels::heat2d(), kernels::box2d9p()] {
            let m = auto_method(&p, Width::native_max(), Tiling::None);
            assert_eq!(m, Method::Folded { m: 2 }, "pts={}", p.points());
        }
    }

    #[test]
    fn auto_respects_width_bounds_1d() {
        // at one lane the folded radius 2 of heat1d m=2 cannot fit; auto
        // must degrade to a supported method, not an invalid plan
        let m = auto_method(&kernels::heat1d(), Width::W1, Tiling::None);
        assert_ne!(m, Method::Folded { m: 2 });
        let plan = Solver::new(kernels::heat1d())
            .method(Method::Auto)
            .width(Width::W1)
            .compile()
            .unwrap();
        assert_ne!(plan.method(), Method::Auto);
    }

    #[test]
    fn auto_tiling_pairs_dlt_with_split_and_threads_with_tessellate() {
        assert!(matches!(
            auto_tiling(1, Method::Dlt, 1),
            Tiling::Split { .. }
        ));
        assert!(matches!(
            auto_tiling(2, Method::Folded { m: 2 }, 8),
            Tiling::Tessellate { .. }
        ));
        assert_eq!(auto_tiling(2, Method::MultipleLoads, 1), Tiling::None);
        // the resolved pair always compiles
        for threads in [1, 4] {
            let plan = Solver::new(kernels::heat2d())
                .method(Method::Auto)
                .tiling(Tiling::Auto)
                .threads(threads)
                .compile()
                .unwrap();
            assert_ne!(plan.method(), Method::Auto);
            assert_ne!(plan.tiling(), Tiling::Auto);
        }
    }

    #[test]
    fn measured_without_tuner_is_a_typed_error() {
        // core never installs a tuner itself, so inside this crate the
        // measured modes must surface TunerUnavailable (the facade's
        // stencil-tune crate is what installs one)
        let err = Solver::new(kernels::heat1d())
            .method(Method::Auto)
            .tuning(Tuning::Measured)
            .compile()
            .unwrap_err();
        assert!(matches!(
            err,
            crate::PlanError::TunerUnavailable {
                mode: Tuning::Measured
            }
        ));
        // ...but a fully concrete configuration has nothing to tune and
        // compiles under any mode
        let plan = Solver::new(kernels::heat1d())
            .method(Method::MultipleLoads)
            .tuning(Tuning::Measured)
            .compile()
            .unwrap();
        assert_eq!(plan.method(), Method::MultipleLoads);
    }

    #[test]
    fn auto_honors_tiling_constraints() {
        let p = kernels::heat1d();
        assert_eq!(
            auto_method(&p, Width::W4, Tiling::Split { time_block: 4 }),
            Method::Dlt
        );
        assert_eq!(
            auto_method(
                &kernels::heat2d(),
                Width::W4,
                Tiling::Spatial { block: (8, 8) }
            ),
            Method::MultipleLoads
        );
    }
}
