//! Parameter autotuning — the paper's declared future work ("the
//! performance is sensitive to the stencil parameters, significant
//! efforts are required in automatic tuning and this will be done
//! separately", §4.1).
//!
//! Two layers, both *policy* over one configuration space: what a
//! pattern admits is decided by [`PlanConfig::validate`] alone, and
//! everything here chooses among what it admits.
//!
//! * [`auto_method`] / [`auto_tiling`] — the compile-time static
//!   resolvers behind [`Method::Auto`] and [`Tiling::Auto`]: a
//!   preference order from the op-collect cost model (§3.2), filtered
//!   by the rule table, with no probe runs. This is the
//!   [`Tuning::Static`](crate::Tuning) path, the fallback for
//!   everything else, and the one resolver a bytes-aware cost model
//!   has to change.
//! * The [`MeasuredTuner`] hook — the seam the measured
//!   [`Tuning`] modes route through. The `stencil-tune`
//!   crate installs its probing autotuner here ([`install_tuner`]);
//!   `stencil-core` itself stays free of probing and persistence so the
//!   dependency edge points outward (tune → core, never back).

use crate::api::config::fold_plan;
use crate::api::{Method, PlanConfig, Tiling, Tuning, Width};
use crate::cost;
use crate::pattern::Pattern;
use crate::plan::FoldPlan;
use std::sync::OnceLock;

/// Profitability threshold θ >= 1 for choosing temporal folding
/// (Eq. 3); folding must save at least this factor of arithmetic to be
/// selected by [`auto_method`].
pub const AUTO_FOLD_THETA: f64 = 1.5;

/// Resolve [`Method::Auto`] for `p` at vector width `width` under
/// `tiling`, without probe runs: the first of
///
/// 1. temporal folding `m = 2`, when the §3.2 profitability index
///    clears [`AUTO_FOLD_THETA`],
/// 2. the transpose-layout pipeline,
/// 3. multiple loads, which every pattern admits under every tiling,
///
/// that [`PlanConfig::validate`] accepts with `tiling`. An open
/// `tiling` resolves afterwards ([`auto_tiling`]).
pub fn auto_method(p: &Pattern, width: Width, tiling: Tiling) -> Method {
    resolve_method(p, &mut Vec::new(), width, tiling)
}

/// [`auto_method`] sharing the compile's fold plans ([`fold_plan`]).
pub(crate) fn resolve_method(
    p: &Pattern,
    built: &mut Vec<FoldPlan>,
    width: Width,
    tiling: Tiling,
) -> Method {
    let admits = |method, built: &mut Vec<FoldPlan>| {
        let config = PlanConfig {
            method,
            tiling,
            width,
        };
        config.check(p, built).is_ok()
    };
    let fold2 = Method::Folded { m: 2 };
    if admits(fold2, built)
        && cost::planned_profitability(p, fold_plan(built, p, 2)) >= AUTO_FOLD_THETA
    {
        return fold2;
    }
    if admits(Method::TransposeLayout, built) {
        Method::TransposeLayout
    } else {
        Method::MultipleLoads
    }
}

/// Largest folded radius `m * r` the register pipeline supports for a
/// pattern of dimensionality `dims` at vector width `width` — the bound
/// behind [`PlanError::InvalidFold`](crate::PlanError::InvalidFold).
pub fn fold_radius_cap(dims: usize, width: Width) -> usize {
    crate::api::config::fold_radius_cap(dims, width)
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

/// Default tessellation time block for `dims`-dimensional
/// patterns — the static seed the measured tuner searches around
/// (roughly the ratios of the paper's Table-1 hand-tuned values,
/// scaled to the harness's default domains).
///
/// The time block decides how many steps a tile advances between pool
/// barriers, and with them the slope a tile loses per round and the
/// *floor* of its width. It does not decide how wide a tile is: that is
/// [`TILE_BYTES`]' job ([`crate::tile::tile_width`]).
pub fn default_time_block(dims: usize) -> usize {
    match dims {
        1 => 32,
        2 => 8,
        _ => 4,
    }
}

/// What one tessellate tile may hold of the two time levels it sweeps:
/// half the smallest private L2 this code is measured on (2 MiB a core
/// on the reference host), which leaves the other half to the neighbour
/// slopes a tile reads and to whatever else the core touches. A tile is
/// `TILE_BYTES / 2` bytes of whole inner slices of the cut axis wide
/// ([`crate::tile::tile_width`]), however short its time block. A
/// constant of the code, not a knob: no [`Tiling`] field, no option, no
/// environment variable reads or overrides it.
pub const TILE_BYTES: usize = 1 << 20;

/// Resolve [`Tiling::Auto`] without probe runs: tessellate tiling with
/// the [`default_time_block`] when worker threads are available, and
/// plain block-free sweeps single-threaded (where tiling overhead cannot
/// be amortized across cores). Only the time block is resolved here —
/// the tile width follows from the grid at run time
/// ([`crate::tile::tile_width`]), so one plan tiles every domain it is
/// given to its own cache-sized tiles.
pub fn auto_tiling(dims: usize, threads: usize) -> Tiling {
    if threads > 1 {
        Tiling::Tessellate {
            time_block: default_time_block(dims),
        }
    } else {
        Tiling::None
    }
}

// ---------------------------------------------------------------------
// The measured-tuning hook.
// ---------------------------------------------------------------------

/// What [`Solver::compile`](crate::Solver::compile) asks an installed
/// [`MeasuredTuner`] to decide — built by
/// [`Solver::tune_request`](crate::Solver::tune_request).
#[derive(Debug, Clone)]
pub struct TuneRequest<'a> {
    /// The stencil pattern being compiled.
    pub pattern: &'a Pattern,
    /// The requested configuration. Axes the user fixed must be
    /// honored; an open one ([`Method::Auto`], [`Tiling::Auto`]) means
    /// "tune this". `width` is the configured width: the tuner may probe
    /// narrower ones too — e.g. AVX-512 downclocking can make 4 lanes
    /// beat 8 — but must never widen beyond it.
    pub config: PlanConfig,
    /// Worker threads the compiled plan will run with.
    pub threads: usize,
    /// The extents from [`Solver::domain_hint`](crate::Solver::domain_hint), if any.
    pub domain_hint: Option<&'a [usize]>,
    /// The requested mode — [`Tuning::Measured`] may probe,
    /// [`Tuning::CacheOnly`] must not.
    pub mode: Tuning,
}

impl TuneRequest<'_> {
    /// True when `config` answers this request: every axis the request
    /// pins is as pinned and the width is not widened.
    pub fn admits(&self, config: &PlanConfig) -> bool {
        let want = &self.config;
        (want.method == Method::Auto || config.method == want.method)
            && (want.tiling == Tiling::Auto || config.tiling == want.tiling)
            && config.width.lanes() <= want.width.lanes()
    }
}

/// A tuner's answer: the concrete configuration to compile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuneDecision {
    /// The chosen configuration: method and tiling never `Auto`, width
    /// ≤ the requested width.
    pub config: PlanConfig,
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
    /// Decide a concrete configuration for `req`, probing if the mode
    /// allows it.
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
    fn auto_tiling_pairs_threads_with_tessellate() {
        assert!(matches!(auto_tiling(2, 8), Tiling::Tessellate { .. }));
        assert_eq!(auto_tiling(2, 1), Tiling::None);
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
        // whatever tiling is pinned, the method auto picks compiles under
        // it, across every dimensionality and width
        let tilings = [Tiling::None, Tiling::Tessellate { time_block: 4 }];
        for p in [kernels::d1p5(), kernels::gb(), kernels::box3d125p()] {
            for width in [Width::W1, Width::W4, Width::W8] {
                for tiling in tilings {
                    let method = auto_method(&p, width, tiling);
                    let config = PlanConfig {
                        method,
                        tiling,
                        width,
                    };
                    assert_eq!(config.validate(&p), Ok(()), "{config:?}");
                }
            }
        }
        // radius 2 at one lane admits no register method in 1D
        assert_eq!(
            auto_method(&kernels::d1p5(), Width::W1, Tiling::None),
            Method::MultipleLoads
        );
    }
}
