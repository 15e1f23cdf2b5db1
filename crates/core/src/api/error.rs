//! Typed validation errors for [`Solver::compile`](super::Solver::compile).

use super::config::{Tiling, Tuning};
use std::fmt;

/// Why a [`Solver`](super::Solver) configuration cannot be compiled into
/// a [`Plan`](super::Plan), or why a plan cannot run on a given domain.
///
/// Every invalid configuration surfaces here, at compile time, before
/// any grid is touched; a run can only fail on a grid of the wrong
/// dimensionality.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The pattern's dimensionality does not match the domain the plan
    /// was asked to run on (e.g. a 2D pattern driven through
    /// [`Plan::run_1d`](super::Plan::run_1d)).
    DimensionMismatch {
        /// Dimensionality the plan was compiled for.
        pattern_dims: usize,
        /// Dimensionality of the requested run.
        domain_dims: usize,
    },
    /// Temporal folding is impossible at this configuration: `m == 0`,
    /// or the folded radius `m * r` exceeds what the register pipeline
    /// supports at the resolved width/dimensionality.
    InvalidFold {
        /// Requested unrolling factor.
        m: usize,
        /// Folded radius `m * r` (0 when `m == 0`).
        folded_radius: usize,
        /// Largest folded radius the executor supports here.
        max_radius: usize,
    },
    /// A tiling parameter is degenerate (a zero time block).
    InvalidTiling {
        /// The offending tiling.
        tiling: Tiling,
        /// What is wrong with it.
        reason: &'static str,
    },
    /// The fold's counterpart schedule needs more fresh counterparts
    /// than the register pipeline's budget allows, even though the
    /// folded radius itself fits.
    FoldPlanTooComplex {
        /// Requested unrolling factor.
        m: usize,
        /// Fresh counterparts the plan requires.
        counterparts: usize,
        /// Register budget.
        max: usize,
    },
    /// A measured [`Tuning`] mode was requested, the configuration
    /// leaves something to tune ([`super::Method::Auto`] or
    /// [`super::Tiling::Auto`]), but no
    /// [`crate::tune::MeasuredTuner`] is installed. Install one
    /// (`stencil_tune::install()`) or use [`Tuning::Static`].
    TunerUnavailable {
        /// The tuning mode that needed a tuner.
        mode: Tuning,
    },
    /// [`Tuning::CacheOnly`] found no persisted measurement for this
    /// host × configuration; warm the cache first with
    /// [`Tuning::Measured`] (or `stencil-bench tune`).
    TuneCacheMiss {
        /// The per-host cache key that missed.
        key: String,
    },
    /// The measured tuner ran but could not produce a decision (e.g.
    /// every candidate configuration failed to compile, or the probe
    /// harness rejected the pattern).
    TuningFailed {
        /// Human-readable cause, from the tuner.
        reason: String,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::DimensionMismatch {
                pattern_dims,
                domain_dims,
            } => write!(
                f,
                "plan compiled for a {pattern_dims}D pattern cannot run on a {domain_dims}D domain"
            ),
            PlanError::InvalidFold {
                m,
                folded_radius,
                max_radius,
            } => {
                if *m == 0 {
                    write!(f, "folding factor m must be >= 1")
                } else {
                    write!(
                        f,
                        "folded radius {folded_radius} (m = {m}) exceeds the supported maximum \
                         {max_radius} at this width/dimensionality"
                    )
                }
            }
            PlanError::InvalidTiling { tiling, reason } => {
                write!(f, "invalid tiling {tiling:?}: {reason}")
            }
            PlanError::FoldPlanTooComplex {
                m,
                counterparts,
                max,
            } => write!(
                f,
                "the m = {m} fold needs {counterparts} fresh counterparts, exceeding the \
                 register pipeline's budget of {max}"
            ),
            PlanError::TunerUnavailable { mode } => write!(
                f,
                "{mode:?} tuning was requested but no measured tuner is installed; call \
                 stencil_tune::install() first, or compile with Tuning::Static"
            ),
            PlanError::TuneCacheMiss { key } => write!(
                f,
                "Tuning::CacheOnly found no persisted measurement for {key:?}; warm the \
                 per-host cache with Tuning::Measured or `stencil-bench tune`"
            ),
            PlanError::TuningFailed { reason } => {
                write!(f, "measured tuning failed: {reason}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_zero_fold() {
        let e = PlanError::InvalidFold {
            m: 0,
            folded_radius: 0,
            max_radius: 0,
        };
        assert!(e.to_string().contains("m must be >= 1"));
    }

    #[test]
    fn display_tuning_failures() {
        let e = PlanError::TunerUnavailable {
            mode: Tuning::Measured,
        };
        assert!(e.to_string().contains("Tuning::Static"), "{e}");
        let e = PlanError::TuneCacheMiss {
            key: "host|avx2|k".into(),
        };
        assert!(e.to_string().contains("host|avx2|k"), "{e}");
        let e = PlanError::TuningFailed {
            reason: "no candidate compiled".into(),
        };
        assert!(e.to_string().contains("no candidate compiled"), "{e}");
    }

    #[test]
    fn error_trait_object_safe() {
        let e: Box<dyn std::error::Error> = Box::new(PlanError::DimensionMismatch {
            pattern_dims: 2,
            domain_dims: 1,
        });
        assert!(e.to_string().contains("2D"));
    }
}
