//! High-level solver facade: validated, compile-once/run-many plans.
//!
//! The paper's whole point is removing redundant work, and the facade
//! applies the same discipline to itself: a [`Solver`] is a cheap,
//! cloneable *configuration* (pattern × [`Method`] × [`Tiling`] ×
//! [`Width`] × threads) whose [`Solver::compile`] step validates the
//! combination once, returning either a typed [`PlanError`] or a
//! [`Plan`] that owns every derived artifact — the folded pattern Λ, the
//! planned register kernel, the resolved width, and a shared
//! [`stencil_runtime::PoolHandle`]. A plan can then be run any number of
//! times (and on any [`Domain`] dimensionality it was compiled for)
//! without re-planning.
//!
//! ```
//! use stencil_core::{kernels, Method, Solver, Tiling};
//! use stencil_grid::Grid1D;
//!
//! let plan = Solver::new(kernels::heat1d())
//!     .method(Method::Folded { m: 2 })
//!     .tiling(Tiling::Tessellate { time_block: 8 })
//!     .threads(2)
//!     .compile()
//!     .expect("valid configuration");
//! // Λ, the kernel plan and the thread pool are now fixed; every run
//! // reuses them.
//! let grid = Grid1D::from_fn(1024, |i| if i == 512 { 1.0 } else { 0.0 });
//! for _ in 0..3 {
//!     let out = plan.run_1d(&grid, 100).unwrap();
//!     let mass: f64 = out.as_slice().iter().sum();
//!     assert!((mass - 1.0).abs() < 1e-9);
//! }
//! ```
//!
//! Every method composes with every tiling. What cannot run — a fold
//! deeper than the register pipeline holds, a zero time block — is
//! rejected at compile time with a typed error instead of a runtime
//! panic:
//!
//! ```
//! use stencil_core::{kernels, Method, PlanError, Solver, Tiling};
//!
//! let err = Solver::new(kernels::heat1d())
//!     .method(Method::Folded { m: 9 })
//!     .tiling(Tiling::Tessellate { time_block: 8 })
//!     .compile()
//!     .unwrap_err();
//! assert!(matches!(err, PlanError::InvalidFold { .. }));
//! ```

pub mod config;
pub mod error;
pub mod plan_exec;

pub use config::{Method, PlanConfig, Solver, Tiling, Tuning, Width};
pub use error::PlanError;
pub use plan_exec::{Domain, Plan};
