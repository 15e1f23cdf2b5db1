//! # stencil-core
//!
//! The paper's contribution, as a library: transpose-layout vectorization
//! (§2) and temporal computation folding (§3) for stencil computations,
//! together with every baseline the paper compares against.
//!
//! Module map:
//!
//! * [`pattern`] — stencil weight tensors (1D/2D/3D), star/box algebra.
//! * [`folding`] — folding matrices Λ (m-step self-convolution).
//! * [`plan`] — counterpart planner: vertical/horizontal folding schedule
//!   with proportionality + least-squares reuse (§3.3, §3.5).
//! * [`regression`] — the least-squares machinery behind §3.5.
//! * [`cost`] — op-collect model and profitability index (§3.2).
//! * [`kernels`] — the nine Table-1 benchmarks.
//! * [`exec`] — sweep executors: scalar reference, multiple-loads,
//!   data-reorganization, DLT, transpose-layout, and the register-folded
//!   executor with shifts reuse.
//! * [`tile`] — tessellate tiling (1D/2D/3D), and split tiling (the SDSL
//!   stand-in).
//!
//! A [`Plan`] runs the scalar reference, multiple loads, the transpose
//! layout and folding, block-free or tessellated. The other baselines —
//! data reorganization ([`exec::reorg`]), DLT ([`exec::dlt`]) and SDSL
//! ([`tile::split`]) — are what the paper measures against, and the
//! figures call their entries directly.
//! * [`api`] — the high-level facade: a [`Solver`] configuration is
//!   validated by [`Solver::compile`] into a reusable [`Plan`]
//!   (pattern x method x tiling x width x thread pool), with invalid
//!   combinations reported as typed [`PlanError`]s.
//! * [`tune`] — tiling-parameter autotuner and the [`Method::Auto`]
//!   resolver (the paper's declared future work).
//! * [`slab`] — halo-correct slab geometry along the outermost axis:
//!   the shared arithmetic behind bit-exact domain sharding
//!   (`stencil-serve`) and out-of-core streaming (`stencil-ooc`).
//!
//! ```
//! use stencil_core::{kernels, Method, Solver};
//! use stencil_grid::Grid1D;
//!
//! // Compile once, run many: the folded method must agree with the
//! // scalar reference away from the Dirichlet boundary band.
//! let g = Grid1D::from_fn(256, |i| ((i * 31 + 7) % 97) as f64 * 0.01);
//! let scalar = Solver::new(kernels::heat1d())
//!     .method(Method::Scalar)
//!     .compile()
//!     .unwrap();
//! let folded = Solver::new(kernels::heat1d())
//!     .method(Method::Folded { m: 2 })
//!     .compile()
//!     .unwrap();
//! let (a, b) = (scalar.run_1d(&g, 4).unwrap(), folded.run_1d(&g, 4).unwrap());
//! for i in 8..248 {
//!     assert!((a.as_slice()[i] - b.as_slice()[i]).abs() < 1e-12);
//! }
//! ```

// Offset-indexed loops are the domain idiom here (windows, tiles, taps);
// iterators would hide the math.
#![allow(clippy::needless_range_loop)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod api;
pub mod cost;
pub mod exec;
pub mod folding;
pub mod kernels;
pub mod pattern;
pub mod plan;
pub mod regression;
pub mod slab;
pub mod tile;
pub mod tune;

pub use api::{Domain, Method, Plan, PlanConfig, PlanError, Solver, Tiling, Tuning, Width};
pub use pattern::{Pattern, Shape};
pub use plan::FoldPlan;
