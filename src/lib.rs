//! # stencil-lab
//!
//! Umbrella crate for the SC'21 reproduction of *"Reducing Redundancy in
//! Data Organization and Arithmetic Calculation for Stencil
//! Computations"* (Li et al.): transpose-layout vectorization, temporal
//! computation folding, tessellate tiling, and every baseline the paper
//! compares against — as a workspace of focused crates re-exported here.
//!
//! * [`simd`] — vector backends, in-register transpose, assembled vectors.
//! * [`grid`] — aligned grids, ping-pong pairs, layout transforms.
//! * [`runtime`] — thread pool and parallel-for.
//! * [`core`] — patterns, folding matrices, counterpart planning,
//!   executors, tiling, and the high-level [`Solver`]/[`Plan`] facade.
//! * [`tune`] — the measured autotuner behind [`Tuning::Measured`]:
//!   cost-model-seeded probe search with a persistent per-host plan
//!   cache (call [`install_tuner`] once per process to enable it).
//! * [`ooc`] — out-of-core domains: a file-backed [`SlabStore`] with a
//!   crash-detectable chunked binary format, and a streaming
//!   temporal-blocked executor ([`ooc::run_streaming`]) that marches
//!   halo-widened z-slab windows through a bounded buffer pool with
//!   background prefetch — bit-identical to the resident run at a
//!   fixed memory budget.
//! * [`obs`] — the tracing and measurement substrate: lock-free
//!   per-worker span rings with a static stage vocabulary, per-job
//!   [`Timeline`](obs::Timeline) breakdowns, Chrome trace-event export
//!   ([`obs::TraceSink`], Perfetto-loadable), and the injectable
//!   monotonic clock every subsystem timestamps against.
//! * [`faults`] — deterministic failpoint injection for chaos testing:
//!   a fixed vocabulary of named sites across the IO, queue, worker
//!   and network layers, armed with seeded-probability or nth-hit
//!   triggers (env: `STENCIL_FAULTS`), compiled to a single relaxed
//!   load when disarmed.
//! * [`serve`] — the tuning-aware job service for long-running
//!   deployments: a warm-loadable [`PlanRegistry`], bounded submission
//!   queue with backpressure, same-plan batching, bit-exact domain
//!   sharding, a JSON stats surface, and a TCP network front end
//!   ([`serve::net`]) with per-tenant admission quotas and a
//!   `/healthz` + `/metrics` scrape endpoint.
//!
//! ## Quickstart
//!
//! The facade follows the paper's own discipline — do the redundant work
//! once. A [`Solver`] is a cheap configuration; [`Solver::compile`]
//! validates it (typed [`PlanError`]s, no panics) and precomputes the
//! folding matrix Λ, the register-kernel plan and the worker pool into a
//! [`Plan`] that runs any number of sweeps:
//!
//! ```
//! use stencil_lab::{Method, Solver, Tiling};
//! use stencil_lab::core::kernels;
//! use stencil_lab::grid::Grid1D;
//!
//! // Compile the paper's folded method under tessellate tiling once...
//! let plan = Solver::new(kernels::heat1d())
//!     .method(Method::Folded { m: 2 })
//!     .tiling(Tiling::Tessellate { time_block: 16 })
//!     .threads(2)
//!     .compile()
//!     .expect("valid configuration");
//!
//! // ...then serve as many sweeps as you like from the same plan.
//! let grid = Grid1D::from_fn(4096, |i| if i == 2048 { 1.0 } else { 0.0 });
//! for _ in 0..3 {
//!     let out = plan.run_1d(&grid, 500).unwrap();
//!     let mass: f64 = out.as_slice().iter().sum();
//!     assert!((mass - 1.0).abs() < 1e-9);
//! }
//!
//! // Invalid configurations are compile-time errors, not panics:
//! use stencil_lab::PlanError;
//! let err = Solver::new(kernels::heat1d())
//!     .method(Method::Folded { m: 9 })
//!     .tiling(Tiling::Tessellate { time_block: 8 })
//!     .compile()
//!     .unwrap_err();
//! assert!(matches!(err, PlanError::InvalidFold { .. }));
//! ```

pub use stencil_core as core;
pub use stencil_faults as faults;
pub use stencil_grid as grid;
pub use stencil_obs as obs;
pub use stencil_ooc as ooc;
pub use stencil_runtime as runtime;
pub use stencil_serve as serve;
pub use stencil_simd as simd;
pub use stencil_tune as tune;

pub use stencil_core::{
    Domain, FoldPlan, Method, Pattern, Plan, PlanConfig, PlanError, Shape, Solver, Tiling, Tuning,
    Width,
};
pub use stencil_grid::{Grid1D, Grid2D, Grid3D, PingPong};
pub use stencil_ooc::{OocConfig, OocError, SlabStore, StoreStats, StreamReport};
pub use stencil_runtime::{PoolHandle, ThreadPool};
pub use stencil_serve::{
    JobDomain, JobSpec, Manifest, NetClient, NetConfig, NetServer, OocThreshold, PlanRegistry,
    ServeConfig, StencilService,
};
pub use stencil_tune::{install as install_tuner, AutoTuner};
