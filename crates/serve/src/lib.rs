//! # stencil-serve
//!
//! A tuning-aware stencil job service: the compile-once/run-many
//! [`Plan`](stencil_core::Plan) discipline of the core library,
//! operated as a long-running server under sustained concurrent load.
//! The paper's kernels win by removing redundancy *inside* a sweep;
//! sustained serving throughput is won by removing redundancy *around*
//! it — plan reuse, pool amortization, batching and data placement —
//! which is this crate:
//!
//! * [`registry`] — a [`PlanRegistry`]: concurrent map from (pattern
//!   signature × domain shape class × tuning mode) to compiled plans,
//!   all sharing one worker pool. Serving-path lookups never compile.
//! * [`manifest`] — the warm-start [`Manifest`]: patterns a deployment
//!   expects, compiled at startup. Under `Tuning::CacheOnly` a warmed
//!   host reaches serving state with **zero probe runs**; cold or
//!   foreign-ISA tune caches degrade to the static cost model with a
//!   one-line operator warning instead of a silent re-probe.
//! * [`queue`] — a bounded submission queue: blocking backpressure for
//!   closed-loop clients, immediate rejection for load shedding, and
//!   same-plan batch draining so consecutive runs keep one folded
//!   kernel hot.
//! * [`shard`] — halo-correct domain sharding: large 2D/3D jobs split
//!   into sub-domain slabs along the outermost axis, executed in
//!   parallel, stitched back **bit-identically** to the unsharded run.
//! * [`metrics`] — the stats surface: jobs served, p50/p99 latency,
//!   queue depth, registry hit ratio, shard/batch counts, tuner probe
//!   counter and operator warnings — each declared once, rendered as
//!   JSON ([`stencil_obs::json`]) and as Prometheus text.
//! * [`service`] — [`StencilService`]: executor workers tying the
//!   pieces together, with graceful shutdown that reclaims the shared
//!   pool.
//! * [`adapt`] — online workload-adaptive retuning: per-plan
//!   production-traffic telemetry (injectable clock, per-key latency
//!   histograms), a budgeted background challenger lane re-running the
//!   `stencil-tune` hill-climb on hot keys, and margin-gated registry
//!   hot-swaps whose verdicts persist to the per-host tune cache.
//!   In-flight jobs finish on their old plan generation bit-exactly.
//! * [`net`] — the network front end: a length-prefixed TCP protocol
//!   over the service (hand-rolled framing on `std::net`), per-tenant
//!   admission quotas, streamed progress for multi-round jobs, and a
//!   `/healthz` + `/metrics` HTTP scrape surface on the same port.
//!
//! ## Quickstart
//!
//! ```
//! use stencil_serve::{JobDomain, JobSpec, Manifest, ServeConfig, StencilService};
//! use stencil_core::{kernels, Tuning};
//! use stencil_grid::Grid2D;
//!
//! // Declare the expected traffic, start, warm.
//! let mut manifest = Manifest::new(Tuning::Static);
//! manifest.push_kernel("heat2d", Some(&[256, 256]));
//! let service = StencilService::start(ServeConfig {
//!     threads: 2,
//!     workers: 1,
//!     ..ServeConfig::default()
//! });
//! let report = service.warm(&manifest);
//! assert_eq!(report.loaded, 1);
//!
//! // Serve.
//! let grid = Grid2D::from_fn(256, 256, |y, x| ((y + x) % 7) as f64);
//! let ticket = service
//!     .submit(JobSpec::new(kernels::heat2d(), JobDomain::D2(grid), 10))
//!     .unwrap();
//! let result = ticket.wait().unwrap();
//! assert!(matches!(result.output, JobDomain::D2(_)));
//!
//! let stats = service.shutdown();
//! assert_eq!(stats.jobs_completed, 1);
//! assert!(stats.plan_hits >= 1); // the submit hit the warmed plan
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod adapt;
pub mod manifest;
pub mod metrics;
pub mod net;
pub mod queue;
pub mod registry;
pub mod service;
pub mod shard;

pub use adapt::{
    AdaptConfig, ChallengerLane, Decider, ProbeLane, ScriptedLane, SharedClock, VirtualClock,
};
pub use manifest::{Manifest, ManifestEntry};
pub use metrics::{LatencyHistogram, PlanTelemetry, ServeStats, StatsSnapshot, TenantCounters};
pub use net::{NetClient, NetConfig, NetError, NetServer, SubmitHeader};
pub use registry::{PlanRegistry, WarmReport};
pub use service::{
    JobDomain, JobResult, JobSpec, JobTicket, OocThreshold, ServeConfig, ServeError, StencilService,
};
pub use shard::ShardPolicy;
pub use stencil_obs::Timeline;
