//! Online workload-adaptive retuning: production-traffic telemetry, a
//! background challenger lane, and registry hot-swaps.
//!
//! A warmed service starts with the plans yesterday's tuning session
//! thought best. This module keeps them honest against *today's*
//! traffic:
//!
//! * [`telemetry`] — an injectable clock ([`SharedClock`] /
//!   [`VirtualClock`]) and the per-plan [`TrafficMap`] (latency
//!   histograms + hot-key windows) the executor feeds on every
//!   completed job,
//! * [`lane`] — the [`ChallengerLane`]: [`ProbeLane`] re-runs the
//!   `stencil-tune` hill-climb over the incumbent's neighborhood in a
//!   budgeted background session; [`ScriptedLane`] makes every verdict
//!   (a `stencil_tune::ChallengeOutcome`) reproducible in tests,
//! * [`decider`] — the [`Decider`]: hot-key scan → challenge under the
//!   key's own registry request → margin/hysteresis decision →
//!   epoch-tagged compile →
//!   [`PlanRegistry::swap_plan`](crate::PlanRegistry::swap_plan) →
//!   verdict persisted to the per-host tune cache.
//!
//! Swaps never change the bits a job produces: in-flight and queued
//! jobs hold their `Arc<Plan>` and finish on the old generation
//! bit-exactly; jobs resolved afterwards run (and report, via
//! `JobResult::epoch`) the new one.

pub mod decider;
pub mod lane;
pub mod telemetry;

pub use decider::{AdaptConfig, Decider};
pub use lane::{ChallengeRequest, ChallengerLane, ProbeLane, ScriptedLane};
pub use telemetry::{Clock, PlanTraffic, SharedClock, TrafficMap, VirtualClock, WallClock};
