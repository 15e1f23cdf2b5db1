//! Network front end for multi-tenant serving.
//!
//! A length-prefixed TCP protocol over [`crate::StencilService`] built
//! entirely on `std::net` (no async runtime, no HTTP library):
//!
//! - **Wire format** ([`wire`]): `[u32 BE length][kind][body]` frames.
//!   Kind `b'J'` carries a JSON message header; kind `b'P'` carries a
//!   raw little-endian `f64` grid payload, so multi-megabyte grids
//!   never round-trip through text — and cross each layer once, decoded
//!   into and encoded from the job grid's rows.
//! - **Server** ([`server`]): one poll-based readiness loop over
//!   non-blocking sockets and a connection slab — thousands of idle
//!   connections cost buffers, not threads. Job execution stays on the
//!   service's existing pool workers.
//! - **Admission** ([`tenant`]): per-tenant in-flight quotas in front
//!   of the bounded queue's `try_submit`; both refusal layers answer a
//!   typed `rejected` frame with a `retry_after_ms` hint.
//! - **Observability**: `GET /healthz` and `GET /metrics` HTTP scrapes
//!   are answered on the same port (the first byte disambiguates — see
//!   [`wire::HARD_FRAME_CAP`]), exporting the [`crate::StatsSnapshot`]
//!   JSON document including per-tenant counters.
//! - **Client** ([`client`]): a blocking [`NetClient`] for tests,
//!   benches, and examples, streaming `progress` events for
//!   multi-round jobs.
//!
//! Multi-round jobs split `steps` into `rounds` sequential service
//! submissions ([`round_steps`]); the server streams a `progress`
//! frame after each non-final round. With `rounds = 1` (the default)
//! the result is bit-identical to a single in-process
//! [`crate::StencilService::submit`] of the same spec.

pub mod client;
mod conn;
pub mod server;
pub mod tenant;
pub mod wire;

pub use client::{http_get, JobEvent, JobOutcome, NetClient, NetError};
pub use server::{NetConfig, NetServer};
pub use tenant::TenantGate;
pub use wire::{RejectReason, SubmitHeader};

/// Split `steps` into `rounds` contiguous chunks, front-loaded:
/// `round_steps(8, 3) == [3, 3, 2]`. Rounds are clamped to `[1, steps]`
/// (zero-step jobs run as one empty round) so no chunk is zero.
///
/// This split is the protocol's *definition* of a multi-round job —
/// reference results for round-streamed jobs must chunk identically,
/// because folded/tessellated plans are only bit-stable for a given
/// step partition.
pub fn round_steps(steps: usize, rounds: usize) -> Vec<usize> {
    let rounds = rounds.clamp(1, steps.max(1));
    let base = steps / rounds;
    let extra = steps % rounds;
    (0..rounds).map(|r| base + usize::from(r < extra)).collect()
}

#[cfg(test)]
mod tests {
    use super::round_steps;

    #[test]
    fn round_steps_partitions_front_loaded() {
        assert_eq!(round_steps(8, 3), vec![3, 3, 2]);
        assert_eq!(round_steps(6, 3), vec![2, 2, 2]);
        assert_eq!(round_steps(5, 1), vec![5]);
        assert_eq!(round_steps(2, 5), vec![1, 1], "rounds clamped to steps");
        assert_eq!(round_steps(0, 4), vec![0], "zero steps = one empty round");
        assert_eq!(round_steps(7, 0), vec![7], "zero rounds clamped to one");
        for steps in 0..40usize {
            for rounds in 0..10usize {
                let c = round_steps(steps, rounds);
                assert_eq!(c.iter().sum::<usize>(), steps);
                assert!(!c.is_empty());
                assert!(c.windows(2).all(|w| w[0] >= w[1]), "front-loaded");
            }
        }
    }
}
