//! # shfl-serving — the multi-stream serving stack
//!
//! The paper's layout decisions pay off at *serving* time: its TileWise
//! baseline shows per-stream launch overheads eating the sparse-format win,
//! and EIE / NVIDIA's 2:4 work both keep their speedups only because the
//! serving layer batches and schedules around the packed format instead of
//! re-staging weights per call. This crate is that serving layer for the
//! reproduction:
//!
//! * [`engine::ServingEngine`] — the layer registry and executor: each
//!   registered layer has **one** plan per weight version, cached in an LRU
//!   [`shfl_kernels::cache::PlanCache`] keyed by `(layer, version)`. Every
//!   execute — at any activation width — is one pad-free sweep of that plan
//!   over exactly its own columns, **bit-identical** to a cold plan built for
//!   the exact width (every output column depends only on its own
//!   activation column; the property tests assert exact equality at every
//!   width from 0 to 300 and beyond). The engine-wide
//!   [`shfl_core::bucket::BucketPolicy`] only sets the server's default
//!   coalescing cap and the update probe width.
//! * [`server::Server`] — the one serving front-end: callers
//!   [`server::Server::submit`] requests independently (or a whole batch at
//!   once with [`server::Server::submit_batch`]) and get
//!   [`server::Ticket`]s; a dispatcher holds a configurable admission window
//!   and coalesces same-layer arrivals into shared fused executes, with typed
//!   [`server::SubmitError::QueueFull`] backpressure and per-class latency
//!   percentiles in [`server::ServerStats`]. Decode sessions
//!   ([`session`]) step in interleave rounds whose per-model groups share
//!   the same ready queue, the same [`policy::QueuePolicy`] (FIFO / LPT /
//!   shortest-job-first / deadline-class SLO scheduling) and the same
//!   worker pool as request groups. Plans are `Sync`, so one prepared plan
//!   serves every worker at once.
//! * [`ServingError`] — typed rejection of malformed traffic (unknown layer,
//!   reduction-dimension mismatch) instead of panics or debug-only asserts.
//! * **Live weight updates** — every layer is a versioned slot:
//!   [`engine::ServingEngine::update_layer`] probe-validates a candidate off
//!   to the side and publishes it with one atomic swap; same-pattern
//!   magnitude updates delta re-pack resident plans (payload bytes only),
//!   failed updates leave the old version serving with a typed
//!   [`engine::UpdateError`], and [`engine::ServingEngine::rollback_layer`]
//!   republishes the previous weights. Zero requests are dropped across a
//!   swap (see `tests/live_update.rs`).
//!
//! ## Example
//!
//! ```
//! use gpu_sim::GpuArch;
//! use rand::{rngs::StdRng, SeedableRng};
//! use shfl_core::bucket::BucketPolicy;
//! use shfl_core::{DenseMatrix, ShflBwMatrix};
//! use shfl_serving::engine::ServingEngine;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let dense = DenseMatrix::from_fn(32, 32, |r, c| {
//!     if (c + r / 8) % 4 == 0 { 0.5 } else { 0.0 }
//! });
//! let weights = ShflBwMatrix::from_dense(&dense, 8).unwrap();
//!
//! let mut engine = ServingEngine::new(GpuArch::a100(), BucketPolicy::new(8, 64).unwrap(), 16);
//! let layer = engine.register_layer("ffn1", weights);
//!
//! // Requests of any width share the layer's one plan.
//! for n in [1, 5, 8, 9, 64, 65] {
//!     let acts = DenseMatrix::random(&mut rng, 32, n);
//!     let out = engine.execute(layer, &acts).unwrap();
//!     assert_eq!(out.shape(), (32, n));
//! }
//! assert_eq!(engine.cache().len(), 1);
//! assert_eq!(engine.cache_stats().hits, 5);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

#[cfg(feature = "chaos")]
pub mod chaos;
pub mod engine;
pub mod policy;
pub mod server;
pub mod session;

pub use engine::{ServingEngine, ServingStats, UpdateError, UpdateReport, UpdateStats};
pub use policy::{Fifo, GroupMeta, Lpt, QueuePolicy, ShortestJobFirst, SloAware};
pub use server::{
    Completion, Request, Response, Server, ServerConfig, ServerStats, SubmitError, Ticket,
};
pub use session::{
    decode_oracle, DecodeModel, DecodeStage, DecodeState, DecodeToken, SessionHandle, SessionStats,
    SessionTicket,
};

use shfl_kernels::KernelError;
use std::fmt;

/// Errors returned by the serving stack.
#[derive(Debug, Clone, PartialEq)]
pub enum ServingError {
    /// A request referenced a layer id that was never registered.
    UnknownLayer {
        /// The offending layer id.
        layer: usize,
    },
    /// A request's activation row count does not match the layer's packed
    /// reduction dimension (`k`).
    KMismatch {
        /// The layer the request addressed.
        layer: usize,
        /// The layer's packed reduction dimension.
        expected: usize,
        /// The activation row count the request carried.
        got: usize,
    },
    /// An error bubbled up from the kernel layer (plan build or execution).
    Kernel(KernelError),
    /// The serving front-end was stopped before the request was executed
    /// (a [`Server`] dropped without draining). A drained shutdown never
    /// produces this: [`Server::drain`] delivers every admitted ticket.
    ShutDown,
    /// The request was shed by overload protection: it was queued bulk-class
    /// work evicted (oldest first) to make room for latency-sensitive
    /// traffic when the bounded queue was full. Only bulk-class requests are
    /// ever shed; resubmit when the overload clears. A decode-session resume
    /// refused under capacity pressure (no Bulk victim to evict) surfaces
    /// the same error — retry once the session tier drains.
    Shed,
    /// The worker thread serving this request's group panicked mid-service.
    /// Only the group's own tickets fail — the worker is respawned and the
    /// server keeps dispatching (see the `worker_panics` / `worker_respawns`
    /// counters in [`server::ServerStats`]).
    WorkerPanic {
        /// The panic message, when it carried one.
        context: String,
    },
    /// [`server::Ticket::wait_timeout`] elapsed before the response arrived.
    /// The ticket is still live: the response can be collected later with
    /// another wait or [`server::Ticket::try_take`].
    WaitTimeout,
    /// The decode session was evicted under capacity pressure (or by an
    /// explicit eviction request). Its state was snapshotted first:
    /// [`server::Server::resume_session`] continues the sequence
    /// bit-identically from the evicted step.
    Evicted {
        /// The evicted session's id.
        session: u64,
    },
    /// [`server::Server::resume_session`] was asked for a session id with no
    /// parked snapshot — never opened, still live, or already resumed.
    UnknownSession {
        /// The offending session id.
        session: u64,
    },
}

impl fmt::Display for ServingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServingError::UnknownLayer { layer } => {
                write!(f, "layer {layer} is not registered with the serving engine")
            }
            ServingError::KMismatch {
                layer,
                expected,
                got,
            } => write!(
                f,
                "layer {layer} is packed for k={expected} activation rows but the request has {got}"
            ),
            ServingError::Kernel(e) => write!(f, "{e}"),
            ServingError::ShutDown => {
                f.write_str("the serving front-end shut down before executing the request")
            }
            ServingError::Shed => {
                f.write_str("bulk-class request shed by overload protection; resubmit later")
            }
            ServingError::WorkerPanic { context } => {
                write!(f, "worker panicked while serving the request: {context}")
            }
            ServingError::WaitTimeout => {
                f.write_str("timed out waiting for the response; the ticket is still live")
            }
            ServingError::Evicted { session } => write!(
                f,
                "decode session {session} was evicted under pressure; resume_session({session}) continues it bit-identically"
            ),
            ServingError::UnknownSession { session } => write!(
                f,
                "no parked snapshot for decode session {session}; it was never opened, is still live, or was already resumed"
            ),
        }
    }
}

impl std::error::Error for ServingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServingError::Kernel(e) => Some(e),
            _ => None,
        }
    }
}

impl From<KernelError> for ServingError {
    fn from(e: KernelError) -> Self {
        ServingError::Kernel(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_names_the_offence() {
        let e = ServingError::KMismatch {
            layer: 3,
            expected: 128,
            got: 64,
        };
        let s = format!("{e}");
        assert!(s.contains("128") && s.contains("64") && s.contains('3'));
        assert!(format!("{}", ServingError::UnknownLayer { layer: 7 }).contains('7'));
        let k = ServingError::Kernel(KernelError::ShapeMismatch {
            context: "x".into(),
        });
        assert!(std::error::Error::source(&k).is_some());
    }
}
