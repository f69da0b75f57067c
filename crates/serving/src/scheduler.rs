//! The historical batch-at-a-time scheduler — now a compatibility shim.
//!
//! [`Scheduler::serve`] predates the continuous-batching
//! [`crate::server::Server`]: the caller hands over one `Vec<Request>` and
//! blocks for the whole batch. Since the server redesign it is a **thin
//! compatibility wrapper over a zero-window scoped server**
//! ([`crate::server::Server::scoped`]): the batch is submitted atomically,
//! dispatched in one admission round (zero window — nothing waits for later
//! arrivals, because a batch call has none), executed by the same worker
//! pool / grouping machinery the server uses, and collected back in request
//! order. Behaviour is unchanged from the historical implementation:
//!
//! * a plain scheduler ([`Scheduler::new`]) serves every request with its own
//!   engine execute, FIFO over the worker pool;
//! * a coalescing scheduler ([`Scheduler::coalescing`]) merges same-layer
//!   requests into width-capped shared fused executes (first-fit-decreasing
//!   packing under the engine policy's `max_bucket`), queues groups
//!   heaviest-first ([`crate::policy::Lpt`], the makespan heuristic the batch
//!   scheduler always used), and scatters the outputs back
//!   **bit-identically** to
//!   individual service;
//! * malformed requests surface their own typed [`ServingError`]s.
//!
//! New code should talk to [`crate::server::Server`] directly: it adds
//! admission windows (coalescing *across* arrivals), priority/SLO classes,
//! bounded-queue backpressure and per-class latency accounting that a
//! synchronous batch call cannot express — plus the overload machinery
//! (per-class queue bounds, bulk load-shedding, deadline admission bypass,
//! ticket cancellation, worker fault containment). The batch shim is
//! insulated from all of it by construction: it submits one atomic
//! Standard-class batch into a queue sized to the batch, so nothing it
//! submits can be shed ([`ServingError::Shed`] is bulk-only) or rejected,
//! and it holds every ticket until [`crate::server::Ticket::wait`] returns,
//! so nothing is ever cancelled.

use crate::engine::ServingEngine;
use crate::policy::{Fifo, Lpt, QueuePolicy};
use crate::server::{Server, ServerConfig, Ticket};
use crate::ServingError;
use shfl_core::matrix::DenseMatrix;
use std::sync::Arc;

/// One serving request: a layer id and an activation operand of any width.
#[derive(Debug, Clone)]
pub struct Request {
    /// Caller-chosen request id, echoed in the [`Response`].
    pub id: u64,
    /// The registered layer the request addresses.
    pub layer: usize,
    /// Activation operand (`k × n`, `n` arbitrary).
    pub activations: DenseMatrix,
}

/// The outcome of one request.
#[derive(Debug)]
pub struct Response {
    /// The id of the request this responds to.
    pub id: u64,
    /// The layer output (`m × n`), or a typed serving error.
    pub result: Result<DenseMatrix, ServingError>,
    /// Wall-clock service time of the request in milliseconds (queue wait
    /// excluded; this is the execute latency on the worker).
    pub service_ms: f64,
    /// Modeled GPU time of the request's columns (µs): its share of its
    /// execute's exact-width launch; zero when the request failed.
    pub modeled_us: f64,
}

/// A fixed-size pool of serving workers over one shared engine.
#[derive(Debug, Clone, Copy)]
pub struct Scheduler {
    workers: usize,
    coalesce: bool,
}

impl Scheduler {
    /// Creates a scheduler fanning requests across `workers` threads
    /// (minimum 1; one worker degrades to in-order sequential service), one
    /// engine execute per request.
    pub fn new(workers: usize) -> Self {
        Scheduler {
            workers: workers.max(1),
            coalesce: false,
        }
    }

    /// Creates a **coalescing** scheduler: same-layer requests of a batch
    /// are column-concatenated into one shared execute and the
    /// results scattered back per request — bit-identical to serving them
    /// individually, but the layer's packed weight panels stream once per
    /// group instead of once per request.
    pub fn coalescing(workers: usize) -> Self {
        Scheduler {
            workers: workers.max(1),
            coalesce: true,
        }
    }

    /// Number of worker threads a batch is fanned across.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Whether same-layer requests are coalesced into shared executes.
    pub fn coalesces(&self) -> bool {
        self.coalesce
    }

    /// Serves a batch of requests against `engine`; responses are returned
    /// in request order. A plain scheduler fans requests across the worker
    /// pool one execute per request; a coalescing scheduler first merges
    /// same-layer requests into shared fused executes (malformed requests —
    /// unknown layer, mismatched reduction dimension — are kept out of the
    /// groups and fail individually with the same typed error either way).
    ///
    /// Implementation: a **zero-window scoped [`Server`]** over the borrowed
    /// engine. The batch is submitted atomically, so the server's dispatcher
    /// sees it in one admission round and forms exactly the groups the
    /// historical scheduler formed (same FFD packing under the engine
    /// policy's `max_bucket` cap); groups are ordered heaviest-first
    /// ([`Lpt`] — the batch scheduler's makespan heuristic) when coalescing
    /// and [`Fifo`] otherwise. Outputs are bit-identical to the historical
    /// implementation's: every output column of an SpMM depends only on its
    /// own activation column, so grouping never changes results.
    pub fn serve(&self, engine: &ServingEngine, requests: Vec<Request>) -> Vec<Response> {
        let total = requests.len();
        if total == 0 {
            return Vec::new();
        }
        let policy: Arc<dyn QueuePolicy> = if self.coalesce {
            Arc::new(Lpt)
        } else {
            Arc::new(Fifo)
        };
        let config = ServerConfig::new()
            .with_workers(self.workers.min(total))
            .with_admission_window_us(0)
            .with_queue_depth(total)
            .with_coalesce(self.coalesce)
            .with_policy(policy);
        Server::scoped(engine, config, |server| {
            let tickets = server
                .submit_batch(requests)
                .expect("the queue is sized to the batch");
            tickets.into_iter().map(Ticket::wait).collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::GpuArch;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use shfl_core::bucket::BucketPolicy;
    use shfl_core::formats::ShflBwMatrix;

    fn engine_with_layers(layers: usize) -> ServingEngine {
        let mut engine =
            ServingEngine::new(GpuArch::t4(), BucketPolicy::new(8, 32).unwrap(), 4 * layers);
        for l in 0..layers {
            let dense = DenseMatrix::from_fn(16, 16, |r, c| {
                if (c + r / 4 + l) % 3 == 0 {
                    0.5 + l as f32
                } else {
                    0.0
                }
            });
            let weights = ShflBwMatrix::from_dense(&dense, 4).unwrap();
            engine.register_layer(&format!("layer{l}"), weights);
        }
        engine
    }

    #[test]
    fn serves_a_mixed_batch_in_request_order() {
        let engine = engine_with_layers(2);
        let mut rng = StdRng::seed_from_u64(3);
        let requests: Vec<Request> = (0..16)
            .map(|i| {
                let n = rng.gen_range(1..40);
                Request {
                    id: 100 + i,
                    layer: (i % 2) as usize,
                    activations: DenseMatrix::random(&mut rng, 16, n),
                }
            })
            .collect();
        let widths: Vec<usize> = requests.iter().map(|r| r.activations.cols()).collect();
        let responses = Scheduler::new(4).serve(&engine, requests);
        assert_eq!(responses.len(), 16);
        for (i, resp) in responses.iter().enumerate() {
            assert_eq!(resp.id, 100 + i as u64);
            let out = resp.result.as_ref().expect("request is well-formed");
            assert_eq!(out.shape(), (16, widths[i]));
            assert!(resp.service_ms >= 0.0);
            assert!(resp.modeled_us > 0.0);
        }
        assert_eq!(engine.stats().requests, 16);
    }

    #[test]
    fn concurrent_responses_match_sequential_service_bit_for_bit() {
        let engine = engine_with_layers(1);
        let mut rng = StdRng::seed_from_u64(7);
        let requests: Vec<Request> = (0..12)
            .map(|i| Request {
                id: i,
                layer: 0,
                activations: DenseMatrix::random(&mut rng, 16, 1 + (i as usize * 7) % 33),
            })
            .collect();
        let sequential: Vec<DenseMatrix> = requests
            .iter()
            .map(|r| engine.execute(r.layer, &r.activations).unwrap())
            .collect();
        let responses = Scheduler::new(3).serve(&engine, requests);
        for (resp, expected) in responses.iter().zip(sequential.iter()) {
            let got = resp.result.as_ref().unwrap();
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn failed_requests_surface_typed_errors() {
        let engine = engine_with_layers(1);
        let responses = Scheduler::new(2).serve(
            &engine,
            vec![
                Request {
                    id: 0,
                    layer: 5,
                    activations: DenseMatrix::zeros(16, 4),
                },
                Request {
                    id: 1,
                    layer: 0,
                    activations: DenseMatrix::zeros(15, 4),
                },
            ],
        );
        assert_eq!(
            responses[0].result.as_ref().unwrap_err(),
            &ServingError::UnknownLayer { layer: 5 }
        );
        assert!(matches!(
            responses[1].result.as_ref().unwrap_err(),
            ServingError::KMismatch {
                expected: 16,
                got: 15,
                ..
            }
        ));
    }

    #[test]
    fn empty_batches_are_a_noop() {
        let engine = engine_with_layers(1);
        assert!(Scheduler::new(4).serve(&engine, Vec::new()).is_empty());
        assert!(Scheduler::coalescing(4)
            .serve(&engine, Vec::new())
            .is_empty());
        assert_eq!(Scheduler::new(0).workers(), 1);
        assert!(!Scheduler::new(2).coalesces());
        assert!(Scheduler::coalescing(2).coalesces());
    }

    #[test]
    fn coalesced_batches_are_bit_identical_to_individual_service() {
        let engine = engine_with_layers(3);
        let mut rng = StdRng::seed_from_u64(41);
        let requests: Vec<Request> = (0..24)
            .map(|i| Request {
                id: i,
                layer: (i % 3) as usize,
                activations: DenseMatrix::random(&mut rng, 16, 1 + (i as usize * 11) % 45),
            })
            .collect();
        let individual: Vec<DenseMatrix> = requests
            .iter()
            .map(|r| engine.execute(r.layer, &r.activations).unwrap())
            .collect();
        let before = engine.stats().requests;
        let responses = Scheduler::coalescing(4).serve(&engine, requests);
        // Same-layer requests collapse into width-capped shared executes:
        // far fewer engine calls than requests (the exact count depends on
        // how the widths pack under the policy's max-bucket cap).
        assert!(engine.stats().requests - before < 24);
        for (resp, expected) in responses.iter().zip(individual.iter()) {
            let got = resp.result.as_ref().unwrap();
            assert_eq!(got.shape(), expected.shape());
            let got_bits: Vec<u32> = got.as_slice().iter().map(|v| v.to_bits()).collect();
            let exp_bits: Vec<u32> = expected.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got_bits, exp_bits, "request {}", resp.id);
            assert!(resp.service_ms >= 0.0);
            assert!(resp.modeled_us > 0.0);
        }
    }

    #[test]
    fn coalescing_keeps_malformed_requests_out_of_the_groups() {
        let engine = engine_with_layers(1);
        let mut rng = StdRng::seed_from_u64(43);
        let requests = vec![
            Request {
                id: 0,
                layer: 0,
                activations: DenseMatrix::random(&mut rng, 16, 4),
            },
            Request {
                id: 1,
                layer: 9, // unknown layer
                activations: DenseMatrix::zeros(16, 4),
            },
            Request {
                id: 2,
                layer: 0,
                activations: DenseMatrix::zeros(15, 4), // k mismatch
            },
            Request {
                id: 3,
                layer: 0,
                activations: DenseMatrix::random(&mut rng, 16, 7),
            },
        ];
        let responses = Scheduler::coalescing(2).serve(&engine, requests);
        assert!(responses[0].result.is_ok());
        assert_eq!(
            responses[1].result.as_ref().unwrap_err(),
            &ServingError::UnknownLayer { layer: 9 }
        );
        assert!(matches!(
            responses[2].result.as_ref().unwrap_err(),
            ServingError::KMismatch {
                expected: 16,
                got: 15,
                ..
            }
        ));
        assert!(responses[3].result.is_ok());
    }

    #[test]
    fn coalescing_handles_zero_width_requests() {
        let engine = engine_with_layers(1);
        let mut rng = StdRng::seed_from_u64(47);
        let requests = vec![
            Request {
                id: 0,
                layer: 0,
                activations: DenseMatrix::zeros(16, 0),
            },
            Request {
                id: 1,
                layer: 0,
                activations: DenseMatrix::random(&mut rng, 16, 5),
            },
        ];
        let responses = Scheduler::coalescing(2).serve(&engine, requests);
        assert_eq!(responses[0].result.as_ref().unwrap().shape(), (16, 0));
        assert_eq!(responses[1].result.as_ref().unwrap().shape(), (16, 5));
    }
}
