//! Behavioural tests of the continuous-batching [`Server`] API: staggered
//! submissions stay bit-identical to direct engine execution, a submitted
//! batch comes back in request order (coalesced or not, malformed and
//! zero-width members included), backpressure is typed and non-blocking,
//! drain delivers every outstanding ticket, the pluggable queue policies
//! order dispatch deterministically, and two concurrent updates of one layer
//! resolve to one published version each or a typed conflict.

use gpu_sim::GpuArch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shfl_core::bucket::BucketPolicy;
use shfl_core::formats::{ShflBwMatrix, VectorWiseMatrix};
use shfl_core::matrix::DenseMatrix;
use shfl_core::slo::{SloClass, SloKind};
use shfl_kernels::plan::SpmmPlan;
use shfl_serving::policy::{Lpt, ShortestJobFirst, SloAware};
use shfl_serving::server::{
    Completion, Request, Response, Server, ServerConfig, ServerStats, SubmitError, Ticket,
};
use shfl_serving::{ServingEngine, ServingError, UpdateError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn engine_with_layers(layers: usize) -> ServingEngine {
    let mut engine =
        ServingEngine::new(GpuArch::t4(), BucketPolicy::new(8, 32).unwrap(), 8 * layers);
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

fn bits(m: &DenseMatrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// A same-pattern magnitude update of `weights` (the delta re-pack payload).
fn scaled(weights: &ShflBwMatrix, factor: f32) -> ShflBwMatrix {
    let vw = weights.vector_wise();
    let values: Vec<f32> = vw.values().iter().map(|x| x * factor).collect();
    let inner = VectorWiseMatrix::from_parts(
        vw.rows(),
        vw.cols(),
        vw.vector_size(),
        vw.group_ptr().to_vec(),
        vw.col_idx().to_vec(),
        values,
    )
    .unwrap();
    ShflBwMatrix::from_vector_wise(inner, weights.row_indices().to_vec()).unwrap()
}

/// The tentpole property: a server under random staggered submissions (mixed
/// layers, widths across the single/padded/fused-multi-segment regimes,
/// mixed SLO classes, nonzero admission window) returns responses
/// bit-identical to direct `ServingEngine::execute` of the same operands.
#[test]
fn staggered_submissions_are_bit_identical_to_direct_execution() {
    for seed in [3u64, 17, 91] {
        let engine = engine_with_layers(3);
        let mut rng = StdRng::seed_from_u64(seed);
        let requests: Vec<Request> = (0..24)
            .map(|i| {
                let n = rng.gen_range(1..80); // up to 32*2+: exercises fused sweeps
                Request {
                    id: i,
                    layer: (i % 3) as usize,
                    activations: DenseMatrix::random(&mut rng, 16, n),
                }
            })
            .collect();
        let expected: Vec<DenseMatrix> = requests
            .iter()
            .map(|r| engine.execute(r.layer, &r.activations).unwrap())
            .collect();

        let server = Server::start(
            engine,
            ServerConfig::new()
                .with_workers(3)
                .with_admission_window_us(300)
                .with_policy(Arc::new(SloAware)),
        );
        let classes = [
            SloClass::Deadline { deadline_us: 2_000 },
            SloClass::Standard,
            SloClass::Bulk,
        ];
        let tickets: Vec<_> = requests
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                if i % 5 == 0 {
                    // Stagger arrivals across admission windows.
                    std::thread::sleep(Duration::from_micros(200));
                }
                server
                    .submit_classed(r, classes[i % classes.len()])
                    .unwrap()
            })
            .collect();
        for (ticket, want) in tickets.into_iter().zip(expected.iter()) {
            let response = ticket.wait();
            let got = response.result.expect("well-formed request");
            assert_eq!(got.shape(), want.shape());
            let got_bits: Vec<u32> = got.as_slice().iter().map(|v| v.to_bits()).collect();
            let want_bits: Vec<u32> = want.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got_bits, want_bits, "seed {seed} request {}", response.id);
            assert!(response.service_ms >= 0.0);
        }
        // Counters advance after ticket delivery; drain waits for them.
        server.drain();
        let stats = server.stats();
        assert_eq!(stats.submitted, 24);
        assert_eq!(stats.completed, 24);
        server.shutdown();
    }
}

#[test]
fn malformed_submissions_surface_typed_errors() {
    let engine = engine_with_layers(1);
    let server = Server::start(engine, ServerConfig::new().with_workers(2));
    let bad_layer = server
        .submit(Request {
            id: 0,
            layer: 9,
            activations: DenseMatrix::zeros(16, 4),
        })
        .unwrap();
    let bad_k = server
        .submit(Request {
            id: 1,
            layer: 0,
            activations: DenseMatrix::zeros(15, 4),
        })
        .unwrap();
    assert_eq!(
        bad_layer.wait().result.unwrap_err(),
        ServingError::UnknownLayer { layer: 9 }
    );
    assert!(matches!(
        bad_k.wait().result.unwrap_err(),
        ServingError::KMismatch {
            expected: 16,
            got: 15,
            ..
        }
    ));
    server.shutdown();
}

/// Serves `requests` as one atomic batch on a zero-window server with
/// `workers` workers, heaviest group first when coalescing, and returns the
/// responses in request order together with the server, drained.
fn serve_batch(
    engine: ServingEngine,
    requests: Vec<Request>,
    workers: usize,
    coalesce: bool,
) -> (Vec<Response>, Server) {
    let server = Server::start(
        engine,
        ServerConfig::new()
            .with_workers(workers)
            .with_queue_depth(requests.len())
            .with_coalesce(coalesce)
            .with_policy(Arc::new(Lpt)),
    );
    let tickets = server.submit_batch(requests).unwrap();
    let responses = tickets.into_iter().map(Ticket::wait).collect();
    server.drain();
    (responses, server)
}

/// A mixed-layer, mixed-width batch comes back in request order, each
/// response shaped like its request and carrying its service and modeled
/// time; every request is its own engine call when coalescing is off.
#[test]
fn submitted_batch_responses_arrive_in_request_order() {
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
    let (responses, server) = serve_batch(engine, requests, 4, false);
    assert_eq!(responses.len(), 16);
    for (i, resp) in responses.iter().enumerate() {
        assert_eq!(resp.id, 100 + i as u64);
        let out = resp.result.as_ref().expect("request is well-formed");
        assert_eq!(out.shape(), (16, widths[i]));
        assert!(resp.service_ms >= 0.0);
        assert!(resp.modeled_us > 0.0);
    }
    assert_eq!(server.engine().stats().requests, 16);
    server.shutdown();
    // An empty batch is admitted whole and answers nothing.
    let (responses, server) = serve_batch(engine_with_layers(1), Vec::new(), 4, false);
    assert!(responses.is_empty());
    server.shutdown();
}

/// Coalesced batch service is bit-identical to serving each request on its
/// own, with far fewer engine calls than requests (same-layer requests
/// share width-capped executes).
#[test]
fn coalesced_batch_is_bit_identical_to_individual_service() {
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
    let (responses, server) = serve_batch(engine, requests, 4, true);
    // How many executes the widths pack into under the policy's 32-column
    // cap is the packer's business; far fewer than one per request is the
    // point.
    assert!(server.engine().stats().requests - before < 24);
    for (resp, expected) in responses.iter().zip(individual.iter()) {
        let got = resp.result.as_ref().unwrap();
        assert_eq!(got.shape(), expected.shape());
        assert_eq!(bits(got), bits(expected), "request {}", resp.id);
        assert!(resp.service_ms >= 0.0);
        assert!(resp.modeled_us > 0.0);
    }
    assert!(server.stats().coalesced_groups > 0);
    server.shutdown();
}

/// Malformed members of a coalesced batch stay out of the groups and fail
/// with their own typed errors; their well-formed neighbours are served.
#[test]
fn coalesced_batch_fails_malformed_members_typed() {
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
    let (responses, server) = serve_batch(engine, requests, 2, true);
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
    // The two good requests shared one execute.
    assert_eq!(server.stats().coalesced_requests, 2);
    server.shutdown();
}

/// A zero-width request coalesces with a real one: each gets back exactly
/// its own columns.
#[test]
fn coalesced_batch_serves_a_zero_width_member() {
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
    let (responses, server) = serve_batch(engine, requests, 2, true);
    assert_eq!(responses[0].result.as_ref().unwrap().shape(), (16, 0));
    assert_eq!(responses[1].result.as_ref().unwrap().shape(), (16, 5));
    assert_eq!(server.stats().coalesced_groups, 1);
    server.shutdown();
}

/// Backpressure is non-blocking and typed: the bounded queue rejects the
/// overflow submission with `QueueFull` while the admission window still
/// holds the queued requests.
#[test]
fn full_queue_rejects_submissions_with_queue_full() {
    let engine = engine_with_layers(1);
    let mut rng = StdRng::seed_from_u64(5);
    // A very long window keeps the first submissions queued; drain() cuts
    // the window short afterwards so the test does not actually wait for it.
    let server = Server::start(
        engine,
        ServerConfig::new()
            .with_workers(1)
            .with_admission_window_us(5_000_000)
            .with_queue_depth(2),
    );
    let make = |id: u64, rng: &mut StdRng| Request {
        id,
        layer: 0,
        activations: DenseMatrix::random(rng, 16, 4),
    };
    let t0 = server.submit(make(0, &mut rng)).unwrap();
    let t1 = server.submit(make(1, &mut rng)).unwrap();
    let rejected = server.submit(make(2, &mut rng));
    assert_eq!(rejected.unwrap_err(), SubmitError::QueueFull { depth: 2 });
    assert_eq!(server.stats().rejected, 1);
    // The admitted tickets are unaffected by the rejection.
    server.drain();
    assert!(t0.wait().result.is_ok());
    assert!(t1.wait().result.is_ok());
    // After a drain the server accepts nothing new.
    assert_eq!(
        server.submit(make(3, &mut rng)).unwrap_err(),
        SubmitError::NotAccepting
    );
    server.shutdown();
}

/// Drain-then-shutdown delivers every outstanding ticket: whatever was
/// admitted before the drain is fulfilled by the time `drain` returns, even
/// if it was still sitting in an open admission window.
#[test]
fn drain_then_shutdown_delivers_every_outstanding_ticket() {
    let engine = engine_with_layers(2);
    let mut rng = StdRng::seed_from_u64(7);
    let server = Server::start(
        engine,
        ServerConfig::new()
            .with_workers(2)
            .with_admission_window_us(5_000_000),
    );
    let tickets: Vec<_> = (0..10)
        .map(|i| {
            server
                .submit(Request {
                    id: i,
                    layer: (i % 2) as usize,
                    activations: DenseMatrix::random(&mut rng, 16, 1 + (i as usize * 7) % 40),
                })
                .unwrap()
        })
        .collect();
    server.drain();
    let stats = server.stats();
    assert_eq!(stats.submitted, 10);
    assert_eq!(stats.completed, 10);
    for ticket in tickets {
        // Already delivered: the non-blocking probe must find the response.
        let response = ticket.try_take().expect("drain delivered every ticket");
        assert!(response.result.is_ok());
    }
    server.shutdown();
}

/// Shortest-job-first dispatches the cheapest ready group first. The batch
/// is submitted atomically and served by one worker, so the completion order
/// is exactly the policy order.
#[test]
fn sjf_policy_orders_dispatch_by_estimated_cost() {
    let engine = engine_with_layers(1);
    let mut rng = StdRng::seed_from_u64(11);
    let server = Server::start(
        engine,
        ServerConfig::new()
            .with_workers(1)
            .with_coalesce(false)
            .with_policy(Arc::new(ShortestJobFirst)),
    );
    // Costs scale with the column count: 32, 1, 8 → SJF order 1, 8, 32.
    let widths = [32usize, 1, 8];
    let requests: Vec<Request> = widths
        .iter()
        .enumerate()
        .map(|(i, &n)| Request {
            id: i as u64,
            layer: 0,
            activations: DenseMatrix::random(&mut rng, 16, n),
        })
        .collect();
    let tickets = server.submit_batch(requests).unwrap();
    for ticket in tickets {
        assert!(ticket.wait().result.is_ok());
    }
    // The completion log is appended after delivery; drain waits for it.
    server.drain();
    assert_eq!(server.stats().completion_ids(), vec![1, 2, 0]);
    server.shutdown();
}

/// The SLO policy dispatches deadline-class groups first (tightest deadline
/// leading), bulk last — regardless of submission order.
#[test]
fn slo_policy_orders_deadline_before_standard_before_bulk() {
    let engine = engine_with_layers(1);
    let mut rng = StdRng::seed_from_u64(13);
    let server = Server::start(
        engine,
        ServerConfig::new()
            .with_workers(1)
            .with_coalesce(false)
            .with_admission_window_us(5_000_000)
            .with_policy(Arc::new(SloAware)),
    );
    // Both deadlines lie past the 5 s admission window, so neither arrival
    // triggers the deadline bypass: a bypass would close the window at the
    // first deadline arrival and race the remaining submits into a second
    // dispatch round.
    let classes = [
        SloClass::Bulk,
        SloClass::Standard,
        SloClass::Deadline {
            deadline_us: 60_000_000,
        },
        SloClass::Deadline {
            deadline_us: 30_000_000,
        },
    ];
    let tickets: Vec<_> = classes
        .iter()
        .enumerate()
        .map(|(i, &class)| {
            server
                .submit_classed(
                    Request {
                        id: i as u64,
                        layer: 0,
                        activations: DenseMatrix::random(&mut rng, 16, 4),
                    },
                    class,
                )
                .unwrap()
        })
        .collect();
    // All four sit in the open admission window; drain flushes them through
    // one policy-ordered dispatch round.
    server.drain();
    for ticket in tickets {
        assert!(ticket.try_take().expect("drained").result.is_ok());
    }
    // Tightest deadline first, then the loose deadline, standard, bulk.
    assert_eq!(server.stats().completion_ids(), vec![3, 2, 1, 0]);
    let stats = server.stats();
    assert!(stats
        .completions
        .iter()
        .all(|c| c.total_ms >= 0.0 && c.queue_ms >= 0.0));
    server.shutdown();
}

/// Requests arriving inside one admission window coalesce into shared
/// executes: fewer dispatched groups than requests, and — counter-verified —
/// one packed-panel sweep for the whole group instead of one per request.
#[test]
fn admission_window_coalesces_across_arrivals() {
    let engine = engine_with_layers(1);
    let sweep = engine.layer_panel_sweep_bytes(0).unwrap();
    let mut rng = StdRng::seed_from_u64(19);
    let server = Server::start(
        engine,
        ServerConfig::new()
            .with_workers(2)
            .with_admission_window_us(5_000_000),
    );
    let before = server.engine().panel_bytes_read();
    let tickets: Vec<_> = (0..6)
        .map(|i| {
            server
                .submit(Request {
                    id: i,
                    layer: 0,
                    activations: DenseMatrix::random(&mut rng, 16, 4),
                })
                .unwrap()
        })
        .collect();
    server.drain();
    for ticket in tickets {
        assert!(ticket.try_take().expect("drained").result.is_ok());
    }
    let stats = server.stats();
    // Six 4-column requests pack into one 24-column group under the
    // 32-column cap: one dispatched group, one panel sweep.
    assert_eq!(stats.dispatched_groups, 1);
    assert_eq!(stats.coalesced_groups, 1);
    assert_eq!(stats.coalesced_requests, 6);
    assert_eq!(server.engine().panel_bytes_read() - before, sweep);
    server.shutdown();
}

/// The coalescing width cap is a real knob: capped at one request's width,
/// nothing coalesces; uncapped-wide, everything does.
#[test]
fn coalesce_cap_override_controls_group_width() {
    let engine = engine_with_layers(1);
    let mut rng = StdRng::seed_from_u64(23);
    let server = Server::start(
        engine,
        ServerConfig::new()
            .with_workers(1)
            .with_admission_window_us(5_000_000)
            .with_coalesce_cap(4),
    );
    let tickets: Vec<_> = (0..4)
        .map(|i| {
            server
                .submit(Request {
                    id: i,
                    layer: 0,
                    activations: DenseMatrix::random(&mut rng, 16, 4),
                })
                .unwrap()
        })
        .collect();
    server.drain();
    for ticket in tickets {
        assert!(ticket.try_take().expect("drained").result.is_ok());
    }
    // Cap 4 fits exactly one 4-column request per group.
    let stats = server.stats();
    assert_eq!(stats.dispatched_groups, 4);
    assert_eq!(stats.coalesced_groups, 0);
    server.shutdown();
}

/// A deadline submission whose slack is tighter than the remaining admission
/// window closes the window immediately: the urgent arrival dispatches right
/// away instead of ageing out its budget behind a held window.
#[test]
fn tight_deadline_submission_bypasses_the_admission_window() {
    let engine = engine_with_layers(1);
    let mut rng = StdRng::seed_from_u64(31);
    let server = Server::start(
        engine,
        ServerConfig::new()
            .with_workers(1)
            .with_admission_window_us(5_000_000),
    );
    let start = Instant::now();
    let standard = server
        .submit(Request {
            id: 0,
            layer: 0,
            activations: DenseMatrix::random(&mut rng, 16, 4),
        })
        .unwrap();
    let urgent = server
        .submit_classed(
            Request {
                id: 1,
                layer: 0,
                activations: DenseMatrix::random(&mut rng, 16, 4),
            },
            SloClass::Deadline { deadline_us: 1_000 },
        )
        .unwrap();
    // Without the bypass both tickets would sit out the full five-second
    // window; with it the round dispatches as soon as the urgent arrival
    // lands. The generous bound keeps the test robust on slow machines
    // while still failing decisively if the window is served in full.
    assert!(standard.wait().result.is_ok());
    assert!(urgent.wait().result.is_ok());
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "tight deadline should have closed the 5 s admission window early"
    );
    server.drain();
    assert!(server.stats().deadline_bypasses >= 1);
    server.shutdown();
}

/// Cancelling a still-queued ticket removes the request before dispatch: it
/// is never executed, the cancel is acknowledged, and drain accounting stays
/// exact.
#[test]
fn cancelling_a_queued_ticket_prevents_execution() {
    let engine = engine_with_layers(1);
    let mut rng = StdRng::seed_from_u64(37);
    let server = Server::start(
        engine,
        ServerConfig::new()
            .with_workers(1)
            .with_admission_window_us(5_000_000),
    );
    let keep = server
        .submit(Request {
            id: 0,
            layer: 0,
            activations: DenseMatrix::random(&mut rng, 16, 4),
        })
        .unwrap();
    let gone = server
        .submit(Request {
            id: 1,
            layer: 0,
            activations: DenseMatrix::random(&mut rng, 16, 4),
        })
        .unwrap();
    // Both sit in the held admission window, so the cancel deterministically
    // wins the race against dispatch.
    assert!(gone.cancel(), "queued ticket must be cancellable");
    server.drain();
    assert!(keep.try_take().expect("drained").result.is_ok());
    let stats = server.stats();
    assert_eq!(stats.submitted, 2);
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.cancelled, 1);
    // The cancelled request never reached a worker: no completion record.
    assert_eq!(stats.completion_ids(), vec![0]);
    server.shutdown();
}

/// Cancelling after the response was produced loses the race and reports so:
/// `cancel` returns `false` and the request counts as served, not cancelled.
#[test]
fn cancel_after_delivery_returns_false() {
    let engine = engine_with_layers(1);
    let mut rng = StdRng::seed_from_u64(41);
    let server = Server::start(engine, ServerConfig::new().with_workers(1));
    let ticket = server
        .submit(Request {
            id: 0,
            layer: 0,
            activations: DenseMatrix::random(&mut rng, 16, 4),
        })
        .unwrap();
    server.drain();
    assert!(!ticket.cancel(), "delivered ticket must not cancel");
    let stats = server.stats();
    assert_eq!(stats.cancelled, 0);
    assert_eq!(stats.completed, 1);
    server.shutdown();
}

/// Dropping a ticket abandons the request: the claim pass discards it
/// instead of executing work nobody will observe.
#[test]
fn dropped_tickets_are_discarded_without_execution() {
    let engine = engine_with_layers(1);
    let mut rng = StdRng::seed_from_u64(43);
    let server = Server::start(
        engine,
        ServerConfig::new()
            .with_workers(1)
            .with_admission_window_us(5_000_000),
    );
    let make = |id: u64, rng: &mut StdRng| {
        server
            .submit(Request {
                id,
                layer: 0,
                activations: DenseMatrix::random(rng, 16, 4),
            })
            .unwrap()
    };
    let keep = make(0, &mut rng);
    drop(make(1, &mut rng));
    drop(make(2, &mut rng));
    server.drain();
    assert!(keep.try_take().expect("drained").result.is_ok());
    let stats = server.stats();
    assert_eq!(stats.submitted, 3);
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.cancelled, 2);
    assert_eq!(stats.completion_ids(), vec![0]);
    server.shutdown();
}

/// Bulk traffic beyond its per-class bound is shed at the door with the
/// typed `SubmitError::Shed`; other classes are untouched by the bulk bound.
#[test]
fn bulk_class_bound_sheds_bulk_at_the_door() {
    let engine = engine_with_layers(1);
    let mut rng = StdRng::seed_from_u64(47);
    let server = Server::start(
        engine,
        ServerConfig::new()
            .with_workers(1)
            .with_admission_window_us(5_000_000)
            .with_queue_depth(8)
            .with_class_queue_depth(SloKind::Bulk, 2),
    );
    let make = |id: u64, rng: &mut StdRng| Request {
        id,
        layer: 0,
        activations: DenseMatrix::random(rng, 16, 4),
    };
    let b0 = server
        .submit_classed(make(0, &mut rng), SloClass::Bulk)
        .unwrap();
    let b1 = server
        .submit_classed(make(1, &mut rng), SloClass::Bulk)
        .unwrap();
    // Third bulk submission is over the class bound: shed, not QueueFull.
    assert_eq!(
        server
            .submit_classed(make(2, &mut rng), SloClass::Bulk)
            .unwrap_err(),
        SubmitError::Shed
    );
    // Standard traffic still has the shared queue to itself.
    let s3 = server.submit(make(3, &mut rng)).unwrap();
    let stats = server.stats();
    assert_eq!(stats.shed_submissions, 1);
    assert_eq!(stats.rejected, 1);
    server.drain();
    for ticket in [b0, b1, s3] {
        assert!(ticket.try_take().expect("drained").result.is_ok());
    }
    server.shutdown();
}

/// When the shared queue is full, latency-sensitive submissions evict the
/// oldest queued bulk request (its ticket resolves with the typed
/// `ServingError::Shed`); bulk submissions are shed at the door; and a
/// latency-sensitive submission with no bulk victim left gets the retryable
/// `QueueFull`. Only bulk-class work is ever shed.
#[test]
fn full_queue_evicts_oldest_bulk_for_latency_traffic() {
    let engine = engine_with_layers(1);
    let mut rng = StdRng::seed_from_u64(53);
    let server = Server::start(
        engine,
        ServerConfig::new()
            .with_workers(1)
            .with_admission_window_us(5_000_000)
            .with_queue_depth(3),
    );
    let make = |id: u64, rng: &mut StdRng| Request {
        id,
        layer: 0,
        activations: DenseMatrix::random(rng, 16, 4),
    };
    let b0 = server
        .submit_classed(make(0, &mut rng), SloClass::Bulk)
        .unwrap();
    let b1 = server
        .submit_classed(make(1, &mut rng), SloClass::Bulk)
        .unwrap();
    let s2 = server.submit(make(2, &mut rng)).unwrap();
    // Queue full: bulk is shed at the door...
    assert_eq!(
        server
            .submit_classed(make(3, &mut rng), SloClass::Bulk)
            .unwrap_err(),
        SubmitError::Shed
    );
    // ...while a deadline submission evicts the oldest queued bulk. The
    // budget exceeds the held window so the admission bypass stays out of
    // the picture.
    let d4 = server
        .submit_classed(
            make(4, &mut rng),
            SloClass::Deadline {
                deadline_us: 10_000_000,
            },
        )
        .unwrap();
    let shed = b0.wait();
    assert_eq!(shed.result.unwrap_err(), ServingError::Shed);
    // A second latency-sensitive arrival evicts the next-oldest bulk.
    let s5 = server.submit(make(5, &mut rng)).unwrap();
    assert_eq!(b1.wait().result.unwrap_err(), ServingError::Shed);
    // No bulk victims left: latency-sensitive overflow is retryable, never
    // shed from the standard or deadline classes.
    assert_eq!(
        server.submit(make(6, &mut rng)).unwrap_err(),
        SubmitError::QueueFull { depth: 3 }
    );
    let stats = server.stats();
    assert_eq!(stats.shed_queued, 2);
    assert_eq!(stats.shed_submissions, 1);
    server.drain();
    for ticket in [s2, d4, s5] {
        assert!(ticket.try_take().expect("drained").result.is_ok());
    }
    server.shutdown();
}

/// A resolved ticket's completion record is already in the stats: the
/// server logs a group's records before it resolves the group's tickets.
#[test]
fn a_resolved_ticket_always_has_its_completion_record() {
    let engine = engine_with_layers(2);
    let server = Server::start(engine, ServerConfig::new().with_workers(2));
    let mut rng = StdRng::seed_from_u64(53);
    for id in 0..1000u64 {
        let request = Request {
            id,
            layer: (id % 2) as usize,
            activations: DenseMatrix::random(&mut rng, 16, 1 + (id % 9) as usize),
        };
        let response = server.submit(request).unwrap().wait();
        assert!(
            response.result.is_ok(),
            "request {id}: {:?}",
            response.result
        );
        assert!(
            server.stats().completions.iter().any(|c| c.id == id),
            "request {id} resolved without a completion record"
        );
    }
    server.drain();
    assert_eq!(server.stats().completed, 1000);
    server.shutdown();
}

/// Closing the gate is atomic with the drain snapshot: a submission racing
/// `drain()` is either rejected with `NotAccepting` or fully served — no
/// accepted ticket is ever stranded or failed with `ShutDown`.
#[test]
fn drain_racing_submissions_never_strands_an_accepted_ticket() {
    let engine = engine_with_layers(1);
    let server = Server::start(
        engine,
        ServerConfig::new().with_workers(2).with_queue_depth(10_000),
    );
    let accepted = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let server = &server;
            let accepted = &accepted;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + t);
                for i in 0..150u64 {
                    let request = Request {
                        id: t * 1_000 + i,
                        layer: 0,
                        activations: DenseMatrix::random(&mut rng, 16, 2),
                    };
                    match server.submit(request) {
                        Ok(ticket) => {
                            accepted.fetch_add(1, Ordering::SeqCst);
                            let response = ticket.wait();
                            assert!(
                                response.result.is_ok(),
                                "accepted ticket must be served: {:?}",
                                response.result
                            );
                        }
                        Err(e) => assert_eq!(e, SubmitError::NotAccepting),
                    }
                }
            });
        }
        let server = &server;
        scope.spawn(move || {
            std::thread::sleep(Duration::from_millis(2));
            server.drain();
        });
    });
    let stats = server.stats();
    assert_eq!(stats.submitted, accepted.load(Ordering::SeqCst));
    assert_eq!(stats.completed, stats.submitted);
    server.shutdown();
}

/// A server dropped without draining fails still-queued requests with the
/// typed `ShutDown` error instead of leaving tickets waiting forever.
#[test]
fn dropping_an_undrained_server_fails_queued_tickets() {
    let engine = engine_with_layers(1);
    let mut rng = StdRng::seed_from_u64(29);
    let server = Server::start(
        engine,
        ServerConfig::new()
            .with_workers(1)
            .with_admission_window_us(5_000_000),
    );
    let ticket = server
        .submit(Request {
            id: 0,
            layer: 0,
            activations: DenseMatrix::random(&mut rng, 16, 4),
        })
        .unwrap();
    drop(server);
    assert_eq!(ticket.wait().result.unwrap_err(), ServingError::ShutDown);
}

#[test]
fn wait_timeout_is_typed_and_leaves_the_ticket_live() {
    let engine = engine_with_layers(1);
    let mut rng = StdRng::seed_from_u64(2);
    let acts = DenseMatrix::random(&mut rng, 16, 3);
    let expected = engine.execute(0, &acts).unwrap();
    // A long admission window holds the response back past the first wait.
    let server = Server::start(
        engine,
        ServerConfig::new()
            .with_workers(1)
            .with_admission_window_us(300_000),
    );
    let ticket = server
        .submit(Request {
            id: 0,
            layer: 0,
            activations: acts,
        })
        .unwrap();
    match ticket.wait_timeout(Duration::from_millis(5)) {
        Err(ServingError::WaitTimeout) => {}
        other => panic!("expected WaitTimeout, got {other:?}"),
    }
    // The ticket stayed live: a later bounded wait collects the response.
    let response = ticket
        .wait_timeout(Duration::from_secs(30))
        .expect("the request still executes after a timed-out wait");
    assert_eq!(bits(&response.result.unwrap()), bits(&expected));
    server.shutdown();
}

#[test]
fn class_percentile_is_none_on_empty_and_clamps_the_argument() {
    let mut stats = ServerStats::default();
    assert_eq!(stats.class_percentile_ms(SloKind::Standard, 0.99), None);

    for (i, total_ms) in [1.0, 2.0, 3.0, 4.0].into_iter().enumerate() {
        stats.completions.push(Completion {
            id: i as u64,
            kind: SloKind::Standard,
            queue_ms: 0.0,
            service_ms: total_ms,
            total_ms,
            deadline_met: None,
        });
    }
    // Out-of-range percentiles clamp instead of indexing out of bounds.
    assert_eq!(stats.class_percentile_ms(SloKind::Standard, 1.7), Some(4.0));
    assert_eq!(
        stats.class_percentile_ms(SloKind::Standard, -0.3),
        Some(1.0)
    );
    assert_eq!(
        stats.class_percentile_ms(SloKind::Standard, f64::NAN),
        Some(1.0)
    );
    assert_eq!(stats.class_percentile_ms(SloKind::Standard, 0.5), Some(2.0));
    // A class with no completions stays `None` even when others have data.
    assert_eq!(stats.class_percentile_ms(SloKind::Bulk, 0.99), None);
}

/// Two updates of one layer released together: nothing serialises them, so
/// each either publishes its own version or — when the other published
/// between its snapshot and its swap — returns the typed `Conflict` with
/// nothing of it published. The layer's version counts the successes, and
/// traffic afterwards runs on the weights of the update that published
/// last.
#[test]
fn concurrent_updates_of_one_layer_publish_or_conflict() {
    const N: usize = 256;
    const V: usize = 8;
    let dense = DenseMatrix::from_fn(N, N, |r, c| {
        if (c + r / V).is_multiple_of(4) {
            0.25 + ((r * 7 + c * 3) % 11) as f32 * 0.1
        } else {
            0.0
        }
    });
    let weights = ShflBwMatrix::from_dense(&dense, V).unwrap();
    let arch = GpuArch::t4();
    let mut engine = ServingEngine::new(arch.clone(), BucketPolicy::new(8, 32).unwrap(), 16);
    assert_eq!(engine.register_layer("w", weights.clone()), 0);
    let server = Server::start(engine, ServerConfig::new().with_workers(2));

    let candidates = [scaled(&weights, 2.0), scaled(&weights, 3.0)];
    let start = Barrier::new(candidates.len());
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = candidates
            .iter()
            .map(|w| {
                let (server, start, w) = (&server, &start, w.clone());
                scope.spawn(move || {
                    start.wait();
                    server.update_layer(0, w)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("update thread"))
            .collect()
    });

    for result in &results {
        assert!(
            matches!(result, Ok(_) | Err(UpdateError::Conflict { layer: 0 })),
            "got {result:?}"
        );
    }
    let oks = results.iter().filter(|r| r.is_ok()).count();
    assert!(
        oks >= 1,
        "at least one update must publish, got {results:?}"
    );
    assert_eq!(server.engine().layer_version(0).unwrap(), oks as u64);

    // The update that published the highest version owns the layer now.
    let winner = results
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.as_ref().ok().map(|report| (report.version, i)))
        .max()
        .map(|(_, i)| i)
        .expect("at least one Ok");
    let mut rng = StdRng::seed_from_u64(41);
    let acts = DenseMatrix::random(&mut rng, N, 7);
    let want = SpmmPlan::shfl_bw(&arch, &candidates[winner], acts.cols())
        .execute(&acts)
        .unwrap()
        .output;
    let got = server
        .submit(Request {
            id: 0,
            layer: 0,
            activations: acts,
        })
        .unwrap()
        .wait()
        .result
        .expect("the updated layer serves");
    assert_eq!(bits(&got), bits(&want));
    server.shutdown();
}
