//! Overload-behavior property tests: on a deterministic saturation trace the
//! deadline class keeps a lower p99 than bulk, shed work is only ever
//! bulk-class, and every accepted ticket resolves.

use gpu_sim::GpuArch;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use shfl_core::bucket::BucketPolicy;
use shfl_core::formats::ShflBwMatrix;
use shfl_core::matrix::DenseMatrix;
use shfl_core::slo::{SloClass, SloKind};
use shfl_serving::policy::SloAware;
use shfl_serving::server::Request;
use shfl_serving::server::{Server, ServerConfig, SubmitError};
use shfl_serving::{ServingEngine, ServingError};
use std::sync::Arc;

fn engine() -> ServingEngine {
    let dense = DenseMatrix::from_fn(16, 16, |r, c| if (c + r / 4) % 3 == 0 { 0.5 } else { 0.0 });
    let weights = ShflBwMatrix::from_dense(&dense, 4).unwrap();
    let mut engine = ServingEngine::new(GpuArch::t4(), BucketPolicy::new(8, 32).unwrap(), 8);
    engine.register_layer("layer0", weights);
    engine
}

fn request(id: u64, rng: &mut StdRng) -> Request {
    Request {
        id,
        layer: 0,
        activations: DenseMatrix::random(rng, 16, 4),
    }
}

/// The deterministic overload trace of the ISSUE acceptance gate: a single
/// worker behind a held admission window, bulk filling the queue, deadline
/// traffic arriving on top. The SLO policy plus bulk shedding must yield a
/// deadline p99 at or below the bulk p99, and every shed request — at the
/// door or from the queue — must be bulk-class.
#[test]
fn saturated_server_keeps_deadline_p99_at_or_under_bulk_p99() {
    let mut rng = StdRng::seed_from_u64(61);
    let server = Server::start(
        engine(),
        ServerConfig::new()
            .with_workers(1)
            .with_admission_window_us(1_000_000)
            .with_queue_depth(12)
            .with_class_queue_depth(SloKind::Bulk, 8)
            .with_policy(Arc::new(SloAware)),
    );
    // Fill the bulk class to its bound...
    let bulk_tickets: Vec<_> = (0..8)
        .map(|id| {
            server
                .submit_classed(request(id, &mut rng), SloClass::Bulk)
                .unwrap()
        })
        .collect();
    // ...one more bulk is shed at the door...
    assert_eq!(
        server
            .submit_classed(request(8, &mut rng), SloClass::Bulk)
            .unwrap_err(),
        SubmitError::Shed
    );
    // ...then deadline traffic lands on top. The budget exceeds the held
    // window so the trace stays a single policy-ordered dispatch round.
    let class = SloClass::Deadline {
        deadline_us: 10_000_000,
    };
    let deadline_tickets: Vec<_> = (9..15)
        .map(|id| server.submit_classed(request(id, &mut rng), class).unwrap())
        .collect();
    // The last two deadline arrivals found the queue full and evicted the
    // two oldest bulk requests.
    server.drain();
    let mut shed_ids = Vec::new();
    for ticket in bulk_tickets {
        let id = ticket.id();
        let response = ticket.try_take().expect("drained");
        match response.result {
            Ok(_) => {}
            Err(ServingError::Shed) => shed_ids.push(id),
            Err(other) => panic!("bulk ticket {id} failed unexpectedly: {other}"),
        }
    }
    assert_eq!(shed_ids, vec![0, 1], "oldest bulk requests are shed first");
    for ticket in deadline_tickets {
        assert!(ticket.try_take().expect("drained").result.is_ok());
    }

    let stats = server.stats();
    assert_eq!(stats.shed_submissions, 1);
    assert_eq!(stats.shed_queued, 2);
    assert_eq!(stats.completed, stats.submitted);
    // Six completions per class survived the trace.
    assert_eq!(stats.class_latencies_ms(SloKind::Deadline).len(), 6);
    assert_eq!(stats.class_latencies_ms(SloKind::Bulk).len(), 6);
    // With one worker and SLO ordering, every deadline completion precedes
    // every bulk completion, so the p99 inequality is strict.
    let deadline_p99 = stats
        .class_percentile_ms(SloKind::Deadline, 0.99)
        .expect("deadline completions exist");
    let bulk_p99 = stats
        .class_percentile_ms(SloKind::Bulk, 0.99)
        .expect("bulk completions exist");
    assert!(
        deadline_p99 < bulk_p99,
        "deadline p99 {deadline_p99} ms must stay under bulk p99 {bulk_p99} ms"
    );
    let first_bulk = stats
        .completions
        .iter()
        .position(|c| c.kind == SloKind::Bulk)
        .expect("bulk completions exist");
    assert!(
        stats.completions[first_bulk..]
            .iter()
            .all(|c| c.kind == SloKind::Bulk),
        "no deadline completion may trail a bulk completion on this trace"
    );
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On any arrival sequence against a tiny queue, shedding only ever hits
    /// bulk-class work: `SubmitError::Shed` only for bulk submissions,
    /// `ServingError::Shed` only on bulk tickets, `QueueFull` for the
    /// latency-sensitive overflow — and every accepted ticket resolves.
    #[test]
    fn shed_work_is_only_ever_bulk(codes in proptest::collection::vec(0u8..3, 1..40)) {
        let mut rng = StdRng::seed_from_u64(67);
        let server = Server::start(
            engine(),
            ServerConfig::new()
                .with_workers(1)
                .with_admission_window_us(1_000_000)
                .with_queue_depth(6)
                .with_class_queue_depth(SloKind::Bulk, 3)
                .with_policy(Arc::new(SloAware)),
        );
        let mut tickets = Vec::new();
        for (i, code) in codes.iter().enumerate() {
            let class = match code {
                0 => SloClass::Deadline { deadline_us: 10_000_000 },
                1 => SloClass::Standard,
                _ => SloClass::Bulk,
            };
            match server.submit_classed(request(i as u64, &mut rng), class) {
                Ok(ticket) => tickets.push(ticket),
                Err(SubmitError::Shed) => prop_assert_eq!(class.kind(), SloKind::Bulk),
                Err(SubmitError::QueueFull { .. }) => {
                    prop_assert_ne!(class.kind(), SloKind::Bulk)
                }
                Err(other) => prop_assert!(false, "unexpected rejection: {}", other),
            }
        }
        server.drain();
        for ticket in tickets {
            let kind = ticket.class().kind();
            let response = ticket.try_take().expect("drain resolves every ticket");
            match response.result {
                Ok(_) => {}
                Err(ServingError::Shed) => prop_assert_eq!(kind, SloKind::Bulk),
                Err(other) => prop_assert!(false, "unexpected failure: {}", other),
            }
        }
        let stats = server.stats();
        prop_assert_eq!(stats.completed, stats.submitted);
        server.shutdown();
    }
}
