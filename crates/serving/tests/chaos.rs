//! Chaos property tests (`--features chaos`): deterministic scripted fault
//! schedules — queue-full windows, plan-build failures, worker panics, slow
//! executes — against the continuous-batching server. Under *every* schedule
//! each accepted ticket resolves (a value or a typed error; no hangs, no
//! poisoned locks), every success stays bit-identical to the fault-free
//! oracle, and `drain()` terminates.
#![cfg(feature = "chaos")]

use gpu_sim::GpuArch;
use rand::rngs::StdRng;
use rand::SeedableRng;
use shfl_core::bucket::BucketPolicy;
use shfl_core::formats::ShflBwMatrix;
use shfl_core::formats::VectorWiseMatrix;
use shfl_core::matrix::DenseMatrix;
use shfl_core::slo::SloClass;
use shfl_serving::chaos::FaultPlan;
use shfl_serving::server::Request;
use shfl_serving::server::{Server, ServerConfig, ServerStats, SubmitError};
use shfl_serving::{ServingEngine, ServingError, UpdateError};
use std::sync::Arc;
use std::time::Duration;

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

/// Runs one scripted schedule over a mixed 12-request trace and asserts the
/// chaos property: every accepted ticket resolves with either a bit-identical
/// success or a typed injected-fault error, and drain accounting stays exact.
fn run_schedule(plan: FaultPlan) -> ServerStats {
    let engine = engine_with_layers(2);
    let mut rng = StdRng::seed_from_u64(71);
    let requests: Vec<Request> = (0..12)
        .map(|i| Request {
            id: i,
            layer: (i % 2) as usize,
            activations: DenseMatrix::random(&mut rng, 16, 1 + (i as usize * 5) % 20),
        })
        .collect();
    let expected: Vec<DenseMatrix> = requests
        .iter()
        .map(|r| engine.execute(r.layer, &r.activations).unwrap())
        .collect();
    let plan = Arc::new(plan);
    let server = Server::start(
        engine,
        ServerConfig::new()
            .with_workers(2)
            .with_admission_window_us(100)
            .with_fault_plan(Arc::clone(&plan)),
    );
    let classes = [
        SloClass::Standard,
        SloClass::Bulk,
        SloClass::Deadline {
            deadline_us: 50_000,
        },
    ];
    let mut tickets = Vec::new();
    for (i, request) in requests.into_iter().enumerate() {
        match server.submit_classed(request, classes[i % classes.len()]) {
            Ok(ticket) => tickets.push((i, ticket)),
            // Scripted queue-full windows bounce with the normal typed error.
            Err(SubmitError::QueueFull { .. }) => {}
            Err(other) => panic!("unexpected rejection: {other}"),
        }
    }
    for (i, ticket) in tickets {
        let response = ticket.wait();
        match response.result {
            Ok(got) => {
                let want = &expected[i];
                assert_eq!(got.shape(), want.shape(), "request {i}");
                assert_eq!(
                    bits(&got),
                    bits(want),
                    "request {i} must stay bit-identical"
                );
            }
            Err(ServingError::WorkerPanic { context }) => {
                assert!(context.contains("injected worker panic"), "{context}");
            }
            Err(ServingError::Kernel(e)) => {
                assert!(e.to_string().contains("injected plan-build failure"), "{e}");
            }
            Err(other) => panic!("request {i} failed with an unscripted error: {other}"),
        }
    }
    server.drain();
    let stats = server.stats();
    assert_eq!(
        stats.completed, stats.submitted,
        "drain must account for every accepted request"
    );
    server.shutdown();
    stats
}

/// The headline chaos property over a spread of schedules, from fault-free
/// to a compound script mixing all four fault kinds.
#[test]
fn every_schedule_resolves_every_ticket_bit_identically() {
    let schedules = [
        FaultPlan::new(),
        FaultPlan::new().fail_build_at(0),
        FaultPlan::new().panic_at(0),
        FaultPlan::new().reject_submit_at(0).reject_submit_at(5),
        FaultPlan::new()
            .slow_at(0, 2_000)
            .panic_at(1)
            .fail_build_at(2),
        FaultPlan::new()
            .panic_at(0)
            .panic_at(1)
            .panic_at(2)
            .fail_build_at(3)
            .reject_submit_at(7)
            .slow_at(4, 1_000),
    ];
    for plan in schedules {
        run_schedule(plan);
    }
}

/// A scripted panic fails only its own group's tickets with the typed
/// `WorkerPanic` error; the worker respawns and serves the rest of the trace
/// bit-identically, and `drain()` still terminates.
#[test]
fn worker_panic_fails_only_its_group_and_respawns() {
    let engine = engine_with_layers(1);
    let mut rng = StdRng::seed_from_u64(73);
    let requests: Vec<Request> = (0..3)
        .map(|i| Request {
            id: i,
            layer: 0,
            activations: DenseMatrix::random(&mut rng, 16, 4),
        })
        .collect();
    let expected: Vec<DenseMatrix> = requests
        .iter()
        .map(|r| engine.execute(r.layer, &r.activations).unwrap())
        .collect();
    let plan = Arc::new(FaultPlan::new().panic_at(0));
    let server = Server::start(
        engine,
        ServerConfig::new()
            .with_workers(1)
            .with_coalesce(false)
            .with_admission_window_us(5_000_000)
            .with_fault_plan(Arc::clone(&plan)),
    );
    let tickets: Vec<_> = requests
        .into_iter()
        .map(|r| server.submit(r).unwrap())
        .collect();
    server.drain();
    let mut tickets = tickets.into_iter();
    let hit = tickets.next().unwrap().try_take().expect("drained");
    assert!(matches!(hit.result, Err(ServingError::WorkerPanic { .. })));
    for (ticket, want) in tickets.zip(&expected[1..]) {
        let got = ticket.try_take().expect("drained").result.unwrap();
        assert_eq!(bits(&got), bits(want));
    }
    let stats = server.stats();
    assert_eq!(stats.worker_panics, 1);
    assert_eq!(stats.worker_respawns, 1);
    assert_eq!(stats.completed, 3);
    server.shutdown();
}

/// A scripted plan-build failure surfaces the typed kernel error to its
/// group without panicking any worker; the rest of the trace is unaffected.
#[test]
fn scripted_build_failure_surfaces_typed_kernel_error() {
    let engine = engine_with_layers(1);
    let mut rng = StdRng::seed_from_u64(79);
    let plan = Arc::new(FaultPlan::new().fail_build_at(1));
    let server = Server::start(
        engine,
        ServerConfig::new()
            .with_workers(1)
            .with_coalesce(false)
            .with_admission_window_us(5_000_000)
            .with_fault_plan(Arc::clone(&plan)),
    );
    let tickets: Vec<_> = (0..3)
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
    let results: Vec<_> = tickets
        .into_iter()
        .map(|t| t.try_take().expect("drained").result)
        .collect();
    assert!(results[0].is_ok());
    match &results[1] {
        Err(ServingError::Kernel(e)) => {
            assert!(e.to_string().contains("injected plan-build failure"))
        }
        other => panic!("expected an injected kernel error, got {other:?}"),
    }
    assert!(results[2].is_ok());
    let stats = server.stats();
    assert_eq!(stats.worker_panics, 0);
    assert_eq!(stats.worker_respawns, 0);
    assert_eq!(plan.executes_seen(), 3);
    server.shutdown();
}

/// Scripted queue-full windows bounce exactly the scripted submissions with
/// the typed backpressure error while the queue itself stays untouched.
#[test]
fn scripted_queue_full_windows_bounce_submissions() {
    let engine = engine_with_layers(1);
    let mut rng = StdRng::seed_from_u64(83);
    let plan = Arc::new(FaultPlan::new().reject_submit_at(0).reject_submit_at(2));
    let server = Server::start(
        engine,
        ServerConfig::new()
            .with_workers(1)
            .with_fault_plan(Arc::clone(&plan)),
    );
    let mut accepted = Vec::new();
    for i in 0..4u64 {
        let outcome = server.submit(Request {
            id: i,
            layer: 0,
            activations: DenseMatrix::random(&mut rng, 16, 4),
        });
        if i == 0 || i == 2 {
            assert!(matches!(outcome, Err(SubmitError::QueueFull { .. })));
        } else {
            accepted.push(outcome.unwrap());
        }
    }
    for ticket in accepted {
        assert!(ticket.wait().result.is_ok());
    }
    server.drain();
    let stats = server.stats();
    assert_eq!(stats.rejected, 2);
    assert_eq!(stats.submitted, 2);
    assert_eq!(plan.submissions_seen(), 4);
    server.shutdown();
}

/// A scripted slow execute creates a backlog window: requests arriving
/// during the stall pile into the next admission round (and coalesce), and
/// every one of them still resolves bit-identically.
#[test]
fn slow_execute_builds_backlog_without_losing_requests() {
    let engine = engine_with_layers(1);
    let mut rng = StdRng::seed_from_u64(89);
    let requests: Vec<Request> = (0..6)
        .map(|i| Request {
            id: i,
            layer: 0,
            activations: DenseMatrix::random(&mut rng, 16, 4),
        })
        .collect();
    let expected: Vec<DenseMatrix> = requests
        .iter()
        .map(|r| engine.execute(r.layer, &r.activations).unwrap())
        .collect();
    let plan = Arc::new(FaultPlan::new().slow_at(0, 200_000));
    let server = Server::start(
        engine,
        ServerConfig::new()
            .with_workers(1)
            .with_fault_plan(Arc::clone(&plan)),
    );
    let mut requests = requests.into_iter();
    let first = server.submit(requests.next().unwrap()).unwrap();
    // Land the rest while execute 0 is stalled for 200 ms.
    std::thread::sleep(Duration::from_millis(20));
    let rest: Vec<_> = requests.map(|r| server.submit(r).unwrap()).collect();
    let got = first.wait().result.unwrap();
    assert_eq!(bits(&got), bits(&expected[0]));
    for (ticket, want) in rest.into_iter().zip(&expected[1..]) {
        let got = ticket.wait().result.unwrap();
        assert_eq!(bits(&got), bits(want));
    }
    server.drain();
    let stats = server.stats();
    assert_eq!(stats.completed, 6);
    // The stalled window forced the trailing requests into shared rounds.
    assert!(stats.coalesced_requests >= 2, "stats: {stats:?}");
    assert!(plan.executes_seen() >= 2);
    server.shutdown();
}

/// Update-path faults fire at their exact scripted update indices: the
/// scripted candidate-build failure and the scripted swap-point panic both
/// surface as typed `UpdateError::Build`s whose source chains the kernel
/// error, and both leave the old version serving bit-identically. The clean
/// update in between publishes normally.
#[test]
fn scripted_update_faults_leave_the_old_version_serving() {
    let engine = engine_with_layers(1);
    let mut rng = StdRng::seed_from_u64(97);
    let acts = DenseMatrix::random(&mut rng, 16, 8);
    let v0_out = engine.execute(0, &acts).unwrap();
    let plan = Arc::new(FaultPlan::new().fail_update_build_at(0).panic_update_at(2));
    let server = Server::start(
        engine,
        ServerConfig::new()
            .with_workers(1)
            .with_fault_plan(Arc::clone(&plan)),
    );

    // Update 0: scripted build failure — typed, chained, version unchanged.
    let update = scaled(&server.engine().layer_weights(0).unwrap(), 0.5);
    let err = server.update_layer(0, update.clone()).unwrap_err();
    match &err {
        UpdateError::Build { source, .. } => {
            assert!(source.to_string().contains("injected update build failure"));
        }
        other => panic!("expected an injected build failure, got {other}"),
    }
    assert!(std::error::Error::source(&err).is_some());
    assert_eq!(server.engine().layer_version(0).unwrap(), 0);

    // Update 1: clean — publishes version 1.
    let report = server.update_layer(0, update).unwrap();
    assert_eq!(report.version, 1);

    // Update 2: scripted panic at the swap point — contained into a typed
    // error, version 1 still serving.
    let another = scaled(&server.engine().layer_weights(0).unwrap(), 2.0);
    let err = server.update_layer(0, another).unwrap_err();
    match &err {
        UpdateError::Build { source, .. } => {
            assert!(
                source.to_string().contains("injected update panic"),
                "{source}"
            );
        }
        other => panic!("expected a contained update panic, got {other}"),
    }
    assert_eq!(server.engine().layer_version(0).unwrap(), 1);
    assert_eq!(plan.updates_seen(), 3);

    // Traffic after the whole schedule matches the *published* version's
    // cold oracle — and not version 0's.
    let ticket = server
        .submit(Request {
            id: 0,
            layer: 0,
            activations: acts.clone(),
        })
        .unwrap();
    let got = ticket.wait().result.unwrap();
    let want = server.engine().execute_cold(0, &acts).unwrap();
    assert_eq!(bits(&got), bits(&want));
    assert_ne!(bits(&got), bits(&v0_out));
    server.drain();
    server.shutdown();
}

/// The compound chaos property with live updates in the mix: a schedule
/// combining queue-full windows, a worker panic, an execute build failure,
/// an update build failure, and an update swap-point panic — under
/// continuous mixed-class traffic with real swaps between waves. Every
/// accepted ticket resolves (bit-identical success or typed injected
/// error), drain accounting stays exact, and every post-swap success
/// matches the published version's oracle.
#[test]
fn compound_schedule_mixes_update_faults_with_serving_faults() {
    let engine = engine_with_layers(1);
    let mut rng = StdRng::seed_from_u64(101);
    let operands: Vec<DenseMatrix> = (0..8)
        .map(|i| DenseMatrix::random(&mut rng, 16, 2 + (i * 3) % 14))
        .collect();
    let plan = Arc::new(
        FaultPlan::new()
            .reject_submit_at(1)
            .panic_at(0)
            .fail_build_at(2)
            .fail_update_build_at(1)
            .panic_update_at(2),
    );
    let server = Server::start(
        engine,
        ServerConfig::new()
            .with_workers(2)
            .with_coalesce(false)
            .with_admission_window_us(100)
            .with_fault_plan(Arc::clone(&plan)),
    );
    let classes = [
        SloClass::Standard,
        SloClass::Bulk,
        SloClass::Deadline {
            deadline_us: 50_000,
        },
    ];

    let wave = |ids: std::ops::Range<u64>| -> Vec<(usize, shfl_serving::server::Ticket)> {
        let mut tickets = Vec::new();
        for id in ids {
            let i = id as usize;
            match server.submit_classed(
                Request {
                    id,
                    layer: 0,
                    activations: operands[i].clone(),
                },
                classes[i % classes.len()],
            ) {
                Ok(t) => tickets.push((i, t)),
                Err(SubmitError::QueueFull { .. }) => {} // scripted bounce
                Err(other) => panic!("unexpected rejection: {other}"),
            }
        }
        tickets
    };
    let settle = |tickets: Vec<(usize, shfl_serving::server::Ticket)>| {
        for (i, ticket) in tickets {
            match ticket.wait().result {
                Ok(got) => {
                    let want = server.engine().execute_cold(0, &operands[i]).unwrap();
                    assert_eq!(bits(&got), bits(&want), "request {i}");
                }
                Err(ServingError::WorkerPanic { context }) => {
                    assert!(context.contains("injected worker panic"), "{context}");
                }
                Err(ServingError::Kernel(e)) => {
                    assert!(e.to_string().contains("injected plan-build failure"), "{e}");
                }
                Err(other) => panic!("request {i} failed with an unscripted error: {other}"),
            }
        }
    };

    // Wave 1 rides through the worker panic, the queue-full bounce and the
    // execute build failure; settle before swapping so the per-version
    // oracle stays deterministic.
    settle(wave(0..4));

    // Swap 1: clean magnitude update (update index 0).
    let w1 = scaled(&server.engine().layer_weights(0).unwrap(), -0.75);
    assert_eq!(server.update_layer(0, w1).unwrap().version, 1);
    // Swap 2: scripted update build failure (index 1) — version 1 keeps
    // serving.
    let w2 = scaled(&server.engine().layer_weights(0).unwrap(), 0.5);
    assert!(server.update_layer(0, w2.clone()).is_err());
    assert_eq!(server.engine().layer_version(0).unwrap(), 1);
    // Swap 3: scripted update panic at the swap point (index 2) — contained.
    assert!(server.update_layer(0, w2.clone()).is_err());
    assert_eq!(server.engine().layer_version(0).unwrap(), 1);
    // Swap 4: clean again (index 3) — publishes version 2.
    assert_eq!(server.update_layer(0, w2).unwrap().version, 2);

    // Wave 2 executes against the published version 2 bit-identically.
    settle(wave(4..8));

    server.drain();
    let stats = server.stats();
    assert_eq!(stats.completed, stats.submitted);
    assert_eq!(stats.worker_panics, 1);
    assert_eq!(plan.updates_seen(), 4);
    let update_stats = server.engine().update_stats();
    assert_eq!(update_stats.swaps, 2);
    // Both published swaps were same-pattern → the delta path moved fewer
    // bytes than rebuilds would have.
    assert!(update_stats.repack_bytes > 0);
    assert!(update_stats.repack_bytes < update_stats.rebuild_bytes);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Decode-session fault schedules.
// ---------------------------------------------------------------------------

use shfl_serving::{decode_oracle, DecodeModel, DecodeStage, DecodeState, DecodeToken};

/// Recurrent two-stage decode model over the chaos engine's two layers
/// (stage 0 mixes the hidden state into the GEMM input, stage 1 writes its
/// tanh-bounded output back), so state mishandling under faults breaks
/// bit-identity immediately.
struct ToyDecode {
    stages: Vec<DecodeStage>,
}

impl ToyDecode {
    fn new() -> ToyDecode {
        ToyDecode {
            stages: vec![
                DecodeStage {
                    name: "layer0".into(),
                    layer: 0,
                },
                DecodeStage {
                    name: "layer1".into(),
                    layer: 1,
                },
            ],
        }
    }
}

impl DecodeModel for ToyDecode {
    fn name(&self) -> &str {
        "toy-decode"
    }

    fn stages(&self) -> &[DecodeStage] {
        &self.stages
    }

    fn init_state(&self) -> DecodeState {
        DecodeState {
            slots: vec![vec![0.0; 16]],
        }
    }

    fn pre(&self, stage: usize, input: &[f32], state: &mut DecodeState) -> Vec<f32> {
        match stage {
            0 => input
                .iter()
                .zip(&state.slots[0])
                .map(|(x, h)| x + 0.5 * h)
                .collect(),
            _ => input.to_vec(),
        }
    }

    fn post(&self, stage: usize, gemm_out: &[f32], state: &mut DecodeState) -> Vec<f32> {
        let bounded: Vec<f32> = gemm_out.iter().map(|y| y.tanh()).collect();
        if stage == 1 {
            state.slots[0] = bounded.clone();
        }
        bounded
    }

    fn prompt_len(&self) -> usize {
        16
    }
}

fn session_prompt(seed: u64) -> Vec<f32> {
    (0..16)
        .map(|j| (seed.wrapping_mul(31).wrapping_add(j) % 17) as f32 / 17.0 - 0.5)
        .collect()
}

/// How one decode session ended under a fault schedule.
#[derive(Debug, PartialEq, Eq)]
enum SessionOutcome {
    Done,
    Evicted,
    Panicked,
}

/// Drains one session's stream to its terminal, collecting every token and
/// asserting that only the scripted typed errors ever surface.
fn drain_session(
    ticket: &shfl_serving::SessionTicket,
    tokens: &mut Vec<DecodeToken>,
) -> SessionOutcome {
    loop {
        match ticket.wait_timeout(Duration::from_secs(10)) {
            Ok(Some(tok)) => tokens.push(tok),
            Ok(None) => return SessionOutcome::Done,
            Err(ServingError::Evicted { .. }) => return SessionOutcome::Evicted,
            Err(ServingError::WorkerPanic { context }) => {
                assert!(
                    context.contains("injected decode-step panic"),
                    "unscripted panic context: {context}"
                );
                return SessionOutcome::Panicked;
            }
            Err(other) => panic!("session surfaced an unscripted error: {other}"),
        }
    }
}

/// Checks collected tokens against the cold oracle: `full` demands the whole
/// sequence, otherwise an exact prefix (a panicked session keeps every token
/// it streamed before the fault).
fn assert_oracle_match(tokens: &[DecodeToken], seed: u64, steps: usize, full: bool) {
    let cold = engine_with_layers(2);
    let oracle = decode_oracle(&cold, &ToyDecode::new(), &session_prompt(seed), steps).unwrap();
    if full {
        assert_eq!(tokens.len(), steps, "accepted tokens were lost");
    } else {
        assert!(tokens.len() <= steps);
    }
    for (i, tok) in tokens.iter().enumerate() {
        assert_eq!(tok.step, i);
        for (a, b) in tok.values.iter().zip(&oracle[i]) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "step {i} diverged from the cold oracle under faults"
            );
        }
    }
}

/// Drains every session and returns its final outcome and whether it was
/// evicted on the way. A session evicted by the script is resumed once and
/// drained again; whichever session the scripted step panic hits — the
/// resumed one included — keeps an exact oracle prefix behind its typed
/// error, and every other session's tokens match the cold oracle in full.
fn drain_sessions(
    server: &Server,
    handles: &[shfl_serving::SessionHandle],
    seed0: u64,
    steps: usize,
) -> Vec<(SessionOutcome, bool)> {
    let mut outcomes = Vec::new();
    for (i, handle) in handles.iter().enumerate() {
        let mut tokens = Vec::new();
        let mut outcome = drain_session(&handle.ticket(), &mut tokens);
        let evicted = outcome == SessionOutcome::Evicted;
        if evicted {
            // The scripted eviction parks a snapshot; resume must continue
            // the very same stream bit-identically.
            let resumed = server.resume_session(handle.id()).unwrap();
            outcome = drain_session(&resumed.ticket(), &mut tokens);
        }
        assert_ne!(outcome, SessionOutcome::Evicted, "evicted twice: {i}");
        assert_oracle_match(
            &tokens,
            seed0 + i as u64,
            steps,
            outcome == SessionOutcome::Done,
        );
        outcomes.push((outcome, evicted));
    }
    outcomes
}

/// The compound schedules' property, whichever session each fault hits:
/// exactly one session was evicted (and resumed), exactly one ends in the
/// scripted step panic, and every other session finishes.
fn assert_one_eviction_one_panic(outcomes: &[(SessionOutcome, bool)]) {
    let count = |o: SessionOutcome| outcomes.iter().filter(|(x, _)| *x == o).count();
    let evicted = outcomes.iter().filter(|(_, e)| *e).count();
    assert_eq!(evicted, 1, "exactly one scripted eviction: {outcomes:?}");
    assert_eq!(
        count(SessionOutcome::Panicked),
        1,
        "exactly one scripted step panic: {outcomes:?}"
    );
    assert_eq!(
        count(SessionOutcome::Done),
        outcomes.len() - 1,
        "every other session completes: {outcomes:?}"
    );
}

/// Compound decode-only schedule: a scripted mid-flight eviction plus a
/// scripted step panic against four interleaved sessions. Every accepted
/// token resolves — completed sessions bit-identical to the cold oracle, the
/// evicted session resumes bit-identically, the panicked session (which may
/// be the resumed one) keeps an exact oracle prefix behind its typed error.
#[test]
fn compound_session_schedule_resolves_every_accepted_token() {
    let plan = Arc::new(FaultPlan::new().evict_session_at(5).panic_step_at(11));
    let server = Server::start(
        engine_with_layers(2),
        ServerConfig::new()
            .with_workers(2)
            .with_fault_plan(Arc::clone(&plan)),
    );
    let model = Arc::new(ToyDecode::new());
    let steps = 8usize;
    let classes = [
        SloClass::Standard,
        SloClass::Bulk,
        SloClass::Deadline {
            deadline_us: 2_000_000,
        },
        SloClass::Bulk,
    ];
    let handles: Vec<_> = (0..4)
        .map(|i| {
            server
                .open_session(
                    Arc::clone(&model) as Arc<dyn DecodeModel>,
                    session_prompt(900 + i),
                    classes[i as usize],
                    steps,
                )
                .unwrap()
        })
        .collect();

    let outcomes = drain_sessions(&server, &handles, 900, steps);
    assert_one_eviction_one_panic(&outcomes);
    let stats = server.session_stats();
    assert_eq!(stats.evicted, 1, "exactly one scripted eviction");
    assert_eq!(stats.resumed, 1);
    assert!(plan.steps_seen() > 11, "both step faults must have fired");
    server.shutdown();
}

/// The property above when both faults hit one session: with a single
/// session, the scripted step panic must land on it after its resume, and
/// only that resumed stream fails, behind an exact oracle prefix.
#[test]
fn step_panic_after_a_resume_fails_only_the_resumed_stream() {
    let plan = Arc::new(FaultPlan::new().evict_session_at(2).panic_step_at(5));
    let server = Server::start(
        engine_with_layers(2),
        ServerConfig::new()
            .with_workers(2)
            .with_fault_plan(Arc::clone(&plan)),
    );
    let handle = server
        .open_session(
            Arc::new(ToyDecode::new()) as Arc<dyn DecodeModel>,
            session_prompt(500),
            SloClass::Standard,
            8,
        )
        .unwrap();
    let outcomes = drain_sessions(&server, &[handle], 500, 8);
    assert_eq!(outcomes, [(SessionOutcome::Panicked, true)]);
    assert_one_eviction_one_panic(&outcomes);
    let stats = server.session_stats();
    assert_eq!((stats.evicted, stats.resumed), (1, 1));
    server.shutdown();
}

/// Compound schedule mixing decode-session faults with request-path faults
/// under concurrent submit traffic: request tickets resolve bit-identically
/// or with their scripted typed errors, session streams resolve per the
/// session fault script, and neither tier's faults leak into the other.
#[test]
fn compound_schedule_mixes_session_and_request_faults_under_traffic() {
    let engine = engine_with_layers(2);
    let mut rng = StdRng::seed_from_u64(73);
    let requests: Vec<Request> = (0..10)
        .map(|i| Request {
            id: i,
            layer: (i % 2) as usize,
            activations: DenseMatrix::random(&mut rng, 16, 1 + (i as usize * 5) % 20),
        })
        .collect();
    let expected: Vec<DenseMatrix> = requests
        .iter()
        .map(|r| engine.execute(r.layer, &r.activations).unwrap())
        .collect();

    let plan = Arc::new(
        FaultPlan::new()
            .fail_build_at(3)
            .panic_at(6)
            .evict_session_at(4)
            .panic_step_at(9),
    );
    let server = Server::start(
        engine,
        ServerConfig::new()
            .with_workers(2)
            .with_admission_window_us(100)
            .with_fault_plan(Arc::clone(&plan)),
    );

    let model = Arc::new(ToyDecode::new());
    let steps = 8usize;
    let handles: Vec<_> = (0..4)
        .map(|i| {
            server
                .open_session(
                    Arc::clone(&model) as Arc<dyn DecodeModel>,
                    session_prompt(700 + i),
                    if i % 2 == 0 {
                        SloClass::Standard
                    } else {
                        SloClass::Bulk
                    },
                    steps,
                )
                .unwrap()
        })
        .collect();

    // Request traffic rides alongside the decoding sessions.
    let mut tickets = Vec::new();
    for (i, request) in requests.into_iter().enumerate() {
        match server.submit(request) {
            Ok(ticket) => tickets.push((i, ticket)),
            Err(SubmitError::QueueFull { .. }) => {}
            Err(other) => panic!("unexpected rejection: {other}"),
        }
    }
    for (i, ticket) in tickets {
        match ticket.wait().result {
            Ok(got) => assert_eq!(
                bits(&got),
                bits(&expected[i]),
                "request {i} must stay bit-identical despite session churn"
            ),
            Err(ServingError::WorkerPanic { context }) => {
                assert!(context.contains("injected worker panic"), "{context}");
            }
            Err(ServingError::Kernel(e)) => {
                assert!(e.to_string().contains("injected plan-build failure"), "{e}");
            }
            Err(other) => panic!("request {i} failed with an unscripted error: {other}"),
        }
    }

    let outcomes = drain_sessions(&server, &handles, 700, steps);
    assert_one_eviction_one_panic(&outcomes);
    let stats = server.session_stats();
    assert_eq!(stats.evicted, 1);
    assert_eq!(stats.resumed, 1);
    // Accounting on the request side stays exact despite the session tier.
    server.drain();
    let server_stats = server.stats();
    assert_eq!(server_stats.completed, server_stats.submitted);
    server.shutdown();
}
