//! Decode-session property tests: random interleavings of
//! open/consume/evict/resume/cancel across many concurrent sessions stay
//! bit-identical, per sequence, to the single-session cold-oracle decode
//! loop — the core correctness claim of the session subsystem. Decode
//! rounds share the server's worker pool with request traffic, and a
//! stopping server fails every live session typed.

use gpu_sim::GpuArch;
use proptest::prelude::*;
use shfl_core::bucket::BucketPolicy;
use shfl_core::formats::ShflBwMatrix;
use shfl_core::matrix::DenseMatrix;
use shfl_core::slo::SloClass;
use shfl_serving::server::{Request, Server, ServerConfig};
use shfl_serving::{
    decode_oracle, DecodeModel, DecodeStage, DecodeState, DecodeToken, ServingEngine, ServingError,
    SessionHandle,
};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

const N: usize = 16;

fn engine() -> ServingEngine {
    let mut engine = ServingEngine::new(GpuArch::a100(), BucketPolicy::new(8, 32).unwrap(), 16);
    for l in 0..2 {
        let dense = DenseMatrix::from_fn(N, N, |r, c| {
            if (c + r / 4 + l) % 3 == 0 {
                0.25 + 0.5 * ((r * N + c) % 7) as f32 / 7.0
            } else {
                0.0
            }
        });
        let weights = ShflBwMatrix::from_dense(&dense, 4).unwrap();
        engine.register_layer(&format!("toy.l{l}"), weights);
    }
    engine
}

/// Recurrent two-stage model: stage 0 mixes the hidden state into the GEMM
/// input, stage 1 writes its tanh-bounded output back as the hidden state.
/// Any state mishandling across evict/resume/interleave breaks bit-identity
/// on the very next step.
struct ToyModel {
    stages: Vec<DecodeStage>,
}

impl ToyModel {
    fn new() -> ToyModel {
        ToyModel {
            stages: vec![
                DecodeStage {
                    name: "toy.l0".into(),
                    layer: 0,
                },
                DecodeStage {
                    name: "toy.l1".into(),
                    layer: 1,
                },
            ],
        }
    }
}

impl DecodeModel for ToyModel {
    fn name(&self) -> &str {
        "toy"
    }

    fn stages(&self) -> &[DecodeStage] {
        &self.stages
    }

    fn init_state(&self) -> DecodeState {
        DecodeState {
            slots: vec![vec![0.0; N]],
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
        N
    }
}

/// Deterministic per-session prompt.
fn prompt(seed: u64) -> Vec<f32> {
    (0..N)
        .map(|j| {
            let v = seed.wrapping_mul(31).wrapping_add(j as u64) % 17;
            v as f32 / 17.0 - 0.5
        })
        .collect()
}

/// What a logical session is currently doing in the churn loop.
enum Phase {
    Live(SessionHandle),
    Evicted,
    Done,
}

struct Rec {
    id: u64,
    seed: u64,
    steps: usize,
    class: SloClass,
    tokens: Vec<DecodeToken>,
    phase: Phase,
    cancelled: bool,
}

const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// Drains a live session to its terminal state, collecting every token:
/// `Ok(None)` marks it done, `Evicted` parks it, anything else is a bug.
fn drain_to_terminal(rec: &mut Rec) {
    let Phase::Live(handle) = &rec.phase else {
        return;
    };
    let ticket = handle.ticket();
    loop {
        match ticket.wait_timeout(DRAIN_TIMEOUT) {
            Ok(Some(tok)) => rec.tokens.push(tok),
            Ok(None) => {
                rec.phase = Phase::Done;
                return;
            }
            Err(ServingError::Evicted { session }) => {
                assert_eq!(session, rec.id);
                rec.phase = Phase::Evicted;
                return;
            }
            Err(e) => panic!("session {} surfaced unexpected error: {e}", rec.id),
        }
    }
}

fn open_rec(
    server: &Server,
    model: &Arc<ToyModel>,
    seed: u64,
    steps: usize,
    class: SloClass,
) -> Rec {
    let handle = server
        .open_session(
            Arc::clone(model) as Arc<dyn DecodeModel>,
            prompt(seed),
            class,
            steps,
        )
        .expect("open_session under capacity should admit");
    Rec {
        id: handle.id(),
        seed,
        steps,
        class,
        tokens: Vec::new(),
        phase: Phase::Live(handle),
        cancelled: false,
    }
}

/// Verifies a finished record against the cold oracle on a fresh engine.
fn check_against_oracle(rec: &Rec, cold: &ServingEngine, model: &ToyModel) {
    let oracle =
        decode_oracle(cold, model, &prompt(rec.seed), rec.steps).expect("oracle decode fails");
    if rec.cancelled {
        assert!(
            rec.tokens.len() <= rec.steps,
            "cancelled session {} streamed more tokens than steps",
            rec.id
        );
    } else {
        assert_eq!(
            rec.tokens.len(),
            rec.steps,
            "session {} lost accepted tokens",
            rec.id
        );
    }
    for (i, tok) in rec.tokens.iter().enumerate() {
        assert_eq!(tok.step, i, "session {} token out of order", rec.id);
        assert_eq!(tok.values.len(), oracle[i].len());
        for (a, b) in tok.values.iter().zip(&oracle[i]) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "session {} step {i} diverged from the cold oracle",
                rec.id
            );
        }
    }
}

/// Eight sessions opened together, fully drained: every sequence is
/// bit-identical to its cold-oracle decode, and the sweeps genuinely
/// interleaved (mean width above one).
#[test]
fn eight_concurrent_sessions_interleave_and_match_the_oracle() {
    let server = Server::start(
        engine(),
        ServerConfig::new()
            .with_workers(2)
            .with_session_capacity(32),
    );
    let model = Arc::new(ToyModel::new());
    let mut recs: Vec<Rec> = (0..8)
        .map(|i| {
            let class = match i % 3 {
                0 => SloClass::Standard,
                1 => SloClass::Bulk,
                _ => SloClass::Deadline {
                    deadline_us: 2_000_000,
                },
            };
            open_rec(&server, &model, 100 + i as u64, 48, class)
        })
        .collect();
    for rec in &mut recs {
        drain_to_terminal(rec);
        assert!(matches!(rec.phase, Phase::Done));
    }
    let cold = engine();
    let oracle_model = ToyModel::new();
    for rec in &recs {
        check_against_oracle(rec, &cold, &oracle_model);
    }
    let stats = server.session_stats();
    assert_eq!(stats.completed, 8);
    assert_eq!(stats.tokens, 8 * 48);
    assert!(
        stats.mean_interleave_width() > 1.0,
        "8 concurrent sessions should coalesce into multi-column sweeps, got width {}",
        stats.mean_interleave_width()
    );
    server.shutdown();
}

/// One worker serves decode rounds and request groups alike: with three
/// sessions decoding without end, every request still resolves
/// bit-identically, and tokens keep streaming between the requests, each
/// stream bit-identical to its cold-oracle decode.
#[test]
fn one_worker_decodes_sessions_while_serving_requests() {
    let server = Server::start(engine(), ServerConfig::new().with_workers(1));
    let model = Arc::new(ToyModel::new());
    // Far more steps than the test reads: the sessions are live throughout.
    let steps = 1 << 20;
    let handles: Vec<SessionHandle> = (0..3)
        .map(|i| {
            server
                .open_session(
                    Arc::clone(&model) as Arc<dyn DecodeModel>,
                    prompt(300 + i),
                    SloClass::Standard,
                    steps,
                )
                .unwrap()
        })
        .collect();
    let direct = engine();
    let mut tokens: Vec<Vec<DecodeToken>> = vec![Vec::new(); handles.len()];
    let requests = 24;
    for i in 0..requests {
        let acts = DenseMatrix::from_fn(N, 1 + i % 8, |r, c| ((r + 3 * c + i) % 11) as f32 - 5.0);
        let layer = i % 2;
        let want = direct.execute(layer, &acts).unwrap();
        let ticket = server
            .submit(Request {
                id: i as u64,
                layer,
                activations: acts,
            })
            .unwrap();
        let got = ticket
            .wait_timeout(DRAIN_TIMEOUT)
            .expect("a request resolves while sessions decode")
            .result
            .unwrap();
        let bits = |m: &DenseMatrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "request {i}");
        for (handle, toks) in handles.iter().zip(&mut tokens) {
            let tok = handle
                .ticket()
                .wait_timeout(DRAIN_TIMEOUT)
                .expect("tokens stream between requests")
                .expect("the session is still live");
            toks.push(tok);
        }
    }
    // `completed` advances after a ticket resolves; drain waits for it.
    server.drain();
    let stats = server.stats();
    assert_eq!((stats.submitted, stats.completed), (24, 24));
    let oracle_model = ToyModel::new();
    for (i, toks) in tokens.iter().enumerate() {
        let oracle = decode_oracle(&direct, &oracle_model, &prompt(300 + i as u64), requests)
            .expect("oracle decode");
        for (step, (tok, want)) in toks.iter().zip(&oracle).enumerate() {
            assert_eq!(tok.step, step);
            let got: Vec<u32> = tok.values.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "session {i} step {step}");
        }
    }
    server.shutdown();
}

/// A worker holding an admission window still runs due decode rounds. With
/// one worker and a window far longer than the test, a queued request holds
/// the window open while a session decodes to its end, each token
/// bit-identical to its cold-oracle decode; draining then closes the window
/// and serves the request bit-identically to direct execution.
#[test]
fn a_held_admission_window_does_not_hold_back_decode_rounds() {
    let server = Server::start(
        engine(),
        ServerConfig::new()
            .with_workers(1)
            .with_admission_window_us(60_000_000),
    );
    let direct = engine();
    let acts = DenseMatrix::from_fn(N, 3, |r, c| ((r + 5 * c) % 9) as f32 - 4.0);
    let want = direct.execute(0, &acts).unwrap();
    let request = server
        .submit(Request {
            id: 0,
            layer: 0,
            activations: acts,
        })
        .unwrap();
    let steps = 6;
    let handle = server
        .open_session(
            Arc::new(ToyModel::new()) as Arc<dyn DecodeModel>,
            prompt(500),
            SloClass::Standard,
            steps,
        )
        .unwrap();
    let oracle = decode_oracle(&direct, &ToyModel::new(), &prompt(500), steps).expect("oracle");
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let ticket = handle.ticket();
    for (step, want) in oracle.iter().enumerate() {
        let tok = ticket
            .wait_timeout(DRAIN_TIMEOUT)
            .expect("rounds run while the window is held")
            .expect("the session is still live");
        assert_eq!(tok.step, step);
        assert_eq!(bits(&tok.values), bits(want), "step {step}");
        assert!(request.try_take().is_none(), "the window is still held");
    }
    assert_eq!(ticket.wait_timeout(DRAIN_TIMEOUT), Ok(None));
    assert!(request.try_take().is_none(), "the window is still held");
    server.drain();
    let got = request.try_take().expect("drained").result.unwrap();
    assert_eq!(bits(got.as_slice()), bits(want.as_slice()));
    server.shutdown();
}

/// The toy model behind a one-shot gate: its first `post` signals
/// `entered`, then waits for `release`, holding its round in flight.
struct GatedModel {
    inner: ToyModel,
    entered: Mutex<Option<mpsc::Sender<()>>>,
    release: Mutex<Option<mpsc::Receiver<()>>>,
}

impl DecodeModel for GatedModel {
    fn name(&self) -> &str {
        "gated"
    }

    fn stages(&self) -> &[DecodeStage] {
        self.inner.stages()
    }

    fn init_state(&self) -> DecodeState {
        self.inner.init_state()
    }

    fn pre(&self, stage: usize, input: &[f32], state: &mut DecodeState) -> Vec<f32> {
        self.inner.pre(stage, input, state)
    }

    fn post(&self, stage: usize, gemm_out: &[f32], state: &mut DecodeState) -> Vec<f32> {
        if let Some(entered) = self.entered.lock().unwrap().take() {
            let release = self.release.lock().unwrap().take().unwrap();
            entered.send(()).unwrap();
            // Bounded, so a failing test cannot leave the worker blocked.
            let _ = release.recv_timeout(2 * DRAIN_TIMEOUT);
        }
        self.inner.post(stage, gemm_out, state)
    }

    fn prompt_len(&self) -> usize {
        N
    }
}

/// Shutdown and drop both fail every live session with `ShutDown` at once:
/// the member of a round still in flight, and a session waiting for the
/// next round. The in-flight round streams nothing when it returns.
#[test]
fn shutdown_and_drop_fail_live_sessions_typed_including_a_round_in_flight() {
    for graceful in [true, false] {
        let server = Server::start(engine(), ServerConfig::new().with_workers(2));
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let gated: Arc<dyn DecodeModel> = Arc::new(GatedModel {
            inner: ToyModel::new(),
            entered: Mutex::new(Some(entered_tx)),
            release: Mutex::new(Some(release_rx)),
        });
        let in_round = server
            .open_session(gated, prompt(1), SloClass::Standard, 8)
            .unwrap();
        entered_rx
            .recv_timeout(DRAIN_TIMEOUT)
            .expect("the first round reaches post");
        let waiting = server
            .open_session(
                Arc::new(ToyModel::new()) as Arc<dyn DecodeModel>,
                prompt(2),
                SloClass::Standard,
                8,
            )
            .unwrap();
        let stopper = std::thread::spawn(move || {
            if graceful {
                server.shutdown();
            } else {
                drop(server);
            }
        });
        // Both fail while the gated round is still blocked in its hook.
        for handle in [&in_round, &waiting] {
            assert_eq!(
                handle.ticket().wait_timeout(DRAIN_TIMEOUT),
                Err(ServingError::ShutDown),
                "graceful: {graceful}"
            );
        }
        release_tx.send(()).unwrap();
        stopper.join().unwrap();
        for handle in [&in_round, &waiting] {
            let ticket = handle.ticket();
            assert_eq!(ticket.try_next(), Ok(None));
            assert!(ticket.finished());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random interleavings of open/consume/evict/resume/cancel across at
    /// least eight concurrent sessions: every non-cancelled sequence ends
    /// bit-identical to the cold oracle (including across any number of
    /// evict/resume cycles), every cancelled sequence is an exact oracle
    /// prefix, and no accepted token is ever lost.
    #[test]
    fn random_session_churn_stays_bit_identical_to_the_cold_oracle(
        (ops, base_seed) in (proptest::collection::vec((0u8..5, 0u64..65_536), 24..48), 0u64..1_000)
    ) {
        let server = Server::start(
            engine(),
            ServerConfig::new().with_workers(2).with_session_capacity(64),
        );
        let model = Arc::new(ToyModel::new());
        let mut recs: Vec<Rec> = (0..8)
            .map(|i| {
                let class = match i % 3 {
                    0 => SloClass::Standard,
                    1 => SloClass::Bulk,
                    _ => SloClass::Deadline { deadline_us: 2_000_000 },
                };
                open_rec(&server, &model, base_seed + i as u64, 4 + (i % 5), class)
            })
            .collect();
        let mut next_seed = base_seed + 8;

        for (op, pick) in ops {
            match op {
                // Open another session (bounded so capacity never binds).
                0 => {
                    if recs.len() < 16 {
                        let class = if pick % 2 == 0 { SloClass::Standard } else { SloClass::Bulk };
                        recs.push(open_rec(&server, &model, next_seed, 3 + (pick as usize % 6), class));
                        next_seed += 1;
                    }
                }
                // Evict a live session, then drain its stream to the typed
                // terminal (it may legitimately finish first).
                1 => {
                    let live: Vec<usize> = recs.iter().enumerate()
                        .filter(|(_, r)| matches!(r.phase, Phase::Live(_)))
                        .map(|(i, _)| i)
                        .collect();
                    if !live.is_empty() {
                        let idx = live[pick as usize % live.len()];
                        server.evict_session(recs[idx].id);
                        drain_to_terminal(&mut recs[idx]);
                    }
                }
                // Cancel a live session; queued tokens stay consumable.
                2 => {
                    let live: Vec<usize> = recs.iter().enumerate()
                        .filter(|(_, r)| matches!(r.phase, Phase::Live(_)))
                        .map(|(i, _)| i)
                        .collect();
                    if !live.is_empty() {
                        let idx = live[pick as usize % live.len()];
                        if let Phase::Live(handle) = &recs[idx].phase {
                            handle.cancel();
                        }
                        recs[idx].cancelled = true;
                        drain_to_terminal(&mut recs[idx]);
                        // A cancelled stream finishes without a typed error.
                        prop_assert!(matches!(recs[idx].phase, Phase::Done));
                    }
                }
                // Resume an evicted session under its old id.
                3 => {
                    let parked: Vec<usize> = recs.iter().enumerate()
                        .filter(|(_, r)| matches!(r.phase, Phase::Evicted))
                        .map(|(i, _)| i)
                        .collect();
                    if !parked.is_empty() {
                        let idx = parked[pick as usize % parked.len()];
                        let handle = server.resume_session(recs[idx].id)
                            .expect("resume under capacity should admit");
                        prop_assert!(handle.id() == recs[idx].id);
                        prop_assert!(handle.class().kind() == recs[idx].class.kind(),
                            "resume must preserve the session's SLO class");
                        recs[idx].phase = Phase::Live(handle);
                    }
                }
                // Consume a few queued tokens from a random live session.
                _ => {
                    let live: Vec<usize> = recs.iter().enumerate()
                        .filter(|(_, r)| matches!(r.phase, Phase::Live(_)))
                        .map(|(i, _)| i)
                        .collect();
                    if !live.is_empty() {
                        let idx = live[pick as usize % live.len()];
                        let rec = &mut recs[idx];
                        if let Phase::Live(handle) = &rec.phase {
                            let ticket = handle.ticket();
                            for _ in 0..3 {
                                match ticket.try_next() {
                                    Ok(Some(tok)) => rec.tokens.push(tok),
                                    Ok(None) => break,
                                    Err(ServingError::Evicted { .. }) => {
                                        rec.phase = Phase::Evicted;
                                        break;
                                    }
                                    Err(e) => panic!("unexpected session error: {e}"),
                                }
                            }
                        }
                    }
                }
            }
        }

        // Settle: resume everything parked, drain everything live.
        loop {
            let mut progressed = false;
            for rec in recs.iter_mut() {
                if matches!(rec.phase, Phase::Evicted) {
                    let handle = server
                        .resume_session(rec.id)
                        .expect("resume under capacity should admit");
                    rec.phase = Phase::Live(handle);
                    progressed = true;
                }
                if matches!(rec.phase, Phase::Live(_)) {
                    drain_to_terminal(rec);
                    progressed = true;
                }
            }
            if !progressed || recs.iter().all(|r| matches!(r.phase, Phase::Done)) {
                break;
            }
        }

        let cold = engine();
        let oracle_model = ToyModel::new();
        for rec in &recs {
            prop_assert!(matches!(rec.phase, Phase::Done));
            check_against_oracle(rec, &cold, &oracle_model);
        }
        let stats = server.session_stats();
        prop_assert!(stats.evicted == stats.resumed,
            "every eviction must be resumable: evicted={} resumed={}", stats.evicted, stats.resumed);
        prop_assert!(stats.mean_interleave_width() >= 1.0);
        server.shutdown();
    }
}
