//! `decode_gnmt`: a closed loop over 32 concurrent GNMT decode sessions.
//!
//! Each session decodes a `max_steps` drawn from 16–64 and is replaced by a
//! new session with a fresh `decode_prompt` as soon as its last token
//! arrives. The session capacity is above 32, so nothing is ever evicted.
//! One thread consumes tokens round-robin over the sessions; a second one
//! opens the replacements.
//!
//! All of the work runs in the server's decode-session rounds: fused sweeps
//! of width ≤ 32, dominated by the 32000×1024 vocabulary projection, plus
//! per-stage glue. None of it goes through the request window or conv.

use crate::stats::{percentile, ratio, required_percentile, Metrics};
use crate::trace::Tracer;
use crate::{EngineSnapshot, Outcome, Phase, RunConfig};
use gpu_sim::GpuArch;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use shfl_core::matrix::DenseMatrix;
use shfl_core::slo::SloClass;
use shfl_kernels::plan::SpmmPlan;
use shfl_models::{DnnModel, EngineConfig, ModelEngine};
use shfl_serving::engine::ServingEngine;
use shfl_serving::server::ServerConfig;
use shfl_serving::{
    DecodeModel, DecodeToken, Server, ServingError, SessionHandle, SessionStats, SessionTicket,
};
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

/// Concurrent sessions.
const SESSIONS: usize = 32;
/// Live-session bound of the server: above `SESSIONS`, so nothing is evicted.
const CAPACITY: usize = 48;
/// Range of each session's `max_steps`.
const MIN_STEPS: usize = 16;
const MAX_STEPS: usize = 64;
/// Worker threads of the server.
const WORKERS: usize = 2;
/// Streams checked token by token against the decode oracle.
const SAMPLED: usize = 2;
/// A wait this long for any token means the session tier stalled.
const STALL: Duration = Duration::from_secs(10);

/// The seeded description of the `ordinal`-th session the workload opens.
struct Plan {
    prompt_key: u64,
    max_steps: usize,
}

fn plan(seed: u64, ordinal: u64) -> Plan {
    let mut rng = StdRng::seed_from_u64(seed ^ ordinal.wrapping_mul(0xA076_1D64_78BD_642F));
    Plan {
        prompt_key: rng.gen::<u64>(),
        max_steps: rng.gen_range(MIN_STEPS..=MAX_STEPS),
    }
}

/// One live session slot of the round-robin consumer.
struct Slot {
    ordinal: u64,
    /// Index of the phase that opened the session.
    phase: usize,
    max_steps: usize,
    prompt: Vec<f32>,
    handle: SessionHandle,
    ticket: SessionTicket,
    span: u64,
    opened_at: Instant,
    last_token: Option<Instant>,
    received: usize,
    /// Every token's values, for the sampled streams only.
    kept: Option<Vec<Vec<f32>>>,
}

/// A session the opener thread opened (`handle` is `None` when refused).
struct Opened {
    ordinal: u64,
    phase: usize,
    max_steps: usize,
    prompt: Vec<f32>,
    handle: Option<SessionHandle>,
    span: u64,
    start: Instant,
    end: Instant,
}

/// A sampled stream: session ordinal, phase, prompt, and every token.
type Kept = (u64, usize, Vec<f32>, Vec<Vec<f32>>);

/// Token records of the timed region.
#[derive(Default)]
struct Log {
    tokens: u64,
    ttft_ms: Vec<f64>,
    itl_ms: Vec<f64>,
}

/// What one poll of a session's stream found.
enum Verdict {
    /// Nothing queued yet.
    Idle,
    /// A token; the session streams on.
    Token,
    /// The session is over: its last token arrived (`true`), or it ended
    /// early, out of order or with an error (`false`).
    Done(bool),
}

/// Books one poll of `slot`'s stream that returned `next` at `at`.
fn receive(
    slot: &mut Slot,
    next: Result<Option<DecodeToken>, ServingError>,
    at: Instant,
    log: Option<&mut Log>,
) -> Verdict {
    match next {
        Ok(Some(token)) if token.step == slot.received => {
            if let Some(log) = log {
                log.tokens += 1;
                match slot.last_token {
                    Some(last) => log.itl_ms.push((at - last).as_secs_f64() * 1e3),
                    None => log.ttft_ms.push((at - slot.opened_at).as_secs_f64() * 1e3),
                }
            }
            slot.last_token = Some(at);
            slot.received += 1;
            if let Some(kept) = slot.kept.as_mut() {
                kept.push(token.values);
            }
            if slot.received == slot.max_steps {
                Verdict::Done(true)
            } else {
                Verdict::Token
            }
        }
        Ok(None) if !slot.ticket.finished() => Verdict::Idle,
        other => {
            eprintln!(
                "perfbench: session {} after {} of {} tokens: {other:?}",
                slot.ordinal, slot.received, slot.max_steps
            );
            Verdict::Done(false)
        }
    }
}

/// `decode_oracle`'s loop — one sequence alone, every stage at width 1 on
/// the fresh exact-width plan `execute_cold` builds — with each layer's plan
/// built once rather than once per call, so whole streams can be checked.
fn oracle_stream(
    engine: &ServingEngine,
    model: &dyn DecodeModel,
    prompt: &[f32],
    steps: usize,
) -> Result<Vec<Vec<f32>>, String> {
    let mut plans = HashMap::new();
    for stage in model.stages() {
        if let std::collections::hash_map::Entry::Vacant(slot) = plans.entry(stage.layer) {
            let weights = engine
                .layer_weights(stage.layer)
                .map_err(|e| format!("decode oracle: {e}"))?;
            slot.insert(SpmmPlan::shfl_bw(engine.arch(), &weights, 1));
        }
    }
    let mut state = model.init_state();
    let mut input = prompt.to_vec();
    let mut out = Vec::with_capacity(steps);
    for _ in 0..steps {
        let mut x = input;
        for (si, stage) in model.stages().iter().enumerate() {
            let col = model.pre(si, &x, &mut state);
            let y = plans[&stage.layer]
                .execute(&DenseMatrix::from_fn(col.len(), 1, |r, _| col[r]))
                .map_err(|e| format!("decode oracle: {e}"))?
                .output;
            let y: Vec<f32> = (0..y.rows()).map(|r| y.get(r, 0)).collect();
            x = model.post(si, &y, &mut state);
        }
        input = model.feedback(&x);
        out.push(x);
    }
    Ok(out)
}

struct Setup {
    engine: ModelEngine,
    server: Server,
    model: Arc<dyn DecodeModel>,
    warm_calls: u64,
    warm_failed: u64,
}

/// Engine build, server start, and the decode layers' plans for every
/// bucket a sweep of at most `SESSIONS` columns lands on.
fn setup() -> Result<Setup, String> {
    let engine = ModelEngine::build(
        DnnModel::Gnmt,
        &GpuArch::v100(),
        &EngineConfig::paper_default(),
    )
    .map_err(|e| format!("building the GNMT engine: {e}"))?;
    let model = engine.decode_model().ok_or("GNMT has no decode model")?;
    let server = engine.server(
        ServerConfig::new()
            .with_workers(WORKERS)
            .with_session_capacity(CAPACITY),
    );
    let mut layers: Vec<usize> = model.stages().iter().map(|s| s.layer).collect();
    layers.sort_unstable();
    layers.dedup();
    let policy = EngineConfig::paper_default().bucket_policy();
    let (mut warm_calls, mut warm_failed) = (0, 0);
    for layer in layers {
        let mut bucket = policy.min_bucket();
        while bucket <= SESSIONS {
            warm_calls += 1;
            warm_failed += u64::from(engine.serving().warm(layer, bucket).is_err());
            bucket *= 2;
        }
    }
    Ok(Setup {
        engine,
        server,
        model,
        warm_calls,
        warm_failed,
    })
}

pub fn run(cfg: &RunConfig, tracer: &Tracer) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(cfg.setups);
    let mut built: Option<Setup> = None;
    let mut warm = Phase::new("warmup");
    for _ in 0..cfg.setups {
        if let Some(old) = built.take() {
            old.server.shutdown();
        }
        let start = Instant::now();
        let s = setup()?;
        setup_s.push(start.elapsed().as_secs_f64());
        warm.sent += s.warm_calls;
        warm.failed += s.warm_failed;
        warm.succeeded += s.warm_calls - s.warm_failed;
        built = Some(s);
    }
    let Setup {
        engine,
        server,
        model,
        ..
    } = built.ok_or("no set-up ran")?;

    let mut sampled: Vec<u64> = (0..SESSIONS as u64).collect();
    sampled.shuffle(&mut StdRng::seed_from_u64(cfg.seed));
    sampled.truncate(SAMPLED);

    // Phase 0 holds the sessions opened before the clock starts, phase 1
    // the replacements opened while it runs.
    let mut phases = [Phase::new("ramp"), Phase::new("measure")];
    let mut kept: Vec<Kept> = Vec::new();
    let mut log = Log::default();
    let (mut wait_ms, mut open_us) = (Vec::new(), Vec::new());
    let limit = Duration::from_secs_f64(cfg.seconds);
    // Opening a session can wait behind a whole decode round, so sessions
    // are opened on a thread of their own: the consumer keeps draining
    // tokens while a replacement is being admitted.
    let (want_tx, want_rx) = mpsc::channel::<(u64, usize)>();
    let (opened_tx, opened_rx) = mpsc::channel::<Opened>();
    let timed = std::thread::scope(|scope| -> Result<_, String> {
        scope.spawn(|| {
            let opened_tx = opened_tx; // moved in, so the consumer sees it close
            for (ordinal, phase) in want_rx {
                let p = plan(cfg.seed, ordinal);
                let prompt = engine.decode_prompt(p.prompt_key);
                let span = tracer.reserve();
                let start = Instant::now();
                let handle = server.open_session(
                    Arc::clone(&model),
                    prompt.clone(),
                    SloClass::Standard,
                    p.max_steps,
                );
                let end = Instant::now();
                tracer.record(0, "open_session", span, ordinal, start, end);
                let opened = Opened {
                    ordinal,
                    phase,
                    max_steps: p.max_steps,
                    prompt,
                    handle: handle.ok(),
                    span,
                    start,
                    end,
                };
                if opened_tx.send(opened).is_err() {
                    break;
                }
            }
        });
        let mut next_ordinal = 0u64;
        let mut want = |phase: usize| {
            want_tx
                .send((next_ordinal, phase))
                .expect("the opener outlives the consumer");
            next_ordinal += 1;
        };
        for _ in 0..SESSIONS {
            want(0);
        }
        let mut close = |slot: Slot, ok: bool, end: Instant, phases: &mut [Phase; 2]| {
            tracer.record(slot.span, "session", 0, slot.ordinal, slot.opened_at, end);
            let phase = &mut phases[slot.phase];
            if ok {
                phase.succeeded += 1;
            } else {
                phase.failed += 1;
            }
            if let Some(tokens) = slot.kept {
                kept.push((slot.ordinal, slot.phase, slot.prompt, tokens));
            }
        };
        let mut slots: Vec<Slot> = Vec::with_capacity(SESSIONS);
        let mut admitted_initial = 0;
        let mut start: Option<(Instant, EngineSnapshot, ScopedJoinHandle<SessionStats>)> = None;
        loop {
            // Admit what the opener has opened since the last pass; with no
            // live session, wait for it.
            let mut incoming: Vec<Opened> = opened_rx.try_iter().collect();
            if slots.is_empty() && incoming.is_empty() {
                incoming.push(
                    opened_rx
                        .recv_timeout(STALL)
                        .map_err(|_| "no decode session could be opened")?,
                );
            }
            for o in incoming {
                let phase = &mut phases[o.phase];
                phase.sent += 1;
                admitted_initial += usize::from(o.ordinal < SESSIONS as u64);
                if o.phase == 1 {
                    open_us.push((o.end - o.start).as_secs_f64() * 1e6);
                }
                match o.handle {
                    Some(handle) => slots.push(Slot {
                        ordinal: o.ordinal,
                        phase: o.phase,
                        max_steps: o.max_steps,
                        prompt: o.prompt,
                        ticket: handle.ticket(),
                        handle,
                        span: o.span,
                        opened_at: o.start,
                        last_token: None,
                        received: 0,
                        kept: sampled.contains(&o.ordinal).then(Vec::new),
                    }),
                    None => {
                        phase.rejected += 1;
                        want(usize::from(start.is_some()));
                    }
                }
            }
            // The ramp ends once every session it opened has streamed a
            // token (or already ended); replacements keep joining meanwhile.
            match &start {
                Some((t0, ..)) if t0.elapsed() >= limit => break,
                None if admitted_initial == SESSIONS
                    && slots
                        .iter()
                        .all(|s| s.received > 0 || s.ordinal >= SESSIONS as u64) =>
                {
                    // `session_stats` waits for the manager lock, which a
                    // decode round holds throughout: take it off this thread.
                    start = Some((
                        Instant::now(),
                        EngineSnapshot::take(engine.serving()),
                        scope.spawn(|| server.session_stats()),
                    ));
                }
                _ => {}
            }
            let recording = start.is_some();
            // Drain every token already streamed; a session whose last
            // token arrived is replaced at once.
            let mut progressed = false;
            let mut i = 0;
            while i < slots.len() {
                let poll = Instant::now();
                let next = slots[i].ticket.try_next();
                let at = Instant::now();
                let (span, ordinal) = (slots[i].span, slots[i].ordinal);
                match receive(&mut slots[i], next, at, recording.then_some(&mut log)) {
                    Verdict::Idle => i += 1,
                    Verdict::Token => {
                        progressed = true;
                        tracer.record(0, "next_token", span, ordinal, poll, at);
                    }
                    Verdict::Done(ok) => {
                        progressed = true;
                        tracer.record(0, "next_token", span, ordinal, poll, at);
                        close(slots.swap_remove(i), ok, at, &mut phases);
                        want(usize::from(recording));
                    }
                }
            }
            if progressed || slots.is_empty() {
                continue;
            }
            // Nothing queued: every live session streams one token per
            // round, so waiting on any one of them waits for the round.
            let slot = &mut slots[0];
            let wait_start = Instant::now();
            let next = slot.ticket.wait_timeout(STALL);
            let at = Instant::now();
            tracer.record(0, "next_token", slot.span, slot.ordinal, wait_start, at);
            if recording {
                wait_ms.push((at - wait_start).as_secs_f64() * 1e3);
            }
            if let Verdict::Done(ok) = receive(slot, next, at, recording.then_some(&mut log)) {
                close(slots.swap_remove(0), ok, at, &mut phases);
                want(usize::from(recording));
            }
        }
        let (t0, before, sessions_before) = start.ok_or("the ramp never finished")?;
        let elapsed = t0.elapsed().as_secs_f64();
        let sessions_before: SessionStats = sessions_before
            .join()
            .map_err(|_| "the session_stats thread panicked")?;
        drop(want_tx);
        // The sessions still streaming were cut by the clock, not by a
        // failure, and so were those the opener admits after it stopped.
        let now = Instant::now();
        for slot in slots.drain(..) {
            slot.handle.cancel();
            close(slot, true, now, &mut phases);
        }
        for o in opened_rx.iter() {
            let phase = &mut phases[o.phase];
            phase.sent += 1;
            match o.handle {
                Some(handle) => {
                    handle.cancel();
                    phase.succeeded += 1;
                }
                None => phase.rejected += 1,
            }
        }
        Ok((elapsed, before, sessions_before))
    });
    let (elapsed, before, sessions_before) = timed?;

    let span_start = Instant::now();
    let sessions = server.session_stats();
    tracer.record(0, "session_stats", 0, 0, span_start, Instant::now());
    let mut layers = Metrics::default();
    let span_start = Instant::now();
    crate::push_engine_layers(&mut layers, engine.serving(), &before);
    tracer.record(0, "cache_stats", 0, 0, span_start, Instant::now());
    server.shutdown();

    // Correctness, outside the timed region: the sampled streams against
    // the single-sequence cold oracle, bit for bit.
    for (ordinal, phase, prompt, tokens) in &kept {
        let want = oracle_stream(engine.serving(), model.as_ref(), prompt, tokens.len())?;
        let same = want.len() == tokens.len()
            && want.iter().zip(tokens).all(|(w, g)| {
                w.len() == g.len() && w.iter().zip(g).all(|(a, b)| a.to_bits() == b.to_bits())
            });
        if !same {
            eprintln!("perfbench: session {ordinal} differs from the decode oracle");
            let phase = &mut phases[*phase];
            phase.succeeded = phase.succeeded.saturating_sub(1);
            phase.wrong += 1;
        }
    }
    let [ramp, measure] = phases;
    let Log {
        tokens,
        ttft_ms,
        itl_ms,
    } = log;

    let sweeps = (sessions.sweeps - sessions_before.sweeps) as f64;
    let mut named = Metrics::default();
    named.push("decode_tokens_s", "tokens/s", tokens as f64 / elapsed);
    named.push_percentile("decode_ttft_ms_p50", "ms", &ttft_ms, 0.5);
    named.push(
        "decode_itl_ms_p50",
        "ms",
        required_percentile("decode inter-token latency", &itl_ms, 0.5)?,
    );
    named.push_percentile("decode_itl_ms_p99", "ms", &itl_ms, 0.99);
    named.push("decode_tokens", "count", tokens as f64);

    layers.push(
        "serving.session.interleave_width_mean",
        "count",
        ratio(
            (sessions.sweep_columns - sessions_before.sweep_columns) as f64,
            sweeps,
        ),
    );
    layers.push(
        "serving.session.sweeps_per_token",
        "count",
        ratio(sweeps, (sessions.tokens - sessions_before.tokens) as f64),
    );
    layers.push(
        "serving.session.next_token_wait_ms_p50",
        "ms",
        percentile(&wait_ms, 0.5).unwrap_or(0.0),
    );
    layers.push(
        "serving.session.open_us_p50",
        "us",
        percentile(&open_us, 0.5).unwrap_or(0.0),
    );
    layers.push("loadgen.sent", "count", measure.sent as f64);

    Ok(Outcome {
        setup_s,
        phases: vec![warm, ramp, measure],
        named,
        layers,
        throughput: "decode_tokens_s",
        latency_p50: "decode_itl_ms_p50",
    })
}
