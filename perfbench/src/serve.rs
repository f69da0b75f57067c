//! `serve_mixed`: an open loop of Poisson arrivals at one fixed rate against
//! a `Server` over the Transformer's GEMM layers, with live weight updates
//! beside the reads.
//!
//! Each request addresses a uniformly chosen GEMM layer. 70% carry 1–32
//! activation columns and 30% carry 33–256; neither range lands on bucket
//! widths only, so both bucket padding and fused sweeps happen. A quarter
//! of the requests are Deadline class, a quarter Standard and half Bulk.
//! One thread submits on schedule; one thread collects completions and,
//! every `UPDATE_EVERY`, publishes a same-pattern update: a ×1.25 republish
//! of one layer, then its rollback, then the next layer.
//!
//! All of the work passes through the server (window, coalescing, policy),
//! the serving engine (bucket split and pad, fused sweeps) and the plan
//! cache. The workload does no conv work and opens no sessions.
//!
//! Latency is timed from each request's due time: the measured lateness of
//! its submission plus the server's own submission-to-delivery time
//! (`Completion::total_ms`). Tickets are collected in submission order, but
//! the order of collection does not enter the latency.

use crate::stats::{fingerprint, percentile, ratio, required_percentile, Metrics};
use crate::trace::Tracer;
use crate::{EngineSnapshot, Outcome, Phase, RunConfig};
use gpu_sim::GpuArch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shfl_core::formats::{ShflBwMatrix, VectorWiseMatrix};
use shfl_core::matrix::DenseMatrix;
use shfl_core::slo::SloClass;
use shfl_kernels::plan::SpmmPlan;
use shfl_models::{model_workload, DnnModel, EngineConfig, LayerKind, ModelEngine};
use shfl_serving::server::{ServerConfig, SubmitError};
use shfl_serving::{Request, Server, ServingError, SloAware};
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered load, requests per second. Calibrated once on a 2-vCPU x86-64
/// VM, where the median latency of this mix starts to climb near 200 req/s
/// and the server saturates near 300, and frozen well below the knee:
/// changing it changes the workload.
const RATE_PER_S: f64 = 100.0;
/// Admission window of the server, µs.
const WINDOW_US: u64 = 500;
/// Worker threads of the server.
const WORKERS: usize = 2;
/// Distinct request inputs per layer, of which `NARROW` carry 1–32 columns
/// and the rest 33–256. Requests draw uniformly from the inputs, so the
/// oracle runs once per input and weight version, not once per request.
const PER_LAYER: usize = 10;
const NARROW: usize = 7;
/// Interval between live update events (republish or rollback).
const UPDATE_EVERY: Duration = Duration::from_millis(1000);
/// Deadline budgets a Deadline-class request draws from, µs.
const DEADLINE_BUDGETS_US: [u64; 3] = [25_000, 50_000, 100_000];
/// Latency limits of the classes without a budget of their own, ms.
const STANDARD_LIMIT_MS: f64 = 100.0;
const BULK_LIMIT_MS: f64 = 250.0;
/// A run whose generator submitted this late (p99) did not offer the
/// intended load and is refused.
const LAG_BOUND_MS: f64 = 20.0;

/// One distinct request input.
struct Input {
    layer: usize,
    acts: DenseMatrix,
}

/// One scheduled arrival.
struct Arrival {
    due: Duration,
    input: usize,
    class: SloClass,
}

/// What the completion thread learned about one sent request.
struct Sent {
    id: u64,
    input: usize,
    class: SloClass,
    lateness_ms: f64,
    submit_us: f64,
    outcome: SentOutcome,
}

enum SentOutcome {
    Ok(u64),
    Rejected,
    Shed,
    Failed(String),
}

fn synthesize(seed: u64, seconds: f64) -> (Vec<Input>, Vec<Arrival>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ks: Vec<(usize, usize)> = model_workload(DnnModel::Transformer, 1, 1)
        .iter()
        .enumerate()
        .filter_map(|(i, l)| match l.kind {
            LayerKind::Gemm { k, .. } => Some((i, k)),
            LayerKind::Conv2d { .. } => None,
        })
        .collect();
    // Every layer gets the same number of inputs, 7 narrow and 3 wide, and
    // each width is drawn from its own stratum of its range, so the mix of
    // work is the same for every seed while the widths themselves vary.
    let mut inputs = Vec::with_capacity(ks.len() * PER_LAYER);
    for &(layer, k) in &ks {
        for j in 0..PER_LAYER {
            let (lo, hi, strata, s) = if j < NARROW {
                (1, 32, NARROW, j)
            } else {
                (33, 256, PER_LAYER - NARROW, j - NARROW)
            };
            let span = hi - lo + 1;
            let n = lo + rng.gen_range(s * span / strata..(s + 1) * span / strata);
            inputs.push(Input {
                layer,
                acts: DenseMatrix::random(&mut rng, k, n),
            });
        }
    }
    // A Poisson process conditioned on its count: the arrival times of
    // RATE_PER_S × seconds requests are sorted uniform draws over the run,
    // so every seed offers exactly the same load.
    let count = (RATE_PER_S * seconds).round() as usize;
    let mut dues: Vec<f64> = (0..count).map(|_| rng.gen::<f64>() * seconds).collect();
    dues.sort_by(f64::total_cmp);
    let arrivals = dues
        .into_iter()
        .map(|t| {
            let class = match rng.gen_range(0..4u32) {
                0 => SloClass::Deadline {
                    deadline_us: DEADLINE_BUDGETS_US[rng.gen_range(0..DEADLINE_BUDGETS_US.len())],
                },
                1 => SloClass::Standard,
                _ => SloClass::Bulk,
            };
            Arrival {
                due: Duration::from_secs_f64(t),
                input: rng.gen_range(0..inputs.len()),
                class,
            }
        })
        .collect();
    (inputs, arrivals)
}

/// The latency limit a request must finish within to count as goodput.
fn limit_ms(class: SloClass) -> f64 {
    match class {
        SloClass::Deadline { deadline_us } => deadline_us as f64 / 1e3,
        SloClass::Standard => STANDARD_LIMIT_MS,
        SloClass::Bulk => BULK_LIMIT_MS,
    }
}

/// The same weights with every stored value scaled by 1.25: the same
/// sparsity pattern, so the update takes the delta re-pack path.
fn scaled(weights: &ShflBwMatrix) -> Result<ShflBwMatrix, String> {
    let vw = weights.vector_wise();
    let inner = VectorWiseMatrix::from_parts(
        vw.rows(),
        vw.cols(),
        vw.vector_size(),
        vw.group_ptr().to_vec(),
        vw.col_idx().to_vec(),
        vw.values().iter().map(|x| x * 1.25).collect(),
    )
    .map_err(|e| format!("scaling weights: {e}"))?;
    ShflBwMatrix::from_vector_wise(inner, weights.row_indices().to_vec())
        .map_err(|e| format!("scaling weights: {e}"))
}

struct Setup {
    engine: ModelEngine,
    server: Server,
    warm_calls: u64,
    warm_failed: u64,
}

/// Engine build, server start, and every GEMM layer's bucket plans built
/// ahead of traffic.
fn setup() -> Result<Setup, String> {
    let engine = ModelEngine::build(
        DnnModel::Transformer,
        &GpuArch::v100(),
        &EngineConfig::paper_default(),
    )
    .map_err(|e| format!("building the Transformer engine: {e}"))?;
    let server = engine.server(
        ServerConfig::new()
            .with_workers(WORKERS)
            .with_admission_window_us(WINDOW_US)
            .with_policy(Arc::new(SloAware)),
    );
    let (mut warm_calls, mut warm_failed) = (0, 0);
    let policy = EngineConfig::paper_default().bucket_policy();
    for layer in engine.gemm_layer_indices() {
        let mut bucket = policy.min_bucket();
        while bucket <= policy.max_bucket() {
            warm_calls += 1;
            warm_failed += u64::from(engine.serving().warm(layer, bucket).is_err());
            bucket *= 2;
        }
    }
    Ok(Setup {
        engine,
        server,
        warm_calls,
        warm_failed,
    })
}

/// One live update event and what it reported.
struct UpdateEvent {
    ms: f64,
    result: Result<(u64, usize), String>,
}

pub fn run(cfg: &RunConfig, tracer: &Tracer) -> Result<Outcome, String> {
    let (inputs, arrivals) = synthesize(cfg.seed, cfg.seconds);
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
    let Setup { engine, server, .. } = built.ok_or("no set-up ran")?;
    let serving = engine.serving();
    let gemm_layers = engine.gemm_layer_indices();
    // Weights A of every layer, before any update; B is A scaled.
    let weights_a: HashMap<usize, ShflBwMatrix> = gemm_layers
        .iter()
        .map(|&l| serving.layer_weights(l).map(|w| (l, w)))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("reading weights: {e}"))?;

    let before = EngineSnapshot::take(serving);
    let updates_before = serving.update_stats();
    let stats_before = server.stats();
    let end = Duration::from_secs_f64(cfg.seconds);
    let t0 = Instant::now();
    let (tx, rx) = mpsc::channel::<(Sent, Option<shfl_serving::Ticket>)>();
    let (sent, updates) = std::thread::scope(|scope| {
        let collector = scope.spawn(|| {
            let rx = rx; // moved in: a receiver is not shared between threads
            let mut done = Vec::with_capacity(arrivals.len());
            let mut updates = Vec::new();
            let mut next_update = t0 + UPDATE_EVERY / 2;
            loop {
                let wait = next_update.saturating_duration_since(Instant::now());
                match rx.recv_timeout(wait) {
                    Ok((mut sent, ticket)) => {
                        if let Some(ticket) = ticket {
                            let start = Instant::now();
                            let response = ticket.wait();
                            tracer.record(0, "wait", 0, sent.id, start, Instant::now());
                            sent.outcome = match response.result {
                                Ok(out) => SentOutcome::Ok(fingerprint(out.as_slice())),
                                Err(ServingError::Shed) => SentOutcome::Shed,
                                Err(e) => SentOutcome::Failed(e.to_string()),
                            };
                        }
                        done.push(sent);
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
                let now = Instant::now();
                if now >= next_update && now < t0 + end {
                    let event = updates.len();
                    let layer = gemm_layers[(event / 2) % gemm_layers.len()];
                    updates.push(update_event(&server, &weights_a, layer, event, tracer));
                    next_update += UPDATE_EVERY;
                }
            }
            (done, updates)
        });
        for (i, arrival) in arrivals.iter().enumerate() {
            let input = &inputs[arrival.input];
            let request = Request {
                id: i as u64,
                layer: input.layer,
                activations: input.acts.clone(),
            };
            let due = t0 + arrival.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let start = Instant::now();
            let result = server.submit_classed(request, arrival.class);
            let submitted = Instant::now();
            tracer.record(0, "submit_classed", 0, i as u64, start, submitted);
            let (outcome, ticket) = match result {
                // The collector fills in the outcome once the ticket resolves.
                Ok(ticket) => (SentOutcome::Ok(0), Some(ticket)),
                Err(SubmitError::Shed) => (SentOutcome::Shed, None),
                Err(_) => (SentOutcome::Rejected, None),
            };
            let sent = Sent {
                id: i as u64,
                input: arrival.input,
                class: arrival.class,
                lateness_ms: start.saturating_duration_since(due).as_secs_f64() * 1e3,
                submit_us: (submitted - start).as_secs_f64() * 1e6,
                outcome,
            };
            tx.send((sent, ticket))
                .expect("the collector outlives the submitter");
        }
        drop(tx);
        collector.join().expect("the collector thread panicked")
    });
    let span_start = Instant::now();
    let stats = server.stats();
    tracer.record(0, "stats", 0, 0, span_start, Instant::now());
    let mut layers = Metrics::default();
    let span_start = Instant::now();
    crate::push_engine_layers(&mut layers, serving, &before);
    tracer.record(0, "cache_stats", 0, 0, span_start, Instant::now());
    let updates_after = serving.update_stats();
    server.shutdown();

    // Correctness, outside the timed region: each response against the cold
    // exact-width plan of its input under weights A, or under weights B when
    // the layer was updated during the run.
    let updated: Vec<usize> = (0..updates.len())
        .map(|e| gemm_layers[(e / 2) % gemm_layers.len()])
        .collect();
    let arch = serving.arch().clone();
    let mut oracle: HashMap<(usize, bool), u64> = HashMap::new();
    let mut expected = |input: usize, b: bool| -> Result<u64, String> {
        if let Some(fp) = oracle.get(&(input, b)) {
            return Ok(*fp);
        }
        let Input { layer, acts } = &inputs[input];
        let a = &weights_a[layer];
        let weights = if b { scaled(a)? } else { a.clone() };
        let out = SpmmPlan::shfl_bw(&arch, &weights, acts.cols())
            .execute(acts)
            .map_err(|e| format!("oracle: {e}"))?;
        let fp = fingerprint(out.output.as_slice());
        oracle.insert((input, b), fp);
        Ok(fp)
    };

    let completions: HashMap<u64, f64> = stats
        .completions
        .iter()
        .map(|c| (c.id, c.total_ms))
        .collect();
    let mut measure = Phase::new("measure");
    let mut latencies = Vec::with_capacity(sent.len());
    let mut lateness = Vec::with_capacity(sent.len());
    let mut submit_us = Vec::with_capacity(sent.len());
    let mut in_limit = 0u64;
    let mut first_error = None;
    for s in &sent {
        measure.sent += 1;
        lateness.push(s.lateness_ms);
        submit_us.push(s.submit_us);
        match &s.outcome {
            SentOutcome::Ok(fp) => {
                let layer = inputs[s.input].layer;
                let right = *fp == expected(s.input, false)?
                    || (updated.contains(&layer) && *fp == expected(s.input, true)?);
                let total_ms = completions.get(&s.id).copied();
                match (right, total_ms) {
                    (false, _) => measure.wrong += 1,
                    (true, None) => {
                        measure.failed += 1;
                        first_error
                            .get_or_insert(format!("request {} has no completion record", s.id));
                    }
                    (true, Some(total_ms)) => {
                        measure.succeeded += 1;
                        let latency = s.lateness_ms + total_ms;
                        latencies.push(latency);
                        in_limit += u64::from(latency <= limit_ms(s.class));
                    }
                }
            }
            SentOutcome::Rejected => measure.rejected += 1,
            SentOutcome::Shed => measure.shed += 1,
            SentOutcome::Failed(e) => {
                measure.failed += 1;
                first_error.get_or_insert(e.clone());
            }
        }
    }
    if let Some(e) = first_error {
        eprintln!("perfbench: serve_mixed request failed: {e}");
    }
    let mut update = Phase::new("update");
    let mut update_ms = Vec::new();
    let (mut rebuilt, mut invalidated) = (0u64, 0usize);
    for u in &updates {
        update.sent += 1;
        match &u.result {
            Ok((r, i)) => {
                update.succeeded += 1;
                update_ms.push(u.ms);
                rebuilt += r;
                invalidated += i;
            }
            Err(e) => {
                update.failed += 1;
                eprintln!("perfbench: serve_mixed update failed: {e}");
            }
        }
    }

    // A run too short for a p99 is held to its single latest submission.
    let lag_p99 =
        percentile(&lateness, 0.99).unwrap_or_else(|| lateness.iter().copied().fold(0.0, f64::max));
    if lag_p99 > LAG_BOUND_MS {
        return Err(format!(
            "the load generator ran {lag_p99:.2} ms late at p99 (bound {LAG_BOUND_MS} ms): the run did not offer its load"
        ));
    }
    let mut named = Metrics::default();
    named.push(
        "serve_latency_ms_p50",
        "ms",
        required_percentile("serve latency", &latencies, 0.5)?,
    );
    named.push_percentile("serve_latency_ms_p99", "ms", &latencies, 0.99);
    named.push(
        "serve_goodput",
        "ratio",
        ratio(in_limit as f64, measure.sent as f64),
    );
    named.push("serve_goodput_per_s", "1/s", in_limit as f64 / cfg.seconds);
    named.push_percentile("update_ms_p50", "ms", &update_ms, 0.5);
    named.push_percentile("loadgen_lag_ms_p50", "ms", &lateness, 0.5);
    named.push("serve_requests", "count", measure.sent as f64);

    let completions_ms = |f: fn(&shfl_serving::Completion) -> f64| -> Vec<f64> {
        stats.completions.iter().map(f).collect()
    };
    let queue_ms = completions_ms(|c| c.queue_ms);
    let service_ms = completions_ms(|c| c.service_ms);
    layers.push(
        "serving.server.submit_us_p99",
        "us",
        percentile(&submit_us, 0.99).unwrap_or(0.0),
    );
    layers.push(
        "serving.server.queue_ms_p50",
        "ms",
        percentile(&queue_ms, 0.5).unwrap_or(0.0),
    );
    layers.push(
        "serving.server.queue_ms_p99",
        "ms",
        percentile(&queue_ms, 0.99).unwrap_or(0.0),
    );
    layers.push(
        "serving.server.service_ms_p50",
        "ms",
        percentile(&service_ms, 0.5).unwrap_or(0.0),
    );
    layers.push(
        "serving.server.requests_per_group",
        "count",
        ratio(
            (stats.completed - stats_before.completed) as f64,
            (stats.dispatched_groups - stats_before.dispatched_groups) as f64,
        ),
    );
    layers.push(
        "serving.server.shed",
        "count",
        (stats.shed_submissions + stats.shed_queued
            - stats_before.shed_submissions
            - stats_before.shed_queued) as f64,
    );
    layers.push(
        "serving.server.rejected",
        "count",
        (stats.rejected - stats_before.rejected) as f64,
    );
    layers.push(
        "serving.update.repack_bytes_ratio",
        "ratio",
        ratio(
            (updates_after.repack_bytes - updates_before.repack_bytes) as f64,
            (updates_after.rebuild_bytes - updates_before.rebuild_bytes) as f64,
        ),
    );
    layers.push(
        "serving.update.rebuilt_plans",
        "count",
        ratio(rebuilt as f64, update_ms.len() as f64),
    );
    layers.push(
        "serving.update.invalidated_plans",
        "count",
        ratio(invalidated as f64, update_ms.len() as f64),
    );
    layers.push("loadgen.lag_ms_p99", "ms", lag_p99);
    layers.push("loadgen.sent", "count", measure.sent as f64);

    Ok(Outcome {
        setup_s,
        phases: vec![warm, measure, update],
        named,
        layers,
        throughput: "serve_goodput_per_s",
        latency_p50: "serve_latency_ms_p50",
    })
}

/// Event `event` of the update schedule on `layer`: even events publish
/// weights A × 1.25, odd events roll the layer back to A.
fn update_event(
    server: &Server,
    weights_a: &HashMap<usize, ShflBwMatrix>,
    layer: usize,
    event: usize,
    tracer: &Tracer,
) -> UpdateEvent {
    let republish = event.is_multiple_of(2);
    let weights = if republish {
        match scaled(&weights_a[&layer]) {
            Ok(w) => Some(w),
            Err(e) => {
                return UpdateEvent {
                    ms: 0.0,
                    result: Err(e),
                }
            }
        }
    } else {
        None
    };
    let start = Instant::now();
    let report = match weights {
        Some(w) => server.update_layer(layer, w),
        None => server.rollback_layer(layer),
    };
    let end = Instant::now();
    let name = if republish {
        "update_layer"
    } else {
        "rollback_layer"
    };
    tracer.record(0, name, 0, layer as u64, start, end);
    UpdateEvent {
        ms: (end - start).as_secs_f64() * 1e3,
        result: report
            .map(|r| (r.rebuilt_plans, r.invalidated_plans))
            .map_err(|e| e.to_string()),
    }
}
