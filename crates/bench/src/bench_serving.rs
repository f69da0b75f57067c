//! Wall-clock serving benchmark: cached-plan serving vs per-request cold plan
//! builds under mixed request sizes.
//!
//! `repro --bench-serving` drives each model's [`ModelEngine`] through a
//! deterministic **mixed-batch request trace** (the serving reality the
//! single-bucket engine of PR 2 could not handle):
//!
//! 1. **warmup** — each distinct warm batch runs once, populating the plan
//!    cache with every layer's plan (steady-state serving; compulsory
//!    misses amortise over a server's lifetime and are excluded from the
//!    timed window),
//! 2. **timed trace** — forwards at batch sizes the warmup never ran, all
//!    served by already-cached plans: per-forward latency percentiles,
//!    aggregate tokens-or-images/s, and the steady-state plan-cache hit rate
//!    (the `--bench-serving` gate fails on a miss-rate regression, which is
//!    what a plan-keying bug looks like),
//! 3. **cold trace** — the same forwards with a fresh exact-width plan built
//!    per layer per request ([`ModelEngine::forward_cold`]) — serving without
//!    the plan cache,
//! 4. **bit-identity** — served outputs equal the cold exact-width oracle
//!    bit for bit on a subset of shapes, and
//! 5. **multi-stream fan-out** — the timed trace's linear-layer requests
//!    served through [`Scheduler`] worker threads over the shared engine
//!    (recorded, not gated: on a single-core host the fan-out cannot beat
//!    sequential service),
//! 6. **panel probe** — a request over four largest-bucket widths wide (it
//!    spans `n.div_ceil(max_bucket)` = 5 of them, gated ≥ 4), with the
//!    engine's packed-panel byte counter read around it: its one sweep must
//!    stay within 1.5× of the single-sweep lower bound (it is exactly 1.0×),
//!    gated deterministically in both smoke and full mode, and
//! 7. **cross-request coalescing** — the fan-out trace served again through
//!    a coalescing scheduler (same-layer requests column-concatenated into
//!    shared fused executes): outputs must be bit-identical to the
//!    uncoalesced fan-out, and the coalesced wall-clock must not lose to the
//!    uncoalesced one (full mode; smoke allows 10% noise), and
//! 8. **continuous batching** — the model's linear layers served through the
//!    [`shfl_serving::server::Server`]: requests submitted **one at a time**
//!    with Poisson-ish staggered gaps and mixed priority classes
//!    (deadline / standard / bulk), once through a server holding a nonzero
//!    admission window (SLO-aware dispatch, cross-arrival coalescing) and
//!    once through the zero-window uncoalesced baseline (the old
//!    dispatch-immediately shape). Gated on bit-identity against per-request
//!    cold execution in every mode; in full mode also on the windowed
//!    configuration coalescing across arrivals (counter-verified via
//!    panel bytes and group stats), on aggregate throughput not losing to
//!    the zero-window baseline, and on deadline-class p99 staying below
//!    bulk-class p99 under the same load. A coalescing-cap sweep rides along
//!    and logs the best cap for this box. An **overload** sub-trace replays
//!    the mix gap-free against one worker with a small bulk-class bound:
//!    arrivals far outrun capacity, excess bulk sheds at the door (never any
//!    other class) while admitted bulk still completes, and the gates check
//!    a nonzero bulk shed rate in every mode plus, in full mode, deadline
//!    p99 staying strictly under bulk p99 on the overloaded server, and
//! 9. **live weight updates** — ≥ 8 same-pattern magnitude swaps (alternating
//!    a scaled republish with a rollback, so the engine's weights end exactly
//!    where they started) published while mixed-class traffic is in flight
//!    against the updated layer: the sub-trace records the swap-latency p99,
//!    the delta-re-pack byte ratio (payload bytes rewritten over full-rebuild
//!    bytes; strictly below 1 by construction), and the stale-plan execute
//!    count (in-flight snapshots finishing on a superseded version). Gated in
//!    every mode on swaps never failing a request and on the byte ratio
//!    landing strictly inside `(0, 1)`.

use gpu_sim::GpuArch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shfl_core::formats::{ShflBwMatrix, VectorWiseMatrix};
use shfl_core::matrix::DenseMatrix;
use shfl_core::slo::{SloClass, SloKind};
use shfl_models::engine::{EngineConfig, ModelEngine};
use shfl_models::DnnModel;
use shfl_serving::policy::{Fifo, SloAware};
use shfl_serving::scheduler::{Request, Scheduler};
use shfl_serving::server::{ServerConfig, SubmitError};
use shfl_serving::{decode_oracle, DecodeToken, ServingError};
use std::sync::Arc;
use std::time::Instant;

/// Nearest-rank percentile of an unsorted sample (`q` in `[0, 1]`).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Serving-trace numbers of one model.
#[derive(Debug, Clone)]
pub struct ServingBenchResult {
    /// Model name (`Transformer`, `GNMT`, `ResNet50`).
    pub model: String,
    /// Throughput unit: `"tokens/s"` or `"images/s"`.
    pub unit: &'static str,
    /// Timed forwards in the trace.
    pub forwards: usize,
    /// Steady-state plan-cache hit rate over the timed trace.
    pub hit_rate: f64,
    /// Median per-forward latency (ms) of the served trace.
    pub p50_ms: f64,
    /// 95th-percentile per-forward latency (ms).
    pub p95_ms: f64,
    /// 99th-percentile per-forward latency (ms).
    pub p99_ms: f64,
    /// Aggregate items/s of the served timed trace.
    pub throughput: f64,
    /// Aggregate items/s of the same trace with per-request cold plan builds.
    pub cold_throughput: f64,
    /// Whether served outputs were bit-identical to the cold exact-width
    /// oracle on the checked shapes.
    pub bit_identical: bool,
    /// Worker threads of the multi-stream sub-trace.
    pub mt_workers: usize,
    /// Linear-layer requests fanned across the workers.
    pub mt_requests: usize,
    /// Wall-clock of the fanned sub-trace in ms (0 when no linear layers).
    pub mt_wall_ms: f64,
    /// Largest-bucket widths the panel-probe request spans, counting a
    /// partial last one (≥ 4 by construction). The engine serves them all in
    /// one sweep.
    pub panel_segments: usize,
    /// Packed-panel bytes of **one** sweep over the probe layer's weights —
    /// the lower bound any execution of that layer pays at least once.
    pub panel_sweep_bytes: u64,
    /// Packed-panel bytes the probe request's execute streamed (one sweep).
    pub panel_bytes_fused: u64,
    /// Requests of the coalesced sub-trace (same requests as `mt_requests`).
    pub coalesced_requests: usize,
    /// Wall-clock of the coalescing scheduler over the fan-out requests, ms.
    pub coalesced_wall_ms: f64,
    /// Whether the coalesced responses were bit-identical to the
    /// uncoalesced fan-out responses.
    pub coalesced_bit_identical: bool,
    /// Continuous-batching server sub-trace (staggered arrivals, mixed
    /// priority classes, windowed vs zero-window).
    pub continuous: ContinuousBenchResult,
    /// Decode-session sub-trace: iteration-level interleaved autoregressive
    /// decode vs one-session-at-a-time serial decode (GNMT only — the
    /// paper's latency-bound recurrent decode workload).
    pub decode: Option<DecodeBenchResult>,
}

/// Numbers of the decode-session sub-trace: many concurrent autoregressive
/// sequences decoded through [`shfl_serving::session::SessionManager`]'s
/// iteration-level interleave loop (every live sequence contributes one
/// column per round; same-stage columns coalesce into one fused sweep),
/// with mid-trace eviction pressure and resumption, against a serial
/// one-session-at-a-time baseline on the same engine.
#[derive(Debug, Clone)]
pub struct DecodeBenchResult {
    /// Concurrent decode sessions of the interleaved run.
    pub sessions: usize,
    /// Decode steps per session.
    pub steps: usize,
    /// Tokens streamed by the interleaved run (`sessions × steps` when none
    /// were lost).
    pub tokens: u64,
    /// Open→fully-drained wall of the interleaved run, ms.
    pub wall_ms: f64,
    /// Aggregate decode throughput of the interleaved run, tokens/s.
    pub tokens_s: f64,
    /// Median per-token service time (the interleave round that produced the
    /// token), ms.
    pub token_p50_ms: f64,
    /// 99th-percentile per-token service time, ms.
    pub token_p99_ms: f64,
    /// Mean columns per sweep across the run (> 1 proves the sequences
    /// genuinely coalesced).
    pub mean_interleave_width: f64,
    /// Sessions evicted under the scripted mid-trace pressure.
    pub evictions: u64,
    /// Evicted sessions resumed (must equal `evictions`).
    pub resumed: u64,
    /// Accepted tokens that never arrived (`sessions × steps − tokens`; the
    /// zero-loss gate).
    pub lost_tokens: u64,
    /// Whether the checked sessions (one evicted-and-resumed, one
    /// untouched) matched the cold-oracle decode bit for bit.
    pub bit_identical: bool,
    /// Sessions of the serial baseline (each opened alone and fully drained
    /// before the next opens — interleave width pinned at 1).
    pub serial_sessions: usize,
    /// Wall of the serial baseline, ms.
    pub serial_wall_ms: f64,
    /// Per-token throughput of the serial baseline, tokens/s.
    pub serial_tokens_s: f64,
}

impl DecodeBenchResult {
    /// Interleaved-over-serial decode throughput ratio (the ≥ 2× full-mode
    /// gate).
    pub fn interleave_speedup(&self) -> f64 {
        if self.serial_tokens_s <= 0.0 {
            return 0.0;
        }
        self.tokens_s / self.serial_tokens_s
    }
}

/// Numbers of the continuous-batching server sub-trace of one model.
#[derive(Debug, Clone)]
pub struct ContinuousBenchResult {
    /// Distinct linear layers the trace submits against.
    pub layers: usize,
    /// Requests submitted (one at a time) per server run.
    pub requests: usize,
    /// Admission window of the windowed configuration, µs.
    pub window_us: u64,
    /// First-submit→drained wall of the windowed SLO-aware server, ms.
    pub windowed_wall_ms: f64,
    /// Same trace through the zero-window uncoalesced baseline, ms.
    pub zero_wall_ms: f64,
    /// Whether windowed responses were bit-identical to per-request cold
    /// execution of the same operands.
    pub bit_identical: bool,
    /// Ready groups the windowed server dispatched (< `requests` when
    /// arrivals coalesced).
    pub windowed_groups: u64,
    /// Requests the windowed server served inside shared (coalesced)
    /// executes.
    pub coalesced_requests: u64,
    /// Packed-panel bytes the windowed run streamed.
    pub windowed_panel_bytes: u64,
    /// Packed-panel bytes the zero-window baseline streamed on the same
    /// trace.
    pub zero_panel_bytes: u64,
    /// Deadline-class end-to-end latency percentiles, ms.
    pub deadline_p50_ms: f64,
    /// Deadline-class p99, ms.
    pub deadline_p99_ms: f64,
    /// Standard-class p99, ms.
    pub standard_p99_ms: f64,
    /// Bulk-class p50, ms.
    pub bulk_p50_ms: f64,
    /// Bulk-class p99, ms.
    pub bulk_p99_ms: f64,
    /// Coalescing-cap sweep: (cap columns, batch wall ms) per candidate
    /// (empty in smoke mode).
    pub cap_sweep: Vec<(usize, f64)>,
    /// The cap with the best batch wall on this box (the layer default when
    /// the sweep was skipped).
    pub best_cap: usize,
    /// Arrivals of the overload sub-trace (the same request mix replayed
    /// gap-free against one capacity-constrained worker).
    pub overload_requests: usize,
    /// Bulk requests shed in the overload sub-trace: door rejections plus
    /// queued evictions. Only bulk is ever shed.
    pub overload_shed: u64,
    /// Shed fraction of the overload trace's bulk arrivals.
    pub overload_shed_rate: f64,
    /// Deadline-class p99 of the overload sub-trace, ms.
    pub overload_deadline_p99_ms: f64,
    /// Bulk-class p99 of the overload sub-trace, ms.
    pub overload_bulk_p99_ms: f64,
    /// Weight swaps published by the live-update sub-trace (scaled
    /// republishes plus rollbacks).
    pub update_swaps: u64,
    /// 99th-percentile swap latency (build + validate + publish), ms.
    pub update_swap_p99_ms: f64,
    /// Delta-re-pack payload bytes over the bytes full rebuilds of the same
    /// plans would have moved (strictly inside `(0, 1)` when any swap took
    /// the delta path).
    pub repack_bytes_ratio: f64,
    /// Serving executes that finished on a snapshot older than the published
    /// version — the no-stop-the-world overlap window made visible.
    pub stale_plan_executes: u64,
    /// Tickets accepted during the update sub-trace that failed (the
    /// zero-downtime gate: must be 0).
    pub update_failed_requests: u64,
}

impl ContinuousBenchResult {
    /// Aggregate-throughput speedup of the windowed configuration over the
    /// zero-window baseline (same submission pattern, so the wall ratio).
    pub fn window_speedup(&self) -> f64 {
        if self.windowed_wall_ms <= 0.0 {
            return 0.0;
        }
        self.zero_wall_ms / self.windowed_wall_ms
    }

    /// Panel-byte reduction of windowed coalescing over the zero-window
    /// baseline.
    pub fn panel_reduction(&self) -> f64 {
        if self.windowed_panel_bytes == 0 {
            return 0.0;
        }
        self.zero_panel_bytes as f64 / self.windowed_panel_bytes as f64
    }
}

impl ServingBenchResult {
    /// Served-over-cold aggregate throughput ratio.
    pub fn speedup_vs_cold(&self) -> f64 {
        if self.cold_throughput <= 0.0 {
            return 0.0;
        }
        self.throughput / self.cold_throughput
    }

    /// Coalesced-over-uncoalesced wall-clock speedup on the fan-out trace.
    pub fn coalescing_speedup(&self) -> f64 {
        if self.coalesced_wall_ms <= 0.0 {
            return 0.0;
        }
        self.mt_wall_ms / self.coalesced_wall_ms
    }
}

/// The warmup and timed batch mixes of one model's trace. Timed batches are
/// chosen so every timed forward runs on plans the warmup already cached —
/// but at *different* widths, so a plan-keying regression (keying by width
/// instead of by layer version) shows up as a miss-rate spike.
fn trace_batches(model: DnnModel, quick: bool) -> (Vec<usize>, Vec<usize>) {
    match (model, quick) {
        (DnnModel::Transformer, true) => (vec![1, 2, 4], vec![1, 3, 2, 4]),
        // seq_len 16: timed widths 48/80/96/112 never appear in the warmup.
        (DnnModel::Transformer, false) => (
            vec![1, 2, 4, 8],
            vec![1, 3, 2, 6, 4, 8, 5, 7, 3, 1, 6, 2, 8, 4, 7, 5],
        ),
        // GNMT serves N = batch directly; 10 and 20 never appear in the
        // warmup.
        (DnnModel::Gnmt, true) => (vec![1, 2, 4], vec![1, 3, 2, 4]),
        (DnnModel::Gnmt, false) => (
            vec![1, 2, 4, 8, 12, 24],
            vec![1, 3, 2, 6, 4, 8, 10, 20, 3, 1, 6, 2, 20, 4, 10, 8],
        ),
        // ResNet's conv plans are keyed per batch size, so the warm set
        // covers every timed batch (the unseen-width keying regression is
        // caught by the GEMM models).
        (DnnModel::Resnet50, true) => (vec![1, 2], vec![1, 2]),
        (DnnModel::Resnet50, false) => (vec![1, 2, 3, 4], vec![1, 3, 2, 4, 3, 1, 4, 2]),
    }
}

/// Runs the serving trace for every model. `quick` shrinks the trace and the
/// engine configuration (CI smoke mode).
pub fn run(quick: bool) -> Vec<ServingBenchResult> {
    let arch = GpuArch::v100();
    let cfg = if quick {
        EngineConfig::smoke()
    } else {
        EngineConfig::paper_default()
    };
    DnnModel::all()
        .into_iter()
        .map(|model| run_model(model, &arch, &cfg, quick))
        .collect()
}

fn run_model(
    model: DnnModel,
    arch: &GpuArch,
    cfg: &EngineConfig,
    quick: bool,
) -> ServingBenchResult {
    let engine = ModelEngine::build(model, arch, cfg).expect("engine builds");
    let seq = cfg.seq_len;
    let (warm, timed) = trace_batches(model, quick);

    // Warmup: populate the trace's plans (untimed, excluded from the rate).
    for &batch in &warm {
        engine.forward(batch, seq).expect("warmup forward");
    }
    let warm_stats = engine.cache_stats();

    // Timed served trace vs the cold trace (identical requests, exact-width
    // plan built per layer per forward). The two are compared against each
    // other by the full-mode throughput gate and a shared box drifts by tens
    // of percent between trace sections, so in full mode both run twice,
    // interleaved, keeping each forward's best — the same best-of policy as
    // the kernel benchmarks. The hit-rate window is measured around the first
    // served pass only (repeats add pure hits and would flatter the rate).
    let reps = if quick { 1 } else { 2 };
    let mut latencies = vec![f64::MAX; timed.len()];
    let mut items = 0.0;
    let mut served_ms = 0.0;
    let mut cold_ms = 0.0;
    let mut unit = "items/s";
    let mut hit_rate = 1.0;
    for rep in 0..reps {
        let mut pass_ms = 0.0;
        for (i, &batch) in timed.iter().enumerate() {
            let report = engine.forward(batch, seq).expect("served forward");
            latencies[i] = latencies[i].min(report.forward_ms);
            pass_ms += report.forward_ms;
            if rep == 0 {
                items += report.items_per_forward;
            }
            unit = report.unit;
        }
        served_ms = if rep == 0 {
            pass_ms
        } else {
            served_ms.min(pass_ms)
        };
        if rep == 0 {
            let steady = engine.cache_stats();
            let lookups = (steady.hits - warm_stats.hits) + (steady.misses - warm_stats.misses);
            hit_rate = if lookups == 0 {
                1.0
            } else {
                (steady.hits - warm_stats.hits) as f64 / lookups as f64
            };
        }
        let mut pass_ms = 0.0;
        for &batch in &timed {
            let report = engine.forward_cold(batch, seq).expect("cold forward");
            pass_ms += report.forward_ms;
        }
        cold_ms = if rep == 0 {
            pass_ms
        } else {
            cold_ms.min(pass_ms)
        };
    }

    // Bit-identity of the served path against the cold exact-width oracle.
    let check_batches: &[usize] = if quick { &timed[..1] } else { &timed[..2] };
    let mut bit_identical = true;
    for &batch in check_batches {
        let served = engine.forward_outputs(batch, seq).expect("served outputs");
        let cold = engine
            .forward_outputs_cold(batch, seq)
            .expect("cold outputs");
        bit_identical &= served.len() == cold.len()
            && served.iter().zip(cold.iter()).all(|(b, c)| {
                b.shape() == c.shape()
                    && b.as_slice()
                        .iter()
                        .zip(c.as_slice().iter())
                        .all(|(x, y)| x.to_bits() == y.to_bits())
            });
    }

    // Multi-stream fan-out over the linear layers (plans are shared; on a
    // multi-core host the workers overlap, on a single core they interleave),
    // then the same requests again through the coalescing scheduler:
    // same-layer requests collapse into shared fused executes, and the
    // scattered outputs must match the fan-out bit for bit.
    let gemm_layers = engine.gemm_layer_indices();
    let mt_workers = 4;
    let mut mt_requests = 0;
    let mut mt_wall_ms = 0.0;
    let mut coalesced_requests = 0;
    let mut coalesced_wall_ms = 0.0;
    let mut coalesced_bit_identical = true;
    if !gemm_layers.is_empty() {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5e41);
        let mut requests = Vec::new();
        let inventory_batches = if quick {
            &timed[..timed.len().min(4)]
        } else {
            &timed[..]
        };
        for &batch in inventory_batches {
            // The workload inventory is the single source of truth for each
            // layer's serving width at this batch (layer order matches the
            // engine's registration order).
            let inventory = shfl_models::model_workload(model, batch, seq);
            for &layer in &gemm_layers {
                let (_, n, k) = inventory[layer].kind.gemm_shape();
                requests.push(Request {
                    id: requests.len() as u64,
                    layer,
                    activations: DenseMatrix::random(&mut rng, k, n),
                });
            }
        }
        mt_requests = requests.len();
        coalesced_requests = requests.len();
        // Steady-state comparison: one untimed pass of the coalescing
        // scheduler first, exactly like the trace warmup excludes compulsory
        // work from the timed window.
        let warm_responses =
            Scheduler::coalescing(mt_workers).serve(engine.serving(), requests.clone());
        assert!(warm_responses.iter().all(|r| r.result.is_ok()));
        // Interleaved best-of-2 for each scheduler: the walls are compared
        // against each other and a shared single-core box drifts by tens of
        // percent between passes, so alternating the passes and keeping each
        // side's best cancels most of the drift.
        let mut uncoalesced_walls = Vec::new();
        let mut coalesced_walls = Vec::new();
        let mut responses = Vec::new();
        let mut coalesced = Vec::new();
        for _ in 0..2 {
            let start = Instant::now();
            responses = Scheduler::new(mt_workers).serve(engine.serving(), requests.clone());
            uncoalesced_walls.push(start.elapsed().as_secs_f64() * 1e3);
            assert!(
                responses.iter().all(|r| r.result.is_ok()),
                "multi-stream trace requests are well-formed"
            );
            let start = Instant::now();
            coalesced = Scheduler::coalescing(mt_workers).serve(engine.serving(), requests.clone());
            coalesced_walls.push(start.elapsed().as_secs_f64() * 1e3);
        }
        mt_wall_ms = uncoalesced_walls.iter().copied().fold(f64::MAX, f64::min);
        coalesced_wall_ms = coalesced_walls.iter().copied().fold(f64::MAX, f64::min);
        coalesced_bit_identical = responses.len() == coalesced.len()
            && responses
                .iter()
                .zip(coalesced.iter())
                .all(|(a, b)| match (&a.result, &b.result) {
                    (Ok(x), Ok(y)) => {
                        x.shape() == y.shape()
                            && x.as_slice()
                                .iter()
                                .zip(y.as_slice().iter())
                                .all(|(p, q)| p.to_bits() == q.to_bits())
                    }
                    _ => false,
                });
    }

    // Panel probe: a request over four largest-bucket widths wide on the
    // cheapest linear layer, with the engine's panel-byte counter read
    // around it.
    let serving = engine.serving();
    let probe_layer = gemm_layers
        .iter()
        .copied()
        .min_by_key(|&l| {
            serving.layer_m(l).unwrap_or(usize::MAX) * serving.layer_k(l).unwrap_or(usize::MAX)
        })
        .unwrap_or(0);
    let max_bucket = serving.policy().max_bucket();
    let probe_n = max_bucket * 4 + 3;
    let panel_segments = probe_n.div_ceil(max_bucket);
    let panel_sweep_bytes = serving
        .layer_panel_sweep_bytes(probe_layer)
        .expect("probe plan builds");
    let probe_k = serving.layer_k(probe_layer).expect("registered layer");
    let mut probe_rng = StdRng::seed_from_u64(cfg.seed ^ 0x9a31);
    let probe_acts = DenseMatrix::random(&mut probe_rng, probe_k, probe_n);
    let before = serving.panel_bytes_read();
    serving
        .execute(probe_layer, &probe_acts)
        .expect("probe executes");
    let panel_bytes_fused = serving.panel_bytes_read() - before;

    let continuous = run_continuous(&engine, model, cfg, quick);

    // Decode-session sub-trace on GNMT only: the paper's latency-bound
    // recurrent decode workload, where iteration-level interleaving is the
    // whole game. (Transformer decode works — the unit suites cover it —
    // but its 24-stage step would double the trace's wall for the same
    // interleave evidence.) Runs after the update sub-trace, whose
    // alternating republish/rollback swaps leave the weights bit-exact.
    let decode = if model == DnnModel::Gnmt {
        run_decode(&engine, quick)
    } else {
        None
    };

    ServingBenchResult {
        model: model.name().to_string(),
        unit,
        forwards: timed.len(),
        hit_rate,
        p50_ms: percentile(&latencies, 0.50),
        p95_ms: percentile(&latencies, 0.95),
        p99_ms: percentile(&latencies, 0.99),
        throughput: if served_ms > 0.0 {
            items / (served_ms / 1e3)
        } else {
            0.0
        },
        cold_throughput: if cold_ms > 0.0 {
            items / (cold_ms / 1e3)
        } else {
            0.0
        },
        bit_identical,
        mt_workers,
        mt_requests,
        mt_wall_ms,
        panel_segments,
        panel_sweep_bytes,
        panel_bytes_fused,
        coalesced_requests,
        coalesced_wall_ms,
        coalesced_bit_identical,
        continuous,
        decode,
    }
}

/// The decode-session sub-trace: `sessions` concurrent autoregressive
/// sequences opened against one server (mixed per-token Deadline / Bulk
/// classes), streamed to completion through the manager's iteration-level
/// interleave loop, with `evict_count` sessions evicted mid-sequence and
/// resumed — then a serial baseline decoding sessions strictly one at a
/// time on a fresh server over the same engine. Bit-identity is checked
/// against [`decode_oracle`] (cold exact-width executes) on one
/// evicted-and-resumed session and one untouched session — the exhaustive
/// all-interleavings check lives in the serving crate's property tests.
fn run_decode(engine: &ModelEngine, quick: bool) -> Option<DecodeBenchResult> {
    let model = engine.decode_model()?;
    let (sessions, steps, evict_count, serial_sessions) =
        if quick { (8, 6, 2, 2) } else { (32, 64, 4, 4) };
    let class_of = |i: usize| {
        if i.is_multiple_of(2) {
            // A whole-sequence deadline split into per-token budgets.
            SloClass::Deadline {
                deadline_us: 4_000_000,
            }
            .per_token(steps)
        } else {
            SloClass::Bulk
        }
    };

    let server = engine.server(
        ServerConfig::new()
            .with_workers(2)
            .with_session_capacity(sessions * 2)
            .with_policy(Arc::new(SloAware)),
    );
    let start = Instant::now();
    let mut handles: Vec<_> = (0..sessions)
        .map(|i| {
            server
                .open_session(
                    Arc::clone(&model),
                    engine.decode_prompt(i as u64),
                    class_of(i),
                    steps,
                )
                .expect("session tier sized to the trace")
        })
        .collect();
    let mut collected: Vec<Vec<DecodeToken>> = vec![Vec::new(); sessions];

    // Mid-trace eviction pressure: consume the victim's stream until it is
    // a third of the way through (blocking consumption keeps us in step
    // with production), then evict it. Resumption happens in the drain
    // below when the typed error surfaces.
    for v in 0..evict_count {
        let ticket = handles[v].ticket();
        while collected[v].len() < steps / 3 {
            match ticket.next_token() {
                Ok(Some(tok)) => collected[v].push(tok),
                Ok(None) => break,
                Err(e) => panic!("decode trace failed before eviction: {e}"),
            }
        }
        server.evict_session(handles[v].id());
    }

    // Drain every session to completion; an evicted stream resumes under
    // its old id and continues exactly where it stopped.
    for i in 0..sessions {
        loop {
            match handles[i].ticket().next_token() {
                Ok(Some(tok)) => collected[i].push(tok),
                Ok(None) => break,
                Err(ServingError::Evicted { session }) => {
                    handles[i] = server
                        .resume_session(session)
                        .expect("evicted decode session resumes");
                }
                Err(e) => panic!("decode trace failed: {e}"),
            }
        }
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let stats = server.session_stats();
    server.shutdown();

    let tokens: u64 = collected.iter().map(|c| c.len() as u64).sum();
    let lost_tokens = (sessions * steps) as u64 - tokens.min((sessions * steps) as u64);
    let token_ms: Vec<f64> = collected
        .iter()
        .flat_map(|c| c.iter().map(|t| t.service_ms))
        .collect();

    // Bit-identity spot check against the cold oracle: session 0 crossed an
    // evict/resume cycle, the last session never did.
    let serving = engine.serving();
    let mut bit_identical = true;
    for &i in &[0, sessions - 1] {
        let oracle = decode_oracle(
            serving,
            model.as_ref(),
            &engine.decode_prompt(i as u64),
            steps,
        )
        .expect("oracle decode executes");
        bit_identical &= collected[i].len() == oracle.len()
            && collected[i].iter().zip(oracle.iter()).all(|(tok, want)| {
                tok.values.len() == want.len()
                    && tok
                        .values
                        .iter()
                        .zip(want.iter())
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            });
    }

    // Serial baseline: one session at a time on a fresh server (fresh
    // session stats), each fully drained before the next opens, so every
    // sweep is width 1 — what decoding these sequences costs without
    // iteration-level interleaving.
    let serial_server = engine.server(
        ServerConfig::new()
            .with_workers(2)
            .with_session_capacity(4)
            .with_policy(Arc::new(SloAware)),
    );
    let start = Instant::now();
    for i in 0..serial_sessions {
        let handle = serial_server
            .open_session(
                Arc::clone(&model),
                engine.decode_prompt(i as u64),
                class_of(i),
                steps,
            )
            .expect("serial session admits");
        let ticket = handle.ticket();
        loop {
            match ticket.next_token() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => panic!("serial decode baseline failed: {e}"),
            }
        }
    }
    let serial_wall_ms = start.elapsed().as_secs_f64() * 1e3;
    serial_server.shutdown();

    Some(DecodeBenchResult {
        sessions,
        steps,
        tokens,
        wall_ms,
        tokens_s: if wall_ms > 0.0 {
            tokens as f64 / (wall_ms / 1e3)
        } else {
            0.0
        },
        token_p50_ms: percentile(&token_ms, 0.50),
        token_p99_ms: percentile(&token_ms, 0.99),
        mean_interleave_width: stats.mean_interleave_width(),
        evictions: stats.evicted,
        resumed: stats.resumed,
        lost_tokens,
        bit_identical,
        serial_sessions,
        serial_wall_ms,
        serial_tokens_s: if serial_wall_ms > 0.0 {
            (serial_sessions * steps) as f64 / (serial_wall_ms / 1e3)
        } else {
            0.0
        },
    })
}

/// The SLO-class mix of the continuous trace: a quarter deadline-bound, a
/// quarter standard, half bulk — enough load in every class for percentiles,
/// with bulk dominating so class-aware dispatch has something to displace.
fn continuous_class(index: usize) -> SloClass {
    match index % 4 {
        0 => SloClass::Deadline {
            deadline_us: 10_000,
        },
        1 => SloClass::Bulk,
        2 => SloClass::Standard,
        _ => SloClass::Bulk,
    }
}

/// The continuous-batching sub-trace: the model's linear-layer request mix
/// submitted **one request at a time** with deterministic Poisson-ish gaps
/// and mixed SLO classes, through two server configurations over the same
/// engine:
///
/// * **windowed** — a nonzero admission window, SLO-aware dispatch,
///   cross-arrival coalescing at the layer-default cap, and
/// * **zero-window** — dispatch-immediately, no coalescing: the shape of the
///   old batch scheduler serving arrivals individually, i.e. what serving
///   this arrival pattern cost before the server existed.
///
/// Both runs measure first-submit→drained wall (identical submission gaps,
/// so the wall ratio is the aggregate-throughput ratio) and the engine's
/// packed-panel byte counter around the run (the counter-verified proof that
/// the window coalesced across arrivals). Windowed responses are compared
/// bit-for-bit against per-request **cold** execution of the same operands
/// (first repetition; later repetitions against the served path, itself
/// gated bit-identical to cold elsewhere in this benchmark). A
/// coalescing-cap sweep over the same request set (atomic batch, zero
/// window) logs the best cap for this box in full mode.
fn run_continuous(
    engine: &ModelEngine,
    model: DnnModel,
    cfg: &EngineConfig,
    quick: bool,
) -> ContinuousBenchResult {
    let serving = engine.serving();
    let gemm_layers = engine.gemm_layer_indices();
    let window_us: u64 = if quick { 200 } else { 8_000 };
    let default_cap = cfg.bucket_policy().max_bucket();
    if gemm_layers.is_empty() {
        return ContinuousBenchResult {
            layers: 0,
            requests: 0,
            window_us,
            windowed_wall_ms: 0.0,
            zero_wall_ms: 0.0,
            bit_identical: true,
            windowed_groups: 0,
            coalesced_requests: 0,
            windowed_panel_bytes: 0,
            zero_panel_bytes: 0,
            deadline_p50_ms: 0.0,
            deadline_p99_ms: 0.0,
            standard_p99_ms: 0.0,
            bulk_p50_ms: 0.0,
            bulk_p99_ms: 0.0,
            cap_sweep: Vec::new(),
            best_cap: default_cap,
            overload_requests: 0,
            overload_shed: 0,
            overload_shed_rate: 0.0,
            overload_deadline_p99_ms: 0.0,
            overload_bulk_p99_ms: 0.0,
            update_swaps: 0,
            update_swap_p99_ms: 0.0,
            repack_bytes_ratio: 0.0,
            stale_plan_executes: 0,
            update_failed_requests: 0,
        };
    }

    // One (layer, width) spec per linear layer per trace batch size,
    // repeated `reps` times with fresh activations — the mixed-width
    // workload arrivals cycle through.
    let (_, timed) = trace_batches(model, quick);
    let batches = &timed[..timed.len().min(4)];
    let mut specs: Vec<(usize, usize)> = Vec::new();
    for &batch in batches {
        let inventory = shfl_models::model_workload(model, batch, cfg.seq_len);
        for &layer in &gemm_layers {
            let (_, n, _) = inventory[layer].kind.gemm_shape();
            specs.push((layer, n));
        }
    }
    let reps = if quick { 2 } else { 4 };
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xc0a1);
    let mut requests = Vec::with_capacity(specs.len() * reps);
    for _ in 0..reps {
        for &(layer, n) in &specs {
            let k = serving.layer_k(layer).expect("registered layer");
            requests.push(Request {
                id: requests.len() as u64,
                layer,
                activations: DenseMatrix::random(&mut rng, k, n),
            });
        }
    }
    // Deterministic Poisson-ish inter-arrival gaps (exponential via inverse
    // CDF, capped); zero in smoke mode — the gaps only matter for the
    // wall-clock gates, which smoke skips.
    let gaps_us: Vec<u64> = (0..requests.len())
        .map(|_| {
            if quick {
                0
            } else {
                let u: f64 = rng.gen_range(0.0..1.0);
                ((-(1.0 - u).ln()) * 120.0).min(600.0) as u64
            }
        })
        .collect();

    // Steady state: warm every layer's plan, like the rest of this
    // benchmark excludes compulsory plan builds from timed windows.
    for &layer in &gemm_layers {
        serving.warm(layer, default_cap).expect("warm plan builds");
    }

    // Expected outputs: per-request cold execution for the first repetition
    // (fresh exact-width plans — the strongest oracle), the served path
    // for later repetitions (itself gated bit-identical to cold).
    let expected: Vec<DenseMatrix> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| {
            if i < specs.len() {
                serving.execute_cold(r.layer, &r.activations)
            } else {
                serving.execute(r.layer, &r.activations)
            }
            .expect("trace request executes")
        })
        .collect();

    let submit_all = |server: &shfl_serving::server::Server,
                      requests: Vec<Request>|
     -> (Vec<shfl_serving::server::Ticket>, f64) {
        let start = Instant::now();
        let tickets: Vec<_> = requests
            .into_iter()
            .enumerate()
            .map(|(i, request)| {
                if gaps_us[i] > 0 {
                    std::thread::sleep(std::time::Duration::from_micros(gaps_us[i]));
                }
                let class = continuous_class(i);
                server
                    .submit_classed(request, class)
                    .expect("queue sized to the trace")
            })
            .collect();
        server.drain();
        (tickets, start.elapsed().as_secs_f64() * 1e3)
    };

    // Windowed, SLO-aware, coalescing server.
    let server = engine.server(
        ServerConfig::new()
            .with_workers(4)
            .with_admission_window_us(window_us)
            .with_queue_depth(requests.len())
            .with_policy(Arc::new(SloAware)),
    );
    let before = serving.panel_bytes_read();
    let (tickets, windowed_wall_ms) = submit_all(&server, requests.clone());
    let windowed_panel_bytes = serving.panel_bytes_read() - before;
    let mut bit_identical = true;
    for (ticket, want) in tickets.into_iter().zip(expected.iter()) {
        let got = ticket
            .try_take()
            .expect("drained server delivered every ticket")
            .result
            .expect("trace requests are well-formed");
        bit_identical &= got.shape() == want.shape()
            && got
                .as_slice()
                .iter()
                .zip(want.as_slice().iter())
                .all(|(x, y)| x.to_bits() == y.to_bits());
    }
    let stats = server.stats();
    server.shutdown();

    // Zero-window uncoalesced baseline: every arrival dispatched
    // immediately on its own — the old per-request serving shape.
    let baseline = engine.server(
        ServerConfig::new()
            .with_workers(4)
            .with_admission_window_us(0)
            .with_coalesce(false)
            .with_queue_depth(requests.len())
            .with_policy(Arc::new(Fifo)),
    );
    let before = serving.panel_bytes_read();
    let (tickets, zero_wall_ms) = submit_all(&baseline, requests.clone());
    let zero_panel_bytes = serving.panel_bytes_read() - before;
    for ticket in tickets {
        let _ = ticket.try_take().expect("drained");
    }
    baseline.shutdown();

    // Coalescing-cap sweep (full mode): the same request set as one atomic
    // batch through zero-window coalescing servers at different caps,
    // interleaved best-of-2 — logs where this box's activation-reuse /
    // panel-sweep trade-off lands.
    let mut cap_sweep = Vec::new();
    let mut best_cap = default_cap;
    if !quick {
        let caps = [
            (default_cap / 2).max(8),
            default_cap,
            default_cap * 2,
            default_cap * 4,
        ];
        let mut walls = vec![f64::MAX; caps.len()];
        for _ in 0..2 {
            for (i, &cap) in caps.iter().enumerate() {
                let server = engine.server(
                    ServerConfig::new()
                        .with_workers(4)
                        .with_coalesce_cap(cap)
                        .with_queue_depth(requests.len())
                        .with_policy(Arc::new(Fifo)),
                );
                let batch = requests.clone();
                let start = Instant::now();
                let tickets = server
                    .submit_batch(batch)
                    .expect("queue sized to the batch");
                for ticket in tickets {
                    let _ = ticket.wait();
                }
                walls[i] = walls[i].min(start.elapsed().as_secs_f64() * 1e3);
                server.shutdown();
            }
        }
        cap_sweep = caps.iter().copied().zip(walls.iter().copied()).collect();
        best_cap = caps[walls
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("walls are finite"))
            .map(|(i, _)| i)
            .unwrap_or(1)];
    }

    // Overload sub-trace: the same request mix replayed with **no**
    // inter-arrival gaps against a single worker — arrivals far outrun
    // service capacity (well past 2×), so the admission side has to shed.
    // The bulk class runs behind a small per-class bound while the shared
    // queue fits the trace: excess bulk sheds at the door (typed, counted),
    // admitted bulk still completes — so the gates can check both a nonzero
    // bulk shed rate and the deadline class keeping its p99 strictly under
    // the surviving bulk completions' p99 despite the pressure.
    let bulk_bound = 2.max(requests.len() / 16);
    let overload = engine.server(
        ServerConfig::new()
            .with_workers(1)
            .with_admission_window_us(window_us)
            .with_queue_depth(requests.len())
            .with_class_queue_depth(SloKind::Bulk, bulk_bound)
            .with_policy(Arc::new(SloAware)),
    );
    let mut overload_bulk_arrivals = 0u64;
    let mut overload_tickets = Vec::new();
    for (i, request) in requests.iter().enumerate() {
        let class = continuous_class(i);
        if class.kind() == SloKind::Bulk {
            overload_bulk_arrivals += 1;
        }
        match overload.submit_classed(request.clone(), class) {
            Ok(ticket) => overload_tickets.push(ticket),
            // Bulk sheds at the door; latency-sensitive overflow with no
            // bulk victim left is retryable backpressure. Both are expected
            // under deliberate overload.
            Err(SubmitError::Shed) | Err(SubmitError::QueueFull { .. }) => {}
            Err(e) => panic!("overload trace rejected unexpectedly: {e}"),
        }
    }
    overload.drain();
    for ticket in overload_tickets {
        match ticket.try_take().expect("drained").result {
            Ok(_) | Err(ServingError::Shed) => {}
            Err(e) => panic!("overload trace failed unexpectedly: {e}"),
        }
    }
    let overload_stats = overload.stats();
    overload.shutdown();
    let overload_shed = overload_stats.shed_submissions + overload_stats.shed_queued;

    // Live-update sub-trace: same-pattern magnitude swaps published while
    // mixed-class traffic is in flight against the updated layer — the
    // zero-downtime path. Swaps alternate a ×1.25 republish with a rollback,
    // so the engine's weights end bit-exactly where the sub-trace found
    // them; every ticket accepted across a swap must still complete (the
    // `update_failed_requests == 0` gate), and the delta re-pack must move
    // strictly fewer bytes than full rebuilds (the ratio gate). This runs
    // last: the swaps themselves are invisible to the earlier oracles.
    let update_layer = gemm_layers[0];
    let update_k = serving.layer_k(update_layer).expect("registered layer");
    let swap_target = 8usize;
    let update_server = engine.server(
        ServerConfig::new()
            .with_workers(2)
            .with_admission_window_us(window_us)
            .with_queue_depth(swap_target * 3)
            .with_policy(Arc::new(SloAware)),
    );
    let mut update_rng = StdRng::seed_from_u64(cfg.seed ^ 0x5a9d);
    let mut swap_walls_ms = Vec::with_capacity(swap_target);
    let mut update_tickets = Vec::new();
    for swap in 0..swap_target {
        // Land a small mixed-class wave, then swap while it is in flight.
        for j in 0..3usize {
            let i = swap * 3 + j;
            let n = 1 + (i * 5) % default_cap;
            update_tickets.push(
                update_server
                    .submit_classed(
                        Request {
                            id: i as u64,
                            layer: update_layer,
                            activations: DenseMatrix::random(&mut update_rng, update_k, n),
                        },
                        continuous_class(i),
                    )
                    .expect("queue sized to the update trace"),
            );
        }
        let report = if swap % 2 == 0 {
            let current = serving
                .layer_weights(update_layer)
                .expect("registered layer");
            let vw = current.vector_wise();
            let values: Vec<f32> = vw.values().iter().map(|x| x * 1.25).collect();
            let inner = VectorWiseMatrix::from_parts(
                vw.rows(),
                vw.cols(),
                vw.vector_size(),
                vw.group_ptr().to_vec(),
                vw.col_idx().to_vec(),
                values,
            )
            .expect("same-pattern update");
            let update = ShflBwMatrix::from_vector_wise(inner, current.row_indices().to_vec())
                .expect("same-pattern update");
            serving
                .update_layer(update_layer, update)
                .expect("same-pattern update publishes")
        } else {
            serving
                .rollback_layer(update_layer)
                .expect("rollback publishes")
        };
        swap_walls_ms.push(report.swap_ms);
    }
    update_server.drain();
    let mut update_failed_requests = 0u64;
    for ticket in update_tickets {
        if ticket.try_take().expect("drained").result.is_err() {
            update_failed_requests += 1;
        }
    }
    update_server.shutdown();
    let update_stats = serving.update_stats();
    let repack_bytes_ratio = if update_stats.rebuild_bytes > 0 {
        update_stats.repack_bytes as f64 / update_stats.rebuild_bytes as f64
    } else {
        0.0
    };

    ContinuousBenchResult {
        layers: gemm_layers.len(),
        requests: requests.len(),
        window_us,
        windowed_wall_ms,
        zero_wall_ms,
        bit_identical,
        windowed_groups: stats.dispatched_groups,
        coalesced_requests: stats.coalesced_requests,
        windowed_panel_bytes,
        zero_panel_bytes,
        deadline_p50_ms: stats
            .class_percentile_ms(SloKind::Deadline, 0.50)
            .unwrap_or(0.0),
        deadline_p99_ms: stats
            .class_percentile_ms(SloKind::Deadline, 0.99)
            .unwrap_or(0.0),
        standard_p99_ms: stats
            .class_percentile_ms(SloKind::Standard, 0.99)
            .unwrap_or(0.0),
        bulk_p50_ms: stats
            .class_percentile_ms(SloKind::Bulk, 0.50)
            .unwrap_or(0.0),
        bulk_p99_ms: stats
            .class_percentile_ms(SloKind::Bulk, 0.99)
            .unwrap_or(0.0),
        cap_sweep,
        best_cap,
        overload_requests: requests.len(),
        overload_shed,
        overload_shed_rate: if overload_bulk_arrivals > 0 {
            overload_shed as f64 / overload_bulk_arrivals as f64
        } else {
            0.0
        },
        overload_deadline_p99_ms: overload_stats
            .class_percentile_ms(SloKind::Deadline, 0.99)
            .unwrap_or(0.0),
        overload_bulk_p99_ms: overload_stats
            .class_percentile_ms(SloKind::Bulk, 0.99)
            .unwrap_or(0.0),
        update_swaps: update_stats.swaps,
        update_swap_p99_ms: percentile(&swap_walls_ms, 0.99),
        repack_bytes_ratio,
        stale_plan_executes: update_stats.stale_plan_executes,
        update_failed_requests,
    }
}

/// Renders the plain-text serving report table.
pub fn to_table(results: &[ServingBenchResult]) -> String {
    let mut out = String::from(
        "Serving trace: cached plans vs per-request cold plan builds (mixed batch sizes)\n\
         model        | fwd | hit-rate | p50 ms  | p95 ms  | p99 ms  | served           | cold             | vs cold | bit-id | mt (reqs @ workers)\n\
         -------------+-----+----------+---------+---------+---------+------------------+------------------+---------+--------+--------------------\n",
    );
    for r in results {
        out.push_str(&format!(
            "{:12} | {:3} | {:7.1}% | {:7.2} | {:7.2} | {:7.2} | {:8.1} {:7} | {:8.1} {:7} | {:6.2}x | {:6} | {:.1} ms ({} @ {})\n",
            r.model,
            r.forwards,
            r.hit_rate * 100.0,
            r.p50_ms,
            r.p95_ms,
            r.p99_ms,
            r.throughput,
            r.unit,
            r.cold_throughput,
            r.unit,
            r.speedup_vs_cold(),
            r.bit_identical,
            r.mt_wall_ms,
            r.mt_requests,
            r.mt_workers,
        ));
    }
    out.push_str(
        "\nPanel sweep & cross-request coalescing\n\
         model        | probe segs | panel read / 1-sweep  | coalesced (reqs)    | vs fan-out | coal bit-id\n\
         -------------+------------+-----------------------+---------------------+------------+------------\n",
    );
    for r in results {
        out.push_str(&format!(
            "{:12} | {:10} | {:9} / {:9} B | {:9.1} ms ({:3}) | {:9.2}x | {}\n",
            r.model,
            r.panel_segments,
            r.panel_bytes_fused,
            r.panel_sweep_bytes,
            r.coalesced_wall_ms,
            r.coalesced_requests,
            r.coalescing_speedup(),
            r.coalesced_bit_identical,
        ));
    }
    out.push_str(
        "\nContinuous batching: windowed SLO-aware Server vs zero-window per-request baseline\n\
         model        | lyr | reqs | window  | windowed   | zero-win   | speedup | groups | coal reqs | panel cut | dl p50/p99 ms     | bulk p50/p99 ms   | bit-id\n\
         -------------+-----+------+---------+------------+------------+---------+--------+-----------+-----------+-------------------+-------------------+-------\n",
    );
    for r in results {
        let c = &r.continuous;
        out.push_str(&format!(
            "{:12} | {:3} | {:4} | {:4} us | {:7.1} ms | {:7.1} ms | {:6.2}x | {:6} | {:9} | {:8.2}x | {:7.2} / {:7.2} | {:7.2} / {:7.2} | {}\n",
            r.model,
            c.layers,
            c.requests,
            c.window_us,
            c.windowed_wall_ms,
            c.zero_wall_ms,
            c.window_speedup(),
            c.windowed_groups,
            c.coalesced_requests,
            c.panel_reduction(),
            c.deadline_p50_ms,
            c.deadline_p99_ms,
            c.bulk_p50_ms,
            c.bulk_p99_ms,
            c.bit_identical,
        ));
    }
    out.push_str(
        "\nOverload sub-trace: gap-free arrivals, one worker, bounded bulk class (bulk sheds; deadline holds)\n\
         model        | reqs | shed | shed rate | dl p99 ms | bulk p99 ms\n\
         -------------+------+------+-----------+-----------+------------\n",
    );
    for r in results {
        let c = &r.continuous;
        out.push_str(&format!(
            "{:12} | {:4} | {:4} | {:8.1}% | {:9.2} | {:10.2}\n",
            r.model,
            c.overload_requests,
            c.overload_shed,
            c.overload_shed_rate * 100.0,
            c.overload_deadline_p99_ms,
            c.overload_bulk_p99_ms,
        ));
    }
    out.push_str(
        "\nLive weight updates: same-pattern swaps under in-flight traffic (delta re-pack vs full rebuild)\n\
         model        | swaps | swap p99 ms | repack/rebuild B | stale execs | failed reqs\n\
         -------------+-------+-------------+------------------+-------------+------------\n",
    );
    for r in results {
        let c = &r.continuous;
        out.push_str(&format!(
            "{:12} | {:5} | {:11.2} | {:15.3}x | {:11} | {:11}\n",
            r.model,
            c.update_swaps,
            c.update_swap_p99_ms,
            c.repack_bytes_ratio,
            c.stale_plan_executes,
            c.update_failed_requests,
        ));
    }
    let mut decoded = false;
    for r in results {
        let Some(d) = &r.decode else { continue };
        if !decoded {
            out.push_str(
                "\nDecode sessions: iteration-level interleaved decode vs one-session-at-a-time serial\n\
                 model        | sess | steps | tokens | wall ms   | tok/s    | tok p50/p99 ms    | width | evict/resume | lost | bit-id | serial tok/s | vs serial\n\
                 -------------+------+-------+--------+-----------+----------+-------------------+-------+--------------+------+--------+--------------+----------\n",
            );
            decoded = true;
        }
        out.push_str(&format!(
            "{:12} | {:4} | {:5} | {:6} | {:9.1} | {:8.1} | {:7.2} / {:7.2} | {:5.1} | {:4} / {:5} | {:4} | {:6} | {:12.1} | {:7.2}x\n",
            r.model,
            d.sessions,
            d.steps,
            d.tokens,
            d.wall_ms,
            d.tokens_s,
            d.token_p50_ms,
            d.token_p99_ms,
            d.mean_interleave_width,
            d.evictions,
            d.resumed,
            d.lost_tokens,
            d.bit_identical,
            d.serial_tokens_s,
            d.interleave_speedup(),
        ));
    }
    let mut swept = false;
    for r in results {
        if r.continuous.cap_sweep.is_empty() {
            continue;
        }
        if !swept {
            out.push_str("\nCoalescing-cap sweep (atomic batch, zero window; best cap per model for this box)\n");
            swept = true;
        }
        let sweep: Vec<String> = r
            .continuous
            .cap_sweep
            .iter()
            .map(|(cap, ms)| format!("{cap}: {ms:.1} ms"))
            .collect();
        out.push_str(&format!(
            "{:12} | best cap {:4} | {}\n",
            r.model,
            r.continuous.best_cap,
            sweep.join(" | ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let samples = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&samples, 0.50), 2.0);
        assert_eq!(percentile(&samples, 0.95), 4.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn timed_widths_map_onto_warmed_buckets() {
        // The trace invariant the hit-rate gate rests on: every timed forward
        // runs on the plans the warmup built (one per layer), at widths the
        // warmup never ran, so keying plans by width (the regression the
        // gate exists for) would miss. (The full end-to-end trace runs as
        // the gated CI step `repro --bench-serving --smoke`; re-running it
        // here would double the suite's cost in debug mode.)
        for model in DnnModel::all() {
            for quick in [true, false] {
                let (warm, timed) = trace_batches(model, quick);
                // Exception: ResNet's conv plans are keyed per batch, so it
                // warms every timed batch (see `trace_batches`) and the
                // keying regression is the GEMM models' job to catch.
                if model == DnnModel::Resnet50 {
                    assert!(
                        timed.iter().all(|b| warm.contains(b)),
                        "{model} quick={quick}: a timed batch needs an unwarmed conv plan"
                    );
                } else {
                    assert!(
                        timed.iter().any(|b| !warm.contains(b)),
                        "{model} quick={quick}: trace has no unseen widths"
                    );
                }
            }
        }
    }

    #[test]
    fn table_renders_synthetic_results() {
        let results = vec![ServingBenchResult {
            model: "Transformer".into(),
            unit: "tokens/s",
            forwards: 16,
            hit_rate: 0.96,
            p50_ms: 10.0,
            p95_ms: 14.0,
            p99_ms: 16.0,
            throughput: 420.0,
            cold_throughput: 300.0,
            bit_identical: true,
            mt_workers: 4,
            mt_requests: 64,
            mt_wall_ms: 123.4,
            panel_segments: 5,
            panel_sweep_bytes: 1000,
            panel_bytes_fused: 1000,
            coalesced_requests: 64,
            coalesced_wall_ms: 61.7,
            coalesced_bit_identical: true,
            continuous: ContinuousBenchResult {
                layers: 6,
                requests: 96,
                window_us: 8_000,
                windowed_wall_ms: 50.0,
                zero_wall_ms: 100.0,
                bit_identical: true,
                windowed_groups: 30,
                coalesced_requests: 80,
                windowed_panel_bytes: 1000,
                zero_panel_bytes: 4000,
                deadline_p50_ms: 9.0,
                deadline_p99_ms: 12.0,
                standard_p99_ms: 20.0,
                bulk_p50_ms: 18.0,
                bulk_p99_ms: 30.0,
                cap_sweep: vec![(128, 70.0), (256, 60.0), (512, 65.0)],
                best_cap: 256,
                overload_requests: 96,
                overload_shed: 24,
                overload_shed_rate: 0.5,
                overload_deadline_p99_ms: 14.0,
                overload_bulk_p99_ms: 55.0,
                update_swaps: 8,
                update_swap_p99_ms: 3.5,
                repack_bytes_ratio: 0.125,
                stale_plan_executes: 2,
                update_failed_requests: 0,
            },
            decode: Some(DecodeBenchResult {
                sessions: 32,
                steps: 64,
                tokens: 2048,
                wall_ms: 400.0,
                tokens_s: 5120.0,
                token_p50_ms: 5.0,
                token_p99_ms: 9.0,
                mean_interleave_width: 24.5,
                evictions: 4,
                resumed: 4,
                lost_tokens: 0,
                bit_identical: true,
                serial_sessions: 4,
                serial_wall_ms: 200.0,
                serial_tokens_s: 1280.0,
            }),
        }];
        assert!((results[0].speedup_vs_cold() - 1.4).abs() < 1e-12);
        assert!((results[0].coalescing_speedup() - 2.0).abs() < 1e-12);
        assert!((results[0].continuous.window_speedup() - 2.0).abs() < 1e-12);
        assert!((results[0].continuous.panel_reduction() - 4.0).abs() < 1e-12);
        let table = to_table(&results);
        assert!(table.contains("Transformer") && table.contains("hit-rate"));
        assert!(table.contains("96.0%"));
        assert!(table.contains("panel read / 1-sweep"));
        assert!(table.contains("Continuous batching"));
        assert!(table.contains("Overload sub-trace"));
        assert!(table.contains("50.0%"));
        assert!(table.contains("Live weight updates"));
        assert!(table.contains("0.125x"));
        assert!((results[0].decode.as_ref().unwrap().interleave_speedup() - 4.0).abs() < 1e-12);
        assert!(table.contains("Decode sessions"));
        assert!(table.contains("4.00x"));
        assert!(table.contains("best cap  256"));
    }
}
