//! Wall-clock kernel benchmark: naive reference vs cold call vs prepared plan,
//! plus end-to-end model inference.
//!
//! `repro --bench-kernels` times every functional kernel three ways in the
//! same run —
//!
//! * **naive**: the retained scalar reference path
//!   (`shfl_kernels::reference`),
//! * **cold**: a kernel plan built for the single call and executed once
//!   (weight packing paid every call), and
//! * **prepared**: a plan built once outside the timer, executing repeatedly
//!   (the plan/execute split amortising the packing),
//!
//! — and runs the [`shfl_models::engine::ModelEngine`] end-to-end over
//! Transformer, GNMT and ResNet-50. Everything is written to
//! `BENCH_kernels.json` (schema **v2**: per-kernel naive/cold/plan-build/
//! prepared columns, the git revision, the thread count and SIMD tier, and
//! the model throughput section; [`crate::report::parse_json`] reads it back
//! by key). The two headline entries (1024³ dense GEMM and Shfl-BW SpMM at
//! 70 % sparsity) carry a ≥5× naive-over-cold target; the Shfl-BW headline
//! additionally carries a ≥1.35× prepared-over-cold regression gate. Each
//! entry records whether all three paths produced bit-identical outputs, so a
//! perf regression and a correctness drift both show up in the same artifact.
//!
//! The ResNet-50 model record additionally carries a `conv_implicit` section
//! on the implicit-GEMM conv plans: wall-clock and images/s of the implicit
//! forward, the transform bytes it reads, the im2col bytes it avoids, a
//! bit-identity flag against the cold im2col oracle, and the counter-verified
//! im2col bytes charged during an implicit forward (gated to 0 by `repro`).

use crate::synth;
use gpu_sim::GpuArch;
use rand::rngs::StdRng;
use rand::SeedableRng;
use shfl_core::formats::{BlockSparseMatrix, VectorWiseMatrix};
use shfl_core::matrix::DenseMatrix;
use shfl_kernels::plan::SpmmPlan;
use shfl_kernels::{conv, reference};
use shfl_models::engine::{EngineConfig, ModelEngine};
use shfl_models::DnnModel;
use std::time::Instant;

/// One benchmarked kernel: wall-clock of the naive, cold and prepared paths.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Row label: the kernel it exercises, e.g. `"shfl_bw_spmm"`.
    pub kernel: String,
    /// Problem shape, e.g. `"1024x1024x1024"`.
    pub shape: String,
    /// Wall-clock of the naive reference path in milliseconds (best of
    /// `REPEATS` runs, same policy as the other paths so the ratios are
    /// comparable run-to-run).
    pub naive_ms: f64,
    /// Wall-clock of the cold call (plan built per call) in milliseconds
    /// (best of `REPEATS` runs).
    pub cold_ms: f64,
    /// Wall-clock of building the plan once, in milliseconds (best of
    /// `REPEATS` runs).
    pub plan_build_ms: f64,
    /// Wall-clock of one prepared execute in milliseconds (best of
    /// `REPEATS` runs on a plan built outside the timer).
    pub prepared_ms: f64,
    /// Whether all three paths produced bit-identical outputs.
    pub bit_identical: bool,
    /// Whether this entry carries the ≥5× naive-over-cold acceptance target.
    pub headline: bool,
}

impl BenchResult {
    /// Naive-over-cold wall-clock ratio (the trajectory metric). The
    /// denominator is floored at 1 ns so a sub-clock-tick measurement yields a
    /// large finite ratio instead of `inf`/`NaN` (which would corrupt the
    /// JSON artifact).
    pub fn speedup(&self) -> f64 {
        self.naive_ms / self.cold_ms.max(1e-6)
    }

    /// Cold-over-prepared wall-clock ratio: what one-time weight pre-packing
    /// buys per call (denominator floored like [`BenchResult::speedup`]).
    pub fn prepared_speedup(&self) -> f64 {
        self.cold_ms / self.prepared_ms.max(1e-6)
    }
}

/// Implicit-GEMM convolution numbers of one model (recorded for ResNet-50,
/// the conv-dominated workload).
#[derive(Debug, Clone)]
pub struct ConvImplicitBench {
    /// Bytes of the in-place layout buffer one implicit forward reads,
    /// summed over conv-layer repeat counts.
    pub input_bytes_read: u64,
    /// Bytes of materialisation the implicit path avoids per forward: the
    /// unfolded `K × N` f32 operand plus its fp16 staging copy (`2·K·N·4`),
    /// summed over conv-layer repeat counts.
    pub im2col_bytes_avoided: u64,
    /// Best wall-clock of one implicit-conv forward pass, ms.
    pub implicit_ms: f64,
    /// Functional throughput of the implicit path (images/s).
    pub implicit_images_s: f64,
    /// Whether the implicit outputs were bit-identical to the cold
    /// materialised-im2col oracle.
    pub bit_identical: bool,
    /// Bytes charged to the global im2col traffic counter during one
    /// implicit forward — the counter-verified proof that the implicit path
    /// materialises nothing (must be 0).
    pub im2col_bytes_on_implicit: u64,
}

/// End-to-end numbers of one model on the prepared engine.
#[derive(Debug, Clone)]
pub struct ModelBenchResult {
    /// Model name (`Transformer`, `GNMT`, `ResNet50`).
    pub model: String,
    /// Batch size of the run.
    pub batch: usize,
    /// Sequence length (1 where not applicable).
    pub seq_len: usize,
    /// Number of prepared (unique) layers.
    pub layers: usize,
    /// One-time plan-phase cost in milliseconds.
    pub build_ms: f64,
    /// Wall-clock of one forward pass in milliseconds.
    pub forward_ms: f64,
    /// Functional-simulation throughput (items per second).
    pub throughput: f64,
    /// Modeled GPU throughput from the analytical profiles (items/second).
    pub modeled_throughput: f64,
    /// Throughput unit: `"tokens/s"` or `"images/s"`.
    pub unit: &'static str,
    /// Mixed-size serving-trace numbers ([`crate::bench_serving`]): hit rate,
    /// latency percentiles, cached-vs-cold throughput.
    pub serving: Option<crate::bench_serving::ServingBenchResult>,
    /// Implicit-GEMM convolution numbers (ResNet-50 only; `None` for models
    /// without convolutions).
    pub conv_implicit: Option<ConvImplicitBench>,
}

/// Everything one `repro --bench-kernels` invocation produces.
#[derive(Debug, Clone)]
pub struct BenchRun {
    /// Per-kernel naive/cold/prepared timings.
    pub kernels: Vec<BenchResult>,
    /// Per-model end-to-end numbers.
    pub models: Vec<ModelBenchResult>,
}

/// All paths are timed best-of-N under the same policy; an asymmetric policy
/// (single naive run vs best-of-N elsewhere) would let one path shed
/// cold-cache noise the others absorb and skew the ratios. Five repeats keep
/// the cold/prepared ratios stable on shared machines.
const REPEATS: usize = 5;

fn time_once<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Interleaved best-of-[`REPEATS`] timing of the four paths of one kernel:
/// every repetition measures naive, cold, plan-build and prepared back to
/// back, so a slow scheduling window on a shared machine inflates all four
/// instead of skewing one side of a ratio. The returned outputs come from each
/// path's best repetition.
#[allow(clippy::type_complexity)] // one (output, ms) pair per timed path
fn time_paths<N, C, P>(
    mut naive: impl FnMut() -> N,
    mut cold: impl FnMut() -> C,
    mut build: impl FnMut(),
    mut prepared: impl FnMut() -> P,
) -> ((N, f64), (C, f64), f64, (P, f64)) {
    // Untimed warmup: fault in buffers, settle the allocator and branch
    // predictors, and let the cold/prepared pair see the same cache state
    // their timed repetitions will.
    let _ = cold();
    let _ = prepared();
    // Within a repetition the order is naive → build → cold → prepared, so
    // the two sides of the cold/prepared ratio run back to back with the same
    // predecessor footprint (the naive pass thrashes the caches; the plan
    // build that follows touches the weight operand either way).
    let (mut n_out, mut n_ms) = time_once(&mut naive);
    let ((), mut build_ms) = time_once(&mut build);
    let (mut c_out, mut c_ms) = time_once(&mut cold);
    let (mut p_out, mut p_ms) = time_once(&mut prepared);
    for _ in 1..REPEATS {
        let (out, ms) = time_once(&mut naive);
        if ms < n_ms {
            (n_out, n_ms) = (out, ms);
        }
        let ((), ms) = time_once(&mut build);
        build_ms = build_ms.min(ms);
        let (out, ms) = time_once(&mut cold);
        if ms < c_ms {
            (c_out, c_ms) = (out, ms);
        }
        let (out, ms) = time_once(&mut prepared);
        if ms < p_ms {
            (p_out, p_ms) = (out, ms);
        }
    }
    ((n_out, n_ms), (c_out, c_ms), build_ms, (p_out, p_ms))
}

/// Times one kernel row with [`time_paths`]: the naive oracle, a cold call
/// (`build` then one execute, the plan dropped inside the timer), `build`
/// alone, and `execute` on a plan built outside the timer. The row is
/// bit-identical when the cold and prepared outputs equal the naive one.
fn bench_row<P>(
    kernel: &str,
    shape: String,
    headline: bool,
    naive: impl FnMut() -> DenseMatrix,
    build: impl Fn() -> P,
    execute: impl Fn(&P) -> DenseMatrix,
) -> BenchResult {
    let plan = build();
    let ((naive_out, naive_ms), (cold_out, cold_ms), plan_build_ms, (prepared_out, prepared_ms)) =
        time_paths(
            naive,
            || execute(&build()),
            || drop(build()),
            || execute(&plan),
        );
    BenchResult {
        kernel: kernel.to_string(),
        shape,
        naive_ms,
        cold_ms,
        plan_build_ms,
        prepared_ms,
        bit_identical: bits_equal(&naive_out, &cold_out) && bits_equal(&naive_out, &prepared_out),
        headline,
    }
}

fn bits_equal(a: &DenseMatrix, b: &DenseMatrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice().iter())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The current git revision (short, with a `-dirty` suffix when the working
/// tree has uncommitted changes), or `"unknown"` outside a checkout — so the
/// trajectory never attributes numbers to code that did not produce them.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs the full kernel + model benchmark suite. `quick` shrinks every shape
/// (used by the unit test and `repro --bench-kernels --smoke` so CI does not
/// pay the full 1024³ naive GEMM).
pub fn run(quick: bool) -> BenchRun {
    let arch = GpuArch::v100();
    let shape = arch.mma_shape;
    let mut rng = StdRng::seed_from_u64(20220711);
    let mut kernels = Vec::new();

    // Headline 1: dense GEMM, 1024³ (the acceptance shape).
    let s = if quick { 96 } else { 1024 };
    let a = DenseMatrix::random(&mut rng, s, s);
    let b = DenseMatrix::random(&mut rng, s, s);
    kernels.push(bench_row(
        "dense_gemm",
        format!("{s}x{s}x{s}"),
        true,
        || reference::fragment_matmul_naive(shape, &a, &b),
        || SpmmPlan::dense(&arch, &a, s),
        |plan| plan.execute(&b).expect("k matches").output,
    ));

    // Headline 2: Shfl-BW SpMM at 70 % sparsity (density 0.30).
    let (m, k, n, v) = if quick {
        (128, 128, 64, 16)
    } else {
        (1024, 1024, 256, 64)
    };
    let shfl = synth::shfl_bw_matrix(7, m, k, v, 0.30);
    let b = DenseMatrix::random(&mut rng, k, n);
    kernels.push(bench_row(
        "shfl_bw_spmm",
        format!("{m}x{k}x{n} V={v} 70% sparse"),
        true,
        || reference::stitched_spmm_naive(&arch, shfl.vector_wise(), &b, shfl.row_indices()),
        || SpmmPlan::shfl_bw(&arch, &shfl, n),
        |plan| plan.execute(&b).expect("k matches").output,
    ));

    // Trajectory entries: the remaining kernels on moderate shapes.
    let (m, k, n, v) = if quick {
        (64, 64, 32, 8)
    } else {
        (512, 512, 128, 32)
    };
    let b = DenseMatrix::random(&mut rng, k, n);
    let execute = |plan: &SpmmPlan| plan.execute(&b).expect("k matches").output;

    let vw_dense = synth::vector_wise_dense(11, m, k, v, 0.30);
    let vw = VectorWiseMatrix::from_dense(&vw_dense, v).expect("m divides v");
    let identity: Vec<u32> = (0..m as u32).collect();
    kernels.push(bench_row(
        "vector_wise_spmm",
        format!("{m}x{k}x{n} V={v}"),
        false,
        || reference::stitched_spmm_naive(&arch, &vw, &b, &identity),
        || SpmmPlan::vector_wise(&arch, &vw, n),
        execute,
    ));

    let csr = synth::unstructured_csr(13, m, k, 0.30);
    kernels.push(bench_row(
        "cuda_core_spmm",
        format!("{m}x{k}x{n}"),
        false,
        || reference::csr_spmm_naive(&csr, &b),
        || SpmmPlan::cuda_core(&arch, &csr, n),
        execute,
    ));

    let bsr: BlockSparseMatrix = synth::block_wise_matrix(17, m, k, v, 0.30);
    kernels.push(bench_row(
        "block_wise_spmm",
        format!("{m}x{k}x{n} V={v}"),
        false,
        || reference::block_spmm_naive(&arch, &bsr, &b),
        || SpmmPlan::block_wise(&arch, &bsr, n),
        execute,
    ));

    let a100 = GpuArch::a100();
    let bal = synth::balanced_matrix(19, m, k);
    kernels.push(bench_row(
        "balanced_spmm",
        format!("{m}x{k}x{n} 2:4"),
        false,
        || reference::balanced_spmm_naive(&a100, &bal, &b),
        || SpmmPlan::balanced(&a100, &bal, n).expect("supported on A100"),
        execute,
    ));

    // End-to-end: one prepared engine per model, repeated forward passes.
    let cfg = if quick {
        EngineConfig::smoke()
    } else {
        EngineConfig::paper_default()
    };
    // The serving trace rides along in full runs only: the smoke path keeps
    // CI cheap (the workflow runs `repro --bench-serving --smoke` as its own
    // gated step instead).
    let mut serving_by_model: std::collections::HashMap<String, _> = if quick {
        std::collections::HashMap::new()
    } else {
        crate::bench_serving::run(false)
            .into_iter()
            .map(|r| (r.model.clone(), r))
            .collect()
    };
    let mut models = Vec::new();
    for model in DnnModel::all() {
        let engine = ModelEngine::build(model, &arch, &cfg).expect("engine builds");
        let report = engine.run_best_of(if quick { 1 } else { REPEATS });
        let conv_implicit = (model == DnnModel::Resnet50)
            .then(|| bench_conv_implicit(&engine, cfg.batch, cfg.seq_len, quick));
        models.push(ModelBenchResult {
            model: model.name().to_string(),
            batch: report.batch,
            seq_len: report.seq_len,
            layers: report.layers.len(),
            build_ms: report.build_ms,
            forward_ms: report.forward_ms,
            throughput: report.throughput_per_s(),
            modeled_throughput: report.modeled_throughput_per_s(),
            unit: report.unit,
            serving: serving_by_model.remove(model.name()),
            conv_implicit,
        });
    }

    BenchRun { kernels, models }
}

/// Times the implicit-GEMM conv path on one engine (best-of, like
/// [`time_paths`]), checks bit-identity against the cold im2col oracle, and
/// counter-verifies that the implicit forwards charge **zero** bytes to the
/// global im2col traffic counter.
fn bench_conv_implicit(
    engine: &ModelEngine,
    batch: usize,
    seq_len: usize,
    quick: bool,
) -> ConvImplicitBench {
    let reps = if quick { 1 } else { REPEATS };
    // Warm up: fault in the conv plans so the timed repetitions measure
    // steady-state serving, not first-touch costs.
    let _ = engine.forward(batch, seq_len).expect("implicit forward");

    // Counter-verified proof that the implicit path materialises nothing: the
    // global im2col traffic counter must not move across an implicit forward.
    let before = conv::im2col_traffic_bytes();
    let mut implicit = engine.forward(batch, seq_len).expect("implicit forward");
    let im2col_bytes_on_implicit = conv::im2col_traffic_bytes() - before;
    for _ in 1..reps {
        let next = engine.forward(batch, seq_len).expect("implicit forward");
        if next.forward_ms < implicit.forward_ms {
            implicit = next;
        }
    }

    // Bit-identity gate: the implicit per-layer outputs against the cold
    // materialised-im2col oracle (fresh exact-width plans, no plan cache).
    let implicit_outs = engine.forward_outputs(batch, seq_len).expect("outputs");
    let oracle_outs = engine
        .forward_outputs_cold(batch, seq_len)
        .expect("cold outputs");
    let bit_identical = implicit_outs.len() == oracle_outs.len()
        && implicit_outs
            .iter()
            .zip(oracle_outs.iter())
            .all(|(a, b)| bits_equal(a, b));

    let (input_bytes_read, im2col_bytes_avoided) = engine
        .conv_transform_bytes(batch)
        .expect("conv plans are cached after the forwards");
    ConvImplicitBench {
        input_bytes_read,
        im2col_bytes_avoided,
        implicit_ms: implicit.forward_ms,
        implicit_images_s: implicit.throughput_per_s(),
        bit_identical,
        im2col_bytes_on_implicit,
    }
}

/// Renders the plain-text report table.
pub fn to_table(run: &BenchRun) -> String {
    let mut out = String::from(
        "Kernel wall-clock: naive reference vs cold call vs prepared plan\n\
         kernel                     | shape                      | naive ms | cold ms  | build ms | prepared ms | speedup | prep-speedup | bit-identical\n\
         ---------------------------+----------------------------+----------+----------+----------+-------------+---------+--------------+--------------\n",
    );
    for r in &run.kernels {
        out.push_str(&format!(
            "{:26} | {:26} | {:8.2} | {:8.2} | {:8.2} | {:11.2} | {:6.1}x | {:11.2}x | {}{}\n",
            r.kernel,
            r.shape,
            r.naive_ms,
            r.cold_ms,
            r.plan_build_ms,
            r.prepared_ms,
            r.speedup(),
            r.prepared_speedup(),
            r.bit_identical,
            if r.headline {
                "  [headline, target >=5x]"
            } else {
                ""
            }
        ));
    }
    out.push_str(
        "\nEnd-to-end model inference (prepared engine, one plan per layer)\n\
         model        | batch | seq | layers | build ms | forward ms | throughput       | modeled GPU\n\
         -------------+-------+-----+--------+----------+------------+------------------+----------------\n",
    );
    for m in &run.models {
        out.push_str(&format!(
            "{:12} | {:5} | {:3} | {:6} | {:8.1} | {:10.2} | {:9.1} {:6} | {:9.1} {}\n",
            m.model,
            m.batch,
            m.seq_len,
            m.layers,
            m.build_ms,
            m.forward_ms,
            m.throughput,
            m.unit,
            m.modeled_throughput,
            m.unit,
        ));
    }
    for m in &run.models {
        let Some(c) = &m.conv_implicit else { continue };
        out.push_str(&format!(
            "\nImplicit-GEMM convolution ({})\n\
             implicit ms | implicit img/s | transform bytes | im2col bytes avoided | im2col bytes on implicit | bit-identical\n\
             {:11.2} | {:14.1} | {:15} | {:20} | {:24} | {}\n",
            m.model,
            c.implicit_ms,
            c.implicit_images_s,
            c.input_bytes_read,
            c.im2col_bytes_avoided,
            c.im2col_bytes_on_implicit,
            c.bit_identical,
        ));
    }
    let serving: Vec<_> = run
        .models
        .iter()
        .filter_map(|m| m.serving.clone())
        .collect();
    if !serving.is_empty() {
        out.push('\n');
        out.push_str(&crate::bench_serving::to_table(&serving));
    }
    out
}

/// Serialises the results as the `BENCH_kernels.json` v2 document (hand-rolled
/// JSON: the offline build has no serde).
pub fn to_json(run: &BenchRun) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"shfl-bw-repro/bench-kernels/v2\",\n");
    out.push_str(&format!(
        "  \"threads\": {},\n",
        std::thread::available_parallelism().map_or(1, usize::from)
    ));
    out.push_str(&format!(
        "  \"simd\": \"{}\",\n",
        gpu_sim::simd::active_tier().label()
    ));
    out.push_str(&format!("  \"git_rev\": \"{}\",\n", esc(&git_rev())));
    out.push_str("  \"results\": [\n");
    for (i, r) in run.kernels.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"shape\": \"{}\", \"naive_ms\": {:.3}, \
             \"cold_ms\": {:.3}, \"plan_build_ms\": {:.3}, \"prepared_ms\": {:.3}, \
             \"speedup\": {:.2}, \"prepared_speedup\": {:.2}, \"bit_identical\": {}, \
             \"headline\": {}}}{}\n",
            esc(&r.kernel),
            esc(&r.shape),
            r.naive_ms,
            r.cold_ms,
            r.plan_build_ms,
            r.prepared_ms,
            r.speedup(),
            r.prepared_speedup(),
            r.bit_identical,
            r.headline,
            if i + 1 < run.kernels.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"models\": [\n");
    for (i, m) in run.models.iter().enumerate() {
        let serving = match &m.serving {
            Some(s) => {
                let c = &s.continuous;
                let decode = match &s.decode {
                    Some(d) => format!(
                        ", \"decode\": {{\"sessions\": {}, \"steps\": {}, \
                         \"tokens\": {}, \"wall_ms\": {:.3}, \
                         \"decode_tokens_s\": {:.2}, \"token_p50_ms\": {:.3}, \
                         \"token_p99_ms\": {:.3}, \
                         \"mean_interleave_width\": {:.3}, \"evictions\": {}, \
                         \"resumed\": {}, \"lost_tokens\": {}, \
                         \"bit_identical\": {}, \"serial_sessions\": {}, \
                         \"serial_wall_ms\": {:.3}, \"serial_tokens_s\": {:.2}}}",
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
                        d.serial_sessions,
                        d.serial_wall_ms,
                        d.serial_tokens_s,
                    ),
                    None => String::new(),
                };
                format!(
                    ", \"serving\": {{\"forwards\": {}, \"hit_rate\": {:.4}, \
                     \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}, \
                     \"throughput\": {:.2}, \"cold_throughput\": {:.2}, \
                     \"bit_identical\": {}, \"mt_workers\": {}, \"mt_requests\": {}, \
                     \"mt_wall_ms\": {:.3}, \"panel_segments\": {}, \
                     \"panel_sweep_bytes\": {}, \"panel_bytes_fused\": {}, \
                     \"coalesced_requests\": {}, \
                     \"coalesced_wall_ms\": {:.3}, \"coalesced_bit_identical\": {}, \
                     \"continuous\": {{\"layers\": {}, \"requests\": {}, \
                     \"window_us\": {}, \"windowed_wall_ms\": {:.3}, \
                     \"zero_wall_ms\": {:.3}, \"bit_identical\": {}, \
                     \"windowed_groups\": {}, \"coalesced_requests\": {}, \
                     \"windowed_panel_bytes\": {}, \"zero_panel_bytes\": {}, \
                     \"deadline_p50_ms\": {:.3}, \"deadline_p99_ms\": {:.3}, \
                     \"standard_p99_ms\": {:.3}, \"bulk_p50_ms\": {:.3}, \
                     \"bulk_p99_ms\": {:.3}, \"best_cap\": {}, \
                     \"overload_requests\": {}, \"overload_shed\": {}, \
                     \"overload_shed_rate\": {:.4}, \
                     \"overload_deadline_p99_ms\": {:.3}, \
                     \"overload_bulk_p99_ms\": {:.3}, \
                     \"update_swaps\": {}, \"update_swap_p99_ms\": {:.3}, \
                     \"repack_bytes_ratio\": {:.4}, \
                     \"stale_plan_executes\": {}, \
                     \"update_failed_requests\": {}}}{decode}}}",
                    s.forwards,
                    s.hit_rate,
                    s.p50_ms,
                    s.p95_ms,
                    s.p99_ms,
                    s.throughput,
                    s.cold_throughput,
                    s.bit_identical,
                    s.mt_workers,
                    s.mt_requests,
                    s.mt_wall_ms,
                    s.panel_segments,
                    s.panel_sweep_bytes,
                    s.panel_bytes_fused,
                    s.coalesced_requests,
                    s.coalesced_wall_ms,
                    s.coalesced_bit_identical,
                    c.layers,
                    c.requests,
                    c.window_us,
                    c.windowed_wall_ms,
                    c.zero_wall_ms,
                    c.bit_identical,
                    c.windowed_groups,
                    c.coalesced_requests,
                    c.windowed_panel_bytes,
                    c.zero_panel_bytes,
                    c.deadline_p50_ms,
                    c.deadline_p99_ms,
                    c.standard_p99_ms,
                    c.bulk_p50_ms,
                    c.bulk_p99_ms,
                    c.best_cap,
                    c.overload_requests,
                    c.overload_shed,
                    c.overload_shed_rate,
                    c.overload_deadline_p99_ms,
                    c.overload_bulk_p99_ms,
                    c.update_swaps,
                    c.update_swap_p99_ms,
                    c.repack_bytes_ratio,
                    c.stale_plan_executes,
                    c.update_failed_requests,
                )
            }
            None => String::new(),
        };
        let conv = match &m.conv_implicit {
            Some(c) => format!(
                ", \"conv_implicit\": {{\"input_bytes_read\": {}, \
                 \"im2col_bytes_avoided\": {}, \"implicit_ms\": {:.3}, \
                 \"implicit_images_s\": {:.2}, \"bit_identical\": {}, \
                 \"im2col_bytes_on_implicit\": {}}}",
                c.input_bytes_read,
                c.im2col_bytes_avoided,
                c.implicit_ms,
                c.implicit_images_s,
                c.bit_identical,
                c.im2col_bytes_on_implicit,
            ),
            None => String::new(),
        };
        out.push_str(&format!(
            "    {{\"model\": \"{}\", \"batch\": {}, \"seq_len\": {}, \"layers\": {}, \
             \"build_ms\": {:.3}, \"forward_ms\": {:.3}, \"throughput\": {:.2}, \
             \"modeled_throughput\": {:.2}, \"unit\": \"{}\"{}{}}}{}\n",
            esc(&m.model),
            m.batch,
            m.seq_len,
            m.layers,
            m.build_ms,
            m.forward_ms,
            m.throughput,
            m.modeled_throughput,
            esc(m.unit),
            serving,
            conv,
            if i + 1 < run.models.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_is_bit_identical_and_json_is_well_formed() {
        use crate::report::{parse_json, Json};
        let run = run(true);
        assert_eq!(run.kernels.len(), 6);
        assert!(run.kernels.iter().all(|r| r.bit_identical), "{run:?}");
        assert_eq!(run.kernels.iter().filter(|r| r.headline).count(), 2);
        assert_eq!(run.models.len(), 3);
        assert!(run.models.iter().all(|m| m.forward_ms > 0.0));
        // The conv section rides on ResNet-50 only, and its implicit path
        // must be bit-identical to the cold materialised-im2col oracle.
        let conv: Vec<_> = run
            .models
            .iter()
            .filter_map(|m| m.conv_implicit.as_ref())
            .collect();
        assert_eq!(conv.len(), 1);
        assert!(conv[0].bit_identical, "{:?}", conv[0]);
        assert!(conv[0].input_bytes_read > 0);
        assert!(conv[0].im2col_bytes_avoided > conv[0].input_bytes_read);

        // The JSON parses, and every row and model reads back by key.
        let doc = parse_json(&to_json(&run)).expect("well-formed JSON");
        assert!(doc.get("git_rev").and_then(Json::as_str).is_some());
        let rows = doc.get("results").and_then(Json::as_array).unwrap();
        let names: Vec<_> = rows
            .iter()
            .map(|r| r.get("kernel").and_then(Json::as_str).unwrap())
            .collect();
        let want: Vec<_> = run.kernels.iter().map(|r| r.kernel.as_str()).collect();
        assert_eq!(names, want);
        assert!(names.contains(&"dense_gemm") && names.contains(&"shfl_bw_spmm"));
        for row in rows {
            for key in ["naive_ms", "cold_ms", "plan_build_ms", "prepared_ms"] {
                assert!(row.get(key).and_then(Json::as_f64).is_some(), "{key}");
            }
            assert_eq!(row.get("bit_identical").and_then(Json::as_bool), Some(true));
        }
        let models = doc.get("models").and_then(Json::as_array).unwrap();
        let model = |name| {
            models
                .iter()
                .find(|m| m.get("model").and_then(Json::as_str) == Some(name))
        };
        assert!(model("Transformer").is_some() && model("GNMT").is_some());
        let conv = model("ResNet50")
            .and_then(|m| m.get("conv_implicit"))
            .unwrap();
        assert_eq!(
            conv.get("bit_identical").and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(
            conv.get("im2col_bytes_on_implicit").and_then(Json::as_f64),
            Some(0.0)
        );
        let table = to_table(&run);
        assert!(table.contains("headline"));
        assert!(table.contains("ResNet50"));
    }
}
