//! `forward_resnet50`: a closed loop of one caller running ResNet-50 batch-4
//! forwards back to back. One forward runs every inventory layer `count`
//! times, in order, through `ModelEngine::serve_conv` (and `serve_gemm` for
//! the classifier), on inputs synthesised once from the seed.
//!
//! Almost all of the time is spent in the implicit-GEMM conv plans. The
//! workload never touches the server, bucket padding, coalescing or decode
//! sessions, so a change to dispatch or sessions must read "no change" here.

use crate::stats::{fingerprint, ratio, required_percentile, Metrics};
use crate::trace::{self_times_ns, Tracer};
use crate::{Outcome, Phase, RunConfig};
use gpu_sim::GpuArch;
use rand::rngs::StdRng;
use rand::SeedableRng;
use shfl_core::matrix::DenseMatrix;
use shfl_kernels::conv::{self, Conv2dParams, Tensor4};
use shfl_models::{model_workload, DnnModel, EngineConfig, LayerKind, ModelEngine};
use std::time::{Duration, Instant};

/// Images per forward.
pub const BATCH: usize = 4;
/// A run measures at least this many forwards, however long they take, so
/// every per-layer median has ten calls beyond it.
const MIN_FORWARDS: usize = 20;

/// One inventory layer with its synthesised input. Its position in the
/// inventory is its `ModelEngine` layer index.
struct LayerInput {
    name: String,
    count: usize,
    input: Input,
}

enum Input {
    Conv(Tensor4, Conv2dParams),
    Gemm(DenseMatrix),
}

/// One call: the layer it ran and its output fingerprint (`None` when the
/// call failed).
type Call = (usize, Option<u64>);

/// The conv geometry the engine registers for an inventory layer.
fn conv_params(kind: &LayerKind) -> Option<Conv2dParams> {
    match *kind {
        LayerKind::Conv2d {
            batch,
            in_channels,
            out_channels,
            input_hw,
            kernel,
            stride,
            padding,
        } => Some(Conv2dParams {
            batch,
            in_channels,
            out_channels,
            input_h: input_hw,
            input_w: input_hw,
            kernel_h: kernel,
            kernel_w: kernel,
            stride,
            padding,
            dilation: 1,
        }),
        LayerKind::Gemm { .. } => None,
    }
}

fn synthesize_inputs(seed: u64) -> Vec<LayerInput> {
    let mut rng = StdRng::seed_from_u64(seed);
    model_workload(DnnModel::Resnet50, BATCH, 1)
        .into_iter()
        .map(|layer| {
            let input = match (conv_params(&layer.kind), layer.kind) {
                (Some(p), _) => Input::Conv(
                    Tensor4::random(&mut rng, BATCH, p.in_channels, p.input_h, p.input_w),
                    p,
                ),
                (None, LayerKind::Gemm { n, k, .. }) => {
                    Input::Gemm(DenseMatrix::random(&mut rng, k, n))
                }
                (None, LayerKind::Conv2d { .. }) => unreachable!("conv layers have params"),
            };
            LayerInput {
                name: layer.name,
                count: layer.count,
                input,
            }
        })
        .collect()
}

/// One call through the engine's public serving entry points: its start,
/// its end, and the fingerprint of its output (taken after the end).
fn call(engine: &ModelEngine, index: usize, layer: &LayerInput) -> (Instant, Instant, Option<u64>) {
    let start = Instant::now();
    match &layer.input {
        Input::Conv(input, _) => {
            let out = engine.serve_conv(index, input);
            let end = Instant::now();
            (start, end, out.ok().map(|t| fingerprint(t.as_slice())))
        }
        Input::Gemm(acts) => {
            let out = engine.serve_gemm(index, acts);
            let end = Instant::now();
            (start, end, out.ok().map(|m| fingerprint(m.as_slice())))
        }
    }
}

/// The im2col oracle of one layer: `conv::im2col`, the materialised operand
/// on a fresh exact-width plan (`execute_cold`), then `col2im_output`.
fn oracle(engine: &ModelEngine, layer: &LayerInput) -> Result<u64, String> {
    let serving = engine.serving();
    let fail = |e| format!("oracle for {}: {e}", layer.name);
    let id = serving
        .layer_index(&layer.name)
        .ok_or_else(|| format!("layer {} is not registered", layer.name))?;
    Ok(match &layer.input {
        Input::Conv(input, params) => {
            let unfolded = conv::im2col(input, params);
            let out = serving.execute_cold(id, &unfolded).map_err(fail)?;
            fingerprint(conv::col2im_output(&out, params).as_slice())
        }
        Input::Gemm(acts) => fingerprint(serving.execute_cold(id, acts).map_err(fail)?.as_slice()),
    })
}

/// Engine build plus one warm call per layer: conv plans and the
/// classifier's bucket plan are built lazily on first use.
fn setup(inputs: &[LayerInput]) -> Result<(ModelEngine, Vec<Call>), String> {
    let engine = ModelEngine::build(
        DnnModel::Resnet50,
        &GpuArch::v100(),
        &EngineConfig::paper_default(),
    )
    .map_err(|e| format!("building the ResNet-50 engine: {e}"))?;
    let warm = inputs
        .iter()
        .enumerate()
        .map(|(i, layer)| (i, call(&engine, i, layer).2))
        .collect();
    Ok((engine, warm))
}

pub fn run(cfg: &RunConfig, tracer: &Tracer) -> Result<Outcome, String> {
    let inputs = synthesize_inputs(cfg.seed);
    let mut setup_s = Vec::with_capacity(cfg.setups);
    let mut engine = None;
    let mut warm_calls = Vec::new();
    for _ in 0..cfg.setups {
        drop(engine.take());
        let start = Instant::now();
        let (built, warm) = setup(&inputs)?;
        setup_s.push(start.elapsed().as_secs_f64());
        warm_calls.extend(warm);
        engine = Some(built);
    }
    let engine = engine.ok_or("no set-up ran")?;

    let span_names: Vec<String> = inputs
        .iter()
        .map(|l| match l.input {
            Input::Conv(..) => format!("serve_conv:{}", l.name),
            Input::Gemm(_) => format!("serve_gemm:{}", l.name),
        })
        .collect();
    let before = crate::EngineSnapshot::take(engine.serving());
    let mut forward_ms = Vec::new();
    let mut calls: Vec<Call> = Vec::new();
    let limit = Duration::from_secs_f64(cfg.seconds);
    let t0 = Instant::now();
    while t0.elapsed() < limit || forward_ms.len() < MIN_FORWARDS {
        let forward = forward_ms.len() as u64;
        let forward_span = tracer.reserve();
        let forward_start = Instant::now();
        let mut busy = Duration::ZERO;
        for (i, layer) in inputs.iter().enumerate() {
            for _ in 0..layer.count {
                let (start, end, fp) = call(&engine, i, layer);
                busy += end - start;
                tracer.record(0, span_names[i].as_str(), forward_span, forward, start, end);
                calls.push((i, fp));
            }
        }
        tracer.record(
            forward_span,
            "forward",
            0,
            forward,
            forward_start,
            Instant::now(),
        );
        // The forward's time is the sum of its calls: fingerprinting the
        // outputs between calls is the benchmark's work, not the engine's.
        forward_ms.push(busy.as_secs_f64() * 1e3);
    }

    // Snapshot after the timed region: the plans are cached, so it is free.
    let (transform_bytes, im2col_avoided) = engine
        .conv_transform_bytes(BATCH)
        .map_err(|e| format!("conv_transform_bytes: {e}"))?;

    // Correctness, outside the timed region: every call's output against
    // the im2col oracle of its layer.
    let expected: Vec<u64> = inputs
        .iter()
        .map(|l| oracle(&engine, l))
        .collect::<Result<_, _>>()?;
    let tally = |calls: &[Call], name: &'static str| {
        let mut phase = Phase::new(name);
        for &(i, fp) in calls {
            phase.sent += 1;
            match fp {
                Some(fp) if fp == expected[i] => phase.succeeded += 1,
                Some(_) => phase.wrong += 1,
                None => phase.failed += 1,
            }
        }
        phase
    };
    let phases = vec![tally(&warm_calls, "warmup"), tally(&calls, "measure")];

    let total_ms: f64 = forward_ms.iter().sum();
    let mut named = Metrics::default();
    named.push(
        "forward_images_s",
        "images/s",
        ratio((BATCH * forward_ms.len()) as f64, total_ms / 1e3),
    );
    named.push(
        "forward_ms_p50",
        "ms",
        required_percentile("forward_ms", &forward_ms, 0.5)?,
    );
    named.push("forwards", "count", forward_ms.len() as f64);

    let mut layers = Metrics::default();
    if tracer.enabled() {
        let spans = tracer.spans();
        let selfs = self_times_ns(&spans);
        for (span_name, metric) in span_names.iter().zip(layer_metric_names()) {
            let samples: Vec<f64> = spans
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| s.name == *span_name)
                .map(|(_, ns)| *ns as f64 / 1e6)
                .collect();
            layers.push(metric, "ms", required_percentile(span_name, &samples, 0.5)?);
        }
    }
    layers.push(
        "kernels.conv_plan.transform_bytes",
        "B",
        transform_bytes as f64,
    );
    layers.push(
        "kernels.conv_plan.im2col_bytes_avoided",
        "B",
        im2col_avoided as f64,
    );
    crate::push_engine_layers(&mut layers, engine.serving(), &before);
    layers.push("loadgen.sent", "count", calls.len() as f64);

    Ok(Outcome {
        setup_s,
        phases,
        named,
        layers,
        throughput: "forward_images_s",
        latency_p50: "forward_ms_p50",
    })
}

/// Names of the per-layer metrics this workload reports when traced, in
/// inventory order: each layer's median self time per call.
pub fn layer_metric_names() -> Vec<String> {
    model_workload(DnnModel::Resnet50, BATCH, 1)
        .into_iter()
        .map(|l| match l.kind {
            LayerKind::Conv2d { .. } => format!("models.engine.serve_conv_ms.{}", l.name),
            LayerKind::Gemm { .. } => format!("models.engine.serve_gemm_ms.{}", l.name),
        })
        .collect()
}
