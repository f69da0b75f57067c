//! End-to-end model inference on the serving stack.
//!
//! [`ModelEngine`] is now a thin **model-description layer** over
//! [`shfl_serving::engine::ServingEngine`]: it walks a model's weight-bearing
//! layer inventory ([`crate::workload::model_workload`]), synthesises
//! pattern-conforming Shfl-BW weights directly in compressed form, and
//! registers each unique layer with the serving engine. No plan is built at
//! registration — each layer's one plan materialises lazily in the serving
//! engine's LRU [`shfl_kernels::cache::PlanCache`] on the layer's first
//! request, and every later request shares it, whatever its width
//! (including forward passes at *different batch sizes*).
//!
//! Convolutions ride **implicit-GEMM conv plans**
//! ([`shfl_kernels::conv_plan::ImplicitConvPlan`], cached per
//! `(layer, version, batch)` in the same plan cache): the input feature map
//! is walked in place through gather-style tap offsets — no im2col buffer is
//! ever materialised. The im2col chain ([`shfl_kernels::conv::im2col`] + a
//! fresh exact-width plan + [`shfl_kernels::conv::col2im_output`]) runs only
//! in the cold oracle ([`ModelEngine::forward_cold`],
//! [`ModelEngine::forward_outputs_cold`]), which the served outputs must
//! match bit for bit.
//!
//! Two clocks are reported per forward pass:
//!
//! * **wall-clock** — how long the functional simulation actually took on the
//!   host CPU (the number `repro --bench-kernels` tracks across PRs), and
//! * **modeled GPU time** — the sum of the launches' analytical
//!   [`shfl_kernels::KernelProfile`] estimates, i.e. what the paper's cost
//!   model predicts for exact-width launches on the target GPU.
//!
//! External traffic enters through [`ModelEngine::serve_gemm`] /
//! [`ModelEngine::serve_conv`], which reject malformed activations with a
//! typed [`ServingError`] (`KMismatch` when the activation row count does not
//! match the layer's packed panels) instead of a panic or a debug-only
//! assert.
//!
//! ## Example
//!
//! ```
//! use gpu_sim::GpuArch;
//! use shfl_models::engine::{EngineConfig, ModelEngine};
//! use shfl_models::DnnModel;
//!
//! let engine = ModelEngine::build(
//!     DnnModel::Transformer,
//!     &GpuArch::v100(),
//!     &EngineConfig::smoke(),
//! )
//! .unwrap();
//! let report = engine.run();
//! assert!(report.forward_ms > 0.0);
//! assert_eq!(report.unit, "tokens/s");
//! // A different batch size reuses the same cached plans.
//! let other = engine.forward(2, 4).unwrap();
//! assert_eq!(other.batch, 2);
//! ```

use crate::workload::{model_workload, DnnModel, LayerKind};
use gpu_sim::GpuArch;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use shfl_core::bucket::BucketPolicy;
use shfl_core::formats::{ShflBwMatrix, VectorWiseMatrix};
use shfl_core::matrix::DenseMatrix;
use shfl_kernels::cache::{PlanCache, PlanCacheStats, PlanKey};
use shfl_kernels::conv::{self, Conv2dParams, Tensor4};
use shfl_kernels::conv_plan::ImplicitConvPlan;
use shfl_kernels::plan::SpmmPlan;
use shfl_kernels::{KernelError, KernelResult};
use shfl_serving::engine::ServingEngine;
use shfl_serving::server::{Server, ServerConfig};
use shfl_serving::session::DecodeModel;
pub use shfl_serving::ServingError;
use std::sync::Arc;
use std::time::Instant;

/// Configuration of an end-to-end engine build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Batch size (sentences / images processed together).
    pub batch: usize,
    /// Sequence length for the Transformer workload (ignored elsewhere).
    pub seq_len: usize,
    /// Kept-weight fraction of the synthesised pruned layers (e.g. `0.3` for
    /// the paper's headline 70% sparsity).
    pub density: f64,
    /// Preferred Shfl-BW vector length; shrunk per layer to the largest
    /// divisor of the layer's output dimension (halving down to 1).
    pub vector_size: usize,
    /// Seed for the deterministic weight/activation synthesis.
    pub seed: u64,
    /// Plan-cache capacity in plans (LRU beyond this).
    pub plan_cache_capacity: usize,
    /// Optional plan-cache byte budget: resident packed bytes beyond this
    /// evict LRU plans even below the plan-count capacity, so one huge layer
    /// (GNMT's 32000×1024 softmax) cannot crowd out a mixed workload.
    pub plan_cache_bytes: Option<usize>,
}

impl EngineConfig {
    /// The benchmark configuration: 70% sparsity, `V = 64`, a small serving
    /// batch.
    pub fn paper_default() -> Self {
        EngineConfig {
            batch: 4,
            seq_len: 16,
            density: 0.30,
            vector_size: 64,
            seed: 20220711,
            plan_cache_capacity: 96,
            plan_cache_bytes: None,
        }
    }

    /// A tiny configuration for CI smoke runs and unit tests.
    pub fn smoke() -> Self {
        EngineConfig {
            batch: 1,
            seq_len: 4,
            density: 0.30,
            vector_size: 8,
            seed: 7,
            plan_cache_capacity: 32,
            plan_cache_bytes: None,
        }
    }

    /// The serving engine's bucket policy, the same for every config:
    /// buckets 8 … 256. Its largest bucket is the server's default coalescing
    /// cap and the width updates are probe-validated at; every width executes
    /// as one sweep of the layer's one plan.
    pub fn bucket_policy(&self) -> BucketPolicy {
        BucketPolicy::new(8, 256).expect("power-of-two bounds are always valid")
    }
}

/// What one registered layer computes (the serving-side metadata; weights
/// live in the serving engine).
enum EngineLayerKind {
    /// A linear layer served directly on the SpMM path.
    Gemm,
    /// A convolution: the registered weights are the flattened filter matrix;
    /// forwards unfold the input and fold the output. The stored geometry is
    /// the build-time template — its `batch` field is replaced per forward.
    Conv { params: Conv2dParams },
}

/// One registered layer of the engine.
struct EngineLayer {
    name: String,
    count: usize,
    /// Layer id in the serving engine.
    serving_id: usize,
    kind: EngineLayerKind,
}

/// Wall-clock and modeled time of one layer across a forward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTiming {
    /// Layer name from the workload inventory.
    pub name: String,
    /// Multiplicity of the layer shape in the model.
    pub count: usize,
    /// Measured wall-clock of one served execute, in milliseconds.
    pub ms_per_call: f64,
    /// Modeled GPU time of one exact-width launch, in microseconds.
    pub modeled_us_per_call: f64,
}

impl LayerTiming {
    /// Wall-clock contribution to the forward pass (`ms_per_call × count`).
    pub fn total_ms(&self) -> f64 {
        self.ms_per_call * self.count as f64
    }
}

/// The result of one end-to-end forward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReport {
    /// The model that was run.
    pub model: DnnModel,
    /// Batch size of the pass.
    pub batch: usize,
    /// Sequence length of the pass (1 for ResNet-50).
    pub seq_len: usize,
    /// One-time build cost (weight synthesis + registration), ms.
    pub build_ms: f64,
    /// Per-layer timings (unique shapes; repeated blocks scaled by `count`).
    pub layers: Vec<LayerTiming>,
    /// Items processed per forward pass (tokens or images).
    pub items_per_forward: f64,
    /// Throughput unit: `"tokens/s"` or `"images/s"`.
    pub unit: &'static str,
    /// Total wall-clock of the forward pass in milliseconds.
    pub forward_ms: f64,
    /// Total modeled GPU time of the forward pass in microseconds.
    pub modeled_us: f64,
}

impl EngineReport {
    /// Wall-clock throughput of the functional simulation
    /// (`items_per_forward / forward_seconds`).
    pub fn throughput_per_s(&self) -> f64 {
        if self.forward_ms <= 0.0 {
            return 0.0;
        }
        self.items_per_forward / (self.forward_ms / 1e3)
    }

    /// Modeled GPU throughput (`items_per_forward / modeled_seconds`).
    pub fn modeled_throughput_per_s(&self) -> f64 {
        if self.modeled_us <= 0.0 {
            return 0.0;
        }
        self.items_per_forward / (self.modeled_us / 1e6)
    }
}

/// A model registered with the serving stack.
///
/// The serving engine is held behind an `Arc` so the model can also be
/// served **online**: [`ModelEngine::server`] starts a continuous-batching
/// [`Server`] sharing the same engine (and therefore the same plan cache and
/// counters) as the synchronous `forward`/`serve_gemm` paths.
pub struct ModelEngine {
    model: DnnModel,
    config: EngineConfig,
    serving: Arc<ServingEngine>,
    layers: Vec<EngineLayer>,
    build_ms: f64,
}

/// Largest vector length `≤ preferred` that divides `m`, halving down to 1.
fn fit_vector_size(preferred: usize, m: usize) -> usize {
    let mut v = preferred.max(1);
    while v > 1 && !m.is_multiple_of(v) {
        v /= 2;
    }
    if m.is_multiple_of(v) {
        v
    } else {
        1
    }
}

/// Synthesises a Shfl-BW weight matrix of shape `m×k` directly in compressed
/// form: each group of `v` rows keeps a random `density` fraction of columns
/// (whole vectors), and the rows are scattered by a random permutation that
/// the kernel's reordered write-back resolves.
fn synthesize_shfl_bw(
    rng: &mut StdRng,
    m: usize,
    k: usize,
    v: usize,
    density: f64,
) -> KernelResult<ShflBwMatrix> {
    let groups = m / v;
    let mut group_ptr = Vec::with_capacity(groups + 1);
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    group_ptr.push(0);
    for _ in 0..groups {
        for c in 0..k {
            if rng.gen_bool(density.clamp(0.0, 1.0)) {
                col_idx.push(c as u32);
                for _ in 0..v {
                    values.push(rng.gen_range(-1.0f32..1.0));
                }
            }
        }
        group_ptr.push(col_idx.len());
    }
    let vw = VectorWiseMatrix::from_parts(m, k, v, group_ptr, col_idx, values)
        .map_err(KernelError::Core)?;
    let mut row_indices: Vec<u32> = (0..m as u32).collect();
    row_indices.shuffle(rng);
    ShflBwMatrix::from_vector_wise(vw, row_indices).map_err(KernelError::Core)
}

/// Deterministic per-shape activation seed: forwards at the same
/// `(engine seed, batch, seq_len)` see identical operands, so the served
/// path and the cold oracle can be compared bit for bit.
fn activation_seed(base: u64, batch: usize, seq_len: usize) -> u64 {
    base ^ (batch as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (seq_len as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9)
}

impl ModelEngine {
    /// The **registration phase**: walks the model's layer inventory,
    /// synthesises a pattern-conforming Shfl-BW weight for every
    /// weight-bearing layer, and registers it with the serving engine
    /// (repeated blocks share a registration and are scaled by their
    /// multiplicity at run time). Each layer's plan is built lazily on first
    /// use.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError`] if a layer's weight synthesis fails (e.g.
    /// inconsistent geometry).
    pub fn build(model: DnnModel, arch: &GpuArch, config: &EngineConfig) -> KernelResult<Self> {
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let inventory = model_workload(model, config.batch, config.seq_len);
        let cache = match config.plan_cache_bytes {
            Some(bytes) => PlanCache::with_byte_budget(config.plan_cache_capacity.max(1), bytes),
            None => PlanCache::new(config.plan_cache_capacity.max(1)),
        };
        let mut serving = ServingEngine::with_cache(arch.clone(), config.bucket_policy(), cache);
        let mut layers = Vec::with_capacity(inventory.len());
        for layer in &inventory {
            let (kind, m, k) = match layer.kind {
                LayerKind::Gemm { m, k, .. } => (EngineLayerKind::Gemm, m, k),
                LayerKind::Conv2d {
                    batch,
                    in_channels,
                    out_channels,
                    input_hw,
                    kernel,
                    stride,
                    padding,
                } => {
                    let params = Conv2dParams {
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
                    };
                    let (m, _, k) = params.implicit_gemm_shape();
                    (EngineLayerKind::Conv { params }, m, k)
                }
            };
            let v = fit_vector_size(config.vector_size, m);
            let weights = synthesize_shfl_bw(&mut rng, m, k, v, config.density)?;
            let serving_id = serving.register_layer(&layer.name, weights);
            layers.push(EngineLayer {
                name: layer.name.clone(),
                count: layer.count,
                serving_id,
                kind,
            });
        }
        Ok(ModelEngine {
            model,
            config: *config,
            serving: Arc::new(serving),
            layers,
            build_ms: start.elapsed().as_secs_f64() * 1e3,
        })
    }

    /// The model this engine serves.
    pub fn model(&self) -> DnnModel {
        self.model
    }

    /// One-time registration cost in milliseconds (plan builds are lazy and
    /// amortised into each layer's first request).
    pub fn build_ms(&self) -> f64 {
        self.build_ms
    }

    /// Number of registered (unique) layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The underlying serving engine (plan cache, stats).
    pub fn serving(&self) -> &ServingEngine {
        self.serving.as_ref()
    }

    /// A shared handle to the serving engine — what a long-lived
    /// [`Server`] is started over.
    pub fn serving_shared(&self) -> Arc<ServingEngine> {
        Arc::clone(&self.serving)
    }

    /// Starts a continuous-batching [`Server`] over this model's serving
    /// engine — the **online serving mode**: external traffic submits
    /// requests one at a time (layer ids are the indices of
    /// [`ModelEngine::gemm_layer_indices`]), the server coalesces same-layer
    /// arrivals inside its admission window, and responses are bit-identical
    /// to the synchronous [`ModelEngine::serve_gemm`] path because both run
    /// on the same engine and plan cache. The engine stays usable for
    /// synchronous forwards while the server runs; shut the server down with
    /// [`Server::shutdown`] (or drop it) when done.
    pub fn server(&self, config: ServerConfig) -> Server {
        Server::start(self.serving_shared(), config)
    }

    /// The model's stateful decode step function, bound to this engine's
    /// serving layer ids — the [`DecodeModel`] a decode session
    /// ([`Server::open_session`]) runs. `None` for ResNet-50: image
    /// classification has no autoregressive decode loop.
    pub fn decode_model(&self) -> Option<Arc<dyn DecodeModel>> {
        let layer = |name: &str| self.serving.layer_index(name);
        match self.model {
            DnnModel::Gnmt => Some(Arc::new(crate::gnmt::GnmtDecodeModel::new(
                layer("decoder.lstm.gates")?,
                layer("attention.query")?,
                layer("decoder.softmax")?,
            )) as Arc<dyn DecodeModel>),
            DnnModel::Transformer => {
                Some(Arc::new(crate::transformer::TransformerDecodeModel::new(
                    layer("decoder.self_attn.qkv")?,
                    layer("decoder.self_attn.out")?,
                    layer("decoder.ffn1")?,
                    layer("decoder.ffn2")?,
                )) as Arc<dyn DecodeModel>)
            }
            DnnModel::Resnet50 => None,
        }
    }

    /// A deterministic decode prompt for session `session`: the step-0 input
    /// activation, synthesised from the engine seed so every run (and the
    /// cold oracle) sees identical values. Empty when the model has no
    /// decode loop.
    pub fn decode_prompt(&self, session: u64) -> Vec<f32> {
        let Some(model) = self.decode_model() else {
            return Vec::new();
        };
        let mut rng = StdRng::seed_from_u64(
            self.config
                .seed
                .wrapping_add(session.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        (0..model.prompt_len())
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect()
    }

    /// Indices of the linear (matrix-served) layers — the targets external
    /// GEMM traffic may address via [`ModelEngine::serve_gemm`] or directly
    /// through the serving engine (the index doubles as the serving layer
    /// id).
    pub fn gemm_layer_indices(&self) -> Vec<usize> {
        self.layers
            .iter()
            .enumerate()
            .filter(|(_, l)| matches!(l.kind, EngineLayerKind::Gemm))
            .map(|(i, _)| i)
            .collect()
    }

    /// Plan-cache hit / miss / eviction counters across everything this
    /// engine has served.
    pub fn cache_stats(&self) -> PlanCacheStats {
        self.serving.cache_stats()
    }

    /// Items (tokens or images) a forward pass at `(batch, seq_len)`
    /// processes.
    fn items_for(&self, batch: usize, seq_len: usize) -> f64 {
        match self.model {
            // Every token position of the batch flows through each layer.
            DnnModel::Transformer => (batch * seq_len) as f64,
            // GNMT's decoder runs one position per step; N = batch.
            DnnModel::Gnmt => batch as f64,
            DnnModel::Resnet50 => batch as f64,
        }
    }

    /// The throughput unit of this model.
    fn unit(&self) -> &'static str {
        match self.model {
            DnnModel::Transformer | DnnModel::Gnmt => "tokens/s",
            DnnModel::Resnet50 => "images/s",
        }
    }

    /// Serves external linear-layer traffic: activations of any width against
    /// registered layer `layer_index`, through the layer's cached plan.
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::UnknownLayer`] for an out-of-range index,
    /// [`ServingError::KMismatch`] when the activation row count does not
    /// match the layer's packed panels (a typed rejection — release builds
    /// never feed a mismatched operand into the kernels), and
    /// [`ServingError::Kernel`] if the layer is a convolution (its operand is
    /// a feature map, not a matrix — use [`ModelEngine::serve_conv`]).
    pub fn serve_gemm(
        &self,
        layer_index: usize,
        activations: &DenseMatrix,
    ) -> Result<DenseMatrix, ServingError> {
        let layer = self
            .layers
            .get(layer_index)
            .ok_or(ServingError::UnknownLayer { layer: layer_index })?;
        if let EngineLayerKind::Conv { .. } = layer.kind {
            return Err(ServingError::Kernel(KernelError::ShapeMismatch {
                context: format!(
                    "layer {layer_index} ({}) is a convolution; serve it via serve_conv",
                    layer.name
                ),
            }));
        }
        self.serving.execute(layer.serving_id, activations)
    }

    /// Returns the layer's cached implicit-GEMM conv plan for this batch,
    /// building it on first use. Keys carry the layer's current weight
    /// version ([`PlanKey::conv`]), so a published weight update invalidates
    /// conv plans together with the layer's SpMM plan.
    fn implicit_conv_plan(
        &self,
        serving_id: usize,
        params: &Conv2dParams,
    ) -> Result<Arc<ImplicitConvPlan>, ServingError> {
        let version = self.serving.layer_version(serving_id)?;
        let key = PlanKey::conv(serving_id, version, params.batch);
        self.serving
            .cache()
            .get_or_build_conv(key, || {
                // Weights are fetched lazily inside the build closure so the
                // hit path never clones the compressed matrix.
                let weights = self
                    .serving
                    .layer_weights(serving_id)
                    .expect("registered layer");
                ImplicitConvPlan::build(self.serving.arch(), &weights, params)
            })
            .map_err(ServingError::Kernel)
    }

    /// Per-forward transform traffic of the implicit conv plans at `batch`,
    /// summed over layer repeat counts: total bytes of the in-place layout
    /// buffer each forward reads ([`ImplicitConvPlan::input_bytes_read`]) and
    /// the bytes of im2col materialisation the implicit path avoids
    /// ([`ImplicitConvPlan::im2col_bytes_avoided`]). Plans come from the
    /// shared cache, so after a forward at the same batch this is free.
    ///
    /// # Errors
    ///
    /// Returns [`ServingError`] if a conv plan cannot be built.
    pub fn conv_transform_bytes(&self, batch: usize) -> Result<(u64, u64), ServingError> {
        let mut read = 0u64;
        let mut avoided = 0u64;
        for layer in &self.layers {
            if let EngineLayerKind::Conv { params } = &layer.kind {
                let params = Conv2dParams { batch, ..*params };
                let plan = self.implicit_conv_plan(layer.serving_id, &params)?;
                read += plan.input_bytes_read() * layer.count as u64;
                avoided += plan.im2col_bytes_avoided() * layer.count as u64;
            }
        }
        Ok((read, avoided))
    }

    /// Serves external convolution traffic: a feature map of any batch size
    /// against registered conv layer `layer_index`, through the implicit-GEMM
    /// conv plan — the input is walked in place; no im2col buffer is
    /// materialised. Bit-identical to the retained im2col oracle path.
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::UnknownLayer`] for an out-of-range index,
    /// [`ServingError::Kernel`] for a non-conv layer or a feature map whose
    /// channel/spatial geometry does not match the layer, and the serving
    /// errors of the underlying execution.
    pub fn serve_conv(&self, layer_index: usize, input: &Tensor4) -> Result<Tensor4, ServingError> {
        let layer = self
            .layers
            .get(layer_index)
            .ok_or(ServingError::UnknownLayer { layer: layer_index })?;
        let EngineLayerKind::Conv { params } = &layer.kind else {
            return Err(ServingError::Kernel(KernelError::ShapeMismatch {
                context: format!(
                    "layer {layer_index} ({}) is linear; serve it via serve_gemm",
                    layer.name
                ),
            }));
        };
        let (batch, c, h, w) = input.shape();
        if (c, h, w) != (params.in_channels, params.input_h, params.input_w) {
            return Err(ServingError::Kernel(KernelError::ShapeMismatch {
                context: format!(
                    "conv input is {:?} but layer {} expects (_, {}, {}, {})",
                    input.shape(),
                    layer.name,
                    params.in_channels,
                    params.input_h,
                    params.input_w
                ),
            }));
        }
        let params = Conv2dParams { batch, ..*params };
        let plan = self.implicit_conv_plan(layer.serving_id, &params)?;
        let (out, _) = plan.execute(input).map_err(ServingError::Kernel)?;
        Ok(out)
    }

    /// One forward pass at the engine's build configuration (the benchmark
    /// entry point; operands are synthesised deterministically per shape).
    ///
    /// # Panics
    ///
    /// Panics if the engine's own synthesised operands are rejected (a bug).
    pub fn run(&self) -> EngineReport {
        self.forward(self.config.batch, self.config.seq_len)
            .expect("self-synthesised operands are well-formed")
    }

    /// One forward pass at an arbitrary `(batch, seq_len)` — the
    /// heterogeneous-traffic API. Linear layers reuse their cached plan at
    /// any width; nothing is rebuilt per request. Convolutions ride the
    /// implicit-GEMM conv plans (no im2col materialisation, one plan per
    /// batch size); linear layers the served SpMM path.
    ///
    /// # Errors
    ///
    /// Returns [`ServingError`] if an execution fails.
    pub fn forward(&self, batch: usize, seq_len: usize) -> Result<EngineReport, ServingError> {
        let mut layers = Vec::with_capacity(self.layers.len());
        let mut forward_ms = 0.0;
        let mut modeled_us = 0.0;
        let mut rng = StdRng::seed_from_u64(activation_seed(self.config.seed, batch, seq_len));
        let inventory = model_workload(self.model, batch, seq_len);
        debug_assert_eq!(inventory.len(), self.layers.len());
        for (layer, spec) in self.layers.iter().zip(inventory.iter()) {
            let (ms, us) = match (&layer.kind, &spec.kind) {
                (EngineLayerKind::Gemm, LayerKind::Gemm { n, .. }) => {
                    let k = self
                        .serving
                        .layer_k(layer.serving_id)
                        .expect("registered layer");
                    let activations = DenseMatrix::random(&mut rng, k, *n);
                    let start = Instant::now();
                    let (_, us) = self
                        .serving
                        .execute_profiled(layer.serving_id, &activations)?;
                    (start.elapsed().as_secs_f64() * 1e3, us)
                }
                (EngineLayerKind::Conv { params }, _) => {
                    let params = Conv2dParams { batch, ..*params };
                    let input = Tensor4::random(
                        &mut rng,
                        batch,
                        params.in_channels,
                        params.input_h,
                        params.input_w,
                    );
                    let start = Instant::now();
                    let plan = self.implicit_conv_plan(layer.serving_id, &params)?;
                    let (_, profile) = plan.execute(&input).map_err(ServingError::Kernel)?;
                    (start.elapsed().as_secs_f64() * 1e3, profile.time_us())
                }
                _ => unreachable!("workload inventory shape is stable per model"),
            };
            forward_ms += ms * layer.count as f64;
            modeled_us += us * layer.count as f64;
            layers.push(LayerTiming {
                name: layer.name.clone(),
                count: layer.count,
                ms_per_call: ms,
                modeled_us_per_call: us,
            });
        }
        Ok(EngineReport {
            model: self.model,
            batch,
            seq_len: match self.model {
                DnnModel::Transformer => seq_len,
                DnnModel::Gnmt | DnnModel::Resnet50 => 1,
            },
            build_ms: self.build_ms,
            layers,
            items_per_forward: self.items_for(batch, seq_len),
            unit: self.unit(),
            forward_ms,
            modeled_us,
        })
    }

    /// The cold baseline of [`ModelEngine::forward`]: the same operands, but
    /// every layer builds a fresh exact-width plan inside the timed region —
    /// what serving costs without the plan cache. Outputs are
    /// bit-identical to the served pass (asserted by the unit tests and the
    /// serving benchmark).
    ///
    /// # Errors
    ///
    /// Returns [`ServingError`] if a plan build or execution fails.
    pub fn forward_cold(&self, batch: usize, seq_len: usize) -> Result<EngineReport, ServingError> {
        let mut layers = Vec::with_capacity(self.layers.len());
        let mut forward_ms = 0.0;
        let mut modeled_us = 0.0;
        let mut rng = StdRng::seed_from_u64(activation_seed(self.config.seed, batch, seq_len));
        let inventory = model_workload(self.model, batch, seq_len);
        for (layer, spec) in self.layers.iter().zip(inventory.iter()) {
            let weights = self.serving.layer_weights(layer.serving_id)?;
            let (ms, us) = match (&layer.kind, &spec.kind) {
                (EngineLayerKind::Gemm, LayerKind::Gemm { n, .. }) => {
                    let activations = DenseMatrix::random(&mut rng, weights.cols(), *n);
                    let start = Instant::now();
                    let plan = SpmmPlan::shfl_bw(self.serving.arch(), &weights, *n);
                    let out = plan.execute(&activations).map_err(ServingError::Kernel)?;
                    (start.elapsed().as_secs_f64() * 1e3, out.profile.time_us())
                }
                (EngineLayerKind::Conv { params }, _) => {
                    let params = Conv2dParams { batch, ..*params };
                    let input = Tensor4::random(
                        &mut rng,
                        batch,
                        params.in_channels,
                        params.input_h,
                        params.input_w,
                    );
                    let start = Instant::now();
                    let unfolded = conv::im2col(&input, &params);
                    let plan = SpmmPlan::shfl_bw(self.serving.arch(), &weights, unfolded.cols());
                    let out = plan.execute(&unfolded).map_err(ServingError::Kernel)?;
                    conv::reclaim_unfolded(unfolded);
                    let _ = conv::col2im_output(&out.output, &params);
                    (start.elapsed().as_secs_f64() * 1e3, out.profile.time_us())
                }
                _ => unreachable!("workload inventory shape is stable per model"),
            };
            forward_ms += ms * layer.count as f64;
            modeled_us += us * layer.count as f64;
            layers.push(LayerTiming {
                name: layer.name.clone(),
                count: layer.count,
                ms_per_call: ms,
                modeled_us_per_call: us,
            });
        }
        Ok(EngineReport {
            model: self.model,
            batch,
            seq_len: match self.model {
                DnnModel::Transformer => seq_len,
                DnnModel::Gnmt | DnnModel::Resnet50 => 1,
            },
            build_ms: self.build_ms,
            layers,
            items_per_forward: self.items_for(batch, seq_len),
            unit: self.unit(),
            forward_ms,
            modeled_us,
        })
    }

    /// The per-layer outputs of a served forward pass at `(batch,
    /// seq_len)` (convolutions return the flattened `M × N` implicit-GEMM
    /// output before folding). Convolutions run the implicit conv plans, so
    /// comparing against [`ModelEngine::forward_outputs_cold`] gates the
    /// implicit path against the materialised-im2col oracle bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`ServingError`] if an execution fails.
    pub fn forward_outputs(
        &self,
        batch: usize,
        seq_len: usize,
    ) -> Result<Vec<DenseMatrix>, ServingError> {
        self.collect_outputs(batch, seq_len, true, |serving_id, operand| {
            self.serving.execute(serving_id, operand)
        })
    }

    /// The cold-oracle counterpart of [`ModelEngine::forward_outputs`]: the
    /// same operands executed on fresh exact-width plans, bypassing the
    /// plan cache — convolutions materialise the full im2col operand.
    ///
    /// # Errors
    ///
    /// Returns [`ServingError`] if a plan build or execution fails.
    pub fn forward_outputs_cold(
        &self,
        batch: usize,
        seq_len: usize,
    ) -> Result<Vec<DenseMatrix>, ServingError> {
        self.collect_outputs(batch, seq_len, false, |serving_id, operand| {
            self.serving.execute_cold(serving_id, operand)
        })
    }

    fn collect_outputs(
        &self,
        batch: usize,
        seq_len: usize,
        implicit_conv: bool,
        execute: impl Fn(usize, &DenseMatrix) -> Result<DenseMatrix, ServingError>,
    ) -> Result<Vec<DenseMatrix>, ServingError> {
        let mut rng = StdRng::seed_from_u64(activation_seed(self.config.seed, batch, seq_len));
        let inventory = model_workload(self.model, batch, seq_len);
        let mut outputs = Vec::with_capacity(self.layers.len());
        for (layer, spec) in self.layers.iter().zip(inventory.iter()) {
            let out = match (&layer.kind, &spec.kind) {
                (EngineLayerKind::Gemm, LayerKind::Gemm { n, .. }) => {
                    let k = self
                        .serving
                        .layer_k(layer.serving_id)
                        .expect("registered layer");
                    let activations = DenseMatrix::random(&mut rng, k, *n);
                    execute(layer.serving_id, &activations)?
                }
                (EngineLayerKind::Conv { params }, _) => {
                    let params = Conv2dParams { batch, ..*params };
                    let input = Tensor4::random(
                        &mut rng,
                        batch,
                        params.in_channels,
                        params.input_h,
                        params.input_w,
                    );
                    if implicit_conv {
                        let plan = self.implicit_conv_plan(layer.serving_id, &params)?;
                        plan.execute_matrix(&input).map_err(ServingError::Kernel)?
                    } else {
                        let unfolded = conv::im2col(&input, &params);
                        let out = execute(layer.serving_id, &unfolded)?;
                        conv::reclaim_unfolded(unfolded);
                        out
                    }
                }
                _ => unreachable!("workload inventory shape is stable per model"),
            };
            outputs.push(out);
        }
        Ok(outputs)
    }

    /// Runs `reps` forward passes at the build configuration and keeps each
    /// layer's best wall-clock (the same best-of policy as the kernel
    /// benchmarks, so the reported throughput is comparable run-to-run).
    pub fn run_best_of(&self, reps: usize) -> EngineReport {
        let mut best = self.run();
        for _ in 1..reps.max(1) {
            let next = self.run();
            for (b, n) in best.layers.iter_mut().zip(next.layers.iter()) {
                if n.ms_per_call < b.ms_per_call {
                    b.ms_per_call = n.ms_per_call;
                }
            }
        }
        best.forward_ms = best.layers.iter().map(LayerTiming::total_ms).sum();
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// Engine builds synthesise full-size model weights, which is the
    /// dominant cost of this suite in debug mode — tests that do not inspect
    /// cache statistics share one engine per model instead of rebuilding.
    fn shared_smoke(model: DnnModel) -> &'static ModelEngine {
        static TRANSFORMER: OnceLock<ModelEngine> = OnceLock::new();
        static RESNET: OnceLock<ModelEngine> = OnceLock::new();
        let build = || ModelEngine::build(model, &GpuArch::v100(), &EngineConfig::smoke()).unwrap();
        match model {
            DnnModel::Transformer => TRANSFORMER.get_or_init(build),
            DnnModel::Resnet50 => RESNET.get_or_init(build),
            DnnModel::Gnmt => unreachable!("no shared GNMT engine"),
        }
    }

    #[test]
    fn fit_vector_size_halves_to_a_divisor() {
        assert_eq!(fit_vector_size(64, 1024), 64);
        assert_eq!(fit_vector_size(64, 1000), 8);
        assert_eq!(fit_vector_size(64, 1), 1);
        assert_eq!(fit_vector_size(8, 12), 4);
        assert_eq!(fit_vector_size(1, 7), 1);
    }

    #[test]
    fn synthesized_weights_have_the_requested_structure() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = synthesize_shfl_bw(&mut rng, 64, 128, 8, 0.25).unwrap();
        assert_eq!((w.rows(), w.cols(), w.vector_size()), (64, 128, 8));
        assert!((w.density() - 0.25).abs() < 0.1);
        // The row shuffle is a permutation (validated by the constructor) and
        // round-trips through the dense decompression.
        let dense = w.to_dense();
        assert_eq!(dense.shape(), (64, 128));
        assert_eq!(w.stored_values(), dense.nnz());
    }

    #[test]
    fn every_model_builds_and_runs_in_smoke_config() {
        let arch = GpuArch::v100();
        for model in DnnModel::all() {
            let engine = ModelEngine::build(model, &arch, &EngineConfig::smoke()).unwrap();
            assert!(engine.num_layers() > 0, "{model} has no layers");
            let report = engine.run();
            assert!(report.forward_ms > 0.0, "{model} forward took no time");
            assert!(report.modeled_us > 0.0, "{model} has no modeled time");
            assert!(report.throughput_per_s() > 0.0);
            assert!(report.modeled_throughput_per_s() > 0.0);
            assert_eq!(report.layers.len(), engine.num_layers());
            // The pass went through the plan cache.
            assert!(engine.cache_stats().misses > 0);
        }
    }

    #[test]
    fn units_match_the_model_task() {
        let arch = GpuArch::t4();
        let cfg = EngineConfig::smoke();
        let t = ModelEngine::build(DnnModel::Transformer, &arch, &cfg)
            .unwrap()
            .run();
        assert_eq!(t.unit, "tokens/s");
        assert_eq!(t.items_per_forward, (cfg.batch * cfg.seq_len) as f64);
        let r = ModelEngine::build(DnnModel::Resnet50, &arch, &cfg)
            .unwrap()
            .run();
        assert_eq!(r.unit, "images/s");
        assert_eq!(r.items_per_forward, cfg.batch as f64);
    }

    #[test]
    fn best_of_keeps_the_minimum_per_layer() {
        let arch = GpuArch::v100();
        let engine = ModelEngine::build(DnnModel::Gnmt, &arch, &EngineConfig::smoke()).unwrap();
        let best = engine.run_best_of(3);
        let single = engine.run();
        // Best-of forward time is never (meaningfully) slower than a fresh run
        // is on average; at minimum the totals stay positive and consistent.
        assert!(best.forward_ms > 0.0);
        assert_eq!(best.layers.len(), single.layers.len());
        let recomputed: f64 = best.layers.iter().map(LayerTiming::total_ms).sum();
        assert!((best.forward_ms - recomputed).abs() < 1e-9);
    }

    #[test]
    fn plan_cache_byte_budget_caps_resident_bytes() {
        let arch = GpuArch::v100();
        let mut cfg = EngineConfig::smoke();
        // A budget far below one model's full plan inventory: the engine
        // still serves every request (plans rebuild on demand), the cache
        // just evicts by bytes.
        cfg.plan_cache_bytes = Some(256 * 1024);
        let engine = ModelEngine::build(DnnModel::Gnmt, &arch, &cfg).unwrap();
        assert_eq!(engine.serving().cache().byte_budget(), 256 * 1024);
        engine.run();
        let resident = engine.serving().cache().resident_bytes();
        // At most one over-budget giant may be resident on its own; with
        // GNMT's many layers the budget forces evictions.
        assert!(
            resident <= 256 * 1024 || engine.serving().cache().len() == 1,
            "resident {resident} exceeds the byte budget with multiple plans"
        );
        assert!(engine.cache_stats().evictions > 0);
    }

    #[test]
    fn heterogeneous_batches_share_layer_plans() {
        let arch = GpuArch::v100();
        let engine =
            ModelEngine::build(DnnModel::Transformer, &arch, &EngineConfig::smoke()).unwrap();
        // smoke: seq_len = 4, so batches 1 and 2 give n = 4 and n = 8 — both
        // sweep each layer's one plan.
        engine.forward(1, 4).unwrap();
        let after_first = engine.cache_stats();
        assert_eq!(engine.serving().cache().len(), engine.num_layers());
        engine.forward(2, 4).unwrap();
        let after_second = engine.cache_stats();
        assert_eq!(
            after_first.misses, after_second.misses,
            "batch 2 must not build new plans"
        );
        assert!(after_second.hits > after_first.hits);
    }

    #[test]
    fn bucketed_forward_is_bit_identical_to_cold_forward() {
        // Transformer covers the GEMM path at two widths, ResNet-50 the
        // implicit conv plans and its classifier GEMM; exhaustive width
        // sweeps (every width 0..=300, N=1) live in the cheaper
        // `shfl-serving` tests, so this debug-mode test stays lean.
        for (model, shapes) in [
            (
                DnnModel::Transformer,
                &[(1usize, 4usize), (2, 4)] as &[(usize, usize)],
            ),
            (DnnModel::Resnet50, &[(1, 4)]),
        ] {
            let engine = shared_smoke(model);
            for &(batch, seq) in shapes {
                let bucketed = engine.forward_outputs(batch, seq).unwrap();
                let cold = engine.forward_outputs_cold(batch, seq).unwrap();
                assert_eq!(bucketed.len(), cold.len());
                for (b, c) in bucketed.iter().zip(cold.iter()) {
                    assert_eq!(b.shape(), c.shape());
                    let b_bits: Vec<u32> = b.as_slice().iter().map(|v| v.to_bits()).collect();
                    let c_bits: Vec<u32> = c.as_slice().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(b_bits, c_bits, "{model} batch={batch} seq={seq}");
                }
            }
        }
    }

    #[test]
    fn server_mode_matches_synchronous_serving_bit_for_bit() {
        use shfl_serving::scheduler::Request;
        let engine = shared_smoke(DnnModel::Transformer);
        let gemm_layers = engine.gemm_layer_indices();
        assert!(gemm_layers.len() >= 2);
        let mut rng = StdRng::seed_from_u64(17);
        let requests: Vec<Request> = (0..12)
            .map(|i| {
                let layer = gemm_layers[i % gemm_layers.len()];
                let k = engine.serving().layer_k(layer).unwrap();
                Request {
                    id: i as u64,
                    layer,
                    activations: DenseMatrix::random(&mut rng, k, 1 + i % 9),
                }
            })
            .collect();
        let expected: Vec<DenseMatrix> = requests
            .iter()
            .map(|r| engine.serving().execute(r.layer, &r.activations).unwrap())
            .collect();
        let server = engine.server(
            shfl_serving::server::ServerConfig::new()
                .with_workers(2)
                .with_admission_window_us(200),
        );
        let tickets: Vec<_> = requests
            .into_iter()
            .map(|r| server.submit(r).unwrap())
            .collect();
        for (ticket, want) in tickets.into_iter().zip(expected.iter()) {
            let got = ticket.wait().result.unwrap();
            assert_eq!(got.shape(), want.shape());
            let got_bits: Vec<u32> = got.as_slice().iter().map(|v| v.to_bits()).collect();
            let want_bits: Vec<u32> = want.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got_bits, want_bits);
        }
        // Counters are updated after ticket delivery; drain waits for them.
        server.drain();
        let stats = server.stats();
        assert_eq!(stats.completed, 12);
        server.shutdown();
    }

    #[test]
    fn serve_gemm_rejects_k_mismatch_with_typed_error() {
        let engine = shared_smoke(DnnModel::Transformer);
        // Find the first linear layer's k and feed k+1 rows.
        let k = engine.serving().layer_k(0).unwrap();
        let bad = DenseMatrix::zeros(k + 1, 4);
        match engine.serve_gemm(0, &bad) {
            Err(ServingError::KMismatch { expected, got, .. }) => {
                assert_eq!(expected, k);
                assert_eq!(got, k + 1);
            }
            other => panic!("expected a typed KMismatch, got {other:?}"),
        }
        // Well-formed external traffic is served.
        let good = DenseMatrix::zeros(k, 3);
        let out = engine.serve_gemm(0, &good).unwrap();
        assert_eq!(out.cols(), 3);
        assert!(engine.serve_gemm(10_000, &good).is_err());
    }

    #[test]
    fn serve_conv_validates_geometry_and_layer_kind() {
        let engine = shared_smoke(DnnModel::Resnet50);
        // Layer 0 of ResNet-50 is the stem convolution.
        let conv_idx = 0;
        let EngineLayerKind::Conv { params } = &engine.layers[conv_idx].kind else {
            panic!("resnet layer 0 should be a conv");
        };
        let params = *params;
        let mut rng = StdRng::seed_from_u64(5);
        let good = Tensor4::random(
            &mut rng,
            2, // a different batch than the build config
            params.in_channels,
            params.input_h,
            params.input_w,
        );
        let out = engine.serve_conv(conv_idx, &good).unwrap();
        assert_eq!(out.shape().0, 2);
        let bad = Tensor4::zeros(1, params.in_channels + 1, params.input_h, params.input_w);
        assert!(engine.serve_conv(conv_idx, &bad).is_err());
        // A conv layer rejects the gemm entry point and vice versa.
        assert!(engine
            .serve_gemm(conv_idx, &DenseMatrix::zeros(4, 4))
            .is_err());
        let gemm_idx = engine
            .layers
            .iter()
            .position(|l| matches!(l.kind, EngineLayerKind::Gemm))
            .expect("resnet has a final linear layer");
        assert!(engine
            .serve_conv(gemm_idx, &Tensor4::zeros(1, 1, 1, 1))
            .is_err());
    }
}
