//! # shfl-models — workloads and the accuracy proxy for the Shfl-BW reproduction
//!
//! The paper evaluates three DNN models (§6.1): Transformer and GNMT on the WMT
//! translation task and ResNet-50 on ImageNet classification. This crate provides
//!
//! * [`workload`] — the layer-shape inventories of the three models (GEMM shapes of
//!   the linear layers, implicit-GEMM shapes of the convolutions), which is what the
//!   kernel-speedup experiments (Figures 1, 2, 6) iterate over,
//! * [`engine`] — [`engine::ModelEngine`], the end-to-end inference engine: one
//!   prepared kernel plan per weight-bearing layer (the plan/execute split of
//!   `shfl-kernels`), repeated forward passes, tokens-or-images/s reporting,
//! * [`activation`] — the branch-free f32 `tanh` and `sigmoid` the GNMT and
//!   Transformer decode hooks share (no libm; their slice loops autovectorise),
//!   and
//! * [`accuracy`] — the synthetic accuracy proxy described in `DESIGN.md`: pruned-model
//!   quality is estimated by running the *real* pruning algorithms from `shfl-pruning`
//!   on proxy importance matrices with hidden row-cluster structure, and mapping the
//!   retained-importance ratio to the paper's metrics (BLEU for the translation
//!   models, Top-1 accuracy for ResNet-50). The mapping constants are calibration
//!   parameters; the *ordering* of patterns and the rough size of the gaps are what
//!   the proxy reproduces (Table 1, Figure 2).
//!
//! ## Example
//!
//! ```
//! use shfl_models::workload::{DnnModel, model_workload};
//! use shfl_models::accuracy::AccuracyModel;
//! use shfl_core::SparsePattern;
//!
//! let layers = model_workload(DnnModel::Transformer, 8, 128);
//! assert!(!layers.is_empty());
//!
//! let proxy = AccuracyModel::new(DnnModel::Transformer);
//! let dense = proxy.dense_metric();
//! let pruned = proxy.evaluate(SparsePattern::ShflBw { v: 32 }, 0.8);
//! assert!(pruned <= dense);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod accuracy;
pub mod activation;
pub mod engine;
pub mod gnmt;
pub mod resnet50;
pub mod transformer;
pub mod workload;

pub use accuracy::AccuracyModel;
pub use engine::{EngineConfig, EngineReport, ModelEngine};
pub use workload::{model_workload, DnnModel, Layer, LayerKind};
