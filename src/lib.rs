//! # shfl-bw-repro — workspace facade
//!
//! This crate is the root package of the Shfl-BW reproduction workspace. It exists to
//! host the runnable examples (`examples/`) and the cross-crate integration tests
//! (`tests/`), and re-exports the member crates so downstream users can depend on a
//! single package:
//!
//! * [`core`](shfl_core) — matrices, masks, sparsity patterns, sparse formats,
//!   flexibility / reuse analysis,
//! * [`gpu`](gpu_sim) — the GPU substrate simulator (architecture presets, MMA model,
//!   cost model),
//! * [`kernels`](shfl_kernels) — simulated dense and sparse GPU kernels,
//! * [`pruning`](shfl_pruning) — the pattern pruners and the Shfl-BW search,
//! * [`models`](shfl_models) — Transformer / GNMT / ResNet-50 workloads and the
//!   accuracy proxy,
//! * [`serving`](shfl_serving) — the multi-stream serving stack (one cached
//!   plan per layer version, continuous-batching server, decode sessions).
//!
//! ```
//! use shfl_bw_repro::prelude::*;
//!
//! let arch = GpuArch::t4();
//! let profile = shfl_bw_repro::kernels::gemm::dense_gemm_profile(&arch, 1024, 256, 1024);
//! assert!(profile.time_us() > 0.0);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub use gpu_sim as gpu;
pub use shfl_core as core;
pub use shfl_kernels as kernels;
pub use shfl_models as models;
pub use shfl_pruning as pruning;
pub use shfl_serving as serving;

/// Commonly used items across the workspace, for glob import in examples.
pub mod prelude {
    pub use gpu_sim::{GpuArch, KernelStats};
    pub use shfl_core::{
        BinaryMask, BucketPolicy, DenseMatrix, PackedPanels, ShflBwMatrix, SparsePattern,
        VectorWiseMatrix,
    };
    pub use shfl_kernels::{
        GemmPlan, ImplicitConvPlan, KernelOutput, KernelProfile, PlanCache, SpmmPlan,
    };
    pub use shfl_models::{AccuracyModel, DnnModel, EngineConfig, ModelEngine};
    pub use shfl_pruning::{Pruner, ShflBwPruner};
    pub use shfl_serving::{Server, ServingEngine, ServingError};
}
