//! # gpu-sim — GPU substrate simulator for the Shfl-BW reproduction
//!
//! The Shfl-BW paper (DAC 2022) evaluates hand-written CUDA tensor-core kernels on
//! NVIDIA V100, T4 and A100 GPUs. This crate is the substitute substrate used by the
//! reproduction when no GPU is available: it provides
//!
//! * [`arch::GpuArch`] — architecture presets for the three GPUs the paper evaluates,
//!   built from their public datasheet numbers (tensor-core and CUDA-core peak
//!   throughput, DRAM and L2 bandwidth, shared-memory and register-file capacity),
//! * [`mma::MmaShape`] and [`mma::warp_mma`] — a functional model of the tensor-core
//!   matrix-multiply-accumulate instruction (`m16n8k16` on Volta/Turing/Ampere) with
//!   optional fp16 operand rounding,
//! * [`stats::KernelStats`] — per-kernel counters (FLOPs, DRAM / L2 / shared-memory
//!   traffic, MMA instruction count, threadblock count) that the kernels in
//!   `shfl-kernels` accumulate while they execute functionally,
//! * [`timing::CostModel`] — an analytical latency model (hierarchical roofline with
//!   wave quantisation and per-kernel efficiency factors) that converts
//!   [`stats::KernelStats`] into an estimated execution time on a given architecture,
//! * [`pipeline::PipelineModel`] — the software-pipelining / metadata-prefetch model of
//!   the paper's Algorithm 1, used to charge stall cycles when the column-index
//!   metadata of a sparse tile is *not* prefetched ahead of the data it gates.
//!
//! The model is calibrated so that the *shape* of the paper's results (who wins, where
//! the sparse/dense crossovers fall, why T4 speedups exceed V100/A100 speedups) is
//! reproduced; it does not claim absolute microsecond accuracy.
//!
//! ## Example
//!
//! ```
//! use gpu_sim::arch::GpuArch;
//! use gpu_sim::stats::{ComputeUnit, KernelStats};
//! use gpu_sim::timing::CostModel;
//!
//! // A dense half-precision GEMM: M/N/K = 2048/128/2048.
//! let (m, n, k) = (2048u64, 128u64, 2048u64);
//! let mut stats = KernelStats::new(ComputeUnit::TensorCore);
//! stats.add_flops(2 * m * n * k);
//! stats.add_dram_read(2 * (m * k + k * n));
//! stats.add_dram_write(2 * m * n);
//!
//! let arch = GpuArch::v100();
//! let timing = CostModel::new(&arch).estimate(&stats);
//! assert!(timing.total_us > 0.0);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod arch;
pub mod mma;
pub mod occupancy;
pub mod pipeline;
pub mod simd;
pub mod stats;
pub mod timing;

pub use arch::{GpuArch, GpuGeneration};
pub use mma::MmaShape;
pub use pipeline::{PipelineConfig, PipelineModel};
pub use simd::SimdTier;
pub use stats::{ComputeUnit, KernelStats};
pub use timing::{Bound, CostModel, KernelTiming};
