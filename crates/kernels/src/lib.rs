//! # shfl-kernels — simulated GPU kernels for the Shfl-BW reproduction
//!
//! The paper's artifact is a set of CUDA tensor-core kernels. With no GPU available,
//! this crate re-implements every kernel the evaluation compares as a *simulated*
//! kernel:
//!
//! * a **plan** ([`plan`], [`conv_plan`]) stages the weights once, exactly the way
//!   the CUDA kernel's offline preparation does (re-ordering, stitched `V×tk` tiles,
//!   warp-level MMA fragments), and its `execute` produces the actual output matrix
//!   (reordered write-back included), bit-identical to a naive oracle in
//!   [`reference`](mod@reference), and
//! * an **analytical profile** (`*_profile`) derives the kernel's FLOP count, DRAM /
//!   L2 traffic, MMA utilisation, pipeline stalls and threadblock grid from the sparse
//!   format, and converts them into an estimated execution time through
//!   [`gpu_sim::timing::CostModel`]. Each plan carries the profile of the width it
//!   was built for.
//!
//! Kernels provided (matching the paper's §6.1 baselines):
//!
//! | Kernel | Paper counterpart | Module |
//! |---|---|---|
//! | Dense tensor-core GEMM | cuBLAS | [`gemm`] |
//! | Dense CUDA-core GEMM | CUDA-core baseline of Fig. 1 | [`gemm`] |
//! | Unstructured CSR SpMM (CUDA cores) | Sputnik / cuSPARSE | [`spmm::cuda_core`] |
//! | Block-wise SpMM (tensor cores) | cuSPARSE BSR | [`spmm::block_wise`] |
//! | Vector-wise SpMM (tensor cores) | the authors' own VW kernel, VectorSparse, TileWise | [`spmm::vector_wise`] |
//! | Balanced 2:4 SpMM | cuSPARSELt on A100 | [`spmm::balanced`] |
//! | **Shfl-BW SpMM** | the paper's contribution (Algorithm 1) | [`spmm::shfl_bw`] |
//! | Implicit-GEMM 2-D convolution (Shfl-BW functional; dense and Shfl-BW modeled) | cuDNN / the paper's conv kernel | [`conv_plan`], [`conv`] |
//!
//! ## One sweep kernel
//!
//! Every functional kernel — dense GEMM, block-wise, vector-wise / Shfl-BW,
//! balanced 2:4, CSR and the implicit-GEMM convolution — executes through one panel
//! sweep, [`gpu_sim::mma::mma_sweep`], the way the paper runs linear and
//! convolution layers through one stitched MMA loop:
//!
//! 1. **Pre-rounding pass.** The activation operand is rounded through fp16
//!    once per call ([`shfl_core::matrix::DenseMatrix::as_f16_rounded`]) and
//!    the weights once per plan, instead of per element inside the innermost
//!    `m·n·k` loop. Rounding is element-wise, so this is bit-identical.
//! 2. **Packed panels times addressed operand rows.** A plan packs its weights
//!    into `rows × kk` panels ([`shfl_core::packed::PackedPanels`]). The sweep
//!    multiplies a panel by the `kk` activation rows its metadata names —
//!    consecutive rows for dense and block panels, the kept columns for
//!    stitched panels and CSR rows, per-tap offsets into the padded input for
//!    the implicit-GEMM convolution — in place, with no staging copy, holding
//!    output tiles in registers across the whole panel. The AVX-512, AVX2
//!    and SSE2 tiers tile four output rows at once (`4 × 32` columns at
//!    AVX-512), so each activation vector loaded at a reduction step feeds
//!    four rows, as an MMA fragment reuses each operand element across its
//!    rows; leftover rows, CSR's one-row panels and the scalar tier sweep row
//!    by row. It dispatches at run time to AVX-512, AVX2, SSE2 or scalar
//!    code ([`gpu_sim::simd`]); every tier is bit-identical.
//! 3. **Parallel chunks.** Row-tiles, SpMM row groups, block rows, CSR rows
//!    and convolution images own disjoint output slices, so they are fanned
//!    out across cores by [`shfl_core::parallel::par_chunks_mut_weighted`]
//!    behind the default `parallel` feature: one persistent pool of
//!    `available_parallelism − 1` helpers, with the calling thread running
//!    every run of chunks no idle helper claims, so an execute starts no
//!    thread. Each output element is written by exactly one task, so results
//!    do not depend on the schedule.
//!
//! Accumulation per output element is ascending-`k` through a single `f32`
//! accumulator in both the sweep and the naive paths, so the
//! [`reference`](mod@reference) module's kernels are **bit-identical**
//! oracles: the property tests assert exact equality, and
//! `repro --bench-kernels` times naive vs cold in the same run to track the
//! speedup (`BENCH_kernels.json`).
//!
//! ## The plan/execute split
//!
//! A plan is each kernel's one functional API. [`plan::GemmPlan`] and
//! [`plan::SpmmPlan`] stage the static weight operand (fp16 rounding, tile
//! transposition, launch selection, profiling) **once** per
//! `(weights, arch)` and then execute repeatedly against fresh activations
//! of any width, amortising the weight packing the way real inference
//! engines do; [`conv_plan::ImplicitConvPlan`] does the same for a
//! convolution at one geometry. The width a plan is built for sets only its
//! modeled profile, which `profile()` returns. A one-off call builds a plan
//! and executes it once; `repro --bench-kernels` records that cold call
//! beside a prepared plan's execute.
//!
//! ## Example
//!
//! ```
//! use gpu_sim::GpuArch;
//! use shfl_core::{DenseMatrix, ShflBwMatrix};
//! use shfl_kernels::{GemmPlan, SpmmPlan};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), shfl_kernels::KernelError> {
//! let mut rng = StdRng::seed_from_u64(0);
//! // A vector-wise-structured weight matrix (V = 8) and a dense activation.
//! let weights = DenseMatrix::from_fn(64, 64, |r, c| {
//!     if (c + r / 8) % 4 == 0 { 0.1 } else { 0.0 }
//! });
//! let activations = DenseMatrix::random(&mut rng, 64, 32);
//!
//! let arch = GpuArch::v100();
//! let dense = GemmPlan::new(&arch, &weights, 32).execute(&activations)?;
//! let sparse_weights = ShflBwMatrix::from_dense(&weights, 8)?;
//! let sparse_plan = SpmmPlan::shfl_bw(&arch, &sparse_weights, 32);
//! let sparse = sparse_plan.execute(&activations)?;
//! assert!(sparse.output.approx_eq(&dense.output, 1e-3)?);
//! assert!(sparse_plan.profile().time_us() > 0.0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod cache;
pub mod conv;
pub mod conv_plan;
pub mod gemm;
pub mod launch;
pub mod plan;
pub mod profile;
pub mod reference;
pub mod spmm;

pub use cache::{PlanCache, PlanCacheStats, PlanKey};
pub use conv_plan::ImplicitConvPlan;
pub use plan::{GemmPlan, SpmmPlan};
pub use profile::{KernelError, KernelOutput, KernelProfile, KernelResult};
