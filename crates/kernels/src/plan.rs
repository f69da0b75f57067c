//! The plan/execute split: build a kernel plan **once** per
//! `(weights, arch)`, execute it many times against fresh activations of any
//! width.
//!
//! A plan is the one functional form of every kernel in this crate. Building
//! it stages the static weight operand: it rounds the weights through fp16,
//! transposes the stored vectors into the `V×tk` stitched tiles, and resolves
//! the launch configuration and analytical profile. `execute` then only
//! sweeps. For a serving workload that runs the same layer thousands of
//! times, that one-time work is amortised — which is exactly what real
//! sparse inference engines do (EIE's compressed weight layout, NVIDIA's
//! pre-transformed 2:4 metadata). A one-off call builds a plan and executes
//! it once; `repro --bench-kernels` times that as its "cold" column. The
//! plans:
//!
//! * [`GemmPlan`] — dense tensor-core GEMM: fp16-rounded row-panels of the
//!   weight matrix in execution order.
//! * [`SpmmPlan`] — all five SpMM variants: pre-stitched `V×tk` group panels
//!   with shuffle row-indices resolved at pack time (vector-wise / Shfl-BW),
//!   rounded `V×V` block panels (block-wise), a rounded dense packing of the
//!   decompressed operand (balanced 2:4), or the CSR operand itself
//!   (CUDA-core scalar kernel — it has no fp16 staging to amortise).
//!
//! Convolutions have their own plan, [`crate::conv_plan::ImplicitConvPlan`]:
//! it packs the flattened filter matrix like a stitched [`SpmmPlan`] and walks
//! the input feature map in place instead of unfolding it.
//!
//! Every plan owns the packed panels ([`shfl_core::packed::PackedPanels`]),
//! the resolved launch/tile configuration, and the precomputed analytical
//! [`KernelProfile`], which `profile()` returns; `execute` returns only the
//! output. Every tensor-core plan and the CSR plan execute through the one
//! panel sweep [`gpu_sim::mma::mma_sweep`], and each plan has one execute
//! body, which sweeps every column of its operand. The packed panels do not
//! depend on the activation width (the stitched tile depth `tk` is fixed),
//! so the width `n` a plan is built for sets only its modeled profile and
//! launch: `execute` accepts any number of columns, and the serving stack
//! caches one plan per `(layer, version)` ([`crate::cache::PlanCache`]) and
//! sweeps every request on it at its exact width. Activation-side working
//! buffers are deliberately *not* cached on the plan: freshly mapped pages
//! measured consistently faster than long-lived reused buffers on this
//! allocator (transparent-huge-page placement), and a buffer-free plan stays
//! `Sync`. An `execute` is **bit-identical** to the naive references in
//! [`crate::reference`], at any width and whatever width the plan was built
//! for: packing rounds element-wise exactly where the oracles round, and the
//! per-output-element accumulation order is the oracles' (the property tests
//! assert exact equality).
//!
//! ## Example
//!
//! ```
//! use gpu_sim::GpuArch;
//! use shfl_core::{DenseMatrix, ShflBwMatrix};
//! use shfl_kernels::plan::SpmmPlan;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), shfl_kernels::KernelError> {
//! let mut rng = StdRng::seed_from_u64(0);
//! let weights = DenseMatrix::from_fn(64, 64, |r, c| {
//!     if (c + r / 8) % 4 == 0 { 0.1 } else { 0.0 }
//! });
//! let sparse = ShflBwMatrix::from_dense(&weights, 8)?;
//! let arch = GpuArch::a100();
//!
//! // Plan phase: pack panels, resolve the launch, profile — once.
//! let plan = SpmmPlan::shfl_bw(&arch, &sparse, 32);
//! // Execute phase: amortised across every batch of activations, whatever
//! // its width.
//! for n in [32, 1, 75] {
//!     let activations = DenseMatrix::random(&mut rng, 64, n);
//!     let out = plan.execute(&activations)?;
//!     assert_eq!(out.output.shape(), (64, n));
//! }
//! # Ok(())
//! # }
//! ```

use crate::gemm;
use crate::launch::{self, LaunchConfig};
use crate::profile::{KernelError, KernelOutput, KernelProfile, KernelResult};
use crate::spmm;
use gpu_sim::mma::{mma_sweep, SegmentSpan};
use gpu_sim::pipeline::PipelineConfig;
use gpu_sim::GpuArch;
use shfl_core::formats::{
    BalancedMatrix, BlockSparseMatrix, CsrMatrix, ShflBwMatrix, VectorWiseMatrix,
};
use shfl_core::matrix::DenseMatrix;
use shfl_core::packed::PackedPanels;
use shfl_core::parallel;
use shfl_core::tiling::{self, TileConfig};

/// Widest column span one sweep step processes at a time. A wider execute is
/// subdivided for the sweep (bit-identical — every output column depends only
/// on its own activation column, and the panel order per column is
/// unchanged): a `tk × span` pre-rounded activation tile of
/// `16 × 256 × 4 = 16` KB stays L1-resident across all of a panel's output
/// rows, where a 1024-wide tile's 64 KB would be re-streamed from L2 per row.
const MAX_SWEEP_SPAN: usize = 256;

/// Validates an activation operand and returns the spans one execute sweeps:
/// the operand must have the `k` rows the plan packs, and all of its columns
/// are swept in [`MAX_SWEEP_SPAN`]-wide pieces, the last one narrower.
fn sweep_spans(what: &str, b: &DenseMatrix, k: usize) -> KernelResult<Vec<SegmentSpan>> {
    if b.rows() != k {
        return Err(KernelError::ShapeMismatch {
            context: format!(
                "{what} plan packs k={k} activation rows but got {:?}",
                b.shape()
            ),
        });
    }
    let n = b.cols();
    Ok((0..n)
        .step_by(MAX_SWEEP_SPAN)
        .map(|start| SegmentSpan {
            start,
            width: MAX_SWEEP_SPAN.min(n - start),
        })
        .collect())
}

/// The operand row table of a dense or block packing: row `p` of the
/// activations is reduction step `p`, so every panel reads a slice of
/// `0..k`.
fn ascending_rows(k: usize) -> Vec<u32> {
    (0..k as u32).collect()
}

/// The dense main loop shared by [`GemmPlan`] and the balanced [`SpmmPlan`]:
/// packed row-panels times the fp16-rounded `k × n` activations,
/// accumulated tile-parallel into `c`. The panel covering reduction steps
/// `p0 .. p0 + kk` reads activation rows `rows[p0 .. p0 + kk]`.
fn sweep_dense(
    packed: &PackedPanels,
    rows: &[u32],
    activations: &DenseMatrix,
    c: &mut DenseMatrix,
    spans: &[SegmentSpan],
) {
    let (m, n) = c.shape();
    if m == 0 || n == 0 || rows.is_empty() {
        return;
    }
    // Working buffers are allocated per call: freshly mapped pages measured
    // consistently faster than reusing a long-lived scratch buffer on this
    // allocator (transparent-huge-page placement), and a scratch-free plan
    // stays `Sync`.
    let b16_matrix = activations.as_f16_rounded();
    let b16 = b16_matrix.as_slice();
    let fm = packed.panel_rows();
    parallel::par_chunks_mut_weighted(c.as_mut_slice(), fm * n, rows.len(), |tile, c_chunk| {
        let mut p0 = 0;
        for panel in packed.chunk_panels(tile) {
            let (values, tile_rows, kk) = packed.panel(panel);
            mma_sweep::<true>(
                values,
                tile_rows,
                b16,
                &rows[p0..p0 + kk],
                n,
                c_chunk,
                n,
                spans,
            );
            p0 += kk;
        }
    });
}

/// A prepared dense tensor-core GEMM: `C[m×n] = W[m×k] · B[k×n]` with the
/// weight operand packed once.
#[derive(Debug, Clone)]
pub struct GemmPlan {
    m: usize,
    k: usize,
    packed: PackedPanels,
    rows: Vec<u32>,
    launch: LaunchConfig,
    profile: KernelProfile,
}

impl GemmPlan {
    /// Builds the plan: rounds and packs the weight matrix into `fm×fk`
    /// row-panels (the architecture's MMA fragment shape), and resolves the
    /// launch configuration and the analytical profile of an `n`-column
    /// launch. `n` sets only that modeled profile: the packed panels do not
    /// depend on it, and [`GemmPlan::execute`] accepts any width.
    pub fn new(arch: &GpuArch, weights: &DenseMatrix, n: usize) -> Self {
        let (m, k) = weights.shape();
        let shape = arch.mma_shape;
        let packed = PackedPanels::pack_dense_rows(weights, shape.m(), shape.k());
        GemmPlan {
            m,
            k,
            packed,
            rows: ascending_rows(k),
            launch: launch::dense_launch(arch, m, n, k),
            profile: gemm::dense_gemm_profile(arch, m, n, k),
        }
    }

    /// The analytical profile resolved at plan time.
    pub fn profile(&self) -> &KernelProfile {
        &self.profile
    }

    /// The launch configuration resolved at plan time.
    pub fn launch_config(&self) -> &LaunchConfig {
        &self.launch
    }

    /// Size of the packed weight panels in bytes.
    pub fn packed_bytes(&self) -> usize {
        self.packed.packed_bytes()
    }

    /// Packed-panel bytes **one execute sweep reads**: every panel value is
    /// streamed exactly once per call (per chunk, each chunk walks its own
    /// panels once), whatever the width. This is the unit the serving
    /// layer's panel-bytes-read counter accumulates.
    pub fn panel_sweep_bytes(&self) -> u64 {
        (self.packed.packed_values() * std::mem::size_of::<f32>()) as u64
    }

    /// Executes the prepared GEMM against a `k × n` activation matrix of any
    /// width `n`, in one sweep over the packed panels.
    ///
    /// The output is bit-identical to a plan built for exactly `n` columns
    /// and to the naive oracle: the packed panel layout does not depend on
    /// the build width, and each output element accumulates its `k`
    /// contributions in ascending order either way. The modeled profile stays
    /// on the plan ([`GemmPlan::profile`]).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::ShapeMismatch`] if `activations` does not have
    /// the `k` rows the plan packs.
    pub fn execute(&self, activations: &DenseMatrix) -> KernelResult<KernelOutput> {
        let spans = sweep_spans("GEMM", activations, self.k)?;
        let mut output = DenseMatrix::zeros(self.m, activations.cols());
        sweep_dense(&self.packed, &self.rows, activations, &mut output, &spans);
        Ok(KernelOutput { output })
    }
}

/// Static operand data of one prepared SpMM variant.
#[derive(Debug, Clone)]
enum SpmmPlanKind {
    /// Vector-wise / Shfl-BW: pre-stitched `V×tk` group panels plus the
    /// write-back row indices resolved at pack time.
    Stitched {
        v: usize,
        tk: usize,
        packed: PackedPanels,
        /// Kept column indices, group-major (copied from the format).
        cols: Vec<u32>,
        /// `group_ptr[g]..group_ptr[g+1]` bounds group `g` inside `cols`.
        group_ptr: Vec<usize>,
        /// `row_indices[stored_row]` = output row (identity for vector-wise).
        row_indices: Vec<u32>,
        /// Whether `row_indices` is the identity permutation, resolved at pack
        /// time: the identity case accumulates straight into the output and
        /// skips the shuffled write-back copy.
        identity_rows: bool,
        macs_per_element: usize,
    },
    /// Block-wise (BSR): rounded `V×V` block panels in block-row order.
    Blocks {
        v: usize,
        packed: PackedPanels,
        block_cols: Vec<u32>,
        block_row_ptr: Vec<usize>,
        /// Ascending activation row table; block column `bc` reads
        /// `rows[bc·V .. (bc+1)·V]`.
        rows: Vec<u32>,
        macs_per_element: usize,
    },
    /// Balanced 2:4: the decompressed operand packed like a dense GEMM.
    Dense {
        packed: PackedPanels,
        /// Ascending activation row table (see [`sweep_dense`]).
        rows: Vec<u32>,
    },
    /// CUDA-core CSR: the kernel performs no fp16 staging, so the compressed
    /// operand itself is the packed form.
    Csr { matrix: CsrMatrix },
}

/// A prepared SpMM: `C[m×n] = A[m×k] · B[k×n]` with the sparse operand packed
/// once in its kernel-specific execution layout.
#[derive(Debug, Clone)]
pub struct SpmmPlan {
    m: usize,
    n: usize,
    k: usize,
    tile: TileConfig,
    launch: LaunchConfig,
    kind: SpmmPlanKind,
    profile: KernelProfile,
}

impl SpmmPlan {
    /// Prepares the vector-wise tensor-core SpMM (identity write-back).
    pub fn vector_wise(arch: &GpuArch, weights: &VectorWiseMatrix, n: usize) -> Self {
        let config = spmm::vector_wise::VectorWiseKernelConfig::ours();
        let profile = spmm::vector_wise::vector_wise_spmm_profile(arch, weights, n, &config);
        let identity: Vec<u32> = (0..weights.rows() as u32).collect();
        Self::stitched(arch, weights, identity, n, profile)
    }

    /// Prepares the Shfl-BW tensor-core SpMM: the shuffle row indices are
    /// resolved into the plan at pack time, so the per-call epilogue is a
    /// plain indexed row copy.
    pub fn shfl_bw(arch: &GpuArch, weights: &ShflBwMatrix, n: usize) -> Self {
        let profile = spmm::shfl_bw::shfl_bw_spmm_profile(arch, weights, n);
        Self::stitched(
            arch,
            weights.vector_wise(),
            weights.row_indices().to_vec(),
            n,
            profile,
        )
    }

    fn stitched(
        arch: &GpuArch,
        vw: &VectorWiseMatrix,
        row_indices: Vec<u32>,
        n: usize,
        profile: KernelProfile,
    ) -> Self {
        let v = vw.vector_size();
        let tile = tiling::select_vector_wise_tile(v, n);
        let avg_cols_per_group =
            (vw.stored_vectors() as f64 / vw.num_groups().max(1) as f64).ceil() as usize;
        let identity_rows = row_indices
            .iter()
            .enumerate()
            .all(|(i, r)| *r as usize == i);
        SpmmPlan {
            m: vw.rows(),
            n,
            k: vw.cols(),
            tile,
            launch: launch::vector_wise_launch(
                arch,
                vw.rows(),
                n,
                avg_cols_per_group,
                v,
                PipelineConfig::shfl_bw_default().pipe_stages,
            ),
            kind: SpmmPlanKind::Stitched {
                v,
                tk: tile.tk,
                packed: PackedPanels::pack_vector_wise(vw, tile.tk),
                cols: vw.col_idx().to_vec(),
                group_ptr: vw.group_ptr().to_vec(),
                row_indices,
                identity_rows,
                macs_per_element: (vw.stored_vectors() / vw.num_groups().max(1)).max(1),
            },
            profile,
        }
    }

    /// Prepares the block-wise (BSR) tensor-core SpMM.
    pub fn block_wise(arch: &GpuArch, weights: &BlockSparseMatrix, n: usize) -> Self {
        let profile = spmm::block_wise::block_wise_spmm_profile(arch, weights, n);
        let v = weights.block_size();
        let avg_cols_per_row = (weights.stored_blocks() * v / weights.block_rows().max(1)).max(1);
        SpmmPlan {
            m: weights.rows(),
            n,
            k: weights.cols(),
            tile: profile.tile,
            launch: launch::vector_wise_launch(arch, weights.rows(), n, avg_cols_per_row, v, 2),
            kind: SpmmPlanKind::Blocks {
                v,
                packed: PackedPanels::pack_blocks(weights),
                block_cols: weights.block_col_idx().to_vec(),
                block_row_ptr: weights.block_row_ptr().to_vec(),
                rows: ascending_rows(weights.cols()),
                macs_per_element: (weights.stored_blocks() * v / weights.block_rows().max(1))
                    .max(1),
            },
            profile,
        }
    }

    /// Prepares the balanced 2:4 SpMM (sparse tensor cores): the operand is
    /// decompressed and packed once like a dense GEMM, mirroring what the
    /// sparse tensor cores compute.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnsupportedOnArch`] on GPUs without sparse
    /// tensor cores.
    pub fn balanced(arch: &GpuArch, weights: &BalancedMatrix, n: usize) -> KernelResult<Self> {
        let profile = spmm::balanced::balanced_spmm_profile(arch, weights, n)?;
        let dense = weights.to_dense();
        let shape = arch.mma_shape;
        Ok(SpmmPlan {
            m: weights.rows(),
            n,
            k: weights.cols(),
            tile: profile.tile,
            launch: launch::dense_launch(arch, weights.rows(), n, weights.cols()),
            kind: SpmmPlanKind::Dense {
                packed: PackedPanels::pack_dense_rows(&dense, shape.m(), shape.k()),
                rows: ascending_rows(weights.cols()),
            },
            profile,
        })
    }

    /// Prepares the CUDA-core CSR SpMM. The scalar kernel stages no fp16
    /// tiles, so the plan owns the CSR operand as-is; what it amortises is the
    /// resolved profile and launch configuration.
    pub fn cuda_core(arch: &GpuArch, weights: &CsrMatrix, n: usize) -> Self {
        let profile = spmm::cuda_core::cuda_core_spmm_profile(arch, weights, n);
        SpmmPlan {
            m: weights.rows(),
            n,
            k: weights.cols(),
            tile: profile.tile,
            // The scalar CSR kernel has no tensor-core tiles; the dense
            // heuristic still resolves a sensible grid / launch-overhead
            // bookkeeping entry for the scheduler.
            launch: launch::dense_launch(arch, weights.rows(), n, weights.cols()),
            kind: SpmmPlanKind::Csr {
                matrix: weights.clone(),
            },
            profile,
        }
    }

    /// The analytical profile resolved at plan time.
    pub fn profile(&self) -> &KernelProfile {
        &self.profile
    }

    /// The threadblock tile resolved at plan time.
    pub fn tile(&self) -> TileConfig {
        self.tile
    }

    /// The launch configuration resolved for the plan's build width.
    pub fn launch_config(&self) -> &LaunchConfig {
        &self.launch
    }

    /// The `(m, n, k)` the plan was built for: `n` is the width its profile
    /// and launch were modeled at (executes accept any width), `k` the
    /// activation row count every operand must match.
    pub fn bucket(&self) -> (usize, usize, usize) {
        (self.m, self.n, self.k)
    }

    /// Size of the packed static operand in bytes.
    pub fn packed_bytes(&self) -> usize {
        match &self.kind {
            SpmmPlanKind::Stitched {
                packed,
                cols,
                group_ptr,
                row_indices,
                ..
            } => {
                packed.packed_bytes()
                    + cols.len() * std::mem::size_of::<u32>()
                    + group_ptr.len() * std::mem::size_of::<usize>()
                    + row_indices.len() * std::mem::size_of::<u32>()
            }
            SpmmPlanKind::Blocks {
                packed,
                block_cols,
                block_row_ptr,
                ..
            } => {
                packed.packed_bytes()
                    + block_cols.len() * std::mem::size_of::<u32>()
                    + block_row_ptr.len() * std::mem::size_of::<usize>()
            }
            SpmmPlanKind::Dense { packed, .. } => packed.packed_bytes(),
            SpmmPlanKind::Csr { matrix, .. } => {
                (matrix.metadata_bytes() + matrix.nnz() as u64 * 4) as usize
            }
        }
    }

    /// Packed static-operand bytes **one execute sweep reads**: every stored
    /// weight value is streamed exactly once per call (per chunk, each chunk
    /// walks its own panels once), whatever the width. This is the unit the
    /// serving layer's panel-bytes-read counter accumulates: once per
    /// execute.
    pub fn panel_sweep_bytes(&self) -> u64 {
        match &self.kind {
            SpmmPlanKind::Stitched { packed, .. }
            | SpmmPlanKind::Blocks { packed, .. }
            | SpmmPlanKind::Dense { packed, .. } => {
                (packed.packed_values() * std::mem::size_of::<f32>()) as u64
            }
            SpmmPlanKind::Csr { matrix } => matrix.metadata_bytes() + matrix.nnz() as u64 * 4,
        }
    }

    /// Builds a plan for a *same-pattern magnitude update* of the Shfl-BW
    /// weights this plan was prepared from, by delta re-packing: the clone
    /// keeps every resolved artefact (tile, launch, column/group
    /// metadata, write-back indices, analytical profile — all functions of
    /// the unchanged sparsity structure) and only the panel payload bytes are
    /// rewritten with the plan's own `tk`
    /// ([`PackedPanels::repack_vector_wise_values`]). The result is
    /// bit-identical to [`SpmmPlan::shfl_bw`] on the new weights.
    ///
    /// Returns the new plan plus the payload bytes rewritten, so the caller
    /// can charge a `TrafficCounter` and compare against the bytes a full
    /// rebuild would move ([`SpmmPlan::packed_bytes`]). `self` — typically
    /// still `Arc`-held by in-flight executes of the old weight version — is
    /// never mutated.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::ShapeMismatch`] if this plan is not a stitched
    /// (vector-wise / Shfl-BW) plan, or if `weights` changes the sparsity
    /// structure (vector size, shape, group boundaries, kept columns, or row
    /// permutation) — structural updates need a full rebuild.
    pub fn repack_shfl_bw(&self, weights: &ShflBwMatrix) -> KernelResult<(SpmmPlan, usize)> {
        let vw = weights.vector_wise();
        let same_pattern = match &self.kind {
            SpmmPlanKind::Stitched {
                v,
                cols,
                group_ptr,
                row_indices,
                ..
            } => {
                *v == vw.vector_size()
                    && self.m == weights.rows()
                    && self.k == weights.cols()
                    && cols.as_slice() == vw.col_idx()
                    && group_ptr.as_slice() == vw.group_ptr()
                    && row_indices.as_slice() == weights.row_indices()
            }
            _ => false,
        };
        if !same_pattern {
            return Err(KernelError::ShapeMismatch {
                context: format!(
                    "delta re-pack requires a same-pattern stitched plan: \
                     plan bucket {:?} cannot absorb update {}",
                    self.bucket(),
                    weights
                ),
            });
        }
        let mut plan = self.clone();
        let SpmmPlanKind::Stitched { tk, packed, .. } = &mut plan.kind else {
            unreachable!("pattern check above admits only stitched plans");
        };
        let bytes = packed.repack_vector_wise_values(vw, *tk);
        Ok((plan, bytes))
    }

    /// Executes the prepared SpMM against a `k × n` activation matrix of any
    /// width `n`, in one sweep over the packed operand. Bit-identical to a
    /// plan built for exactly `n` columns and to the naive oracles (see
    /// [`GemmPlan::execute`] — same contract, same argument).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::ShapeMismatch`] if `activations` does not have
    /// the `k` rows the plan packs.
    pub fn execute(&self, activations: &DenseMatrix) -> KernelResult<KernelOutput> {
        let spans = sweep_spans("SpMM", activations, self.k)?;
        let mut output = DenseMatrix::zeros(self.m, activations.cols());
        if self.m > 0 && activations.cols() > 0 {
            self.sweep(activations, &mut output, &spans);
        }
        Ok(KernelOutput { output })
    }

    /// Sweeps the packed operand over `spans` of a non-empty operand into
    /// the zeroed `output`.
    fn sweep(&self, activations: &DenseMatrix, output: &mut DenseMatrix, spans: &[SegmentSpan]) {
        let n = activations.cols();
        match &self.kind {
            SpmmPlanKind::Stitched {
                v,
                tk,
                packed,
                cols,
                group_ptr,
                row_indices,
                identity_rows,
                macs_per_element,
            } => {
                let (v, tk) = (*v, *tk);
                let b16_matrix = activations.as_f16_rounded();
                let b16 = b16_matrix.as_slice();
                // Group-ordered accumulators. With the identity permutation
                // (vector-wise plans) group g's accumulator rows *are* output
                // rows g·V..(g+1)·V, so the output is accumulated in place; a
                // shuffled plan accumulates into a fresh buffer and resolves
                // the write-back row indices afterwards.
                let mut grouped = if *identity_rows {
                    Vec::new()
                } else {
                    vec![0.0f32; self.m * n]
                };
                let acc_slice: &mut [f32] = if *identity_rows {
                    output.as_mut_slice()
                } else {
                    &mut grouped
                };
                parallel::par_chunks_mut_weighted(acc_slice, v * n, *macs_per_element, |g, acc| {
                    let group_cols = &cols[group_ptr[g]..group_ptr[g + 1]];
                    for (step, panel) in packed.chunk_panels(g).enumerate() {
                        // The packed panel is the stitched weight tile; the
                        // activation rows its kept columns name are read in
                        // place.
                        let (values, rows, w) = packed.panel(panel);
                        debug_assert_eq!(rows, v);
                        let step_cols = &group_cols[step * tk..step * tk + w];
                        mma_sweep::<false>(values, v, b16, step_cols, n, acc, n, spans);
                    }
                });
                if !*identity_rows {
                    for (stored_row, acc_row) in grouped.chunks_exact(n).enumerate() {
                        output
                            .row_mut(row_indices[stored_row] as usize)
                            .copy_from_slice(acc_row);
                    }
                }
            }
            SpmmPlanKind::Blocks {
                v,
                packed,
                block_cols,
                block_row_ptr,
                rows,
                macs_per_element,
            } => {
                let v = *v;
                let b16_matrix = activations.as_f16_rounded();
                let b16 = b16_matrix.as_slice();
                parallel::par_chunks_mut_weighted(
                    output.as_mut_slice(),
                    v * n,
                    *macs_per_element,
                    |br, out_chunk| {
                        for (i, panel) in packed.chunk_panels(br).enumerate() {
                            let (values, _, _) = packed.panel(panel);
                            let bc = block_cols[block_row_ptr[br] + i] as usize;
                            let block_rows = &rows[bc * v..(bc + 1) * v];
                            mma_sweep::<false>(values, v, b16, block_rows, n, out_chunk, n, spans);
                        }
                    },
                );
            }
            SpmmPlanKind::Dense { packed, rows } => {
                sweep_dense(packed, rows, activations, output, spans);
            }
            SpmmPlanKind::Csr { matrix } => {
                spmm::cuda_core::csr_spmm_into(matrix, activations, output, spans);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn vector_wise_dense(
        rng: &mut StdRng,
        m: usize,
        k: usize,
        v: usize,
        density: f64,
    ) -> DenseMatrix {
        let groups = m / v;
        let keep: Vec<bool> = (0..groups * k).map(|_| rng.gen_bool(density)).collect();
        DenseMatrix::from_fn(m, k, |r, c| {
            if keep[(r / v) * k + c] {
                rng.gen_range(-1.0f32..1.0)
            } else {
                0.0
            }
        })
    }

    #[test]
    fn gemm_plan_matches_the_naive_oracle() {
        let mut rng = StdRng::seed_from_u64(7);
        let arch = GpuArch::v100();
        let a = DenseMatrix::random(&mut rng, 33, 29);
        let plan = GemmPlan::new(&arch, &a, 21);
        for _ in 0..3 {
            let b = DenseMatrix::random(&mut rng, 29, 21);
            let prepared = plan.execute(&b).unwrap();
            let naive = crate::reference::fragment_matmul_naive(arch.mma_shape, &a, &b);
            assert_eq!(prepared.output, naive);
        }
    }

    #[test]
    fn shfl_bw_plan_matches_cold_execute_across_activations() {
        let mut rng = StdRng::seed_from_u64(11);
        let arch = GpuArch::v100();
        let dense_a = vector_wise_dense(&mut rng, 32, 40, 8, 0.4);
        let perm: Vec<usize> = (0..32).rev().collect();
        let a = ShflBwMatrix::from_dense_with_permutation(&dense_a, &perm, 8).unwrap();
        let plan = SpmmPlan::shfl_bw(&arch, &a, 24);
        for _ in 0..3 {
            let b = DenseMatrix::random(&mut rng, 40, 24);
            // A cold call: a plan built for this one execute.
            let cold = SpmmPlan::shfl_bw(&arch, &a, 24);
            assert_eq!(
                plan.execute(&b).unwrap().output,
                cold.execute(&b).unwrap().output
            );
            assert_eq!(plan.profile().name, cold.profile().name);
        }
    }

    #[test]
    fn delta_repack_matches_a_fresh_build_and_rejects_pattern_changes() {
        let mut rng = StdRng::seed_from_u64(17);
        let arch = GpuArch::v100();
        let dense_a = vector_wise_dense(&mut rng, 32, 40, 8, 0.4);
        let perm: Vec<usize> = (0..32).rev().collect();
        let a = ShflBwMatrix::from_dense_with_permutation(&dense_a, &perm, 8).unwrap();
        let plan = SpmmPlan::shfl_bw(&arch, &a, 24);
        // Magnitude-only update: same mask, scaled values.
        let scaled = DenseMatrix::from_fn(32, 40, |r, c| dense_a.get(r, c) * -0.75);
        let update = ShflBwMatrix::from_dense_with_permutation(&scaled, &perm, 8).unwrap();
        assert!(a.same_pattern(&update));
        let (repacked, bytes) = plan.repack_shfl_bw(&update).unwrap();
        // Payload bytes only — strictly fewer than a full rebuild moves.
        assert!(bytes > 0 && bytes < repacked.packed_bytes());
        let fresh = SpmmPlan::shfl_bw(&arch, &update, 24);
        let b = DenseMatrix::random(&mut rng, 40, 24);
        assert_eq!(
            repacked.execute(&b).unwrap().output,
            fresh.execute(&b).unwrap().output,
            "delta-repacked plan must stay bit-identical to a fresh build"
        );
        // The donor plan is untouched and still serves the old weights.
        assert_eq!(
            plan.execute(&b).unwrap().output,
            SpmmPlan::shfl_bw(&arch, &a, 24).execute(&b).unwrap().output
        );
        // A structural change (different kept columns) is rejected.
        let structural =
            DenseMatrix::from_fn(32, 40, |r, c| if (r / 8 + c) % 2 == 0 { 1.0 } else { 0.0 });
        let other = ShflBwMatrix::from_dense_with_permutation(&structural, &perm, 8).unwrap();
        assert!(!a.same_pattern(&other));
        assert!(matches!(
            plan.repack_shfl_bw(&other),
            Err(KernelError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn balanced_plan_rejected_on_pre_ampere() {
        let mut rng = StdRng::seed_from_u64(13);
        let dense = DenseMatrix::from_fn(8, 8, |_, c| {
            if c % 4 < 2 {
                rng.gen_range(-1.0..1.0)
            } else {
                0.0
            }
        });
        let a = BalancedMatrix::from_dense(&dense, 2, 4).unwrap();
        assert!(SpmmPlan::balanced(&GpuArch::v100(), &a, 16).is_err());
        assert!(SpmmPlan::balanced(&GpuArch::a100(), &a, 16).is_ok());
    }

    fn bits(m: &DenseMatrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// Builds one plan with `build(16)` and executes it with `run` at widths
    /// on both sides of 16: each output must match a plan built for exactly
    /// that width and the naive `oracle` bit for bit, and an operand with the
    /// wrong `k` must be a `ShapeMismatch`.
    fn check_any_width<P>(
        what: &str,
        k: usize,
        build: impl Fn(usize) -> P,
        run: impl Fn(&P, &DenseMatrix) -> KernelResult<KernelOutput>,
        oracle: impl Fn(&DenseMatrix) -> DenseMatrix,
    ) {
        let mut rng = StdRng::seed_from_u64(31);
        let plan = build(16);
        // 300 crosses one MAX_SWEEP_SPAN boundary.
        for n in [0, 1, 15, 16, 17, 67, 300] {
            let b = DenseMatrix::random(&mut rng, k, n);
            let got = run(&plan, &b).unwrap().output;
            let exact = run(&build(n), &b).unwrap().output;
            assert_eq!(got.shape(), exact.shape(), "{what} n={n}");
            assert_eq!(
                bits(&got),
                bits(&exact),
                "{what} n={n}: vs exact-width plan"
            );
            assert_eq!(
                bits(&got),
                bits(&oracle(&b)),
                "{what} n={n}: vs naive oracle"
            );
        }
        assert!(
            matches!(
                run(&plan, &DenseMatrix::zeros(k + 1, 16)),
                Err(KernelError::ShapeMismatch { .. })
            ),
            "{what}: wrong k must be rejected"
        );
    }

    #[test]
    fn execute_accepts_any_width_bit_identically() {
        use crate::reference;
        let mut rng = StdRng::seed_from_u64(23);
        let (v100, a100) = (GpuArch::v100(), GpuArch::a100());
        let (m, k) = (32, 40);
        let dense_a = vector_wise_dense(&mut rng, m, k, 8, 0.4);

        let w = DenseMatrix::random(&mut rng, 24, k);
        check_any_width(
            "gemm",
            k,
            |n| GemmPlan::new(&v100, &w, n),
            GemmPlan::execute,
            |b| reference::fragment_matmul_naive(v100.mma_shape, &w, b),
        );

        // A non-identity shuffle: stored rows scatter on write-back.
        let perm: Vec<usize> = (0..m).map(|r| (r * 7) % m).collect();
        let shfl = ShflBwMatrix::from_dense_with_permutation(&dense_a, &perm, 8).unwrap();
        check_any_width(
            "shfl-bw",
            k,
            |n| SpmmPlan::shfl_bw(&v100, &shfl, n),
            SpmmPlan::execute,
            |b| reference::stitched_spmm_naive(&v100, shfl.vector_wise(), b, shfl.row_indices()),
        );

        let vw = VectorWiseMatrix::from_dense(&dense_a, 8).unwrap();
        let identity: Vec<u32> = (0..m as u32).collect();
        check_any_width(
            "vector-wise",
            k,
            |n| SpmmPlan::vector_wise(&v100, &vw, n),
            SpmmPlan::execute,
            |b| reference::stitched_spmm_naive(&v100, &vw, b, &identity),
        );

        let blocks = DenseMatrix::from_fn(m, k, |r, c| {
            if (r / 8 + c / 8) % 2 == 0 {
                0.05 + (r * k + c) as f32 * 0.003
            } else {
                0.0
            }
        });
        let bsr = BlockSparseMatrix::from_dense(&blocks, 8).unwrap();
        check_any_width(
            "block-wise",
            k,
            |n| SpmmPlan::block_wise(&v100, &bsr, n),
            SpmmPlan::execute,
            |b| reference::block_spmm_naive(&v100, &bsr, b),
        );

        // Two kept values in every group of four columns.
        let two_of_four = DenseMatrix::from_fn(m, k, |r, c| {
            if (r + c) % 4 < 2 {
                0.05 + ((r * 13 + c * 7) % 17) as f32 * 0.01
            } else {
                0.0
            }
        });
        let bal = BalancedMatrix::from_dense(&two_of_four, 2, 4).unwrap();
        check_any_width(
            "balanced",
            k,
            |n| SpmmPlan::balanced(&a100, &bal, n).unwrap(),
            SpmmPlan::execute,
            |b| reference::balanced_spmm_naive(&a100, &bal, b),
        );

        let csr = CsrMatrix::from_dense(&dense_a);
        check_any_width(
            "csr",
            k,
            |n| SpmmPlan::cuda_core(&v100, &csr, n),
            SpmmPlan::execute,
            |b| reference::csr_spmm_naive(&csr, b),
        );
    }

    #[test]
    fn panel_sweep_bytes_matches_packed_values() {
        let mut rng = StdRng::seed_from_u64(29);
        let arch = GpuArch::v100();
        let dense_a = vector_wise_dense(&mut rng, 32, 40, 8, 0.4);
        let vw = VectorWiseMatrix::from_dense(&dense_a, 8).unwrap();
        // The sweep bytes are the packed values (not the metadata), and do
        // not depend on the plan's build width.
        let p16 = SpmmPlan::vector_wise(&arch, &vw, 16);
        let p64 = SpmmPlan::vector_wise(&arch, &vw, 64);
        assert_eq!(p16.panel_sweep_bytes(), p64.panel_sweep_bytes());
        assert_eq!(p16.panel_sweep_bytes(), (vw.stored_values() * 4) as u64);
        let gemm = GemmPlan::new(&arch, &dense_a, 16);
        assert_eq!(gemm.panel_sweep_bytes(), (32 * 40 * 4) as u64);
    }

    #[test]
    fn plan_reports_packed_footprint_and_tile() {
        let mut rng = StdRng::seed_from_u64(19);
        let arch = GpuArch::t4();
        let dense_a = vector_wise_dense(&mut rng, 64, 64, 16, 0.3);
        let vw = VectorWiseMatrix::from_dense(&dense_a, 16).unwrap();
        let plan = SpmmPlan::vector_wise(&arch, &vw, 32);
        assert!(plan.packed_bytes() > 0);
        assert_eq!(plan.tile().tm, 16);
        let gemm_plan = GemmPlan::new(&arch, &dense_a, 32);
        assert!(gemm_plan.packed_bytes() >= 64 * 64 * 4);
        assert_eq!(gemm_plan.launch_config().tile.tk, 32);
    }
}
