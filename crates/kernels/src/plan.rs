//! The plan/execute split: build a kernel plan **once** per
//! `(weights, arch, N-bucket)`, execute it many times against fresh
//! activations.
//!
//! The cold `*_execute` entry points of this crate re-stage the static weight
//! operand on every call: they re-round it through fp16, re-transpose the
//! stored vectors into the `V×tk` stitched tiles, and re-resolve the launch
//! configuration and analytical profile. For a serving workload that runs the
//! same layer thousands of times, all of that work is amortisable — which is
//! exactly what real sparse inference engines do (EIE's compressed weight
//! layout, NVIDIA's pre-transformed 2:4 metadata). The plan objects here do
//! that one-time work up front:
//!
//! * [`GemmPlan`] — dense tensor-core GEMM: fp16-rounded row-panels of the
//!   weight matrix in execution order.
//! * [`SpmmPlan`] — all five SpMM variants: pre-stitched `V×tk` group panels
//!   with shuffle row-indices resolved at pack time (vector-wise / Shfl-BW),
//!   rounded `V×V` block panels (block-wise), a rounded dense packing of the
//!   decompressed operand (balanced 2:4), or the CSR operand itself
//!   (CUDA-core scalar kernel — it has no fp16 staging to amortise).
//! * [`ConvPlan`] — both implicit-GEMM convolution paths, wrapping a
//!   [`GemmPlan`] or stitched [`SpmmPlan`] over the flattened filter matrix.
//!
//! Every plan owns the packed panels ([`shfl_core::packed::PackedPanels`]),
//! the resolved launch/tile configuration, and the precomputed analytical
//! [`KernelProfile`] (cloned into each [`KernelOutput`]). Every tensor-core
//! plan and the CSR plan execute through the one panel sweep
//! [`gpu_sim::mma::mma_sweep`], and each plan has one execute body: a
//! single-width `execute` sweeps the whole width, a fused `execute_segments`
//! sweeps the segments' spans. The packed panels do not depend on the width
//! a plan was built for, so the serving stack caches one plan per
//! `(layer, version)` ([`crate::cache::PlanCache`]) and sweeps every request
//! on it as one exact-width segment. Activation-side
//! working buffers are deliberately *not* cached on the plan: freshly mapped
//! pages measured consistently faster than long-lived reused buffers on this
//! allocator (transparent-huge-page placement), and a buffer-free plan stays
//! `Sync`. A prepared `execute` is **bit-identical** to the cold path and to
//! the naive references in [`crate::reference`]: packing rounds element-wise
//! exactly where the cold path rounds, and the per-output-element accumulation
//! order is unchanged (the property tests assert exact equality).
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
//! // Execute phase: amortised across every batch of activations.
//! for _ in 0..3 {
//!     let activations = DenseMatrix::random(&mut rng, 64, 32);
//!     let out = plan.execute(&activations)?;
//!     assert_eq!(out.output.shape(), (64, 32));
//! }
//! # Ok(())
//! # }
//! ```

use crate::conv::{self, Conv2dParams, Tensor4};
use crate::gemm;
use crate::launch::{self, LaunchConfig};
use crate::profile::{KernelError, KernelOutput, KernelProfile, KernelResult};
use crate::spmm;
use gpu_sim::mma::{mma_sweep, SegmentSpan};
use gpu_sim::pipeline::PipelineConfig;
use gpu_sim::GpuArch;
use shfl_core::bucket::Segment;
use shfl_core::formats::{
    BalancedMatrix, BlockSparseMatrix, CsrMatrix, ShflBwMatrix, VectorWiseMatrix,
};
use shfl_core::matrix::DenseMatrix;
use shfl_core::packed::PackedPanels;
use shfl_core::parallel;
use shfl_core::tiling::{self, TileConfig};

/// Widest column span one sweep step processes at a time. A wider execute
/// or segment is subdivided for the sweep (bit-identical — every output
/// column depends only on its own activation column, and the panel order per
/// column is unchanged): a `tk × span` pre-rounded activation tile of
/// `16 × 256 × 4 = 16` KB stays L1-resident across all of a panel's output
/// rows, where a 1024-wide tile's 64 KB would be re-streamed from L2 per row.
const MAX_SWEEP_SPAN: usize = 256;

/// Appends the sweep spans of columns `start .. end`: [`MAX_SWEEP_SPAN`]-wide
/// pieces, the last one narrower.
fn push_spans(spans: &mut Vec<SegmentSpan>, start: usize, end: usize) {
    for s in (start..end).step_by(MAX_SWEEP_SPAN) {
        spans.push(SegmentSpan {
            start: s,
            width: MAX_SWEEP_SPAN.min(end - s),
        });
    }
}

/// The sweep spans of all `n` columns of a single-width operand.
pub(crate) fn full_width_spans(n: usize) -> Vec<SegmentSpan> {
    let mut spans = Vec::with_capacity(n.div_ceil(MAX_SWEEP_SPAN));
    push_spans(&mut spans, 0, n);
    spans
}

/// Validates an activation operand and returns the spans one execute sweeps.
///
/// A single-width execute (`segments = None`) must match the `(k, n)` bucket
/// the plan was built for and sweeps all `n` columns. A fused execute's
/// `segments` must tile the operand's columns exactly once, contiguously
/// from column 0; each segment is swept on its own spans.
fn sweep_spans(
    what: &str,
    b: &DenseMatrix,
    k: usize,
    n: usize,
    segments: Option<&[Segment]>,
) -> KernelResult<Vec<SegmentSpan>> {
    let Some(segments) = segments else {
        if b.shape() != (k, n) {
            return Err(KernelError::ShapeMismatch {
                context: format!(
                    "{what} plan was built for {k}x{n} activations but got {:?}",
                    b.shape()
                ),
            });
        }
        return Ok(full_width_spans(n));
    };
    if b.rows() != k {
        return Err(KernelError::ShapeMismatch {
            context: format!(
                "{what} fused-segment operand has {} rows but the plan packs k={k}",
                b.rows()
            ),
        });
    }
    let mut expected_start = 0;
    let mut spans = Vec::with_capacity(segments.len());
    for s in segments {
        if s.start != expected_start || s.width == 0 || s.width > s.bucket {
            return Err(KernelError::ShapeMismatch {
                context: format!(
                    "{what} fused segments must tile the operand contiguously with \
                     1 <= width <= bucket; segment {s:?} breaks the tiling at column \
                     {expected_start}"
                ),
            });
        }
        push_spans(&mut spans, s.start, s.end());
        expected_start += s.width;
    }
    if expected_start != b.cols() {
        return Err(KernelError::ShapeMismatch {
            context: format!(
                "{what} fused segments cover {expected_start} columns but the operand \
                 has {}",
                b.cols()
            ),
        });
    }
    Ok(spans)
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
    n: usize,
    k: usize,
    packed: PackedPanels,
    rows: Vec<u32>,
    launch: LaunchConfig,
    profile: KernelProfile,
}

impl GemmPlan {
    /// Builds the plan: rounds and packs the weight matrix into `fm×fk`
    /// row-panels (the architecture's MMA fragment shape), resolves the launch
    /// configuration and the analytical profile for the `n` bucket.
    pub fn new(arch: &GpuArch, weights: &DenseMatrix, n: usize) -> Self {
        let (m, k) = weights.shape();
        let shape = arch.mma_shape;
        let packed = PackedPanels::pack_dense_rows(weights, shape.m(), shape.k());
        GemmPlan {
            m,
            n,
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

    /// Packed-panel bytes **one full execute sweep reads**: every panel value
    /// is streamed exactly once per call (per-chunk, each chunk walks its own
    /// panels once), whether the call updates one output segment or many.
    /// This is the unit the serving layer's panel-bytes-read counter
    /// accumulates.
    pub fn panel_sweep_bytes(&self) -> u64 {
        (self.packed.packed_values() * std::mem::size_of::<f32>()) as u64
    }

    /// Executes the prepared GEMM against a **multi-segment** activation
    /// operand: `segments` tile the operand's columns
    /// ([`shfl_core::bucket::BucketPolicy::segments`]), and one fused sweep
    /// over the packed weight panels updates every segment — the panels are
    /// read once instead of once per segment, which is the whole point of the
    /// fused serving path. No padding columns are computed (the per-segment
    /// path pads each segment up to its bucket; padding contributes nothing,
    /// so skipping it is bit-identical).
    ///
    /// The output is bit-identical to executing each segment separately on a
    /// plan of its bucket width, and to one cold exact-width execution: the
    /// packed panel layout does not depend on the plan's N-bucket, and each
    /// output element accumulates its `k` contributions in ascending order
    /// either way. The returned profile is this plan's bucket profile (the
    /// caller scales modeled time to the fused width).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::ShapeMismatch`] if the operand's row count does
    /// not match the packed `k` or `segments` do not tile its columns.
    pub fn execute_segments(
        &self,
        activations: &DenseMatrix,
        segments: &[Segment],
    ) -> KernelResult<KernelOutput> {
        Ok(KernelOutput {
            output: self.execute_output(activations, Some(segments))?,
            profile: self.profile.clone(),
        })
    }

    /// Executes the prepared GEMM against one activation matrix.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::ShapeMismatch`] if `activations` is not the
    /// `k×n` operand the plan was built for.
    pub fn execute(&self, activations: &DenseMatrix) -> KernelResult<KernelOutput> {
        Ok(KernelOutput {
            output: self.execute_output(activations, None)?,
            profile: self.profile.clone(),
        })
    }

    /// The one execute body: validates the operand (see [`sweep_spans`]) and
    /// sweeps the packed panels over its spans, without the profile clone.
    pub(crate) fn execute_output(
        &self,
        activations: &DenseMatrix,
        segments: Option<&[Segment]>,
    ) -> KernelResult<DenseMatrix> {
        let spans = sweep_spans("GEMM", activations, self.k, self.n, segments)?;
        let mut c = DenseMatrix::zeros(self.m, activations.cols());
        sweep_dense(&self.packed, &self.rows, activations, &mut c, &spans);
        Ok(c)
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

    /// The launch configuration resolved for this plan's N-bucket.
    pub fn launch_config(&self) -> &LaunchConfig {
        &self.launch
    }

    /// The `(m, n, k)` bucket this plan was built for (`n` is the activation
    /// bucket width, `k` the activation row count every operand must match).
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

    /// Packed static-operand bytes **one full execute sweep reads**: every
    /// stored weight value is streamed exactly once per call (per chunk, each
    /// chunk walks its own panels once), whether the call updates one output
    /// segment or many. This is the unit the serving layer's
    /// panel-bytes-read counter accumulates; the per-segment serving path
    /// pays it once per segment, the fused path once per request.
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

    /// Executes the prepared SpMM against a **multi-segment** activation
    /// operand: `segments` tile the operand's columns, and one fused sweep
    /// over the packed panels updates every segment (see
    /// [`GemmPlan::execute_segments`] — same contract, same bit-identity
    /// argument). No padding columns are computed.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::ShapeMismatch`] if the operand's row count does
    /// not match the packed `k` or `segments` do not tile its columns.
    pub fn execute_segments(
        &self,
        activations: &DenseMatrix,
        segments: &[Segment],
    ) -> KernelResult<KernelOutput> {
        Ok(KernelOutput {
            output: self.execute_output(activations, Some(segments))?,
            profile: self.profile.clone(),
        })
    }

    /// Executes the prepared SpMM against one activation matrix.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::ShapeMismatch`] if `activations` is not the
    /// `k×n` operand the plan was built for.
    pub fn execute(&self, activations: &DenseMatrix) -> KernelResult<KernelOutput> {
        Ok(KernelOutput {
            output: self.execute_output(activations, None)?,
            profile: self.profile.clone(),
        })
    }

    /// The one execute body: validates the operand (see [`sweep_spans`]) and
    /// sweeps the packed operand over its spans, without the profile clone.
    pub(crate) fn execute_output(
        &self,
        activations: &DenseMatrix,
        segments: Option<&[Segment]>,
    ) -> KernelResult<DenseMatrix> {
        let spans = sweep_spans("SpMM", activations, self.k, self.n, segments)?;
        let n = activations.cols();
        let mut output = DenseMatrix::zeros(self.m, n);
        if self.m == 0 || n == 0 {
            return Ok(output);
        }
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
                        mma_sweep::<false>(values, v, b16, step_cols, n, acc, n, &spans);
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
                            mma_sweep::<false>(values, v, b16, block_rows, n, out_chunk, n, &spans);
                        }
                    },
                );
            }
            SpmmPlanKind::Dense { packed, rows } => {
                sweep_dense(packed, rows, activations, &mut output, &spans);
            }
            SpmmPlanKind::Csr { matrix } => {
                spmm::cuda_core::csr_spmm_into(matrix, activations, &mut output, &spans);
            }
        }
        Ok(output)
    }
}

/// Static operand data of one prepared convolution path.
#[derive(Debug, Clone)]
enum ConvPlanKind {
    Dense(GemmPlan),
    ShflBw(SpmmPlan),
}

/// A prepared implicit-GEMM 2-D convolution (dense cuDNN-like or Shfl-BW).
///
/// The flattened filter matrix is packed once; each execute unfolds the input
/// feature map ([`conv::im2col`] — the activation-side work a real kernel
/// stages through shared memory per call) and runs the prepared GEMM/SpMM.
#[derive(Debug, Clone)]
pub struct ConvPlan {
    params: Conv2dParams,
    kind: ConvPlanKind,
    profile: KernelProfile,
}

impl ConvPlan {
    /// Prepares the dense implicit-GEMM convolution.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::ShapeMismatch`] if the flattened filter matrix
    /// does not match the convolution geometry.
    pub fn dense(
        arch: &GpuArch,
        weights: &DenseMatrix,
        params: &Conv2dParams,
    ) -> KernelResult<Self> {
        let (m, n, k) = params.implicit_gemm_shape();
        if weights.shape() != (m, k) {
            return Err(KernelError::ShapeMismatch {
                context: format!(
                    "conv weights are {:?} but the geometry implies {m}x{k}",
                    weights.shape()
                ),
            });
        }
        Ok(ConvPlan {
            params: *params,
            kind: ConvPlanKind::Dense(GemmPlan::new(arch, weights, n)),
            profile: conv::conv2d_dense_profile(arch, params),
        })
    }

    /// Prepares the Shfl-BW implicit-GEMM convolution.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::ShapeMismatch`] if the pruned filter matrix does
    /// not match the convolution geometry.
    pub fn shfl_bw(
        arch: &GpuArch,
        weights: &ShflBwMatrix,
        params: &Conv2dParams,
    ) -> KernelResult<Self> {
        let (m, n, k) = params.implicit_gemm_shape();
        if (weights.rows(), weights.cols()) != (m, k) {
            return Err(KernelError::ShapeMismatch {
                context: format!(
                    "conv weights are {}x{} but the geometry implies {m}x{k}",
                    weights.rows(),
                    weights.cols()
                ),
            });
        }
        Ok(ConvPlan {
            params: *params,
            kind: ConvPlanKind::ShflBw(SpmmPlan::shfl_bw(arch, weights, n)),
            profile: conv::conv2d_shfl_bw_profile(arch, weights, params),
        })
    }

    /// The analytical profile resolved at plan time.
    pub fn profile(&self) -> &KernelProfile {
        &self.profile
    }

    /// The convolution geometry the plan was built for.
    pub fn params(&self) -> &Conv2dParams {
        &self.params
    }

    /// Packed filter-panel bytes one full execute sweep reads (see
    /// [`GemmPlan::panel_sweep_bytes`]).
    pub fn panel_sweep_bytes(&self) -> u64 {
        match &self.kind {
            ConvPlanKind::Dense(gemm) => gemm.panel_sweep_bytes(),
            ConvPlanKind::ShflBw(spmm) => spmm.panel_sweep_bytes(),
        }
    }

    /// Executes the prepared convolution with the unfolded operand served as
    /// a **fused multi-segment** sweep: `segments` tile the implicit-GEMM
    /// width (`params.implicit_gemm_shape().1`), and the packed filter panels
    /// are read once for all segments instead of once per segment (see
    /// [`GemmPlan::execute_segments`]). Bit-identical to
    /// [`ConvPlan::execute`].
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::ShapeMismatch`] if the input tensor does not
    /// match the plan's geometry or `segments` do not tile the unfolded
    /// width.
    pub fn execute_segments(
        &self,
        input: &Tensor4,
        segments: &[Segment],
    ) -> KernelResult<(Tensor4, KernelProfile)> {
        self.execute_inner(input, Some(segments))
    }

    /// Executes the prepared convolution against one input feature map.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::ShapeMismatch`] if the input tensor does not
    /// match the geometry the plan was built for.
    pub fn execute(&self, input: &Tensor4) -> KernelResult<(Tensor4, KernelProfile)> {
        self.execute_inner(input, None)
    }

    /// The one execute body: validates the input, unfolds it and runs the
    /// prepared GEMM/SpMM on the whole width or on `segments`.
    fn execute_inner(
        &self,
        input: &Tensor4,
        segments: Option<&[Segment]>,
    ) -> KernelResult<(Tensor4, KernelProfile)> {
        let p = &self.params;
        if input.shape() != (p.batch, p.in_channels, p.input_h, p.input_w) {
            return Err(KernelError::ShapeMismatch {
                context: format!(
                    "conv input is {:?} but the plan expects ({}, {}, {}, {})",
                    input.shape(),
                    p.batch,
                    p.in_channels,
                    p.input_h,
                    p.input_w
                ),
            });
        }
        let unfolded = conv::im2col(input, p);
        let out = match &self.kind {
            ConvPlanKind::Dense(gemm) => gemm.execute_output(&unfolded, segments)?,
            ConvPlanKind::ShflBw(spmm) => spmm.execute_output(&unfolded, segments)?,
        };
        conv::reclaim_unfolded(unfolded);
        Ok((conv::col2im_output(&out, p), self.profile.clone()))
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
    fn gemm_plan_rejects_wrong_bucket() {
        let arch = GpuArch::t4();
        let plan = GemmPlan::new(&arch, &DenseMatrix::zeros(8, 8), 16);
        assert!(plan.execute(&DenseMatrix::zeros(8, 8)).is_err());
        assert!(plan.execute(&DenseMatrix::zeros(16, 16)).is_err());
        assert!(plan.execute(&DenseMatrix::zeros(8, 16)).is_ok());
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
            let prepared = plan.execute(&b).unwrap();
            let cold = spmm::shfl_bw::shfl_bw_spmm_execute(&arch, &a, &b).unwrap();
            assert_eq!(prepared.output, cold.output);
            assert_eq!(prepared.profile.name, cold.profile.name);
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

    #[test]
    fn conv_plan_validates_input_shape() {
        let mut rng = StdRng::seed_from_u64(17);
        let params = Conv2dParams {
            batch: 1,
            in_channels: 2,
            out_channels: 4,
            input_h: 6,
            input_w: 6,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
            dilation: 1,
        };
        let (m, _, k) = params.implicit_gemm_shape();
        let weights = DenseMatrix::random(&mut rng, m, k);
        let arch = GpuArch::v100();
        let plan = ConvPlan::dense(&arch, &weights, &params).unwrap();
        let bad = Tensor4::zeros(1, 2, 5, 6);
        assert!(plan.execute(&bad).is_err());
        let good = Tensor4::random(&mut rng, 1, 2, 6, 6);
        let (out, profile) = plan.execute(&good).unwrap();
        assert_eq!(out.shape(), (1, 4, 6, 6));
        assert_eq!(profile.name, "dense-conv2d");
    }

    /// Per-segment reference for the fused sweep: each segment padded up to
    /// its bucket, executed on a plan built for that bucket, and cropped back
    /// — exactly the serving engine's historical pad/split loop.
    fn per_segment_reference(
        plan_for_bucket: impl Fn(usize) -> SpmmPlan,
        b: &DenseMatrix,
        segments: &[Segment],
        m: usize,
    ) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(m, b.cols());
        for s in segments {
            let plan = plan_for_bucket(s.bucket);
            let padded = b.cols_padded(s.start, s.width, s.bucket);
            let seg_out = plan.execute(&padded).unwrap().output;
            out.copy_cols_from(&seg_out, s.start, s.width);
        }
        out
    }

    #[test]
    fn fused_segment_execution_matches_per_segment_plans() {
        use shfl_core::bucket::BucketPolicy;
        let mut rng = StdRng::seed_from_u64(23);
        let arch = GpuArch::v100();
        let policy = BucketPolicy::new(8, 16).unwrap();
        let n = 59; // 16 + 16 + 16 + an 11-wide tail on the 16-bucket
        let segments = policy.segments(n);
        assert!(segments.len() >= 4);
        let b = DenseMatrix::random(&mut rng, 40, n);

        // Shfl-BW (shuffled write-back rows).
        let dense_a = vector_wise_dense(&mut rng, 32, 40, 8, 0.4);
        let perm: Vec<usize> = (0..32).rev().collect();
        let a = ShflBwMatrix::from_dense_with_permutation(&dense_a, &perm, 8).unwrap();
        let fused = SpmmPlan::shfl_bw(&arch, &a, policy.max_bucket())
            .execute_segments(&b, &segments)
            .unwrap();
        let reference =
            per_segment_reference(|bkt| SpmmPlan::shfl_bw(&arch, &a, bkt), &b, &segments, 32);
        assert_eq!(fused.output, reference);
        // ... and to the cold exact-width execution.
        let cold = SpmmPlan::shfl_bw(&arch, &a, n).execute(&b).unwrap();
        assert_eq!(fused.output, cold.output);

        // Block-wise (BSR).
        let dense_blocks = DenseMatrix::from_fn(32, 40, |r, c| {
            if (r / 8 + c / 8) % 2 == 0 {
                0.05 + (r * 40 + c) as f32 * 0.003
            } else {
                0.0
            }
        });
        let bsr = shfl_core::formats::BlockSparseMatrix::from_dense(&dense_blocks, 8).unwrap();
        let fused = SpmmPlan::block_wise(&arch, &bsr, policy.max_bucket())
            .execute_segments(&b, &segments)
            .unwrap();
        let reference = per_segment_reference(
            |bkt| SpmmPlan::block_wise(&arch, &bsr, bkt),
            &b,
            &segments,
            32,
        );
        assert_eq!(fused.output, reference);

        // CUDA-core CSR (single-sweep by construction).
        let csr = CsrMatrix::from_dense(&dense_a);
        let fused = SpmmPlan::cuda_core(&arch, &csr, policy.max_bucket())
            .execute_segments(&b, &segments)
            .unwrap();
        let cold = SpmmPlan::cuda_core(&arch, &csr, n).execute(&b).unwrap();
        assert_eq!(fused.output, cold.output);

        // Dense GEMM plan.
        let w = DenseMatrix::random(&mut rng, 24, 40);
        let fused = GemmPlan::new(&arch, &w, policy.max_bucket())
            .execute_segments(&b, &segments)
            .unwrap();
        let mut reference = DenseMatrix::zeros(24, n);
        for s in &segments {
            let plan = GemmPlan::new(&arch, &w, s.bucket);
            let padded = b.cols_padded(s.start, s.width, s.bucket);
            let seg_out = plan.execute(&padded).unwrap().output;
            reference.copy_cols_from(&seg_out, s.start, s.width);
        }
        assert_eq!(fused.output, reference);
    }

    #[test]
    fn execute_segments_rejects_malformed_tilings() {
        let arch = GpuArch::t4();
        let plan = GemmPlan::new(&arch, &DenseMatrix::zeros(8, 8), 16);
        let b = DenseMatrix::zeros(8, 20);
        let seg = |start, width, bucket| Segment {
            start,
            width,
            bucket,
        };
        // Gap, overlap, width over bucket, wrong coverage, wrong k.
        assert!(plan
            .execute_segments(&b, &[seg(0, 8, 8), seg(9, 11, 16)])
            .is_err());
        assert!(plan
            .execute_segments(&b, &[seg(0, 16, 16), seg(15, 5, 8)])
            .is_err());
        assert!(plan.execute_segments(&b, &[seg(0, 20, 16)]).is_err());
        assert!(plan.execute_segments(&b, &[seg(0, 16, 16)]).is_err());
        assert!(plan
            .execute_segments(&DenseMatrix::zeros(9, 20), &[seg(0, 16, 16), seg(16, 4, 8)])
            .is_err());
        assert!(plan
            .execute_segments(&b, &[seg(0, 16, 16), seg(16, 4, 8)])
            .is_ok());
        // An empty operand is tiled by no segments.
        assert!(plan
            .execute_segments(&DenseMatrix::zeros(8, 0), &[])
            .is_ok());
    }

    #[test]
    fn panel_sweep_bytes_matches_packed_values() {
        let mut rng = StdRng::seed_from_u64(29);
        let arch = GpuArch::v100();
        let dense_a = vector_wise_dense(&mut rng, 32, 40, 8, 0.4);
        let vw = VectorWiseMatrix::from_dense(&dense_a, 8).unwrap();
        // The sweep bytes are the packed values (not the metadata), and do
        // not depend on the plan's N-bucket.
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
