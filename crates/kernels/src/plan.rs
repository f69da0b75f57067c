//! The plan/execute split: build a kernel plan **once** per
//! `(weights, arch)`, execute it many times against fresh activations of any
//! width.
//!
//! A plan is the one functional form of every kernel in this crate. Building
//! it stages the static weight operand: it rounds the weights through fp16,
//! transposes them into the panels the sweep reads, and resolves the launch
//! configuration and analytical profile. `execute` then only
//! sweeps. For a serving workload that runs the same layer thousands of
//! times, that one-time work is amortised — which is exactly what real
//! sparse inference engines do (EIE's compressed weight layout, NVIDIA's
//! pre-transformed 2:4 metadata). A one-off call builds a plan and executes
//! it once; `repro --bench-kernels` times that as its "cold" column.
//!
//! [`SpmmPlan`] is the plan of every GEMM-shaped kernel: the dense
//! tensor-core GEMM ([`SpmmPlan::dense`]) and the five SpMM variants. Every
//! tensor-core plan — dense, balanced 2:4 (the decompressed operand packed
//! like a dense GEMM), block-wise, vector-wise and Shfl-BW — holds its
//! weights in one panel format: row groups of packed panels
//! ([`shfl_core::packed::PackedPanels`]), each panel naming the activation
//! rows it multiplies, plus the output row of every stored row and one
//! accumulate mode. The kinds differ only in those tables:
//!
//! | plan | group height | step depth | operand rows | output rows | accumulate |
//! |---|---|---|---|---|---|
//! | dense, balanced 2:4 | `fm` | `fk` | `0..k`, shared by every group | identity | one running sum |
//! | block-wise | `V` | `V` | each kept block's `V` columns | identity | a partial per block |
//! | vector-wise, Shfl-BW | `V` | `tk` | the group's kept columns | the shuffle | a partial per step |
//!
//! The CUDA-core CSR plan owns the CSR operand itself: the scalar kernel has
//! no fp16 staging to amortise. Convolutions have their own plan,
//! [`crate::conv_plan::ImplicitConvPlan`]: it holds the same panel format,
//! with per-tap offsets into the input as its operand rows, and walks the
//! input feature map in place instead of unfolding it.
//!
//! Every plan owns its packed operand, the resolved launch/tile
//! configuration, and the precomputed analytical
//! [`KernelProfile`], which `profile()` returns; `execute` returns only the
//! output. Every tensor-core plan and the CSR plan execute through the one
//! panel sweep [`gpu_sim::mma::mma_sweep`], and each plan has one execute
//! body, which sweeps every column of its operand. The packed panels do not
//! depend on the activation width (the step depth is fixed),
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
use gpu_sim::mma::{mma_sweep, MmaShape, SegmentSpan};
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
fn sweep_spans(b: &DenseMatrix, k: usize) -> KernelResult<Vec<SegmentSpan>> {
    if b.rows() != k {
        return Err(KernelError::ShapeMismatch {
            context: format!("plan packs k={k} activation rows but got {:?}", b.shape()),
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

/// [`PackedPanels::pack`]'s value source for a vector-wise matrix: a group's
/// stored vectors from its kept column `first` on, column-major.
fn stored_vectors<'a>(
    vw: &'a VectorWiseMatrix,
) -> impl Fn(usize, usize) -> (&'a [f32], usize, usize) + 'a {
    let v = vw.vector_size();
    move |g, first| (&vw.values()[(vw.group_ptr()[g] + first) * v..], 1, v)
}

/// The static operand of every tensor-core plan, in one format (see the
/// module docs): group `g` of the weights is chunk `g` of `packed`, and its
/// panels read, in order, the operand rows listed from
/// `operand_rows[group_start[g]]` on, one per panel column.
#[derive(Debug, Clone)]
pub(crate) struct PanelOperand {
    pub(crate) packed: PackedPanels,
    /// Operand row (or, for the implicit conv, element offset) of every
    /// packed column, group-major. Groups over the same columns share their
    /// entries.
    pub(crate) operand_rows: Vec<u32>,
    /// Where each group's entries start in `operand_rows`.
    pub(crate) group_start: Vec<usize>,
    /// Output row of every stored row.
    pub(crate) output_rows: Vec<u32>,
    /// Whether `output_rows` is the identity, resolved at pack time: the
    /// sweep then accumulates straight into the output and skips the
    /// shuffled write-back copy.
    in_place: bool,
    /// Step depth the panels were packed at; a delta re-pack replays it.
    pub(crate) depth: usize,
    /// [`mma_sweep`]'s accumulate mode: `true` keeps one running sum per
    /// output element, `false` sums a fresh partial per panel.
    load_c: bool,
}

impl PanelOperand {
    fn new(
        packed: PackedPanels,
        operand_rows: Vec<u32>,
        group_start: Vec<usize>,
        output_rows: Vec<u32>,
        depth: usize,
        load_c: bool,
    ) -> Self {
        let in_place = output_rows
            .iter()
            .enumerate()
            .all(|(i, r)| *r as usize == i);
        PanelOperand {
            packed,
            operand_rows,
            group_start,
            output_rows,
            in_place,
            depth,
            load_c,
        }
    }

    /// Dense weights (GEMM, 2:4): `fm`-row groups over all `k` columns in
    /// `fk`-deep steps, one running sum per element.
    fn dense(weights: &DenseMatrix, shape: MmaShape) -> Self {
        let (m, k) = weights.shape();
        let (fm, fk) = (shape.m(), shape.k());
        let values = weights.as_slice();
        let packed = PackedPanels::pack(m, fm, fk, |_| k, |g, j| (&values[g * fm * k + j..], k, 1));
        let groups = packed.num_chunks();
        PanelOperand::new(
            packed,
            (0..k as u32).collect(),
            vec![0; groups],
            (0..m as u32).collect(),
            fk,
            true,
        )
    }

    /// Block-wise (BSR) weights: one group per block row, keeping its blocks'
    /// columns in `V`-deep steps, so every panel is one block with a fresh
    /// partial.
    fn blocks(weights: &BlockSparseMatrix) -> Self {
        let v = weights.block_size();
        let packed = PackedPanels::pack(
            weights.rows(),
            v,
            v,
            |br| weights.blocks_in_row(br).len() * v,
            |br, j| (weights.block_values(br, j / v), v, 1),
        );
        let v32 = v as u32;
        PanelOperand::new(
            packed,
            weights
                .block_col_idx()
                .iter()
                .flat_map(|&bc| bc * v32..(bc + 1) * v32)
                .collect(),
            weights.block_row_ptr()[..weights.block_rows()]
                .iter()
                .map(|&start| start * v)
                .collect(),
            (0..weights.rows() as u32).collect(),
            v,
            false,
        )
    }

    /// Vector-wise weights (vector-wise, Shfl-BW, the implicit conv): `V`-row
    /// groups over their stored vectors in `tk`-deep steps, a fresh partial
    /// per step. `operand_rows` holds one entry per stored vector.
    pub(crate) fn stitched(
        vw: &VectorWiseMatrix,
        tk: usize,
        operand_rows: Vec<u32>,
        output_rows: Vec<u32>,
    ) -> Self {
        let packed = PackedPanels::pack(
            vw.rows(),
            vw.vector_size(),
            tk,
            |g| vw.group_cols(g).len(),
            stored_vectors(vw),
        );
        let group_start = vw.group_ptr()[..vw.num_groups()].to_vec();
        PanelOperand::new(packed, operand_rows, group_start, output_rows, tk, false)
    }

    /// Bytes of the packed panels and every table.
    pub(crate) fn packed_bytes(&self) -> usize {
        self.packed.packed_bytes()
            + (self.operand_rows.len() + self.output_rows.len()) * std::mem::size_of::<u32>()
            + self.group_start.len() * std::mem::size_of::<usize>()
    }

    /// Sweeps the panels over `spans` of the non-empty `activations` into
    /// the zeroed `output`, in the operand's accumulate mode.
    fn sweep(&self, activations: &DenseMatrix, output: &mut DenseMatrix, spans: &[SegmentSpan]) {
        let b16 = activations.as_f16_rounded();
        if self.load_c {
            self.sweep_groups::<true>(b16.as_slice(), output, spans);
        } else {
            self.sweep_groups::<false>(b16.as_slice(), output, spans);
        }
    }

    fn sweep_groups<const LOAD_C: bool>(
        &self,
        b16: &[f32],
        output: &mut DenseMatrix,
        spans: &[SegmentSpan],
    ) {
        let (m, n) = output.shape();
        // Group-ordered accumulators. With the identity table group g's
        // accumulator rows *are* its output rows, so the output is
        // accumulated in place; a shuffled plan accumulates into a fresh
        // buffer and resolves the output rows afterwards.
        let mut grouped = if self.in_place {
            Vec::new()
        } else {
            vec![0.0f32; m * n]
        };
        let acc: &mut [f32] = if self.in_place {
            output.as_mut_slice()
        } else {
            &mut grouped
        };
        let macs_per_element = (self.packed.packed_values() / m).max(1);
        let group_len = self.packed.panel_rows() * n;
        parallel::par_chunks_mut_weighted(acc, group_len, macs_per_element, |g, acc| {
            let mut rows = &self.operand_rows[self.group_start[g]..];
            for panel in self.packed.chunk_panels(g) {
                let (values, height, w) = self.packed.panel(panel);
                let (step_rows, rest) = rows.split_at(w);
                // Rounded panels against the rounded operand: fused.
                mma_sweep::<LOAD_C, true>(values, height, b16, step_rows, n, acc, n, spans);
                rows = rest;
            }
        });
        if !self.in_place {
            for (stored_row, acc_row) in grouped.chunks_exact(n).enumerate() {
                output
                    .row_mut(self.output_rows[stored_row] as usize)
                    .copy_from_slice(acc_row);
            }
        }
    }
}

/// Static operand data of one prepared plan.
#[derive(Debug, Clone)]
enum SpmmPlanKind {
    /// Every tensor-core plan. `shfl_bw` marks plans built by
    /// [`SpmmPlan::shfl_bw`]: the only plans a same-pattern Shfl-BW update
    /// may re-pack, whatever their tables (a vector-wise plan of the same
    /// weights under the identity permutation has the same tables, but its
    /// own profile).
    Panels {
        operand: PanelOperand,
        shfl_bw: bool,
    },
    /// CUDA-core CSR: the kernel performs no fp16 staging, so the compressed
    /// operand itself is the packed form.
    Csr { matrix: CsrMatrix },
}

/// A prepared GEMM-shaped kernel: `C[m×n] = A[m×k] · B[k×n]` with the
/// weight operand `A` packed once in its kernel's execution layout.
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
        Self::stitched(arch, weights, identity, n, profile, false)
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
            true,
        )
    }

    fn stitched(
        arch: &GpuArch,
        vw: &VectorWiseMatrix,
        row_indices: Vec<u32>,
        n: usize,
        profile: KernelProfile,
        shfl_bw: bool,
    ) -> Self {
        let v = vw.vector_size();
        let tile = tiling::select_vector_wise_tile(v, n);
        let avg_cols_per_group =
            (vw.stored_vectors() as f64 / vw.num_groups().max(1) as f64).ceil() as usize;
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
            kind: SpmmPlanKind::Panels {
                operand: PanelOperand::stitched(vw, tile.tk, vw.col_idx().to_vec(), row_indices),
                shfl_bw,
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
            kind: SpmmPlanKind::Panels {
                operand: PanelOperand::blocks(weights),
                shfl_bw: false,
            },
            profile,
        }
    }

    /// Prepares the dense tensor-core GEMM: rounds and packs the weight
    /// matrix into `fm×fk` row-panels (the architecture's MMA fragment
    /// shape), and resolves the launch configuration and the analytical
    /// profile of an `n`-column launch.
    pub fn dense(arch: &GpuArch, weights: &DenseMatrix, n: usize) -> Self {
        let (m, k) = weights.shape();
        Self::dense_panels(arch, weights, n, gemm::dense_gemm_profile(arch, m, n, k))
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
        Ok(Self::dense_panels(arch, &weights.to_dense(), n, profile))
    }

    fn dense_panels(
        arch: &GpuArch,
        weights: &DenseMatrix,
        n: usize,
        profile: KernelProfile,
    ) -> Self {
        let (m, k) = weights.shape();
        SpmmPlan {
            m,
            n,
            k,
            tile: profile.tile,
            launch: launch::dense_launch(arch, m, n, k),
            kind: SpmmPlanKind::Panels {
                operand: PanelOperand::dense(weights, arch.mma_shape),
                shfl_bw: false,
            },
            profile,
        }
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

    /// Size of the packed static operand in bytes: the panels and every
    /// table a tensor-core plan holds, or the CSR operand.
    pub fn packed_bytes(&self) -> usize {
        match &self.kind {
            SpmmPlanKind::Panels { operand, .. } => operand.packed_bytes(),
            SpmmPlanKind::Csr { matrix } => {
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
            SpmmPlanKind::Panels { operand, .. } => {
                (operand.packed.packed_values() * std::mem::size_of::<f32>()) as u64
            }
            SpmmPlanKind::Csr { matrix } => matrix.metadata_bytes() + matrix.nnz() as u64 * 4,
        }
    }

    /// Builds a plan for a *same-pattern magnitude update* of the Shfl-BW
    /// weights this plan was prepared from, by delta re-packing: the clone
    /// keeps every resolved artefact (tile, launch, operand and output row
    /// tables, analytical profile — all functions of the unchanged sparsity
    /// structure) and only the panel payload bytes are rewritten at the
    /// plan's own step depth ([`PackedPanels::repack`]). The result is
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
    /// Returns [`KernelError::ShapeMismatch`] if this plan was not built by
    /// [`SpmmPlan::shfl_bw`], or if `weights` changes the sparsity
    /// structure (vector size, shape, group boundaries, kept columns, or row
    /// permutation) — structural updates need a full rebuild.
    pub fn repack_shfl_bw(&self, weights: &ShflBwMatrix) -> KernelResult<(SpmmPlan, usize)> {
        let vw = weights.vector_wise();
        let same_pattern = match &self.kind {
            SpmmPlanKind::Panels {
                operand,
                shfl_bw: true,
            } => {
                operand.packed.panel_rows() == vw.vector_size()
                    && self.m == weights.rows()
                    && self.k == weights.cols()
                    && operand.operand_rows == vw.col_idx()
                    && operand.group_start == vw.group_ptr()[..vw.num_groups()]
                    && operand.output_rows == weights.row_indices()
            }
            _ => false,
        };
        if !same_pattern {
            return Err(KernelError::ShapeMismatch {
                context: format!(
                    "delta re-pack requires a same-pattern Shfl-BW plan: \
                     plan bucket {:?} cannot absorb update {}",
                    self.bucket(),
                    weights
                ),
            });
        }
        let mut plan = self.clone();
        let SpmmPlanKind::Panels { operand, .. } = &mut plan.kind else {
            unreachable!("pattern check above admits only Shfl-BW plans");
        };
        let bytes = operand.packed.repack(
            vw.rows(),
            vw.vector_size(),
            operand.depth,
            |g| vw.group_cols(g).len(),
            stored_vectors(vw),
        );
        Ok((plan, bytes))
    }

    /// Executes the prepared kernel against a `k × n` activation matrix of
    /// any width `n`, in one sweep over the packed operand.
    ///
    /// The output is bit-identical to a plan built for exactly `n` columns
    /// and to the naive oracle: the packed layout does not depend on the
    /// build width, and each output element accumulates its contributions in
    /// the oracle's order either way. The modeled profile stays on the plan
    /// ([`SpmmPlan::profile`]).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::ShapeMismatch`] if `activations` does not have
    /// the `k` rows the plan packs.
    pub fn execute(&self, activations: &DenseMatrix) -> KernelResult<KernelOutput> {
        let spans = sweep_spans(activations, self.k)?;
        let mut output = DenseMatrix::zeros(self.m, activations.cols());
        if self.m > 0 && activations.cols() > 0 {
            match &self.kind {
                SpmmPlanKind::Panels { operand, .. } => {
                    operand.sweep(activations, &mut output, &spans)
                }
                SpmmPlanKind::Csr { matrix } => {
                    spmm::cuda_core::csr_spmm_into(matrix, activations, &mut output, &spans)
                }
            }
        }
        Ok(KernelOutput { output })
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
        let plan = SpmmPlan::dense(&arch, &a, 21);
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
        let rejects = |plan: &SpmmPlan, update: &ShflBwMatrix| {
            matches!(
                plan.repack_shfl_bw(update),
                Err(KernelError::ShapeMismatch { .. })
            )
        };
        assert!(rejects(&plan, &other));
        // Only Shfl-BW plans take a delta re-pack: the block-wise, balanced,
        // CSR and dense plans of the same weights reject it.
        let bsr = BlockSparseMatrix::from_dense(&scaled, 8).unwrap();
        assert!(rejects(&SpmmPlan::block_wise(&arch, &bsr, 24), &update));
        let two_of_four =
            DenseMatrix::from_fn(32, 40, |r, c| if (r + c) % 4 < 2 { 0.5 } else { 0.0 });
        let bal = BalancedMatrix::from_dense(&two_of_four, 2, 4).unwrap();
        let bal_plan = SpmmPlan::balanced(&GpuArch::a100(), &bal, 24).unwrap();
        assert!(rejects(&bal_plan, &update));
        let csr = CsrMatrix::from_dense(&scaled);
        assert!(rejects(&SpmmPlan::cuda_core(&arch, &csr, 24), &update));
        assert!(rejects(&SpmmPlan::dense(&arch, &scaled, 24), &update));

        // Not even when every table matches: a 16×32 block row at V = 16
        // keeps both blocks, so the block-wise plan sweeps operand rows 0..32
        // from group start 0, 16 deep, into output rows 0..16, exactly like
        // the Shfl-BW plan of the same weights under the identity
        // permutation. So does the vector-wise plan of those weights, whose
        // re-pack would keep its vector-wise profile.
        let w = DenseMatrix::random(&mut rng, 16, 32);
        let block =
            SpmmPlan::block_wise(&arch, &BlockSparseMatrix::from_dense(&w, 16).unwrap(), 24);
        let identity: Vec<usize> = (0..16).collect();
        let shfl = ShflBwMatrix::from_dense_with_permutation(&w, &identity, 16).unwrap();
        let stitched = SpmmPlan::shfl_bw(&arch, &shfl, 24);
        let (SpmmPlanKind::Panels { operand: ob, .. }, SpmmPlanKind::Panels { operand: os, .. }) =
            (&block.kind, &stitched.kind)
        else {
            panic!("block-wise and Shfl-BW plans hold panels");
        };
        assert_eq!(ob.operand_rows, (0..32).collect::<Vec<u32>>());
        assert_eq!(
            (&ob.operand_rows, &ob.group_start, ob.depth, &ob.output_rows),
            (&os.operand_rows, &os.group_start, os.depth, &os.output_rows)
        );
        assert_eq!((os.depth, stitched.tile().tk), (16, 16));
        assert!(rejects(&block, &shfl));
        let vector_wise = SpmmPlan::vector_wise(&arch, shfl.vector_wise(), 24);
        let SpmmPlanKind::Panels { operand: ov, .. } = &vector_wise.kind else {
            panic!("vector-wise plans hold panels");
        };
        assert_eq!(
            (&ov.operand_rows, &ov.group_start, ov.depth, &ov.output_rows),
            (&os.operand_rows, &os.group_start, os.depth, &os.output_rows)
        );
        assert_ne!(vector_wise.profile().name, stitched.profile().name);
        assert!(rejects(&vector_wise, &shfl));
        assert!(stitched.repack_shfl_bw(&shfl).is_ok());
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
            |n| SpmmPlan::dense(&v100, &w, n),
            SpmmPlan::execute,
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
        let gemm = SpmmPlan::dense(&arch, &dense_a, 16);
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
        let gemm_plan = SpmmPlan::dense(&arch, &dense_a, 32);
        assert!(gemm_plan.packed_bytes() >= 64 * 64 * 4);
        assert_eq!(gemm_plan.launch_config().tile.tk, 32);
    }
}
