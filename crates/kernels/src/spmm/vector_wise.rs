//! Vector-wise SpMM on tensor cores.
//!
//! This is the kernel family the paper builds Shfl-BW on top of: the sparse matrix is
//! stored as `V×1` vectors grouped by `V` rows, the kernel stitches `T_K = 16` vectors
//! (and the corresponding rows of the activation matrix) into a dense threadblock tile
//! in shared memory (§4.3), and issues tensor-core MMA instructions on the stitched
//! tile. Three baselines of the paper are specialisations of this kernel:
//!
//! * the authors' own vector-wise kernel (`VectorWiseKernelConfig::ours`),
//! * VectorSparse — the same algorithm tuned for tiny vectors `V ≤ 8`
//!   (`VectorWiseKernelConfig::vector_sparse`),
//! * TileWise — a multi-stream implementation whose per-stream launch overhead grows
//!   with the stream count (`VectorWiseKernelConfig::tile_wise`).

use crate::launch::{self, FP16_BYTES, OUTPUT_BYTES};
use crate::profile::{build_profile, KernelProfile};
use gpu_sim::pipeline::{PipelineConfig, PipelineModel};
use gpu_sim::{ComputeUnit, CostModel, GpuArch, KernelStats};
use shfl_core::formats::VectorWiseMatrix;

/// Tuning knobs of a vector-wise-family SpMM kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorWiseKernelConfig {
    /// Kernel name used in profiles and reports.
    pub label: String,
    /// Software pipeline configuration (data buffering + metadata prefetch).
    pub pipeline: PipelineConfig,
    /// Fraction of peak tensor-core throughput the inner loop can issue.
    pub compute_efficiency: f64,
    /// DRAM bandwidth derating for the kernel's access pattern.
    pub coalescing_factor: f64,
    /// Extra fixed overhead added to the launch (multi-stream designs).
    pub extra_launch_overhead_us: f64,
}

impl VectorWiseKernelConfig {
    /// The paper's own vector-wise kernel: deep pipeline, bulk metadata prefetch.
    /// Hand-written sparse tensor-core kernels reach a noticeably smaller fraction of
    /// peak than cuBLAS; 45% reproduces the paper's V100/A100 speedups at 75%
    /// sparsity (see `EXPERIMENTS.md`).
    pub fn ours() -> Self {
        VectorWiseKernelConfig {
            label: "vw-spmm".to_string(),
            pipeline: PipelineConfig::shfl_bw_default(),
            compute_efficiency: 0.45,
            coalescing_factor: 0.95,
            extra_launch_overhead_us: 0.0,
        }
    }

    /// VectorSparse \[31\]: tuned for `V ≤ 8`; the small vector size is what limits it,
    /// not the implementation quality.
    pub fn vector_sparse() -> Self {
        VectorWiseKernelConfig {
            label: "vectorsparse-spmm".to_string(),
            pipeline: PipelineConfig::shfl_bw_default(),
            compute_efficiency: 0.42,
            coalescing_factor: 0.90,
            extra_launch_overhead_us: 0.0,
        }
    }

    /// TileWise \[26\]: a CUDA multi-stream design whose overhead grows with the number
    /// of streams; the paper notes it cannot exceed the dense baseline on real weight
    /// shapes without additional neuron pruning.
    pub fn tile_wise(streams: usize) -> Self {
        VectorWiseKernelConfig {
            label: format!("tilewise-spmm({streams}str)"),
            pipeline: PipelineConfig {
                pipe_stages: 2,
                meta_prefetch_stages: 2,
            },
            compute_efficiency: 0.30,
            coalescing_factor: 0.85,
            extra_launch_overhead_us: 4.0 * streams as f64,
        }
    }
}

impl Default for VectorWiseKernelConfig {
    fn default() -> Self {
        VectorWiseKernelConfig::ours()
    }
}

/// Shared analytical model for every vector-wise-family kernel (including Shfl-BW,
/// which adds row-index metadata and a write-back overhead on top).
#[allow(clippy::too_many_arguments)] // one knob per modelled cost component
pub(crate) fn vw_family_profile(
    arch: &GpuArch,
    a: &VectorWiseMatrix,
    n: usize,
    config: &VectorWiseKernelConfig,
    name: String,
    extra_metadata_bytes: u64,
    write_overhead_fraction: f64,
    extra_shared_bytes_per_block: u32,
) -> KernelProfile {
    let v = a.vector_size();
    let m = a.rows();
    let n_u = n as u64;
    let stored_values = a.stored_values() as u64;
    let stored_vectors = a.stored_vectors() as u64;
    let groups = a.num_groups().max(1);
    let avg_cols_per_group = a.stored_vectors() as f64 / groups as f64;

    let cfg = launch::vector_wise_launch(
        arch,
        m,
        n,
        avg_cols_per_group.ceil() as usize,
        v,
        config.pipeline.pipe_stages,
    );
    let tile = cfg.tile;

    let mut stats = KernelStats::new(ComputeUnit::TensorCore);
    stats.add_flops(2 * stored_values * n_u);

    // Weight vectors stream once; metadata = group pointers + per-vector column index
    // (+ whatever the caller adds, e.g. Shfl-BW row indices).
    stats.add_dram_read(stored_values * FP16_BYTES);
    stats.add_metadata(a.metadata_bytes() + extra_metadata_bytes);
    // Activation rows referenced by at least one group stream from DRAM; re-reads by
    // other groups are served from L2 while the working set fits.
    let b_bytes = launch::unique_index_count(a.col_idx(), a.cols()) * n_u * FP16_BYTES;
    let b_reuse = groups as u64;
    stats.add_dram_read(b_bytes * launch::dram_reload_factor(arch, b_bytes, b_reuse));
    let c_bytes = m as u64 * n_u * OUTPUT_BYTES;
    stats.add_dram_write(c_bytes + (c_bytes as f64 * write_overhead_fraction) as u64);
    // Each group gathers its referenced B rows once per column tile — this is the
    // in-buffer stitching traffic, served by the L2.
    stats.add_l2_read(stored_vectors * n_u * FP16_BYTES);
    // Stitched tiles staged through shared memory.
    stats.add_shared(stored_values * FP16_BYTES + stored_vectors * n_u * FP16_BYTES);

    // MMA accounting: per group and per column tile, the reduction covers the group's
    // stitched vectors in steps of T_K.
    let shape = arch.mma_shape;
    let col_tiles = n.div_ceil(tile.tn) as u64;
    let mut instructions = 0u64;
    let mut issued_macs = 0u64;
    for g in 0..a.num_groups() {
        let cols = a.group_cols(g).len();
        if cols == 0 {
            continue;
        }
        let instr = shape.instructions_for(v, tile.tn.min(n), cols) as u64;
        instructions += instr * col_tiles;
        issued_macs += instr * col_tiles * shape.macs() as u64;
    }
    stats.add_mma_instructions(instructions);
    let useful_macs = stored_values * n_u;
    if issued_macs > 0 {
        stats.scale_mma_utilization(useful_macs as f64 / issued_macs as f64);
    }
    // Per-step overheads (index arithmetic, predicates, smem pointer updates) are
    // amortised over the V rows of a stitched tile, so small vectors leave the tensor
    // cores idle part of the time — the reason the paper's throughput grows with V and
    // why VectorSparse's V ≤ 8 limits it. Modelled as a V/(V+8) issue efficiency.
    let tile_issue_efficiency = v as f64 / (v as f64 + 8.0);
    stats.set_compute_efficiency(config.compute_efficiency * tile_issue_efficiency);
    stats.set_coalescing_factor(config.coalescing_factor);

    stats.set_threadblocks(cfg.grid);
    stats.set_threads_per_block(cfg.threads_per_block);
    stats.set_shared_bytes_per_block(cfg.shared_bytes_per_block() + extra_shared_bytes_per_block);
    stats.set_regfile_bytes_per_block(cfg.regfile_bytes_per_block());

    // Pipeline stalls: exposed dependent-metadata stalls per threadblock, serialised
    // over the number of SM rounds the grid needs.
    let steps_per_block = (avg_cols_per_group / tile.tk as f64).ceil() as usize;
    let pipeline = PipelineModel::new(config.pipeline);
    let stalls = pipeline.exposed_stalls(steps_per_block);
    stats.add_dependent_metadata_stalls(stalls);
    let rounds = cfg.grid.div_ceil(u64::from(arch.sm_count)).max(1);
    let stall_us = pipeline.stall_time_us(arch, stalls) * rounds as f64;

    let timing = CostModel::new(arch)
        .with_stall_us(stall_us + config.extra_launch_overhead_us)
        .estimate(&stats);
    build_profile(name, arch, stats, timing, tile)
}

/// Analytical profile of a vector-wise SpMM `C = A · B` where `B` has `n` columns.
pub fn vector_wise_spmm_profile(
    arch: &GpuArch,
    a: &VectorWiseMatrix,
    n: usize,
    config: &VectorWiseKernelConfig,
) -> KernelProfile {
    let name = format!("{}(V={})", config.label, a.vector_size());
    vw_family_profile(arch, a, n, config, name, 0, 0.0, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use shfl_core::matrix::DenseMatrix;

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
    fn execute_matches_reference() {
        let mut rng = StdRng::seed_from_u64(23);
        let dense_a = vector_wise_dense(&mut rng, 32, 48, 8, 0.3);
        let b = DenseMatrix::random(&mut rng, 48, 24);
        let a = VectorWiseMatrix::from_dense(&dense_a, 8).unwrap();
        let arch = GpuArch::v100();
        let out = crate::plan::SpmmPlan::vector_wise(&arch, &a, b.cols())
            .execute(&b)
            .unwrap();
        let reference = dense_a.matmul(&b).unwrap();
        assert!(out.output.approx_eq(&reference, 2e-2).unwrap());
    }

    #[test]
    fn execute_rejects_shape_mismatch() {
        let arch = GpuArch::v100();
        let a = VectorWiseMatrix::from_dense(&DenseMatrix::zeros(16, 16), 8).unwrap();
        let b = DenseMatrix::zeros(8, 8);
        let plan = crate::plan::SpmmPlan::vector_wise(&arch, &a, b.cols());
        assert!(plan.execute(&b).is_err());
    }

    #[test]
    fn larger_v_is_faster_at_the_same_density() {
        // More rows share one column pattern, so data reuse grows with V — the basis
        // of the paper's observation that throughput increases with V.
        let mut rng = StdRng::seed_from_u64(31);
        let arch = GpuArch::t4();
        let dense8 = vector_wise_dense(&mut rng, 2048, 2048, 8, 0.25);
        let dense64 = vector_wise_dense(&mut rng, 2048, 2048, 64, 0.25);
        let a8 = VectorWiseMatrix::from_dense(&dense8, 8).unwrap();
        let a64 = VectorWiseMatrix::from_dense(&dense64, 64).unwrap();
        let cfg = VectorWiseKernelConfig::ours();
        let t8 = vector_wise_spmm_profile(&arch, &a8, 256, &cfg).time_us();
        let t64 = vector_wise_spmm_profile(&arch, &a64, 256, &cfg).time_us();
        assert!(t64 < t8, "V=64 {t64:.2}us should beat V=8 {t8:.2}us");
    }

    #[test]
    fn tile_wise_multi_stream_overhead_hurts() {
        let mut rng = StdRng::seed_from_u64(37);
        let arch = GpuArch::v100();
        let dense_a = vector_wise_dense(&mut rng, 1024, 1024, 128, 0.25);
        let a = VectorWiseMatrix::from_dense(&dense_a, 128).unwrap();
        let ours = vector_wise_spmm_profile(&arch, &a, 128, &VectorWiseKernelConfig::ours());
        let tilewise =
            vector_wise_spmm_profile(&arch, &a, 128, &VectorWiseKernelConfig::tile_wise(8));
        assert!(tilewise.time_us() > ours.time_us());
    }

    #[test]
    fn profile_counts_useful_flops_only() {
        let mut rng = StdRng::seed_from_u64(41);
        let dense_a = vector_wise_dense(&mut rng, 256, 256, 32, 0.25);
        let a = VectorWiseMatrix::from_dense(&dense_a, 32).unwrap();
        let p = vector_wise_spmm_profile(&GpuArch::a100(), &a, 64, &VectorWiseKernelConfig::ours());
        assert_eq!(p.stats.flops(), 2 * a.stored_values() as u64 * 64);
        assert!(p.stats.mma_utilization() <= 1.0);
        assert!(p.stats.metadata_bytes() >= a.metadata_bytes());
    }

    #[test]
    fn sparser_matrices_are_faster() {
        let mut rng = StdRng::seed_from_u64(43);
        let arch = GpuArch::v100();
        let cfg = VectorWiseKernelConfig::ours();
        let denser =
            VectorWiseMatrix::from_dense(&vector_wise_dense(&mut rng, 1024, 1024, 32, 0.5), 32)
                .unwrap();
        let sparser =
            VectorWiseMatrix::from_dense(&vector_wise_dense(&mut rng, 1024, 1024, 32, 0.1), 32)
                .unwrap();
        assert!(
            vector_wise_spmm_profile(&arch, &sparser, 128, &cfg).time_us()
                < vector_wise_spmm_profile(&arch, &denser, 128, &cfg).time_us()
        );
    }

    #[test]
    fn empty_groups_are_skipped_functionally() {
        let arch = GpuArch::v100();
        let mut dense_a = DenseMatrix::zeros(16, 16);
        // Only the second group (rows 8..16) has non-zeros.
        dense_a.set(9, 3, 2.0);
        let a = VectorWiseMatrix::from_dense(&dense_a, 8).unwrap();
        let b = DenseMatrix::from_fn(16, 4, |r, c| (r + c) as f32);
        let out = crate::plan::SpmmPlan::vector_wise(&arch, &a, 4)
            .execute(&b)
            .unwrap();
        let reference = dense_a.matmul(&b).unwrap();
        assert!(out.output.approx_eq(&reference, 1e-3).unwrap());
    }
}
