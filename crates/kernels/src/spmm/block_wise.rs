//! Block-wise (BSR) SpMM on tensor cores — the cuSPARSE block-sparse baseline.
//!
//! Every stored `V×V` block is a dense tile, so the kernel issues full tensor-core MMA
//! instructions per block and reaches the same per-tile data reuse as a dense GEMM
//! (§3.2.2). The paper observes that the *library* implementation (cuSPARSE) shows
//! "unstable performance across GPUs and block sizes" (§6.2) — being on average 2.88×
//! slower than Shfl-BW on T4 at V=64, yet 1.2× faster on V100 at V=32. We reproduce
//! that behaviour with per-architecture library efficiency factors, which are
//! calibration constants documented in `DESIGN.md`.

use crate::launch::{self, FP16_BYTES, OUTPUT_BYTES};
use crate::profile::{build_profile, KernelProfile};
use gpu_sim::{ComputeUnit, CostModel, GpuArch, GpuGeneration, KernelStats};
use shfl_core::formats::BlockSparseMatrix;
use shfl_core::tiling::TileConfig;

/// Library (cuSPARSE) compute efficiency per architecture: the source of the
/// "unstable performance" the paper reports. Tuned so the V100 library kernel is
/// competitive with the paper's own kernels while the T4 and A100 versions lag.
fn library_efficiency(arch: &GpuArch, v: usize) -> f64 {
    let base = match arch.generation {
        GpuGeneration::Volta => 0.80,
        GpuGeneration::Turing => 0.22,
        GpuGeneration::Ampere => 0.50,
    };
    // The library is tuned for moderate block sizes; very large blocks lose some
    // efficiency to register pressure.
    if v >= 64 {
        base * 0.85
    } else {
        base
    }
}

/// Analytical profile of the cuSPARSE-like block-wise SpMM `C = A · B` where `A` is a
/// `V×V`-block sparse matrix and `B` has `n` columns.
pub fn block_wise_spmm_profile(arch: &GpuArch, a: &BlockSparseMatrix, n: usize) -> KernelProfile {
    let v = a.block_size();
    let m = a.rows();
    let n_u = n as u64;
    let stored_values = a.stored_values() as u64;

    let tn = if n >= 128 {
        128
    } else {
        n.next_power_of_two().clamp(8, 128)
    };
    let tile = TileConfig { tm: v, tn, tk: v };

    let mut stats = KernelStats::new(ComputeUnit::TensorCore);
    stats.add_flops(2 * stored_values * n_u);

    // Weight blocks and block metadata stream once from DRAM.
    stats.add_dram_read(stored_values * FP16_BYTES);
    stats.add_metadata(a.metadata_bytes());
    // Activation rows touched by at least one block column are read from DRAM.
    let unique_block_cols = launch::unique_index_count(a.block_col_idx(), a.block_cols());
    let b_bytes = unique_block_cols * v as u64 * n_u * FP16_BYTES;
    let b_reuse = a.block_rows() as u64;
    stats.add_dram_read(b_bytes * launch::dram_reload_factor(arch, b_bytes, b_reuse));
    stats.add_dram_write(m as u64 * n_u * OUTPUT_BYTES);
    // Each block row re-reads the B rows of its blocks from L2, once per column tile.
    let l2_bytes = (a.stored_blocks() * v) as u64 * n_u * FP16_BYTES;
    stats.add_l2_read(l2_bytes);

    // MMA instruction accounting: each stored block contributes a V×tn×V tile per
    // column tile of B.
    let shape = arch.mma_shape;
    let col_tiles = n.div_ceil(tile.tn) as u64;
    let instr_per_block = shape.instructions_for(v, tile.tn.min(n), v) as u64;
    stats.add_mma_instructions(a.stored_blocks() as u64 * col_tiles * instr_per_block);
    stats.scale_mma_utilization(shape.utilization_for(v, tile.tn.min(n), v));
    stats.set_compute_efficiency(library_efficiency(arch, v));
    stats.set_coalescing_factor(0.9);

    let grid = (a.block_rows() as u64) * col_tiles;
    stats.set_threadblocks(grid);
    stats.set_threads_per_block(128);
    stats.set_shared_bytes_per_block(tile.shared_memory_bytes(2) as u32);
    stats.set_regfile_bytes_per_block(tile.accumulator_bytes() as u32);

    let timing = CostModel::new(arch).estimate(&stats);
    build_profile(
        format!("cusparse-block-spmm(V={v})"),
        arch,
        stats,
        timing,
        tile,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use shfl_core::matrix::DenseMatrix;

    fn block_sparse_dense(
        rng: &mut StdRng,
        m: usize,
        k: usize,
        v: usize,
        density: f64,
    ) -> DenseMatrix {
        let block_rows = m / v;
        let block_cols = k / v;
        let keep: Vec<bool> = (0..block_rows * block_cols)
            .map(|_| rng.gen_bool(density))
            .collect();
        DenseMatrix::from_fn(m, k, |r, c| {
            if keep[(r / v) * block_cols + (c / v)] {
                rng.gen_range(-1.0f32..1.0)
            } else {
                0.0
            }
        })
    }

    #[test]
    fn execute_matches_reference() {
        let mut rng = StdRng::seed_from_u64(13);
        let dense_a = block_sparse_dense(&mut rng, 32, 48, 16, 0.4);
        let b = DenseMatrix::random(&mut rng, 48, 24);
        let a = BlockSparseMatrix::from_dense(&dense_a, 16).unwrap();
        let arch = GpuArch::v100();
        let out = crate::plan::SpmmPlan::block_wise(&arch, &a, b.cols())
            .execute(&b)
            .unwrap();
        let reference = dense_a.matmul(&b).unwrap();
        assert!(out.output.approx_eq(&reference, 2e-2).unwrap());
    }

    #[test]
    fn execute_rejects_shape_mismatch() {
        let arch = GpuArch::v100();
        let a = BlockSparseMatrix::from_dense(&DenseMatrix::zeros(32, 32), 16).unwrap();
        let b = DenseMatrix::zeros(16, 8);
        let plan = crate::plan::SpmmPlan::block_wise(&arch, &a, b.cols());
        assert!(plan.execute(&b).is_err());
    }

    #[test]
    fn library_is_strong_on_v100_and_weak_on_t4() {
        // The per-arch efficiency reproduces the paper's observation that cuSPARSE
        // block SpMM is competitive on V100 but far behind on T4. Use a shape that is
        // compute-bound on both devices so the library efficiency is what shows up.
        let mut rng = StdRng::seed_from_u64(3);
        let dense_a = block_sparse_dense(&mut rng, 1024, 1024, 32, 0.5);
        let a = BlockSparseMatrix::from_dense(&dense_a, 32).unwrap();
        let v100 = block_wise_spmm_profile(&GpuArch::v100(), &a, 1024);
        let t4 = block_wise_spmm_profile(&GpuArch::t4(), &a, 1024);
        let v100_fraction = v100.achieved_tflops() / GpuArch::v100().tensor_core_tflops;
        let t4_fraction = t4.achieved_tflops() / GpuArch::t4().tensor_core_tflops;
        assert!(
            v100_fraction > 2.0 * t4_fraction,
            "V100 fraction {v100_fraction:.3} vs T4 fraction {t4_fraction:.3}"
        );
    }

    #[test]
    fn profile_flops_match_stored_blocks() {
        let mut rng = StdRng::seed_from_u64(8);
        let dense_a = block_sparse_dense(&mut rng, 128, 128, 32, 0.5);
        let a = BlockSparseMatrix::from_dense(&dense_a, 32).unwrap();
        let p = block_wise_spmm_profile(&GpuArch::a100(), &a, 64);
        assert_eq!(p.stats.flops(), 2 * a.stored_values() as u64 * 64);
        assert!(p.stats.metadata_bytes() > 0);
    }

    #[test]
    fn denser_block_matrices_take_longer() {
        let mut rng = StdRng::seed_from_u64(17);
        let arch = GpuArch::v100();
        let sparse =
            BlockSparseMatrix::from_dense(&block_sparse_dense(&mut rng, 512, 512, 32, 0.1), 32)
                .unwrap();
        let dense =
            BlockSparseMatrix::from_dense(&block_sparse_dense(&mut rng, 512, 512, 32, 0.9), 32)
                .unwrap();
        assert!(
            block_wise_spmm_profile(&arch, &sparse, 128).time_us()
                < block_wise_spmm_profile(&arch, &dense, 128).time_us()
        );
    }
}
