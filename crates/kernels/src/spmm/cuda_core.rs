//! Unstructured CSR SpMM on CUDA cores (Sputnik-like) and the cuSPARSE CSR baseline.
//!
//! These kernels cannot use tensor cores: each non-zero weight multiplies one row
//! slice of the activation matrix with scalar FMA instructions, so the achievable
//! throughput is bounded by the CUDA-core peak, and the gathered accesses to the
//! activation matrix are poorly coalesced. This is the paper's explanation of the
//! Figure 1 "CUDA-core sparse" curve: it only beats the CUDA-core dense GEMM above
//! ≈ 65–70 % sparsity and never reaches the tensor-core dense baseline until ≈ 95 %.

use crate::launch::{self, FP16_BYTES, OUTPUT_BYTES};
use crate::profile::{build_profile, KernelProfile};
use gpu_sim::mma::{mma_sweep, SegmentSpan};
use gpu_sim::{ComputeUnit, CostModel, GpuArch, KernelStats};
use shfl_core::formats::CsrMatrix;
use shfl_core::matrix::DenseMatrix;
use shfl_core::tiling::TileConfig;

/// Rows of the sparse matrix processed by one threadblock (Sputnik's 1-D row tiling).
const ROWS_PER_BLOCK: usize = 32;

/// Tuning constants of the two CUDA-core baselines.
#[derive(Debug, Clone, Copy)]
struct CudaCoreTuning {
    name: &'static str,
    compute_efficiency: f64,
    coalescing_factor: f64,
    /// Fraction of activation re-reads that miss in L1 and are charged to L2.
    l2_visible_fraction: f64,
}

/// Sputnik: a carefully tuned kernel — good instruction mix, mediocre coalescing
/// (gathered rows), decent L1 reuse.
const SPUTNIK: CudaCoreTuning = CudaCoreTuning {
    name: "sputnik-spmm",
    compute_efficiency: 0.90,
    coalescing_factor: 0.60,
    l2_visible_fraction: 0.5,
};

/// cuSPARSE generic CSR SpMM: noticeably less tuned for DNN shapes than Sputnik
/// (the gap the Sputnik paper itself reports).
const CUSPARSE: CudaCoreTuning = CudaCoreTuning {
    name: "cusparse-csr-spmm",
    compute_efficiency: 0.55,
    coalescing_factor: 0.40,
    l2_visible_fraction: 0.8,
};

fn csr_profile(arch: &GpuArch, a: &CsrMatrix, n: usize, tuning: &CudaCoreTuning) -> KernelProfile {
    let (m, _k) = a.shape();
    let nnz = a.nnz() as u64;
    let n_u = n as u64;

    let tn = if n >= 64 {
        64
    } else {
        n.next_power_of_two().clamp(8, 64)
    };
    let tile = TileConfig {
        tm: ROWS_PER_BLOCK,
        tn,
        tk: 32,
    };

    let mut stats = KernelStats::new(ComputeUnit::CudaCore);
    stats.add_flops(2 * nnz * n_u);

    // Weight values and CSR metadata stream from DRAM once.
    stats.add_dram_read(nnz * FP16_BYTES);
    stats.add_metadata(a.metadata_bytes());
    // Activation rows actually referenced anywhere in the matrix are read from DRAM at
    // least once; re-reads across sparse rows are served by the caches.
    let b_bytes = launch::unique_index_count(a.col_idx(), a.cols()) * n_u * FP16_BYTES;
    let b_reuse = m.div_ceil(tile.tm) as u64;
    stats.add_dram_read(b_bytes * launch::dram_reload_factor(arch, b_bytes, b_reuse));
    stats.add_dram_write(m as u64 * n_u * OUTPUT_BYTES);
    // Every non-zero gathers a row slice of B; the fraction that misses L1 hits L2.
    let l2_bytes = (nnz * n_u * FP16_BYTES) as f64 * tuning.l2_visible_fraction;
    stats.add_l2_read(l2_bytes as u64);

    stats.set_compute_efficiency(tuning.compute_efficiency);
    stats.set_coalescing_factor(tuning.coalescing_factor);
    let grid = (m.div_ceil(tile.tm) as u64) * (n.div_ceil(tile.tn) as u64);
    stats.set_threadblocks(grid);
    stats.set_threads_per_block(128);
    stats.set_shared_bytes_per_block((tile.tm * tile.tk * 4 + tile.tk * tile.tn * 2) as u32);
    stats.set_regfile_bytes_per_block((tile.tm * tile.tn * 4) as u32);

    let timing = CostModel::new(arch).estimate(&stats);
    build_profile(tuning.name.to_string(), arch, stats, timing, tile)
}

/// Analytical profile of the Sputnik-like CUDA-core CSR SpMM.
pub fn cuda_core_spmm_profile(arch: &GpuArch, a: &CsrMatrix, n: usize) -> KernelProfile {
    csr_profile(arch, a, n, &SPUTNIK)
}

/// Analytical profile of the cuSPARSE CSR SpMM baseline (the weakest unstructured
/// baseline in Figure 6).
pub fn cusparse_csr_spmm_profile(arch: &GpuArch, a: &CsrMatrix, n: usize) -> KernelProfile {
    csr_profile(arch, a, n, &CUSPARSE)
}

/// The CSR main loop of [`crate::plan::SpmmPlan::cuda_core`] plans: output
/// rows are independent, so they are
/// distributed across cores, and each row is one direct-accumulation
/// [`mma_sweep`] call — its stored values form a `1 × nnz` panel whose
/// operand rows are the activation rows its column indices name, read
/// unrounded like the CUDA-core kernel's. Each output element takes the
/// row's non-zeros in ascending order, so the result is bit-identical to the
/// retained naive path ([`crate::reference::csr_spmm_naive`]).
pub(crate) fn csr_spmm_into(
    a: &CsrMatrix,
    b: &DenseMatrix,
    output: &mut DenseMatrix,
    spans: &[SegmentSpan],
) {
    let n = b.cols();
    // Per output element the work is one MAC per stored non-zero of its row.
    let macs_per_element = (a.nnz() / a.rows().max(1)).max(1);
    shfl_core::parallel::par_chunks_mut_weighted(
        output.as_mut_slice(),
        n,
        macs_per_element,
        |row, out_row| {
            let (cols, vals) = a.row_entries(row);
            // Unrounded values: a fused product would move the last bit.
            mma_sweep::<true, false>(vals, 1, b.as_slice(), cols, n, out_row, n, spans);
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_sparse(rng: &mut StdRng, m: usize, k: usize, density: f64) -> DenseMatrix {
        DenseMatrix::from_fn(m, k, |_, _| {
            if rng.gen_bool(density) {
                rng.gen_range(-1.0..1.0)
            } else {
                0.0
            }
        })
    }

    #[test]
    fn execute_matches_reference() {
        let mut rng = StdRng::seed_from_u64(5);
        let dense_a = random_sparse(&mut rng, 40, 56, 0.2);
        let b = DenseMatrix::random(&mut rng, 56, 24);
        let a = CsrMatrix::from_dense(&dense_a);
        let arch = GpuArch::v100();
        let out = crate::plan::SpmmPlan::cuda_core(&arch, &a, b.cols())
            .execute(&b)
            .unwrap();
        let reference = dense_a.matmul(&b).unwrap();
        assert!(out.output.approx_eq(&reference, 1e-3).unwrap());
    }

    #[test]
    fn execute_rejects_shape_mismatch() {
        let arch = GpuArch::v100();
        let a = CsrMatrix::from_dense(&DenseMatrix::zeros(4, 8));
        let b = DenseMatrix::zeros(4, 8);
        let plan = crate::plan::SpmmPlan::cuda_core(&arch, &a, b.cols());
        assert!(plan.execute(&b).is_err());
    }

    #[test]
    fn sputnik_beats_cusparse_csr() {
        let mut rng = StdRng::seed_from_u64(9);
        let dense_a = random_sparse(&mut rng, 512, 512, 0.25);
        let a = CsrMatrix::from_dense(&dense_a);
        for arch in GpuArch::all() {
            let sputnik = cuda_core_spmm_profile(&arch, &a, 128);
            let cusparse = cusparse_csr_spmm_profile(&arch, &a, 128);
            assert!(
                sputnik.time_us() < cusparse.time_us(),
                "{}: sputnik {:.2}us vs cusparse {:.2}us",
                arch.name,
                sputnik.time_us(),
                cusparse.time_us()
            );
        }
    }

    #[test]
    fn sparser_matrices_run_faster() {
        let mut rng = StdRng::seed_from_u64(21);
        let arch = GpuArch::v100();
        let denser = CsrMatrix::from_dense(&random_sparse(&mut rng, 1024, 1024, 0.5));
        let sparser = CsrMatrix::from_dense(&random_sparse(&mut rng, 1024, 1024, 0.05));
        let t_denser = cuda_core_spmm_profile(&arch, &denser, 128).time_us();
        let t_sparser = cuda_core_spmm_profile(&arch, &sparser, 128).time_us();
        assert!(t_sparser < t_denser);
    }

    #[test]
    fn profile_uses_cuda_cores_not_tensor_cores() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = CsrMatrix::from_dense(&random_sparse(&mut rng, 256, 256, 0.3));
        let arch = GpuArch::a100();
        let p = cuda_core_spmm_profile(&arch, &a, 64);
        assert_eq!(p.stats.compute_unit(), ComputeUnit::CudaCore);
        assert_eq!(p.stats.mma_instructions(), 0);
    }

    #[test]
    fn empty_matrix_profile_is_cheap() {
        let arch = GpuArch::t4();
        let a = CsrMatrix::from_dense(&DenseMatrix::zeros(128, 128));
        let p = cuda_core_spmm_profile(&arch, &a, 128);
        assert_eq!(p.stats.flops(), 0);
        assert!(p.time_us() < 100.0);
    }
}
