//! Dense GEMM baselines (cuBLAS-like tensor-core GEMM and a CUDA-core GEMM).
//!
//! These are the baselines every sparse kernel in the paper is normalised against:
//! Figure 1 plots SpMM throughput relative to the CUDA-core dense GEMM, and Figure 6
//! reports speedups over the tensor-core dense GEMM (cuBLAS) / cuDNN.

use crate::launch::{self, LaunchConfig, FP16_BYTES, OUTPUT_BYTES};
use crate::profile::{build_profile, KernelError, KernelOutput, KernelProfile, KernelResult};
use gpu_sim::{ComputeUnit, CostModel, GpuArch, KernelStats};
use shfl_core::matrix::DenseMatrix;

/// Compute-throughput fraction a CUDA-core GEMM achieves (well-tuned SGEMM/HGEMM).
const CUDA_CORE_GEMM_EFFICIENCY: f64 = 0.85;

/// Validates GEMM operand shapes and returns `(m, n, k)`.
fn gemm_shape(a: &DenseMatrix, b: &DenseMatrix) -> KernelResult<(usize, usize, usize)> {
    if a.cols() != b.rows() {
        return Err(KernelError::ShapeMismatch {
            context: format!("GEMM A is {:?} but B is {:?}", a.shape(), b.shape()),
        });
    }
    Ok((a.rows(), b.cols(), a.cols()))
}

/// Builds the analytical stats of a dense GEMM of shape `m×n×k` for the given compute
/// unit and launch configuration.
fn dense_gemm_stats(
    arch: &GpuArch,
    m: usize,
    n: usize,
    k: usize,
    unit: ComputeUnit,
    cfg: &LaunchConfig,
) -> KernelStats {
    let (m_u, n_u, k_u) = (m as u64, n as u64, k as u64);
    let mut stats = KernelStats::new(unit);
    stats.add_flops(2 * m_u * n_u * k_u);

    let a_bytes = m_u * k_u * FP16_BYTES;
    let b_bytes = k_u * n_u * FP16_BYTES;
    let c_bytes = m_u * n_u * OUTPUT_BYTES;
    let a_reuse = n.div_ceil(cfg.tile.tn) as u64;
    let b_reuse = m.div_ceil(cfg.tile.tm) as u64;
    stats.add_dram_read(a_bytes * launch::dram_reload_factor(arch, a_bytes, a_reuse));
    stats.add_dram_read(b_bytes * launch::dram_reload_factor(arch, b_bytes, b_reuse));
    // Split-K writes one partial output per split and re-reads them once for the
    // reduction epilogue.
    let split = cfg.split_k as u64;
    stats.add_dram_write(c_bytes * split);
    if split > 1 {
        stats.add_dram_read(c_bytes * (split - 1));
    }
    // Tile-level re-reads served by the L2.
    stats.add_l2_read(a_bytes * a_reuse + b_bytes * b_reuse);

    match unit {
        ComputeUnit::TensorCore => {
            let shape = arch.mma_shape;
            stats.add_mma_instructions(shape.instructions_for(m, n, k) as u64);
            stats.scale_mma_utilization(shape.utilization_for(m, n, k));
            stats.set_compute_efficiency(arch.dense_gemm_efficiency);
        }
        ComputeUnit::CudaCore => {
            stats.set_compute_efficiency(CUDA_CORE_GEMM_EFFICIENCY);
        }
    }
    stats.set_coalescing_factor(1.0);
    stats.set_threadblocks(cfg.grid);
    stats.set_threads_per_block(cfg.threads_per_block);
    stats.set_shared_bytes_per_block(cfg.shared_bytes_per_block());
    stats.set_regfile_bytes_per_block(cfg.regfile_bytes_per_block());
    stats
}

/// Analytical profile of a cuBLAS-like dense tensor-core GEMM `C[m×n] = A[m×k]·B[k×n]`.
pub fn dense_gemm_profile(arch: &GpuArch, m: usize, n: usize, k: usize) -> KernelProfile {
    let cfg = launch::dense_launch(arch, m, n, k);
    let stats = dense_gemm_stats(arch, m, n, k, ComputeUnit::TensorCore, &cfg);
    let timing = CostModel::new(arch).estimate(&stats);
    build_profile("dense-gemm".to_string(), arch, stats, timing, cfg.tile)
}

/// Analytical profile of a dense GEMM executed on CUDA cores (the Figure 1 baseline
/// that sparse CUDA-core kernels are compared against).
pub fn dense_gemm_cuda_core_profile(arch: &GpuArch, m: usize, n: usize, k: usize) -> KernelProfile {
    let cfg = launch::dense_launch(arch, m, n, k);
    let stats = dense_gemm_stats(arch, m, n, k, ComputeUnit::CudaCore, &cfg);
    let timing = CostModel::new(arch).estimate(&stats);
    build_profile(
        "dense-gemm-cuda-core".to_string(),
        arch,
        stats,
        timing,
        cfg.tile,
    )
}

/// Functionally executes the dense tensor-core GEMM: the output is computed by
/// iterating warp-level MMA fragments over the operands (operands rounded through
/// fp16, fp32 accumulation), exactly the way the tensor-core kernel issues work.
///
/// This is the cold path: a thin wrapper that builds a
/// [`crate::plan::GemmPlan`] for this single call and executes it. Serving
/// workloads build the plan once and call `execute` repeatedly, amortising the
/// weight rounding and panel staging.
///
/// # Errors
///
/// Returns [`KernelError::ShapeMismatch`] if `a.cols() != b.rows()`.
pub fn dense_gemm_execute(
    arch: &GpuArch,
    a: &DenseMatrix,
    b: &DenseMatrix,
) -> KernelResult<KernelOutput> {
    gemm_shape(a, b)?;
    crate::plan::GemmPlan::new(arch, a, b.cols()).execute(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn execute_matches_reference() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = DenseMatrix::random(&mut rng, 48, 40);
        let b = DenseMatrix::random(&mut rng, 40, 24);
        let arch = GpuArch::v100();
        let out = dense_gemm_execute(&arch, &a, &b).unwrap();
        let reference = a.matmul(&b).unwrap();
        assert!(out.output.approx_eq(&reference, 2e-2).unwrap());
    }

    #[test]
    fn execute_rejects_shape_mismatch() {
        let arch = GpuArch::v100();
        let a = DenseMatrix::zeros(4, 5);
        let b = DenseMatrix::zeros(4, 5);
        assert!(matches!(
            dense_gemm_execute(&arch, &a, &b),
            Err(KernelError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn tensor_core_profile_is_faster_than_cuda_core_for_large_gemm() {
        for arch in GpuArch::all() {
            let tc = dense_gemm_profile(&arch, 4096, 4096, 4096);
            let cc = dense_gemm_cuda_core_profile(&arch, 4096, 4096, 4096);
            let ratio = cc.time_us() / tc.time_us();
            assert!(
                ratio > 2.5,
                "{}: tensor-core speedup over CUDA-core was only {ratio:.2}",
                arch.name
            );
        }
    }

    #[test]
    fn profile_flops_and_traffic_scale_with_shape() {
        let arch = GpuArch::a100();
        let small = dense_gemm_profile(&arch, 512, 512, 512);
        let big = dense_gemm_profile(&arch, 1024, 1024, 1024);
        assert_eq!(big.stats.flops(), 8 * small.stats.flops());
        assert!(big.stats.dram_bytes() > small.stats.dram_bytes());
        assert!(big.time_us() > small.time_us());
    }

    #[test]
    fn profile_achieves_reasonable_fraction_of_peak_on_large_gemm() {
        let arch = GpuArch::v100();
        let p = dense_gemm_profile(&arch, 8192, 8192, 8192);
        let fraction = p.achieved_tflops() / arch.tensor_core_tflops;
        assert!(fraction > 0.5, "achieved only {fraction:.2} of peak");
        assert!(fraction <= arch.dense_gemm_efficiency + 1e-9);
    }

    #[test]
    fn execute_handles_non_multiple_shapes() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = DenseMatrix::random(&mut rng, 17, 13);
        let b = DenseMatrix::random(&mut rng, 13, 9);
        let out = dense_gemm_execute(&GpuArch::v100(), &a, &b).unwrap();
        let reference = a.matmul(&b).unwrap();
        assert!(out.output.approx_eq(&reference, 2e-2).unwrap());
    }
}
