//! The Shfl-BW SpMM kernel (the paper's Algorithm 1).
//!
//! The kernel consumes a [`ShflBwMatrix`]: the weight matrix was re-ordered offline
//! into vector-wise storage (Figure 4 step (a)), so the main loop is identical to the
//! vector-wise kernel — bulk metadata prefetch, in-buffer stitching of the activation
//! rows named by the column indices, warp-level MMA on the stitched dense tile — and
//! only the epilogue differs: the *reordered write-back* (step (e)) consults the
//! original row indices (buffered in shared memory) and writes each accumulator row
//! directly to its original position in the output.
//!
//! The paper measures this row shuffling to cost essentially nothing (Shfl-BW is
//! 0.97–1.02× the plain vector-wise kernel); the model reproduces that by charging
//! only the row-index metadata, a small amount of extra shared memory, and a slight
//! write-coalescing overhead.

use crate::profile::KernelProfile;
use crate::spmm::vector_wise::{vw_family_profile, VectorWiseKernelConfig};
use gpu_sim::pipeline::PipelineConfig;
use gpu_sim::GpuArch;
use shfl_core::formats::ShflBwMatrix;

/// Tuning knobs of the Shfl-BW SpMM kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct ShflBwKernelConfig {
    /// The underlying vector-wise main-loop configuration.
    pub base: VectorWiseKernelConfig,
    /// Fraction of extra output-write traffic caused by the scattered (row-shuffled)
    /// write-back. The paper's measurement bounds this at a few percent.
    pub writeback_overhead: f64,
}

impl ShflBwKernelConfig {
    /// The configuration used throughout the paper's evaluation: deep pipeline, bulk
    /// metadata prefetch, ~2 % write-back overhead.
    pub fn paper_default() -> Self {
        ShflBwKernelConfig {
            base: VectorWiseKernelConfig {
                label: "shfl-bw-spmm".to_string(),
                ..VectorWiseKernelConfig::ours()
            },
            writeback_overhead: 0.02,
        }
    }

    /// Ablation configuration with the metadata prefetch and multi-stage buffering
    /// disabled (naive pipeline); used to quantify the contribution of §4.4.
    pub fn without_prefetch() -> Self {
        let mut cfg = Self::paper_default();
        cfg.base.label = "shfl-bw-spmm-noprefetch".to_string();
        cfg.base.pipeline = PipelineConfig::naive();
        cfg
    }
}

impl Default for ShflBwKernelConfig {
    fn default() -> Self {
        ShflBwKernelConfig::paper_default()
    }
}

/// Analytical profile of the Shfl-BW SpMM `C = A · B` with the default (paper)
/// configuration, where `B` has `n` columns.
pub fn shfl_bw_spmm_profile(arch: &GpuArch, a: &ShflBwMatrix, n: usize) -> KernelProfile {
    shfl_bw_spmm_profile_with(arch, a, n, &ShflBwKernelConfig::paper_default())
}

/// Analytical profile of the Shfl-BW SpMM with an explicit kernel configuration.
pub fn shfl_bw_spmm_profile_with(
    arch: &GpuArch,
    a: &ShflBwMatrix,
    n: usize,
    config: &ShflBwKernelConfig,
) -> KernelProfile {
    let v = a.vector_size();
    // Row indices (u32 per row) are the extra metadata of the format; each threadblock
    // also buffers the V shuffle indices of its group in shared memory (§4.2).
    let row_index_bytes = (a.rows() * std::mem::size_of::<u32>()) as u64;
    let extra_smem = (v * std::mem::size_of::<u32>()) as u32;
    vw_family_profile(
        arch,
        a.vector_wise(),
        n,
        &config.base,
        format!("{}(V={v})", config.base.label),
        row_index_bytes,
        config.writeback_overhead,
        extra_smem,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::dense_gemm_profile;
    use crate::spmm::vector_wise::vector_wise_spmm_profile;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use shfl_core::formats::VectorWiseMatrix;
    use shfl_core::matrix::DenseMatrix;

    /// Builds a dense matrix with a Shfl-BW structure: `m/v` distinct column patterns,
    /// each assigned to `v` rows scattered through the matrix by a random permutation.
    fn shfl_bw_dense(rng: &mut StdRng, m: usize, k: usize, v: usize, density: f64) -> DenseMatrix {
        let groups = m / v;
        let patterns: Vec<Vec<bool>> = (0..groups)
            .map(|_| (0..k).map(|_| rng.gen_bool(density)).collect())
            .collect();
        let mut assignment: Vec<usize> = (0..m).map(|r| r % groups).collect();
        assignment.shuffle(rng);
        DenseMatrix::from_fn(m, k, |r, c| {
            if patterns[assignment[r]][c] {
                rng.gen_range(-1.0f32..1.0)
            } else {
                0.0
            }
        })
    }

    #[test]
    fn execute_matches_reference_with_scattered_rows() {
        let mut rng = StdRng::seed_from_u64(51);
        let dense_a = shfl_bw_dense(&mut rng, 32, 48, 8, 0.3);
        let b = DenseMatrix::random(&mut rng, 48, 24);
        let a = ShflBwMatrix::from_dense(&dense_a, 8).unwrap();
        let arch = GpuArch::v100();
        let out = crate::plan::SpmmPlan::shfl_bw(&arch, &a, b.cols())
            .execute(&b)
            .unwrap();
        let reference = dense_a.matmul(&b).unwrap();
        assert!(out.output.approx_eq(&reference, 2e-2).unwrap());
    }

    #[test]
    fn execute_rejects_shape_mismatch() {
        let arch = GpuArch::v100();
        let mut rng = StdRng::seed_from_u64(1);
        let dense_a = shfl_bw_dense(&mut rng, 16, 16, 8, 0.3);
        let a = ShflBwMatrix::from_dense(&dense_a, 8).unwrap();
        let b = DenseMatrix::zeros(8, 8);
        let plan = crate::plan::SpmmPlan::shfl_bw(&arch, &a, b.cols());
        assert!(plan.execute(&b).is_err());
    }

    #[test]
    fn shuffle_overhead_over_vector_wise_is_negligible() {
        // The paper reports Shfl-BW at 0.97–1.02× its own vector-wise kernel.
        let mut rng = StdRng::seed_from_u64(61);
        let dense_a = shfl_bw_dense(&mut rng, 2048, 2048, 64, 0.25);
        let shfl = ShflBwMatrix::from_dense(&dense_a, 64).unwrap();
        // The vector-wise comparison point uses the same matrix contents grouped
        // contiguously (i.e. the permuted matrix).
        let grouped = dense_a
            .permuted_rows(
                &shfl
                    .row_indices()
                    .iter()
                    .map(|r| *r as usize)
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        let vw = VectorWiseMatrix::from_dense(&grouped, 64).unwrap();
        for arch in GpuArch::all() {
            let t_shfl = shfl_bw_spmm_profile(&arch, &shfl, 256).time_us();
            let t_vw = vector_wise_spmm_profile(&arch, &vw, 256, &VectorWiseKernelConfig::ours())
                .time_us();
            let ratio = t_vw / t_shfl;
            assert!(
                (0.90..=1.05).contains(&ratio),
                "{}: Shfl-BW/VW ratio {ratio:.3} outside the paper's 0.97-1.02 band",
                arch.name
            );
        }
    }

    #[test]
    fn beats_dense_baseline_at_75_percent_sparsity() {
        // The headline claim: at 75% sparsity the Shfl-BW kernel is faster than the
        // dense tensor-core GEMM on every evaluated GPU.
        let mut rng = StdRng::seed_from_u64(71);
        let (m, k, n, v) = (2048usize, 2048usize, 256usize, 64usize);
        let dense_a = shfl_bw_dense(&mut rng, m, k, v, 0.25);
        let a = ShflBwMatrix::from_dense(&dense_a, v).unwrap();
        for arch in GpuArch::all() {
            let sparse_t = shfl_bw_spmm_profile(&arch, &a, n).time_us();
            let dense_t = dense_gemm_profile(&arch, m, n, k).time_us();
            assert!(
                sparse_t < dense_t,
                "{}: Shfl-BW {sparse_t:.2}us not faster than dense {dense_t:.2}us",
                arch.name
            );
        }
    }

    #[test]
    fn prefetch_ablation_shows_benefit() {
        let mut rng = StdRng::seed_from_u64(81);
        let dense_a = shfl_bw_dense(&mut rng, 2048, 2048, 32, 0.25);
        let a = ShflBwMatrix::from_dense(&dense_a, 32).unwrap();
        let arch = GpuArch::t4();
        let with = shfl_bw_spmm_profile_with(&arch, &a, 256, &ShflBwKernelConfig::paper_default());
        let without =
            shfl_bw_spmm_profile_with(&arch, &a, 256, &ShflBwKernelConfig::without_prefetch());
        assert!(
            without.time_us() > with.time_us(),
            "no-prefetch {:.2}us should exceed prefetch {:.2}us",
            without.time_us(),
            with.time_us()
        );
    }

    #[test]
    fn profile_charges_row_index_metadata() {
        let mut rng = StdRng::seed_from_u64(91);
        let dense_a = shfl_bw_dense(&mut rng, 256, 256, 32, 0.25);
        let shfl = ShflBwMatrix::from_dense(&dense_a, 32).unwrap();
        let grouped = dense_a
            .permuted_rows(
                &shfl
                    .row_indices()
                    .iter()
                    .map(|r| *r as usize)
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        let vw = VectorWiseMatrix::from_dense(&grouped, 32).unwrap();
        let arch = GpuArch::v100();
        let p_shfl = shfl_bw_spmm_profile(&arch, &shfl, 64);
        let p_vw = vector_wise_spmm_profile(&arch, &vw, 64, &VectorWiseKernelConfig::ours());
        assert!(p_shfl.stats.metadata_bytes() > p_vw.stats.metadata_bytes());
    }
}
