//! Property-based cross-crate tests: every sparse kernel agrees with the dense
//! reference GEMM on randomly structured inputs, across architectures.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shfl_bw_repro::prelude::*;
use shfl_core::formats::{BlockSparseMatrix, CsrMatrix, VectorWiseMatrix};

/// Generates a random vector-wise-structured weight matrix, activation matrix and the
/// vector size, from a compact parameter tuple.
fn spmm_case() -> impl Strategy<Value = (DenseMatrix, DenseMatrix, usize, u64)> {
    (1usize..4, 1usize..4, 1usize..3, 0.05f64..0.6, any::<u64>()).prop_map(
        |(mg, kg, ng, density, seed)| {
            let v = 8;
            let (m, k, n) = (mg * 2 * v, kg * 32, ng * 16);
            let mut rng = StdRng::seed_from_u64(seed);
            let groups = m / v;
            let keep: Vec<Vec<bool>> = (0..groups)
                .map(|_| (0..k).map(|_| rng.gen_bool(density)).collect())
                .collect();
            let weights = DenseMatrix::from_fn(m, k, |r, c| {
                if keep[r / v][c] {
                    rng.gen_range(-1.0f32..1.0)
                } else {
                    0.0
                }
            });
            let activations = DenseMatrix::from_fn(k, n, |_, _| rng.gen_range(-1.0f32..1.0));
            (weights, activations, v, seed)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_spmm_kernels_match_the_reference((weights, activations, v, seed) in spmm_case()) {
        let reference = weights.matmul(&activations).unwrap();
        let arch = match seed % 3 {
            0 => GpuArch::v100(),
            1 => GpuArch::t4(),
            _ => GpuArch::a100(),
        };
        let n = activations.cols();

        // CUDA-core CSR kernel.
        let csr = CsrMatrix::from_dense(&weights);
        let out = SpmmPlan::cuda_core(&arch, &csr, n).execute(&activations).unwrap();
        prop_assert!(out.output.approx_eq(&reference, 1e-2).unwrap());

        // Vector-wise tensor-core kernel.
        let vw = VectorWiseMatrix::from_dense(&weights, v).unwrap();
        let out = SpmmPlan::vector_wise(&arch, &vw, n).execute(&activations).unwrap();
        prop_assert!(out.output.approx_eq(&reference, 3e-2).unwrap());

        // Shfl-BW kernel with a non-trivial permutation (reverse order).
        let perm: Vec<usize> = (0..weights.rows()).rev().collect();
        let shfl = ShflBwMatrix::from_dense_with_permutation(&weights, &perm, v).unwrap();
        let out = SpmmPlan::shfl_bw(&arch, &shfl, n).execute(&activations).unwrap();
        prop_assert!(out.output.approx_eq(&reference, 3e-2).unwrap());

        // Block-wise kernel (pad columns to a multiple of the block size by
        // constructing over the same matrix when possible).
        if weights.cols() % v == 0 {
            let bsr = BlockSparseMatrix::from_dense(&weights, v).unwrap();
            let out = SpmmPlan::block_wise(&arch, &bsr, n).execute(&activations).unwrap();
            prop_assert!(out.output.approx_eq(&reference, 3e-2).unwrap());
        }
    }

    #[test]
    fn sparse_kernels_never_report_more_flops_than_dense(
        (weights, activations, v, _seed) in spmm_case()
    ) {
        let arch = GpuArch::v100();
        let vw = VectorWiseMatrix::from_dense(&weights, v).unwrap();
        let plan = SpmmPlan::vector_wise(&arch, &vw, activations.cols());
        let dense_flops =
            2 * (weights.rows() * weights.cols() * activations.cols()) as u64;
        prop_assert!(plan.profile().stats.flops() <= dense_flops);
    }
}
