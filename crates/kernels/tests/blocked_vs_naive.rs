//! Bit-compatibility property tests: every blocked kernel — the cold
//! `*_execute` entry points and the prepared [`GemmPlan`] — must produce
//! *exactly* the same output as its retained naive reference.
//!
//! Both paths round operands through fp16 identically and accumulate each
//! output element in ascending-`k` order through a single `f32` accumulator,
//! so the contract is exact equality (compared bit-for-bit), not a tolerance.
//! Covered: non-multiple-of-fragment shapes (e.g. 17×13×9), empty matrices,
//! fully-dense and fully-sparse inputs, and 1-row/1-column edge cases, for
//! GEMM, conv, and all five SpMM kernels.

use gpu_sim::mma::MmaShape;
use gpu_sim::GpuArch;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shfl_core::formats::{
    BalancedMatrix, BlockSparseMatrix, CsrMatrix, ShflBwMatrix, VectorWiseMatrix,
};
use shfl_core::matrix::DenseMatrix;
use shfl_kernels::spmm::{
    balanced_spmm_execute, block_wise_spmm_execute, cuda_core_spmm_execute, shfl_bw_spmm_execute,
    vector_wise_spmm_execute,
};
use shfl_kernels::{conv, reference, GemmPlan};

/// Asserts two matrices are identical down to the bit pattern of every element.
fn assert_bits_eq(blocked: &DenseMatrix, naive: &DenseMatrix, what: &str) {
    assert_eq!(blocked.shape(), naive.shape(), "{what}: shape mismatch");
    for (idx, (x, y)) in blocked
        .as_slice()
        .iter()
        .zip(naive.as_slice().iter())
        .enumerate()
    {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {idx} differs: blocked {x} vs naive {y}"
        );
    }
}

fn random_sparse(rng: &mut StdRng, m: usize, k: usize, density: f64) -> DenseMatrix {
    DenseMatrix::from_fn(m, k, |_, _| {
        if rng.gen_bool(density) {
            rng.gen_range(-1.0f32..1.0)
        } else {
            0.0
        }
    })
}

const ALL_SHAPES: [MmaShape; 3] = [MmaShape::M16N8K16, MmaShape::M16N8K8, MmaShape::M16N16K16];

/// A [`GemmPlan`] packed for `shape`'s fragments vs the naive fragment oracle
/// of the same shape.
fn assert_gemm_matches_naive(shape: MmaShape, a: &DenseMatrix, b: &DenseMatrix, what: &str) {
    let mut arch = GpuArch::v100();
    arch.mma_shape = shape;
    let plan = GemmPlan::new(&arch, a, b.cols()).execute(b).unwrap().output;
    let naive = reference::fragment_matmul_naive(shape, a, b);
    assert_bits_eq(&plan, &naive, &format!("{what} {shape:?}"));
}

fn gemm_case() -> impl Strategy<Value = (usize, usize, usize, f64, u64)> {
    (
        1usize..48,
        1usize..48,
        1usize..40,
        0.0f64..1.0,
        any::<u64>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gemm_blocked_matches_naive((m, k, n, density, seed) in gemm_case()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_sparse(&mut rng, m, k, density);
        let b = DenseMatrix::random(&mut rng, k, n);
        for shape in ALL_SHAPES {
            assert_gemm_matches_naive(shape, &a, &b, &format!("gemm {m}x{k}x{n}"));
        }
    }

    #[test]
    fn csr_spmm_blocked_matches_naive((m, k, n, density, seed) in gemm_case()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dense_a = random_sparse(&mut rng, m, k, density);
        let b = DenseMatrix::random(&mut rng, k, n);
        let a = CsrMatrix::from_dense(&dense_a);
        let out = cuda_core_spmm_execute(&GpuArch::v100(), &a, &b).unwrap();
        let naive = reference::csr_spmm_naive(&a, &b);
        assert_bits_eq(&out.output, &naive, &format!("csr {m}x{k}x{n}"));
    }

    #[test]
    fn vector_wise_and_shfl_bw_blocked_match_naive(
        (groups, vi, k, n, density, seed) in
            (1usize..4, 0usize..3, 1usize..40, 1usize..24, 0.0f64..0.8, any::<u64>())
    ) {
        let v = [1usize, 2, 8][vi];
        let m = groups * v;
        let mut rng = StdRng::seed_from_u64(seed);
        let dense_a = random_sparse(&mut rng, m, k, density);
        let b = DenseMatrix::random(&mut rng, k, n);
        let arch = GpuArch::t4();

        let vw = VectorWiseMatrix::from_dense(&dense_a, v).unwrap();
        let identity: Vec<u32> = (0..m as u32).collect();
        let out = vector_wise_spmm_execute(&arch, &vw, &b).unwrap();
        let naive = reference::stitched_spmm_naive(&arch, &vw, &b, &identity);
        assert_bits_eq(&out.output, &naive, &format!("vector-wise {m}x{k}x{n} V={v}"));

        // Shfl-BW with a non-trivial (reversed) permutation.
        let perm: Vec<usize> = (0..m).rev().collect();
        let shfl = ShflBwMatrix::from_dense_with_permutation(&dense_a, &perm, v).unwrap();
        let out = shfl_bw_spmm_execute(&arch, &shfl, &b).unwrap();
        let naive =
            reference::stitched_spmm_naive(&arch, shfl.vector_wise(), &b, shfl.row_indices());
        assert_bits_eq(&out.output, &naive, &format!("shfl-bw {m}x{k}x{n} V={v}"));
    }

    #[test]
    fn block_wise_blocked_matches_naive(
        (brows, bcols, vi, n, density, seed) in
            (1usize..4, 1usize..4, 0usize..3, 1usize..24, 0.0f64..1.0, any::<u64>())
    ) {
        let v = [1usize, 4, 16][vi];
        let (m, k) = (brows * v, bcols * v);
        let mut rng = StdRng::seed_from_u64(seed);
        let dense_a = random_sparse(&mut rng, m, k, density);
        let b = DenseMatrix::random(&mut rng, k, n);
        let a = BlockSparseMatrix::from_dense(&dense_a, v).unwrap();
        let arch = GpuArch::a100();
        let out = block_wise_spmm_execute(&arch, &a, &b).unwrap();
        let naive = reference::block_spmm_naive(&arch, &a, &b);
        assert_bits_eq(&out.output, &naive, &format!("block {m}x{k}x{n} V={v}"));
    }

    #[test]
    fn balanced_blocked_matches_naive(
        (m, kg, n, seed) in (1usize..24, 1usize..8, 1usize..24, any::<u64>())
    ) {
        let k = kg * 4;
        let mut rng = StdRng::seed_from_u64(seed);
        // Keep the two largest magnitudes per group of four.
        let dense = DenseMatrix::random(&mut rng, m, k);
        let mut pruned = dense.clone();
        for r in 0..m {
            for g in 0..k / 4 {
                let mut idx: Vec<usize> = (0..4).collect();
                idx.sort_by(|&x, &y| {
                    dense
                        .get(r, g * 4 + y)
                        .abs()
                        .partial_cmp(&dense.get(r, g * 4 + x).abs())
                        .unwrap()
                });
                for &i in &idx[2..] {
                    pruned.set(r, g * 4 + i, 0.0);
                }
            }
        }
        let a = BalancedMatrix::from_dense(&pruned, 2, 4).unwrap();
        let b = DenseMatrix::random(&mut rng, k, n);
        let arch = GpuArch::a100();
        let out = balanced_spmm_execute(&arch, &a, &b).unwrap();
        let naive = reference::balanced_spmm_naive(&arch, &a, &b);
        assert_bits_eq(&out.output, &naive, &format!("balanced {m}x{k}x{n}"));
    }

    #[test]
    fn conv_blocked_matches_naive(
        (batch, cin, cout_g, hw, khw, stride, padding, seed) in
            (1usize..3, 1usize..4, 1usize..4, 1usize..8, 1usize..4, 1usize..3, 0usize..2,
             any::<u64>())
    ) {
        let params = conv::Conv2dParams {
            batch,
            in_channels: cin,
            out_channels: cout_g * 2,
            input_h: hw,
            input_w: hw,
            kernel_h: khw.min(hw + 2 * padding),
            kernel_w: khw.min(hw + 2 * padding),
            stride,
            padding,
            dilation: 1,
        };
        let (m, _, k) = params.implicit_gemm_shape();
        let mut rng = StdRng::seed_from_u64(seed);
        let weights = random_sparse(&mut rng, m, k, 0.6);
        let input = conv::Tensor4::random(&mut rng, batch, cin, hw, hw);
        let arch = GpuArch::v100();

        // Dense conv: blocked im2col + blocked fragment GEMM vs the all-naive chain.
        let (out, _) = conv::conv2d_dense_execute(&arch, &weights, &input, &params).unwrap();
        let naive = reference::conv2d_dense_naive(&arch, &weights, &input, &params);
        assert_eq!(out, naive, "dense conv {params:?}");

        // The blocked im2col itself must reproduce the naive gather bit-for-bit.
        let unfolded = conv::im2col(&input, &params);
        let unfolded_naive = reference::im2col_naive(&input, &params);
        assert_bits_eq(&unfolded, &unfolded_naive, &format!("im2col {params:?}"));

        // Shfl-BW conv: blocked stitched SpMM over the unfolded input vs naive.
        let v = 2;
        let perm: Vec<usize> = (0..m).rev().collect();
        let shfl = ShflBwMatrix::from_dense_with_permutation(&weights, &perm, v).unwrap();
        let (out, _) = conv::conv2d_shfl_bw_execute(&arch, &shfl, &input, &params).unwrap();
        let spmm_naive = reference::stitched_spmm_naive(
            &arch,
            shfl.vector_wise(),
            &unfolded_naive,
            shfl.row_indices(),
        );
        let (oh, ow) = (params.output_h(), params.output_w());
        let mut packed = conv::Tensor4::zeros(batch, params.out_channels, oh, ow);
        for o in 0..params.out_channels {
            for b in 0..batch {
                for y in 0..oh {
                    for x in 0..ow {
                        packed.set(b, o, y, x, spmm_naive.get(o, (b * oh + y) * ow + x));
                    }
                }
            }
        }
        assert_eq!(out, packed, "shfl-bw conv {params:?}");
    }
}

#[test]
fn gemm_odd_shape_17x13x9_is_bit_compatible() {
    let mut rng = StdRng::seed_from_u64(17);
    let a = DenseMatrix::random(&mut rng, 17, 13);
    let b = DenseMatrix::random(&mut rng, 13, 9);
    for shape in ALL_SHAPES {
        assert_gemm_matches_naive(shape, &a, &b, "gemm 17x13x9");
    }
}

#[test]
fn gemm_empty_dimensions_are_bit_compatible() {
    for (m, k, n) in [(0usize, 5usize, 3usize), (4, 0, 3), (4, 5, 0), (0, 0, 0)] {
        let a = DenseMatrix::zeros(m, k);
        let b = DenseMatrix::zeros(k, n);
        assert_gemm_matches_naive(
            MmaShape::M16N8K16,
            &a,
            &b,
            &format!("gemm empty {m}x{k}x{n}"),
        );
    }
}

#[test]
fn gemm_single_row_and_column_are_bit_compatible() {
    let mut rng = StdRng::seed_from_u64(23);
    for (m, k, n) in [
        (1usize, 13usize, 1usize),
        (1, 1, 1),
        (33, 1, 7),
        (1, 40, 24),
    ] {
        let a = DenseMatrix::random(&mut rng, m, k);
        let b = DenseMatrix::random(&mut rng, k, n);
        assert_gemm_matches_naive(MmaShape::M16N8K16, &a, &b, &format!("gemm {m}x{k}x{n}"));
    }
}

#[test]
fn gemm_fully_dense_and_fully_sparse_are_bit_compatible() {
    let mut rng = StdRng::seed_from_u64(29);
    let dense = DenseMatrix::random(&mut rng, 19, 21);
    let sparse = DenseMatrix::zeros(19, 21);
    let b = DenseMatrix::random(&mut rng, 21, 11);
    for a in [&dense, &sparse] {
        assert_gemm_matches_naive(MmaShape::M16N8K16, a, &b, "gemm density extremes");
    }
}

#[test]
fn spmm_kernels_handle_fully_sparse_and_single_row_inputs() {
    let arch = GpuArch::v100();
    // Fully sparse 8x8 across every format that admits it.
    let zeros = DenseMatrix::zeros(8, 8);
    let b = DenseMatrix::from_fn(8, 3, |r, c| (r + 2 * c) as f32 * 0.25);
    let identity: Vec<u32> = (0..8).collect();

    let csr = CsrMatrix::from_dense(&zeros);
    let out = cuda_core_spmm_execute(&arch, &csr, &b).unwrap();
    assert_bits_eq(
        &out.output,
        &reference::csr_spmm_naive(&csr, &b),
        "csr all-sparse",
    );

    let vw = VectorWiseMatrix::from_dense(&zeros, 4).unwrap();
    let out = vector_wise_spmm_execute(&arch, &vw, &b).unwrap();
    assert_bits_eq(
        &out.output,
        &reference::stitched_spmm_naive(&arch, &vw, &b, &identity),
        "vw all-sparse",
    );

    let bsr = BlockSparseMatrix::from_dense(&zeros, 4).unwrap();
    let out = block_wise_spmm_execute(&arch, &bsr, &b).unwrap();
    assert_bits_eq(
        &out.output,
        &reference::block_spmm_naive(&arch, &bsr, &b),
        "block all-sparse",
    );

    // Single-row sparse matrix against a single-column activation (V = 1).
    let mut rng = StdRng::seed_from_u64(31);
    let row = DenseMatrix::random(&mut rng, 1, 9);
    let b1 = DenseMatrix::random(&mut rng, 9, 1);
    let vw = VectorWiseMatrix::from_dense(&row, 1).unwrap();
    let out = vector_wise_spmm_execute(&arch, &vw, &b1).unwrap();
    assert_bits_eq(
        &out.output,
        &reference::stitched_spmm_naive(&arch, &vw, &b1, &[0]),
        "vw 1x9x1",
    );
    let shfl = ShflBwMatrix::from_dense_with_permutation(&row, &[0], 1).unwrap();
    let out = shfl_bw_spmm_execute(&arch, &shfl, &b1).unwrap();
    assert_bits_eq(
        &out.output,
        &reference::stitched_spmm_naive(&arch, shfl.vector_wise(), &b1, shfl.row_indices()),
        "shfl-bw 1x9x1",
    );
}

#[test]
fn spmm_kernels_handle_zero_width_activations() {
    let arch = GpuArch::v100();
    let mut rng = StdRng::seed_from_u64(37);
    let dense_a = DenseMatrix::random(&mut rng, 8, 8);
    let b = DenseMatrix::zeros(8, 0);

    let csr = CsrMatrix::from_dense(&dense_a);
    let out = cuda_core_spmm_execute(&arch, &csr, &b).unwrap();
    assert_eq!(out.output.shape(), (8, 0));

    let vw = VectorWiseMatrix::from_dense(&dense_a, 4).unwrap();
    let out = vector_wise_spmm_execute(&arch, &vw, &b).unwrap();
    assert_eq!(out.output.shape(), (8, 0));

    let bsr = BlockSparseMatrix::from_dense(&dense_a, 4).unwrap();
    let out = block_wise_spmm_execute(&arch, &bsr, &b).unwrap();
    assert_eq!(out.output.shape(), (8, 0));
}
