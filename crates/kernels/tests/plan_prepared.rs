//! Bit-compatibility property tests for prepared plans: one plan, built once,
//! must produce *exactly* the same output as the naive reference oracles on
//! every execute, and must stay bit-identical across repeated executes of
//! the same plan with different activations. A plan built for a single call
//! and executed once is `blocked_vs_naive.rs`'s subject.
//!
//! The packing rounds element-wise exactly where the oracles round, and the
//! panel sweep preserves the per-output-element accumulation order, so the
//! contract is exact equality (compared bit-for-bit), not a tolerance.
//! Covered per the plan design: empty matrices, 1-row/1-column operands, odd
//! (non-multiple-of-fragment) shapes, fully-dense and fully-sparse inputs,
//! seeded random row permutations and an all-zero group under a non-identity
//! permutation, for the GEMM, implicit-GEMM conv, and all five SpMM plans.

mod common;

use common::{
    assert_bits_eq, prune_two_in_four, random_permutation, random_sparse, shfl_conv_naive,
};
use gpu_sim::GpuArch;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shfl_core::formats::{
    BalancedMatrix, BlockSparseMatrix, CsrMatrix, ShflBwMatrix, VectorWiseMatrix,
};
use shfl_core::matrix::DenseMatrix;
use shfl_kernels::conv_plan::ImplicitConvPlan;
use shfl_kernels::plan::SpmmPlan;
use shfl_kernels::{conv, reference};

/// One dense [`SpmmPlan`] built for `a` at width `n` and executed with two
/// fresh activations of that width, each against the naive fragment oracle.
fn assert_gemm_plan_matches_naive(
    arch: &GpuArch,
    a: &DenseMatrix,
    n: usize,
    rng: &mut StdRng,
    what: &str,
) {
    let plan = SpmmPlan::dense(arch, a, n);
    for round in 0..2 {
        let b = DenseMatrix::random(rng, a.cols(), n);
        assert_bits_eq(
            &plan.execute(&b).unwrap().output,
            &reference::fragment_matmul_naive(arch.mma_shape, a, &b),
            &format!("{what} round {round}"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// GEMM: prepared == naive fragment oracle, and the same plan stays exact
    /// across repeated executes with fresh activations.
    #[test]
    fn gemm_plan_matches_blocked_and_naive(
        (m, k, n, density, seed) in
            (1usize..40, 1usize..40, 1usize..32, 0.0f64..1.0, any::<u64>())
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_sparse(&mut rng, m, k, density);
        let arch = GpuArch::v100();
        let plan = SpmmPlan::dense(&arch, &a, n);
        for round in 0..3 {
            let b = DenseMatrix::random(&mut rng, k, n);
            let prepared = plan.execute(&b).unwrap().output;
            let naive = reference::fragment_matmul_naive(arch.mma_shape, &a, &b);
            assert_bits_eq(&prepared, &naive, &format!("gemm-naive {m}x{k}x{n} round {round}"));
        }
    }

    /// Vector-wise and Shfl-BW (rows scattered by a permutation drawn from
    /// the case seed): prepared == naive stitched oracle, across repeated
    /// executes.
    #[test]
    fn stitched_plans_match_blocked_and_naive(
        (groups, vi, k, n, density, seed) in
            (1usize..4, 0usize..3, 1usize..32, 1usize..24, 0.0f64..0.8, any::<u64>())
    ) {
        let v = [1usize, 2, 8][vi];
        let m = groups * v;
        let mut rng = StdRng::seed_from_u64(seed);
        let dense_a = random_sparse(&mut rng, m, k, density);
        let arch = GpuArch::t4();

        let vw = VectorWiseMatrix::from_dense(&dense_a, v).unwrap();
        let identity: Vec<u32> = (0..m as u32).collect();
        let vw_plan = SpmmPlan::vector_wise(&arch, &vw, n);

        let perm = random_permutation(&mut rng, m);
        let shfl = ShflBwMatrix::from_dense_with_permutation(&dense_a, &perm, v).unwrap();
        let shfl_plan = SpmmPlan::shfl_bw(&arch, &shfl, n);

        for round in 0..3 {
            let b = DenseMatrix::random(&mut rng, k, n);
            let what = format!("{m}x{k}x{n} V={v} round {round}");

            let prepared = vw_plan.execute(&b).unwrap().output;
            assert_bits_eq(
                &prepared,
                &reference::stitched_spmm_naive(&arch, &vw, &b, &identity),
                &format!("vw-naive {what}"),
            );

            let prepared = shfl_plan.execute(&b).unwrap().output;
            assert_bits_eq(
                &prepared,
                &reference::stitched_spmm_naive(&arch, shfl.vector_wise(), &b, shfl.row_indices()),
                &format!("shfl-naive {what} perm {perm:?}"),
            );
        }
    }

    /// Block-wise: prepared == naive block oracle, across repeated executes.
    #[test]
    fn block_plan_matches_blocked_and_naive(
        (brows, bcols, vi, n, density, seed) in
            (1usize..4, 1usize..4, 0usize..3, 1usize..24, 0.0f64..1.0, any::<u64>())
    ) {
        let v = [1usize, 4, 16][vi];
        let (m, k) = (brows * v, bcols * v);
        let mut rng = StdRng::seed_from_u64(seed);
        let dense_a = random_sparse(&mut rng, m, k, density);
        let a = BlockSparseMatrix::from_dense(&dense_a, v).unwrap();
        let arch = GpuArch::a100();
        let plan = SpmmPlan::block_wise(&arch, &a, n);
        for round in 0..2 {
            let b = DenseMatrix::random(&mut rng, k, n);
            let prepared = plan.execute(&b).unwrap().output;
            let what = format!("block {m}x{k}x{n} V={v} round {round}");
            assert_bits_eq(&prepared, &reference::block_spmm_naive(&arch, &a, &b), &format!("{what} naive"));
        }
    }

    /// Balanced 2:4 and CSR on the same 2:4-pruned operand: prepared == naive
    /// oracles, across repeated executes.
    #[test]
    fn balanced_and_csr_plans_match_naive(
        (m, kg, n, seed) in (1usize..24, 1usize..8, 1usize..24, any::<u64>())
    ) {
        let k = kg * 4;
        let mut rng = StdRng::seed_from_u64(seed);
        let pruned = prune_two_in_four(&mut rng, m, k);
        let arch = GpuArch::a100();
        let bal = BalancedMatrix::from_dense(&pruned, 2, 4).unwrap();
        let bal_plan = SpmmPlan::balanced(&arch, &bal, n).unwrap();
        let csr = CsrMatrix::from_dense(&pruned);
        let csr_plan = SpmmPlan::cuda_core(&arch, &csr, n);
        for round in 0..2 {
            let b = DenseMatrix::random(&mut rng, k, n);
            let prepared = bal_plan.execute(&b).unwrap().output;
            assert_bits_eq(
                &prepared,
                &reference::balanced_spmm_naive(&arch, &bal, &b),
                &format!("balanced {m}x{k}x{n} round {round}"),
            );
            let prepared = csr_plan.execute(&b).unwrap().output;
            assert_bits_eq(
                &prepared,
                &reference::csr_spmm_naive(&csr, &b),
                &format!("csr {m}x{k}x{n} round {round}"),
            );
        }
    }

    /// The implicit-GEMM Shfl-BW conv plan (rows scattered by a permutation
    /// drawn from the case seed): prepared == the naive chain (naive im2col,
    /// naive stitched SpMM), across repeated executes with fresh inputs.
    #[test]
    fn conv_plans_match_naive(
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
        let arch = GpuArch::v100();

        let perm = random_permutation(&mut rng, m);
        let shfl = ShflBwMatrix::from_dense_with_permutation(&weights, &perm, 2).unwrap();
        let shfl_plan = ImplicitConvPlan::build(&arch, &shfl, &params).unwrap();

        for round in 0..2 {
            let input = conv::Tensor4::random(&mut rng, batch, cin, hw, hw);
            let prepared = shfl_plan.execute(&input).unwrap();
            let naive = shfl_conv_naive(&arch, &shfl, &input, &params);
            assert_eq!(prepared, naive, "shfl-bw conv {params:?} perm {perm:?} round {round}");
        }
    }
}

#[test]
fn gemm_plan_edge_shapes_are_bit_compatible() {
    let arch = GpuArch::v100();
    let mut rng = StdRng::seed_from_u64(17);
    // Odd, 1-row/1-col, and boundary shapes.
    for (m, k, n) in [
        (17usize, 13usize, 9usize),
        (1, 13, 1),
        (1, 1, 1),
        (33, 1, 7),
        (1, 40, 24),
        (16, 16, 8),
    ] {
        let a = DenseMatrix::random(&mut rng, m, k);
        assert_gemm_plan_matches_naive(&arch, &a, n, &mut rng, &format!("gemm {m}x{k}x{n}"));
    }
}

#[test]
fn gemm_plan_empty_dimensions_are_bit_compatible() {
    let arch = GpuArch::t4();
    let mut rng = StdRng::seed_from_u64(19);
    for (m, k, n) in [(0usize, 5usize, 3usize), (4, 0, 3), (4, 5, 0), (0, 0, 0)] {
        let a = DenseMatrix::zeros(m, k);
        assert_gemm_plan_matches_naive(&arch, &a, n, &mut rng, &format!("gemm empty {m}x{k}x{n}"));
    }
}

#[test]
fn gemm_plan_density_extremes_are_bit_compatible() {
    let arch = GpuArch::v100();
    let mut rng = StdRng::seed_from_u64(29);
    let dense = DenseMatrix::random(&mut rng, 19, 21);
    let sparse = DenseMatrix::zeros(19, 21);
    for a in [&dense, &sparse] {
        assert_gemm_plan_matches_naive(&arch, a, 11, &mut rng, "gemm density extremes");
    }
}

#[test]
fn spmm_plans_handle_fully_sparse_and_degenerate_inputs() {
    let arch = GpuArch::v100();
    let zeros = DenseMatrix::zeros(8, 8);
    let b = DenseMatrix::from_fn(8, 3, |r, c| (r + 2 * c) as f32 * 0.25);
    let identity: Vec<u32> = (0..8).collect();

    // Fully sparse operands across every plan family.
    let vw = VectorWiseMatrix::from_dense(&zeros, 4).unwrap();
    let prepared = SpmmPlan::vector_wise(&arch, &vw, 3)
        .execute(&b)
        .unwrap()
        .output;
    assert_bits_eq(
        &prepared,
        &reference::stitched_spmm_naive(&arch, &vw, &b, &identity),
        "vw all-sparse",
    );

    let bsr = BlockSparseMatrix::from_dense(&zeros, 4).unwrap();
    let prepared = SpmmPlan::block_wise(&arch, &bsr, 3)
        .execute(&b)
        .unwrap()
        .output;
    assert_bits_eq(
        &prepared,
        &reference::block_spmm_naive(&arch, &bsr, &b),
        "block all-sparse",
    );

    let csr = CsrMatrix::from_dense(&zeros);
    let prepared = SpmmPlan::cuda_core(&arch, &csr, 3)
        .execute(&b)
        .unwrap()
        .output;
    assert_bits_eq(
        &prepared,
        &reference::csr_spmm_naive(&csr, &b),
        "csr all-sparse",
    );

    // One all-zero group under a non-identity permutation: its stored rows
    // scatter to output rows `perm[4..8]`, which must stay exactly zero.
    let mut rng = StdRng::seed_from_u64(31);
    let (m, k, v) = (16, 12, 4);
    let perm = random_permutation(&mut rng, m);
    assert!(perm.iter().enumerate().any(|(i, &p)| i != p));
    let zero_rows = &perm[v..2 * v];
    let dense_a = DenseMatrix::from_fn(m, k, |r, c| {
        if zero_rows.contains(&r) {
            0.0
        } else {
            0.05 + ((r * 13 + c * 7) % 17) as f32 * 0.1
        }
    });
    let shfl = ShflBwMatrix::from_dense_with_permutation(&dense_a, &perm, v).unwrap();
    let b4 = DenseMatrix::random(&mut rng, k, 5);
    let prepared = SpmmPlan::shfl_bw(&arch, &shfl, 5)
        .execute(&b4)
        .unwrap()
        .output;
    assert_bits_eq(
        &prepared,
        &reference::stitched_spmm_naive(&arch, shfl.vector_wise(), &b4, shfl.row_indices()),
        "shfl-bw all-zero group",
    );
    for &r in zero_rows {
        assert!(
            prepared.row(r).iter().all(|x| x.to_bits() == 0),
            "output row {r} of the all-zero group is {:?}",
            prepared.row(r)
        );
    }

    // Single-row operand against a single-column activation (V = 1).
    let row = DenseMatrix::random(&mut rng, 1, 9);
    let b1 = DenseMatrix::random(&mut rng, 9, 1);
    let shfl = ShflBwMatrix::from_dense_with_permutation(&row, &[0], 1).unwrap();
    let prepared = SpmmPlan::shfl_bw(&arch, &shfl, 1)
        .execute(&b1)
        .unwrap()
        .output;
    assert_bits_eq(
        &prepared,
        &reference::stitched_spmm_naive(&arch, shfl.vector_wise(), &b1, shfl.row_indices()),
        "shfl-bw 1x9x1",
    );

    // Zero-width activations.
    let wide = DenseMatrix::random(&mut rng, 8, 8);
    let vw = VectorWiseMatrix::from_dense(&wide, 4).unwrap();
    let empty_b = DenseMatrix::zeros(8, 0);
    let out = SpmmPlan::vector_wise(&arch, &vw, 0)
        .execute(&empty_b)
        .unwrap()
        .output;
    assert_eq!(out.shape(), (8, 0));
}

#[test]
fn repeated_executes_of_one_plan_are_stable() {
    // The same plan, executed twice with the *same* activations, must return
    // bitwise-identical outputs (the reusable scratch must not leak state),
    // and interleaving different activations must not perturb results.
    let arch = GpuArch::t4();
    let mut rng = StdRng::seed_from_u64(41);
    let dense_a = DenseMatrix::from_fn(16, 24, |r, c| {
        if (c + r / 4) % 3 == 0 {
            rng.gen_range(-1.0f32..1.0)
        } else {
            0.0
        }
    });
    let shfl =
        ShflBwMatrix::from_dense_with_permutation(&dense_a, &(0..16).rev().collect::<Vec<_>>(), 4)
            .unwrap();
    let plan = SpmmPlan::shfl_bw(&arch, &shfl, 8);
    let b1 = DenseMatrix::random(&mut rng, 24, 8);
    let b2 = DenseMatrix::random(&mut rng, 24, 8);
    let first = plan.execute(&b1).unwrap().output;
    let other = plan.execute(&b2).unwrap().output;
    let again = plan.execute(&b1).unwrap().output;
    assert_bits_eq(&first, &again, "same-activations replay");
    assert_bits_eq(
        &other,
        &reference::stitched_spmm_naive(&arch, shfl.vector_wise(), &b2, shfl.row_indices()),
        "interleaved activations",
    );
}

/// A Shfl-BW plan whose `V` is not a multiple of the sweep's 4-row register
/// tile (each 6-row group is one tile plus two single rows) matches the
/// naive oracle at every execute width from 1 to 33, so at every remainder
/// the sweep's last (masked) step covers after the 16-, 8- and 4-column
/// tiles.
#[test]
fn shfl_bw_plan_with_remainder_rows_matches_naive_at_tile_edges() {
    let arch = GpuArch::t4();
    let mut rng = StdRng::seed_from_u64(67);
    let (m, k, v) = (18, 40, 6);
    let dense_a = random_sparse(&mut rng, m, k, 0.4);
    let perm: Vec<usize> = (0..m).map(|r| (r * 7) % m).collect();
    let shfl = ShflBwMatrix::from_dense_with_permutation(&dense_a, &perm, v).unwrap();
    let oracle = |b: &DenseMatrix| {
        reference::stitched_spmm_naive(&arch, shfl.vector_wise(), b, shfl.row_indices())
    };

    for n in 1usize..=33 {
        let b = DenseMatrix::random(&mut rng, k, n);
        let prepared = SpmmPlan::shfl_bw(&arch, &shfl, n)
            .execute(&b)
            .unwrap()
            .output;
        assert_bits_eq(&prepared, &oracle(&b), &format!("V={v} width {n}"));
    }
}
