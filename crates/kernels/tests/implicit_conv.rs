//! Property tests: the implicit-GEMM conv plan is **bit-identical** to the
//! im2col oracle — the materialised unfolding on an exact-width stitched SpMM
//! plan — across stride / padding / dilation / kernel geometries, including
//! 1×1 (merged-row sweep), non-square inputs, non-square kernels, batches
//! large enough to execute image-parallel, and non-finite inputs.

use gpu_sim::GpuArch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shfl_core::formats::ShflBwMatrix;
use shfl_core::matrix::DenseMatrix;
use shfl_kernels::conv::{self, Conv2dParams, Tensor4};
use shfl_kernels::conv_plan::ImplicitConvPlan;
use shfl_kernels::plan::SpmmPlan;

fn shfl_weights(rng: &mut StdRng, m: usize, k: usize, v: usize, density: f64) -> ShflBwMatrix {
    let groups = m / v;
    let keep: Vec<bool> = (0..groups * k).map(|_| rng.gen_bool(density)).collect();
    let dense = DenseMatrix::from_fn(m, k, |r, c| {
        if keep[(r % groups) * k + c] {
            rng.gen_range(-1.0f32..1.0)
        } else {
            0.0
        }
    });
    ShflBwMatrix::from_dense(&dense, v).unwrap()
}

/// Random `V = 4` weights at `density` and a random input, checked by
/// [`assert_bit_identical`].
fn assert_random_case_bit_identical(p: &Conv2dParams, density: f64, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (m, _, k) = p.implicit_gemm_shape();
    let weights = shfl_weights(&mut rng, m, k, 4, density);
    let input = Tensor4::random(&mut rng, p.batch, p.in_channels, p.input_h, p.input_w);
    assert_bit_identical(p, &weights, &input);
}

fn assert_bit_identical(p: &Conv2dParams, weights: &ShflBwMatrix, input: &Tensor4) {
    let (m, _, _) = p.implicit_gemm_shape();
    let arch = GpuArch::a100();

    let implicit = ImplicitConvPlan::build(&arch, weights, p)
        .unwrap_or_else(|e| panic!("build failed for {p:?}: {e}"));
    let unfolded = conv::im2col(input, p);
    let spmm = SpmmPlan::shfl_bw(&arch, weights, unfolded.cols());
    let flat = spmm.execute(&unfolded).unwrap().output;
    conv::reclaim_unfolded(unfolded);

    let (got, _) = implicit.execute(input).unwrap();
    let want = conv::col2im_output(&flat, p);
    assert_eq!(got.shape(), want.shape(), "shape for {p:?}");
    for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "element {i} differs for {p:?}: implicit {a} vs oracle {b}"
        );
    }

    // The flattened output matches the raw stitched-SpMM sweep over the
    // materialised im2col operand, element for element.
    let matrix = implicit.execute_matrix(input).unwrap();
    for row in 0..m {
        for (a, b) in matrix.row(row).iter().zip(flat.row(row)) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "matrix row {row} differs for {p:?}"
            );
        }
    }
}

#[test]
fn implicit_conv_matches_oracle_across_stride_padding_dilation() {
    let mut seed = 100;
    for stride in [1, 2, 3] {
        for padding in [0, 1, 2] {
            for dilation in [1, 2] {
                let p = Conv2dParams {
                    batch: 2,
                    in_channels: 4,
                    out_channels: 8,
                    input_h: 11,
                    input_w: 9, // non-square feature map
                    kernel_h: 3,
                    kernel_w: 3,
                    stride,
                    padding,
                    dilation,
                };
                seed += 1;
                assert_random_case_bit_identical(&p, 0.4, seed);
            }
        }
    }
}

#[test]
fn implicit_conv_matches_oracle_for_1x1_and_non_square_kernels() {
    // 1×1 stride-1 exercises the merged plane-wide row sweep; 1×3 / 3×1 the
    // non-square tap tables; 1×1 stride-2 the non-merged strided transform.
    let cases = [
        (1, 1, 1, 0, 1),
        (1, 1, 1, 1, 1), // 1×1 with padding: output wider than the input
        (1, 1, 2, 0, 1),
        (1, 3, 1, 1, 1),
        (3, 1, 1, 1, 1),
        (1, 3, 2, 1, 2),
    ];
    for (i, (kh, kw, stride, padding, dilation)) in cases.into_iter().enumerate() {
        let p = Conv2dParams {
            batch: 2,
            in_channels: 8,
            out_channels: 8,
            input_h: 7,
            input_w: 12,
            kernel_h: kh,
            kernel_w: kw,
            stride,
            padding,
            dilation,
        };
        assert_random_case_bit_identical(&p, 0.5, 200 + i as u64);
    }
}

#[test]
fn implicit_conv_matches_oracle_when_images_fan_out() {
    // Sized past the fan-out threshold, so execute splits the images over
    // worker threads: batch 3 splits unevenly over two workers, batch 5 runs
    // a merged gap-free 1×1, and the stride-2 map (OW = 7) sweeps 7-wide
    // per-row blocks that end in the sweep's last (masked) step, with
    // operand spans inside each image's own slab. The batch-1 maps are
    // large enough that their channel planes are staged in parallel (a
    // padded 3×3 and a gap-free 1×1).
    let cases = [
        (3, 16, 12, 3, 1, 1),
        (5, 64, 10, 1, 1, 0),
        (2, 32, 14, 3, 2, 1),
        (1, 32, 64, 3, 1, 1),
        (1, 64, 48, 1, 1, 0),
    ];
    for (i, (batch, in_channels, hw, kernel, stride, padding)) in cases.into_iter().enumerate() {
        let p = Conv2dParams {
            batch,
            in_channels,
            out_channels: 16,
            input_h: hw,
            input_w: hw,
            kernel_h: kernel,
            kernel_w: kernel,
            stride,
            padding,
            dilation: 1,
        };
        assert_random_case_bit_identical(&p, 0.5, 400 + i as u64);
    }
}

#[test]
fn implicit_conv_matches_oracle_on_batch_one_and_sparse_groups() {
    // Low density leaves some groups entirely empty (their output rows must
    // still be exact zeros), and batch 1 exercises the single-image base math.
    let p = Conv2dParams {
        batch: 1,
        in_channels: 8,
        out_channels: 16,
        input_h: 6,
        input_w: 14,
        kernel_h: 3,
        kernel_w: 3,
        stride: 2,
        padding: 1,
        dilation: 1,
    };
    assert_random_case_bit_identical(&p, 0.08, 300);
}

#[test]
fn implicit_conv_keeps_non_finite_inputs_out_of_groups_that_skip_them() {
    // A 1×1 conv whose first group (output rows 0..4) keeps only channels 1
    // and 2 — a two-tap panel — while the input holds +inf and NaN in
    // channel 0, which only the second group reads. The first group's
    // outputs must stay finite and every output must match the oracle.
    let p = Conv2dParams {
        batch: 2,
        in_channels: 8,
        out_channels: 8,
        input_h: 4,
        input_w: 4,
        kernel_h: 1,
        kernel_w: 1,
        stride: 1,
        padding: 0,
        dilation: 1,
    };
    let dense = DenseMatrix::from_fn(8, 8, |r, c| {
        let kept = if r < 4 { c == 1 || c == 2 } else { c % 2 == 0 };
        if kept {
            0.125 * (r + c + 1) as f32
        } else {
            0.0
        }
    });
    let weights =
        ShflBwMatrix::from_dense_with_permutation(&dense, &(0..8).collect::<Vec<_>>(), 4).unwrap();
    let mut rng = StdRng::seed_from_u64(500);
    let mut input = Tensor4::random(&mut rng, p.batch, p.in_channels, p.input_h, p.input_w);
    input.set(0, 0, 0, 0, f32::INFINITY);
    input.set(1, 0, 2, 3, f32::NAN);
    assert_bit_identical(&p, &weights, &input);
    let (out, _) = ImplicitConvPlan::build(&GpuArch::a100(), &weights, &p)
        .unwrap()
        .execute(&input)
        .unwrap();
    for b in 0..p.batch {
        for o in 0..4 {
            for y in 0..p.input_h {
                for x in 0..p.input_w {
                    assert!(
                        out.get(b, o, y, x).is_finite(),
                        "output ({b}, {o}, {y}, {x})"
                    );
                }
            }
        }
    }
}
