//! Helpers shared by the two plan-vs-naive suites: `blocked_vs_naive.rs`
//! (a plan built for one call and executed once) and `plan_prepared.rs` (one
//! plan executed repeatedly).

use gpu_sim::GpuArch;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use shfl_core::formats::ShflBwMatrix;
use shfl_core::matrix::DenseMatrix;
use shfl_kernels::{conv, reference};

/// Asserts two matrices are identical down to the bit pattern of every element.
pub fn assert_bits_eq(plan: &DenseMatrix, oracle: &DenseMatrix, what: &str) {
    assert_eq!(plan.shape(), oracle.shape(), "{what}: shape mismatch");
    for (idx, (x, y)) in plan
        .as_slice()
        .iter()
        .zip(oracle.as_slice().iter())
        .enumerate()
    {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {idx} differs: plan {x} vs oracle {y}"
        );
    }
}

pub fn random_sparse(rng: &mut StdRng, m: usize, k: usize, density: f64) -> DenseMatrix {
    DenseMatrix::from_fn(m, k, |_, _| {
        if rng.gen_bool(density) {
            rng.gen_range(-1.0f32..1.0)
        } else {
            0.0
        }
    })
}

/// A random permutation of `0..m`.
pub fn random_permutation(rng: &mut StdRng, m: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..m).collect();
    perm.shuffle(rng);
    perm
}

/// A random `m × k` matrix (`k` a multiple of four) pruned 2:4: the two
/// largest magnitudes of every group of four are kept.
pub fn prune_two_in_four(rng: &mut StdRng, m: usize, k: usize) -> DenseMatrix {
    let dense = DenseMatrix::random(rng, m, k);
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
    pruned
}

/// The naive Shfl-BW convolution chain: `im2col_naive`, then the naive
/// stitched SpMM, each output column scattered back to its NCHW position.
pub fn shfl_conv_naive(
    arch: &GpuArch,
    weights: &ShflBwMatrix,
    input: &conv::Tensor4,
    params: &conv::Conv2dParams,
) -> conv::Tensor4 {
    let unfolded = reference::im2col_naive(input, params);
    let flat = reference::stitched_spmm_naive(
        arch,
        weights.vector_wise(),
        &unfolded,
        weights.row_indices(),
    );
    let (oh, ow) = (params.output_h(), params.output_w());
    let mut packed = conv::Tensor4::zeros(params.batch, params.out_channels, oh, ow);
    for o in 0..params.out_channels {
        for b in 0..params.batch {
            for y in 0..oh {
                for x in 0..ow {
                    packed.set(b, o, y, x, flat.get(o, (b * oh + y) * ow + x));
                }
            }
        }
    }
    packed
}
