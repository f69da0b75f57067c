//! Synthetic pattern-conforming weight generators.
//!
//! The kernel-speed experiments (Figures 1 and 6, the ablations) only need weight
//! matrices with the right *structure* and density — the actual values do not affect
//! the analytical profiles. These generators build such matrices directly, which is
//! much cheaper than running the full pruning search for every (layer, sparsity,
//! pattern) combination.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use shfl_core::formats::{
    BalancedMatrix, BlockSparseMatrix, CsrMatrix, ShflBwMatrix, VectorWiseMatrix,
};
use shfl_core::matrix::DenseMatrix;

/// Rounds a dimension up to a multiple of `v` so every pattern granularity divides it.
/// The paper's layer shapes are already multiples of 32/64/128; this guards odd shapes
/// like the ResNet stem.
pub fn pad_to_multiple(dim: usize, v: usize) -> usize {
    dim.div_ceil(v) * v
}

/// A dense matrix with unstructured random sparsity at the given density.
pub fn unstructured_dense(seed: u64, m: usize, k: usize, density: f64) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    DenseMatrix::from_fn(m, k, |_, _| {
        if rng.gen_bool(density.clamp(0.0, 1.0)) {
            rng.gen_range(-1.0f32..1.0)
        } else {
            0.0
        }
    })
}

/// A CSR matrix with unstructured random sparsity.
pub fn unstructured_csr(seed: u64, m: usize, k: usize, density: f64) -> CsrMatrix {
    CsrMatrix::from_dense(&unstructured_dense(seed, m, k, density))
}

/// A dense matrix with vector-wise structure (each group of `v` rows keeps the same
/// random subset of columns at the given density).
pub fn vector_wise_dense(seed: u64, m: usize, k: usize, v: usize, density: f64) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = pad_to_multiple(m, v);
    let groups = m / v;
    let keep: Vec<Vec<bool>> = (0..groups)
        .map(|_| {
            (0..k)
                .map(|_| rng.gen_bool(density.clamp(0.0, 1.0)))
                .collect()
        })
        .collect();
    DenseMatrix::from_fn(m, k, |r, c| {
        if keep[r / v][c] {
            rng.gen_range(-1.0f32..1.0)
        } else {
            0.0
        }
    })
}

/// A vector-wise matrix with the given structure parameters.
pub fn vector_wise_matrix(
    seed: u64,
    m: usize,
    k: usize,
    v: usize,
    density: f64,
) -> VectorWiseMatrix {
    VectorWiseMatrix::from_dense(&vector_wise_dense(seed, m, k, v, density), v)
        .expect("padded dimensions divide v")
}

/// A Shfl-BW matrix with the given structure parameters: the vector-wise
/// matrix of [`vector_wise_matrix`] with its rows scattered by a seeded random
/// permutation, so a plan of it runs the shuffled write-back. The modeled
/// kernel cost does not depend on which rows form a group, only on the group
/// structure and the row-index metadata.
pub fn shfl_bw_matrix(seed: u64, m: usize, k: usize, v: usize, density: f64) -> ShflBwMatrix {
    let vw = vector_wise_matrix(seed, m, k, v, density);
    let mut row_indices: Vec<u32> = (0..vw.rows() as u32).collect();
    row_indices.shuffle(&mut StdRng::seed_from_u64(seed));
    ShflBwMatrix::from_vector_wise(vw, row_indices).expect("a permutation of the rows")
}

/// A block-sparse matrix with random `v×v` blocks kept at the given density.
pub fn block_wise_matrix(
    seed: u64,
    m: usize,
    k: usize,
    v: usize,
    density: f64,
) -> BlockSparseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = pad_to_multiple(m, v);
    let k = pad_to_multiple(k, v);
    let block_cols = k / v;
    let keep: Vec<bool> = (0..(m / v) * block_cols)
        .map(|_| rng.gen_bool(density.clamp(0.0, 1.0)))
        .collect();
    let dense = DenseMatrix::from_fn(m, k, |r, c| {
        if keep[(r / v) * block_cols + c / v] {
            rng.gen_range(-1.0f32..1.0)
        } else {
            0.0
        }
    });
    BlockSparseMatrix::from_dense(&dense, v).expect("padded dimensions divide v")
}

/// A 2:4 balanced matrix (50% density).
pub fn balanced_matrix(seed: u64, m: usize, k: usize) -> BalancedMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let k = pad_to_multiple(k, 4);
    let dense = DenseMatrix::from_fn(m, k, |_, c| {
        // Keep two fixed-but-rotating positions per group of four.
        let pos = c % 4;
        let rot = (c / 4) % 3;
        if pos == rot || pos == (rot + 2) % 4 {
            rng.gen_range(-1.0f32..1.0)
        } else {
            0.0
        }
    });
    BalancedMatrix::from_dense(&dense, 2, 4).expect("structure is 2:4 by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_hit_the_requested_density() {
        let csr = unstructured_csr(1, 256, 256, 0.25);
        assert!((csr.density() - 0.25).abs() < 0.05);
        let vw = vector_wise_matrix(2, 256, 256, 32, 0.25);
        assert!((vw.density() - 0.25).abs() < 0.08);
        let bw = block_wise_matrix(3, 256, 256, 32, 0.25);
        assert!((bw.density() - 0.25).abs() < 0.15);
        let bal = balanced_matrix(4, 64, 64);
        assert!((bal.storage_density() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn padding_rounds_up() {
        assert_eq!(pad_to_multiple(100, 32), 128);
        assert_eq!(pad_to_multiple(128, 32), 128);
    }

    #[test]
    fn shfl_matrix_has_row_index_metadata() {
        let shfl = shfl_bw_matrix(5, 128, 128, 32, 0.25);
        assert_eq!(shfl.row_indices().len(), 128);
        assert_eq!(shfl.vector_size(), 32);
        // The rows are shuffled, so a plan of it runs the scattered write-back.
        assert!(shfl
            .row_indices()
            .iter()
            .enumerate()
            .any(|(i, &r)| r as usize != i));
    }
}
