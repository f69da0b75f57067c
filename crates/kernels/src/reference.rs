//! Naive golden-reference implementations of every functional kernel.
//!
//! These are the original scalar execution paths the prepared plans replaced:
//! fragments staged one element at a time through bounds-checked
//! [`DenseMatrix::get`]/[`DenseMatrix::set`], activations gathered per element,
//! no pre-rounding, no threading. They are retained verbatim for two reasons:
//!
//! * **correctness** — the property tests assert the plans and the cold
//!   `*_execute` kernels built on them are *bit-identical* to these
//!   references on every shape (both sides accumulate each output element in
//!   ascending-`k` order through the same fp16-rounded operands, so exact
//!   equality is the contract, not a tolerance), and
//! * **performance tracking** — `repro --bench-kernels` times each reference
//!   against its cold and prepared counterparts in the same run and records
//!   the speedup in `BENCH_kernels.json`, giving every future PR a
//!   wall-clock trajectory.
//!
//! Nothing here should be called from production paths; use the `*_execute`
//! kernels instead.

// The loops below are kept verbatim from the original kernels (including their
// index-based style) so the references stay word-for-word the code they were.
#![allow(clippy::needless_range_loop)]

use crate::conv::{Conv2dParams, Tensor4};
use gpu_sim::mma::{warp_mma, MmaShape};
use gpu_sim::GpuArch;
use shfl_core::formats::{BalancedMatrix, BlockSparseMatrix, CsrMatrix, VectorWiseMatrix};
use shfl_core::matrix::DenseMatrix;
use shfl_core::tiling;

/// Naive fragment GEMM: sweeps MMA fragments over the operands, staging each
/// fragment element by element (zero-padded at the boundary) and rounding
/// operands inside [`warp_mma`]. The oracle of [`crate::plan::GemmPlan`].
pub fn fragment_matmul_naive(shape: MmaShape, a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let (m, k) = a.shape();
    let n = b.cols();
    let (fm, fn_, fk) = (shape.m(), shape.n(), shape.k());
    let mut c = DenseMatrix::zeros(m, n);

    let mut a_frag = vec![0.0f32; fm * fk];
    let mut b_frag = vec![0.0f32; fk * fn_];
    let mut c_frag = vec![0.0f32; fm * fn_];

    for i0 in (0..m).step_by(fm) {
        for j0 in (0..n).step_by(fn_) {
            c_frag.iter_mut().for_each(|x| *x = 0.0);
            for p0 in (0..k).step_by(fk) {
                // Stage operand fragments (zero-padded at the boundary).
                for i in 0..fm {
                    for p in 0..fk {
                        a_frag[i * fk + p] = if i0 + i < m && p0 + p < k {
                            a.get(i0 + i, p0 + p)
                        } else {
                            0.0
                        };
                    }
                }
                for p in 0..fk {
                    for j in 0..fn_ {
                        b_frag[p * fn_ + j] = if p0 + p < k && j0 + j < n {
                            b.get(p0 + p, j0 + j)
                        } else {
                            0.0
                        };
                    }
                }
                warp_mma(shape, &a_frag, &b_frag, &mut c_frag, true);
            }
            for i in 0..fm {
                for j in 0..fn_ {
                    if i0 + i < m && j0 + j < n {
                        c.set(i0 + i, j0 + j, c_frag[i * fn_ + j]);
                    }
                }
            }
        }
    }
    c
}

/// Naive stitched SpMM shared by the vector-wise and Shfl-BW references:
/// per-element tile staging through `DenseMatrix::from_fn`, naive fragment GEMM
/// per step, scalar accumulation. `row_indices[stored_row]` gives the output row
/// each stored row is written to (the reordered write-back); the identity
/// permutation reproduces plain vector-wise behaviour.
pub fn stitched_spmm_naive(
    arch: &GpuArch,
    a: &VectorWiseMatrix,
    b: &DenseMatrix,
    row_indices: &[u32],
) -> DenseMatrix {
    let v = a.vector_size();
    let n = b.cols();
    let tile = tiling::select_vector_wise_tile(v, n);
    let tk = tile.tk;
    let mut output = DenseMatrix::zeros(a.rows(), n);

    for g in 0..a.num_groups() {
        let cols = a.group_cols(g);
        if cols.is_empty() {
            continue;
        }
        // Accumulator for the whole group (V × N); a real kernel would tile N, which
        // does not change the arithmetic.
        let mut acc = DenseMatrix::zeros(v, n);
        for step_start in (0..cols.len()).step_by(tk) {
            let step_cols = &cols[step_start..(step_start + tk).min(cols.len())];
            // In-buffer stitching: build the dense V×tk weight tile from the stored
            // vectors and the tk×N activation tile from the rows the metadata points
            // at (padding the last partial step with zeros).
            let a_tile = DenseMatrix::from_fn(v, tk, |r, j| {
                if j < step_cols.len() {
                    a.vector_values(g, step_start + j)[r]
                } else {
                    0.0
                }
            });
            let b_tile = DenseMatrix::from_fn(tk, n, |j, c| {
                if j < step_cols.len() {
                    b.get(step_cols[j] as usize, c)
                } else {
                    0.0
                }
            });
            let partial = fragment_matmul_naive(arch.mma_shape, &a_tile, &b_tile);
            for r in 0..v {
                let acc_row = acc.row_mut(r);
                for c in 0..n {
                    acc_row[c] += partial.get(r, c);
                }
            }
        }
        // (Reordered) write-back: stored row g*v + r goes to output row
        // row_indices[g*v + r].
        for r in 0..v {
            let dst = row_indices[g * v + r] as usize;
            output.row_mut(dst).copy_from_slice(acc.row(r));
        }
    }
    output
}

/// Naive CUDA-core CSR SpMM: one scalar AXPY per stored non-zero, sequential
/// over output rows.
pub fn csr_spmm_naive(a: &CsrMatrix, b: &DenseMatrix) -> DenseMatrix {
    let n = b.cols();
    let mut output = DenseMatrix::zeros(a.rows(), n);
    for row in 0..a.rows() {
        let (cols, vals) = a.row_entries(row);
        for (col, value) in cols.iter().zip(vals.iter()) {
            let b_row = b.row(*col as usize);
            let out_row = output.row_mut(row);
            for j in 0..n {
                out_row[j] += value * b_row[j];
            }
        }
    }
    output
}

/// Naive block-wise SpMM: every stored block is lifted into a fresh
/// `DenseMatrix`, its activation slice gathered per element, and the naive
/// fragment GEMM accumulated scalar by scalar.
pub fn block_spmm_naive(arch: &GpuArch, a: &BlockSparseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let n = b.cols();
    let v = a.block_size();
    let mut output = DenseMatrix::zeros(a.rows(), n);
    for br in 0..a.block_rows() {
        for (i, bc) in a.blocks_in_row(br).iter().enumerate() {
            let block = a.block_values(br, i);
            // Dense V×V block times the V×n slice of B starting at row bc*V.
            let block_matrix =
                DenseMatrix::from_vec(v, v, block.to_vec()).expect("block is V*V values");
            let b_slice = DenseMatrix::from_fn(v, n, |r, c| b.get(*bc as usize * v + r, c));
            let partial = fragment_matmul_naive(arch.mma_shape, &block_matrix, &b_slice);
            for r in 0..v {
                let out_row = output.row_mut(br * v + r);
                for c in 0..n {
                    out_row[c] += partial.get(r, c);
                }
            }
        }
    }
    output
}

/// Naive balanced 2:4 SpMM: decompress and run the naive fragment GEMM.
pub fn balanced_spmm_naive(arch: &GpuArch, a: &BalancedMatrix, b: &DenseMatrix) -> DenseMatrix {
    fragment_matmul_naive(arch.mma_shape, &a.to_dense(), b)
}

/// Naive im2col: evaluates the gather closure once per output element, exactly
/// the original implementation.
pub fn im2col_naive(input: &Tensor4, params: &Conv2dParams) -> DenseMatrix {
    let (_, n, k) = {
        let (m, n, k) = params.implicit_gemm_shape();
        (m, n, k)
    };
    let (oh, ow) = (params.output_h(), params.output_w());
    DenseMatrix::from_fn(k, n, |row, col| {
        // row = (c * R + r) * S + s ; col = (b * OH + y) * OW + x
        let s = row % params.kernel_w;
        let r = (row / params.kernel_w) % params.kernel_h;
        let c = row / (params.kernel_w * params.kernel_h);
        let x = col % ow;
        let y = (col / ow) % oh;
        let b = col / (ow * oh);
        let in_y = (y * params.stride + r) as isize - params.padding as isize;
        let in_x = (x * params.stride + s) as isize - params.padding as isize;
        if in_y < 0
            || in_x < 0
            || in_y as usize >= params.input_h
            || in_x as usize >= params.input_w
        {
            0.0
        } else {
            input.get(b, c, in_y as usize, in_x as usize)
        }
    })
}

/// Naive dense implicit-GEMM convolution: naive im2col, naive fragment GEMM,
/// element-wise output packing.
pub fn conv2d_dense_naive(
    arch: &GpuArch,
    weights: &DenseMatrix,
    input: &Tensor4,
    params: &Conv2dParams,
) -> Tensor4 {
    let unfolded = im2col_naive(input, params);
    let out = fragment_matmul_naive(arch.mma_shape, weights, &unfolded);
    let (oh, ow) = (params.output_h(), params.output_w());
    let mut t = Tensor4::zeros(params.batch, params.out_channels, oh, ow);
    for o in 0..params.out_channels {
        for b in 0..params.batch {
            for y in 0..oh {
                for x in 0..ow {
                    let col = (b * oh + y) * ow + x;
                    t.set(b, o, y, x, out.get(o, col));
                }
            }
        }
    }
    t
}
