//! Sparse matrix × dense matrix (SpMM) kernels, one per sparsity pattern.
//!
//! All kernels compute `C[M×N] = A[M×K] · B[K×N]` where `A` is the pruned weight
//! matrix in its pattern-specific compressed format and `B` is the dense activation
//! matrix (row-major, batch innermost as discussed in §4.3 of the paper).

pub mod balanced;
pub mod block_wise;
pub mod cuda_core;
pub mod shfl_bw;
pub mod vector_wise;

pub use balanced::balanced_spmm_profile;
pub use block_wise::block_wise_spmm_profile;
pub use cuda_core::{cuda_core_spmm_profile, cusparse_csr_spmm_profile};
pub use shfl_bw::{shfl_bw_spmm_profile, shfl_bw_spmm_profile_with, ShflBwKernelConfig};
pub use vector_wise::{vector_wise_spmm_profile, VectorWiseKernelConfig};
