//! # shfl-core — data structures for the Shfl-BW reproduction
//!
//! This crate implements the data-structure side of *"Shfl-BW: Accelerating Deep
//! Neural Network Inference with Tensor-Core Aware Weight Pruning"* (DAC 2022):
//!
//! * [`matrix::DenseMatrix`] and [`mask::BinaryMask`] — the dense weight matrices the
//!   pruning algorithms operate on and the keep/prune masks they produce,
//! * [`pattern::SparsePattern`] — the five sparsity-pattern families the paper
//!   compares (unstructured, block-wise, vector-wise, balanced N:M and Shfl-BW), with
//!   structural validators for each,
//! * [`formats`] — one lossless compressed format per pattern, including the paper's
//!   [`formats::ShflBwMatrix`] (vector-wise storage in shuffled row order plus the
//!   original row indices used by the reordered write-back),
//! * [`analysis`] — the §3.2 flexibility (candidate counting) and computation
//!   efficiency (operation intensity / data reuse) analysis,
//! * [`packed`] — [`packed::PackedPanels`], the one-time fp16-rounded,
//!   tile-transposed weight packing consumed by the prepared kernel plans in
//!   `shfl-kernels` (the plan/execute split's static operand),
//! * [`tiling`] — threadblock tile configurations shared with the simulated kernels,
//! * [`f16`](mod@f16) — the software fp16 rounding shared by the MMA model and the
//!   [`matrix::DenseMatrix::as_f16_rounded`] whole-matrix pre-pass,
//! * [`parallel`] — the fork-join chunk helper the blocked kernels use to spread
//!   output row-tiles across cores (gated on the default `parallel` feature).
//!
//! ## Example: compress a Shfl-BW matrix and inspect its structure
//!
//! ```
//! use shfl_core::matrix::DenseMatrix;
//! use shfl_core::formats::ShflBwMatrix;
//!
//! # fn main() -> Result<(), shfl_core::error::Error> {
//! // Rows 0/2 share one column pattern, rows 1/3 another — a Shfl-BW structure with
//! // V = 2 even though equal rows are not adjacent.
//! let dense = DenseMatrix::from_fn(4, 6, |r, c| {
//!     let keep = if r % 2 == 0 { c == 0 || c == 3 } else { c == 1 || c == 5 };
//!     if keep { 1.0 + (r * 6 + c) as f32 } else { 0.0 }
//! });
//! let shfl = ShflBwMatrix::from_dense(&dense, 2)?;
//! assert_eq!(shfl.num_groups(), 2);
//! assert_eq!(shfl.to_dense(), dense);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod analysis;
pub mod bucket;
pub mod error;
pub mod f16;
pub mod formats;
pub mod mask;
pub mod matrix;
pub mod packed;
pub mod parallel;
pub mod pattern;
pub mod slo;
pub mod tiling;

pub use bucket::BucketPolicy;
pub use error::{Error, Result};
pub use formats::{BalancedMatrix, BlockSparseMatrix, CsrMatrix, ShflBwMatrix, VectorWiseMatrix};
pub use mask::BinaryMask;
pub use matrix::DenseMatrix;
pub use packed::PackedPanels;
pub use pattern::SparsePattern;
pub use slo::{SloClass, SloKind};
pub use tiling::TileConfig;

/// Commonly used items, re-exported for glob import in examples and tests.
pub mod prelude {
    pub use crate::analysis::{compare_patterns, ln_candidate_structures, max_reuse};
    pub use crate::bucket::BucketPolicy;
    pub use crate::error::{Error, Result};
    pub use crate::formats::{
        BalancedMatrix, BlockSparseMatrix, CsrMatrix, ShflBwMatrix, VectorWiseMatrix,
    };
    pub use crate::mask::BinaryMask;
    pub use crate::matrix::DenseMatrix;
    pub use crate::packed::PackedPanels;
    pub use crate::pattern::SparsePattern;
    pub use crate::slo::{SloClass, SloKind};
    pub use crate::tiling::TileConfig;
}
