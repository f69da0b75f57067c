//! Quickstart: prune a weight matrix into the Shfl-BW pattern, compress it, build
//! and run a simulated Shfl-BW SpMM plan, and compare its estimated time against the
//! dense tensor-core baseline on all three GPUs the paper evaluates.
//!
//! Run with: `cargo run --release --example quickstart`

use rand::rngs::StdRng;
use rand::SeedableRng;
use shfl_bw_repro::prelude::*;
use shfl_kernels::gemm::dense_gemm_profile;
use shfl_kernels::spmm::shfl_bw::shfl_bw_spmm_profile;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A linear layer: 1024 output features, 1024 input features, 256 tokens.
    let (m, k, n) = (1024usize, 1024usize, 256usize);
    let sparsity = 0.75;
    let v = 32;

    let mut rng = StdRng::seed_from_u64(42);
    let weights = DenseMatrix::random(&mut rng, m, k);
    let activations = DenseMatrix::random(&mut rng, k, n);

    // 1. Search the Shfl-BW pattern (Figure 5 of the paper): relaxed unstructured
    //    pre-pruning, K-Means row grouping, vector-wise pruning, reverse shuffle.
    let pruner = ShflBwPruner::new(v);
    let result = pruner.prune_with_permutation(&weights.abs(), 1.0 - sparsity)?;
    println!(
        "pruned to {:.1}% density, retained importance score {:.1}",
        result.mask.density() * 100.0,
        result.retained_score
    );

    // 2. Compress into the Shfl-BW format using the discovered row grouping.
    let pruned_weights = result.mask.apply(&weights)?;
    let sparse =
        ShflBwMatrix::from_dense_with_permutation(&pruned_weights, &result.permutation, v)?;
    println!(
        "compressed: {} vectors across {} shuffled groups, {} bytes of metadata",
        sparse.stored_vectors(),
        sparse.num_groups(),
        sparse.metadata_bytes()
    );

    // 3. Functional check on one GPU: plan each kernel once, then execute it. The
    //    sparse output matches the dense GEMM applied to the pruned weights.
    let v100 = GpuArch::v100();
    let dense_out = SpmmPlan::dense(&v100, &pruned_weights, n).execute(&activations)?;
    let sparse_out = SpmmPlan::shfl_bw(&v100, &sparse, n).execute(&activations)?;
    let max_diff = sparse_out.output.max_abs_diff(&dense_out.output)?;
    println!("functional check: max |difference| vs dense reference = {max_diff:.2e}");

    // 4. Estimated speedup over the dense baseline on V100, T4 and A100.
    println!(
        "\nestimated kernel time at {:.0}% sparsity (V = {v}):",
        sparsity * 100.0
    );
    for arch in GpuArch::all() {
        let dense = dense_gemm_profile(&arch, m, n, k);
        let shfl = shfl_bw_spmm_profile(&arch, &sparse, n);
        println!(
            "  {:5}: dense {:8.2} us, Shfl-BW {:8.2} us  ->  {:4.2}x speedup ({})",
            arch.name,
            dense.time_us(),
            shfl.time_us(),
            dense.time_us() / shfl.time_us(),
            shfl.timing.bound
        );
    }
    Ok(())
}
