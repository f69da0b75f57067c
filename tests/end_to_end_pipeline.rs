//! Cross-crate integration tests: the full prune → compress → execute → evaluate
//! pipeline the paper describes, spanning `shfl-pruning`, `shfl-core`, `shfl-kernels`,
//! `gpu-sim` and `shfl-models`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use shfl_bw_repro::prelude::*;
use shfl_core::pattern::{is_shfl_bw, is_vector_wise};
use shfl_kernels::gemm::dense_gemm_profile;
use shfl_kernels::spmm::shfl_bw::shfl_bw_spmm_profile;
use shfl_pruning::trainer::{finetune_pruned_model, TrainerConfig};
use shfl_pruning::VectorWisePruner;

/// The full pipeline on one linear layer: search the pattern, compress, execute the
/// simulated kernel, and check both numerics and the structural invariants.
#[test]
fn prune_compress_execute_roundtrip() {
    let (m, k, n, v) = (128usize, 256usize, 64usize, 16usize);
    let sparsity = 0.75;
    let mut rng = StdRng::seed_from_u64(1);
    let weights = DenseMatrix::random(&mut rng, m, k);
    let activations = DenseMatrix::random(&mut rng, k, n);

    // Pattern search (Figure 5).
    let pruner = ShflBwPruner::new(v);
    let result = pruner
        .prune_with_permutation(&weights.abs(), 1.0 - sparsity)
        .expect("search succeeds");
    assert!((result.mask.density() - 0.25).abs() < 0.02);
    assert!(is_shfl_bw(&result.mask, v));
    let shuffled = result.mask.permuted_rows(&result.permutation).unwrap();
    assert!(is_vector_wise(&shuffled, v));

    // Compression (Figure 4 step (a)).
    let pruned = result.mask.apply(&weights).unwrap();
    let sparse = ShflBwMatrix::from_dense_with_permutation(&pruned, &result.permutation, v)
        .expect("compression succeeds");
    assert_eq!(sparse.to_dense(), pruned);

    // Kernel execution on every architecture, verified against the dense reference.
    for arch in GpuArch::all() {
        let dense_out = SpmmPlan::dense(&arch, &pruned, n)
            .execute(&activations)
            .unwrap();
        let sparse_plan = SpmmPlan::shfl_bw(&arch, &sparse, n);
        let sparse_out = sparse_plan.execute(&activations).unwrap();
        assert!(
            sparse_out
                .output
                .approx_eq(&dense_out.output, 2e-2)
                .unwrap(),
            "{}: sparse kernel output diverges from the dense reference",
            arch.name
        );
        // The sparse kernel moves less DRAM traffic than the dense kernel would for
        // the same layer.
        let dense_profile = dense_gemm_profile(&arch, m, n, k);
        assert!(sparse_plan.profile().stats.dram_bytes() < dense_profile.stats.dram_bytes());
    }
}

/// The speed–accuracy story end to end: Shfl-BW must simultaneously (a) keep more
/// importance than vector-wise pruning, (b) degrade a trainable student less, and
/// (c) be at least as fast as vector-wise under the kernel cost model.
#[test]
fn shfl_bw_dominates_vector_wise_in_both_axes() {
    let (m, k, v) = (128usize, 256usize, 16usize);
    let density = 0.25;
    let mut rng = StdRng::seed_from_u64(2);
    let weights = DenseMatrix::random(&mut rng, m, k);
    let scores = weights.abs();

    let shfl = ShflBwPruner::new(v)
        .prune_with_permutation(&scores, density)
        .unwrap();
    let vw_mask = VectorWisePruner::new(v).prune(&scores, density).unwrap();

    // (a) retained importance.
    let vw_score = vw_mask.retained_score(&scores).unwrap();
    assert!(shfl.retained_score >= vw_score);

    // (b) trainable-student degradation.
    let config = TrainerConfig {
        steps: 80,
        ..TrainerConfig::default()
    };
    let shfl_ft = finetune_pruned_model(&weights, &shfl.mask, config).unwrap();
    let vw_ft = finetune_pruned_model(&weights, &vw_mask, config).unwrap();
    assert!(shfl_ft.degradation() <= vw_ft.degradation() * 1.10);

    // (c) kernel speed parity (shuffling is free).
    let pruned_shfl = shfl.mask.apply(&weights).unwrap();
    let sparse_shfl =
        ShflBwMatrix::from_dense_with_permutation(&pruned_shfl, &shfl.permutation, v).unwrap();
    let pruned_vw = vw_mask.apply(&weights).unwrap();
    let identity: Vec<usize> = (0..m).collect();
    let sparse_vw = ShflBwMatrix::from_dense_with_permutation(&pruned_vw, &identity, v).unwrap();
    let arch = GpuArch::v100();
    let t_shfl = shfl_bw_spmm_profile(&arch, &sparse_shfl, 64).time_us();
    let t_vw = shfl_bw_spmm_profile(&arch, &sparse_vw, 64).time_us();
    assert!(t_shfl <= t_vw * 1.05);
}

/// The accuracy proxy and the kernel model agree with the paper's end-to-end message:
/// at 75% sparsity Shfl-BW gives a practical speedup on every GPU while the proxy
/// quality stays close to the dense model.
#[test]
fn paper_headline_claims_hold_end_to_end() {
    let proxy = AccuracyModel::new(DnnModel::Transformer);
    let quality = proxy.evaluate(SparsePattern::ShflBw { v: 64 }, 0.75);
    assert!(proxy.dense_metric() - quality < 1.5);

    // Kernel side on a Transformer FFN layer shape.
    let (m, k, n, v) = (1024usize, 1024usize, 256usize, 64usize);
    let mut rng = StdRng::seed_from_u64(3);
    let weights = DenseMatrix::random(&mut rng, m, k);
    let mask = ShflBwPruner::new(v).prune(&weights.abs(), 0.25).unwrap();
    let pruned = mask.apply(&weights).unwrap();
    let perm = shfl_core::pattern::shfl_bw_grouping_permutation(&mask, v).unwrap();
    let sparse = ShflBwMatrix::from_dense_with_permutation(&pruned, &perm, v).unwrap();
    for arch in GpuArch::all() {
        let dense_t = dense_gemm_profile(&arch, m, n, k).time_us();
        let sparse_t = shfl_bw_spmm_profile(&arch, &sparse, n).time_us();
        assert!(
            sparse_t < dense_t,
            "{}: no practical speedup at 75% sparsity",
            arch.name
        );
    }
}
