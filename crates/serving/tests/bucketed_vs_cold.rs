//! Bucketed serving is bit-identical to the cold, un-bucketed execution.
//!
//! Every output column of an SpMM depends only on its own activation column,
//! so zero-padding a request up to its N-bucket (and cropping afterwards) or
//! splitting a wide request into bucket segments must reproduce the cold
//! exact-width plan's output bit for bit. These property tests drive the
//! whole serving stack — policy segmentation, plan cache, padding, cropping,
//! reassembly, and the scheduler's concurrent path — against
//! [`ServingEngine::execute_cold`], which the kernel crate's own property
//! tests already chain to the naive reference oracles.

use gpu_sim::GpuArch;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use shfl_core::bucket::BucketPolicy;
use shfl_core::formats::{ShflBwMatrix, VectorWiseMatrix};
use shfl_core::matrix::DenseMatrix;
use shfl_serving::engine::ServingEngine;
use shfl_serving::scheduler::{Request, Scheduler};

/// Synthesises a Shfl-BW matrix directly in compressed form: each group of
/// `v` rows keeps a random `density` fraction of columns, rows scattered by a
/// random permutation.
fn synth_shfl_bw(seed: u64, m: usize, k: usize, v: usize, density: f64) -> ShflBwMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let groups = m / v;
    let mut group_ptr = vec![0usize];
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    for g in 0..groups {
        for c in 0..k {
            // Keep at least one column per group so no group is empty.
            if rng.gen_bool(density) || (c == g % k && group_ptr[g] == col_idx.len()) {
                col_idx.push(c as u32);
                for _ in 0..v {
                    values.push(rng.gen_range(-1.0f32..1.0));
                }
            }
        }
        group_ptr.push(col_idx.len());
    }
    let vw = VectorWiseMatrix::from_parts(m, k, v, group_ptr, col_idx, values).unwrap();
    let mut rows: Vec<u32> = (0..m as u32).collect();
    rows.shuffle(&mut rng);
    ShflBwMatrix::from_vector_wise(vw, rows).unwrap()
}

fn bits(m: &DenseMatrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Builds an engine + oracle pair and asserts the bucketed (fused) execution
/// equals both the per-segment unfused baseline and the cold exact-width
/// execution bit for bit for width `n`.
fn assert_bucketed_matches_cold(engine: &ServingEngine, layer: usize, rng: &mut StdRng, n: usize) {
    let k = engine.layer_k(layer).unwrap();
    let acts = DenseMatrix::random(rng, k, n);
    let bucketed = engine.execute(layer, &acts).unwrap();
    let unfused = engine.execute_unfused(layer, &acts).unwrap();
    let cold = engine.execute_cold(layer, &acts).unwrap();
    assert_eq!(bucketed.shape(), cold.shape());
    assert_eq!(
        bits(&bucketed),
        bits(&unfused),
        "fused vs per-segment mismatch at n={n} (policy {:?})",
        engine.policy()
    );
    assert_eq!(
        bits(&bucketed),
        bits(&cold),
        "bucketed vs cold mismatch at n={n} (policy {:?})",
        engine.policy()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bucketed_execution_is_bit_identical_to_cold(
        (groups, k, vexp, n, seed) in (1usize..5, 4usize..40, 0usize..3, 1usize..80, 0u64..1000)
    ) {
        let v = 1 << vexp; // 1, 2, 4
        let m = groups * v * 2;
        let weights = synth_shfl_bw(seed, m, k, v, 0.4);
        let mut engine = ServingEngine::new(
            GpuArch::v100(),
            BucketPolicy::new(8, 32).unwrap(),
            8,
        );
        let layer = engine.register_layer("prop", weights);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
        assert_bucketed_matches_cold(&engine, layer, &mut rng, n);
    }
}

#[test]
fn boundary_widths_are_bit_identical_including_n1_and_bucket_plus_one() {
    let weights = synth_shfl_bw(42, 48, 56, 8, 0.35);
    let mut engine = ServingEngine::new(GpuArch::a100(), BucketPolicy::new(8, 64).unwrap(), 16);
    let layer = engine.register_layer("boundary", weights);
    let mut rng = StdRng::seed_from_u64(99);
    // N = 1, every bucket boundary, one past each boundary (padding), one
    // past the largest bucket (splitting), and a wide multi-segment width.
    for n in [1, 7, 8, 9, 16, 17, 32, 33, 63, 64, 65, 128, 129, 200] {
        assert_bucketed_matches_cold(&engine, layer, &mut rng, n);
    }
    // The cache never grew past the policy's bucket count for one layer.
    assert!(engine.cache().len() <= engine.policy().num_buckets());
}

#[test]
fn fused_multi_segment_sweep_is_bit_identical_and_streams_panels_once() {
    let weights = synth_shfl_bw(17, 48, 56, 8, 0.35);
    let mut engine = ServingEngine::new(GpuArch::v100(), BucketPolicy::new(8, 16).unwrap(), 16);
    let layer = engine.register_layer("fused", weights);
    let mut rng = StdRng::seed_from_u64(1717);
    // ≥4-segment widths (the re-streaming shapes), plus a boundary case one
    // past a multiple of the ceiling.
    for n in [64, 65, 70, 100] {
        assert_bucketed_matches_cold(&engine, layer, &mut rng, n);
    }
    // Counter check: a 5-segment width costs one sweep fused, five unfused.
    let sweep = engine.layer_panel_sweep_bytes(layer).unwrap();
    let acts = DenseMatrix::random(&mut rng, 56, 70);
    let before = engine.panel_bytes_read();
    engine.execute(layer, &acts).unwrap();
    assert_eq!(engine.panel_bytes_read() - before, sweep);
    let before = engine.panel_bytes_read();
    engine.execute_unfused(layer, &acts).unwrap();
    assert_eq!(engine.panel_bytes_read() - before, 5 * sweep);
}

#[test]
fn per_layer_policy_overrides_stay_bit_identical() {
    let weights = synth_shfl_bw(27, 32, 48, 4, 0.4);
    let mut engine = ServingEngine::new(GpuArch::a100(), BucketPolicy::new(8, 256).unwrap(), 16);
    let narrow = engine.register_layer_with_policy(
        "narrow",
        weights.clone(),
        BucketPolicy::new(8, 16).unwrap(),
    );
    let wide =
        engine.register_layer_with_policy("wide", weights, BucketPolicy::new(64, 512).unwrap());
    let mut rng = StdRng::seed_from_u64(2727);
    for n in [1, 15, 16, 17, 63, 64, 65, 130] {
        assert_bucketed_matches_cold(&engine, narrow, &mut rng, n);
        assert_bucketed_matches_cold(&engine, wide, &mut rng, n);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Continuous batching: coalesced same-layer groups must reproduce each
    /// request's individual cold-oracle output bit for bit, across mixed
    /// layers and widths (N = 1, bucket boundaries, multi-segment).
    #[test]
    fn coalesced_scheduling_is_bit_identical_to_individual_requests(
        (seed, a, b, c, d) in (0u64..500, 1usize..90, 1usize..90, 1usize..90, 2usize..9)
    ) {
        // `d` requests with widths derived from (a, b): covers N = 1, bucket
        // boundaries and multi-segment widths across two layers.
        let sizes: Vec<usize> = (0..d).map(|i| 1 + (a * (i + 1) + b * i * i + c) % 89).collect();
        let mut engine = ServingEngine::new(
            GpuArch::v100(),
            BucketPolicy::new(8, 32).unwrap(),
            16,
        );
        let layer_a = engine.register_layer("a", synth_shfl_bw(seed, 24, 40, 4, 0.4));
        let layer_b = engine.register_layer("b", synth_shfl_bw(seed ^ 1, 24, 40, 8, 0.3));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x77);
        let requests: Vec<Request> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| Request {
                id: i as u64,
                layer: if i % 2 == 0 { layer_a } else { layer_b },
                activations: DenseMatrix::random(&mut rng, 40, n),
            })
            .collect();
        let oracles: Vec<DenseMatrix> = requests
            .iter()
            .map(|r| engine.execute_cold(r.layer, &r.activations).unwrap())
            .collect();
        let responses = Scheduler::coalescing(3).serve(&engine, requests);
        for (resp, oracle) in responses.iter().zip(oracles.iter()) {
            let out = resp.result.as_ref().unwrap();
            prop_assert_eq!(bits(out), bits(oracle), "request {}", resp.id);
        }
    }
}

#[test]
fn scheduler_fanout_preserves_bit_identity_per_request() {
    let weights = synth_shfl_bw(7, 32, 40, 4, 0.3);
    let mut engine = ServingEngine::new(GpuArch::t4(), BucketPolicy::new(8, 32).unwrap(), 8);
    let layer = engine.register_layer("fanout", weights);
    let mut rng = StdRng::seed_from_u64(123);
    let requests: Vec<Request> = (0..20)
        .map(|i| {
            let n = 1 + (i * 13) % 70;
            Request {
                id: i as u64,
                layer,
                activations: DenseMatrix::random(&mut rng, 40, n),
            }
        })
        .collect();
    let oracles: Vec<DenseMatrix> = requests
        .iter()
        .map(|r| engine.execute_cold(r.layer, &r.activations).unwrap())
        .collect();
    let responses = Scheduler::new(4).serve(&engine, requests);
    for (resp, oracle) in responses.iter().zip(oracles.iter()) {
        let out = resp.result.as_ref().unwrap();
        assert_eq!(bits(out), bits(oracle), "request {}", resp.id);
    }
    // Mixed widths over a handful of buckets: the trace must be hit-dominated.
    // Each request makes one lookup, and the widths touch three plans
    // (buckets 8, 16 and 32; a multi-segment request runs on the 32-wide
    // plan). Each plan must be built exactly once, so the other 17 lookups
    // are hits or join another worker's in-flight build (a shared build,
    // which the stats also count as a miss). How they split between those
    // two depends on the thread schedule; the number of builds does not.
    let stats = engine.cache_stats();
    assert_eq!(stats.hits + stats.misses, 20, "one lookup per request");
    assert_eq!(
        stats.misses - stats.shared_builds,
        3,
        "plans built: {stats:?}"
    );
}
