//! Served execution is bit-identical to the cold exact-width execution at
//! every width.
//!
//! The engine keeps one plan per `(layer, version)` and sweeps every request
//! on it as one exact-width segment, whatever its width. Every output column
//! of an SpMM depends only on its own activation column and the packed
//! panels do not depend on the width, so that sweep must reproduce a cold
//! plan built for the exact width bit for bit. These tests drive the whole
//! serving stack — plan cache, the one execute path, server coalescing and
//! scatter-back, and the server's uncoalesced worker fan-out — against
//! [`ServingEngine::execute_cold`], which the kernel crate's own property
//! tests already chain to the naive reference oracles. Every width from 0 to
//! 300 is covered, so each SIMD tier's ragged remainder step runs at every
//! lane count.

use gpu_sim::GpuArch;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use shfl_core::bucket::BucketPolicy;
use shfl_core::formats::{ShflBwMatrix, VectorWiseMatrix};
use shfl_core::matrix::DenseMatrix;
use shfl_serving::engine::ServingEngine;
use shfl_serving::server::{Request, Server, ServerConfig};
use std::sync::Arc;

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

/// A same-pattern magnitude update of `weights` (the delta re-pack payload).
fn scaled(weights: &ShflBwMatrix, factor: f32) -> ShflBwMatrix {
    let vw = weights.vector_wise();
    let values: Vec<f32> = vw.values().iter().map(|x| x * factor).collect();
    let inner = VectorWiseMatrix::from_parts(
        vw.rows(),
        vw.cols(),
        vw.vector_size(),
        vw.group_ptr().to_vec(),
        vw.col_idx().to_vec(),
        values,
    )
    .unwrap();
    ShflBwMatrix::from_vector_wise(inner, weights.row_indices().to_vec()).unwrap()
}

fn bits(m: &DenseMatrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Asserts the served execution equals the cold exact-width execution bit
/// for bit for width `n`.
fn assert_served_matches_cold(engine: &ServingEngine, layer: usize, rng: &mut StdRng, n: usize) {
    let k = engine.layer_k(layer).unwrap();
    let acts = DenseMatrix::random(rng, k, n);
    let served = engine.execute(layer, &acts).unwrap();
    let cold = engine.execute_cold(layer, &acts).unwrap();
    assert_eq!(served.shape(), cold.shape());
    assert_eq!(
        bits(&served),
        bits(&cold),
        "served vs cold mismatch at n={n}"
    );
}

/// Every width 0..=300 (N = 0 and 1, every power-of-two boundary and one
/// past it, every SIMD remainder lane count), plus widths past two and four
/// 256-column sweep spans.
fn every_width() -> impl Iterator<Item = usize> {
    (0..=300).chain([513, 1000])
}

/// Two layers (V = 8 and V = 4) on an engine whose bucket policy caps at 64.
fn two_layer_engine() -> (ServingEngine, [usize; 2]) {
    let mut engine = ServingEngine::new(GpuArch::a100(), BucketPolicy::new(8, 64).unwrap(), 16);
    let a = engine.register_layer("a", synth_shfl_bw(42, 48, 56, 8, 0.35));
    let b = engine.register_layer("b", synth_shfl_bw(43, 32, 56, 4, 0.4));
    (engine, [a, b])
}

/// Drives every width of [`every_width`] through both layers of `engine`:
/// once per request through [`ServingEngine::execute`], then all of them as
/// one admission batch through a coalescing [`Server`] (groups of mixed
/// widths up to the 64-column cap, each one sweep, scattered back per
/// request). Every output must equal the request's cold oracle bit for bit.
fn serve_every_width(engine: &Arc<ServingEngine>, layers: [usize; 2]) {
    let mut rng = StdRng::seed_from_u64(99);
    for n in every_width() {
        for layer in layers {
            assert_served_matches_cold(engine, layer, &mut rng, n);
        }
    }
    let requests: Vec<Request> = every_width()
        .flat_map(|n| layers.map(|layer| (layer, n)))
        .enumerate()
        .map(|(id, (layer, n))| Request {
            id: id as u64,
            layer,
            activations: DenseMatrix::random(&mut rng, 56, n),
        })
        .collect();
    let oracles: Vec<DenseMatrix> = requests
        .iter()
        .map(|r| engine.execute_cold(r.layer, &r.activations).unwrap())
        .collect();
    let server = Server::start(Arc::clone(engine), ServerConfig::new().with_workers(2));
    let tickets = server.submit_batch(requests).unwrap();
    for (ticket, oracle) in tickets.into_iter().zip(&oracles) {
        let response = ticket.wait();
        let out = response.result.unwrap();
        assert_eq!(
            bits(&out),
            bits(oracle),
            "server response {} (n={})",
            response.id,
            oracle.cols()
        );
    }
    server.drain();
    let stats = server.stats();
    assert!(
        stats.dispatched_groups < stats.completed,
        "the server coalesced nothing: {} groups for {} requests",
        stats.dispatched_groups,
        stats.completed
    );
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bucketed_execution_is_bit_identical_to_cold(
        (groups, k, vexp, n, seed) in (
            1usize..5,
            4usize..40,
            0usize..3,
            // 0..=300, then 513 and 1000.
            (0usize..303).prop_map(|n| match n {
                301 => 513,
                302 => 1000,
                n => n,
            }),
            0u64..1000,
        )
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
        assert_served_matches_cold(&engine, layer, &mut rng, n);
    }
}

#[test]
fn boundary_widths_are_bit_identical_including_n1_and_bucket_plus_one() {
    let (engine, layers) = two_layer_engine();
    serve_every_width(&Arc::new(engine), layers);
}

#[test]
fn one_plan_per_layer_version_serves_every_width() {
    let (engine, [a, b]) = two_layer_engine();
    let engine = Arc::new(engine);
    serve_every_width(&engine, [a, b]);

    // One plan per layer, and nothing else resident: the cache holds
    // exactly those two plans' packed bytes.
    assert_eq!(engine.cache().len(), 2);
    let packed = |layer| {
        let weights = engine.layer_weights(layer).unwrap();
        shfl_kernels::plan::SpmmPlan::shfl_bw(engine.arch(), &weights, 1).packed_bytes()
    };
    assert_eq!(engine.cache().resident_bytes(), packed(a) + packed(b));
    assert_eq!(engine.stats().padded_columns, 0);

    // A magnitude update re-packs the one resident plan and drops the old
    // version's; a structural update rebuilds it.
    let magnitude = scaled(&engine.layer_weights(a).unwrap(), -0.5);
    let report = engine.update_layer(a, magnitude).unwrap();
    assert!(report.delta_repacked);
    assert_eq!(
        (
            report.repacked_plans,
            report.rebuilt_plans,
            report.invalidated_plans
        ),
        (1, 0, 1)
    );
    let structural = synth_shfl_bw(7, 32, 56, 4, 0.4);
    let report = engine.update_layer(b, structural).unwrap();
    assert!(!report.delta_repacked);
    assert_eq!((report.repacked_plans, report.rebuilt_plans), (0, 1));
    assert_eq!(report.invalidated_plans, 1);
    assert_eq!(engine.cache().len(), 2);
    assert_eq!(engine.cache().resident_bytes(), packed(a) + packed(b));

    // The new versions serve every width bit-identically too.
    let mut rng = StdRng::seed_from_u64(5);
    for n in [1, 7, 8, 33, 300] {
        for layer in [a, b] {
            assert_served_matches_cold(&engine, layer, &mut rng, n);
        }
    }
    assert_eq!(engine.cache().len(), 2);
}

#[test]
fn fused_multi_segment_sweep_is_bit_identical_and_streams_panels_once() {
    let weights = synth_shfl_bw(17, 48, 56, 8, 0.35);
    let mut engine = ServingEngine::new(GpuArch::v100(), BucketPolicy::new(8, 16).unwrap(), 16);
    let layer = engine.register_layer("fused", weights);
    let mut rng = StdRng::seed_from_u64(1717);
    // Widths four and more times the policy's largest bucket, plus one past
    // a multiple of it.
    for n in [64, 65, 70, 100] {
        assert_served_matches_cold(&engine, layer, &mut rng, n);
    }
    // Counter check: a width over four buckets wide costs one sweep.
    let sweep = engine.layer_panel_sweep_bytes(layer).unwrap();
    let acts = DenseMatrix::random(&mut rng, 56, 70);
    let before = engine.panel_bytes_read();
    engine.execute(layer, &acts).unwrap();
    assert_eq!(engine.panel_bytes_read() - before, sweep);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Continuous batching: coalesced same-layer groups must reproduce each
    /// request's individual cold-oracle output bit for bit, across mixed
    /// layers and widths (N = 1, bucket boundaries, wider than the cap).
    #[test]
    fn coalesced_scheduling_is_bit_identical_to_individual_requests(
        (seed, a, b, c, d) in (0u64..500, 1usize..90, 1usize..90, 1usize..90, 2usize..9)
    ) {
        // `d` requests with widths derived from (a, b): covers N = 1, bucket
        // boundaries and widths past the cap across two layers.
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
        let server = Server::start(engine, ServerConfig::new().with_workers(3));
        let tickets = server.submit_batch(requests).unwrap();
        for (ticket, oracle) in tickets.into_iter().zip(oracles.iter()) {
            let resp = ticket.wait();
            let out = resp.result.as_ref().unwrap();
            prop_assert_eq!(bits(out), bits(oracle), "request {}", resp.id);
        }
        server.shutdown();
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
    let server = Server::start(
        engine,
        ServerConfig::new().with_workers(4).with_coalesce(false),
    );
    let tickets = server.submit_batch(requests).unwrap();
    for (ticket, oracle) in tickets.into_iter().zip(oracles.iter()) {
        let resp = ticket.wait();
        let out = resp.result.as_ref().unwrap();
        assert_eq!(bits(out), bits(oracle), "request {}", resp.id);
    }
    // Mixed widths on one layer: the trace must be hit-dominated. Each
    // request makes one lookup, and every width runs on the layer's one
    // plan, which must be built exactly once, so the other 19 lookups are
    // hits or join another worker's in-flight build (a shared build, which
    // the stats also count as a miss). How they split between those two
    // depends on the thread schedule; the number of builds does not.
    let stats = server.engine().cache_stats();
    assert_eq!(stats.hits + stats.misses, 20, "one lookup per request");
    assert_eq!(
        stats.misses - stats.shared_builds,
        1,
        "plans built: {stats:?}"
    );
    server.shutdown();
}
