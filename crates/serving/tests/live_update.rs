//! The zero-downtime live-update acceptance test: a grow–prune loop
//! republishes a serving layer's weights **nine times** (structural
//! re-prunes, same-pattern magnitude updates, one rollback, one rejected
//! update — plus, under `--features chaos`, one scripted candidate-build
//! failure injected at its exact update sequence number) while a
//! deterministic mixed-class trace keeps submitting — and not one accepted
//! ticket is dropped or errored, every response is bit-identical to the
//! cold oracle of one of the versions it could have been dispatched
//! against, and the delta re-packs move strictly fewer bytes than full
//! rebuilds of the same plans (counter-verified).

use gpu_sim::GpuArch;
use shfl_core::bucket::BucketPolicy;
use shfl_core::formats::{ShflBwMatrix, VectorWiseMatrix};
use shfl_core::matrix::DenseMatrix;
use shfl_core::slo::SloClass;
use shfl_kernels::plan::SpmmPlan;
use shfl_pruning::grow_prune::{grow_and_prune, GrowPruneConfig};
use shfl_pruning::ShflBwPruner;
#[cfg(feature = "chaos")]
use shfl_serving::chaos::FaultPlan;
use shfl_serving::server::Request;
use shfl_serving::server::{Server, ServerConfig};
use shfl_serving::{ServingEngine, UpdateError};
#[cfg(feature = "chaos")]
use std::sync::Arc;

const ROWS: usize = 32;
const COLS: usize = 32;
const V: usize = 8;

fn bits(m: &DenseMatrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Deterministic teacher magnitudes — every kept position is nonzero.
fn teacher() -> DenseMatrix {
    DenseMatrix::from_fn(ROWS, COLS, |r, c| {
        0.05 + ((r * 31 + c * 7) % 23) as f32 * 0.03
    })
}

/// Materialises a pruning mask into packed Shfl-BW weights.
fn weights_from_mask(mask: &shfl_core::mask::BinaryMask, teacher: &DenseMatrix) -> ShflBwMatrix {
    let masked = DenseMatrix::from_fn(ROWS, COLS, |r, c| {
        if mask.is_kept(r, c) {
            teacher.get(r, c)
        } else {
            0.0
        }
    });
    ShflBwMatrix::from_dense(&masked, V).expect("grow-prune masks are Shfl-BW patterns")
}

/// A same-pattern magnitude update of the currently published weights.
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

/// Cold oracle: a fresh exact-width plan of one specific weight version.
fn oracle(arch: &GpuArch, weights: &ShflBwMatrix, acts: &DenseMatrix) -> DenseMatrix {
    SpmmPlan::shfl_bw(arch, weights, acts.cols())
        .execute(acts)
        .unwrap()
        .output
}

/// What one phase of the loop does to the serving layer after its traffic
/// is in flight.
enum Swap {
    /// Same-pattern magnitude update (delta re-pack path).
    Magnitude(f32),
    /// Grow–prune to a new target density (structural → full rebuild).
    Reprune(f64),
    /// Roll back to the previous published version.
    Rollback,
    /// An update that must be rejected (shape change) — the old version
    /// keeps serving.
    RejectedShapeChange,
    /// A scripted chaos fault fails candidate-plan building at the swap
    /// point; the typed [`UpdateError::Build`] surfaces and the old version
    /// keeps serving.
    #[cfg(feature = "chaos")]
    InjectedBuildFailure,
}

#[test]
fn nine_swaps_under_continuous_traffic_drop_nothing_and_stay_bit_identical() {
    let arch = GpuArch::t4();
    let teacher = teacher();
    let pruner = ShflBwPruner::new(V);

    // Initial deployment: grow–prune to 50% density.
    let initial = grow_and_prune(&teacher, &pruner, 0.5, GrowPruneConfig::default()).unwrap();
    let w0 = weights_from_mask(&initial.mask, &teacher);
    let mut scores = initial.final_scores;

    let mut engine = ServingEngine::new(arch.clone(), BucketPolicy::new(8, 32).unwrap(), 16);
    let layer = engine.register_layer("live", w0.clone());
    let config = ServerConfig::new()
        .with_workers(2)
        .with_admission_window_us(100);
    // Under the chaos feature an extra phase is inserted at schedule slot 5
    // (see below); its update attempt — the sixth server-level update call,
    // counting the rejected shape change — is scripted to fail candidate
    // plan building at the exact swap point.
    #[cfg(feature = "chaos")]
    let config = config.with_fault_plan(Arc::new(FaultPlan::new().fail_update_build_at(5)));
    let server = Server::start(engine, config);
    // Deterministically warm version 0's bucket plans (8, 16 and the fused
    // 32 ceiling) so the first magnitude swap has resident plans to delta
    // re-pack — later versions are seeded by each swap's own candidates.
    for n in [4usize, 12, 28] {
        server.engine().warm(layer, n).unwrap();
    }

    // The live grow–prune loop: 10 phases, 9 published swaps (phases 0..=9
    // minus the rejected one), one of them a rollback. Under the chaos
    // feature an eleventh phase with a scripted candidate-build failure is
    // spliced in — still 9 published swaps, still zero dropped tickets.
    #[cfg_attr(not(feature = "chaos"), allow(unused_mut))]
    let mut schedule = vec![
        Swap::Magnitude(0.9),
        Swap::Reprune(0.45),
        Swap::Magnitude(1.1),
        Swap::RejectedShapeChange,
        Swap::Magnitude(0.8),
        Swap::Rollback,
        Swap::Reprune(0.4),
        Swap::Magnitude(1.25),
        Swap::Magnitude(0.95),
        Swap::Magnitude(1.05),
    ];
    #[cfg(feature = "chaos")]
    schedule.insert(5, Swap::InjectedBuildFailure);
    let classes = [
        SloClass::Standard,
        SloClass::Bulk,
        SloClass::Deadline {
            deadline_us: 100_000,
        },
    ];
    // Widths cover a padded single segment, an exact bucket, and a fused
    // multi-segment sweep, so every bucket plan of the version is resident
    // when the next swap tries to delta re-pack.
    let widths = [4usize, 12, 16, 28];

    // Published history for rollback bookkeeping and per-version oracles.
    let mut history: Vec<ShflBwMatrix> = vec![w0];
    let mut swap_latencies_ms: Vec<f64> = Vec::new();
    let mut published = 0u64;
    let mut next_id = 0u64;

    for (phase, swap) in schedule.iter().enumerate() {
        let pre = history.last().unwrap().clone();

        // Launch this phase's mixed-class traffic...
        let mut tickets = Vec::new();
        for (i, &n) in widths.iter().enumerate() {
            let acts = DenseMatrix::from_fn(COLS, n, |r, c| {
                ((r * 13 + c * 5 + phase * 7) % 17) as f32 * 0.125 - 1.0
            });
            let ticket = server
                .submit_classed(
                    Request {
                        id: next_id,
                        layer,
                        activations: acts.clone(),
                    },
                    classes[(phase + i) % classes.len()],
                )
                .expect("queue never fills in this trace");
            next_id += 1;
            tickets.push((acts, ticket));
        }

        // ...and swap the weights while it is (potentially) in flight.
        let post = match swap {
            Swap::Magnitude(factor) => {
                let update = scaled(&pre, *factor);
                let report = server.update_layer(layer, update.clone()).unwrap();
                assert!(
                    report.delta_repacked,
                    "phase {phase} must take the delta path"
                );
                assert!(report.repack_bytes > 0, "phase {phase} repacked no plans");
                assert!(
                    report.repack_bytes < report.rebuild_bytes,
                    "phase {phase}: delta re-pack must move strictly fewer bytes \
                     ({} vs {})",
                    report.repack_bytes,
                    report.rebuild_bytes
                );
                swap_latencies_ms.push(report.swap_ms);
                published += 1;
                assert_eq!(report.version, published);
                Some(update)
            }
            Swap::Reprune(density) => {
                let repruned = grow_and_prune(
                    &scores,
                    &pruner,
                    *density,
                    GrowPruneConfig {
                        rounds: 3,
                        grow_fraction: 0.15,
                        initial_density: (*density + 0.2).min(0.9),
                    },
                )
                .unwrap();
                scores = repruned.final_scores.clone();
                let update = weights_from_mask(&repruned.mask, &teacher);
                let report = server.update_layer(layer, update.clone()).unwrap();
                assert!(
                    !report.delta_repacked,
                    "phase {phase}: a structural re-prune cannot delta re-pack"
                );
                assert!(report.rebuilt_plans >= 1);
                swap_latencies_ms.push(report.swap_ms);
                published += 1;
                assert_eq!(report.version, published);
                Some(update)
            }
            Swap::Rollback => {
                let report = server.rollback_layer(layer).unwrap();
                swap_latencies_ms.push(report.swap_ms);
                published += 1;
                assert_eq!(report.version, published);
                let previous = history[history.len() - 2].clone();
                Some(previous)
            }
            Swap::RejectedShapeChange => {
                let wrong = ShflBwMatrix::from_dense(
                    &DenseMatrix::from_fn(ROWS, COLS + 16, |r, c| {
                        if (c + r / V).is_multiple_of(3) {
                            1.0
                        } else {
                            0.0
                        }
                    }),
                    V,
                )
                .unwrap();
                let err = server.update_layer(layer, wrong).unwrap_err();
                assert!(matches!(err, UpdateError::ShapeMismatch { .. }));
                // The failure is invisible to traffic: same version serving.
                assert_eq!(
                    server.engine().layer_version(layer).unwrap(),
                    published,
                    "a rejected update must leave the published version alone"
                );
                None
            }
            #[cfg(feature = "chaos")]
            Swap::InjectedBuildFailure => {
                let update = scaled(&pre, 0.7);
                let err = server.update_layer(layer, update).unwrap_err();
                match &err {
                    UpdateError::Build { source, .. } => assert!(
                        source.to_string().contains("injected update build failure"),
                        "phase {phase}: unexpected build-failure source: {source}"
                    ),
                    other => panic!("phase {phase}: expected Build error, got {other}"),
                }
                // The injected failure is invisible to traffic: same version
                // keeps serving, no partial publish.
                assert_eq!(
                    server.engine().layer_version(layer).unwrap(),
                    published,
                    "an injected build failure must leave the published version alone"
                );
                None
            }
        };
        if let Some(post) = &post {
            history.push(post.clone());
        }
        let post = post.unwrap_or_else(|| pre.clone());

        // Every ticket of this phase resolves successfully and bit-matches
        // the cold oracle of one of the versions it could have been
        // dispatched against (pre- or post-swap — never a torn mix).
        for (acts, ticket) in tickets {
            let response = ticket.wait();
            let got = response
                .result
                .unwrap_or_else(|e| panic!("phase {phase}: accepted ticket errored: {e}"));
            let want_pre = oracle(&arch, &pre, &acts);
            let want_post = oracle(&arch, &post, &acts);
            let got_bits = bits(&got);
            assert!(
                got_bits == bits(&want_pre) || got_bits == bits(&want_post),
                "phase {phase}: response matches neither the pre- nor the \
                 post-swap oracle bitwise"
            );
        }
    }

    server.drain();
    let stats = server.stats();
    assert_eq!(
        stats.completed, stats.submitted,
        "zero dropped requests across all swaps"
    );
    assert_eq!(stats.submitted, (schedule.len() * widths.len()) as u64);

    let update_stats = server.engine().update_stats();
    assert_eq!(update_stats.swaps, 9, "nine published swaps");
    assert_eq!(update_stats.rollbacks, 1);
    assert_eq!(
        update_stats.failed_updates, 1,
        "exactly the rejected update"
    );
    assert!(update_stats.repacked_plans >= 1);
    assert!(update_stats.rebuilt_plans >= 1);
    // The tentpole byte gate, counter-verified across the whole loop: delta
    // re-packs moved strictly fewer bytes than full rebuilds of the same
    // plans would have.
    assert!(update_stats.repack_bytes > 0);
    assert!(update_stats.repack_bytes < update_stats.rebuild_bytes);

    // Swap latency is recorded for every published swap.
    assert_eq!(swap_latencies_ms.len(), 9);
    assert!(swap_latencies_ms
        .iter()
        .all(|ms| ms.is_finite() && *ms >= 0.0));

    assert_eq!(server.engine().layer_version(layer).unwrap(), 9);
    server.shutdown();
}

/// The version counter is monotone across rollbacks, and rolling back twice
/// in a row walks the history one step per call (each rollback publishes the
/// previous *weights*, never rewinds the counter).
#[test]
fn rollback_chain_is_monotone_and_restores_older_outputs() {
    let arch = GpuArch::t4();
    let teacher = teacher();
    let pruner = ShflBwPruner::new(V);
    let initial = grow_and_prune(&teacher, &pruner, 0.5, GrowPruneConfig::default()).unwrap();
    let w0 = weights_from_mask(&initial.mask, &teacher);

    let mut engine = ServingEngine::new(arch.clone(), BucketPolicy::new(8, 32).unwrap(), 16);
    let layer = engine.register_layer("live", w0.clone());
    let acts = DenseMatrix::from_fn(COLS, 16, |r, c| ((r * 3 + c) % 11) as f32 * 0.2 - 1.0);

    let out0 = engine.execute(layer, &acts).unwrap();
    engine.update_layer(layer, scaled(&w0, 2.0)).unwrap();
    let out1 = engine.execute(layer, &acts).unwrap();
    assert_ne!(bits(&out0), bits(&out1));

    // Roll back to w0 (version 2), then roll back *again* — the previous
    // version of version 2 is the v1 weights, so outputs return to out1.
    engine.rollback_layer(layer).unwrap();
    assert_eq!(engine.layer_version(layer).unwrap(), 2);
    assert_eq!(bits(&engine.execute(layer, &acts).unwrap()), bits(&out0));
    engine.rollback_layer(layer).unwrap();
    assert_eq!(engine.layer_version(layer).unwrap(), 3);
    assert_eq!(bits(&engine.execute(layer, &acts).unwrap()), bits(&out1));
}
