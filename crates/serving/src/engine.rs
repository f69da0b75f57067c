//! The layer executor: a layer registry over an LRU plan cache.
//!
//! [`ServingEngine`] owns the registered layers' compressed weights and a
//! [`PlanCache`] holding **one** [`SpmmPlan`] per `(layer, version)`.
//! Executing a request:
//!
//! 1. validate the layer id and the activation row count against the layer's
//!    packed reduction dimension (typed [`ServingError`], no panics),
//! 2. sweep the layer's plan over exactly the request's `n` columns
//!    ([`SpmmPlan::execute`] accepts any width). A single request, a
//!    coalesced group and a decode round are all one pad-free sweep that
//!    reads each packed panel once.
//!
//! One plan serves every width because Shfl-BW's packed panels fix the tile
//! depth `tk`, not the activation width. The result is bit-identical to
//! [`ServingEngine::execute_cold`], a fresh plan built for the exact width:
//! every output column of an SpMM depends only on its own activation column,
//! and each output element sums its panels in the same order either way. The
//! tests in `tests/bucketed_vs_cold.rs` assert exact bit equality at every
//! width from 0 to 300 and beyond.
//!
//! The engine-wide [`BucketPolicy`] does not shape execution. Its largest
//! bucket decides two things only: the server's default coalescing cap, and
//! the width of the probe activation an update is validated on (the width
//! the layer's plan is built for).
//!
//! The engine counts the packed-panel bytes its executions stream through a
//! [`gpu_sim::stats::TrafficCounter`]
//! ([`ServingStats::panel_bytes_read`]): one plan's
//! [`SpmmPlan::panel_sweep_bytes`] per execute.
//!
//! # Live weight updates
//!
//! Each registered layer is a **versioned slot**: an `RwLock` holding an
//! `Arc` snapshot of the layer's current weights and version number. Every
//! execute clones exactly one snapshot up front, so a request observes
//! exactly one weight version end to end — and because the server makes one
//! engine call per coalesced group, a group never mixes versions either.
//! [`ServingEngine::update_layer`] builds and **validates** a candidate
//! version off to the side (smoke-executed against a held-out probe
//! activation and compared bit-for-bit with a cold oracle of the new
//! weights), then publishes it with one atomic slot swap; in-flight executes
//! finish bit-identically on the `Arc`-held old snapshot and old plan while
//! new arrivals build against the new version's [`PlanKey`]. A failed build
//! or validation leaves the old version serving and returns a typed
//! [`UpdateError`]; [`ServingEngine::rollback_layer`] republishes the
//! previous version's weights. Same-pattern magnitude updates take the
//! **delta re-pack** path ([`SpmmPlan::repack_shfl_bw`]): the resident plan
//! of the old version is cloned with only its panel payload bytes rewritten,
//! and the bytes moved are charged to a [`TrafficCounter`] next to what a
//! full rebuild would have moved ([`UpdateStats`]).

use crate::server::panic_message;
use crate::ServingError;
use gpu_sim::stats::TrafficCounter;
use gpu_sim::GpuArch;
use shfl_core::bucket::BucketPolicy;
use shfl_core::formats::ShflBwMatrix;
use shfl_core::matrix::DenseMatrix;
use shfl_kernels::cache::{PlanCache, PlanCacheStats, PlanKey};
use shfl_kernels::plan::SpmmPlan;
use shfl_kernels::{KernelError, KernelResult};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// One immutable snapshot of a registered layer: the packed Shfl-BW weights,
/// a display name, and the weight version the snapshot carries. Executes
/// clone one `Arc` of this up front and never look back at the slot, so a
/// published update can never tear a request (or a coalesced group) across
/// versions.
struct LayerState {
    name: String,
    /// Monotone weight version; bumped by every published update (including
    /// rollbacks, which republish the previous *weights* under a fresh
    /// version so plan keys stay unambiguous).
    version: u64,
    weights: ShflBwMatrix,
    /// The previously published snapshot, kept for [`ServingEngine::rollback_layer`].
    prev: Option<Arc<LayerState>>,
}

/// Cumulative serving counters beyond the plan cache's hit/miss accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServingStats {
    /// Requests served (one per `execute` call).
    pub requests: u64,
    /// Real activation columns multiplied across all requests.
    pub columns: u64,
    /// Zero padding columns multiplied across all requests. Always 0: every
    /// execute sweeps exactly its own columns. Kept so readers of the
    /// padding share (`padded / (columns + padded)`) keep working.
    pub padded_columns: u64,
    /// Pad-free panel sweeps executed: one per execute of at least one
    /// column, whatever its width.
    pub fused_sweeps: u64,
    /// Packed weight-panel bytes streamed by every execution this engine ran
    /// (served and cold): each panel sweep charges the plan's
    /// [`SpmmPlan::panel_sweep_bytes`].
    pub panel_bytes_read: u64,
}

/// Why a live weight update was not published. Every variant leaves the old
/// version serving — a failed update is invisible to traffic.
#[derive(Debug, Clone)]
pub enum UpdateError {
    /// The layer id was never registered.
    UnknownLayer {
        /// The unknown layer id.
        layer: usize,
    },
    /// The update changes the layer's logical shape; in-flight and queued
    /// requests were validated against the current `k`, so a shape change
    /// cannot be swapped in live.
    ShapeMismatch {
        /// The layer the update targeted.
        layer: usize,
        /// The current `(m, k)` of the layer.
        expected: (usize, usize),
        /// The `(m, k)` of the rejected update.
        got: (usize, usize),
    },
    /// Building the candidate version's plan failed; the kernel error is
    /// chained via [`std::error::Error::source`].
    Build {
        /// The layer the update targeted.
        layer: usize,
        /// The candidate version that failed to build.
        version: u64,
        /// The underlying kernel error.
        source: KernelError,
    },
    /// The candidate built, but its smoke execute against the held-out probe
    /// activation did not match the cold oracle of the new weights
    /// bit-for-bit.
    Validation {
        /// The layer the update targeted.
        layer: usize,
        /// The candidate version that failed validation.
        version: u64,
        /// What diverged.
        context: String,
    },
    /// Another update published between this update's snapshot and its
    /// publish point; retry against the new current version.
    Conflict {
        /// The layer the update targeted.
        layer: usize,
    },
    /// [`ServingEngine::rollback_layer`] on a layer that has no previous
    /// version (never updated, or the history was already consumed).
    NoPreviousVersion {
        /// The layer the rollback targeted.
        layer: usize,
    },
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::UnknownLayer { layer } => {
                write!(f, "update targets unknown layer {layer}")
            }
            UpdateError::ShapeMismatch {
                layer,
                expected,
                got,
            } => write!(
                f,
                "update for layer {layer} is {}x{} but the serving shape is {}x{} \
                 (live updates cannot change a layer's logical shape)",
                got.0, got.1, expected.0, expected.1
            ),
            UpdateError::Build {
                layer,
                version,
                source,
            } => write!(
                f,
                "building layer {layer} version {version} failed: {source}"
            ),
            UpdateError::Validation {
                layer,
                version,
                context,
            } => write!(
                f,
                "layer {layer} version {version} failed probe validation: {context}"
            ),
            UpdateError::Conflict { layer } => write!(
                f,
                "a concurrent update of layer {layer} published first; retry"
            ),
            UpdateError::NoPreviousVersion { layer } => {
                write!(f, "layer {layer} has no previous version to roll back to")
            }
        }
    }
}

impl std::error::Error for UpdateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            UpdateError::Build { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// What one published update did (returned by
/// [`ServingEngine::update_layer`] / [`ServingEngine::rollback_layer`]).
#[derive(Debug, Clone)]
pub struct UpdateReport {
    /// The updated layer.
    pub layer: usize,
    /// The newly published version.
    pub version: u64,
    /// Whether the update took the delta re-pack path (same sparsity
    /// pattern, only magnitudes changed).
    pub delta_repacked: bool,
    /// 1 when the layer's resident old-version plan was carried over by
    /// rewriting only its panel payload bytes, else 0.
    pub repacked_plans: u64,
    /// 1 when the new version's plan was built from scratch (a structural
    /// update, or no resident plan to re-pack), else 0.
    pub rebuilt_plans: u64,
    /// Payload bytes the delta re-pack rewrote.
    pub repack_bytes: u64,
    /// Bytes a full rebuild of the plan moved (for a repacked plan, the
    /// bytes a rebuild *would* have moved).
    pub rebuild_bytes: u64,
    /// Stale-version plans dropped from the cache at publish.
    pub invalidated_plans: usize,
    /// Wall-clock duration of the whole update (build + validate + publish).
    pub swap_ms: f64,
}

/// Cumulative live-update counters ([`ServingEngine::update_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Updates published (including rollbacks).
    pub swaps: u64,
    /// Rollbacks published.
    pub rollbacks: u64,
    /// Updates rejected with an [`UpdateError`] (old version kept serving).
    pub failed_updates: u64,
    /// Plans carried across versions by delta re-pack.
    pub repacked_plans: u64,
    /// Plans built from scratch during updates.
    pub rebuilt_plans: u64,
    /// Payload bytes rewritten by delta re-packs (TrafficCounter-measured).
    pub repack_bytes: u64,
    /// Bytes moved — or, for repacked plans, the bytes that would have been
    /// moved — by full rebuilds (TrafficCounter-measured).
    pub rebuild_bytes: u64,
    /// Serving executes that finished on a snapshot older than the published
    /// version (the no-stop-the-world overlap window made visible).
    pub stale_plan_executes: u64,
}

/// The serving engine: layer registry + plan cache (one plan per layer
/// version) + the engine-wide bucket policy.
///
/// `execute` takes `&self` and the engine is `Sync`, so one engine serves any
/// number of server worker threads concurrently. Layer *registration*
/// takes `&mut self` (deployment-time wiring); layer *updates* take `&self`
/// and swap a versioned slot atomically, so weights change under live
/// traffic without a stop-the-world (see the module docs).
pub struct ServingEngine {
    arch: GpuArch,
    policy: BucketPolicy,
    cache: PlanCache,
    /// One versioned slot per registered layer. The `Vec` itself only grows,
    /// and only under `&mut self`; the slots swap under `&self`.
    layers: Vec<RwLock<Arc<LayerState>>>,
    stats: std::sync::Mutex<ServingStats>,
    update_stats: std::sync::Mutex<UpdateStats>,
    /// Packed-panel bytes streamed by every execution (lock-free; folded
    /// into [`ServingStats::panel_bytes_read`] on read).
    panel_traffic: TrafficCounter,
    /// Payload bytes rewritten by delta re-packs (folded into
    /// [`UpdateStats::repack_bytes`] on read).
    repack_traffic: TrafficCounter,
    /// Bytes full rebuilds moved, or would have moved for repacked plans
    /// (folded into [`UpdateStats::rebuild_bytes`] on read).
    rebuild_traffic: TrafficCounter,
    /// Serving executes that finished on a superseded snapshot (folded into
    /// [`UpdateStats::stale_plan_executes`] on read).
    stale_executes: AtomicU64,
    /// Memoised exact-width analytical profiles, keyed by
    /// `(layer, version, n)`. Serving traces repeat a small set of widths
    /// per layer (batch sizes × model shapes), so the map stays small;
    /// entries are a single `f64` each and stale versions are pruned at
    /// publish.
    fused_profile_us: std::sync::Mutex<std::collections::HashMap<(usize, u64, usize), f64>>,
}

impl ServingEngine {
    /// Creates an engine for `arch` with the given bucket policy and plan
    /// cache capacity (in plans; one per registered layer keeps every layer
    /// warm). The policy's largest bucket is the server's default coalescing
    /// cap and the update probe width; it does not shape execution.
    pub fn new(arch: GpuArch, policy: BucketPolicy, cache_capacity: usize) -> Self {
        Self::with_cache(arch, policy, PlanCache::new(cache_capacity))
    }

    /// Creates an engine over a caller-configured [`PlanCache`] (e.g. a
    /// byte-budgeted one, [`PlanCache::with_byte_budget`], so one huge
    /// layer's plan cannot crowd out a mixed workload).
    pub fn with_cache(arch: GpuArch, policy: BucketPolicy, cache: PlanCache) -> Self {
        ServingEngine {
            arch,
            policy,
            cache,
            layers: Vec::new(),
            stats: std::sync::Mutex::new(ServingStats::default()),
            update_stats: std::sync::Mutex::new(UpdateStats::default()),
            panel_traffic: TrafficCounter::new(),
            repack_traffic: TrafficCounter::new(),
            rebuild_traffic: TrafficCounter::new(),
            stale_executes: AtomicU64::new(0),
            fused_profile_us: std::sync::Mutex::new(std::collections::HashMap::new()),
        }
    }

    /// Registers a layer's packed weights; returns the layer id requests use.
    pub fn register_layer(&mut self, name: &str, weights: ShflBwMatrix) -> usize {
        self.layers.push(RwLock::new(Arc::new(LayerState {
            name: name.to_string(),
            version: 0,
            weights,
            prev: None,
        })));
        self.layers.len() - 1
    }

    /// Number of registered layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The engine-wide bucket policy. Its largest bucket is the server's
    /// default coalescing cap ([`crate::server::ServerConfig::coalesce_cap`])
    /// and the width updates are probe-validated at.
    pub fn policy(&self) -> BucketPolicy {
        self.policy
    }

    /// The architecture plans are built for.
    pub fn arch(&self) -> &GpuArch {
        &self.arch
    }

    /// Display name of a registered layer.
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::UnknownLayer`] for an unregistered id.
    pub fn layer_name(&self, layer: usize) -> Result<String, ServingError> {
        self.layer(layer).map(|l| l.name.clone())
    }

    /// The id of the first registered layer with display name `name`, or
    /// `None` when no layer was registered under it. Decode models address
    /// their GEMM stages by registration name; this is the name→id lookup
    /// that binds a [`crate::session::DecodeModel`]'s stage table to this
    /// engine's layer ids.
    pub fn layer_index(&self, name: &str) -> Option<usize> {
        (0..self.layers.len()).find(|&i| self.layer(i).is_ok_and(|l| l.name == name))
    }

    /// Reduction dimension (`k`) a layer's requests must match (stable across
    /// live updates — an update may not change a layer's logical shape).
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::UnknownLayer`] for an unregistered id.
    pub fn layer_k(&self, layer: usize) -> Result<usize, ServingError> {
        self.layer(layer).map(|l| l.weights.cols())
    }

    /// Output row count (`m`) of a layer (stable across live updates).
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::UnknownLayer`] for an unregistered id.
    pub fn layer_m(&self, layer: usize) -> Result<usize, ServingError> {
        self.layer(layer).map(|l| l.weights.rows())
    }

    /// A snapshot of the layer's **currently published** weights (the
    /// cold-oracle operand). Returned by value: under live updates a borrow
    /// into the registry could outlive the version it came from.
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::UnknownLayer`] for an unregistered id.
    pub fn layer_weights(&self, layer: usize) -> Result<ShflBwMatrix, ServingError> {
        self.layer(layer).map(|l| l.weights.clone())
    }

    /// The currently published weight version of a layer (0 at registration,
    /// bumped by every published update including rollbacks).
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::UnknownLayer`] for an unregistered id.
    pub fn layer_version(&self, layer: usize) -> Result<u64, ServingError> {
        self.layer(layer).map(|l| l.version)
    }

    /// Clones the layer's current snapshot out of its slot — the one point
    /// every execute observes a version at. O(1): an `RwLock` read plus an
    /// `Arc` clone.
    fn layer(&self, layer: usize) -> Result<Arc<LayerState>, ServingError> {
        self.layers
            .get(layer)
            .map(|slot| Arc::clone(&slot.read().expect("layer slot poisoned")))
            .ok_or(ServingError::UnknownLayer { layer })
    }

    /// Plan-cache hit / miss / eviction counters.
    pub fn cache_stats(&self) -> PlanCacheStats {
        self.cache.stats()
    }

    /// The underlying plan cache (capacity, residency, footprint).
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Cumulative request / column / sweep / panel-traffic counters.
    pub fn stats(&self) -> ServingStats {
        let mut stats = *self.stats.lock().expect("serving stats poisoned");
        stats.panel_bytes_read = self.panel_traffic.bytes();
        stats
    }

    /// Packed-panel bytes streamed so far by this engine's executions (one
    /// [`SpmmPlan::panel_sweep_bytes`] charge per panel sweep).
    pub fn panel_bytes_read(&self) -> u64 {
        self.panel_traffic.bytes()
    }

    /// Cumulative live-update counters: swaps, rollbacks, failed updates,
    /// delta re-pack vs full-rebuild bytes, and stale-plan executes.
    pub fn update_stats(&self) -> UpdateStats {
        let mut stats = *self.update_stats.lock().expect("update stats poisoned");
        stats.repack_bytes = self.repack_traffic.bytes();
        stats.rebuild_bytes = self.rebuild_traffic.bytes();
        stats.stale_plan_executes = self.stale_executes.load(Ordering::SeqCst);
        stats
    }

    /// Pre-builds the layer's plan outside the latency path (e.g. at
    /// deployment time). Every width sweeps the same plan, so the width
    /// `_n` does not matter: warming one width warms them all.
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::UnknownLayer`] for an unregistered id,
    /// [`ServingError::Kernel`] if the plan cannot be built.
    pub fn warm(&self, layer: usize, _n: usize) -> Result<(), ServingError> {
        let entry = self.layer(layer)?;
        self.layer_plan(layer, &entry)
            .map(|_| ())
            .map_err(ServingError::Kernel)
    }

    /// Packed-panel bytes **one** sweep over a layer's weight panels streams
    /// — what every execute of that layer charges to
    /// [`ServingStats::panel_bytes_read`], and the unit the benchmark's
    /// panel gate compares against.
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::UnknownLayer`] for an unregistered id,
    /// [`ServingError::Kernel`] if the layer's plan cannot be built.
    pub fn layer_panel_sweep_bytes(&self, layer: usize) -> Result<u64, ServingError> {
        let entry = self.layer(layer)?;
        let plan = self
            .layer_plan(layer, &entry)
            .map_err(ServingError::Kernel)?;
        Ok(plan.panel_sweep_bytes())
    }

    /// The cached plan of one `(layer, version)`, built on a cold miss
    /// against the snapshot's weights at the probe width. Concurrent cold
    /// misses on the same key share one build through the cache's in-flight
    /// slot — keys carry the version, so a waiter on one version can never
    /// receive another version's plan. A *failed* build surfaces its error
    /// to the builder **and every waiter** (the cache broadcasts the failure
    /// rather than electing a retrier, so a deterministically failing build
    /// cannot livelock the worker pool), and the next fresh request starts a
    /// new build.
    fn layer_plan(&self, layer: usize, entry: &LayerState) -> KernelResult<Arc<SpmmPlan>> {
        self.cache
            .get_or_build(PlanKey::new(layer, entry.version), || {
                Ok(SpmmPlan::shfl_bw(
                    &self.arch,
                    &entry.weights,
                    self.policy.max_bucket(),
                ))
            })
    }

    /// The modeled GPU time (µs) of one execute over `n` activation columns:
    /// the analytical profile of one exact-width launch — packed
    /// weight-panel traffic, metadata and launch overhead charged **once**,
    /// FLOPs and activation/output traffic charged per column. An
    /// exact-width cold execute of the same operand reports the same time.
    ///
    /// Profiles are memoised per `(layer, version, n)` — the profile walks
    /// the layer's group structure, which is cheap next to the execute
    /// itself but worth skipping for the repeated widths of a serving trace.
    /// The version in the key keeps a post-update profile from serving a
    /// pre-update request (and vice versa); stale versions are pruned at
    /// publish.
    fn fused_modeled_us(&self, layer: usize, entry: &LayerState, n: usize) -> f64 {
        let mut memo = self
            .fused_profile_us
            .lock()
            .expect("fused profile memo poisoned");
        *memo.entry((layer, entry.version, n)).or_insert_with(|| {
            shfl_kernels::spmm::shfl_bw_spmm_profile(&self.arch, &entry.weights, n).time_us()
        })
    }

    /// After a serving execute completes on `snapshot_version`, records
    /// whether a newer version was published in the meantime — the in-flight
    /// overlap the zero-downtime design allows (the execute still finished
    /// bit-identically on its own version's plan).
    fn note_completed_execute(&self, layer: usize, snapshot_version: u64) {
        if let Some(slot) = self.layers.get(layer) {
            let current = slot.read().expect("layer slot poisoned").version;
            if current > snapshot_version {
                self.stale_executes.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    /// Validates a request against a layer (the shared admission rules of the
    /// served path and the cold oracle — keep them identical, or the
    /// bit-identity comparison between the two paths silently diverges).
    /// Returns the snapshot the whole request will execute against.
    fn validate(
        &self,
        layer: usize,
        activations: &DenseMatrix,
    ) -> Result<Arc<LayerState>, ServingError> {
        let entry = self.layer(layer)?;
        let k = entry.weights.cols();
        if activations.rows() != k {
            return Err(ServingError::KMismatch {
                layer,
                expected: k,
                got: activations.rows(),
            });
        }
        Ok(entry)
    }

    /// Serves one request: `activations` (`k × n`, any `n`) swept in one
    /// pad-free pass over the layer's cached plan. The result is
    /// bit-identical to [`ServingEngine::execute_cold`] on the same operand.
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::UnknownLayer`] or [`ServingError::KMismatch`]
    /// for malformed requests, [`ServingError::Kernel`] if a plan build or
    /// execution fails.
    pub fn execute(
        &self,
        layer: usize,
        activations: &DenseMatrix,
    ) -> Result<DenseMatrix, ServingError> {
        self.execute_profiled(layer, activations)
            .map(|(out, _)| out)
    }

    /// [`ServingEngine::execute`] additionally returning the modeled GPU
    /// time (µs) of the request: the exact-width analytical profile of one
    /// launch over its `n` columns.
    /// This is the one execute path: single requests, coalesced groups
    /// (the server's column-concatenated operands) and decode rounds all
    /// come through here.
    ///
    /// # Errors
    ///
    /// See [`ServingEngine::execute`].
    pub fn execute_profiled(
        &self,
        layer: usize,
        activations: &DenseMatrix,
    ) -> Result<(DenseMatrix, f64), ServingError> {
        let entry = self.validate(layer, activations)?;
        let n = activations.cols();
        let (output, modeled_us) = if n == 0 {
            (DenseMatrix::zeros(entry.weights.rows(), 0), 0.0)
        } else {
            let plan = self
                .layer_plan(layer, &entry)
                .map_err(ServingError::Kernel)?;
            self.panel_traffic.add(plan.panel_sweep_bytes());
            let output = plan
                .execute(activations)
                .map_err(ServingError::Kernel)?
                .output;
            (output, self.fused_modeled_us(layer, &entry, n))
        };
        {
            let mut stats = self.stats.lock().expect("serving stats poisoned");
            stats.requests += 1;
            stats.columns += n as u64;
            stats.fused_sweeps += u64::from(n > 0);
        }
        self.note_completed_execute(layer, entry.version);
        Ok((output, modeled_us))
    }

    /// The oracle: builds a fresh plan for the request's exact width
    /// (bypassing the cache entirely) and executes it — what a serving layer
    /// without a plan cache pays on every call.
    ///
    /// # Errors
    ///
    /// See [`ServingEngine::execute`].
    pub fn execute_cold(
        &self,
        layer: usize,
        activations: &DenseMatrix,
    ) -> Result<DenseMatrix, ServingError> {
        let entry = self.validate(layer, activations)?;
        if activations.cols() == 0 {
            return Ok(DenseMatrix::zeros(entry.weights.rows(), 0));
        }
        let plan = SpmmPlan::shfl_bw(&self.arch, &entry.weights, activations.cols());
        self.panel_traffic.add(plan.panel_sweep_bytes());
        Ok(plan
            .execute(activations)
            .map_err(ServingError::Kernel)?
            .output)
    }

    /// Publishes `new_weights` as the layer's next version **without
    /// stopping traffic**: the candidate plan is built and probe-validated
    /// off to the side, then swapped into the layer's slot atomically.
    /// In-flight executes finish bit-identically on their `Arc`-held old
    /// snapshot; new arrivals observe the new version. A same-pattern
    /// magnitude update carries the resident old-version plan over by
    /// **delta re-pack** ([`SpmmPlan::repack_shfl_bw`]) — only panel payload
    /// bytes are rewritten, measured against the full-rebuild bytes in the
    /// returned [`UpdateReport`] and in [`ServingEngine::update_stats`].
    ///
    /// # Errors
    ///
    /// Any [`UpdateError`] leaves the old version serving, untouched — a
    /// failed update is invisible to traffic.
    pub fn update_layer(
        &self,
        layer: usize,
        new_weights: ShflBwMatrix,
    ) -> Result<UpdateReport, UpdateError> {
        let report = self.publish_update(layer, new_weights, false);
        if report.is_err() {
            self.update_stats
                .lock()
                .expect("update stats poisoned")
                .failed_updates += 1;
        }
        report
    }

    /// Republishes the layer's **previous** version's weights under a fresh
    /// monotone version number (so plan keys stay unambiguous — a rollback
    /// is an update whose payload happens to be the old weights, not a
    /// rewind of the version counter).
    ///
    /// # Errors
    ///
    /// [`UpdateError::NoPreviousVersion`] if the layer was never updated;
    /// otherwise as [`ServingEngine::update_layer`].
    pub fn rollback_layer(&self, layer: usize) -> Result<UpdateReport, UpdateError> {
        let report = self.try_rollback(layer);
        if report.is_err() {
            self.update_stats
                .lock()
                .expect("update stats poisoned")
                .failed_updates += 1;
        }
        report
    }

    fn try_rollback(&self, layer: usize) -> Result<UpdateReport, UpdateError> {
        let cur = self
            .layer(layer)
            .map_err(|_| UpdateError::UnknownLayer { layer })?;
        let prev = cur
            .prev
            .as_ref()
            .ok_or(UpdateError::NoPreviousVersion { layer })?;
        self.publish_update(layer, prev.weights.clone(), true)
    }

    /// The update pipeline: snapshot → shape check → side-build (delta
    /// re-pack or fresh) → probe validation → atomic slot swap → stale-plan
    /// invalidation. The cache and the serving slot are untouched until the
    /// candidate validates, so a failed build or validation is invisible to
    /// traffic and a retry can never observe a poisoned half-built version.
    fn publish_update(
        &self,
        layer: usize,
        new_weights: ShflBwMatrix,
        rollback: bool,
    ) -> Result<UpdateReport, UpdateError> {
        let started = std::time::Instant::now();
        let cur = self
            .layer(layer)
            .map_err(|_| UpdateError::UnknownLayer { layer })?;
        let expected = (cur.weights.rows(), cur.weights.cols());
        let got = (new_weights.rows(), new_weights.cols());
        if expected != got {
            return Err(UpdateError::ShapeMismatch {
                layer,
                expected,
                got,
            });
        }
        let new_version = cur.version + 1;
        let build_err = |source: KernelError| UpdateError::Build {
            layer,
            version: new_version,
            source,
        };
        let delta = cur.weights.same_pattern(&new_weights);
        let probe_width = self.policy.max_bucket();

        // Side-build the candidate plan. Delta path: carry the *resident*
        // old-version plan over by rewriting only its panel payload bytes.
        // Otherwise build it fresh; a panicking build is contained into the
        // typed error instead of unwinding through the update path.
        let mut repack_bytes = 0u64;
        let repacked = delta && self.cache.contains(PlanKey::new(layer, cur.version));
        let candidate = if repacked {
            let old_plan = self.layer_plan(layer, &cur).map_err(build_err)?;
            let (plan, payload_bytes) = old_plan.repack_shfl_bw(&new_weights).map_err(build_err)?;
            repack_bytes = payload_bytes as u64;
            plan
        } else {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                SpmmPlan::shfl_bw(&self.arch, &new_weights, probe_width)
            }))
            .map_err(|payload| {
                build_err(KernelError::BuildPanicked {
                    context: panic_message(payload.as_ref()),
                })
            })?
        };
        // What a full rebuild moves (for a repacked plan: would have moved).
        let rebuild_bytes = candidate.packed_bytes() as u64;

        // Probe validation: smoke-execute the candidate against a held-out
        // deterministic activation and require bit-identity with a cold
        // oracle plan built directly from the new weights.
        let probe = DenseMatrix::from_fn(got.1, probe_width, |r, c| {
            ((r * 31 + c * 17) % 13) as f32 * 0.25 - 1.5
        });
        let candidate_out = candidate.execute(&probe).map_err(build_err)?.output;
        let oracle_out = SpmmPlan::shfl_bw(&self.arch, &new_weights, probe_width)
            .execute(&probe)
            .map_err(build_err)?
            .output;
        let bitwise_equal = candidate_out.shape() == oracle_out.shape()
            && candidate_out
                .as_slice()
                .iter()
                .zip(oracle_out.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !bitwise_equal {
            return Err(UpdateError::Validation {
                layer,
                version: new_version,
                context: "probe output diverges bitwise from the cold oracle of the new weights"
                    .to_string(),
            });
        }

        // Atomic publish: one slot swap. A concurrent update that published
        // first is a conflict — never silently clobber a version.
        let new_state = Arc::new(LayerState {
            name: cur.name.clone(),
            version: new_version,
            weights: new_weights,
            prev: Some(Arc::clone(&cur)),
        });
        {
            let slot = self
                .layers
                .get(layer)
                .ok_or(UpdateError::UnknownLayer { layer })?;
            let mut guard = slot.write().expect("layer slot poisoned");
            if guard.version != cur.version {
                return Err(UpdateError::Conflict { layer });
            }
            *guard = Arc::clone(&new_state);
        }

        // Seed the cache with the validated candidate under the new
        // version's key (moved in, not copied; a racing new-version arrival
        // shares it instead of rebuilding), then drop the stale versions'
        // plans. In-flight executes holding old `Arc`s are unaffected.
        let _ = self
            .cache
            .get_or_build(PlanKey::new(layer, new_version), || Ok(candidate));
        let invalidated = self.cache.invalidate_layer_below(layer, new_version);
        self.fused_profile_us
            .lock()
            .expect("fused profile memo poisoned")
            .retain(|(l, v, _), _| *l != layer || *v >= new_version);

        self.repack_traffic.add(repack_bytes);
        self.rebuild_traffic.add(rebuild_bytes);
        let (repacked_plans, rebuilt_plans) = (u64::from(repacked), u64::from(!repacked));
        {
            let mut stats = self.update_stats.lock().expect("update stats poisoned");
            stats.swaps += 1;
            if rollback {
                stats.rollbacks += 1;
            }
            stats.repacked_plans += repacked_plans;
            stats.rebuilt_plans += rebuilt_plans;
        }

        Ok(UpdateReport {
            layer,
            version: new_version,
            delta_repacked: delta,
            repacked_plans,
            rebuilt_plans,
            repack_bytes,
            rebuild_bytes,
            invalidated_plans: invalidated,
            swap_ms: started.elapsed().as_secs_f64() * 1e3,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_engine(max_bucket: usize) -> (ServingEngine, usize) {
        let dense = DenseMatrix::from_fn(16, 24, |r, c| {
            if (c + r / 4) % 3 == 0 {
                0.25 + (r * 24 + c) as f32 * 0.01
            } else {
                0.0
            }
        });
        let weights = ShflBwMatrix::from_dense(&dense, 4).unwrap();
        let mut engine = ServingEngine::new(
            GpuArch::v100(),
            BucketPolicy::new(8, max_bucket).unwrap(),
            8,
        );
        let id = engine.register_layer("test", weights);
        (engine, id)
    }

    #[test]
    fn rejects_unknown_layers_and_k_mismatch_with_typed_errors() {
        let (engine, id) = test_engine(32);
        let acts = DenseMatrix::zeros(24, 4);
        assert_eq!(
            engine.execute(id + 1, &acts).unwrap_err(),
            ServingError::UnknownLayer { layer: id + 1 }
        );
        let bad = DenseMatrix::zeros(23, 4);
        assert_eq!(
            engine.execute(id, &bad).unwrap_err(),
            ServingError::KMismatch {
                layer: id,
                expected: 24,
                got: 23
            }
        );
        assert!(engine.execute_cold(id, &bad).is_err());
        assert!(engine.layer_k(99).is_err());
    }

    #[test]
    fn empty_requests_yield_empty_outputs() {
        let (engine, id) = test_engine(32);
        let out = engine.execute(id, &DenseMatrix::zeros(24, 0)).unwrap();
        assert_eq!(out.shape(), (16, 0));
        let cold = engine.execute_cold(id, &DenseMatrix::zeros(24, 0)).unwrap();
        assert_eq!(cold.shape(), (16, 0));
    }

    #[test]
    fn repeated_widths_hit_the_cache() {
        let (engine, id) = test_engine(32);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..4 {
            for n in [3, 9, 17, 40] {
                let acts = DenseMatrix::random(&mut rng, 24, n);
                engine.execute(id, &acts).unwrap();
            }
        }
        let stats = engine.cache_stats();
        // One plan serves every width: built once, hit on every later call.
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 15);
        assert_eq!(engine.cache().len(), 1);
        let serving = engine.stats();
        assert_eq!(serving.requests, 16);
        assert_eq!(serving.columns, 4 * (3 + 9 + 17 + 40));
        assert_eq!(serving.padded_columns, 0);
    }

    #[test]
    fn warm_prebuilds_the_buckets() {
        let (engine, id) = test_engine(16);
        // Warming any width builds the layer's one plan; every other width
        // then hits it.
        engine.warm(id, 40).unwrap();
        engine.warm(id, 3).unwrap();
        let stats = engine.cache_stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
        let mut rng = StdRng::seed_from_u64(13);
        let acts = DenseMatrix::random(&mut rng, 24, 40);
        engine.execute(id, &acts).unwrap();
        assert_eq!(engine.cache_stats().misses, 1);
        assert_eq!(engine.cache_stats().hits, 2);
        assert_eq!(engine.stats().fused_sweeps, 1);
        assert!(engine.warm(id + 1, 8).is_err());
    }

    #[test]
    fn panel_bytes_count_one_sweep_per_fused_request_and_per_segment_unfused() {
        let (engine, id) = test_engine(16);
        let sweep = engine.layer_panel_sweep_bytes(id).unwrap();
        assert!(sweep > 0);
        let before = engine.panel_bytes_read();
        let mut rng = StdRng::seed_from_u64(23);
        // Every execute is one sweep, whether it is narrower or four times
        // wider than the policy's largest bucket; an empty one sweeps
        // nothing.
        for (i, n) in [70, 5, 16].into_iter().enumerate() {
            let acts = DenseMatrix::random(&mut rng, 24, n);
            engine.execute(id, &acts).unwrap();
            assert_eq!(engine.panel_bytes_read() - before, (i as u64 + 1) * sweep);
        }
        engine.execute(id, &DenseMatrix::zeros(24, 0)).unwrap();
        assert_eq!(engine.panel_bytes_read() - before, 3 * sweep);
        let stats = engine.stats();
        assert_eq!(stats.panel_bytes_read, engine.panel_bytes_read());
        assert_eq!((stats.requests, stats.fused_sweeps), (4, 3));
    }

    #[test]
    fn group_execution_is_pad_free_and_bit_identical() {
        let (engine, id) = test_engine(32);
        let mut rng = StdRng::seed_from_u64(37);
        // Narrower than, equal to and wider than the largest bucket: each
        // is one pad-free sweep, bit-identical to the exact-width oracle.
        for n in [20, 32, 45] {
            let acts = DenseMatrix::random(&mut rng, 24, n);
            let before = engine.stats();
            let (out, us) = engine.execute_profiled(id, &acts).unwrap();
            let after = engine.stats();
            assert!(us > 0.0);
            assert_eq!(after.padded_columns, 0);
            assert_eq!(after.fused_sweeps, before.fused_sweeps + 1);
            assert_eq!(out, engine.execute_cold(id, &acts).unwrap(), "n={n}");
        }
    }

    #[test]
    fn fused_modeled_time_charges_the_weight_sweep_once() {
        let (engine, id) = test_engine(16);
        let mut rng = StdRng::seed_from_u64(29);
        // 70 columns, over four times the policy's largest bucket.
        let n = 70;
        let acts = DenseMatrix::random(&mut rng, 24, n);
        let (_, fused_us) = engine.execute_profiled(id, &acts).unwrap();
        // The honest estimate is the exact-width analytical launch (weights
        // and launch overhead once, compute per real column) — the same
        // number an exact-width cold execute of this operand reports.
        let exact = shfl_kernels::spmm::shfl_bw_spmm_profile(
            engine.arch(),
            &engine.layer_weights(id).unwrap(),
            n,
        )
        .time_us();
        assert!(fused_us > 0.0);
        assert!((fused_us - exact).abs() < 1e-9);
        // Strictly below the historical linear scaling of the largest-bucket
        // launch, which re-scaled the one-time panel sweep and the fixed
        // launch overhead by n / max_bucket.
        let bucket_us = shfl_kernels::spmm::shfl_bw_spmm_profile(
            engine.arch(),
            &engine.layer_weights(id).unwrap(),
            16,
        )
        .time_us();
        assert!(fused_us < bucket_us * (n as f64 / 16.0));
        // Repeating the width hits the memo and reports the same time.
        let (_, again) = engine.execute_profiled(id, &acts).unwrap();
        assert_eq!(again, fused_us);
        // A narrow width reports its own exact-width profile too, not the
        // launch of a wider bucket.
        let narrow = DenseMatrix::random(&mut rng, 24, 5);
        let (_, narrow_us) = engine.execute_profiled(id, &narrow).unwrap();
        let exact = shfl_kernels::spmm::shfl_bw_spmm_profile(
            engine.arch(),
            &engine.layer_weights(id).unwrap(),
            5,
        )
        .time_us();
        assert_eq!(narrow_us, exact);
    }

    #[test]
    fn profiled_execution_reports_modeled_time() {
        let (engine, id) = test_engine(32);
        let mut rng = StdRng::seed_from_u64(17);
        let acts = DenseMatrix::random(&mut rng, 24, 12);
        let (out, us) = engine.execute_profiled(id, &acts).unwrap();
        assert_eq!(out.shape(), (16, 12));
        assert!(us > 0.0);
    }

    /// Same sparsity pattern, scaled magnitudes — the delta re-pack payload.
    fn scaled_update(weights: &ShflBwMatrix, factor: f32) -> ShflBwMatrix {
        let vw = weights.vector_wise();
        let values: Vec<f32> = vw.values().iter().map(|x| x * factor).collect();
        let inner = shfl_core::formats::VectorWiseMatrix::from_parts(
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

    #[test]
    fn magnitude_update_takes_the_delta_repack_path_and_stays_bit_identical() {
        let (engine, id) = test_engine(32);
        let mut rng = StdRng::seed_from_u64(41);
        let acts = DenseMatrix::random(&mut rng, 24, 20);
        // Build the layer's plan so the update has a resident plan to carry
        // over.
        let old_out = engine.execute(id, &acts).unwrap();
        assert_eq!(engine.layer_version(id).unwrap(), 0);

        let update = scaled_update(&engine.layer_weights(id).unwrap(), -0.5);
        let report = engine.update_layer(id, update.clone()).unwrap();
        assert_eq!(report.version, 1);
        assert!(report.delta_repacked);
        assert_eq!((report.repacked_plans, report.rebuilt_plans), (1, 0));
        assert!(report.repack_bytes > 0);
        // Delta re-pack moves strictly fewer bytes than a full rebuild.
        assert!(report.repack_bytes < report.rebuild_bytes);
        assert_eq!(report.invalidated_plans, 1);
        assert!(report.swap_ms >= 0.0);
        assert_eq!(engine.layer_version(id).unwrap(), 1);

        // Post-swap output is bit-identical to a cold oracle of the new
        // weights, and differs from the old version's output.
        let new_out = engine.execute(id, &acts).unwrap();
        let oracle = SpmmPlan::shfl_bw(engine.arch(), &update, 20)
            .execute(&acts)
            .unwrap()
            .output;
        assert_eq!(new_out, oracle);
        assert_ne!(new_out, old_out);

        let stats = engine.update_stats();
        assert_eq!(stats.swaps, 1);
        assert_eq!(stats.failed_updates, 0);
        assert_eq!(stats.repacked_plans, report.repacked_plans);
        assert!(stats.repack_bytes < stats.rebuild_bytes);
    }

    #[test]
    fn failed_updates_leave_the_old_version_serving() {
        let (engine, id) = test_engine(32);
        let mut rng = StdRng::seed_from_u64(43);
        let acts = DenseMatrix::random(&mut rng, 24, 12);
        let before = engine.execute(id, &acts).unwrap();

        // A shape change cannot be swapped in live.
        let wrong_shape = ShflBwMatrix::from_dense(
            &DenseMatrix::from_fn(16, 32, |r, c| if (c + r / 4) % 3 == 0 { 1.0 } else { 0.0 }),
            4,
        )
        .unwrap();
        let err = engine.update_layer(id, wrong_shape).unwrap_err();
        assert!(matches!(
            err,
            UpdateError::ShapeMismatch {
                expected: (16, 24),
                got: (16, 32),
                ..
            }
        ));
        // Unknown layers are typed errors too.
        let other = engine.layer_weights(id).unwrap();
        assert!(matches!(
            engine.update_layer(id + 7, other).unwrap_err(),
            UpdateError::UnknownLayer { .. }
        ));

        assert_eq!(engine.layer_version(id).unwrap(), 0);
        assert_eq!(engine.execute(id, &acts).unwrap(), before);
        let stats = engine.update_stats();
        assert_eq!(stats.swaps, 0);
        assert_eq!(stats.failed_updates, 2);
    }

    #[test]
    fn rollback_republishes_the_previous_weights_under_a_fresh_version() {
        let (engine, id) = test_engine(32);
        let mut rng = StdRng::seed_from_u64(47);
        let acts = DenseMatrix::random(&mut rng, 24, 16);
        let v0_out = engine.execute(id, &acts).unwrap();

        // No history yet: rollback is a typed failure.
        assert!(matches!(
            engine.rollback_layer(id).unwrap_err(),
            UpdateError::NoPreviousVersion { .. }
        ));

        let update = scaled_update(&engine.layer_weights(id).unwrap(), 2.0);
        engine.update_layer(id, update).unwrap();
        let v1_out = engine.execute(id, &acts).unwrap();
        assert_ne!(v1_out, v0_out);

        // Rollback restores version-0 *weights* under version 2.
        let report = engine.rollback_layer(id).unwrap();
        assert_eq!(report.version, 2);
        assert_eq!(engine.layer_version(id).unwrap(), 2);
        assert_eq!(engine.execute(id, &acts).unwrap(), v0_out);
        let stats = engine.update_stats();
        assert_eq!(stats.swaps, 2);
        assert_eq!(stats.rollbacks, 1);
        assert_eq!(stats.failed_updates, 1);
    }

    #[test]
    fn in_flight_snapshots_survive_an_update_and_count_stale_executes() {
        let (engine, id) = test_engine(32);
        let mut rng = StdRng::seed_from_u64(53);
        let acts = DenseMatrix::random(&mut rng, 24, 32);
        engine.execute(id, &acts).unwrap();

        // Snapshot the old version the way an in-flight execute does, then
        // publish an update "under" it.
        let old_entry = engine.layer(id).unwrap();
        let old_plan = engine.layer_plan(id, &old_entry).unwrap();
        let update = scaled_update(&engine.layer_weights(id).unwrap(), 3.0);
        engine.update_layer(id, update).unwrap();

        // The Arc-held old plan still executes, bit-identical to the old
        // version's cold oracle, even though the cache invalidated it.
        let old_oracle = SpmmPlan::shfl_bw(engine.arch(), &old_entry.weights, 32)
            .execute(&acts)
            .unwrap()
            .output;
        assert_eq!(old_plan.execute(&acts).unwrap().output, old_oracle);

        // Completing an execute whose snapshot predates the publish counts
        // as a stale-plan execute.
        assert_eq!(engine.update_stats().stale_plan_executes, 0);
        engine.note_completed_execute(id, old_entry.version);
        assert_eq!(engine.update_stats().stale_plan_executes, 1);

        // New arrivals see the new version and match its oracle.
        let new_out = engine.execute(id, &acts).unwrap();
        let new_oracle = engine.execute_cold(id, &acts).unwrap();
        assert_eq!(new_out, new_oracle);
        assert_ne!(new_out, old_oracle);
    }

    #[test]
    fn update_errors_display_and_chain_their_kernel_source() {
        let err = UpdateError::Build {
            layer: 3,
            version: 7,
            source: KernelError::ShapeMismatch {
                context: "injected".to_string(),
            },
        };
        assert!(err.to_string().contains("layer 3 version 7"));
        let source = std::error::Error::source(&err).expect("build errors chain their source");
        assert!(source.to_string().contains("injected"));
        assert!(std::error::Error::source(&UpdateError::Conflict { layer: 1 }).is_none());
    }
}
