//! The plan cache of the serving stack.
//!
//! A serving engine runs many layers. Building a plan
//! ([`crate::plan::SpmmPlan`]) is the expensive one-time phase — fp16
//! rounding, tile transposition, launch / profile resolution — so the
//! serving layer keeps **one** built plan per `(layer, version)` and sweeps
//! every request of that weight version on it, at any activation width (the
//! packed panels do not depend on the width). [`PlanCache`] owns that
//! mapping:
//!
//! * **keying** — [`PlanKey`] is `(layer id, layer version)`, plus the batch
//!   for implicit-GEMM conv plans ([`PlanKey::conv`]); the layer id is
//!   assigned by the caller (the serving engine's registration order) and the
//!   version is bumped by live weight updates, so plans of different weight
//!   versions of one layer never alias. Version-keyed slots also scope the
//!   stampede dedup: a thread waiting on a v1 build can never be handed a v2
//!   plan,
//! * **invalidation** — a published weight update calls
//!   [`PlanCache::invalidate_layer_below`] to drop the layer's stale-version
//!   plans from residency (with exact `resident_bytes` accounting). Eviction
//!   is non-blocking for in-flight work: executes still holding the old
//!   `Arc<SpmmPlan>` finish bit-identically on it; the cache merely stops
//!   handing it out. A stale-version build already in flight is left to
//!   complete — its entry can never be looked up again (new arrivals key by
//!   the new version) and ages out through the normal LRU path,
//! * **sharing** — cached plans are handed out as `Arc<SpmmPlan>`; plans are
//!   `Sync` (no interior mutability), so one plan serves any number of
//!   concurrent worker threads,
//! * **eviction** — least-recently-used beyond a fixed plan count **and**
//!   beyond an optional byte budget ([`PlanCache::with_byte_budget`]): plans
//!   differ by orders of magnitude in resident size (GNMT's 32000×1024
//!   softmax packs ~50 MB while a decode GEMM packs kilobytes), so counting
//!   capacity in plans alone lets one huge layer crowd out everything else,
//! * **accounting** — hits / misses / evictions / shared builds and the
//!   resident packed bytes, the numbers the serving benchmark gates on
//!   (`repro --bench-serving` fails the run when the miss rate regresses).
//!
//! Misses build **outside** the cache lock, so a cold build never blocks
//! lookups of other keys. Concurrent misses on the **same** cold key are
//! deduplicated: the first thread registers an in-flight build slot and
//! builds; later threads wait on the slot and share the winner's plan
//! instead of paying a redundant build (the cold-miss stampede a serving
//! engine sees when a burst of identical requests lands on an empty cache).
//! A failed build **broadcasts its error to every waiter** — a build that
//! fails deterministically would otherwise livelock the waiters through an
//! elect-a-retrier loop, each retry failing identically while the rest spin.
//! The failed slot is removed before the waiters wake, so a *later* lookup
//! (a genuinely new attempt, e.g. after the caller fixed the operands)
//! starts a fresh build. A build that panics resolves the slot with the
//! typed [`KernelError::BuildPanicked`](crate::KernelError::BuildPanicked)
//! for the waiters and re-raises the panic on the builder's own thread.
//! Serving traffic is hit-dominated by design (one plan per layer version),
//! so the lock is held for nanoseconds on the common path.

use crate::conv_plan::ImplicitConvPlan;
use crate::plan::SpmmPlan;
use crate::profile::{KernelError, KernelResult};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// Cache key: a layer's one SpMM plan per weight version, or its
/// implicit-GEMM conv plan per `(version, batch)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Caller-assigned layer id (registration order in the serving engine).
    pub layer: usize,
    /// Caller-assigned weight version of the layer (bumped by live updates);
    /// plans of different versions never alias, and in-flight build slots are
    /// scoped to one version.
    pub version: u64,
    /// `Some(batch)` for an implicit-GEMM conv plan, which bakes the batch
    /// into its transform geometry; `None` for the layer's SpMM plan, which
    /// serves every activation width.
    pub conv_batch: Option<usize>,
}

impl PlanKey {
    /// Key of the one SpMM plan of `layer` at `version`.
    pub fn new(layer: usize, version: u64) -> Self {
        PlanKey {
            layer,
            version,
            conv_batch: None,
        }
    }

    /// Key for an implicit-GEMM conv plan ([`ImplicitConvPlan`]) of `layer`
    /// at `batch`. Conv keys share the layer/version fields, so
    /// [`PlanCache::invalidate_layer_below`] covers both kinds.
    pub fn conv(layer: usize, version: u64, batch: usize) -> Self {
        PlanKey {
            layer,
            version,
            conv_batch: Some(batch),
        }
    }
}

/// Cumulative cache counters (monotonic across the cache's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served by an already-resident plan.
    pub hits: u64,
    /// Lookups that were not served by a resident plan (a build was started,
    /// or joined — see [`PlanCacheStats::shared_builds`]).
    pub misses: u64,
    /// Plans evicted to make room (plan-count capacity or byte budget).
    pub evictions: u64,
    /// Misses that joined an in-flight build of the same key instead of
    /// building redundantly (each one is a build the stampede dedup saved).
    pub shared_builds: u64,
    /// Stale-version plans dropped by [`PlanCache::invalidate_layer_below`]
    /// (counted separately from capacity/byte-budget `evictions`).
    pub invalidations: u64,
}

impl PlanCacheStats {
    /// Fraction of lookups served from the cache (1.0 when there were none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Fraction of lookups that built a plan (`1 - hit_rate`).
    pub fn miss_rate(&self) -> f64 {
        1.0 - self.hit_rate()
    }
}

/// A resident plan of either kind: the SpMM plans the GEMM layers ride, or
/// the implicit-GEMM conv plans (keyed with
/// [`PlanKey::conv`]). Both report the resident bytes the byte budget
/// accounts — for conv plans that includes the pre-sized transform scratch,
/// so eviction sees them at true size.
#[derive(Clone)]
enum CachedPlan {
    Spmm(Arc<SpmmPlan>),
    Conv(Arc<ImplicitConvPlan>),
}

impl CachedPlan {
    fn packed_bytes(&self) -> usize {
        match self {
            CachedPlan::Spmm(plan) => plan.packed_bytes(),
            CachedPlan::Conv(plan) => plan.packed_bytes(),
        }
    }

    /// The key flavor this plan must be cached under — a same-key lookup of
    /// the other flavor is a caller bug surfaced as a typed error.
    fn flavor(&self) -> &'static str {
        match self {
            CachedPlan::Spmm(_) => "spmm",
            CachedPlan::Conv(_) => "conv",
        }
    }
}

/// One resident plan plus its last-touched stamp.
struct CacheEntry {
    plan: CachedPlan,
    last_used: u64,
}

/// The outcome slot of one in-flight build that concurrent same-key misses
/// wait on.
enum BuildState {
    Pending,
    Done(CachedPlan),
    /// The build failed; every waiter receives a clone of the error instead
    /// of electing a retrier (a deterministic failure would livelock the
    /// election loop).
    Failed(KernelError),
}

struct BuildSlot {
    state: Mutex<BuildState>,
    ready: Condvar,
}

impl BuildSlot {
    fn new() -> Self {
        BuildSlot {
            state: Mutex::new(BuildState::Pending),
            ready: Condvar::new(),
        }
    }

    fn resolve(&self, state: BuildState) {
        *self.state.lock().expect("build slot poisoned") = state;
        self.ready.notify_all();
    }
}

struct CacheInner {
    entries: HashMap<PlanKey, CacheEntry>,
    /// In-flight cold builds; same-key misses join these instead of building.
    building: HashMap<PlanKey, Arc<BuildSlot>>,
    /// Packed bytes of the resident plans (kept incrementally so byte-budget
    /// admission is O(1) per lookup).
    resident_bytes: usize,
    /// Logical clock advanced on every lookup; entries stamp it on touch.
    tick: u64,
    stats: PlanCacheStats,
}

/// An LRU cache of prepared [`SpmmPlan`]s keyed by `(layer, version)` (and
/// of [`ImplicitConvPlan`]s keyed by `(layer, version, batch)`).
///
/// All methods take `&self`; the cache is internally synchronised so a
/// `PlanCache` shared behind an `Arc` (or borrowed across scoped worker
/// threads) serves concurrent lookups.
pub struct PlanCache {
    capacity: usize,
    /// Resident packed bytes beyond which LRU plans are evicted
    /// (`usize::MAX` when the cache is capacity-bounded only).
    byte_budget: usize,
    inner: Mutex<CacheInner>,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("stats", &stats)
            .finish()
    }
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` plans (minimum 1), with no
    /// byte budget.
    pub fn new(capacity: usize) -> Self {
        Self::with_byte_budget(capacity, usize::MAX)
    }

    /// Creates a cache bounded by **both** a plan count and a resident-bytes
    /// budget: beyond either limit the least-recently-used plan is evicted.
    /// The budget counts [`SpmmPlan::packed_bytes`] — dominated by the packed
    /// weight panels — so one huge layer (GNMT's 32000×1024 softmax) can no
    /// longer crowd a mixed workload out of a plan-counted cache. A single
    /// plan larger than the whole budget is still admitted (the alternative
    /// is never serving that layer warm); it then evicts everything else.
    pub fn with_byte_budget(capacity: usize, byte_budget: usize) -> Self {
        PlanCache {
            capacity: capacity.max(1),
            byte_budget,
            inner: Mutex::new(CacheInner {
                entries: HashMap::new(),
                building: HashMap::new(),
                resident_bytes: 0,
                tick: 0,
                stats: PlanCacheStats::default(),
            }),
        }
    }

    /// Maximum number of resident plans.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resident-bytes budget (`usize::MAX` when capacity-bounded only).
    pub fn byte_budget(&self) -> usize {
        self.byte_budget
    }

    /// Number of currently resident plans.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("plan cache poisoned")
            .entries
            .len()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative hit / miss / eviction counters.
    pub fn stats(&self) -> PlanCacheStats {
        self.inner.lock().expect("plan cache poisoned").stats
    }

    /// Total packed bytes of the resident plans (the cache's memory
    /// footprint, dominated by the packed weight panels; maintained
    /// incrementally, so this is O(1)).
    pub fn resident_bytes(&self) -> usize {
        self.inner
            .lock()
            .expect("plan cache poisoned")
            .resident_bytes
    }

    /// Evicts least-recently-used plans until the cache respects both the
    /// plan-count capacity and the byte budget; the most-recently-inserted
    /// plan (the caller's) is never evicted, so at least one plan survives.
    fn evict_to_limits(&self, inner: &mut CacheInner) {
        while inner.entries.len() > 1
            && (inner.entries.len() > self.capacity || inner.resident_bytes > self.byte_budget)
        {
            let Some(lru) = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            else {
                return;
            };
            if let Some(evicted) = inner.entries.remove(&lru) {
                inner.resident_bytes -= evicted.plan.packed_bytes();
                inner.stats.evictions += 1;
            }
        }
    }

    /// Returns the plan for `key`, building it with `build` on a cold miss.
    /// Least-recently-used plans are evicted beyond the plan-count capacity
    /// or the byte budget.
    ///
    /// The build runs **outside** the cache lock, so a cold miss never blocks
    /// concurrent lookups of other keys. Threads missing
    /// the *same* cold key do not stampede: the first registers an in-flight
    /// build slot and builds, the rest wait on the slot and share the
    /// winner's plan (counted in [`PlanCacheStats::shared_builds`]). If the
    /// build fails, **every** waiter receives the error: a deterministic
    /// failure surfaces immediately at each caller instead of livelocking an
    /// elect-a-retrier loop, and the slot is gone before the waiters wake, so
    /// the next *fresh* lookup of the key starts a new build.
    ///
    /// # Errors
    ///
    /// Propagates the error of `build` (nothing is inserted on failure) — to
    /// the builder and to every thread that joined the failed in-flight
    /// build. A panicking build unwinds the builder and fails the joiners
    /// with [`KernelError::BuildPanicked`].
    pub fn get_or_build(
        &self,
        key: PlanKey,
        build: impl FnOnce() -> KernelResult<SpmmPlan>,
    ) -> KernelResult<Arc<SpmmPlan>> {
        match self.get_or_build_any(key, || Ok(CachedPlan::Spmm(Arc::new(build()?))))? {
            CachedPlan::Spmm(plan) => Ok(plan),
            other => Err(KernelError::ShapeMismatch {
                context: format!(
                    "plan cache key {key:?} holds a {} plan but an SpMM plan was requested",
                    other.flavor()
                ),
            }),
        }
    }

    /// [`PlanCache::get_or_build`] for implicit-GEMM conv plans
    /// ([`ImplicitConvPlan`]), keyed with [`PlanKey::conv`] so conv and SpMM
    /// plans of one layer never alias. Shares the same residency, LRU /
    /// byte-budget eviction, stampede dedup and invalidation machinery; the
    /// byte budget charges [`ImplicitConvPlan::packed_bytes`], which includes
    /// the plan's pre-sized transform scratch.
    ///
    /// # Errors
    ///
    /// Propagates the error of `build` exactly like
    /// [`PlanCache::get_or_build`].
    pub fn get_or_build_conv(
        &self,
        key: PlanKey,
        build: impl FnOnce() -> KernelResult<ImplicitConvPlan>,
    ) -> KernelResult<Arc<ImplicitConvPlan>> {
        match self.get_or_build_any(key, || Ok(CachedPlan::Conv(Arc::new(build()?))))? {
            CachedPlan::Conv(plan) => Ok(plan),
            other => Err(KernelError::ShapeMismatch {
                context: format!(
                    "plan cache key {key:?} holds a {} plan but a conv plan was requested",
                    other.flavor()
                ),
            }),
        }
    }

    fn get_or_build_any(
        &self,
        key: PlanKey,
        build: impl FnOnce() -> KernelResult<CachedPlan>,
    ) -> KernelResult<CachedPlan> {
        let waiting_on = {
            let mut inner = self.inner.lock().expect("plan cache poisoned");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.entries.get_mut(&key) {
                entry.last_used = tick;
                let plan = entry.plan.clone();
                inner.stats.hits += 1;
                return Ok(plan);
            }
            // A lookup not served by a resident plan counts as a miss
            // whether this thread builds, joins an in-flight build, or the
            // build fails.
            let join = inner.building.get(&key).map(Arc::clone);
            inner.stats.misses += 1;
            if let Some(slot) = join {
                inner.stats.shared_builds += 1;
                Some(slot)
            } else {
                let slot = Arc::new(BuildSlot::new());
                inner.building.insert(key, Arc::clone(&slot));
                None
            }
        };

        let Some(slot) = waiting_on else {
            // This thread owns the build. Build outside the cache lock, then
            // publish the outcome to the cache and the slot waiters. A
            // panicking build must still clear the in-flight slot and wake
            // the waiters (with the typed `BuildPanicked` error) — otherwise
            // every current and future lookup of this key would block on the
            // dead slot forever.
            let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(build));
            let mut inner = self.inner.lock().expect("plan cache poisoned");
            let slot = inner
                .building
                .remove(&key)
                .expect("in-flight slot owned by the builder");
            let built = match built {
                Ok(outcome) => outcome,
                Err(payload) => {
                    drop(inner);
                    let context = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    slot.resolve(BuildState::Failed(KernelError::BuildPanicked { context }));
                    std::panic::resume_unwind(payload);
                }
            };
            match built {
                Ok(plan) => {
                    // Stamp a fresh tick so the new entry is strictly the
                    // most recently used and can never tie with an entry
                    // touched while the build ran.
                    inner.tick += 1;
                    let tick = inner.tick;
                    inner.resident_bytes += plan.packed_bytes();
                    inner.entries.insert(
                        key,
                        CacheEntry {
                            plan: plan.clone(),
                            last_used: tick,
                        },
                    );
                    self.evict_to_limits(&mut inner);
                    drop(inner);
                    slot.resolve(BuildState::Done(plan.clone()));
                    return Ok(plan);
                }
                Err(err) => {
                    drop(inner);
                    slot.resolve(BuildState::Failed(err.clone()));
                    return Err(err);
                }
            }
        };

        // Join the in-flight build instead of paying a redundant one. The
        // slot resolves exactly once: with the winner's plan, or with the
        // build error broadcast to every joiner.
        let mut state = slot.state.lock().expect("build slot poisoned");
        loop {
            match &*state {
                BuildState::Pending => {
                    state = slot.ready.wait(state).expect("build slot poisoned");
                }
                BuildState::Done(plan) => return Ok(plan.clone()),
                BuildState::Failed(err) => return Err(err.clone()),
            }
        }
    }

    /// Whether a plan for `key` is currently resident (does not touch LRU
    /// order or the hit/miss counters).
    pub fn contains(&self, key: PlanKey) -> bool {
        self.inner
            .lock()
            .expect("plan cache poisoned")
            .entries
            .contains_key(&key)
    }

    /// Drops every resident plan of `layer` whose key version is `< version`,
    /// returning the number dropped. Called by the serving engine after a
    /// weight update publishes `version` as the layer's current version.
    ///
    /// `resident_bytes` is decremented by exactly the
    /// [`SpmmPlan::packed_bytes`] of each dropped plan (the same quantity
    /// charged at insert), so the byte accounting stays exact. Dropped plans
    /// are counted in [`PlanCacheStats::invalidations`], not `evictions`.
    ///
    /// Invalidation never blocks in-flight work: executes holding the old
    /// `Arc<SpmmPlan>` keep it alive and finish bit-identically; only the
    /// cache's reference is dropped. In-flight *builds* of stale versions are
    /// not cancelled — their slots resolve normally and the resulting entry,
    /// unreachable under the new version's keys, ages out via LRU (lazy
    /// eviction).
    pub fn invalidate_layer_below(&self, layer: usize, version: u64) -> usize {
        let mut inner = self.inner.lock().expect("plan cache poisoned");
        let stale: Vec<PlanKey> = inner
            .entries
            .keys()
            .filter(|k| k.layer == layer && k.version < version)
            .copied()
            .collect();
        for key in &stale {
            if let Some(dropped) = inner.entries.remove(key) {
                inner.resident_bytes -= dropped.plan.packed_bytes();
                inner.stats.invalidations += 1;
            }
        }
        stale.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::GpuArch;
    use shfl_core::formats::VectorWiseMatrix;
    use shfl_core::matrix::DenseMatrix;

    fn tiny_plan(n: usize) -> KernelResult<SpmmPlan> {
        let dense = DenseMatrix::from_fn(8, 8, |r, c| if (c + r / 2) % 2 == 0 { 1.0 } else { 0.0 });
        let vw = VectorWiseMatrix::from_dense(&dense, 2).expect("vector-wise structure");
        Ok(SpmmPlan::vector_wise(&GpuArch::v100(), &vw, n))
    }

    #[test]
    fn hits_after_first_build() {
        let cache = PlanCache::new(4);
        let key = PlanKey::new(0, 0);
        let a = cache.get_or_build(key, || tiny_plan(16)).unwrap();
        let b = cache.get_or_build(key, || panic!("must hit")).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 0));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
        assert!(cache.resident_bytes() > 0);
    }

    #[test]
    fn evicts_least_recently_used() {
        let cache = PlanCache::new(2);
        let key = |layer| PlanKey::new(layer, 0);
        cache.get_or_build(key(0), || tiny_plan(8)).unwrap();
        cache.get_or_build(key(1), || tiny_plan(8)).unwrap();
        // Touch 0 so 1 becomes the LRU, then insert 2.
        cache.get_or_build(key(0), || panic!("must hit")).unwrap();
        cache.get_or_build(key(2), || tiny_plan(8)).unwrap();
        assert!(cache.contains(key(0)));
        assert!(!cache.contains(key(1)));
        assert!(cache.contains(key(2)));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn build_failure_inserts_nothing() {
        let cache = PlanCache::new(2);
        let key = PlanKey::new(9, 0);
        let err = cache.get_or_build(key, || {
            Err(crate::KernelError::ShapeMismatch {
                context: "synthetic".into(),
            })
        });
        assert!(err.is_err());
        assert!(!cache.contains(key));
        // The failed lookup still counts as a miss.
        assert_eq!(cache.stats().misses, 1);
        assert!(cache.is_empty());
    }

    /// A plan over an `m × k` dense operand; packed bytes scale with `m·k`.
    fn sized_plan(m: usize, k: usize, n: usize) -> KernelResult<SpmmPlan> {
        let dense = DenseMatrix::from_fn(m, k, |r, c| if (c + r / 2) % 2 == 0 { 1.0 } else { 0.0 });
        let vw = VectorWiseMatrix::from_dense(&dense, 2).expect("vector-wise structure");
        Ok(SpmmPlan::vector_wise(&GpuArch::v100(), &vw, n))
    }

    #[test]
    fn byte_budget_evicts_by_resident_bytes_not_plan_count() {
        let small = Arc::new(sized_plan(8, 8, 8).unwrap());
        let small_bytes = small.packed_bytes();
        // Budget fits several small plans but not a small plan next to a big
        // one.
        let cache = PlanCache::with_byte_budget(64, 8 * small_bytes);
        assert_eq!(cache.byte_budget(), 8 * small_bytes);
        let key = |layer| PlanKey::new(layer, 0);
        for layer in 0..4 {
            cache
                .get_or_build(key(layer), || sized_plan(8, 8, 8))
                .unwrap();
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().evictions, 0);
        // A plan ~32x the small footprint blows the budget: LRU small plans
        // are evicted until the bytes fit, even though the plan-count
        // capacity (64) is nowhere near reached.
        cache
            .get_or_build(key(100), || sized_plan(64, 64, 8))
            .unwrap();
        assert!(cache.stats().evictions > 0);
        assert!(cache.contains(key(100)), "the new plan is always admitted");
        // An over-budget giant is admitted (never serving it warm would be
        // worse) and squeezes everything else out, keeping itself resident.
        cache
            .get_or_build(key(200), || sized_plan(128, 128, 8))
            .unwrap();
        assert!(cache.contains(key(200)));
        assert_eq!(cache.len(), 1);
        assert!(cache.resident_bytes() > cache.byte_budget());
    }

    #[test]
    fn cold_miss_stampede_builds_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = PlanCache::new(4);
        let key = PlanKey::new(0, 0);
        let builds = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let plan = cache
                        .get_or_build(key, || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            // Hold the build long enough that the other
                            // threads' misses land while it is in flight.
                            std::thread::sleep(std::time::Duration::from_millis(30));
                            tiny_plan(16)
                        })
                        .unwrap();
                    assert_eq!(plan.bucket().1, 16);
                });
            }
        });
        assert_eq!(
            builds.load(Ordering::SeqCst),
            1,
            "concurrent same-key misses must share one build"
        );
        let stats = cache.stats();
        assert_eq!(stats.misses, 8);
        assert_eq!(stats.shared_builds, 7);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn failed_build_broadcasts_the_error_to_every_waiter() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = PlanCache::new(4);
        let key = PlanKey::new(1, 0);
        let attempts = AtomicUsize::new(0);
        let outcomes: Vec<KernelResult<Arc<SpmmPlan>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        cache.get_or_build(key, || {
                            attempts.fetch_add(1, Ordering::SeqCst);
                            // Hold the build long enough that the other
                            // threads join the in-flight slot.
                            std::thread::sleep(std::time::Duration::from_millis(10));
                            Err(crate::KernelError::ShapeMismatch {
                                context: "synthetic build failure".into(),
                            })
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Every caller that joined the failed build observes the error —
        // nobody hangs, nobody silently succeeds, and nobody is elected to
        // retry the identical failing build.
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, Err(crate::KernelError::ShapeMismatch { .. }))));
        assert!(!cache.contains(key));
        // Concurrent lookups shared at most one build attempt apiece; the
        // failure did not trigger a retry storm (≤ one attempt per caller
        // that raced past the slot removal, never more).
        assert!(attempts.load(Ordering::SeqCst) <= 4);
        assert_eq!(cache.stats().misses, 4);
        // A *fresh* lookup after the failure starts a new build: transient
        // failures are retryable at the caller's discretion.
        cache.get_or_build(key, || tiny_plan(8)).unwrap();
        assert!(cache.contains(key));
    }

    #[test]
    fn repeatedly_failing_build_never_livelocks_waiters() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = PlanCache::new(4);
        let key = PlanKey::new(5, 0);
        let attempts = AtomicUsize::new(0);
        // A build that fails deterministically, every time. Under the old
        // elect-a-retrier scheme each round of waiters spawned another doomed
        // build; now each logical lookup observes exactly one failure.
        let doomed = || {
            attempts.fetch_add(1, Ordering::SeqCst);
            Err::<SpmmPlan, _>(crate::KernelError::ShapeMismatch {
                context: "deterministic failure".into(),
            })
        };
        for round in 0..3 {
            let outcomes: Vec<bool> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..6)
                    .map(|_| s.spawn(|| cache.get_or_build(key, doomed).is_err()))
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert!(
                outcomes.iter().all(|failed| *failed),
                "round {round}: every lookup of a failing build must error"
            );
        }
        // Bounded work: at most one build attempt per lookup (18 lookups),
        // and in practice far fewer thanks to the in-flight slot sharing.
        assert!(attempts.load(Ordering::SeqCst) <= 18);
        assert!(!cache.contains(key));
        assert_eq!(cache.stats().misses, 18);
    }

    #[test]
    fn panicking_build_fails_waiters_with_a_typed_error() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = PlanCache::new(4);
        let key = PlanKey::new(2, 0);
        let entered = AtomicUsize::new(0);
        let panics = AtomicUsize::new(0);
        let typed = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                cache.get_or_build(key, || {
                                    entered.fetch_add(1, Ordering::SeqCst);
                                    std::thread::sleep(std::time::Duration::from_millis(10));
                                    panic!("synthetic build panic");
                                })
                            }));
                        match outcome {
                            Err(_) => {
                                panics.fetch_add(1, Ordering::SeqCst);
                            }
                            Ok(Err(crate::KernelError::BuildPanicked { context })) => {
                                assert!(context.contains("synthetic build panic"));
                                typed.fetch_add(1, Ordering::SeqCst);
                            }
                            Ok(other) => panic!("unexpected outcome: {other:?}"),
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        // Builders unwind with the original panic; joiners get the typed
        // `BuildPanicked` error. Between them all four callers resolved.
        assert_eq!(
            panics.load(Ordering::SeqCst) + typed.load(Ordering::SeqCst),
            4
        );
        assert_eq!(
            panics.load(Ordering::SeqCst),
            entered.load(Ordering::SeqCst)
        );
        // The key is serviceable again (no dead in-flight slot left behind).
        cache.get_or_build(key, || tiny_plan(16)).unwrap();
        assert!(cache.contains(key));
    }

    #[test]
    fn invalidation_drops_only_stale_versions_of_the_layer() {
        let cache = PlanCache::new(16);
        // Layer 0 at versions 0, 1 and 2, layer 1 at v0.
        for version in 0..3u64 {
            cache
                .get_or_build(PlanKey::new(0, version), || tiny_plan(8))
                .unwrap();
        }
        cache
            .get_or_build(PlanKey::new(1, 0), || tiny_plan(8))
            .unwrap();
        assert_eq!(cache.len(), 4);
        let dropped = cache.invalidate_layer_below(0, 2);
        assert_eq!(dropped, 2);
        // v0 and v1 of layer 0 are gone; v2 and the other layer are untouched.
        assert!(!cache.contains(PlanKey::new(0, 0)));
        assert!(!cache.contains(PlanKey::new(0, 1)));
        assert!(cache.contains(PlanKey::new(0, 2)));
        assert!(cache.contains(PlanKey::new(1, 0)));
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 2);
        assert_eq!(stats.evictions, 0, "invalidations are not LRU evictions");
        // Idempotent: nothing stale remains below version 2.
        assert_eq!(cache.invalidate_layer_below(0, 2), 0);
    }

    #[test]
    fn invalidation_keeps_resident_bytes_exact() {
        let cache = PlanCache::new(16);
        let stale = cache
            .get_or_build(PlanKey::new(3, 0), || sized_plan(16, 16, 8))
            .unwrap();
        cache
            .get_or_build(PlanKey::new(3, 1), || sized_plan(16, 16, 8))
            .unwrap();
        cache
            .get_or_build(PlanKey::new(4, 0), || sized_plan(8, 8, 8))
            .unwrap();
        let before = cache.resident_bytes();
        assert_eq!(cache.invalidate_layer_below(3, 1), 1);
        // Exactly the dropped plan's packed bytes are released — the same
        // quantity that was charged at insert.
        assert_eq!(cache.resident_bytes(), before - stale.packed_bytes());
        // The in-flight holder of the stale Arc still executes fine.
        let b = DenseMatrix::from_fn(16, 8, |r, c| (r + c) as f32 * 0.25);
        assert!(stale.execute(&b).is_ok());
        drop(stale);
        // Dropping every remaining entry empties the accounting completely.
        cache.invalidate_layer_below(3, u64::MAX);
        cache.invalidate_layer_below(4, u64::MAX);
        assert_eq!(cache.resident_bytes(), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn build_slots_are_keyed_by_version_so_v1_waiters_never_get_v2_plans() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = Arc::new(PlanCache::new(16));
        let builds = AtomicUsize::new(0);
        // Concurrent cold misses on the *same layer* but different
        // versions must not share a build slot: each version builds its own
        // plan (2 builds), and every waiter receives the plan of the version
        // it asked for.
        std::thread::scope(|s| {
            for _ in 0..3 {
                for version in [1u64, 2] {
                    let cache = &cache;
                    let builds = &builds;
                    s.spawn(move || {
                        let n = if version == 1 { 8 } else { 16 };
                        let plan = cache
                            .get_or_build(PlanKey::new(0, version), || {
                                builds.fetch_add(1, Ordering::SeqCst);
                                std::thread::sleep(std::time::Duration::from_millis(20));
                                // The two versions build observably different
                                // plans (different n) so a cross-version hand-
                                // off would be caught below.
                                tiny_plan(n)
                            })
                            .unwrap();
                        assert_eq!(
                            plan.bucket().1,
                            n,
                            "a v{version} waiter must receive the v{version} plan"
                        );
                    });
                }
            }
        });
        assert_eq!(
            builds.load(Ordering::SeqCst),
            2,
            "one build per version: slots must dedup within a version only"
        );
        let stats = cache.stats();
        assert_eq!(stats.misses, 6);
        assert_eq!(stats.shared_builds, 4);
    }

    #[test]
    fn concurrent_lookups_share_one_plan() {
        let cache = PlanCache::new(4);
        let key = PlanKey::new(3, 0);
        cache.get_or_build(key, || tiny_plan(32)).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let plan = cache.get_or_build(key, || tiny_plan(32)).unwrap();
                        assert_eq!(plan.bucket().1, 32);
                    }
                });
            }
        });
        assert_eq!(cache.stats().hits, 200);
        assert_eq!(cache.stats().misses, 1);
    }

    fn tiny_conv_plan() -> KernelResult<crate::conv_plan::ImplicitConvPlan> {
        let params = crate::conv::Conv2dParams {
            batch: 1,
            in_channels: 2,
            out_channels: 4,
            input_h: 6,
            input_w: 6,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
            dilation: 1,
        };
        let (m, _, k) = params.implicit_gemm_shape();
        let dense = DenseMatrix::from_fn(m, k, |r, c| if (c + r / 2) % 2 == 0 { 0.5 } else { 0.0 });
        let weights =
            shfl_core::formats::ShflBwMatrix::from_dense(&dense, 2).expect("shfl-bw structure");
        crate::conv_plan::ImplicitConvPlan::build(&GpuArch::v100(), &weights, &params)
    }

    #[test]
    fn conv_plans_share_residency_with_spmm_plans() {
        let cache = PlanCache::new(4);
        let spmm_key = PlanKey::new(0, 0);
        let conv_key = PlanKey::conv(0, 0, 1);
        assert_ne!(spmm_key, conv_key, "conv keys partition the key space");
        cache.get_or_build(spmm_key, || tiny_plan(16)).unwrap();
        let a = cache.get_or_build_conv(conv_key, tiny_conv_plan).unwrap();
        let b = cache
            .get_or_build_conv(conv_key, || panic!("must hit"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 2);
        // Resident bytes include the conv plan at true size — packed panels
        // plus tap tables plus the pre-sized transform scratch.
        assert!(cache.resident_bytes() >= a.packed_bytes());
        assert!(a.packed_bytes() >= a.input_bytes_read() as usize);
    }

    #[test]
    fn invalidation_covers_conv_plans_of_the_layer() {
        let cache = PlanCache::new(8);
        cache
            .get_or_build(PlanKey::new(3, 1), || tiny_plan(16))
            .unwrap();
        cache
            .get_or_build_conv(PlanKey::conv(3, 1, 1), tiny_conv_plan)
            .unwrap();
        cache
            .get_or_build_conv(PlanKey::conv(4, 1, 1), tiny_conv_plan)
            .unwrap();
        assert_eq!(cache.invalidate_layer_below(3, 2), 2);
        assert!(!cache.contains(PlanKey::conv(3, 1, 1)));
        assert!(cache.contains(PlanKey::conv(4, 1, 1)));
        assert_eq!(cache.len(), 1);
        let resident = cache.resident_bytes();
        let survivor = cache
            .get_or_build_conv(PlanKey::conv(4, 1, 1), || panic!("must hit"))
            .unwrap();
        assert_eq!(resident, survivor.packed_bytes(), "byte accounting exact");
    }

    #[test]
    fn flavor_mismatch_is_a_typed_error_not_a_wrong_plan() {
        let cache = PlanCache::new(4);
        let key = PlanKey::conv(0, 0, 1);
        cache.get_or_build_conv(key, tiny_conv_plan).unwrap();
        let err = cache.get_or_build(key, || tiny_plan(16)).unwrap_err();
        assert!(matches!(err, KernelError::ShapeMismatch { .. }));
    }
}
