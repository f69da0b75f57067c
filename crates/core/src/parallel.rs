//! Fork-join helpers shared by the kernel plans.
//!
//! The functional kernels partition their output into disjoint row-tiles and
//! process the tiles independently, so the natural parallel primitive is "run
//! `f` over consecutive disjoint chunks of a mutable slice". With the
//! `parallel` feature enabled (the default), [`par_chunks_mut`] splits the
//! chunks into one contiguous run per worker and fans the runs out over one
//! persistent pool: `available_parallelism − 1` helper threads, started by
//! the first parallel region and blocked on a condvar while idle. A region
//! publishes its runs; the calling thread claims unclaimed runs itself until
//! none are left, then waits only for the runs a helper has already started.
//! So no region starts an OS thread, a region finishes on the caller alone
//! when every helper is busy, and nested regions (a server worker's execute)
//! and concurrent callers can neither deadlock nor oversubscribe the cores.
//! A panic in any run is resumed on the caller once the region's other runs
//! have finished; the helper that caught it keeps serving. Without the
//! feature the same code degrades to a serial loop.
//!
//! Every call site produces bit-identical results either way: which chunks
//! form a run is a pure function of the chunk index, each chunk is written by
//! exactly one task, and the per-chunk computation order does not depend on
//! the thread schedule.

/// Minimum work units per worker before fanning out, where one work unit is
/// roughly one MAC or one copied element. Below this, waking a pool helper
/// and waiting for its run costs more than the helper saves, so small
/// problems — most unit-test inputs — stay on the calling thread.
#[cfg(feature = "parallel")]
const MIN_WORK_PER_WORKER: usize = 64 * 1024;

/// Runs `f(chunk_index, chunk)` for every consecutive `chunk_len`-sized chunk
/// of `data` (the final chunk may be shorter), in parallel when the `parallel`
/// feature is on and the slice is large enough to amortise the fan-out.
///
/// Sizing assumes ~1 work unit per element; compute kernels that do `k` MACs
/// per output element should use [`par_chunks_mut_weighted`] so deep-reduction
/// shapes with small outputs still fan out.
///
/// `chunk_len == 0` or an empty slice is a no-op.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    par_chunks_mut_weighted(data, chunk_len, 1, f);
}

/// [`par_chunks_mut`] with an explicit per-element work weight: the fan-out
/// decision uses `data.len() × work_per_element` work units, so a skinny
/// output with a deep reduction (many MACs per element) still parallelises
/// while a same-sized pure copy stays serial.
pub fn par_chunks_mut_weighted<T, F>(
    data: &mut [T],
    chunk_len: usize,
    work_per_element: usize,
    f: F,
) where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() || chunk_len == 0 {
        return;
    }
    let num_chunks = data.len().div_ceil(chunk_len);
    let work = data.len().saturating_mul(work_per_element.max(1));
    let workers = max_workers(work, num_chunks);
    if workers <= 1 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    fan_out(data, chunk_len, num_chunks, workers, &f);
}

/// Number of workers worth using for `work` total work units split into
/// `num_chunks` chunks (always 1 when the `parallel` feature is off).
fn max_workers(work: usize, num_chunks: usize) -> usize {
    #[cfg(feature = "parallel")]
    {
        let by_work = (work / MIN_WORK_PER_WORKER).max(1);
        pool::threads().min(num_chunks).min(by_work)
    }
    #[cfg(not(feature = "parallel"))]
    {
        let _ = (work, num_chunks);
        1
    }
}

#[cfg(feature = "parallel")]
fn fan_out<T, F>(data: &mut [T], chunk_len: usize, num_chunks: usize, workers: usize, f: &F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunks_per_run = num_chunks.div_ceil(workers);
    // Each run's lock is taken once, by whichever thread claims the run.
    let runs: Vec<std::sync::Mutex<&mut [T]>> = data
        .chunks_mut(chunks_per_run * chunk_len)
        .map(std::sync::Mutex::new)
        .collect();
    pool::run(runs.len(), &|r| {
        let mut run = runs[r]
            .lock()
            .expect("a run is claimed once, so its lock is never poisoned");
        for (i, chunk) in run.chunks_mut(chunk_len).enumerate() {
            f(r * chunks_per_run + i, chunk);
        }
    });
}

#[cfg(not(feature = "parallel"))]
fn fan_out<T, F>(_data: &mut [T], _chunk_len: usize, _num_chunks: usize, _workers: usize, _f: &F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    unreachable!("max_workers is 1 without the parallel feature")
}

/// The persistent fan-out pool behind [`fan_out`].
#[cfg(feature = "parallel")]
mod pool {
    use std::any::Any;
    use std::collections::VecDeque;
    use std::num::NonZeroUsize;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

    /// Threads a region can run on: the caller plus the pool's helpers. Read
    /// once per process: the query costs tens of microseconds, and every
    /// parallel region asks.
    pub(super) fn threads() -> usize {
        static THREADS: OnceLock<usize> = OnceLock::new();
        *THREADS.get_or_init(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        })
    }

    /// Neither lock is ever held across a run, so no panic can poison it.
    fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
        mutex
            .lock()
            .expect("fan-out pool locks are never held across a run")
    }

    /// One published parallel region: run indices `0..runs`, each claimed by
    /// exactly one thread.
    struct Region {
        /// The region's body with its lifetime erased; see [`run`].
        body: *const (dyn Fn(usize) + Sync),
        runs: usize,
        /// The next unclaimed run index. Claims only need the read-modify-write
        /// to hand out each index once: `body` reaches helpers through the
        /// queue lock, and a run's writes reach the caller through `finished`.
        next: AtomicUsize,
        finished: Mutex<Finished>,
        all_finished: Condvar,
    }

    struct Finished {
        runs: usize,
        /// The first panic payload caught in a run, resumed on the caller.
        panic: Option<Box<dyn Any + Send>>,
    }

    // SAFETY: `body` points to a `Sync` closure, so any thread may call it
    // through a shared reference. A thread dereferences it only after claiming
    // a run index below `runs`, and `run` returns (ending the closure's
    // borrow) only once every run has been counted in `finished`, after which
    // every claim fails. The remaining fields are `Send` and `Sync`.
    unsafe impl Send for Region {}
    // SAFETY: as for `Send` above.
    unsafe impl Sync for Region {}

    impl Region {
        fn claim(&self) -> Option<usize> {
            let r = self.next.fetch_add(1, Ordering::Relaxed);
            (r < self.runs).then_some(r)
        }

        /// Executes claimed run `r`, catching a panic so that the caller, not
        /// this thread, unwinds with it.
        fn execute(&self, r: usize) {
            // SAFETY: `r` was claimed and is not yet counted finished, so the
            // caller is still inside `run` and the closure is alive.
            let body = unsafe { &*self.body };
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| body(r)));
            let mut finished = lock(&self.finished);
            if let Err(payload) = outcome {
                finished.panic.get_or_insert(payload);
            }
            finished.runs += 1;
            if finished.runs == self.runs {
                self.all_finished.notify_one();
            }
        }
    }

    struct Pool {
        queue: Mutex<Queue>,
        /// Idle helpers wait here for a region to be published.
        work: Condvar,
    }

    struct Queue {
        /// Published regions, oldest first; helpers serve the front one.
        regions: VecDeque<Arc<Region>>,
        /// Helpers blocked on `work`.
        idle: usize,
    }

    fn pool() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| {
            for i in 1..threads() {
                // Helpers live as long as the process and never unwind (every
                // run's panic is caught), so their handles are not kept. A
                // helper that fails to start only narrows the fan-out: the
                // caller runs every run that no helper claims. Each helper's
                // `pool()` waits for this initialiser to return.
                let _ = std::thread::Builder::new()
                    .name(format!("shfl-fan-out-{i}"))
                    .spawn(|| pool().serve());
            }
            Pool {
                queue: Mutex::new(Queue {
                    regions: VecDeque::new(),
                    idle: 0,
                }),
                work: Condvar::new(),
            }
        })
    }

    impl Pool {
        /// A helper's loop: claim the oldest published region's next run,
        /// execute it, and block on `work` while nothing is published.
        fn serve(&self) {
            let mut queue = lock(&self.queue);
            loop {
                let Some((region, r)) = claim_front(&mut queue) else {
                    queue.idle += 1;
                    queue = self
                        .work
                        .wait(queue)
                        .expect("fan-out pool locks are never held across a run");
                    queue.idle -= 1;
                    continue;
                };
                drop(queue);
                region.execute(r);
                drop(region);
                queue = lock(&self.queue);
            }
        }
    }

    /// Claims the next run of the oldest region that still has one, dropping
    /// exhausted regions from the queue (and the region whose last run this
    /// claims).
    fn claim_front(queue: &mut Queue) -> Option<(Arc<Region>, usize)> {
        while let Some(region) = queue.regions.front() {
            if let Some(r) = region.claim() {
                let region = Arc::clone(region);
                if r + 1 == region.runs {
                    queue.regions.pop_front();
                }
                return Some((region, r));
            }
            queue.regions.pop_front();
        }
        None
    }

    /// Runs `body(r)` for every `r` in `0..runs`, on the calling thread and
    /// on any idle helpers, and returns once every run has finished. A panic
    /// in any run is resumed here after the other runs have finished.
    pub(super) fn run(runs: usize, body: &(dyn Fn(usize) + Sync)) {
        let pool = pool();
        let body: *const (dyn Fn(usize) + Sync + '_) = body;
        // SAFETY: only the pointer's lifetime bound changes. It is
        // dereferenced under the conditions stated on `Region`'s `Send` impl,
        // which this function upholds by waiting for every run below.
        let body = unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(body)
        };
        let region = Arc::new(Region {
            body,
            runs,
            next: AtomicUsize::new(0),
            finished: Mutex::new(Finished {
                runs: 0,
                panic: None,
            }),
            all_finished: Condvar::new(),
        });
        let mut queue = lock(&pool.queue);
        queue.regions.push_back(Arc::clone(&region));
        let wake = queue.idle.min(runs.saturating_sub(1));
        drop(queue);
        for _ in 0..wake {
            pool.work.notify_one();
        }
        while let Some(r) = region.claim() {
            region.execute(r);
        }
        // Every run is claimed: unpublish the region if no helper has yet.
        let mut queue = lock(&pool.queue);
        if let Some(i) = queue.regions.iter().position(|q| Arc::ptr_eq(q, &region)) {
            queue.regions.remove(i);
        }
        drop(queue);
        let mut finished = lock(&region.finished);
        while finished.runs < runs {
            finished = region
                .all_finished
                .wait(finished)
                .expect("fan-out pool locks are never held across a run");
        }
        if let Some(payload) = finished.panic.take() {
            drop(finished);
            panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Condvar, Mutex};
    use std::thread;
    use std::time::Duration;

    /// A per-element work weight large enough to fan any two-chunk slice out
    /// into two runs (when the `parallel` feature is on).
    const FAN_OUT: usize = 1 << 24;

    /// Whether a region can run on a pool helper besides its caller; the
    /// assertions that need a helper are skipped otherwise.
    fn has_helper() -> bool {
        cfg!(feature = "parallel") && thread::available_parallelism().map_or(1, |n| n.get()) > 1
    }

    /// Runs a two-run region whose runs wait for each other before calling
    /// `body`, so they run on two threads at once: the caller and a helper,
    /// or two helpers. Panics if no second thread joins within 10 s.
    fn two_thread_region(body: impl Fn(&mut [u64]) + Sync) -> Vec<u64> {
        let (started, both) = (Mutex::new(0), Condvar::new());
        let mut data = vec![0u64; 2];
        par_chunks_mut_weighted(&mut data, 1, FAN_OUT, |_, chunk| {
            let mut started = started.lock().unwrap();
            *started += 1;
            both.notify_all();
            let (started, wait) = both
                .wait_timeout_while(started, Duration::from_secs(10), |n| *n < 2)
                .unwrap();
            drop(started);
            assert!(!wait.timed_out(), "no second thread joined the region");
            body(chunk);
        });
        data
    }

    #[test]
    fn visits_every_chunk_exactly_once() {
        let mut data = vec![0u32; 1000];
        par_chunks_mut(&mut data, 7, |i, chunk| {
            for v in chunk.iter_mut() {
                *v = i as u32 + 1;
            }
        });
        for (pos, v) in data.iter().enumerate() {
            assert_eq!(*v, (pos / 7) as u32 + 1);
        }
    }

    #[test]
    fn large_slices_match_serial_reference() {
        // Big enough to cross MIN_WORK_PER_WORKER and actually fan out.
        let len = 512 * 1024;
        let mut parallel = vec![0u64; len];
        par_chunks_mut(&mut parallel, 1024, |i, chunk| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (i * 1_000_003 + j) as u64;
            }
        });
        let mut serial = vec![0u64; len];
        for (i, chunk) in serial.chunks_mut(1024).enumerate() {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (i * 1_000_003 + j) as u64;
            }
        }
        assert_eq!(parallel, serial);
    }

    #[test]
    fn empty_and_zero_chunk_are_noops() {
        let mut empty: Vec<u8> = Vec::new();
        par_chunks_mut(&mut empty, 4, |_, _| panic!("must not be called"));
        let mut data = vec![1u8; 8];
        par_chunks_mut(&mut data, 0, |_, _| panic!("must not be called"));
        assert_eq!(data, vec![1u8; 8]);
    }

    #[test]
    fn short_final_chunk_is_delivered() {
        let mut data = vec![0usize; 10];
        par_chunks_mut(&mut data, 4, |i, chunk| {
            assert_eq!(chunk.len(), if i == 2 { 2 } else { 4 });
            chunk.iter_mut().for_each(|v| *v = i + 1);
        });
        assert_eq!(data[8..], [3, 3]);
    }

    /// Fills `chunk` (chunk `i` of some slice) with values that identify
    /// every element's chunk and offset.
    fn fill(i: usize, chunk: &mut [u64]) {
        for (j, v) in chunk.iter_mut().enumerate() {
            *v = (i as u64) << 32 | j as u64;
        }
    }

    #[test]
    fn regions_run_only_on_their_callers_and_the_pools_helpers() {
        if !has_helper() {
            return;
        }
        let caller = thread::current().id();
        let helpers = Mutex::new(std::collections::HashSet::new());
        for _ in 0..20 {
            two_thread_region(|_| {
                let me = thread::current();
                if me.id() != caller {
                    let name = me.name().unwrap_or_default();
                    assert!(name.starts_with("shfl-fan-out-"), "run on {name:?}");
                    helpers.lock().unwrap().insert(me.id());
                }
            });
        }
        // No region started a thread: every helper run came from the pool's
        // `available_parallelism − 1` threads.
        let pool_size = thread::available_parallelism().unwrap().get() - 1;
        assert!(helpers.into_inner().unwrap().len() <= pool_size);
    }

    #[test]
    fn panic_in_a_chunk_resumes_on_the_caller_and_the_pool_survives() {
        // The checks run on a thread of their own, so a helper that dies with
        // its run's panic fails this test (its region never finishes) instead
        // of hanging it.
        let (done, finished) = std::sync::mpsc::channel();
        let checks = thread::spawn(move || {
            panic_checks();
            done.send(()).unwrap();
        });
        if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) =
            finished.recv_timeout(Duration::from_secs(60))
        {
            panic!("a region never finished: a helper did not survive its run's panic");
        }
        if let Err(payload) = checks.join() {
            std::panic::resume_unwind(payload);
        }
    }

    fn panic_checks() {
        let mut data = vec![0u64; 4];
        let payload = catch_unwind(AssertUnwindSafe(|| {
            par_chunks_mut_weighted(&mut data, 1, FAN_OUT, |i, chunk| {
                if i == 3 {
                    panic!("chunk 3 failed");
                }
                chunk[0] = 1;
            });
        }))
        .expect_err("the chunk's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"chunk 3 failed"));
        assert_eq!(data[..2], [1, 1], "the region's other run still finished");
        if !has_helper() {
            return;
        }
        // The same panic raised on a helper's run: the payload still comes
        // back on the caller...
        let caller = thread::current().id();
        let payload = catch_unwind(AssertUnwindSafe(|| {
            two_thread_region(|chunk| {
                if thread::current().id() != caller {
                    panic!("helper run failed");
                }
                chunk[0] = 1;
            })
        }))
        .expect_err("the helper's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"helper run failed"));
        // ...and the next region still completes with a helper's run.
        let data = two_thread_region(|chunk| chunk[0] = 7);
        assert_eq!(data, [7, 7]);
    }

    #[test]
    fn a_region_nested_in_a_chunk_matches_the_serial_reference() {
        let (outer, inner) = (4, 64);
        let mut nested = vec![0u64; outer * inner];
        par_chunks_mut_weighted(&mut nested, inner, FAN_OUT, |i, chunk| {
            par_chunks_mut_weighted(chunk, 8, FAN_OUT, |j, part| fill(i * 8 + j, part));
        });
        let mut serial = vec![0u64; outer * inner];
        for (c, chunk) in serial.chunks_mut(8).enumerate() {
            fill(c, chunk);
        }
        assert_eq!(nested, serial);
        if has_helper() {
            // A region nested in a run that a helper executes: the helper
            // becomes the nested region's caller.
            let data = two_thread_region(|chunk| {
                let mut inner = vec![0u64; 64];
                par_chunks_mut_weighted(&mut inner, 8, FAN_OUT, fill);
                chunk[0] = inner.iter().sum();
            });
            let expected: u64 = (0..8u64).map(|i| 8 * (i << 32) + 28).sum();
            assert_eq!(data, [expected, expected]);
        }
    }

    #[test]
    fn concurrent_callers_match_the_serial_reference() {
        let mut serial = vec![0u64; 96];
        for (i, chunk) in serial.chunks_mut(5).enumerate() {
            fill(i, chunk);
        }
        // Four callers share the pool's helpers (one on a 2-core host), so
        // regions queue behind each other and callers run most of their own
        // runs.
        thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        let mut data = vec![0u64; 96];
                        par_chunks_mut_weighted(&mut data, 5, FAN_OUT, fill);
                        assert_eq!(data, serial);
                    }
                });
            }
        });
    }
}
