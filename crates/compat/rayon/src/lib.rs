//! Offline, API-compatible subset of `rayon`.
//!
//! The workspace builds without a crates.io mirror, so this vendored shim
//! provides a fork-join surface — [`scope`] with [`Scope::spawn`], [`join`],
//! and [`current_num_threads`] — implemented on `std::thread::scope`. There is
//! no work-stealing pool: each `spawn` is an OS thread.
//!
//! Nothing in the workspace calls it: the kernels fan out over
//! `shfl_core::parallel`'s persistent pool, which starts no thread per
//! parallel region. The crate stays an optional dependency of the `parallel`
//! features only because `perfbench/Cargo.lock` lists it, and deleting it
//! rewrites that lock.

#![deny(missing_docs)]

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Number of worker threads a parallel region should target (the machine's
/// available parallelism, read once per process: the query costs tens of
/// microseconds, and callers ask on every parallel region).
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// A scope in which borrowed-data tasks can be spawned; all tasks complete
/// before [`scope`] returns.
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a task that may borrow from the enclosing scope. The closure
    /// receives the scope again so tasks can spawn sub-tasks, mirroring
    /// rayon's signature.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope, 'env>) + Send + 'scope,
    {
        let inner = self.inner;
        inner.spawn(move || {
            let scope = Scope { inner };
            f(&scope);
        });
    }
}

/// Runs `op` with a [`Scope`]; returns once every spawned task has finished.
pub fn scope<'env, OP, R>(op: OP) -> R
where
    OP: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    std::thread::scope(|s| {
        let scope = Scope { inner: s };
        op(&scope)
    })
}

/// Runs two closures, potentially in parallel, and returns both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    std::thread::scope(|s| {
        let handle = s.spawn(b);
        let ra = a();
        let rb = handle.join().expect("rayon-compat: joined task panicked");
        (ra, rb)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scope_joins_all_tasks() {
        let counter = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..8 {
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn scope_tasks_can_write_disjoint_chunks() {
        let mut data = vec![0usize; 64];
        scope(|s| {
            for (i, chunk) in data.chunks_mut(16).enumerate() {
                s.spawn(move |_| {
                    for v in chunk.iter_mut() {
                        *v = i + 1;
                    }
                });
            }
        });
        assert!(data[..16].iter().all(|&v| v == 1));
        assert!(data[48..].iter().all(|&v| v == 4));
    }

    #[test]
    fn nested_spawn_works() {
        let counter = AtomicUsize::new(0);
        scope(|s| {
            s.spawn(|s| {
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            });
        });
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| 2 + 2, || "ok");
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(current_num_threads() >= 1);
    }
}
