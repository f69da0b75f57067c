//! Fork-join helpers shared by the blocked kernels.
//!
//! The functional kernels partition their output into disjoint row-tiles and
//! process the tiles independently, so the natural parallel primitive is "run
//! `f` over consecutive disjoint chunks of a mutable slice". With the
//! `parallel` feature enabled (the default), [`par_chunks_mut`] fans the chunks
//! out over `rayon`-scoped worker threads, one contiguous run of chunks per
//! worker; without it the same code degrades to a serial loop.
//!
//! Every call site produces bit-identical results either way: each chunk is
//! written by exactly one task and the per-chunk computation order does not
//! depend on the thread schedule.

/// Minimum work units per worker before fanning out, where one work unit is
/// roughly one MAC or one copied element. Below this the thread spawn overhead
/// dominates (the shim `rayon` spawns OS threads), so small problems — most
/// unit-test inputs — stay on the calling thread.
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
        rayon::current_num_threads().min(num_chunks).min(by_work)
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
    let chunks_per_worker = num_chunks.div_ceil(workers);
    let run_len = chunks_per_worker * chunk_len;
    rayon::scope(|s| {
        for (w, run) in data.chunks_mut(run_len).enumerate() {
            s.spawn(move |_| {
                for (i, chunk) in run.chunks_mut(chunk_len).enumerate() {
                    f(w * chunks_per_worker + i, chunk);
                }
            });
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
