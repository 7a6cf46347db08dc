//! Order-preserving parallel map over a scoped worker pool: the one helper
//! behind corpus generation and the activity surrogate's training (its
//! oracle simulations and its per-output ensemble fits).
//!
//! Results land in input-indexed slots, so for any pure job function the
//! output is bit-identical whatever the worker count or scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// The number of cores this process may run on
/// ([`std::thread::available_parallelism`], 1 when unknown), read once.
pub fn available_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Maps `f` over `0..n`, preserving index order in the output.
///
/// With `threads <= 1` (or a trivial input) this is a plain serial loop; the
/// parallel path hands out indices through an atomic cursor to a scoped worker
/// pool and writes each result into its input-indexed slot, so the output is
/// identical to the serial path for any pure `f`.
pub fn parallel_map<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_with(threads, n, || (), |(), i| f(i))
}

/// [`parallel_map`] with per-worker mutable state: `init` builds one state
/// value per worker and `f` receives it alongside the index.
///
/// This is how the substrate pipeline hands each worker a reusable
/// simulation scratch: the state lives as long as the worker, so `f` can
/// reuse buffers across every job the worker claims without any sharing or
/// locking.
///
/// When the effective worker count is 1, the closure runs **inline** on the
/// calling thread over one state value — no `thread::scope`, no per-slot
/// mutexes, no atomics (pure pool overhead costs ~8 % at one core).  The
/// output is bit-identical either way for any pure `f`, pinned by the
/// thread-invariance tests.
pub fn parallel_map_with<T, S, I, F>(threads: usize, n: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let workers = threads.min(n);
    if workers <= 1 {
        // Serial fast path: inline, allocation-free aside from the output.
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let value = f(&mut state, i);
                    *slots[i].lock().expect("result slot poisoned") = Some(value);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every index was claimed by exactly one worker")
        })
        .collect()
}
