//! # qn-parallel
//!
//! A `std`-only scoped worker pool: the workspace's parallel runtime.
//!
//! The build environment is offline, so instead of `rayon` this crate
//! vendors a minimal data-parallel core in the same spirit as the offline
//! shims under `crates/shims/`: a lazily-spawned global pool of worker
//! threads plus scoped fork–join primitives that may borrow stack data
//! ([`par_scope`], [`par_chunks_mut`]).
//!
//! ## Sizing
//!
//! The global pool is sized once, on first use, from (in precedence order):
//!
//! 1. the `QN_NUM_THREADS` environment variable (`QN_NUM_THREADS=1`
//!    disables parallelism entirely — every primitive runs inline);
//! 2. [`std::thread::available_parallelism`].
//!
//! [`with_max_threads`] additionally caps the *effective* parallelism for
//! the current thread for the duration of a closure, which is how the
//! determinism test suites compare 1-thread and N-thread execution inside
//! one process.
//!
//! ## Determinism contract
//!
//! The primitives only split work into **disjoint output regions**; they
//! never reduce across tasks in pool order. A kernel that accumulates
//! sequentially within each unit (e.g. one matmul output row) therefore
//! produces **bit-identical** results at any thread count. Every parallel
//! kernel in `qn-tensor`/`qn-autograd` is written in that per-unit
//! sequential-accumulation style, and the workspace's property suites
//! assert the bit-equality.
//!
//! ## Nesting
//!
//! Work executed *inside* a pool task sees [`num_threads`]`() == 1`: nested
//! parallel calls run inline rather than oversubscribing the pool. The
//! coarsest enclosing region (e.g. a sharded `predict_batch`) gets the
//! pool; the kernels under it stay sequential.
//!
//! # Example
//!
//! ```
//! let mut out = vec![0.0f32; 8];
//! // double each unit of 2 elements; disjoint chunks may run on the pool
//! qn_parallel::par_chunks_mut(&mut out, 2, |unit, chunk| {
//!     for (j, v) in chunk.iter_mut().enumerate() {
//!         *v = (unit * 2 + j) as f32 * 2.0;
//!     }
//! });
//! assert_eq!(out[7], 14.0);
//! ```

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Minimum element count before a hot kernel should fan out to the pool;
/// below this the fork–join overhead dominates the work itself. The single
/// source of truth for every `par_chunks_mut_min` gate in the workspace
/// (`qn-tensor` elementwise/conv/pool kernels, `qn-autograd` fused kernels).
pub const PAR_MIN_ELEMS: usize = 16 * 1024;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Job queue + wakeup pair shared by the workers. The `expect("…
/// poisoned")` calls on this queue and on [`Latch`] state can only fire on
/// mutex poisoning, which is unreachable by construction: every task body
/// runs under `catch_unwind`, so no panic ever unwinds while a pool lock
/// is held.
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    job_ready: Condvar,
}

struct Pool {
    shared: Arc<Shared>,
    threads: usize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// `true` while this thread is executing a pool task (worker threads, or
    /// the submitting thread while it helps drain the queue): nested
    /// parallel calls then run inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Per-thread cap installed by [`with_max_threads`].
    static MAX_THREADS: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn env_threads() -> Option<usize> {
    std::env::var("QN_NUM_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn worker_loop(shared: Arc<Shared>) {
    IN_WORKER.with(|w| w.set(true));
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = shared.job_ready.wait(queue).expect("pool queue poisoned");
            }
        };
        job();
    }
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let threads = env_threads().unwrap_or_else(default_threads);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            job_ready: Condvar::new(),
        });
        // The submitting thread participates in every scope, so `threads`-way
        // parallelism needs `threads - 1` workers.
        for i in 0..threads.saturating_sub(1) {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("qn-parallel-{i}"))
                .spawn(move || worker_loop(shared))
                .expect("failed to spawn pool worker");
        }
        Pool { shared, threads }
    })
}

/// The global pool's total thread count (workers + the submitting thread),
/// ignoring nesting and [`with_max_threads`] caps. Forces pool
/// initialization.
///
/// # Panics
///
/// Panics if the OS refuses to spawn a pool worker thread on first-use
/// initialization (resource exhaustion — the pool cannot degrade safely
/// once callers have observed its size).
pub fn pool_threads() -> usize {
    pool().threads
}

/// The parallelism available to the **current** thread right now: the pool
/// size, capped by an enclosing [`with_max_threads`], and `1` inside a pool
/// task (nested work runs inline).
///
/// # Panics
///
/// Same as [`pool_threads`]: worker spawn failure on first-use pool
/// initialization.
pub fn num_threads() -> usize {
    if IN_WORKER.with(|w| w.get()) {
        return 1;
    }
    let cap = MAX_THREADS.with(|m| m.get());
    pool().threads.min(cap).max(1)
}

/// Runs `f` with this thread's effective parallelism capped at `cap`
/// (floored to 1). Restores the previous cap afterwards, also on panic.
///
/// This is how test suites compare sequential and parallel execution of the
/// same kernel inside one process:
/// `with_max_threads(1, || kernel())` vs `kernel()`.
pub fn with_max_threads<R>(cap: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            MAX_THREADS.with(|m| m.set(self.0));
        }
    }
    let prev = MAX_THREADS.with(|m| m.replace(cap.max(1)));
    let _restore = Restore(prev);
    f()
}

struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

struct LatchState {
    remaining: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            state: Mutex::new(LatchState {
                remaining: count,
                panic: None,
            }),
            done: Condvar::new(),
        }
    }

    fn complete(&self, panic: Option<Box<dyn std::any::Any + Send>>) {
        let mut state = self.state.lock().expect("latch poisoned");
        state.remaining -= 1;
        if state.panic.is_none() {
            state.panic = panic;
        }
        if state.remaining == 0 {
            self.done.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        self.state.lock().expect("latch poisoned").remaining == 0
    }

    fn wait(&self) {
        let mut state = self.state.lock().expect("latch poisoned");
        while state.remaining > 0 {
            state = self.done.wait(state).expect("latch poisoned");
        }
    }

    fn take_panic(&self) -> Option<Box<dyn std::any::Any + Send>> {
        self.state.lock().expect("latch poisoned").panic.take()
    }
}

fn run_as_worker(job: Job) {
    let was = IN_WORKER.with(|w| w.replace(true));
    job();
    IN_WORKER.with(|w| w.set(was));
}

/// Runs every task to completion, using the global pool when the current
/// thread's effective parallelism allows it; the calling thread participates
/// instead of blocking idle. Returns only after **all** tasks finished.
///
/// Tasks may borrow stack data (`'scope` need not be `'static`): the
/// blocking join is what makes that sound. If any task panics, the panic is
/// re-raised on the calling thread after the scope completes.
///
/// This is the low-level primitive under [`par_chunks_mut`]; kernels
/// normally want that instead.
///
/// # Panics
///
/// Re-raises the **first** task panic on the calling thread once every
/// task has finished (tasks are wrapped in `catch_unwind`, so one panic
/// never strands the latch or poisons the queue). Also panics on
/// first-use pool initialization if a worker thread cannot be spawned
/// (see [`pool_threads`]).
pub fn par_scope<'scope>(tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
    if tasks.is_empty() {
        return;
    }
    if tasks.len() == 1 || num_threads() <= 1 {
        for task in tasks {
            task();
        }
        return;
    }
    let pool = pool();
    let latch = Arc::new(Latch::new(tasks.len()));
    {
        let mut queue = pool.shared.queue.lock().expect("pool queue poisoned");
        for task in tasks {
            // SAFETY: `par_scope` blocks until the latch has counted every
            // task as complete (the wrapper below always reports, even on
            // panic), so borrows captured for `'scope` strictly outlive the
            // task's execution.
            let task: Box<dyn FnOnce() + Send + 'static> = unsafe {
                std::mem::transmute::<
                    Box<dyn FnOnce() + Send + 'scope>,
                    Box<dyn FnOnce() + Send + 'static>,
                >(task)
            };
            let latch = Arc::clone(&latch);
            queue.push_back(Box::new(move || {
                let outcome = catch_unwind(AssertUnwindSafe(task));
                latch.complete(outcome.err());
            }));
        }
        pool.shared.job_ready.notify_all();
    }
    // Participate: drain queued jobs until this scope's tasks are all done.
    // Any job still in the queue is safe to run here — at worst it belongs
    // to another thread's scope, which is just useful work.
    while !latch.is_done() {
        let job = pool
            .shared
            .queue
            .lock()
            .expect("pool queue poisoned")
            .pop_front();
        match job {
            Some(job) => run_as_worker(job),
            None => {
                latch.wait();
                break;
            }
        }
    }
    if let Some(panic) = latch.take_panic() {
        resume_unwind(panic);
    }
}

/// Splits `data` into consecutive units of `unit_len` elements (the last may
/// be shorter) and calls `f(unit_index, unit)` for every unit, distributing
/// contiguous **bands** of units across the pool.
///
/// Each unit is written by exactly one task and `f` runs sequentially within
/// a unit, so results are bit-identical at any thread count as long as `f`
/// itself is deterministic per unit. This is the workhorse under the matmul
/// family (one unit = one output row) and the conv/pool kernels (one unit =
/// one output image plane).
///
/// # Panics
///
/// Panics if `unit_len == 0`.
pub fn par_chunks_mut<T, F>(data: &mut [T], unit_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(unit_len > 0, "unit_len must be positive");
    let units = data.len().div_ceil(unit_len);
    let threads = num_threads();
    if threads <= 1 || units <= 1 {
        for (i, chunk) in data.chunks_mut(unit_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let bands = threads.min(units);
    let units_per_band = units.div_ceil(bands);
    let band_len = units_per_band * unit_len;
    let f = &f;
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(bands);
    for (band_idx, band) in data.chunks_mut(band_len).enumerate() {
        tasks.push(Box::new(move || {
            for (j, chunk) in band.chunks_mut(unit_len).enumerate() {
                f(band_idx * units_per_band + j, chunk);
            }
        }));
    }
    par_scope(tasks);
}

/// Like [`par_chunks_mut`], but stays on the calling thread when
/// `data.len() < min_len` — the gate hot kernels use so that tiny tensors
/// (a `[32, 10]` softmax in a training loop, a narrow pooling plane) never
/// pay the fork–join overhead. Semantics are otherwise identical, including
/// bit-identical results either way.
///
/// # Panics
///
/// Panics if `unit_len == 0`.
pub fn par_chunks_mut_min<T, F>(data: &mut [T], unit_len: usize, min_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(unit_len > 0, "unit_len must be positive");
    if data.len() >= min_len {
        par_chunks_mut(data, unit_len, f);
    } else {
        for (i, chunk) in data.chunks_mut(unit_len).enumerate() {
            f(i, chunk);
        }
    }
}

/// Splits `0..n` into `parts` contiguous half-open ranges whose lengths
/// differ by at most one (the first `n % parts` ranges take the extra
/// element), written into `out` (cleared first, capacity reused, so a
/// steady-state serving loop shards every batch without reallocating the
/// range list). Empty ranges are omitted, so fewer than `parts` ranges come
/// back when `n < parts`.
///
/// # Panics
///
/// Panics if `parts == 0`.
pub fn split_evenly_into(n: usize, parts: usize, out: &mut Vec<(usize, usize)>) {
    assert!(parts > 0, "parts must be positive");
    out.clear();
    let base = n / parts;
    let extra = n % parts;
    let mut start = 0usize;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        if len > 0 {
            out.push((start, start + len));
            start += len;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_chunks_mut_matches_sequential() {
        let kernel = |data: &mut [f32]| {
            par_chunks_mut(data, 3, |unit, chunk| {
                for (j, v) in chunk.iter_mut().enumerate() {
                    *v = (unit * 3 + j) as f32 * 1.5 + unit as f32;
                }
            });
        };
        let mut parallel = vec![0.0f32; 100];
        kernel(&mut parallel);
        let mut sequential = vec![0.0f32; 100];
        with_max_threads(1, || kernel(&mut sequential));
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn par_chunks_mut_covers_ragged_tail() {
        let mut data = vec![0usize; 10]; // 4 units of 3, last has 1 element
        par_chunks_mut(&mut data, 3, |unit, chunk| {
            for v in chunk.iter_mut() {
                *v = unit + 1;
            }
        });
        assert_eq!(data, vec![1, 1, 1, 2, 2, 2, 3, 3, 3, 4]);
    }

    #[test]
    fn nested_parallelism_runs_inline() {
        let hits = AtomicUsize::new(0);
        let mut outer = vec![0u8; 4];
        par_chunks_mut(&mut outer, 1, |_, _| {
            // inside a pool task (or the helping caller) nesting is inline
            let mut inner = vec![0u8; 8];
            par_chunks_mut(&mut inner, 1, |_, _| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn with_max_threads_caps_and_restores() {
        let before = num_threads();
        with_max_threads(1, || {
            assert_eq!(num_threads(), 1);
        });
        assert_eq!(num_threads(), before);
    }

    #[test]
    fn panic_in_task_propagates() {
        let result = std::panic::catch_unwind(|| {
            let mut data = vec![0u8; 8];
            par_chunks_mut(&mut data, 1, |i, _| {
                if i == 5 {
                    panic!("boom in unit 5");
                }
            });
        });
        assert!(result.is_err(), "panic must reach the caller");
    }

    #[test]
    fn split_evenly_covers_range_without_gaps() {
        let split = |n, parts| {
            let mut ranges = vec![(7, 7)]; // cleared first
            split_evenly_into(n, parts, &mut ranges);
            ranges
        };
        assert_eq!(split(10, 4), vec![(0, 3), (3, 6), (6, 8), (8, 10)]);
        assert_eq!(split(3, 8), vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(split(0, 3), Vec::<(usize, usize)>::new());
        let ranges = split(97, 5);
        assert_eq!(ranges.first().map(|r| r.0), Some(0));
        assert_eq!(ranges.last().map(|r| r.1), Some(97));
        for w in ranges.windows(2) {
            assert_eq!(w[0].1, w[1].0, "ranges must be contiguous");
        }
    }

    #[test]
    fn min_gated_variants_match_ungated() {
        let mut a = vec![0usize; 9];
        par_chunks_mut_min(&mut a, 2, usize::MAX, |i, c| {
            c.iter_mut().for_each(|v| *v = i)
        });
        assert_eq!(a, vec![0, 0, 1, 1, 2, 2, 3, 3, 4]);
        let mut b = vec![0usize; 9];
        par_chunks_mut_min(&mut b, 2, 0, |i, c| c.iter_mut().for_each(|v| *v = i));
        assert_eq!(a, b);
    }

    #[test]
    fn scope_of_one_task_runs_inline() {
        let mut hit = false;
        par_scope(vec![Box::new(|| hit = true)]);
        assert!(hit);
    }
}
