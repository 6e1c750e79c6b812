//! # qn-parallel
//!
//! A `std`-only worker pool: the workspace's parallel runtime.
//!
//! The build environment is offline, so instead of `rayon` this crate
//! vendors a minimal data-parallel core in the same spirit as the offline
//! shims under `crates/shims/`: a lazily-spawned global pool of worker
//! threads and one fork–join primitive that may borrow stack data,
//! [`par_chunks_mut`].
//!
//! ## Regions
//!
//! A [`par_chunks_mut`] call that fans out runs one *region*: a closure
//! that the caller holds on its own stack and lends to the pool by
//! reference, run once per band. The pool's single mutex keeps the
//! region's closure, the next band to claim, the count of unfinished bands
//! and the first panic. The workers and the caller claim bands until none
//! is left, and the caller returns only once every band has finished, so
//! a region allocates nothing. The pool runs one region at a time: a
//! caller that finds it busy with another thread's region runs its bands
//! itself, in order.
//!
//! ## Sizing
//!
//! The global pool is sized once, on first use, from (in precedence order):
//!
//! 1. the `QN_NUM_THREADS` environment variable (`QN_NUM_THREADS=1`
//!    disables parallelism entirely — every call runs inline);
//! 2. [`std::thread::available_parallelism`].
//!
//! [`with_max_threads`] additionally caps the *effective* parallelism for
//! the current thread for the duration of a closure, which is how the
//! determinism test suites compare 1-thread and N-thread execution inside
//! one process.
//!
//! ## Determinism contract
//!
//! The bands are **disjoint output regions**; nothing reduces across bands
//! in pool order. A kernel that accumulates sequentially within each unit
//! (e.g. one matmul output row) therefore produces **bit-identical**
//! results at any thread count. Every parallel kernel in
//! `qn-tensor`/`qn-autograd` is written in that per-unit
//! sequential-accumulation style, and the workspace's property suites
//! assert the bit-equality.
//!
//! ## Nesting
//!
//! Work executed *inside* a band sees [`num_threads`]`() == 1`: nested
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

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

/// Minimum element count before a hot kernel should fan out to the pool;
/// below this the fork–join overhead dominates the work itself. The single
/// source of truth for every `par_chunks_mut_min` gate in the workspace
/// (`qn-tensor` elementwise/conv/pool kernels, `qn-autograd` fused kernels).
pub const PAR_MIN_ELEMS: usize = 16 * 1024;

/// A region's closure, run once per band.
type Body = &'static (dyn Fn(usize) + Sync);

type Panic = Box<dyn Any + Send>;

/// The region the pool is running, under its single mutex. The
/// `expect("… poisoned")` calls on this mutex can only fire on poisoning,
/// which is unreachable by construction: no band runs while it is held.
struct Region {
    /// The closure, lent by the region's caller; `None` while idle.
    body: Option<Body>,
    bands: usize,
    /// The next band to claim.
    next: usize,
    /// Bands not yet finished, claimed or not.
    unfinished: usize,
    /// The first panic of a band.
    panic: Option<Panic>,
}

impl Region {
    /// Claims the next band, if one is left.
    fn claim(&mut self) -> Option<(Body, usize)> {
        let body = self.body?;
        let band = self.next;
        (band < self.bands).then(|| {
            self.next += 1;
            (body, band)
        })
    }

    /// Counts one band as finished, keeping the region's first panic;
    /// `true` when it was the last.
    fn finish(&mut self, panic: Option<Panic>) -> bool {
        self.unfinished -= 1;
        if self.panic.is_none() {
            self.panic = panic;
        }
        self.unfinished == 0
    }
}

static REGION: Mutex<Region> = Mutex::new(Region {
    body: None,
    bands: 0,
    next: 0,
    unfinished: 0,
    panic: None,
});
/// Idle workers wait here for a region.
static WORK: Condvar = Condvar::new();
/// A region's caller waits here for its last band to finish.
static DONE: Condvar = Condvar::new();
static THREADS: OnceLock<usize> = OnceLock::new();

thread_local! {
    /// `true` while this thread runs a band (always, on a worker): nested
    /// parallel calls then run inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Per-thread cap installed by [`with_max_threads`].
    static MAX_THREADS: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn lock_region() -> MutexGuard<'static, Region> {
    REGION.lock().expect("pool region poisoned")
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

/// Runs band `band` of `body` with nested parallelism inline, returning
/// its panic, if any.
fn run_band(body: &(dyn Fn(usize) + Sync), band: usize) -> Option<Panic> {
    let was = IN_WORKER.with(|w| w.replace(true));
    let outcome = catch_unwind(AssertUnwindSafe(|| body(band)));
    IN_WORKER.with(|w| w.set(was));
    outcome.err()
}

fn worker_loop() {
    IN_WORKER.with(|w| w.set(true));
    loop {
        let (body, band) = {
            let mut region = lock_region();
            loop {
                match region.claim() {
                    Some(claim) => break claim,
                    None => region = WORK.wait(region).expect("pool region poisoned"),
                }
            }
        };
        let panic = run_band(body, band);
        // notified after the lock is released, so the woken caller does
        // not block on it
        let last = lock_region().finish(panic);
        if last {
            DONE.notify_one();
        }
    }
}

/// Runs `body(band)` for every `band < bands` on the pool and the calling
/// thread, returning once every band has finished; re-raises the first
/// band panic. A pool busy with another thread's region runs the bands on
/// the calling thread, in order.
fn run_region(bands: usize, body: &(dyn Fn(usize) + Sync)) {
    let mut region = lock_region();
    if region.body.is_some() {
        drop(region);
        (0..bands).for_each(body);
        return;
    }
    // SAFETY: `body` leaves the pool state below, and only once every band
    // has finished; a worker uses it only between claiming a band and
    // finishing it, so the `'static` reference never outlives `body`.
    let lent = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Body>(body) };
    *region = Region {
        body: Some(lent),
        bands,
        next: 1,
        unfinished: bands,
        panic: None,
    };
    drop(region);
    for _ in 1..bands {
        WORK.notify_one();
    }
    let mut band = 0;
    let mut region = loop {
        let panic = run_band(body, band);
        let mut region = lock_region();
        region.finish(panic);
        match region.claim() {
            Some((_, next)) => band = next,
            None => break region,
        }
    };
    while region.unfinished > 0 {
        region = DONE.wait(region).expect("pool region poisoned");
    }
    region.body = None;
    let panic = region.panic.take();
    drop(region);
    if let Some(panic) = panic {
        resume_unwind(panic);
    }
}

/// The global pool's total thread count (workers + the calling thread),
/// ignoring nesting and [`with_max_threads`] caps. Forces pool
/// initialization.
///
/// # Panics
///
/// Panics if the OS refuses to spawn a pool worker thread on first-use
/// initialization (resource exhaustion — the pool cannot degrade safely
/// once callers have observed its size).
pub fn pool_threads() -> usize {
    *THREADS.get_or_init(|| {
        let threads = env_threads().unwrap_or_else(default_threads);
        // The caller runs bands of its own region, so `threads`-way
        // parallelism needs `threads - 1` workers.
        for i in 0..threads.saturating_sub(1) {
            std::thread::Builder::new()
                .name(format!("qn-parallel-{i}"))
                .spawn(worker_loop)
                .expect("failed to spawn pool worker");
        }
        threads
    })
}

/// The parallelism available to the **current** thread right now: the pool
/// size, capped by an enclosing [`with_max_threads`], and `1` inside a band
/// (nested work runs inline).
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
    pool_threads().min(cap).max(1)
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

/// The base pointer of a slice whose disjoint bands a region hands out.
struct Bands<T>(*mut T);

// SAFETY: the one field is the pointer; each band turns it into a slice of
// elements no other band touches, and `T: Send` lets that band's thread
// own them.
unsafe impl<T: Send> Sync for Bands<T> {}

impl<T> Bands<T> {
    fn ptr(&self) -> *mut T {
        self.0
    }
}

/// Splits `data` into consecutive units of `unit_len` elements (the last may
/// be shorter) and calls `f(unit_index, unit)` for every unit, distributing
/// contiguous **bands** of units, one per available thread, across the pool
/// in one region (see the crate docs). A single unit runs on the calling
/// thread.
///
/// Each unit is written by exactly one band and `f` runs sequentially within
/// a unit, so results are bit-identical at any thread count as long as `f`
/// itself is deterministic per unit. This is the workhorse under the matmul
/// family (one unit = one output row) and the conv/pool kernels (one unit =
/// one output image plane).
///
/// # Panics
///
/// Panics if `unit_len == 0`. Re-raises the **first** panic of `f` on the
/// calling thread once every band has finished (bands run under
/// `catch_unwind`, so one panic leaves the pool usable). Also panics on
/// first-use pool initialization if a worker thread cannot be spawned (see
/// [`pool_threads`]).
pub fn par_chunks_mut<T, F>(data: &mut [T], unit_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(unit_len > 0, "unit_len must be positive");
    let units = data.len().div_ceil(unit_len);
    let threads = num_threads().min(units);
    if threads <= 1 {
        for (i, chunk) in data.chunks_mut(unit_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let units_per_band = units.div_ceil(threads);
    let band_len = units_per_band * unit_len;
    let (len, base) = (data.len(), Bands(data.as_mut_ptr()));
    run_region(len.div_ceil(band_len), &|bi| {
        let start = bi * band_len;
        // SAFETY: `run_region` runs each band once and returns only after
        // all of them, while `data` stays mutably borrowed here, and bands
        // are disjoint ranges of `data`.
        let band = unsafe {
            std::slice::from_raw_parts_mut(base.ptr().add(start), band_len.min(len - start))
        };
        for (j, chunk) in band.chunks_mut(unit_len).enumerate() {
            f(bi * units_per_band + j, chunk);
        }
    });
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
    use std::sync::mpsc;

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
            // inside a band (on a worker or the caller) nesting is inline
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
    fn a_panicking_band_leaves_the_pool_usable() {
        for _ in 0..4 {
            let result = std::panic::catch_unwind(|| {
                let mut data = vec![0u8; 64];
                par_chunks_mut(&mut data, 1, |i, _| assert!(i != 0 && i != 63, "boom"));
            });
            assert!(result.is_err(), "panic must reach the caller");
            let mut data = vec![0usize; 64];
            par_chunks_mut(&mut data, 1, |i, unit| unit[0] = i + 1);
            assert_eq!(data, (1..=64).collect::<Vec<_>>(), "a unit was not written");
        }
    }

    #[test]
    fn a_caller_finding_the_pool_busy_runs_inline() {
        let fill = |unit: usize, chunk: &mut [usize]| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = unit * 1000 + j;
            }
        };
        let mut want = vec![0usize; 64];
        with_max_threads(1, || par_chunks_mut(&mut want, 4, fill));
        // one attempt: `owned` tells whether the first call got the pool
        let attempt = || {
            let (started, started_rx) = mpsc::channel();
            let (finished, finished_rx) = mpsc::channel();
            std::thread::scope(|s| {
                let first = s.spawn(move || {
                    let finished_rx = Mutex::new(finished_rx);
                    let mut data = vec![0usize; 64];
                    par_chunks_mut(&mut data, 4, |unit, chunk| {
                        // unit 0 holds this call open until the second
                        // thread's call has returned; it runs as a band
                        // iff this call got the pool
                        if unit == 0 {
                            started.send(IN_WORKER.with(|w| w.get())).unwrap();
                            finished_rx.lock().unwrap().recv().unwrap();
                        }
                        fill(unit, chunk);
                    });
                    data
                });
                let second = s.spawn(move || {
                    let owned = started_rx.recv().unwrap();
                    let me = std::thread::current().id();
                    let on_caller = AtomicUsize::new(0);
                    let mut data = vec![0usize; 64];
                    par_chunks_mut(&mut data, 4, |unit, chunk| {
                        if std::thread::current().id() == me {
                            on_caller.fetch_add(1, Ordering::Relaxed);
                        }
                        fill(unit, chunk);
                    });
                    finished.send(()).unwrap();
                    (data, on_caller.into_inner(), owned)
                });
                (first.join().unwrap(), second.join().unwrap())
            })
        };
        // another test's region may hold the pool when the first call
        // starts; try again until the first call gets it
        for tries in 1.. {
            let (first, (second, on_caller, owned)) = attempt();
            assert_eq!(first, want);
            assert_eq!(second, want);
            if owned {
                assert_eq!(
                    on_caller, 16,
                    "a caller finding the pool busy runs every unit"
                );
                break;
            }
            if pool_threads() == 1 {
                break;
            }
            assert!(tries < 1000, "the first call never got the pool");
        }
    }

    #[test]
    fn a_single_unit_runs_on_the_calling_thread() {
        let ran_on = Mutex::new(None);
        par_chunks_mut(&mut [0u8; 3], 3, |_, _| {
            *ran_on.lock().unwrap() = Some(std::thread::current().id());
        });
        assert_eq!(
            ran_on.into_inner().unwrap(),
            Some(std::thread::current().id())
        );
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
}
