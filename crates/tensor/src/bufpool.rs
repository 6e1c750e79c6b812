//! Size-bucketed buffer recycling: the allocation backbone of the
//! workspace's zero-alloc hot paths.
//!
//! A [`BufferPool`] keeps freed `Vec` storage in per-length free lists and
//! hands it back to later requests of the same length, so a steady-state
//! loop that repeatedly materializes the same tensor shapes (a serving
//! loop, a training step, a GEMM packing buffer) stops touching the global
//! allocator entirely once the pool is warm. `crates/bench/tests/contracts.rs`
//! verifies this with a counting allocator: after warmup,
//! `InferenceSession::predict` performs **zero** heap allocations, on one
//! worker thread and at the pool's full size.
//!
//! Two element types are bucketed — `f32` (tensor data and kernel
//! scratch) and `usize` (shape dims) — exactly the buffers the pooled hot
//! paths churn through. (The GEMM packing scratch recycles through
//! per-thread caches inside the `mat` module instead, so parallel workers
//! never contend on a pool lock.)
//!
//! # Contents contract
//!
//! A recycled buffer comes back with **unspecified contents** (the stale
//! values of its previous life). Every consumer must either fully overwrite
//! it or explicitly zero it first; the `pool_equivalence` property suite
//! pre-poisons pools with NaN garbage and asserts results are bit-identical
//! to fresh-allocation execution.
//!
//! # Example
//!
//! ```
//! use qn_tensor::BufferPool;
//!
//! let pool = BufferPool::new();
//! let buf = pool.take_f32(128); // cold: allocates (zero-filled)
//! pool.give_f32(buf);
//! let buf = pool.take_f32(128); // warm: recycled, no allocation
//! assert_eq!(buf.len(), 128);
//! let stats = pool.stats();
//! assert_eq!((stats.hits, stats.misses), (1, 1));
//! # pool.give_f32(buf);
//! ```

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Free buffers kept per bucket before further returns are dropped; bounds
/// the pool's worst-case footprint while comfortably covering the number of
/// same-shape live buffers any single pass produces.
const MAX_PER_BUCKET: usize = 64;

/// One element type's free lists, keyed by exact buffer length.
struct Buckets<T> {
    map: HashMap<usize, Vec<Vec<T>>>,
}

impl<T> Buckets<T> {
    fn new() -> Self {
        Buckets {
            map: HashMap::new(),
        }
    }

    fn take(&mut self, len: usize) -> Option<Vec<T>> {
        self.map.get_mut(&len).and_then(|b| b.pop())
    }

    /// Returns `true` if the buffer was kept (bucket not full).
    fn give(&mut self, buf: Vec<T>) -> bool {
        let bucket = self.map.entry(buf.len()).or_default();
        if bucket.len() >= MAX_PER_BUCKET {
            return false;
        }
        bucket.push(buf);
        true
    }

    fn held(&self) -> (u64, u64) {
        let mut buffers = 0u64;
        let mut elems = 0u64;
        for (len, b) in &self.map {
            buffers += b.len() as u64;
            elems += (*len as u64) * b.len() as u64;
        }
        (buffers, elems)
    }
}

/// Snapshot of a pool's counters (see [`BufferPool::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests served from a free list (no allocation).
    pub hits: u64,
    /// Requests that fell through to a fresh allocation.
    pub misses: u64,
    /// Buffers returned to the pool and kept.
    pub returns: u64,
    /// Buffers returned but dropped because their bucket was full.
    pub discarded: u64,
    /// `f32` buffers currently held across all buckets.
    pub buffers_held: u64,
    /// Bytes currently held in `f32` buckets (capacity not counted).
    pub bytes_held: u64,
}

/// A thread-safe, size-bucketed free list of `Vec` storage.
///
/// One **global** instance ([`BufferPool::global`]) backs default
/// `EagerExec` contexts; **per-session** instances (e.g. the one owned by
/// `InferenceSession` in `qn-models`) isolate a serving loop's recycling
/// from everything else. See the module docs for the contents contract.
pub struct BufferPool {
    f32s: Mutex<Buckets<f32>>,
    usizes: Mutex<Buckets<usize>>,
    hits: AtomicU64,
    misses: AtomicU64,
    returns: AtomicU64,
    discarded: AtomicU64,
}

impl Default for BufferPool {
    fn default() -> Self {
        BufferPool::new()
    }
}

impl BufferPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        BufferPool {
            f32s: Mutex::new(Buckets::new()),
            usizes: Mutex::new(Buckets::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            returns: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
        }
    }

    /// The process-wide shared pool — the default backing of `EagerExec`
    /// contexts built with `EagerExec::new` (sessions and benchmarks use
    /// their own instances).
    pub fn global() -> &'static Arc<BufferPool> {
        static GLOBAL: OnceLock<Arc<BufferPool>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(BufferPool::new()))
    }

    /// Takes a `len`-element `f32` buffer: recycled if a same-length buffer
    /// is pooled (contents **unspecified** — see the module docs), freshly
    /// allocated (zero-filled) otherwise.
    pub fn take_f32(&self, len: usize) -> Vec<f32> {
        match self.f32s.lock().expect("pool lock poisoned").take(len) {
            Some(buf) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                vec![0.0; len]
            }
        }
    }

    /// Like [`BufferPool::take_f32`] but the returned buffer is always
    /// zero-filled, warm or cold.
    pub fn take_f32_zeroed(&self, len: usize) -> Vec<f32> {
        let mut buf = self.take_f32(len);
        buf.fill(0.0);
        buf
    }

    /// Returns an `f32` buffer to the pool (bucketed by its length; dropped
    /// if the bucket is full or the buffer is empty).
    pub fn give_f32(&self, buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        if self.f32s.lock().expect("pool lock poisoned").give(buf) {
            self.returns.fetch_add(1, Ordering::Relaxed);
        } else {
            self.discarded.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Takes a `len`-element `usize` buffer (shape dims); unspecified
    /// contents when recycled, zero-filled when fresh.
    pub fn take_usize(&self, len: usize) -> Vec<usize> {
        match self.usizes.lock().expect("pool lock poisoned").take(len) {
            Some(buf) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                vec![0; len]
            }
        }
    }

    /// Returns a `usize` buffer to the pool.
    pub fn give_usize(&self, buf: Vec<usize>) {
        if buf.capacity() == 0 {
            return;
        }
        if self.usizes.lock().expect("pool lock poisoned").give(buf) {
            self.returns.fetch_add(1, Ordering::Relaxed);
        } else {
            self.discarded.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// RAII variant of [`BufferPool::take_f32`]: the buffer returns to
    /// `pool` when the [`PoolRef`] drops.
    pub fn take_ref(pool: &Arc<BufferPool>, len: usize) -> PoolRef {
        PoolRef {
            buf: Some(pool.take_f32(len)),
            pool: Arc::clone(pool),
        }
    }

    /// Snapshot of the counters and current holdings.
    pub fn stats(&self) -> PoolStats {
        let (buffers_held, elems) = self.f32s.lock().expect("pool lock poisoned").held();
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            returns: self.returns.load(Ordering::Relaxed),
            discarded: self.discarded.load(Ordering::Relaxed),
            buffers_held,
            bytes_held: elems * std::mem::size_of::<f32>() as u64,
        }
    }

    /// Drops every held buffer (counters are kept). The only eviction
    /// path: buckets are capped per length, but the set of distinct
    /// lengths follows the shapes the workload touches, so a long-lived
    /// process cycling through many shapes should `clear()` between
    /// workload phases.
    pub fn clear(&self) {
        self.f32s.lock().expect("pool lock poisoned").map.clear();
        self.usizes.lock().expect("pool lock poisoned").map.clear();
    }

    /// Overwrites **every** currently held `f32` buffer with `value` — the
    /// poisoned-pool test hook: after a warm pass, every buffer the next
    /// pass will recycle carries `value` (e.g. NaN), so any kernel that
    /// reads a recycled element before writing it is caught by a bitwise
    /// comparison.
    pub fn poison_held(&self, value: f32) {
        let mut buckets = self.f32s.lock().expect("pool lock poisoned");
        for bucket in buckets.map.values_mut() {
            for buf in bucket.iter_mut() {
                buf.fill(value);
            }
        }
    }
}

/// RAII handle to a pooled `f32` buffer: derefs to the slice and returns
/// the storage to its pool on drop. See [`BufferPool::take_ref`].
pub struct PoolRef {
    buf: Option<Vec<f32>>,
    pool: Arc<BufferPool>,
}

impl PoolRef {
    /// Detaches the buffer from the RAII return (it will not go back to the
    /// pool automatically).
    pub fn into_vec(mut self) -> Vec<f32> {
        self.buf.take().expect("buffer present until drop")
    }

    /// An empty handle holding no buffer (drops without returning
    /// anything) — the placeholder `Storage::make_owned` swaps in while
    /// detaching a pooled buffer.
    pub(crate) fn detached() -> PoolRef {
        PoolRef {
            buf: None,
            pool: Arc::clone(BufferPool::global()),
        }
    }
}

impl std::fmt::Debug for PoolRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PoolRef(len={})", self.buf.as_ref().map_or(0, Vec::len))
    }
}

impl Deref for PoolRef {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        self.buf.as_deref().expect("buffer present until drop")
    }
}

impl DerefMut for PoolRef {
    fn deref_mut(&mut self) -> &mut [f32] {
        self.buf.as_deref_mut().expect("buffer present until drop")
    }
}

impl Drop for PoolRef {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            self.pool.give_f32(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_by_exact_length() {
        let pool = BufferPool::new();
        let a = pool.take_f32(16);
        pool.give_f32(a);
        let _b = pool.take_f32(8); // different bucket: miss
        let c = pool.take_f32(16); // hit
        assert_eq!(c.len(), 16);
        let s = pool.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.returns, 1);
    }

    #[test]
    fn cold_take_is_zeroed_warm_take_is_unspecified() {
        let pool = BufferPool::new();
        let cold = pool.take_f32(4);
        assert_eq!(cold, vec![0.0; 4]);
        pool.give_f32(vec![7.0; 4]);
        let warm = pool.take_f32(4);
        assert_eq!(warm, vec![7.0; 4], "warm buffers keep stale contents");
        let zeroed = {
            pool.give_f32(warm);
            pool.take_f32_zeroed(4)
        };
        assert_eq!(zeroed, vec![0.0; 4]);
    }

    #[test]
    fn bucket_cap_discards_excess() {
        let pool = BufferPool::new();
        for _ in 0..MAX_PER_BUCKET + 5 {
            pool.give_f32(vec![0.0; 2]);
        }
        let s = pool.stats();
        assert_eq!(s.returns, MAX_PER_BUCKET as u64);
        assert_eq!(s.discarded, 5);
        assert_eq!(s.buffers_held, MAX_PER_BUCKET as u64);
    }

    #[test]
    fn pool_ref_returns_on_drop() {
        let pool = Arc::new(BufferPool::new());
        {
            let mut r = BufferPool::take_ref(&pool, 8);
            r[0] = 3.0;
            assert_eq!(r.len(), 8);
        }
        assert_eq!(pool.stats().buffers_held, 1);
        let warm = pool.take_f32(8);
        assert_eq!(warm[0], 3.0);
    }

    #[test]
    fn usize_buckets_work() {
        let pool = BufferPool::new();
        pool.give_usize(vec![1, 2, 3]);
        assert_eq!(pool.take_usize(3), vec![1, 2, 3]);
        assert_eq!(pool.take_usize(2), vec![0, 0]);
    }

    #[test]
    fn clear_drops_holdings() {
        let pool = BufferPool::new();
        pool.give_f32(vec![0.0; 4]);
        pool.clear();
        assert_eq!(pool.stats().buffers_held, 0);
    }

    #[test]
    fn pool_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BufferPool>();
    }
}
