//! A recycling buffer pool for the data plane.
//!
//! Every packet that crosses the wire needs a frame buffer. The seed
//! implementation allocated a fresh `Vec<u8>` per `Packet::encode` and per
//! received frame; under bulk traffic the allocator became the dominant
//! software cost (the effect MPWide and the asynchronous-MPI literature
//! call out as buffer-reuse wins). [`BufPool`] removes that cost: buffers
//! are checked out with [`BufPool::get`], carried through the send/receive
//! pipelines as [`PooledBuf`]s, and returned to the pool automatically on
//! drop.
//!
//! The pool is **lock-sharded**: each checkout/return touches one shard
//! mutex chosen by a per-thread hint, so the Send Thread, Flow Control
//! Thread and user threads of many connections do not serialise on one
//! free list. When a shard (and, on checkout, its neighbours) is empty the
//! pool falls back to a plain heap allocation — exhaustion degrades to the
//! seed behaviour instead of blocking.
//!
//! Buffers come in two kinds. A frame — or a body or a message no longer
//! than one — takes an ordinary buffer, of the pool's buffer size
//! ([`BufPool::get`]); a longer message's body or reassembly takes a large
//! one (`BufPool::get_for`), and large ones are kept apart, so a frame
//! never holds 64 KiB. The pools of the process's nodes ([`BufPool::new`])
//! share one list of large buffers, as the heap would: the body one node
//! let go of is the next long message of another, and a node gone idle
//! holds none.
//!
//! The retain rule: a returned buffer is kept if its capacity is at most
//! [`MAX_RETAIN_CAPACITY`] — a frame of the largest SDU (64 KiB) and its
//! header — or the pool's own buffer size, if that is larger, and its free
//! list has room; else it is discarded. A reassembled message grows a
//! frame's payload at a time, by doubling, but stops at that bound
//! (`PooledBuf::extend_retained`). So a message of up to 64 KiB comes
//! back to the pool, and the next one reuses its buffer: nothing on the
//! steady-state path allocates.
//!
//! [`PoolStats`] counts checkouts, hits, misses, returns and discards.
//! Because the seed path performed one heap allocation where the pooled
//! path performs one checkout, `checkouts` is exactly the allocation count
//! of the unpooled code and `misses` the allocation count of the pooled
//! code. The benchmark reports both per message (`pool.*_per_msg`), and
//! `tests/pool.rs` holds a bulk stream's sender to one miss in two
//! checkouts at most.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

/// Default number of shards (power of two; chosen to cover the handful of
/// NCS threads a busy connection runs without oversizing the free lists).
pub const DEFAULT_SHARDS: usize = 8;

/// Default free-list capacity per shard, in buffers.
pub const DEFAULT_PER_SHARD: usize = 64;

/// Default capacity of a freshly allocated buffer: the default SDU plus
/// packet overhead, so a typical frame encodes without regrowing.
pub const DEFAULT_BUF_CAPACITY: usize = 4096 + crate::packet::DATA_OVERHEAD;

/// Largest buffer capacity the pool retains on return. Buffers grown past
/// the largest configurable SDU frame are discarded rather than pinned in
/// the free lists forever (a node-wide pool outlives the exotic connection
/// that produced them).
pub const MAX_RETAIN_CAPACITY: usize = 64 * 1024 + crate::packet::DATA_OVERHEAD;

#[derive(Debug, Default)]
struct Shard {
    free: Mutex<Vec<Vec<u8>>>,
}

#[derive(Debug, Default)]
struct Counters {
    checkouts: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    returns: AtomicU64,
    discards: AtomicU64,
}

/// A lock-sharded pool of reusable byte buffers.
///
/// Cheap to share (`Arc`); every NCS node owns one and threads of all its
/// connections draw from it. See the module docs for the design.
#[derive(Debug)]
pub struct BufPool {
    shards: Vec<Shard>,
    /// Buffers larger than `buf_capacity`, for long messages: one list
    /// that every pool [`BufPool::new`] made shares.
    large: Arc<Shard>,
    per_shard: usize,
    buf_capacity: usize,
    counters: Counters,
}

impl BufPool {
    /// Creates a pool with the default geometry, whose large buffers are
    /// those of every other such pool of the process.
    pub fn new() -> Arc<Self> {
        static LARGE: OnceLock<Arc<Shard>> = OnceLock::new();
        let mut pool = Self::with_config(DEFAULT_SHARDS, DEFAULT_PER_SHARD, DEFAULT_BUF_CAPACITY);
        Arc::get_mut(&mut pool).expect("just made").large =
            Arc::clone(LARGE.get_or_init(Arc::default));
        pool
    }

    /// Creates a pool with `shards` shards of `per_shard` buffers each;
    /// fresh buffers are allocated with `buf_capacity` bytes of capacity.
    /// Its large buffers are its own.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `per_shard` is zero.
    pub fn with_config(shards: usize, per_shard: usize, buf_capacity: usize) -> Arc<Self> {
        assert!(shards > 0, "pool needs at least one shard");
        assert!(per_shard > 0, "shards need at least one slot");
        Arc::new(BufPool {
            shards: (0..shards).map(|_| Shard::default()).collect(),
            large: Arc::default(),
            per_shard,
            buf_capacity,
            counters: Counters::default(),
        })
    }

    /// The process-wide pool used where no node-scoped pool is plumbed
    /// through (e.g. detached encode helpers).
    pub fn global() -> &'static Arc<BufPool> {
        static GLOBAL: OnceLock<Arc<BufPool>> = OnceLock::new();
        GLOBAL.get_or_init(BufPool::new)
    }

    fn shard_hint(&self) -> usize {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        thread_local! {
            static HINT: Cell<usize> = const { Cell::new(usize::MAX) };
        }
        let hint = HINT.with(|h| {
            if h.get() == usize::MAX {
                h.set(NEXT.fetch_add(1, Ordering::Relaxed));
            }
            h.get()
        });
        hint % self.shards.len()
    }

    /// Checks a cleared buffer out of the pool: an ordinary one, or a large
    /// one if none is left. Falls back to a fresh heap allocation when
    /// every list is empty (pool exhaustion never blocks).
    pub fn get(self: &Arc<Self>) -> PooledBuf {
        let home = self.shard_hint();
        let n = self.shards.len();
        let found = (0..n).find_map(|i| self.shards[(home + i) % n].free.lock().pop());
        let found = found.or_else(|| self.large.free.lock().pop());
        self.checkout(found, self.buf_capacity)
    }

    /// [`BufPool::get`] for `len` bytes: longer than the pool's buffer
    /// size, a large buffer, or a fresh one of `len` bytes.
    pub(crate) fn get_for(self: &Arc<Self>, len: usize) -> PooledBuf {
        if len <= self.buf_capacity {
            return self.get();
        }
        let found = self.large.free.lock().pop();
        self.checkout(found, len)
    }

    fn checkout(self: &Arc<Self>, found: Option<Vec<u8>>, capacity: usize) -> PooledBuf {
        self.counters.checkouts.fetch_add(1, Ordering::Relaxed);
        let (counter, mut buf) = match found {
            Some(buf) => (&self.counters.hits, buf),
            None => (&self.counters.misses, Vec::with_capacity(capacity)),
        };
        counter.fetch_add(1, Ordering::Relaxed);
        buf.clear();
        PooledBuf {
            buf,
            pool: Some(Arc::clone(self)),
        }
    }

    fn put_back(&self, buf: Vec<u8>) {
        // Cap retained capacity: a handful of giant frames must not pin
        // their allocations in the pool for the node's lifetime.
        if buf.capacity() > self.buf_capacity.max(MAX_RETAIN_CAPACITY) {
            self.counters.discards.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Large buffers have a list of their own. Ordinary ones prefer the
        // home shard but spill to neighbours before discarding: pipelines
        // return every buffer on one thread (the Send Thread), which would
        // otherwise cap the usable pool at a single shard.
        let large = buf.capacity() > self.buf_capacity;
        let mut buf = Some(buf);
        let home = self.shard_hint();
        let n = self.shards.len();
        let ordinary = (0..n).map(|i| &self.shards[(home + i) % n]);
        for list in ordinary
            .filter(|_| !large)
            .chain(large.then_some(&*self.large))
        {
            let mut free = list.free.lock();
            if free.len() < self.per_shard {
                free.push(buf.take().expect("unreturned buffer"));
                self.counters.returns.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        self.counters.discards.fetch_add(1, Ordering::Relaxed);
    }

    /// Buffers currently sitting in the free lists.
    pub fn free_buffers(&self) -> usize {
        let lists = self.shards.iter().chain([&*self.large]);
        lists.map(|s| s.free.lock().len()).sum()
    }

    /// A point-in-time statistics snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            checkouts: self.counters.checkouts.load(Ordering::Relaxed),
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            returns: self.counters.returns.load(Ordering::Relaxed),
            discards: self.counters.discards.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time statistics of a [`BufPool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers handed out (each checkout is one allocation the unpooled
    /// seed path would have made).
    pub checkouts: u64,
    /// Checkouts served from a free list.
    pub hits: u64,
    /// Checkouts that fell back to a heap allocation (the pooled path's
    /// true allocation count).
    pub misses: u64,
    /// Buffers accepted back into a free list.
    pub returns: u64,
    /// Buffers dropped because their shard's free list was full.
    pub discards: u64,
}

impl PoolStats {
    /// Fraction of checkouts served without allocating (0..=1).
    pub fn hit_rate(&self) -> f64 {
        if self.checkouts == 0 {
            0.0
        } else {
            self.hits as f64 / self.checkouts as f64
        }
    }

    /// Per-field difference against an earlier snapshot.
    #[must_use]
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            checkouts: self.checkouts - earlier.checkouts,
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            returns: self.returns - earlier.returns,
            discards: self.discards - earlier.discards,
        }
    }
}

impl std::fmt::Display for PoolStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} checkouts ({} hits / {} misses, {:.1} % hit rate), {} returns, {} discards",
            self.checkouts,
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.returns,
            self.discards,
        )
    }
}

/// A byte buffer borrowed from a [`BufPool`]; returns to the pool on drop.
///
/// Dereferences to `[u8]` for reading (so a `PooledBuf` can go anywhere a
/// frame slice is expected) and exposes the inner `Vec` via
/// [`PooledBuf::vec_mut`] for encoding into.
#[derive(Debug)]
pub struct PooledBuf {
    buf: Vec<u8>,
    pool: Option<Arc<BufPool>>,
}

impl PooledBuf {
    /// A detached buffer that never returns to any pool (for tests and
    /// call sites that want uniform types).
    pub fn detached(buf: Vec<u8>) -> Self {
        PooledBuf { buf, pool: None }
    }

    /// The encoded bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Mutable access to the inner vector (encode targets write here).
    pub fn vec_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Appends `bytes`, growing the buffer as a `Vec` grows — doubling —
    /// but not past what its pool keeps ([`MAX_RETAIN_CAPACITY`]) unless
    /// the bytes need more: a buffer that grows by a frame's payload at a
    /// time to a 64 KiB message stops at a size the pool takes back,
    /// where doubling alone would overshoot it and be discarded.
    pub(crate) fn extend_retained(&mut self, bytes: &[u8]) {
        let (len, capacity) = (self.buf.len(), self.buf.capacity());
        if len + bytes.len() > capacity {
            let grown = (2 * capacity).min(MAX_RETAIN_CAPACITY);
            self.buf.reserve_exact(grown.max(len + bytes.len()) - len);
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Detaches the buffer from its pool and hands the allocation over;
    /// the pool sees neither a return nor a discard for it.
    pub fn into_vec(mut self) -> Vec<u8> {
        self.pool = None;
        std::mem::take(&mut self.buf)
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.put_back(std::mem::take(&mut self.buf));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_return_recycles_capacity() {
        let pool = BufPool::with_config(2, 4, 128);
        {
            let mut b = pool.get();
            b.vec_mut().extend_from_slice(&[1, 2, 3]);
        } // drop: returns
        let s = pool.stats();
        assert_eq!(s.checkouts, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.returns, 1);
        // The next checkout on this thread reuses the same shard's buffer.
        let b = pool.get();
        assert!(b.is_empty(), "recycled buffer must come back cleared");
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn exhaustion_falls_back_to_heap() {
        let pool = BufPool::with_config(1, 1, 16);
        let a = pool.get();
        let b = pool.get();
        let c = pool.get();
        let s = pool.stats();
        assert_eq!(s.checkouts, 3);
        assert_eq!(s.misses, 3, "empty pool must allocate, not block");
        drop(a);
        drop(b); // shard holds 1: second return discards
        drop(c);
        let s = pool.stats();
        assert_eq!(s.returns, 1);
        assert_eq!(s.discards, 2);
    }

    #[test]
    fn oversized_buffers_are_not_retained() {
        let pool = BufPool::with_config(1, 4, 64);
        {
            let mut big = pool.get();
            big.vec_mut().reserve(MAX_RETAIN_CAPACITY + 1);
        } // drop: grown past the retention cap, must be discarded
        let s = pool.stats();
        assert_eq!(s.discards, 1);
        assert_eq!(s.returns, 0);
        assert_eq!(pool.free_buffers(), 0);
        // A pool configured for larger buffers retains its own size.
        let big_pool = BufPool::with_config(1, 4, 2 * MAX_RETAIN_CAPACITY);
        drop(big_pool.get());
        assert_eq!(big_pool.stats().returns, 1);
    }

    #[test]
    fn returns_spill_to_neighbour_shards() {
        let pool = BufPool::with_config(2, 1, 16);
        let a = pool.get();
        let b = pool.get();
        drop(a); // fills this thread's home shard
        drop(b); // must spill to the other shard, not discard
        let s = pool.stats();
        assert_eq!(s.returns, 2);
        assert_eq!(s.discards, 0);
        assert_eq!(pool.free_buffers(), 2);
    }

    #[test]
    fn into_vec_detaches() {
        let pool = BufPool::with_config(1, 4, 16);
        let mut b = pool.get();
        b.vec_mut().push(9);
        let v = b.into_vec();
        assert_eq!(v, vec![9]);
        assert_eq!(pool.stats().returns, 0);
        assert_eq!(pool.free_buffers(), 0);
    }

    #[test]
    fn detached_buffers_never_touch_a_pool() {
        let b = PooledBuf::detached(vec![1, 2]);
        assert_eq!(b.as_slice(), &[1, 2]);
        drop(b); // must not panic
    }

    #[test]
    fn stats_delta_and_display() {
        let pool = BufPool::with_config(1, 2, 16);
        let before = pool.stats();
        drop(pool.get());
        let delta = pool.stats().since(&before);
        assert_eq!(delta.checkouts, 1);
        assert!(pool.stats().to_string().contains("hit rate"));
        assert_eq!(PoolStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn global_pool_is_singleton() {
        let a = Arc::clone(BufPool::global());
        let b = Arc::clone(BufPool::global());
        assert!(Arc::ptr_eq(&a, &b));
    }
}
