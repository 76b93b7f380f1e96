//! An LRU buffer pool with access accounting.
//!
//! The pool is the measurement instrument for the paper's I/O numbers: a
//! *miss* is a disk access; Figure 16(c)/(d)'s "I/O cost (# of pages)" is
//! the miss count of a query run against a cold pool.

use crate::page::{new_page, Page, PageId, PAGE_SIZE};
use crate::store::PageStore;
use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use xseq_telemetry::{Counter, MetricsRegistry};

/// Pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Page requests served from the pool.
    pub hits: u64,
    /// Page requests that had to read the store — "disk accesses".
    pub misses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
}

impl PoolStats {
    /// Fraction of page requests served from the pool, `None` before any
    /// request has been made.
    pub fn hit_ratio(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }
}

/// Arc'd handles to the `storage.pool.*` metrics of a registry.
///
/// Unlike [`PoolStats`] (which [`BufferPool::reset_stats`] zeroes between
/// queries), these counters are cumulative for the registry's lifetime.
#[derive(Debug, Clone)]
pub struct PoolTelemetry {
    /// `storage.pool.hits`.
    pub hits: Arc<Counter>,
    /// `storage.pool.misses` — disk accesses.
    pub misses: Arc<Counter>,
    /// `storage.pool.evictions`.
    pub evictions: Arc<Counter>,
}

impl PoolTelemetry {
    /// Gets-or-registers the pool metrics in `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        PoolTelemetry {
            hits: registry.counter("storage.pool.hits"),
            misses: registry.counter("storage.pool.misses"),
            evictions: registry.counter("storage.pool.evictions"),
        }
    }
}

/// A fixed-capacity LRU cache of pages over a [`PageStore`].
///
/// Read-only from the caller's perspective (the index is immutable once
/// written), so eviction never writes back.
#[derive(Debug)]
pub struct BufferPool<S: PageStore> {
    store: S,
    capacity: usize,
    frames: HashMap<PageId, (Page, u64)>,
    clock: u64,
    stats: PoolStats,
    telemetry: Option<PoolTelemetry>,
}

impl<S: PageStore> BufferPool<S> {
    /// Wraps a store with an LRU cache of `capacity` pages (minimum 1).
    pub fn new(store: S, capacity: usize) -> Self {
        BufferPool {
            store,
            capacity: capacity.max(1),
            frames: HashMap::new(),
            clock: 0,
            stats: PoolStats::default(),
            telemetry: None,
        }
    }

    /// Mirrors every hit/miss/eviction into the given registry counters
    /// (on top of the resettable [`PoolStats`]).
    ///
    /// Accesses made before attaching are seeded into the counters, so a
    /// pool attached after first use still reports hits+misses consistent
    /// with its own [`PoolStats`].
    pub fn attach_telemetry(&mut self, telemetry: PoolTelemetry) {
        telemetry.hits.add(self.stats.hits);
        telemetry.misses.add(self.stats.misses);
        telemetry.evictions.add(self.stats.evictions);
        self.telemetry = Some(telemetry);
    }

    /// Fetches a page, reading through on a miss, and hands it to `f`.
    #[expect(clippy::expect_used, reason = "eviction runs only when frames.len() >= capacity >= 1")]
    pub fn with_page<R>(
        &mut self,
        id: PageId,
        f: impl FnOnce(&[u8; PAGE_SIZE]) -> R,
    ) -> io::Result<R> {
        self.clock += 1;
        let clock = self.clock;
        if let Some((page, used)) = self.frames.get_mut(&id) {
            *used = clock;
            self.stats.hits += 1;
            if let Some(t) = &self.telemetry {
                t.hits.inc();
            }
            return Ok(f(page));
        }
        self.stats.misses += 1;
        if let Some(t) = &self.telemetry {
            t.misses.inc();
        }
        let mut page = new_page();
        self.store.read_page(id, &mut page)?;
        if self.frames.len() >= self.capacity {
            // evict the least recently used frame
            let victim = self
                .frames
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(&k, _)| k)
                .expect("non-empty");
            self.frames.remove(&victim);
            self.stats.evictions += 1;
            if let Some(t) = &self.telemetry {
                t.evictions.inc();
            }
        }
        let r = f(&page);
        self.frames.insert(id, (page, clock));
        Ok(r)
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Zeroes the counters (e.g. between queries).
    pub fn reset_stats(&mut self) {
        self.stats = PoolStats::default();
    }

    /// Drops every cached frame (cold start) and zeroes the counters.
    pub fn clear(&mut self) {
        self.frames.clear();
        self.reset_stats();
    }

    /// Number of resident pages.
    pub fn resident(&self) -> usize {
        self.frames.len()
    }

    /// The wrapped store.
    pub fn store(&self) -> &S {
        &self.store
    }
}

/// Heap attribution for the pool: the frame table (one boxed page per
/// resident frame) plus the wrapped store's own heap.
impl<S: PageStore + xseq_telemetry::HeapSize> xseq_telemetry::HeapSize for BufferPool<S> {
    fn heap_bytes(&self) -> usize {
        xseq_telemetry::hash_table_alloc_bytes(
            self.frames.capacity(),
            std::mem::size_of::<(PageId, (Page, u64))>(),
        ) + self.frames.len() * PAGE_SIZE
            + self.store.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{get_u32, put_u32};
    use crate::store::MemStore;

    fn store_with(n: u32) -> MemStore {
        let mut s = MemStore::new();
        for i in 0..n {
            let mut p = new_page();
            put_u32(&mut p, 0, i * 10);
            s.write_page(i, &p).unwrap();
        }
        s
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut pool = BufferPool::new(store_with(4), 2);
        assert_eq!(pool.with_page(0, |p| get_u32(p, 0)).unwrap(), 0);
        assert_eq!(pool.with_page(0, |p| get_u32(p, 0)).unwrap(), 0);
        assert_eq!(pool.with_page(1, |p| get_u32(p, 0)).unwrap(), 10);
        let st = pool.stats();
        assert_eq!(st.misses, 2);
        assert_eq!(st.hits, 1);
        assert_eq!(st.evictions, 0);
    }

    #[test]
    fn lru_eviction_order() {
        let mut pool = BufferPool::new(store_with(4), 2);
        pool.with_page(0, |_| ()).unwrap();
        pool.with_page(1, |_| ()).unwrap();
        pool.with_page(0, |_| ()).unwrap(); // 0 freshened, 1 is LRU
        pool.with_page(2, |_| ()).unwrap(); // evicts 1
        assert_eq!(pool.stats().evictions, 1);
        pool.reset_stats();
        pool.with_page(0, |_| ()).unwrap(); // still resident
        assert_eq!(pool.stats().hits, 1);
        pool.with_page(1, |_| ()).unwrap(); // was evicted
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn capacity_is_respected() {
        let mut pool = BufferPool::new(store_with(4), 2);
        for i in 0..4 {
            pool.with_page(i, |_| ()).unwrap();
        }
        assert!(pool.resident() <= 2);
    }

    #[test]
    fn clear_gives_cold_start() {
        let mut pool = BufferPool::new(store_with(2), 4);
        pool.with_page(0, |_| ()).unwrap();
        pool.clear();
        assert_eq!(pool.resident(), 0);
        assert_eq!(pool.stats(), PoolStats::default());
        pool.with_page(0, |_| ()).unwrap();
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn missing_page_is_an_error() {
        let mut pool = BufferPool::new(store_with(1), 2);
        assert!(pool.with_page(9, |_| ()).is_err());
    }

    #[test]
    fn late_attach_seeds_existing_stats() {
        use xseq_telemetry::MetricsRegistry;
        let mut pool = BufferPool::new(store_with(4), 2);
        // pre-attach traffic: 3 misses, 1 hit, 1 eviction
        for i in 0..3 {
            pool.with_page(i, |_| ()).unwrap();
        }
        pool.with_page(2, |_| ()).unwrap();
        let reg = MetricsRegistry::new();
        pool.attach_telemetry(PoolTelemetry::register(&reg));
        let st = pool.stats();
        assert_eq!(reg.snapshot().counter("storage.pool.hits"), st.hits);
        assert_eq!(reg.snapshot().counter("storage.pool.misses"), st.misses);
        assert_eq!(
            reg.snapshot().counter("storage.pool.evictions"),
            st.evictions
        );
        // post-attach traffic stays consistent
        pool.with_page(2, |_| ()).unwrap(); // hit
        pool.with_page(0, |_| ()).unwrap(); // miss + eviction
        let st = pool.stats();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("storage.pool.hits"), st.hits);
        assert_eq!(snap.counter("storage.pool.misses"), st.misses);
        assert_eq!(snap.counter("storage.pool.evictions"), st.evictions);
        assert_eq!(
            st.hit_ratio(),
            Some(st.hits as f64 / (st.hits + st.misses) as f64)
        );
    }
}
