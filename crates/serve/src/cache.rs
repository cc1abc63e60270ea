//! The content-addressed MSA feature cache.
//!
//! AF_Cache's observation, expressed on our cost model: MSA features
//! depend only on the query content, so a repeated entity can load its
//! feature file from NVMe instead of re-running hours of jackhmmer /
//! nhmmer. The cache is keyed by entity identity (the workload's
//! content address), capacity-bounded in bytes, and evicts least
//! recently used entries. Hit/miss/eviction counters are published
//! through `rt::obs` by the server.
//!
//! A hit charges only the storage-priced feature load (the server
//! computes it from the platform's sequential-read bandwidth); a miss
//! pays the full CPU phase. Concurrent misses for the same entity are
//! *not* coalesced by default — like the naive systems, two in-flight
//! requests for an uncached entity both run the search, and the second
//! insert just refreshes the entry. When the server opts in
//! (`ServeConfig::coalesce_misses`), the second request instead waits
//! on the in-flight fill (a `CacheFill` event on the engine clock) and
//! the wait is counted here as a [`FeatureCache::coalesced_hit`].

use std::collections::BTreeMap;

/// A capacity-bounded LRU cache of MSA feature files. Recency is a
/// strictly increasing stamp: `entries` maps each entity to its stamp
/// and size, `order` maps stamps back to entities, least recently used
/// first. A lookup, an insert and each eviction are O(log n).
#[derive(Debug, Clone, Default)]
pub struct FeatureCache {
    capacity_bytes: u64,
    /// entity → `(recency stamp, bytes)`.
    entries: BTreeMap<usize, (u64, u64)>,
    /// recency stamp → entity, least recently used first.
    order: BTreeMap<u64, usize>,
    /// The next recency stamp.
    clock: u64,
    bytes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    coalesced: u64,
}

impl FeatureCache {
    /// A cache holding at most `capacity_bytes` of feature files
    /// (`0` disables caching entirely).
    pub fn new(capacity_bytes: u64) -> FeatureCache {
        FeatureCache {
            capacity_bytes,
            ..FeatureCache::default()
        }
    }

    /// Look up an entity, counting a hit or miss and refreshing
    /// recency on hit.
    pub fn lookup(&mut self, entity: usize) -> bool {
        match self.entries.remove(&entity) {
            Some((stamp, file_bytes)) => {
                self.order.remove(&stamp);
                self.push_newest(entity, file_bytes);
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// Insert (or refresh) an entity's feature file, evicting LRU
    /// entries until it fits. A file larger than the whole cache is
    /// not admitted.
    pub fn insert(&mut self, entity: usize, file_bytes: u64) {
        if let Some((stamp, old)) = self.entries.remove(&entity) {
            self.order.remove(&stamp);
            self.bytes -= old;
        }
        if file_bytes > self.capacity_bytes {
            return;
        }
        while self.bytes + file_bytes > self.capacity_bytes {
            // Cannot run dry: `bytes` sums the cached entries, and the
            // file alone fits the capacity.
            let (_, victim) = self
                .order
                .pop_first()
                .expect("an over-full cache holds an entry");
            let (_, evicted) = self
                .entries
                .remove(&victim)
                .expect("order and entries agree");
            self.bytes -= evicted;
            self.evictions += 1;
        }
        self.push_newest(entity, file_bytes);
        self.bytes += file_bytes;
    }

    /// Record `entity` (not currently cached) as the most recently used.
    fn push_newest(&mut self, entity: usize, file_bytes: u64) {
        self.entries.insert(entity, (self.clock, file_bytes));
        self.order.insert(self.clock, entity);
        self.clock += 1;
    }

    /// Count a request that piggybacked on an in-flight fill for its
    /// entity instead of duplicating the MSA search: a hit (the CPU
    /// phase was skipped) that also bumps the coalesced counter. The
    /// entity is not cached yet, so there is no recency to refresh.
    pub fn coalesced_hit(&mut self) {
        self.hits += 1;
        self.coalesced += 1;
    }

    /// Whether the entity is currently cached (no counter side effects).
    pub fn contains(&self, entity: usize) -> bool {
        self.entries.contains_key(&entity)
    }

    /// Cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes currently cached.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Hits that piggybacked on an in-flight fill so far.
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }

    /// Hits over lookups (`0.0` before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afsb_rt::check::{run, Config};

    /// The linear-scan LRU the maps replaced, kept as the reference
    /// model: `(entity, bytes)` least recently used first.
    #[derive(Default)]
    struct VecLru {
        capacity_bytes: u64,
        entries: Vec<(usize, u64)>,
        bytes: u64,
        hits: u64,
        misses: u64,
        evictions: u64,
    }

    impl VecLru {
        fn lookup(&mut self, entity: usize) -> bool {
            match self.entries.iter().position(|&(e, _)| e == entity) {
                Some(i) => {
                    let entry = self.entries.remove(i);
                    self.entries.push(entry);
                    self.hits += 1;
                    true
                }
                None => {
                    self.misses += 1;
                    false
                }
            }
        }

        fn insert(&mut self, entity: usize, file_bytes: u64) {
            if let Some(i) = self.entries.iter().position(|&(e, _)| e == entity) {
                let (_, old) = self.entries.remove(i);
                self.bytes -= old;
            }
            if file_bytes > self.capacity_bytes {
                return;
            }
            while self.bytes + file_bytes > self.capacity_bytes {
                let (_, evicted) = self.entries.remove(0);
                self.bytes -= evicted;
                self.evictions += 1;
            }
            self.entries.push((entity, file_bytes));
            self.bytes += file_bytes;
        }

        fn contains(&self, entity: usize) -> bool {
            self.entries.iter().any(|&(e, _)| e == entity)
        }
    }

    #[test]
    fn maps_agree_with_the_linear_scan_reference() {
        run(
            "maps_agree_with_the_linear_scan_reference",
            Config::cases(256),
            |g| {
                // A capacity of a few files over a dozen entities, so
                // inserts evict, refresh cached entries with new sizes,
                // and sometimes exceed the whole cache.
                let capacity = g.range(1u64..64);
                let catalog = g.range(1usize..12);
                let mut cache = FeatureCache::new(capacity);
                let mut model = VecLru {
                    capacity_bytes: capacity,
                    ..VecLru::default()
                };
                let mut coalesced = 0;
                for _ in 0..g.range(1usize..300) {
                    let entity = g.range(0..catalog);
                    match g.range(0u32..8) {
                        0..=2 => assert_eq!(cache.lookup(entity), model.lookup(entity)),
                        3..=5 => {
                            let file_bytes = g.range(0..=capacity);
                            cache.insert(entity, file_bytes);
                            model.insert(entity, file_bytes);
                        }
                        6 => {
                            let oversize = capacity + g.range(1u64..8);
                            cache.insert(entity, oversize);
                            model.insert(entity, oversize);
                        }
                        _ => {
                            cache.coalesced_hit();
                            model.hits += 1;
                            coalesced += 1;
                        }
                    }
                    assert_eq!(
                        (cache.hits(), cache.misses(), cache.evictions()),
                        (model.hits, model.misses, model.evictions)
                    );
                    assert_eq!(cache.coalesced(), coalesced);
                    assert_eq!(cache.bytes(), model.bytes);
                    assert_eq!(cache.len(), model.entries.len());
                    for e in 0..catalog {
                        assert_eq!(cache.contains(e), model.contains(e), "entity {e}");
                    }
                }
            },
        );
    }

    #[test]
    fn hit_miss_accounting_and_recency() {
        let mut c = FeatureCache::new(100);
        assert!(!c.lookup(1));
        c.insert(1, 40);
        assert!(c.lookup(1));
        assert_eq!((c.hits(), c.misses()), (1, 1));
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(c.bytes(), 40);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let mut c = FeatureCache::new(100);
        c.insert(1, 40);
        c.insert(2, 40);
        assert!(c.lookup(1)); // 2 is now LRU
        c.insert(3, 40); // must evict 2, not 1
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3));
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.bytes(), 80);
    }

    #[test]
    fn refresh_does_not_double_count_bytes() {
        let mut c = FeatureCache::new(100);
        c.insert(1, 40);
        c.insert(1, 60); // concurrent-miss refresh with a new size
        assert_eq!(c.bytes(), 60);
        assert_eq!(c.len(), 1);
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn coalesced_hits_count_as_hits_without_inserting() {
        let mut c = FeatureCache::new(100);
        assert!(!c.lookup(1)); // first miss starts the fill
        c.coalesced_hit(); // second request waits on it
        assert_eq!((c.hits(), c.misses(), c.coalesced()), (1, 1, 1));
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
        assert!(c.is_empty(), "coalescing must not insert the entry early");
    }

    #[test]
    fn zero_capacity_disables_and_oversized_files_skip() {
        let mut c = FeatureCache::new(0);
        c.insert(1, 1);
        assert!(c.is_empty());
        assert!(!c.lookup(1));

        let mut c = FeatureCache::new(50);
        c.insert(1, 40);
        c.insert(2, 80); // larger than capacity: not admitted
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert_eq!(c.evictions(), 0, "an oversized file must not evict");
    }
}
