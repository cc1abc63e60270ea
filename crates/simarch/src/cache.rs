//! Set-associative cache model with LRU replacement.

use crate::config::CacheLevelConfig;

/// Outcome of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The line was present.
    Hit,
    /// The line was absent and has been installed.
    Miss,
}

/// Running hit/miss statistics for one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand lookups.
    pub accesses: u64,
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Lines installed by the prefetcher.
    pub prefetch_fills: u64,
    /// Demand hits on prefetched lines (prefetch usefulness).
    pub prefetch_hits: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]`; 0 when there were no accesses.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Merge another stats block into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.hits += other.hits;
        self.misses += other.misses;
        self.prefetch_fills += other.prefetch_fills;
        self.prefetch_hits += other.prefetch_hits;
    }
}

/// Way bit: the way holds a line. A way of 0 is invalid.
const VALID: u64 = 1;
/// Way bit: the line was installed by the prefetcher and has not been
/// demand-hit since.
const PREFETCHED: u64 = 2;

/// A single set-associative cache with true-LRU replacement.
///
/// Addresses are byte addresses; the cache indexes by
/// `(addr / line) % sets` and tags with `addr / line / sets`.
///
/// Each way is one `u64`, `tag << 2 | PREFETCHED | VALID`, and each set
/// keeps its ways in recency order, most recent first. A hit moves its
/// way to the front; a miss or a new prefetch fill shifts the set down
/// by one, dropping the last (least recent, or invalid) way. Valid ways
/// therefore always form a prefix of their set.
///
/// ```
/// use afsb_simarch::cache::{Cache, Lookup};
/// use afsb_simarch::config::CacheLevelConfig;
///
/// let mut c = Cache::new(CacheLevelConfig { capacity: 4096, ways: 4, line: 64, hit_cycles: 4 });
/// assert_eq!(c.access(0x100), Lookup::Miss);
/// assert_eq!(c.access(0x100), Lookup::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheLevelConfig,
    sets: usize,
    set_shift: u32,
    ways: Vec<u64>,
    stats: CacheStats,
}

impl Cache {
    /// Create an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the number of sets or the line size is not a power of
    /// two, or if `line × sets < 4`: the tag of a 64-bit address would
    /// then not fit in the 62 bits a packed way leaves for it.
    pub fn new(config: CacheLevelConfig) -> Cache {
        let sets = config.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(
            config.line.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            config.line * sets >= 4,
            "line x sets must be at least 4 bytes so a tag fits in 62 bits"
        );
        Cache {
            config,
            sets,
            set_shift: config.line.trailing_zeros(),
            ways: vec![0; sets * config.ways],
            stats: CacheStats::default(),
        }
    }

    /// The geometry of this cache.
    pub fn config(&self) -> &CacheLevelConfig {
        &self.config
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The index of the first way of `addr`'s set, and the key of its
    /// line: the tag packed with `VALID`.
    fn index(&self, addr: u64) -> (usize, u64) {
        let line_addr = addr >> self.set_shift;
        let set = (line_addr as usize) & (self.sets - 1);
        let tag = line_addr >> self.sets.trailing_zeros();
        (set * self.config.ways, tag << 2 | VALID)
    }

    /// The position of `key`'s line in `set`, ignoring its prefetch bit.
    fn find(set: &[u64], key: u64) -> Option<usize> {
        set.iter().position(|&way| way & !PREFETCHED == key)
    }

    /// Shift `set[..at]` down by one and put `way` in front, dropping
    /// `set[at]`: a hit passes its own position, a fill the last way.
    fn move_to_front(set: &mut [u64], at: usize, way: u64) {
        set.copy_within(..at, 1);
        set[0] = way;
    }

    /// Demand access: looks up `addr`, installing the line on a miss.
    pub fn access(&mut self, addr: u64) -> Lookup {
        self.stats.accesses += 1;
        let (base, key) = self.index(addr);
        let set = &mut self.ways[base..base + self.config.ways];
        match Cache::find(set, key) {
            Some(at) => {
                if set[at] & PREFETCHED != 0 {
                    self.stats.prefetch_hits += 1;
                }
                Cache::move_to_front(set, at, key);
                self.stats.hits += 1;
                Lookup::Hit
            }
            None => {
                self.stats.misses += 1;
                Cache::move_to_front(set, set.len() - 1, key);
                Lookup::Miss
            }
        }
    }

    /// Install a line on behalf of the prefetcher (no demand stats).
    /// Returns `true` if the line was newly installed. A line already
    /// present keeps its place in the recency order.
    pub fn prefetch_fill(&mut self, addr: u64) -> bool {
        let (base, key) = self.index(addr);
        let set = &mut self.ways[base..base + self.config.ways];
        if Cache::find(set, key).is_some() {
            return false;
        }
        self.stats.prefetch_fills += 1;
        Cache::move_to_front(set, set.len() - 1, key | PREFETCHED);
        true
    }

    /// Whether `addr`'s line is currently resident (no side effects).
    pub fn probe(&self, addr: u64) -> bool {
        let (base, key) = self.index(addr);
        Cache::find(&self.ways[base..base + self.config.ways], key).is_some()
    }

    /// Drop all contents and statistics.
    pub fn reset(&mut self) {
        self.ways.fill(0);
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheLevelConfig, Platform};
    use afsb_rt::check::{run, Config, Gen};

    #[derive(Debug, Clone, Copy)]
    struct Line {
        tag: u64,
        valid: bool,
        /// LRU stamp: larger = more recently used.
        stamp: u64,
        prefetched: bool,
    }

    const INVALID_LINE: Line = Line {
        tag: 0,
        valid: false,
        stamp: 0,
        prefetched: false,
    };

    /// Reference model: true LRU by timestamp. Each 24-byte line carries
    /// a stamp from a per-cache clock, and the victim is the first
    /// invalid way, else the way with the oldest stamp.
    struct StampLru {
        ways: usize,
        sets: usize,
        set_shift: u32,
        lines: Vec<Line>,
        clock: u64,
        stats: CacheStats,
    }

    impl StampLru {
        fn new(config: CacheLevelConfig) -> StampLru {
            let sets = config.sets();
            StampLru {
                ways: config.ways,
                sets,
                set_shift: config.line.trailing_zeros(),
                lines: vec![INVALID_LINE; sets * config.ways],
                clock: 0,
                stats: CacheStats::default(),
            }
        }

        fn index(&self, addr: u64) -> (usize, u64) {
            let line_addr = addr >> self.set_shift;
            let set = (line_addr as usize) & (self.sets - 1);
            let tag = line_addr >> self.sets.trailing_zeros();
            (set, tag)
        }

        fn access(&mut self, addr: u64) -> Lookup {
            self.clock += 1;
            self.stats.accesses += 1;
            let (set, tag) = self.index(addr);
            let base = set * self.ways;
            let ways = &mut self.lines[base..base + self.ways];
            if let Some(line) = ways.iter_mut().find(|l| l.valid && l.tag == tag) {
                line.stamp = self.clock;
                if line.prefetched {
                    self.stats.prefetch_hits += 1;
                    line.prefetched = false;
                }
                self.stats.hits += 1;
                return Lookup::Hit;
            }
            self.stats.misses += 1;
            let victim = ways
                .iter_mut()
                .min_by_key(|l| if l.valid { l.stamp } else { 0 })
                .expect("cache set has at least one way");
            *victim = Line {
                tag,
                valid: true,
                stamp: self.clock,
                prefetched: false,
            };
            Lookup::Miss
        }

        fn prefetch_fill(&mut self, addr: u64) -> bool {
            self.clock += 1;
            let (set, tag) = self.index(addr);
            let base = set * self.ways;
            let ways = &mut self.lines[base..base + self.ways];
            if ways.iter().any(|l| l.valid && l.tag == tag) {
                return false;
            }
            self.stats.prefetch_fills += 1;
            let victim = ways
                .iter_mut()
                .min_by_key(|l| if l.valid { l.stamp } else { 0 })
                .expect("cache set has at least one way");
            *victim = Line {
                tag,
                valid: true,
                stamp: self.clock,
                prefetched: true,
            };
            true
        }

        fn probe(&self, addr: u64) -> bool {
            let (set, tag) = self.index(addr);
            let base = set * self.ways;
            self.lines[base..base + self.ways]
                .iter()
                .any(|l| l.valid && l.tag == tag)
        }

        fn reset(&mut self) {
            self.lines.fill(INVALID_LINE);
            self.clock = 0;
            self.stats = CacheStats::default();
        }
    }

    /// An address in one of the first three sets, with a tag drawn from a
    /// pool a little larger than the associativity (so sets fill, hit and
    /// evict) or from the top of the 62-bit tag range.
    fn draw_addr(g: &mut Gen, config: &CacheLevelConfig) -> u64 {
        let sets = config.sets() as u64;
        let line_shift = config.line.trailing_zeros();
        let max_tag = u64::MAX >> (line_shift + sets.trailing_zeros());
        let pool = 2 * config.ways as u64 + 2;
        let tag = if g.range(0u32..8) == 0 {
            max_tag - g.range(0..pool.min(max_tag + 1))
        } else {
            g.range(0..pool)
        };
        let set = g.range(0..sets.min(3));
        let offset = g.range(0..config.line as u64);
        ((tag * sets + set) << line_shift) | offset
    }

    fn check_against_reference(name: &str, config: CacheLevelConfig) {
        run(name, Config::cases(48), |g| {
            let mut packed = Cache::new(config);
            let mut reference = StampLru::new(config);
            let ops = g.range(1usize..600);
            for op in 0..ops {
                let addr = draw_addr(g, &config);
                match g.range(0u32..20) {
                    0..=10 => {
                        assert_eq!(packed.access(addr), reference.access(addr), "op {op}");
                    }
                    11..=16 => assert_eq!(
                        packed.prefetch_fill(addr),
                        reference.prefetch_fill(addr),
                        "op {op}"
                    ),
                    17..=18 => {}
                    _ => {
                        packed.reset();
                        reference.reset();
                    }
                }
                assert_eq!(packed.probe(addr), reference.probe(addr), "op {op}");
                assert_eq!(*packed.stats(), reference.stats, "op {op}");
            }
        });
    }

    #[test]
    fn packed_ways_match_stamp_lru_on_the_server_llc() {
        let llc = Platform::Server.spec().llc;
        assert_eq!(llc.ways, 15);
        check_against_reference("packed_ways_match_stamp_lru_on_the_server_llc", llc);
    }

    #[test]
    fn packed_ways_match_stamp_lru_direct_mapped() {
        check_against_reference(
            "packed_ways_match_stamp_lru_direct_mapped",
            CacheLevelConfig {
                capacity: 512,
                ways: 1,
                line: 64,
                hit_cycles: 1,
            },
        );
    }

    #[test]
    fn packed_ways_match_stamp_lru_fully_associative() {
        check_against_reference(
            "packed_ways_match_stamp_lru_fully_associative",
            CacheLevelConfig {
                capacity: 8 * 4,
                ways: 8,
                line: 4,
                hit_cycles: 1,
            },
        );
    }

    #[test]
    fn packed_ways_match_stamp_lru_on_the_tiny_cache() {
        check_against_reference(
            "packed_ways_match_stamp_lru_on_the_tiny_cache",
            tiny().config,
        );
    }

    #[test]
    #[should_panic(expected = "tag fits in 62 bits")]
    fn rejects_a_geometry_whose_tag_needs_more_than_62_bits() {
        Cache::new(CacheLevelConfig {
            capacity: 2,
            ways: 1,
            line: 1,
            hit_cycles: 1,
        });
    }

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512 B.
        Cache::new(CacheLevelConfig {
            capacity: 512,
            ways: 2,
            line: 64,
            hit_cycles: 1,
        })
    }

    #[test]
    fn hit_after_miss() {
        let mut c = tiny();
        assert_eq!(c.access(0), Lookup::Miss);
        assert_eq!(c.access(0), Lookup::Hit);
        assert_eq!(c.access(63), Lookup::Hit); // same line
        assert_eq!(c.access(64), Lookup::Miss); // next line
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Three lines mapping to set 0: line stride = 64 * sets = 256.
        c.access(0);
        c.access(256);
        c.access(0); // make 0 MRU
        c.access(512); // evicts 256 (LRU)
        assert_eq!(c.access(0), Lookup::Hit);
        assert_eq!(c.access(256), Lookup::Miss);
    }

    #[test]
    fn working_set_within_capacity_stays_resident() {
        let mut c = tiny();
        // 8 lines = full capacity; second pass must be all hits.
        for i in 0..8u64 {
            c.access(i * 64);
        }
        for i in 0..8u64 {
            assert_eq!(c.access(i * 64), Lookup::Hit, "line {i}");
        }
        assert_eq!(c.stats().misses, 8);
        assert_eq!(c.stats().hits, 8);
    }

    #[test]
    fn streaming_over_capacity_always_misses() {
        let mut c = tiny();
        for pass in 0..2 {
            for i in 0..64u64 {
                let r = c.access(i * 64);
                assert_eq!(r, Lookup::Miss, "pass {pass} line {i}");
            }
        }
        assert!((c.stats().miss_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn prefetch_fill_counts_usefulness() {
        let mut c = tiny();
        assert!(c.prefetch_fill(0));
        assert!(!c.prefetch_fill(0));
        assert_eq!(c.access(0), Lookup::Hit);
        assert_eq!(c.stats().prefetch_hits, 1);
        assert_eq!(c.stats().prefetch_fills, 1);
    }

    #[test]
    fn probe_is_side_effect_free() {
        let mut c = tiny();
        c.access(128);
        let before = *c.stats();
        assert!(c.probe(128));
        assert!(!c.probe(4096));
        assert_eq!(*c.stats(), before);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = tiny();
        c.access(0);
        c.reset();
        assert!(!c.probe(0));
        assert_eq!(c.stats().accesses, 0);
    }
}
