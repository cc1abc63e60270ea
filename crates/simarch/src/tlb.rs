//! Two-level data-TLB model.
//!
//! Fully-associative LRU at both levels over 4 KiB pages. A lookup that
//! misses both levels costs a page walk. Intel's large STLB gives the Xeon
//! near-zero dTLB miss rates on the MSA workloads, while the Ryzen's
//! smaller second level is overwhelmed by scattered candidate working sets
//! (paper Table III: Intel ~0.01 % vs AMD 20–37 % dTLB load misses).

use crate::config::TlbConfig;

/// Default page size (4 KiB); platforms may configure huge pages via
/// [`TlbConfig::page_bytes`].
pub const PAGE_SIZE: u64 = 4096;

/// Outcome of a TLB lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbLookup {
    /// Hit in the first-level dTLB.
    L1Hit,
    /// Miss in L1, hit in the second level.
    L2Hit,
    /// Missed both levels; a page walk was performed.
    Walk,
}

/// TLB statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Total lookups.
    pub lookups: u64,
    /// L1 dTLB misses (L2 hits + walks).
    pub l1_misses: u64,
    /// Full misses requiring a page walk.
    pub walks: u64,
}

impl TlbStats {
    /// dTLB *load miss* ratio as perf reports it: L1 misses over lookups.
    pub fn l1_miss_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.l1_misses as f64 / self.lookups as f64
        }
    }

    /// Walk ratio (full translation misses over lookups).
    pub fn walk_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.walks as f64 / self.lookups as f64
        }
    }

    /// Merge another stats block into this one.
    pub fn merge(&mut self, other: &TlbStats) {
        self.lookups += other.lookups;
        self.l1_misses += other.l1_misses;
        self.walks += other.walks;
    }
}

/// `n % d` for a fixed divisor `d`, by multiplication instead of a
/// hardware divide: with `c = ceil(2^128 / d)`, `n % d` is the top word of
/// `(c · n mod 2^128) · d` for every 64-bit `n` and `d` (Lemire, Kaser and
/// Kurz, "Faster remainder by direct computation", 2019). A `d` of 1 wraps
/// `c` to 0, whose remainders are all 0, as they must be.
#[derive(Debug, Clone, Copy)]
struct Remainder {
    d: u64,
    c: u128,
}

impl Remainder {
    fn new(d: u64) -> Remainder {
        assert!(d > 0, "remainder by zero");
        Remainder {
            d,
            c: (u128::MAX / u128::from(d)).wrapping_add(1),
        }
    }

    fn of(self, n: u64) -> u64 {
        let fraction = self.c.wrapping_mul(u128::from(n));
        let d = u128::from(self.d);
        let low = u128::from(fraction as u64) * d;
        let high = (fraction >> 64) * d;
        ((high + (low >> 64)) >> 64) as u64
    }
}

/// A way no page has filled. Only a one-byte page reaches this page
/// number, which then reads as a hit on an empty way.
const EMPTY: u64 = u64::MAX;

/// One set-associative LRU translation buffer (real TLBs are 4–8 way;
/// set-associativity also keeps lookups O(ways)).
///
/// Each set keeps its pages in recency order, most recent first, like
/// the packed [`crate::cache::Cache`]: a hit moves its page to the front,
/// a miss shifts the set down by one and drops the last (least recent, or
/// empty) way. Filled ways therefore form a prefix of their set. The set
/// count need not be a power of two, so the set index is a remainder.
#[derive(Debug, Clone)]
struct TlbLevel {
    ways: usize,
    sets: Remainder,
    /// Each set's pages, most recent first; [`EMPTY`] for an empty way.
    pages: Vec<u64>,
}

impl TlbLevel {
    fn new(capacity: usize) -> TlbLevel {
        let ways = capacity.clamp(1, 8);
        let sets = (capacity / ways).max(1);
        TlbLevel {
            ways,
            sets: Remainder::new(sets as u64),
            pages: vec![EMPTY; sets * ways],
        }
    }

    /// Returns true on hit; installs the page either way.
    fn touch(&mut self, page: u64) -> bool {
        let base = self.sets.of(page) as usize * self.ways;
        let set = &mut self.pages[base..base + self.ways];
        let found = set.iter().position(|&p| p == page);
        set.copy_within(..found.unwrap_or(self.ways - 1), 1);
        set[0] = page;
        found.is_some()
    }
}

/// The two-level dTLB of one hardware thread.
#[derive(Debug, Clone)]
pub struct Dtlb {
    config: TlbConfig,
    /// `log2` of the page size when it is a power of two (a `page_bytes`
    /// of 0 counts as 1); other sizes divide.
    page_shift: Option<u32>,
    l1: TlbLevel,
    l2: TlbLevel,
    stats: TlbStats,
}

impl Dtlb {
    /// Create an empty dTLB.
    pub fn new(config: TlbConfig) -> Dtlb {
        let page_bytes = config.page_bytes.max(1);
        Dtlb {
            config,
            page_shift: page_bytes
                .is_power_of_two()
                .then(|| page_bytes.trailing_zeros()),
            l1: TlbLevel::new(config.l1_entries),
            l2: TlbLevel::new(config.l2_entries),
            stats: TlbStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Statistics so far.
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    /// Translate the page containing `addr`.
    pub fn access(&mut self, addr: u64) -> TlbLookup {
        let page = match self.page_shift {
            Some(shift) => addr >> shift,
            None => addr / self.config.page_bytes,
        };
        self.stats.lookups += 1;
        if self.l1.touch(page) {
            return TlbLookup::L1Hit;
        }
        self.stats.l1_misses += 1;
        if self.l2.touch(page) {
            return TlbLookup::L2Hit;
        }
        self.stats.walks += 1;
        TlbLookup::Walk
    }

    /// Page-walk penalty in cycles (from the config).
    pub fn walk_cycles(&self) -> u64 {
        self.config.walk_cycles
    }

    /// Number of bytes covered by the second-level TLB ("TLB reach").
    pub fn reach_bytes(&self) -> u64 {
        self.config.l2_entries as u64 * self.config.page_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlatformSpec;
    use afsb_rt::check::{run, Config, Gen};

    /// Reference model of one level: the LRU by timestamp the recency
    /// order replaced. Each way is a `(page, stamp)` pair stamped from a
    /// per-level clock, and the victim is the first empty way, else the
    /// way with the oldest stamp.
    struct StampLevel {
        sets: usize,
        ways: usize,
        entries: Vec<(u64, u64)>,
        clock: u64,
    }

    impl StampLevel {
        fn new(capacity: usize) -> StampLevel {
            let ways = capacity.clamp(1, 8);
            let sets = (capacity / ways).max(1);
            StampLevel {
                sets,
                ways,
                entries: vec![(u64::MAX, 0); sets * ways],
                clock: 0,
            }
        }

        fn touch(&mut self, page: u64) -> bool {
            self.clock += 1;
            let set = (page as usize) % self.sets;
            let base = set * self.ways;
            let ways = &mut self.entries[base..base + self.ways];
            if let Some(e) = ways.iter_mut().find(|(p, _)| *p == page) {
                e.1 = self.clock;
                return true;
            }
            let victim = ways
                .iter_mut()
                .min_by_key(|(p, s)| if *p == u64::MAX { 0 } else { *s })
                .expect("tlb set has at least one way");
            *victim = (page, self.clock);
            false
        }
    }

    /// Reference model of the whole dTLB: two stamp levels over pages
    /// found by division.
    struct StampDtlb {
        page_bytes: u64,
        l1: StampLevel,
        l2: StampLevel,
        stats: TlbStats,
    }

    impl StampDtlb {
        fn new(config: TlbConfig) -> StampDtlb {
            StampDtlb {
                page_bytes: config.page_bytes.max(1),
                l1: StampLevel::new(config.l1_entries),
                l2: StampLevel::new(config.l2_entries),
                stats: TlbStats::default(),
            }
        }

        fn access(&mut self, addr: u64) -> TlbLookup {
            let page = addr / self.page_bytes;
            self.stats.lookups += 1;
            if self.l1.touch(page) {
                return TlbLookup::L1Hit;
            }
            self.stats.l1_misses += 1;
            if self.l2.touch(page) {
                return TlbLookup::L2Hit;
            }
            self.stats.walks += 1;
            TlbLookup::Walk
        }
    }

    /// A geometry for the property: a platform's, or a small one whose
    /// levels have 1 or 9 sets, with a page of 4 KiB, 2 MiB or 3 KiB.
    fn arbitrary_config(g: &mut Gen) -> TlbConfig {
        match g.range(0..4) {
            0 => PlatformSpec::server().tlb,
            1 => PlatformSpec::desktop().tlb,
            _ => TlbConfig {
                // 9 sets of 8 ways, 1 set of 1 to 8 ways, or 2 sets.
                l1_entries: *g.pick(&[72usize, 1, 5, 8, 16]),
                l2_entries: *g.pick(&[72usize, 8, 9, 24, 96]),
                walk_cycles: 50,
                page_bytes: *g.pick(&[PAGE_SIZE, 2 << 20, 3 << 10, 0, 1]),
            },
        }
    }

    #[test]
    fn access_matches_the_stamp_lru_model() {
        run(
            "access_matches_the_stamp_lru_model",
            Config::cases(96),
            |g| {
                let config = arbitrary_config(g);
                let mut fast = Dtlb::new(config);
                let mut model = StampDtlb::new(config);
                // Page-sized steps over a working set of a few pages to
                // a few times the second level's reach, with revisits.
                let page = config.page_bytes.max(1);
                let pages = g.range(1u64..(config.l2_entries as u64 * 4).max(2));
                let base = g.range(0u64..1 << 40);
                let mut addrs = Vec::new();
                for _ in 0..4_000 {
                    let addr = if !addrs.is_empty() && g.range(0..3) == 0 {
                        *g.pick(&addrs)
                    } else {
                        base + g.range(0..pages) * page + g.range(0..page)
                    };
                    addrs.push(addr);
                    assert_eq!(fast.access(addr), model.access(addr), "addr {addr:#x}");
                }
                assert_eq!(fast.stats(), &model.stats);
            },
        );
    }

    #[test]
    fn remainder_matches_the_division() {
        run("remainder_matches_the_division", Config::cases(64), |g| {
            let d = match g.range(0..4) {
                0 => *g.pick(&[1u64, 2, 3, 9, 12, 256, 768, (1 << 63) + 1, u64::MAX]),
                1 => g.range(1u64..1 << 16),
                _ => g.range(1u64..=u64::MAX),
            };
            let rem = Remainder::new(d);
            for n in [0, 1, d - 1, d, d.wrapping_add(1), u64::MAX, u64::MAX - 1] {
                assert_eq!(rem.of(n), n % d, "{n} % {d}");
            }
            for _ in 0..256 {
                let n = g.rng().next_u64() >> g.range(0u32..64);
                let k = g.range(0u64..=u64::MAX / d);
                for n in [n, k * d, (k * d).saturating_sub(1)] {
                    assert_eq!(rem.of(n), n % d, "{n} % {d}");
                }
            }
        });
    }

    fn tiny() -> Dtlb {
        Dtlb::new(TlbConfig {
            l1_entries: 4,
            l2_entries: 16,
            walk_cycles: 50,
            page_bytes: PAGE_SIZE,
        })
    }

    #[test]
    fn first_touch_walks_then_hits() {
        let mut t = tiny();
        assert_eq!(t.access(0), TlbLookup::Walk);
        assert_eq!(t.access(100), TlbLookup::L1Hit); // same page
        assert_eq!(t.access(PAGE_SIZE), TlbLookup::Walk);
    }

    #[test]
    fn l2_catches_l1_overflow() {
        let mut t = tiny();
        // Touch 8 pages: beyond L1 (4) but within L2 (16).
        for p in 0..8u64 {
            t.access(p * PAGE_SIZE);
        }
        // Page 0 fell out of L1 but must still be in L2.
        assert_eq!(t.access(0), TlbLookup::L2Hit);
    }

    #[test]
    fn working_set_beyond_l2_walks() {
        let mut t = tiny();
        for pass in 0..3 {
            for p in 0..64u64 {
                let r = t.access(p * PAGE_SIZE);
                if pass > 0 {
                    // LRU on a cyclic scan larger than capacity always
                    // misses.
                    assert_eq!(r, TlbLookup::Walk, "pass {pass} page {p}");
                }
            }
        }
        assert!(t.stats().walk_ratio() > 0.9);
    }

    #[test]
    fn reach_matches_entries() {
        let t = tiny();
        assert_eq!(t.reach_bytes(), 16 * PAGE_SIZE);
    }

    #[test]
    fn stats_merge() {
        let mut a = TlbStats {
            lookups: 10,
            l1_misses: 2,
            walks: 1,
        };
        let b = TlbStats {
            lookups: 10,
            l1_misses: 4,
            walks: 2,
        };
        a.merge(&b);
        assert_eq!(a.lookups, 20);
        assert!((a.l1_miss_ratio() - 0.3).abs() < 1e-12);
    }
}
