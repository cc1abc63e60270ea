//! Workload → simulator interface: access-trace descriptors.
//!
//! Executed workload kernels (the HMM search engine, the XLA-like compile
//! pass, …) do not emit raw address traces — that would be both enormous
//! and meaningless for synthetic data. Instead each kernel reports
//! [`Segment`]s: *how many* instructions, memory accesses and branches it
//! performed, and *how those accesses are distributed* over the address
//! regions it touched ([`AccessPattern`]). The engine then synthesizes a
//! representative (sampled) address stream per thread and replays it
//! against the modelled cache hierarchy.
//!
//! This keeps the contract honest: counts come from real executed work,
//! while locality structure is declared explicitly and documented per
//! kernel in `afsb-core::msa_cost`.

use afsb_rt::Rng;

/// A function symbol for per-symbol attribution (Table IV/V rows).
pub type SymbolId = &'static str;

/// A contiguous address region used by a pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// Base byte address.
    pub base: u64,
    /// Region size in bytes.
    pub bytes: u64,
}

impl Region {
    /// Create a region.
    ///
    /// # Panics
    ///
    /// Panics if `bytes == 0`.
    pub fn new(base: u64, bytes: u64) -> Region {
        assert!(bytes > 0, "region must be non-empty");
        Region { base, bytes }
    }
}

/// Bump allocator handing out disjoint, guard-separated address regions.
///
/// Shared structures (e.g. the database buffer every worker scans) should
/// be allocated once and the same [`Region`] passed to every thread;
/// per-thread structures get their own region.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    next: u64,
}

impl Default for AddressSpace {
    fn default() -> Self {
        AddressSpace::new()
    }
}

impl AddressSpace {
    /// Guard gap inserted between regions (keeps sets from aliasing
    /// artificially).
    const GUARD: u64 = 1 << 21;

    /// Start allocating at 256 MiB (clear of the zero page).
    pub fn new() -> AddressSpace {
        AddressSpace { next: 256 << 20 }
    }

    /// Allocate a fresh region of `bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes == 0`.
    pub fn alloc(&mut self, bytes: u64) -> Region {
        assert!(bytes > 0, "allocation must be non-empty");
        let base = self.next;
        self.next = base + bytes + Self::GUARD;
        Region::new(base, bytes)
    }
}

/// How a stream of accesses is distributed over an address region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// Sequential scan with a fixed byte stride, wrapping at the region end
    /// (database scans, buffer copies).
    Sequential {
        /// The region scanned.
        region: Region,
        /// Byte stride between consecutive accesses.
        stride: u32,
    },
    /// Uniform random line touches over the region (hash/lookup tables,
    /// scattered candidate state).
    Random {
        /// The region accessed.
        region: Region,
    },
    /// Short sequential runs (`run` accesses of `stride`) starting at
    /// random positions — the signature of partial-match *rescans*: a
    /// candidate window is re-read linearly, but windows land all over the
    /// database (low-complexity queries produce many of these).
    BurstRandom {
        /// The region accessed.
        region: Region,
        /// Accesses per sequential burst.
        run: u32,
        /// Byte stride within a burst.
        stride: u32,
    },
}

impl AccessPattern {
    /// The region this pattern touches.
    pub fn region(&self) -> Region {
        match *self {
            AccessPattern::Sequential { region, .. }
            | AccessPattern::Random { region }
            | AccessPattern::BurstRandom { region, .. } => region,
        }
    }
}

/// A pattern with a relative share of the segment's accesses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedPattern {
    /// Relative weight (normalized over the segment).
    pub weight: f64,
    /// The access pattern.
    pub pattern: AccessPattern,
}

/// A run of work attributed to one function symbol on one thread.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Function symbol for attribution.
    pub symbol: SymbolId,
    /// Retired instructions.
    pub instructions: u64,
    /// Cache-hierarchy-relevant memory accesses (simulated one by one
    /// against the modelled caches).
    pub accesses: u64,
    /// Accesses that stay within L1-resident working sets (DP rows,
    /// profile tables, stdio buffers). They cost nothing beyond base IPC
    /// and are accounted analytically — simulating them would only dilute
    /// the sampled traffic and destroy its temporal locality.
    pub l1_resident_accesses: u64,
    /// Distribution of the simulated (traffic) accesses.
    pub patterns: Vec<WeightedPattern>,
    /// Conditional branches executed.
    pub branches: u64,
    /// Fraction of branches following a learnable loop pattern (the rest
    /// are data-dependent coin flips). 1.0 = perfectly regular.
    pub branch_regularity: f64,
    /// Minor page faults incurred (first-touch allocations).
    pub page_faults: u64,
}

impl Segment {
    /// Convenience constructor with no branches or faults.
    pub fn compute(
        symbol: SymbolId,
        instructions: u64,
        accesses: u64,
        patterns: Vec<WeightedPattern>,
    ) -> Segment {
        Segment {
            symbol,
            instructions,
            accesses,
            l1_resident_accesses: 0,
            patterns,
            branches: instructions / 6,
            branch_regularity: 0.97,
            page_faults: 0,
        }
    }
}

/// The whole trace program of one software thread: segments run in order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ThreadProgram {
    /// Segments in execution order.
    pub segments: Vec<Segment>,
}

impl ThreadProgram {
    /// Create an empty program.
    pub fn new() -> ThreadProgram {
        ThreadProgram::default()
    }

    /// Append a segment.
    pub fn push(&mut self, segment: Segment) -> &mut ThreadProgram {
        self.segments.push(segment);
        self
    }

    /// Total declared accesses.
    pub fn total_accesses(&self) -> u64 {
        self.segments.iter().map(|s| s.accesses).sum()
    }

    /// Total declared instructions.
    pub fn total_instructions(&self) -> u64 {
        self.segments.iter().map(|s| s.instructions).sum()
    }
}

/// Streaming generator of synthetic addresses for one segment.
#[derive(Debug)]
pub struct PatternCursor {
    pattern: AccessPattern,
    rng: Rng,
    seq_offset: u64,
    /// A sequential pattern's stride modulo its region size.
    seq_step: u64,
    burst_left: u32,
    burst_addr: u64,
}

impl PatternCursor {
    /// Create a cursor over a pattern with a deterministic seed.
    pub fn new(pattern: AccessPattern, seed: u64) -> PatternCursor {
        let seq_step = match pattern {
            AccessPattern::Sequential { region, stride } => u64::from(stride) % region.bytes,
            _ => 0,
        };
        PatternCursor {
            pattern,
            rng: Rng::seed_from_u64(seed),
            seq_offset: 0,
            seq_step,
            burst_left: 0,
            burst_addr: 0,
        }
    }

    /// Next synthetic byte address.
    pub fn next_addr(&mut self) -> u64 {
        match self.pattern {
            AccessPattern::Sequential { region, .. } => {
                let addr = region.base + self.seq_offset;
                // `(offset + stride) % bytes`: both terms are below
                // `bytes`, so one subtraction wraps the sum.
                let room = region.bytes - self.seq_offset;
                self.seq_offset = if self.seq_step >= room {
                    self.seq_step - room
                } else {
                    self.seq_offset + self.seq_step
                };
                addr
            }
            AccessPattern::Random { region } => region.base + self.rng.gen_range(0..region.bytes),
            AccessPattern::BurstRandom {
                region,
                run,
                stride,
            } => {
                if self.burst_left == 0 {
                    self.burst_left = run.max(1);
                    self.burst_addr = region.base + self.rng.gen_range(0..region.bytes);
                }
                let addr = self.burst_addr;
                self.burst_addr = self
                    .burst_addr
                    .saturating_add(u64::from(stride))
                    .min(region.base + region.bytes - 1);
                self.burst_left -= 1;
                addr
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_space_disjoint() {
        let mut space = AddressSpace::new();
        let a = space.alloc(1 << 20);
        let b = space.alloc(1 << 20);
        assert!(a.base + a.bytes <= b.base, "regions must not overlap");
    }

    #[test]
    fn sequential_cursor_wraps() {
        let r = Region::new(1000, 256);
        let mut c = PatternCursor::new(
            AccessPattern::Sequential {
                region: r,
                stride: 64,
            },
            1,
        );
        let addrs: Vec<u64> = (0..5).map(|_| c.next_addr()).collect();
        assert_eq!(addrs, vec![1000, 1064, 1128, 1192, 1000]);
    }

    #[test]
    fn sequential_cursor_wraps_like_the_remainder() {
        for (bytes, stride) in [
            (256u64, 64u32),
            (256, 96),
            (100, 7),
            (64, 64),
            (48, 4096),
            (1, 3),
        ] {
            let region = Region::new(1 << 30, bytes);
            let mut c = PatternCursor::new(AccessPattern::Sequential { region, stride }, 1);
            let mut offset = 0u64;
            for _ in 0..1_000 {
                assert_eq!(c.next_addr(), region.base + offset, "{bytes} B by {stride}");
                offset = (offset + u64::from(stride)) % bytes;
            }
        }
    }

    #[test]
    fn random_cursor_stays_in_region() {
        let r = Region::new(4096, 8192);
        let mut c = PatternCursor::new(AccessPattern::Random { region: r }, 2);
        for _ in 0..1000 {
            let a = c.next_addr();
            assert!(a >= r.base && a < r.base + r.bytes);
        }
    }

    #[test]
    fn burst_cursor_produces_runs() {
        let r = Region::new(0, 1 << 20);
        let mut c = PatternCursor::new(
            AccessPattern::BurstRandom {
                region: r,
                run: 4,
                stride: 64,
            },
            3,
        );
        // Within a burst, consecutive addresses differ by the stride.
        let a0 = c.next_addr();
        let a1 = c.next_addr();
        let a2 = c.next_addr();
        assert_eq!(a1 - a0, 64);
        assert_eq!(a2 - a1, 64);
    }

    #[test]
    fn cursor_deterministic() {
        let r = Region::new(0, 1 << 16);
        let mut c1 = PatternCursor::new(AccessPattern::Random { region: r }, 42);
        let mut c2 = PatternCursor::new(AccessPattern::Random { region: r }, 42);
        for _ in 0..100 {
            assert_eq!(c1.next_addr(), c2.next_addr());
        }
    }

    #[test]
    fn program_totals() {
        let mut p = ThreadProgram::new();
        let r = Region::new(0, 4096);
        p.push(Segment::compute(
            "f",
            1000,
            200,
            vec![WeightedPattern {
                weight: 1.0,
                pattern: AccessPattern::Random { region: r },
            }],
        ));
        p.push(Segment::compute("g", 500, 100, vec![]));
        assert_eq!(p.total_instructions(), 1500);
        assert_eq!(p.total_accesses(), 300);
    }
}
