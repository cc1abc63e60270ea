//! Trace-replay simulation engine with per-symbol cycle accounting.
//!
//! The engine takes one [`ThreadProgram`] per software thread, synthesizes
//! (sampled) address streams from the declared access patterns, and replays
//! them — interleaved round-robin, so concurrent threads genuinely contend
//! for the shared LLC — against per-thread L1/L2/dTLB/branch-predictor
//! models and one shared last-level cache.
//!
//! ## Cycle model
//!
//! Per thread: `cycles = instructions / peak_ipc + stalls`, where stalls
//! accumulate exposed miss latency (`penalty × (1 − mlp_overlap)`), page
//! walk cycles, branch flush cycles and page-fault service time. A final
//! DRAM *bandwidth* correction inflates DRAM stall time when the aggregate
//! demand of all threads exceeds the platform's sustainable bandwidth —
//! this is the mechanism behind thread-scaling saturation (paper Fig. 5).
//!
//! ## Sampling
//!
//! Programs may declare billions of accesses. The engine simulates up to
//! [`SimEngine::sample_cap`] accesses for the *longest* thread and scales
//! every thread by the same rate, preserving relative thread lengths and
//! interleaving. Counters are scaled back to declared totals in the result.
//!
//! ## Passes
//!
//! A run has two independent parts. The *cache walk* replays every
//! thread's sampled accesses through the caches. Each thread's *overhead
//! pass* charges the exact (unsampled) costs of its segments: base
//! cycles, gshare branch flushes and page faults. Both draw from the
//! thread's one `Rng`: the walk draws exactly one `next_u64` per simulated
//! access, and the overhead pass continues the stream where the walk
//! leaves it. The walk's draw count is known before it starts, so the
//! overhead pass skips that many draws and need not wait for the walk.
//! The run then asserts that each walk left its stream exactly where the
//! overhead pass picked it up.
//!
//! The walk is split at the only state the threads share: the LLC.
//! Everything an access does before it reaches the LLC (pattern pick,
//! dTLB, stream prefetcher, L1 and L2) depends only on its own thread, so
//! each thread's *private walk* runs ahead ([`afsb_rt::par::pipeline`]),
//! on a helper thread or, when no helper is filling it, on the calling
//! thread. Per access it records the lines its prefetcher fills into the
//! LLC, then its address if L2 missed. The calling thread keeps the LLC
//! and replays those records in the round-robin turn order, one access
//! per live thread per turn, charging LLC hits, misses and DRAM stall to
//! the access's segment. Each thread's overhead pass is a job of its own,
//! run in short slices by whichever thread would otherwise wait: a helper
//! with no chunk to fill, or the replay waiting for a helper.

use crate::branch::GsharePredictor;
use crate::cache::{Cache, Lookup};
use crate::config::PlatformSpec;
use crate::perf::{PerfReport, SymbolStats};
use crate::prefetch::StreamPrefetcher;
use crate::tlb::{Dtlb, TlbLookup};
use crate::trace::{PatternCursor, Segment, ThreadProgram};
use afsb_rt::par::Feed;
use afsb_rt::Rng;
use std::collections::HashMap;
use std::sync::Mutex;

/// Cycles charged for a minor (soft) page fault.
const PAGE_FAULT_CYCLES: u64 = 2600;
/// Cycles charged for an L2-TLB hit after an L1-TLB miss.
const STLB_HIT_CYCLES: u64 = 7;
/// Max branches actually simulated per segment (scaled afterwards).
const BRANCH_SAMPLE_CAP: u64 = 200_000;
/// Lines the stream prefetcher fills ahead of a confident stream.
const PREFETCH_DEGREE: usize = 2;
/// Accesses one [`Chunk`] records at most.
const CHUNK_ACCESSES: usize = 1024;
/// LLC addresses one [`Chunk`] records at most. An access records up to
/// `PREFETCH_DEGREE + 1`, so a chunk of fill-heavy accesses ends before
/// `CHUNK_ACCESSES`.
const CHUNK_LINES: usize = CHUNK_ACCESSES;
/// Chunks each thread's private walk may fill ahead of the LLC replay.
const CHUNK_SLOTS: usize = 4;
/// Draws one slice of an overhead pass does: walk draws skipped or
/// branches simulated.
const OVERHEAD_SLICE: u64 = 16_384;
/// Flag of a [`Chunk`] kind byte: the access missed L2, so the LLC looks
/// it up after its prefetch fills.
const DEMAND: u8 = 0x80;

/// The engine configuration.
#[derive(Debug, Clone)]
pub struct SimEngine {
    spec: PlatformSpec,
    /// Max accesses simulated for the longest thread.
    sample_cap: u64,
}

impl SimEngine {
    /// Create an engine for a platform with the default sampling budget.
    pub fn new(spec: PlatformSpec) -> SimEngine {
        SimEngine {
            spec,
            sample_cap: 1_500_000,
        }
    }

    /// Override the per-thread access sampling cap (tests use small caps).
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn with_sample_cap(mut self, cap: u64) -> SimEngine {
        assert!(cap > 0, "sample cap must be positive");
        self.sample_cap = cap;
        self
    }

    /// The platform being simulated.
    pub fn spec(&self) -> &PlatformSpec {
        &self.spec
    }

    /// Replay `programs` (one per software thread) and account cycles.
    ///
    /// # Panics
    ///
    /// Panics if `programs` is empty.
    pub fn run(&self, programs: &[ThreadProgram], seed: u64) -> SimResult {
        assert!(!programs.is_empty(), "need at least one thread program");
        let clock_ghz = self.spec.core.clock_ghz(programs.len());
        let rate = self.sampling_rate(programs);
        let (walks, overheads) = self.passes(programs, rate, clock_ghz, seed);
        self.finish(programs, walks, overheads, rate, clock_ghz)
    }

    /// The share of declared accesses the walk simulates: all of them,
    /// unless the longest thread declares more than the sample cap.
    fn sampling_rate(&self, programs: &[ThreadProgram]) -> f64 {
        let longest = programs
            .iter()
            .map(ThreadProgram::total_accesses)
            .max()
            .unwrap_or(0);
        if longest > self.sample_cap {
            self.sample_cap as f64 / longest as f64
        } else {
            1.0
        }
    }

    /// Fold each thread's walk and overhead pass into the result: scale,
    /// merge per symbol, and apply the DRAM bandwidth correction.
    fn finish(
        &self,
        programs: &[ThreadProgram],
        walks: Vec<ThreadWalk>,
        overheads: Vec<Overheads>,
        rate: f64,
        clock_ghz: f64,
    ) -> SimResult {
        let threads = programs.len();
        let inv_rate = 1.0 / rate;
        let mut states: Vec<ThreadState> = programs
            .iter()
            .zip(walks)
            .zip(overheads)
            .map(|((program, walk), overheads)| {
                assert!(
                    walk.rng == overheads.start,
                    "the cache walk must draw exactly one next_u64 per simulated access"
                );
                ThreadState::new(program, &walk, &overheads.segments, inv_rate)
            })
            .collect();

        let mut symbols: HashMap<&'static str, SymbolStats> = HashMap::new();
        let mut per_thread_cycles = Vec::with_capacity(threads);
        let mut total_dram_bytes = 0.0;
        for state in &mut states {
            total_dram_bytes += state.dram_accesses_scaled * 64.0;
            for (sym, stats) in state.symbols.drain() {
                symbols.entry(sym).or_default().merge(&stats);
            }
            per_thread_cycles.push(state.cycles());
        }

        // DRAM bandwidth correction: if aggregate demand exceeds the
        // platform's sustainable bandwidth, DRAM stalls inflate.
        let wall0 = per_thread_cycles.iter().copied().max().unwrap_or(1).max(1);
        let seconds0 = wall0 as f64 / (clock_ghz * 1e9);
        let demand_gibs = total_dram_bytes / seconds0.max(1e-12) / (1u64 << 30) as f64;
        // Progressive queueing: latency inflates as bandwidth utilization
        // climbs (M/M/1-flavoured, capped at 4x when demand exceeds the
        // device). This is the saturation/degradation mechanism of Fig. 5.
        let util = demand_gibs / self.spec.memory.bandwidth_gibs;
        let bw_factor = 1.0 / (1.0 - 0.75 * (util / 1.25).min(1.0));
        if bw_factor > 1.0 {
            for (t, state) in states.iter_mut().enumerate() {
                let extra = (state.dram_stall_scaled * (bw_factor - 1.0)).round() as u64;
                state.extra_stall += extra;
                per_thread_cycles[t] = state.cycles();
            }
        }

        let wall_cycles = per_thread_cycles.iter().copied().max().unwrap_or(0);
        let totals = symbols.values().fold(SymbolStats::default(), |mut acc, s| {
            acc.merge(s);
            acc
        });

        SimResult {
            report: PerfReport::new(symbols),
            totals,
            per_thread_cycles,
            wall_cycles,
            clock_ghz,
            sample_rate: rate,
            bandwidth_demand_gibs: demand_gibs,
            bandwidth_factor: bw_factor,
        }
    }

    /// Both passes of every thread: the private walks run ahead, the
    /// calling thread replays the LLC, and the overhead passes fill the
    /// time any thread would wait.
    fn passes(
        &self,
        programs: &[ThreadProgram],
        rate: f64,
        clock_ghz: f64,
        seed: u64,
    ) -> (Vec<ThreadWalk>, Vec<Overheads>) {
        let charges = Charges::new(&self.spec, clock_ghz);
        // Every block of the run is allocated on the calling thread, the
        // chunks after the private caches and the LLC last, and each is
        // freed in the reverse order before this returns: the LLC at the
        // end of the replay, then the chunks, then the private caches.
        // So no block from this run sits above the tag arrays (up to
        // 8 MiB for the LLC) and they return to the heap whole. A block
        // left above them would split the freed space, so a later, larger
        // LLC could not reuse it and the heap would grow by megabytes.
        // Whether a block lands there depends on what the allocator
        // already holds, so the peak resident set of the same runs would
        // differ from one process to the next. The helpers allocate none
        // of the run's blocks: they fill chunks and advance overhead
        // passes they are lent.
        let overheads: Vec<Mutex<OverheadPass>> = programs
            .iter()
            .enumerate()
            .map(|(t, p)| Mutex::new(OverheadPass::new(p, rate, thread_seed(seed, t))))
            .collect();
        let mut walks: Vec<ThreadWalk> = programs
            .iter()
            .enumerate()
            .map(|(t, p)| ThreadWalk::new(&self.spec, p, rate, thread_seed(seed, t)))
            .collect();
        let mut replays: Vec<LlcReplay> =
            programs.iter().map(|p| LlcReplay::new(p, rate)).collect();
        let mut caches: Vec<PrivateCaches> = Vec::with_capacity(walks.len());
        caches.extend(programs.iter().map(|_| PrivateCaches::new(&self.spec)));
        let mut private: Vec<(&mut ThreadWalk, &mut PrivateCaches)> =
            walks.iter_mut().zip(&mut caches).collect();
        afsb_rt::par::pipeline(
            &mut private,
            CHUNK_SLOTS,
            Chunk::new,
            |(walk, caches), chunk| walk.run_ahead(caches, chunk, &charges),
            // One slice of the first overhead pass no other thread is
            // advancing. A poisoned pass belongs to a panic the pipeline
            // re-raises.
            || {
                overheads.iter().any(|pass| {
                    pass.try_lock()
                        .is_ok_and(|mut pass| pass.advance(&self.spec, OVERHEAD_SLICE))
                })
            },
            |feed| {
                let mut llc = Cache::new(self.spec.llc);
                let mut live = replays.len();
                while live > 0 {
                    live = 0;
                    for (t, replay) in replays.iter_mut().enumerate() {
                        if replay.step(t, feed, &mut llc, &charges) {
                            live += 1;
                        }
                    }
                }
            },
        );
        drop(private);
        drop(caches);
        for (walk, replay) in walks.iter_mut().zip(&replays) {
            walk.absorb(replay);
        }
        let overheads = overheads
            .into_iter()
            .map(|pass| {
                pass.into_inner()
                    .expect("a panic in an overhead pass is re-raised by the pipeline")
                    .finish()
            })
            .collect();
        (walks, overheads)
    }
}

/// Result of one engine run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Per-symbol attribution (perf-report shaped).
    pub report: PerfReport,
    /// Aggregate counters over all symbols and threads.
    pub totals: SymbolStats,
    /// Final cycle count of each thread.
    pub per_thread_cycles: Vec<u64>,
    /// Wall-clock cycles (slowest thread).
    pub wall_cycles: u64,
    /// Effective clock during the run (GHz).
    pub clock_ghz: f64,
    /// Fraction of declared accesses actually simulated.
    pub sample_rate: f64,
    /// Aggregate DRAM bandwidth demand (GiB/s).
    pub bandwidth_demand_gibs: f64,
    /// Bandwidth over-subscription factor applied (≥ 1).
    pub bandwidth_factor: f64,
}

impl SimResult {
    /// Wall-clock seconds.
    pub fn wall_seconds(&self) -> f64 {
        self.wall_cycles as f64 / (self.clock_ghz * 1e9)
    }

    /// Aggregate instructions-per-cycle over all threads.
    pub fn ipc(&self) -> f64 {
        let cycles: u64 = self.per_thread_cycles.iter().sum();
        if cycles == 0 {
            0.0
        } else {
            self.totals.instructions as f64 / cycles as f64
        }
    }

    /// Lay one closed child span per symbol under `parent`, packed
    /// back-to-back across `[start_s, start_s + duration_s)` with widths
    /// proportional to each symbol's cycle share — the trace-timeline
    /// rendering of the `perf report` attribution in [`SimResult::report`]
    /// (paper Tables III–V). Symbols are emitted in perf-report order
    /// (descending cycles, name tiebreak), so the layout is deterministic.
    /// Returns the created span ids, in that order.
    pub fn trace_symbols_under(
        &self,
        tracer: &mut afsb_rt::obs::Tracer,
        parent: afsb_rt::obs::SpanId,
        start_s: f64,
        duration_s: f64,
    ) -> Vec<afsb_rt::obs::SpanId> {
        let mut offset = start_s;
        let mut ids = Vec::new();
        for (name, stats) in self.report.top_by_cycles() {
            let share = self.report.cycles_share(name);
            let width = duration_s * share;
            let id = tracer.child_span(parent, name, offset, width);
            tracer.span_attr(id, "cycles", stats.cycles());
            tracer.span_attr(id, "cycles_share", share);
            tracer.span_attr(id, "llc_misses", stats.llc_misses);
            tracer.span_attr(id, "tlb_l1_misses", stats.tlb_l1_misses);
            tracer.span_attr(id, "page_faults", stats.page_faults);
            offset += width;
            ids.push(id);
        }
        ids
    }

    /// Publish per-symbol counters and run-level gauges under
    /// `<prefix>.<symbol>.<counter>` / `<prefix>.<gauge>`.
    pub fn publish_metrics(&self, metrics: &mut afsb_rt::obs::MetricsRegistry, prefix: &str) {
        for (name, stats) in self.report.top_by_cycles() {
            metrics.inc(&format!("{prefix}.{name}.cycles"), stats.cycles());
            metrics.inc(&format!("{prefix}.{name}.instructions"), stats.instructions);
            metrics.inc(&format!("{prefix}.{name}.llc_misses"), stats.llc_misses);
            metrics.inc(&format!("{prefix}.{name}.page_faults"), stats.page_faults);
        }
        metrics.set_gauge(&format!("{prefix}.wall_seconds"), self.wall_seconds());
        metrics.set_gauge(&format!("{prefix}.ipc"), self.ipc());
        metrics.set_gauge(
            &format!("{prefix}.bandwidth_demand_gibs"),
            self.bandwidth_demand_gibs,
        );
    }
}

/// The seed of thread `t`'s `Rng` and pattern cursors in a run seeded
/// `seed`.
fn thread_seed(seed: u64, t: usize) -> u64 {
    seed ^ (t as u64) << 32
}

/// Accesses the cache walk simulates for `seg` at sampling `rate`.
fn sampled_accesses(seg: &Segment, rate: f64) -> u64 {
    if seg.patterns.is_empty() {
        0
    } else {
        ((seg.accesses as f64) * rate).round() as u64
    }
}

/// The exposed stall cycles of each walk outcome: the share of its
/// latency that out-of-order overlap does not hide, rounded once per run.
struct Charges {
    /// A page walk after an STLB miss (page-walk caches hide the rest).
    tlb_walk: u64,
    l2_hit: u64,
    llc_hit: u64,
    dram: u64,
}

impl Charges {
    fn new(spec: &PlatformSpec, clock_ghz: f64) -> Charges {
        let exposed = 1.0 - spec.core.mlp_overlap;
        let charge = |cycles: u64| (cycles as f64 * exposed).round() as u64;
        let dram_cycles = (spec.memory.latency_ns * clock_ghz).round() as u64;
        Charges {
            tlb_walk: charge(spec.tlb.walk_cycles),
            l2_hit: charge(spec.l2.hit_cycles),
            llc_hit: charge(spec.llc.hit_cycles),
            dram: charge(dram_cycles),
        }
    }
}

/// Per-access pattern selector, cursors and walk counters for one
/// segment.
struct SegmentCursor {
    cursors: Vec<PatternCursor>,
    /// Cumulative weights for pattern selection.
    cumulative: Vec<f64>,
    remaining: u64,
    symbol: &'static str,
    /// The sampled counters of this segment's walk, unscaled.
    stats: SymbolStats,
}

impl SegmentCursor {
    fn new(seg: &Segment, rate: f64, seed: u64) -> SegmentCursor {
        let total_w: f64 = seg.patterns.iter().map(|p| p.weight).sum();
        let mut acc = 0.0;
        let mut cumulative = Vec::with_capacity(seg.patterns.len());
        let mut cursors = Vec::with_capacity(seg.patterns.len());
        for (i, wp) in seg.patterns.iter().enumerate() {
            acc += wp.weight / total_w.max(1e-12);
            cumulative.push(acc);
            cursors.push(PatternCursor::new(wp.pattern, seed ^ (i as u64 + 1)));
        }
        SegmentCursor {
            cursors,
            cumulative,
            remaining: sampled_accesses(seg, rate),
            symbol: seg.symbol,
            stats: SymbolStats::default(),
        }
    }
}

/// One thread's private caches and dTLB, alive only for the access loop.
struct PrivateCaches {
    l1: Cache,
    l2: Cache,
    tlb: Dtlb,
}

impl PrivateCaches {
    fn new(spec: &PlatformSpec) -> PrivateCaches {
        PrivateCaches {
            l1: Cache::new(spec.l1d),
            l2: Cache::new(spec.l2),
            tlb: Dtlb::new(spec.tlb),
        }
    }
}

/// One thread's state in the cache walk.
struct ThreadWalk {
    prefetcher: StreamPrefetcher,
    segments: Vec<SegmentCursor>,
    seg_idx: usize,
    /// Draws one `gen_f64` per simulated access and nothing else.
    rng: Rng,
    /// The DRAM share of the segments' stall cycles, which the bandwidth
    /// correction inflates.
    dram_stall: u64,
}

impl ThreadWalk {
    fn new(spec: &PlatformSpec, program: &ThreadProgram, rate: f64, seed: u64) -> ThreadWalk {
        let segments = program
            .segments
            .iter()
            .enumerate()
            .map(|(i, s)| SegmentCursor::new(s, rate, seed ^ ((i as u64) << 16)))
            .collect();
        ThreadWalk {
            prefetcher: StreamPrefetcher::new(16, PREFETCH_DEGREE, spec.l1d.line),
            segments,
            seg_idx: 0,
            rng: Rng::seed_from_u64(seed),
            dram_stall: 0,
        }
    }

    /// Walk accesses through the private levels into `chunk` until it is
    /// full or the program is exhausted. Returns false, with `chunk`
    /// empty, once no access is left.
    fn run_ahead(
        &mut self,
        private: &mut PrivateCaches,
        chunk: &mut Chunk,
        charges: &Charges,
    ) -> bool {
        chunk.kinds.clear();
        chunk.lines.clear();
        while chunk.kinds.len() < CHUNK_ACCESSES
            && chunk.lines.len() + PREFETCH_DEGREE < CHUNK_LINES
            && self.step(private, chunk, charges)
        {}
        !chunk.kinds.is_empty()
    }

    /// Simulate one access up to the LLC and record the LLC traffic it
    /// sends down in `out`. Returns false when the program is exhausted.
    fn step(&mut self, private: &mut PrivateCaches, out: &mut Chunk, charges: &Charges) -> bool {
        // Advance to the next segment with accesses left.
        while self.seg_idx < self.segments.len() && self.segments[self.seg_idx].remaining == 0 {
            self.seg_idx += 1;
        }
        let Some(seg) = self.segments.get_mut(self.seg_idx) else {
            return false;
        };
        seg.remaining -= 1;

        // Pick a pattern by weight and get the next address.
        let pick: f64 = self.rng.gen_f64();
        let idx = seg
            .cumulative
            .iter()
            .position(|&c| pick <= c)
            .unwrap_or(seg.cumulative.len() - 1);
        let addr = seg.cursors[idx].next_addr();

        let stats = &mut seg.stats;
        stats.accesses += 1;

        // dTLB.
        match private.tlb.access(addr) {
            TlbLookup::L1Hit => {}
            TlbLookup::L2Hit => {
                stats.tlb_l1_misses += 1;
                stats.stall_cycles += STLB_HIT_CYCLES;
            }
            TlbLookup::Walk => {
                stats.tlb_l1_misses += 1;
                stats.tlb_walks += 1;
                stats.stall_cycles += charges.tlb_walk;
            }
        }

        // Prefetcher observes the demand stream and fills L2 + LLC.
        let mut kind = 0;
        for pf in self.prefetcher.observe(addr) {
            private.l2.prefetch_fill(pf);
            out.lines.push(pf);
            kind += 1;
        }

        // Private cache levels; an L2 miss goes on to the LLC.
        if private.l1.access(addr) == Lookup::Miss {
            stats.l1_misses += 1;
            if private.l2.access(addr) == Lookup::Miss {
                stats.l2_misses += 1;
                stats.llc_accesses += 1;
                out.lines.push(addr);
                kind |= DEMAND;
            } else {
                stats.stall_cycles += charges.l2_hit;
            }
        }
        out.kinds.push(kind);
        true
    }

    /// Add the LLC replay's counters to the walk's segments.
    fn absorb(&mut self, replay: &LlcReplay) {
        assert_eq!(replay.left, 0, "the LLC replay must finish every access");
        for (cursor, llc) in self.segments.iter_mut().zip(&replay.segments) {
            cursor.stats.llc_misses += llc.misses;
            cursor.stats.stall_cycles += llc.stall_cycles;
        }
        self.dram_stall = replay.dram_stall;
    }
}

/// The LLC traffic of consecutive accesses of one thread, in access
/// order.
struct Chunk {
    /// One byte per access: its prefetch fill count, plus [`DEMAND`] if
    /// it missed L2.
    kinds: Vec<u8>,
    /// Each access's fill lines, then its address if it missed L2.
    lines: Vec<u64>,
}

impl Chunk {
    fn new() -> Chunk {
        Chunk {
            kinds: Vec::with_capacity(CHUNK_ACCESSES),
            lines: Vec::with_capacity(CHUNK_LINES),
        }
    }
}

/// The LLC counters of one segment's replay, unscaled.
#[derive(Default)]
struct LlcCounts {
    /// The segment's sampled accesses.
    accesses: u64,
    misses: u64,
    stall_cycles: u64,
}

/// One thread's side of the LLC replay. It counts the thread's accesses
/// against its segments' sampled counts, so a record need not name its
/// segment.
struct LlcReplay {
    segments: Vec<LlcCounts>,
    /// The segment of the next access, and the number of the thread's
    /// accesses that precede the first access after it.
    seg: usize,
    seg_end: u64,
    /// Accesses replayed so far, and accesses left to replay.
    done: u64,
    left: u64,
    chunk: Option<Chunk>,
    /// The next kind byte and the next line of `chunk`.
    kind_at: usize,
    line_at: usize,
    dram_stall: u64,
}

impl LlcReplay {
    fn new(program: &ThreadProgram, rate: f64) -> LlcReplay {
        let segments: Vec<LlcCounts> = program
            .segments
            .iter()
            .map(|seg| LlcCounts {
                accesses: sampled_accesses(seg, rate),
                ..LlcCounts::default()
            })
            .collect();
        LlcReplay {
            seg: 0,
            seg_end: segments.first().map_or(0, |s| s.accesses),
            done: 0,
            left: segments.iter().map(|s| s.accesses).sum(),
            segments,
            chunk: None,
            kind_at: 0,
            line_at: 0,
            dram_stall: 0,
        }
    }

    /// Replay the thread's next access against the LLC. Returns false
    /// when the thread has no access left. Takes the thread's next chunk
    /// from `feed` when the current one is used up, and hands the last
    /// one back when the thread finishes.
    fn step(
        &mut self,
        t: usize,
        feed: &mut Feed<'_, Chunk>,
        llc: &mut Cache,
        charges: &Charges,
    ) -> bool {
        if self.left == 0 {
            return false;
        }
        self.left -= 1;
        if self
            .chunk
            .as_ref()
            .is_none_or(|c| self.kind_at == c.kinds.len())
        {
            if let Some(used) = self.chunk.take() {
                feed.recycle(t, used);
            }
            self.chunk = feed.next(t);
            (self.kind_at, self.line_at) = (0, 0);
        }
        let chunk = self
            .chunk
            .as_ref()
            .expect("the private walk records every sampled access");

        let kind = chunk.kinds[self.kind_at];
        self.kind_at += 1;
        for _ in 0..kind & !DEMAND {
            llc.prefetch_fill(chunk.lines[self.line_at]);
            self.line_at += 1;
        }
        if kind & DEMAND != 0 {
            let addr = chunk.lines[self.line_at];
            self.line_at += 1;
            while self.done >= self.seg_end {
                self.seg += 1;
                self.seg_end += self.segments[self.seg].accesses;
            }
            let seg = &mut self.segments[self.seg];
            if llc.access(addr) == Lookup::Miss {
                seg.misses += 1;
                seg.stall_cycles += charges.dram;
                self.dram_stall += charges.dram;
            } else {
                seg.stall_cycles += charges.llc_hit;
            }
        }
        self.done += 1;
        if self.left == 0 {
            let last = self.chunk.take().expect("the chunk just replayed");
            feed.recycle(t, last);
        }
        true
    }
}

/// One thread's overhead pass: the `Rng` state it started from and the
/// exact costs of each segment of the program, in segment order.
struct Overheads {
    start: Rng,
    segments: Vec<SymbolStats>,
}

/// One thread's overhead pass, run in slices: it charges base cycles,
/// branch mispredict flushes and page faults for each segment of the
/// program (not access-sampled; branches use their own sample cap). The
/// branches draw from the thread's `Rng` where the cache walk leaves it:
/// the walk draws one `next_u64` per simulated access, so skipping that
/// many draws reaches the same state without waiting for the walk.
struct OverheadPass<'a> {
    program: &'a ThreadProgram,
    rng: Rng,
    /// Walk draws still to skip.
    skip: u64,
    /// The `Rng` state once the skip is done.
    start: Option<Rng>,
    /// Carries its history from one segment of the thread to the next.
    predictor: GsharePredictor,
    /// Branches simulated in the current segment, and their mispredicts.
    branches: u64,
    mispredicts: u64,
    /// The costs of the segments done so far.
    segments: Vec<SymbolStats>,
}

impl<'a> OverheadPass<'a> {
    fn new(program: &'a ThreadProgram, rate: f64, seed: u64) -> OverheadPass<'a> {
        OverheadPass {
            program,
            rng: Rng::seed_from_u64(seed),
            skip: program
                .segments
                .iter()
                .map(|seg| sampled_accesses(seg, rate))
                .sum(),
            start: None,
            predictor: GsharePredictor::default_sized(),
            branches: 0,
            mispredicts: 0,
            segments: Vec::with_capacity(program.segments.len()),
        }
    }

    /// Do up to `budget` draws of the pass: walk draws skipped, then
    /// branches simulated. Returns false, doing nothing, once the pass is
    /// done.
    fn advance(&mut self, spec: &PlatformSpec, mut budget: u64) -> bool {
        if self.segments.len() == self.program.segments.len() {
            return false;
        }
        let skip = self.skip.min(budget);
        for _ in 0..skip {
            self.rng.next_u64();
        }
        self.skip -= skip;
        budget -= skip;
        if self.skip > 0 {
            return true;
        }
        if self.start.is_none() {
            self.start = Some(self.rng.clone());
        }
        while let Some(seg) = self.program.segments.get(self.segments.len()) {
            let sim = seg.branches.min(BRANCH_SAMPLE_CAP);
            let n = (sim - self.branches).min(budget);
            if n > 0 {
                self.mispredicts +=
                    BranchStream::new(seg).run(n, &mut self.predictor, &mut self.rng);
                self.branches += n;
                budget -= n;
            }
            if self.branches < sim {
                break;
            }
            self.segments
                .push(segment_costs(seg, spec, sim, self.mispredicts));
            (self.branches, self.mispredicts) = (0, 0);
        }
        true
    }

    fn finish(self) -> Overheads {
        assert_eq!(
            self.segments.len(),
            self.program.segments.len(),
            "every overhead pass runs to its end"
        );
        Overheads {
            start: self.start.unwrap_or(self.rng),
            segments: self.segments,
        }
    }
}

/// The exact costs of one segment whose first `sim` branches (of
/// `seg.branches`) mispredicted `mispredicts` times.
fn segment_costs(seg: &Segment, spec: &PlatformSpec, sim: u64, mispredicts: u64) -> SymbolStats {
    let mut stats = SymbolStats {
        instructions: seg.instructions,
        // L1-resident accesses: hit L1 and the TLB, cost nothing extra.
        accesses: seg.l1_resident_accesses,
        base_cycles: (seg.instructions as f64 / spec.core.peak_ipc).round() as u64,
        page_faults: seg.page_faults,
        stall_cycles: seg.page_faults * PAGE_FAULT_CYCLES,
        ..SymbolStats::default()
    };
    if sim > 0 {
        let scale = seg.branches as f64 / sim as f64;
        stats.branches = (sim as f64 * scale).round() as u64;
        stats.mispredicts = (mispredicts as f64 * scale).round() as u64;
        stats.stall_cycles += stats.mispredicts * spec.core.mispredict_cycles;
    }
    stats
}

/// One segment's sampled branch outcomes through gshare.
struct BranchStream {
    pc: u64,
    /// A branch is regular when its draw's top 53 bits are below this.
    regular_below: u64,
}

impl BranchStream {
    fn new(seg: &Segment) -> BranchStream {
        // A stable per-symbol PC: FNV-1a over the symbol *name*.
        // Hashing the &'static str pointer made the predictor's alias
        // pattern depend on binary layout, so mispredict counts — and
        // every downstream cost — drifted across recompiles of identical
        // source.
        let mut name_hash = 0xcbf2_9ce4_8422_2325u64;
        for &b in seg.symbol.as_bytes() {
            name_hash = (name_hash ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        let regularity = seg.branch_regularity.clamp(0.0, 1.0);
        // `clamp` passes NaN through.
        assert!(
            (0.0..=1.0).contains(&regularity),
            "{}: branch regularity must be in [0, 1], got {regularity}",
            seg.symbol
        );
        BranchStream {
            pc: 0x400000 + (name_hash & 0xffff) * 64,
            regular_below: draw_threshold(regularity),
        }
    }

    /// Simulate `n` branches and return how many `predictor` missed.
    ///
    /// A steady taken branch (all-taken history, saturated counter)
    /// predicts correctly and changes no predictor state, and the branch
    /// after it is steady again if it is taken. So once the stream is
    /// steady, the loop only draws outcomes up to the first not-taken
    /// branch, counts the taken ones it passed, and hands the predictor
    /// that one branch. Every outcome is still drawn, so the `Rng` ends
    /// where branch-by-branch simulation leaves it.
    fn run(&self, n: u64, predictor: &mut GsharePredictor, rng: &mut Rng) -> u64 {
        let mut mispredicts = 0;
        let mut left = n;
        while left > 0 {
            let taken = if predictor.taken_is_steady(self.pc) {
                let mut skipped = 0;
                while skipped < left && self.draw_taken(rng) {
                    skipped += 1;
                }
                predictor.skip_steady_taken(self.pc, skipped);
                left -= skipped;
                if left == 0 {
                    break;
                }
                false
            } else {
                self.draw_taken(rng)
            };
            left -= 1;
            mispredicts += u64::from(!predictor.predict(self.pc, taken));
        }
        mispredicts
    }

    /// Draw one branch's outcome. Regular branches are taken and fully
    /// predictable (real front-ends carry loop predictors); the irregular
    /// remainder is a data-dependent coin flip. These are the draws and
    /// outcomes of `gen_bool(regularity)` and, for an irregular branch,
    /// `gen_bool(0.5)`: a draw's top 53 bits are what `gen_f64` scales,
    /// and the coin is their top bit.
    #[inline]
    fn draw_taken(&self, rng: &mut Rng) -> bool {
        let regular = rng.next_u64() >> 11 < self.regular_below;
        regular || rng.next_u64() >> 63 == 0
    }
}

/// The integer form of `gen_f64() < p` for `p` in `[0, 1]`: with
/// `m = next_u64() >> 11`, `gen_f64()` is exactly `m / 2^53`, so the test
/// holds exactly when `m < ceil(p · 2^53)`.
fn draw_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// One thread's counters after both passes, at declared magnitudes.
struct ThreadState {
    symbols: HashMap<&'static str, SymbolStats>,
    base_cycles: u64,
    stall_cycles: u64,
    extra_stall: u64,
    dram_stall_scaled: f64,
    dram_accesses_scaled: f64,
}

impl ThreadState {
    /// Fold the walk's segments into a symbol map and scale its sampled
    /// counters to declared magnitudes FIRST; the exact overheads are
    /// added afterwards so they are not rescaled.
    fn new(
        program: &ThreadProgram,
        walk: &ThreadWalk,
        overheads: &[SymbolStats],
        inv_rate: f64,
    ) -> ThreadState {
        let mut symbols: HashMap<&'static str, SymbolStats> =
            HashMap::with_capacity(program.segments.len());
        let mut sampled_stall = 0;
        for seg in &walk.segments {
            symbols.entry(seg.symbol).or_default().merge(&seg.stats);
            sampled_stall += seg.stats.stall_cycles;
        }
        let mut dram_accesses = 0u64;
        for stats in symbols.values_mut() {
            stats.scale_sampled(inv_rate);
            dram_accesses += stats.llc_misses;
        }
        // The DRAM share is scaled apart so the bandwidth correction can
        // inflate it.
        let dram_stall_scaled = walk.dram_stall as f64 * inv_rate;
        let sampled_other = sampled_stall - walk.dram_stall;
        let mut stall_cycles = (dram_stall_scaled + sampled_other as f64 * inv_rate).round() as u64;

        let mut base_cycles = 0;
        for (seg, exact) in program.segments.iter().zip(overheads) {
            symbols.entry(seg.symbol).or_default().merge(exact);
            base_cycles += exact.base_cycles;
            stall_cycles += exact.stall_cycles;
        }
        ThreadState {
            symbols,
            base_cycles,
            stall_cycles,
            extra_stall: 0,
            dram_stall_scaled,
            dram_accesses_scaled: dram_accesses as f64,
        }
    }

    fn cycles(&self) -> u64 {
        self.base_cycles
            .saturating_add(self.stall_cycles)
            .saturating_add(self.extra_stall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlatformSpec;
    use crate::trace::{AccessPattern, Region, Segment, ThreadProgram, WeightedPattern};
    use afsb_rt::check::{run, Config, Gen};

    /// Reference model: the engine before the cache walk was split at the
    /// LLC and the overhead passes ran in slices. One thread steps every
    /// thread through all cache levels, round-robin, then runs each
    /// thread's overhead pass whole, drawing branches with `gen_bool`.
    fn reference_run(engine: &SimEngine, programs: &[ThreadProgram], seed: u64) -> SimResult {
        let clock_ghz = engine.spec.core.clock_ghz(programs.len());
        let rate = engine.sampling_rate(programs);
        let walks = reference_walk(engine, programs, rate, clock_ghz, seed);
        let overheads = programs
            .iter()
            .enumerate()
            .map(|(t, p)| reference_overhead_pass(p, &engine.spec, rate, thread_seed(seed, t)))
            .collect();
        engine.finish(programs, walks, overheads, rate, clock_ghz)
    }

    /// The round-robin cache walk: one sampled access per live thread per
    /// turn, so concurrent threads contend for the shared LLC.
    fn reference_walk(
        engine: &SimEngine,
        programs: &[ThreadProgram],
        rate: f64,
        clock_ghz: f64,
        seed: u64,
    ) -> Vec<ThreadWalk> {
        let charges = Charges::new(&engine.spec, clock_ghz);
        let mut walks: Vec<ThreadWalk> = programs
            .iter()
            .enumerate()
            .map(|(t, p)| ThreadWalk::new(&engine.spec, p, rate, thread_seed(seed, t)))
            .collect();
        let mut caches: Vec<PrivateCaches> = programs
            .iter()
            .map(|_| PrivateCaches::new(&engine.spec))
            .collect();
        let mut llc = Cache::new(engine.spec.llc);
        let mut live = walks.len();
        while live > 0 {
            live = 0;
            for (walk, private) in walks.iter_mut().zip(&mut caches) {
                if reference_step(walk, private, &mut llc, &charges) {
                    live += 1;
                }
            }
        }
        walks
    }

    /// Simulate one access through every level. Returns false when the
    /// program is exhausted.
    fn reference_step(
        walk: &mut ThreadWalk,
        private: &mut PrivateCaches,
        llc: &mut Cache,
        charges: &Charges,
    ) -> bool {
        // Advance to the next segment with accesses left.
        while walk.seg_idx < walk.segments.len() && walk.segments[walk.seg_idx].remaining == 0 {
            walk.seg_idx += 1;
        }
        let Some(seg) = walk.segments.get_mut(walk.seg_idx) else {
            return false;
        };
        seg.remaining -= 1;

        // Pick a pattern by weight and get the next address.
        let pick: f64 = walk.rng.gen_f64();
        let idx = seg
            .cumulative
            .iter()
            .position(|&c| pick <= c)
            .unwrap_or(seg.cumulative.len() - 1);
        let addr = seg.cursors[idx].next_addr();

        let stats = &mut seg.stats;
        stats.accesses += 1;

        // dTLB.
        match private.tlb.access(addr) {
            TlbLookup::L1Hit => {}
            TlbLookup::L2Hit => {
                stats.tlb_l1_misses += 1;
                stats.stall_cycles += STLB_HIT_CYCLES;
            }
            TlbLookup::Walk => {
                stats.tlb_l1_misses += 1;
                stats.tlb_walks += 1;
                stats.stall_cycles += charges.tlb_walk;
            }
        }

        // Prefetcher observes the demand stream and fills L2 + LLC.
        for pf in walk.prefetcher.observe(addr) {
            private.l2.prefetch_fill(pf);
            llc.prefetch_fill(pf);
        }

        // Cache hierarchy walk.
        if private.l1.access(addr) == Lookup::Miss {
            stats.l1_misses += 1;
            if private.l2.access(addr) == Lookup::Miss {
                stats.l2_misses += 1;
                stats.llc_accesses += 1;
                if llc.access(addr) == Lookup::Miss {
                    stats.llc_misses += 1;
                    stats.stall_cycles += charges.dram;
                    walk.dram_stall += charges.dram;
                } else {
                    stats.stall_cycles += charges.llc_hit;
                }
            } else {
                stats.stall_cycles += charges.l2_hit;
            }
        }
        true
    }

    /// One thread's overhead pass, whole: skip the walk's draws, then
    /// charge each segment in order.
    fn reference_overhead_pass(
        program: &ThreadProgram,
        spec: &PlatformSpec,
        rate: f64,
        seed: u64,
    ) -> Overheads {
        let mut rng = Rng::seed_from_u64(seed);
        let walk_draws: u64 = program
            .segments
            .iter()
            .map(|seg| sampled_accesses(seg, rate))
            .sum();
        for _ in 0..walk_draws {
            rng.next_u64();
        }
        let start = rng.clone();
        let mut predictor = GsharePredictor::default_sized();
        let segments = program
            .segments
            .iter()
            .map(|seg| reference_segment_overheads(seg, spec, &mut predictor, &mut rng))
            .collect();
        Overheads { start, segments }
    }

    fn reference_segment_overheads(
        seg: &Segment,
        spec: &PlatformSpec,
        predictor: &mut GsharePredictor,
        rng: &mut Rng,
    ) -> SymbolStats {
        let mut stats = SymbolStats {
            instructions: seg.instructions,
            accesses: seg.l1_resident_accesses,
            base_cycles: (seg.instructions as f64 / spec.core.peak_ipc).round() as u64,
            page_faults: seg.page_faults,
            stall_cycles: seg.page_faults * PAGE_FAULT_CYCLES,
            ..SymbolStats::default()
        };
        if seg.branches > 0 {
            let sim = seg.branches.min(BRANCH_SAMPLE_CAP);
            let scale = seg.branches as f64 / sim as f64;
            let mispredicts = reference_branches(seg, sim, predictor, rng);
            stats.branches = (sim as f64 * scale).round() as u64;
            stats.mispredicts = (mispredicts as f64 * scale).round() as u64;
            stats.stall_cycles += stats.mispredicts * spec.core.mispredict_cycles;
        }
        stats
    }

    /// Every field of `got` equals `want`'s, floats compared by bits.
    fn assert_same(got: &SimResult, want: &SimResult) {
        let sorted = |r: &SimResult| {
            let mut symbols: Vec<_> = r.report.symbols().iter().map(|(&n, &s)| (n, s)).collect();
            symbols.sort_by_key(|&(name, _)| name);
            symbols
        };
        assert_eq!(sorted(got), sorted(want));
        assert_eq!(got.totals, want.totals);
        assert_eq!(got.per_thread_cycles, want.per_thread_cycles);
        assert_eq!(got.wall_cycles, want.wall_cycles);
        for (name, g, w) in [
            ("clock_ghz", got.clock_ghz, want.clock_ghz),
            ("sample_rate", got.sample_rate, want.sample_rate),
            (
                "bandwidth_demand_gibs",
                got.bandwidth_demand_gibs,
                want.bandwidth_demand_gibs,
            ),
            (
                "bandwidth_factor",
                got.bandwidth_factor,
                want.bandwidth_factor,
            ),
        ] {
            assert_eq!(g.to_bits(), w.to_bits(), "{name}: {g} vs {w}");
        }
    }

    /// A thread program of 1–4 segments over `regions`. An idle program's
    /// segments have no patterns, so the walk samples none of its
    /// accesses.
    fn arbitrary_program(g: &mut Gen, regions: &[Region], idle: bool) -> ThreadProgram {
        let mut program = ThreadProgram::new();
        for _ in 0..g.range(1usize..5) {
            let patterns = if idle || g.range(0..5) == 0 {
                Vec::new()
            } else {
                g.vec(1..4, |g| {
                    let region = *g.pick(regions);
                    let stride = *g.pick(&[8u32, 64, 128, 4096]);
                    let pattern = match g.range(0..3) {
                        0 => AccessPattern::Sequential { region, stride },
                        1 => AccessPattern::Random { region },
                        _ => AccessPattern::BurstRandom {
                            region,
                            run: g.range(1u32..32),
                            stride,
                        },
                    };
                    WeightedPattern {
                        weight: g.range(0.1..3.0),
                        pattern,
                    }
                })
            };
            let accesses = g.range(0u64..12_000);
            let symbol = *g.pick(&["calc_band_9", "addbuf", "ssv_filter", "xla_compile"]);
            let mut seg = Segment::compute(symbol, accesses * g.range(1u64..8), accesses, patterns);
            seg.l1_resident_accesses = g.range(0u64..5_000);
            let (branches, regularity) = (g.range(2u64..5_000), g.range(0.0..1.0));
            seg.branches = *g.pick(&[0, 1, branches, BRANCH_SAMPLE_CAP + 7]);
            seg.branch_regularity = *g.pick(&[0.0, 0.5, 0.97, 1.0, 1.5, -0.25, regularity]);
            seg.page_faults = g.range(0u64..50);
            program.push(seg);
        }
        program
    }

    #[test]
    fn run_matches_the_unsplit_reference_bit_for_bit() {
        run(
            "run_matches_the_unsplit_reference_bit_for_bit",
            Config::cases(24),
            |g| {
                let mut spec = if g.bool() {
                    PlatformSpec::server()
                } else {
                    PlatformSpec::desktop()
                };
                // A few lines of cache in most cases, so that most accesses
                // reach the LLC and the order they reach it in decides
                // which lines it keeps.
                if g.range(0..4) > 0 {
                    for (level, ways, sets) in [
                        (&mut spec.l1d, 2, 2),
                        (&mut spec.l2, 2, 4),
                        (&mut spec.llc, *g.pick(&[1, 2]), *g.pick(&[1u64, 2, 8])),
                    ] {
                        level.ways = ways;
                        level.capacity = level.line as u64 * ways as u64 * sets;
                    }
                }
                // Regions the threads share, from L1-sized to past the LLC.
                let regions: Vec<Region> = [16u64 << 10, 1 << 20, 24 << 20, 256 << 20]
                    .iter()
                    .enumerate()
                    .map(|(i, &bytes)| Region::new(0x1000_0000 + ((i as u64) << 30), bytes))
                    .collect();
                let threads = g.range(1usize..10);
                let idle = g.range(0..threads);
                let programs: Vec<ThreadProgram> = (0..threads)
                    .map(|t| arbitrary_program(g, &regions, t == idle))
                    .collect();
                // Caps far below a thread's accesses put chunk boundaries
                // in the middle of segments.
                let engine = SimEngine::new(spec).with_sample_cap(g.range(300u64..5_000));
                let seed = g.rng().next_u64();
                assert_same(
                    &engine.run(&programs, seed),
                    &reference_run(&engine, &programs, seed),
                );
            },
        );
    }

    /// Reference model of [`BranchStream::run`]: `n` branches of `seg`
    /// one by one, each drawn with `gen_bool` and handed to the
    /// predictor.
    fn reference_branches(
        seg: &Segment,
        n: u64,
        predictor: &mut GsharePredictor,
        rng: &mut Rng,
    ) -> u64 {
        let mut name_hash = 0xcbf2_9ce4_8422_2325u64;
        for &b in seg.symbol.as_bytes() {
            name_hash = (name_hash ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        let pc = 0x400000 + (name_hash & 0xffff) * 64;
        let regularity = seg.branch_regularity.clamp(0.0, 1.0);
        let mut mispredicts = 0;
        for _ in 0..n {
            let taken = rng.gen_bool(regularity) || rng.gen_bool(0.5);
            mispredicts += u64::from(!predictor.predict(pc, taken));
        }
        mispredicts
    }

    #[test]
    fn branch_runs_match_branch_by_branch_prediction() {
        run(
            "branch_runs_match_branch_by_branch_prediction",
            Config::cases(64),
            |g| {
                let mut fast = GsharePredictor::default_sized();
                let mut model = fast.clone();
                let mut rng = Rng::seed_from_u64(g.rng().next_u64());
                let mut model_rng = rng.clone();
                // Consecutive segments of different symbols share the
                // predictor, and each runs in slices, as the overhead
                // pass runs them.
                for _ in 0..g.range(1..6) {
                    let symbol = *g.pick(&["calc_band_9", "addbuf", "ssv_filter", "xla_compile"]);
                    let mut seg = Segment::compute(symbol, 0, 0, Vec::new());
                    let (any, near_one) = (g.range(0.0..1.0), g.range(0.95..1.0));
                    seg.branch_regularity =
                        *g.pick(&[0.0, 0.5, 0.85, 0.982, 0.9955, 1.0, any, near_one]);
                    let stream = BranchStream::new(&seg);
                    for _ in 0..g.range(1..5) {
                        let slice = g.range(0u64..3_000);
                        let n = *g.pick(&[0, 1, 13, slice, 40_000]);
                        assert_eq!(
                            stream.run(n, &mut fast, &mut rng),
                            reference_branches(&seg, n, &mut model, &mut model_rng),
                            "{symbol} at {}, {n} branches",
                            seg.branch_regularity
                        );
                        assert_eq!(rng, model_rng);
                        assert_eq!(fast, model);
                    }
                }
            },
        );
    }

    #[test]
    fn integer_branch_draws_match_gen_f64_below_p() {
        let tiny = f64::from_bits(1);
        let below_one = 1.0 - f64::EPSILON / 2.0;
        for p in [0.0, tiny, 1.0 / 3.0, 0.5, 0.97, below_one, 1.0] {
            let threshold = draw_threshold(p);
            // `gen_f64` returns a draw's top 53 bits `m` times 2^-53,
            // which is exact: check the draws at the threshold.
            for m in [0, 1, threshold.saturating_sub(1), threshold, threshold + 1] {
                if m < 1 << 53 {
                    let unit = m as f64 / (1u64 << 53) as f64;
                    assert_eq!(unit < p, m < threshold, "p {p:e}, m {m}");
                }
            }
            // The same stream gives the same outcomes.
            let mut floats = Rng::seed_from_u64(threshold);
            let mut ints = floats.clone();
            for _ in 0..10_000 {
                assert_eq!(
                    floats.gen_bool(p),
                    ints.next_u64() >> 11 < threshold,
                    "p {p:e}"
                );
            }
        }
        assert_eq!(draw_threshold(0.5), 1 << 52);
        let mut floats = Rng::seed_from_u64(9);
        let mut ints = floats.clone();
        for _ in 0..10_000 {
            assert_eq!(floats.gen_bool(0.5), ints.next_u64() >> 63 == 0);
        }
    }

    #[test]
    #[should_panic(expected = "branch regularity must be in [0, 1], got NaN")]
    fn a_nan_branch_regularity_is_rejected() {
        let mut seg = Segment::compute("kernel", 6_000, 0, Vec::new());
        seg.branch_regularity = f64::NAN;
        SimEngine::new(PlatformSpec::desktop()).run(
            &[ThreadProgram {
                segments: vec![seg],
            }],
            1,
        );
    }

    fn program(accesses: u64, pattern: AccessPattern) -> ThreadProgram {
        let mut p = ThreadProgram::new();
        p.push(Segment::compute(
            "kernel",
            accesses * 4,
            accesses,
            vec![WeightedPattern {
                weight: 1.0,
                pattern,
            }],
        ));
        p
    }

    #[test]
    fn small_footprint_is_fast() {
        let spec = PlatformSpec::desktop();
        let engine = SimEngine::new(spec).with_sample_cap(50_000);
        let small = Region::new(0x1000_0000, 16 << 10);
        let big = Region::new(0x2000_0000, 512 << 20);
        let fast = engine.run(
            &[program(100_000, AccessPattern::Random { region: small })],
            1,
        );
        let slow = engine.run(
            &[program(100_000, AccessPattern::Random { region: big })],
            1,
        );
        assert!(
            fast.wall_cycles < slow.wall_cycles / 2,
            "cache-resident {} vs DRAM-bound {}",
            fast.wall_cycles,
            slow.wall_cycles
        );
        assert!(fast.ipc() > slow.ipc());
    }

    #[test]
    fn sequential_beats_random_at_same_footprint() {
        let spec = PlatformSpec::server();
        let engine = SimEngine::new(spec).with_sample_cap(50_000);
        let region = Region::new(0x1000_0000, 256 << 20);
        let seq = engine.run(
            &[program(
                200_000,
                AccessPattern::Sequential { region, stride: 64 },
            )],
            1,
        );
        let rnd = engine.run(&[program(200_000, AccessPattern::Random { region })], 1);
        assert!(
            seq.wall_cycles < rnd.wall_cycles,
            "seq {} vs random {}",
            seq.wall_cycles,
            rnd.wall_cycles
        );
    }

    #[test]
    fn shared_llc_contention_raises_miss_rate() {
        // Each thread's working set fits the LLC alone but not together.
        // Shrink the LLC so the effect shows with few simulated accesses.
        let mut spec = PlatformSpec::server();
        spec.l2.capacity = 256 << 10; // keep L2 below the footprint so the
        spec.l2.ways = 8; // LLC actually sees re-touches
        spec.llc.capacity = 1 << 20; // 1 MiB, 16 ways -> 1024 sets
        spec.llc.ways = 16;
        let engine = SimEngine::new(spec).with_sample_cap(500_000);
        let mk = |t: u64| {
            program(
                150_000,
                AccessPattern::Random {
                    region: Region::new(0x1_0000_0000 + t * (64 << 20), 768 << 10),
                },
            )
        };
        let solo = engine.run(&[mk(0)], 7);
        let duo = engine.run(&[mk(0), mk(1)], 7);
        let solo_llc = solo.totals.llc_miss_ratio();
        let duo_llc = duo.totals.llc_miss_ratio();
        assert!(
            duo_llc > solo_llc + 0.1,
            "contention must raise LLC misses: solo {solo_llc:.3} duo {duo_llc:.3}"
        );
    }

    #[test]
    fn sampling_preserves_scaled_totals() {
        let spec = PlatformSpec::desktop();
        let region = Region::new(0x1000_0000, 1 << 20);
        let engine = SimEngine::new(spec).with_sample_cap(10_000);
        let res = engine.run(&[program(1_000_000, AccessPattern::Random { region })], 3);
        assert!(res.sample_rate < 0.02);
        let acc = res.totals.accesses;
        assert!(
            (900_000..=1_100_000).contains(&acc),
            "scaled accesses {acc}"
        );
        assert_eq!(res.totals.instructions, 4_000_000);
    }

    #[test]
    fn wall_cycles_is_slowest_thread() {
        let spec = PlatformSpec::desktop();
        let engine = SimEngine::new(spec).with_sample_cap(100_000);
        let region = Region::new(0x1000_0000, 1 << 20);
        let long = program(80_000, AccessPattern::Random { region });
        let short = program(8_000, AccessPattern::Random { region });
        let res = engine.run(&[long, short], 5);
        assert_eq!(
            res.wall_cycles,
            *res.per_thread_cycles.iter().max().unwrap()
        );
        assert!(res.per_thread_cycles[0] > res.per_thread_cycles[1]);
    }

    #[test]
    fn trace_adapter_tiles_symbol_spans_over_the_window() {
        let spec = PlatformSpec::desktop();
        let engine = SimEngine::new(spec).with_sample_cap(20_000);
        let region = Region::new(0x1000_0000, 8 << 20);
        let mut p = ThreadProgram::new();
        for sym in ["calc_band_9", "addbuf"] {
            p.push(Segment::compute(
                sym,
                400_000,
                100_000,
                vec![WeightedPattern {
                    weight: 1.0,
                    pattern: AccessPattern::Random { region },
                }],
            ));
        }
        let res = engine.run(&[p], 11);

        let mut tracer = afsb_rt::obs::Tracer::new();
        let root = tracer.begin("msa");
        tracer.advance(100.0);
        let ids = res.trace_symbols_under(&mut tracer, root, 0.0, 100.0);
        tracer.end();
        assert_eq!(tracer.span_names().len(), 3); // msa + two symbols
                                                  // The per-symbol spans tile the full window (shares sum to 1).
        let total: f64 = ids.iter().map(|&id| tracer.span_seconds(id)).sum();
        assert!((total - 100.0).abs() < 1e-9, "tiled {total}");

        let mut m = afsb_rt::obs::MetricsRegistry::new();
        res.publish_metrics(&mut m, "msa");
        assert!(m.counter("msa.calc_band_9.cycles") > 0);
        assert!(m.counter("msa.addbuf.instructions") > 0);
        assert!(m.gauge("msa.ipc").is_some());
    }

    #[test]
    fn page_faults_cost_cycles() {
        let spec = PlatformSpec::server();
        let engine = SimEngine::new(spec.clone()).with_sample_cap(10_000);
        let mut with_faults = ThreadProgram::new();
        let region = Region::new(0x1000_0000, 1 << 16);
        let mut seg = Segment::compute(
            "alloc",
            1_000_000,
            1000,
            vec![WeightedPattern {
                weight: 1.0,
                pattern: AccessPattern::Sequential { region, stride: 64 },
            }],
        );
        let clean = engine.run(
            &[ThreadProgram {
                segments: vec![seg.clone()],
            }],
            1,
        );
        seg.page_faults = 50_000;
        with_faults.push(seg);
        let faulty = engine.run(&[with_faults], 1);
        assert!(faulty.wall_cycles > clean.wall_cycles + 40_000 * 2000);
        assert_eq!(faulty.totals.page_faults, 50_000);
    }
}
