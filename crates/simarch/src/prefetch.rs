//! Hardware stream prefetcher model.
//!
//! A table of recently observed access streams is kept per hardware thread.
//! When consecutive accesses fall on sequential (or constant-stride) lines,
//! the stream's confidence rises and the prefetcher issues fills for the
//! next `degree` lines ahead. Regular scans — like the repetitive poly-Q
//! candidate rescans in the paper's `promo` workload — are therefore served
//! largely from prefetched lines, while pointer-ish random traffic defeats
//! the table (paper §V-B2a: "regular access patterns ... align well with
//! hardware prefetchers").

/// One tracked stream.
#[derive(Debug, Clone, Copy)]
struct StreamEntry {
    /// Last line address observed for this stream.
    last_line: u64,
    /// Detected stride in lines (signed): 0 while training, else the
    /// delta of the match that trained it, at most 4 lines either way.
    stride: i64,
    /// Saturating confidence 0..=3; >=2 triggers prefetch.
    confidence: u8,
}

impl StreamEntry {
    /// Lines from the stream's last line to `line_addr`.
    fn delta(&self, line_addr: u64) -> i64 {
        (line_addr as i64).wrapping_sub(self.last_line as i64)
    }

    /// Whether an access to `line_addr` continues this stream: a step of
    /// the learned stride, or nearby progress while still training.
    fn continues(&self, line_addr: u64) -> bool {
        let delta = self.delta(line_addr);
        if self.stride == 0 {
            delta != 0 && delta.unsigned_abs() <= u64::from(MAX_TRAINING_DELTA)
        } else {
            delta == self.stride
        }
    }
}

/// Largest delta, in lines, that a training stream accepts.
const MAX_TRAINING_DELTA: u32 = 4;
/// Stream slots a prefetcher can track.
const SLOTS: usize = 16;

/// A stream prefetcher covering one hardware thread.
///
/// A stream's stride is 0 or a delta the stream accepted while training,
/// so only a stream whose last line is at most [`MAX_TRAINING_DELTA`]
/// lines from an access can match it. [`StreamPrefetcher::observe`]
/// therefore marks the candidates by the low 32 bits of each slot's last
/// line, without a branch, and checks only those, exactly and in slot
/// order. A slot whose low word is close but whose line is not (a multiple
/// of 2^32 lines away) fails the exact check.
#[derive(Debug, Clone)]
pub struct StreamPrefetcher {
    entries: [StreamEntry; SLOTS],
    /// The low 32 bits of each slot's last line.
    low_lines: [u32; SLOTS],
    /// Recency stamp per slot: 0 for a slot never used, `u64::MAX` past
    /// the slots this prefetcher has.
    stamps: [u64; SLOTS],
    /// One bit per slot in use.
    used: u32,
    degree: usize,
    line_shift: u32,
    clock: u64,
    issued: u64,
}

impl StreamPrefetcher {
    /// Create a prefetcher with `streams` tracked streams issuing `degree`
    /// lines ahead on confident streams.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is not in `1..=16` or `line` is not a power of
    /// two.
    pub fn new(streams: usize, degree: usize, line: usize) -> StreamPrefetcher {
        assert!(
            (1..=SLOTS).contains(&streams),
            "need between 1 and {SLOTS} stream entries"
        );
        assert!(line.is_power_of_two(), "line size must be a power of two");
        let mut stamps = [u64::MAX; SLOTS];
        stamps[..streams].fill(0);
        StreamPrefetcher {
            entries: [StreamEntry {
                last_line: 0,
                stride: 0,
                confidence: 0,
            }; SLOTS],
            low_lines: [0; SLOTS],
            stamps,
            used: 0,
            degree,
            line_shift: line.trailing_zeros(),
            clock: 0,
            issued: 0,
        }
    }

    /// Total prefetches issued.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Observe a demand access and return line addresses to prefetch.
    ///
    /// The returned addresses are line-aligned byte addresses. The
    /// iterator owns its state and allocates nothing, so the engine can
    /// call this once per simulated access.
    pub fn observe(&mut self, addr: u64) -> impl Iterator<Item = u64> {
        self.clock += 1;
        let line_addr = addr >> self.line_shift;

        // The first stream whose extrapolation matches this access. A
        // match is 1 to 4 lines away, so the low words of its delta read
        // as -4..=4 but not 0.
        let low = line_addr as u32;
        let mut candidates = 0u32;
        for (i, &last) in self.low_lines.iter().enumerate() {
            let delta = low.wrapping_sub(last);
            let near =
                delta != 0 && delta.wrapping_add(MAX_TRAINING_DELTA) <= 2 * MAX_TRAINING_DELTA;
            candidates |= u32::from(near) << i;
        }
        candidates &= self.used;
        let mut best: Option<usize> = None;
        while candidates != 0 {
            let i = candidates.trailing_zeros() as usize;
            if self.entries[i].continues(line_addr) {
                best = Some(i);
                break;
            }
            candidates &= candidates - 1;
        }

        // Prefetch `degree` lines, `stride` lines apart, once the stream
        // is confident; none otherwise.
        let (mut stride, mut degree) = (0i64, 0usize);
        let slot = match best {
            Some(i) => {
                let e = &mut self.entries[i];
                let delta = e.delta(line_addr);
                if e.stride == delta {
                    e.confidence = (e.confidence + 1).min(3);
                } else {
                    e.stride = delta;
                    e.confidence = 1;
                }
                e.last_line = line_addr;
                if e.confidence >= 2 {
                    stride = e.stride;
                    degree = self.degree;
                    self.issued += degree as u64;
                }
                i
            }
            None => {
                // Allocate a new stream over the LRU slot: the first slot
                // never used, else the one with the oldest stamp. Stamps
                // of slots in use are distinct, so only never-used slots
                // tie, and the strict `<` keeps the first of them.
                let (mut slot, mut oldest) = (0, self.stamps[0]);
                for (i, &stamp) in self.stamps.iter().enumerate().skip(1) {
                    if stamp < oldest {
                        (slot, oldest) = (i, stamp);
                    }
                }
                self.entries[slot] = StreamEntry {
                    last_line: line_addr,
                    stride: 0,
                    confidence: 0,
                };
                self.used |= 1 << slot;
                slot
            }
        };
        self.low_lines[slot] = low;
        self.stamps[slot] = self.clock;
        let shift = self.line_shift;
        (1..=degree as i64).map(move |k| ((line_addr as i64 + stride * k).max(0) as u64) << shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afsb_rt::check::{run, Config, Gen};

    /// One slot of [`ScanningPrefetcher`].
    #[derive(Debug, Clone, Copy)]
    struct ScannedEntry {
        last_line: u64,
        stride: i64,
        confidence: u8,
        stamp: u64,
        valid: bool,
    }

    /// Reference model: the prefetcher before the candidate filter. Every
    /// access scans all slots in order for the first match, and a new
    /// stream takes the slot with the smallest stamp, counting a slot
    /// never used as 0.
    struct ScanningPrefetcher {
        entries: Vec<ScannedEntry>,
        degree: usize,
        line: u64,
        clock: u64,
        issued: u64,
    }

    impl ScanningPrefetcher {
        fn new(streams: usize, degree: usize, line: usize) -> ScanningPrefetcher {
            let empty = ScannedEntry {
                last_line: 0,
                stride: 0,
                confidence: 0,
                stamp: 0,
                valid: false,
            };
            ScanningPrefetcher {
                entries: vec![empty; streams],
                degree,
                line: line as u64,
                clock: 0,
                issued: 0,
            }
        }

        fn observe(&mut self, addr: u64) -> Vec<u64> {
            self.clock += 1;
            let line_addr = addr / self.line;
            let mut best = None;
            for (i, e) in self.entries.iter().enumerate() {
                if !e.valid {
                    continue;
                }
                let delta = (line_addr as i64).wrapping_sub(e.last_line as i64);
                if (e.stride != 0 && delta == e.stride)
                    || (e.stride == 0 && delta.unsigned_abs() <= 4 && delta != 0)
                {
                    best = Some(i);
                    break;
                }
            }
            let (mut stride, mut degree) = (0i64, 0usize);
            match best {
                Some(i) => {
                    let e = &mut self.entries[i];
                    let delta = (line_addr as i64).wrapping_sub(e.last_line as i64);
                    if e.stride == delta {
                        e.confidence = (e.confidence + 1).min(3);
                    } else {
                        e.stride = delta;
                        e.confidence = 1;
                    }
                    e.last_line = line_addr;
                    e.stamp = self.clock;
                    if e.confidence >= 2 {
                        stride = e.stride;
                        degree = self.degree;
                        self.issued += degree as u64;
                    }
                }
                None => {
                    let slot = self
                        .entries
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| if e.valid { e.stamp } else { 0 })
                        .map(|(i, _)| i)
                        .expect("prefetcher has entries");
                    self.entries[slot] = ScannedEntry {
                        last_line: line_addr,
                        stride: 0,
                        confidence: 0,
                        stamp: self.clock,
                        valid: true,
                    };
                }
            }
            (1..=degree as i64)
                .map(|k| ((line_addr as i64 + stride * k).max(0) as u64) * self.line)
                .collect()
        }
    }

    /// The line of stream `s`'s next access: a step of -5 to 5 lines from
    /// its last one, sometimes a jump.
    fn next_line(g: &mut Gen, last: u64, strides: &[i64]) -> u64 {
        if g.range(0..16) == 0 {
            last.wrapping_add(g.range(5u64..1 << 20))
        } else {
            last.wrapping_add_signed(*g.pick(strides))
        }
    }

    #[test]
    fn observe_matches_the_scanning_model() {
        run(
            "observe_matches_the_scanning_model",
            Config::cases(96),
            |g| {
                let slots = *g.pick(&[16usize, 16, 1, 4, 9, 15]);
                let degree = g.range(0usize..4);
                let line = *g.pick(&[64usize, 64, 8, 4096]);
                let mut fast = StreamPrefetcher::new(slots, degree, line);
                let mut model = ScanningPrefetcher::new(slots, degree, line);
                // Fewer streams than slots, or more so that every slot is
                // live and victims rotate. Some streams start a multiple
                // of 2^32 lines from the first, so their low words alias
                // and the filter passes candidates the exact check drops.
                let streams = *g.pick(&[1usize, 3, slots, slots + 5, 40]);
                let first = g.range(1u64 << 20..1 << 40);
                let mut lines: Vec<u64> = (0..streams)
                    .map(|_| match g.range(0..3) {
                        0 => first + (g.range(1u64..4) << 32) + g.range(0u64..9),
                        1 => first + g.range(0u64..64),
                        _ => g.range(1u64 << 20..1 << 40),
                    })
                    .collect();
                // Per-stream strides: ±4 train, ±5 and 0 never match.
                let strides: Vec<Vec<i64>> = (0..streams)
                    .map(|_| g.vec(1..3, |g| g.range(-5i64..=5)))
                    .collect();
                for _ in 0..2_000 {
                    let s = g.range(0..streams);
                    lines[s] = next_line(g, lines[s], &strides[s]);
                    let addr = lines[s].wrapping_mul(line as u64) + g.range(0..line as u64);
                    let got: Vec<u64> = fast.observe(addr).collect();
                    assert_eq!(got, model.observe(addr), "addr {addr:#x}");
                }
                assert_eq!(fast.issued(), model.issued);
            },
        );
    }

    #[test]
    fn sequential_stream_trains_and_issues() {
        let mut p = StreamPrefetcher::new(8, 2, 64);
        let mut issued = Vec::new();
        for i in 0..8u64 {
            issued.extend(p.observe(i * 64));
        }
        assert!(!issued.is_empty(), "sequential stream must trigger");
        // Prefetches run ahead of the demand stream.
        assert!(issued.iter().all(|a| a % 64 == 0));
        assert!(p.issued() > 0);
    }

    #[test]
    fn strided_stream_detected() {
        let mut p = StreamPrefetcher::new(8, 1, 64);
        let mut hits = 0;
        for i in 0..10u64 {
            let pf: Vec<u64> = p.observe(i * 128).collect(); // stride of 2 lines
            if !pf.is_empty() {
                hits += 1;
                assert_eq!(pf[0] % 64, 0);
            }
        }
        assert!(hits >= 5, "stride-2 stream should train quickly");
    }

    #[test]
    fn random_traffic_stays_quiet() {
        let mut p = StreamPrefetcher::new(8, 2, 64);
        // Large pseudo-random jumps never form a stream.
        let mut addr = 1u64;
        let mut total = 0;
        for _ in 0..200 {
            addr = addr.wrapping_mul(6364136223846793005).wrapping_add(1);
            total += p.observe(addr % (1 << 30)).count();
        }
        assert!(
            total < 20,
            "random traffic should rarely trigger, got {total}"
        );
    }

    #[test]
    fn multiple_interleaved_streams() {
        let mut p = StreamPrefetcher::new(8, 1, 64);
        let mut issued = 0;
        for i in 0..16u64 {
            issued += p.observe(i * 64).count(); // stream A
            issued += p.observe((1 << 20) + i * 64).count(); // stream B
        }
        assert!(issued >= 16, "both streams should train, got {issued}");
    }
}
