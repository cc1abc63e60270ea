//! Seedable, portable pseudo-random number generation.
//!
//! The generator is xoshiro256** seeded through SplitMix64 — the standard
//! pairing recommended by the xoshiro authors. Both algorithms are frozen:
//! the stream produced for a given seed is part of this crate's contract
//! and will never change, which is what makes every downstream simulated
//! measurement bit-reproducible (the previous `StdRng` made no such
//! promise across `rand` releases or platforms).
//!
//! The API mirrors the subset of `rand` the suite uses: `seed_from_u64`,
//! `gen_range` over integer and float ranges, `gen_bool`, and a
//! cumulative-weight [`WeightedIndex`] for background-composition draws.

/// One step of the SplitMix64 sequence (also usable as a mixing function).
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Mix two words into one (seed derivation for labelled sub-streams).
#[inline]
pub fn mix(a: u64, b: u64) -> u64 {
    let mut s = a ^ b.rotate_left(32);
    splitmix64(&mut s)
}

/// The xoshiro256** generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Create a generator from a 64-bit seed (SplitMix64 state expansion).
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Next raw 32-bit output (upper half of the 64-bit stream).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)` with 24 bits of precision.
    #[inline]
    pub fn gen_f32(&mut self) -> f32 {
        (self.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Bernoulli draw with success probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.gen_f64() < p
    }

    /// Unbiased uniform draw in `[0, n)` (Lemire's nearly-divisionless
    /// multiply-rejection).
    ///
    /// A draw is rejected when the low word of `draw × n` falls below
    /// `2^64 mod n`. That threshold is below `n`, so a low word of at
    /// least `n` is accepted without computing it: the division runs only
    /// on the rare draws that could be rejected, and the draws and results
    /// are those of always dividing first.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn gen_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "gen_below needs a positive bound");
        let mut m = u128::from(self.next_u64()) * u128::from(n);
        if (m as u64) < n {
            // Threshold for rejecting the biased low range.
            let t = n.wrapping_neg() % n;
            while (m as u64) < t {
                m = u128::from(self.next_u64()) * u128::from(n);
            }
        }
        (m >> 64) as u64
    }

    /// Uniform draw from a range, e.g. `rng.gen_range(0..10)`,
    /// `rng.gen_range(1..=3)`, `rng.gen_range(-1.0..1.0)`.
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    #[inline]
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }
}

/// A range that [`Rng::gen_range`] can sample from.
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draw one uniform value.
    fn sample(self, rng: &mut Rng) -> Self::Output;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty integer range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = if span > u128::from(u64::MAX) {
                    rng.next_u64()
                } else {
                    rng.gen_below(span as u64)
                };
                (self.start as i128 + off as i128) as $t
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty integer range");
                let span = (end as i128 - start as i128) as u128 + 1;
                let off = if span > u128::from(u64::MAX) {
                    rng.next_u64()
                } else {
                    rng.gen_below(span as u64)
                };
                (start as i128 + off as i128) as $t
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_sample_range {
    ($($t:ty => $gen:ident),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty float range");
                let v = self.start + (self.end - self.start) * rng.$gen();
                // Rounding can land exactly on the excluded endpoint; nudge
                // back inside.
                if v >= self.end {
                    <$t>::from_bits(self.end.to_bits() - 1).max(self.start)
                } else {
                    v
                }
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty float range");
                start + (end - start) * rng.$gen()
            }
        }
    )*};
}

float_sample_range!(f32 => gen_f32, f64 => gen_f64);

/// Error constructing a [`WeightedIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightedError {
    /// The weight slice was empty.
    NoWeights,
    /// A weight was negative or non-finite, or all weights were zero.
    InvalidWeight,
}

impl core::fmt::Display for WeightedError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WeightedError::NoWeights => f.write_str("no weights supplied"),
            WeightedError::InvalidWeight => {
                f.write_str("weights must be finite, non-negative and not all zero")
            }
        }
    }
}

impl std::error::Error for WeightedError {}

/// Discrete distribution over indices proportional to the given weights
/// (cumulative-sum inversion).
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedIndex {
    cumulative: Vec<f64>,
    total: f64,
}

impl WeightedIndex {
    /// Build from non-negative weights.
    ///
    /// # Errors
    ///
    /// Returns [`WeightedError`] if the slice is empty, a weight is
    /// negative or non-finite, or the total weight is zero.
    pub fn new<W: Into<f64> + Copy>(weights: &[W]) -> Result<WeightedIndex, WeightedError> {
        if weights.is_empty() {
            return Err(WeightedError::NoWeights);
        }
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut total = 0.0f64;
        for &w in weights {
            let w: f64 = w.into();
            if !w.is_finite() || w < 0.0 {
                return Err(WeightedError::InvalidWeight);
            }
            total += w;
            cumulative.push(total);
        }
        if total <= 0.0 {
            return Err(WeightedError::InvalidWeight);
        }
        Ok(WeightedIndex { cumulative, total })
    }

    /// Draw an index with probability proportional to its weight.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.gen_f64() * self.total;
        // First cumulative weight strictly above the draw; zero-weight
        // entries (cumulative equal to the previous) are never selected.
        let i = self.cumulative.partition_point(|&c| c <= u);
        i.min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector_from_xoshiro256starstar() {
        // Seed expansion and the first outputs are frozen: these values
        // were produced by this implementation at introduction time and
        // guard against accidental algorithm changes.
        let mut rng = Rng::seed_from_u64(0);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        let mut again = Rng::seed_from_u64(0);
        let repeat: Vec<u64> = (0..4).map(|_| again.next_u64()).collect();
        assert_eq!(first, repeat);
        assert_eq!(first[0], 11091344671253066420);
    }

    #[test]
    fn deterministic_per_seed_and_decorrelated_across_seeds() {
        let a: Vec<u64> = {
            let mut r = Rng::seed_from_u64(42);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::seed_from_u64(42);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::seed_from_u64(43);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn gen_below_is_in_bounds_and_covers() {
        let mut rng = Rng::seed_from_u64(7);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.gen_below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
    }

    /// Reference model: Lemire's multiply-rejection with the rejection
    /// threshold computed before every draw.
    fn gen_below_always_dividing(rng: &mut Rng, n: u64) -> u64 {
        let t = n.wrapping_neg() % n;
        loop {
            let m = u128::from(rng.next_u64()) * u128::from(n);
            if (m as u64) >= t {
                return (m >> 64) as u64;
            }
        }
    }

    #[test]
    fn gen_below_matches_the_always_dividing_form() {
        crate::check::run(
            "gen_below_matches_the_always_dividing_form",
            crate::check::Config::cases(64),
            |g| {
                // Bounds just above a power of two reject up to half of
                // all draws, so the redraw path runs often.
                let n = match g.range(0..6) {
                    0 => 1,
                    1 => 1 << g.range(0u32..64),
                    2 => (1 << 63) + 1,
                    3 => u64::MAX,
                    4 => (1 << g.range(1u32..64)) + g.range(1u64..4),
                    _ => g.range(1u64..=u64::MAX),
                };
                let mut got = Rng::seed_from_u64(g.rng().next_u64());
                let mut want = got.clone();
                for _ in 0..256 {
                    assert_eq!(
                        got.gen_below(n),
                        gen_below_always_dividing(&mut want, n),
                        "n {n}"
                    );
                    assert_eq!(got, want, "n {n}");
                }
            },
        );
    }

    #[test]
    fn ranges_cover_integer_and_float_types() {
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..500 {
            let a = rng.gen_range(1..=3);
            assert!((1..=3).contains(&a));
            let b = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&b));
            let c = rng.gen_range(0usize..=10);
            assert!(c <= 10);
            let d = rng.gen_range(-1.0f64..1.0);
            assert!((-1.0..1.0).contains(&d));
            let e = rng.gen_range(f32::EPSILON..1.0);
            assert!((f32::EPSILON..1.0).contains(&e));
            let f = rng.gen_range(-2.5f64..=2.5);
            assert!((-2.5..=2.5).contains(&f));
        }
    }

    #[test]
    fn gen_f64_mean_near_half() {
        let mut rng = Rng::seed_from_u64(3);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.gen_f64()).sum::<f64>() / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = Rng::seed_from_u64(4);
        let n = 20_000;
        let hits = (0..n).filter(|_| rng.gen_bool(0.3)).count();
        let frac = hits as f64 / f64::from(n);
        assert!((frac - 0.3).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let dist = WeightedIndex::new(&[1.0f64, 0.0, 3.0]).unwrap();
        let mut rng = Rng::seed_from_u64(5);
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            counts[dist.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight entry never drawn");
        let ratio = f64::from(counts[2]) / f64::from(counts[0]);
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn weighted_index_accepts_f32_and_rejects_bad_weights() {
        assert!(WeightedIndex::new(&[0.25f32, 0.75]).is_ok());
        assert_eq!(
            WeightedIndex::new::<f64>(&[]),
            Err(WeightedError::NoWeights)
        );
        assert_eq!(
            WeightedIndex::new(&[1.0f64, -0.5]),
            Err(WeightedError::InvalidWeight)
        );
        assert_eq!(
            WeightedIndex::new(&[0.0f64, 0.0]),
            Err(WeightedError::InvalidWeight)
        );
    }

    #[test]
    fn mix_derives_distinct_streams() {
        assert_ne!(mix(1, 2), mix(2, 1));
        assert_ne!(mix(0, 0), mix(0, 1));
    }
}
