//! Branch predictor model (gshare with 2-bit saturating counters).
//!
//! The trace layer synthesizes per-segment branch outcome streams whose
//! *regularity* reflects the workload: DP inner loops are highly regular
//! (low miss rates, paper Table III shows 0.2–1.0 %), while data-dependent
//! filtering branches are noisier.

/// Statistics for one predictor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Conditional branches predicted.
    pub branches: u64,
    /// Mispredictions.
    pub mispredicts: u64,
}

impl BranchStats {
    /// Misprediction ratio in `[0, 1]`.
    pub fn miss_ratio(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }

    /// Merge another stats block into this one.
    pub fn merge(&mut self, other: &BranchStats) {
        self.branches += other.branches;
        self.mispredicts += other.mispredicts;
    }
}

/// Gshare predictor: global history XOR PC indexes a table of 2-bit
/// saturating counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GsharePredictor {
    table: Vec<u8>,
    mask: u64,
    history: u64,
    history_bits: u32,
    stats: BranchStats,
}

impl GsharePredictor {
    /// Create a predictor with `2^index_bits` counters and the given
    /// global-history length.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or greater than 24.
    pub fn new(index_bits: u32, history_bits: u32) -> GsharePredictor {
        assert!((1..=24).contains(&index_bits), "index_bits in 1..=24");
        GsharePredictor {
            table: vec![2u8; 1 << index_bits], // weakly taken
            mask: (1u64 << index_bits) - 1,
            history: 0,
            history_bits,
            stats: BranchStats::default(),
        }
    }

    /// Default sizing used by both platform models (4K entries, 12-bit
    /// history).
    pub fn default_sized() -> GsharePredictor {
        GsharePredictor::new(12, 12)
    }

    /// Statistics so far.
    pub fn stats(&self) -> &BranchStats {
        &self.stats
    }

    /// The history of `history_bits` taken branches in a row.
    fn all_taken(&self) -> u64 {
        (1u64 << self.history_bits) - 1
    }

    /// The index of `pc`'s counter under the current history.
    fn index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history) & self.mask) as usize
    }

    /// Whether a taken branch at `pc` is *steady*: the history is all
    /// taken and the counter it indexes is saturated at 3. A steady taken
    /// branch predicts correctly and leaves the counter and the history as
    /// they are, so the next taken branch at `pc` is steady too.
    pub fn taken_is_steady(&self, pc: u64) -> bool {
        self.history == self.all_taken() && self.table[self.index(pc)] == 3
    }

    /// Account `n` steady taken branches at `pc` (see
    /// [`GsharePredictor::taken_is_steady`]) without simulating them one
    /// by one: each only adds a correct prediction to the statistics.
    pub fn skip_steady_taken(&mut self, pc: u64, n: u64) {
        debug_assert!(
            n == 0 || self.taken_is_steady(pc),
            "pc {pc:#x} is not steady"
        );
        self.stats.branches += n;
    }

    /// Predict and update for a branch at `pc` with actual outcome
    /// `taken`. Returns whether the prediction was correct.
    pub fn predict(&mut self, pc: u64, taken: bool) -> bool {
        self.stats.branches += 1;
        let idx = self.index(pc);
        let all_taken = self.all_taken();
        let counter = &mut self.table[idx];
        let predicted_taken = *counter >= 2;
        let correct = predicted_taken == taken;
        if !correct {
            self.stats.mispredicts += 1;
        }
        // Update counter and history.
        if taken {
            *counter = (*counter + 1).min(3);
        } else {
            *counter = counter.saturating_sub(1);
        }
        self.history = ((self.history << 1) | u64::from(taken)) & all_taken;
        correct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_always_taken_loop() {
        let mut p = GsharePredictor::default_sized();
        for _ in 0..1000 {
            p.predict(0x400100, true);
        }
        assert!(
            p.stats().miss_ratio() < 0.02,
            "always-taken should be learned, got {}",
            p.stats().miss_ratio()
        );
    }

    #[test]
    fn learns_loop_exit_pattern() {
        // taken^15, not-taken once — classic counted loop.
        let mut p = GsharePredictor::default_sized();
        for _ in 0..200 {
            for i in 0..16 {
                p.predict(0x400200, i != 15);
            }
        }
        // With 12 bits of history the exit is predictable.
        assert!(
            p.stats().miss_ratio() < 0.08,
            "loop exit should mostly predict, got {}",
            p.stats().miss_ratio()
        );
    }

    #[test]
    fn random_branches_mispredict_half() {
        let mut p = GsharePredictor::default_sized();
        let mut x = 0x12345678u64;
        for _ in 0..20000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            p.predict(0x400300, (x >> 62) & 1 == 1);
        }
        let r = p.stats().miss_ratio();
        assert!((0.4..0.6).contains(&r), "random ~50%, got {r}");
    }

    #[test]
    fn stats_merge() {
        let mut a = BranchStats {
            branches: 100,
            mispredicts: 1,
        };
        a.merge(&BranchStats {
            branches: 100,
            mispredicts: 3,
        });
        assert_eq!(a.branches, 200);
        assert!((a.miss_ratio() - 0.02).abs() < 1e-12);
    }
}
