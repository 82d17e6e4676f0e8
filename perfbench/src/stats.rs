//! Order statistics, the tail-percentile rule, and the run verdict.

/// A tail percentile must leave at least this many samples beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Lowest percentile the tail rule will report before falling back to
/// the maximum.
const TAIL_FLOOR: usize = 50;

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The tail of a latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The tail value.
    pub value: f64,
    /// The nearest-rank percentile it is, or `None` when the sample is
    /// too small for any percentile from p50 up to leave
    /// [`TAIL_BEYOND`] samples beyond it — `value` is the maximum then.
    pub percentile: Option<usize>,
    /// Number of samples the tail was taken over.
    pub samples: usize,
}

impl Tail {
    /// `p86 of 72` / `max of 3`.
    pub fn label(&self) -> String {
        match self.percentile {
            Some(p) => format!("p{p} of {}", self.samples),
            None => format!("max of {}", self.samples),
        }
    }
}

/// The highest integer percentile (p50..p99, nearest rank) that leaves at
/// least [`TAIL_BEYOND`] samples strictly beyond its rank. Samples too
/// few for p50 to qualify report their maximum instead.
pub fn tail(xs: &[f64]) -> Tail {
    let n = xs.len();
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    for p in (TAIL_FLOOR..100).rev() {
        let rank = (p * n).div_ceil(100).max(1);
        if n >= rank + TAIL_BEYOND {
            return Tail {
                value: s[rank - 1],
                percentile: Some(p),
                samples: n,
            };
        }
    }
    Tail {
        value: s.last().copied().unwrap_or(0.0),
        percentile: None,
        samples: n,
    }
}

/// How many operations a run attempted and how many failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Operations attempted (grid runs, one-shot runs, or batches).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Verdict {
    /// Combines per-operation failures with the fingerprint check: when
    /// the simulated counts do not match their pin, none of the run's
    /// outputs can be trusted, so every attempted operation fails.
    pub fn new(attempted: u64, failed_ops: u64, fingerprint_ok: bool) -> Verdict {
        let failed = if fingerprint_ok {
            failed_ops.min(attempted)
        } else {
            attempted
        };
        Verdict { attempted, failed }
    }

    /// Failed operations over attempted ones.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Whether every operation succeeded (and at least one ran).
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// splitmix64: derives independent sub-seeds from one seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled order must not matter.
        (0..n).rev().map(|i| (i + 1) as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        // 72 samples: p86 has rank 62 (10 beyond), p87 rank 63 (9 beyond).
        let t = tail(&ramp(72));
        assert_eq!(t.percentile, Some(86));
        assert_eq!(t.value, 62.0);
        assert_eq!(t.samples, 72);
        assert_eq!(t.label(), "p86 of 72");
        // 110 samples: p90 has rank 99 (11 beyond), p91 rank 101 (9 beyond).
        let t = tail(&ramp(110));
        assert_eq!(t.percentile, Some(90));
        assert_eq!(t.value, 99.0);
        // 1000 samples: p99 has rank 990, exactly 10 beyond.
        assert_eq!(tail(&ramp(1000)).percentile, Some(99));
    }

    #[test]
    fn tail_falls_back_to_max_on_small_samples() {
        // 20 samples: p50 rank 10 leaves exactly 10 beyond.
        assert_eq!(tail(&ramp(20)).percentile, Some(50));
        // 19 samples: nothing from p50 up qualifies.
        let t = tail(&ramp(19));
        assert_eq!(t.percentile, None);
        assert_eq!(t.value, 19.0);
        assert_eq!(t.label(), "max of 19");
        assert_eq!(tail(&[7.5]).value, 7.5);
    }

    #[test]
    fn error_rate_counts_failed_over_attempted() {
        let v = Verdict::new(40, 3, true);
        assert_eq!((v.attempted, v.failed), (40, 3));
        assert!((v.error_rate() - 0.075).abs() < 1e-12);
        assert!(!v.correct());
        let clean = Verdict::new(40, 0, true);
        assert_eq!(clean.error_rate(), 0.0);
        assert!(clean.correct());
        // Nothing attempted is not a success.
        assert!(!Verdict::new(0, 0, true).correct());
        assert_eq!(Verdict::new(0, 0, true).error_rate(), 1.0);
    }

    #[test]
    fn fingerprint_mismatch_fails_every_operation() {
        let v = Verdict::new(40, 0, false);
        assert_eq!(v.failed, 40);
        assert_eq!(v.error_rate(), 1.0);
        assert!(!v.correct());
    }
}
