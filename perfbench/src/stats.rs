//! Latency statistics and failure accounting.

/// Percentiles the tail is chosen from, in hundredths of a percent
/// (p50, p90, p99, p99.9, p99.99).
pub const TAIL_LADDER_BP: [u64; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// A tail percentile must leave at least this many samples beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `bp` (hundredths of a percent)
/// among `n` samples.
fn rank(n: usize, bp: u64) -> usize {
    let r = (bp as u128 * n as u128).div_ceil(10_000) as usize;
    r.clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice; `0.0` when empty.
pub fn percentile_bp(sorted: &[f64], bp: u64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), bp) - 1]
}

/// Sorts a copy of `samples` ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (nearest-rank p50); `0.0` when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile_bp(&sorted(samples), 5_000)
}

/// The reported tail of a latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile used, e.g. `99.0`.
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples lie beyond it.
    pub beyond: usize,
    /// The sample count.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER_BP`] that still has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it. With fewer than 20 samples no
/// rung qualifies and the median is reported, with its (short) count.
pub fn tail(samples: &[f64]) -> Tail {
    let s = sorted(samples);
    let n = s.len();
    let bp = TAIL_LADDER_BP
        .iter()
        .rev()
        .copied()
        .find(|&bp| n.saturating_sub(rank(n, bp)) >= TAIL_MIN_BEYOND)
        .unwrap_or(TAIL_LADDER_BP[0]);
    Tail {
        pct: bp as f64 / 100.0,
        value: percentile_bp(&s, bp),
        beyond: n.saturating_sub(rank(n, bp)),
        samples: n,
    }
}

/// Operations attempted and failed. A refused request, a transport
/// error and a wrong output all count as failures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed ÷ attempted (`0.0` when nothing was attempted).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// `num / den`, or `0.0` when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: tail() must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        let t = tail(&ramp(1000));
        assert_eq!(
            (t.pct, t.value, t.beyond, t.samples),
            (99.0, 990.0, 10, 1000)
        );
        // 999 samples: p99 leaves 9, so the tail falls back to p90.
        let t = tail(&ramp(999));
        assert_eq!((t.pct, t.beyond), (90.0, 99));
        assert_eq!(t.value, 900.0);
        // 10 000 samples reach p99.9.
        let t = tail(&ramp(10_000));
        assert_eq!((t.pct, t.beyond), (99.9, 10));
        // 100 samples: p90 leaves 10.
        let t = tail(&ramp(100));
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 90.0, 10));
    }

    #[test]
    fn tail_of_a_short_sample_is_the_median_with_its_count() {
        let t = tail(&ramp(5));
        assert_eq!((t.pct, t.value, t.beyond, t.samples), (50.0, 3.0, 2, 5));
        let t = tail(&[]);
        assert_eq!((t.value, t.beyond, t.samples), (0.0, 0, 0));
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn failed_ratio_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_ratio(), 0.0);
        for ok in [true, false, true, true] {
            t.record(ok);
        }
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.failed_ratio(), 0.25);
        t.merge(Tally {
            attempted: 4,
            failed: 3,
        });
        assert_eq!(t.failed_ratio(), 0.5);
    }
}
