//! Exact latency order statistics.
//!
//! Every sample is kept (nanoseconds, saturating at `u32::MAX`), so the
//! reported percentiles are exact order statistics, not histogram bucket
//! bounds: sub-microsecond reads resolve to the nanosecond.

/// Fewest samples that must rank after a reported percentile. A
/// percentile with fewer samples beyond it is an extreme value, not an
/// estimate, and is not reported.
pub const MIN_BEYOND: usize = 10;

/// Collects per-operation latencies.
#[derive(Debug, Default, Clone)]
pub struct Recorder {
    ns: Vec<u32>,
}

impl Recorder {
    /// A recorder with room for `n` samples. The buffer is written once up
    /// front, so the process's resident memory does not grow with the
    /// number of samples a window ends up holding (a faster program would
    /// otherwise read as a bigger one).
    pub fn with_capacity(n: usize) -> Self {
        let mut ns = Vec::with_capacity(n);
        ns.resize(n, u32::MAX);
        ns.clear();
        Recorder { ns }
    }

    /// Records one latency.
    #[inline]
    pub fn record(&mut self, d: std::time::Duration) {
        self.record_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records one latency given in nanoseconds.
    #[inline]
    pub fn record_ns(&mut self, ns: u64) {
        self.ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
    }

    /// Appends another recorder's samples.
    pub fn merge(&mut self, other: &Recorder) {
        self.ns.extend_from_slice(&other.ns);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Drops every sample, keeping the buffer.
    pub fn clear(&mut self) {
        self.ns.clear();
    }

    /// Sorts the samples from index `from` on, in place, and returns their
    /// order statistics.
    pub fn sort_from(&mut self, from: usize) -> Sorted<'_> {
        let ns = &mut self.ns[from..];
        ns.sort_unstable();
        Sorted { ns }
    }

    /// Sorts every sample in place and returns their order statistics.
    pub fn sort(&mut self) -> Sorted<'_> {
        self.sort_from(0)
    }
}

/// Samples in ascending order.
#[derive(Debug, Clone, Copy)]
pub struct Sorted<'a> {
    ns: &'a [u32],
}

impl Sorted<'_> {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Nearest-rank percentile in nanoseconds: the sample of rank
    /// `ceil(q * n)` (1-based). `None` when the sample is empty or fewer
    /// than [`MIN_BEYOND`] samples rank after it.
    pub fn percentile_ns(&self, q: f64) -> Option<u64> {
        let n = self.ns.len();
        if n == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        (n - rank >= MIN_BEYOND).then(|| u64::from(self.ns[rank - 1]))
    }

    /// [`Sorted::percentile_ns`] in microseconds.
    pub fn percentile_us(&self, q: f64) -> Option<f64> {
        self.percentile_ns(q).map(|ns| ns as f64 / 1_000.0)
    }

    /// Sum of all samples in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().map(|&x| u64::from(x)).sum()
    }

    /// Largest sample in nanoseconds (0 when empty).
    pub fn max_ns(&self) -> u64 {
        self.ns.last().map(|&x| u64::from(x)).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(ns: &[u64]) -> Recorder {
        let mut r = Recorder::with_capacity(ns.len());
        for &x in ns {
            r.record_ns(x);
        }
        r
    }

    /// The exact nearest-rank order statistic, computed independently.
    fn order_statistic(ns: &[u64], q: f64) -> u64 {
        let mut v = ns.to_vec();
        v.sort();
        let k = (q * v.len() as f64).ceil() as usize;
        v[k.max(1) - 1]
    }

    #[test]
    fn percentiles_match_exact_order_statistics_at_sub_microsecond_scale() {
        // 1..=1000 ns in scrambled order: p50 is the 500th smallest, p99
        // the 990th, both below a microsecond.
        let ns: Vec<u64> = (1..=1000u64).map(|i| (i * 7919) % 1000 + 1).collect();
        let mut r = recorder(&ns);
        let s = r.sort();
        assert_eq!(s.percentile_ns(0.50), Some(500));
        assert_eq!(s.percentile_ns(0.99), Some(990));
        assert_eq!(s.percentile_us(0.99), Some(0.99));
        for q in [0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99] {
            assert_eq!(s.percentile_ns(q), Some(order_statistic(&ns, q)), "q={q}");
        }
    }

    #[test]
    fn ties_resolve_to_the_tied_value() {
        // 600 samples of 250 ns, 400 of 90 ns: every rank up to 400 is 90,
        // every rank after it 250.
        let mut ns = vec![250u64; 600];
        ns.extend(std::iter::repeat_n(90, 400));
        let mut r = recorder(&ns);
        let s = r.sort();
        assert_eq!(s.percentile_ns(0.40), Some(90));
        assert_eq!(s.percentile_ns(0.401), Some(250));
        assert_eq!(s.percentile_ns(0.50), Some(250));
        assert_eq!(s.percentile_ns(0.99), Some(250));
        assert_eq!(s.percentile_ns(0.99), Some(order_statistic(&ns, 0.99)));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p99 of n samples has n - ceil(0.99 n) samples after it: 10 at
        // n = 1000, 9 at n = 999.
        let mut r = recorder(&(1..=1000).collect::<Vec<_>>());
        assert_eq!(r.sort().percentile_ns(0.99), Some(990));
        let mut r = recorder(&(1..=999).collect::<Vec<_>>());
        assert_eq!(r.sort().percentile_ns(0.99), None);
        assert_eq!(r.sort().percentile_ns(0.50), Some(500));
        // A tiny sample supports a median only once ten samples follow it.
        assert_eq!(recorder(&[5; 19]).sort().percentile_ns(0.5), None);
        assert_eq!(recorder(&[5; 20]).sort().percentile_ns(0.5), Some(5));
        assert_eq!(recorder(&[]).sort().percentile_ns(0.5), None);
    }

    #[test]
    fn every_reported_percentile_leaves_ten_samples_after_it() {
        for n in [10usize, 11, 57, 100, 999, 1000, 1001, 12_345] {
            let ns: Vec<u64> = (0..n as u64).collect();
            let mut r = recorder(&ns);
            let s = r.sort();
            for q in [0.5, 0.9, 0.99, 0.999] {
                if let Some(v) = s.percentile_ns(q) {
                    let beyond = ns.iter().filter(|&&x| x > v).count();
                    assert!(beyond >= MIN_BEYOND, "n={n} q={q} beyond={beyond}");
                }
            }
        }
    }

    #[test]
    fn saturates_instead_of_wrapping() {
        let mut r = Recorder::default();
        r.record_ns(u64::MAX);
        r.record(std::time::Duration::from_secs(10));
        assert_eq!(r.sort().max_ns(), u64::from(u32::MAX));
    }

    #[test]
    fn merge_sort_from_and_clear() {
        let mut a = recorder(&[9, 3]);
        a.merge(&recorder(&[4, 1]));
        assert_eq!(a.len(), 4);
        // Sorting a tail leaves the head alone.
        assert_eq!(a.sort_from(2).max_ns(), 4);
        assert_eq!(a.sort_from(2).total_ns(), 5);
        assert_eq!(a.sort().total_ns(), 17);
        assert_eq!(a.sort().max_ns(), 9);
        a.clear();
        assert_eq!(a.len(), 0);
        assert_eq!(a.sort().max_ns(), 0);
    }

    #[test]
    fn capacity_holds_no_samples() {
        let mut r = Recorder::with_capacity(1000);
        assert_eq!(r.len(), 0);
        r.record_ns(7);
        assert_eq!(r.sort().percentile_ns(0.0), None);
        assert_eq!(r.sort().max_ns(), 7);
    }
}
