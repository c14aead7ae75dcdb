//! Statistics primitives used by the trace analyzers and the experiment
//! harness: Welford accumulators, time-weighted averages, histograms and
//! (time, value) series.

use crate::time::{SimDuration, SimTime};

/// Streaming mean / standard-deviation accumulator (Welford's algorithm).
///
/// Used to aggregate the 3 iterations per experiment the paper reports as
/// "Avg." and "σ" columns.
///
/// ```
/// use simcore::RunningStat;
/// let mut s = RunningStat::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_std_dev() - 2.0).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunningStat {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStat {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStat {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean; 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation (σ, divides by N); 0 if empty.
    ///
    /// The paper's σ columns are over exactly 3 iterations; population σ
    /// matches what WPA-style tooling reports.
    pub fn population_std_dev(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.m2 / self.n as f64).max(0.0).sqrt()
        }
    }

    /// Sample standard deviation (divides by N−1); 0 if fewer than 2 samples.
    pub fn sample_std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).max(0.0).sqrt()
        }
    }

    /// Smallest sample; `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample; `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

impl Extend<f64> for RunningStat {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for RunningStat {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = RunningStat::new();
        s.extend(iter);
        s
    }
}

/// Time-weighted average of a piecewise-constant signal.
///
/// Feed it `(time, new_value)` changes; it integrates the previous value over
/// the elapsed span. This is how the GPU-utilization and concurrency
/// analyzers turn event streams into averages.
///
/// ```
/// use simcore::{SimTime, TimeWeighted};
/// let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
/// tw.set(SimTime::from_nanos(100), 1.0); // value 0 for 100ns
/// tw.set(SimTime::from_nanos(300), 0.0); // value 1 for 200ns
/// assert!((tw.average(SimTime::from_nanos(400)) - 0.5).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimeWeighted {
    last_time: SimTime,
    value: f64,
    integral: f64, // value · seconds
    start: SimTime,
}

impl TimeWeighted {
    /// Starts integrating at `start` with initial `value`.
    pub fn new(start: SimTime, value: f64) -> Self {
        TimeWeighted {
            last_time: start,
            value,
            integral: 0.0,
            start,
        }
    }

    /// Registers that the signal changed to `value` at time `t`.
    ///
    /// # Panics
    /// Panics in debug builds if `t` precedes the previous change.
    pub fn set(&mut self, t: SimTime, value: f64) {
        debug_assert!(t >= self.last_time, "time went backwards");
        self.integral += self.value * t.saturating_since(self.last_time).as_secs_f64();
        self.last_time = t;
        self.value = value;
    }

    /// Current value of the signal.
    pub fn current(&self) -> f64 {
        self.value
    }

    /// Integral of the signal (value · seconds) up to `end`.
    pub fn integral(&self, end: SimTime) -> f64 {
        self.integral + self.value * end.saturating_since(self.last_time).as_secs_f64()
    }

    /// Time-weighted average over `[start, end]`; 0 over an empty window.
    pub fn average(&self, end: SimTime) -> f64 {
        let span = end.saturating_since(self.start).as_secs_f64();
        if span <= 0.0 {
            0.0
        } else {
            self.integral(end) / span
        }
    }
}

/// Fixed-bin histogram over `0..=max_bin` integer values, weighted by time.
///
/// This is the paper's "Execution Time (%) C0..C12" heat-map row: bin `i`
/// holds how long exactly `i` logical CPUs were running application threads.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    bins: Vec<SimDuration>,
}

impl Histogram {
    /// Creates a histogram with bins `0..=max_bin`.
    pub fn new(max_bin: usize) -> Self {
        Histogram {
            bins: vec![SimDuration::ZERO; max_bin + 1],
        }
    }

    /// Adds `weight` of time to bin `value` (values above the top bin clamp).
    pub fn add(&mut self, value: usize, weight: SimDuration) {
        let idx = value.min(self.bins.len() - 1);
        self.bins[idx] += weight;
    }

    /// Number of bins (max_bin + 1).
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// True if all bins are empty.
    pub fn is_empty(&self) -> bool {
        self.total().is_zero()
    }

    /// Time accumulated in bin `i`.
    pub fn bin(&self, i: usize) -> SimDuration {
        self.bins.get(i).copied().unwrap_or(SimDuration::ZERO)
    }

    /// Total time across all bins.
    pub fn total(&self) -> SimDuration {
        self.bins.iter().copied().sum()
    }

    /// Bin fractions `c_i` (each in `[0,1]`, summing to 1); empty ⇒ all 0.
    pub fn fractions(&self) -> Vec<f64> {
        let total = self.total().as_secs_f64();
        if total <= 0.0 {
            return vec![0.0; self.bins.len()];
        }
        self.bins.iter().map(|b| b.as_secs_f64() / total).collect()
    }

    /// Thread-level parallelism per the paper's Equation 1:
    /// `TLP = Σ_{i≥1} c_i · i / (1 − c_0)`. Returns 0 if never non-idle.
    pub fn tlp(&self) -> f64 {
        let c = self.fractions();
        let busy: f64 = 1.0 - c.first().copied().unwrap_or(0.0);
        if busy <= 0.0 {
            return 0.0;
        }
        let weighted: f64 = c
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, ci)| ci * i as f64)
            .sum();
        weighted / busy
    }

    /// Merges another histogram (bin-wise sum).
    ///
    /// # Panics
    /// Panics if bin counts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bins.len(), other.bins.len(), "bin count mismatch");
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += *b;
        }
    }
}

/// A `(time, value)` series, e.g. instantaneous TLP over 100 ms bins, or the
/// per-frame FPS trace of Figure 13.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Series {
    points: Vec<(SimTime, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new() -> Self {
        Series { points: Vec::new() }
    }

    /// Appends a point.
    ///
    /// # Panics
    /// Panics in debug builds if `t` precedes the last point.
    pub fn push(&mut self, t: SimTime, v: f64) {
        debug_assert!(
            self.points.last().map_or(true, |&(lt, _)| t >= lt),
            "series time went backwards"
        );
        self.points.push((t, v));
    }

    /// The points as a slice.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if there are no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterator over `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.points.iter().copied()
    }

    /// Mean of the values (unweighted); 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            0.0
        } else {
            self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64
        }
    }

    /// Largest value; `None` if empty.
    pub fn max(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Fraction of points whose value is within `tol` of `target`.
    pub fn fraction_at(&self, target: f64, tol: f64) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let hits = self
            .points
            .iter()
            .filter(|&&(_, v)| (v - target).abs() <= tol)
            .count();
        hits as f64 / self.points.len() as f64
    }

    /// Downsamples to at most `n` points by striding (for compact reports).
    pub fn thin(&self, n: usize) -> Series {
        if n == 0 || self.points.len() <= n {
            return self.clone();
        }
        let stride = self.points.len().div_ceil(n);
        Series {
            points: self.points.iter().step_by(stride).copied().collect(),
        }
    }
}

impl FromIterator<(SimTime, f64)> for Series {
    fn from_iter<T: IntoIterator<Item = (SimTime, f64)>>(iter: T) -> Self {
        let mut s = Series::new();
        for (t, v) in iter {
            s.push(t, v);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn running_stat_empty() {
        let s = RunningStat::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_std_dev(), 0.0);
        assert_eq!(s.sample_std_dev(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn running_stat_basics() {
        let s: RunningStat = [1.0, 2.0, 3.0].into_iter().collect();
        assert_eq!(s.count(), 3);
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert!((s.sample_std_dev() - 1.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(3.0));
    }

    #[test]
    fn time_weighted_piecewise() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 2.0);
        tw.set(SimTime::from_nanos(1_000_000_000), 4.0);
        // 2.0 for 1s then 4.0 for 1s → avg 3.0 over 2s
        assert!((tw.average(SimTime::from_nanos(2_000_000_000)) - 3.0).abs() < 1e-9);
        assert_eq!(tw.current(), 4.0);
    }

    #[test]
    fn time_weighted_empty_window() {
        let tw = TimeWeighted::new(SimTime::from_nanos(5), 1.0);
        assert_eq!(tw.average(SimTime::from_nanos(5)), 0.0);
    }

    #[test]
    fn histogram_tlp_equation_one() {
        // c0=0.5, c1=0.25, c2=0.25 → TLP = (0.25·1 + 0.25·2) / 0.5 = 1.5
        let mut h = Histogram::new(4);
        h.add(0, SimDuration::from_secs(2));
        h.add(1, SimDuration::from_secs(1));
        h.add(2, SimDuration::from_secs(1));
        assert!((h.tlp() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_all_idle_tlp_zero() {
        let mut h = Histogram::new(2);
        h.add(0, SimDuration::from_secs(3));
        assert_eq!(h.tlp(), 0.0);
        let empty = Histogram::new(2);
        assert_eq!(empty.tlp(), 0.0);
        assert!(empty.is_empty());
    }

    #[test]
    fn histogram_clamps_overflow_bin() {
        let mut h = Histogram::new(2);
        h.add(7, SimDuration::from_secs(1));
        assert_eq!(h.bin(2), SimDuration::from_secs(1));
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new(2);
        a.add(1, SimDuration::from_secs(1));
        let mut b = Histogram::new(2);
        b.add(1, SimDuration::from_secs(2));
        b.add(2, SimDuration::from_secs(1));
        a.merge(&b);
        assert_eq!(a.bin(1), SimDuration::from_secs(3));
        assert_eq!(a.bin(2), SimDuration::from_secs(1));
    }

    #[test]
    fn series_stats() {
        let s: Series = [(0u64, 1.0), (10, 3.0), (20, 5.0)]
            .into_iter()
            .map(|(t, v)| (SimTime::from_nanos(t), v))
            .collect();
        assert_eq!(s.len(), 3);
        assert!((s.mean() - 3.0).abs() < 1e-12);
        assert_eq!(s.max(), Some(5.0));
        assert!((s.fraction_at(3.0, 0.5) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn series_thin() {
        let s: Series = (0..100)
            .map(|i| (SimTime::from_nanos(i), i as f64))
            .collect();
        let t = s.thin(10);
        assert!(t.len() <= 10);
        assert_eq!(t.points()[0].1, 0.0);
    }

    proptest! {
        /// TLP is always between 1 and the max bin index when any busy time
        /// exists, and c fractions sum to ~1.
        #[test]
        fn prop_tlp_bounds(bins in proptest::collection::vec(0u64..1000, 2..14)) {
            let mut h = Histogram::new(bins.len() - 1);
            for (i, &w) in bins.iter().enumerate() {
                h.add(i, SimDuration::from_millis(w));
            }
            let busy: u64 = bins.iter().skip(1).sum();
            if busy > 0 {
                let tlp = h.tlp();
                prop_assert!(tlp >= 1.0 - 1e-9, "tlp {tlp}");
                prop_assert!(tlp <= (bins.len() - 1) as f64 + 1e-9, "tlp {tlp}");
            }
            if h.total() > SimDuration::ZERO {
                let sum: f64 = h.fractions().iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-9);
            }
        }

        /// Welford matches the two-pass formulas.
        #[test]
        fn prop_welford_matches_naive(xs in proptest::collection::vec(-1e3f64..1e3, 1..100)) {
            let s: RunningStat = xs.iter().copied().collect();
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
            prop_assert!((s.mean() - mean).abs() < 1e-6);
            prop_assert!((s.population_std_dev() - var.sqrt()).abs() < 1e-6);
        }

        /// Time-weighted average lies within the range of the fed values.
        #[test]
        fn prop_tw_average_bounded(vals in proptest::collection::vec(0.0f64..10.0, 1..50)) {
            let mut tw = TimeWeighted::new(SimTime::ZERO, vals[0]);
            let mut t = 0u64;
            for &v in &vals[1..] {
                t += 1_000;
                tw.set(SimTime::from_nanos(t), v);
            }
            t += 1_000;
            let avg = tw.average(SimTime::from_nanos(t));
            let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(avg >= lo - 1e-9 && avg <= hi + 1e-9);
        }
    }
}
