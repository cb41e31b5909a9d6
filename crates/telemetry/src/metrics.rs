//! A dependency-light metrics registry: named counters, gauges, and
//! log-linear histograms with bounded-relative-error quantiles.
//!
//! The histogram buckets magnitudes log-linearly: each power of two is
//! split into [`SUBBUCKETS`] equal linear sub-buckets, so any recorded
//! value lands in a bucket whose width is at most `1/SUBBUCKETS` of its
//! magnitude. Quantile estimates are therefore within one bucket's
//! relative error (`1/SUBBUCKETS`, ~6.25%) of the exact order statistic.
//! Negative values (slack and lateness are signed) get a mirrored set of
//! buckets.

use std::collections::BTreeMap;

use serde::Serialize;

/// Linear sub-buckets per power of two; bounds the relative quantile error.
pub const SUBBUCKETS: u64 = 16;

/// Bucket index of a non-negative magnitude, monotone in the magnitude.
fn bucket_of(magnitude: u64) -> usize {
    if magnitude < SUBBUCKETS {
        // The first SUBBUCKETS values are exact.
        return magnitude as usize;
    }
    // For v in [2^e, 2^(e+1)), e >= log2(SUBBUCKETS): sub-bucket width
    // 2^e / SUBBUCKETS, giving SUBBUCKETS buckets per octave.
    let exp = 63 - magnitude.leading_zeros() as u64;
    let width_shift = exp.saturating_sub(SUBBUCKETS.trailing_zeros() as u64);
    let offset = (magnitude >> width_shift) - SUBBUCKETS;
    let base = (exp - SUBBUCKETS.trailing_zeros() as u64) * SUBBUCKETS + SUBBUCKETS;
    (base + offset) as usize
}

/// Lowest magnitude mapping to `bucket` (the inverse of [`bucket_of`]).
fn bucket_floor(bucket: usize) -> u64 {
    let bucket = bucket as u64;
    if bucket < SUBBUCKETS {
        return bucket;
    }
    let octave = (bucket - SUBBUCKETS) / SUBBUCKETS;
    let offset = (bucket - SUBBUCKETS) % SUBBUCKETS;
    (SUBBUCKETS + offset) << octave
}

/// A log-linear histogram of signed integer samples.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Counts of positive (and zero) magnitudes, indexed by bucket.
    positive: Vec<u64>,
    /// Counts of negative magnitudes, indexed by bucket of `-value`.
    negative: Vec<u64>,
    count: u64,
    sum: i128,
    min: i64,
    max: i64,
}

// Not derived: the min/max trackers start at their opposite extremes, and a
// derived all-zeroes Default would silently clamp every min to <= 0.
impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            positive: Vec::new(),
            negative: Vec::new(),
            count: 0,
            sum: 0,
            min: i64::MAX,
            max: i64::MIN,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: i64) {
        let (side, magnitude) = if value < 0 {
            (&mut self.negative, value.unsigned_abs())
        } else {
            (&mut self.positive, value as u64)
        };
        let bucket = bucket_of(magnitude);
        if side.len() <= bucket {
            side.resize(bucket + 1, 0);
        }
        side[bucket] += 1;
        self.count += 1;
        self.sum += i128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample; `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<i64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample; `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<i64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of the recorded samples; `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The `q`-quantile (`q` in `[0, 1]`) as a bucket-resolution estimate:
    /// the lower bound of the bucket holding the order statistic, clamped
    /// to the observed min/max. `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<i64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.count == 0 {
            return None;
        }
        // Rank of the order statistic (1-based, nearest-rank definition).
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        // Walk from the most negative bucket upward.
        for (bucket, &n) in self.negative.iter().enumerate().rev() {
            seen += n;
            if seen >= rank {
                let floor = bucket_floor(bucket);
                return Some((-(floor as i128)).clamp(self.min.into(), self.max.into()) as i64);
            }
        }
        for (bucket, &n) in self.positive.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let floor = bucket_floor(bucket);
                return Some((floor as i128).clamp(self.min.into(), self.max.into()) as i64);
            }
        }
        Some(self.max)
    }

    /// Median estimate.
    #[must_use]
    pub fn p50(&self) -> Option<i64> {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    #[must_use]
    pub fn p90(&self) -> Option<i64> {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    #[must_use]
    pub fn p99(&self) -> Option<i64> {
        self.quantile(0.99)
    }

    /// A serializable summary of this histogram.
    #[must_use]
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            p50: self.p50(),
            p90: self.p90(),
            p99: self.p99(),
        }
    }
}

/// The JSON-facing digest of one histogram.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Smallest sample.
    pub min: Option<i64>,
    /// Largest sample.
    pub max: Option<i64>,
    /// Arithmetic mean.
    pub mean: Option<f64>,
    /// Median estimate.
    pub p50: Option<i64>,
    /// 90th-percentile estimate.
    pub p90: Option<i64>,
    /// 99th-percentile estimate.
    pub p99: Option<i64>,
}

/// Applies `f` to the entry of `map` under `name`, inserted at its default
/// if absent. The name is copied into a `String` key on first insert only,
/// so updating a metric that already exists allocates nothing.
fn update<V: Default>(map: &mut BTreeMap<String, V>, name: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(v) => f(v),
        None => f(map.entry(name.to_string()).or_default()),
    }
}

/// Named counters, gauges and histograms for one run.
///
/// Names are free-form dotted strings (`"task.lateness_us"`); both
/// algorithms under comparison must use the same names so result files stay
/// join-able across runs.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to the named counter (creating it at zero).
    pub fn inc(&mut self, name: &str, by: u64) {
        update(&mut self.counters, name, |c| *c += by);
    }

    /// Sets the named gauge.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        update(&mut self.gauges, name, |g| *g = value);
    }

    /// Records a sample into the named histogram (creating it if needed).
    pub fn record(&mut self, name: &str, value: i64) {
        update(&mut self.histograms, name, |h| h.record(value));
    }

    /// The named counter's value (zero if never incremented).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named gauge's value, if set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if any sample was recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// A serializable snapshot of everything recorded so far.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.summary()))
                .collect(),
        }
    }

    /// The snapshot rendered as pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.snapshot()).expect("metrics snapshot serializes")
    }
}

/// The JSON-facing image of a [`MetricsRegistry`].
#[derive(Debug, Clone, Serialize)]
pub struct MetricsSnapshot {
    /// Monotone event counts.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins point values.
    pub gauges: BTreeMap<String, f64>,
    /// Distribution digests.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_invertible() {
        let mut last = 0usize;
        for v in 0..100_000u64 {
            let b = bucket_of(v);
            assert!(b >= last, "bucket_of must be monotone at {v}");
            last = b;
            let floor = bucket_floor(b);
            assert!(floor <= v, "floor {floor} must not exceed {v}");
            // Bucket width bounds the error: floor is within 1/SUBBUCKETS.
            assert!(
                v - floor <= v / SUBBUCKETS,
                "value {v} floor {floor} too far"
            );
        }
    }

    #[test]
    fn quantiles_track_exact_order_statistics() {
        // Bucket resolution: estimates within one bucket (1/SUBBUCKETS
        // relative error) of the exact sorted-slice computation.
        let mut h = Histogram::new();
        let mut exact: Vec<i64> = Vec::new();
        // A deterministic spread over five orders of magnitude, signed.
        let mut x: i64 = 1;
        for i in 0..4_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
            let v = (x % 1_000_000).abs() * if i % 3 == 0 { -1 } else { 1 };
            h.record(v);
            exact.push(v);
        }
        exact.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let truth = exact[rank - 1];
            let est = h.quantile(q).unwrap();
            let tolerance = (truth.abs() / SUBBUCKETS as i64).max(1);
            assert!(
                (est - truth).abs() <= tolerance,
                "q={q}: estimate {est} vs exact {truth} (tolerance {tolerance})"
            );
        }
    }

    #[test]
    fn empty_histogram_has_no_statistics() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.p50(), None);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut h = Histogram::new();
        h.record(-42);
        assert_eq!(h.p50(), Some(-42));
        assert_eq!(h.p99(), Some(-42));
        assert_eq!(h.min(), Some(-42));
        assert_eq!(h.max(), Some(-42));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn out_of_range_quantile_panics() {
        let h = Histogram::new();
        let _ = h.quantile(1.5);
    }

    #[test]
    fn registry_collects_and_serializes() {
        let mut r = MetricsRegistry::new();
        r.inc("task.dropped_at_start", 2);
        r.inc("task.dropped_at_start", 1);
        r.set_gauge("sim.finished_at_us", 5_000.0);
        for v in [10, 20, 30] {
            r.record("task.lateness_us", v);
        }
        assert_eq!(r.counter("task.dropped_at_start"), 3);
        assert_eq!(r.counter("never.touched"), 0);
        assert_eq!(r.gauge("sim.finished_at_us"), Some(5_000.0));
        assert_eq!(r.histogram("task.lateness_us").unwrap().count(), 3);
        // Registry-created histograms (via Default) must track extremes
        // exactly like Histogram::new(): min is 10, not a clamped 0.
        assert_eq!(r.histogram("task.lateness_us").unwrap().min(), Some(10));
        assert_eq!(r.histogram("task.lateness_us").unwrap().max(), Some(30));
        let json = r.to_json();
        assert!(json.contains("\"task.lateness_us\""));
        assert!(json.contains("\"p99\""));
        // The JSON parses back.
        let v = serde_json::from_str::<serde::Value>(&json).unwrap();
        assert!(v.get("histograms").is_some());
    }
}
