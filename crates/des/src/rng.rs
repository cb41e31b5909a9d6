//! Seeded random-number helper wrapping `rand`'s small fast generator.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A deterministic random-number source for simulations and workload
/// generation.
///
/// `SimRng` wraps [`rand::rngs::SmallRng`] seeded from a `u64`, and adds the
/// few sampling helpers the reproduction needs (uniform ranges, Bernoulli
/// draws, exponential inter-arrival times, choice from a slice). Two `SimRng`
/// values built from the same seed produce identical streams.
///
/// # Example
///
/// ```
/// use paragon_des::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.uniform_u64(0..100), b.uniform_u64(0..100));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
    seed: u64,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(seed),
            seed,
        }
    }

    /// Returns the seed this generator was created with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child generator; child `i` of a given parent is
    /// deterministic in `(parent seed, i)`.
    ///
    /// Used to give each experiment replication its own stream.
    #[must_use]
    pub fn child(&self, index: u64) -> SimRng {
        // SplitMix64-style mix keeps children decorrelated even for
        // consecutive indices.
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index.wrapping_add(1)));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        SimRng::seed_from(z ^ (z >> 31))
    }

    /// Samples a `u64` uniformly from `range` (half-open).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn uniform_u64(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range in uniform_u64");
        self.inner.gen_range(range)
    }

    /// Samples a `usize` uniformly from `range` (half-open).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn uniform_usize(&mut self, range: std::ops::Range<usize>) -> usize {
        assert!(range.start < range.end, "empty range in uniform_usize");
        self.inner.gen_range(range)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.inner.gen::<f64>() < p
    }

    /// Samples an exponentially distributed value with the given `mean`
    /// (inverse rate). Useful for Poisson arrival processes.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not finite and positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be positive, got {mean}"
        );
        // Inverse-CDF sampling; (1 - u) avoids ln(0).
        let u: f64 = self.inner.gen();
        -mean * (1.0 - u).ln()
    }

    /// Picks a uniformly random element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose requires a non-empty slice");
        &items[self.inner.gen_range(0..items.len())]
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.uniform_u64(0..1_000_000), b.uniform_u64(0..1_000_000));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..32).filter(|_| a.uniform_u64(0..u64::MAX) == b.uniform_u64(0..u64::MAX));
        assert_eq!(same.count(), 0);
    }

    #[test]
    fn children_are_deterministic_and_distinct() {
        let parent = SimRng::seed_from(99);
        let mut c0 = parent.child(0);
        let mut c0b = parent.child(0);
        let mut c1 = parent.child(1);
        let x0 = c0.uniform_u64(0..u64::MAX);
        assert_eq!(x0, c0b.uniform_u64(0..u64::MAX));
        assert_ne!(x0, c1.uniform_u64(0..u64::MAX));
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = SimRng::seed_from(3);
        assert!(!r.bernoulli(0.0));
        assert!(r.bernoulli(1.0));
    }

    #[test]
    fn bernoulli_frequency_close_to_p() {
        let mut r = SimRng::seed_from(5);
        let hits = (0..10_000).filter(|_| r.bernoulli(0.3)).count();
        let freq = hits as f64 / 10_000.0;
        assert!((freq - 0.3).abs() < 0.02, "freq {freq} too far from 0.3");
    }

    #[test]
    fn exponential_mean_close() {
        let mut r = SimRng::seed_from(11);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| r.exponential(5.0)).sum();
        let mean = total / n as f64;
        assert!(
            (mean - 5.0).abs() < 0.2,
            "sample mean {mean} too far from 5"
        );
    }

    #[test]
    fn uniform_range_respected() {
        let mut r = SimRng::seed_from(13);
        for _ in 0..1_000 {
            let x = r.uniform_u64(10..20);
            assert!((10..20).contains(&x));
            let y = r.uniform_usize(0..3);
            assert!(y < 3);
        }
    }

    #[test]
    fn choose_and_shuffle() {
        let mut r = SimRng::seed_from(17);
        let items = [1, 2, 3, 4];
        for _ in 0..50 {
            assert!(items.contains(r.choose(&items)));
        }
        let mut v: Vec<u32> = (0..32).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..32).collect::<Vec<_>>(),
            "shuffle left input unchanged"
        );
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut r = SimRng::seed_from(1);
        let _ = r.uniform_u64(5..5);
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn bad_probability_panics() {
        let mut r = SimRng::seed_from(1);
        let _ = r.bernoulli(1.5);
    }
}
