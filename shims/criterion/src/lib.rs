//! Offline stand-in for `criterion`.
//!
//! A minimal wall-clock harness exposing the API shape the workspace's
//! benches use (`benchmark_group`, `sample_size`, `throughput`,
//! `bench_function`, `bench_with_input`, `criterion_group!`,
//! `criterion_main!`). Each sample times a batch of iterations with
//! `std::time::Instant`; median and min per-iteration times are printed to
//! stdout. No statistical analysis, plots, or baselines.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Throughput annotation for a benchmark group.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A benchmark identifier (`function name` / `parameter` pair).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id with a function name and a parameter rendering.
    pub fn new(function: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{function}/{parameter}"),
        }
    }
}

/// Anything usable as a benchmark id.
pub trait IntoBenchmarkId {
    /// The rendered id.
    fn into_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_id(self) -> String {
        self.id
    }
}

impl IntoBenchmarkId for &str {
    fn into_id(self) -> String {
        self.to_owned()
    }
}

impl IntoBenchmarkId for String {
    fn into_id(self) -> String {
        self
    }
}

/// Passed to benchmark closures; runs and times the measured routine.
pub struct Bencher {
    samples: usize,
    test_mode: bool,
    /// Per-iteration times of the collected samples.
    results: Vec<Duration>,
}

impl Bencher {
    /// Times `routine`, collecting the configured number of samples.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        if self.test_mode {
            // `--test`: run the routine once to check it works, skip timing.
            self.results.clear();
            let start = Instant::now();
            black_box(routine());
            self.results.push(start.elapsed());
            return;
        }
        // Warm-up and batch sizing: aim for ~5ms per sample, at least 1 iter.
        let warm = Instant::now();
        black_box(routine());
        let once = warm.elapsed();
        let batch = if once < Duration::from_micros(50) {
            (Duration::from_millis(5).as_nanos() / once.as_nanos().max(1)).clamp(1, 100_000) as u32
        } else {
            1
        };
        self.results.clear();
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            self.results.push(start.elapsed() / batch);
        }
    }

    fn summary(&self) -> Option<(Duration, Duration)> {
        if self.results.is_empty() {
            return None;
        }
        let mut sorted = self.results.clone();
        sorted.sort();
        Some((sorted[sorted.len() / 2], sorted[0]))
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    test_mode: bool,
    throughput: Option<Throughput>,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Annotates per-iteration throughput.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs a benchmark taking only a `Bencher`.
    pub fn bench_function<I: IntoBenchmarkId, F: FnMut(&mut Bencher)>(
        &mut self,
        id: I,
        mut f: F,
    ) -> &mut Self {
        let mut bencher = Bencher {
            samples: self.sample_size,
            test_mode: self.test_mode,
            results: Vec::new(),
        };
        f(&mut bencher);
        self.report(&id.into_id(), &bencher);
        self
    }

    /// Runs a benchmark parameterized by `input`.
    pub fn bench_with_input<I: IntoBenchmarkId, T: ?Sized, F: FnMut(&mut Bencher, &T)>(
        &mut self,
        id: I,
        input: &T,
        mut f: F,
    ) -> &mut Self {
        let mut bencher = Bencher {
            samples: self.sample_size,
            test_mode: self.test_mode,
            results: Vec::new(),
        };
        f(&mut bencher, input);
        self.report(&id.into_id(), &bencher);
        self
    }

    fn report(&self, id: &str, bencher: &Bencher) {
        let Some((median, min)) = bencher.summary() else {
            println!("{}/{id}: no samples collected", self.name);
            return;
        };
        let rate = match self.throughput {
            Some(Throughput::Elements(n)) if median.as_nanos() > 0 => {
                let per_sec = n as f64 / median.as_secs_f64();
                format!("  {per_sec:.0} elem/s")
            }
            Some(Throughput::Bytes(n)) if median.as_nanos() > 0 => {
                let per_sec = n as f64 / median.as_secs_f64();
                format!("  {per_sec:.0} B/s")
            }
            _ => String::new(),
        };
        println!("{}/{id}: median {median:?}  min {min:?}{rate}", self.name);
    }

    /// Finishes the group (printing happens per-benchmark).
    pub fn finish(self) {}
}

/// Top-level benchmark driver.
#[derive(Debug)]
pub struct Criterion {
    test_mode: bool,
}

impl Default for Criterion {
    /// Honors `cargo bench -- --test` like real criterion: each benchmark
    /// routine runs exactly once, untimed, as a smoke test.
    fn default() -> Self {
        Criterion {
            test_mode: std::env::args().any(|a| a == "--test"),
        }
    }
}

impl Criterion {
    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
            test_mode: self.test_mode,
            throughput: None,
            _parent: self,
        }
    }

    /// Runs a stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        let mut group = self.benchmark_group("bench");
        group.bench_function(id, f);
        group.finish();
        self
    }
}

/// Declares a group-runner function, as real criterion does.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main`, invoking each listed group function.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_and_benches_run() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("demo");
        group.sample_size(3);
        group.throughput(Throughput::Elements(100));
        let mut runs = 0u64;
        group.bench_function(BenchmarkId::new("sum", 100), |b| {
            b.iter(|| {
                runs += 1;
                (0..100u64).sum::<u64>()
            })
        });
        group.bench_with_input(BenchmarkId::new("sq", 7), &7u64, |b, &x| b.iter(|| x * x));
        group.finish();
        assert!(runs > 0);
    }
}
