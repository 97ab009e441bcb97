//! Minimal measured-median benchmark harness.
//!
//! The container this reproduction builds in has no network access, so
//! Criterion cannot be fetched; the four `benches/*.rs` targets
//! (`harness = false`) use this module instead. It keeps the properties
//! that matter for kernel timing — warmup before measurement, many
//! samples, a robust (median) statistic, and a `black_box` to defeat
//! dead-code elimination — and drops the statistical machinery we do not
//! need for coarse speedup comparisons.
//!
//! Every sample runs the closure once; `BENCH_FAST=1` in the environment
//! caps samples at 3 for a quick smoke pass (used by CI).

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// One benchmark group printing aligned results.
pub struct Bench {
    group: String,
    fast: bool,
}

/// Result of a single measured benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Median wall-clock time per iteration.
    pub median: Duration,
    /// Minimum observed time per iteration.
    pub min: Duration,
    /// Lower and upper quartile of the per-iteration times.
    pub q1: Duration,
    pub q3: Duration,
    /// Samples measured.
    pub samples: usize,
}

impl Measurement {
    /// Median time in seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.median.as_secs_f64()
    }
}

impl Bench {
    /// Starts a named group (prints a banner).
    #[must_use]
    pub fn group(name: &str) -> Self {
        println!("\n== bench group: {name}");
        Self {
            group: name.to_string(),
            fast: std::env::var_os("BENCH_FAST").is_some(),
        }
    }

    /// Measures `f`, printing and returning the median per-iteration time.
    ///
    /// Warms up for ~3 iterations (capped at 1 s), then takes up to
    /// `samples` timed runs (capped at 3 when `BENCH_FAST` is set).
    pub fn run<T>(&self, name: &str, samples: usize, mut f: impl FnMut() -> T) -> Measurement {
        self.run_with_setup(name, samples, || (), |()| f())
    }

    /// [`Bench::run`] with an untimed `setup` before every run of `f`,
    /// which consumes its output: times a step that needs fresh state.
    /// The value `f` returns is dropped after the clock stops.
    pub fn run_with_setup<S, T>(
        &self,
        name: &str,
        samples: usize,
        mut setup: impl FnMut() -> S,
        mut f: impl FnMut(S) -> T,
    ) -> Measurement {
        let samples = if self.fast {
            samples.min(3)
        } else {
            samples.max(1)
        };
        // Warmup: run until ~1 s or 3 iterations, whichever first.
        let warm_start = Instant::now();
        for _ in 0..3 {
            black_box(f(setup()));
            if warm_start.elapsed() > Duration::from_secs(1) {
                break;
            }
        }
        let mut times = Vec::with_capacity(samples);
        for _ in 0..samples {
            let state = setup();
            let t0 = Instant::now();
            let out = black_box(f(state));
            times.push(t0.elapsed());
            drop(out);
        }
        times.sort_unstable();
        let m = Measurement {
            median: times[times.len() / 2],
            min: times[0],
            q1: times[times.len() / 4],
            q3: times[times.len() * 3 / 4],
            samples,
        };
        println!(
            "  {:<44} median {:>12.3?}  min {:>12.3?}  ({} samples)",
            format!("{}/{}", self.group, name),
            m.median,
            m.min,
            m.samples
        );
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let b = Bench::group("selftest");
        let m = b.run("spin", 3, || {
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc = acc.wrapping_add(black_box(i));
            }
            acc
        });
        assert!(m.median > Duration::ZERO);
        assert!(m.min <= m.q1 && m.q1 <= m.median && m.median <= m.q3);
        assert_eq!(m.samples, 3);
    }
}
