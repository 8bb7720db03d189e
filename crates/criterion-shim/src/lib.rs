#![forbid(unsafe_code)]

//! Offline stand-in for the [`criterion`](https://crates.io/crates/criterion)
//! benchmark harness.
//!
//! Implements the subset of the 0.5 API used by `reveal-bench`:
//! [`Criterion::bench_function`], [`BenchmarkGroup::bench_with_input`],
//! [`Criterion::benchmark_group`], [`BenchmarkId`], [`black_box`] and the
//! [`criterion_group!`]/[`criterion_main!`] macros.
//!
//! Instead of criterion's statistical pipeline, each benchmark is warmed up
//! briefly and then timed over an adaptive number of iterations; the median
//! per-iteration wall time is printed. Good enough for relative comparisons
//! in an offline container, and it keeps `cargo bench` runnable.

use std::fmt;
use std::time::{Duration, Instant};

/// Opaque-to-the-optimizer identity, re-exported for bench code.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// A benchmark identifier composed of a function name and a parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// Builds `name/param`.
    pub fn new(name: impl fmt::Display, param: impl fmt::Display) -> Self {
        BenchmarkId {
            name: format!("{name}/{param}"),
        }
    }

    /// Builds an id from a parameter alone.
    pub fn from_parameter(param: impl fmt::Display) -> Self {
        BenchmarkId {
            name: param.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

/// Times one closure; see [`Bencher::iter`].
#[derive(Debug, Default)]
pub struct Bencher {
    elapsed: Option<Duration>,
    iters: u64,
}

impl Bencher {
    /// Runs `f` repeatedly and records the median per-iteration time.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up and calibration: aim for ~20 ms of measured work.
        let start = Instant::now();
        black_box(f());
        let once = start.elapsed().max(Duration::from_nanos(50));
        let target = Duration::from_millis(20);
        let iters = (target.as_nanos() / once.as_nanos()).clamp(1, 100_000) as u64;
        let mut samples = Vec::with_capacity(5);
        for _ in 0..5 {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            samples.push(start.elapsed() / iters as u32);
        }
        samples.sort_unstable();
        self.elapsed = Some(samples[samples.len() / 2]);
        self.iters = iters;
    }
}

fn report(label: &str, bencher: &Bencher) {
    match bencher.elapsed {
        Some(t) => println!(
            "bench: {label:<48} {t:>12.2?}/iter  ({} iters)",
            bencher.iters
        ),
        None => println!("bench: {label:<48} (no measurement)"),
    }
}

/// The top-level harness handle passed to benchmark functions.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Benchmarks `f` under `id`.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher::default();
        f(&mut b);
        report(id, &b);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _parent: self,
            name: name.to_string(),
        }
    }
}

/// A named group of benchmarks.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Benchmarks `f` under `group/id`.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher::default();
        f(&mut b);
        report(&format!("{}/{}", self.name, id), &b);
        self
    }

    /// Benchmarks `f` with an input value under `group/id`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher::default();
        f(&mut b, input);
        report(&format!("{}/{}", self.name, id), &b);
        self
    }

    /// Accepted for API compatibility; the shim sizes runs adaptively.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted for API compatibility.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Declares a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the benchmark entry point.
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
    fn bencher_measures_something() {
        let mut b = Bencher::default();
        b.iter(|| black_box(3u64).wrapping_mul(7));
        assert!(b.elapsed.is_some());
        assert!(b.iters >= 1);
    }

    #[test]
    fn group_api_compiles_and_runs() {
        let mut c = Criterion::default();
        c.bench_function("direct", |b| b.iter(|| black_box(1 + 1)));
        let mut group = c.benchmark_group("group");
        group.sample_size(10);
        group.bench_function("inner", |b| b.iter(|| black_box(2 * 2)));
        group.bench_with_input(BenchmarkId::new("param", 4), &4u32, |b, &n| {
            b.iter(|| black_box(n).wrapping_add(1))
        });
        group.finish();
    }
}
