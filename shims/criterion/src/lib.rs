//! Offline stand-in for `criterion`.
//!
//! The build environment has no crate registry, so this local path
//! dependency keeps the workspace's `[[bench]]` targets compiling and
//! runnable: each benchmark closure is timed over a handful of
//! iterations and the mean wall-clock time is printed. There is no
//! statistics engine, warm-up modelling, or HTML report — for paper-grade
//! numbers use the `wd-bench` scenarios (which report *simulated*
//! device time, the metric that actually reproduces the paper's figures).

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Opaque-to-the-optimizer value passthrough.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Throughput annotation for a benchmark group.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Identifier of a parameterised benchmark.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `function_name/parameter` form.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            label: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// Parameter-only form.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label)
    }
}

/// Timing driver handed to benchmark closures.
pub struct Bencher {
    samples: usize,
    elapsed: Duration,
    iters: u64,
}

impl Bencher {
    /// Times `routine`, accumulating into the bencher.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        for _ in 0..self.samples {
            let start = Instant::now();
            let out = routine();
            self.elapsed += start.elapsed();
            self.iters += 1;
            drop(black_box(out));
        }
    }
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    samples: usize,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the per-benchmark sample count.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(1);
        self
    }

    /// Records the group's throughput annotation (printed only).
    pub fn throughput(&mut self, _t: Throughput) -> &mut Self {
        self
    }

    fn run_one(&mut self, label: &str, mut f: impl FnMut(&mut Bencher)) {
        let mut b = Bencher {
            samples: self.samples,
            elapsed: Duration::ZERO,
            iters: 0,
        };
        f(&mut b);
        let mean = if b.iters == 0 {
            Duration::ZERO
        } else {
            b.elapsed / u32::try_from(b.iters).unwrap_or(u32::MAX)
        };
        println!("bench {}/{label}: {mean:?}/iter ({} iters)", self.name, b.iters);
    }

    /// Runs a benchmark by name.
    pub fn bench_function(
        &mut self,
        id: impl Display,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let label = id.to_string();
        self.run_one(&label, f);
        self
    }

    /// Runs a parameterised benchmark.
    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let label = id.to_string();
        self.run_one(&label, |b| f(b, input));
        self
    }

    /// Ends the group (no-op; kept for API parity).
    pub fn finish(&mut self) {}
}

/// Top-level benchmark harness.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            samples: 10,
            _parent: self,
        }
    }

    /// Runs a standalone benchmark.
    pub fn bench_function(
        &mut self,
        name: impl Into<String>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let name = name.into();
        self.benchmark_group(name.clone()).run_one("base", f);
        self
    }
}

/// Declares a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares the benchmark `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        let mut g = c.benchmark_group("smoke");
        g.sample_size(3);
        g.throughput(Throughput::Elements(8));
        g.bench_function("sum", |b| b.iter(|| (0u64..8).sum::<u64>()));
        g.bench_with_input(BenchmarkId::new("shift", 4), &4u32, |b, &p| {
            b.iter(|| black_box(1u64 << p))
        });
        g.finish();
    }

    criterion_group!(benches, sample_bench);

    #[test]
    fn harness_runs() {
        benches();
    }
}
