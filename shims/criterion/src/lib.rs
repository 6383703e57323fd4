//! Offline stand-in for the `criterion` benchmark harness.
//!
//! The build environment has no network access, so the real `criterion`
//! cannot be downloaded. This shim implements the API subset the
//! workspace's benches use — `criterion_group!`/`criterion_main!`,
//! `Criterion::benchmark_group`, `bench_function`, `bench_with_input`,
//! `Throughput`, `BenchmarkId`, `black_box`, and `Bencher::iter` — with a
//! simple wall-clock measurement loop instead of criterion's statistical
//! machinery.
//!
//! Under `cargo test` each benchmark body runs exactly once so the suite
//! stays fast while still smoke-testing every bench. Cargo passes
//! `--bench` to a `harness = false` bench executable under `cargo bench`
//! and nothing under `cargo test`, so a run without `--bench` (or with
//! criterion's `--test`) is a test run.

use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimizer from deleting the
/// benchmarked computation.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Reported throughput unit for a benchmark group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A parameterized benchmark identifier (`function_name/parameter`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Builds `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        Self {
            id: format!("{}/{}", name.into(), parameter),
        }
    }

    /// Builds a parameter-only id.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// Measurement driver handed to each benchmark closure.
pub struct Bencher {
    test_mode: bool,
    sample_size: usize,
    /// Mean nanoseconds per iteration of the last `iter` call.
    last_mean_ns: f64,
}

impl Bencher {
    /// Times `f`, storing the mean time per call. In test mode `f` runs
    /// exactly once.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        if self.test_mode {
            black_box(f());
            self.last_mean_ns = 0.0;
            return;
        }
        // Warm-up: also calibrates how many calls fit the time budget.
        let warm_start = Instant::now();
        black_box(f());
        let one = warm_start.elapsed().max(Duration::from_nanos(1));
        let budget = Duration::from_millis(300);
        let per_sample = ((budget.as_nanos() / one.as_nanos()).max(1) as usize)
            .min(self.sample_size.max(1) * 100);
        let start = Instant::now();
        for _ in 0..per_sample {
            black_box(f());
        }
        self.last_mean_ns = start.elapsed().as_nanos() as f64 / per_sample as f64;
    }
}

/// `hamlet_bench::report::measuring`, inverted; keep the two alike.
fn is_test_mode() -> bool {
    let args: Vec<String> = std::env::args().collect();
    !args.iter().any(|a| a == "--bench") || args.iter().any(|a| a == "--test")
}

fn run_one(group: Option<&str>, id: &str, sample_size: usize, f: &mut dyn FnMut(&mut Bencher)) {
    let full = match group {
        Some(g) => format!("{g}/{id}"),
        None => id.to_string(),
    };
    let mut b = Bencher {
        test_mode: is_test_mode(),
        sample_size,
        last_mean_ns: 0.0,
    };
    f(&mut b);
    if b.test_mode {
        println!("bench {full}: ok (test mode)");
    } else if b.last_mean_ns >= 1_000_000.0 {
        println!("bench {full}: {:.3} ms/iter", b.last_mean_ns / 1_000_000.0);
    } else if b.last_mean_ns >= 1_000.0 {
        println!("bench {full}: {:.3} us/iter", b.last_mean_ns / 1_000.0);
    } else {
        println!("bench {full}: {:.0} ns/iter", b.last_mean_ns);
    }
}

/// Top-level benchmark driver (a drastically simplified `Criterion`).
#[derive(Debug, Default)]
pub struct Criterion {
    sample_size: usize,
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _parent: self,
            name: name.into(),
            sample_size: 10,
        }
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        run_one(None, id, self.sample_size.max(10), &mut f);
        self
    }

    /// Sets the sample-size hint.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }
}

/// A group of related benchmarks sharing throughput/sample settings.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Records the group's throughput unit (informational in this shim).
    pub fn throughput(&mut self, _t: Throughput) -> &mut Self {
        self
    }

    /// Sets the sample-size hint for subsequent benchmarks.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Runs one benchmark in this group.
    pub fn bench_function<I: std::fmt::Display, F: FnMut(&mut Bencher)>(
        &mut self,
        id: I,
        mut f: F,
    ) -> &mut Self {
        run_one(Some(&self.name), &id.to_string(), self.sample_size, &mut f);
        self
    }

    /// Runs one parameterized benchmark in this group.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        run_one(
            Some(&self.name),
            &id.to_string(),
            self.sample_size,
            &mut |b| f(b, input),
        );
        self
    }

    /// Closes the group.
    pub fn finish(&mut self) {}
}

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the bench executable's `main`, mirroring criterion's macro.
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
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("join", 10).to_string(), "join/10");
        assert_eq!(BenchmarkId::from_parameter("x").to_string(), "x");
    }

    #[test]
    fn group_runs_benches() {
        let mut c = Criterion::default();
        let mut ran = 0usize;
        {
            let mut g = c.benchmark_group("g");
            g.throughput(Throughput::Elements(1)).sample_size(10);
            g.bench_function("one", |b| b.iter(|| ran += 1));
            g.finish();
        }
        assert!(ran > 0);
    }

    #[test]
    fn bench_with_input_passes_input() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        let input = 41u32;
        let mut seen = 0u32;
        g.bench_with_input(BenchmarkId::new("in", 41), &input, |b, &i| {
            b.iter(|| seen = i + 1)
        });
        assert_eq!(seen, 42);
    }
}
