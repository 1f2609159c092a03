//! Offline drop-in subset of `criterion` 0.5.
//!
//! Implements the surface the workspace benches use — `Criterion`,
//! `benchmark_group`/`bench_function`/`bench_with_input`, `BenchmarkId`,
//! `sample_size`, `Bencher::iter`, and the `criterion_group!`/
//! `criterion_main!` macros (struct form included) — with a simple
//! wall-clock measurement loop. The harness honours the CLI contract
//! `cargo bench` relies on: `--test` runs every benchmark exactly once
//! (smoke mode), `--bench`/flag arguments are ignored, and any bare
//! argument acts as a substring filter on benchmark names.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

const DEFAULT_SAMPLE_SIZE: usize = 100;
// Per-sample measurement budget; total time per bench is roughly
// sample_size * TARGET_SAMPLE_TIME, capped by MAX_TIME_PER_BENCH below.
const TARGET_SAMPLE_TIME: Duration = Duration::from_millis(20);
const MAX_TIME_PER_BENCH: Duration = Duration::from_secs(5);

#[derive(Clone)]
struct Config {
    sample_size: usize,
    test_mode: bool,
    filters: Vec<String>,
}

impl Config {
    fn from_args() -> (bool, Vec<String>) {
        let mut test_mode = false;
        let mut filters = Vec::new();
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--test" => test_mode = true,
                s if s.starts_with('-') => {} // --bench, --noplot, etc.
                s => filters.push(s.to_string()),
            }
        }
        (test_mode, filters)
    }

    fn matches(&self, name: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| name.contains(f.as_str()))
    }
}

pub struct Criterion {
    config: Config,
}

impl Default for Criterion {
    fn default() -> Self {
        let (test_mode, filters) = Config::from_args();
        Criterion {
            config: Config {
                sample_size: DEFAULT_SAMPLE_SIZE,
                test_mode,
                filters,
            },
        }
    }
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Self {
        self.config.sample_size = n.max(1);
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            config: self.config.clone(),
            _marker: std::marker::PhantomData,
        }
    }

    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&id.into_benchmark_id().full_name(), &self.config, |b| f(b));
        self
    }
}

pub struct BenchmarkGroup<'a> {
    name: String,
    config: Config,
    _marker: std::marker::PhantomData<&'a mut Criterion>,
}

impl<'a> BenchmarkGroup<'a> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.config.sample_size = n.max(1);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into_benchmark_id().full_name());
        run_benchmark(&full, &self.config, |b| f(b));
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.into_benchmark_id().full_name());
        run_benchmark(&full, &self.config, |b| f(b, input));
        self
    }

    pub fn finish(self) {}
}

pub struct BenchmarkId {
    function: String,
    parameter: Option<String>,
}

impl BenchmarkId {
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            function: function.into(),
            parameter: Some(parameter.to_string()),
        }
    }

    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            function: String::new(),
            parameter: Some(parameter.to_string()),
        }
    }

    fn full_name(&self) -> String {
        match &self.parameter {
            Some(p) if self.function.is_empty() => p.clone(),
            Some(p) => format!("{}/{}", self.function, p),
            None => self.function.clone(),
        }
    }
}

pub trait IntoBenchmarkId {
    fn into_benchmark_id(self) -> BenchmarkId;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> BenchmarkId {
        self
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId {
            function: self.to_string(),
            parameter: None,
        }
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId {
            function: self,
            parameter: None,
        }
    }
}

impl IntoBenchmarkId for &String {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId {
            function: self.clone(),
            parameter: None,
        }
    }
}

pub struct Bencher {
    test_mode: bool,
    /// Mean nanoseconds per iteration measured by the last `iter` call.
    ns_per_iter: f64,
    samples_wanted: u64,
}

impl Bencher {
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        if self.test_mode {
            black_box(f());
            self.ns_per_iter = 0.0;
            return;
        }
        // Warm-up + calibration: find an iteration count that fills the
        // per-sample budget, so cheap closures aren't dominated by clock
        // reads.
        let mut iters_per_sample: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= TARGET_SAMPLE_TIME || iters_per_sample >= 1 << 30 {
                break;
            }
            let scale = if elapsed.is_zero() {
                100
            } else {
                (TARGET_SAMPLE_TIME.as_nanos() / elapsed.as_nanos().max(1) + 1) as u64
            };
            iters_per_sample = iters_per_sample.saturating_mul(scale.clamp(2, 100));
        }

        let bench_start = Instant::now();
        let mut total_iters: u64 = 0;
        let mut total_time = Duration::ZERO;
        let mut samples: u64 = 0;
        while samples < self.samples_wanted && bench_start.elapsed() < MAX_TIME_PER_BENCH {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            total_time += start.elapsed();
            total_iters += iters_per_sample;
            samples += 1;
        }
        self.ns_per_iter = if total_iters == 0 {
            0.0
        } else {
            total_time.as_nanos() as f64 / total_iters as f64
        };
    }

    /// Like upstream `iter_custom`: the closure runs `iters` iterations
    /// itself and returns the elapsed time for exactly those iterations.
    pub fn iter_custom<F: FnMut(u64) -> Duration>(&mut self, mut f: F) {
        if self.test_mode {
            black_box(f(1));
            self.ns_per_iter = 0.0;
            return;
        }
        // Calibrate the per-sample iteration count against the budget.
        let mut iters_per_sample: u64 = 1;
        loop {
            let elapsed = f(iters_per_sample);
            if elapsed >= TARGET_SAMPLE_TIME || iters_per_sample >= 1 << 30 {
                break;
            }
            let scale = if elapsed.is_zero() {
                100
            } else {
                (TARGET_SAMPLE_TIME.as_nanos() / elapsed.as_nanos().max(1) + 1) as u64
            };
            iters_per_sample = iters_per_sample.saturating_mul(scale.clamp(2, 100));
        }

        let bench_start = Instant::now();
        let mut total_iters: u64 = 0;
        let mut total_time = Duration::ZERO;
        let mut samples: u64 = 0;
        while samples < self.samples_wanted && bench_start.elapsed() < MAX_TIME_PER_BENCH {
            total_time += f(iters_per_sample);
            total_iters += iters_per_sample;
            samples += 1;
        }
        self.ns_per_iter = if total_iters == 0 {
            0.0
        } else {
            total_time.as_nanos() as f64 / total_iters as f64
        };
    }
}

fn run_benchmark<F: FnMut(&mut Bencher)>(name: &str, config: &Config, mut f: F) {
    if !config.matches(name) {
        return;
    }
    let mut b = Bencher {
        test_mode: config.test_mode,
        ns_per_iter: 0.0,
        samples_wanted: config.sample_size.min(20) as u64,
    };
    f(&mut b);
    if config.test_mode {
        println!("Testing {name} ... ok");
    } else {
        println!("{name:<50} time: {}", format_ns(b.ns_per_iter));
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.4} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.4} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.4} µs", ns / 1e3)
    } else {
        format!("{ns:.2} ns")
    }
}

#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
