//! Minimal wall-clock benchmark harness.
//!
//! The workspace has no external dependencies, so the registry in
//! [`crate::suite`] runs on this hand-rolled harness instead of Criterion.
//! It keeps the parts that matter for our use: automatic iteration-count
//! calibration, per-iteration setup (`iter_batched`), name filtering from
//! the command line, and a stable one-line-per-benchmark report.
//!
//! Usage from a `harness = false` bench target:
//!
//! ```ignore
//! let mut h = Harness::from_args();
//! h.bench("prince/encrypt", |b| b.iter(|| cipher.encrypt(7)));
//! h.finish();
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target measurement time per benchmark (after calibration).
const TARGET: Duration = Duration::from_millis(120);
/// Calibration threshold: double the iteration count until one run takes
/// at least this long.
const CALIBRATE_MIN: Duration = Duration::from_millis(12);
/// Number of measurement samples; the median is reported.
const SAMPLES: usize = 5;

/// Per-benchmark timing context handed to the closure.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `f` over the calibrated iteration count.
    pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }

    /// Times `routine` only, re-running `setup` outside the clock for each
    /// iteration (the `iter_batched` pattern for non-reusable state).
    pub fn iter_batched<S, T>(
        &mut self,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> T,
    ) {
        let mut total = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            total += start.elapsed();
        }
        self.elapsed = total;
    }
}

/// One benchmark result.
pub struct Record {
    /// Benchmark name (e.g. `"prince/encrypt"`).
    pub name: String,
    /// Median nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Iterations per measurement sample.
    pub iters: u64,
}

/// The benchmark runner: collects, filters, times, and reports.
#[derive(Default)]
pub struct Harness {
    filter: Option<String>,
    quick: bool,
    records: Vec<Record>,
}

impl Harness {
    /// Builds a harness from `cargo bench` command-line arguments: the
    /// first non-flag argument is a substring filter; `--quick` shortens
    /// measurement for smoke runs.
    pub fn from_args() -> Self {
        let mut h = Harness::default();
        for arg in std::env::args().skip(1) {
            if arg == "--quick" {
                h.quick = true;
            } else if !arg.starts_with('-') && h.filter.is_none() {
                h.filter = Some(arg);
            }
            // Other cargo-injected flags (--bench, --exact, ...) are ignored.
        }
        h
    }

    /// A harness for programmatic use (`rrs bench-report`): no argv
    /// filtering, quick mode by explicit choice.
    pub fn programmatic(quick: bool) -> Self {
        Harness {
            filter: None,
            quick,
            records: Vec::new(),
        }
    }

    fn target(&self) -> Duration {
        if self.quick {
            TARGET / 10
        } else {
            TARGET
        }
    }

    /// Runs one benchmark unless it is filtered out.
    pub fn bench(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        // Calibrate: double iters until one sample is long enough to trust.
        let mut iters = 1u64;
        loop {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            if b.elapsed >= CALIBRATE_MIN || iters >= (1 << 30) {
                let per_iter = b.elapsed.as_nanos().max(1) as f64 / iters as f64;
                let budget = self.target().as_nanos() as f64 / SAMPLES as f64;
                iters = ((budget / per_iter) as u64).clamp(1, 1 << 32);
                break;
            }
            iters *= 2;
        }
        // Measure: report the median of SAMPLES runs.
        let mut samples: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let mut b = Bencher {
                    iters,
                    elapsed: Duration::ZERO,
                };
                f(&mut b);
                b.elapsed.as_nanos() as f64 / iters as f64
            })
            .collect();
        samples.sort_by(|a, b| a.total_cmp(b));
        let ns = samples[SAMPLES / 2];
        println!("{name:<40} {:>12}/iter  ({iters} iters/sample)", fmt_ns(ns));
        self.records.push(Record {
            name: name.to_string(),
            ns_per_iter: ns,
            iters,
        });
    }

    /// All results so far (what `rrs bench-report` snapshots).
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Prints the trailer. Call last.
    pub fn finish(self) {
        println!("\n{} benchmarks run", self.records.len());
    }
}

/// Formats nanoseconds with an adaptive unit.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_times_and_records() {
        let mut h = Harness {
            quick: true,
            ..Harness::default()
        };
        h.bench("smoke/add", |b| {
            let mut x = 0u64;
            b.iter(|| {
                x = x.wrapping_add(1);
                x
            })
        });
        assert_eq!(h.records().len(), 1);
        assert!(h.records()[0].ns_per_iter > 0.0);
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut h = Harness {
            filter: Some("only-this".into()),
            quick: true,
            records: Vec::new(),
        };
        h.bench("other/thing", |b| b.iter(|| 1));
        assert!(h.records().is_empty());
    }

    #[test]
    fn fmt_ns_units() {
        assert!(fmt_ns(12.0).ends_with("ns"));
        assert!(fmt_ns(12_000.0).ends_with("us"));
        assert!(fmt_ns(12_000_000.0).ends_with("ms"));
    }
}
