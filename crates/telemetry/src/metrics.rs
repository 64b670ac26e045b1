//! Deterministic metric primitives — counters, gauges, log₂ histograms,
//! per-epoch series — behind cheap shared handles registered by name.
//!
//! Handles are `Rc`-backed: cloning a [`Counter`] shares the underlying
//! cell, so a component can hold its handle and bump it with a single
//! interior-mutability store — no registry lookup, no `RefCell` borrow —
//! while the [`Registry`] retains the name → handle index for export.
//! Registration is idempotent by name, which lets several components (for
//! example each per-bank RRS engine) share one aggregate counter.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use rrs_json::Json;

/// Number of log₂ buckets in a [`Histogram`]. Bucket `i` holds values whose
/// bit length is `i` (i.e. `2^(i-1) ≤ v < 2^i`, with `v = 0` in bucket 0);
/// values of 2^39 cycles (≈3.4 min of DDR4-3200 time) or more saturate into
/// the last bucket. Matches `rrs-sim`'s `LatencyStats` layout exactly so a
/// latency snapshot is a plain copy.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// Cap on retained epoch-aligned samples: enough for ~19 hours of simulated
/// 64 ms epochs; beyond it samples are counted but dropped (bounded memory).
pub const MAX_EPOCH_SAMPLES: usize = 16_384;

/// A monotonically increasing `u64` metric.
///
/// Cloning shares the value. `add` is a load + store on a `Cell` — cheap
/// enough for per-access hot paths. Overflow behaves like the plain `u64`
/// stat fields this type replaced: checked in debug/overflow-check builds.
#[derive(Debug, Clone, Default)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// Adds `delta` to the counter.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.set(self.0.get() + delta);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// A current-value metric that may move both ways (occupancies, depths).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Rc<Cell<u64>>);

impl Gauge {
    /// Overwrites the value.
    #[inline]
    pub fn set(&self, value: u64) {
        self.0.set(value);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.get()
    }

    /// Adds `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.set(self.0.get() + delta);
    }

    /// Subtracts `delta`, saturating at zero.
    #[inline]
    pub fn sub(&self, delta: u64) {
        self.0.set(self.0.get().saturating_sub(delta));
    }
}

/// An owned copy of a histogram's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (log₂ buckets, see [`HISTOGRAM_BUCKETS`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples (`u128`: 2⁶⁴ cycles × many samples overflows u64).
    pub sum: u128,
    /// Largest sample observed.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

/// A log₂-bucketed distribution metric (latencies, queue waits).
#[derive(Debug, Clone, Default)]
pub struct Histogram(Rc<RefCell<HistogramSnapshot>>);

impl Histogram {
    /// Records one sample.
    pub fn record(&self, value: u64) {
        let mut d = self.0.borrow_mut();
        let idx = (64 - value.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        if let Some(b) = d.buckets.get_mut(idx) {
            *b += 1;
        }
        d.count += 1;
        d.sum += value as u128;
        d.max = d.max.max(value);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.0.borrow().count
    }

    /// An owned copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        *self.0.borrow()
    }
}

/// An append-only sequence of `u64` samples (one per epoch, typically).
#[derive(Debug, Clone, Default)]
pub struct Series(Rc<RefCell<Vec<u64>>>);

impl Series {
    /// Appends one sample.
    pub fn push(&self, value: u64) {
        self.0.borrow_mut().push(value);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.borrow().len()
    }

    /// Whether no samples have been pushed.
    pub fn is_empty(&self) -> bool {
        self.0.borrow().is_empty()
    }

    /// An owned copy of the samples.
    pub fn values(&self) -> Vec<u64> {
        self.0.borrow().clone()
    }
}

/// One epoch-aligned sample row: the value of every registered counter at
/// an epoch boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochSample {
    /// Zero-based index of the epoch that just completed.
    pub epoch: u64,
    /// Cycle of the epoch boundary.
    pub at: u64,
    /// Counter values, in registration order (see
    /// [`Registry::counter_names`]).
    pub values: Vec<u64>,
}

/// The metric registry: the name → handle index behind one [`Telemetry`]
/// spine, plus the epoch-aligned time series of counter samples.
///
/// [`Telemetry`]: crate::Telemetry
#[derive(Debug, Default)]
pub struct Registry {
    counters: Vec<(String, Counter)>,
    gauges: Vec<(String, Gauge)>,
    histograms: Vec<(String, Histogram)>,
    series: Vec<(String, Series)>,
    epoch_samples: Vec<EpochSample>,
    epoch_samples_dropped: u64,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers (or finds) the counter named `name` and returns a handle.
    pub fn counter(&mut self, name: &str) -> Counter {
        if let Some((_, c)) = self.counters.iter().find(|(n, _)| n == name) {
            return c.clone();
        }
        let c = Counter::default();
        self.counters.push((name.to_string(), c.clone()));
        c
    }

    /// Registers (or finds) the gauge named `name` and returns a handle.
    pub fn gauge(&mut self, name: &str) -> Gauge {
        if let Some((_, g)) = self.gauges.iter().find(|(n, _)| n == name) {
            return g.clone();
        }
        let g = Gauge::default();
        self.gauges.push((name.to_string(), g.clone()));
        g
    }

    /// Registers (or finds) the histogram named `name` and returns a handle.
    pub fn histogram(&mut self, name: &str) -> Histogram {
        if let Some((_, h)) = self.histograms.iter().find(|(n, _)| n == name) {
            return h.clone();
        }
        let h = Histogram::default();
        self.histograms.push((name.to_string(), h.clone()));
        h
    }

    /// Registers (or finds) the series named `name` and returns a handle.
    pub fn series(&mut self, name: &str) -> Series {
        if let Some((_, s)) = self.series.iter().find(|(n, _)| n == name) {
            return s.clone();
        }
        let s = Series::default();
        self.series.push((name.to_string(), s.clone()));
        s
    }

    /// Counter names in registration order (the column order of
    /// [`EpochSample::values`]).
    pub fn counter_names(&self) -> Vec<String> {
        self.counters.iter().map(|(n, _)| n.clone()).collect()
    }

    /// Current value of every counter, in registration order.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        self.counters
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect()
    }

    /// Records an epoch-aligned sample of every registered counter. Keeps
    /// at most [`MAX_EPOCH_SAMPLES`] rows; further rows are counted in
    /// [`Registry::epoch_samples_dropped`] and discarded.
    pub fn sample_epoch(&mut self, epoch: u64, at: u64) {
        if self.epoch_samples.len() >= MAX_EPOCH_SAMPLES {
            self.epoch_samples_dropped += 1;
            return;
        }
        let values = self.counters.iter().map(|(_, c)| c.get()).collect();
        self.epoch_samples.push(EpochSample { epoch, at, values });
    }

    /// The retained epoch-aligned samples.
    pub fn epoch_samples(&self) -> &[EpochSample] {
        &self.epoch_samples
    }

    /// Epoch samples discarded after the retention cap was hit.
    pub fn epoch_samples_dropped(&self) -> u64 {
        self.epoch_samples_dropped
    }

    /// The full registry state as a JSON object with stable field order:
    /// `counters`, `gauges`, `histograms`, `series`, `epoch_series` (each
    /// in registration order — deterministic by construction).
    pub fn snapshot_json(&self) -> Json {
        let counters = self
            .counters
            .iter()
            .map(|(n, c)| (n.clone(), Json::u64(c.get())))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(n, g)| (n.clone(), Json::u64(g.get())))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(n, h)| {
                let s = h.snapshot();
                let fields = vec![
                    (
                        "buckets".to_string(),
                        Json::Arr(s.buckets.iter().map(|&b| Json::u64(b)).collect()),
                    ),
                    ("count".to_string(), Json::u64(s.count)),
                    ("sum".to_string(), Json::u128(s.sum)),
                    ("max".to_string(), Json::u64(s.max)),
                ];
                (n.clone(), Json::Obj(fields))
            })
            .collect();
        let series = self
            .series
            .iter()
            .map(|(n, s)| {
                (
                    n.clone(),
                    Json::Arr(s.values().iter().map(|&v| Json::u64(v)).collect()),
                )
            })
            .collect();
        let epoch_series = Json::Obj(vec![
            (
                "names".to_string(),
                Json::Arr(self.counter_names().into_iter().map(Json::str).collect()),
            ),
            (
                "samples".to_string(),
                Json::Arr(
                    self.epoch_samples
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("epoch".to_string(), Json::u64(s.epoch)),
                                ("at".to_string(), Json::u64(s.at)),
                                (
                                    "values".to_string(),
                                    Json::Arr(s.values.iter().map(|&v| Json::u64(v)).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("dropped".to_string(), Json::u64(self.epoch_samples_dropped)),
        ]);
        Json::Obj(vec![
            ("counters".to_string(), Json::Obj(counters)),
            ("gauges".to_string(), Json::Obj(gauges)),
            ("histograms".to_string(), Json::Obj(histograms)),
            ("series".to_string(), Json::Obj(series)),
            ("epoch_series".to_string(), epoch_series),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_state() {
        let mut r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(r.counter_values(), vec![("x".to_string(), 4)]);
    }

    #[test]
    fn registration_is_idempotent_and_ordered() {
        let mut r = Registry::new();
        r.counter("b");
        r.counter("a");
        r.counter("b");
        assert_eq!(r.counter_names(), vec!["b".to_string(), "a".to_string()]);
    }

    #[test]
    fn histogram_matches_log2_bucketing() {
        let h = Histogram::default();
        h.record(0); // bucket 0
        h.record(1); // bucket 1
        h.record(2); // bucket 2
        h.record(3); // bucket 2
        h.record(u64::MAX); // saturates into the last bucket
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[2], 2);
        assert_eq!(s.buckets[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(s.count, 5);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.sum, 6 + u64::MAX as u128);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::default();
        g.set(10);
        g.add(5);
        g.sub(20);
        assert_eq!(g.get(), 0, "sub saturates at zero");
    }

    #[test]
    fn epoch_sampling_is_bounded() {
        let mut r = Registry::new();
        let c = r.counter("acts");
        for e in 0..(MAX_EPOCH_SAMPLES as u64 + 10) {
            c.inc();
            r.sample_epoch(e, e * 100);
        }
        assert_eq!(r.epoch_samples().len(), MAX_EPOCH_SAMPLES);
        assert_eq!(r.epoch_samples_dropped(), 10);
        let first = &r.epoch_samples()[0];
        assert_eq!(first.values, vec![1]);
    }

    #[test]
    fn snapshot_json_is_deterministic() {
        let build = || {
            let mut r = Registry::new();
            r.counter("reads").add(7);
            r.gauge("occ").set(3);
            r.histogram("lat").record(100);
            r.series("swaps").push(2);
            r.sample_epoch(0, 640_000);
            r.snapshot_json().to_string_compact()
        };
        assert_eq!(build(), build());
        assert!(build().contains("\"reads\":7"));
    }
}
