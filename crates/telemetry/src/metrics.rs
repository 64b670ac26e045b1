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

use rrs_json::{FromJson, Json, JsonError, ToJson};

/// Number of log₂ buckets in a [`Histogram`]. Bucket `i` holds values whose
/// bit length is `i` (i.e. `2^(i-1) ≤ v < 2^i`, with `v = 0` in bucket 0);
/// values of 2^39 cycles (≈3.4 min of DDR4-3200 time) or more saturate into
/// the last bucket.
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

impl HistogramSnapshot {
    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest sample observed.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Estimates the `q`-quantile (0 < q ≤ 1) as the upper edge of the
    /// bucket containing it — a ≤2× overestimate by construction, which is
    /// the right direction for tail-latency claims. When the quantile
    /// lands in the saturated top bucket (samples of 2³⁹ or more, whose
    /// upper edge is unbounded), the observed maximum is reported instead.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `(0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!(q > 0.0 && q <= 1.0, "quantile out of range");
        if self.count == 0 {
            return 0;
        }
        let target = (q * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // The last bucket holds everything that saturated the
                // log₂ range; `(1 << i) - 1` would claim a fictitious
                // edge, so report what was actually seen.
                return if i == HISTOGRAM_BUCKETS - 1 {
                    self.max
                } else {
                    (1 << i) - 1
                };
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

impl ToJson for HistogramSnapshot {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "buckets".to_string(),
                Json::Arr(self.buckets.iter().map(|&b| Json::u64(b)).collect()),
            ),
            ("count".to_string(), Json::u64(self.count)),
            ("sum".to_string(), Json::u128(self.sum)),
            ("max".to_string(), Json::u64(self.max)),
        ])
    }
}

impl FromJson for HistogramSnapshot {
    /// Parses [`ToJson`]'s layout. A bucket array of any other length is
    /// an error: cached results are outside input.
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let raw: Vec<u64> = Vec::from_json(json.field("buckets")?)?;
        let buckets = <[u64; HISTOGRAM_BUCKETS]>::try_from(raw.as_slice()).map_err(|_| {
            JsonError(format!(
                "expected {HISTOGRAM_BUCKETS} histogram buckets, got {}",
                raw.len()
            ))
        })?;
        Ok(HistogramSnapshot {
            buckets,
            count: u64::from_json(json.field("count")?)?,
            sum: u128::from_json(json.field("sum")?)?,
            max: u64::from_json(json.field("max")?)?,
        })
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
            .map(|(n, h)| (n.clone(), h.snapshot().to_json()))
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

    /// A snapshot of a histogram fed `values`.
    fn recorded(values: impl IntoIterator<Item = u64>) -> HistogramSnapshot {
        let h = Histogram::default();
        for v in values {
            h.record(v);
        }
        h.snapshot()
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = HistogramSnapshot::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn mean_and_max_are_exact() {
        let h = recorded([10, 20, 30, 40]);
        assert_eq!(h.mean(), 25.0);
        assert_eq!(h.max(), 40);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn quantiles_bound_true_values_within_a_bucket() {
        let h = recorded(1..=1000);
        // p50 of 1..=1000 is 500; bucket upper edge gives 511.
        let p50 = h.p50();
        assert!((500..1024).contains(&p50), "p50 = {p50}");
        let p99 = h.p99();
        assert!((990..2048).contains(&p99), "p99 = {p99}");
        // Quantiles are monotone.
        assert!(h.quantile(0.25) <= h.p50());
        assert!(h.p50() <= h.p95());
        assert!(h.p95() <= h.p99());
    }

    #[test]
    fn tail_outliers_show_in_p99_not_p50() {
        // A 1% pathological tail (throttled accesses).
        let h = recorded((0..1000).map(|i| if i < 990 { 100 } else { 1_000_000 }));
        assert!(h.p50() < 256);
        assert!(h.quantile(0.999) >= 1_000_000 / 2);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn zero_quantile_panics() {
        HistogramSnapshot::default().quantile(0.0);
    }

    #[test]
    fn saturated_top_bucket_reports_observed_max() {
        // 1 << 50 lands in the last bucket.
        let h = recorded([1 << 50, 1 << 45]);
        assert_eq!(h.p50(), 1 << 50, "top-bucket quantiles are the max");
        assert_eq!(h.p99(), 1 << 50);
        // Quantiles below the top bucket are unaffected.
        let h = recorded([1 << 50, 1 << 45, 100, 100, 100]);
        assert!(h.p50() < 256);
    }

    #[test]
    fn json_round_trip_preserves_histogram() {
        let h = recorded([1, 100, 10_000, u64::MAX / 2]);
        let back = HistogramSnapshot::from_json(&h.to_json()).unwrap();
        assert_eq!(back, h);
        assert_eq!(
            back.to_json().to_string_compact(),
            h.to_json().to_string_compact()
        );
    }

    #[test]
    fn json_rejects_wrong_bucket_count() {
        let mut j = HistogramSnapshot::default().to_json();
        if let Json::Obj(fields) = &mut j {
            fields[0].1 = Json::Arr(vec![Json::u64(0); 3]);
        }
        assert!(HistogramSnapshot::from_json(&j).is_err());
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
