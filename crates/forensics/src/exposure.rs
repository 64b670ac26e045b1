//! The exposure reconstructor: per-row residency intervals and the
//! pass/fail/inconclusive verdict behind the paper's security claim.
//!
//! RRS's defense (§7) is that no physical row accumulates enough
//! activations *at one location* for its neighbours to matter: every
//! `T_RRS` activations the row's contents move, so an aggressor's charge
//! disturbance is spread over random victims. This module replays the
//! trace and measures exactly that quantity.
//!
//! # Replay semantics
//!
//! State is kept per `(bank, physical row)`:
//!
//! * `activation` increments the row's current-residency count.
//! * `swap_done` and `unswap` end a **residency** for both rows of the
//!   pair: the count resets (new contents at this location), the interval
//!   length lands in the time-at-location histogram, and both rows gain a
//!   relocation.
//! * `epoch_rollover` and `full_refresh` reset every count (a refresh
//!   window restores cell charge — the hammer integral starts over) but
//!   do **not** end residencies: contents stay put.
//! * `targeted_refresh` resets only the refreshed row's count.
//! * `swap_start` and tracker/CAT events carry no exposure
//!   information and only count toward the replay total.
//!
//! **Max exposure** is the largest count any row ever reached — the most
//! activations any one row soaked at one location within one refresh
//! window. With RRS at threshold `T`, the bound is `T + slack`, where the
//! slack covers the in-flight activations between crossing the threshold
//! and the swap completing. The [`Verdict`] fails when the maximum exceeds
//! the bound; otherwise it passes only on a trace known to be complete.
//!
//! **Relocation entropy** is the Shannon entropy (bits) of the
//! distribution of swap participations over rows — higher means the
//! engine spreads relocations instead of ping-ponging one pair.

use std::collections::BTreeMap;

use rrs_json::Json;
use rrs_telemetry::Event;

/// Number of log₂ buckets in the time-at-location histogram (u64 range).
pub const RESIDENCY_BUCKETS: usize = 65;

/// Reconstruction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExposureConfig {
    /// The swap threshold `T_RRS` the trace's defense was configured with
    /// (0 means "no defense": any exposure fails only via `slack`).
    pub swap_threshold: u64,
    /// Activations a row may exceed the threshold by before the verdict
    /// fails — covers requests in flight while a swap is queued.
    pub slack: u64,
}

impl ExposureConfig {
    /// The default audit of a defense with swap threshold `t`: a slack of
    /// one more threshold's worth of activations.
    pub fn at_threshold(t: u64) -> Self {
        ExposureConfig {
            swap_threshold: t,
            slack: t,
        }
    }

    /// The exposure bound the verdict enforces.
    pub fn bound(&self) -> u64 {
        self.swap_threshold.saturating_add(self.slack)
    }
}

/// The outcome of an exposure audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every row stayed within the bound, and the trace is complete.
    Pass,
    /// Some row exceeded the bound. Sound even on a truncated trace: a
    /// missing prefix can only hide activations, never add them.
    Fail,
    /// No row exceeded the bound, but the trace dropped events or does not
    /// say whether it did, so a hidden excess cannot be ruled out.
    Inconclusive,
}

impl Verdict {
    /// The verdict's stable lower-case name (the report's `verdict`).
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Fail => "fail",
            Verdict::Inconclusive => "inconclusive",
        }
    }
}

/// Exposure summary of one `(bank, row)` location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowExposure {
    /// Flat bank index.
    pub bank: u64,
    /// Physical row number within the bank.
    pub row: u64,
    /// Most activations accumulated in any one residency interval
    /// (bounded by refresh-window resets).
    pub max_exposure: u64,
    /// Activations across the whole trace.
    pub total_activations: u64,
    /// Times the row's contents were relocated (swap or unswap).
    pub relocations: u64,
}

/// Per-row replay state.
#[derive(Debug, Clone, Copy, Default)]
struct RowState {
    count: u64,
    max: u64,
    total: u64,
    relocations: u64,
    residency_start: u64,
}

/// The reconstructed exposure report.
#[derive(Debug, Clone)]
pub struct ExposureReport {
    /// The configuration the verdict was computed against.
    pub config: ExposureConfig,
    /// Per-row summaries, ordered by `(bank, row)`.
    pub rows: Vec<RowExposure>,
    /// The largest `max_exposure` over all rows (0 for an empty trace).
    pub max_exposure: u64,
    /// The `(bank, row)` that reached `max_exposure`, if any activations
    /// were seen (ties break to the lowest `(bank, row)`).
    pub worst_row: Option<(u64, u64)>,
    /// Whether every row stayed within `swap_threshold + slack`, and
    /// whether the trace was complete enough to say so.
    pub verdict: Verdict,
    /// Shannon entropy (bits) of swap participation over rows.
    pub relocation_entropy_bits: f64,
    /// Residency lengths (cycles), log₂-bucketed: bucket `i` counts
    /// intervals with `floor(log2(len)) == i` (`len == 0` in bucket 0).
    /// Open residencies at trace end are closed at the last event's cycle.
    pub residency_histogram: [u64; RESIDENCY_BUCKETS],
    /// Events replayed (all kinds).
    pub events_replayed: u64,
    /// Drops reported by the trace header (`None` when the trace has no
    /// header): anything but `Some(0)` means the replay may have seen only
    /// a suffix of the run and underestimates.
    pub events_dropped: Option<u64>,
    /// Total relocation operations (swaps + unswaps) in the trace.
    pub relocation_ops: u64,
    /// Epoch rollovers seen.
    pub epochs: u64,
}

impl ExposureReport {
    /// Replays `events` (in order) and computes the exposure report.
    /// `events_dropped` is what the producing recorder reported (`None`
    /// when unknown); it decides between a pass and an inconclusive
    /// verdict and is carried into the report.
    pub fn reconstruct(
        events: &[Event],
        config: ExposureConfig,
        events_dropped: Option<u64>,
    ) -> Self {
        let mut states: BTreeMap<(u64, u64), RowState> = BTreeMap::new();
        let mut histogram = [0u64; RESIDENCY_BUCKETS];
        let mut relocation_ops = 0u64;
        let mut epochs = 0u64;
        let mut last_at = 0u64;

        let bucket = |len: u64| -> usize {
            if len == 0 {
                0
            } else {
                63 - len.leading_zeros() as usize
            }
        };
        let close_residency = |s: &mut RowState, at: u64, histogram: &mut [u64]| {
            let started = s.residency_start;
            if let Some(slot) = histogram.get_mut(bucket(at.saturating_sub(started))) {
                *slot += 1;
            }
            s.residency_start = at;
            s.count = 0;
            s.relocations += 1;
        };

        for e in events {
            last_at = last_at.max(e.at());
            match *e {
                Event::Activation { bank, row, .. } => {
                    let s = states.entry((bank, row)).or_default();
                    s.count += 1;
                    s.total += 1;
                    s.max = s.max.max(s.count);
                }
                Event::SwapDone {
                    at,
                    bank,
                    row_a,
                    row_b,
                    ..
                }
                | Event::Unswap {
                    at,
                    bank,
                    row_a,
                    row_b,
                    ..
                } => {
                    relocation_ops += 1;
                    for row in [row_a, row_b] {
                        let s = states.entry((bank, row)).or_default();
                        close_residency(s, at, &mut histogram);
                    }
                }
                Event::EpochRollover { .. } => {
                    epochs += 1;
                    for s in states.values_mut() {
                        s.count = 0;
                    }
                }
                Event::FullRefresh { .. } => {
                    for s in states.values_mut() {
                        s.count = 0;
                    }
                }
                Event::TargetedRefresh { bank, row, .. } => {
                    states.entry((bank, row)).or_default().count = 0;
                }
                Event::SwapStart { .. }
                | Event::HrtInstall { .. }
                | Event::HrtEvict { .. }
                | Event::CatRelocation { .. }
                | Event::Refresh { .. } => {}
            }
        }

        // Close residencies still open at trace end so long-lived rows
        // appear in the time-at-location histogram.
        for s in states.values_mut() {
            let len = last_at.saturating_sub(s.residency_start);
            if s.total > 0 || s.relocations > 0 {
                if let Some(slot) = histogram.get_mut(bucket(len)) {
                    *slot += 1;
                }
            }
        }

        let rows: Vec<RowExposure> = states
            .iter()
            .map(|(&(bank, row), s)| RowExposure {
                bank,
                row,
                max_exposure: s.max,
                total_activations: s.total,
                relocations: s.relocations,
            })
            .collect();

        let mut max_exposure = 0u64;
        let mut worst_row = None;
        for r in &rows {
            if r.max_exposure > max_exposure {
                max_exposure = r.max_exposure;
                worst_row = Some((r.bank, r.row));
            }
        }

        let verdict = if max_exposure > config.bound() {
            Verdict::Fail
        } else if events_dropped == Some(0) {
            Verdict::Pass
        } else {
            Verdict::Inconclusive
        };
        ExposureReport {
            config,
            max_exposure,
            worst_row,
            verdict,
            relocation_entropy_bits: relocation_entropy(&rows),
            residency_histogram: histogram,
            events_replayed: events.len() as u64,
            events_dropped,
            relocation_ops,
            epochs,
            rows,
        }
    }

    /// Rows with the highest exposure, worst first (ties by `(bank, row)`),
    /// at most `n`.
    pub fn top_rows(&self, n: usize) -> Vec<RowExposure> {
        let mut sorted = self.rows.clone();
        sorted.sort_by(|a, b| {
            b.max_exposure
                .cmp(&a.max_exposure)
                .then(a.bank.cmp(&b.bank))
                .then(a.row.cmp(&b.row))
        });
        sorted.truncate(n);
        sorted
    }

    /// Activations across all rows.
    pub fn total_activations(&self) -> u64 {
        self.rows.iter().map(|r| r.total_activations).sum()
    }

    /// The report as a deterministic JSON object (stable field and array
    /// order; the golden tests compare its bytes).
    pub fn to_json(&self) -> Json {
        let top: Vec<Json> = self
            .top_rows(16)
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("bank".to_string(), Json::u64(r.bank)),
                    ("row".to_string(), Json::u64(r.row)),
                    ("max_exposure".to_string(), Json::u64(r.max_exposure)),
                    (
                        "total_activations".to_string(),
                        Json::u64(r.total_activations),
                    ),
                    ("relocations".to_string(), Json::u64(r.relocations)),
                ])
            })
            .collect();
        let hist: Vec<Json> = self
            .residency_histogram
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| Json::Arr(vec![Json::usize(i), Json::u64(c)]))
            .collect();
        let worst = match self.worst_row {
            Some((bank, row)) => Json::Obj(vec![
                ("bank".to_string(), Json::u64(bank)),
                ("row".to_string(), Json::u64(row)),
            ]),
            None => Json::Null,
        };
        Json::Obj(vec![
            ("schema".to_string(), Json::str("rrs-forensics-v2")),
            (
                "swap_threshold".to_string(),
                Json::u64(self.config.swap_threshold),
            ),
            ("slack".to_string(), Json::u64(self.config.slack)),
            ("verdict".to_string(), Json::str(self.verdict.name())),
            ("max_exposure".to_string(), Json::u64(self.max_exposure)),
            ("worst_row".to_string(), worst),
            ("rows_tracked".to_string(), Json::usize(self.rows.len())),
            (
                "total_activations".to_string(),
                Json::u64(self.total_activations()),
            ),
            ("relocation_ops".to_string(), Json::u64(self.relocation_ops)),
            (
                "relocation_entropy_bits".to_string(),
                Json::f64(round4(self.relocation_entropy_bits)),
            ),
            ("epochs".to_string(), Json::u64(self.epochs)),
            ("residency_histogram_log2".to_string(), Json::Arr(hist)),
            (
                "events_replayed".to_string(),
                Json::u64(self.events_replayed),
            ),
            (
                "events_dropped".to_string(),
                self.events_dropped.map_or(Json::Null, Json::u64),
            ),
            ("top_rows".to_string(), Json::Arr(top)),
        ])
    }

    /// A human-readable rendering of the report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let verdict = self.verdict.name().to_uppercase();
        out.push_str(&format!(
            "exposure verdict: {verdict} (max {} vs bound {} = threshold {} + slack {})\n",
            self.max_exposure,
            self.config.bound(),
            self.config.swap_threshold,
            self.config.slack,
        ));
        if let Some((bank, row)) = self.worst_row {
            out.push_str(&format!("worst row: bank {bank} row {row}\n"));
        }
        out.push_str(&format!(
            "rows tracked: {}  activations: {}  relocation ops: {}  epochs: {}\n",
            self.rows.len(),
            self.total_activations(),
            self.relocation_ops,
            self.epochs,
        ));
        out.push_str(&format!(
            "relocation entropy: {:.4} bits\n",
            self.relocation_entropy_bits
        ));
        match self.events_dropped {
            Some(0) => {}
            Some(n) => out.push_str(&format!(
                "WARNING: {n} events dropped before recording — exposure is a lower bound\n"
            )),
            None => out.push_str(
                "WARNING: the trace has no header, so its drops are unknown — exposure is a lower bound\n",
            ),
        }
        out.push_str("top rows (bank, row, max exposure, activations, relocations):\n");
        for r in self.top_rows(8) {
            out.push_str(&format!(
                "  bank {:>3} row {:>6}  max {:>6}  acts {:>8}  moved {:>4}\n",
                r.bank, r.row, r.max_exposure, r.total_activations, r.relocations
            ));
        }
        out
    }
}

/// Shannon entropy (bits) of the relocation distribution over rows.
fn relocation_entropy(rows: &[RowExposure]) -> f64 {
    let total: u64 = rows.iter().map(|r| r.relocations).sum();
    if total == 0 {
        return 0.0;
    }
    let mut bits = 0.0f64;
    for r in rows {
        if r.relocations > 0 {
            let p = r.relocations as f64 / total as f64;
            bits -= p * p.log2();
        }
    }
    bits
}

/// Rounds to 4 decimal places so the JSON lexeme is platform-stable.
fn round4(v: f64) -> f64 {
    (v * 10_000.0).round() / 10_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(threshold: u64, slack: u64) -> ExposureConfig {
        ExposureConfig {
            swap_threshold: threshold,
            slack,
        }
    }

    /// One activation of `(bank, row)` at each cycle of `at`.
    fn acts(bank: u64, row: u64, at: std::ops::Range<u64>) -> impl Iterator<Item = Event> {
        at.map(move |at| Event::Activation { at, bank, row })
    }

    /// Hammer one row 10×, swap it away, hammer 10× more: max exposure is
    /// 10, not 20 — the swap broke the accumulation.
    #[test]
    fn swaps_reset_exposure() {
        let mut events: Vec<Event> = acts(0, 5, 0..10).collect();
        events.push(Event::SwapDone {
            at: 10,
            bank: 0,
            row_a: 5,
            row_b: 900,
        });
        events.extend(acts(0, 5, 11..21));
        let r = ExposureReport::reconstruct(&events, cfg(8, 2), Some(0));
        assert_eq!(r.max_exposure, 10);
        assert_eq!(r.worst_row, Some((0, 5)));
        assert_eq!(r.verdict, Verdict::Pass, "10 <= 8 + 2");
        let row5 = r.rows.iter().find(|r| r.row == 5).unwrap();
        assert_eq!(row5.total_activations, 20);
        assert_eq!(row5.relocations, 1);
        let row900 = r.rows.iter().find(|r| r.row == 900).unwrap();
        assert_eq!(row900.relocations, 1);
        assert_eq!(row900.total_activations, 0);
        assert_eq!(r.relocation_ops, 1);
    }

    /// Without swaps the count just accumulates and the verdict fails.
    #[test]
    fn unmitigated_hammering_fails() {
        let events: Vec<Event> = acts(1, 3, 0..50).collect();
        let r = ExposureReport::reconstruct(&events, cfg(8, 2), Some(0));
        assert_eq!(r.max_exposure, 50);
        assert_eq!(r.verdict, Verdict::Fail);
    }

    /// Epoch rollovers (refresh windows) reset counts without ending
    /// residencies.
    #[test]
    fn epochs_reset_counts_but_not_residency() {
        let mut events: Vec<Event> = acts(0, 1, 0..6).collect();
        events.push(Event::EpochRollover { at: 6, epoch: 0 });
        events.extend(acts(0, 1, 7..14));
        let r = ExposureReport::reconstruct(&events, cfg(8, 0), Some(0));
        assert_eq!(r.max_exposure, 7, "per-window max, not 13");
        assert_eq!(r.epochs, 1);
        let row = r.rows.first().unwrap();
        assert_eq!(row.relocations, 0, "refresh is not a relocation");
    }

    #[test]
    fn targeted_refresh_resets_one_row() {
        let mut events: Vec<Event> = acts(0, 1, 0..1).chain(acts(0, 2, 1..3)).collect();
        events.push(Event::TargetedRefresh {
            at: 3,
            bank: 0,
            row: 2,
        });
        events.extend(acts(0, 2, 4..5));
        let r = ExposureReport::reconstruct(&events, cfg(10, 0), Some(0));
        let row2 = r.rows.iter().find(|r| r.row == 2).unwrap();
        assert_eq!(row2.max_exposure, 2, "refresh reset the running count");
        assert_eq!(row2.total_activations, 3);
    }

    /// Known entropy: 4 rows with equal relocation counts → 2 bits; a
    /// single ping-ponged pair → 1 bit.
    #[test]
    fn relocation_entropy_is_shannon() {
        let mut events = Vec::new();
        for (i, (a, b)) in [(1, 2), (3, 4)].iter().enumerate() {
            events.push(Event::SwapDone {
                at: i as u64,
                bank: 0,
                row_a: *a,
                row_b: *b,
            });
        }
        let r = ExposureReport::reconstruct(&events, cfg(1, 0), Some(0));
        assert!((r.relocation_entropy_bits - 2.0).abs() < 1e-9);

        let pair = vec![
            Event::SwapDone {
                at: 0,
                bank: 0,
                row_a: 1,
                row_b: 2,
            },
            Event::Unswap {
                at: 1,
                bank: 0,
                row_a: 1,
                row_b: 2,
            },
        ];
        let r = ExposureReport::reconstruct(&pair, cfg(1, 0), Some(0));
        assert!((r.relocation_entropy_bits - 1.0).abs() < 1e-9);
        assert_eq!(r.relocation_ops, 2);
    }

    /// Residency histogram: a swap at cycle 1024 puts one interval of
    /// length 1024 in bucket 10.
    #[test]
    fn residency_histogram_buckets_by_log2() {
        let events = vec![
            Event::Activation {
                at: 0,
                bank: 0,
                row: 1,
            },
            Event::SwapDone {
                at: 1024,
                bank: 0,
                row_a: 1,
                row_b: 2,
            },
        ];
        let r = ExposureReport::reconstruct(&events, cfg(4, 0), Some(0));
        // Both rows of the pair close a residency at the swap: each sat at
        // its location since cycle 0, so two intervals of 1024 → bucket 10.
        assert_eq!(r.residency_histogram[10], 2, "closed intervals of 1024");
        // Open residencies (rows 1 and 2 after the swap) close at trace
        // end with length 0 → bucket 0.
        assert_eq!(r.residency_histogram[0], 2);
    }

    #[test]
    fn empty_trace_passes_vacuously() {
        let r = ExposureReport::reconstruct(&[], cfg(8, 0), Some(0));
        assert_eq!(r.max_exposure, 0);
        assert_eq!(r.verdict, Verdict::Pass);
        assert!(r.worst_row.is_none());
        assert_eq!(r.relocation_entropy_bits, 0.0);
    }

    #[test]
    fn json_is_deterministic_and_carries_verdict() {
        let events = vec![Event::Activation {
            at: 0,
            bank: 0,
            row: 1,
        }];
        let a = ExposureReport::reconstruct(&events, cfg(0, 0), Some(3));
        let b = ExposureReport::reconstruct(&events, cfg(0, 0), Some(3));
        assert_eq!(
            a.to_json().to_string_pretty(),
            b.to_json().to_string_pretty()
        );
        let json = a.to_json();
        assert_eq!(
            json.get("verdict").and_then(Json::as_str),
            Some("fail"),
            "1 activation > bound 0"
        );
        assert_eq!(json.get("events_dropped").and_then(Json::as_u64), Some(3));
        assert_eq!(
            json.get("schema").and_then(Json::as_str),
            Some("rrs-forensics-v2")
        );
        assert!(a.render_text().contains("FAIL"));
    }

    /// The three outcomes, on a complete trace, a truncated one and one
    /// whose drops are unknown (no header). An excess fails whatever was
    /// dropped: drops only hide activations, so the excess is real.
    #[test]
    fn verdict_is_three_way() {
        let hammer = |n| acts(0, 9, 0..n).collect::<Vec<_>>();
        for (dropped, within, text) in [
            (Some(0), Verdict::Pass, "PASS"),
            (Some(7), Verdict::Inconclusive, "7 events dropped"),
            (None, Verdict::Inconclusive, "no header"),
        ] {
            let r = ExposureReport::reconstruct(&hammer(4), cfg(4, 4), dropped);
            assert_eq!(r.verdict, within, "dropped {dropped:?}");
            assert!(r.render_text().contains(text), "{}", r.render_text());
            let json = r.to_json();
            assert_eq!(
                json.get("verdict").and_then(Json::as_str),
                Some(within.name())
            );
            let reported = json.get("events_dropped").and_then(Json::as_u64);
            assert_eq!(reported, dropped, "unknown drops are null");
            let r = ExposureReport::reconstruct(&hammer(20), cfg(4, 4), dropped);
            assert_eq!(r.verdict, Verdict::Fail, "dropped {dropped:?}");
        }
    }
}
