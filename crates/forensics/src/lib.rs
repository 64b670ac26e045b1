//! Trace forensics: the consumer side of the telemetry spine.
//!
//! PR 3's spine emits a JSON-lines event stream; this crate turns that
//! firehose into answers about the paper's core security claim (§7):
//! does RRS actually keep every row's activations-at-one-location below
//! the swap threshold?
//!
//! * [`parse`] — the saved trace format: [`saved_trace`] writes a tracing
//!   spine as a `trace_header` record plus JSON-lines events, and
//!   [`parse_jsonl`] reads it back into [`Event`]s.
//! * [`exposure`] — the reconstructor: replays the event stream into
//!   per-physical-row residency intervals and computes
//!   max-activations-per-residency, time-at-location histograms,
//!   relocation entropy, and a pass/fail/inconclusive verdict against the
//!   configured swap threshold.
//! * [`perfetto`] — a Chrome `trace_event` JSON exporter so swap
//!   lifecycles, targeted refreshes, and epoch rollovers render in
//!   <https://ui.perfetto.dev>.
//!
//! Everything is a pure function of the event sequence: reports and
//! exports are byte-deterministic, a property the golden tests pin.
//!
//! [`Event`]: rrs_telemetry::Event

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod exposure;
pub mod parse;
pub mod perfetto;

pub use exposure::{ExposureConfig, ExposureReport, RowExposure, Verdict};
pub use parse::{parse_jsonl, saved_trace, ParsedTrace, TraceHeader};
pub use perfetto::{export_trace, ExportOptions};
