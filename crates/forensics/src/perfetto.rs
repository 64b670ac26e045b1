//! Chrome `trace_event` JSON export for <https://ui.perfetto.dev>.
//!
//! The exporter lays the event stream out on three synthetic "processes"
//! so the timeline reads like the hardware:
//!
//! * **pid 1 `rrs engine`** — HRT installs/evictions and CAT cuckoo
//!   relocations as instants (tids 1 and 2).
//! * **pid 2 `controller`** — refreshes (periodic/targeted/full, tid 1)
//!   and epoch rollovers (tid 2) as instants.
//! * **pid 3 `banks`** — one thread per flat bank index. Swap lifecycles
//!   render as `"X"` complete slices (a `swap_start` paired with the next
//!   `swap_done` for the same `(bank, row_a, row_b)`); unswaps and
//!   unmatched halves as instants; activations optionally as instants
//!   (off by default — they dominate traces without adding structure).
//!
//! Timestamps are **simulated DRAM cycles**, exported verbatim in the
//! `ts`/`dur` fields (the format nominally wants µs; for a deterministic
//! simulator the raw cycle axis is the honest one, and Perfetto only uses
//! it as an ordinal scale).
//!
//! Output is byte-deterministic for a given event sequence — a golden
//! test pins the bytes of a blessed trace.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use rrs_json::Json;
use rrs_telemetry::Event;

/// Synthetic process ids, stable across exports.
const PID_ENGINE: u64 = 1;
const PID_CONTROLLER: u64 = 2;
const PID_BANKS: u64 = 3;

/// Exporter knobs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExportOptions {
    /// Emit one instant per demand activation on its bank's track.
    pub activations: bool,
}

/// One `traceEvents` entry with the field order fixed for determinism.
#[allow(clippy::too_many_arguments)] // mirrors the trace_event field list
fn entry(
    name: &str,
    ph: &str,
    ts: u64,
    dur: Option<u64>,
    pid: u64,
    tid: u64,
    scope: Option<&str>,
    args: Vec<(String, Json)>,
) -> Json {
    let mut fields = vec![
        ("name".to_string(), Json::str(name)),
        ("ph".to_string(), Json::str(ph)),
        ("ts".to_string(), Json::u64(ts)),
    ];
    if let Some(d) = dur {
        fields.push(("dur".to_string(), Json::u64(d)));
    }
    fields.push(("pid".to_string(), Json::u64(pid)));
    fields.push(("tid".to_string(), Json::u64(tid)));
    if let Some(s) = scope {
        fields.push(("s".to_string(), Json::str(s)));
    }
    if !args.is_empty() {
        fields.push(("args".to_string(), Json::Obj(args)));
    }
    Json::Obj(fields)
}

/// A `"M"` metadata record naming a process or thread. Carries `ts: 0`
/// so every entry in the file has the same required-field shape
/// (ph/ts/pid) — simpler downstream validation, and Perfetto ignores
/// timestamps on metadata.
fn metadata(what: &str, pid: u64, tid: u64, name: &str) -> Json {
    let mut fields = vec![
        ("name".to_string(), Json::str(what)),
        ("ph".to_string(), Json::str("M")),
        ("ts".to_string(), Json::u64(0)),
        ("pid".to_string(), Json::u64(pid)),
    ];
    if what == "thread_name" {
        fields.push(("tid".to_string(), Json::u64(tid)));
    }
    fields.push((
        "args".to_string(),
        Json::Obj(vec![("name".to_string(), Json::str(name))]),
    ));
    Json::Obj(fields)
}

fn instant(name: &str, ts: u64, pid: u64, tid: u64, args: Vec<(String, Json)>) -> Json {
    entry(name, "i", ts, None, pid, tid, Some("t"), args)
}

fn arg(name: &str, v: u64) -> (String, Json) {
    (name.to_string(), Json::u64(v))
}

/// Exports `events` as a Chrome `trace_event` JSON document (the
/// `{"traceEvents":[...]}` object form), one entry per line for diffable
/// goldens.
pub fn export_trace(events: &[Event], opts: &ExportOptions) -> String {
    // Pass 1: which bank tracks exist (sorted, so metadata order is stable).
    let mut banks: BTreeSet<u64> = BTreeSet::new();
    for e in events {
        match *e {
            Event::Activation { bank, .. } if opts.activations => {
                banks.insert(bank);
            }
            Event::SwapStart { bank, .. }
            | Event::SwapDone { bank, .. }
            | Event::Unswap { bank, .. }
            | Event::TargetedRefresh { bank, .. } => {
                banks.insert(bank);
            }
            _ => {}
        }
    }

    let mut out: Vec<Json> = vec![
        metadata("process_name", PID_ENGINE, 0, "rrs engine"),
        metadata("thread_name", PID_ENGINE, 1, "hrt"),
        metadata("thread_name", PID_ENGINE, 2, "cat"),
        metadata("process_name", PID_CONTROLLER, 0, "controller"),
        metadata("thread_name", PID_CONTROLLER, 1, "refresh"),
        metadata("thread_name", PID_CONTROLLER, 2, "epoch"),
    ];
    if !banks.is_empty() {
        out.push(metadata("process_name", PID_BANKS, 0, "banks"));
        for &b in &banks {
            out.push(metadata("thread_name", PID_BANKS, b, &format!("bank {b}")));
        }
    }

    // Pass 2: the events. Swap slices pair each start with the next done
    // for the same key; a ring-buffer trace can hold either half alone.
    let mut open_swaps: BTreeMap<(u64, u64, u64), VecDeque<u64>> = BTreeMap::new();
    for e in events {
        match *e {
            Event::Activation { at, bank, row } => {
                if opts.activations {
                    out.push(instant("act", at, PID_BANKS, bank, vec![arg("row", row)]));
                }
            }
            Event::SwapStart {
                at,
                bank,
                row_a,
                row_b,
            } => {
                open_swaps
                    .entry((bank, row_a, row_b))
                    .or_default()
                    .push_back(at);
            }
            Event::SwapDone {
                at,
                bank,
                row_a,
                row_b,
            } => {
                let start = open_swaps
                    .get_mut(&(bank, row_a, row_b))
                    .and_then(VecDeque::pop_front);
                match start {
                    Some(s) => out.push(entry(
                        &format!("swap {row_a}<->{row_b}"),
                        "X",
                        s,
                        Some(at.saturating_sub(s)),
                        PID_BANKS,
                        bank,
                        None,
                        vec![arg("row_a", row_a), arg("row_b", row_b)],
                    )),
                    None => out.push(instant(
                        "swap_done (unmatched)",
                        at,
                        PID_BANKS,
                        bank,
                        vec![arg("row_a", row_a), arg("row_b", row_b)],
                    )),
                }
            }
            Event::Unswap {
                at,
                bank,
                row_a,
                row_b,
            } => {
                out.push(instant(
                    &format!("unswap {row_a}<->{row_b}"),
                    at,
                    PID_BANKS,
                    bank,
                    vec![arg("row_a", row_a), arg("row_b", row_b)],
                ));
            }
            Event::HrtInstall { at, row, count } => {
                out.push(instant(
                    "hrt_install",
                    at,
                    PID_ENGINE,
                    1,
                    vec![arg("row", row), arg("count", count)],
                ));
            }
            Event::HrtEvict { at, row, count } => {
                out.push(instant(
                    "hrt_evict",
                    at,
                    PID_ENGINE,
                    1,
                    vec![arg("row", row), arg("count", count)],
                ));
            }
            Event::CatRelocation { at, moves } => {
                out.push(instant(
                    "cat_relocation",
                    at,
                    PID_ENGINE,
                    2,
                    vec![arg("moves", moves)],
                ));
            }
            Event::EpochRollover { at, epoch } => {
                out.push(instant(
                    "epoch_rollover",
                    at,
                    PID_CONTROLLER,
                    2,
                    vec![arg("epoch", epoch)],
                ));
            }
            Event::Refresh { at } => {
                out.push(instant("refresh", at, PID_CONTROLLER, 1, Vec::new()));
            }
            Event::TargetedRefresh { at, bank, row } => {
                out.push(instant(
                    "targeted_refresh",
                    at,
                    PID_CONTROLLER,
                    1,
                    vec![arg("bank", bank), arg("row", row)],
                ));
            }
            Event::FullRefresh { at } => {
                out.push(instant("full_refresh", at, PID_CONTROLLER, 1, Vec::new()));
            }
        }
    }

    // Swap starts with no matching done (truncated trace): instants.
    for ((bank, row_a, row_b), starts) in &open_swaps {
        for &s in starts {
            out.push(instant(
                "swap_start (unmatched)",
                s,
                PID_BANKS,
                *bank,
                vec![arg("row_a", *row_a), arg("row_b", *row_b)],
            ));
        }
    }

    // One entry per line: valid JSON and line-diffable goldens.
    let mut text = String::from("{\"traceEvents\":[\n");
    for (i, e) in out.iter().enumerate() {
        text.push_str(&e.to_string_compact());
        if i + 1 < out.len() {
            text.push(',');
        }
        text.push('\n');
    }
    text.push_str("],\"displayTimeUnit\":\"ns\"}\n");
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Activation {
                at: 1,
                bank: 0,
                row: 10,
            },
            Event::SwapStart {
                at: 5,
                bank: 0,
                row_a: 10,
                row_b: 900,
            },
            Event::SwapDone {
                at: 105,
                bank: 0,
                row_a: 10,
                row_b: 900,
            },
            Event::TargetedRefresh {
                at: 60,
                bank: 1,
                row: 11,
            },
            Event::EpochRollover { at: 200, epoch: 0 },
            Event::Unswap {
                at: 220,
                bank: 0,
                row_a: 10,
                row_b: 900,
            },
        ]
    }

    #[test]
    fn export_is_valid_json_with_required_fields() {
        let text = export_trace(&sample_events(), &ExportOptions::default());
        let doc = Json::parse(&text).expect("exporter emits parseable JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        assert!(!events.is_empty());
        for e in events {
            assert!(e.get("ph").and_then(Json::as_str).is_some(), "ph required");
            assert!(
                e.get("pid").and_then(Json::as_u64).is_some(),
                "pid required"
            );
            assert!(e.get("ts").and_then(Json::as_u64).is_some(), "ts required");
        }
    }

    #[test]
    fn swaps_become_complete_slices() {
        let text = export_trace(&sample_events(), &ExportOptions::default());
        let doc = Json::parse(&text).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        let slice = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .expect("one X slice");
        assert_eq!(slice.get("ts").and_then(Json::as_u64), Some(5));
        assert_eq!(slice.get("dur").and_then(Json::as_u64), Some(100));
        assert_eq!(slice.get("tid").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn activations_are_gated() {
        let quiet = export_trace(&sample_events(), &ExportOptions::default());
        assert!(!quiet.contains("\"act\""));
        let loud = export_trace(&sample_events(), &ExportOptions { activations: true });
        assert!(loud.contains("\"act\""));
    }

    #[test]
    fn unmatched_swap_halves_become_instants() {
        let only_start = vec![Event::SwapStart {
            at: 5,
            bank: 2,
            row_a: 1,
            row_b: 2,
        }];
        let text = export_trace(&only_start, &ExportOptions::default());
        assert!(text.contains("swap_start (unmatched)"));
        let only_done = vec![Event::SwapDone {
            at: 9,
            bank: 2,
            row_a: 1,
            row_b: 2,
        }];
        let text = export_trace(&only_done, &ExportOptions::default());
        assert!(text.contains("swap_done (unmatched)"));
    }

    #[test]
    fn export_is_deterministic() {
        let a = export_trace(&sample_events(), &ExportOptions::default());
        let b = export_trace(&sample_events(), &ExportOptions::default());
        assert_eq!(a, b);
    }
}
