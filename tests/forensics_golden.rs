//! Byte-identity regression for the Perfetto trace exporter.
//!
//! The exporter's output is a contract with external tooling: a file
//! blessed today must load in ui.perfetto.dev forever, and CI diffs of
//! forensics artifacts only work if the bytes are stable. This test
//! replays a small scripted trace that exercises every track the
//! exporter draws — swap lifecycles (matched and unmatched), targeted
//! refreshes, epoch rollovers, HRT/CAT churn, and activations — and
//! compares both the trace itself and its Perfetto export byte-for-byte
//! against the goldens under `tests/golden/`.
//!
//! To re-bless after an *intentional* format change:
//!
//! ```text
//! RRS_BLESS=1 cargo test --release -p rrs-forensics --test forensics_golden
//! ```

use std::path::PathBuf;

use rrs_forensics::{export_trace, parse_jsonl, ExportOptions};
use rrs_json::Json;
use rrs_telemetry::Event;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("tests/golden")
}

/// The scripted trace: two banks, one full swap lifecycle, one unswap,
/// one unmatched SwapStart, plus every non-swap kind the exporter maps.
fn scripted_events() -> Vec<Event> {
    vec![
        Event::EpochRollover { at: 0, epoch: 0 },
        Event::HrtInstall {
            at: 10,
            row: 100,
            count: 8,
        },
        Event::Activation {
            at: 20,
            bank: 0,
            row: 100,
        },
        Event::Activation {
            at: 30,
            bank: 0,
            row: 102,
        },
        Event::SwapStart {
            at: 40,
            bank: 0,
            row_a: 100,
            row_b: 913,
        },
        Event::SwapDone {
            at: 100,
            bank: 0,
            row_a: 100,
            row_b: 913,
        },
        Event::CatRelocation { at: 110, moves: 3 },
        Event::TargetedRefresh {
            at: 120,
            bank: 1,
            row: 55,
        },
        Event::Activation {
            at: 130,
            bank: 1,
            row: 55,
        },
        Event::Unswap {
            at: 140,
            bank: 0,
            row_a: 100,
            row_b: 913,
        },
        Event::FullRefresh { at: 160 },
        // An in-flight swap with no matching SwapDone: exporter must
        // degrade it to an instant, not drop or mispair it.
        Event::SwapStart {
            at: 170,
            bank: 1,
            row_a: 7,
            row_b: 8,
        },
        Event::EpochRollover { at: 200, epoch: 1 },
    ]
}

fn check_golden(label: &str, name: &str, got: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("RRS_BLESS").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, got).expect("write golden");
        eprintln!("blessed {label}: {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with RRS_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        got,
        want,
        "{label}: output differs from committed golden {} — the exporter \
         format changed; if intentional, re-bless",
        path.display()
    );
}

#[test]
fn perfetto_export_matches_golden() {
    // The source trace itself is a golden: event serialization drift
    // would silently re-bless the Perfetto file too.
    let trace: String = scripted_events()
        .iter()
        .map(|e| e.to_json().to_string_compact())
        .collect::<Vec<_>>()
        .join("\n")
        + "\n";
    check_golden("scripted trace", "forensics_small.trace.jsonl", &trace);

    let parsed = parse_jsonl(&trace).expect("golden trace parses");
    let perfetto = export_trace(&parsed.events, &ExportOptions { activations: true });
    check_golden(
        "perfetto export",
        "forensics_small.perfetto.json",
        &perfetto,
    );

    // Structural contract, independent of the byte comparison: the file
    // is valid JSON and every entry carries the trace_event required
    // fields (ph, ts, pid).
    let doc = Json::parse(&perfetto).expect("perfetto export is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    for entry in events {
        let ph = entry
            .get("ph")
            .and_then(|v| v.as_str())
            .unwrap_or_else(|| panic!("entry missing ph: {entry:?}"));
        assert!(matches!(ph, "M" | "X" | "i"), "unknown phase {ph}");
        assert!(entry.get("ts").and_then(|v| v.as_u64()).is_some());
        assert!(entry.get("pid").and_then(|v| v.as_u64()).is_some());
        if ph == "X" {
            assert!(entry.get("dur").and_then(|v| v.as_u64()).is_some());
        }
    }
    // The matched swap is a complete slice spanning SwapStart..SwapDone.
    let swap_slice = events
        .iter()
        .find(|e| {
            e.get("ph").and_then(|v| v.as_str()) == Some("X")
                && e.get("ts").and_then(|v| v.as_u64()) == Some(40)
        })
        .expect("matched swap becomes an X slice");
    assert_eq!(swap_slice.get("dur").and_then(|v| v.as_u64()), Some(60));
}
