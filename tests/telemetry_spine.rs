//! Integration tests for the telemetry spine: observation must be
//! deterministic and must not perturb the experiment.
//!
//! The spine's two contracts, end to end:
//!
//! 1. **Non-perturbation** — a run on a tracing spine produces a
//!    [`SimResult`] byte-identical (via its canonical JSON), bit flips
//!    included, to the same run on the default null spine.
//! 2. **Determinism** — two tracing runs of the same cell produce the
//!    same JSON-lines trace, byte for byte.

use std::collections::BTreeMap;

use rrs::campaign::{Campaign, CellAction, RunOptions};
use rrs::experiments::{ExperimentConfig, MitigationKind};
use rrs::sim::SimResult;
use rrs::telemetry::{Telemetry, DEFAULT_TRACE_CAPACITY};
use rrs::workloads::catalog::{spec_by_name, Workload};
use rrs::workloads::AttackKind;
use rrs_json::ToJson;

fn canonical(result: &SimResult) -> String {
    result.to_json().to_string_pretty()
}

fn smoke_workload() -> Workload {
    Workload::Single(spec_by_name("hmmer").expect("hmmer is in the catalog"))
}

/// The smoke workload under RRS, run on a fresh tracing spine.
fn traced_smoke_run() -> (SimResult, Telemetry) {
    let spine = Telemetry::with_trace(DEFAULT_TRACE_CAPACITY);
    let result = ExperimentConfig::smoke_test()
        .prepare(CellAction::Workload(smoke_workload()), MitigationKind::Rrs)
        .run(&spine);
    (result, spine)
}

#[test]
fn tracing_does_not_perturb_the_result() {
    let cfg = ExperimentConfig::smoke_test();
    let plain = cfg.run_workload(&smoke_workload(), MitigationKind::Rrs);
    let (probed, spine) = traced_smoke_run();
    assert_eq!(
        canonical(&plain),
        canonical(&probed),
        "a tracing spine must not change the simulation outcome"
    );
    assert!(spine.events_recorded() > 0, "the run must emit events");

    // An undefended attack flips bits: its flips, too, must come out of a
    // tracing run unchanged.
    let kind = AttackKind::DoubleSided;
    let mut plain = cfg.run_attack(kind, MitigationKind::None, 1);
    assert!(plain.attack_succeeded(), "undefended memory must flip");
    plain.result.bit_flips = plain.bit_flips;
    let spine = Telemetry::with_trace(DEFAULT_TRACE_CAPACITY);
    let probed = cfg
        .prepare(CellAction::Attack { kind, epochs: 1 }, MitigationKind::None)
        .run(&spine);
    assert_eq!(
        canonical(&plain.result),
        canonical(&probed),
        "a tracing spine must not change the attack outcome or its flips"
    );
}

#[test]
fn trace_is_deterministic_across_runs() {
    let (ra, a) = traced_smoke_run();
    let (rb, b) = traced_smoke_run();
    assert_eq!(canonical(&ra), canonical(&rb));
    let trace = a.trace_jsonl().expect("tracing spine records a trace");
    assert!(!trace.is_empty());
    assert_eq!(
        trace,
        b.trace_jsonl().unwrap(),
        "same seed must reproduce the trace byte for byte"
    );
    assert_eq!(a.counters(), b.counters());
    assert_eq!(a.event_kind_counts(), b.event_kind_counts());
}

#[test]
fn spine_counters_mirror_controller_stats() {
    let (result, spine) = traced_smoke_run();
    let counters: BTreeMap<String, u64> = spine.counters().into_iter().collect();
    let get = |name: &str| {
        *counters
            .get(name)
            .unwrap_or_else(|| panic!("counter {name:?} must be registered"))
    };
    // Every counter field of the stats block is its `ctrl.*` counter.
    let rrs_json::Json::Obj(fields) = result.stats.to_json() else {
        panic!("stats serialize as an object");
    };
    for (name, value) in fields.iter().filter_map(|(n, v)| Some((n, v.as_u64()?))) {
        assert_eq!(get(&format!("ctrl.{name}")), value, "{name}");
    }
    assert!(get("ctrl.activations") > 0);
    // RRS's tracker publishes installs/evicts on the spine once attached.
    assert!(get("hrt.installs") > 0, "RRS must install hot rows");
}

#[test]
fn read_latency_is_the_registry_histogram() {
    let (result, spine) = traced_smoke_run();
    let snapshot = spine.snapshot_json();
    let registry = snapshot
        .get("histograms")
        .and_then(|h| h.get("sim.read_latency"))
        .expect("the runner registers sim.read_latency");
    assert!(result.read_latency.count() > 0, "the run must serve reads");
    assert_eq!(
        result.read_latency.to_json().to_string_compact(),
        registry.to_string_compact(),
        "a result's read latency is the registry histogram, written once"
    );
}

#[test]
fn attack_trace_records_swap_events() {
    let cfg = ExperimentConfig::smoke_test();
    let spine = Telemetry::with_trace(DEFAULT_TRACE_CAPACITY);
    let kind = AttackKind::DoubleSided;
    let result = cfg
        .prepare(CellAction::Attack { kind, epochs: 1 }, MitigationKind::Rrs)
        .run(&spine);
    assert!(result.bit_flips.is_empty(), "RRS must defend");
    let kinds: BTreeMap<&'static str, u64> = spine.event_kind_counts().into_iter().collect();
    assert!(kinds.get("activation").copied().unwrap_or(0) > 0);
    assert!(
        kinds.get("hrt_install").copied().unwrap_or(0) > 0,
        "a hammering aggressor must enter the hot-row tracker"
    );
    assert!(
        kinds.get("epoch_rollover").copied().unwrap_or(0) > 0,
        "a full epoch must roll over"
    );
}

#[test]
fn campaign_trace_mode_writes_trace_and_report() {
    let dir = std::env::temp_dir().join("rrs_spine_campaign");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ExperimentConfig::smoke_test();

    // Populate the result cache first, so the traced run below proves it
    // re-simulates (cached JSON carries no trace).
    let mut campaign = Campaign::new();
    let cell = campaign.workload(cfg, smoke_workload(), MitigationKind::Rrs);
    let warm_run = campaign.run(&RunOptions::quiet().with_out_dir(&dir));
    let id = &warm_run.outcomes()[cell].id;
    let trace_path = dir.join(format!("{id}.trace.jsonl"));
    assert!(!trace_path.exists(), "untraced runs write no trace");

    let run = campaign.run(&RunOptions::quiet().with_out_dir(&dir).with_trace());
    assert!(
        !run.outcomes()[cell].from_cache,
        "tracing must bypass the result cache"
    );

    // The saved trace lands next to the cached result, header first, and
    // holds every event the ring retained.
    let on_disk = std::fs::read_to_string(&trace_path).expect("trace file written");
    let parsed = rrs::forensics::parse_jsonl(&on_disk).expect("trace re-parses");
    let header = parsed.header.expect("campaign traces carry a trace_header");
    assert_eq!(header.capacity, DEFAULT_TRACE_CAPACITY as u64);
    assert_eq!(
        parsed.events.len() as u64,
        header.events_recorded - header.events_dropped
    );

    // ... and so does its exposure report: a complete trace of RRS passes.
    let forensics_path = dir.join(format!("{id}.forensics.json"));
    let report = std::fs::read_to_string(&forensics_path).expect("forensics file written");
    let report = rrs_json::Json::parse(&report).expect("forensics file is JSON");
    assert_eq!(header.events_dropped, 0, "the smoke cell fits the ring");
    assert_eq!(report.get("verdict").and_then(|v| v.as_str()), Some("pass"));
}

#[test]
fn trace_lines_are_well_formed_json_objects() {
    let (_, spine) = traced_smoke_run();
    let trace = spine.trace_jsonl().unwrap();
    for line in trace.lines() {
        let parsed = rrs_json::Json::parse(line)
            .unwrap_or_else(|e| panic!("unparseable trace line {line:?}: {e}"));
        assert!(
            matches!(parsed, rrs_json::Json::Obj(_)),
            "each event is a JSON object"
        );
        assert!(parsed.get("kind").and_then(|k| k.as_str()).is_some());
        assert!(parsed.get("at").and_then(|a| a.as_u64()).is_some());
    }
}
