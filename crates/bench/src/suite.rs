//! The standard cross-layer benchmark suite behind `rrs bench-report`.
//!
//! One programmatic registry of the operations whose regressions matter:
//! the per-access hardware structures (PRINCE, RIT lookup, tracker
//! update), trace serialization/parsing, telemetry
//! emission, and one end-to-end smoke cell. `rrs bench-report` runs this
//! suite and snapshots the medians into `BENCH_*.json`, so the perf
//! trajectory across PRs is a diffable artifact instead of folklore.
//!
//! The selection deliberately mirrors the `benches/` targets (same names
//! where the operation is the same) but stays small enough for a `--smoke`
//! run in CI.

use std::hint::black_box;

use rrs::core::prince::Prince;
use rrs::core::prng::PrinceCtrRng;
use rrs::core::rrs::{BankRrs, RrsConfig};
use rrs::core::tracker::{CatTracker, HotRowTracker, TrackerConfig};
use rrs::experiments::{ExperimentConfig, MitigationKind};
use rrs::telemetry::{Event, Telemetry};
use rrs_json::Json;

use crate::harness::Harness;

/// Registers the standard suite on `h`.
pub fn standard_suite(h: &mut Harness) {
    bench_prince(h);
    bench_rrs_engine(h);
    bench_telemetry(h);
    bench_json(h);
    bench_sim_cell(h);
}

fn bench_prince(h: &mut Harness) {
    let cipher = Prince::new(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210);
    h.bench("prince/encrypt", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(1);
            black_box(cipher.encrypt(x))
        })
    });
    let mut rng = PrinceCtrRng::new(42);
    h.bench("prng/next_below_128k", |b| {
        b.iter(|| black_box(rng.next_below(128 * 1024)))
    });
}

fn bench_rrs_engine(h: &mut Harness) {
    // Paper-scale bank engine: every activation resolves through the RIT.
    let cfg = RrsConfig::for_threshold(4_800, 1 << 17, 1 << 17);
    let mut bank = BankRrs::new(cfg, 3);
    h.bench("rrs/activation_resolve", |b| {
        let mut row = 0u64;
        b.iter(|| {
            row = (row + 1) % 4096;
            black_box(bank.on_activation(row))
        })
    });
    let tracker_cfg = TrackerConfig {
        entries: 1_700,
        threshold: 800,
    };
    h.bench("tracker/scattered_access", |b| {
        let mut t = CatTracker::new(tracker_cfg);
        let mut row = 0u64;
        b.iter(|| {
            row = row.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            black_box(t.record_access(row >> 40))
        })
    });
}

fn bench_telemetry(h: &mut Harness) {
    // Emission on a live spine: the per-event cost of tracing a run.
    h.bench("telemetry/emit_traced", |b| {
        let spine = Telemetry::with_trace(1 << 12);
        let mut at = 0u64;
        b.iter(|| {
            at += 1;
            spine.emit(Event::Activation {
                at,
                bank: at % 16,
                row: at % 4096,
            });
        })
    });
    // The disabled fast path (one branch) — must stay near-free.
    h.bench("telemetry/emit_disabled", |b| {
        let spine = Telemetry::new();
        let mut at = 0u64;
        b.iter(|| {
            at += 1;
            spine.emit(Event::Activation {
                at,
                bank: 0,
                row: 0,
            });
        })
    });
}

fn bench_json(h: &mut Harness) {
    let line = "{\"kind\":\"swap_start\",\"at\":123456,\"bank\":7,\"row_a\":100,\"row_b\":90000}";
    h.bench("json/parse_event_line", |b| {
        b.iter(|| black_box(Json::parse(line).unwrap()))
    });
    let event = Event::SwapStart {
        at: 123_456,
        bank: 7,
        row_a: 100,
        row_b: 90_000,
    };
    h.bench("json/serialize_event", |b| {
        b.iter(|| black_box(event.to_json().to_string_compact()))
    });
}

fn bench_sim_cell(h: &mut Harness) {
    // One tiny end-to-end attack cell: catches regressions that only
    // appear when all layers interact.
    let mut cfg = ExperimentConfig::smoke_test();
    cfg.instructions_per_core = 5_000;
    h.bench("sim/smoke_attack_cell", |b| {
        b.iter(|| {
            black_box(cfg.run_attack(
                rrs::workloads::AttackKind::DoubleSided,
                MitigationKind::Rrs,
                1,
            ))
        })
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_registers_and_runs_quick() {
        let mut h = Harness::programmatic(true);
        standard_suite(&mut h);
        assert!(h.records().len() >= 8, "suite covers the layers");
        let mut names: Vec<&str> = h.records().iter().map(|r| r.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), h.records().len(), "bench names are unique");
        assert!(h.records().iter().all(|r| r.ns_per_iter > 0.0));
    }
}
