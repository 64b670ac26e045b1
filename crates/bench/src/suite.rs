//! The micro-benchmark registry: every bench in the repo, once, under one
//! name, in two tiers.
//!
//! - [`smoke`] is what `rrs bench-report` snapshots into `BENCH_*.json`
//!   and CI gates: the per-access hardware structures (PRINCE, RIT
//!   resolve, tracker update), telemetry emission, event serialization,
//!   and one end-to-end smoke cell. It stays small enough to run inside
//!   the debug test suite.
//! - [`full`] is what `cargo bench -p bench` runs: the smoke tier plus the
//!   CAT and RIT primitives, controller access paths, attack epochs and
//!   benign slices under each defense, the CAM vs CAT tracker ablation,
//!   telemetry primitives, and campaign-engine scaling. Some of these take
//!   seconds per iteration in a debug build.

use std::hint::black_box;

use rrs::campaign::{Campaign, CellAction, RunOptions};
use rrs::core::cat::{Cat, CatConfig};
use rrs::core::prince::Prince;
use rrs::core::prng::PrinceCtrRng;
use rrs::core::rit::RowIndirectionTable;
use rrs::core::rrs::{BankRrs, RrsConfig};
use rrs::core::tracker::{CamTracker, CatTracker, HotRowTracker, TrackerConfig};
use rrs::dram::geometry::RowAddr;
use rrs::experiments::{ExperimentConfig, MitigationKind};
use rrs::mem_ctrl::controller::{ControllerConfig, MemoryController};
use rrs::mem_ctrl::mitigation::NoMitigation;
use rrs::telemetry::{Event, Telemetry, DEFAULT_TRACE_CAPACITY};
use rrs::workloads::catalog::{spec_by_name, table3_workloads, Workload};
use rrs::workloads::AttackKind;

use crate::harness::Harness;

/// The Graphene-sized tracker every tracker bench uses.
const TRACKER: TrackerConfig = TrackerConfig {
    entries: 1_700,
    threshold: 800,
};

/// Registers the smoke tier (the benches `rrs bench-report` snapshots).
pub fn smoke(h: &mut Harness) {
    bench_prince(h);
    bench_rrs_engine(h);
    bench_telemetry(h);
    bench_json(h);
    bench_sim_cell(h);
}

/// Registers every bench: the smoke tier, then the rest.
pub fn full(h: &mut Harness) {
    smoke(h);
    bench_structures(h);
    bench_controller_paths(h);
    bench_attack_epochs(h);
    bench_sim_slices(h);
    bench_ablation_trackers(h);
    bench_telemetry_primitives(h);
    bench_campaign(h);
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
    h.bench("tracker/scattered_access", |b| {
        let mut t = CatTracker::new(TRACKER);
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
    // One tiny end-to-end attack cell under RRS: catches regressions that
    // only appear when all layers interact.
    let cfg = ExperimentConfig::smoke_test();
    h.bench("sim/smoke_attack_cell", |b| {
        b.iter(|| black_box(cfg.run_attack(AttackKind::DoubleSided, MitigationKind::Rrs, 1)))
    });
}

/// The RRS hardware structures the paper budgets beyond the smoke tier:
/// PRINCE decryption, CAT lookup and install, the tracker's hot-row hit,
/// RIT resolve and swap, and the bank engine with and without swaps.
fn bench_structures(h: &mut Harness) {
    let cipher = Prince::new(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210);
    h.bench("prince/decrypt", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(1);
            black_box(cipher.decrypt(x))
        })
    });

    // The paper's RIT shape: 2 tables x 256 sets x 20 ways.
    let mut cat: Cat<u64> = Cat::new(CatConfig::rit_asplos22());
    for tag in 0..6_000u64 {
        cat.insert(tag, tag).unwrap();
    }
    h.bench("cat/lookup_hit", |b| {
        let mut tag = 0u64;
        b.iter(|| {
            tag = (tag + 1) % 6_000;
            black_box(cat.get(tag))
        })
    });
    h.bench("cat/lookup_miss", |b| {
        let mut tag = 1_000_000u64;
        b.iter(|| {
            tag += 1;
            black_box(cat.get(tag))
        })
    });
    h.bench("cat/insert_remove", |b| {
        let mut tag = 2_000_000u64;
        b.iter(|| {
            tag += 1;
            cat.insert(tag, 0).unwrap();
            black_box(cat.remove(tag))
        })
    });

    h.bench("tracker/hot_row_access", |b| {
        let mut t = CatTracker::new(TRACKER);
        b.iter(|| black_box(t.record_access(7)))
    });

    h.bench("rit/resolve_mapped", |b| {
        let mut rit = RowIndirectionTable::new(3_400, 0x1234);
        for i in 0..1_000u64 {
            rit.swap(i, 100_000 + i).unwrap();
        }
        let mut row = 0u64;
        b.iter(|| {
            row = (row + 1) % 1_000;
            black_box(rit.resolve(row))
        })
    });
    h.bench("rit/swap_and_back", |b| {
        let mut rit = RowIndirectionTable::new(3_400, 0x5678);
        b.iter(|| {
            rit.swap(1, 2).unwrap();
            black_box(rit.swap(1, 2).unwrap())
        })
    });

    let cfg = RrsConfig::asplos22();
    h.bench("bank_rrs/activation_cold", |b| {
        let mut bank = BankRrs::new(cfg, 0);
        let mut row = 0u64;
        b.iter(|| {
            row = (row + 9_973) % 131_072;
            black_box(bank.on_activation(row))
        })
    });
    h.bench("bank_rrs/hammer_with_swaps", |b| {
        b.iter_batched(
            || BankRrs::new(cfg, 0),
            |mut bank| {
                for _ in 0..1_600 {
                    black_box(bank.on_activation(7));
                }
                bank
            },
        )
    });
}

fn bench_controller_paths(h: &mut Harness) {
    let controller = || {
        MemoryController::new(
            ControllerConfig::test_config(),
            Box::new(NoMitigation::new()),
        )
    };
    h.bench("controller/row_hit_stream", |b| {
        let mut mc = controller();
        let mut now = 0;
        let mut col = 0u64;
        b.iter(|| {
            col = (col + 1) % 128;
            now = mc.access(col * 128, false, now);
            black_box(now)
        })
    });
    h.bench("controller/row_miss_pingpong", |b| {
        let mut mc = controller();
        let mapper = *mc.mapper();
        let a = mapper.row_base(RowAddr::new(0, 0, 0, 100));
        let c = mapper.row_base(RowAddr::new(0, 0, 0, 500));
        let mut now = 0;
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            now = mc.access(if flip { a } else { c }, false, now);
            black_box(now)
        })
    });
}

/// One scaled attack epoch under each defense: simulator throughput
/// including the defense's bookkeeping. RRS is `sim/smoke_attack_cell`.
fn bench_attack_epochs(h: &mut Harness) {
    let cfg = ExperimentConfig::smoke_test();
    for kind in [
        MitigationKind::None,
        MitigationKind::VictimRefresh,
        MitigationKind::BlockHammer512,
    ] {
        h.bench(&format!("attack_epoch/{kind:?}"), |b| {
            b.iter(|| black_box(cfg.run_attack(AttackKind::DoubleSided, kind, 1)))
        });
    }
}

/// A 50 k-instruction sphinx slice, undefended and under RRS. The RRS
/// slice runs on a null spine (`sim/null_spine`, the path every untraced
/// caller takes) and on a tracing one (`sim/traced_spine`, the opt-in
/// cost of full event recording).
fn bench_sim_slices(h: &mut Harness) {
    let cfg = ExperimentConfig::smoke_test().with_instructions(50_000);
    let w = Workload::Single(spec_by_name("sphinx").unwrap());
    h.bench("benign_slice/None", |b| {
        b.iter(|| black_box(cfg.run_workload(&w, MitigationKind::None)))
    });
    h.bench("sim/null_spine", |b| {
        b.iter(|| black_box(cfg.run_workload(&w, MitigationKind::Rrs)))
    });
    h.bench("sim/traced_spine", |b| {
        b.iter(|| {
            let t = Telemetry::with_trace(DEFAULT_TRACE_CAPACITY);
            let cell = cfg.prepare(CellAction::Workload(w), MitigationKind::Rrs);
            black_box(cell.run(&t))
        })
    });
}

/// Ablation: the Graphene CAM formulation vs the paper's scalable CAT
/// tracker (§6: the CAM "is not scalable beyond a few dozens of entries"
/// in hardware; in software the comparison shows the cost of the SetMin
/// bookkeeping).
fn bench_ablation_trackers(h: &mut Harness) {
    fn hot_and_scattered<T: HotRowTracker>(mut t: T) -> T {
        let mut row = 0u64;
        for i in 0..5_000u64 {
            row = (row + 7_919) % 16_384;
            t.record_access(if i % 3 == 0 { 7 } else { row });
        }
        t
    }
    h.bench("ablation_tracker/cam", |b| {
        b.iter_batched(|| CamTracker::new(TRACKER), hot_and_scattered)
    });
    h.bench("ablation_tracker/cat", |b| {
        b.iter_batched(|| CatTracker::new(TRACKER), hot_and_scattered)
    });
}

/// What each probe site pays with tracing off (the spine's contract is
/// that a disabled spine costs nothing measurable), and the counter and
/// histogram updates every layer makes.
fn bench_telemetry_primitives(h: &mut Harness) {
    h.bench("telemetry/counter_inc", |b| {
        let t = Telemetry::new();
        let c = t.counter("bench.counter");
        b.iter(|| {
            c.inc();
            black_box(c.get())
        })
    });
    h.bench("telemetry/histogram_record", |b| {
        let t = Telemetry::new();
        let hist = t.histogram("bench.histogram");
        let mut v = 0u64;
        b.iter(|| {
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            hist.record(v >> 32);
            black_box(hist.count())
        })
    });
    // The hot-path pattern is `if telemetry.tracing() { emit(...) }`, so
    // the disabled cost every instrumented site pays is one flag load.
    h.bench("telemetry/tracing_check_disabled", |b| {
        let t = Telemetry::new();
        let mut at = 0u64;
        b.iter(|| {
            at += 1;
            if t.tracing() {
                t.emit(Event::Refresh { at });
            }
            black_box(at)
        })
    });
}

/// Campaign-engine scaling: one smoke-scale grid (8 workloads x {none,
/// rrs} = 16 independent cells) on one thread and on every available
/// core. The ratio of the two medians is the parallel speedup.
fn bench_campaign(h: &mut Harness) {
    let mut cfg = ExperimentConfig::smoke_test();
    cfg.instructions_per_core = 60_000;
    let mut campaign = Campaign::new();
    for w in table3_workloads().into_iter().take(8) {
        campaign.normalized_pair(cfg, w, MitigationKind::Rrs);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for (name, threads) in [("campaign/serial", 1), ("campaign/parallel", cores)] {
        let opts = RunOptions::quiet().with_threads(threads);
        h.bench(name, |b| b.iter(|| black_box(campaign.run(&opts))));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Entries of the committed CI baseline whose benches were deleted.
    const RETIRED: [&str; 2] = ["swap/record_swap_of", "json/parse_event_line"];

    fn names(h: &Harness) -> Vec<&str> {
        h.records().iter().map(|r| r.name.as_str()).collect()
    }

    fn assert_unique(h: &Harness) {
        let mut sorted = names(h);
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), h.records().len(), "bench names are unique");
    }

    #[test]
    fn suite_registers_and_runs_quick() {
        let mut h = Harness::programmatic(true);
        smoke(&mut h);
        assert!(h.records().len() >= 8, "suite covers the layers");
        assert_unique(&h);
        assert!(h.records().iter().all(|r| r.ns_per_iter > 0.0));
        // A rename must not silently un-gate a baseline entry.
        let baseline = rrs_json::Json::parse(include_str!("../../../BENCH_PR5.json")).unwrap();
        let Some(rrs_json::Json::Obj(gated)) = baseline.get("benches") else {
            panic!("BENCH_PR5.json has no benches object");
        };
        let run = names(&h);
        for (name, _) in gated {
            assert!(
                run.contains(&name.as_str()) || RETIRED.contains(&name.as_str()),
                "{name} is gated by BENCH_PR5.json but the smoke tier does not run it"
            );
        }
    }

    /// The full tier takes about a minute unoptimized (attack epochs
    /// under the ghost-state audits), so only optimized builds run it.
    #[cfg(not(debug_assertions))]
    #[test]
    fn full_tier_runs_quick_with_unique_names() {
        let mut h = Harness::programmatic(true);
        full(&mut h);
        assert_unique(&h);
        for r in h.records() {
            assert!(r.ns_per_iter > 0.0, "{} has no median", r.name);
        }
    }
}
