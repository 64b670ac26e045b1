//! End-to-end benchmarks: memory-controller access paths and full
//! simulation slices under each mitigation, plus the ablations DESIGN.md
//! calls out (CAM vs CAT tracker).

use std::hint::black_box;

use bench::harness::Harness;
use rrs::core::tracker::{CamTracker, CatTracker, HotRowTracker, TrackerConfig};
use rrs::dram::geometry::RowAddr;
use rrs::experiments::{ExperimentConfig, MitigationKind};
use rrs::mem_ctrl::controller::{ControllerConfig, MemoryController};
use rrs::mem_ctrl::mitigation::NoMitigation;
use rrs::workloads::catalog::{spec_by_name, Workload};

fn bench_controller_paths(h: &mut Harness) {
    h.bench("controller/row_hit_stream", |b| {
        let mut mc = MemoryController::new(
            ControllerConfig::test_config(),
            Box::new(NoMitigation::new()),
        );
        let mut now = 0;
        let mut col = 0u64;
        b.iter(|| {
            col = (col + 1) % 128;
            now = mc.access(col * 128, false, now);
            black_box(now)
        })
    });
    h.bench("controller/row_miss_pingpong", |b| {
        let mut mc = MemoryController::new(
            ControllerConfig::test_config(),
            Box::new(NoMitigation::new()),
        );
        let mapper = *mc.mapper();
        let a = mapper.row_base(RowAddr::new(0, 0, 0, 100));
        let bb = mapper.row_base(RowAddr::new(0, 0, 0, 500));
        let mut now = 0;
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            now = mc.access(if flip { a } else { bb }, false, now);
            black_box(now)
        })
    });
}

fn bench_mitigated_epochs(h: &mut Harness) {
    // One scaled attack epoch under each mitigation: measures simulator
    // throughput including the defense's bookkeeping.
    let cfg = ExperimentConfig::smoke_test();
    for kind in [
        MitigationKind::None,
        MitigationKind::Rrs,
        MitigationKind::VictimRefresh,
        MitigationKind::BlockHammer512,
    ] {
        h.bench(&format!("attack_epoch/{kind:?}"), |b| {
            b.iter(|| black_box(cfg.run_attack(rrs::workloads::AttackKind::DoubleSided, kind, 1)))
        });
    }
}

fn bench_benign_slice(h: &mut Harness) {
    let cfg = ExperimentConfig::smoke_test().with_instructions(50_000);
    let w = Workload::Single(spec_by_name("sphinx").unwrap());
    for kind in [MitigationKind::None, MitigationKind::Rrs] {
        h.bench(&format!("benign_slice/{kind:?}"), |b| {
            b.iter(|| black_box(cfg.run_workload(&w, kind)))
        });
    }
}

/// Ablation: the Graphene CAM formulation vs the paper's scalable CAT
/// tracker (§6: the CAM "is not scalable beyond a few dozens of entries"
/// in hardware; in software the comparison shows the cost of the SetMin
/// bookkeeping).
fn bench_ablation_trackers(h: &mut Harness) {
    let cfg = TrackerConfig {
        entries: 1_700,
        threshold: 800,
    };
    h.bench("ablation_tracker/cam", |b| {
        b.iter_batched(
            || CamTracker::new(cfg),
            |mut t| {
                let mut row = 0u64;
                for i in 0..5_000u64 {
                    row = (row + 7_919) % 16_384;
                    t.record_access(if i % 3 == 0 { 7 } else { row });
                }
                t
            },
        )
    });
    h.bench("ablation_tracker/cat", |b| {
        b.iter_batched(
            || CatTracker::new(cfg),
            |mut t| {
                let mut row = 0u64;
                for i in 0..5_000u64 {
                    row = (row + 7_919) % 16_384;
                    t.record_access(if i % 3 == 0 { 7 } else { row });
                }
                t
            },
        )
    });
}

fn main() {
    let mut h = Harness::from_args();
    bench_controller_paths(&mut h);
    bench_mitigated_epochs(&mut h);
    bench_benign_slice(&mut h);
    bench_ablation_trackers(&mut h);
    h.finish();
}
