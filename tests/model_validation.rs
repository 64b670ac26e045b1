//! Cross-validation between the analytic models (`rrs-analysis`) and the
//! executable structures (`rrs-core`, the memory controller): the models
//! must describe the same system the simulator runs.

use rrs::analysis::attack_model::AttackModel;
use rrs::analysis::cat_model::CatModel;
use rrs::analysis::storage::table5;
use rrs::core::cat::{Cat, CatConfig};
use rrs::core::rrs::RrsConfig;
use rrs::dram::geometry::RowAddr;
use rrs::dram::timing::{Cycle, TimingParams};
use rrs::experiments::ExperimentConfig;
use rrs::mem_ctrl::controller::{ControllerConfig, MemoryController, PagePolicy};
use rrs::mem_ctrl::mitigation::MitigationAction;
use rrs::Mitigation;

/// Swaps, then immediately unswaps, the activated row every `t`
/// activations: the single-bank attack §5.3.1's duty cycle describes.
struct SwapEvery {
    t: u64,
    activations: u64,
}

impl Mitigation for SwapEvery {
    fn name(&self) -> &str {
        "swap-every"
    }

    fn on_activation(&mut self, row: RowAddr, _at: Cycle, actions: &mut Vec<MitigationAction>) {
        self.activations += 1;
        if self.activations.is_multiple_of(self.t) {
            let (a, b) = (row, row.with_row(row.row.0 ^ 1));
            actions.push(MitigationAction::RowSwap { a, b });
            actions.push(MitigationAction::RowUnswap { a, b });
        }
    }
}

#[test]
fn analytic_duty_cycle_matches_controller_swap_accounting() {
    // §5.3.1's D = 0.925: hammer one row under a closed page so every
    // access activates, swap+unswap every T_RRS = 800 activations, and
    // compare the controller's measured busy fraction.
    let mut config = ControllerConfig::asplos22_baseline();
    config.page_policy = PagePolicy::Closed;
    let mut mc = MemoryController::new(
        config,
        Box::new(SwapEvery {
            t: 800,
            activations: 0,
        }),
    );
    let mut now = 0;
    for _ in 0..200 * 800 {
        now = mc.access(0, false, now);
    }
    let stats = mc.stats();
    assert_eq!((stats.swaps, stats.unswaps), (200, 200));
    let measured_d = 1.0 - stats.swap_busy_cycles as f64 / now as f64;
    let analytic_d = AttackModel::asplos22().duty_cycle(800);
    assert!(
        (measured_d - analytic_d).abs() < 0.01,
        "measured D = {measured_d}, analytic D = {analytic_d}"
    );
}

#[test]
fn table4_attack_times_match_paper_orders_of_magnitude() {
    let model = AttackModel::asplos22();
    let rows = model.table4();
    // Paper Table 4: 9.3e6 / 1.9e9 / 3.8e11 iterations.
    let expect = [(960u64, 9.3e6), (800, 1.9e9), (685, 3.8e11)];
    for (row, (t, iters)) in rows.iter().zip(expect) {
        assert_eq!(row.t, t);
        let ratio = row.attack_iterations / iters;
        assert!(
            (0.3..3.0).contains(&ratio),
            "T={t}: {:.2e} vs paper {iters:.1e}",
            row.attack_iterations
        );
    }
}

#[test]
fn real_cat_structure_matches_conflict_model_qualitatively() {
    // With the paper's 6 extra ways, the executable CAT sustains far more
    // steady-state installs than attackers can issue; with 0 extra ways it
    // conflicts quickly — the Figure 9 contrast, on the real structure.
    let run = |extra: usize, installs: u64| -> Option<u64> {
        let mut cat: Cat<u32> = Cat::new(CatConfig {
            sets: 64,
            demand_ways: 14,
            extra_ways: extra,
            hash_seed: 0x715,
        });
        let capacity = cat.capacity();
        let mut x = 9u64;
        let mut next_tag = 0u64;
        for i in 0..installs {
            if cat.len() >= capacity {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let victim = cat.nth_entry((x >> 33) as usize).map(|(t, _)| t).unwrap();
                cat.remove(victim);
            }
            next_tag += 1;
            if cat.insert(next_tag, 0).is_err() {
                return Some(i);
            }
        }
        None
    };
    let conflict_free = run(6, 200_000);
    assert_eq!(conflict_free, None, "6 extra ways conflicted");
    let conflict_poor = run(0, 200_000);
    assert!(conflict_poor.is_some(), "0 extra ways never conflicted");
}

#[test]
fn monte_carlo_conflict_model_orders_extra_ways() {
    let m = CatModel::figure9();
    let e1 = m.mean_installs_to_conflict(1, 3, 3_000_000, 5);
    let e2 = m.mean_installs_to_conflict(2, 3, 3_000_000, 5);
    assert!(
        e2.mean_installs > 3.0 * e1.mean_installs,
        "e1 = {}, e2 = {}",
        e1.mean_installs,
        e2.mean_installs
    );
}

#[test]
fn storage_model_matches_design_point_structures() {
    // Table 5's entry counts must equal the shapes the executable design
    // actually allocates at the paper's design point.
    let config = RrsConfig::asplos22();
    let t5 = table5();
    // Tracker: 1700 entries fit in the 2x64x20 CAT.
    assert!(config.tracker_entries <= CatConfig::tracker_asplos22().capacity());
    // RIT: 3400 tuples = 6800 directed entries fit in 2x256x20.
    assert!(2 * config.rit_tuples <= CatConfig::rit_asplos22().capacity());
    // Published totals.
    assert!((t5.total_kib_per_bank() - 42.9).abs() < 1.0);
}

#[test]
fn swap_latency_model_matches_timing_derivation() {
    // §4.4's 1.46 µs swap is a TimingParams derivation; at paper scale it
    // is exactly what the controller charges per swap. RowClone (§8.1)
    // replaces it with four in-DRAM row copies of one row cycle each.
    let paper_scale = ExperimentConfig {
        scale: 1,
        ..ExperimentConfig::default()
    };
    let t = TimingParams::ddr4_3200();
    let buffered = paper_scale.system_config().controller.swap_cycles;
    assert_eq!(buffered, t.row_swap_cycles(8 * 1024));
    let rowclone = paper_scale
        .with_rowclone()
        .system_config()
        .controller
        .swap_cycles;
    assert_eq!(rowclone, 4 * t.t_rc);
    assert!(rowclone * 4 < buffered, "RowClone must be much faster");
}

#[test]
fn scaled_configs_preserve_design_ratios() {
    // The scaling machinery must keep entries/tuples identical across
    // scales (they depend only on ratios).
    let full = RrsConfig::for_threshold(4_800, 1_360_000, 128 * 1024);
    let scaled = RrsConfig::for_threshold(4_800 / 32, 1_360_000 / 32, 128 * 1024);
    assert_eq!(full.tracker_entries, scaled.tracker_entries);
    assert_eq!(full.rit_tuples, scaled.rit_tuples);
    assert_eq!(full.k(), scaled.k());
}
