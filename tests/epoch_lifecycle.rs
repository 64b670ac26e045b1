//! Epoch life-cycle integration tests: tracker reset, RIT lock discipline,
//! lazy drain, and the detector escalation path, across multiple refresh
//! windows of the full controller stack (§4.1, §4.3, §5.3.2 fn. 2).

use rrs::core::detector::DetectorConfig;
use rrs::core::rrs::RrsConfig;
use rrs::dram::geometry::{DramGeometry, RowAddr};
use rrs::dram::hammer::HammerConfig;
use rrs::dram::timing::TimingParams;
use rrs::mem_ctrl::controller::{ControllerConfig, MemoryController};
use rrs::mitigations::RrsMitigation;

fn controller_with_rrs(detector: bool) -> MemoryController {
    let geometry = DramGeometry::tiny_test();
    let timing = TimingParams::ddr4_3200().with_epoch_scale(800); // 80 µs epochs
    let mut rrs_cfg = RrsConfig::for_threshold(
        6 * 10,
        timing.max_activations_per_epoch(),
        geometry.rows_per_bank as u64,
    );
    if detector {
        rrs_cfg = rrs_cfg.with_detector(DetectorConfig {
            swaps_per_row_alarm: 3,
        });
    }
    let cfg = ControllerConfig {
        swap_cycles: timing.row_swap_cycles(geometry.row_size_bytes),
        geometry,
        timing,
        hammer: HammerConfig::for_threshold(60),
        act_stat_threshold: 10,
    };
    MemoryController::new(cfg, Box::new(RrsMitigation::new(rrs_cfg, geometry)))
}

/// Hammers `row` (alternating with a partner to force activations) for
/// `count` activations each, returning the final time.
fn hammer(mc: &mut MemoryController, row: u32, partner: u32, count: u32, mut now: u64) -> u64 {
    let mapper = *mc.mapper();
    let a = mapper.row_base(RowAddr::new(0, 0, 0, row));
    let b = mapper.row_base(RowAddr::new(0, 0, 0, partner));
    for _ in 0..count {
        now = mc.access(a, false, now);
        now = mc.access(b, false, now);
    }
    now
}

#[test]
fn epochs_complete_and_record_swap_history() {
    let mut mc = controller_with_rrs(false);
    let epoch = mc.config().timing.epoch;
    let mut now = 0;
    for _ in 0..3 {
        now = hammer(&mut mc, 100, 300, 40, now);
        now = (now / epoch + 1) * epoch + 1;
        mc.advance_to(now);
    }
    assert!(mc.stats().epochs_completed >= 3);
    let swaps: u64 = mc.stats().epoch_swap_history.iter().sum();
    assert!(swaps > 0, "hammering across epochs must swap");
}

#[test]
fn mapping_persists_across_epochs_without_bulk_unswap() {
    // §4.3: "We do not do a bulk reset for the RIT". After an epoch
    // boundary the hammered row must still resolve to its swapped location,
    // observable as continued redirection (no unswap storm).
    let mut mc = controller_with_rrs(false);
    let epoch = mc.config().timing.epoch;
    let now = hammer(&mut mc, 100, 300, 40, 0);
    let swaps_before = mc.stats().swaps;
    let unswaps_before = mc.stats().unswaps;
    assert!(swaps_before > 0);
    mc.advance_to((now / epoch + 1) * epoch + 1);
    // Crossing the boundary does not unswap anything by itself.
    assert_eq!(mc.stats().unswaps, unswaps_before);
}

#[test]
fn tracker_resets_each_epoch() {
    // Activations below T_RRS in each of two epochs never swap, even
    // though their sum exceeds T_RRS — the tracker is epoch-scoped (§4.1).
    let mut mc = controller_with_rrs(false);
    let epoch = mc.config().timing.epoch;
    let mut now = hammer(&mut mc, 100, 300, 4, 0); // 4 < T_RRS = 10
    now = (now / epoch + 1) * epoch + 1;
    mc.advance_to(now);
    hammer(&mut mc, 100, 300, 4, now);
    assert_eq!(mc.stats().swaps, 0, "epoch-scoped counting must not swap");
}

#[test]
fn detector_escalates_to_full_refresh_under_repeated_reswaps() {
    let mut mc = controller_with_rrs(true);
    // Re-hammer one row far past several swap thresholds within one epoch.
    hammer(&mut mc, 100, 300, 200, 0);
    assert!(
        mc.stats().full_refreshes > 0,
        "detector must trigger a preemptive full refresh"
    );
    assert!(mc.take_bit_flips().is_empty());
}

#[test]
fn epoch_hot_row_statistic_is_recorded_per_epoch() {
    let mut mc = controller_with_rrs(false);
    let epoch = mc.config().timing.epoch;
    let now = hammer(&mut mc, 100, 300, 30, 0); // 30 >= act threshold 10
    mc.advance_to((now / epoch + 1) * epoch + 1);
    let hist = &mc.stats().epoch_hot_row_history;
    assert!(!hist.is_empty());
    assert!(
        hist[0] >= 2,
        "both hammered rows crossed the ACT threshold: {hist:?}"
    );
}

#[test]
fn swap_time_is_bounded_fraction_of_epoch_for_benign_rates() {
    // Figure 5's framing: ~68 swaps of 2.9 µs is ~0.1 ms of 64 ms. A
    // benign mixture (many warm rows below T_RRS, one hot pair) must keep
    // swap-busy cycles a small fraction of the elapsed time.
    let mut mc = controller_with_rrs(false);
    let mut now = 0;
    for pair in 0..50u32 {
        now = hammer(&mut mc, 10 + 4 * pair, 500 + 4 * pair, 4, now);
    }
    now = hammer(&mut mc, 100, 300, 12, now);
    let frac = mc.stats().swap_busy_cycles as f64 / now as f64;
    assert!(mc.stats().swaps > 0);
    assert!(frac < 0.3, "swap busy fraction = {frac}");
}
