//! Property-based tests for the DRAM substrate: geometry, timing, bank
//! state machine, and the Row Hammer fault model.

use rrs_check::check;
use rrs_dram::bank::Bank;
use rrs_dram::geometry::{DramGeometry, RowAddr, RowId};
use rrs_dram::hammer::{HammerConfig, HammerModel};
use rrs_dram::timing::TimingParams;

/// Neighbour relations are symmetric: if `b` is a distance-d neighbour
/// of `a`, then `a` is a distance-d neighbour of `b`.
#[test]
fn neighbors_are_symmetric() {
    check(|g| {
        let row = g.u32_in(0..1024);
        let d = g.u32_in(1..4);
        let geom = DramGeometry::tiny_test();
        let a = RowAddr::new(0, 0, 0, row);
        for n in a.neighbors(d, &geom) {
            assert!(
                n.neighbors(d, &geom).any(|m| m == a),
                "{} -> {} not symmetric",
                a,
                n
            );
        }
    });
}

/// Epoch scaling divides ACT_max proportionally (within rounding) for
/// every admissible scale — the foundation of the scaled experiments.
#[test]
fn act_max_scales_with_epoch() {
    check(|g| {
        let scale = g.u64_in(1..1000);
        let base = TimingParams::ddr4_3200();
        let scaled = base.with_epoch_scale(scale);
        let expected = base.max_activations_per_epoch() / scale;
        let got = scaled.max_activations_per_epoch();
        // Refresh-slot rounding causes at most a per-mille wobble plus a
        // small absolute slack at tiny epochs.
        let tolerance = expected / 100 + 200;
        assert!(
            got.abs_diff(expected) <= tolerance,
            "scale {}: got {}, expected ~{}",
            scale,
            got,
            expected
        );
    });
}

/// The bank never issues two activations closer than tRC, no matter
/// what access sequence it serves.
#[test]
fn bank_respects_trc() {
    check(|g| {
        let rows = g.vec(2..100, |g| g.u32_in(0..64));
        let timing = TimingParams::ddr4_3200();
        let mut bank = Bank::new(timing);
        let mut last_act: Option<u64> = None;
        let mut now = 0;
        for row in rows {
            let out = bank.access(RowId(row), now);
            if let Some(at) = out.activated_at {
                if let Some(prev) = last_act {
                    assert!(
                        at >= prev + timing.t_rc,
                        "ACTs {} and {} violate tRC",
                        prev,
                        at
                    );
                }
                last_act = Some(at);
            }
            now = out.data_at;
        }
    });
}

/// Bank timestamps are monotone: data never returns before it was
/// requested, and later requests never complete earlier than the
/// request time.
#[test]
fn bank_data_time_is_causal() {
    check(|g| {
        let rows = g.vec(1..100, |g| g.u32_in(0..64));
        let mut bank = Bank::new(TimingParams::ddr4_3200());
        let mut now = 0;
        for row in rows {
            let out = bank.access(RowId(row), now);
            assert!(out.data_at > now);
            now = out.data_at;
        }
    });
}

/// Fault-model monotonicity: adding more activations of the same
/// aggressor never reduces the number of flips.
#[test]
fn more_hammering_never_fewer_flips() {
    check(|g| {
        let extra = g.u64_in(0..5_000);
        let geom = DramGeometry::tiny_test();
        let base_acts = 3_000u64;
        let run = |n: u64| -> usize {
            let mut m = HammerModel::new(HammerConfig::for_threshold(4_800), geom);
            let agg = RowAddr::new(0, 0, 0, 500);
            for _ in 0..n {
                m.record_activation(agg);
            }
            m.take_bit_flips().len()
        };
        assert!(run(base_acts + extra) >= run(base_acts));
    });
}

/// Interleaving targeted refreshes of the victims can only delay or
/// prevent flips, never cause extra flips *of the refreshed rows*.
#[test]
fn victim_refresh_is_protective() {
    check(|g| {
        let period = g.u64_in(1..256);
        let geom = DramGeometry::tiny_test();
        let t_rh = 1_000u64;
        let agg = RowAddr::new(0, 0, 0, 500);
        let run = |refresh: bool| -> usize {
            let mut m = HammerModel::new(HammerConfig::classic_only(t_rh), geom);
            for i in 0..t_rh {
                m.record_activation(agg);
                if refresh && i % period == 0 {
                    m.record_targeted_refresh(agg.with_row(499));
                    m.record_targeted_refresh(agg.with_row(501));
                }
            }
            m.take_bit_flips()
                .iter()
                .filter(|f| f.victim.row.0 == 499 || f.victim.row.0 == 501)
                .count()
        };
        assert!(run(true) <= run(false));
    });
}

/// Disturbance accounting is per-window: ending the epoch always
/// clears every row's accumulated disturbance.
#[test]
fn epoch_end_clears_all_disturbance() {
    check(|g| {
        let acts = g.vec(1..40, |g| (g.u32_in(0..1024), g.u64_in(1..50)));
        let geom = DramGeometry::tiny_test();
        let mut m = HammerModel::new(HammerConfig::lpddr4_new(), geom);
        for (row, n) in &acts {
            for _ in 0..*n {
                m.record_activation(RowAddr::new(0, 0, 0, *row));
            }
        }
        m.end_epoch();
        for (row, _) in &acts {
            for d in [1u32, 2] {
                for n in RowAddr::new(0, 0, 0, *row).neighbors(d, &geom) {
                    assert_eq!(m.disturbance_of(n), 0.0);
                }
            }
        }
    });
}
