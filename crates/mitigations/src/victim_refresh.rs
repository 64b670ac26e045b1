//! Victim-focused refresh: one engine for the idealized VFM of Table 7,
//! Graphene and PARA.
//!
//! All three refresh an aggressor's immediate neighbours whenever a
//! per-bank trigger fires, and differ only in the trigger (§4.2 separates
//! the tracker from the mitigating action the same way for RRS):
//!
//! * [`VictimRefresh::ideal`] counts activations per row exactly — a
//!   [`CamTracker`] with one entry per row of the bank never fills, so its
//!   counts are exact. This is the strongest possible version of
//!   Graphene/TWiCe/CRA-style proposals, the baseline of Table 7.
//! * [`VictimRefresh::graphene`] is Graphene (Park et al., MICRO 2020) as
//!   deployed: the same Misra-Gries tracker RRS reuses for its HRT, bounded
//!   to `⌈ACT_max / T⌉` entries with a spill counter and over-estimating
//!   counts.
//! * [`VictimRefresh::para`] is PARA (Kim et al. 2014), the stateless
//!   baseline of §2.4: a coin flip with probability `p` per activation.
//!   Its security is probabilistic — an aggressor sustaining `A`
//!   activations escapes with probability `(1 - p)^A` — so `p` must grow
//!   as `T_RH` shrinks, which is why the paper's footnote 1 dismisses
//!   stateless approaches at low thresholds (the same argument applies to
//!   a stateless row-swap; see `RrsMitigation::probabilistic`).
//!
//! The family's structural weakness is the paper's motivation: the refresh
//! itself activates the neighbour rows, so a Half-Double access pattern
//! drives bit flips at distance 2 *through* the defense (§2.5).

use rrs_core::tracker::{CamTracker, HotRowTracker, ProbabilisticTrigger, TrackerConfig};
use rrs_dram::geometry::{DramGeometry, RowAddr};
use rrs_dram::timing::Cycle;
use rrs_mem_ctrl::mitigation::{Mitigation, MitigationAction};

/// Refresh threshold `T` of the counting defenses: `T_RH / 4`, so
/// double-sided patterns are caught with margin.
fn refresh_threshold(t_rh: u64) -> u64 {
    (t_rh / 4).max(1)
}

/// Seed-diversification tag for PARA's per-bank coins ("PARA").
const PARA_SEED_TAG: u128 = 0x5041_5241;

/// Victim-focused refresh: one trigger per bank, indexed by
/// [`RowAddr::bank_index`]; each firing refreshes the row's distance-1
/// neighbours.
#[derive(Debug, Clone)]
pub struct VictimRefresh<T: HotRowTracker = CamTracker> {
    geometry: DramGeometry,
    trackers: Vec<T>,
    name: String,
}

impl VictimRefresh {
    /// Idealized VFM: exact per-row activation counts, refreshing at every
    /// multiple of `T = T_RH / 4`.
    pub fn ideal(t_rh: u64, geometry: DramGeometry) -> Self {
        let threshold = refresh_threshold(t_rh);
        let config = TrackerConfig {
            entries: geometry.rows_per_bank,
            threshold,
        };
        Self::counting(format!("vfm-ideal-t{threshold}-d1"), config, geometry)
    }

    /// Graphene: threshold `T = T_RH / 4` and `⌈ACT_max / T⌉` tracker
    /// entries per bank, the Misra-Gries detection bound for a window of
    /// `act_max` activations.
    pub fn graphene(t_rh: u64, act_max: u64, geometry: DramGeometry) -> Self {
        let config = TrackerConfig::for_window(act_max, refresh_threshold(t_rh));
        Self::counting(format!("graphene-t{}", config.threshold), config, geometry)
    }

    fn counting(name: String, config: TrackerConfig, geometry: DramGeometry) -> Self {
        VictimRefresh {
            trackers: (0..geometry.total_banks())
                .map(|_| CamTracker::new(config))
                .collect(),
            geometry,
            name,
        }
    }
}

impl VictimRefresh<ProbabilisticTrigger> {
    /// PARA with `p = 50 / T_RH` (capped at 1), so an aggressor sustaining
    /// `T_RH / 2` activations escapes with probability below ~1e-11. Each
    /// bank draws from its own PRINCE-CTR stream keyed by `seed`.
    pub fn para(t_rh: u64, geometry: DramGeometry, seed: u128) -> Self {
        let p = (50.0 / t_rh as f64).min(1.0);
        VictimRefresh {
            trackers: (0..geometry.total_banks())
                .map(|i| ProbabilisticTrigger::new(p, seed ^ PARA_SEED_TAG ^ ((i as u128) << 32)))
                .collect(),
            geometry,
            name: format!("para-p{p:.4}"),
        }
    }
}

impl<T: HotRowTracker> VictimRefresh<T> {
    /// The trigger of `row`'s bank (for inspection).
    pub fn tracker(&self, row: RowAddr) -> &T {
        &self.trackers[row.bank_index(&self.geometry)]
    }
}

impl<T: HotRowTracker> Mitigation for VictimRefresh<T> {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_activation(&mut self, row: RowAddr, _at: Cycle, actions: &mut Vec<MitigationAction>) {
        let tracker = &mut self.trackers[row.bank_index(&self.geometry)];
        if tracker.record_access(u64::from(row.row.0)).swap_due {
            for victim in row.neighbors(1, &self.geometry) {
                actions.push(MitigationAction::TargetedRefresh(victim));
            }
        }
    }

    fn on_epoch_end(&mut self, _now: Cycle, _actions: &mut Vec<MitigationAction>) {
        for tracker in &mut self.trackers {
            tracker.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ideal VFM refreshing at every 10th activation (`T_RH = 40`).
    fn vfm() -> VictimRefresh {
        VictimRefresh::ideal(40, DramGeometry::tiny_test())
    }

    /// Both counting defenses at `T = 10`; Graphene with 64 entries
    /// (`ACT_max = 640`).
    fn counting() -> [VictimRefresh; 2] {
        let g = DramGeometry::tiny_test();
        [vfm(), VictimRefresh::graphene(40, 640, g)]
    }

    fn hammer(m: &mut impl Mitigation, row: RowAddr, n: usize) -> Vec<MitigationAction> {
        let mut actions = Vec::new();
        for _ in 0..n {
            m.on_activation(row, 0, &mut actions);
        }
        actions
    }

    #[test]
    fn refreshes_both_neighbors_at_threshold() {
        let row = RowAddr::new(0, 0, 0, 100);
        for mut m in counting() {
            assert_eq!(
                hammer(&mut m, row, 10),
                vec![
                    MitigationAction::TargetedRefresh(row.with_row(99)),
                    MitigationAction::TargetedRefresh(row.with_row(101)),
                ],
                "{}",
                m.name()
            );
        }
    }

    /// Hammers `row` 35 times: multiples 10, 20, 30 × both neighbours.
    fn assert_fires_at_every_multiple(mut m: VictimRefresh) {
        let row = RowAddr::new(0, 0, 0, 100);
        let neighbours = [
            MitigationAction::TargetedRefresh(row.with_row(99)),
            MitigationAction::TargetedRefresh(row.with_row(101)),
        ];
        assert_eq!(
            hammer(&mut m, row, 35),
            neighbours.repeat(3),
            "{}",
            m.name()
        );
    }

    #[test]
    fn fires_at_every_multiple() {
        assert_fires_at_every_multiple(vfm());
    }

    #[test]
    fn graphene_refreshes_neighbors_at_threshold_multiples() {
        let [_, graphene] = counting();
        assert_fires_at_every_multiple(graphene);
    }

    /// Brings a row in each of two banks to one short of `T`, ends the
    /// epoch, and checks that every bank's counts started over.
    fn assert_epoch_end_resets_every_bank(mut m: VictimRefresh) {
        let rows = [RowAddr::new(0, 0, 0, 100), RowAddr::new(0, 0, 1, 100)];
        for row in rows {
            hammer(&mut m, row, 9);
            assert_eq!(m.tracker(row).count_of(100), Some(9));
        }
        m.on_epoch_end(0, &mut Vec::new());
        for row in rows {
            assert_eq!(m.tracker(row).count_of(100), None);
            assert!(
                hammer(&mut m, row, 9).is_empty(),
                "{}: counts must reset",
                m.name()
            );
        }
    }

    #[test]
    fn epoch_end_resets_counts() {
        assert_epoch_end_resets_every_bank(vfm());
    }

    #[test]
    fn graphene_epoch_reset_clears_all_trackers() {
        let [_, graphene] = counting();
        assert_epoch_end_resets_every_bank(graphene);
    }

    #[test]
    fn threshold_is_a_quarter_of_t_rh() {
        let g = DramGeometry::tiny_test();
        assert_eq!(VictimRefresh::ideal(4_800, g).name(), "vfm-ideal-t1200-d1");
        assert_eq!(
            VictimRefresh::graphene(4_800, 1_360_000, g).name(),
            "graphene-t1200"
        );
        assert_eq!(VictimRefresh::ideal(3, g).name(), "vfm-ideal-t1-d1");
    }

    #[test]
    fn edge_rows_clip_victims() {
        let mut m = VictimRefresh::ideal(4, DramGeometry::tiny_test());
        let actions = hammer(&mut m, RowAddr::new(0, 0, 0, 0), 1);
        assert_eq!(actions.len(), 1); // only the row above exists
    }

    #[test]
    fn banks_track_independently() {
        let a = RowAddr::new(0, 0, 0, 5);
        let b = RowAddr::new(0, 0, 1, 5);
        for mut m in counting() {
            assert!(hammer(&mut m, a, 9).is_empty());
            // Bank 1's counter is separate: its own 10th activation fires.
            assert!(hammer(&mut m, b, 9).is_empty());
            assert_eq!(hammer(&mut m, b, 1).len(), 2, "{}", m.name());
        }
    }

    #[test]
    fn graphene_tracker_is_bounded_unlike_ideal_vfm() {
        let [mut ideal, mut g] = counting();
        let mut actions = Vec::new();
        for r in 0..1_000u32 {
            g.on_activation(RowAddr::new(0, 0, 0, r), 0, &mut actions);
            ideal.on_activation(RowAddr::new(0, 0, 0, r), 0, &mut actions);
        }
        let bank0 = RowAddr::new(0, 0, 0, 0);
        assert_eq!(g.tracker(bank0).len(), 64);
        // The spill counter absorbed the overflow.
        assert!(g.tracker(bank0).spill() > 0);
        assert_eq!(ideal.tracker(bank0).len(), 1_000);
        assert_eq!(ideal.tracker(bank0).spill(), 0);
    }

    #[test]
    fn graphene_entries_follow_misra_gries_bound() {
        let g = VictimRefresh::graphene(4_800, 1_360_000, DramGeometry::tiny_test());
        let config = g.tracker(RowAddr::new(0, 0, 0, 0)).config();
        assert_eq!(config.threshold, 1_200);
        assert_eq!(config.entries, 1_134); // ceil(1.36M / 1200)
    }

    #[test]
    fn para_rate_tracks_probability() {
        // T_RH = 500 ⇒ p = 0.1.
        let mut m = VictimRefresh::para(500, DramGeometry::tiny_test(), 42);
        let row = RowAddr::new(0, 0, 0, 100);
        let fired = hammer(&mut m, row, 10_000).len() / 2;
        assert!((800..=1_200).contains(&fired), "fired {fired} of 10000");
    }

    #[test]
    fn para_probability_scales_inversely_with_t_rh() {
        let g = DramGeometry::tiny_test();
        assert_eq!(VictimRefresh::para(4_800, g, 0).name(), "para-p0.0104");
        assert_eq!(VictimRefresh::para(48_000, g, 0).name(), "para-p0.0010");
        assert_eq!(VictimRefresh::para(10, g, 0).name(), "para-p1.0000");
    }

    #[test]
    fn para_refreshes_neighbors() {
        // T_RH = 50 ⇒ p = 1: every activation refreshes.
        let mut m = VictimRefresh::para(50, DramGeometry::tiny_test(), 7);
        let row = RowAddr::new(0, 0, 0, 100);
        assert_eq!(
            hammer(&mut m, row, 1),
            vec![
                MitigationAction::TargetedRefresh(row.with_row(99)),
                MitigationAction::TargetedRefresh(row.with_row(101)),
            ]
        );
    }

    #[test]
    fn para_banks_draw_independent_streams() {
        let mut m = VictimRefresh::para(500, DramGeometry::tiny_test(), 42);
        let fired = |m: &mut VictimRefresh<ProbabilisticTrigger>, bank| {
            (0..256)
                .map(|_| !hammer(m, RowAddr::new(0, 0, bank, 100), 1).is_empty())
                .collect::<Vec<_>>()
        };
        let a = fired(&mut m, 0);
        assert_ne!(a, fired(&mut m, 1));
        // The coin's stream continues across epochs.
        let mut fresh = VictimRefresh::para(500, DramGeometry::tiny_test(), 42);
        fresh.on_epoch_end(0, &mut Vec::new());
        assert_eq!(a, fired(&mut fresh, 0));
    }
}
