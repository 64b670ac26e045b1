//! Graphene (Park et al., MICRO 2020): the state-of-the-art victim-focused
//! defense the paper builds its tracker on.
//!
//! A per-bank Misra-Gries tracker — the same algorithm RRS reuses for its
//! HRT (§4.2) — fires at every multiple of the tracking threshold and
//! refreshes the aggressor's immediate neighbours. Unlike
//! [`crate::victim_refresh::VictimRefresh`] (the *idealized* tracker of
//! Table 7), this is the real structure: bounded entries, spill counter,
//! over-estimating counts.
//!
//! Being victim-focused, it shares the family's structural weakness: the
//! Half-Double pattern flips bits at distance 2 straight through it (§2.5).

use rrs_core::tracker::{CamTracker, HotRowTracker, TrackerConfig};
use rrs_dram::geometry::{DramGeometry, RowAddr};
use rrs_dram::timing::Cycle;
use rrs_mem_ctrl::mitigation::{Mitigation, MitigationAction};

/// Graphene parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrapheneConfig {
    /// Mitigation threshold: refresh neighbours at every multiple.
    pub threshold: u64,
    /// Tracker entries per bank (`ceil(ACT_max / threshold)` for the
    /// Misra-Gries guarantee).
    pub entries: usize,
}

impl GrapheneConfig {
    /// Derives a secure configuration: threshold `T_RH / 4` (double-sided
    /// margin), entries per the Misra-Gries bound.
    pub fn for_threshold(t_rh: u64, act_max: u64) -> Self {
        let threshold = (t_rh / 4).max(1);
        GrapheneConfig {
            threshold,
            entries: act_max.div_ceil(threshold) as usize,
        }
    }
}

/// The Graphene defense: per-bank Misra-Gries tracking + victim refresh.
#[derive(Debug, Clone)]
pub struct Graphene {
    config: GrapheneConfig,
    geometry: DramGeometry,
    trackers: Vec<CamTracker>,
    name: String,
}

impl Graphene {
    /// Creates the defense for `geometry`.
    pub fn new(config: GrapheneConfig, geometry: DramGeometry) -> Self {
        let tc = TrackerConfig {
            entries: config.entries,
            threshold: config.threshold,
        };
        Graphene {
            name: format!("graphene-t{}", config.threshold),
            config,
            geometry,
            trackers: (0..geometry.total_banks())
                .map(|_| CamTracker::new(tc))
                .collect(),
        }
    }

    /// The defense's configuration.
    pub fn config(&self) -> GrapheneConfig {
        self.config
    }

    /// The tracker of one bank (for inspection).
    pub fn tracker(&self, addr: RowAddr) -> &CamTracker {
        &self.trackers[addr.bank_index(&self.geometry)]
    }
}

impl Mitigation for Graphene {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_activation(&mut self, row: RowAddr, _at: Cycle, actions: &mut Vec<MitigationAction>) {
        let tracker = &mut self.trackers[row.bank_index(&self.geometry)];
        if tracker.record_access(row.row.0 as u64).swap_due {
            for victim in row.neighbors(1, &self.geometry) {
                actions.push(MitigationAction::TargetedRefresh(victim));
            }
        }
    }

    fn on_epoch_end(&mut self, _now: Cycle, _actions: &mut Vec<MitigationAction>) {
        for t in &mut self.trackers {
            t.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graphene() -> Graphene {
        Graphene::new(
            GrapheneConfig {
                threshold: 10,
                entries: 64,
            },
            DramGeometry::tiny_test(),
        )
    }

    #[test]
    fn refreshes_neighbors_at_threshold_multiples() {
        let mut g = graphene();
        let row = RowAddr::new(0, 0, 0, 100);
        let mut actions = Vec::new();
        for _ in 0..35 {
            g.on_activation(row, 0, &mut actions);
        }
        // Multiples 10, 20, 30 × both neighbours.
        let neighbours = [
            MitigationAction::TargetedRefresh(row.with_row(99)),
            MitigationAction::TargetedRefresh(row.with_row(101)),
        ];
        assert_eq!(actions, neighbours.repeat(3));
    }

    #[test]
    fn tracker_is_bounded_unlike_ideal_vfm() {
        let mut g = graphene();
        for r in 0..10_000u32 {
            let mut actions = Vec::new();
            g.on_activation(RowAddr::new(0, 0, 0, r), 0, &mut actions);
        }
        assert!(g.tracker(RowAddr::new(0, 0, 0, 0)).len() <= 64);
        // The spill counter absorbed the overflow.
        assert!(g.tracker(RowAddr::new(0, 0, 0, 0)).spill() > 0);
    }

    #[test]
    fn banks_track_independently() {
        let mut g = graphene();
        let a = RowAddr::new(0, 0, 0, 5);
        let b = RowAddr::new(0, 0, 1, 5);
        let mut actions = Vec::new();
        for _ in 0..9 {
            g.on_activation(a, 0, &mut actions);
        }
        assert!(actions.is_empty());
        // Bank 1's counter is separate: 9 + 1 accesses there don't fire
        // until its own 10th.
        for _ in 0..9 {
            g.on_activation(b, 0, &mut actions);
        }
        assert!(actions.is_empty());
        g.on_activation(b, 0, &mut actions);
        assert_eq!(actions.len(), 2);
    }

    #[test]
    fn epoch_reset_clears_all_trackers() {
        let mut g = graphene();
        let row = RowAddr::new(0, 0, 0, 100);
        let mut actions = Vec::new();
        for _ in 0..9 {
            g.on_activation(row, 0, &mut actions);
        }
        g.on_epoch_end(0, &mut actions);
        for _ in 0..9 {
            g.on_activation(row, 0, &mut actions);
        }
        assert!(actions.is_empty(), "counts must reset per epoch");
    }

    #[test]
    fn config_derivation_matches_misra_gries_bound() {
        let c = GrapheneConfig::for_threshold(4_800, 1_360_000);
        assert_eq!(c.threshold, 1_200);
        assert_eq!(c.entries, 1_134); // ceil(1.36M / 1200)
    }
}
