//! The Randomized Row-Swap defense, adapted to the controller's
//! [`Mitigation`] interface: one [`BankRrs`] per bank.
//!
//! The trigger is the unit's tracker (§4.2: RRS "can be implemented with
//! any tracking mechanism"). The paper's design uses the Misra-Gries
//! [`CatTracker`]; [`RrsMitigation::probabilistic`] builds the footnote-1
//! strawman, which swaps with probability `p = 1/T_RRS` on every
//! activation, so its swaps scale with total traffic instead of with the
//! number of genuinely hot rows.

use rrs_core::rrs::{BankRrs, RrsAction, RrsConfig, RIT_LOOKUP_CYCLES};
use rrs_core::tracker::{CatTracker, HotRowTracker, ProbabilisticTrigger};
use rrs_dram::geometry::{DramGeometry, RowAddr};
use rrs_dram::timing::Cycle;
use rrs_mem_ctrl::mitigation::{Mitigation, MitigationAction};

/// RRS as a pluggable mitigation: RIT-resolved accesses, tracker-driven
/// random swaps, optional detector escalation.
#[derive(Debug, Clone)]
pub struct RrsMitigation<T: HotRowTracker = CatTracker> {
    geometry: DramGeometry,
    banks: Vec<BankRrs<T>>,
    name: String,
}

impl RrsMitigation {
    /// Creates the defense for `geometry` at the given design point. The
    /// banks' trackers share one set-index memo.
    pub fn new(config: RrsConfig, geometry: DramGeometry) -> Self {
        RrsMitigation {
            name: format!("rrs-t{}", config.t_rrs()),
            banks: BankRrs::for_banks(config, geometry.total_banks()),
            geometry,
        }
    }

    /// The paper's baseline design point for `geometry`.
    pub fn asplos22(geometry: DramGeometry) -> Self {
        Self::new(RrsConfig::asplos22(), geometry)
    }
}

impl RrsMitigation<ProbabilisticTrigger> {
    /// Footnote 1's probabilistic row-swap at the design point `config`:
    /// `p = 1/T_RRS`, so an aggressor is expected to be swapped within
    /// `T_RRS` activations, and an RIT of `4 × ⌊ACT_max/T_RRS⌋` tuples per
    /// bank for the larger swap volume.
    pub fn probabilistic(mut config: RrsConfig, geometry: DramGeometry) -> Self {
        config.rit_tuples = 4 * ((config.act_max / config.t_rrs()) as usize).max(1);
        let p = 1.0 / config.t_rrs() as f64;
        let banks = (0..geometry.total_banks())
            .map(|i| {
                let seed = config.seed ^ PROB_SEED_TAG ^ ((i as u128) << 32);
                BankRrs::with_tracker(config, i as u64, ProbabilisticTrigger::new(p, seed))
            })
            .collect();
        RrsMitigation {
            name: format!("prob-rrs-p{p:.5}"),
            geometry,
            banks,
        }
    }
}

/// Seed-diversification tag for the probabilistic triggers ("PROB").
const PROB_SEED_TAG: u128 = 0x5052_4f42;

impl<T: HotRowTracker> RrsMitigation<T> {
    /// The per-bank engines, indexed by [`RowAddr::bank_index`].
    pub fn banks(&self) -> &[BankRrs<T>] {
        &self.banks
    }
}

impl<T: HotRowTracker> Mitigation for RrsMitigation<T> {
    fn name(&self) -> &str {
        &self.name
    }

    fn resolve(&self, row: RowAddr) -> RowAddr {
        let bank = &self.banks[row.bank_index(&self.geometry)];
        row.with_row(bank.resolve(row.row.0 as u64) as u32)
    }

    fn access_latency(&self) -> Cycle {
        RIT_LOOKUP_CYCLES
    }

    fn on_activation(&mut self, row: RowAddr, _at: Cycle, actions: &mut Vec<MitigationAction>) {
        let bank = &mut self.banks[row.bank_index(&self.geometry)];
        bank.on_activation(row.row.0 as u64, |action| {
            actions.push(match action {
                RrsAction::Swap(ps) => MitigationAction::RowSwap {
                    a: row.with_row(ps.row_a as u32),
                    b: row.with_row(ps.row_b as u32),
                },
                RrsAction::Unswap(ps) => MitigationAction::RowUnswap {
                    a: row.with_row(ps.row_a as u32),
                    b: row.with_row(ps.row_b as u32),
                },
                RrsAction::Alarm { .. } => MitigationAction::FullRefresh,
            })
        });
    }

    fn on_epoch_end(&mut self, _now: Cycle, _actions: &mut Vec<MitigationAction>) {
        for bank in &mut self.banks {
            bank.end_epoch();
        }
    }

    fn attach_telemetry(&mut self, telemetry: &rrs_telemetry::Telemetry) {
        for bank in &mut self.banks {
            bank.attach_telemetry(telemetry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> RrsConfig {
        // T_RH = 60, T_RRS = 10, a tiny_test-sized bank.
        RrsConfig::for_threshold(60, 1_000, 1_024)
    }

    fn small() -> RrsMitigation {
        RrsMitigation::new(small_config(), DramGeometry::tiny_test())
    }

    fn swaps_in(actions: &[MitigationAction]) -> usize {
        actions
            .iter()
            .filter(|a| matches!(a, MitigationAction::RowSwap { .. }))
            .count()
    }

    #[test]
    fn resolves_identity_until_swapped() {
        let mut m = small();
        let row = RowAddr::new(0, 0, 0, 7);
        assert_eq!(m.resolve(row), row);
        let mut actions = Vec::new();
        for _ in 0..10 {
            actions.clear();
            m.on_activation(row, 0, &mut actions);
        }
        assert!(matches!(actions[0], MitigationAction::RowSwap { .. }));
        assert_ne!(m.resolve(row), row);
    }

    #[test]
    fn multi_bank_rrs_isolates_banks() {
        let mut m = small();
        let a = RowAddr::new(0, 0, 0, 7);
        let b = RowAddr::new(0, 0, 1, 7);
        let mut actions = Vec::new();
        for _ in 0..10 {
            m.on_activation(a, 0, &mut actions);
        }
        // Bank 0's row 7 swapped; bank 1's row 7 untouched.
        assert_ne!(m.resolve(a), a);
        assert_eq!(m.resolve(b), b);
        assert_eq!(swaps_in(&actions), 1);
        assert_eq!(m.banks()[1].rit().tuples_in_use(), 0);
    }

    #[test]
    fn swap_actions_stay_in_bank() {
        let mut m = small();
        let row = RowAddr::new(0, 0, 1, 3);
        let mut actions = Vec::new();
        for _ in 0..10 {
            actions.clear();
            m.on_activation(row, 0, &mut actions);
        }
        if let MitigationAction::RowSwap { a, b } = actions[0] {
            assert_eq!(a.bank, row.bank);
            assert_eq!(b.bank, row.bank);
        } else {
            panic!("expected a swap");
        }
    }

    #[test]
    fn resolve_preserves_bank_coordinates() {
        let mut m = small();
        let a = RowAddr::new(0, 0, 1, 3);
        let mut actions = Vec::new();
        for _ in 0..10 {
            m.on_activation(a, 0, &mut actions);
        }
        let r = m.resolve(a);
        assert_eq!(r.channel, a.channel);
        assert_eq!(r.bank, a.bank);
        assert_ne!(r.row, a.row);
    }

    #[test]
    fn charges_rit_lookup_latency() {
        let m = small();
        assert_eq!(m.access_latency(), 4);
    }

    #[test]
    fn epoch_end_resets_tracker_state() {
        let mut m = small();
        let row = RowAddr::new(0, 0, 0, 7);
        let mut actions = Vec::new();
        for _ in 0..9 {
            m.on_activation(row, 0, &mut actions);
        }
        m.on_epoch_end(0, &mut actions);
        // Counter reset: 9 more activations do not reach the threshold.
        actions.clear();
        for _ in 0..9 {
            m.on_activation(row, 0, &mut actions);
        }
        assert!(actions.is_empty());
    }

    #[test]
    fn swap_rate_tracks_probability() {
        // T_RH = 120 ⇒ T_RRS = 20 ⇒ p = 0.05; an 800-tuple RIT.
        let cfg = RrsConfig::for_threshold(120, 4_000, 1_024);
        let mut m = RrsMitigation::probabilistic(cfg, DramGeometry::tiny_test());
        let mut actions = Vec::new();
        for i in 0..4_000u32 {
            // Spread over rows so the RIT does not saturate.
            m.on_activation(RowAddr::new(0, 0, 0, i % 500), 0, &mut actions);
        }
        let swaps = swaps_in(&actions);
        assert!((120..=300).contains(&swaps), "swaps = {swaps}");
    }

    #[test]
    fn stateless_swaps_far_exceed_tracked_for_uniform_traffic() {
        // The footnote-1 claim: for traffic with no hot rows, tracked RRS
        // performs zero swaps while the stateless variant swaps ~p per ACT.
        let g = DramGeometry::tiny_test();
        let mut prob = RrsMitigation::probabilistic(small_config(), g);
        let mut tracked = RrsMitigation::new(small_config(), g);
        let mut pa = Vec::new();
        let mut ta = Vec::new();
        for i in 0..900u32 {
            // Every row touched at most 9 times: below the tracked threshold.
            let row = RowAddr::new(0, 0, 0, i % 100);
            prob.on_activation(row, 0, &mut pa);
            tracked.on_activation(row, 0, &mut ta);
        }
        assert_eq!(swaps_in(&ta), 0);
        let prob_swaps = swaps_in(&pa);
        assert!(prob_swaps > 20, "prob swaps = {prob_swaps}");
    }

    #[test]
    fn resolve_follows_swaps() {
        // T_RH = 6 ⇒ T_RRS = 1 ⇒ p = 1: every activation swaps.
        let cfg = RrsConfig::for_threshold(6, 1_000, 1_024);
        let mut m = RrsMitigation::probabilistic(cfg, DramGeometry::tiny_test());
        let row = RowAddr::new(0, 0, 0, 5);
        let mut actions = Vec::new();
        m.on_activation(row, 0, &mut actions);
        assert_eq!(swaps_in(&actions), 1);
        assert_ne!(m.resolve(row), row);
    }
}
