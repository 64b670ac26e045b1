//! Probabilistic (stateless) row-swap — the footnote-1 ablation.
//!
//! §4.2 footnote 1: "one could have a probabilistic version of RRS, similar
//! to PARA, where the row-swap is triggered with probability p on each row
//! activation. Unfortunately, the rate of swap with such state-less methods
//! is much higher than with a tracker, making them unsuitable for low
//! Row-Hammer Threshold."
//!
//! This module implements that strawman so the ablation benches can
//! quantify the claim: with `p = 1/T_RRS` (needed so an aggressor is
//! expected to be swapped within `T_RRS` activations), *every* activation
//! rolls the dice, so total swaps scale with total traffic instead of with
//! the number of genuinely hot rows.

use rrs_core::prng::PrinceCtrRng;
use rrs_core::rit::RowIndirectionTable;
use rrs_dram::geometry::{DramGeometry, RowAddr};
use rrs_dram::timing::Cycle;
use rrs_mem_ctrl::mitigation::{Mitigation, MitigationAction};

/// One bank's state.
#[derive(Debug, Clone)]
struct BankState {
    rit: RowIndirectionTable,
    prng: PrinceCtrRng,
}

/// Stateless probabilistic row-swap.
#[derive(Debug, Clone)]
pub struct ProbabilisticRrs {
    p: f64,
    rows_per_bank: u64,
    geometry: DramGeometry,
    banks: Vec<BankState>,
    name: String,
}

impl ProbabilisticRrs {
    /// Creates the defense with swap probability `p` per activation and an
    /// RIT of `rit_tuples` per bank.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1]`.
    pub fn new(p: f64, rit_tuples: usize, geometry: DramGeometry, seed: u128) -> Self {
        assert!(p > 0.0 && p <= 1.0, "probability out of range");
        let banks = (0..geometry.total_banks())
            .map(|i| BankState {
                rit: RowIndirectionTable::new(
                    rit_tuples,
                    geometry.rows_per_bank as u64,
                    seed ^ ((i as u128) << 64),
                ),
                prng: PrinceCtrRng::new(seed ^ 0x50524f42 ^ ((i as u128) << 32)),
            })
            .collect();
        ProbabilisticRrs {
            p,
            rows_per_bank: geometry.rows_per_bank as u64,
            geometry,
            banks,
            name: format!("prob-rrs-p{p:.5}"),
        }
    }

    /// Equivalent design point to a tracked RRS with threshold `t_rrs`:
    /// `p = 1 / T_RRS`, RIT sized for the expected swap volume.
    pub fn for_t_rrs(t_rrs: u64, act_max: u64, geometry: DramGeometry, seed: u128) -> Self {
        let expected_swaps = (act_max / t_rrs.max(1)) as usize;
        Self::new(
            1.0 / t_rrs as f64,
            4 * expected_swaps.max(1),
            geometry,
            seed,
        )
    }

    /// Swap probability per activation.
    pub fn probability(&self) -> f64 {
        self.p
    }
}

impl Mitigation for ProbabilisticRrs {
    fn name(&self) -> &str {
        &self.name
    }

    fn resolve(&self, row: RowAddr) -> RowAddr {
        let bank = &self.banks[row.bank_index(&self.geometry)];
        row.with_row(bank.rit.resolve(row.row.0 as u64) as u32)
    }

    fn access_latency(&self) -> Cycle {
        4 // same RIT lookup as tracked RRS
    }

    fn on_activation(&mut self, row: RowAddr, _at: Cycle, actions: &mut Vec<MitigationAction>) {
        let idx = row.bank_index(&self.geometry);
        let rows = self.rows_per_bank;
        let bank = &mut self.banks[idx];
        if !bank.prng.next_bool(self.p) {
            return;
        }
        // Make room (up to two tuples), then swap to a random fresh row.
        while bank.rit.tuples_in_use() + 2 > bank.rit.tuple_capacity() {
            let pick = bank.prng.next_u64();
            match bank.rit.evict_one(pick) {
                Some(ps) => actions.push(MitigationAction::RowUnswap {
                    a: row.with_row(ps.row_a as u32),
                    b: row.with_row(ps.row_b as u32),
                }),
                None => return,
            }
        }
        let logical = row.row.0 as u64;
        for _ in 0..64 {
            let dest = bank.prng.next_below(rows);
            if dest != logical && !bank.rit.involves(dest) {
                if let Ok(ps) = bank.rit.swap(logical, dest) {
                    actions.push(MitigationAction::RowSwap {
                        a: row.with_row(ps.row_a as u32),
                        b: row.with_row(ps.row_b as u32),
                    });
                }
                return;
            }
        }
    }

    fn on_epoch_end(&mut self, _now: Cycle, _actions: &mut Vec<MitigationAction>) {
        for bank in &mut self.banks {
            bank.rit.end_epoch();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn swaps_in(actions: &[MitigationAction]) -> usize {
        actions
            .iter()
            .filter(|a| matches!(a, MitigationAction::RowSwap { .. }))
            .count()
    }

    #[test]
    fn swap_rate_tracks_probability() {
        let mut m = ProbabilisticRrs::new(0.05, 256, DramGeometry::tiny_test(), 3);
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
        let mut prob = ProbabilisticRrs::for_t_rrs(10, 1_000, g, 5);
        let mut tracked =
            crate::rrs::RrsMitigation::new(rrs_core::RrsConfig::for_threshold(60, 1_000, 1_024), g);
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
        let mut m = ProbabilisticRrs::new(1.0, 64, DramGeometry::tiny_test(), 11);
        let row = RowAddr::new(0, 0, 0, 5);
        let mut actions = Vec::new();
        m.on_activation(row, 0, &mut actions);
        assert_eq!(swaps_in(&actions), 1);
        assert_ne!(m.resolve(row), row);
    }
}
