//! PARA: probabilistic adjacent-row activation (Kim et al. 2014).
//!
//! The stateless victim-focused baseline of §2.4: on every activation, with
//! probability `p`, refresh the immediate neighbours. Security is
//! probabilistic — an aggressor sustaining `A` activations escapes
//! mitigation with probability `(1 - p)^A` — so `p` must grow as `T_RH`
//! shrinks, which is why the paper's footnote 1 dismisses stateless
//! approaches at low thresholds (the same argument applies to a stateless
//! probabilistic row-swap; see `RrsMitigation::probabilistic`).

use rrs_core::prng::PrinceCtrRng;
use rrs_dram::geometry::{DramGeometry, RowAddr};
use rrs_dram::timing::Cycle;
use rrs_mem_ctrl::mitigation::{Mitigation, MitigationAction};

/// The PARA defense.
#[derive(Debug, Clone)]
pub struct Para {
    p: f64,
    geometry: DramGeometry,
    prng: PrinceCtrRng,
    name: String,
}

impl Para {
    /// Creates PARA with mitigation probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1]`.
    pub fn new(p: f64, geometry: DramGeometry, seed: u128) -> Self {
        assert!(p > 0.0 && p <= 1.0, "probability out of range");
        Para {
            p,
            geometry,
            prng: PrinceCtrRng::new(seed ^ 0x5041_5241), // "PARA"
            name: format!("para-p{p:.4}"),
        }
    }

    /// Chooses `p` so that an aggressor sustaining `T_RH / 2` activations
    /// escapes with probability below ~1e-11: `p = 50 / T_RH`.
    pub fn for_threshold(t_rh: u64, geometry: DramGeometry, seed: u128) -> Self {
        Self::new((50.0 / t_rh as f64).min(1.0), geometry, seed)
    }

    /// The configured mitigation probability.
    pub fn probability(&self) -> f64 {
        self.p
    }
}

impl Mitigation for Para {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_activation(&mut self, row: RowAddr, _at: Cycle, actions: &mut Vec<MitigationAction>) {
        if self.prng.next_bool(self.p) {
            for victim in row.neighbors(1, &self.geometry) {
                actions.push(MitigationAction::TargetedRefresh(victim));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mitigation_rate_tracks_probability() {
        let mut m = Para::new(0.1, DramGeometry::tiny_test(), 42);
        let row = RowAddr::new(0, 0, 0, 100);
        let mut fired = 0;
        for _ in 0..10_000 {
            let mut actions = Vec::new();
            m.on_activation(row, 0, &mut actions);
            if !actions.is_empty() {
                fired += 1;
            }
        }
        assert!((800..=1_200).contains(&fired), "fired {fired} of 10000");
    }

    #[test]
    fn for_threshold_scales_inversely() {
        let g = DramGeometry::tiny_test();
        let low = Para::for_threshold(4_800, g, 0);
        let high = Para::for_threshold(48_000, g, 0);
        assert!(low.probability() > high.probability());
        assert!((low.probability() - 50.0 / 4_800.0).abs() < 1e-12);
    }

    #[test]
    fn refresh_targets_are_neighbors() {
        let mut m = Para::new(1.0, DramGeometry::tiny_test(), 7);
        let row = RowAddr::new(0, 0, 0, 100);
        let mut actions = Vec::new();
        m.on_activation(row, 0, &mut actions);
        assert_eq!(
            actions,
            vec![
                MitigationAction::TargetedRefresh(row.with_row(99)),
                MitigationAction::TargetedRefresh(row.with_row(101)),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn zero_probability_rejected() {
        Para::new(0.0, DramGeometry::tiny_test(), 0);
    }
}
