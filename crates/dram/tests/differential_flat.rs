//! Differential property test pinning the paged dense [`HammerModel`]
//! against an ordered-map reference: identical activation sequences must
//! produce identical flip sequences (order included), disturbance levels,
//! and per-window statistics. The pages and the model's deferred
//! activation batches are a pure representation change — any divergence
//! here is a determinism bug.

use std::collections::{BTreeMap, BTreeSet};

use rrs_check::check;
use rrs_dram::geometry::{DramGeometry, RowAddr};
use rrs_dram::hammer::{HammerConfig, HammerModel};

/// The original disturbance model, mirrored verbatim over ordered maps.
struct ReferenceModel {
    config: HammerConfig,
    geometry: DramGeometry,
    disturbance: BTreeMap<RowAddr, f64>,
    activations: BTreeMap<RowAddr, u64>,
    flipped_this_epoch: BTreeSet<RowAddr>,
    flips: Vec<(RowAddr, u64, f64)>,
    epoch: u64,
}

impl ReferenceModel {
    fn record_activation(&mut self, addr: RowAddr) {
        *self.activations.entry(addr).or_insert(0) += 1;
        self.disturbance.remove(&addr);
        self.disturb_neighbors(addr);
    }

    fn record_targeted_refresh(&mut self, addr: RowAddr) {
        self.disturbance.remove(&addr);
        self.disturb_neighbors(addr);
    }

    fn end_epoch(&mut self) {
        self.disturbance.clear();
        self.activations.clear();
        self.flipped_this_epoch.clear();
        self.epoch += 1;
    }

    fn disturb_neighbors(&mut self, addr: RowAddr) {
        for (d, &w) in (1..).zip(&self.config.distance_weights) {
            for n in addr.neighbors(d, &self.geometry) {
                let e = self.disturbance.entry(n).or_insert(0.0);
                *e += w;
                if *e >= self.config.t_rh as f64 && self.flipped_this_epoch.insert(n) {
                    self.flips.push((n, self.epoch, *e));
                }
            }
        }
    }
}

#[test]
fn hammer_model_matches_btreemap_reference() {
    check(|g| {
        let geometry = DramGeometry::tiny_test();
        let config = HammerConfig::for_threshold(g.u64_in(2..12));
        let mut model = HammerModel::new(config.clone(), geometry);
        let mut reference = ReferenceModel {
            config,
            geometry,
            disturbance: BTreeMap::new(),
            activations: BTreeMap::new(),
            flipped_this_epoch: BTreeSet::new(),
            flips: Vec::new(),
            epoch: 0,
        };
        // Eight-row windows at both bank edges and across the 511/512 page
        // boundary, so neighbourhoods overlap, flips fire and both the
        // edge clipping and the page seam are crossed.
        let rows = geometry.rows_per_bank as u32;
        let windows = [0, 508, rows - 8];
        let ops = g.usize_in(1..250);
        for _ in 0..ops {
            let row = g.pick(&windows) + g.u32() % 8;
            let addr = RowAddr::new(0, 0, g.u8() % 2, row);
            match g.below(12) {
                0 => {
                    model.record_targeted_refresh(addr);
                    reference.record_targeted_refresh(addr);
                }
                1 => {
                    model.full_refresh();
                    reference.disturbance.clear();
                    // Rows only disturbed, never activated, must not count.
                    assert_eq!(
                        model.rows_with_activations_at_least(0),
                        reference.activations.len()
                    );
                }
                2 => {
                    model.end_epoch();
                    reference.end_epoch();
                }
                _ => {
                    model.record_activation(addr);
                    reference.record_activation(addr);
                }
            }
        }
        // Flip *sequences* must match exactly — victims, epochs, disturbance
        // levels, in emission order.
        let flips: Vec<(RowAddr, u64, f64)> = model
            .take_bit_flips()
            .into_iter()
            .map(|f| (f.victim, f.epoch, f.disturbance))
            .collect();
        assert_eq!(flips, reference.flips);
        assert_eq!(model.total_flips(), reference.flips.len() as u64);
        // Every row's window state must match, not just the flipped ones.
        for bank in 0..2 {
            for row in 0..rows {
                let addr = RowAddr::new(0, 0, bank, row);
                assert_eq!(model.disturbance_of(addr), reference.disturbance_of(addr));
                assert_eq!(
                    model.activations_of(addr),
                    reference.activations.get(&addr).copied().unwrap_or(0)
                );
            }
        }
        for n in [0, 1, 2, 5] {
            assert_eq!(
                model.rows_with_activations_at_least(n),
                reference.activations.values().filter(|&&c| c >= n).count()
            );
        }
    });
}

impl ReferenceModel {
    fn disturbance_of(&self, addr: RowAddr) -> f64 {
        self.disturbance.get(&addr).copied().unwrap_or(0.0)
    }

    fn new(config: HammerConfig, geometry: DramGeometry) -> Self {
        ReferenceModel {
            config,
            geometry,
            disturbance: BTreeMap::new(),
            activations: BTreeMap::new(),
            flipped_this_epoch: BTreeSet::new(),
            flips: Vec::new(),
            epoch: 0,
        }
    }

    fn rows_with_activations_at_least(&self, n: u64) -> usize {
        self.activations.values().filter(|&&c| c >= n).count()
    }
}

/// A row of either bank within six rows of the 511/512 page seam.
fn seam_row(g: &mut rrs_check::Gen) -> RowAddr {
    RowAddr::new(0, 0, g.u8() % 2, 506 + g.u32() % 12)
}

/// Drains both models' flips and requires the same sequence; returns its
/// length.
fn same_flips(model: &mut HammerModel, reference: &mut ReferenceModel) -> usize {
    let flips: Vec<(RowAddr, u64, f64)> = model
        .take_bit_flips()
        .into_iter()
        .map(|f| (f.victim, f.epoch, f.disturbance))
        .collect();
    assert_eq!(flips, std::mem::take(&mut reference.flips));
    flips.len()
}

/// The model applies activations in batches of 16. Runs of at least three
/// batches fill and apply them by capacity; queries, refreshes and epoch
/// ends then land at arbitrary points inside a batch, and each must see
/// every activation recorded before it.
#[test]
fn deferred_activations_match_reference_mid_batch() {
    check(|g| {
        let geometry = DramGeometry::tiny_test();
        let config = HammerConfig::for_threshold(g.u64_in(8..40));
        let mut model = HammerModel::new(config.clone(), geometry);
        let mut reference = ReferenceModel::new(config, geometry);
        let mut flips = 0;
        for _ in 0..g.usize_in(1..5) {
            for _ in 0..g.usize_in(48..160) {
                let addr = seam_row(g);
                model.record_activation(addr);
                reference.record_activation(addr);
                match g.below(24) {
                    0 => {
                        let addr = seam_row(g);
                        assert_eq!(model.disturbance_of(addr), reference.disturbance_of(addr));
                        assert_eq!(
                            model.activations_of(addr),
                            reference.activations.get(&addr).copied().unwrap_or(0)
                        );
                    }
                    1 => {
                        let n = g.u64_in(0..6);
                        assert_eq!(
                            model.rows_with_activations_at_least(n),
                            reference.rows_with_activations_at_least(n)
                        );
                    }
                    2 => flips += same_flips(&mut model, &mut reference),
                    _ => {}
                }
            }
            // The query applies the pending batch, so the next 1..15
            // activations leave a partial batch for the refresh to land in.
            assert_eq!(
                model.rows_with_activations_at_least(1),
                reference.rows_with_activations_at_least(1)
            );
            for _ in 0..g.usize_in(1..16) {
                let addr = seam_row(g);
                model.record_activation(addr);
                reference.record_activation(addr);
            }
            match g.below(3) {
                0 => {
                    let addr = seam_row(g);
                    model.record_targeted_refresh(addr);
                    reference.record_targeted_refresh(addr);
                }
                1 => {
                    model.full_refresh();
                    reference.disturbance.clear();
                }
                _ => {
                    model.end_epoch();
                    reference.end_epoch();
                }
            }
            for n in [0, 1, 3] {
                assert_eq!(
                    model.rows_with_activations_at_least(n),
                    reference.rows_with_activations_at_least(n)
                );
            }
        }
        for _ in 0..g.usize_in(0..16) {
            let addr = seam_row(g);
            model.record_activation(addr);
            reference.record_activation(addr);
        }
        flips += same_flips(&mut model, &mut reference);
        assert_eq!(model.total_flips(), flips as u64);
        for bank in 0..2 {
            for row in 500..524 {
                let addr = RowAddr::new(0, 0, bank, row);
                assert_eq!(model.disturbance_of(addr), reference.disturbance_of(addr));
                assert_eq!(
                    model.activations_of(addr),
                    reference.activations.get(&addr).copied().unwrap_or(0)
                );
            }
        }
    });
}
