//! Differential property test pinning the victim-refresh engine against an
//! exact-count reference: on random multi-bank activation streams with
//! epoch ends, ideal VFM — and Graphene whenever its tracker has room for
//! every row a bank sees in one window — must issue exactly the refreshes
//! of a per-row counter that fires at every multiple of `T` and clears at
//! each epoch end.

use std::collections::BTreeMap;

use rrs_check::{check, Gen};
use rrs_dram::geometry::{DramGeometry, RowAddr};
use rrs_mem_ctrl::mitigation::{Mitigation, MitigationAction};
use rrs_mitigations::VictimRefresh;

/// Exact per-row activation counts, keyed by `(bank, row)`.
struct ExactVfm {
    threshold: u64,
    geometry: DramGeometry,
    counts: BTreeMap<(usize, u32), u64>,
}

impl ExactVfm {
    fn on_activation(&mut self, row: RowAddr, actions: &mut Vec<MitigationAction>) {
        let key = (row.bank_index(&self.geometry), row.row.0);
        let c = self.counts.entry(key).or_insert(0);
        *c += 1;
        if c.is_multiple_of(self.threshold) {
            for victim in row.neighbors(1, &self.geometry) {
                actions.push(MitigationAction::TargetedRefresh(victim));
            }
        }
    }

    fn end_epoch(&mut self) {
        self.counts.clear();
    }
}

/// Two channels × two ranks × two banks, so every `bank_index` term moves.
fn geometry() -> DramGeometry {
    DramGeometry {
        channels: 2,
        ranks_per_channel: 2,
        banks_per_rank: 2,
        rows_per_bank: 1_024,
        row_size_bytes: 8 * 1_024,
    }
}

/// Rows an activation stream draws from: both bank edges (clipped
/// neighbourhoods) and a window in the middle.
const ROWS: [u32; 12] = [0, 1, 2, 3, 500, 501, 502, 503, 1_020, 1_021, 1_022, 1_023];

/// Drives `engine` and the reference with one random stream, comparing
/// the actions of every activation and epoch end.
fn run_against_reference(g: &mut Gen, t_rh: u64, engine: &mut impl Mitigation) {
    let geometry = geometry();
    let mut reference = ExactVfm {
        threshold: (t_rh / 4).max(1),
        geometry,
        counts: BTreeMap::new(),
    };
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for step in 0..g.usize_in(1..600) {
        if g.below(40) == 0 {
            engine.on_epoch_end(step as u64, &mut got);
            reference.end_epoch();
        } else {
            let row = RowAddr::new(g.u8() % 2, g.u8() % 2, g.u8() % 2, *g.pick(&ROWS));
            engine.on_activation(row, step as u64, &mut got);
            reference.on_activation(row, &mut want);
        }
        assert_eq!(got, want, "{} diverged at step {step}", engine.name());
        got.clear();
        want.clear();
    }
}

#[test]
fn ideal_vfm_matches_exact_counts() {
    check(|g| {
        let t_rh = g.u64_in(1..64);
        let mut engine = VictimRefresh::ideal(t_rh, geometry());
        run_against_reference(g, t_rh, &mut engine);
    });
}

#[test]
fn roomy_graphene_matches_exact_counts() {
    check(|g| {
        let t_rh = g.u64_in(1..64);
        let threshold = (t_rh / 4).max(1);
        // At least one entry per row a bank can see in a window: the
        // tracker never fills, so its counts are exact.
        let entries = ROWS.len() as u64 + g.u64_in(0..8);
        let mut engine = VictimRefresh::graphene(t_rh, entries * threshold, geometry());
        run_against_reference(g, t_rh, &mut engine);
    });
}
