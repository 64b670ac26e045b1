//! Differential test: the production RRS engine (CAT tracker + CAT-backed
//! RIT + PRINCE PRNG) against a deliberately naive *golden model* that
//! implements the paper's semantics with plain `HashMap`s.
//!
//! The two implementations share the randomness (destination picks are fed
//! from the production engine's actions into the model), so every
//! observable — resolved locations, swap counts, per-location activation
//! bounds — must match exactly on arbitrary access streams.

#![allow(
    clippy::disallowed_types,
    reason = "the golden model is a reference implementation: plain `HashMap`s are the point, and the determinism rule guards simulated results, not test oracles"
)]

use std::collections::HashMap;

use rrs_core::rrs::{BankRrs, RrsAction, RrsConfig};

/// The paper's semantics, written as simply as possible.
struct GoldenModel {
    t_rrs: u64,
    /// Exact per-row activation counts within the epoch.
    counts: HashMap<u64, u64>,
    /// logical -> physical (sparse permutation).
    forward: HashMap<u64, u64>,
    /// physical -> logical.
    reverse: HashMap<u64, u64>,
    swaps: u64,
}

impl GoldenModel {
    fn new(t_rrs: u64) -> Self {
        GoldenModel {
            t_rrs,
            counts: HashMap::new(),
            forward: HashMap::new(),
            reverse: HashMap::new(),
            swaps: 0,
        }
    }

    fn resolve(&self, logical: u64) -> u64 {
        self.forward.get(&logical).copied().unwrap_or(logical)
    }

    fn occupant(&self, physical: u64) -> u64 {
        self.reverse.get(&physical).copied().unwrap_or(physical)
    }

    fn set(&mut self, logical: u64, physical: u64) {
        if let Some(old) = self.forward.remove(&logical) {
            self.reverse.remove(&old);
        }
        if logical != physical {
            self.forward.insert(logical, physical);
            self.reverse.insert(physical, logical);
        }
    }

    /// Records an activation; `swap_due` means "this activation crossed a
    /// multiple of T", and `dest` is the destination the production engine
    /// chose (sharing its randomness).
    fn on_activation(&mut self, row: u64, dest: Option<u64>) {
        let c = self.counts.entry(row).or_insert(0);
        *c += 1;
        let due = (*c).is_multiple_of(self.t_rrs);
        assert_eq!(
            due,
            dest.is_some(),
            "tracker divergence at row {row} count {c}"
        );
        if let Some(dest) = dest {
            // Swap contents of the two rows' current physical locations.
            let (pa, pb) = (self.resolve(row), self.resolve(dest));
            let (oa, ob) = (self.occupant(pa), self.occupant(pb));
            debug_assert_eq!(oa, row);
            self.set(oa, pb);
            self.set(ob, pa);
            self.swaps += 1;
        }
    }

    fn end_epoch(&mut self) {
        self.counts.clear();
    }
}

/// Drives both implementations over a stream and checks equivalence.
fn differential_run(stream: impl Iterator<Item = u64>, epochs_every: usize) {
    // Large-enough RIT that lazy eviction (which the golden model does not
    // implement) never triggers.
    let mut config = RrsConfig::for_threshold(60, 100_000, 1 << 17);
    config.rit_tuples = 1 << 14;
    let mut engine = BankRrs::new(config, 0);
    let mut golden = GoldenModel::new(config.t_rrs());
    let mut swaps = 0;

    for (i, row) in stream.enumerate() {
        let mut dest = None;
        engine.on_activation(row, |a| {
            match a {
                RrsAction::Swap(ps) => {
                    swaps += 1;
                    // Recover the chosen destination: the swap exchanges
                    // loc(row) with loc(dest); one side is row's current
                    // (pre-update) location per the golden model.
                    let pa = golden.resolve(row);
                    let other = if ps.row_a == pa { ps.row_b } else { ps.row_a };
                    dest = Some(golden.occupant(other));
                }
                RrsAction::Unswap(_) => panic!("RIT eviction in oversized table"),
                RrsAction::Alarm { .. } => {}
            }
        });
        golden.on_activation(row, dest);

        // Check a window of rows around the accessed one.
        for r in row.saturating_sub(2)..=row + 2 {
            assert_eq!(
                engine.resolve(r),
                golden.resolve(r),
                "resolution diverged for row {r} at step {i}"
            );
        }
        if (i + 1) % epochs_every == 0 {
            engine.end_epoch();
            golden.end_epoch();
        }
    }
    assert_eq!(swaps, golden.swaps, "swap counts diverged");
}

#[test]
fn hot_rows_match_golden_model() {
    // A few heavily hammered rows: every multiple of T swaps.
    let stream = (0..5_000u64).map(|i| i % 4);
    differential_run(stream, 1_200);
}

#[test]
fn mixed_stream_matches_golden_model() {
    let mut x = 42u64;
    let stream = (0..8_000u64).map(move |i| {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        if i % 3 == 0 {
            i % 5 // rotating hot set
        } else {
            100 + (x >> 45) // scattered traffic
        }
    });
    differential_run(stream, 2_500);
}

#[test]
fn epoch_resets_match_golden_model() {
    // Epoch boundaries every 97 accesses: counts reset mid-flight, the
    // persistent mappings must keep matching.
    let stream = (0..4_000u64).map(|i| i % 7);
    differential_run(stream, 97);
}

#[test]
fn golden_model_confirms_per_location_bound() {
    // Re-derive Invariant 2 through the golden model: no physical location
    // hosts more than T activations of any single logical row per epoch.
    let mut config = RrsConfig::for_threshold(60, 100_000, 1 << 17);
    config.rit_tuples = 1 << 14;
    let mut engine = BankRrs::new(config, 0);
    let mut per_location: HashMap<(u64, u64), u64> = HashMap::new(); // (logical, physical) -> acts
    for _ in 0..1_000u64 {
        let physical = engine.resolve(7);
        *per_location.entry((7, physical)).or_insert(0) += 1;
        engine.on_activation(7, |_| {});
    }
    for ((logical, physical), acts) in per_location {
        assert!(
            acts <= config.t_rrs(),
            "logical {logical} spent {acts} > T activations at physical {physical}"
        );
    }
}
