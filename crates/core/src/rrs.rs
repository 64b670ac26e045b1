//! The Randomized Row-Swap engine: tracker + indirection + random swaps
//! (§4 of the paper).
//!
//! [`BankRrs`] is the per-bank unit (the paper provisions an HRT and RIT per
//! bank, Table 5); [`Rrs`] aggregates one unit per bank of a
//! [`DramGeometry`] and exposes the row-address-level API that a memory
//! controller consumes:
//!
//! 1. every access resolves through the RIT ([`Rrs::resolve`]),
//! 2. every activation feeds the tracker ([`Rrs::on_activation`]), which may
//!    return swap directives the controller must execute and charge.

use rrs_dram::geometry::{DramGeometry, RowAddr};

use crate::detector::{DetectorConfig, SwapDetector};
use crate::prng::PrinceCtrRng;
use crate::rit::{PhysicalSwap, RitError, RowIndirectionTable};
use crate::tracker::{CatTracker, HotRowTracker, TrackerConfig};

/// Paper default: `T_RH / T_RRS` (the `k` of §5.3; Table 4 selects k = 6).
pub const DEFAULT_K: u64 = 6;

/// Configuration of the RRS engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RrsConfig {
    /// The Row Hammer threshold being defended against.
    pub t_rh: u64,
    /// Swap threshold `T_RRS`: a row is swapped at every multiple.
    pub t_rrs: u64,
    /// Rows per bank (the randomization space, `N` in §5.3).
    pub rows_per_bank: u64,
    /// Maximum activations per bank per epoch (`ACT_max`).
    pub act_max: u64,
    /// Tracker entry budget (derived: `ceil(act_max / t_rrs)`).
    pub tracker_entries: usize,
    /// RIT tuple capacity (derived: `2 × tracker_entries`, §4.5).
    pub rit_tuples: usize,
    /// Extra controller latency of the RIT lookup on every access
    /// (§4.7: "We add a 4-cycle latency for RIT access").
    pub rit_lookup_cycles: u64,
    /// PRNG / hash seed.
    pub seed: u128,
    /// Optional attack-detection co-design (§5.3.2 footnote 2).
    pub detector: Option<DetectorConfig>,
}

impl RrsConfig {
    /// The paper's design point: `T_RH` = 4.8 K, `T_RRS` = 800,
    /// 1700 tracker entries, 3400 RIT tuples, 128 K rows per bank (§4.5).
    pub fn asplos22() -> Self {
        Self::for_threshold(4_800, 1_360_000, 128 * 1024)
    }

    /// Derives a secure configuration for an arbitrary Row Hammer threshold
    /// (the procedure behind Figure 10: "We adapt the parameters of our
    /// design for each threshold to maintain security").
    ///
    /// `T_RRS = T_RH / 6`, tracker entries `= ceil(ACT_max / T_RRS)`, RIT
    /// tuples `= 2 ×` tracker entries.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero or `t_rh < DEFAULT_K`.
    pub fn for_threshold(t_rh: u64, act_max: u64, rows_per_bank: u64) -> Self {
        assert!(t_rh >= DEFAULT_K, "T_RH too small");
        assert!(act_max > 0 && rows_per_bank > 0, "degenerate geometry");
        let t_rrs = t_rh / DEFAULT_K;
        let tracker_entries = act_max.div_ceil(t_rrs) as usize;
        RrsConfig {
            t_rh,
            t_rrs,
            rows_per_bank,
            act_max,
            tracker_entries,
            rit_tuples: 2 * tracker_entries,
            rit_lookup_cycles: 4,
            seed: 0x5252_535f_5345_4544, // "RRS_SEED"
            detector: None,
        }
    }

    /// Overrides the PRNG/hash seed.
    pub fn with_seed(mut self, seed: u128) -> Self {
        self.seed = seed;
        self
    }

    /// Enables the attack-detection extension.
    pub fn with_detector(mut self, detector: DetectorConfig) -> Self {
        self.detector = Some(detector);
        self
    }

    /// The `k = T_RH / T_RRS` security parameter of §5.3.
    pub fn k(&self) -> u64 {
        self.t_rh / self.t_rrs
    }

    /// Tracker configuration implied by this design point.
    pub fn tracker_config(&self) -> TrackerConfig {
        TrackerConfig {
            entries: self.tracker_entries,
            threshold: self.t_rrs,
        }
    }
}

impl Default for RrsConfig {
    fn default() -> Self {
        Self::asplos22()
    }
}

/// A physical operation the memory controller must execute (and charge
/// channel-blocking time for) as a result of an activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RrsAction {
    /// Exchange the contents of two physical rows (a fresh swap or re-swap).
    Swap(PhysicalSwap),
    /// Exchange restoring an evicted row home (lazy RIT drain).
    Unswap(PhysicalSwap),
    /// The attack detector flagged this row; §5.3.2 fn.2 escalates with a
    /// preemptive refresh of the entire DRAM.
    Alarm {
        /// The logical row whose swap count crossed the alarm threshold.
        row: u64,
    },
}

/// Per-bank statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankRrsStats {
    /// Swaps issued over the unit's lifetime.
    pub swaps: u64,
    /// Un-swaps from RIT evictions.
    pub unswaps: u64,
    /// Swaps issued in the current epoch.
    pub epoch_swaps: u64,
    /// Destination re-generations because the first random pick was in the
    /// HRT/RIT (§4.4 predicts < 1% need more than one retry).
    pub destination_retries: u64,
    /// Swaps abandoned because the RIT was full of locked entries (must be
    /// zero when the configuration honours the paper's sizing rule).
    pub capacity_stalls: u64,
}

/// The RRS engine of a single bank: hot-row tracker, RIT, and the
/// PRINCE-CTR destination generator.
///
/// Generic over the tracking mechanism (§4.2: RRS "can be implemented with
/// any tracking mechanism"); the default is the paper's scalable
/// Misra-Gries [`CatTracker`]. See [`crate::tracker::CbfTracker`] for the
/// counting-Bloom-filter alternative used by the ablation benches.
#[derive(Debug, Clone)]
pub struct BankRrs<T: HotRowTracker = CatTracker> {
    config: RrsConfig,
    tracker: T,
    rit: RowIndirectionTable,
    prng: PrinceCtrRng,
    detector: Option<SwapDetector>,
    stats: BankRrsStats,
}

impl BankRrs<CatTracker> {
    /// Creates a unit with the paper's Misra-Gries tracker. `bank_index`
    /// diversifies seeds across banks.
    pub fn new(config: RrsConfig, bank_index: u64) -> Self {
        Self::with_tracker(config, bank_index, CatTracker::new(config.tracker_config()))
    }
}

impl<T: HotRowTracker> BankRrs<T> {
    /// Creates a unit driven by an arbitrary tracking mechanism.
    pub fn with_tracker(config: RrsConfig, bank_index: u64, tracker: T) -> Self {
        let seed = config.seed ^ ((bank_index as u128) << 64);
        BankRrs {
            config,
            tracker,
            rit: RowIndirectionTable::new(config.rit_tuples, seed ^ RIT_SEED_TAG),
            prng: PrinceCtrRng::new(seed),
            detector: config.detector.map(SwapDetector::new),
            stats: BankRrsStats::default(),
        }
    }

    /// The unit's configuration.
    pub fn config(&self) -> &RrsConfig {
        &self.config
    }

    /// Adopts a shared telemetry spine, forwarding it to the tracker and
    /// the RIT (all banks share the `hrt.*` / `cat.*` / `rit.tlb.*`
    /// aggregate counters by name).
    pub fn attach_telemetry(&mut self, telemetry: &rrs_telemetry::Telemetry) {
        self.tracker.attach_telemetry(telemetry);
        self.rit.attach_telemetry(telemetry);
    }

    /// Physical row currently holding logical `row` (§4.1 steps ①–③).
    pub fn resolve(&self, row: u64) -> u64 {
        self.rit.resolve(row)
    }

    /// Read access to the tracker (for inspection/ablation).
    pub fn tracker(&self) -> &T {
        &self.tracker
    }

    /// Read access to the RIT.
    pub fn rit(&self) -> &RowIndirectionTable {
        &self.rit
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BankRrsStats {
        self.stats
    }

    /// Records one activation of logical `row`; returns the physical
    /// operations the controller must now perform, in order.
    pub fn on_activation(&mut self, row: u64) -> Vec<RrsAction> {
        let verdict = self.tracker.record_access(row);
        if !verdict.swap_due {
            return Vec::new();
        }
        let mut actions = Vec::with_capacity(2);
        // Make room: a swap can consume up to two tuples (§4.5).
        while self.rit.tuples_in_use() + 2 > self.rit.tuple_capacity() {
            let pick = self.prng.next_u64();
            match self.rit.evict_one(pick) {
                Some(ps) => {
                    self.stats.unswaps += 1;
                    actions.push(RrsAction::Unswap(ps));
                }
                None => {
                    // All entries locked: cannot swap safely. With the
                    // paper's sizing this is unreachable; record and bail.
                    self.stats.capacity_stalls += 1;
                    return actions;
                }
            }
        }
        let dest = match self.pick_destination(row) {
            Some(d) => d,
            None => {
                self.stats.capacity_stalls += 1;
                return actions;
            }
        };
        match self.rit.swap(row, dest) {
            Ok(ps) => {
                self.stats.swaps += 1;
                self.stats.epoch_swaps += 1;
                actions.push(RrsAction::Swap(ps));
                if let Some(det) = &mut self.detector {
                    if det.record_swap(row) {
                        actions.push(RrsAction::Alarm { row });
                    }
                }
            }
            Err(RitError::CapacityExhausted) | Err(RitError::DegenerateSwap(_)) => {
                self.stats.capacity_stalls += 1;
            }
            Err(RitError::TableConflict) => {
                // Astronomically rare per Figure 9; treat as a stall.
                self.stats.capacity_stalls += 1;
            }
        }
        actions
    }

    /// Picks a random destination row "from all the rows in the bank",
    /// excluding rows tracked by the HRT and rows under swap in the RIT
    /// (§4.4); regenerates on collision.
    fn pick_destination(&mut self, row: u64) -> Option<u64> {
        const MAX_RETRIES: u32 = 64;
        for attempt in 0..MAX_RETRIES {
            let d = self.prng.next_below(self.config.rows_per_bank);
            if d != row && !self.tracker.contains(d) && !self.rit.involves(d) {
                if attempt > 0 {
                    self.stats.destination_retries += attempt as u64;
                }
                return Some(d);
            }
        }
        None
    }

    /// Epoch boundary: reset the tracker (§4.1), unlock RIT entries for
    /// lazy drain (§4.3), reset per-epoch counters. Returns the number of
    /// swaps performed in the ending epoch.
    pub fn end_epoch(&mut self) -> u64 {
        self.tracker.reset();
        self.rit.end_epoch();
        if let Some(det) = &mut self.detector {
            det.end_epoch();
        }
        std::mem::take(&mut self.stats.epoch_swaps)
    }
}

/// Seed-diversification tag for the RIT hash keys ("RIT_TAG").
const RIT_SEED_TAG: u128 = 0x0052_4954_5f54_4147;

/// System-wide RRS: one [`BankRrs`] per bank of a geometry.
#[derive(Debug, Clone)]
pub struct Rrs {
    config: RrsConfig,
    geometry: DramGeometry,
    banks: Vec<BankRrs>,
}

impl Rrs {
    /// Creates an engine covering every bank of `geometry`.
    pub fn new(config: RrsConfig, geometry: DramGeometry) -> Self {
        let banks = (0..geometry.total_banks())
            .map(|i| BankRrs::new(config, i as u64))
            .collect();
        Rrs {
            config,
            geometry,
            banks,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &RrsConfig {
        &self.config
    }

    /// Adopts a shared telemetry spine across every bank unit.
    pub fn attach_telemetry(&mut self, telemetry: &rrs_telemetry::Telemetry) {
        for b in &mut self.banks {
            b.attach_telemetry(telemetry);
        }
    }

    /// The geometry the engine covers.
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    fn unit(&self, addr: RowAddr) -> &BankRrs {
        // lint: allow(index-panic) — `bank_index` is `< geometry.total_banks()` by construction and `banks` has exactly that length
        &self.banks[addr.bank_index(&self.geometry)]
    }

    fn unit_mut(&mut self, addr: RowAddr) -> &mut BankRrs {
        // lint: allow(index-panic) — `bank_index` is `< geometry.total_banks()` by construction and `banks` has exactly that length
        &mut self.banks[addr.bank_index(&self.geometry)]
    }

    /// Resolves a logical row address to the physical row currently holding
    /// it (identity unless swapped).
    pub fn resolve(&self, addr: RowAddr) -> RowAddr {
        // lint: allow(narrow-cast) — the RIT only maps rows previously fed in from this bank's u32 row space, so the resolved row fits
        addr.with_row(self.unit(addr).resolve(addr.row.0 as u64) as u32)
    }

    /// Records one activation at `addr` (the *logical* address the
    /// controller received); returns physical operations to execute, with
    /// row ids scoped to `addr`'s bank.
    pub fn on_activation(&mut self, addr: RowAddr) -> Vec<RrsAction> {
        self.unit_mut(addr).on_activation(addr.row.0 as u64)
    }

    /// Extra per-access controller latency (the RIT lookup).
    pub fn access_latency(&self) -> u64 {
        self.config.rit_lookup_cycles
    }

    /// Epoch boundary across all banks; returns total swaps in the epoch.
    pub fn end_epoch(&mut self) -> u64 {
        self.banks.iter_mut().map(|b| b.end_epoch()).sum()
    }

    /// Per-bank units, for inspection.
    pub fn banks(&self) -> &[BankRrs] {
        &self.banks
    }

    /// Aggregate statistics over all banks.
    pub fn total_stats(&self) -> BankRrsStats {
        let mut total = BankRrsStats::default();
        for b in &self.banks {
            total.swaps += b.stats.swaps;
            total.unswaps += b.stats.unswaps;
            total.epoch_swaps += b.stats.epoch_swaps;
            total.destination_retries += b.stats.destination_retries;
            total.capacity_stalls += b.stats.capacity_stalls;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> RrsConfig {
        // T_RH = 60, T_RRS = 10, small bank for fast tests.
        RrsConfig::for_threshold(60, 1_000, 1_024)
    }

    #[test]
    fn asplos22_derives_paper_parameters() {
        let c = RrsConfig::asplos22();
        assert_eq!(c.t_rrs, 800);
        assert_eq!(c.tracker_entries, 1700);
        assert_eq!(c.rit_tuples, 3400);
        assert_eq!(c.k(), 6);
        assert_eq!(c.rit_lookup_cycles, 4);
    }

    #[test]
    fn figure10_design_points_scale() {
        for (t_rh, t_rrs, entries) in [
            (1_200u64, 200u64, 6_800usize),
            (2_400, 400, 3_400),
            (4_800, 800, 1_700),
            (9_600, 1_600, 850),
            (19_200, 3_200, 425),
        ] {
            let c = RrsConfig::for_threshold(t_rh, 1_360_000, 128 * 1024);
            assert_eq!(c.t_rrs, t_rrs, "T_RRS for T_RH={t_rh}");
            assert_eq!(c.tracker_entries, entries, "entries for T_RH={t_rh}");
        }
    }

    #[test]
    fn no_swap_below_threshold() {
        let mut b = BankRrs::new(small_config(), 0);
        for _ in 0..9 {
            assert!(b.on_activation(7).is_empty());
        }
        assert_eq!(b.stats().swaps, 0);
    }

    #[test]
    fn swap_fires_at_threshold_and_redirects() {
        let mut b = BankRrs::new(small_config(), 0);
        let mut actions = Vec::new();
        for _ in 0..10 {
            actions = b.on_activation(7);
        }
        assert_eq!(b.stats().swaps, 1);
        let swap = actions
            .iter()
            .find_map(|a| match a {
                RrsAction::Swap(ps) => Some(*ps),
                _ => None,
            })
            .expect("swap action at threshold");
        // Row 7 was at home, so the exchange involves physical row 7.
        assert!(swap.row_a == 7 || swap.row_b == 7);
        let new_loc = b.resolve(7);
        assert_ne!(new_loc, 7, "row must be displaced after swap");
    }

    #[test]
    fn repeated_hammering_causes_reswaps_to_fresh_locations() {
        let mut b = BankRrs::new(small_config(), 0);
        let mut locations = vec![b.resolve(7)];
        for _ in 0..50 {
            b.on_activation(7);
            let loc = b.resolve(7);
            if loc != *locations.last().unwrap() {
                locations.push(loc);
            }
        }
        // 50 activations at T=10 -> 5 swaps, each to a new location.
        assert_eq!(b.stats().swaps, 5);
        assert_eq!(locations.len(), 6);
        // Invariant 2: every destination was distinct from all prior homes
        // of this row in the epoch (fresh, <T-activated rows).
        let mut sorted = locations.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), locations.len(), "revisited a location");
    }

    #[test]
    fn destination_never_in_tracker_or_rit() {
        let mut b = BankRrs::new(small_config(), 0);
        // Hammer several rows to populate tracker and RIT.
        for round in 0..30u64 {
            for row in 0..5 {
                for _ in 0..2 {
                    b.on_activation(row + round % 3);
                }
            }
        }
        for (logical, physical) in b.rit().iter().collect::<Vec<_>>() {
            assert_ne!(logical, physical);
        }
        b.rit().check_invariants();
    }

    #[test]
    fn end_epoch_resets_tracker_and_unlocks_rit() {
        let mut b = BankRrs::new(small_config(), 0);
        for _ in 0..10 {
            b.on_activation(3);
        }
        assert_eq!(b.stats().epoch_swaps, 1);
        let epoch_swaps = b.end_epoch();
        assert_eq!(epoch_swaps, 1);
        assert_eq!(b.stats().epoch_swaps, 0);
        assert!(b.tracker().is_empty());
        assert_eq!(b.rit().locked_count(), 0);
        // Mapping persists across the epoch (no bulk unswap, §4.3).
        assert_ne!(b.resolve(3), 3);
    }

    #[test]
    fn detector_alarm_is_emitted_via_actions() {
        let cfg = small_config().with_detector(DetectorConfig {
            swaps_per_row_alarm: 2,
        });
        let mut b = BankRrs::new(cfg, 0);
        let mut alarms = 0;
        for _ in 0..20 {
            for a in b.on_activation(9) {
                if matches!(a, RrsAction::Alarm { row: 9 }) {
                    alarms += 1;
                }
            }
        }
        assert_eq!(alarms, 1, "alarm at the second same-row swap");
    }

    #[test]
    fn multi_bank_rrs_isolates_banks() {
        let geom = DramGeometry::tiny_test();
        let mut rrs = Rrs::new(small_config(), geom);
        let a = RowAddr::new(0, 0, 0, 7);
        let b = RowAddr::new(0, 0, 1, 7);
        for _ in 0..10 {
            rrs.on_activation(a);
        }
        // Bank 0's row 7 swapped; bank 1's row 7 untouched.
        assert_ne!(rrs.resolve(a), a);
        assert_eq!(rrs.resolve(b), b);
        assert_eq!(rrs.total_stats().swaps, 1);
    }

    #[test]
    fn resolve_preserves_bank_coordinates() {
        let geom = DramGeometry::tiny_test();
        let mut rrs = Rrs::new(small_config(), geom);
        let a = RowAddr::new(0, 0, 1, 3);
        for _ in 0..10 {
            rrs.on_activation(a);
        }
        let r = rrs.resolve(a);
        assert_eq!(r.channel, a.channel);
        assert_eq!(r.bank, a.bank);
        assert_ne!(r.row, a.row);
    }

    #[test]
    fn rrs_works_with_a_cbf_tracker() {
        // §4.2: RRS composes with any tracking mechanism. A CBF-tracked
        // unit must still swap a hammered row away within T_RRS-ish
        // activations (the CBF never underestimates).
        let cfg = small_config();
        let tracker = crate::tracker::CbfTracker::new(cfg.t_rrs, 1_024, 3, 0xCBF);
        let mut b = BankRrs::with_tracker(cfg, 0, tracker);
        for _ in 0..10 {
            b.on_activation(7);
        }
        assert!(
            b.stats().swaps >= 1,
            "CBF-tracked RRS must swap the hot row"
        );
        assert_ne!(b.resolve(7), 7);
    }

    #[test]
    fn capacity_stall_is_counted_not_panicking() {
        // A pathologically tiny RIT (1 tuple) cannot hold any swap's two
        // tuples; the engine must degrade gracefully.
        let mut cfg = small_config();
        cfg.rit_tuples = 1;
        let mut b = BankRrs::new(cfg, 0);
        for _ in 0..10 {
            b.on_activation(4);
        }
        assert_eq!(b.stats().swaps, 0);
        assert!(b.stats().capacity_stalls > 0);
    }
}
