//! The Randomized Row-Swap engine: tracker + indirection + random swaps
//! (§4 of the paper).
//!
//! [`BankRrs`] is the per-bank unit (the paper provisions an HRT and RIT per
//! bank, Table 5) and the only swap engine; [`BankRrs::for_banks`] builds
//! one per bank. The unit exposes the row-level API a memory controller
//! consumes:
//!
//! 1. every access resolves through the RIT ([`BankRrs::resolve`]),
//! 2. every activation feeds the tracker ([`BankRrs::on_activation`]), which
//!    may emit swap directives the controller must execute and charge.

use std::rc::Rc;

use rrs_telemetry::Counter;

use crate::cat::SetIndexMemo;
use crate::detector::{DetectorConfig, SwapDetector};
use crate::prng::PrinceCtrRng;
use crate::rit::{PhysicalSwap, RitError, RowIndirectionTable};
use crate::tracker::{CatTracker, HotRowTracker, TrackerConfig};

/// Paper default: `T_RH / T_RRS` (the `k` of §5.3; Table 4 selects k = 6).
pub const DEFAULT_K: u64 = 6;

/// Extra controller latency of the RIT lookup on every access (§4.7: "We
/// add a 4-cycle latency for RIT access").
pub const RIT_LOOKUP_CYCLES: u64 = 4;

/// Configuration of the RRS engine. It stores only its inputs; `T_RRS`
/// and the tracker size are derived from them ([`RrsConfig::t_rrs`],
/// [`RrsConfig::tracker_config`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RrsConfig {
    /// The Row Hammer threshold being defended against.
    pub t_rh: u64,
    /// Rows per bank (the randomization space, `N` in §5.3).
    pub rows_per_bank: u64,
    /// Maximum activations per bank per epoch (`ACT_max`).
    pub act_max: u64,
    /// RIT tuple capacity: `2 ×` [`RrsConfig::tracker_entries`] (§4.5);
    /// the probabilistic variant sizes it for its larger swap volume.
    pub rit_tuples: usize,
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
        let mut config = RrsConfig {
            t_rh,
            rows_per_bank,
            act_max,
            rit_tuples: 0,
            seed: 0x5252_535f_5345_4544, // "RRS_SEED"
            detector: None,
        };
        config.rit_tuples = 2 * config.tracker_entries();
        config
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

    /// Swap threshold `T_RRS = T_RH / k`: a row is swapped at every
    /// multiple.
    pub fn t_rrs(&self) -> u64 {
        self.t_rh / DEFAULT_K
    }

    /// The `k = T_RH / T_RRS` security parameter of §5.3.
    pub fn k(&self) -> u64 {
        self.t_rh / self.t_rrs()
    }

    /// Tracker entry budget, `ceil(ACT_max / T_RRS)`.
    pub fn tracker_entries(&self) -> usize {
        self.tracker_config().entries
    }

    /// Tracker configuration implied by this design point.
    pub fn tracker_config(&self) -> TrackerConfig {
        TrackerConfig::for_window(self.act_max, self.t_rrs())
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

/// The RRS engine of a single bank: hot-row tracker, RIT, and the
/// PRINCE-CTR destination generator.
///
/// Generic over the tracking mechanism (§4.2: RRS "can be implemented with
/// any tracking mechanism"); the default is the paper's scalable
/// Misra-Gries [`CatTracker`]. See [`crate::tracker::CbfTracker`] for the
/// counting-Bloom-filter alternative used by the ablation benches and
/// [`crate::tracker::ProbabilisticTrigger`] for footnote 1's stateless
/// probabilistic row-swap.
#[derive(Debug, Clone)]
pub struct BankRrs<T: HotRowTracker = CatTracker> {
    config: RrsConfig,
    tracker: T,
    rit: RowIndirectionTable,
    prng: PrinceCtrRng,
    detector: Option<SwapDetector>,
    /// Swaps that were due but dropped: the RIT was full of locked
    /// entries, no destination was found, or the RIT refused the swap.
    capacity_stalls: Counter,
    /// Destination re-generations because a random pick was in the HRT or
    /// the RIT (§4.4 predicts < 1% of swaps need more than one retry).
    destination_retries: Counter,
}

impl BankRrs<CatTracker> {
    /// Creates a unit with the paper's Misra-Gries tracker, whose CAT
    /// memoizes its set indices privately. `bank_index` diversifies seeds
    /// across banks.
    pub fn new(config: RrsConfig, bank_index: u64) -> Self {
        Self::sharing_memo(config, bank_index, tracker_memo(&config))
    }

    /// One unit per bank, `0..banks`, whose trackers share one set-index
    /// memo.
    pub fn for_banks(config: RrsConfig, banks: usize) -> Vec<Self> {
        let memo = tracker_memo(&config);
        (0..banks)
            .map(|i| Self::sharing_memo(config, i as u64, memo.clone()))
            .collect()
    }

    /// [`BankRrs::new`] with the tracker's set indices served by `memo`.
    fn sharing_memo(config: RrsConfig, bank_index: u64, memo: Option<Rc<SetIndexMemo>>) -> Self {
        let mut tracker = CatTracker::new(config.tracker_config());
        if let Some(memo) = memo {
            tracker.attach_set_memo(memo);
        }
        Self::with_tracker(config, bank_index, tracker)
    }
}

/// An empty set-index memo for the tracker CAT of `config`, covering every
/// row of a bank. Tracker keys do not depend on the bank, so one memo can
/// serve all of them.
fn tracker_memo(config: &RrsConfig) -> Option<Rc<SetIndexMemo>> {
    let rows = usize::try_from(config.rows_per_bank).ok()?;
    SetIndexMemo::new(&config.tracker_config().cat_config(), rows).map(Rc::new)
}

impl<T: HotRowTracker> BankRrs<T> {
    /// Creates a unit driven by an arbitrary tracking mechanism.
    pub fn with_tracker(config: RrsConfig, bank_index: u64, tracker: T) -> Self {
        let seed = config.seed ^ ((bank_index as u128) << 64);
        BankRrs {
            config,
            tracker,
            rit: RowIndirectionTable::new(
                config.rit_tuples,
                config.rows_per_bank,
                seed ^ RIT_SEED_TAG,
            ),
            prng: PrinceCtrRng::new(seed),
            detector: config.detector.map(SwapDetector::new),
            capacity_stalls: Counter::default(),
            destination_retries: Counter::default(),
        }
    }

    /// The unit's configuration.
    pub fn config(&self) -> &RrsConfig {
        &self.config
    }

    /// Adopts a shared telemetry spine, forwarding it to the tracker and
    /// the RIT (all banks share the `hrt.*` / `cat.*` / `rit.tlb.*` /
    /// `rrs.*` aggregate counters by name; `rit.tlb.*` counts one hit or
    /// miss per [`BankRrs::resolve`] while the bank's RIT holds an entry).
    /// Swaps and unswaps are counted by whoever executes the emitted
    /// [`RrsAction`]s.
    pub fn attach_telemetry(&mut self, telemetry: &rrs_telemetry::Telemetry) {
        self.tracker.attach_telemetry(telemetry);
        self.rit.attach_telemetry(telemetry);
        self.capacity_stalls = telemetry.counter("rrs.capacity_stalls");
        self.destination_retries = telemetry.counter("rrs.destination_retries");
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

    /// Records one activation of logical `row`; passes the physical
    /// operations the controller must now perform to `emit`, in order.
    pub fn on_activation(&mut self, row: u64, mut emit: impl FnMut(RrsAction)) {
        if !self.tracker.record_access(row).swap_due {
            return;
        }
        // Make room: a swap can consume up to two tuples (§4.5).
        while self.rit.tuples_in_use() + 2 > self.rit.tuple_capacity() {
            let pick = self.prng.next_u64();
            match self.rit.evict_one(pick) {
                Some(ps) => emit(RrsAction::Unswap(ps)),
                None => {
                    // All entries locked: cannot swap safely. The paper's
                    // sizing does not rule this out: a sustained attack can
                    // fill the RIT with this epoch's swaps. Record and bail.
                    self.capacity_stalls.inc();
                    return;
                }
            }
        }
        let Some(dest) = self.pick_destination(row) else {
            self.capacity_stalls.inc();
            return;
        };
        match self.rit.swap(row, dest) {
            Ok(ps) => {
                emit(RrsAction::Swap(ps));
                if let Some(det) = &mut self.detector {
                    if det.record_swap(row) {
                        emit(RrsAction::Alarm { row });
                    }
                }
            }
            // A table conflict is astronomically rare per Figure 9; all
            // three refusals are stalls.
            Err(RitError::CapacityExhausted)
            | Err(RitError::DegenerateSwap(_))
            | Err(RitError::TableConflict) => self.capacity_stalls.inc(),
        }
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
                    self.destination_retries.add(u64::from(attempt));
                }
                return Some(d);
            }
        }
        None
    }

    /// Epoch boundary: reset the tracker (§4.1), unlock RIT entries for
    /// lazy drain (§4.3), reset the detector's per-epoch counts.
    pub fn end_epoch(&mut self) {
        self.tracker.reset();
        self.rit.end_epoch();
        if let Some(det) = &mut self.detector {
            det.end_epoch();
        }
    }
}

/// Seed-diversification tag for the RIT hash keys ("RIT_TAG").
const RIT_SEED_TAG: u128 = 0x0052_4954_5f54_4147;

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> RrsConfig {
        // T_RH = 60, T_RRS = 10, small bank for fast tests.
        RrsConfig::for_threshold(60, 1_000, 1_024)
    }

    /// The actions one activation of `row` emits.
    fn activate(b: &mut BankRrs, row: u64) -> Vec<RrsAction> {
        let mut actions = Vec::new();
        b.on_activation(row, |a| actions.push(a));
        actions
    }

    /// Activates `row` `n` times; returns the swaps the activations emit.
    fn hammer<T: HotRowTracker>(b: &mut BankRrs<T>, row: u64, n: u64) -> u64 {
        let mut swaps = 0;
        for _ in 0..n {
            b.on_activation(row, |a| swaps += u64::from(matches!(a, RrsAction::Swap(_))));
        }
        swaps
    }

    #[test]
    fn asplos22_derives_paper_parameters() {
        let c = RrsConfig::asplos22();
        assert_eq!(c.t_rrs(), 800);
        assert_eq!(c.tracker_entries(), 1700);
        assert_eq!(c.rit_tuples, 3400);
        assert_eq!(c.k(), 6);
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
            assert_eq!(c.t_rrs(), t_rrs, "T_RRS for T_RH={t_rh}");
            assert_eq!(c.tracker_entries(), entries, "entries for T_RH={t_rh}");
        }
    }

    #[test]
    fn no_swap_below_threshold() {
        let mut b = BankRrs::new(small_config(), 0);
        for _ in 0..9 {
            assert!(activate(&mut b, 7).is_empty());
        }
    }

    #[test]
    fn swap_fires_at_threshold_and_redirects() {
        let mut b = BankRrs::new(small_config(), 0);
        assert_eq!(hammer(&mut b, 7, 9), 0);
        let actions = activate(&mut b, 7);
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
        let mut swaps = 0;
        for _ in 0..50 {
            swaps += hammer(&mut b, 7, 1);
            let loc = b.resolve(7);
            if loc != *locations.last().unwrap() {
                locations.push(loc);
            }
        }
        // 50 activations at T=10 -> 5 swaps, each to a new location.
        assert_eq!(swaps, 5);
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
                    b.on_activation(row + round % 3, |_| {});
                }
            }
        }
        for (logical, physical) in b.rit().iter().collect::<Vec<_>>() {
            assert_ne!(logical, physical);
        }
        crate::audit::RitAudit::verify(b.rit()).unwrap();
    }

    #[test]
    fn end_epoch_resets_tracker_and_unlocks_rit() {
        let mut b = BankRrs::new(small_config(), 0);
        assert_eq!(hammer(&mut b, 3, 10), 1);
        assert_eq!(b.rit().locked_count(), 2);
        b.end_epoch();
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
            for a in activate(&mut b, 9) {
                if matches!(a, RrsAction::Alarm { row: 9 }) {
                    alarms += 1;
                }
            }
        }
        assert_eq!(alarms, 1, "alarm at the second same-row swap");
    }

    #[test]
    fn banks_share_one_tracker_memo() {
        let banks = BankRrs::for_banks(small_config(), 4);
        let memos: Vec<_> = banks
            .iter()
            .map(|b| b.tracker().set_memo().expect("tracker memo attached"))
            .collect();
        assert!(memos.len() > 1);
        assert!(memos.iter().all(|m| Rc::ptr_eq(m, memos[0])));
        assert_eq!(memos[0].rows(), 1_024);
        // A stand-alone unit builds its own.
        let lone = BankRrs::new(small_config(), 0);
        let own = lone.tracker().set_memo().expect("tracker memo attached");
        assert!(!Rc::ptr_eq(own, memos[0]));
    }

    #[test]
    fn rrs_works_with_a_cbf_tracker() {
        // §4.2: RRS composes with any tracking mechanism. A CBF-tracked
        // unit must still swap a hammered row away within T_RRS-ish
        // activations (the CBF never underestimates).
        let cfg = small_config();
        let tracker = crate::tracker::CbfTracker::new(cfg.t_rrs(), 1_024, 3, 0xCBF);
        let mut b = BankRrs::with_tracker(cfg, 0, tracker);
        assert!(
            hammer(&mut b, 7, 10) >= 1,
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
        let spine = rrs_telemetry::Telemetry::new();
        b.attach_telemetry(&spine);
        assert_eq!(hammer(&mut b, 4, 10), 0);
        assert_eq!(spine.counter("rrs.capacity_stalls").get(), 1);
    }

    #[test]
    fn destination_retries_are_counted_in_the_registry() {
        // A 16-row bank with 8 hot rows in the tracker and their swaps in
        // the RIT: most random destination picks collide and are redrawn.
        let mut b = BankRrs::new(RrsConfig::for_threshold(60, 1_000, 16), 0);
        let spine = rrs_telemetry::Telemetry::new();
        b.attach_telemetry(&spine);
        let mut swaps = 0;
        for _ in 0..3 {
            for row in 0..8 {
                swaps += hammer(&mut b, row, 10);
            }
        }
        assert!(swaps > 0);
        assert!(spine.counter("rrs.destination_retries").get() > 0);
    }
}
