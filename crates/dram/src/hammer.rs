//! Row Hammer disturbance fault model.
//!
//! The model implements the paper's single assumption (§5.1) and the attack
//! surface it reasons about (§2.3, §2.5):
//!
//! * Every activation of a row adds *disturbance* to nearby rows, weighted by
//!   distance: weight 1 at distance 1, and a small distance-2 weight
//!   calibrated so that ≈296 K activations flip a distance-2 victim — the
//!   figure Half-Double reports (§5.1).
//! * A row whose accumulated disturbance within one refresh window reaches
//!   the Row Hammer threshold `T_RH` suffers a bit flip.
//! * Refreshing a row (periodic or targeted) restores its charge and clears
//!   its accumulated disturbance — but a *targeted* refresh is itself an
//!   activation of the refreshed row, and therefore disturbs *that* row's
//!   neighbours. This is precisely the mechanism Half-Double exploits to
//!   defeat victim-focused mitigation (§2.5).
//!
//! The model tracks *physical* rows: under RRS, activations land wherever
//! the Row Indirection Table currently maps the requested row.

use std::cmp::Ordering;
use std::hint::black_box;

use crate::geometry::{DramGeometry, RowAddr};

/// Rows per page of a bank's dense tables. A page is allocated on the
/// first touch of any of its rows, so memory follows the row ranges a
/// cell reaches rather than the size of the device.
const PAGE_ROWS: usize = 512;

/// Top bit of a [`Page::acts`] word: the row has flipped in the current
/// window. The low 31 bits count the row's activations.
const FLIPPED: u32 = 1 << 31;

/// Activations the model holds before applying them in one batch.
const BATCH: usize = 16;

/// Window state of `PAGE_ROWS` consecutive rows of one bank.
#[derive(Debug, Clone)]
struct Page {
    disturbance: [f64; PAGE_ROWS],
    /// Activation count, with [`FLIPPED`] in the top bit.
    acts: [u32; PAGE_ROWS],
}

impl Page {
    fn zeroed() -> Box<Page> {
        Box::new(Page {
            disturbance: [0.0; PAGE_ROWS],
            acts: [0; PAGE_ROWS],
        })
    }
}

/// One page of a bank: allocated on first touch, and dirty while any of
/// its rows holds window state. A page that is not dirty is all zeros.
#[derive(Debug, Clone, Default)]
struct Slot {
    page: Option<Box<Page>>,
    dirty: bool,
}

impl Slot {
    /// The page, allocated if need be and put on `dirty` as page `index`.
    fn touch(&mut self, index: usize, dirty: &mut Vec<usize>) -> &mut Page {
        if !self.dirty {
            self.dirty = true;
            dirty.push(index);
        }
        self.page.get_or_insert_with(Page::zeroed)
    }
}

/// One bank's rows: its pages plus the list of dirty ones, so epoch ends
/// clear only the pages a window touched.
#[derive(Debug, Clone)]
struct BankRows {
    slots: Vec<Slot>,
    /// Indices of the dirty slots, in first-touch order.
    dirty: Vec<usize>,
}

/// The default Row Hammer threshold targeted by the paper: 4.8 K activations
/// (LPDDR4-new, Kim et al. 2020).
pub const DEFAULT_T_RH: u64 = 4_800;

/// Activations on a near-aggressor needed for a distance-2 (Half-Double)
/// flip, per the paper §5.1: "the recent half-double attack (which requires
/// at least 296K activations on one row)".
pub const HALF_DOUBLE_ACTS: u64 = 296_000;

/// One entry of the paper's Table 1: Row Hammer threshold over time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RhThresholdEntry {
    /// DRAM generation, e.g. "DDR4 (new)".
    pub generation: &'static str,
    /// Published Row Hammer threshold (activations per refresh window).
    pub threshold: u64,
    /// Citation in the paper.
    pub source: &'static str,
}

/// Table 1 of the paper: Row Hammer threshold by DRAM generation.
pub const RH_THRESHOLDS: &[RhThresholdEntry] = &[
    RhThresholdEntry {
        generation: "DDR3 (old)",
        threshold: 139_000,
        source: "Kim et al. 2014 [17]",
    },
    RhThresholdEntry {
        generation: "DDR3 (new)",
        threshold: 22_400,
        source: "Kim et al. 2020 [16]",
    },
    RhThresholdEntry {
        generation: "DDR4 (old)",
        threshold: 17_500,
        source: "Kim et al. 2020 [16]",
    },
    RhThresholdEntry {
        generation: "DDR4 (new)",
        threshold: 10_000,
        source: "Kim et al. 2020 [16]",
    },
    RhThresholdEntry {
        generation: "LPDDR4 (old)",
        threshold: 16_800,
        source: "Kim et al. 2020 [16]",
    },
    RhThresholdEntry {
        generation: "LPDDR4 (new)",
        threshold: 4_800,
        source: "Kim et al. 2020 [16] – Half-Double [12]",
    },
];

/// Configuration of the disturbance model.
#[derive(Debug, Clone, PartialEq)]
pub struct HammerConfig {
    /// Row Hammer threshold: disturbance at which a row flips.
    pub t_rh: u64,
    /// Maximum distance at which activations disturb neighbours.
    pub blast_radius: u32,
    /// `distance_weights[d-1]` is the disturbance added to a row at distance
    /// `d` per aggressor activation. `distance_weights[0]` must be 1.0.
    pub distance_weights: Vec<f64>,
    /// Whether a targeted (mitigation-issued) refresh of a row disturbs that
    /// row's own neighbours. True on real hardware; this is what enables
    /// Half-Double.
    pub targeted_refresh_disturbs: bool,
}

impl HammerConfig {
    /// LPDDR4 (new)-like device: `T_RH` = 4.8 K, blast radius 2 with the
    /// distance-2 weight calibrated to Half-Double's 296 K figure.
    pub fn lpddr4_new() -> Self {
        Self::for_threshold(DEFAULT_T_RH)
    }

    /// A device with Row Hammer threshold `t_rh`, keeping the
    /// distance-2-to-distance-1 vulnerability ratio of the LPDDR4 baseline.
    ///
    /// # Panics
    ///
    /// Panics if `t_rh` is zero.
    pub fn for_threshold(t_rh: u64) -> Self {
        assert!(t_rh > 0, "T_RH must be positive");
        // 4.8K / 296K: one distance-2 activation is worth ~1/61.7 of a
        // distance-1 activation.
        let w2 = DEFAULT_T_RH as f64 / HALF_DOUBLE_ACTS as f64;
        HammerConfig {
            t_rh,
            blast_radius: 2,
            distance_weights: vec![1.0, w2],
            targeted_refresh_disturbs: true,
        }
    }

    /// A blast-radius-1 device (classic Row Hammer only); useful for
    /// isolating classic-pattern behaviour in tests.
    pub fn classic_only(t_rh: u64) -> Self {
        HammerConfig {
            t_rh,
            blast_radius: 1,
            distance_weights: vec![1.0],
            targeted_refresh_disturbs: true,
        }
    }

    /// Activations on a single aggressor needed to flip a victim at
    /// `distance` (assuming no refresh in between).
    pub fn acts_to_flip_at(&self, distance: u32) -> u64 {
        let w = self
            .distance_weights
            .get(distance as usize - 1)
            .copied()
            .unwrap_or(0.0);
        if w <= 0.0 {
            u64::MAX
        } else {
            (self.t_rh as f64 / w).ceil() as u64
        }
    }
}

impl Default for HammerConfig {
    fn default() -> Self {
        Self::lpddr4_new()
    }
}

/// A Row Hammer bit flip detected by the model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BitFlip {
    /// The physical row that flipped.
    pub victim: RowAddr,
    /// Epoch (refresh window index) in which it flipped.
    pub epoch: u64,
    /// Accumulated disturbance at the moment of the flip.
    pub disturbance: f64,
}

/// The disturbance fault model. Tracks per-physical-row accumulated
/// disturbance within the current refresh window and reports bit flips.
///
/// State lives in dense per-bank pages indexed by row, so an activation's
/// blast radius lands in adjacent slots of one or two pages. Flips are
/// emitted in neighbour order at the disturbing activation.
///
/// Activations are applied in batches of `BATCH`: a batch first loads
/// the words each of its activations will touch, back to back, so their
/// cache misses overlap, then applies the activations in order. Every
/// other method applies the pending batch first, so what the model
/// reports is what applying each activation at once would give.
#[derive(Debug, Clone)]
pub struct HammerModel {
    config: HammerConfig,
    geometry: DramGeometry,
    /// Indexed by [`RowAddr::bank_index`].
    banks: Vec<BankRows>,
    /// Activations recorded but not yet applied, in order.
    pending: Vec<RowAddr>,
    flips: Vec<BitFlip>,
    total_flips: u64,
    epoch: u64,
}

impl HammerModel {
    /// A fresh model at epoch 0 with no accumulated disturbance.
    pub fn new(config: HammerConfig, geometry: DramGeometry) -> Self {
        let bank = BankRows {
            slots: vec![Slot::default(); geometry.rows_per_bank.div_ceil(PAGE_ROWS)],
            dirty: Vec::new(),
        };
        HammerModel {
            config,
            geometry,
            banks: vec![bank; geometry.total_banks()],
            pending: Vec::with_capacity(BATCH),
            flips: Vec::new(),
            total_flips: 0,
            epoch: 0,
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &HammerConfig {
        &self.config
    }

    /// Current epoch (refresh window) index.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Records an activation of physical row `addr`: restores the activated
    /// row's own charge (a DRAM activation reads and rewrites the row's
    /// cells), then disturbs neighbours out to the blast radius and
    /// registers flips that cross `T_RH`.
    pub fn record_activation(&mut self, addr: RowAddr) {
        debug_assert!(self.geometry.contains(addr), "activation out of range");
        self.pending.push(addr);
        if self.pending.len() >= BATCH {
            self.settle();
        }
    }

    /// Records a targeted (mitigation-issued) refresh of `addr`: restores
    /// the row's own charge, and — if configured — disturbs its neighbours
    /// exactly like an activation (the Half-Double enabler).
    pub fn record_targeted_refresh(&mut self, addr: RowAddr) {
        self.settle();
        self.apply(addr, false);
    }

    /// Immediately restores every row (a preemptive full-memory refresh, as
    /// in the attack-detection co-design of §5.3.2 footnote 2). Does not end
    /// the epoch.
    pub fn full_refresh(&mut self) {
        self.settle();
        for BankRows { slots, dirty } in &mut self.banks {
            for &p in dirty.iter() {
                if let Some(page) = slots.get_mut(p).and_then(|s| s.page.as_deref_mut()) {
                    page.disturbance.fill(0.0);
                }
            }
        }
    }

    /// Ends the refresh window: every row has been refreshed once, so all
    /// accumulated disturbance is cleared and per-window counters reset.
    pub fn end_epoch(&mut self) {
        self.settle();
        for BankRows { slots, dirty } in &mut self.banks {
            for p in dirty.drain(..) {
                if let Some(slot) = slots.get_mut(p) {
                    slot.dirty = false;
                    if let Some(page) = slot.page.as_deref_mut() {
                        page.disturbance.fill(0.0);
                        page.acts.fill(0);
                    }
                }
            }
        }
        self.epoch += 1;
    }

    /// Applies the pending activations. The first pass allocates each
    /// one's page and loads its count and the ends of its blast radius;
    /// the loads do not depend on each other, so their misses overlap and
    /// the second pass, which applies the batch in order, finds the lines
    /// in cache.
    fn settle(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let reach = self.config.blast_radius as usize;
        for addr in &self.pending {
            let row = addr.row.0 as usize;
            let Some(slot) = self
                .banks
                .get_mut(addr.bank_index(&self.geometry))
                .and_then(|b| b.slots.get_mut(row / PAGE_ROWS))
            else {
                continue;
            };
            let page = slot.page.get_or_insert_with(Page::zeroed);
            let i = row % PAGE_ROWS;
            black_box((
                page.acts.get(i).copied(),
                page.disturbance.get(i.saturating_sub(reach)).copied(),
                page.disturbance
                    .get((i + reach).min(PAGE_ROWS - 1))
                    .copied(),
            ));
        }
        let mut pending = std::mem::take(&mut self.pending);
        for &addr in &pending {
            self.apply(addr, true);
        }
        pending.clear();
        self.pending = pending;
    }

    /// Applies one activation (`activate`) or targeted refresh of `addr`:
    /// restores the row's own charge, counts an activation, and disturbs
    /// the neighbours (a refresh only if `targeted_refresh_disturbs`).
    /// Neighbours on the row's own page skip the page lookup and the
    /// dirty check.
    fn apply(&mut self, addr: RowAddr, activate: bool) {
        let Some(BankRows { slots, dirty }) = self.banks.get_mut(addr.bank_index(&self.geometry))
        else {
            return;
        };
        let row = addr.row.0 as usize;
        let (p, i) = (row / PAGE_ROWS, row % PAGE_ROWS);
        let Some((below, rest)) = slots.split_at_mut_checked(p) else {
            return;
        };
        let Some((home, above)) = rest.split_first_mut() else {
            return;
        };
        if !activate && !self.config.targeted_refresh_disturbs {
            // Restoring charge adds no window state: no page to allocate.
            if let Some(d) = home
                .page
                .as_deref_mut()
                .and_then(|pg| pg.disturbance.get_mut(i))
            {
                *d = 0.0;
            }
            return;
        }
        let home = home.touch(p, dirty);
        if let Some(d) = home.disturbance.get_mut(i) {
            *d = 0.0;
        }
        if activate {
            if let Some(a) = home.acts.get_mut(i) {
                *a += 1;
            }
        }
        let (t_rh, rows) = (self.config.t_rh as f64, self.geometry.rows_per_bank);
        // Below before above, distance 1 before 2: the order of every f64
        // addition and flip. Weights past the configured list disturb
        // nothing.
        for (d, &w) in (1..=self.config.blast_radius as usize).zip(&self.config.distance_weights) {
            for neighbour in [row.checked_sub(d), Some(row + d).filter(|&n| n < rows)] {
                let Some(n) = neighbour else { continue };
                let q = n / PAGE_ROWS;
                let page = match q.cmp(&p) {
                    Ordering::Equal => &mut *home,
                    Ordering::Less => match below.get_mut(q) {
                        Some(slot) => slot.touch(q, dirty),
                        None => continue,
                    },
                    Ordering::Greater => match above.get_mut(q - p - 1) {
                        Some(slot) => slot.touch(q, dirty),
                        None => continue,
                    },
                };
                let j = n % PAGE_ROWS;
                let (Some(e), Some(a)) = (page.disturbance.get_mut(j), page.acts.get_mut(j)) else {
                    continue;
                };
                *e += w;
                if *e >= t_rh && *a & FLIPPED == 0 {
                    *a |= FLIPPED;
                    self.flips.push(BitFlip {
                        victim: addr.with_row(n as u32),
                        epoch: self.epoch,
                        disturbance: *e,
                    });
                    self.total_flips += 1;
                }
            }
        }
    }

    /// `addr`'s page and offset, if its page has been allocated.
    fn page_of(&mut self, addr: RowAddr) -> Option<(&Page, usize)> {
        self.settle();
        let row = addr.row.0 as usize;
        let slot = self
            .banks
            .get(addr.bank_index(&self.geometry))?
            .slots
            .get(row / PAGE_ROWS)?;
        Some((slot.page.as_deref()?, row % PAGE_ROWS))
    }

    /// Accumulated disturbance of `addr` in the current window.
    pub fn disturbance_of(&mut self, addr: RowAddr) -> f64 {
        self.page_of(addr)
            .and_then(|(p, i)| p.disturbance.get(i).copied())
            .unwrap_or(0.0)
    }

    /// Activations of `addr` recorded in the current window.
    pub fn activations_of(&mut self, addr: RowAddr) -> u64 {
        self.page_of(addr)
            .and_then(|(p, i)| p.acts.get(i).copied())
            .map_or(0, |a| u64::from(a & !FLIPPED))
    }

    /// Number of distinct rows with at least `n` activations this window —
    /// the paper's "Rows ACT-800+" statistic (Table 3). Rows that were only
    /// disturbed, never activated, do not count, even for `n = 0`.
    pub fn rows_with_activations_at_least(&mut self, n: u64) -> usize {
        self.settle();
        let Ok(min) = u32::try_from(n.max(1)) else {
            return 0;
        };
        self.banks
            .iter()
            .flat_map(|bank| {
                bank.dirty
                    .iter()
                    .filter_map(|&p| bank.slots.get(p)?.page.as_deref())
            })
            .map(|page| page.acts.iter().filter(|&&a| a & !FLIPPED >= min).count())
            .sum()
    }

    /// Pages allocated across all banks.
    #[cfg(test)]
    fn pages_allocated(&mut self) -> usize {
        self.settle();
        self.banks
            .iter()
            .flat_map(|b| &b.slots)
            .filter(|s| s.page.is_some())
            .count()
    }

    /// Drains and returns the bit flips recorded since the last call.
    pub fn take_bit_flips(&mut self) -> Vec<BitFlip> {
        self.settle();
        std::mem::take(&mut self.flips)
    }

    /// Total flips over the model's lifetime (not drained).
    pub fn total_flips(&mut self) -> u64 {
        self.settle();
        self.total_flips
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::TimingParams;

    fn model() -> HammerModel {
        HammerModel::new(HammerConfig::lpddr4_new(), DramGeometry::tiny_test())
    }

    #[test]
    fn table1_is_complete_and_decreasing_for_lpddr4() {
        assert_eq!(RH_THRESHOLDS.len(), 6);
        assert_eq!(RH_THRESHOLDS[0].threshold, 139_000);
        assert_eq!(RH_THRESHOLDS[5].threshold, 4_800);
    }

    #[test]
    fn classic_hammer_flips_at_t_rh() {
        let mut m = model();
        let agg = RowAddr::new(0, 0, 0, 500);
        for _ in 0..DEFAULT_T_RH - 1 {
            m.record_activation(agg);
        }
        assert!(m.take_bit_flips().is_empty(), "no flip below threshold");
        m.record_activation(agg);
        let flips = m.take_bit_flips();
        // Both distance-1 neighbours cross at the same activation.
        let victims: Vec<u32> = flips.iter().map(|f| f.victim.row.0).collect();
        assert!(victims.contains(&499) && victims.contains(&501));
    }

    #[test]
    fn double_sided_hammer_flips_middle_row_twice_as_fast() {
        let mut m = model();
        let a = RowAddr::new(0, 0, 0, 499);
        let b = RowAddr::new(0, 0, 0, 501);
        for _ in 0..DEFAULT_T_RH / 2 {
            m.record_activation(a);
            m.record_activation(b);
        }
        let flips = m.take_bit_flips();
        assert!(flips.iter().any(|f| f.victim.row.0 == 500));
    }

    #[test]
    fn refresh_clears_disturbance() {
        let mut m = model();
        let agg = RowAddr::new(0, 0, 0, 500);
        for _ in 0..DEFAULT_T_RH - 1 {
            m.record_activation(agg);
        }
        m.record_targeted_refresh(agg.with_row(499));
        m.record_targeted_refresh(agg.with_row(501));
        m.record_activation(agg);
        // Neighbours were just refreshed; one more activation cannot flip.
        assert!(m.take_bit_flips().is_empty());
    }

    #[test]
    fn targeted_refresh_disturbs_its_own_neighbors() {
        // The Half-Double enabler: refreshing row 501 hammers rows 500 & 502.
        let mut m = HammerModel::new(HammerConfig::classic_only(100), DramGeometry::tiny_test());
        let victim_refreshed = RowAddr::new(0, 0, 0, 501);
        for _ in 0..100 {
            m.record_targeted_refresh(victim_refreshed);
        }
        let flips = m.take_bit_flips();
        let victims: Vec<u32> = flips.iter().map(|f| f.victim.row.0).collect();
        assert!(victims.contains(&500) && victims.contains(&502));
    }

    #[test]
    fn distance_two_flip_needs_about_296k_acts() {
        let cfg = HammerConfig::lpddr4_new();
        assert_eq!(cfg.acts_to_flip_at(1), DEFAULT_T_RH);
        let d2 = cfg.acts_to_flip_at(2);
        assert!((295_000..=297_000).contains(&d2), "distance-2 acts = {d2}");
    }

    #[test]
    fn epoch_end_resets_everything_and_advances() {
        let mut m = model();
        let agg = RowAddr::new(0, 0, 0, 500);
        for _ in 0..1000 {
            m.record_activation(agg);
        }
        assert!(m.disturbance_of(agg.with_row(501)) > 0.0);
        assert_eq!(m.activations_of(agg), 1000);
        m.end_epoch();
        assert_eq!(m.epoch(), 1);
        assert_eq!(m.disturbance_of(agg.with_row(501)), 0.0);
        assert_eq!(m.activations_of(agg), 0);
        assert_eq!(m.rows_with_activations_at_least(1), 0);
    }

    #[test]
    fn activation_restores_own_charge() {
        // A row that is itself activated cannot accumulate disturbance:
        // DRAM activations rewrite the activated row's cells.
        let mut m = model();
        let a = RowAddr::new(0, 0, 0, 500);
        let b = RowAddr::new(0, 0, 0, 501);
        for _ in 0..2 * DEFAULT_T_RH {
            m.record_activation(a); // disturbs b...
            m.record_activation(b); // ...but b restores itself here
        }
        let flips = m.take_bit_flips();
        assert!(
            !flips.iter().any(|f| f.victim == b),
            "activated row must not flip"
        );
        // The outer neighbours (499, 502) do flip.
        assert!(flips.iter().any(|f| f.victim.row.0 == 499));
        assert!(flips.iter().any(|f| f.victim.row.0 == 502));
    }

    #[test]
    fn rows_with_activations_statistic() {
        let mut m = model();
        for r in 0..10u32 {
            let addr = RowAddr::new(0, 0, 0, r * 10);
            for _ in 0..(r as u64 + 1) * 100 {
                m.record_activation(addr);
            }
        }
        assert_eq!(m.rows_with_activations_at_least(800), 3); // 800, 900, 1000
        assert_eq!(m.rows_with_activations_at_least(100), 10);
    }

    #[test]
    fn a_row_flips_at_most_once_per_epoch() {
        let mut m = model();
        let agg = RowAddr::new(0, 0, 0, 500);
        for _ in 0..3 * DEFAULT_T_RH {
            m.record_activation(agg);
        }
        let flips = m.take_bit_flips();
        let count_501 = flips.iter().filter(|f| f.victim.row.0 == 501).count();
        assert_eq!(count_501, 1);
        assert_eq!(m.total_flips(), flips.len() as u64);
    }

    #[test]
    fn full_refresh_prevents_flips_without_ending_epoch() {
        let mut m = model();
        let agg = RowAddr::new(0, 0, 0, 500);
        for _ in 0..DEFAULT_T_RH - 1 {
            m.record_activation(agg);
        }
        m.full_refresh();
        for _ in 0..DEFAULT_T_RH - 1 {
            m.record_activation(agg);
        }
        assert!(m.take_bit_flips().is_empty());
        assert_eq!(m.epoch(), 0);
        // Activation statistics survive a full refresh (it restores charge,
        // it doesn't end the accounting window).
        assert_eq!(m.activations_of(agg), 2 * (DEFAULT_T_RH - 1));
    }

    #[test]
    fn one_activation_allocates_one_page() {
        // The property that keeps a cell's memory proportional to the rows
        // it touches, not to the device: the blast radius of a mid-page row
        // lands on one page of one bank.
        let mut m = HammerModel::new(
            HammerConfig::lpddr4_new(),
            DramGeometry::asplos22_baseline(),
        );
        assert_eq!(m.pages_allocated(), 0);
        m.record_activation(RowAddr::new(1, 0, 9, 70_000));
        assert_eq!(m.pages_allocated(), 1);
        m.end_epoch();
        assert_eq!(m.pages_allocated(), 1, "epoch end keeps pages for reuse");
    }

    #[test]
    fn blast_radius_crosses_page_edge() {
        let mut m = model();
        let agg = RowAddr::new(0, 0, 0, PAGE_ROWS as u32 - 1);
        for _ in 0..DEFAULT_T_RH - 1 {
            m.record_activation(agg);
        }
        assert!(m.take_bit_flips().is_empty());
        let w2 = m.config().distance_weights[1];
        let near = (DEFAULT_T_RH - 1) as f64;
        for (row, expected) in [(509, near * w2), (510, near), (512, near), (513, near * w2)] {
            let got = m.disturbance_of(agg.with_row(row));
            assert!(
                (got - expected).abs() < 1e-6,
                "row {row}: {got} vs {expected}"
            );
        }
        assert_eq!(m.pages_allocated(), 2);
        m.record_activation(agg);
        let victims: Vec<u32> = m.take_bit_flips().iter().map(|f| f.victim.row.0).collect();
        assert_eq!(victims, vec![510, 512]);
        assert_eq!(m.rows_with_activations_at_least(1), 1);
    }

    #[test]
    fn flipped_rows_keep_exact_activation_counts() {
        // `FLIPPED` shares the count's word: it must neither inflate the
        // count nor make a never-activated row look activated.
        let mut m = HammerModel::new(HammerConfig::classic_only(10), DramGeometry::tiny_test());
        let agg = RowAddr::new(0, 0, 1, 500);
        for _ in 0..10 {
            m.record_activation(agg);
        }
        let victims: Vec<u32> = m.take_bit_flips().iter().map(|f| f.victim.row.0).collect();
        assert_eq!(victims, vec![499, 501]);
        for _ in 0..7 {
            m.record_activation(agg.with_row(501));
        }
        assert_eq!(m.activations_of(agg.with_row(501)), 7);
        assert_eq!(m.activations_of(agg.with_row(499)), 0);
        assert_eq!(m.rows_with_activations_at_least(0), 2);
        assert_eq!(m.rows_with_activations_at_least(7), 2);
        assert_eq!(m.rows_with_activations_at_least(8), 1);
        assert_eq!(m.rows_with_activations_at_least(11), 0);
        // Activating 500 pushes 501 past T_RH again, but 501 has already
        // flipped in this window.
        for _ in 0..10 {
            m.record_activation(agg.with_row(500));
        }
        assert!(m.take_bit_flips().iter().all(|f| f.victim.row.0 != 501));
    }

    #[test]
    fn activation_counts_fit_u32_with_headroom() {
        // Per-row counts are the low 31 bits of a word whose top bit is
        // `FLIPPED`, and reset every window; a row cannot be activated more
        // often than its bank can issue ACTs in one (unscaled, the longest)
        // window.
        let act_max = TimingParams::ddr4_3200().max_activations_per_epoch();
        assert!(act_max.saturating_mul(1_000) < 1 << 31);
    }
}
