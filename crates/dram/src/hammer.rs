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

use crate::geometry::{DramGeometry, RowAddr};

/// Rows per page of a bank's dense tables. A page is allocated on the
/// first touch of any of its rows, so memory follows the row ranges a
/// cell reaches rather than the size of the device.
const PAGE_ROWS: usize = 512;

/// [`Page::flags`] bit: the row is on its bank's dirty list.
const DIRTY: u8 = 1;
/// [`Page::flags`] bit: the row has flipped in the current window.
const FLIPPED: u8 = 2;

/// Window state of `PAGE_ROWS` consecutive rows of one bank.
#[derive(Debug, Clone)]
struct Page {
    disturbance: [f64; PAGE_ROWS],
    activations: [u32; PAGE_ROWS],
    flags: [u8; PAGE_ROWS],
}

impl Page {
    fn zeroed() -> Box<Page> {
        Box::new(Page {
            disturbance: [0.0; PAGE_ROWS],
            activations: [0; PAGE_ROWS],
            flags: [0; PAGE_ROWS],
        })
    }

    /// Resets one row to the start-of-window state.
    fn clear(&mut self, i: usize) {
        if let (Some(d), Some(a), Some(f)) = (
            self.disturbance.get_mut(i),
            self.activations.get_mut(i),
            self.flags.get_mut(i),
        ) {
            (*d, *a, *f) = (0.0, 0, 0);
        }
    }
}

/// One bank's rows: lazily allocated pages plus the list of rows holding
/// any window state, so epoch ends clear only what was touched.
#[derive(Debug, Clone)]
struct BankRows {
    pages: Vec<Option<Box<Page>>>,
    /// Rows whose `DIRTY` bit is set, in first-touch order.
    dirty: Vec<u32>,
}

impl BankRows {
    /// `row`'s page (allocated on first touch) and offset, with the row
    /// put on the dirty list. `None` only past the bank's last page.
    fn touch(&mut self, row: u32) -> Option<(&mut Page, usize)> {
        let i = row as usize % PAGE_ROWS;
        let page = self
            .pages
            .get_mut(row as usize / PAGE_ROWS)?
            .get_or_insert_with(Page::zeroed);
        let flags = page.flags.get_mut(i)?;
        if *flags & DIRTY == 0 {
            *flags |= DIRTY;
            self.dirty.push(row);
        }
        Some((page, i))
    }

    /// `row`'s page and offset, if the page has been allocated.
    fn page(&self, row: u32) -> Option<(&Page, usize)> {
        let page = self.pages.get(row as usize / PAGE_ROWS)?.as_deref()?;
        Some((page, row as usize % PAGE_ROWS))
    }
}

/// `row`'s disturbance slot in `pages`, if its page has been allocated.
fn disturbance_mut(pages: &mut [Option<Box<Page>>], row: u32) -> Option<&mut f64> {
    let page = pages.get_mut(row as usize / PAGE_ROWS)?.as_deref_mut()?;
    page.disturbance.get_mut(row as usize % PAGE_ROWS)
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
#[derive(Debug, Clone)]
pub struct HammerModel {
    config: HammerConfig,
    geometry: DramGeometry,
    /// Indexed by [`RowAddr::bank_index`].
    banks: Vec<BankRows>,
    flips: Vec<BitFlip>,
    total_flips: u64,
    epoch: u64,
}

impl HammerModel {
    /// A fresh model at epoch 0 with no accumulated disturbance.
    pub fn new(config: HammerConfig, geometry: DramGeometry) -> Self {
        let bank = BankRows {
            pages: vec![None; geometry.rows_per_bank.div_ceil(PAGE_ROWS)],
            dirty: Vec::new(),
        };
        HammerModel {
            config,
            geometry,
            banks: vec![bank; geometry.total_banks()],
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
        if let Some((page, i)) = self.bank_mut(addr).and_then(|b| b.touch(addr.row.0)) {
            if let Some(a) = page.activations.get_mut(i) {
                *a += 1;
            }
            if let Some(d) = page.disturbance.get_mut(i) {
                *d = 0.0;
            }
        }
        self.disturb_neighbors(addr);
    }

    /// Records a targeted (mitigation-issued) refresh of `addr`: restores
    /// the row's own charge, and — if configured — disturbs its neighbours
    /// exactly like an activation (the Half-Double enabler).
    pub fn record_targeted_refresh(&mut self, addr: RowAddr) {
        if let Some(d) = self
            .bank_mut(addr)
            .and_then(|b| disturbance_mut(&mut b.pages, addr.row.0))
        {
            *d = 0.0;
        }
        if self.config.targeted_refresh_disturbs {
            self.disturb_neighbors(addr);
        }
    }

    /// Immediately restores every row (a preemptive full-memory refresh, as
    /// in the attack-detection co-design of §5.3.2 footnote 2). Does not end
    /// the epoch.
    pub fn full_refresh(&mut self) {
        for bank in &mut self.banks {
            for &row in &bank.dirty {
                if let Some(d) = disturbance_mut(&mut bank.pages, row) {
                    *d = 0.0;
                }
            }
        }
    }

    /// Ends the refresh window: every row has been refreshed once, so all
    /// accumulated disturbance is cleared and per-window counters reset.
    pub fn end_epoch(&mut self) {
        for bank in &mut self.banks {
            let BankRows { pages, dirty } = bank;
            for row in dirty.drain(..) {
                let page = pages.get_mut(row as usize / PAGE_ROWS);
                if let Some(p) = page.and_then(|p| p.as_deref_mut()) {
                    p.clear(row as usize % PAGE_ROWS);
                }
            }
        }
        self.epoch += 1;
    }

    fn bank_mut(&mut self, addr: RowAddr) -> Option<&mut BankRows> {
        self.banks.get_mut(addr.bank_index(&self.geometry))
    }

    fn disturb_neighbors(&mut self, addr: RowAddr) {
        let Some(bank) = self.banks.get_mut(addr.bank_index(&self.geometry)) else {
            return;
        };
        let t_rh = self.config.t_rh as f64;
        // Weights past the configured list disturb nothing.
        for (d, &w) in (1..=self.config.blast_radius).zip(&self.config.distance_weights) {
            for n in addr.neighbors(d, &self.geometry) {
                let Some((page, i)) = bank.touch(n.row.0) else {
                    continue;
                };
                let (Some(e), Some(flags)) = (page.disturbance.get_mut(i), page.flags.get_mut(i))
                else {
                    continue;
                };
                *e += w;
                if *e >= t_rh && *flags & FLIPPED == 0 {
                    *flags |= FLIPPED;
                    self.flips.push(BitFlip {
                        victim: n,
                        epoch: self.epoch,
                        disturbance: *e,
                    });
                    self.total_flips += 1;
                }
            }
        }
    }

    /// Accumulated disturbance of `addr` in the current window.
    pub fn disturbance_of(&self, addr: RowAddr) -> f64 {
        self.page_of(addr)
            .and_then(|(p, i)| p.disturbance.get(i).copied())
            .unwrap_or(0.0)
    }

    /// Activations of `addr` recorded in the current window.
    pub fn activations_of(&self, addr: RowAddr) -> u64 {
        self.page_of(addr)
            .and_then(|(p, i)| p.activations.get(i).copied())
            .map_or(0, u64::from)
    }

    fn page_of(&self, addr: RowAddr) -> Option<(&Page, usize)> {
        self.banks
            .get(addr.bank_index(&self.geometry))?
            .page(addr.row.0)
    }

    /// Number of distinct rows with at least `n` activations this window —
    /// the paper's "Rows ACT-800+" statistic (Table 3). Rows that were only
    /// disturbed, never activated, do not count, even for `n = 0`.
    pub fn rows_with_activations_at_least(&self, n: u64) -> usize {
        self.banks
            .iter()
            .map(|bank| {
                bank.dirty
                    .iter()
                    .filter_map(|&row| bank.page(row))
                    .filter_map(|(p, i)| p.activations.get(i).copied())
                    .filter(|&c| c > 0 && u64::from(c) >= n)
                    .count()
            })
            .sum()
    }

    /// Pages allocated across all banks.
    #[cfg(test)]
    fn pages_allocated(&self) -> usize {
        self.banks
            .iter()
            .flat_map(|b| &b.pages)
            .filter(|p| p.is_some())
            .count()
    }

    /// Drains and returns the bit flips recorded since the last call.
    pub fn take_bit_flips(&mut self) -> Vec<BitFlip> {
        std::mem::take(&mut self.flips)
    }

    /// Total flips over the model's lifetime (not drained).
    pub fn total_flips(&self) -> u64 {
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
    fn activation_counts_fit_u32_with_headroom() {
        // Per-row counts are u32 and reset every window; a row cannot be
        // activated more often than its bank can issue ACTs in one
        // (unscaled, the longest) window.
        let act_max = TimingParams::ddr4_3200().max_activations_per_epoch();
        assert!(act_max.saturating_mul(1_000) < u64::from(u32::MAX));
    }
}
