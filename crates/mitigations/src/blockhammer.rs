//! BlockHammer: blacklist-and-throttle mitigation (Yağlıkçı et al.,
//! HPCA 2021), the paper's only other aggressor-focused baseline (§8.1).
//!
//! BlockHammer tracks activation rates with per-bank *counting Bloom
//! filters* (CBFs) and, once a row's estimated count crosses the
//! *blacklisting threshold* `N_BL`, spaces further activations of that row
//! (and of every row aliasing to the same filter buckets) so the row can
//! never reach `T_RH` activations within the window:
//!
//! ```text
//! t_delay = window / (T_RH − N_BL)
//! ```
//!
//! At `T_RH = 4.8 K` this is tens of microseconds per activation — the
//! denial-of-service exposure §8.1 demonstrates (~200× worst-case slowdown,
//! vs. ~2× for RRS).
//!
//! Two CBFs are kept per bank and reset alternately at epoch boundaries
//! (time-interleaving), so blacklist evidence always spans at least one full
//! epoch; both filters are incremented, decisions use the older one.

use rrs_core::prince::Prince;
use rrs_dram::geometry::{DramGeometry, RowAddr};
use rrs_dram::timing::Cycle;
use rrs_flat::FlatMap;
use rrs_mem_ctrl::mitigation::{Mitigation, MitigationAction};

/// BlockHammer parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHammerConfig {
    /// The Row Hammer threshold being defended against.
    pub t_rh: u64,
    /// Blacklisting threshold `N_BL` (the paper evaluates 512 and 1 K).
    pub blacklist_threshold: u64,
    /// Counting-Bloom-filter buckets per bank.
    pub counters_per_bank: usize,
    /// Hash functions per filter.
    pub hashes: usize,
    /// Tracking window (one refresh epoch).
    pub window: Cycle,
}

impl BlockHammerConfig {
    /// The §8.1 evaluation point: `T_RH` = 4.8 K with the given blacklist
    /// threshold (512 or 1024) over a 64 ms window.
    pub fn asplos22(blacklist_threshold: u64, window: Cycle) -> Self {
        BlockHammerConfig {
            t_rh: 4_800,
            blacklist_threshold,
            counters_per_bank: 32_768,
            hashes: 3,
            window,
        }
    }

    /// Minimum spacing imposed on blacklisted-row activations.
    ///
    /// Sized so a blacklisted row's window total stays below `T_RH / 2`
    /// (a victim of a double-sided pattern receives disturbance from *two*
    /// aggressors): `N_BL` unthrottled activations plus at most
    /// `window / t_delay` throttled ones, with a 2-activation margin for
    /// boundary effects. At the paper's design point this is ≈34 µs —
    /// the "approximately 20 microseconds" magnitude §8.1 quotes.
    pub fn t_delay(&self) -> Cycle {
        let budget = (self.t_rh / 2)
            .saturating_sub(self.blacklist_threshold)
            .saturating_sub(2)
            .max(1);
        self.window / budget
    }
}

#[derive(Debug, Clone)]
struct BankFilters {
    /// Two time-interleaved counting Bloom filters.
    filters: [Vec<u32>; 2],
    /// Index of the older filter (used for blacklist decisions).
    older: usize,
    /// Exact last-activation time per *blacklisted* row (BlockHammer's
    /// activation-history buffer): spacing is enforced per row, while the
    /// Bloom filters decide — with aliasing collateral — who is throttled.
    /// Keyed by the in-bank row number (the filters are already per bank).
    last_act: FlatMap<Cycle>,
}

impl BankFilters {
    fn new(m: usize) -> Self {
        BankFilters {
            filters: [vec![0; m], vec![0; m]],
            older: 0,
            last_act: FlatMap::new(),
        }
    }
}

/// The BlockHammer defense.
#[derive(Debug, Clone)]
pub struct BlockHammer {
    config: BlockHammerConfig,
    geometry: DramGeometry,
    hashers: Vec<Prince>,
    banks: Vec<BankFilters>,
    name: String,
}

impl BlockHammer {
    /// Creates the defense for `geometry`.
    pub fn new(config: BlockHammerConfig, geometry: DramGeometry, seed: u128) -> Self {
        let hashers = (0..config.hashes)
            .map(|i| Prince::new(seed ^ 0x424c_4f43_4b48 ^ ((i as u128 + 1) << 64)))
            .collect();
        let banks = (0..geometry.total_banks())
            .map(|_| BankFilters::new(config.counters_per_bank))
            .collect();
        BlockHammer {
            name: format!("blockhammer-bl{}", config.blacklist_threshold),
            config,
            geometry,
            hashers,
            banks,
        }
    }

    /// The defense's configuration.
    pub fn config(&self) -> BlockHammerConfig {
        self.config
    }

    fn buckets(&self, row: RowAddr) -> Vec<usize> {
        let m = self.config.counters_per_bank;
        self.hashers
            .iter()
            .map(|h| (h.encrypt(row.row.0 as u64) as usize) % m)
            .collect()
    }

    /// Estimated activation count of `row` (min over its buckets in the
    /// older filter — the standard CBF upper-bound estimate).
    pub fn estimate(&self, row: RowAddr) -> u64 {
        let bank = &self.banks[row.bank_index(&self.geometry)];
        self.buckets(row)
            .iter()
            .map(|&b| bank.filters[bank.older][b] as u64)
            .min()
            .unwrap_or(0)
    }
}

impl Mitigation for BlockHammer {
    fn name(&self) -> &str {
        &self.name
    }

    fn activation_delay(&mut self, row: RowAddr, now: Cycle) -> Cycle {
        if self.estimate(row) < self.config.blacklist_threshold {
            return 0;
        }
        let t_delay = self.config.t_delay();
        let bank = &self.banks[row.bank_index(&self.geometry)];
        let earliest = bank
            .last_act
            .get(u64::from(row.row.0))
            .map(|&t| t + t_delay)
            .unwrap_or(0);
        earliest.saturating_sub(now)
    }

    fn on_activation(&mut self, row: RowAddr, at: Cycle, _actions: &mut Vec<MitigationAction>) {
        let idx = row.bank_index(&self.geometry);
        let buckets = self.buckets(row);
        let blacklisted = self.estimate(row) >= self.config.blacklist_threshold;
        let bank = &mut self.banks[idx];
        for &b in &buckets {
            bank.filters[0][b] = bank.filters[0][b].saturating_add(1);
            bank.filters[1][b] = bank.filters[1][b].saturating_add(1);
        }
        if blacklisted {
            let t = bank.last_act.get_or_insert_with(u64::from(row.row.0), || 0);
            *t = (*t).max(at);
        }
    }

    fn on_epoch_end(&mut self, now: Cycle, _actions: &mut Vec<MitigationAction>) {
        let horizon = now.saturating_sub(2 * self.config.window);
        for bank in &mut self.banks {
            // The older filter has covered its full lifetime: reset it and
            // promote the other. The activation-history buffer persists
            // across the boundary (clearing it would hand every throttled
            // row a free unspaced activation each window); only entries
            // older than the full tracking horizon are pruned.
            let o = bank.older;
            bank.filters[o].iter_mut().for_each(|c| *c = 0);
            bank.older = 1 - o;
            bank.last_act.retain(|_, &mut t| t >= horizon);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bh(blacklist: u64) -> BlockHammer {
        let window = rrs_dram::timing::TimingParams::ddr4_3200().epoch;
        BlockHammer::new(
            BlockHammerConfig::asplos22(blacklist, window),
            DramGeometry::tiny_test(),
            99,
        )
    }

    #[test]
    fn t_delay_matches_paper_magnitude() {
        // §8.1: "at T_RH of 4.8K, we would need to delay memory requests for
        // approximately 20 microseconds per activation." Our per-victim
        // disturbance accounting treats a double-sided victim as receiving
        // both aggressors' activations, so the safe per-row budget is
        // T_RH/2 and the delay lands at ~42 µs — the same tens-of-µs
        // magnitude that drives the paper's DoS argument.
        let window = rrs_dram::timing::TimingParams::ddr4_3200().epoch;
        let cfg = BlockHammerConfig::asplos22(512, window);
        let us = cfg.t_delay() as f64 / 3_200.0; // cycles -> µs at 3.2 GHz
        assert!((15.0..60.0).contains(&us), "t_delay = {us} µs");
    }

    #[test]
    fn below_blacklist_no_delay() {
        let mut m = bh(512);
        let row = RowAddr::new(0, 0, 0, 100);
        let mut actions = Vec::new();
        for t in 0..500u64 {
            assert_eq!(m.activation_delay(row, t * 144), 0);
            m.on_activation(row, t * 144, &mut actions);
        }
    }

    #[test]
    fn blacklisted_row_is_throttled_hard() {
        let mut m = bh(512);
        let row = RowAddr::new(0, 0, 0, 100);
        let t_delay = m.config().t_delay();
        let mut actions = Vec::new();
        let (mut now, mut delays) = (0, Vec::new());
        for _ in 0..600 {
            now += 144; // tRC pace
            let d = m.activation_delay(row, now);
            delays.push(d);
            now += d;
            m.on_activation(row, now, &mut actions);
        }
        // No delay before the blacklist threshold; once blacklisted, each
        // activation waits out the rest of t_delay (≈ 48 K cycles, not 144)
        // since the previous one.
        let throttled = delays.iter().position(|&d| d > 0).expect("throttled");
        assert!(throttled >= 512, "throttled from activation {throttled}");
        assert!(delays[throttled..].iter().all(|&d| d == t_delay - 144));
        let d = m.activation_delay(row, now + 144);
        assert!(d > 10_000, "delay = {d}");
    }

    #[test]
    fn aliasing_rows_share_punishment() {
        // Another row hitting the same buckets as a blacklisted one gets
        // delayed too (the collateral-damage effect behind Figure 11's tail).
        let mut m = bh(512);
        let hot = RowAddr::new(0, 0, 0, 100);
        let mut actions = Vec::new();
        let mut now = 0;
        for _ in 0..600 {
            now += 144;
            now += m.activation_delay(hot, now);
            m.on_activation(hot, now, &mut actions);
        }
        // Find a row aliasing on all buckets is unlikely; instead verify the
        // estimate is driven by buckets, i.e. the hot row's estimate counts.
        assert!(m.estimate(hot) >= 512);
    }

    #[test]
    fn epoch_rotation_eventually_forgives() {
        let mut m = bh(512);
        let row = RowAddr::new(0, 0, 0, 100);
        let mut actions = Vec::new();
        let mut now = 0;
        for _ in 0..600 {
            now += 144;
            m.on_activation(row, now, &mut actions);
        }
        assert!(m.estimate(row) >= 512);
        m.on_epoch_end(now, &mut actions);
        m.on_epoch_end(now, &mut actions);
        // After both filters rotate, the evidence is gone.
        assert_eq!(m.estimate(row), 0);
    }

    #[test]
    fn banks_are_isolated() {
        let mut m = bh(512);
        let hot = RowAddr::new(0, 0, 0, 100);
        let other_bank = RowAddr::new(0, 0, 1, 100);
        let mut actions = Vec::new();
        for t in 0..600u64 {
            m.on_activation(hot, t * 144, &mut actions);
        }
        assert!(m.estimate(hot) >= 512);
        assert_eq!(m.estimate(other_bank), 0);
    }
}
