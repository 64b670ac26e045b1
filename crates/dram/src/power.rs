//! First-order DRAM power model driven by command counts.
//!
//! The paper reports DRAM power from USIMM's power models; what its Table 6
//! depends on is the *relative* overhead of the extra row-swap traffic
//! (≈0.5% on average). We model per-command energies with DDR4-class
//! constants (per rank, first-order), so the ratio of swap energy to demand
//! energy — the quantity Table 6 reports — is faithful even though absolute
//! wattage is approximate. The substitution is documented in DESIGN.md.
//!
//! The model keeps no counts of its own: its input, [`CommandCounts`], is
//! derived from the memory controller's `ctrl.*` statistics
//! (`ControllerStats::command_counts` in `rrs-mem-ctrl`).

use crate::timing::{Cycle, TimingParams};

/// Commands issued over an interval, by energy class: the power model's
/// input. A row's precharge is priced into its activation (one ACT+PRE
/// energy), so precharges are not a separate class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommandCounts {
    /// ACT commands issued for demand accesses.
    pub activates: u64,
    /// Column reads issued.
    pub reads: u64,
    /// Column writes issued.
    pub writes: u64,
    /// Per-rank refresh commands issued.
    pub refreshes: u64,
    /// Mitigation-issued single-row refreshes.
    pub targeted_refreshes: u64,
    /// Row transfers between DRAM and a swap buffer (row swaps and
    /// un-swaps; internally a streaming ACT + a row of column accesses).
    pub swap_transfers: u64,
}

/// Per-rank energy constants, in nanojoules per command.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramPowerModel {
    /// Energy of one ACT+PRE pair (row open + close).
    pub e_act_pre_nj: f64,
    /// Energy of one 64 B column read burst.
    pub e_read_nj: f64,
    /// Energy of one 64 B column write burst.
    pub e_write_nj: f64,
    /// Energy of one per-rank refresh command (`tRFC` worth of all-bank work).
    pub e_refresh_nj: f64,
    /// Static background power per rank, in milliwatts.
    pub background_mw: f64,
}

impl DramPowerModel {
    /// DDR4-class constants (x8 devices, one rank).
    pub fn ddr4() -> Self {
        DramPowerModel {
            e_act_pre_nj: 10.0,
            e_read_nj: 7.0,
            e_write_nj: 7.5,
            e_refresh_nj: 800.0,
            background_mw: 500.0,
        }
    }

    /// Total energy in nanojoules for a set of command counts.
    ///
    /// A targeted refresh costs one ACT+PRE (it is an activate/restore of a
    /// single row). A swap transfer costs one ACT+PRE plus a full row of
    /// column bursts (128 lines for an 8 KB row).
    pub fn command_energy_nj(&self, counts: &CommandCounts, lines_per_row: usize) -> f64 {
        let row_burst = lines_per_row as f64 * (self.e_read_nj + self.e_write_nj) / 2.0;
        counts.activates as f64 * self.e_act_pre_nj
            + counts.reads as f64 * self.e_read_nj
            + counts.writes as f64 * self.e_write_nj
            + counts.refreshes as f64 * self.e_refresh_nj
            + counts.targeted_refreshes as f64 * self.e_act_pre_nj
            + counts.swap_transfers as f64 * (self.e_act_pre_nj + row_burst)
    }

    /// Full power report over an interval of `elapsed` cycles.
    pub fn report(
        &self,
        counts: &CommandCounts,
        elapsed: Cycle,
        timing: &TimingParams,
        lines_per_row: usize,
        ranks: usize,
    ) -> PowerReport {
        let dynamic_nj = self.command_energy_nj(counts, lines_per_row);
        let seconds = timing.cycles_to_ns(elapsed) * 1e-9;
        let background_nj = self.background_mw * ranks as f64 * 1e-3 * seconds * 1e9;
        let swap_counts = CommandCounts {
            swap_transfers: counts.swap_transfers,
            ..CommandCounts::default()
        };
        let swap_nj = self.command_energy_nj(&swap_counts, lines_per_row);
        PowerReport {
            dynamic_nj,
            background_nj,
            swap_nj,
            elapsed_seconds: seconds,
        }
    }
}

impl Default for DramPowerModel {
    fn default() -> Self {
        Self::ddr4()
    }
}

/// Energy/power summary for an interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerReport {
    /// Dynamic energy of all commands, nJ.
    pub dynamic_nj: f64,
    /// Background (static) energy, nJ.
    pub background_nj: f64,
    /// Portion of dynamic energy attributable to row swaps, nJ.
    pub swap_nj: f64,
    /// Interval length in seconds.
    pub elapsed_seconds: f64,
}

impl PowerReport {
    /// Total energy in nanojoules.
    pub fn total_nj(&self) -> f64 {
        self.dynamic_nj + self.background_nj
    }

    /// Average power in milliwatts.
    pub fn average_mw(&self) -> f64 {
        if self.elapsed_seconds <= 0.0 {
            0.0
        } else {
            self.total_nj() * 1e-9 / self.elapsed_seconds * 1e3
        }
    }

    /// Fractional overhead of swap energy relative to non-swap energy —
    /// the paper's "DRAM Power Overhead (Row-Swap)" row of Table 6.
    pub fn swap_overhead_fraction(&self) -> f64 {
        let base = self.total_nj() - self.swap_nj;
        if base <= 0.0 {
            0.0
        } else {
            self.swap_nj / base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_is_linear_in_commands() {
        let m = DramPowerModel::ddr4();
        let one = CommandCounts {
            activates: 1,
            reads: 1,
            ..CommandCounts::default()
        };
        let two = CommandCounts {
            activates: 2,
            reads: 2,
            ..CommandCounts::default()
        };
        let e1 = m.command_energy_nj(&one, 128);
        let e2 = m.command_energy_nj(&two, 128);
        assert!((e2 - 2.0 * e1).abs() < 1e-9);
    }

    #[test]
    fn swap_transfer_costs_a_full_row() {
        let m = DramPowerModel::ddr4();
        let swap = CommandCounts {
            swap_transfers: 1,
            ..CommandCounts::default()
        };
        let line = CommandCounts {
            reads: 1,
            ..CommandCounts::default()
        };
        // One row transfer moves 128 lines; it must cost far more than one.
        assert!(m.command_energy_nj(&swap, 128) > 50.0 * m.command_energy_nj(&line, 128));
    }

    #[test]
    fn report_swap_overhead_small_for_benign_ratio() {
        // 1 M demand activations + reads, 300 swap transfers (≈75 swaps/epoch)
        // must produce a sub-1% overhead, like the paper's 0.5% average.
        let m = DramPowerModel::ddr4();
        let t = TimingParams::ddr4_3200();
        let counts = CommandCounts {
            activates: 1_000_000,
            reads: 3_000_000,
            refreshes: 8_205,
            swap_transfers: 300,
            ..CommandCounts::default()
        };
        let r = m.report(&counts, t.epoch, &t, 128, 1);
        let f = r.swap_overhead_fraction();
        assert!(f > 0.0 && f < 0.02, "swap overhead = {f}");
    }

    #[test]
    fn average_power_includes_background() {
        let m = DramPowerModel::ddr4();
        let t = TimingParams::ddr4_3200();
        let r = m.report(&CommandCounts::default(), t.epoch, &t, 128, 1);
        // Idle rank: exactly the background power.
        assert!((r.average_mw() - m.background_mw).abs() < 1.0);
    }

    #[test]
    fn zero_elapsed_reports_zero_power() {
        let m = DramPowerModel::ddr4();
        let t = TimingParams::ddr4_3200();
        let r = m.report(&CommandCounts::default(), 0, &t, 128, 1);
        assert_eq!(r.average_mw(), 0.0);
    }
}
