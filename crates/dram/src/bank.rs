//! Per-bank timing state machine: row buffer, `tRC`-limited activations,
//! precharge.
//!
//! The bank model is deliberately at the granularity the paper's results
//! depend on: row-buffer hits vs. misses, the `tRC` floor on activation rate
//! (which bounds `ACT_max` and hence every RRS structure size), and bank
//! unavailability during refresh and row swaps. It keeps timing only: the
//! controller's `ctrl.*` counters count the commands.

use crate::geometry::RowId;
use crate::timing::{Cycle, TimingParams};

/// Outcome of a column access on a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Cycle at which the data burst begins on the bus.
    pub data_at: Cycle,
    /// If the access required an activation, the cycle it was issued.
    pub activated_at: Option<Cycle>,
    /// Whether the access hit in the open row buffer.
    pub row_hit: bool,
}

/// One DRAM bank: open row and timing state.
#[derive(Debug, Clone)]
pub struct Bank {
    timing: TimingParams,
    open_row: Option<RowId>,
    /// Earliest cycle the next activation may issue (tRC from the last ACT).
    next_act_allowed: Cycle,
    /// The bank is busy (refresh, swap streaming) until this cycle.
    busy_until: Cycle,
}

impl Bank {
    /// A fresh, idle bank.
    pub fn new(timing: TimingParams) -> Self {
        Bank {
            timing,
            open_row: None,
            next_act_allowed: 0,
            busy_until: 0,
        }
    }

    /// The currently open row, if any.
    pub fn open_row(&self) -> Option<RowId> {
        self.open_row
    }

    /// Cycle until which the bank is unavailable.
    pub fn busy_until(&self) -> Cycle {
        self.busy_until
    }

    /// Earliest cycle a new activation could issue if requested at `now`.
    pub fn earliest_activate(&self, now: Cycle) -> Cycle {
        let start = now.max(self.busy_until);
        let after_pre = if self.open_row.is_some() {
            start + self.timing.t_rp
        } else {
            start
        };
        after_pre.max(self.next_act_allowed)
    }

    /// Performs a column access (read or write) to `row`, activating it
    /// first if it is not the open row. Returns when data transfers and
    /// whether an activation occurred.
    pub fn access(&mut self, row: RowId, now: Cycle) -> AccessOutcome {
        if self.open_row == Some(row) {
            let start = now.max(self.busy_until);
            AccessOutcome {
                data_at: start + self.timing.t_cas,
                activated_at: None,
                row_hit: true,
            }
        } else {
            let act_at = self.activate(row, now);
            AccessOutcome {
                data_at: act_at + self.timing.t_rcd + self.timing.t_cas,
                activated_at: Some(act_at),
                row_hit: false,
            }
        }
    }

    /// Activates `row` (precharging the open row first if needed) and
    /// returns the cycle the ACT command issues.
    pub fn activate(&mut self, row: RowId, now: Cycle) -> Cycle {
        let act_at = self.earliest_activate(now);
        self.open_row = Some(row);
        self.next_act_allowed = act_at + self.timing.t_rc;
        self.busy_until = act_at + self.timing.t_rcd;
        act_at
    }

    /// A mitigation-issued targeted refresh of `row`: occupies the bank for
    /// one row cycle and leaves the row buffer closed (§5.4: "the row buffer
    /// of the bank is closed after" mitigation operations).
    ///
    /// Returns the cycle the refresh started.
    pub fn targeted_refresh(&mut self, now: Cycle) -> Cycle {
        let start = self.earliest_activate(now);
        self.open_row = None;
        self.next_act_allowed = start + self.timing.t_rc;
        self.busy_until = start + self.timing.t_rc;
        start
    }

    /// Marks the bank busy until `until` (rank refresh, swap streaming) and
    /// closes the row buffer.
    pub fn force_busy_until(&mut self, until: Cycle) {
        self.open_row = None;
        self.busy_until = self.busy_until.max(until);
        self.next_act_allowed = self.next_act_allowed.max(until);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> Bank {
        Bank::new(TimingParams::ddr4_3200())
    }

    #[test]
    fn first_access_activates() {
        let mut b = bank();
        let o = b.access(RowId(5), 100);
        assert!(!o.row_hit);
        assert_eq!(o.activated_at, Some(100));
        let t = TimingParams::ddr4_3200();
        assert_eq!(o.data_at, 100 + t.t_rcd + t.t_cas);
        assert_eq!(b.open_row(), Some(RowId(5)));
    }

    #[test]
    fn second_access_same_row_hits() {
        let mut b = bank();
        let t = TimingParams::ddr4_3200();
        let first = b.access(RowId(5), 0);
        let o = b.access(RowId(5), first.data_at);
        assert!(o.row_hit);
        assert_eq!(o.activated_at, None);
        assert_eq!(o.data_at, first.data_at + t.t_cas);
    }

    #[test]
    fn conflicting_access_precharges_first() {
        let mut b = bank();
        let t = TimingParams::ddr4_3200();
        b.access(RowId(5), 0);
        // Next ACT must wait for both tRP after precharge and tRC from ACT 0.
        let o = b.access(RowId(9), 200);
        let act = o.activated_at.unwrap();
        assert!(act >= 200 + t.t_rp);
        assert_eq!(b.open_row(), Some(RowId(9)));
    }

    #[test]
    fn trc_limits_activation_rate() {
        let mut b = bank();
        let t = TimingParams::ddr4_3200();
        let a1 = b.activate(RowId(1), 0);
        let a2 = b.activate(RowId(2), 0);
        // Even requested at cycle 0, the second ACT cannot beat tRC
        // (plus the precharge of row 1's buffer).
        assert!(a2 >= a1 + t.t_rc, "a2={a2}");
    }

    #[test]
    fn hammer_rate_is_trc_bounded() {
        // Issue 1000 back-to-back activations; elapsed time must be at least
        // 999 * tRC — this is the property that bounds ACT_max.
        let mut b = bank();
        let t = TimingParams::ddr4_3200();
        let mut now = 0;
        let mut first = None;
        for i in 0..1000u32 {
            // Alternate rows like a double-sided hammer.
            let act = b.activate(RowId(i % 2), now);
            first.get_or_insert(act);
            now = act;
        }
        assert!(now - first.unwrap() >= 999 * t.t_rc);
    }

    #[test]
    fn targeted_refresh_counts_as_activation_and_closes_row() {
        // For timing, a targeted refresh is an ACT+PRE: it waits out tRC
        // from the last ACT and holds the bank for a full row cycle.
        let mut b = bank();
        let t = TimingParams::ddr4_3200();
        let act = b.access(RowId(5), 0).activated_at.unwrap();
        let start = b.targeted_refresh(act);
        assert!(start >= act + t.t_rc, "start={start}");
        assert_eq!(b.open_row(), None);
        assert_eq!(b.busy_until(), start + t.t_rc);
    }

    #[test]
    fn force_busy_blocks_and_closes() {
        let mut b = bank();
        b.access(RowId(5), 0);
        b.force_busy_until(50_000);
        assert_eq!(b.open_row(), None);
        let o = b.access(RowId(5), 1_000);
        assert!(o.activated_at.unwrap() >= 50_000);
    }
}
