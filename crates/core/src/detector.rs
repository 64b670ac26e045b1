//! Attack detection co-design (§5.3.2, footnote 2).
//!
//! "A trivial mechanism to detect an attack on RRS is to count the number of
//! swaps in 64 ms for each swapped row as a successful attack requires
//! repetitive swaps in 64 ms on one row. When an imminent attack on RRS is
//! flagged, a preemptive refresh of the entire DRAM can prevent the attack,
//! thus providing higher security than RRS alone."
//!
//! [`SwapDetector`] implements that mechanism as an optional extension to
//! the base design. Benign workloads essentially never re-swap the same row
//! within an epoch (Figure 5: tens of swaps across thousands of rows), so a
//! small per-row alarm threshold catches the §5.3 swap-chasing attack with
//! no false positives in practice.

use rrs_flat::FlatMap;

/// Detector parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorConfig {
    /// Swaps of the *same* row within one epoch that trigger an alarm.
    pub swaps_per_row_alarm: u32,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        // A successful attack needs k = T_RH / T_RRS = 6 same-row swaps in
        // one epoch; alarming at 3 flags it long before completion.
        DetectorConfig {
            swaps_per_row_alarm: 3,
        }
    }
}

/// Counts per-row swaps within the current epoch and raises alarms.
#[derive(Debug, Clone, Default)]
pub struct SwapDetector {
    config: DetectorConfig,
    swaps_this_epoch: FlatMap<u32>,
}

impl SwapDetector {
    /// Creates a detector.
    pub fn new(config: DetectorConfig) -> Self {
        SwapDetector {
            config,
            swaps_this_epoch: FlatMap::new(),
        }
    }

    /// The detector's configuration.
    pub fn config(&self) -> DetectorConfig {
        self.config
    }

    /// Records that `row` was swapped; returns `true` if this row's swap
    /// count just reached the alarm threshold.
    pub fn record_swap(&mut self, row: u64) -> bool {
        let c = self.swaps_this_epoch.get_or_insert_with(row, || 0);
        *c += 1;
        *c == self.config.swaps_per_row_alarm
    }

    /// Swaps recorded for `row` this epoch.
    pub fn swaps_of(&self, row: u64) -> u32 {
        self.swaps_this_epoch.get(row).copied().unwrap_or(0)
    }

    /// Clears per-epoch counters.
    pub fn end_epoch(&mut self) {
        self.swaps_this_epoch.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alarm_fires_exactly_at_threshold() {
        let mut d = SwapDetector::new(DetectorConfig {
            swaps_per_row_alarm: 3,
        });
        assert!(!d.record_swap(5));
        assert!(!d.record_swap(5));
        assert!(d.record_swap(5));
        // Only once per threshold crossing.
        assert!(!d.record_swap(5));
        assert_eq!(d.swaps_of(5), 4);
    }

    #[test]
    fn distinct_rows_do_not_alarm() {
        let mut d = SwapDetector::new(DetectorConfig::default());
        for row in 0..1000u64 {
            assert!(!d.record_swap(row), "benign spread must not alarm");
        }
    }

    #[test]
    fn epoch_end_resets_counts() {
        let mut d = SwapDetector::new(DetectorConfig {
            swaps_per_row_alarm: 2,
        });
        d.record_swap(9);
        d.end_epoch();
        assert_eq!(d.swaps_of(9), 0);
        assert!(!d.record_swap(9));
        assert!(d.record_swap(9));
    }

    #[test]
    fn default_threshold_is_below_attack_requirement() {
        // k = 6 same-row swaps complete an attack; default must be < 6.
        let d = DetectorConfig::default();
        assert!(d.swaps_per_row_alarm < 6);
    }
}
