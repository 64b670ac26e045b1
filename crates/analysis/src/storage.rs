//! Storage-overhead accounting — the paper's Table 5 (§7.1).
//!
//! Entry sizing follows §7.1: a 17-bit row id, with set-associative
//! structures storing the tag as the row id *minus* the set-index bits.
//! The RIT entry is `valid + lock + src-tag + dest-rowid` (28 bits); the
//! tracker entry is `valid + row-tag + counter` (22 bits); each channel has
//! two row-sized swap buffers amortized across its banks.

use rrs_core::cat::CatConfig;
use rrs_core::rrs::RrsConfig;
use rrs_dram::geometry::DramGeometry;

/// One line of the storage table.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageRow {
    /// Structure name.
    pub structure: &'static str,
    /// Entry size description.
    pub entry_bits: u32,
    /// Physical entries (slots).
    pub entries: usize,
    /// Cost in KiB per bank.
    pub kib_per_bank: f64,
}

/// Storage breakdown per bank (Table 5).
#[derive(Debug, Clone, PartialEq)]
pub struct StorageBreakdown {
    /// Individual structures.
    pub rows: Vec<StorageRow>,
}

impl StorageBreakdown {
    /// Total KiB per bank.
    pub fn total_kib_per_bank(&self) -> f64 {
        self.rows.iter().map(|r| r.kib_per_bank).sum()
    }

    /// Total KiB per rank (`banks` banks).
    pub fn total_kib_per_rank(&self, banks: usize) -> f64 {
        self.total_kib_per_bank() * banks as f64
    }
}

/// Computes Table 5 for a design point on a geometry.
///
/// `rit_shape` and `tracker_shape` give the CAT geometries (Table 5 uses
/// 2×256×20 and 2×64×20 respectively).
pub fn storage_breakdown(
    config: &RrsConfig,
    geometry: &DramGeometry,
    rit_shape: &CatConfig,
    tracker_shape: &CatConfig,
) -> StorageBreakdown {
    let row_bits = geometry.row_id_bits();

    // RIT: valid + lock + source tag (row id minus set index) + full
    // destination row id.
    let rit_set_bits = (rit_shape.sets as u32).trailing_zeros();
    let rit_entry_bits = 1 + 1 + (row_bits - rit_set_bits) + row_bits;
    let rit_entries = rit_shape.slots();

    // Tracker: valid + row tag + activation counter (wide enough for
    // counts up to ~T_RRS with slack; the paper budgets 10 bits at T=800).
    let trk_set_bits = (tracker_shape.sets as u32).trailing_zeros();
    // Counter wide enough for T_RRS (10 bits at T=800, per Table 5).
    let counter_bits = (64 - config.t_rrs().leading_zeros().min(63)).max(4);
    let trk_entry_bits = 1 + (row_bits - trk_set_bits) + counter_bits;
    let trk_entries = tracker_shape.slots();

    // Two row-sized swap buffers per channel, amortized over the banks of
    // the channel.
    let banks_per_channel = geometry.ranks_per_channel * geometry.banks_per_rank;
    let swap_buffer_kib = 2.0 * geometry.row_size_bytes as f64 / 1024.0 / banks_per_channel as f64;

    let bits_to_kib = |bits: u64| bits as f64 / 8.0 / 1024.0;

    StorageBreakdown {
        rows: vec![
            StorageRow {
                structure: "RIT",
                entry_bits: rit_entry_bits,
                entries: rit_entries,
                kib_per_bank: bits_to_kib(rit_entry_bits as u64 * rit_entries as u64),
            },
            StorageRow {
                structure: "Tracker",
                entry_bits: trk_entry_bits,
                entries: trk_entries,
                kib_per_bank: bits_to_kib(trk_entry_bits as u64 * trk_entries as u64),
            },
            StorageRow {
                structure: "Swap-Buffers",
                entry_bits: (geometry.row_size_bytes * 8) as u32,
                entries: 2,
                kib_per_bank: swap_buffer_kib,
            },
        ],
    }
}

/// Table 5 exactly as published: the ASPLOS'22 design point on the
/// baseline geometry with the §6.3/§6.4 CAT shapes.
pub fn table5() -> StorageBreakdown {
    storage_breakdown(
        &RrsConfig::asplos22(),
        &DramGeometry::asplos22_baseline(),
        &CatConfig::rit_asplos22(),
        &CatConfig::tracker_asplos22(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_rit_is_35_kib() {
        let t = table5();
        let rit = &t.rows[0];
        assert_eq!(rit.entry_bits, 28, "RIT entry bits");
        assert_eq!(rit.entries, 2 * 256 * 20);
        assert!(
            (rit.kib_per_bank - 35.0).abs() < 0.5,
            "RIT = {} KiB",
            rit.kib_per_bank
        );
    }

    #[test]
    fn table5_tracker_is_about_6_9_kib() {
        let t = table5();
        let trk = &t.rows[1];
        assert_eq!(trk.entry_bits, 22, "tracker entry bits");
        assert_eq!(trk.entries, 2 * 64 * 20);
        assert!(
            (trk.kib_per_bank - 6.9).abs() < 0.3,
            "tracker = {} KiB",
            trk.kib_per_bank
        );
    }

    #[test]
    fn table5_swap_buffers_are_1_kib_amortized() {
        let t = table5();
        let sb = &t.rows[2];
        assert!(
            (sb.kib_per_bank - 1.0).abs() < 0.01,
            "buffers = {} KiB",
            sb.kib_per_bank
        );
    }

    #[test]
    fn table5_total_is_about_43_kib_per_bank() {
        let t = table5();
        let total = t.total_kib_per_bank();
        assert!((42.0..44.0).contains(&total), "total = {total} KiB");
        // "686KB per rank" (§7.1).
        let rank = t.total_kib_per_rank(16);
        assert!((670.0..700.0).contains(&rank), "per rank = {rank} KiB");
    }

    #[test]
    fn storage_scales_with_threshold() {
        // Halving T_RH doubles tracker entries and RIT tuples -> more SRAM.
        let g = DramGeometry::asplos22_baseline();
        let base = RrsConfig::asplos22();
        let low = RrsConfig::for_threshold(2_400, 1_360_000, g.rows_per_bank as u64);
        let shape = |c: &RrsConfig| {
            (
                CatConfig::for_capacity(2 * c.rit_tuples, 14, 6),
                CatConfig::for_capacity(c.tracker_entries(), 14, 6),
            )
        };
        let (br, bt) = shape(&base);
        let (lr, lt) = shape(&low);
        let a = storage_breakdown(&base, &g, &br, &bt).total_kib_per_bank();
        let b = storage_breakdown(&low, &g, &lr, &lt).total_kib_per_bank();
        assert!(b > a, "lower threshold must cost more SRAM ({b} <= {a})");
    }
}
