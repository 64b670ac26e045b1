//! DRAM geometry: channels, ranks, banks, rows, and strongly-typed addresses.
//!
//! The paper's baseline (Table 2) is 2 channels × 1 rank × 16 banks, with
//! 128 K rows of 8 KB per bank (32 GB total). [`DramGeometry::asplos22_baseline`]
//! reproduces it exactly.

use std::fmt;

/// Identifies a memory channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ChannelId(pub u8);

/// Identifies a rank within a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RankId(pub u8);

/// Identifies a bank within a rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BankId(pub u8);

/// Identifies a row within a bank (17 bits for the 128 K-row baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RowId(pub u32);

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

impl fmt::Display for RankId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rk{}", self.0)
    }
}

impl fmt::Display for BankId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bk{}", self.0)
    }
}

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "row{}", self.0)
    }
}

impl From<u32> for RowId {
    fn from(v: u32) -> Self {
        RowId(v)
    }
}

/// Fully qualified DRAM row address: channel, rank, bank, row.
///
/// This is the unit of Row Hammer accounting: activations, swaps, targeted
/// refreshes, and disturbance are all tracked per `RowAddr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RowAddr {
    /// Channel.
    pub channel: ChannelId,
    /// Rank within the channel.
    pub rank: RankId,
    /// Bank within the rank.
    pub bank: BankId,
    /// Row within the bank.
    pub row: RowId,
}

impl RowAddr {
    /// Creates a row address from raw components.
    ///
    /// ```
    /// use rrs_dram::geometry::RowAddr;
    /// let a = RowAddr::new(1, 0, 7, 42);
    /// assert_eq!(a.bank.0, 7);
    /// ```
    pub fn new(channel: u8, rank: u8, bank: u8, row: u32) -> Self {
        RowAddr {
            channel: ChannelId(channel),
            rank: RankId(rank),
            bank: BankId(bank),
            row: RowId(row),
        }
    }

    /// The same bank with a different row — row swaps always stay within a
    /// bank (RRS §4.4), so this is the common way to derive swap destinations.
    pub fn with_row(self, row: u32) -> Self {
        RowAddr {
            row: RowId(row),
            ..self
        }
    }

    /// The row `distance` rows above, if it exists within the bank.
    pub fn neighbor_above(self, distance: u32, geometry: &DramGeometry) -> Option<RowAddr> {
        let r = self.row.0.checked_add(distance)?;
        (r < geometry.rows_per_bank as u32).then_some(self.with_row(r))
    }

    /// The row `distance` rows below, if it exists within the bank.
    pub fn neighbor_below(self, distance: u32) -> Option<RowAddr> {
        let r = self.row.0.checked_sub(distance)?;
        Some(self.with_row(r))
    }

    /// Both neighbours at `distance`, clipped at the bank edge: the one
    /// below, then the one above. Allocation-free.
    pub fn neighbors(
        self,
        distance: u32,
        geometry: &DramGeometry,
    ) -> impl Iterator<Item = RowAddr> {
        [
            self.neighbor_below(distance),
            self.neighbor_above(distance, geometry),
        ]
        .into_iter()
        .flatten()
    }

    /// A dense index over all banks in the system, useful for flat storage.
    pub fn bank_index(self, geometry: &DramGeometry) -> usize {
        ((self.channel.0 as usize * geometry.ranks_per_channel + self.rank.0 as usize)
            * geometry.banks_per_rank)
            + self.bank.0 as usize
    }
}

impl fmt::Display for RowAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}/{}/{}",
            self.channel, self.rank, self.bank, self.row
        )
    }
}

/// Static shape of the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramGeometry {
    /// Number of independent channels (each with its own data bus).
    pub channels: usize,
    /// Ranks per channel.
    pub ranks_per_channel: usize,
    /// Banks per rank.
    pub banks_per_rank: usize,
    /// Rows per bank.
    pub rows_per_bank: usize,
    /// Bytes per row (the row-buffer / page size).
    pub row_size_bytes: usize,
}

impl DramGeometry {
    /// The paper's Table 2 baseline: 2 channels × 1 rank × 16 banks,
    /// 128 K rows × 8 KB = 32 GB.
    ///
    /// ```
    /// let g = rrs_dram::DramGeometry::asplos22_baseline();
    /// assert_eq!(g.total_bytes(), 32 << 30);
    /// ```
    pub fn asplos22_baseline() -> Self {
        DramGeometry {
            channels: 2,
            ranks_per_channel: 1,
            banks_per_rank: 16,
            rows_per_bank: 128 * 1024,
            row_size_bytes: 8 * 1024,
        }
    }

    /// A small geometry for fast unit tests (same shape, fewer rows).
    pub fn tiny_test() -> Self {
        DramGeometry {
            channels: 1,
            ranks_per_channel: 1,
            banks_per_rank: 2,
            rows_per_bank: 1024,
            row_size_bytes: 8 * 1024,
        }
    }

    /// Total number of banks across the whole system.
    pub fn total_banks(&self) -> usize {
        self.channels * self.ranks_per_channel * self.banks_per_rank
    }

    /// Total capacity in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_banks() as u64 * self.rows_per_bank as u64 * self.row_size_bytes as u64
    }

    /// Cache lines (64 B) per row.
    pub fn lines_per_row(&self) -> usize {
        self.row_size_bytes / 64
    }

    /// Number of bits needed to address a row within a bank (17 for the
    /// baseline, matching the paper's Table 5 entry sizing).
    pub fn row_id_bits(&self) -> u32 {
        usize::BITS - (self.rows_per_bank - 1).leading_zeros()
    }

    /// Whether `addr` is in range for this geometry.
    pub fn contains(&self, addr: RowAddr) -> bool {
        (addr.channel.0 as usize) < self.channels
            && (addr.rank.0 as usize) < self.ranks_per_channel
            && (addr.bank.0 as usize) < self.banks_per_rank
            && (addr.row.0 as usize) < self.rows_per_bank
    }

    /// Iterate over every bank address `(channel, rank, bank)` in the system.
    pub fn banks(&self) -> impl Iterator<Item = (ChannelId, RankId, BankId)> + '_ {
        let ranks = self.ranks_per_channel;
        let banks = self.banks_per_rank;
        (0..self.channels).flat_map(move |c| {
            (0..ranks).flat_map(move |r| {
                (0..banks).map(move |b| (ChannelId(c as u8), RankId(r as u8), BankId(b as u8)))
            })
        })
    }
}

impl Default for DramGeometry {
    fn default() -> Self {
        Self::asplos22_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table2() {
        let g = DramGeometry::asplos22_baseline();
        assert_eq!(g.channels, 2);
        assert_eq!(g.banks_per_rank, 16);
        assert_eq!(g.rows_per_bank, 128 * 1024);
        assert_eq!(g.row_size_bytes, 8 * 1024);
        assert_eq!(g.total_bytes(), 32u64 << 30);
        assert_eq!(g.row_id_bits(), 17);
        assert_eq!(g.lines_per_row(), 128);
    }

    #[test]
    fn neighbors_clip_at_edges() {
        let g = DramGeometry::tiny_test();
        let bottom = RowAddr::new(0, 0, 0, 0);
        assert_eq!(bottom.neighbors(1, &g).count(), 1);
        let top = RowAddr::new(0, 0, 0, g.rows_per_bank as u32 - 1);
        assert_eq!(top.neighbors(1, &g).count(), 1);
        let mid = RowAddr::new(0, 0, 0, 5);
        let n: Vec<RowAddr> = mid.neighbors(2, &g).collect();
        assert_eq!(n, vec![mid.with_row(3), mid.with_row(7)]);
    }

    #[test]
    fn bank_index_is_dense_and_unique() {
        let g = DramGeometry::asplos22_baseline();
        let mut seen = vec![false; g.total_banks()];
        for (c, r, b) in g.banks() {
            let idx = RowAddr {
                channel: c,
                rank: r,
                bank: b,
                row: RowId(0),
            }
            .bank_index(&g);
            assert!(!seen[idx], "duplicate bank index {idx}");
            seen[idx] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn contains_checks_all_dimensions() {
        let g = DramGeometry::tiny_test();
        assert!(g.contains(RowAddr::new(0, 0, 1, 1023)));
        assert!(!g.contains(RowAddr::new(1, 0, 0, 0)));
        assert!(!g.contains(RowAddr::new(0, 1, 0, 0)));
        assert!(!g.contains(RowAddr::new(0, 0, 2, 0)));
        assert!(!g.contains(RowAddr::new(0, 0, 0, 1024)));
    }

    #[test]
    fn display_is_nonempty() {
        let a = RowAddr::new(1, 0, 3, 77);
        assert_eq!(a.to_string(), "ch1/rk0/bk3/row77");
    }
}
