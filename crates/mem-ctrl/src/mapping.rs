//! Physical-address ↔ DRAM-coordinate mapping.
//!
//! The default scheme matches common controller practice (and USIMM's
//! cache-line channel interleaving): from least to most significant,
//!
//! ```text
//! | line offset (6) | channel | column | bank | rank | row |
//! ```
//!
//! so consecutive cache lines alternate channels, consecutive lines within a
//! channel walk a row (row-buffer locality), and row bits are on top.

use rrs_dram::geometry::{DramGeometry, RowAddr};

/// A fully decoded physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecodedAddr {
    /// The DRAM row coordinates.
    pub row: RowAddr,
    /// Column (cache-line index within the row).
    pub column: u32,
}

/// Address mapper for a fixed geometry.
#[derive(Debug, Clone, Copy)]
pub struct AddressMapper {
    geometry: DramGeometry,
    channel_bits: u32,
    column_bits: u32,
    bank_bits: u32,
    rank_bits: u32,
    row_bits: u32,
}

const LINE_BITS: u32 = 6;

fn bits_for(n: usize) -> u32 {
    assert!(
        n.is_power_of_two(),
        "geometry dimensions must be powers of two"
    );
    n.trailing_zeros()
}

impl AddressMapper {
    /// Creates a mapper for `geometry`.
    ///
    /// # Panics
    ///
    /// Panics if any geometry dimension is not a power of two.
    pub fn new(geometry: DramGeometry) -> Self {
        AddressMapper {
            geometry,
            channel_bits: bits_for(geometry.channels),
            column_bits: bits_for(geometry.row_size_bytes / 64),
            bank_bits: bits_for(geometry.banks_per_rank),
            rank_bits: bits_for(geometry.ranks_per_channel),
            row_bits: bits_for(geometry.rows_per_bank),
        }
    }

    /// The geometry this mapper serves.
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    /// Total addressable bytes.
    pub fn address_space(&self) -> u64 {
        self.geometry.total_bytes()
    }

    /// Decodes a physical byte address.
    ///
    /// Addresses beyond the capacity wrap (the simulator's workloads are
    /// generated in range; wrapping keeps fuzzed inputs harmless).
    pub fn decode(&self, addr: u64) -> DecodedAddr {
        let mut a = (addr % self.address_space()) >> LINE_BITS;
        let mut take = |bits: u32| -> u64 {
            let v = a & ((1 << bits) - 1);
            a >>= bits;
            v
        };
        let channel = take(self.channel_bits) as u8;
        let column = take(self.column_bits) as u32;
        let bank = take(self.bank_bits) as u8;
        let rank = take(self.rank_bits) as u8;
        let row = take(self.row_bits) as u32;
        DecodedAddr {
            row: RowAddr::new(channel, rank, bank, row),
            column,
        }
    }

    /// Encodes DRAM coordinates back into a physical byte address
    /// (line-aligned).
    pub fn encode(&self, d: DecodedAddr) -> u64 {
        let mut addr = 0u64;
        let mut shift = LINE_BITS;
        let mut put = |v: u64, bits: u32| {
            addr |= v << shift;
            shift += bits;
        };
        put(d.row.channel.0 as u64, self.channel_bits);
        put(d.column as u64, self.column_bits);
        put(d.row.bank.0 as u64, self.bank_bits);
        put(d.row.rank.0 as u64, self.rank_bits);
        put(d.row.row.0 as u64, self.row_bits);
        addr
    }

    /// The byte address of column 0 of a row — handy for workload
    /// generators that think in rows.
    pub fn row_base(&self, row: RowAddr) -> u64 {
        self.encode(DecodedAddr { row, column: 0 })
    }

    /// Total DRAM rows in the system.
    pub fn total_rows(&self) -> u64 {
        (self.geometry.total_banks() * self.geometry.rows_per_bank) as u64
    }

    /// Enumerates rows in a canonical order (channel fastest, then bank,
    /// then rank, then row index), so that consecutive indices spread
    /// across channels and banks the way consecutive OS pages do. Indices
    /// wrap at [`AddressMapper::total_rows`].
    pub fn nth_row(&self, index: u64) -> RowAddr {
        let g = &self.geometry;
        let mut i = index % self.total_rows();
        let channel = (i % g.channels as u64) as u8;
        i /= g.channels as u64;
        let bank = (i % g.banks_per_rank as u64) as u8;
        i /= g.banks_per_rank as u64;
        let rank = (i % g.ranks_per_channel as u64) as u8;
        i /= g.ranks_per_channel as u64;
        RowAddr::new(channel, rank, bank, i as u32)
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_types,
    reason = "test-only reference counts and membership checks; their iteration order never reaches a result"
)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_baseline_geometry() {
        let m = AddressMapper::new(DramGeometry::asplos22_baseline());
        for addr in [0u64, 64, 4096, 1 << 20, (32u64 << 30) - 64] {
            let d = m.decode(addr);
            assert_eq!(m.encode(d), addr, "round trip of {addr:#x}");
        }
    }

    #[test]
    fn consecutive_lines_interleave_channels() {
        let m = AddressMapper::new(DramGeometry::asplos22_baseline());
        let a = m.decode(0);
        let b = m.decode(64);
        assert_ne!(a.row.channel, b.row.channel);
        let c = m.decode(128);
        assert_eq!(a.row.channel, c.row.channel);
    }

    #[test]
    fn lines_within_channel_walk_a_row() {
        let m = AddressMapper::new(DramGeometry::asplos22_baseline());
        let a = m.decode(0);
        let c = m.decode(128); // same channel, next column
        assert_eq!(a.row, c.row);
        assert_eq!(c.column, a.column + 1);
    }

    #[test]
    fn row_changes_only_past_bank_bits() {
        let m = AddressMapper::new(DramGeometry::asplos22_baseline());
        // Stride of one full row (8 KB) * channels * banks * ranks walks rows.
        let g = DramGeometry::asplos22_baseline();
        let stride =
            (g.row_size_bytes * g.channels * g.banks_per_rank * g.ranks_per_channel) as u64;
        let a = m.decode(0);
        let b = m.decode(stride);
        assert_eq!(a.row.bank, b.row.bank);
        assert_eq!(b.row.row.0, a.row.row.0 + 1);
    }

    #[test]
    fn decode_stays_in_geometry() {
        let g = DramGeometry::tiny_test();
        let m = AddressMapper::new(g);
        let mut x = 1u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let d = m.decode(x);
            assert!(g.contains(d.row), "decoded {:?} out of range", d.row);
        }
    }

    #[test]
    fn addresses_beyond_capacity_wrap() {
        let g = DramGeometry::tiny_test();
        let m = AddressMapper::new(g);
        assert_eq!(m.decode(g.total_bytes()), m.decode(0));
    }

    #[test]
    fn nth_row_enumerates_all_rows_uniquely() {
        let g = DramGeometry::tiny_test();
        let m = AddressMapper::new(g);
        let total = m.total_rows();
        assert_eq!(total, 2 * 1024);
        let mut seen = std::collections::HashSet::new();
        for i in 0..total {
            let r = m.nth_row(i);
            assert!(g.contains(r), "row {i} out of range: {r:?}");
            assert!(seen.insert(r), "duplicate row at index {i}");
        }
        // Wraps.
        assert_eq!(m.nth_row(total), m.nth_row(0));
    }

    #[test]
    fn nth_row_spreads_consecutive_indices_across_banks() {
        let m = AddressMapper::new(DramGeometry::asplos22_baseline());
        let a = m.nth_row(0);
        let b = m.nth_row(1);
        assert_ne!(a.channel, b.channel);
        let c = m.nth_row(2);
        assert_ne!((a.channel, a.bank), (c.channel, c.bank));
    }

    #[test]
    fn row_base_is_column_zero() {
        let m = AddressMapper::new(DramGeometry::tiny_test());
        let row = RowAddr::new(0, 0, 1, 42);
        let d = m.decode(m.row_base(row));
        assert_eq!(d.row, row);
        assert_eq!(d.column, 0);
    }
}
