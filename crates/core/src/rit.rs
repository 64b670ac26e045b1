//! Row Indirection Table (RIT): the remapping structure consulted on every
//! memory access (§4.3, §6.3).
//!
//! The RIT records which rows are currently swapped. We model it as a
//! sparse *permutation* of the rows of a bank, held as two keyed-hash CAT
//! structures: a **forward** map (logical row → physical row it currently
//! occupies) and a **reverse** map (physical row → logical row occupying
//! it). A paper "tuple" ⟨X,Y⟩ corresponds to one displaced logical row
//! (one forward plus one reverse entry); the paper's 3400-tuple capacity is
//! therefore a budget of 3400 simultaneously displaced rows, stored across
//! `2 × 256 × 20` slots (Table 5).
//!
//! Epoch discipline follows §4.3 exactly:
//!
//! * entries installed in the current epoch carry a **lock bit** and cannot
//!   be evicted until the epoch ends;
//! * the table is never bulk-reset — stale entries drain lazily, evicted
//!   (and their rows un-swapped) only when capacity demands it;
//! * evicting an entry restores the row to its home location via a physical
//!   row-swap, whose cost the caller accounts.

use std::cell::Cell;
use std::fmt;

use rrs_telemetry::{Counter, Telemetry};

use crate::cat::{Cat, CatConfig};

/// Entries per resolve-TLB direction (direct-mapped, power of two).
const TLB_ENTRIES: usize = 1024;

/// Index mask for the direct-mapped TLB.
const TLB_MASK: u64 = TLB_ENTRIES as u64 - 1;

/// Tag marking an empty TLB entry. Row ids never reach `u64::MAX` (they are
/// bounded by rows-per-bank), and a key equal to the sentinel is simply
/// never cached, so the sentinel cannot alias a real row.
const TLB_EMPTY: u64 = u64::MAX;

/// One direction of the resolve-TLB: a direct-mapped array of
/// `(key, value)` pairs with interior mutability, so lookups through
/// `&self` can fill it. Purely a cache — the CATs stay authoritative, and
/// every mutation invalidates the affected lines precisely.
#[derive(Debug, Clone)]
struct ResolveTlb {
    lines: Vec<Cell<(u64, u64)>>,
    hits: Counter,
    misses: Counter,
}

impl ResolveTlb {
    fn new(hits: Counter, misses: Counter) -> Self {
        ResolveTlb {
            lines: vec![Cell::new((TLB_EMPTY, 0)); TLB_ENTRIES],
            hits,
            misses,
        }
    }

    /// Cached value for `key`, or `None` on a miss (counted).
    #[inline]
    fn lookup(&self, key: u64) -> Option<u64> {
        let line = self.lines.get((key & TLB_MASK) as usize)?;
        let (tag, value) = line.get();
        if tag == key {
            self.hits.inc();
            Some(value)
        } else {
            self.misses.inc();
            None
        }
    }

    /// Fills `key -> value` after a miss.
    #[inline]
    fn fill(&self, key: u64, value: u64) {
        if key == TLB_EMPTY {
            return;
        }
        if let Some(line) = self.lines.get((key & TLB_MASK) as usize) {
            line.set((key, value));
        }
    }

    /// Drops the line that could cache `key`.
    #[inline]
    fn invalidate(&mut self, key: u64) {
        if let Some(line) = self.lines.get((key & TLB_MASK) as usize) {
            line.set((TLB_EMPTY, 0));
        }
    }

    /// The occupied `(key, value)` pairs, for the coherence audit.
    fn entries(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.lines
            .iter()
            .map(Cell::get)
            .filter(|&(tag, _)| tag != TLB_EMPTY)
    }
}

/// A physical exchange of two DRAM rows' contents, to be executed (and
/// charged) by the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysicalSwap {
    /// One physical row id.
    pub row_a: u64,
    /// The other physical row id.
    pub row_b: u64,
}

/// Errors from RIT operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RitError {
    /// The table is at tuple capacity and no unlocked entry can be evicted.
    /// §5.4 sizes the RIT so this cannot happen under the tracker's swap
    /// rate; hitting it means a configuration bug.
    CapacityExhausted,
    /// A CAT install conflicted (both candidate sets full) — astronomically
    /// rare with 6 extra ways (Figure 9).
    TableConflict,
    /// A swap was requested between a row and itself.
    DegenerateSwap(u64),
}

impl fmt::Display for RitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RitError::CapacityExhausted => {
                write!(f, "RIT at capacity with all entries locked")
            }
            RitError::TableConflict => write!(f, "RIT CAT conflict: extra ways exhausted"),
            RitError::DegenerateSwap(r) => write!(f, "cannot swap row {r} with itself"),
        }
    }
}

impl std::error::Error for RitError {}

#[derive(Debug, Clone, Copy)]
pub(crate) struct ForwardEntry {
    pub(crate) physical: u64,
    pub(crate) locked: bool,
}

/// The Row Indirection Table of one bank.
///
/// # Example
///
/// ```
/// use rrs_core::rit::RowIndirectionTable;
///
/// let mut rit = RowIndirectionTable::new(16, 0x5EED);
/// rit.swap(10, 20)?;
/// assert_eq!(rit.resolve(10), 20);
/// assert_eq!(rit.occupant(10), 20);
/// # Ok::<(), rrs_core::rit::RitError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RowIndirectionTable {
    forward: Cat<ForwardEntry>,
    reverse: Cat<u64>,
    tuple_capacity: usize,
    /// Direct-mapped cache in front of [`RowIndirectionTable::resolve`].
    tlb_fwd: ResolveTlb,
    /// Direct-mapped cache in front of [`RowIndirectionTable::occupant`].
    tlb_rev: ResolveTlb,
    /// Mutation counter driving the sampled debug-build ghost audit.
    #[cfg(debug_assertions)]
    audit_tick: u64,
}

impl RowIndirectionTable {
    /// Creates an RIT with the given displaced-row (tuple) capacity,
    /// shaping each direction's CAT with the paper's 6 extra ways.
    pub fn new(tuple_capacity: usize, hash_seed: u128) -> Self {
        let fwd_cfg = CatConfig::for_capacity(tuple_capacity.max(1), 14, 6).with_seed(hash_seed);
        let rev_cfg = CatConfig::for_capacity(tuple_capacity.max(1), 14, 6)
            .with_seed(hash_seed ^ 0x0052_4556_4552_5345_u128); // "REVERSE" tag
                                                                // Counters start on a null spine (zero overhead); a controller that
                                                                // wants them on its registry calls `attach_telemetry`.
        let telemetry = Telemetry::new();
        RowIndirectionTable {
            forward: Cat::new(fwd_cfg),
            reverse: Cat::new(rev_cfg),
            tuple_capacity,
            tlb_fwd: ResolveTlb::new(
                telemetry.counter("rit.tlb.hits"),
                telemetry.counter("rit.tlb.misses"),
            ),
            tlb_rev: ResolveTlb::new(
                telemetry.counter("rit.tlb.hits"),
                telemetry.counter("rit.tlb.misses"),
            ),
            #[cfg(debug_assertions)]
            audit_tick: 0,
        }
    }

    /// Adopts a shared telemetry spine: the `rit.tlb.*` hit/miss counters
    /// are re-registered there (idempotent by name, so every bank's RIT
    /// shares the same aggregate counters).
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        let hits = telemetry.counter("rit.tlb.hits");
        let misses = telemetry.counter("rit.tlb.misses");
        self.tlb_fwd.hits = hits.clone();
        self.tlb_fwd.misses = misses.clone();
        self.tlb_rev.hits = hits;
        self.tlb_rev.misses = misses;
    }

    /// The forward (logical → physical) CAT, for the ghost-state audit.
    pub(crate) fn forward_cat(&self) -> &Cat<ForwardEntry> {
        &self.forward
    }

    /// The reverse (physical → logical) CAT, for the ghost-state audit.
    pub(crate) fn reverse_cat(&self) -> &Cat<u64> {
        &self.reverse
    }

    /// Sampled debug-build ghost audit: every mutation ticks the counter,
    /// and the full permutation check runs on the first and every 64th
    /// mutation so property tests keep their cost near-linear. The counter
    /// itself only exists in debug builds, so release builds pay nothing —
    /// not even the increment.
    #[inline]
    fn maybe_audit(&mut self) {
        #[cfg(debug_assertions)]
        {
            self.audit_tick = self.audit_tick.wrapping_add(1);
            if self.audit_tick == 1 || self.audit_tick.is_multiple_of(64) {
                if let Err(e) = crate::audit::RitAudit::verify(self) {
                    panic!("RIT ghost-state audit failed: {e}");
                }
            }
        }
    }

    /// The occupied resolve-TLB lines as `(direction, key, value)`, for the
    /// ghost-state audit's coherence check (`direction` 0 = forward/resolve,
    /// 1 = reverse/occupant).
    pub(crate) fn tlb_entries(&self) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
        self.tlb_fwd
            .entries()
            .map(|(k, v)| (0, k, v))
            .chain(self.tlb_rev.entries().map(|(k, v)| (1, k, v)))
    }

    /// Test-only corruption: force-fills a forward resolve-TLB line with a
    /// value the CATs contradict, so the TLB-coherence audit must flag it.
    #[doc(hidden)]
    pub fn corrupt_tlb_for_test(&mut self, logical: u64, physical: u64) {
        self.tlb_fwd.fill(logical, physical);
    }

    /// Test-only corruption: installs a forward entry with no reverse
    /// partner, breaking the permutation property the audit guards.
    #[doc(hidden)]
    pub fn corrupt_forward_for_test(&mut self, logical: u64, physical: u64) {
        let _ = self.forward.insert(
            logical,
            ForwardEntry {
                physical,
                locked: false,
            },
        );
    }

    /// Maximum number of simultaneously displaced rows.
    pub fn tuple_capacity(&self) -> usize {
        self.tuple_capacity
    }

    /// Number of currently displaced rows (paper: tuples in use).
    pub fn tuples_in_use(&self) -> usize {
        self.forward.len()
    }

    /// Whether the table is at capacity.
    pub fn is_full(&self) -> bool {
        self.tuples_in_use() >= self.tuple_capacity
    }

    /// The CAT shapes, for storage accounting.
    pub fn cat_configs(&self) -> (&CatConfig, &CatConfig) {
        (self.forward.config(), self.reverse.config())
    }

    /// Physical row currently holding logical row `logical` (§4.1 step ②/③:
    /// redirect if present, original location otherwise).
    ///
    /// Served from the resolve-TLB when possible; misses consult the
    /// forward CAT and fill the cache.
    pub fn resolve(&self, logical: u64) -> u64 {
        if let Some(physical) = self.tlb_fwd.lookup(logical) {
            return physical;
        }
        let physical = self.resolve_uncached(logical);
        self.tlb_fwd.fill(logical, physical);
        physical
    }

    /// `resolve` straight off the forward CAT, bypassing the TLB. The
    /// differential tests and the ghost audit compare the cached path
    /// against this.
    #[doc(hidden)]
    pub fn resolve_uncached(&self, logical: u64) -> u64 {
        self.forward
            .get(logical)
            .map(|e| e.physical)
            .unwrap_or(logical)
    }

    /// Logical row currently residing at physical location `physical`.
    ///
    /// Served from the resolve-TLB when possible; misses consult the
    /// reverse CAT and fill the cache.
    pub fn occupant(&self, physical: u64) -> u64 {
        if let Some(logical) = self.tlb_rev.lookup(physical) {
            return logical;
        }
        let logical = self.occupant_uncached(physical);
        self.tlb_rev.fill(physical, logical);
        logical
    }

    /// `occupant` straight off the reverse CAT, bypassing the TLB.
    #[doc(hidden)]
    pub fn occupant_uncached(&self, physical: u64) -> u64 {
        self.reverse.get(physical).copied().unwrap_or(physical)
    }

    /// Whether `row` is involved in any live mapping, as either a displaced
    /// logical row or an occupied physical location. Swap destinations must
    /// exclude such rows (§4.4).
    pub fn involves(&self, row: u64) -> bool {
        self.forward.contains(row) || self.reverse.contains(row)
    }

    /// Whether `logical` is displaced from its home location.
    pub fn is_displaced(&self, logical: u64) -> bool {
        self.forward.contains(logical)
    }

    /// Removes the forward/reverse pair of `logical`, if any.
    fn clear_mapping(&mut self, logical: u64) {
        self.tlb_fwd.invalidate(logical);
        if let Some(old) = self.forward.remove(logical) {
            self.reverse.remove(old.physical);
            self.tlb_rev.invalidate(old.physical);
        }
    }

    /// Installs `logical -> physical` (skipping identities). The caller must
    /// have cleared any stale pair for `logical` *and* any stale reverse
    /// entry for `physical` first.
    fn put_mapping(&mut self, logical: u64, physical: u64, locked: bool) -> Result<(), RitError> {
        if logical == physical {
            return Ok(()); // back home: identity mappings are not stored
        }
        self.tlb_fwd.invalidate(logical);
        self.tlb_rev.invalidate(physical);
        self.forward
            .insert(logical, ForwardEntry { physical, locked })
            .map_err(|_| RitError::TableConflict)?;
        self.reverse
            .insert(physical, logical)
            .map_err(|_| RitError::TableConflict)?;
        Ok(())
    }

    /// Records a swap of the *contents* of the physical locations currently
    /// holding logical rows `x` and `y`, locking the new mappings for the
    /// rest of the epoch. Returns the physical exchange the controller must
    /// perform.
    ///
    /// # Errors
    ///
    /// * [`RitError::DegenerateSwap`] if `x == y`.
    /// * [`RitError::CapacityExhausted`] if recording the swap would exceed
    ///   tuple capacity (callers should evict first via
    ///   [`RowIndirectionTable::evict_one`]).
    /// * [`RitError::TableConflict`] on CAT conflicts.
    pub fn swap(&mut self, x: u64, y: u64) -> Result<PhysicalSwap, RitError> {
        if x == y {
            return Err(RitError::DegenerateSwap(x));
        }
        let px = self.resolve(x);
        let py = self.resolve(y);
        // Worst case this creates two new displaced rows.
        let new_tuples = usize::from(!self.is_displaced(x) && py != x)
            + usize::from(!self.is_displaced(y) && px != y);
        if self.tuples_in_use() + new_tuples > self.tuple_capacity {
            return Err(RitError::CapacityExhausted);
        }
        self.clear_mapping(x);
        self.clear_mapping(y);
        self.put_mapping(x, py, true)?;
        self.put_mapping(y, px, true)?;
        self.maybe_audit();
        Ok(PhysicalSwap {
            row_a: px,
            row_b: py,
        })
    }

    /// Evicts one unlocked entry to make room, un-swapping its row back to
    /// its home location (lazy drain, §4.3). `pick` provides randomness for
    /// victim selection (e.g. a PRNG draw).
    ///
    /// Returns the physical exchange performed, or `None` if nothing is
    /// evictable (all entries locked or table empty).
    pub fn evict_one(&mut self, pick: u64) -> Option<PhysicalSwap> {
        let len = self.forward.len();
        if len == 0 {
            return None;
        }
        // Scan from a random starting entry and take the first eligible
        // victim: equivalent to a uniform pick over a rotation of the
        // candidate order, without paying a lookup per resident entry.
        let start = (pick as usize) % len;
        let victim = self
            .forward
            .iter()
            .skip(start)
            .chain(self.forward.iter().take(start))
            .find(|(logical, e)| {
                if e.locked {
                    return false;
                }
                // The occupant of this row's home must also be evictable,
                // because un-swapping displaces it.
                let z = self.occupant(*logical);
                z == *logical || self.forward.get(z).map(|ze| !ze.locked).unwrap_or(true)
            })
            .map(|(logical, _)| logical)?;
        // The victim was validated as non-degenerate and unlocked just
        // above, so this unswap cannot fail; if the impossible happens we
        // report "nothing evictable" instead of unwinding mid-simulation
        // (the RitAudit ghost checker would flag the inconsistency).
        self.unswap(victim).ok()
    }

    /// Un-swaps `logical` back to its home location. The row currently at
    /// `logical`'s home moves to `logical`'s old position; both mappings are
    /// updated (and removed if they become identities). The moved partner's
    /// lock state is preserved.
    pub fn unswap(&mut self, logical: u64) -> Result<PhysicalSwap, RitError> {
        let p = self.resolve(logical);
        if p == logical {
            return Err(RitError::DegenerateSwap(logical));
        }
        // z currently occupies `logical`'s home slot.
        let z = self.occupant(logical);
        let z_locked = self.forward.get(z).map(|e| e.locked).unwrap_or(false);
        self.clear_mapping(logical);
        if z != logical {
            self.clear_mapping(z);
            self.put_mapping(z, p, z_locked)?;
        }
        self.maybe_audit();
        Ok(PhysicalSwap {
            row_a: p,
            row_b: logical,
        })
    }

    /// Ends the epoch: clears every lock bit so stale entries become
    /// evictable (§4.3). The mappings themselves are retained.
    pub fn end_epoch(&mut self) {
        let tags: Vec<u64> = self.forward.iter().map(|(t, _)| t).collect();
        for t in tags {
            if let Some(e) = self.forward.get_mut(t) {
                e.locked = false;
            }
        }
        // Epoch boundaries are rare: run the full ghost audit every time.
        #[cfg(debug_assertions)]
        {
            if let Err(e) = crate::audit::RitAudit::verify(self) {
                panic!("RIT ghost-state audit failed at epoch end: {e}");
            }
        }
    }

    /// Number of locked (current-epoch) entries.
    pub fn locked_count(&self) -> usize {
        self.forward.iter().filter(|(_, e)| e.locked).count()
    }

    /// Iterates over `(logical, physical)` mappings.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.forward.iter().map(|(l, e)| (l, e.physical))
    }

    /// Verifies internal invariants; used by tests and debug assertions.
    ///
    /// # Panics
    ///
    /// Panics if the forward and reverse maps are inconsistent, if any
    /// identity mapping is stored, or if the permutation is not injective.
    pub fn check_invariants(&self) {
        assert_eq!(self.forward.len(), self.reverse.len(), "map sizes differ");
        let mut seen_phys = std::collections::BTreeSet::new();
        for (logical, e) in self.forward.iter() {
            assert_ne!(logical, e.physical, "identity mapping stored");
            assert!(
                seen_phys.insert(e.physical),
                "physical row {} claimed twice",
                e.physical
            );
            assert_eq!(
                self.reverse.get(e.physical),
                Some(&logical),
                "reverse map out of sync for logical {logical}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rit(cap: usize) -> RowIndirectionTable {
        RowIndirectionTable::new(cap, 0xABCD)
    }

    #[test]
    fn unmapped_rows_resolve_to_themselves() {
        let r = rit(16);
        assert_eq!(r.resolve(5), 5);
        assert_eq!(r.occupant(5), 5);
        assert!(!r.involves(5));
    }

    #[test]
    fn swap_creates_symmetric_mapping() -> Result<(), RitError> {
        let mut r = rit(16);
        let ps = r.swap(10, 20)?;
        assert_eq!((ps.row_a, ps.row_b), (10, 20));
        assert_eq!(r.resolve(10), 20);
        assert_eq!(r.resolve(20), 10);
        assert_eq!(r.occupant(10), 20);
        assert_eq!(r.occupant(20), 10);
        assert_eq!(r.tuples_in_use(), 2);
        r.check_invariants();
        Ok(())
    }

    #[test]
    fn reswap_builds_a_cycle_correctly() -> Result<(), RitError> {
        // x swapped with y, then x re-swapped with fresh a: x must end up at
        // a's home, a at x's previous location (y's home), y unchanged.
        let mut r = rit(16);
        r.swap(1, 2)?;
        let ps = r.swap(1, 3)?;
        // Physical exchange is between x's current location (2) and 3.
        assert_eq!((ps.row_a, ps.row_b), (2, 3));
        assert_eq!(r.resolve(1), 3);
        assert_eq!(r.resolve(3), 2);
        assert_eq!(r.resolve(2), 1);
        r.check_invariants();
        Ok(())
    }

    #[test]
    fn swap_back_removes_identity_mappings() -> Result<(), RitError> {
        let mut r = rit(16);
        r.swap(1, 2)?;
        r.swap(1, 2)?; // swap back
        assert_eq!(r.tuples_in_use(), 0);
        assert_eq!(r.resolve(1), 1);
        r.check_invariants();
        Ok(())
    }

    #[test]
    fn degenerate_swap_rejected() {
        let mut r = rit(16);
        assert_eq!(r.swap(7, 7), Err(RitError::DegenerateSwap(7)));
    }

    #[test]
    fn capacity_is_enforced() -> Result<(), RitError> {
        let mut r = rit(4);
        r.swap(1, 2)?;
        r.swap(3, 4)?;
        assert!(r.is_full());
        assert_eq!(r.swap(5, 6), Err(RitError::CapacityExhausted));
        Ok(())
    }

    #[test]
    fn locked_entries_survive_eviction_requests() -> Result<(), RitError> {
        let mut r = rit(4);
        r.swap(1, 2)?;
        r.swap(3, 4)?;
        // All entries are locked (installed this epoch): nothing to evict.
        assert_eq!(r.evict_one(0), None);
        assert_eq!(r.locked_count(), 4);
        Ok(())
    }

    #[test]
    fn epoch_end_unlocks_and_allows_lazy_drain() -> Result<(), RitError> {
        let mut r = rit(4);
        r.swap(1, 2)?;
        r.swap(3, 4)?;
        r.end_epoch();
        assert_eq!(r.locked_count(), 0);
        let ps = r.evict_one(0).expect("unlocked entry must be evictable");
        // Un-swap restored someone home: two tuples disappear (pairwise).
        assert_eq!(r.tuples_in_use(), 2);
        assert!(ps.row_a != ps.row_b);
        r.check_invariants();
        // Now there is room for a new swap.
        r.swap(5, 6)?;
        r.check_invariants();
        Ok(())
    }

    #[test]
    fn unswap_of_cycle_member_keeps_permutation_consistent() -> Result<(), RitError> {
        let mut r = rit(16);
        r.swap(1, 2)?; // 1@2, 2@1
        r.swap(1, 3)?; // 1@3, 3@2, 2@1
        r.end_epoch();
        r.unswap(1)?; // 1 home; occupant of 1 (=2) moves to 3's old spot
        assert_eq!(r.resolve(1), 1);
        r.check_invariants();
        // All rows resolvable, permutation still injective.
        let mapped: Vec<_> = r.iter().collect();
        assert_eq!(mapped.len(), 2);
        Ok(())
    }

    #[test]
    fn involves_covers_both_directions() -> Result<(), RitError> {
        let mut r = rit(16);
        r.swap(1, 2)?;
        r.swap(1, 3)?; // 1@3, 3@2, 2@1
        for row in [1, 2, 3] {
            assert!(r.involves(row), "row {row}");
        }
        assert!(!r.involves(4));
        Ok(())
    }

    #[test]
    fn eviction_uses_pick_for_victim_choice() -> Result<(), RitError> {
        let mut r = rit(8);
        r.swap(1, 2)?;
        r.swap(3, 4)?;
        r.end_epoch();
        let mut c1 = r.clone();
        let a = c1.evict_one(0).expect("entry 0 evictable after epoch end");
        let mut c2 = r.clone();
        let b = c2.evict_one(1).expect("entry 1 evictable after epoch end");
        assert_ne!(a, b, "different picks should evict different tuples");
        Ok(())
    }

    #[test]
    fn many_random_swaps_keep_invariants() {
        let mut r = rit(64);
        let mut x = 42u64;
        for i in 0..500u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = x % 100;
            let b = (x >> 32) % 100;
            if a == b {
                continue;
            }
            if r.tuples_in_use() + 2 > r.tuple_capacity() {
                r.end_epoch();
                while r.tuples_in_use() + 2 > r.tuple_capacity() {
                    if r.evict_one(x).is_none() {
                        break;
                    }
                }
            }
            let _ = r.swap(a, b);
            if i % 50 == 0 {
                r.check_invariants();
            }
        }
        r.check_invariants();
    }
}
