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
use std::rc::Rc;

use rrs_telemetry::{Counter, Telemetry};

use crate::cat::{holds_tag, Cat, CatConfig, SetIndexMemo, SlotIndex};

/// Entries in the resolve-TLB (direct-mapped, power of two).
const TLB_ENTRIES: usize = 1024;

/// Index mask for the direct-mapped TLB.
const TLB_MASK: u64 = TLB_ENTRIES as u64 - 1;

/// Tag marking an empty TLB entry. Row ids never reach `u64::MAX` (they are
/// bounded by rows-per-bank), and a key equal to the sentinel is simply
/// never cached, so the sentinel cannot alias a real row.
const TLB_EMPTY: u64 = u64::MAX;

/// The resolve-TLB in front of the forward CAT: a direct-mapped array of
/// `(logical, physical)` pairs with interior mutability, so lookups
/// through `&self` can fill it. Purely a cache — the CATs stay
/// authoritative, and every mutation invalidates the affected lines
/// precisely.
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

    /// The occupied `(logical, physical)` pairs, for the coherence audit.
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

#[derive(Debug, Clone, Copy, Default)]
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
/// let mut rit = RowIndirectionTable::new(16, 1 << 17, 0x5EED);
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
    tlb: ResolveTlb,
    /// Mutation counter driving the sampled debug-build ghost audit.
    #[cfg(debug_assertions)]
    audit_tick: u64,
}

impl RowIndirectionTable {
    /// Creates an RIT with the given displaced-row (tuple) capacity for a
    /// bank of `rows` rows, shaping each direction's CAT with the paper's
    /// 6 extra ways. Each direction memoizes the set indices of the rows
    /// `0..rows` privately (its keys are the bank's own), so lookups of
    /// bank rows run no PRINCE encryption.
    pub fn new(tuple_capacity: usize, rows: u64, hash_seed: u128) -> Self {
        let fwd_cfg = CatConfig::for_capacity(tuple_capacity.max(1), 14, 6).with_seed(hash_seed);
        let rev_cfg = CatConfig::for_capacity(tuple_capacity.max(1), 14, 6)
            .with_seed(hash_seed ^ 0x0052_4556_4552_5345_u128); // "REVERSE" tag

        // Counters start on a null spine (zero overhead); a controller that
        // wants them on its registry calls `attach_telemetry`.
        let telemetry = Telemetry::new();
        RowIndirectionTable {
            forward: memoized_cat(fwd_cfg, rows),
            reverse: memoized_cat(rev_cfg, rows),
            tuple_capacity,
            tlb: ResolveTlb::new(
                telemetry.counter("rit.tlb.hits"),
                telemetry.counter("rit.tlb.misses"),
            ),
            #[cfg(debug_assertions)]
            audit_tick: 0,
        }
    }

    /// Adopts a shared telemetry spine: the `rit.tlb.*` hit/miss counters,
    /// one event per [`RowIndirectionTable::resolve`] of a table that
    /// holds an entry, are re-registered there (idempotent by name, so
    /// every bank's RIT shares the same aggregate counters).
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.tlb.hits = telemetry.counter("rit.tlb.hits");
        self.tlb.misses = telemetry.counter("rit.tlb.misses");
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

    /// The occupied resolve-TLB lines as `(logical, physical)`, for the
    /// ghost-state audit's coherence check.
    pub(crate) fn tlb_entries(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.tlb.entries()
    }

    /// Test-only corruption: force-fills a resolve-TLB line with a value
    /// the CATs contradict, so the TLB-coherence audit must flag it.
    #[doc(hidden)]
    pub fn corrupt_tlb_for_test(&mut self, logical: u64, physical: u64) {
        self.tlb.fill(logical, physical);
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
    /// An empty table (an RIT with no swaps) answers `logical` before the
    /// cache is read, so the `rit.tlb.*` counters see only the resolves
    /// that consult it. Otherwise it is served from the resolve-TLB when
    /// possible; misses consult the forward CAT and fill the cache.
    pub fn resolve(&self, logical: u64) -> u64 {
        if self.forward.is_empty() {
            return logical;
        }
        if let Some(physical) = self.tlb.lookup(logical) {
            return physical;
        }
        let physical = self.resolve_uncached(logical);
        self.tlb.fill(logical, physical);
        physical
    }

    /// `resolve` straight off the forward CAT, bypassing the TLB: what the
    /// ghost audit checks the cached lines against.
    pub(crate) fn resolve_uncached(&self, logical: u64) -> u64 {
        self.forward
            .get(logical)
            .map(|e| e.physical)
            .unwrap_or(logical)
    }

    /// Logical row currently residing at physical location `physical`,
    /// read off the reverse CAT. Only un-swaps ask (§4.3 lazy drain), so
    /// it has no cache of its own.
    pub fn occupant(&self, physical: u64) -> u64 {
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

    /// Removes the forward/reverse pair of `logical`, whose forward entry
    /// (if any) sits at `at`, a location found before any insert since.
    fn clear_mapping(&mut self, logical: u64, at: Option<SlotIndex>) {
        self.tlb.invalidate(logical);
        if let Some(old) = at.and_then(|at| self.forward.remove_at(at)) {
            self.reverse.remove(old.physical);
        }
    }

    /// Installs `logical -> physical` (skipping identities). The caller must
    /// have cleared any stale pair for `logical` *and* any stale reverse
    /// entry for `physical` first.
    fn put_mapping(&mut self, logical: u64, physical: u64, locked: bool) -> Result<(), RitError> {
        if logical == physical {
            return Ok(()); // back home: identity mappings are not stored
        }
        self.tlb.invalidate(logical);
        self.forward
            .insert(logical, ForwardEntry { physical, locked })
            .map_err(|_| RitError::TableConflict)?;
        self.reverse
            .insert(physical, logical)
            .map_err(|_| RitError::TableConflict)?;
        Ok(())
    }

    /// The forward location of `logical` and the physical row holding it:
    /// one forward-CAT lookup, which the mutation then reuses.
    fn locate(&self, logical: u64) -> (Option<SlotIndex>, u64) {
        let at = self.forward.locate(logical);
        let entry = at.and_then(|at| self.forward.value_at(at));
        (at, entry.map_or(logical, |e| e.physical))
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
        if !holds_tag(x) || !holds_tag(y) {
            // A row outside the CATs' tag domain can never be recorded;
            // refuse before touching either direction.
            return Err(RitError::TableConflict);
        }
        let (x_at, px) = self.locate(x);
        let (y_at, py) = self.locate(y);
        // Worst case this creates two new displaced rows.
        let new_tuples =
            usize::from(x_at.is_none() && py != x) + usize::from(y_at.is_none() && px != y);
        if self.tuples_in_use() + new_tuples > self.tuple_capacity {
            return Err(RitError::CapacityExhausted);
        }
        // Both removes precede every insert, so both locations hold.
        self.clear_mapping(x, x_at);
        self.clear_mapping(y, y_at);
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
        #[expect(
            clippy::cast_possible_truncation,
            reason = "any bits of the random `pick` make a start; it is reduced mod `len`"
        )]
        let start = (pick as usize) % len;
        let (victim, occupant, occupant_at) =
            self.forward.iter_from(start).find_map(|(logical, e)| {
                if e.locked {
                    return None;
                }
                // The occupant of this row's home must also be evictable,
                // because un-swapping displaces it.
                let z = self.occupant(logical);
                let z_at = self.forward.locate(z);
                let z_entry = z_at.and_then(|at| self.forward.value_at(at));
                (!z_entry.is_some_and(|ze| ze.locked)).then_some((logical, z, z_at))
            })?;
        let at = self.forward.locate(victim)?;
        // The victim was validated as non-degenerate and unlocked just
        // above, so this unswap cannot fail; if the impossible happens we
        // report "nothing evictable" instead of unwinding mid-simulation
        // (the RitAudit ghost checker would flag the inconsistency).
        self.unswap_located(victim, at, occupant, occupant_at).ok()
    }

    /// Un-swaps `logical` back to its home location. The row currently at
    /// `logical`'s home moves to `logical`'s old position; both mappings are
    /// updated (and removed if they become identities). The moved partner's
    /// lock state is preserved.
    ///
    /// # Errors
    ///
    /// [`RitError::DegenerateSwap`] if `logical` is not displaced.
    pub fn unswap(&mut self, logical: u64) -> Result<PhysicalSwap, RitError> {
        let Some(at) = self.forward.locate(logical) else {
            return Err(RitError::DegenerateSwap(logical));
        };
        // z currently occupies `logical`'s home slot.
        let z = self.occupant(logical);
        self.unswap_located(logical, at, z, self.forward.locate(z))
    }

    /// [`RowIndirectionTable::unswap`] of `logical`, found at `at` in the
    /// forward CAT, whose home holds `occupant` (forward entry at
    /// `occupant_at`, if displaced). The eviction path and `unswap` both
    /// end here, each having located every key once.
    fn unswap_located(
        &mut self,
        logical: u64,
        at: SlotIndex,
        occupant: u64,
        occupant_at: Option<SlotIndex>,
    ) -> Result<PhysicalSwap, RitError> {
        let p = self
            .forward
            .value_at(at)
            .map(|e| e.physical)
            .filter(|&p| p != logical)
            .ok_or(RitError::DegenerateSwap(logical))?;
        let z_locked = occupant_at
            .and_then(|at| self.forward.value_at(at))
            .is_some_and(|e| e.locked);
        self.clear_mapping(logical, Some(at));
        if occupant != logical {
            self.clear_mapping(occupant, occupant_at);
            self.put_mapping(occupant, p, z_locked)?;
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
        for e in self.forward.values_mut() {
            e.locked = false;
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
}

/// An empty CAT shaped `config` with a private set-index memo over the
/// rows `0..rows` (none if the shape does not fit a memo word).
fn memoized_cat<V: Copy + Default>(config: CatConfig, rows: u64) -> Cat<V> {
    let mut cat = Cat::new(config);
    let memo = usize::try_from(rows)
        .ok()
        .and_then(|rows| SetIndexMemo::new(&config, rows));
    if let Some(memo) = memo {
        cat.attach_set_memo(Rc::new(memo));
    }
    cat
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::RitAudit;

    fn rit(cap: usize) -> RowIndirectionTable {
        RowIndirectionTable::new(cap, 1 << 17, 0xABCD)
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
        RitAudit::verify(&r).unwrap();
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
        RitAudit::verify(&r).unwrap();
        Ok(())
    }

    #[test]
    fn swap_back_removes_identity_mappings() -> Result<(), RitError> {
        let mut r = rit(16);
        r.swap(1, 2)?;
        r.swap(1, 2)?; // swap back
        assert_eq!(r.tuples_in_use(), 0);
        assert_eq!(r.resolve(1), 1);
        RitAudit::verify(&r).unwrap();
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
        RitAudit::verify(&r).unwrap();
        // Now there is room for a new swap.
        r.swap(5, 6)?;
        RitAudit::verify(&r).unwrap();
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
        RitAudit::verify(&r).unwrap();
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
                RitAudit::verify(&r).unwrap();
            }
        }
        RitAudit::verify(&r).unwrap();
    }
}
