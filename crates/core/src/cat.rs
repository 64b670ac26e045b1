//! Collision Avoidance Table (CAT): a scalable, conflict-free associative
//! structure (§6.1–6.2 of the paper, inspired by MIRAGE).
//!
//! A CAT stores up to a target capacity `C` of tagged entries across two
//! set-associative tables indexed by *independent* keyed hashes (PRINCE with
//! different keys). Each table has `S` sets of `D + E` ways, where
//! `D = C / 2S` demand ways are provisioned for capacity and `E` extra ways
//! absorb skew. Installs go to the less-loaded of the entry's two candidate
//! sets; with `E = 6` extra ways the probability that both candidate sets
//! are full before global capacity is reached is so small that the paper
//! calls the structure conflict-free (Figure 9: ~10³⁰ installs). If a
//! conflict nonetheless occurs, a single-depth Cuckoo relocation (moving one
//! resident entry to its alternate set) resolves it, as in MIRAGE-Lite.
//!
//! The CAT never evicts on its own: capacity policy belongs to the client
//! (the Misra-Gries tracker replaces its minimum-count entry; the RIT evicts
//! a random unlocked tuple).

use std::cell::{RefCell, RefMut};
use std::fmt;
use std::rc::Rc;

use rrs_flat::FlatMap;

use crate::prince::Prince;

/// Hash seed of the paper's tracker CAT ("TRACKER" tagged). Every bank's
/// tracker uses it, which is what lets them share one [`SetIndexMemo`].
pub const TRACKER_HASH_SEED: u128 = 0x5452_4143_4b45_5200;

/// Shape of a CAT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatConfig {
    /// Sets per table (must be a power of two).
    pub sets: usize,
    /// Demand ways per set (`D`): `capacity = 2 * sets * demand_ways`.
    pub demand_ways: usize,
    /// Extra ways per set (`E`) for conflict avoidance; the paper uses 6.
    pub extra_ways: usize,
    /// Seed from which the two table hash keys are derived.
    pub hash_seed: u128,
}

impl CatConfig {
    /// The paper's RIT shape: 2 tables × 256 sets × 20 ways
    /// (≈14 demand + 6 extra), target capacity 6800 entries (§6.3).
    pub fn rit_asplos22() -> Self {
        CatConfig {
            sets: 256,
            demand_ways: 14,
            extra_ways: 6,
            hash_seed: 0x5249_5400_CA7C_A700, // "RIT" tagged seed
        }
    }

    /// The paper's tracker shape: 2 tables × 64 sets × 20 ways (§6.4),
    /// target capacity 1700 entries.
    pub fn tracker_asplos22() -> Self {
        CatConfig {
            sets: 64,
            demand_ways: 14,
            extra_ways: 6,
            hash_seed: TRACKER_HASH_SEED,
        }
    }

    /// Smallest power-of-two-set CAT that holds `capacity` entries with at
    /// most `max_demand_ways` demand ways per set, plus `extra_ways`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `max_demand_ways` is zero.
    pub fn for_capacity(capacity: usize, max_demand_ways: usize, extra_ways: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(max_demand_ways > 0, "demand ways must be positive");
        let mut sets = 1usize;
        while 2 * sets * max_demand_ways < capacity {
            sets *= 2;
        }
        let demand_ways = capacity.div_ceil(2 * sets);
        CatConfig {
            sets,
            demand_ways,
            extra_ways,
            hash_seed: 0xCA7_CA7,
        }
    }

    /// Total ways per set (`D + E`).
    pub fn ways(&self) -> usize {
        self.demand_ways + self.extra_ways
    }

    /// Target capacity `C = 2 * S * D`.
    pub fn capacity(&self) -> usize {
        2 * self.sets * self.demand_ways
    }

    /// Total physical slots `2 * S * (D + E)`.
    pub fn slots(&self) -> usize {
        2 * self.sets * self.ways()
    }

    /// Overrides the hash seed (used to make structures independent).
    pub fn with_seed(mut self, seed: u128) -> Self {
        self.hash_seed = seed;
        self
    }
}

/// Error returned when an install finds both candidate sets full and Cuckoo
/// relocation cannot free a slot — the event Figure 9 shows to be
/// astronomically rare with 6 extra ways.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatConflict {
    /// The tag that could not be installed.
    pub tag: u64,
}

impl fmt::Display for CatConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CAT conflict: both candidate sets full for tag {:#x}",
            self.tag
        )
    }
}

impl std::error::Error for CatConflict {}

/// Largest `sets` a [`SetIndexMemo`] can hold: each table's `set + 1`
/// takes half of a `u32` word.
const MEMO_MAX_SETS: usize = 1 << 15;

/// Rows per [`SetIndexMemo`] page.
const MEMO_PAGE_ROWS: usize = 128;

/// Lazily filled memo of both tables' set indices for the tags `0..rows`.
///
/// A CAT's set index is a pure function of its `(hash_seed, sets)` and the
/// tag, so CATs with the same key can share one memo: every bank's tracker
/// hashes the same rows under the same keys. Each row's word holds both
/// tables' `set + 1` and starts at `0`, "not hashed yet"; the first
/// [`Cat::set_of`] of a row runs the two PRINCE encryptions and fills it,
/// and later installs read both candidate sets with one load. Words live
/// in 128-row pages allocated on first fill, so rows that are never
/// hashed cost no memory and building a memo costs one small allocation.
pub struct SetIndexMemo {
    hash_seed: u128,
    sets: usize,
    rows: usize,
    /// `pages[row / 128][row % 128]`: `(set₀ + 1) | (set₁ + 1) << 16`, or
    /// `0` if unhashed.
    pages: RefCell<Vec<Option<Box<[u32; MEMO_PAGE_ROWS]>>>>,
}

impl SetIndexMemo {
    /// An empty memo for the CATs shaped like `config`, covering the tags
    /// `0..rows`; `None` if `config.sets` is too large for a memo word.
    pub fn new(config: &CatConfig, rows: usize) -> Option<Self> {
        (config.sets <= MEMO_MAX_SETS).then(|| SetIndexMemo {
            hash_seed: config.hash_seed,
            sets: config.sets,
            rows,
            pages: RefCell::new(vec![None; rows.div_ceil(MEMO_PAGE_ROWS)]),
        })
    }

    /// Number of tags the memo covers; larger tags are always hashed.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The word of `tag`, allocating its page on first use; `None` if the
    /// memo does not cover `tag`.
    fn word(&self, tag: u64) -> Option<RefMut<'_, u32>> {
        let row = usize::try_from(tag).ok().filter(|&row| row < self.rows)?;
        RefMut::filter_map(self.pages.borrow_mut(), |pages| {
            pages
                .get_mut(row / MEMO_PAGE_ROWS)?
                .get_or_insert_with(|| Box::new([0; MEMO_PAGE_ROWS]))
                .get_mut(row % MEMO_PAGE_ROWS)
        })
        .ok()
    }
}

impl fmt::Debug for SetIndexMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SetIndexMemo")
            .field("hash_seed", &self.hash_seed)
            .field("sets", &self.sets)
            .field("rows", &self.rows())
            .finish()
    }
}

#[derive(Debug, Clone)]
struct Slot<V> {
    tag: u64,
    value: V,
}

/// Location of an entry inside the CAT: `(table, set, way)`.
pub type SlotIndex = (usize, usize, usize);

/// The Collision Avoidance Table.
///
/// # Example
///
/// ```
/// use rrs_core::cat::{Cat, CatConfig};
///
/// let mut cat: Cat<u32> = Cat::new(CatConfig::tracker_asplos22());
/// cat.insert(0x1234, 7)?;
/// assert_eq!(cat.get(0x1234), Some(&7));
/// if let Some(v) = cat.get_mut(0x1234) {
///     *v += 1;
/// }
/// assert_eq!(cat.remove(0x1234), Some(8));
/// # Ok::<(), rrs_core::cat::CatConflict>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cat<V> {
    config: CatConfig,
    hashers: [Prince; 2],
    /// `tables[t][set * ways + way]`.
    tables: [Vec<Option<Slot<V>>>; 2],
    /// Tag → packed `(table, set, way)` mirror of the slot arrays, so a
    /// lookup costs one flat-map probe instead of two PRINCE hashes plus a
    /// 2 × ways scan. Hits verify against the authoritative slot tag; the
    /// slot arrays remain the source of truth.
    index: FlatMap<u64>,
    /// `occupied[table][set]`: valid-slot count of the set, kept exact on
    /// every place/take so install-time occupancy checks are O(1) instead
    /// of a `ways`-slot scan per candidate set.
    occupied: [Vec<u8>; 2],
    len: usize,
    /// Lifetime count of installs that needed Cuckoo relocation.
    relocations: u64,
    /// Shared set-index memo (see [`Cat::attach_set_memo`]).
    memo: Option<Rc<SetIndexMemo>>,
}

/// Packs a [`SlotIndex`] into one word for the lookup index (`set` and
/// `way` are bounded far below 2²⁴ by any constructible config).
#[inline]
fn pack_loc((table, set, way): SlotIndex) -> u64 {
    ((table as u64) << 48) | ((set as u64) << 24) | way as u64
}

/// Inverse of [`pack_loc`].
#[inline]
fn unpack_loc(packed: u64) -> SlotIndex {
    (
        (packed >> 48) as usize,
        ((packed >> 24) & 0xFF_FFFF) as usize,
        (packed & 0xFF_FFFF) as usize,
    )
}

impl<V> Cat<V> {
    /// Creates an empty CAT.
    ///
    /// # Panics
    ///
    /// Panics if `config.sets` is not a power of two.
    pub fn new(config: CatConfig) -> Self {
        assert!(
            config.sets.is_power_of_two(),
            "CAT sets must be a power of two"
        );
        let slots_per_table = config.sets * config.ways();
        let mut t0 = Vec::with_capacity(slots_per_table);
        let mut t1 = Vec::with_capacity(slots_per_table);
        t0.resize_with(slots_per_table, || None);
        t1.resize_with(slots_per_table, || None);
        Cat {
            config,
            hashers: [
                Prince::new(config.hash_seed ^ 0x0123_4567_89ab_cdef),
                Prince::new(config.hash_seed ^ 0xfedc_ba98_7654_3210_0000_0000_0000_0001),
            ],
            tables: [t0, t1],
            index: FlatMap::new(),
            occupied: [vec![0; config.sets], vec![0; config.sets]],
            len: 0,
            relocations: 0,
            memo: None,
        }
    }

    /// Serves [`Cat::set_of`] for the tags `0..memo.rows()` from `memo`,
    /// which may be shared with other CATs of the same key.
    ///
    /// # Panics
    ///
    /// Panics if the memo was built for a different `(hash_seed, sets)`:
    /// its set indices would not be this CAT's.
    pub fn attach_set_memo(&mut self, memo: Rc<SetIndexMemo>) {
        assert_eq!(
            (memo.hash_seed, memo.sets),
            (self.config.hash_seed, self.config.sets),
            "set-index memo keyed for a different CAT"
        );
        self.memo = Some(memo);
    }

    /// The attached set-index memo, if any.
    pub fn set_memo(&self) -> Option<&Rc<SetIndexMemo>> {
        self.memo.as_ref()
    }

    /// The configuration this CAT was built with.
    pub fn config(&self) -> &CatConfig {
        &self.config
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the CAT holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Target capacity (demand slots).
    pub fn capacity(&self) -> usize {
        self.config.capacity()
    }

    /// Lifetime count of installs that required a Cuckoo relocation.
    pub fn relocations(&self) -> u64 {
        self.relocations
    }

    /// Set index of `tag` in table `t`.
    pub fn set_of(&self, table: usize, tag: u64) -> usize {
        let (s0, s1) = self.sets_of(tag);
        if table == 0 {
            s0
        } else {
            s1
        }
    }

    /// Both candidate sets of `tag`: from the memo when it covers `tag`
    /// (hashing and filling it on the row's first use), else by PRINCE.
    fn sets_of(&self, tag: u64) -> (usize, usize) {
        let Some(mut word) = self.memo.as_ref().and_then(|memo| memo.word(tag)) else {
            return self.hash_sets(tag);
        };
        if *word != 0 {
            return ((*word & 0xFFFF) as usize - 1, (*word >> 16) as usize - 1);
        }
        let (s0, s1) = self.hash_sets(tag);
        // Both halves fit: `SetIndexMemo::new` caps `sets` at `MEMO_MAX_SETS`.
        *word = u32::try_from((s0 + 1) | (s1 + 1) << 16).unwrap_or(0);
        (s0, s1)
    }

    /// Both candidate sets of `tag`, computed by the two keyed PRINCE hashes.
    fn hash_sets(&self, tag: u64) -> (usize, usize) {
        let mask = self.config.sets - 1;
        (
            (self.hashers[0].encrypt(tag) as usize) & mask,
            (self.hashers[1].encrypt(tag) as usize) & mask,
        )
    }

    /// The slot storage of table `t`.
    fn table(&self, table: usize) -> &[Option<Slot<V>>] {
        if table == 0 {
            &self.tables[0]
        } else {
            &self.tables[1]
        }
    }

    fn table_mut(&mut self, table: usize) -> &mut Vec<Option<Slot<V>>> {
        if table == 0 {
            &mut self.tables[0]
        } else {
            &mut self.tables[1]
        }
    }

    fn slot_range(&self, set: usize) -> std::ops::Range<usize> {
        let w = self.config.ways();
        set * w..(set + 1) * w
    }

    /// The `D + E` slots of one set (empty slice for an out-of-range set,
    /// which no in-range hash ever produces).
    fn set_slots(&self, table: usize, set: usize) -> &[Option<Slot<V>>] {
        self.table(table).get(self.slot_range(set)).unwrap_or(&[])
    }

    fn set_slots_mut(&mut self, table: usize, set: usize) -> &mut [Option<Slot<V>>] {
        let range = self.slot_range(set);
        self.table_mut(table).get_mut(range).unwrap_or(&mut [])
    }

    /// Locates `tag` through the flat index — zero hashes on the common
    /// path. The indexed location is verified against the slot's own tag,
    /// so a stale or corrupted index entry reads as a miss, exactly like
    /// the original two-set scan.
    fn find(&self, tag: u64) -> Option<SlotIndex> {
        let (t, set, way) = unpack_loc(*self.index.get(tag)?);
        let slot = self.set_slots(t, set).get(way)?.as_ref()?;
        if slot.tag == tag {
            Some((t, set, way))
        } else {
            None
        }
    }

    /// The pre-index lookup: hash into both candidate sets and scan their
    /// ways. Kept as the differential reference for the index
    /// ([`crate::audit::CatAudit`] and the property tests compare against
    /// it).
    #[doc(hidden)]
    pub fn find_by_scan(&self, tag: u64) -> Option<SlotIndex> {
        let (s0, s1) = self.sets_of(tag);
        for (t, set) in [(0, s0), (1, s1)] {
            for (way, slot) in self.set_slots(t, set).iter().enumerate() {
                if slot.as_ref().is_some_and(|s| s.tag == tag) {
                    return Some((t, set, way));
                }
            }
        }
        None
    }

    /// Whether `tag` is present.
    pub fn contains(&self, tag: u64) -> bool {
        self.find(tag).is_some()
    }

    /// Location `(table, set, way)` of `tag`, if present. Clients that
    /// maintain per-set metadata (the tracker's SetMin counters, §6.4) use
    /// this to know which set an update touched.
    pub fn locate(&self, tag: u64) -> Option<SlotIndex> {
        self.find(tag)
    }

    /// Shared reference to the value stored for `tag`.
    pub fn get(&self, tag: u64) -> Option<&V> {
        let (t, set, way) = self.find(tag)?;
        self.set_slots(t, set).get(way)?.as_ref().map(|s| &s.value)
    }

    /// Exclusive reference to the value stored for `tag`.
    pub fn get_mut(&mut self, tag: u64) -> Option<&mut V> {
        self.locate_mut(tag).map(|(_, value)| value)
    }

    /// Location of `tag` together with its value, exclusively borrowed:
    /// one index probe for clients that update the value and then repair
    /// per-set metadata (the tracker's hit path).
    pub fn locate_mut(&mut self, tag: u64) -> Option<(SlotIndex, &mut V)> {
        let (t, set, way) = unpack_loc(*self.index.get(tag)?);
        let slot = self.set_slots_mut(t, set).get_mut(way)?.as_mut()?;
        (slot.tag == tag).then_some(((t, set, way), &mut slot.value))
    }

    fn invalid_ways_in(&self, table: usize, set: usize) -> usize {
        let valid = self
            .occupied
            .get(table)
            .and_then(|v| v.get(set))
            .copied()
            .map_or(0, usize::from);
        let invalid = self.config.ways().saturating_sub(valid);
        debug_assert_eq!(
            invalid,
            self.set_slots(table, set)
                .iter()
                .filter(|s| s.is_none())
                .count(),
            "occupancy counter out of sync with the slot array"
        );
        invalid
    }

    /// Adjusts one set's occupancy counter by `delta` (every slot
    /// place/take funnels through here).
    fn bump_occupied(&mut self, table: usize, set: usize, delta: i8) {
        if let Some(occ) = self.occupied.get_mut(table).and_then(|v| v.get_mut(set)) {
            *occ = occ.wrapping_add_signed(delta);
        }
    }

    /// Installs `tag -> value`, choosing the less-loaded of its two
    /// candidate sets (§6.1). Does **not** enforce the capacity target —
    /// capacity policy is the caller's (evict first, then install).
    ///
    /// # Errors
    ///
    /// Returns [`CatConflict`] if both candidate sets are physically full
    /// and single-depth Cuckoo relocation cannot make room.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `tag` is already present (callers must use
    /// [`Cat::get_mut`] to update existing entries).
    pub fn insert(&mut self, tag: u64, value: V) -> Result<SlotIndex, CatConflict> {
        debug_assert!(!self.contains(tag), "duplicate CAT install of {tag:#x}");
        let (s0, s1) = self.sets_of(tag);
        let inv0 = self.invalid_ways_in(0, s0);
        let inv1 = self.invalid_ways_in(1, s1);
        let (table, set) = if inv0 >= inv1 { (0, s0) } else { (1, s1) };
        if inv0 == 0 && inv1 == 0 {
            // Conflict: attempt single-depth Cuckoo relocation à la
            // MIRAGE-Lite: move one resident of either candidate set to its
            // alternate set in the other table.
            if let Some((t, set)) = self.try_relocate(s0, s1) {
                self.relocations += 1;
                return self.place(t, set, tag, value).ok_or(CatConflict { tag });
            }
            return Err(CatConflict { tag });
        }
        self.place(table, set, tag, value)
            .ok_or(CatConflict { tag })
    }

    fn try_relocate(&mut self, s0: usize, s1: usize) -> Option<(usize, usize)> {
        for (t, set) in [(0, s0), (1, s1)] {
            let other = 1 - t;
            for way in 0..self.config.ways() {
                let resident_tag = match self.set_slots(t, set).get(way) {
                    Some(Some(s)) => s.tag,
                    _ => continue,
                };
                let alt_set = self.set_of(other, resident_tag);
                if self.invalid_ways_in(other, alt_set) > 0 {
                    let taken = self
                        .set_slots_mut(t, set)
                        .get_mut(way)
                        .and_then(|s| s.take());
                    if let Some(slot) = taken {
                        self.bump_occupied(t, set, -1);
                        self.len -= 1;
                        // The alternate set was just checked to have room,
                        // so this place() cannot fail.
                        self.place(other, alt_set, slot.tag, slot.value)?;
                        return Some((t, set));
                    }
                }
            }
        }
        None
    }

    /// Writes `tag -> value` into the first free way of `(table, set)`, or
    /// returns `None` (without storing) if the set is physically full —
    /// callers check occupancy first, so `None` means a caller bug and
    /// surfaces as a [`CatConflict`] rather than a panic.
    fn place(&mut self, table: usize, set: usize, tag: u64, value: V) -> Option<SlotIndex> {
        let slots = self.set_slots_mut(table, set);
        let way = slots.iter().position(|s| s.is_none())?;
        *slots.get_mut(way)? = Some(Slot { tag, value });
        self.index.insert(tag, pack_loc((table, set, way)));
        self.bump_occupied(table, set, 1);
        self.len += 1;
        Some((table, set, way))
    }

    /// Removes `tag`, returning its value.
    pub fn remove(&mut self, tag: u64) -> Option<V> {
        self.remove_entry(tag).map(|(_, value)| value)
    }

    /// Removes `tag`, returning its (former) location together with its
    /// value — one index probe instead of the `locate` + `remove` pair
    /// callers that repair per-set metadata would otherwise pay.
    pub fn remove_entry(&mut self, tag: u64) -> Option<(SlotIndex, V)> {
        let (t, set, way) = self.find(tag)?;
        let slot = self.set_slots_mut(t, set).get_mut(way)?.take()?;
        self.index.remove(tag);
        self.bump_occupied(t, set, -1);
        self.len -= 1;
        Some(((t, set, way), slot.value))
    }

    /// The slots and occupancy counter of every non-empty set, in slot
    /// order; empty sets are skipped without reading their slots.
    fn occupied_sets_mut(&mut self) -> impl Iterator<Item = (&mut [Option<Slot<V>>], &mut u8)> {
        let ways = self.config.ways().max(1);
        self.tables
            .iter_mut()
            .zip(&mut self.occupied)
            .flat_map(move |(slots, occupied)| slots.chunks_mut(ways).zip(occupied))
            .filter(|(_, occ)| **occ > 0)
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        if self.len == 0 {
            return;
        }
        for (set, occ) in self.occupied_sets_mut() {
            set.iter_mut().for_each(|s| *s = None);
            *occ = 0;
        }
        self.index.clear();
        self.len = 0;
    }

    /// Every value, exclusively borrowed, in slot order. Tags and placement
    /// are untouched, so the index stays coherent.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> + '_ {
        self.occupied_sets_mut()
            .flat_map(|(set, _)| set.iter_mut())
            .filter_map(|s| s.as_mut().map(|s| &mut s.value))
    }

    /// Iterates over `(tag, &value)` in an arbitrary but deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        self.tables
            .iter()
            .flat_map(|t| t.iter())
            .filter_map(|s| s.as_ref().map(|s| (s.tag, &s.value)))
    }

    /// Iterates over the entries of one set of one table.
    pub fn set_iter(&self, table: usize, set: usize) -> impl Iterator<Item = (u64, &V)> + '_ {
        self.set_slots(table, set)
            .iter()
            .filter_map(|s| s.as_ref().map(|s| (s.tag, &s.value)))
    }

    /// Test-only corruption: inflates the cached length without touching
    /// any slot, so the occupancy audit must flag the mismatch.
    #[doc(hidden)]
    pub fn corrupt_len_for_test(&mut self) {
        self.len = self.len.wrapping_add(1);
    }

    /// Test-only corruption: rewrites the tag of the first occupied slot in
    /// place (bypassing the keyed hashes), so the entry becomes unfindable.
    /// Returns `false` if the CAT is empty.
    #[doc(hidden)]
    pub fn corrupt_first_tag_for_test(&mut self, new_tag: u64) -> bool {
        for t in &mut self.tables {
            for s in t.iter_mut() {
                if let Some(slot) = s.as_mut() {
                    slot.tag = new_tag;
                    return true;
                }
            }
        }
        false
    }

    /// Test-only corruption: drops `tag` from the flat lookup index while
    /// leaving its slot resident, so the index-coherence audit must flag
    /// the divergence. Returns `false` if `tag` was not indexed.
    #[doc(hidden)]
    pub fn corrupt_index_for_test(&mut self, tag: u64) -> bool {
        self.index.remove(tag).is_some()
    }

    /// Picks the `n`-th valid entry in slot order, wrapping around; `None`
    /// when empty. Combined with a random `n` this implements the random
    /// eviction candidate selection of §6.1.
    pub fn nth_entry(&self, n: usize) -> Option<(u64, &V)> {
        if self.len == 0 {
            return None;
        }
        self.iter_from(n % self.len).next()
    }

    /// [`Cat::iter`] rotated to start at the `n`-th entry: the sequence of
    /// `iter().skip(n).chain(iter().take(n))`. The start is found by
    /// summing the per-set occupancy counters, so reaching it reads no slot
    /// before it; the walk then wraps around the slot arrays.
    pub fn iter_from(&self, n: usize) -> impl Iterator<Item = (u64, &V)> + '_ {
        let (table, slot) = self.nth_slot(n).unwrap_or((0, 0));
        let [t0, t1] = &self.tables;
        let (first, second) = if table == 0 { (t0, t1) } else { (t1, t0) };
        let (before, after) = first.split_at_checked(slot).unwrap_or((&[], first));
        after
            .iter()
            .chain(second)
            .chain(before)
            .filter_map(|s| s.as_ref().map(|s| (s.tag, &s.value)))
    }

    /// `(table, slot)` of the `n`-th entry in slot order, or `None` if
    /// `n >= len`.
    fn nth_slot(&self, n: usize) -> Option<(usize, usize)> {
        let mut left = n;
        for (table, occupied) in self.occupied.iter().enumerate() {
            for (set, &occ) in occupied.iter().enumerate() {
                let occ = usize::from(occ);
                if left < occ {
                    let (way, _) = self
                        .set_slots(table, set)
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| s.is_some())
                        .nth(left)?;
                    return Some((table, self.slot_range(set).start + way));
                }
                left -= occ;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cat<u32> {
        Cat::new(CatConfig {
            sets: 8,
            demand_ways: 2,
            extra_ways: 2,
            hash_seed: 12345,
        })
    }

    #[test]
    fn insert_get_remove_round_trip() -> Result<(), CatConflict> {
        let mut cat = small();
        cat.insert(100, 7)?;
        assert_eq!(cat.get(100), Some(&7));
        *cat.get_mut(100).expect("tag 100 was just inserted") = 9;
        assert_eq!(cat.remove(100), Some(9));
        assert!(cat.get(100).is_none());
        assert!(cat.is_empty());
        Ok(())
    }

    #[test]
    fn fills_to_physical_slots_without_conflict_mostly() {
        // With power-of-two-choices balancing, a small CAT comfortably holds
        // its demand capacity.
        let mut cat = small();
        let cap = cat.capacity();
        for tag in 0..cap as u64 {
            cat.insert(tag, 0)
                .expect("demand-capacity install conflicted");
        }
        assert_eq!(cat.len(), cap);
    }

    #[test]
    fn conflict_is_reported_when_truly_full() -> Result<(), CatConflict> {
        let mut cat: Cat<u32> = Cat::new(CatConfig {
            sets: 1,
            demand_ways: 1,
            extra_ways: 0,
            hash_seed: 1,
        });
        // Only 2 physical slots exist (1 set × 1 way × 2 tables).
        cat.insert(1, 0)?;
        cat.insert(2, 0)?;
        let err = cat.insert(3, 0).expect_err("third install must conflict");
        assert_eq!(err.tag, 3);
        assert!(err.to_string().contains("conflict"));
        Ok(())
    }

    #[test]
    fn lookup_misses_return_none() {
        let cat = small();
        assert_eq!(cat.get(42), None);
        assert!(!cat.contains(42));
    }

    #[test]
    fn iter_sees_all_entries() -> Result<(), CatConflict> {
        let mut cat = small();
        for tag in 0..10u64 {
            cat.insert(tag, tag as u32 * 2)?;
        }
        let mut items: Vec<_> = cat.iter().map(|(t, &v)| (t, v)).collect();
        items.sort();
        assert_eq!(items.len(), 10);
        assert_eq!(items[3], (3, 6));
        Ok(())
    }

    #[test]
    fn nth_entry_wraps() -> Result<(), CatConflict> {
        let mut cat = small();
        cat.insert(5, 50)?;
        assert_eq!(cat.nth_entry(0).map(|(t, _)| t), Some(5));
        assert_eq!(cat.nth_entry(7).map(|(t, _)| t), Some(5));
        let empty = small();
        assert!(empty.nth_entry(0).is_none());
        Ok(())
    }

    #[test]
    fn hashes_differ_between_tables() {
        let cat = small();
        // For a random tag population the two indices must not be identical
        // everywhere (independent hashes).
        let diff = (0..64u64)
            .filter(|&t| cat.set_of(0, t) != cat.set_of(1, t))
            .count();
        assert!(diff > 32, "only {diff}/64 tags had distinct indices");
    }

    #[test]
    fn clear_empties_everything() -> Result<(), CatConflict> {
        let mut cat = small();
        for tag in 0..6u64 {
            cat.insert(tag, 0)?;
        }
        cat.clear();
        assert!(cat.is_empty());
        assert!(!cat.contains(3));
        Ok(())
    }

    #[test]
    fn for_capacity_builds_adequate_shape() {
        let cfg = CatConfig::for_capacity(1700, 14, 6);
        assert!(cfg.capacity() >= 1700);
        assert!(cfg.sets.is_power_of_two());
        assert!(cfg.demand_ways <= 14);
        assert_eq!(cfg.extra_ways, 6);

        let rit = CatConfig::for_capacity(6800, 14, 6);
        assert!(rit.capacity() >= 6800);
    }

    #[test]
    fn paper_shapes_match_section6() {
        let t = CatConfig::tracker_asplos22();
        assert_eq!((t.sets, t.ways()), (64, 20));
        assert!(t.capacity() >= 1700);
        let r = CatConfig::rit_asplos22();
        assert_eq!((r.sets, r.ways()), (256, 20));
        assert!(r.capacity() >= 6800);
        // Total slot counts match Table 5: 2x64x20 and 2x256x20.
        assert_eq!(t.slots(), 2 * 64 * 20);
        assert_eq!(r.slots(), 2 * 256 * 20);
    }

    #[test]
    fn cuckoo_relocation_rescues_conflicts() {
        // Tiny CAT where conflicts are easy to hit: verify that when insert
        // succeeds after both sets were full, a relocation was performed.
        let mut cat: Cat<u32> = Cat::new(CatConfig {
            sets: 2,
            demand_ways: 1,
            extra_ways: 0,
            hash_seed: 3,
        });
        let mut installed = 0u64;
        for tag in 0..1000u64 {
            match cat.insert(tag, 0) {
                Ok(_) => installed += 1,
                Err(_) => break,
            }
        }
        // 4 physical slots; we can never hold more than 4.
        assert!(installed <= 4);
        assert_eq!(cat.len() as u64, installed);
    }

    #[test]
    fn index_agrees_with_scan_under_churn() {
        // Heavy insert/remove churn, including Cuckoo relocations: the flat
        // index must agree with the authoritative two-set scan on every
        // lookup, hit or miss.
        let mut cat: Cat<u64> = Cat::new(CatConfig {
            sets: 4,
            demand_ways: 2,
            extra_ways: 1,
            hash_seed: 99,
        });
        let mut x = 0x1234_5678u64;
        for step in 0..20_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let tag = (x >> 33) % 64;
            if cat.contains(tag) {
                assert_eq!(cat.remove(tag), Some(tag), "step {step}");
            } else {
                let _ = cat.insert(tag, tag);
            }
            for probe in 0..64u64 {
                assert_eq!(
                    cat.locate(probe),
                    cat.find_by_scan(probe),
                    "step {step}, probe {probe}"
                );
            }
        }
        assert!(cat.relocations() > 0, "churn never exercised relocation");
    }

    #[test]
    fn memo_serves_rows_and_hashes_tags_beyond_them() {
        let plain = small();
        let mut memoized = small();
        let memo = Rc::new(SetIndexMemo::new(memoized.config(), 16).expect("8 sets fit"));
        memoized.attach_set_memo(Rc::clone(&memo));
        assert_eq!(memo.rows(), 16);
        let filled_words = || {
            let pages = memo.pages.borrow();
            let words = pages.iter().flatten().flat_map(|page| page.iter());
            words.filter(|&&w| w != 0).count()
        };
        assert_eq!(filled_words(), 0);
        for tag in [3u64, 3, 15, 16, 1 << 40] {
            for table in 0..2 {
                assert_eq!(memoized.set_of(table, tag), plain.set_of(table, tag));
            }
        }
        // Rows 3 and 15 were filled; tags at or above `rows` never are.
        assert_eq!(filled_words(), 2);
    }

    #[test]
    #[should_panic(expected = "different CAT")]
    fn memo_with_another_key_panics() {
        let mut cat = small();
        let other = cat.config().with_seed(54321);
        let memo = SetIndexMemo::new(&other, 16).expect("8 sets fit");
        cat.attach_set_memo(Rc::new(memo));
    }

    #[test]
    fn memo_declines_sets_beyond_a_half_word() {
        let huge = CatConfig {
            sets: 2 * MEMO_MAX_SETS,
            demand_ways: 1,
            extra_ways: 0,
            hash_seed: 0,
        };
        assert!(SetIndexMemo::new(&huge, 4).is_none());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panics() {
        let _: Cat<u32> = Cat::new(CatConfig {
            sets: 3,
            demand_ways: 1,
            extra_ways: 0,
            hash_seed: 0,
        });
    }
}
