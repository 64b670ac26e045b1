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

use std::cell::{Cell, OnceCell};
use std::fmt;
use std::rc::Rc;

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
/// astronomically rare with 6 extra ways — or when the tag lies outside
/// the CAT's `u32` tag domain.
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

/// Tag of an empty slot. Stored tags are `u32` (DRAM rows are `u32`), so
/// tags at or above `u32::MAX` lie outside the domain: installs report a
/// [`CatConflict`] and lookups miss.
const EMPTY: u32 = u32::MAX;

/// The stored form of `tag`, or `None` if it lies outside the tag domain.
#[inline]
fn slot_tag(tag: u64) -> Option<u32> {
    u32::try_from(tag).ok().filter(|&key| key != EMPTY)
}

/// Whether `tag` lies inside the tag domain every CAT can store.
pub fn holds_tag(tag: u64) -> bool {
    slot_tag(tag).is_some()
}

/// Largest `sets` a [`SetIndexMemo`] can hold: each table's `set + 1`
/// takes half of a `u32` word.
const MEMO_MAX_SETS: usize = 1 << 15;

/// Rows per [`SetIndexMemo`] page.
const MEMO_PAGE_ROWS: usize = 128;

/// One memo page: the words of 128 consecutive rows.
type MemoPage = [Cell<u32>; MEMO_PAGE_ROWS];

/// Both sets a memo word holds, or `None` for a word that was never
/// filled (`0`).
#[inline]
fn decode_sets(word: u32) -> Option<(usize, usize)> {
    let s0 = ((word & 0xFFFF) as usize).checked_sub(1)?;
    let s1 = ((word >> 16) as usize).checked_sub(1)?;
    Some((s0, s1))
}

/// Lazily filled memo of both tables' set indices for the tags `0..rows`.
///
/// A CAT's set index is a pure function of its `(hash_seed, sets)` and the
/// tag, so CATs with the same key can share one memo: every bank's tracker
/// hashes the same rows under the same keys. Each row's word holds both
/// tables' `set + 1` and starts at `0`, "not hashed yet"; installing a tag
/// (or any [`Cat::set_of`]) runs the two PRINCE encryptions and fills the
/// word, and later lookups read both candidate sets with one load. A zero
/// word therefore proves that no CAT sharing the memo ever installed the
/// tag, so a lookup of it misses without hashing. Words live in 128-row
/// pages allocated on first fill, so rows that are never installed cost no
/// memory and building a memo costs one small allocation.
pub struct SetIndexMemo {
    hash_seed: u128,
    sets: usize,
    rows: usize,
    /// `pages[row / 128][row % 128]`: `(set₀ + 1) | (set₁ + 1) << 16`, or
    /// `0` if unhashed.
    pages: Box<[OnceCell<Box<MemoPage>>]>,
}

impl SetIndexMemo {
    /// An empty memo for the CATs shaped like `config`, covering the tags
    /// `0..rows`; `None` if `config.sets` is too large for a memo word.
    pub fn new(config: &CatConfig, rows: usize) -> Option<Self> {
        (config.sets <= MEMO_MAX_SETS).then(|| SetIndexMemo {
            hash_seed: config.hash_seed,
            sets: config.sets,
            rows,
            pages: (0..rows.div_ceil(MEMO_PAGE_ROWS))
                .map(|_| OnceCell::new())
                .collect(),
        })
    }

    /// Number of tags the memo covers; larger tags are always hashed.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of words filled so far (rows hashed through the memo).
    pub fn filled_words(&self) -> usize {
        let pages = self.pages.iter().filter_map(OnceCell::get);
        pages
            .flat_map(|page| page.iter())
            .filter(|w| w.get() != 0)
            .count()
    }

    /// The word of `tag` without allocating: `Some(0)` if it was never
    /// filled, `None` if the memo does not cover `tag`.
    #[inline]
    fn peek(&self, tag: u64) -> Option<u32> {
        let row = usize::try_from(tag).ok().filter(|&row| row < self.rows)?;
        let page = self.pages.get(row / MEMO_PAGE_ROWS)?;
        Some(
            page.get()
                .and_then(|p| p.get(row % MEMO_PAGE_ROWS))
                .map_or(0, Cell::get),
        )
    }

    /// The word of `tag`, allocating its page on first use; `None` if the
    /// memo does not cover `tag`.
    fn word(&self, tag: u64) -> Option<&Cell<u32>> {
        let row = usize::try_from(tag).ok().filter(|&row| row < self.rows)?;
        self.pages
            .get(row / MEMO_PAGE_ROWS)?
            .get_or_init(|| Box::new([const { Cell::new(0) }; MEMO_PAGE_ROWS]))
            .get(row % MEMO_PAGE_ROWS)
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

/// Location of an entry inside the CAT: `(table, set, way)`.
pub type SlotIndex = (usize, usize, usize);

/// The Collision Avoidance Table.
///
/// Each table is a `u32` tag array beside a value array, both laid out
/// `[set * ways + way]`; a lookup scans the tag runs of the entry's two
/// candidate sets.
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
    /// `tags[t][set * ways + way]`: the resident tag, or [`EMPTY`].
    tags: [Vec<u32>; 2],
    /// `values[t][set * ways + way]`: meaningful only where the tag is not
    /// [`EMPTY`].
    values: [Vec<V>; 2],
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

impl<V: Copy + Default> Cat<V> {
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
        Cat {
            config,
            hashers: [
                Prince::new(config.hash_seed ^ 0x0123_4567_89ab_cdef),
                Prince::new(config.hash_seed ^ 0xfedc_ba98_7654_3210_0000_0000_0000_0001),
            ],
            tags: [vec![EMPTY; slots_per_table], vec![EMPTY; slots_per_table]],
            values: [
                vec![V::default(); slots_per_table],
                vec![V::default(); slots_per_table],
            ],
            occupied: [vec![0; config.sets], vec![0; config.sets]],
            len: 0,
            relocations: 0,
            memo: None,
        }
    }

    /// Serves [`Cat::set_of`] for the tags `0..memo.rows()` from `memo`,
    /// which may be shared with other CATs of the same key. Lookups then
    /// run no PRINCE encryption for those tags.
    ///
    /// # Panics
    ///
    /// Panics if the memo was built for a different `(hash_seed, sets)`:
    /// its set indices would not be this CAT's. Panics if the CAT holds
    /// entries: their words might be unfilled, and a lookup reads an
    /// unfilled word as "never installed".
    pub fn attach_set_memo(&mut self, memo: Rc<SetIndexMemo>) {
        assert_eq!(
            (memo.hash_seed, memo.sets),
            (self.config.hash_seed, self.config.sets),
            "set-index memo keyed for a different CAT"
        );
        assert!(
            self.is_empty(),
            "set-index memo attached to a non-empty CAT"
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
        let Some(word) = self.memo.as_ref().and_then(|memo| memo.word(tag)) else {
            return self.hashed_sets(tag);
        };
        if let Some(sets) = decode_sets(word.get()) {
            return sets;
        }
        let (s0, s1) = self.hashed_sets(tag);
        // Both halves fit: `SetIndexMemo::new` caps `sets` at `MEMO_MAX_SETS`.
        word.set(u32::try_from((s0 + 1) | (s1 + 1) << 16).unwrap_or(0));
        (s0, s1)
    }

    /// The candidate sets a lookup scans: `None` when the memo covers
    /// `tag` and its word is unfilled, because then no CAT sharing the
    /// memo ever installed it. Never fills a word.
    #[inline]
    fn lookup_sets(&self, tag: u64) -> Option<(usize, usize)> {
        match self.memo.as_ref().and_then(|memo| memo.peek(tag)) {
            Some(word) => decode_sets(word),
            None => Some(self.hashed_sets(tag)),
        }
    }

    /// Both candidate sets of `tag`, computed by the two keyed PRINCE
    /// hashes in one two-lane pass.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "only the low bits below the power-of-two `mask` are kept"
    )]
    pub(crate) fn hashed_sets(&self, tag: u64) -> (usize, usize) {
        let mask = self.config.sets - 1;
        let [h0, h1] = &self.hashers;
        let [e0, e1] = Prince::encrypt_lanes([(h0, tag), (h1, tag)]);
        ((e0 as usize) & mask, (e1 as usize) & mask)
    }

    /// Whether the memo agrees with PRINCE on `tag`: vacuously true when
    /// no memo covers it, else its word must be filled with the hashed
    /// sets. The ghost-state audit requires this of every resident tag.
    pub(crate) fn memo_agrees(&self, tag: u64) -> bool {
        match self.memo.as_ref().and_then(|memo| memo.peek(tag)) {
            Some(word) => decode_sets(word) == Some(self.hashed_sets(tag)),
            None => true,
        }
    }

    /// Index of `(set, way)` in a table's slot arrays.
    #[inline]
    fn slot(&self, set: usize, way: usize) -> usize {
        set * self.config.ways() + way
    }

    fn slot_range(&self, set: usize) -> std::ops::Range<usize> {
        let w = self.config.ways();
        set * w..(set + 1) * w
    }

    /// The `D + E` tags of one set (empty slice for an out-of-range set,
    /// which no in-range hash ever produces).
    #[inline]
    fn set_tags(&self, table: usize, set: usize) -> &[u32] {
        let range = self.slot_range(set);
        self.tags
            .get(table)
            .and_then(|tags| tags.get(range))
            .unwrap_or(&[])
    }

    /// Tag and value of one slot, exclusively borrowed.
    fn slot_mut(&mut self, table: usize, slot: usize) -> Option<(&mut u32, &mut V)> {
        let tag = self.tags.get_mut(table)?.get_mut(slot)?;
        let value = self.values.get_mut(table)?.get_mut(slot)?;
        Some((tag, value))
    }

    /// Locates `tag` by scanning the tags of its two candidate sets. An
    /// empty CAT (an RIT with no swaps) answers without reading its memo.
    #[inline]
    fn find(&self, tag: u64) -> Option<SlotIndex> {
        if self.len == 0 {
            return None;
        }
        let key = slot_tag(tag)?;
        let (s0, s1) = self.lookup_sets(tag)?;
        [(0, s0), (1, s1)].into_iter().find_map(|(t, set)| {
            let way = self.set_tags(t, set).iter().position(|&k| k == key)?;
            Some((t, set, way))
        })
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
        self.values.get(t)?.get(self.slot(set, way))
    }

    /// The value in slot `at` (as returned by [`Cat::locate`]), or `None`
    /// if that slot is empty. Callers that located a tag once read and
    /// remove it through its slot without a second lookup.
    pub(crate) fn value_at(&self, at: SlotIndex) -> Option<&V> {
        let (t, set, way) = at;
        let key = self.set_tags(t, set).get(way)?;
        if *key == EMPTY {
            return None;
        }
        self.values.get(t)?.get(self.slot(set, way))
    }

    /// Number of entries resident in set `set` of table `table`.
    pub(crate) fn set_len(&self, table: usize, set: usize) -> usize {
        let occupied = self.occupied.get(table).and_then(|v| v.get(set));
        occupied.copied().map_or(0, usize::from)
    }

    /// Exclusive reference to the value stored for `tag`.
    pub fn get_mut(&mut self, tag: u64) -> Option<&mut V> {
        self.locate_mut(tag).map(|(_, value)| value)
    }

    /// Location of `tag` together with its value, exclusively borrowed:
    /// one lookup for clients that update the value and then repair
    /// per-set metadata (the tracker's hit path).
    pub fn locate_mut(&mut self, tag: u64) -> Option<(SlotIndex, &mut V)> {
        let (t, set, way) = self.find(tag)?;
        let slot = self.slot(set, way);
        let value = self.values.get_mut(t)?.get_mut(slot)?;
        Some(((t, set, way), value))
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
            self.set_tags(table, set)
                .iter()
                .filter(|&&k| k == EMPTY)
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
    /// and single-depth Cuckoo relocation cannot make room, or if `tag`
    /// lies outside the `u32` tag domain.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `tag` is already present (callers must use
    /// [`Cat::get_mut`] to update existing entries).
    pub fn insert(&mut self, tag: u64, value: V) -> Result<SlotIndex, CatConflict> {
        let key = slot_tag(tag).ok_or(CatConflict { tag })?;
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
                return self.place(t, set, key, value).ok_or(CatConflict { tag });
            }
            return Err(CatConflict { tag });
        }
        self.place(table, set, key, value)
            .ok_or(CatConflict { tag })
    }

    fn try_relocate(&mut self, s0: usize, s1: usize) -> Option<(usize, usize)> {
        for (t, set) in [(0, s0), (1, s1)] {
            let other = 1 - t;
            for way in 0..self.config.ways() {
                let resident = match self.set_tags(t, set).get(way) {
                    Some(&k) if k != EMPTY => k,
                    _ => continue,
                };
                let alt_set = self.set_of(other, u64::from(resident));
                if self.invalid_ways_in(other, alt_set) > 0 {
                    let value = self.take(t, set, way)?;
                    // The alternate set was just checked to have room,
                    // so this place() cannot fail.
                    self.place(other, alt_set, resident, value)?;
                    return Some((t, set));
                }
            }
        }
        None
    }

    /// Writes `key -> value` into the first free way of `(table, set)`, or
    /// returns `None` (without storing) if the set is physically full —
    /// callers check occupancy first, so `None` means a caller bug and
    /// surfaces as a [`CatConflict`] rather than a panic.
    fn place(&mut self, table: usize, set: usize, key: u32, value: V) -> Option<SlotIndex> {
        let way = self.set_tags(table, set).iter().position(|&k| k == EMPTY)?;
        let slot = self.slot(set, way);
        let (tag, stored) = self.slot_mut(table, slot)?;
        *tag = key;
        *stored = value;
        self.bump_occupied(table, set, 1);
        self.len += 1;
        Some((table, set, way))
    }

    /// Removes `tag`, returning its value.
    pub fn remove(&mut self, tag: u64) -> Option<V> {
        self.remove_entry(tag).map(|(_, value)| value)
    }

    /// Removes `tag`, returning its (former) location together with its
    /// value — one lookup instead of the `locate` + `remove` pair callers
    /// that repair per-set metadata would otherwise pay.
    pub fn remove_entry(&mut self, tag: u64) -> Option<(SlotIndex, V)> {
        let at = self.find(tag)?;
        self.remove_at(at).map(|value| (at, value))
    }

    /// Empties slot `at` (as returned by [`Cat::locate`] or
    /// [`Cat::set_iter`]), returning the value it held; `None` if the slot
    /// is empty. Entries never move on a remove, so a location stays valid
    /// until the next insert.
    pub(crate) fn remove_at(&mut self, at: SlotIndex) -> Option<V> {
        let (t, set, way) = at;
        if way >= self.config.ways() {
            return None;
        }
        self.take(t, set, way)
    }

    /// Empties slot `(table, set, way)`, returning the value it held, or
    /// `None` if it was already empty.
    fn take(&mut self, t: usize, set: usize, way: usize) -> Option<V> {
        let slot = self.slot(set, way);
        let (stored, value) = self.slot_mut(t, slot)?;
        if *stored == EMPTY {
            return None;
        }
        *stored = EMPTY;
        let value = *value;
        self.bump_occupied(t, set, -1);
        self.len -= 1;
        Some(value)
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        if self.len == 0 {
            return;
        }
        let ways = self.config.ways().max(1);
        for (tags, occupied) in self.tags.iter_mut().zip(&mut self.occupied) {
            for (set, occ) in tags.chunks_mut(ways).zip(occupied) {
                if *occ > 0 {
                    set.fill(EMPTY);
                    *occ = 0;
                }
            }
        }
        self.len = 0;
    }

    /// Every value, exclusively borrowed, in slot order; sets whose
    /// occupancy counter is zero are skipped without reading their tags.
    /// Tags and placement are untouched.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> + '_ {
        let ways = self.config.ways().max(1);
        self.tags
            .iter()
            .zip(&mut self.values)
            .zip(&self.occupied)
            .flat_map(move |((tags, values), occupied)| {
                tags.chunks(ways).zip(values.chunks_mut(ways)).zip(occupied)
            })
            .filter(|(_, &occ)| occ > 0)
            .flat_map(|((tags, values), _)| tags.iter().zip(values))
            .filter_map(|(&k, value)| (k != EMPTY).then_some(value))
    }

    /// Iterates over `(tag, &value)` in an arbitrary but deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        self.tags
            .iter()
            .zip(&self.values)
            .flat_map(|(tags, values)| tags.iter().zip(values))
            .filter_map(resident)
    }

    /// Iterates over the entries of one set of one table as
    /// `(way, tag, &value)`, in way order.
    pub fn set_iter(
        &self,
        table: usize,
        set: usize,
    ) -> impl Iterator<Item = (usize, u64, &V)> + '_ {
        let range = self.slot_range(set);
        let values = self.values.get(table).and_then(|v| v.get(range));
        let slots = self.set_tags(table, set).iter().zip(values.unwrap_or(&[]));
        slots
            .enumerate()
            .filter_map(|(way, slot)| resident(slot).map(|(tag, value)| (way, tag, value)))
    }

    /// Test-only corruption: inflates the cached length without touching
    /// any slot, so the occupancy audit must flag the mismatch.
    #[doc(hidden)]
    pub fn corrupt_len_for_test(&mut self) {
        self.len = self.len.wrapping_add(1);
    }

    /// Test-only corruption: rewrites the tag of the first occupied slot in
    /// place (bypassing the keyed hashes), so the entry becomes unfindable.
    /// Returns `false` if the CAT is empty or `new_tag` lies outside the
    /// tag domain.
    #[doc(hidden)]
    pub fn corrupt_first_tag_for_test(&mut self, new_tag: u64) -> bool {
        let Some(key) = slot_tag(new_tag) else {
            return false;
        };
        let first = self.tags.iter_mut().flatten().find(|k| **k != EMPTY);
        first.map(|k| *k = key).is_some()
    }

    /// Test-only corruption: overwrites the memo word of `tag` with `word`
    /// (`0` reads as "never installed"), so the memo-coherence audit must
    /// flag a resident `tag`. Returns `false` if no memo covers `tag`.
    #[doc(hidden)]
    pub fn corrupt_memo_for_test(&mut self, tag: u64, word: u32) -> bool {
        let cell = self.memo.as_ref().and_then(|memo| memo.word(tag));
        cell.map(|cell| cell.set(word)).is_some()
    }

    /// [`Cat::iter`] rotated to start at the `n`-th entry: the sequence of
    /// `iter().skip(n).chain(iter().take(n))`. The start is found by
    /// summing the per-set occupancy counters, so reaching it reads no slot
    /// before it; the walk then wraps around the slot arrays.
    pub fn iter_from(&self, n: usize) -> impl Iterator<Item = (u64, &V)> + '_ {
        let (table, slot) = self.nth_slot(n).unwrap_or((0, 0));
        let [t0, t1] = &self.tags;
        let [v0, v1] = &self.values;
        let ((first_tags, first_values), second) = if table == 0 {
            ((t0, v0), (t1, v1))
        } else {
            ((t1, v1), (t0, v0))
        };
        let (before_tags, after_tags) = first_tags
            .split_at_checked(slot)
            .unwrap_or((&[], first_tags));
        let (before_values, after_values) = first_values
            .split_at_checked(slot)
            .unwrap_or((&[], first_values));
        after_tags
            .iter()
            .zip(after_values)
            .chain(second.0.iter().zip(second.1))
            .chain(before_tags.iter().zip(before_values))
            .filter_map(resident)
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
                        .set_tags(table, set)
                        .iter()
                        .enumerate()
                        .filter(|(_, &k)| k != EMPTY)
                        .nth(left)?;
                    return Some((table, self.slot(set, way)));
                }
                left -= occ;
            }
        }
        None
    }
}

/// `(tag, &value)` of an occupied slot, `None` for an empty one.
#[inline]
fn resident<'a, V>((&key, value): (&u32, &'a V)) -> Option<(u64, &'a V)> {
    (key != EMPTY).then_some((u64::from(key), value))
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
    fn located_slots_read_and_remove_without_a_lookup() -> Result<(), CatConflict> {
        let mut cat = small();
        let at = cat.insert(100, 7)?;
        cat.insert(101, 8)?;
        assert_eq!(cat.locate(100), Some(at));
        assert_eq!(cat.value_at(at), Some(&7));
        let (t, set, way) = at;
        assert!(cat.set_len(t, set) >= 1);
        assert_eq!(cat.value_at((t, set, cat.config().ways())), None);
        assert_eq!(cat.remove_at((t, set, cat.config().ways())), None);
        let before = cat.set_len(t, set);
        assert_eq!(cat.remove_at(at), Some(7));
        assert_eq!(cat.set_len(t, set), before - 1);
        // The slot is empty now: nothing to read or remove, and the other
        // entry is untouched.
        assert_eq!(cat.value_at(at), None);
        assert_eq!(cat.remove_at((t, set, way)), None);
        assert_eq!((cat.len(), cat.get(101)), (1, Some(&8)));
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
    #[expect(clippy::cast_possible_truncation, reason = "tags below 10 fit a u32")]
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
    fn memo_serves_rows_and_hashes_tags_beyond_them() {
        let plain = small();
        let mut memoized = small();
        let memo = Rc::new(SetIndexMemo::new(memoized.config(), 16).expect("8 sets fit"));
        memoized.attach_set_memo(Rc::clone(&memo));
        assert_eq!(memo.rows(), 16);
        assert_eq!(memo.filled_words(), 0);
        for tag in [3u64, 3, 15, 16, 1 << 40] {
            for table in 0..2 {
                assert_eq!(memoized.set_of(table, tag), plain.set_of(table, tag));
            }
        }
        // Rows 3 and 15 were filled; tags at or above `rows` never are.
        assert_eq!(memo.filled_words(), 2);
    }

    #[test]
    fn lookups_of_unfilled_rows_miss_without_filling() -> Result<(), CatConflict> {
        let mut cat = small();
        let memo = Rc::new(SetIndexMemo::new(cat.config(), 64).expect("8 sets fit"));
        cat.attach_set_memo(Rc::clone(&memo));
        cat.insert(5, 50)?;
        assert_eq!(memo.filled_words(), 1);
        for tag in 0..64u64 {
            assert_eq!(cat.get(tag).copied(), (tag == 5).then_some(50));
        }
        assert_eq!(memo.filled_words(), 1, "a miss filled a memo word");
        Ok(())
    }

    #[test]
    fn tags_outside_the_u32_domain_conflict_and_miss() {
        let mut cat = small();
        for tag in [u64::from(u32::MAX), 1 << 32, u64::MAX] {
            assert_eq!(cat.insert(tag, 1), Err(CatConflict { tag }));
            assert!(!cat.contains(tag));
            assert_eq!(cat.remove(tag), None);
        }
        assert!(cat.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-empty CAT")]
    fn memo_attached_to_a_populated_cat_panics() {
        let mut cat = small();
        cat.insert(1, 1).expect("an empty CAT has room");
        let memo = SetIndexMemo::new(cat.config(), 16).expect("8 sets fit");
        cat.attach_set_memo(Rc::new(memo));
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
