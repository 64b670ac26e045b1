//! Hot-Row Tracker (HRT): Misra-Gries frequent-element tracking of row
//! activations (§4.2, following Graphene).
//!
//! The Misra-Gries tracker guarantees (Invariant 1, §5.2) that any row whose
//! true activation count reaches a multiple of the swap threshold `T` within
//! the tracking window has a counter value at least that large, provided the
//! tracker has `N > W/T - 1` entries, where `W` is the maximum number of
//! activations in the window. For the paper's parameters
//! (`W = ACT_max ≈ 1.36 M`, `T = 800`) that is 1700 entries per bank.
//!
//! Two implementations are provided behind the [`HotRowTracker`] trait:
//!
//! * [`CamTracker`] — the straightforward content-addressable-memory
//!   formulation used by Graphene; exact but unscalable in hardware beyond a
//!   few dozen entries (§6). It serves as the reference model, and it is
//!   the trigger of two production defenses in `rrs-mitigations`: Graphene
//!   (bounded to the Misra-Gries entry budget) and the idealized
//!   victim-focused refresh of Table 7 (one entry per row of the bank, so
//!   it never fills and its counts are exact).
//! * [`CatTracker`] — the paper's scalable design (§6.4): entries live in a
//!   [`Cat`], and per-set *SetMin* counters avoid the fully-associative
//!   minimum search that the Misra-Gries replacement rule needs.
//!
//! Both are deterministic and behave identically on any access sequence
//! (modulo which minimum-count entry is replaced on ties), which the tests
//! exploit for differential testing.

use std::rc::Rc;

use rrs_flat::FlatMap;
use rrs_telemetry::{Counter, Event, Telemetry};

use crate::cat::{Cat, CatConfig, CatConflict, SetIndexMemo, TRACKER_HASH_SEED};

/// What the tracker concluded about one activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessVerdict {
    /// The row's estimated activation count just crossed a multiple of the
    /// swap threshold: the mitigation must act (swap, for RRS).
    pub swap_due: bool,
    /// The tracker's (over-)estimate of the row's activation count, or the
    /// spill counter if the row is untracked.
    pub estimated_count: u64,
}

/// Common interface of hot-row trackers.
pub trait HotRowTracker {
    /// Records one activation of `row` and reports whether mitigation is due.
    fn record_access(&mut self, row: u64) -> AccessVerdict;

    /// Whether `row` currently has a tracker entry.
    fn contains(&self, row: u64) -> bool;

    /// The tracked (over-)estimated count for `row`, if present.
    fn count_of(&self, row: u64) -> Option<u64>;

    /// Number of tracked rows.
    fn len(&self) -> usize;

    /// Whether no rows are tracked.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current spill-counter value.
    fn spill(&self) -> u64;

    /// Clears all state at the end of a tracking window (§4.1: "The HRT is
    /// reset at the end of every epoch").
    fn reset(&mut self);

    /// Adopts a shared telemetry spine: register `hrt.*` counters and emit
    /// [`Event::HrtInstall`] / [`Event::HrtEvict`] when tracing. The
    /// default keeps a tracker unobserved (zero overhead).
    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        let _ = telemetry;
    }
}

/// Shared Misra-Gries bookkeeping parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackerConfig {
    /// Entry budget `N` (1700 for the paper's T=800 at ACT_max=1.36 M).
    pub entries: usize,
    /// Swap threshold `T` (`T_RRS`); a verdict fires at every multiple.
    pub threshold: u64,
}

impl TrackerConfig {
    /// Entries needed to guarantee detection: `N = ceil(W / T)`, which
    /// satisfies the Misra-Gries bound `N > W/T - 1` (§5.2).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "an entry count that does not fit in usize could not be allocated anyway"
    )]
    pub fn for_window(max_activations: u64, threshold: u64) -> Self {
        assert!(threshold > 0, "threshold must be positive");
        TrackerConfig {
            entries: max_activations.div_ceil(threshold) as usize,
            threshold,
        }
    }

    /// The CAT shape [`CatTracker::new`] builds for this entry budget: the
    /// paper's 6 extra ways, keyed by [`TRACKER_HASH_SEED`].
    pub fn cat_config(&self) -> CatConfig {
        CatConfig::for_capacity(self.entries.max(1), 14, 6).with_seed(TRACKER_HASH_SEED)
    }
}

/// Misra-Gries tracker over a content-addressable table: the reference
/// model of [`CatTracker`], and the trigger of Graphene and the idealized
/// victim-focused refresh. With `entries` at least the number of distinct
/// rows a window sees, the table never fills and its counts are exact.
///
/// Counts live in a deterministic [`FlatMap`]; the replacement rule picks
/// the minimum of the total order `(count, row)`, which is independent of
/// iteration order, so the flat table changes nothing observable.
#[derive(Debug, Clone)]
pub struct CamTracker {
    config: TrackerConfig,
    counts: FlatMap<u64>,
    spill: u64,
}

impl CamTracker {
    /// Creates an empty tracker.
    pub fn new(config: TrackerConfig) -> Self {
        CamTracker {
            config,
            counts: FlatMap::new(),
            spill: 0,
        }
    }

    /// The tracker's configuration.
    pub fn config(&self) -> TrackerConfig {
        self.config
    }

    fn min_entry(&self) -> Option<(u64, u64)> {
        self.counts
            .iter()
            .map(|(row, &count)| (row, count))
            .min_by_key(|&(row, count)| (count, row))
    }
}

impl HotRowTracker for CamTracker {
    fn record_access(&mut self, row: u64) -> AccessVerdict {
        let t = self.config.threshold;
        if let Some(c) = self.counts.get_mut(row) {
            *c += 1;
            return AccessVerdict {
                swap_due: *c % t == 0,
                estimated_count: *c,
            };
        }
        if self.counts.len() < self.config.entries {
            let c = self.spill + 1;
            self.counts.insert(row, c);
            return AccessVerdict {
                swap_due: c.is_multiple_of(t),
                estimated_count: c,
            };
        }
        let Some((min_row, min_count)) = self.min_entry() else {
            // Degenerate `entries == 0` shape: everything spills.
            self.spill += 1;
            return AccessVerdict {
                swap_due: false,
                estimated_count: self.spill,
            };
        };
        if self.spill < min_count {
            self.spill += 1;
            AccessVerdict {
                swap_due: false,
                estimated_count: self.spill,
            }
        } else {
            // spill == min: replace the minimum entry (Figure 3).
            self.counts.remove(min_row);
            let c = self.spill + 1;
            self.counts.insert(row, c);
            AccessVerdict {
                swap_due: c.is_multiple_of(t),
                estimated_count: c,
            }
        }
    }

    fn contains(&self, row: u64) -> bool {
        self.counts.contains_key(row)
    }

    fn count_of(&self, row: u64) -> Option<u64> {
        self.counts.get(row).copied()
    }

    fn len(&self) -> usize {
        self.counts.len()
    }

    fn spill(&self) -> u64 {
        self.spill
    }

    fn reset(&mut self) {
        self.counts.clear();
        self.spill = 0;
    }
}

/// The paper's scalable tracker: Misra-Gries over a [`Cat`] with per-set
/// SetMin counters (§6.4).
///
/// # Example
///
/// ```
/// use rrs_core::tracker::{CatTracker, HotRowTracker, TrackerConfig};
///
/// let mut hrt = CatTracker::new(TrackerConfig::for_window(1_360_000, 800));
/// let mut fired = false;
/// for _ in 0..800 {
///     fired |= hrt.record_access(42).swap_due;
/// }
/// assert!(fired, "the 800th activation triggers a swap");
/// ```
#[derive(Debug, Clone)]
pub struct CatTracker {
    config: TrackerConfig,
    /// Row → count. A count is at most one epoch of one bank's activations
    /// (`ACT_max`), far below `u32::MAX`; a count that would not fit
    /// leaves the table for the spill counter like a CAT conflict.
    cat: Cat<u32>,
    /// `set_min[table][set]`: minimum counter among valid entries of the
    /// set, `u64::MAX` when the set is empty. "On access, install, and
    /// invalidation in a set, the SetMin is recomputed" (§6.4).
    set_min: [Vec<u64>; 2],
    /// Minimum over the whole `set_min` array, so the per-miss
    /// global-minimum query need not scan it (the cost §6.4's SetMin
    /// array was built to avoid in hardware). No slot is ever below it.
    /// It is exact while `sets_at_min > 0`; once the last slot at it
    /// rises it is stale, and [`CatTracker::global_min`] recomputes it.
    min_cache: u64,
    /// Number of `set_min` slots currently equal to `min_cache`; `0`
    /// marks `min_cache` stale.
    sets_at_min: usize,
    /// Eviction scan cursor: no `(table, set)` strictly before this
    /// position (row-major over the `set_min` array) holds `min_cache`, so
    /// the victim search can start here instead of at `(0, 0)` and still
    /// pick the *same* first-at-minimum set the full scan would.
    min_scan_hint: (usize, usize),
    spill: u64,
    telemetry: Telemetry,
    installs: Counter,
    evicts: Counter,
    /// Installs abandoned because both CAT candidate sets were full —
    /// astronomically rare with the paper's 6 extra ways (Figure 9); the
    /// tracker degrades to spill-counting instead of failing.
    conflicts: Counter,
    cat_relocations: Counter,
}

impl CatTracker {
    /// Creates a tracker over the CAT shape [`TrackerConfig::cat_config`].
    pub fn new(config: TrackerConfig) -> Self {
        Self::with_cat_config(config, config.cat_config())
    }

    /// Creates a tracker over an explicitly shaped CAT.
    pub fn with_cat_config(config: TrackerConfig, cat_cfg: CatConfig) -> Self {
        let sets = cat_cfg.sets;
        let telemetry = Telemetry::new();
        CatTracker {
            config,
            cat: Cat::new(cat_cfg),
            set_min: [vec![u64::MAX; sets], vec![u64::MAX; sets]],
            min_cache: u64::MAX,
            sets_at_min: 2 * sets,
            min_scan_hint: (0, 0),
            spill: 0,
            installs: telemetry.counter("hrt.installs"),
            evicts: telemetry.counter("hrt.evicts"),
            conflicts: telemetry.counter("hrt.conflicts"),
            cat_relocations: telemetry.counter("cat.relocations"),
            telemetry,
        }
    }

    /// Installs abandoned to CAT conflicts (0 with the paper's sizing):
    /// the `hrt.conflicts` counter.
    pub fn conflicts(&self) -> u64 {
        self.conflicts.get()
    }

    /// The tracker's configuration.
    pub fn config(&self) -> TrackerConfig {
        self.config
    }

    /// The underlying CAT's shape (for storage accounting).
    pub fn cat_config(&self) -> &CatConfig {
        self.cat.config()
    }

    /// Serves the CAT's set indices from `memo` (see
    /// [`Cat::attach_set_memo`], which panics on a key mismatch).
    pub fn attach_set_memo(&mut self, memo: Rc<SetIndexMemo>) {
        self.cat.attach_set_memo(memo);
    }

    /// The CAT's set-index memo, if one is attached.
    pub fn set_memo(&self) -> Option<&Rc<SetIndexMemo>> {
        self.cat.set_memo()
    }

    fn recompute_set_min(&mut self, table: usize, set: usize) {
        let m = self
            .cat
            .set_iter(table, set)
            .map(|(_, _, &c)| u64::from(c))
            .min()
            .unwrap_or(u64::MAX);
        self.write_set_min(table, set, m);
    }

    /// Writes one `set_min` slot and maintains the `min_cache` /
    /// `sets_at_min` mirror (every slot mutation funnels through here).
    /// No slot is below the cached minimum, so the three cases are
    /// exhaustive. When the last at-minimum slot rises the mirror is only
    /// marked stale: a hit on the tracker's only minimum-count entry does
    /// that, which is common when few rows are tracked, and the minimum
    /// is read only when a full tracker misses.
    fn write_set_min(&mut self, table: usize, set: usize, m: u64) {
        let Some(slot) = self.set_min.get_mut(table).and_then(|v| v.get_mut(set)) else {
            return;
        };
        let old = *slot;
        *slot = m;
        if m < self.min_cache {
            // Every slot is >= the old minimum, so this one is now the
            // unique (and first) position at the new minimum.
            self.min_cache = m;
            self.sets_at_min = 1;
            self.min_scan_hint = (table, set);
        } else if m == self.min_cache {
            if old > self.min_cache {
                self.sets_at_min += 1;
            }
            self.min_scan_hint = self.min_scan_hint.min((table, set));
        } else if old == self.min_cache {
            self.sets_at_min -= 1;
        }
    }

    /// One pass over the SetMin array (`2 × sets` words): the exact
    /// minimum, its multiplicity and the first position holding it.
    fn refresh_min_cache(&mut self) {
        self.min_cache = u64::MAX;
        self.sets_at_min = 0;
        self.min_scan_hint = (0, 0);
        for (t, mins) in self.set_min.iter().enumerate() {
            for (s, &m) in mins.iter().enumerate() {
                if self.sets_at_min == 0 || m < self.min_cache {
                    self.min_cache = m;
                    self.sets_at_min = 1;
                    self.min_scan_hint = (t, s);
                } else if m == self.min_cache {
                    self.sets_at_min += 1;
                }
            }
        }
    }

    /// Global minimum counter. Hardware scans the SetMin array (2 × sets
    /// values, not a fully-associative search — the point of §6.4); the
    /// model caches that scan's result and repeats it only when the cache
    /// went stale, so most per-miss queries are O(1).
    fn global_min(&mut self) -> u64 {
        if self.sets_at_min == 0 {
            self.refresh_min_cache();
        }
        debug_assert_eq!(
            self.min_cache,
            self.set_min
                .iter()
                .flat_map(|v| v.iter())
                .copied()
                .min()
                .unwrap_or(u64::MAX),
            "min_cache out of sync with the SetMin array"
        );
        self.min_cache
    }

    /// Evicts one entry at the global minimum `min`; `false` if no set
    /// held one, which an exact SetMin array rules out.
    fn evict_one_min(&mut self, min: u64) -> bool {
        // Find a minimum-count victim first (immutably), then mutate: the
        // victim is the first entry at `min` in the first set (row-major)
        // whose SetMin equals `min`. The scan cursor lets the search start
        // past the prefix known to hold no at-minimum set — same victim,
        // without re-walking the whole SetMin array every eviction. One
        // walk of a candidate set finds its first way at `min` and the
        // minimum of its other residents, the set's SetMin once the victim
        // is gone.
        #[cfg(debug_assertions)]
        for (t, mins) in self.set_min.iter().enumerate() {
            for (s, &m) in mins.iter().enumerate() {
                if (t, s) < self.min_scan_hint {
                    debug_assert_ne!(m, self.min_cache, "stale eviction scan cursor");
                }
            }
        }
        let start = if min == self.min_cache {
            self.min_scan_hint
        } else {
            (0, 0)
        };
        let mut first_at_min = None;
        let mut victim = None;
        'scan: for (t, mins) in self.set_min.iter().enumerate().skip(start.0) {
            let skip = if t == start.0 { start.1 } else { 0 };
            for (s, &m) in mins.iter().enumerate().skip(skip) {
                if m != min {
                    continue;
                }
                if first_at_min.is_none() {
                    first_at_min = Some((t, s));
                }
                let mut at_min = None;
                let mut rest_min = u64::MAX;
                for (way, tag, &c) in self.cat.set_iter(t, s) {
                    let c = u64::from(c);
                    if at_min.is_none() && c == min {
                        at_min = Some((way, tag));
                    } else {
                        rest_min = rest_min.min(c);
                    }
                }
                if let Some((way, tag)) = at_min {
                    victim = Some(((t, s, way), tag, rest_min));
                    break 'scan;
                }
            }
        }
        if min == self.min_cache {
            // Positions scanned over held values != min, so the first
            // at-minimum position seen is the new safe scan start.
            if let Some(pos) = first_at_min {
                self.min_scan_hint = pos;
            }
        }
        let Some((at @ (t, s, _), tag, rest_min)) = victim else {
            return false;
        };
        if self.cat.remove_at(at).is_none() {
            return false;
        }
        self.write_set_min(t, s, rest_min);
        self.evicts.inc();
        if self.telemetry.tracing() {
            self.telemetry.emit(Event::HrtEvict {
                at: self.telemetry.now(),
                row: tag,
                count: min,
            });
        }
        true
    }

    fn rebuild_set_min(&mut self) {
        let sets = self.cat.config().sets;
        for t in 0..2 {
            for s in 0..sets {
                self.recompute_set_min(t, s);
            }
        }
    }

    /// Installs an entry; on the (designed-away) CAT conflict the tracker
    /// degrades gracefully: the access is absorbed by the spill counter,
    /// preserving the Misra-Gries over-estimation invariant (the spill
    /// counter over-approximates every untracked row). A row outside the
    /// CAT's tag domain, or a count that does not fit its `u32` counter,
    /// takes the same path.
    fn install(&mut self, row: u64, count: u64) -> bool {
        let relocations_before = self.cat.relocations();
        let stored = u32::try_from(count).map_err(|_| CatConflict { tag: row });
        match stored.and_then(|stored| self.cat.insert(row, stored)) {
            Ok((table, set, _)) => {
                let old = self
                    .set_min
                    .get(table)
                    .and_then(|v| v.get(set))
                    .copied()
                    .unwrap_or(u64::MAX);
                self.write_set_min(table, set, old.min(count));
                self.installs.inc();
                let moves = self.cat.relocations() - relocations_before;
                if moves > 0 {
                    // A relocation moved a resident between sets, an
                    // invalidation and an install at once, so both sets'
                    // SetMins are recomputed (§6.4). It is rare enough
                    // (Figure 9) to rebuild them all.
                    self.rebuild_set_min();
                }
                self.cat_relocations.add(moves);
                if self.telemetry.tracing() {
                    let at = self.telemetry.now();
                    self.telemetry.emit(Event::HrtInstall { at, row, count });
                    if moves > 0 {
                        self.telemetry.emit(Event::CatRelocation { at, moves });
                    }
                }
                true
            }
            Err(_) => {
                self.conflict(count);
                false
            }
        }
    }

    /// Absorbs an activation the table could not hold into the spill
    /// counter, which then bounds the row's count from above.
    fn conflict(&mut self, count: u64) {
        self.conflicts.inc();
        self.spill = self.spill.max(count);
    }

    /// Misra-Gries handling of an activation of an untracked row: install
    /// while below budget, otherwise bump the spill counter or replace a
    /// minimum-count entry (Figure 3).
    fn record_miss(&mut self, row: u64) -> AccessVerdict {
        let t = self.config.threshold;
        if self.cat.len() < self.config.entries {
            let c = self.spill + 1;
            self.install(row, c);
            return AccessVerdict {
                swap_due: c.is_multiple_of(t),
                estimated_count: c,
            };
        }
        let min = self.global_min();
        if self.spill < min {
            self.spill += 1;
            AccessVerdict {
                swap_due: false,
                estimated_count: self.spill,
            }
        } else {
            let evicted = self.evict_one_min(min);
            debug_assert!(evicted, "no set holds the global minimum {min}");
            let c = self.spill + 1;
            self.install(row, c);
            AccessVerdict {
                swap_due: c.is_multiple_of(t),
                estimated_count: c,
            }
        }
    }
}

impl HotRowTracker for CatTracker {
    fn record_access(&mut self, row: u64) -> AccessVerdict {
        let t = self.config.threshold;
        if let Some(((table, set, _), count)) = self.cat.locate_mut(row) {
            let c = u64::from(*count) + 1;
            let Ok(stored) = u32::try_from(c) else {
                // The counter is saturated: hand the row to the spill
                // counter instead of under-counting it.
                self.cat.remove_entry(row);
                self.recompute_set_min(table, set);
                self.conflict(c);
                return AccessVerdict {
                    swap_due: c % t == 0,
                    estimated_count: c,
                };
            };
            *count = stored;
            // The increment can only raise the set minimum, and only if
            // this entry held it. Alone in its set, it is the new minimum.
            let prev_min = self.set_min.get(table).and_then(|v| v.get(set)).copied();
            if prev_min == Some(c - 1) {
                if self.cat.set_len(table, set) == 1 {
                    self.write_set_min(table, set, c);
                } else {
                    self.recompute_set_min(table, set);
                }
            }
            return AccessVerdict {
                swap_due: c % t == 0,
                estimated_count: c,
            };
        }
        self.record_miss(row)
    }

    fn contains(&self, row: u64) -> bool {
        self.cat.contains(row)
    }

    fn count_of(&self, row: u64) -> Option<u64> {
        self.cat.get(row).map(|&c| u64::from(c))
    }

    fn len(&self) -> usize {
        self.cat.len()
    }

    fn spill(&self) -> u64 {
        self.spill
    }

    fn reset(&mut self) {
        self.cat.clear();
        let mut slots = 0;
        for v in &mut self.set_min {
            v.iter_mut().for_each(|m| *m = u64::MAX);
            slots += v.len();
        }
        self.min_cache = u64::MAX;
        self.sets_at_min = slots;
        self.min_scan_hint = (0, 0);
        self.spill = 0;
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        // Registration is idempotent by name, so every per-bank tracker
        // shares the same aggregate counters.
        self.installs = telemetry.counter("hrt.installs");
        self.evicts = telemetry.counter("hrt.evicts");
        self.conflicts = telemetry.counter("hrt.conflicts");
        self.cat_relocations = telemetry.counter("cat.relocations");
        self.telemetry = telemetry.clone();
    }
}

/// A counting-Bloom-filter hot-row tracker — the "any tracking mechanism"
/// demonstration (§4.2: "RRS is a mitigating action and not a specific
/// tracking technique, therefore it can be implemented with any tracking
/// mechanism").
///
/// Unlike Misra-Gries, a CBF never *underestimates* a row's count (every
/// activation increments all of the row's buckets), so Invariant 1 is
/// preserved: a row crossing a multiple of `T` always fires. The cost is
/// aliasing: rows sharing buckets with hot rows fire spuriously, so a
/// CBF-tracked RRS performs *more* swaps than the Misra-Gries design at
/// equal security — the trade-off the ablation benches quantify.
#[derive(Debug, Clone)]
pub struct CbfTracker {
    threshold: u64,
    counters: Vec<u32>,
    hashers: Vec<crate::prince::Prince>,
    /// Rows whose minimum bucket count reached the threshold (for
    /// `contains` / destination exclusion and `len`).
    hot: std::collections::BTreeSet<u64>,
}

impl CbfTracker {
    /// Creates a CBF tracker with `counters` buckets and `hashes` hash
    /// functions, firing at every multiple of `threshold`.
    pub fn new(threshold: u64, counters: usize, hashes: usize, seed: u128) -> Self {
        assert!(threshold > 0, "threshold must be positive");
        assert!(counters > 0 && hashes > 0, "degenerate CBF shape");
        CbfTracker {
            threshold,
            counters: vec![0; counters],
            hashers: (0..hashes)
                .map(|i| crate::prince::Prince::new(seed ^ ((i as u128 + 1) << 96)))
                .collect(),
            hot: std::collections::BTreeSet::new(),
        }
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "any bits of the hash pick a counter; it is reduced mod the counter count"
    )]
    fn estimate(&self, row: u64) -> u64 {
        self.hashers
            .iter()
            .map(|h| {
                let idx = (h.encrypt(row) as usize) % self.counters.len();
                u64::from(self.counters.get(idx).copied().unwrap_or(0))
            })
            .min()
            .unwrap_or(0)
    }
}

impl HotRowTracker for CbfTracker {
    fn record_access(&mut self, row: u64) -> AccessVerdict {
        let m = self.counters.len();
        for h in &self.hashers {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "any bits of the hash pick a counter; it is reduced mod the counter count"
            )]
            let idx = (h.encrypt(row) as usize) % m;
            if let Some(c) = self.counters.get_mut(idx) {
                *c = c.saturating_add(1);
            }
        }
        let est = self.estimate(row);
        if est >= self.threshold {
            self.hot.insert(row);
        }
        AccessVerdict {
            swap_due: est.is_multiple_of(self.threshold),
            estimated_count: est,
        }
    }

    fn contains(&self, row: u64) -> bool {
        self.hot.contains(&row)
    }

    fn count_of(&self, row: u64) -> Option<u64> {
        let est = self.estimate(row);
        (est > 0).then_some(est)
    }

    fn len(&self) -> usize {
        self.hot.len()
    }

    fn spill(&self) -> u64 {
        0
    }

    fn reset(&mut self) {
        self.counters.iter_mut().for_each(|c| *c = 0);
        self.hot.clear();
    }
}

/// The stateless trigger of §4.2 footnote 1: "a probabilistic version of
/// RRS, similar to PARA, where the row-swap is triggered with probability
/// p on each row activation". It tracks nothing, so a `BankRrs` driven by
/// it excludes only RIT rows when it picks a destination, and its swaps
/// scale with total traffic rather than with the number of hot rows. The
/// same coin driving a neighbour refresh instead of a swap is PARA.
#[derive(Debug, Clone)]
pub struct ProbabilisticTrigger {
    p: f64,
    prng: crate::prng::PrinceCtrRng,
}

impl ProbabilisticTrigger {
    /// Creates a trigger firing with probability `p` per activation, drawn
    /// from a PRINCE-CTR stream keyed by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1]`.
    pub fn new(p: f64, seed: u128) -> Self {
        assert!(p > 0.0 && p <= 1.0, "probability out of range");
        ProbabilisticTrigger {
            p,
            prng: crate::prng::PrinceCtrRng::new(seed),
        }
    }
}

impl HotRowTracker for ProbabilisticTrigger {
    fn record_access(&mut self, _row: u64) -> AccessVerdict {
        AccessVerdict {
            swap_due: self.prng.next_bool(self.p),
            estimated_count: 0,
        }
    }

    fn contains(&self, _row: u64) -> bool {
        false
    }

    fn count_of(&self, _row: u64) -> Option<u64> {
        None
    }

    fn len(&self) -> usize {
        0
    }

    fn spill(&self) -> u64 {
        0
    }

    /// Nothing to clear: the coin's stream continues across epochs.
    fn reset(&mut self) {}
}

#[cfg(test)]
#[allow(
    clippy::disallowed_types,
    reason = "test-only reference counts and membership checks; their iteration order never reaches a result"
)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn cfg(entries: usize, threshold: u64) -> TrackerConfig {
        TrackerConfig { entries, threshold }
    }

    #[test]
    fn config_matches_paper_sizing() {
        // ACT_max = 1.36 M, T = 800 -> 1700 entries (§4.5).
        let c = TrackerConfig::for_window(1_360_000, 800);
        assert_eq!(c.entries, 1700);
    }

    #[test]
    fn figure3_walkthrough_cam() {
        // Reproduces the paper's Figure 3 example with a 3-entry tracker:
        // state {A:6, X:3, Y:9}, spill = 2.
        let mut t = CamTracker::new(cfg(3, 1000));
        t.counts.insert(0xA, 6);
        t.counts.insert(0x5, 3); // Row-X
        t.counts.insert(0x9, 9);
        t.spill = 2;
        // Row-A arrives: present, 6 -> 7.
        t.record_access(0xA);
        assert_eq!(t.count_of(0xA), Some(7));
        // Row-B arrives: absent, min (3) > spill (2): spill -> 3.
        t.record_access(0xB);
        assert_eq!(t.spill(), 3);
        assert!(!t.contains(0xB));
        // Row-C arrives: absent, min (3) == spill (3): replace Row-X,
        // install C with count = spill + 1 = 4.
        t.record_access(0xC);
        assert!(!t.contains(0x5));
        assert_eq!(t.count_of(0xC), Some(4));
    }

    #[test]
    fn swap_due_fires_at_every_multiple() {
        let mut t = CamTracker::new(cfg(4, 10));
        let mut fires = 0;
        for _ in 0..35 {
            if t.record_access(7).swap_due {
                fires += 1;
            }
        }
        assert_eq!(fires, 3); // at counts 10, 20, 30
    }

    #[test]
    fn cam_and_cat_agree_on_hot_rows() {
        // Differential test: a skewed access pattern must yield identical
        // counts for hot rows in both implementations.
        let mut cam = CamTracker::new(cfg(16, 50));
        let mut cat = CatTracker::new(cfg(16, 50));
        let mut x = 12345u64;
        for i in 0..20_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // 4 hot rows get half the traffic; the rest is scattered.
            let row = if i % 2 == 0 {
                i % 4
            } else {
                100 + (x >> 33) % 1000
            };
            cam.record_access(row);
            cat.record_access(row);
        }
        for hot in 0..4u64 {
            assert_eq!(
                cam.count_of(hot),
                cat.count_of(hot),
                "hot row {hot} diverged"
            );
        }
        assert_eq!(cam.spill(), cat.spill());
    }

    #[test]
    fn misra_gries_overestimates_true_counts() {
        // Invariant: a tracked row's counter never underestimates its true
        // activation count.
        let mut t = CatTracker::new(cfg(8, 100));
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut x = 999u64;
        for _ in 0..5_000 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let row = (x >> 48) % 40;
            *truth.entry(row).or_insert(0) += 1;
            t.record_access(row);
        }
        for (&row, &true_count) in &truth {
            if let Some(est) = t.count_of(row) {
                assert!(
                    est >= true_count.min(est),
                    "row {row}: est {est} < truth {true_count}"
                );
            }
        }
    }

    #[test]
    fn guaranteed_detection_at_threshold() {
        // With N = ceil(W/T) entries, every row reaching T true accesses in
        // a window of W total accesses must fire swap_due (Invariant 1).
        let w = 10_000u64;
        let t_thresh = 100u64;
        let config = TrackerConfig::for_window(w, t_thresh);
        let mut tracker = CatTracker::new(config);
        let mut fired = false;
        let mut x = 5u64;
        let mut issued = 0u64;
        let mut hot_accesses = 0u64;
        while issued < w {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            if issued.is_multiple_of(7) && hot_accesses < t_thresh {
                hot_accesses += 1;
                fired |= tracker.record_access(42).swap_due;
            } else {
                tracker.record_access(1000 + (x >> 40));
            }
            issued += 1;
        }
        assert_eq!(hot_accesses, t_thresh);
        assert!(fired, "row with T accesses was not flagged");
    }

    #[test]
    fn never_exceeds_entry_budget() {
        let mut t = CatTracker::new(cfg(32, 10));
        for row in 0..10_000u64 {
            t.record_access(row);
        }
        assert!(t.len() <= 32);
    }

    #[test]
    fn reset_clears_everything() {
        let mut t = CatTracker::new(cfg(8, 10));
        for row in 0..100u64 {
            t.record_access(row % 10);
        }
        assert!(!t.is_empty());
        t.reset();
        assert!(t.is_empty());
        assert_eq!(t.spill(), 0);
        assert_eq!(t.count_of(3), None);
        // And it works normally afterwards.
        let v = t.record_access(3);
        assert_eq!(v.estimated_count, 1);
    }

    #[test]
    fn spill_only_grows_until_reset() {
        let mut t = CamTracker::new(cfg(2, 1000));
        let mut last = 0;
        for row in 0..500u64 {
            t.record_access(row);
            assert!(t.spill() >= last);
            last = t.spill();
        }
        assert!(last > 0);
    }

    #[test]
    fn undersized_cat_degrades_to_spill_not_panic() {
        // Failure injection: a CAT with zero extra ways *will* conflict;
        // the tracker must absorb the loss via the spill counter (keeping
        // the over-estimation invariant) rather than panic.
        let cat_cfg = CatConfig {
            sets: 2,
            demand_ways: 2,
            extra_ways: 0,
            hash_seed: 0xBAD,
        };
        let mut t = CatTracker::with_cat_config(
            TrackerConfig {
                entries: 8,
                threshold: 100,
            },
            cat_cfg,
        );
        let spine = Telemetry::new();
        t.attach_telemetry(&spine);
        for row in 0..500u64 {
            t.record_access(row);
        }
        assert!(t.conflicts() > 0, "0 extra ways must conflict");
        assert_eq!(spine.counter("hrt.conflicts").get(), t.conflicts());
        // Over-estimation survives: spill bounds every untracked row.
        assert!(t.spill() > 0);
    }

    #[test]
    fn saturated_count_moves_the_row_to_spill() {
        let mut t = CatTracker::new(cfg(8, 1000));
        t.record_access(5);
        t.record_access(6);
        *t.cat.get_mut(5).expect("row 5 is tracked") = u32::MAX;
        t.rebuild_set_min();
        // The next hit cannot be stored in a `u32`: the row leaves the
        // table and the spill counter takes over its (exact) count.
        let verdict = t.record_access(5);
        let saturated = u64::from(u32::MAX) + 1;
        assert_eq!(verdict.estimated_count, saturated);
        assert!(!t.contains(5));
        assert_eq!((t.spill(), t.conflicts()), (saturated, 1));
        // Installs above the `u32` range take the same conflict path.
        assert_eq!(t.record_access(7).estimated_count, saturated + 1);
        assert!(!t.contains(7));
        assert_eq!(t.conflicts(), 2);
        assert_eq!(t.count_of(6), Some(1));
        assert_eq!(t.global_min(), 1);
    }

    #[test]
    fn cbf_tracker_never_underestimates() {
        let mut t = CbfTracker::new(10, 256, 3, 0xCBF);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut x = 3u64;
        for _ in 0..2_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let row = (x >> 48) % 100;
            *truth.entry(row).or_insert(0) += 1;
            t.record_access(row);
        }
        for (&row, &c) in &truth {
            assert!(
                t.count_of(row).unwrap_or(0) >= c,
                "row {row}: CBF estimate below truth"
            );
        }
    }

    #[test]
    fn cbf_tracker_fires_at_threshold() {
        let mut t = CbfTracker::new(10, 1024, 3, 0xCBF);
        let mut fires = 0;
        for _ in 0..25 {
            if t.record_access(7).swap_due {
                fires += 1;
            }
        }
        assert!(fires >= 2, "fired {fires} times in 25 accesses at T=10");
        assert!(t.contains(7));
        assert!(!t.contains(8));
    }

    #[test]
    fn cbf_tracker_reset_clears() {
        let mut t = CbfTracker::new(5, 128, 2, 1);
        for _ in 0..10 {
            t.record_access(3);
        }
        assert!(t.contains(3));
        t.reset();
        assert!(!t.contains(3));
        assert_eq!(t.count_of(3), None);
        assert!(t.is_empty());
    }

    /// Every SetMin slot equals the minimum count of its set, recomputed.
    fn assert_set_min_exact(t: &CatTracker) {
        for (table, mins) in t.set_min.iter().enumerate() {
            for (set, &m) in mins.iter().enumerate() {
                let scanned = t
                    .cat
                    .set_iter(table, set)
                    .map(|(_, _, &c)| u64::from(c))
                    .min();
                assert_eq!(m, scanned.unwrap_or(u64::MAX), "SetMin of ({table}, {set})");
            }
        }
    }

    /// The victim the three-pass eviction picked, rebuilt from `t`'s state
    /// before the eviction: the first entry at the global minimum (in way
    /// order) in the first set, row-major, whose SetMin holds it.
    fn three_pass_victim(t: &CatTracker) -> Option<u64> {
        let min = t.set_min.iter().flatten().copied().min()?;
        t.set_min.iter().enumerate().find_map(|(table, sets)| {
            sets.iter().enumerate().find_map(|(set, &m)| {
                let mut at_min = t
                    .cat
                    .set_iter(table, set)
                    .filter(|&(_, _, &c)| m == min && u64::from(c) == min);
                at_min.next().map(|(_, tag, _)| tag)
            })
        })
    }

    #[test]
    fn one_pass_eviction_matches_three_pass_search() {
        // Two sets of two ways per table and no extra way: the table fills,
        // installs Cuckoo-relocate, and every miss of a full tracker either
        // spills or evicts.
        let cat_cfg = CatConfig {
            sets: 2,
            demand_ways: 2,
            extra_ways: 0,
            hash_seed: 0x5E7,
        };
        let telemetry = Telemetry::new();
        let mut t = CatTracker::with_cat_config(cfg(cat_cfg.slots(), 1 << 20), cat_cfg);
        t.attach_telemetry(&telemetry);
        let evicts = telemetry.counter("hrt.evicts");
        let mut x = 77u64;
        let mut evictions = 0;
        for _ in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // A few hot rows keep the counts of the residents apart; the
            // rest of the traffic churns through misses.
            let row = if x >> 62 == 0 {
                (x >> 40) % 4
            } else {
                4 + (x >> 40) % 60
            };
            let before = t.clone();
            let evict_due = !before.contains(row)
                && before.len() >= before.config.entries
                && before.set_min.iter().flatten().any(|&m| m <= before.spill);
            let evicts_before = evicts.get();
            t.record_access(row);
            assert_set_min_exact(&t);
            assert_eq!(evicts.get() - evicts_before, u64::from(evict_due));
            if !evict_due {
                continue;
            }
            evictions += 1;
            let victim = three_pass_victim(&before).expect("a set holds the minimum");
            assert!(!t.contains(victim), "row {victim} was the victim");
            for (other, _) in before.cat.iter().filter(|&(r, _)| r != victim) {
                assert!(t.contains(other), "row {other} was evicted, not {victim}");
            }
        }
        assert!(evictions > 1_000, "only {evictions} evictions");
        assert!(t.cat.relocations() > 0, "no install relocated");
    }

    #[test]
    fn hits_on_single_resident_sets_keep_set_min_exact() {
        let mut t = CatTracker::new(TrackerConfig::for_window(1_360_000, 800));
        for row in 0..4u64 {
            t.record_access(row);
        }
        let (table, set, _) = t.cat.locate(0).expect("row 0 is tracked");
        assert_eq!(t.cat.set_len(table, set), 1, "row 0 shares its set");
        // Each hit raises the only entry of row 0's set, and with it the
        // set's minimum; the tracker's minimum stays with rows 1-3.
        for count in 2..=6u64 {
            assert_eq!(t.record_access(0).estimated_count, count);
            assert_eq!(t.set_min[table][set], count);
            assert_set_min_exact(&t);
        }
        assert_eq!(t.global_min(), 1);
        for row in 1..4u64 {
            for _ in 0..6 {
                t.record_access(row);
            }
        }
        assert_set_min_exact(&t);
        assert_eq!(t.global_min(), 6);
    }

    #[test]
    fn stale_minimum_is_recomputed_before_a_miss_reads_it() {
        let mut t = CatTracker::new(cfg(2, 1000));
        t.record_access(1);
        t.record_access(2);
        // Rows 1 and 2 sit alone in the two tables' single sets; raising
        // both leaves the cached minimum stale until a full tracker misses.
        t.record_access(1);
        t.record_access(2);
        t.record_access(1);
        assert_eq!(t.sets_at_min, 0, "the last at-minimum slot rose");
        // Full tracker, spill 0 < min 2: the miss spills.
        let v = t.record_access(3);
        assert_eq!((v.estimated_count, t.spill()), (1, 1));
        assert_eq!(t.global_min(), 2);
        assert_set_min_exact(&t);
    }

    #[test]
    fn setmin_tracks_global_minimum() {
        let mut t = CatTracker::new(cfg(8, 1000));
        for row in 0..8u64 {
            for _ in 0..=row {
                t.record_access(row);
            }
        }
        // Row 0 has count 1 (installed at spill 0 + 1), the global min.
        assert_eq!(t.global_min(), 1);
        // Bump row 0 a lot; min moves to row 1's count (2).
        for _ in 0..10 {
            t.record_access(0);
        }
        assert_eq!(t.global_min(), 2);
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn probabilistic_trigger_rejects_zero_probability() {
        ProbabilisticTrigger::new(0.0, 0);
    }
}
