//! Differential property tests (rrs-check) pinning the hot-path rewrites
//! against reference implementations: the flat tables, the index-free CAT
//! and its set-index memo, the rotated CAT walk and the resolve-TLB must
//! be *observationally invisible* — same access sequence, same answers,
//! same counter totals.

#![allow(
    clippy::expect_used,
    clippy::cast_possible_truncation,
    reason = "test helpers, whose domains are tiny by construction, are off the hot path"
)]

use std::cell::Cell;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::rc::Rc;

use rrs_check::{check, Gen};
use rrs_core::audit::{CatAudit, RitAudit};
use rrs_core::cat::{Cat, CatConfig, CatConflict, SetIndexMemo};
use rrs_core::rit::{RitError, RowIndirectionTable};
use rrs_core::rrs::{BankRrs, RrsConfig};
use rrs_core::tracker::{CamTracker, CatTracker, HotRowTracker, TrackerConfig};
use rrs_flat::FlatMap;
use rrs_telemetry::Telemetry;

/// `FlatMap` agrees with `BTreeMap` on arbitrary operation sequences:
/// every query, every returned value, and the final contents (compared as
/// sorted sets — only iteration *order* may differ).
#[test]
fn flat_map_matches_btreemap() {
    check(|g| {
        let mut flat: FlatMap<u64> = FlatMap::new();
        let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
        let ops = g.usize_in(1..120);
        for _ in 0..ops {
            // Small key domain forces collisions, tombstone reuse, and
            // growth; occasional huge keys exercise the hash spread.
            let key = if g.below(16) == 0 {
                g.u64()
            } else {
                g.below(48)
            };
            match g.below(6) {
                0 | 1 => {
                    let value = g.u64();
                    assert_eq!(flat.insert(key, value), reference.insert(key, value));
                }
                2 => {
                    assert_eq!(flat.remove(key), reference.remove(&key));
                }
                3 => {
                    let seed = g.u64();
                    let a = *flat.get_or_insert_with(key, || seed);
                    let b = *reference.entry(key).or_insert(seed);
                    assert_eq!(a, b);
                }
                4 => {
                    let keep = g.u64();
                    flat.retain(|k, v| (k ^ *v) % 3 != keep % 3);
                    reference.retain(|k, v| (k ^ *v) % 3 != keep % 3);
                }
                _ => {
                    assert_eq!(flat.get(key), reference.get(&key));
                    assert_eq!(flat.contains_key(key), reference.contains_key(&key));
                }
            }
            assert_eq!(flat.len(), reference.len());
        }
        let mut flat_entries: Vec<(u64, u64)> = flat.iter().map(|(k, &v)| (k, v)).collect();
        flat_entries.sort_unstable();
        let reference_entries: Vec<(u64, u64)> = reference.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(flat_entries, reference_entries);
    });
}

/// The resolve-TLB is a pure cache: after any sequence of swaps, unswaps,
/// evictions, and epoch ends, the cached `resolve` answers match the
/// mappings the public `iter()` lists for every probed row, and the
/// hit/miss counters account for exactly one event per `resolve` call of
/// an RIT that holds an entry, none per `resolve` of an empty one (it
/// answers before the cache) and none per `occupant` call.
#[test]
fn rit_tlb_matches_uncached_resolution() {
    let windows_by_emptiness = [Cell::new(0u32), Cell::new(0u32)];
    check(|g| {
        let telemetry = Telemetry::new();
        let rows = 32u64;
        // The memo covers the swapped rows; probes up to `rows + 4` also
        // reach rows it does not cover.
        let mut rit = RowIndirectionTable::new(8, rows, g.u128());
        rit.attach_telemetry(&telemetry);
        let ops = g.usize_in(1..40);
        for _ in 0..ops {
            match g.below(5) {
                0 | 1 => {
                    let _ = rit.swap(g.below(rows), g.below(rows));
                }
                2 => {
                    let _ = rit.unswap(g.below(rows));
                }
                3 => {
                    let _ = rit.evict_one(g.u64());
                }
                _ => rit.end_epoch(),
            }
            // The cache must agree with the table on hits *and* misses;
            // probing a row twice exercises both on the same line.
            let mapped: BTreeMap<u64, u64> = rit.iter().collect();
            for _ in 0..2 {
                let probe = g.below(rows + 4);
                let expected = mapped.get(&probe).copied().unwrap_or(probe);
                assert_eq!(rit.resolve(probe), expected, "resolve({probe})");
            }
        }
        RitAudit::verify(&rit).unwrap();

        // Counter identity: while the forward CAT holds an entry, every
        // `resolve` lands in exactly one of hits/misses; an empty RIT
        // answers before the cache, and `occupant` never reads it
        // (measured over a clean window of known size).
        let hits = telemetry.counter("rit.tlb.hits");
        let misses = telemetry.counter("rit.tlb.misses");
        let before = hits.get() + misses.get();
        let queries = g.u64_in(1..50);
        for q in 0..queries {
            rit.resolve(q % rows);
            rit.occupant((q * 7) % rows);
        }
        let empty = rit.tuples_in_use() == 0;
        let consulted = if empty { 0 } else { queries };
        assert_eq!(hits.get() + misses.get() - before, consulted);
        let cases = &windows_by_emptiness[usize::from(empty)];
        cases.set(cases.get() + 1);
    });
    for (cases, what) in windows_by_emptiness
        .iter()
        .zip(["holding an entry", "empty"])
    {
        assert!(cases.get() > 0, "no case measured an RIT {what}");
    }
}

/// An RIT drained to empty through unswaps and evictions resolves every
/// row to itself without touching the cache, passes the audit, and the
/// identity lines it cached while it held entries cannot outlive the next
/// swap of their rows.
#[test]
fn drained_rit_keeps_no_stale_identity_line() {
    check(|g| {
        let telemetry = Telemetry::new();
        let rows = 32u64;
        let mut rit = RowIndirectionTable::new(8, rows, g.u128());
        rit.attach_telemetry(&telemetry);
        while rit.tuples_in_use() == 0 {
            for _ in 0..g.usize_in(1..5) {
                let _ = rit.swap(g.below(rows), g.below(rows));
            }
        }
        // Cache a line for every row, identities included.
        for row in 0..rows {
            rit.resolve(row);
        }
        rit.end_epoch();
        loop {
            let Some((logical, _)) = rit.iter().next() else {
                break;
            };
            if g.below(2) == 0 {
                rit.evict_one(g.u64()).expect("every entry is unlocked");
            } else {
                rit.unswap(logical).expect("a listed row is displaced");
            }
        }
        let hits = telemetry.counter("rit.tlb.hits");
        let misses = telemetry.counter("rit.tlb.misses");
        let before = hits.get() + misses.get();
        for row in 0..rows + 4 {
            assert_eq!(rit.resolve(row), row);
        }
        assert_eq!(
            hits.get() + misses.get(),
            before,
            "an empty RIT read the cache"
        );
        RitAudit::verify(&rit).unwrap();
        // Swap again: the rows' old identity lines must not answer.
        let (a, b) = (g.below(rows), g.below(rows));
        if a != b {
            rit.swap(a, b).unwrap();
            let mapped: BTreeMap<u64, u64> = rit.iter().collect();
            for row in 0..rows {
                let expected = mapped.get(&row).copied().unwrap_or(row);
                assert_eq!(rit.resolve(row), expected, "resolve({row})");
            }
            RitAudit::verify(&rit).unwrap();
        }
    });
}

/// Reference Misra-Gries CAM over a `BTreeMap`, mirroring the pre-flat
/// implementation verbatim (minimum over the total order `(count, row)`).
struct ReferenceCam {
    config: TrackerConfig,
    counts: BTreeMap<u64, u64>,
    spill: u64,
}

impl ReferenceCam {
    fn record_access(&mut self, row: u64) -> (bool, u64) {
        let t = self.config.threshold;
        if let Some(c) = self.counts.get_mut(&row) {
            *c += 1;
            return (*c % t == 0, *c);
        }
        if self.counts.len() < self.config.entries {
            let c = self.spill + 1;
            self.counts.insert(row, c);
            return (c.is_multiple_of(t), c);
        }
        let min = self
            .counts
            .iter()
            .map(|(&r, &c)| (r, c))
            .min_by_key(|&(r, c)| (c, r));
        let Some((min_row, min_count)) = min else {
            self.spill += 1;
            return (false, self.spill);
        };
        if self.spill < min_count {
            self.spill += 1;
            (false, self.spill)
        } else {
            self.counts.remove(&min_row);
            let c = self.spill + 1;
            self.counts.insert(row, c);
            (c.is_multiple_of(t), c)
        }
    }
}

/// The flat CAM tracker produces the same verdict stream, estimates, and
/// table contents as the ordered-map reference on arbitrary access
/// sequences — including constant min-entry replacement churn.
#[test]
fn cam_tracker_matches_btreemap_reference() {
    check(|g| {
        let config = TrackerConfig {
            entries: g.usize_in(1..8),
            threshold: g.u64_in(1..6),
        };
        let mut cam = CamTracker::new(config);
        let mut reference = ReferenceCam {
            config,
            counts: BTreeMap::new(),
            spill: 0,
        };
        let accesses = g.usize_in(1..200);
        for _ in 0..accesses {
            let row = g.below(12); // tight domain: eviction ties and churn
            let verdict = cam.record_access(row);
            let (swap_due, estimate) = reference.record_access(row);
            assert_eq!(verdict.swap_due, swap_due);
            assert_eq!(verdict.estimated_count, estimate);
            assert_eq!(cam.spill(), reference.spill);
            assert_eq!(cam.len(), reference.counts.len());
        }
        for row in 0..12 {
            assert_eq!(cam.contains(row), reference.counts.contains_key(&row));
            assert_eq!(cam.count_of(row), reference.counts.get(&row).copied());
        }
    });
}

/// A CAT shape small enough that a tag domain of a few dozen over-fills
/// it: zero or one extra way forces conflicts and Cuckoo relocations.
fn tiny_cat_config(g: &mut Gen) -> CatConfig {
    CatConfig {
        sets: 1 << g.below(3),
        demand_ways: g.usize_in(1..3),
        extra_ways: g.usize_in(0..2),
        hash_seed: g.u128(),
    }
}

/// A memo covering only part of the tag domain, so the stream mixes
/// memoized tags with tags at or above `rows` that go straight to PRINCE.
fn partial_memo(g: &mut Gen, config: &CatConfig, domain: u64) -> Rc<SetIndexMemo> {
    let rows = g.usize_in(0..domain as usize);
    Rc::new(SetIndexMemo::new(config, rows).expect("tiny shapes fit a memo word"))
}

/// Two CATs sharing one set-index memo and a memo-less CAT, fed the same
/// operation stream, agree on every slot, conflict, removal, set index
/// and relocation count.
#[test]
fn memoized_cat_matches_unmemoized() {
    let relocations = Cell::new(0u64);
    check(|g| {
        let config = tiny_cat_config(g);
        let domain = 48u64;
        let memo = partial_memo(g, &config, domain);
        let mut plain: Cat<u64> = Cat::new(config);
        let mut memoized = [Cat::new(config), Cat::new(config)];
        for cat in &mut memoized {
            cat.attach_set_memo(Rc::clone(&memo));
        }
        for _ in 0..g.usize_in(1..150) {
            let tag = g.below(domain);
            match g.below(8) {
                0..=3 => {
                    if !plain.contains(tag) {
                        let expected = plain.insert(tag, tag);
                        for cat in &mut memoized {
                            assert_eq!(cat.insert(tag, tag), expected);
                        }
                    }
                }
                4 | 5 => {
                    let expected = plain.remove_entry(tag);
                    for cat in &mut memoized {
                        assert_eq!(cat.remove_entry(tag), expected);
                    }
                }
                6 => {
                    for cat in &memoized {
                        for table in 0..2 {
                            assert_eq!(cat.set_of(table, tag), plain.set_of(table, tag));
                        }
                        assert_eq!(cat.locate(tag), plain.locate(tag));
                    }
                }
                _ => {
                    plain.clear();
                    memoized.iter_mut().for_each(Cat::clear);
                }
            }
            let expected: Vec<_> = plain.iter().collect();
            for cat in &memoized {
                assert_eq!(cat.relocations(), plain.relocations());
                assert_eq!(cat.iter().collect::<Vec<_>>(), expected);
            }
        }
        relocations.set(relocations.get() + plain.relocations());
    });
    assert!(relocations.get() > 0, "no case exercised relocation");
}

/// A memoized and a memo-less `CatTracker`, fed one access stream with
/// occasional resets, agree on every verdict, install, eviction,
/// relocation, conflict and tracked row.
#[test]
fn memoized_tracker_matches_unmemoized() {
    let relocations = Cell::new(0u64);
    check(|g| {
        let cat_config = tiny_cat_config(g);
        let config = TrackerConfig {
            entries: g.usize_in(1..cat_config.slots() + 2),
            threshold: g.u64_in(1..6),
        };
        let domain = 40u64;
        let memo = partial_memo(g, &cat_config, domain);
        let spines = [Telemetry::new(), Telemetry::new()];
        let mut trackers = [
            CatTracker::with_cat_config(config, cat_config),
            CatTracker::with_cat_config(config, cat_config),
        ];
        trackers[1].attach_set_memo(memo);
        for (tracker, spine) in trackers.iter_mut().zip(&spines) {
            tracker.attach_telemetry(spine);
        }
        for _ in 0..g.usize_in(1..300) {
            if g.below(64) == 0 {
                trackers.iter_mut().for_each(HotRowTracker::reset);
            }
            let row = g.below(domain);
            let [plain, memoized] = &mut trackers;
            assert_eq!(memoized.record_access(row), plain.record_access(row));
            assert_eq!(memoized.spill(), plain.spill());
            for name in [
                "hrt.installs",
                "hrt.evicts",
                "hrt.conflicts",
                "cat.relocations",
            ] {
                assert_eq!(spines[1].counter(name).get(), spines[0].counter(name).get());
            }
            for probe in 0..domain {
                assert_eq!(memoized.count_of(probe), plain.count_of(probe));
            }
        }
        relocations.set(relocations.get() + spines[0].counter("cat.relocations").get());
    });
    assert!(relocations.get() > 0, "no case exercised relocation");
}

/// `Cat::iter_from(n)` walks exactly `iter().skip(n).chain(iter().take(n))`
/// for every `n`, including `n >= len`, under insert/remove/clear churn.
#[test]
fn iter_from_matches_rotated_iter() {
    check(|g| {
        let mut cat: Cat<u64> = Cat::new(tiny_cat_config(g));
        for _ in 0..g.usize_in(1..120) {
            let tag = g.below(40);
            match g.below(10) {
                0..=5 => {
                    if !cat.contains(tag) {
                        let _ = cat.insert(tag, tag ^ 0xA5);
                    }
                }
                6..=8 => {
                    cat.remove(tag);
                }
                _ => cat.clear(),
            }
            for n in 0..cat.len() + 3 {
                let rotated: Vec<_> = cat.iter().skip(n).chain(cat.iter().take(n)).collect();
                assert_eq!(cat.iter_from(n).collect::<Vec<_>>(), rotated, "n = {n}");
            }
        }
    });
}

/// The index-free CAT, with a memo covering its whole tag domain and
/// without one, matches a `BTreeMap` under insert/remove/`get_mut` churn:
/// every lookup, conflict-free install, removed value and the final
/// contents. Conflicts (tiny shapes over-fill) leave the reference alone.
#[test]
fn index_free_cat_matches_btreemap() {
    let relocations = Cell::new(0u64);
    check(|g| {
        let config = tiny_cat_config(g);
        let domain = 40u64;
        let memo = SetIndexMemo::new(&config, domain as usize).expect("tiny shapes fit a memo");
        let mut memoized: Cat<u64> = Cat::new(config);
        memoized.attach_set_memo(Rc::new(memo));
        let mut cats = [Cat::new(config), memoized];
        let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
        for _ in 0..g.usize_in(1..200) {
            let tag = g.below(domain);
            let value = g.u64();
            match g.below(6) {
                0..=2 => {
                    if let Entry::Vacant(slot) = reference.entry(tag) {
                        let results: Vec<_> =
                            cats.iter_mut().map(|c| c.insert(tag, value)).collect();
                        assert_eq!(results[0], results[1]);
                        if results[0].is_ok() {
                            slot.insert(value);
                        }
                    }
                }
                3 => {
                    for cat in &mut cats {
                        assert_eq!(cat.remove(tag), reference.get(&tag).copied());
                    }
                    reference.remove(&tag);
                }
                4 => {
                    for cat in &mut cats {
                        if let Some(v) = cat.get_mut(tag) {
                            *v ^= value;
                        }
                    }
                    if let Some(v) = reference.get_mut(&tag) {
                        *v ^= value;
                    }
                }
                _ => {
                    for cat in &cats {
                        assert_eq!(cat.get(tag), reference.get(&tag));
                    }
                }
            }
            for cat in &cats {
                assert_eq!(cat.len(), reference.len());
                CatAudit::verify(cat).unwrap();
            }
        }
        for cat in &cats {
            let mut entries: Vec<(u64, u64)> = cat.iter().map(|(t, &v)| (t, v)).collect();
            entries.sort_unstable();
            let expected: Vec<(u64, u64)> = reference.iter().map(|(&t, &v)| (t, v)).collect();
            assert_eq!(entries, expected);
            for tag in 0..domain {
                assert_eq!(cat.contains(tag), reference.contains_key(&tag));
            }
        }
        relocations.set(relocations.get() + cats[1].relocations());
    });
    assert!(relocations.get() > 0, "no case exercised relocation");
}

/// A lookup of a tag no CAT sharing the memo ever installed reads an
/// unfilled word and misses without hashing: the filled-word count stays
/// put, and only installs raise it.
#[test]
fn never_inserted_lookups_fill_no_memo_word() {
    check(|g| {
        let config = tiny_cat_config(g);
        let memo = Rc::new(SetIndexMemo::new(&config, 64).expect("tiny shapes fit a memo"));
        let mut cat: Cat<u64> = Cat::new(config);
        cat.attach_set_memo(Rc::clone(&memo));
        let installed: Vec<u64> = (0..g.usize_in(0..8)).map(|_| g.below(32)).collect();
        for &tag in &installed {
            if !cat.contains(tag) {
                let _ = cat.insert(tag, tag);
            }
        }
        let filled = memo.filled_words();
        assert!(filled <= installed.len());
        for tag in 32..64u64 {
            assert!(cat.get(tag).is_none());
            assert!(cat.locate(tag).is_none());
            assert!(cat.remove(tag).is_none());
        }
        assert_eq!(memo.filled_words(), filled);
    });
}

/// Tags at or above `u32::MAX` lie outside the CAT's tag domain: installs
/// report a conflict, lookups miss, and nothing panics, with or without a
/// memo.
#[test]
fn out_of_domain_tags_conflict_and_miss() {
    let config = CatConfig {
        sets: 4,
        demand_ways: 2,
        extra_ways: 1,
        hash_seed: 7,
    };
    let mut memoized: Cat<u64> = Cat::new(config);
    memoized.attach_set_memo(Rc::new(SetIndexMemo::new(&config, 16).expect("4 sets fit")));
    for mut cat in [Cat::new(config), memoized] {
        cat.insert(3, 30).unwrap();
        for tag in [u64::from(u32::MAX), u64::from(u32::MAX) + 3, u64::MAX] {
            assert_eq!(cat.insert(tag, 1), Err(CatConflict { tag }));
            assert_eq!(cat.get(tag), None);
            assert_eq!(cat.remove_entry(tag), None);
        }
        assert_eq!(cat.len(), 1);
        assert_eq!(cat.get(3), Some(&30));
        CatAudit::verify(&cat).unwrap();
    }
}

/// `CatTracker` absorbs an out-of-domain row into the spill counter and
/// counts it as a conflict; the Misra-Gries estimate still covers it.
#[test]
fn tracker_spills_out_of_domain_rows() {
    let mut tracker = CatTracker::new(TrackerConfig {
        entries: 16,
        threshold: 4,
    });
    let spine = Telemetry::new();
    tracker.attach_telemetry(&spine);
    let row = u64::from(u32::MAX);
    let mut fired = 0;
    for n in 1..=8u64 {
        let verdict = tracker.record_access(row);
        assert_eq!(verdict.estimated_count, n);
        fired += u64::from(verdict.swap_due);
    }
    assert_eq!(fired, 2);
    assert_eq!(tracker.conflicts(), 8);
    assert_eq!(spine.counter("hrt.conflicts").get(), 8);
    assert_eq!(tracker.spill(), 8);
    assert!(!tracker.contains(row));
    assert!(tracker.is_empty());
}

/// An RIT swap naming an out-of-domain row is refused before either
/// direction changes, and a bank engine whose tracker fires for such a row
/// records a stall instead of panicking.
#[test]
fn out_of_domain_swaps_stall() {
    let row = u64::from(u32::MAX) + 1;
    let mut rit = RowIndirectionTable::new(8, 64, 0x5EED);
    rit.swap(1, 2).unwrap();
    assert_eq!(rit.swap(3, row), Err(RitError::TableConflict));
    assert_eq!(rit.swap(row, 3), Err(RitError::TableConflict));
    assert_eq!(rit.tuples_in_use(), 2);
    assert_eq!(rit.resolve(row), row);
    RitAudit::verify(&rit).unwrap();

    let config = RrsConfig::for_threshold(60, 1_000, 1_024);
    let mut bank = BankRrs::new(config, 0);
    let spine = Telemetry::new();
    bank.attach_telemetry(&spine);
    for _ in 0..config.t_rrs() {
        bank.on_activation(row, |a| panic!("unexpected {a:?}"));
    }
    assert_eq!(spine.counter("rrs.capacity_stalls").get(), 1);
    assert_eq!(bank.resolve(row), row);
}
