#![warn(missing_docs)]

//! # rrs-flat — deterministic flat hash tables for the hot path
//!
//! The simulator's determinism rule (clippy's `disallowed_types`, set in
//! the workspace `clippy.toml`) bans `std::collections::HashMap` because
//! its iteration order depends on a per-process random seed. Per-row
//! bookkeeping therefore first moved onto `BTreeMap`, which is
//! deterministic but pays a pointer-chasing
//! logarithmic probe on every activation — the dominant cost of the
//! per-activation pipeline at paper scale (128 K rows × 32 banks).
//!
//! [`FlatMap`] wins the speed back without giving up determinism:
//!
//! * **open addressing** over one contiguous slot array — a lookup is one
//!   multiply, one mask, and a short linear probe, no allocation and no
//!   pointer chasing;
//! * a **fixed multiplicative hash** (no `RandomState`): the table's layout
//!   is a pure function of the insertion history, so iteration order is
//!   deterministic across runs, machines, and threads;
//! * **backward-shift deletion** (no tombstones): probe chains stay short
//!   under the install/evict churn of Misra-Gries tracking and epoch
//!   drains, and the layout after a removal is again history-determined.
//!
//! Iteration visits slots in index order. That order is deterministic but
//! *hash-shaped*, so callers must only fold order-independent reductions
//! over it (counts, minima over totally ordered keys) — exactly how the
//! trackers and the hammer model consume it. Keys are `u64`; multi-field
//! keys (e.g. a DRAM `RowAddr`) pack into one word at the call site.

/// One occupied slot: key plus value.
type Entry<V> = (u64, V);

/// A deterministic open-addressing hash map with `u64` keys.
///
/// # Example
///
/// ```
/// use rrs_flat::FlatMap;
///
/// let mut m: FlatMap<u64> = FlatMap::new();
/// *m.get_or_insert_with(7, || 0) += 1;
/// assert_eq!(m.get(7), Some(&1));
/// assert_eq!(m.remove(7), Some(1));
/// assert!(m.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlatMap<V> {
    /// Power-of-two slot array (empty until the first insert).
    slots: Vec<Option<Entry<V>>>,
    len: usize,
}

/// Fibonacci multiplicative hashing: odd constant ≈ 2^64/φ. The high bits
/// are the best-mixed, so the mask is applied after a right shift chosen
/// from the table size.
#[inline]
fn spread(key: u64) -> u64 {
    (key ^ (key >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl<V> FlatMap<V> {
    /// Smallest capacity allocated on first insert.
    const MIN_CAPACITY: usize = 16;

    /// Creates an empty map (no allocation until the first insert).
    pub fn new() -> Self {
        FlatMap {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Creates a map pre-sized to hold `n` entries without growing.
    pub fn with_capacity(n: usize) -> Self {
        let mut m = FlatMap::new();
        if n > 0 {
            m.allocate((n * 2 + 1).next_power_of_two().max(Self::MIN_CAPACITY));
        }
        m
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current slot-array size (0 before the first insert).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len().wrapping_sub(1)
    }

    /// Home slot of `key` for the current table size.
    #[inline]
    fn home(&self, key: u64) -> usize {
        // The shift keeps the well-mixed high bits; slots.len() is a power
        // of two ≥ 16, so `leading_zeros + 1` is a valid shift (< 64).
        (spread(key) >> (self.slots.len().leading_zeros() + 1)) as usize & self.mask()
    }

    /// Index of `key`'s slot, if present.
    #[inline]
    fn find_index(&self, key: u64) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            match self.slots.get(i) {
                Some(Some((k, _))) if *k == key => return Some(i),
                Some(Some(_)) => i = (i + 1) & mask,
                _ => return None,
            }
        }
    }

    /// Shared reference to the value stored for `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        let i = self.find_index(key)?;
        self.slots.get(i)?.as_ref().map(|(_, v)| v)
    }

    /// Exclusive reference to the value stored for `key`.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        let i = self.find_index(key)?;
        self.slots.get_mut(i)?.as_mut().map(|(_, v)| v)
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains_key(&self, key: u64) -> bool {
        self.find_index(key).is_some()
    }

    fn allocate(&mut self, capacity: usize) {
        debug_assert!(capacity.is_power_of_two());
        self.slots.clear();
        self.slots.resize_with(capacity, || None);
    }

    /// Doubles the table, reinserting entries in slot order (a deterministic
    /// function of the old layout, hence of the insertion history).
    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(Self::MIN_CAPACITY);
        let old = std::mem::take(&mut self.slots);
        self.allocate(new_cap);
        let mask = self.mask();
        for (key, value) in old.into_iter().flatten() {
            let mut i = self.home(key);
            while let Some(slot) = self.slots.get_mut(i) {
                if slot.is_none() {
                    *slot = Some((key, value));
                    break;
                }
                i = (i + 1) & mask;
            }
        }
    }

    /// Inserts `key -> value`, returning the previous value if any.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        // Grow at 1/2 load: the hot structures are miss-dominated (every
        // untracked row probes to an empty slot before installing), and
        // unsuccessful linear-probe searches degrade steeply past half
        // load (~18 expected probes at 7/8 versus ~2 at 1/2). Trading 2×
        // slot memory for short chains is the right call for tables whose
        // lookups outnumber their entries a thousandfold.
        if self.slots.is_empty() || (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            let Some(slot) = self.slots.get_mut(i) else {
                return None; // unreachable: probing a power-of-two table
            };
            match slot {
                Some((k, v)) if *k == key => {
                    return Some(std::mem::replace(v, value));
                }
                Some(_) => i = (i + 1) & mask,
                None => {
                    *slot = Some((key, value));
                    self.len += 1;
                    return None;
                }
            }
        }
    }

    /// Exclusive reference to `key`'s value, inserting `default()` first if
    /// the key is absent (the hot-path equivalent of `entry().or_insert`).
    pub fn get_or_insert_with(&mut self, key: u64, default: impl FnOnce() -> V) -> &mut V {
        if self.find_index(key).is_none() {
            self.insert(key, default());
        }
        // The key is now guaranteed present; route the (infallible) misses
        // through a dangling placeholder insert to stay panic-free.
        let i = self.find_index(key).unwrap_or(0);
        match self.slots.get_mut(i).and_then(|s| s.as_mut()) {
            Some((_, v)) => v,
            None => unreachable!("key was just inserted"),
        }
    }

    /// Removes `key`, returning its value. Uses backward-shift deletion:
    /// the vacated slot is refilled by sliding later probe-chain members
    /// back, so no tombstones accumulate.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let mut hole = self.find_index(key)?;
        let taken = self.slots.get_mut(hole)?.take().map(|(_, v)| v);
        self.len -= 1;
        let mask = self.mask();
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let Some(Some((k, _))) = self.slots.get(j) else {
                break; // empty slot terminates the probe chain
            };
            let home = self.home(*k);
            // Shift j back into the hole iff j's key may not be reached
            // from its home once the hole exists between them: i.e. the
            // hole lies cyclically within [home, j).
            let dist_home = j.wrapping_sub(home) & mask;
            let dist_hole = j.wrapping_sub(hole) & mask;
            if dist_home >= dist_hole {
                let moved = self.slots.get_mut(j).and_then(|s| s.take());
                if let Some(slot) = self.slots.get_mut(hole) {
                    *slot = moved;
                }
                hole = j;
            }
        }
        taken
    }

    /// Removes every entry, keeping the allocation.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
        self.len = 0;
    }

    /// Retains only entries for which `keep` returns `true`. Removal order
    /// is slot order (deterministic); the surviving layout is rebuilt, so
    /// probe chains stay canonical.
    pub fn retain(&mut self, mut keep: impl FnMut(u64, &mut V) -> bool) {
        let old = std::mem::take(&mut self.slots);
        let cap = old.len();
        self.len = 0;
        self.allocate(cap.max(Self::MIN_CAPACITY));
        for (key, mut value) in old.into_iter().flatten() {
            if keep(key, &mut value) {
                self.insert(key, value);
            }
        }
    }

    /// Iterates over `(key, &value)` in slot order — deterministic, but
    /// hash-shaped: fold only order-independent reductions over it.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref().map(|(k, v)| (*k, v)))
    }

    /// Iterates over values in slot order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.slots.iter().filter_map(|s| s.as_ref().map(|(_, v)| v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut m = FlatMap::new();
        assert_eq!(m.insert(10, "a"), None);
        assert_eq!(m.insert(10, "b"), Some("a"));
        assert_eq!(m.get(10), Some(&"b"));
        assert_eq!(m.remove(10), Some("b"));
        assert_eq!(m.remove(10), None);
        assert!(m.is_empty());
    }

    #[test]
    fn empty_map_lookups_do_not_allocate() {
        let m: FlatMap<u64> = FlatMap::new();
        assert_eq!(m.capacity(), 0);
        assert_eq!(m.get(5), None);
        assert!(!m.contains_key(5));
    }

    #[test]
    fn get_or_insert_with_behaves_like_entry() {
        let mut m: FlatMap<u64> = FlatMap::new();
        *m.get_or_insert_with(3, || 10) += 1;
        *m.get_or_insert_with(3, || 999) += 1;
        assert_eq!(m.get(3), Some(&12));
    }

    #[test]
    fn growth_keeps_every_entry() {
        let mut m = FlatMap::new();
        for k in 0..10_000u64 {
            m.insert(k * 7919, k);
        }
        assert_eq!(m.len(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(m.get(k * 7919), Some(&k), "key {k}");
        }
    }

    #[test]
    fn backward_shift_deletion_preserves_probe_chains() {
        // Interleaved insert/remove churn: every lookup must stay correct.
        let mut m = FlatMap::new();
        let mut reference = BTreeMap::new();
        let mut x = 0xDEADBEEFu64;
        for _ in 0..50_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = (x >> 33) % 512; // small key space -> heavy churn
            if x.is_multiple_of(3) {
                assert_eq!(m.remove(key), reference.remove(&key), "remove {key}");
            } else {
                assert_eq!(m.insert(key, x), reference.insert(key, x), "insert {key}");
            }
            assert_eq!(m.len(), reference.len());
        }
        for (&k, v) in &reference {
            assert_eq!(m.get(k), Some(v));
        }
    }

    #[test]
    fn iteration_matches_contents_and_is_deterministic() {
        let build = || {
            let mut m = FlatMap::new();
            for k in [9u64, 1, 300, 77, 12, 5000] {
                m.insert(k, k * 2);
            }
            m.remove(300);
            m
        };
        let a: Vec<_> = build().iter().map(|(k, &v)| (k, v)).collect();
        let b: Vec<_> = build().iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(a, b, "layout is a pure function of history");
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(
            sorted,
            vec![(1, 2), (9, 18), (12, 24), (77, 154), (5000, 10000)]
        );
    }

    #[test]
    fn retain_filters_and_rebuilds() {
        let mut m = FlatMap::new();
        for k in 0..100u64 {
            m.insert(k, k);
        }
        m.retain(|k, _| k % 2 == 0);
        assert_eq!(m.len(), 50);
        assert!(m.contains_key(42));
        assert!(!m.contains_key(43));
        // Still fully functional after the rebuild.
        m.insert(43, 1);
        assert_eq!(m.get(43), Some(&1));
    }

    #[test]
    fn clear_keeps_allocation() {
        let mut m = FlatMap::new();
        for k in 0..1000u64 {
            m.insert(k, ());
        }
        let cap = m.capacity();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.capacity(), cap);
        assert_eq!(m.get(3), None);
    }

    #[test]
    fn with_capacity_avoids_growth() {
        let mut m = FlatMap::with_capacity(100);
        let cap = m.capacity();
        for k in 0..100u64 {
            m.insert(k, ());
        }
        assert_eq!(m.capacity(), cap, "pre-sized map must not grow");
    }

    #[test]
    fn extreme_keys_are_fine() {
        let mut m = FlatMap::new();
        for k in [0u64, 1, u64::MAX, u64::MAX - 1, 1 << 63] {
            m.insert(k, k);
        }
        for k in [0u64, 1, u64::MAX, u64::MAX - 1, 1 << 63] {
            assert_eq!(m.get(k), Some(&k));
        }
    }
}
