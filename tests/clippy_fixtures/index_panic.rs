//! clippy fixture: `indexing_slicing` — one seeded violation, one escape.

pub fn hot(t: &[u64], i: usize) -> u64 {
    t[i] // seeded violation (line 4)
}

#[expect(clippy::indexing_slicing, reason = "the documented escape")]
pub fn escaped_hot(t: &[u64], i: usize) -> u64 {
    t[i]
}
