//! clippy fixture: `unwrap_used` — one seeded violation, one escape.

pub fn hot(v: Option<u64>) -> u64 {
    v.unwrap() // seeded violation (line 4)
}

#[expect(clippy::unwrap_used, reason = "the documented escape")]
pub fn escaped_hot(v: Option<u64>) -> u64 {
    v.unwrap()
}
