//! clippy fixture: `cast_possible_truncation` — one seeded violation, one escape.

pub fn narrows(x: u64) -> u32 {
    x as u32 // seeded violation (line 4)
}

#[expect(clippy::cast_possible_truncation, reason = "the documented escape")]
pub fn escaped_narrows(x: u64) -> u32 {
    x as u32
}
