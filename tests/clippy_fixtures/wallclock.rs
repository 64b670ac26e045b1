//! clippy fixture: `disallowed_types` (`Instant`) — one seeded violation, one escape.

pub fn wall_start() {
    let _t = std::time::Instant::now(); // seeded violation (line 4)
}

#[expect(clippy::disallowed_types, reason = "the documented escape")]
pub fn escaped_wall_start() {
    let _t = std::time::Instant::now();
}
