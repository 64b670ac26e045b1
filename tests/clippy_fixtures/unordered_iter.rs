//! clippy fixture: `disallowed_types` (`HashMap`) — one seeded violation, one escape.

pub use std::collections::HashMap; // seeded violation (line 3)

#[expect(clippy::disallowed_types, reason = "the documented escape")]
pub use std::collections::HashSet;
