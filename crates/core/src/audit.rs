//! Ghost-state audits: debug-gated checkers that verify the structural
//! invariants the paper's security argument rests on (§5.2, §6).
//!
//! Each audit is a *pure observer*: it walks a structure's state and
//! returns `Err(AuditError)` on the first inconsistency, without mutating
//! anything. Two audits are provided:
//!
//! * [`RitAudit`] — the Row Indirection Table must always encode a sparse
//!   *permutation*: forward and reverse maps the same size, no stored
//!   identities, no physical row claimed twice, and each direction the
//!   exact inverse of the other (§4.3: "the RIT stores tuples ⟨X,Y⟩" —
//!   a tuple is one displaced row *and* its inverse).
//! * [`CatAudit`] — a Collision Avoidance Table's cached length must match
//!   its occupied slots, no tag may be resident twice, and every resident
//!   tag must sit in one of the two sets its keyed hashes select (§6.1) —
//!   a misplaced tag would be unfindable and silently leak a slot. Where a
//!   set-index memo covers a resident tag, its word must hold those sets.
//!
//! In debug builds the mutating operations of [`RowIndirectionTable`]
//! invoke their audit automatically (sampled, so property tests stay
//! fast); release builds pay nothing. Tests can also call the
//! audits directly — see `crates/core/tests/audits.rs`, which includes
//! negative tests driving each audit over deliberately corrupted state.

use std::fmt;

use crate::cat::Cat;
use crate::rit::RowIndirectionTable;

/// The first inconsistency an audit found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditError {
    /// Forward and reverse RIT maps hold different numbers of entries.
    RitSizeMismatch {
        /// Entries in the forward (logical → physical) map.
        forward: usize,
        /// Entries in the reverse (physical → logical) map.
        reverse: usize,
    },
    /// A logical row is mapped to itself; identities must not be stored.
    RitIdentityMapping {
        /// The offending row.
        row: u64,
    },
    /// Two logical rows claim the same physical location — the mapping is
    /// not injective, so one row's contents would be unreachable.
    RitDuplicatePhysical {
        /// The physical row claimed twice.
        physical: u64,
    },
    /// A forward entry has no matching reverse entry (or vice versa).
    RitInverseBroken {
        /// The displaced logical row.
        logical: u64,
        /// The physical location the forward map claims for it.
        physical: u64,
    },
    /// More rows are displaced than the configured tuple budget.
    RitOverCapacity {
        /// Displaced rows currently recorded.
        in_use: usize,
        /// The configured tuple capacity.
        capacity: usize,
    },
    /// A CAT's cached `len` disagrees with its occupied slot count.
    CatLenMismatch {
        /// The cached length.
        len: usize,
        /// Occupied slots actually found.
        occupied: usize,
    },
    /// The same tag is resident in more than one slot.
    CatDuplicateTag {
        /// The duplicated tag.
        tag: u64,
    },
    /// A resident tag sits in a set its keyed hash does not select, so
    /// lookups can never find it.
    CatMisplacedTag {
        /// The misplaced tag.
        tag: u64,
        /// Table the tag was found in.
        table: usize,
        /// Set the tag was found in.
        set: usize,
        /// Set the table's hash actually selects for this tag.
        expected_set: usize,
    },
    /// The set-index memo's word for a resident tag is unfilled or does
    /// not decode to the tag's keyed-hash sets: lookups would read an
    /// unfilled word as "never installed" and miss the live entry.
    CatMemoIncoherent {
        /// The tag whose memo word is wrong.
        tag: u64,
    },
    /// A resolve-TLB line caches a value the forward CAT contradicts —
    /// an invalidation was missed.
    RitTlbIncoherent {
        /// The cached logical row.
        key: u64,
        /// The physical row the TLB serves.
        cached: u64,
        /// What the authoritative CAT lookup returns.
        actual: u64,
    },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::RitSizeMismatch { forward, reverse } => write!(
                f,
                "RIT forward map has {forward} entries but reverse has {reverse}"
            ),
            AuditError::RitIdentityMapping { row } => {
                write!(f, "RIT stores identity mapping for row {row}")
            }
            AuditError::RitDuplicatePhysical { physical } => {
                write!(f, "RIT maps two logical rows to physical row {physical}")
            }
            AuditError::RitInverseBroken { logical, physical } => write!(
                f,
                "RIT forward entry {logical} -> {physical} has no consistent inverse"
            ),
            AuditError::RitOverCapacity { in_use, capacity } => {
                write!(
                    f,
                    "RIT holds {in_use} tuples, over its budget of {capacity}"
                )
            }
            AuditError::CatLenMismatch { len, occupied } => {
                write!(f, "CAT caches len {len} but {occupied} slots are occupied")
            }
            AuditError::CatDuplicateTag { tag } => {
                write!(f, "CAT holds tag {tag:#x} in more than one slot")
            }
            AuditError::CatMisplacedTag {
                tag,
                table,
                set,
                expected_set,
            } => write!(
                f,
                "CAT tag {tag:#x} resides in table {table} set {set}, but hashes to set \
                 {expected_set}"
            ),
            AuditError::CatMemoIncoherent { tag } => {
                write!(
                    f,
                    "CAT set-index memo disagrees with the keyed hashes for tag {tag:#x}"
                )
            }
            AuditError::RitTlbIncoherent {
                key,
                cached,
                actual,
            } => write!(
                f,
                "RIT resolve-TLB caches {key} -> {cached}, but the CATs say {actual}"
            ),
        }
    }
}

impl std::error::Error for AuditError {}

/// Verifies that a [`RowIndirectionTable`] encodes a sparse permutation.
pub struct RitAudit;

impl RitAudit {
    /// Checks every RIT invariant; returns the first violation found.
    ///
    /// # Errors
    ///
    /// Any `Rit*` variant of [`AuditError`], or a `Cat*` variant from
    /// auditing the two underlying CAT structures.
    pub fn verify(rit: &RowIndirectionTable) -> Result<(), AuditError> {
        CatAudit::verify(rit.forward_cat())?;
        CatAudit::verify(rit.reverse_cat())?;

        let forward = rit.forward_cat().len();
        let reverse = rit.reverse_cat().len();
        if forward != reverse {
            return Err(AuditError::RitSizeMismatch { forward, reverse });
        }
        if forward > rit.tuple_capacity() {
            return Err(AuditError::RitOverCapacity {
                in_use: forward,
                capacity: rit.tuple_capacity(),
            });
        }

        let mut seen_physical = std::collections::BTreeSet::new();
        for (logical, physical) in rit.iter() {
            if logical == physical {
                return Err(AuditError::RitIdentityMapping { row: logical });
            }
            if !seen_physical.insert(physical) {
                return Err(AuditError::RitDuplicatePhysical { physical });
            }
            if rit.reverse_cat().get(physical) != Some(&logical) {
                return Err(AuditError::RitInverseBroken { logical, physical });
            }
        }
        // Sizes match and every forward entry has a distinct reverse
        // partner, so the reverse map cannot hold dangling extras — but a
        // reverse entry could still point at a logical row whose forward
        // entry names a *different* physical location.
        for (physical, &logical) in rit.reverse_cat().iter() {
            if rit.resolve_uncached(logical) != physical {
                return Err(AuditError::RitInverseBroken { logical, physical });
            }
        }
        // Resolve-TLB coherence: every cached line must agree with the
        // authoritative (uncached) lookup — a disagreement means a mutation
        // skipped its invalidation.
        for (key, cached) in rit.tlb_entries() {
            let actual = rit.resolve_uncached(key);
            if cached != actual {
                return Err(AuditError::RitTlbIncoherent {
                    key,
                    cached,
                    actual,
                });
            }
        }
        Ok(())
    }
}

/// Verifies a [`Cat`]'s occupancy accounting and hash placement.
pub struct CatAudit;

impl CatAudit {
    /// Checks every CAT invariant; returns the first violation found.
    ///
    /// # Errors
    ///
    /// Any `Cat*` variant of [`AuditError`].
    pub fn verify<V: Copy + Default>(cat: &Cat<V>) -> Result<(), AuditError> {
        let sets = cat.config().sets;
        let mut occupied = 0usize;
        let mut seen_tags = std::collections::BTreeSet::new();
        for table in 0..2 {
            for set in 0..sets {
                for (_, tag, _) in cat.set_iter(table, set) {
                    occupied += 1;
                    if !seen_tags.insert(tag) {
                        return Err(AuditError::CatDuplicateTag { tag });
                    }
                    if !cat.memo_agrees(tag) {
                        return Err(AuditError::CatMemoIncoherent { tag });
                    }
                    let (s0, s1) = cat.hashed_sets(tag);
                    let expected_set = if table == 0 { s0 } else { s1 };
                    if expected_set != set {
                        return Err(AuditError::CatMisplacedTag {
                            tag,
                            table,
                            set,
                            expected_set,
                        });
                    }
                }
            }
        }
        if occupied != cat.len() {
            return Err(AuditError::CatLenMismatch {
                len: cat.len(),
                occupied,
            });
        }
        Ok(())
    }
}
