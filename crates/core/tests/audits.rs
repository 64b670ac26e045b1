//! Ghost-state audit tests: positive (audits accept states reachable
//! through the public API) and negative (audits reject deliberately
//! corrupted structures, and the debug-build wiring trips on them).

use rrs_core::audit::{AuditError, CatAudit, RitAudit};
use rrs_core::cat::{Cat, CatConfig};
use rrs_core::rit::RowIndirectionTable;

fn small_cat() -> Cat<u32> {
    Cat::new(CatConfig {
        sets: 8,
        demand_ways: 2,
        extra_ways: 2,
        hash_seed: 0xA0D17,
    })
}

#[test]
fn audits_accept_freshly_built_structures() {
    RitAudit::verify(&RowIndirectionTable::new(16, 0x5EED)).unwrap();
    CatAudit::verify(&small_cat()).unwrap();
}

#[test]
fn rit_audit_accepts_any_reachable_state() {
    let mut rit = RowIndirectionTable::new(32, 0xFACE);
    let mut x = 7u64;
    for _ in 0..300 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let (a, b) = (x % 50, (x >> 32) % 50);
        if a != b && rit.tuples_in_use() + 2 <= rit.tuple_capacity() {
            let _ = rit.swap(a, b);
        }
        match x % 5 {
            0 => {
                let _ = rit.evict_one(x);
            }
            1 => rit.end_epoch(),
            2 if rit.is_displaced(a) => {
                let _ = rit.unswap(a);
            }
            _ => {}
        }
        RitAudit::verify(&rit).unwrap();
    }
}

#[test]
fn cat_audit_accepts_any_reachable_state() {
    let mut cat = small_cat();
    let mut x = 99u64;
    for _ in 0..200 {
        x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        let tag = x % 40;
        if cat.contains(tag) {
            cat.remove(tag);
        } else {
            let _ = cat.insert(tag, (x >> 48) as u32);
        }
        CatAudit::verify(&cat).unwrap();
    }
}

#[test]
fn corrupted_rit_fails_the_audit() {
    let mut rit = RowIndirectionTable::new(16, 0xBAD);
    rit.swap(1, 2).unwrap();
    RitAudit::verify(&rit).unwrap();
    // A forward entry with no reverse partner breaks the permutation.
    rit.corrupt_forward_for_test(7, 9);
    let err = RitAudit::verify(&rit).expect_err("corruption must be caught");
    assert_eq!(
        err,
        AuditError::RitSizeMismatch {
            forward: 3,
            reverse: 2
        }
    );
    assert!(err.to_string().contains("forward map"));
}

#[test]
fn corrupted_cat_len_fails_the_audit() {
    let mut cat = small_cat();
    cat.insert(42, 7).unwrap();
    CatAudit::verify(&cat).unwrap();
    cat.corrupt_len_for_test();
    let err = CatAudit::verify(&cat).expect_err("corruption must be caught");
    assert_eq!(
        err,
        AuditError::CatLenMismatch {
            len: 2,
            occupied: 1
        }
    );
}

#[test]
fn misplaced_cat_tag_fails_the_audit() {
    let mut cat = small_cat();
    cat.insert(42, 7).unwrap();
    let (table, set, _) = cat.locate(42).unwrap();
    // A tag whose hash selects a *different* set for the slot's table:
    // after the in-place rewrite the entry is unfindable by lookup.
    let bad = (0..10_000u64)
        .find(|&b| cat.set_of(table, b) != set)
        .expect("some tag must hash elsewhere");
    assert!(cat.corrupt_first_tag_for_test(bad));
    let err = CatAudit::verify(&cat).expect_err("corruption must be caught");
    assert!(
        matches!(err, AuditError::CatMisplacedTag { tag, .. } if tag == bad),
        "unexpected audit error: {err}"
    );
}

#[test]
fn stale_cat_index_fails_the_audit() {
    let mut cat = small_cat();
    cat.insert(42, 7).unwrap();
    CatAudit::verify(&cat).unwrap();
    // Drop the tag from the flat index while its slot stays resident: the
    // hot-path lookup now misses an entry the scan still finds.
    assert!(cat.corrupt_index_for_test(42));
    let err = CatAudit::verify(&cat).expect_err("corruption must be caught");
    assert_eq!(err, AuditError::CatIndexIncoherent { tag: 42 });
    assert!(err.to_string().contains("flat index"));
}

#[test]
fn stale_resolve_tlb_fails_the_audit() {
    let mut rit = RowIndirectionTable::new(16, 0xCAFE);
    rit.swap(1, 2).unwrap();
    RitAudit::verify(&rit).unwrap();
    // Cache a mapping the CATs contradict: a missed invalidation.
    rit.corrupt_tlb_for_test(1, 7);
    let err = RitAudit::verify(&rit).expect_err("corruption must be caught");
    assert_eq!(
        err,
        AuditError::RitTlbIncoherent {
            key: 1,
            cached: 7,
            actual: 2
        }
    );
    assert!(err.to_string().contains("resolve-TLB"));
}

/// The debug-build wiring itself must trip: a corrupted RIT panics at the
/// next epoch boundary (where the audit always runs).
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "ghost-state audit failed")]
fn corrupted_rit_trips_debug_audit_at_epoch_end() {
    let mut rit = RowIndirectionTable::new(16, 0x1);
    rit.corrupt_forward_for_test(5, 9);
    rit.end_epoch();
}
