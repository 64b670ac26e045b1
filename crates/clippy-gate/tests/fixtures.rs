//! Each file under `tests/clippy_fixtures/` seeds one violation of a gate
//! lint and escapes a second with `#[expect]`. Clippy must report exactly the
//! seeded one: an escape that stopped firing would add an unfulfilled
//! expectation, and a lint that stopped seeing the seed would report nothing.

use rrs_clippy_gate::{crate_dirs, denied_lints, lint_file, workspace_root, REASON_LINT, RULES};

/// (rule, fixture file, the lint it seeds, seeded line).
const FIXTURES: &[(&str, &str, &str, u32)] = &[
    ("panic-site", "panic_site.rs", "clippy::unwrap_used", 4),
    (
        "index-panic",
        "index_panic.rs",
        "clippy::indexing_slicing",
        4,
    ),
    (
        "narrow-cast",
        "narrow_cast.rs",
        "clippy::cast_possible_truncation",
        4,
    ),
    (
        "unordered-iter",
        "unordered_iter.rs",
        "clippy::disallowed_types",
        3,
    ),
    ("wallclock", "wallclock.rs", "clippy::disallowed_types", 4),
];

#[test]
fn every_fixture_reports_exactly_its_seeded_violation() {
    let dir = workspace_root().join("tests/clippy_fixtures");
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    let mut want_files: Vec<&str> = FIXTURES.iter().map(|f| f.1).collect();
    want_files.sort();
    assert_eq!(files, want_files);
    for &(rule, file, lint, line) in FIXTURES {
        let got = lint_file(&dir.join(file), &[lint.to_string()], false);
        assert_eq!(got, [(lint.to_string(), line)], "fixture for `{rule}`");
    }
}

#[test]
fn every_rule_has_a_fixture() {
    for &(rule, lints) in RULES {
        assert!(
            FIXTURES.iter().any(|f| f.0 == rule && lints.contains(&f.2)),
            "rule `{rule}` has no fixture"
        );
    }
    // And every lint a crate denies serves a rule (or keeps escapes honest).
    for dir in crate_dirs() {
        for lint in denied_lints(&dir) {
            let known = lint == REASON_LINT || RULES.iter().any(|r| r.1.contains(&lint.as_str()));
            assert!(known, "crates/{dir} denies `{lint}`, which no rule lists");
        }
    }
}
