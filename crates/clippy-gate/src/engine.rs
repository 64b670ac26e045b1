//! Escapes and test-code scope. An escape is `#[expect(clippy::…, reason =
//! "…")]`, and the compiler, not a token scan, decides what is test code.

#[cfg(test)]
mod tests {
    use crate::{expect, lint_lines};

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = [
            "pub fn hot() {}",
            "#[cfg(test)]",
            "mod tests {",
            "    use std::collections::HashMap;",
            "    pub fn t(v: &[Option<u8>], i: usize) -> u8 { v[i].unwrap() }",
            "    pub fn u(r: Result<u8, ()>) -> u8 { r.expect(\"t\") }",
            "}",
        ];
        assert!(lint_lines("core", &src, false).is_empty());
        // Test code is exempt from the panic-safety lints only: a hash
        // collection there needs its own escape.
        let want = expect(&[("clippy::disallowed_types", 4)]);
        assert_eq!(lint_lines("core", &src, true), want);
    }

    #[test]
    fn code_after_a_test_module_is_still_linted() {
        let src = [
            "#[cfg(test)]",
            "mod tests { pub fn t(a: Option<u8>) -> u8 { a.unwrap() } }",
            "pub fn hot(b: Option<u8>) -> u8 { b.unwrap() }",
        ];
        // Clippy also reports the item placed after the test module.
        let want = expect(&[
            ("clippy::items_after_test_module", 2),
            ("clippy::unwrap_used", 3),
        ]);
        assert_eq!(lint_lines("core", &src, true), want);
    }

    #[test]
    fn allow_annotation_with_reason_suppresses() {
        let on_item = [
            "#[expect(clippy::unwrap_used, reason = \"seeded above\")]",
            "pub fn f(v: Option<u8>) -> u8 { v.unwrap() }",
        ];
        assert!(lint_lines("core", &on_item, false).is_empty());
        let on_statement = [
            "pub fn f(v: Option<u8>) -> u8 {",
            "    #[expect(clippy::unwrap_used, reason = \"seeded above\")]",
            "    let x = v.unwrap();",
            "    x.wrapping_add(1)",
            "}",
        ];
        assert!(lint_lines("core", &on_statement, false).is_empty());
    }

    #[test]
    fn allow_annotation_without_reason_is_inert() {
        // An escape without a reason fails the gate itself.
        let src = [
            "#[expect(clippy::unwrap_used)]",
            "pub fn f(v: Option<u8>) -> u8 { v.unwrap() }",
        ];
        let want = expect(&[("clippy::allow_attributes_without_reason", 1)]);
        assert_eq!(lint_lines("core", &src, false), want);
    }

    #[test]
    fn allow_annotation_is_rule_specific() {
        // The wrong lint's escape suppresses nothing and is itself reported
        // as an unfulfilled expectation, so it cannot go stale.
        let src = [
            "#[expect(clippy::indexing_slicing, reason = \"wrong lint\")]",
            "pub fn f(v: Option<u8>) -> u8 { v.unwrap() }",
        ];
        let want = expect(&[
            ("unfulfilled_lint_expectations", 1),
            ("clippy::unwrap_used", 2),
        ]);
        assert_eq!(lint_lines("core", &src, false), want);
    }

    #[test]
    fn const_fn_bodies_are_exempt_from_index_panic_only() {
        // A const-evaluated index fails the build instead of panicking.
        let src = [
            "pub const fn build(t: [u8; 16], i: usize) -> u8 { t[i] }",
            "pub fn hot(t: [u8; 16], i: usize) -> u8 { t[i] }",
            "pub const fn cast(x: u64) -> u32 { x as u32 }",
        ];
        let want = expect(&[
            ("clippy::indexing_slicing", 2),
            ("clippy::cast_possible_truncation", 3),
        ]);
        assert_eq!(lint_lines("core", &src, false), want);
    }

    #[test]
    fn cfg_gated_use_statement_is_skipped() {
        let src = [
            "#[cfg(test)]",
            "use std::collections::HashMap;",
            "pub fn hot(q: Option<u8>) -> u8 { q.unwrap() }",
        ];
        let hot = expect(&[("clippy::unwrap_used", 3)]);
        assert_eq!(lint_lines("core", &src, false), hot);
        // The test build compiles the `use` and sees the hash map.
        let test = expect(&[("clippy::disallowed_types", 2), ("clippy::unwrap_used", 3)]);
        assert_eq!(lint_lines("core", &src, true), test);
    }
}
