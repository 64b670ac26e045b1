//! The gate's rules: which sources each lint reports, and in which crates.

#[cfg(test)]
mod tests {
    use crate::{crate_dirs, denied_lints, expect, lint_lines, workspace_root};

    /// Files under `crates/*/src` holding an `#[expect]` escape of `lint`.
    fn escapes_of(lint: &str) -> Vec<String> {
        fn walk(dir: &std::path::Path, lint: &str, out: &mut Vec<String>) {
            for entry in std::fs::read_dir(dir).unwrap().map(Result::unwrap) {
                let path = entry.path();
                if path.is_dir() {
                    walk(&path, lint, out);
                    continue;
                }
                let text = std::fs::read_to_string(&path).unwrap();
                let text = text.replace("#![expect(", "#[expect(");
                let escaped = text
                    .split("#[expect(")
                    .skip(1)
                    .any(|attr| attr.split(")]").next().is_some_and(|a| a.contains(lint)));
                if escaped {
                    let root = workspace_root().join("crates");
                    let rel = path.strip_prefix(root).unwrap();
                    out.push(rel.to_string_lossy().into_owned());
                }
            }
        }
        let mut out = Vec::new();
        for dir in crate_dirs() {
            walk(
                &workspace_root().join("crates").join(dir).join("src"),
                lint,
                &mut out,
            );
        }
        out.sort();
        out
    }

    #[test]
    fn wallclock_scoped_to_sim_crates() {
        let src = ["pub use std::time::{Instant, SystemTime};"];
        let want = expect(&[("clippy::disallowed_types", 1); 2]);
        assert_eq!(lint_lines("core", &src, false), want);
        assert_eq!(lint_lines("bench", &src, false), want);
        // The ban covers every crate; the only wall-clock sites are the two
        // timing sites outside the simulation, each with its escape.
        let sites = ["bench/src/harness.rs", "rrs/src/campaign.rs"];
        assert_eq!(escapes_of("clippy::disallowed_types"), sites);
    }

    #[test]
    fn thread_current_detected() {
        let src = ["pub fn id() -> std::thread::ThreadId { std::thread::current().id() }"];
        let want = expect(&[("clippy::disallowed_methods", 1)]);
        assert_eq!(lint_lines("sim", &src, false), want);
        assert!(escapes_of("clippy::disallowed_methods").is_empty());
    }

    #[test]
    fn unwrap_or_is_not_a_panic_site() {
        let src = [
            "pub fn f(x: Option<u8>, g: fn() -> u8) -> u8 {",
            "    x.unwrap_or(0) ^ x.unwrap_or_else(g) ^ x.unwrap_or_default()",
            "}",
            "pub fn p(x: Option<u8>) -> u8 { x.unwrap() }",
            "pub fn e(r: Result<u8, u8>) -> u8 { r.expect_err(\"no\") }",
        ];
        let want = expect(&[("clippy::unwrap_used", 4), ("clippy::expect_used", 5)]);
        assert_eq!(lint_lines("core", &src, false), want);
    }

    #[test]
    fn literal_indexing_is_exempt() {
        let src = [
            "pub fn f(t: [u8; 4]) -> u8 { t[0] ^ t[1] }",
            "pub fn g(t: [u8; 4], i: usize) -> u8 { t[i] }",
        ];
        let want = expect(&[("clippy::indexing_slicing", 2)]);
        assert_eq!(lint_lines("core", &src, false), want);
    }

    #[test]
    fn array_literals_and_patterns_are_not_indexing() {
        let src = [
            "pub fn f(pair: [u8; 2], n: usize) -> usize {",
            "    let [a, b] = pair;",
            "    let v = [a, b];",
            "    let mut s = 0;",
            "    for x in [3, 4] {",
            "        s += x;",
            "    }",
            "    s + v.len() + vec![0u8; n].capacity()",
            "}",
        ];
        assert!(lint_lines("core", &src, false).is_empty());
    }

    #[test]
    fn narrow_casts_only_in_core() {
        let src = ["pub fn f(y: u64, z: u32) -> (u32, i32) { (y as u32, z as i32) }"];
        let want = expect(&[
            ("clippy::cast_possible_truncation", 1),
            ("clippy::cast_possible_wrap", 1),
        ]);
        assert_eq!(lint_lines("core", &src, false), want);
        assert!(lint_lines("dram", &src, false).is_empty());
        let widening = ["pub fn g(y: u32, w: u32) -> (u64, f64) { (y as u64, w as f64) }"];
        assert!(lint_lines("core", &widening, false).is_empty());
        for dir in crate_dirs() {
            let denies = denied_lints(&dir).contains(&"clippy::cast_possible_truncation".into());
            assert_eq!(denies, dir == "core", "crates/{dir}");
        }
    }

    #[test]
    fn hash_collections_flagged_everywhere() {
        let src = ["pub use std::collections::{HashMap, HashSet};"];
        let want = expect(&[("clippy::disallowed_types", 1); 2]);
        for dir in ["cli", "core", "bench"] {
            assert_eq!(lint_lines(dir, &src, false), want, "crates/{dir}");
        }
    }
}
