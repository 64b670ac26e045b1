//! Token-level cases. Clippy works on the compiler's own tokens and spans;
//! these pin that nothing in a comment or literal is reported and that each
//! site is reported at its own line.

#[cfg(test)]
mod tests {
    use crate::{expect, lint_lines};

    #[test]
    fn comments_and_strings_hide_identifiers() {
        let src = [
            "// HashMap in a comment",
            "/* Instant in /* nested */ block */",
            "pub const S: &str = \"SystemTime inside a string\";",
            "pub const R: &str = r#\"v.unwrap() in a raw string\"#;",
            "pub fn real(v: &[u8], i: usize) -> u8 { v[i] }",
        ];
        let want = expect(&[("clippy::indexing_slicing", 5)]);
        assert_eq!(lint_lines("core", &src, false), want);
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let src = [
            "pub fn f<'a>(x: &'a [char], y: &[char], i: usize) -> &'a [char] {",
            "    if x[i] == '[' && y.contains(&'\\'') { x } else { &[] }",
            "}",
        ];
        let want = expect(&[("clippy::indexing_slicing", 2)]);
        assert_eq!(lint_lines("core", &src, false), want);
    }

    #[test]
    fn line_numbers_are_tracked() {
        let src = [
            "pub fn a(v: Option<u8>) -> u8 { v.unwrap() }",
            "pub fn b(v: Option<u8>) -> u8 { v.expect(\"b\") }",
            "",
            "pub fn c(v: &[u8], i: usize) -> u8 { v[i] }",
        ];
        let want = expect(&[
            ("clippy::unwrap_used", 1),
            ("clippy::expect_used", 2),
            ("clippy::indexing_slicing", 4),
        ]);
        assert_eq!(lint_lines("core", &src, false), want);
    }

    #[test]
    fn integer_vs_float_literals() {
        // A constant in-bounds index into an array is exempt; a slice has
        // no known length. A float-to-integer cast truncates.
        let src = [
            "pub fn f(t: [u8; 32], s: &[u8]) -> u8 { t[0x1F] ^ s[0x1F] }",
            "pub fn g(x: f64) -> u64 { x as u64 }",
            "pub fn h(n: usize) -> u64 { n as u64 }",
        ];
        let want = expect(&[
            ("clippy::indexing_slicing", 1),
            ("clippy::cast_possible_truncation", 2),
        ]);
        assert_eq!(lint_lines("core", &src, false), want);
    }

    #[test]
    fn escaped_char_literal_with_quote() {
        let src = [
            "pub const Q: char = '\\'';",
            "pub fn after(v: Option<u8>) -> u8 { v.unwrap() }",
        ];
        let want = expect(&[("clippy::unwrap_used", 2)]);
        assert_eq!(lint_lines("core", &src, false), want);
    }
}
