#![warn(missing_docs)]

//! # rrs-clippy-gate — tests of the determinism and panic-safety gate
//!
//! The gate is clippy configuration, not code: `clippy.toml` at the
//! workspace root (disallowed types and methods, test-code exemptions) and
//! the `[lints.clippy]` table of each hot crate. This crate runs
//! `clippy-driver` over small sources under that configuration and checks
//! what it reports, so a change to either file that loosens the gate fails
//! `cargo test`. `tests/fixtures.rs` checks `tests/clippy_fixtures/` the same
//! way. `clippy-driver` must be on `PATH` (rustup's `clippy` component).

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

use rrs_json::Json;

mod engine;
mod lexer;
mod rules;

/// The gate's rules and the clippy lints that enforce each.
pub const RULES: &[(&str, &[&str])] = &[
    (
        "wallclock",
        &["clippy::disallowed_types", "clippy::disallowed_methods"],
    ),
    ("unordered-iter", &["clippy::disallowed_types"]),
    (
        "panic-site",
        &["clippy::unwrap_used", "clippy::expect_used"],
    ),
    ("index-panic", &["clippy::indexing_slicing"]),
    (
        "narrow-cast",
        &[
            "clippy::cast_possible_truncation",
            "clippy::cast_possible_wrap",
        ],
    ),
];

/// The lint that makes `reason = "…"` mandatory on every escape.
pub const REASON_LINT: &str = "clippy::allow_attributes_without_reason";

/// One reported site: the lint's name (e.g. `clippy::unwrap_used`) and its
/// 1-based line.
pub type Diagnostic = (String, u32);

/// The workspace root, which holds `clippy.toml`.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The directories under `crates/`, sorted.
pub fn crate_dirs() -> Vec<String> {
    let mut dirs: Vec<String> = std::fs::read_dir(workspace_root().join("crates"))
        .expect("crates/ is readable")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().join("Cargo.toml").is_file())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    dirs.sort();
    dirs
}

/// The lints that `crates/<crate_dir>/Cargo.toml` denies in its
/// `[lints.clippy]` table (empty when it has none).
pub fn denied_lints(crate_dir: &str) -> Vec<String> {
    let path = workspace_root()
        .join("crates")
        .join(crate_dir)
        .join("Cargo.toml");
    let manifest = std::fs::read_to_string(&path).expect("crate manifest is readable");
    let mut in_table = false;
    let mut out = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_table = line == "[lints.clippy]";
        } else if let (true, Some((name, "\"deny\""))) =
            (in_table, line.split_once('=').map(|(n, l)| (n, l.trim())))
        {
            out.push(format!("clippy::{}", name.trim()));
        }
    }
    out
}

/// Runs clippy over the lines of `src` as if they were a file of
/// `crates/<crate_dir>`: under the workspace `clippy.toml`, with that
/// crate's denied lints and clippy's default ones. With `test` it checks the
/// test build, `#[cfg(test)]` code included, as `--all-targets` does.
pub fn lint_lines(crate_dir: &str, src: &[&str], test: bool) -> Vec<Diagnostic> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rrs-clippy-gate-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("snippet.rs");
    std::fs::write(&file, src.join("\n")).expect("snippet written");
    let out = lint_file(&file, &denied_lints(crate_dir), test);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Runs `clippy-driver` on one library file with the workspace
/// `clippy.toml` and `-D` for each of `deny`, and returns every diagnostic
/// that names a lint, ordered by line. Rustc's `unused` lints are off, so a
/// snippet need not use everything it declares.
pub fn lint_file(file: &Path, deny: &[String], test: bool) -> Vec<Diagnostic> {
    let out_dir = file.with_extension("out");
    let mut cmd = Command::new("clippy-driver");
    cmd.args([
        "--edition",
        "2021",
        "--crate-type",
        "lib",
        "--emit=metadata",
    ])
    .args(["--error-format=json", "-A", "unused", "--out-dir"])
    .arg(&out_dir)
    .env("CLIPPY_CONF_DIR", workspace_root());
    for lint in deny {
        cmd.args(["-D", lint]);
    }
    if test {
        cmd.arg("--test");
    }
    let run = cmd
        .arg(file)
        .output()
        .expect("clippy-driver must be on PATH (rustup component `clippy`)");
    let _ = std::fs::remove_dir_all(&out_dir);
    let stderr = String::from_utf8_lossy(&run.stderr);
    let mut out: Vec<Diagnostic> = stderr
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| Json::parse(l).expect("clippy-driver emits JSON diagnostics"))
        .filter_map(|d| {
            let code = d.get("code")?.get("code")?.as_str()?.to_string();
            let span = d.get("spans")?.as_array()?.first()?;
            Some((code, span.get("line_start")?.as_u64()? as u32))
        })
        .collect();
    out.sort_by(|a, b| (a.1, &a.0).cmp(&(b.1, &b.0)));
    out
}

/// Builds the expected diagnostics of a test from `(lint, line)` pairs.
#[cfg(test)]
fn expect(sites: &[(&str, u32)]) -> Vec<Diagnostic> {
    sites.iter().map(|&(l, n)| (l.to_string(), n)).collect()
}
