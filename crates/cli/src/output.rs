//! Shared output-path conventions for everything the CLI writes.
//!
//! One rule, applied everywhere: JSON-lines event traces end in
//! `.jsonl`, single-object JSON documents (summaries, forensics reports,
//! Perfetto exports) end in `.json`. A user-given `--out` path with the
//! wrong (or no) extension is corrected — with a note on stderr — instead
//! of silently scattering mislabelled files, and parent directories are
//! created on write.

use std::path::{Path, PathBuf};

use crate::CliError;

/// What kind of artifact a path will hold (decides the extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputKind {
    /// A JSON-lines event trace (`.jsonl`).
    TraceJsonl,
    /// A single JSON document (`.json`): summary, report, Perfetto export.
    Json,
}

impl OutputKind {
    fn extension(self) -> &'static str {
        match self {
            OutputKind::TraceJsonl => "jsonl",
            OutputKind::Json => "json",
        }
    }
}

/// Resolves a user-given output path to the conventional extension,
/// noting the correction on stderr when one was needed.
pub fn resolve(raw: &str, kind: OutputKind) -> PathBuf {
    let path = PathBuf::from(raw);
    let want = kind.extension();
    let current = path.extension().and_then(|e| e.to_str());
    // ".trace.jsonl" style double extensions resolve to "jsonl" here, so
    // only a genuinely different suffix is rewritten.
    if current == Some(want) {
        return path;
    }
    let fixed = path.with_extension(want);
    eprintln!(
        "note: writing {} (trace outputs use .jsonl, JSON documents .json)",
        fixed.display()
    );
    fixed
}

/// Writes `contents` to `path`, creating parent directories as needed.
///
/// # Errors
///
/// Returns a [`CliError`] naming the path on any I/O failure.
pub fn write(path: &Path, contents: &str) -> Result<(), CliError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| CliError::from(format!("creating {}: {e}", parent.display())))?;
        }
    }
    std::fs::write(path, contents)
        .map_err(|e| CliError::from(format!("writing {}: {e}", path.display())))
}

/// [`resolve`] + [`write()`] in one step; returns the path actually written.
pub fn write_as(raw: &str, kind: OutputKind, contents: &str) -> Result<PathBuf, CliError> {
    let path = resolve(raw, kind);
    write(&path, contents)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matching_extensions_pass_through() {
        assert_eq!(
            resolve("a/b/trace.jsonl", OutputKind::TraceJsonl),
            PathBuf::from("a/b/trace.jsonl")
        );
        assert_eq!(
            resolve("rep.json", OutputKind::Json),
            PathBuf::from("rep.json")
        );
        assert_eq!(
            resolve("cell.trace.jsonl", OutputKind::TraceJsonl),
            PathBuf::from("cell.trace.jsonl")
        );
    }

    #[test]
    fn wrong_or_missing_extensions_are_corrected() {
        assert_eq!(
            resolve("trace.json", OutputKind::TraceJsonl),
            PathBuf::from("trace.jsonl")
        );
        assert_eq!(
            resolve("report.jsonl", OutputKind::Json),
            PathBuf::from("report.json")
        );
        assert_eq!(
            resolve("report", OutputKind::Json),
            PathBuf::from("report.json")
        );
        assert_eq!(
            resolve("out.txt", OutputKind::Json),
            PathBuf::from("out.json")
        );
    }

    #[test]
    fn write_creates_parent_directories() {
        let dir = std::env::temp_dir().join("rrs_cli_output_helper");
        let _ = std::fs::remove_dir_all(&dir);
        let raw = dir.join("deep/nest/report.txt");
        let written = write_as(raw.to_str().unwrap(), OutputKind::Json, "{}\n").unwrap();
        assert!(written.ends_with("deep/nest/report.json"));
        assert_eq!(std::fs::read_to_string(&written).unwrap(), "{}\n");
    }
}
