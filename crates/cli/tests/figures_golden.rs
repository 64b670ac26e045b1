//! Every registry figure, rendered through `rrs figure` at one smoke
//! configuration, must match its committed golden byte for byte
//! (`tests/golden/figures/<name>.txt`, plus `<name>.csv` for figures that
//! emit a series).
//!
//! `duty_cycle`, `fullscale_attack`, `fig9` and `detector_study` have a
//! fixed size the smoke flags cannot shrink (full-scale epochs, a
//! 5 M-install Monte-Carlo, two-window attacks that take minutes under the
//! debug build's ghost-state audits), so they are checked only in
//! optimized builds: `cargo test --release -p rrs-cli --test figures_golden`.

use std::path::{Path, PathBuf};

use bench::figures::FIGURES;

const SMOKE_FLAGS: &str = "--scale 100 --instr 20000 --workloads 2 --epochs 1 --quiet";

/// Figures too slow for an unoptimized test build.
const RELEASE_ONLY: &[&str] = &["duty_cycle", "fullscale_attack", "fig9", "detector_study"];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/figures")
}

fn scratch(label: &str) -> PathBuf {
    let pid = std::process::id();
    std::env::temp_dir().join(format!("rrs_figures_golden_{label}_{pid}"))
}

fn rrs(cmd: &str) -> Result<(), rrs_cli::CliError> {
    let argv: Vec<String> = cmd.split_whitespace().map(String::from).collect();
    rrs_cli::dispatch(&argv)
}

/// Renders each figure that `select` picks into a scratch cache and
/// compares its golden files.
fn check(select: impl Fn(&str) -> bool, label: &str) {
    let out = scratch(label);
    for name in FIGURES.iter().map(|f| f.name).filter(|n| select(n)) {
        let cmd = format!("figure {name} --out {} {SMOKE_FLAGS}", out.display());
        rrs(&cmd).unwrap_or_else(|e| panic!("rrs {cmd}: {e}"));
        for file in [format!("{name}.txt"), format!("{name}.csv")] {
            let golden = std::fs::read_to_string(golden_dir().join(&file)).ok();
            let actual = std::fs::read_to_string(out.join(&file)).ok();
            assert!(
                golden == actual,
                "{file} differs from its golden:\n{actual:?}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&out);
}

/// The stems of the goldens with extension `ext`, sorted.
fn golden_stems(ext: &str) -> Vec<String> {
    let mut stems: Vec<String> = std::fs::read_dir(golden_dir())
        .unwrap()
        .filter_map(|e| {
            e.ok()?
                .file_name()
                .to_str()?
                .strip_suffix(ext)
                .map(String::from)
        })
        .collect();
    stems.sort();
    stems
}

#[test]
fn every_figure_has_a_golden_and_every_golden_a_figure() {
    let mut names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    names.sort();
    assert_eq!(names, golden_stems(".txt"));
    for csv in golden_stems(".csv") {
        assert!(
            names.contains(&csv.as_str()),
            "{csv}.csv names no registry figure"
        );
    }
}

/// `results/` holds each figure's full-size output, some at other scales
/// (`fig5_fullscale.txt`, `fig11_scale16.txt`): every `.txt`/`.csv` there
/// must still belong to a registry figure.
#[test]
fn every_results_file_names_a_figure() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    for entry in std::fs::read_dir(results).unwrap() {
        let file = entry.unwrap().file_name().into_string().unwrap();
        let Some(stem) = file
            .strip_suffix(".txt")
            .or_else(|| file.strip_suffix(".csv"))
        else {
            continue;
        };
        let figure = stem
            .strip_suffix("_fullscale")
            .or_else(|| {
                stem.trim_end_matches(|c: char| c.is_ascii_digit())
                    .strip_suffix("_scale")
            })
            .unwrap_or(stem);
        assert!(
            names.contains(&figure),
            "results/{file} names no registry figure"
        );
    }
}

#[test]
fn figures_match_goldens() {
    check(|name| !RELEASE_ONLY.contains(&name), "fast");
}

#[cfg(not(debug_assertions))]
#[test]
fn fixed_size_figures_match_goldens() {
    check(|name| RELEASE_ONLY.contains(&name), "fixed");
}

#[test]
fn flag_errors_are_errors_not_fallbacks() {
    for cmd in [
        "figure fig6 --workloads foo",
        "figure fig6 --scale 7",
        "figure fig6 --scale banana",
        "figure fig6 --scale --quiet",
        "figure fig6 --csv fig6.csv",
        "figure table4 --validate",
        "figure fig10 --t-rh 2400",
        "figure nosuch",
        "figure",
    ] {
        assert!(rrs(cmd).is_err(), "{cmd} must be rejected");
    }
}

#[test]
fn unwritable_out_fails_after_everything_else_ran() {
    // An `--out` that is a regular file: every cell still simulates and
    // the figure still renders, then the command lists what it could not
    // write and fails instead of panicking.
    let file = scratch("not_a_dir");
    std::fs::write(&file, "not a directory").unwrap();
    let out = file.display();
    let campaign = format!(
        "campaign --workloads 1 --defenses none,rrs --scale 100 --instr 20000 --quiet --out {out}"
    );
    let err = rrs(&campaign).unwrap_err().to_string();
    assert!(err.starts_with("2 result"), "{err}");
    let figure = format!("figure fig6 --out {out} {SMOKE_FLAGS}");
    let err = rrs(&figure).unwrap_err().to_string();
    assert!(
        err.starts_with("6 result"),
        "4 cells + fig6.txt + fig6.csv: {err}"
    );
    std::fs::remove_file(&file).unwrap();
}
