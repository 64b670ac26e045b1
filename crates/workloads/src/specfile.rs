//! Loading custom workload definitions from spec files.
//!
//! The calibrated generators are parameterized by exactly four quantities
//! (footprint, MPKI, hot rows, write fraction — see [`crate::generator`]),
//! so users can define new workloads in a simple text format without
//! recompiling:
//!
//! ```text
//! # my_workloads.spec — one stanza per workload
//! workload my_kernel
//! footprint_mb 256
//! mpki 7.5
//! hot_rows 100
//! write_fraction 0.25
//!
//! workload my_stream
//! footprint_mb 2048
//! mpki 22
//! ```
//!
//! Unspecified fields default to `hot_rows 0` and `write_fraction 0.3`.
//! Loaded specs carry [`Suite::Custom`].

use std::fmt;
use std::path::Path;

use crate::catalog::{Suite, WorkloadSpec};

/// Errors from spec-file parsing.
#[derive(Debug)]
pub enum SpecFileError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line could not be parsed (1-based line number, content).
    Parse(usize, String),
    /// A field appeared before any `workload <name>` header.
    FieldOutsideWorkload(usize),
    /// A numeric field failed to parse.
    BadNumber(usize, String),
}

impl fmt::Display for SpecFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecFileError::Io(e) => write!(f, "spec file i/o error: {e}"),
            SpecFileError::Parse(n, l) => write!(f, "cannot parse spec line {n}: {l:?}"),
            SpecFileError::FieldOutsideWorkload(n) => {
                write!(f, "line {n}: field before any `workload <name>` header")
            }
            SpecFileError::BadNumber(n, l) => write!(f, "line {n}: bad number in {l:?}"),
        }
    }
}

impl std::error::Error for SpecFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpecFileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SpecFileError {
    fn from(e: std::io::Error) -> Self {
        SpecFileError::Io(e)
    }
}

/// Parses workload specs from text.
///
/// # Errors
///
/// Returns [`SpecFileError`] describing the offending line.
pub fn parse_specs(text: &str) -> Result<Vec<WorkloadSpec>, SpecFileError> {
    let mut specs: Vec<WorkloadSpec> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .split_once(char::is_whitespace)
            .ok_or_else(|| SpecFileError::Parse(i + 1, line.into()))?;
        let value = value.trim();
        let num = |v: &str| -> Result<f64, SpecFileError> {
            v.parse()
                .map_err(|_| SpecFileError::BadNumber(i + 1, line.to_string()))
        };
        if key == "workload" {
            specs.push(WorkloadSpec {
                // Spec names live for the program's lifetime (bounded by
                // the number of stanzas in user config files).
                name: Box::leak(value.to_string().into_boxed_str()),
                suite: Suite::Custom,
                footprint_bytes: 64 << 20,
                mpki: 1.0,
                hot_rows: 0,
                write_fraction: 0.3,
                in_table3: false,
            });
            continue;
        }
        let current = specs
            .last_mut()
            .ok_or(SpecFileError::FieldOutsideWorkload(i + 1))?;
        match key {
            "footprint_mb" => current.footprint_bytes = (num(value)? * (1 << 20) as f64) as u64,
            "footprint_gb" => current.footprint_bytes = (num(value)? * (1 << 30) as f64) as u64,
            "mpki" => current.mpki = num(value)?,
            "hot_rows" => current.hot_rows = num(value)? as u32,
            "write_fraction" => current.write_fraction = num(value)?.clamp(0.0, 1.0),
            _ => return Err(SpecFileError::Parse(i + 1, line.into())),
        }
    }
    Ok(specs)
}

/// Loads workload specs from a file.
///
/// # Errors
///
/// Returns [`SpecFileError`] on I/O or parse failures.
pub fn load_specs(path: impl AsRef<Path>) -> Result<Vec<WorkloadSpec>, SpecFileError> {
    parse_specs(&std::fs::read_to_string(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# two custom workloads
workload my_kernel
footprint_mb 256
mpki 7.5
hot_rows 100
write_fraction 0.25

workload my_stream
footprint_gb 2
mpki 22
";

    #[test]
    fn parses_full_and_defaulted_stanzas() {
        let specs = parse_specs(SAMPLE).unwrap();
        assert_eq!(specs.len(), 2);
        let k = &specs[0];
        assert_eq!(k.name, "my_kernel");
        assert_eq!(k.footprint_bytes, 256 << 20);
        assert_eq!(k.mpki, 7.5);
        assert_eq!(k.hot_rows, 100);
        assert_eq!(k.write_fraction, 0.25);
        assert_eq!(k.suite, Suite::Custom);
        let s = &specs[1];
        assert_eq!(s.name, "my_stream");
        assert_eq!(s.footprint_bytes, 2 << 30);
        assert_eq!(s.hot_rows, 0, "defaults apply");
        assert_eq!(s.write_fraction, 0.3);
    }

    #[test]
    fn rejects_fields_outside_a_workload() {
        match parse_specs("mpki 5\n") {
            Err(SpecFileError::FieldOutsideWorkload(1)) => {}
            other => panic!("expected header error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_keys_and_bad_numbers() {
        assert!(matches!(
            parse_specs("workload w\nfrobnicate 3\n"),
            Err(SpecFileError::Parse(2, _))
        ));
        assert!(matches!(
            parse_specs("workload w\nmpki banana\n"),
            Err(SpecFileError::BadNumber(2, _))
        ));
    }

    #[test]
    fn loaded_specs_drive_the_generator() {
        use crate::generator::SyntheticWorkload;
        use rrs_sim::trace::TraceSource;

        let specs = parse_specs(SAMPLE).unwrap();
        // The paper's machine with a 1/100-scaled epoch and hot threshold.
        let mut config = rrs_sim::SystemConfig::asplos22_baseline(0);
        config.controller.timing.epoch = 2_048_000;
        config.controller.act_stat_threshold = 8;
        let mut g = SyntheticWorkload::new(&specs[0], 0, &config, 1);
        for _ in 0..100 {
            let r = g.next_record();
            assert!(r.addr < config.controller.geometry.total_bytes());
        }
    }

    #[test]
    fn error_messages_are_informative() {
        let e = parse_specs("garbage\n").unwrap_err();
        assert!(e.to_string().contains("line 1"));
    }
}
