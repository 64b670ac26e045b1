//! The paper's tables and figures ([`figures`]), the helpers they share,
//! and the in-repo micro-benchmark harness ([`harness`], [`suite`]).
//!
//! `rrs figure <name|all>` renders the registry; results print as aligned
//! text tables with the paper's reference values alongside, ready to
//! paste into EXPERIMENTS.md.

pub mod figures;
pub mod harness;
pub mod suite;

use figures::Output;
use rrs::campaign::Campaign;
use rrs::experiments::{ExperimentConfig, MitigationKind};
use rrs::sim::SimResult;
use rrs::workloads::catalog::Workload;

/// A benign run pair (baseline + mitigated) for normalized-performance
/// figures.
pub(crate) struct NormalizedRun {
    /// The workload run.
    pub(crate) workload: Workload,
    /// Baseline (no-defense) result.
    pub(crate) base: SimResult,
    /// Mitigated result.
    pub(crate) mitigated: SimResult,
}

impl NormalizedRun {
    /// Normalized performance (Figure 6's y-axis).
    pub(crate) fn normalized(&self) -> f64 {
        self.mitigated.normalized_to(&self.base)
    }
}

/// Runs `kind` against every workload (each paired with its no-defense
/// baseline) through one parallel campaign, returning per-workload pairs.
/// Cells whose result could not be cached are noted in `out`.
pub(crate) fn run_normalized(
    config: &ExperimentConfig,
    workloads: &[Workload],
    kind: MitigationKind,
    out: &mut Output,
) -> Vec<NormalizedRun> {
    let mut campaign = Campaign::new();
    let pairs: Vec<(Workload, (usize, usize))> = workloads
        .iter()
        .map(|w| (*w, campaign.normalized_pair(*config, *w, kind)))
        .collect();
    let run = out.run(&campaign);
    pairs
        .into_iter()
        .map(|(workload, (base, mitigated))| NormalizedRun {
            workload,
            base: run.get(base).clone(),
            mitigated: run.get(mitigated).clone(),
        })
        .collect()
}

/// Runs `kind` against every workload through one parallel campaign (no
/// baseline pairing), returning results in workload order. Cells whose
/// result could not be cached are noted in `out`.
pub(crate) fn run_suite(
    config: &ExperimentConfig,
    workloads: &[Workload],
    kind: MitigationKind,
    out: &mut Output,
) -> Vec<SimResult> {
    let mut campaign = Campaign::new();
    let cells: Vec<usize> = workloads
        .iter()
        .map(|w| campaign.workload(*config, *w, kind))
        .collect();
    let run = out.run(&campaign);
    cells.into_iter().map(|i| run.get(i).clone()).collect()
}

/// Geometric mean over normalized performances, grouped by suite; returns
/// `(suite label, geomean)` pairs in first-seen order plus the overall one.
pub(crate) fn suite_geomeans(runs: &[NormalizedRun]) -> Vec<(String, f64)> {
    let mut groups: Vec<(String, Vec<f64>)> = Vec::new();
    for r in runs {
        let label = r.workload.suite().label();
        match groups.iter_mut().find(|(l, _)| l == label) {
            Some((_, values)) => values.push(r.normalized()),
            None => groups.push((label.to_string(), vec![r.normalized()])),
        }
    }
    groups.push((
        "ALL".to_string(),
        runs.iter().map(NormalizedRun::normalized).collect(),
    ));
    groups
        .into_iter()
        .map(|(label, values)| (label, rrs::experiments::geomean(&values)))
        .collect()
}

/// Formats a large count in engineering notation (`1.9e9`).
pub(crate) fn sci(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1e4 {
        format!("{x:.1e}")
    } else {
        format!("{x:.1}")
    }
}

/// Formats a duration given in seconds the way Table 4 does (days/years).
pub(crate) fn human_time(seconds: f64) -> String {
    let days = seconds / 86_400.0;
    let years = days / 365.25;
    if years >= 1.0 {
        format!("{years:.1} years")
    } else if days >= 1.0 {
        format!("{days:.1} days")
    } else if seconds >= 3600.0 {
        format!("{:.1} hours", seconds / 3600.0)
    } else {
        format!("{seconds:.1} s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs::campaign::RunOptions;
    use rrs::workloads::catalog::table3_workloads;

    #[test]
    fn sci_formats_reasonably() {
        assert_eq!(sci(0.0), "0");
        assert_eq!(sci(42.0), "42.0");
        assert_eq!(sci(1.9e9), "1.9e9");
    }

    #[test]
    fn human_time_picks_units() {
        assert_eq!(human_time(10.0), "10.0 s");
        assert!(human_time(7.0 * 86_400.0).contains("days"));
        assert!(human_time(4.0 * 365.25 * 86_400.0).contains("years"));
    }

    #[test]
    fn suite_geomeans_include_overall() {
        let mut cfg = ExperimentConfig::smoke_test();
        cfg.instructions_per_core = 20_000;
        let pool: Vec<Workload> = table3_workloads().into_iter().take(2).collect();
        let runs = run_normalized(
            &cfg,
            &pool,
            MitigationKind::Rrs,
            &mut Output::new(RunOptions::quiet()),
        );
        let means = suite_geomeans(&runs);
        assert_eq!(means.last().unwrap().0, "ALL");
        assert!(means.last().unwrap().1 > 0.0);
    }

    #[test]
    fn run_suite_keeps_workload_order() {
        let mut cfg = ExperimentConfig::smoke_test();
        cfg.instructions_per_core = 20_000;
        let pool: Vec<Workload> = table3_workloads().into_iter().take(3).collect();
        let results = run_suite(
            &cfg,
            &pool,
            MitigationKind::None,
            &mut Output::new(RunOptions::quiet()),
        );
        let names: Vec<&str> = results.iter().map(|r| r.workload.as_str()).collect();
        let expect: Vec<&str> = pool.iter().map(|w| w.name()).collect();
        assert_eq!(names, expect);
    }
}
