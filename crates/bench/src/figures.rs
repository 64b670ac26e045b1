//! The paper's tables and figures as one registry of plain functions.
//!
//! Each entry of [`FIGURES`] renders one result — Tables 1–7, Figures 5,
//! 6 and 9–11, and the ablations — into an [`Output`] buffer: aligned text
//! with the paper's reference values alongside, plus CSV rows where the
//! result is a per-workload series. `rrs figure <name|all>` is the entry
//! point; it parses the shared flags into [`FigureArgs`] and writes
//! `<out>/<name>.txt` and `<out>/<name>.csv`.
//!
//! Simulation grids run through [`rrs::campaign`]: cells execute in
//! parallel, shared baselines dedupe, and every cell lands in the `--out`
//! cache, so figures that share cells (the no-defense baselines behind
//! table3/fig6/fig11) simulate them once.

use std::fmt;

use rrs::analysis::attack_model::AttackModel;
use rrs::analysis::cat_model::CatModel;
use rrs::campaign::{Campaign, CampaignRun, RunOptions};
use rrs::core::detector::DetectorConfig;
use rrs::core::rrs::{BankRrs, RrsAction, RrsConfig};
use rrs::core::tracker::{CbfTracker, HotRowTracker, ProbabilisticTrigger};
use rrs::dram::geometry::RowAddr;
use rrs::experiments::{geomean, mean, ExperimentConfig, MitigationKind};
use rrs::mitigations::RrsMitigation;
use rrs::sim::config::FETCH_WIDTH;
use rrs::sim::{run_probed, SystemConfig, TraceRecord, TraceSource};
use rrs::telemetry::Telemetry;
use rrs::workloads::attacks::Attack;
use rrs::workloads::catalog::Workload;
use rrs::workloads::generator::sources_for_workload;
use rrs::workloads::AttackKind;

use crate::{human_time, run_normalized, run_suite, sci, suite_geomeans};

/// The shared flags a figure reads.
#[derive(Debug, Clone)]
pub struct FigureArgs {
    /// Experiment configuration (`--scale`, `--instr`, …).
    pub config: ExperimentConfig,
    /// The workload pool (`--workloads`, else the figure's default).
    pub workloads: Vec<Workload>,
    /// Attack campaign length in (scaled) refresh windows (`--epochs`).
    pub epochs: u64,
}

impl FigureArgs {
    /// Writes the standard experiment header: the title, then the scale line.
    fn header(&self, out: &mut Output, title: &str) {
        out.line(format_args!("== {title} =="));
        self.scale_line(out);
    }

    /// Writes the header's scale line: scale, thresholds, instructions, cores.
    fn scale_line(&self, out: &mut Output) {
        let config = &self.config;
        out.line(format_args!(
            "scale 1/{} (T_RH = {}, epoch = {:.3} ms), {} instr/core, {} cores\n",
            config.scale,
            config.t_rh(),
            config.timing().cycles_to_ns(config.timing().epoch) / 1e6,
            config.instructions_per_core,
            config.cores
        ));
    }
}

/// Everything a figure writes: its text and CSV rows here, and its
/// campaign cells into the `--out` cell cache of its run options.
#[derive(Debug, Default)]
pub struct Output {
    /// How the figure's campaigns execute (threads, `--out` cell cache,
    /// force, quiet).
    pub(crate) runs: RunOptions,
    /// The rendered text.
    pub text: String,
    /// CSV rows, header first; empty for figures without a series.
    pub csv: Vec<Vec<String>>,
    /// Campaign cells whose result could not be written to the cache
    /// (`<cell id>: <error>`). Their results were still used.
    pub write_errors: Vec<String>,
}

impl Output {
    /// An empty output whose campaigns run with `runs`.
    pub fn new(runs: RunOptions) -> Self {
        Output {
            runs,
            ..Output::default()
        }
    }

    /// Runs `campaign`, noting any cell whose result could not be cached.
    pub(crate) fn run(&mut self, campaign: &Campaign) -> CampaignRun {
        let run = campaign.run(&self.runs);
        self.write_errors.extend(run.write_errors());
        run
    }

    /// Appends `text` and a newline.
    pub(crate) fn line(&mut self, text: impl fmt::Display) {
        use fmt::Write;
        // Formatting into a `String` cannot fail.
        let _ = writeln!(self.text, "{text}");
    }

    /// Starts the CSV document with its column names.
    pub(crate) fn csv_header(&mut self, columns: &[&str]) {
        self.csv
            .push(columns.iter().map(|c| c.to_string()).collect());
    }

    /// The CSV rows joined into a document.
    pub fn csv_text(&self) -> String {
        self.csv.iter().map(|row| row.join(",") + "\n").collect()
    }
}

/// One registry entry.
pub struct Figure {
    /// Name on the command line and stem of the output files.
    pub name: &'static str,
    /// The `--workloads` pool used when the flag is absent.
    pub workloads: &'static str,
    /// Renders the figure.
    pub render: fn(&FigureArgs, &mut Output),
}

/// Every table and figure, in the order `rrs figure all` renders them.
#[rustfmt::skip]
pub const FIGURES: &[Figure] = &[
    Figure { name: "table1", workloads: "table3", render: table1 },
    Figure { name: "table2", workloads: "table3", render: table2 },
    Figure { name: "table3", workloads: "all", render: table3 },
    Figure { name: "table4", workloads: "table3", render: table4 },
    Figure { name: "table5", workloads: "table3", render: table5 },
    Figure { name: "table6", workloads: "all", render: table6 },
    Figure { name: "table7", workloads: "table3", render: table7 },
    Figure { name: "fig5", workloads: "all", render: fig5 },
    Figure { name: "fig6", workloads: "all", render: fig6 },
    Figure { name: "fig9", workloads: "table3", render: fig9 },
    Figure { name: "fig10", workloads: "12", render: fig10 },
    Figure { name: "fig11", workloads: "all", render: fig11 },
    Figure { name: "dos", workloads: "table3", render: dos },
    Figure { name: "security_sweep", workloads: "6", render: security_sweep },
    Figure { name: "tracker_ablation", workloads: "table3", render: tracker_ablation },
    Figure { name: "rowclone", workloads: "8", render: rowclone },
    Figure { name: "detector_study", workloads: "10", render: detector_study },
    Figure { name: "fullscale_attack", workloads: "table3", render: fullscale_attack },
    Figure { name: "duty_cycle", workloads: "table3", render: duty_cycle },
];

/// The registry entry called `name`.
pub fn find(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// Table 1: Row Hammer threshold over time (§2.3).
fn table1(_: &FigureArgs, out: &mut Output) {
    use rrs::dram::hammer::RH_THRESHOLDS;
    out.line("== Table 1: Row Hammer Threshold Over Time ==\n");
    out.line("Generation     RH-Threshold   Source");
    out.line("-".repeat(60));
    for e in RH_THRESHOLDS {
        out.line(format_args!(
            "{:<14} {:>12}   {}",
            e.generation,
            format!("{:.1}K", e.threshold as f64 / 1000.0),
            e.source
        ));
    }
    out.line(format_args!(
        "\nThe reproduction targets the lowest published threshold: {} activations\n\
         (LPDDR4-new), exactly as the paper's design point.",
        RH_THRESHOLDS.last().map_or(0, |e| e.threshold)
    ));
}

/// Table 2: baseline system configuration (§3).
fn table2(_: &FigureArgs, out: &mut Output) {
    let c = SystemConfig::asplos22_baseline(1_000_000_000);
    let g = c.controller.geometry;
    let t = c.controller.timing;
    out.line("== Table 2: Baseline System Configuration ==\n");
    let rows: Vec<(&str, String)> = vec![
        ("Cores (OoO)", c.cores.to_string()),
        ("Processor clock speed", format!("{} GHz", t.cpu_ghz)),
        ("Outstanding misses per core", c.max_outstanding.to_string()),
        ("Fetch and Retire width", FETCH_WIDTH.to_string()),
        (
            "Last Level Cache (Shared)",
            "8MB, 16-Way, 64B lines (not simulated: traces are post-cache)".to_string(),
        ),
        (
            "Memory size",
            format!("{} GB - DDR4", g.total_bytes() >> 30),
        ),
        (
            "Memory bus speed",
            format!("{} GHz ({} GHz DDR)", t.bus_ghz, 2.0 * t.bus_ghz),
        ),
        (
            "tRCD-tRP-tCAS",
            format!(
                "{:.0}-{:.0}-{:.0} ns",
                t.cycles_to_ns(t.t_rcd),
                t.cycles_to_ns(t.t_rp),
                t.cycles_to_ns(t.t_cas)
            ),
        ),
        (
            "tRC, tRFC, tREFI",
            format!(
                "{:.0} ns, {:.0} ns, {:.1} us",
                t.cycles_to_ns(t.t_rc),
                t.cycles_to_ns(t.t_rfc),
                t.cycles_to_ns(t.t_refi) / 1000.0
            ),
        ),
        (
            "Banks x Ranks x Channels",
            format!(
                "{} x {} x {}",
                g.banks_per_rank, g.ranks_per_channel, g.channels
            ),
        ),
        ("Rows per bank", format!("{}K", g.rows_per_bank / 1024)),
        ("Size of row", format!("{}KB", g.row_size_bytes / 1024)),
        (
            "Max activations per bank per 64ms",
            format!("{:.2}M", t.max_activations_per_epoch() as f64 / 1e6),
        ),
    ];
    for (k, v) in rows {
        out.line(format_args!("{k:<36} {v}"));
    }
}

/// Table 3: workload characteristics — footprint, MPKI, rows with 800+
/// activations per 64 ms window (§3), measured on the scaled simulator
/// with no mitigation next to the paper's published values.
fn table3(args: &FigureArgs, out: &mut Output) {
    args.header(out, "Table 3: Workload Characteristics (Rows ACT-800+)");
    out.line("Workload      Footprint     MPKI     MPKI     Hot rows     Hot rows");
    out.line("                   (GB)  (paper)   (meas)      (paper)   (measured)");
    out.line("-".repeat(68));
    let results = run_suite(&args.config, &args.workloads, MitigationKind::None, out);
    for (w, r) in args.workloads.iter().zip(&results) {
        let measured_mpki =
            (r.stats.reads + r.stats.writes) as f64 / (r.total_instructions as f64 / 1000.0);
        let hot_max = r
            .stats
            .epoch_hot_row_history
            .iter()
            .max()
            .copied()
            .unwrap_or(0);
        let (fp, mpki, hot) = match w {
            Workload::Single(s) => (
                s.footprint_bytes as f64 / (1u64 << 30) as f64,
                s.mpki,
                s.hot_rows,
            ),
            Workload::Mix(_) => (0.0, 0.0, 0),
        };
        out.line(format_args!(
            "{:<12} {:>10.2} {:>8.2} {:>8.2} {:>12} {:>12}",
            w.name(),
            fp,
            mpki,
            measured_mpki,
            hot,
            hot_max
        ));
    }
    out.line(format_args!(
        "\nNote: measured hot rows use the scaled threshold ({} ACTs per scaled\n\
         epoch ≙ 800 per 64 ms) and depend on how many full epochs the run covers;\n\
         the paper's counts are per-64 ms averages over 1B-instruction runs.",
        args.config.system_config().controller.act_stat_threshold
    ));
}

/// Table 4: attack iterations and attack time to cause T_RH = 4800
/// activations on one row (§5.3.2), plus the all-bank variant and a
/// Monte-Carlo validation of the bucket-and-balls model.
fn table4(_: &FigureArgs, out: &mut Output) {
    let model = AttackModel::asplos22();
    out.line("== Table 4: Attack Iterations and Attack Time (T_RH = 4800) ==\n");
    out.line("RRS Threshold (T)     k        D        AT_iter          paper   AT_time");
    out.line("-".repeat(76));
    let paper = [9.3e6, 1.9e9, 3.8e11];
    for (row, p) in model.table4().iter().zip(paper) {
        out.line(format_args!(
            "{:<18} {:>4} {:>8.3} {:>14} {:>14}   {}",
            row.t,
            row.k,
            row.duty_cycle,
            sci(row.attack_iterations),
            sci(p),
            human_time(row.attack_time_seconds)
        ));
    }
    out.line("\npaper: 960 -> 6.9 days, 800 -> 3.8 years, 685 -> 762 years");

    out.line("\n-- All-bank attack (§5.3.2: D = 0.55, 16 banks) --");
    let t = 800;
    let single = model.attack_time_seconds(t, model.duty_cycle(t));
    let all = model.all_bank_attack_time_seconds(t, 16);
    out.line(format_args!("single-bank (k=6): {}", human_time(single)));
    out.line(format_args!(
        "all-bank    (k=6): {}  (paper: 3.8 -> 5.1 years)",
        human_time(all)
    ));

    out.line("\n-- Monte-Carlo validation (reduced space, small k) --");
    let mut m = model;
    m.rows_per_bank = 4_096;
    m.act_max = 80_000;
    let d = m.duty_cycle(800);
    out.line("k          analytic    monte-carlo");
    for k in [1u64, 2, 3] {
        let analytic = m.rows_per_bank as f64 * m.p_k(800, k, d);
        let mc = m.monte_carlo_rows_with_k(800, k, d, 400, 99);
        out.line(format_args!("{k:<4} {:>14} {:>14}", sci(analytic), sci(mc)));
    }
}

/// Table 5: storage overhead per bank (§7.1).
fn table5(_: &FigureArgs, out: &mut Output) {
    out.line("== Table 5: Storage Overhead Per Bank ==\n");
    let t = rrs::analysis::storage::table5();
    out.line("Structure        Entry bits    Entries       Cost   paper");
    out.line("-".repeat(64));
    let paper = ["35KB", "6.9KB", "1KB"];
    for (row, p) in t.rows.iter().zip(paper) {
        out.line(format_args!(
            "{:<14} {:>12} {:>10} {:>9.1}K   {}",
            row.structure, row.entry_bits, row.entries, row.kib_per_bank, p
        ));
    }
    out.line("-".repeat(64));
    out.line(format_args!(
        "{:<14} {:>12} {:>10} {:>9.1}K   42.9KB",
        "Total",
        "",
        "",
        t.total_kib_per_bank()
    ));
    out.line(format_args!(
        "\nPer rank (16 banks): {:.0} KiB   (paper: 686KB)",
        t.total_kib_per_rank(16)
    ));
}

/// Table 6: extra power consumption of RRS per rank (§7.2). The DRAM
/// overhead is priced from the command counts each run's `ctrl.*`
/// statistics imply, over the workload pool; the SRAM figure comes from the first-order Cacti
/// substitute (DESIGN.md documents the substitution).
fn table6(args: &FigureArgs, out: &mut Output) {
    args.header(out, "Table 6: Extra Power Consumption in RRS Per Rank");

    let geometry = rrs::dram::geometry::DramGeometry::asplos22_baseline();
    let timing = args.config.timing();
    // Scale normalization: swaps-per-window are scale-invariant (they track
    // the hot-row population) while demand traffic per window shrinks by
    // the scale factor, so the full-scale overhead is the measured ratio
    // divided by the scale.
    let results = run_suite(&args.config, &args.workloads, MitigationKind::Rrs, out);
    let fractions: Vec<f64> = results
        .iter()
        .map(|r| {
            let report = r.power_report(&timing, geometry.lines_per_row(), 1);
            report.swap_overhead_fraction() / args.config.scale as f64
        })
        .collect();
    let t6 = rrs::analysis::power::Table6::from_measured(mean(&fractions));

    out.line("Type of Power Overhead                       Average");
    out.line("-".repeat(58));
    out.line(format_args!(
        "{:<44} {:.2}%   (paper: 0.5%)",
        "DRAM Power Overhead (Row-Swap)",
        100.0 * t6.dram_overhead_fraction
    ));
    out.line(format_args!(
        "{:<44} {:.0} mW  (paper: 903 mW)",
        "SRAM Power Overhead (RRS Structures)", t6.sram_power_mw
    ));
    out.line(format_args!(
        "\nmeasured over {} workloads; per-workload swap-energy fractions ranged\n\
         {:.3}% – {:.3}%",
        fractions.len(),
        100.0 * fractions.iter().cloned().fold(f64::INFINITY, f64::min),
        100.0 * fractions.iter().cloned().fold(0.0f64, f64::max)
    ));
}

/// Table 7: comparison of RRS with victim-focused mitigation (§8.2): the
/// classic and Half-Double patterns against the idealized VFM and RRS,
/// plus both defenses' benign slowdown on a workload sample.
fn table7(args: &FigureArgs, out: &mut Output) {
    args.header(out, "Table 7: RRS vs Victim-Focused Mitigation");

    // One campaign holds the whole table: the 6 attack cells plus both
    // defenses' benign sample (which shares its no-defense baselines).
    let mut campaign = Campaign::new();
    let attack_grid: Vec<usize> = [
        (AttackKind::DoubleSided, MitigationKind::VictimRefresh),
        (AttackKind::SingleSided, MitigationKind::VictimRefresh),
        (AttackKind::HalfDouble, MitigationKind::VictimRefresh),
        (AttackKind::DoubleSided, MitigationKind::Rrs),
        (AttackKind::SingleSided, MitigationKind::Rrs),
        (AttackKind::HalfDouble, MitigationKind::Rrs),
    ]
    .into_iter()
    .map(|(attack, kind)| campaign.attack(args.config, attack, kind, args.epochs))
    .collect();
    // Benign slowdown on a sample (the paper reports <0.1% for ideal VFM,
    // 0.4% for RRS over the full population).
    let sample: Vec<_> = args.workloads.iter().copied().take(6).collect();
    let benign_grid: Vec<Vec<(usize, usize)>> =
        [MitigationKind::VictimRefresh, MitigationKind::Rrs]
            .into_iter()
            .map(|kind| {
                sample
                    .iter()
                    .map(|w| campaign.normalized_pair(args.config, *w, kind))
                    .collect()
            })
            .collect();
    let run = out.run(&campaign);

    let survives = |cell: usize| -> bool { run.get(cell).bit_flips.is_empty() };
    let slowdown = |pairs: &[(usize, usize)]| -> f64 {
        let norms: Vec<f64> = pairs
            .iter()
            .map(|&(base, mitigated)| run.normalized(mitigated, base))
            .collect();
        (1.0 - geomean(&norms)) * 100.0
    };

    let vfm_classic = survives(attack_grid[0]) && survives(attack_grid[1]);
    let vfm_hd = survives(attack_grid[2]);
    let rrs_classic = survives(attack_grid[3]) && survives(attack_grid[4]);
    let rrs_hd = survives(attack_grid[5]);
    let vfm_slow = slowdown(&benign_grid[0]);
    let rrs_slow = slowdown(&benign_grid[1]);

    let yn = |b: bool| if b { "yes" } else { "NO" };
    out.line("Attribute                                    Victim-Focused      RRS");
    out.line("-".repeat(70));
    out.line(format_args!(
        "{:<44} {:>13.1}% {:>7.1}%",
        "Slowdown (sample geomean)", vfm_slow, rrs_slow
    ));
    out.line(format_args!(
        "{:<44} {:>14} {:>8}",
        "Mitigates Classic Rowhammer",
        yn(vfm_classic),
        yn(rrs_classic)
    ));
    out.line(format_args!(
        "{:<44} {:>14} {:>8}",
        "Mitigates Complex Patterns (Half-Double)",
        yn(vfm_hd),
        yn(rrs_hd)
    ));
    out.line("Works Without Knowing DRAM Mapping                       NO      yes");
    out.line("\npaper: VFM <0.1% / yes / NO / NO;  RRS 0.4% / yes / yes / yes");
}

/// Figure 5: average number of row-swaps per 64 ms window per workload
/// (§4.6; log-scale bars, suite means below).
fn fig5(args: &FigureArgs, out: &mut Output) {
    args.header(out, "Figure 5: Row-Swaps per 64 ms Window");
    let results = run_suite(&args.config, &args.workloads, MitigationKind::Rrs, out);

    out.line("Workload        swaps/epoch    paper-shape   bar (log2)");
    out.line("-".repeat(72));
    let mut per_suite: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    let mut all = Vec::new();
    out.csv_header(&["workload", "suite", "swaps_per_epoch", "paper_hot_rows"]);
    for (w, r) in args.workloads.iter().zip(&results) {
        let swaps = r.stats.mean_swaps_per_epoch();
        let hot = match w {
            Workload::Single(s) => s.hot_rows,
            _ => 0,
        };
        let bar = "#".repeat((swaps.max(1.0).log2().max(0.0) as usize).min(24));
        out.line(format_args!(
            "{:<12} {:>14.1} {:>14}   {}",
            w.name(),
            swaps,
            if hot > 0 {
                format!("~{}", hot)
            } else {
                "0".to_string()
            },
            bar
        ));
        per_suite.entry(w.suite().label()).or_default().push(swaps);
        all.push(swaps);
        out.csv.push(vec![
            w.name().to_string(),
            w.suite().label().to_string(),
            format!("{swaps:.2}"),
            hot.to_string(),
        ]);
    }
    out.line("-".repeat(72));
    for (suite, vals) in &per_suite {
        out.line(format_args!(
            "{:<12} {:>14.1}   (suite mean)",
            suite,
            mean(vals)
        ));
    }
    out.line(format_args!(
        "{:<12} {:>14.1}   (overall mean; paper: 68 across all 78 workloads)",
        "ALL",
        mean(&all)
    ));
    out.line(
        "\npaper shape: hmmer/bzip2 near 1000 swaps; large-footprint workloads\n\
         (mcf, GAP) below 5; ~50 workloads with zero swaps. 'paper-shape' lists\n\
         each workload's published ACT-800+ row count, the direct driver of its\n\
         swap count (one swap per threshold crossing).",
    );
}

/// Figure 6: performance of RRS normalized to the no-defense baseline
/// (§4.7; geometric means per suite; paper: 0.4% average slowdown, worst
/// cases ≈5% for bzip2/gcc/xz_17).
fn fig6(args: &FigureArgs, out: &mut Output) {
    args.header(out, "Figure 6: Normalized Performance of RRS");

    let runs = run_normalized(&args.config, &args.workloads, MitigationKind::Rrs, out);

    out.line("Workload      norm perf  swaps/epoch     base IPC");
    out.line("-".repeat(50));
    for r in &runs {
        out.line(format_args!(
            "{:<12} {:>10.4} {:>12.1} {:>12.3}",
            r.workload.name(),
            r.normalized(),
            r.mitigated.stats.mean_swaps_per_epoch(),
            r.base.aggregate_ipc()
        ));
    }
    out.line("-".repeat(50));
    for (suite, g) in suite_geomeans(&runs) {
        out.line(format_args!("{suite:<12} {g:>10.4}   (geomean)"));
    }
    out.csv_header(&[
        "workload",
        "suite",
        "normalized",
        "swaps_per_epoch",
        "base_ipc",
    ]);
    for r in &runs {
        out.csv.push(vec![
            r.workload.name().into(),
            r.workload.suite().label().into(),
            format!("{:.6}", r.normalized()),
            format!("{:.2}", r.mitigated.stats.mean_swaps_per_epoch()),
            format!("{:.4}", r.base.aggregate_ipc()),
        ]);
    }
    out.line(format_args!(
        "\noverall slowdown: {:.2}%   (paper: 0.4% average over 78 workloads,\n\
         worst ≈5%, driven by swap count × MPKI)",
        overall_slowdown_pct(&runs)
    ));
}

/// Figure 9: installs required to cause a conflict in the CAT vs. extra
/// ways (§6.2; 64 sets, 14 demand ways; Monte-Carlo for small extra-way
/// counts, continued-squaring extrapolation beyond — exactly the paper's
/// methodology).
fn fig9(_: &FigureArgs, out: &mut Output) {
    let mc_budget = 5_000_000u64; // Monte-Carlo installs per trial
    out.line("== Figure 9: Installs to CAT Conflict vs Extra Ways ==");
    out.line(format_args!(
        "(64 sets, 14 demand ways; MC budget {mc_budget} installs, 5 trials)\n"
    ));

    let m = CatModel::figure9();
    let series = m.figure9_series(6, mc_budget, 5, 2024);
    out.line("extra ways   installs (log10)     method");
    out.line("-".repeat(42));
    let mut last_mc = 0usize;
    for (e, log10) in &series {
        let method = {
            let est = m.mean_installs_to_conflict(*e, 1, mc_budget, 7 + *e as u64);
            if est.lower_bound_only {
                "extrapolated"
            } else {
                last_mc = *e;
                "monte-carlo"
            }
        };
        out.line(format_args!("{e:<12} {log10:>16.1} {method:>12}"));
    }
    // The caption's aside: "numbers are similar for 256 sets" (the RIT's
    // shape). Verify with the same methodology.
    let m256 = CatModel {
        sets: 256,
        demand_ways: 14,
    };
    let series256 = m256.figure9_series(6, mc_budget, 3, 4242);
    out.line("\n256-set variant (the RIT shape):");
    for ((e, a), (_, b)) in series.iter().zip(&series256) {
        out.line(format_args!(
            "  extra ways {e}: 64 sets 1e{a:.1} vs 256 sets 1e{b:.1}"
        ));
    }

    out.line(format_args!(
        "\npaper: with 6 extra ways ~1e30 installs — at one install per 10 µs,\n\
         10^18 years to a conflict ('more than the lifetime of the universe').\n\
         Monte-Carlo anchors extra ways <= {last_mc}; each further way squares the\n\
         count (MIRAGE Eq. 6-7). Analytic layered-induction cross-check at 6\n\
         extra ways: 1e{:.1}.",
        m.analytic_installs_log10(6)
    ));
}

/// Figure 10: performance of RRS across Row Hammer thresholds (§7.3),
/// re-deriving every design parameter per point (T_RRS, tracker entries,
/// RIT tuples). Paper: 4.5%, 2.2%, 0.4%, ~0, ~0 average slowdown.
fn fig10(args: &FigureArgs, out: &mut Output) {
    args.header(out, "Figure 10: Performance of RRS across RH-Threshold");

    out.line("T_RH              T_RRS     slowdown          paper");
    out.line("-".repeat(52));
    for (mult, paper) in [(0.25, 4.5), (0.5, 2.2), (1.0, 0.4), (2.0, 0.0), (4.0, 0.0)] {
        let t_rh_full = (4_800.0 * mult) as u64;
        let cfg = args.config.with_t_rh(t_rh_full);
        let runs = run_normalized(&cfg, &args.workloads, MitigationKind::Rrs, out);
        out.line(format_args!(
            "{:<12} {:>10} {:>11.2}% {:>13.1}%",
            format!("{}K ({mult}x)", t_rh_full as f64 / 1000.0),
            cfg.t_rrs(),
            overall_slowdown_pct(&runs),
            paper
        ));
    }
    out.line(
        "\npaper shape: slowdown grows as the threshold shrinks (more frequent\n\
         swaps, larger structures) but stays moderate even at 1.2K.",
    );
}

/// Overall geomean slowdown of `runs`, in percent.
fn overall_slowdown_pct(runs: &[crate::NormalizedRun]) -> f64 {
    let overall = suite_geomeans(runs).last().map_or(1.0, |(_, g)| *g);
    (1.0 - overall) * 100.0
}

/// Figure 11: performance S-curve of RRS vs BlockHammer (blacklist 512
/// and 1K) over the workload population (§8.1). Paper: BlockHammer worst
/// case 21.7% slowdown with 10–25 workloads above 5%, average ≈2%; RRS
/// worst case 7.6% with only 3 workloads above 5%, average 0.4%.
fn fig11(args: &FigureArgs, out: &mut Output) {
    args.header(out, "Figure 11: S-Curve, RRS vs BlockHammer");

    let kinds = [
        ("rrs", MitigationKind::Rrs),
        ("bh-512", MitigationKind::BlockHammer512),
        ("bh-1k", MitigationKind::BlockHammer1k),
    ];
    // One campaign for all three defenses: the no-defense baseline cells
    // are shared, so they run once instead of three times.
    let mut campaign = Campaign::new();
    let grid: Vec<(&str, Vec<(usize, usize)>)> = kinds
        .iter()
        .map(|(name, kind)| {
            (
                *name,
                args.workloads
                    .iter()
                    .map(|w| campaign.normalized_pair(args.config, *w, *kind))
                    .collect(),
            )
        })
        .collect();
    let run = out.run(&campaign);
    let curves: Vec<(&str, Vec<f64>)> = grid
        .into_iter()
        .map(|(name, pairs)| {
            let mut norms: Vec<f64> = pairs
                .iter()
                .map(|&(base, mitigated)| run.normalized(mitigated, base))
                .collect();
            norms.sort_by(f64::total_cmp);
            (name, norms)
        })
        .collect();

    out.line("sorted normalized performance (S-curve):");
    let names: String = curves
        .iter()
        .map(|(name, _)| format!(" {name:>10}"))
        .collect();
    out.line(format_args!("{:<10}{names}", "rank"));
    let rule = "-".repeat(10 + 11 * curves.len());
    out.line(&rule);
    for i in 0..args.workloads.len() {
        let row: String = curves
            .iter()
            .map(|(_, c)| format!(" {:>10.4}", c[i]))
            .collect();
        out.line(format_args!("{:<10}{row}", i + 1));
    }
    out.line(&rule);
    for (name, c) in &curves {
        let worst = c.first().map_or(0.0, |v| (1.0 - v) * 100.0);
        let avg = (1.0 - geomean(c)) * 100.0;
        let above5 = c.iter().filter(|&&v| v < 0.95).count();
        out.line(format_args!(
            "{name:<8} worst {worst:>5.1}%  avg {avg:>5.2}%  workloads >5% slowdown: {above5}"
        ));
    }
    out.line(
        "\npaper: bh-512/bh-1k worst 21.7%, 10-25 workloads over 5%, avg ~2%;\n\
         rrs worst 7.6%, 3 workloads over 5%, avg 0.4%.",
    );
}

/// §8.1 denial-of-service comparison: worst-case slowdown under attack.
/// BlockHammer delays every activation of a blacklisted row by tens of
/// microseconds (~200× slowdown); RRS costs one row swap per T_RRS
/// activations (~2× worst case).
fn dos(args: &FigureArgs, out: &mut Output) {
    // This experiment is about the absolute mitigation latencies (20 µs
    // delays vs 1.46 µs swaps), so the swap cost is not scaled.
    let config = args.config.with_full_swap_cost();
    let args = &FigureArgs {
        config,
        ..args.clone()
    };
    args.header(out, "§8.1: Denial-of-Service Exposure Under Attack");

    let mut campaign = Campaign::new();
    let base_cell = campaign.attack(config, AttackKind::Dos, MitigationKind::None, args.epochs);
    let defended: Vec<(usize, &str)> = [
        (MitigationKind::Rrs, "~2x"),
        (MitigationKind::BlockHammer512, "~200x"),
        (MitigationKind::BlockHammer1k, "~200x"),
    ]
    .into_iter()
    .map(|(kind, paper)| {
        (
            campaign.attack(config, AttackKind::Dos, kind, args.epochs),
            paper,
        )
    })
    .collect();
    let run = out.run(&campaign);

    let base = run.get(base_cell);
    out.line("defense                cycles     slowdown        paper    p50 lat    p99 lat");
    out.line("-".repeat(56));
    out.line(format_args!(
        "{:<14} {:>14} {:>12} {:>12} {:>10} {:>10}",
        "none",
        base.cycles,
        "1.0x",
        "1x",
        base.read_latency.p50(),
        base.read_latency.p99()
    ));
    for (cell, paper) in defended {
        let r = run.get(cell);
        assert_eq!(r.total_instructions, base.total_instructions);
        out.line(format_args!(
            "{:<14} {:>14} {:>11.1}x {:>12} {:>10} {:>10}",
            r.mitigation,
            r.cycles,
            r.cycles as f64 / base.cycles as f64,
            paper,
            r.read_latency.p50(),
            r.read_latency.p99()
        ));
    }
    out.line(
        "\npaper: BlockHammer ≈200x (20 µs per 100 ns access); RRS ≈2x\n\
         (36 µs of activations per ≈3 µs of swaps).",
    );
}

/// Security-margin ablation: how the choice of `k = T_RH / T_RRS`
/// (§5.3.2's central trade-off) moves the expected attack time and the
/// success-probability curve — Table 4 extended across every admissible
/// design point, with the performance cost of each.
fn security_sweep(args: &FigureArgs, out: &mut Output) {
    let model = AttackModel::asplos22();

    out.line("== Security-margin sweep: k = T_RH / T_RRS (§5.3.2 ablation) ==\n");
    out.line("k      T_RRS           D        AT_iter      attack time    P(1 year)");
    out.line("-".repeat(70));
    let year = 365.25 * 86_400.0;
    let sweep = model.k_sweep(1..=8);
    for row in &sweep {
        let p_year = model.success_probability_within(row.t, row.duty_cycle, year);
        out.line(format_args!(
            "{:<6} {:<8} {:>8.3} {:>14} {:>16} {:>12.2e}",
            row.k,
            row.t,
            row.duty_cycle,
            sci(row.attack_iterations),
            human_time(row.attack_time_seconds),
            p_year
        ));
    }
    out.line(
        "\nThe paper picks k = 6 (T_RRS = 800): the smallest k protecting for\n\
         over a year of continuous attack.",
    );
    let protecting = sweep.iter().find(|row| row.attack_time_seconds > year);
    out.line(format_args!(
        "Smallest k protecting for over a year is k = 6: {} ({})",
        verdict(protecting.is_some_and(|row| row.k == 6)),
        protecting.map_or("no k in the sweep".into(), |row| format!(
            "k = {}, T_RRS = {}, {} expected",
            row.k,
            row.t,
            human_time(row.attack_time_seconds)
        ))
    ));

    // Success-probability curve for the chosen design point.
    out.line("\n-- P(success within time), T_RRS = 800 --");
    let d = model.duty_cycle(800);
    for (label, seconds) in [
        ("1 hour", 3_600.0),
        ("1 day", 86_400.0),
        ("1 month", 30.0 * 86_400.0),
        ("1 year", year),
        ("3.8 years", 3.8 * 365.25 * 86_400.0),
        ("10 years", 10.0 * 365.25 * 86_400.0),
    ] {
        out.line(format_args!(
            "{:<10} {:>12.4e}",
            label,
            model.success_probability_within(800, d, seconds)
        ));
    }

    // Optional: measure the performance side of the trade-off.
    if !args.workloads.is_empty() {
        let sample: Vec<_> = args.workloads.iter().copied().take(6).collect();
        out.line(format_args!(
            "\n-- Performance cost per design point (sample of {} workloads) --",
            sample.len()
        ));
        args.scale_line(out);
        out.line("k          slowdown      swaps");
        let mut slowdowns = Vec::new();
        let mut swaps = Vec::new();
        for k in [3u64, 6, 8] {
            // Keep T_RH fixed, shrink T_RRS by adjusting k: emulate via the
            // threshold sweep (T_RRS = T_RH / k is derived inside the
            // config from DEFAULT_K; scale T_RH to move T_RRS instead).
            let cfg = args.config.with_t_rh(4_800 * rrs::core::DEFAULT_K / k);
            let runs = run_normalized(&cfg, &sample, MitigationKind::Rrs, out);
            let slowdown = overall_slowdown_pct(&runs);
            let swapped: u64 = runs.iter().map(|r| r.mitigated.stats.swaps).sum();
            out.line(format_args!("{k:<6} {slowdown:>11.2}% {swapped:>10}"));
            // Compared as printed, in hundredths of a percent.
            slowdowns.push((slowdown * 100.0).round());
            swaps.push(swapped);
        }
        out.line(format_args!(
            "\nLarger k (smaller T_RRS) swaps more often: {}",
            verdict(swaps.windows(2).all(|w| w[0] < w[1]))
        ));
        out.line(format_args!(
            "Larger k slows more: {}",
            verdict(slowdowns.windows(2).all(|w| w[0] < w[1]))
        ));
    }
}

/// Tracking-mechanism ablation (§4.2): RRS works with *any* tracker, but
/// the tracker determines the swap rate, which determines the overhead.
/// Compares the paper's Misra-Gries CAT tracker with counting-Bloom-filter
/// trackers and footnote 1's stateless trigger under identical access
/// streams, and checks the relations the comparison is meant to show.
fn tracker_ablation(_: &FigureArgs, out: &mut Output) {
    // A scaled design point: T_RH = 300, T_RRS = 50.
    let config = RrsConfig::for_threshold(300, 40_000, 128 * 1024);
    out.line("== Tracker ablation: swaps triggered per tracker ==");
    out.line(format_args!(
        "design point: T_RRS = {}, tracker entries (MG) = {}\n",
        config.t_rrs(),
        config.tracker_entries()
    ));

    // Workload: a few genuinely hot rows + background noise.
    fn stream(i: u64) -> u64 {
        let x = i
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if i.is_multiple_of(4) {
            x % 8 // 8 hot rows get 25% of traffic
        } else {
            1_000 + (x >> 40) % 50_000
        }
    }
    // Replays the stream through `bank`, prints its row, returns its swaps.
    // Swaps and unswaps are the actions the bank emits; stalls are its
    // `rrs.capacity_stalls` counter.
    fn replay<T: HotRowTracker>(label: &str, mut bank: BankRrs<T>, out: &mut Output) -> u64 {
        let spine = Telemetry::new();
        bank.attach_telemetry(&spine);
        let (mut swaps, mut unswaps) = (0u64, 0u64);
        for i in 0..40_000 {
            bank.on_activation(stream(i), |action| match action {
                RrsAction::Swap(_) => swaps += 1,
                RrsAction::Unswap(_) => unswaps += 1,
                RrsAction::Alarm { .. } => {}
            });
        }
        let stalls = spine.counter("rrs.capacity_stalls").get();
        out.line(format_args!(
            "{label:<24} {swaps:>10} {unswaps:>10} {stalls:>10}"
        ));
        swaps
    }

    out.line("tracker                       swaps    unswaps     stalls");
    out.line("-".repeat(58));
    let mg = replay("misra-gries (paper)", BankRrs::new(config, 0), out);
    let cbf: Vec<u64> = [
        ("cbf 8192x3", 8_192usize),
        ("cbf 2048x3", 2_048),
        ("cbf 512x3", 512),
    ]
    .into_iter()
    .map(|(label, counters)| {
        let tracker = CbfTracker::new(config.t_rrs(), counters, 3, 0xAB1A7E);
        replay(label, BankRrs::with_tracker(config, 0, tracker), out)
    })
    .collect();
    let trigger = ProbabilisticTrigger::new(1.0 / config.t_rrs() as f64, 0xAB1A7E);
    let stateless = replay(
        "stateless p = 1/T_RRS",
        BankRrs::with_tracker(config, 0, trigger),
        out,
    );

    let cbf_list = format!("{}, {}, {}", cbf[0], cbf[1], cbf[2]);
    out.line(format_args!(
        "\nCBF swaps >= Misra-Gries swaps: {} (misra-gries {mg}; cbf {cbf_list})",
        verdict(cbf.iter().all(|&c| c >= mg))
    ));
    out.line(format_args!(
        "CBF swaps do not fall as the filter shrinks: {} (cbf {cbf_list})",
        verdict(cbf.windows(2).all(|w| w[0] <= w[1]))
    ));
    out.line(format_args!(
        "Stateless swaps >= Misra-Gries swaps: {} (stateless {stateless}, misra-gries {mg})",
        verdict(stateless >= mg)
    ));
    out.line("Every swap is ~1.46 µs of blocked channel.");
}

/// The word a figure prints for a relation it checked.
fn verdict(holds: bool) -> &'static str {
    if holds {
        "holds"
    } else {
        "does not hold"
    }
}

/// RowClone ablation (§8.1): buffered swaps (≈1.46 µs) vs RowClone
/// in-DRAM copies (4×tRC ≈ 0.18 µs) at a swap-heavy low-threshold design
/// point and under sustained hammering.
fn rowclone(args: &FigureArgs, out: &mut Output) {
    // Low-threshold point: swaps are 6x more frequent than the baseline.
    let low_t = args.config.with_t_rh(1_200);
    let low = FigureArgs {
        config: low_t,
        ..args.clone()
    };
    low.header(out, "RowClone ablation (swap latency: 1.46 µs vs 4×tRC)");

    let sample: Vec<_> = args.workloads.iter().copied().take(8).collect();
    out.line("-- benign slowdown at T_RH = 1.2K (swap-heavy design point) --");
    out.line("swap mode        slowdown");
    for (label, cfg) in [("buffered", low_t), ("rowclone", low_t.with_rowclone())] {
        let runs = run_normalized(&cfg, &sample, MitigationKind::Rrs, out);
        out.line(format_args!(
            "{:<12} {:>11.2}%",
            label,
            overall_slowdown_pct(&runs)
        ));
    }

    out.line("\n-- attacker throughput under sustained hammering --");
    out.line("(full 1.46 µs swap latency: this experiment is about the cost itself)");
    out.line("swap mode            cycles      vs none      swaps");
    let atk = args.config.with_full_swap_cost();
    let mut campaign = Campaign::new();
    let base_cell = campaign.attack(atk, AttackKind::Dos, MitigationKind::None, 1);
    let modes: Vec<(&str, usize)> = [("buffered", atk), ("rowclone", atk.with_rowclone())]
        .into_iter()
        .map(|(label, cfg)| {
            (
                label,
                campaign.attack(cfg, AttackKind::Dos, MitigationKind::Rrs, 1),
            )
        })
        .collect();
    let run = out.run(&campaign);
    let base = run.get(base_cell);
    out.line(format_args!(
        "{:<12} {:>14} {:>9.4}x {:>10}",
        "none", base.cycles, 1.0, base.stats.swaps
    ));
    let mut swaps = Vec::new();
    for (label, cell) in modes {
        let r = run.get(cell);
        assert!(r.bit_flips.is_empty(), "RRS must stay secure in both modes");
        out.line(format_args!(
            "{:<12} {:>14} {:>9.4}x {:>10}",
            label,
            r.cycles,
            r.cycles as f64 / base.cycles as f64,
            r.stats.swaps
        ));
        swaps.push(r.stats.swaps);
    }
    out.line(format_args!(
        "\nEqual swap counts in both modes: {} (buffered {}, rowclone {})",
        verdict(swaps[0] == swaps[1]),
        swaps[0],
        swaps[1]
    ));
    out.line(
        "RowClone shrinks each swap's channel-blocking time ~8x, which matters\n\
         exactly where the paper says it does: under attack and at low T_RH.",
    );
}

/// Attack-detection co-design study — the future work of §5.3.2 fn. 2:
/// counting swaps per row per window flags an attack, and a preemptive
/// full refresh stops it. Measures false positives over the benign
/// population and detection latency under the swap-chasing attack.
fn detector_study(args: &FigureArgs, out: &mut Output) {
    args.header(out, "Attack-detection study (§5.3.2 footnote 2)");

    let sys = args.config.system_config();
    let act_max = sys.controller.timing.max_activations_per_epoch();
    let geometry = sys.controller.geometry;
    let rrs = RrsConfig::for_threshold(args.config.t_rh(), act_max, geometry.rows_per_bank as u64);
    let mk_rrs = |swaps_per_row_alarm| {
        let detector = DetectorConfig {
            swaps_per_row_alarm,
        };
        RrsMitigation::new(rrs.with_detector(detector), geometry)
    };

    // 1. False positives over the benign population.
    out.line("-- false positives (alarm at 2 same-row swaps per window) --");
    let mut total_alarms = 0u64;
    let mut runs = 0u64;
    for w in args.workloads.iter().take(20) {
        let sources = sources_for_workload(w, &sys, args.config.seed);
        let r = run_probed(
            &sys,
            Box::new(mk_rrs(2)),
            sources,
            w.name(),
            &Telemetry::new(),
        );
        total_alarms += r.stats.full_refreshes;
        runs += 1;
    }
    out.line(format_args!(
        "{runs} workloads, {total_alarms} alarms\n\
         Zero benign alarms: {} (benign rows are swapped at most once per window)\n",
        verdict(total_alarms == 0)
    ));

    // 2. Detection latency under the optimal attack, per alarm threshold.
    out.line("-- detection latency vs alarm threshold (swap-chasing attack) --");
    out.line("alarm threshold           detected?  accesses to alarm");
    let mapper = rrs::mem_ctrl::mapping::AddressMapper::new(geometry);
    let timing = sys.controller.timing;
    // A lone attacker on core 0 for `windows` refresh windows of activations.
    let attack_run = |kind: AttackKind, windows: u64, alarm: u32, label: &str| {
        let mut attack_sys = sys.clone();
        attack_sys.cores = 1;
        attack_sys.instructions_per_core = windows * timing.epoch / timing.t_rc;
        let attacker: Vec<Box<dyn TraceSource>> =
            vec![Box::new(Attack::new(kind, mapper, args.config.seed))];
        run_probed(
            &attack_sys,
            Box::new(mk_rrs(alarm)),
            attacker,
            label,
            &Telemetry::new(),
        )
    };
    for alarm in [2u32, 3, 4] {
        let r = attack_run(args.config.swap_chasing_attack(), 2, alarm, "swap-chasing");
        let detected = r.stats.full_refreshes > 0;
        out.line(format_args!(
            "{:<18} {:>16} {:>18}",
            alarm,
            if detected { "yes" } else { "no" },
            if detected {
                // The alarm needs `alarm` swaps of one row = alarm × T_RRS
                // activations of it; swap-chasing revisits a row only by
                // chance, so detection tracks the attack's re-hit rate.
                format!("{}", r.stats.reads.min(r.total_instructions))
            } else {
                "-".into()
            }
        ));
    }
    out.line(
        "\nNote: the *swap-chasing* attack deliberately avoids re-hammering\n\
         the same logical row, so per-row swap counting detects it only when\n\
         random picks repeat within a window. A same-row re-hammer attack\n\
         (DoS pattern) alarms within alarm × T_RRS activations:",
    );
    let alarm = 3;
    let r = attack_run(AttackKind::Dos, 1, alarm, "dos");
    out.line(format_args!(
        "  dos attack, alarm={alarm}: {} full refreshes over {} accesses, {} activations",
        r.stats.full_refreshes,
        r.stats.reads + r.stats.writes,
        r.stats.activations
    ));
    // Compared exactly: activations ≤ refreshes × alarm × T_RRS.
    let bound = u64::from(alarm) * rrs.t_rrs();
    out.line(format_args!(
        "Alarms within {alarm} × T_RRS = {bound} activations: {} ({:.1} activations per alarm)",
        verdict(r.stats.activations <= r.stats.full_refreshes * bound),
        r.stats.activations as f64 / r.stats.full_refreshes.max(1) as f64
    ));
}

/// Full-scale (paper-parameter) security spot check: T_RH = 4800, 64 ms
/// epochs, 1.46 µs swaps — no scaling anywhere, whatever `--scale` says.
fn fullscale_attack(args: &FigureArgs, out: &mut Output) {
    let cfg = ExperimentConfig::default()
        .with_scale(1)
        .with_full_swap_cost();
    out.line(format_args!(
        "== Full-scale security check (T_RH = {}, 64 ms epochs) ==\n",
        cfg.t_rh()
    ));
    out.line("attack           defense         flips      swaps  refreshes");
    out.line("-".repeat(60));
    let cases = [
        (AttackKind::DoubleSided, MitigationKind::None, 1),
        (AttackKind::DoubleSided, MitigationKind::VictimRefresh, 1),
        (AttackKind::DoubleSided, MitigationKind::Rrs, 1),
        (AttackKind::HalfDouble, MitigationKind::VictimRefresh, 2),
        (AttackKind::HalfDouble, MitigationKind::Rrs, 2),
        (cfg.swap_chasing_attack(), MitigationKind::Rrs, 2),
    ];
    let mut campaign = Campaign::new();
    let cells: Vec<(AttackKind, MitigationKind, usize)> = cases
        .into_iter()
        .map(|(attack, defense, epochs)| {
            let epochs = epochs.max(args.epochs.min(4));
            let cell = campaign.attack(cfg, attack, defense, epochs);
            (attack, defense, cell)
        })
        .collect();
    let run = out.run(&campaign);
    // (attack, defense, flips) per case, in table order.
    let mut flips = Vec::new();
    for (attack, defense, cell) in cells {
        let r = run.get(cell);
        out.line(format_args!(
            "{:<16} {:<12} {:>8} {:>10} {:>10}",
            attack.name(),
            r.mitigation,
            r.bit_flips.len(),
            r.stats.swaps,
            r.stats.targeted_refreshes
        ));
        flips.push((attack, defense, r.bit_flips.len()));
    }
    let only_flips_under = |attack: AttackKind, flipping: MitigationKind| {
        flips
            .iter()
            .filter(|&&(a, ..)| a == attack)
            .all(|&(_, d, n)| (n > 0) == (d == flipping))
    };
    let double_sided = only_flips_under(AttackKind::DoubleSided, MitigationKind::None);
    let half_double = only_flips_under(AttackKind::HalfDouble, MitigationKind::VictimRefresh);
    let rrs_safe = flips
        .iter()
        .all(|&(_, d, n)| d != MitigationKind::Rrs || n == 0);
    out.line(format_args!(
        "\nDouble-sided flips only undefended: {}\n\
         Half-double flips only through victim refresh: {}\n\
         RRS never flips (incl. swap-chasing): {}",
        verdict(double_sided),
        verdict(half_double),
        verdict(rrs_safe)
    ));
}

/// Attacker that hammers aggressor pairs in `banks` banks of channel 0,
/// round-robin — bank-parallel activations, maximal pressure.
struct MultiBankAttack {
    addrs: Vec<u64>,
    cursor: usize,
}

impl MultiBankAttack {
    fn new(mapper: &rrs::mem_ctrl::AddressMapper, banks: u8) -> Self {
        let mut addrs = Vec::new();
        // Visit banks in round-robin so every access activates and banks
        // overlap their row cycles; two rows per bank defeat the buffer.
        for flip in 0..2u32 {
            for b in 0..banks {
                addrs.push(mapper.row_base(RowAddr::new(0, 0, b, 5_000 + flip * 1_000)));
            }
        }
        MultiBankAttack { addrs, cursor: 0 }
    }
}

impl TraceSource for MultiBankAttack {
    fn next_record(&mut self) -> TraceRecord {
        let a = self.addrs[self.cursor % self.addrs.len()];
        self.cursor += 1;
        TraceRecord::read(0, a)
    }

    fn name(&self) -> &str {
        "multi-bank-attack"
    }
}

/// Empirical duty-cycle measurement — §5.3.1/§5.3.2's `D`: the fraction
/// of the window a bank under sustained attack is available for
/// activations (0.925 single-bank, 0.55 all-bank in the paper), measured
/// on the cycle-level simulator instead of trusting the closed form. Runs
/// at full scale: `D` is a ratio of unscaled quantities (`T_RRS · tRC`
/// activations against 2.9 µs of swapping).
fn duty_cycle(args: &FigureArgs, out: &mut Output) {
    let cfg = args.config.with_scale(1).with_full_swap_cost();
    let sys_base = cfg.system_config();
    let timing = sys_base.controller.timing;
    let act_max = timing.max_activations_per_epoch();

    out.line("== Duty cycle under sustained attack (§5.3.1–§5.3.2) ==");
    out.line(format_args!(
        "scale 1/{}: T_RRS = {}, ACT_max = {} per bank per epoch\n",
        cfg.scale,
        cfg.t_rrs(),
        act_max
    ));

    let model = AttackModel::asplos22();
    out.line("attack           measured D      model D      paper D");
    out.line("-".repeat(54));
    for (label, banks, model_d, paper_d) in [
        ("single-bank", 1u8, model.duty_cycle(800), 0.925),
        ("all-bank", 16u8, AttackModel::ALL_BANK_DUTY_CYCLE, 0.55),
    ] {
        let mut sys = sys_base.clone();
        sys.cores = 1;
        // Enough accesses to span ~2 epochs of pure activations.
        sys.instructions_per_core = 2 * banks as u64 * timing.epoch / timing.t_rc;
        let mapper = rrs::mem_ctrl::AddressMapper::new(sys.controller.geometry);
        let attacker: Vec<Box<dyn TraceSource>> =
            vec![Box::new(MultiBankAttack::new(&mapper, banks))];
        let r = run_probed(
            &sys,
            cfg.build_mitigation(MitigationKind::Rrs),
            attacker,
            label,
            &Telemetry::new(),
        );
        // D = achieved activations / the tRC-limited maximum over the
        // attacked banks for the elapsed time.
        let epochs = r.cycles as f64 / timing.epoch as f64;
        let possible = banks as f64 * act_max as f64 * epochs;
        let measured_d = r.stats.activations as f64 / possible;
        out.line(format_args!(
            "{:<14} {:>12.3} {:>12.3} {:>12.3}",
            label, measured_d, model_d, paper_d
        ));
        assert!(r.bit_flips.is_empty(), "RRS must hold during measurement");
    }
    out.line(
        "\nThe all-bank attack gains 16× more targets but pays for it in\n\
         channel-serialized swaps — the paper's argument for why it is\n\
         *slower* overall (3.8 → 5.1 years at k = 6).",
    );
}
