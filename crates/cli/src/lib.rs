//! Implementation of the `rrs` command-line interface.
//!
//! The CLI wraps the [`rrs::experiments`] harness: every subcommand builds
//! an [`ExperimentConfig`] from the shared flags (`--scale`, `--instr`,
//! `--cores`, `--seed`) and prints a human-readable report. See
//! [`print_usage`] for the command reference.

use std::fmt;
use std::path::{Path, PathBuf};

use rrs::campaign::{Campaign, Cell, CellAction, RunOptions};
use rrs::experiments::{ExperimentConfig, MitigationKind};
use rrs::forensics::{saved_trace, ExportOptions, ExposureConfig, ExposureReport};
use rrs::sim::{SimResult, TraceSource};
use rrs::telemetry::{Telemetry, DEFAULT_TRACE_CAPACITY};
use rrs::workloads::catalog::{all_workloads, spec_by_name, table3_workloads, Workload};
use rrs::workloads::AttackKind;
use rrs_json::Json;

pub mod output;

use output::OutputKind;

/// A CLI-level error (message already formatted for the user).
#[derive(Debug)]
pub struct CliError(String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<String> for CliError {
    fn from(s: String) -> Self {
        CliError(s)
    }
}

impl From<&str> for CliError {
    fn from(s: &str) -> Self {
        CliError(s.to_string())
    }
}

/// Parsed flag set (`--key value` pairs plus bare switches).
#[derive(Debug, Default)]
pub struct Flags {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    /// Parses everything after the subcommand.
    pub fn parse(args: &[String]) -> Result<Flags, CliError> {
        let mut flags = Flags::default();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument {a:?}").into());
            };
            if let Some(value) = args.get(i + 1).filter(|v| !v.starts_with("--")) {
                flags.pairs.push((key.to_string(), value.clone()));
                i += 2;
            } else {
                flags.switches.push(key.to_string());
                i += 1;
            }
        }
        Ok(flags)
    }

    /// String value of `--key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Parsed numeric value of `--key`.
    pub fn get_num<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, CliError> {
        self.get(key)
            .map(|v| {
                v.parse::<T>()
                    .map_err(|_| CliError(format!("--{key} expects a number, got {v:?}")))
            })
            .transpose()
    }

    /// Whether the bare switch `--key` was given.
    pub fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// Sets `--key value` unless `--key value` was given.
    fn set_default(&mut self, key: &str, value: &str) {
        if self.get(key).is_none() {
            self.pairs.push((key.to_string(), value.to_string()));
        }
    }

    /// Rejects any flag outside the space-separated lists `values` (flags
    /// that take a value) and `switches` (flags that take none), so a typo
    /// or a retired option is an error rather than silently ignored.
    fn only(&self, values: &[&str], switches: &[&str]) -> Result<(), CliError> {
        let allowed = |lists: &[&str], key: &str| {
            lists
                .iter()
                .flat_map(|l| l.split_whitespace())
                .any(|k| k == key)
        };
        if let Some((key, value)) = self.pairs.iter().find(|(k, _)| !allowed(values, k)) {
            return Err(format!("unexpected flag --{key} {value}").into());
        }
        match self.switches.iter().find(|k| !allowed(switches, k)) {
            Some(key) if allowed(values, key) => Err(format!("--{key} expects a value").into()),
            Some(key) => Err(format!("unknown flag --{key}").into()),
            None => Ok(()),
        }
    }

    /// [`Flags::only`] for a verb that runs cells through the campaign
    /// engine: the shared and [`Flags::run_options`] flags, plus its own.
    fn only_run(&self, values: &str, switches: &str) -> Result<(), CliError> {
        self.only(
            &[SHARED, "threads out", values],
            &["force quiet trace", switches],
        )
    }

    /// Builds the experiment configuration from the shared flags.
    pub fn experiment(&self) -> Result<ExperimentConfig, CliError> {
        let mut cfg = ExperimentConfig::default();
        if let Some(scale) = self.get_num::<u64>("scale")? {
            if scale == 0 || 800 % scale != 0 {
                return Err(format!("--scale must divide 800, got {scale}").into());
            }
            cfg = cfg.with_scale(scale);
        }
        if let Some(instr) = self.get_num::<u64>("instr")? {
            cfg = cfg.with_instructions(instr);
        }
        if let Some(t_rh) = self.get_num::<u64>("t-rh")? {
            cfg = cfg.with_t_rh(t_rh);
        }
        if let Some(cores) = self.get_num::<usize>("cores")? {
            cfg.cores = cores.clamp(1, 64);
        }
        if let Some(seed) = self.get_num::<u64>("seed")? {
            cfg.seed = seed;
        }
        Ok(cfg)
    }

    /// Parses `--defense`.
    pub fn defense(&self) -> Result<MitigationKind, CliError> {
        parse_defense(self.get("defense").unwrap_or("rrs"))
    }

    /// Campaign execution options from the shared flags: `--threads N`,
    /// `--out DIR` (per-cell result cache, resume-on-rerun), `--force`,
    /// `--quiet`, `--trace` (save each cell's trace and exposure report
    /// under `--out`, which it requires; skips the result cache).
    pub fn run_options(&self) -> Result<RunOptions, CliError> {
        if self.has("trace") && self.get("out").is_none() {
            return Err("--trace needs --out DIR: traces are kept only as files".into());
        }
        Ok(RunOptions {
            threads: self.get_num::<usize>("threads")?,
            out_dir: self.get("out").map(std::path::PathBuf::from),
            force: self.has("force"),
            quiet: self.has("quiet"),
            trace: self.has("trace"),
        })
    }

    /// Parses `--workloads all|table3|N`, falling back to `default`.
    pub fn workload_pool(&self, default: &str) -> Result<Vec<Workload>, CliError> {
        Ok(match self.get("workloads").unwrap_or(default) {
            "all" => all_workloads(),
            "table3" => table3_workloads(),
            n => {
                let count: usize = n.parse().map_err(|_| {
                    CliError(format!("--workloads expects all|table3|N, got {n:?}"))
                })?;
                all_workloads().into_iter().take(count).collect()
            }
        })
    }
}

/// The flags [`Flags::experiment`] reads, which every simulating verb takes.
const SHARED: &str = "scale instr t-rh cores seed";

/// Maps a defense name to its kind.
pub fn parse_defense(name: &str) -> Result<MitigationKind, CliError> {
    Ok(match name {
        "none" => MitigationKind::None,
        "rrs" => MitigationKind::Rrs,
        "blockhammer" | "bh" | "bh-512" => MitigationKind::BlockHammer512,
        "bh-1k" => MitigationKind::BlockHammer1k,
        "vfm" | "victim-refresh" => MitigationKind::VictimRefresh,
        "graphene" => MitigationKind::Graphene,
        "para" => MitigationKind::Para,
        "prob-rrs" => MitigationKind::ProbabilisticRrs,
        other => {
            return Err(format!(
                "unknown defense {other:?} (none|rrs|bh-512|bh-1k|vfm|graphene|para|prob-rrs)"
            )
            .into())
        }
    })
}

/// Maps an attack name to its pattern (resolving `swap-chasing` against
/// the configured threshold).
pub fn parse_attack(name: &str, cfg: &ExperimentConfig) -> Result<AttackKind, CliError> {
    Ok(match name {
        "single-sided" => AttackKind::SingleSided,
        "double-sided" => AttackKind::DoubleSided,
        "half-double" => AttackKind::HalfDouble,
        "many-sided" => AttackKind::ManySided(6),
        "blacksmith" => AttackKind::Blacksmith { n: 6 },
        "swap-chasing" => cfg.swap_chasing_attack(),
        "dos" => AttackKind::Dos,
        "random" => AttackKind::UniformRandom,
        other => {
            return Err(format!(
                "unknown attack {other:?} (single-sided|double-sided|half-double|\
                 many-sided|blacksmith|swap-chasing|dos|random)"
            )
            .into())
        }
    })
}

fn print_run(r: &SimResult) {
    println!("workload     : {}", r.workload);
    println!("defense      : {}", r.mitigation);
    println!("instructions : {}", r.total_instructions);
    println!("cycles       : {}", r.cycles);
    println!("aggregate IPC: {:.3}", r.aggregate_ipc());
    println!("activations  : {}", r.stats.activations);
    println!(
        "row hits     : {} ({:.1}%)",
        r.stats.row_hits,
        100.0 * r.stats.row_hit_rate()
    );
    println!(
        "swaps        : {} (+{} unswaps)",
        r.stats.swaps, r.stats.unswaps
    );
    println!("victim refr. : {}", r.stats.targeted_refreshes);
    println!("delay cycles : {}", r.stats.mitigation_delay_cycles);
    println!("epochs       : {}", r.stats.epochs_completed);
    println!(
        "read latency : mean {:.0} / p50 {} / p95 {} / p99 {} / max {} cycles",
        r.read_latency.mean(),
        r.read_latency.p50(),
        r.read_latency.p95(),
        r.read_latency.p99(),
        r.read_latency.max()
    );
    println!("bit flips    : {}", r.bit_flips.len());
}

/// Executes a CLI invocation.
///
/// # Errors
///
/// Returns [`CliError`] for unknown commands, bad flags, or I/O failures.
pub fn dispatch(args: &[String]) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        print_usage();
        return Ok(());
    };
    if command == "figure" {
        return cmd_figure(&args[1..]);
    }
    let flags = Flags::parse(&args[1..])?;
    match command.as_str() {
        "run" => cmd_run(&flags),
        "attack" => cmd_attack(&flags),
        "sweep" => cmd_sweep(&flags),
        "campaign" => cmd_campaign(&flags),
        "forensics" => cmd_forensics(&flags),
        "bench-report" => cmd_bench_report(&flags),
        "capture" => cmd_capture(&flags),
        "replay" => cmd_replay(&flags),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command {other:?}").into()),
    }
}

fn cmd_run(flags: &Flags) -> Result<(), CliError> {
    flags.only_run("workload spec-file defense", "baseline")?;
    let cfg = flags.experiment()?;
    let name = flags.get("workload").unwrap_or("gcc");
    // `--spec-file` extends the catalog with user-defined workloads.
    let custom: Vec<rrs::workloads::WorkloadSpec> = match flags.get("spec-file") {
        Some(path) => rrs::workloads::load_specs(path).map_err(|e| CliError(e.to_string()))?,
        None => Vec::new(),
    };
    let spec = custom
        .iter()
        .find(|s| s.name == name)
        .copied()
        .or_else(|| spec_by_name(name))
        .ok_or_else(|| CliError(format!("unknown workload {name:?}")))?;
    let workload = Workload::Single(spec);
    let kind = flags.defense()?;
    // Even a single run goes through the campaign engine, so `--out`
    // caching and the derived per-cell seed match the figure harnesses.
    let mut opts = flags.run_options()?;
    opts.quiet = true;
    let mut campaign = Campaign::new();
    let cell = campaign.workload(cfg, workload, kind);
    let base_cell = flags
        .has("baseline")
        .then(|| campaign.workload(cfg, workload, MitigationKind::None));
    let run = campaign.run(&opts);
    print_run(run.get(cell));
    if let Some(base) = base_cell {
        println!("normalized   : {:.4}", run.normalized(cell, base));
    }
    Ok(())
}

fn cmd_attack(flags: &Flags) -> Result<(), CliError> {
    flags.only_run("pattern defense epochs", "")?;
    let cfg = flags.experiment()?;
    let attack = parse_attack(flags.get("pattern").unwrap_or("double-sided"), &cfg)?;
    let kind = flags.defense()?;
    let epochs = flags.get_num::<u64>("epochs")?.unwrap_or(2);
    let mut opts = flags.run_options()?;
    opts.quiet = true;
    let mut campaign = Campaign::new();
    let cell = campaign.attack(cfg, attack, kind, epochs);
    let run = campaign.run(&opts);
    let result = run.get(cell);
    print_run(result);
    println!(
        "verdict      : {}",
        if result.bit_flips.is_empty() {
            "defended"
        } else {
            "ATTACK SUCCEEDED (bit flips observed)"
        }
    );
    Ok(())
}

fn cmd_sweep(flags: &Flags) -> Result<(), CliError> {
    flags.only_run("defense workloads", "")?;
    let cfg = flags.experiment()?;
    let kind = flags.defense()?;
    let pool = flags.workload_pool("table3")?;
    let opts = flags.run_options()?;
    let mut campaign = Campaign::new();
    let pairs: Vec<(Workload, (usize, usize))> = pool
        .iter()
        .map(|w| (*w, campaign.normalized_pair(cfg, *w, kind)))
        .collect();
    let run = campaign.run(&opts);
    println!(
        "{:<14} {:>10} {:>12} {:>10}",
        "workload", "norm perf", "swaps/epoch", "flips"
    );
    let mut norms = Vec::new();
    for (w, (base, mitigated)) in &pairs {
        let r = run.get(*mitigated);
        let norm = run.normalized(*mitigated, *base);
        norms.push(norm);
        println!(
            "{:<14} {:>10.4} {:>12.1} {:>10}",
            w.name(),
            norm,
            r.stats.mean_swaps_per_epoch(),
            r.bit_flips.len()
        );
    }
    println!(
        "geomean slowdown: {:.2}%",
        (1.0 - rrs::experiments::geomean(&norms)) * 100.0
    );
    Ok(())
}

fn cmd_campaign(flags: &Flags) -> Result<(), CliError> {
    flags.only_run("workloads defenses attacks epochs", "")?;
    let cfg = flags.experiment()?;
    let pool = flags.workload_pool("table3")?;
    let kinds: Vec<MitigationKind> = flags
        .get("defenses")
        .unwrap_or("none,rrs")
        .split(',')
        .map(|d| parse_defense(d.trim()))
        .collect::<Result<_, _>>()?;
    let attacks: Vec<AttackKind> = match flags.get("attacks") {
        Some(list) => list
            .split(',')
            .map(|a| parse_attack(a.trim(), &cfg))
            .collect::<Result<_, _>>()?,
        None => Vec::new(),
    };
    let epochs = flags.get_num::<u64>("epochs")?.unwrap_or(2);
    let mut opts = flags.run_options()?;
    if opts.out_dir.is_none() {
        opts.out_dir = Some("results".into());
    }

    let mut campaign = Campaign::new();
    for kind in &kinds {
        for w in &pool {
            campaign.workload(cfg, *w, *kind);
        }
        for attack in &attacks {
            campaign.attack(cfg, *attack, *kind, epochs);
        }
    }
    eprintln!(
        "campaign: {} cells ({} workloads x {} defenses{}), {} threads, cache {}",
        campaign.len(),
        pool.len(),
        kinds.len(),
        if attacks.is_empty() {
            String::new()
        } else {
            format!(" + {} attacks", attacks.len())
        },
        opts.resolve_threads(),
        opts.out_dir
            .as_deref()
            .unwrap_or_else(|| "off".as_ref())
            .display(),
    );
    let run = campaign.run(&opts);

    println!(
        "{:<44} {:>9} {:>12} {:>8} {:>7}",
        "cell", "agg IPC", "swaps/epoch", "flips", "cached"
    );
    println!("{}", "-".repeat(84));
    for outcome in run.outcomes() {
        let r = &outcome.result;
        println!(
            "{:<44} {:>9.3} {:>12.1} {:>8} {:>7}",
            outcome.id,
            r.aggregate_ipc(),
            r.stats.mean_swaps_per_epoch(),
            r.bit_flips.len(),
            if outcome.from_cache { "yes" } else { "no" }
        );
    }
    let cached = run.outcomes().iter().filter(|o| o.from_cache).count();
    // `.max(0.0)` because summing an empty iterator of f64 yields -0.0,
    // which would print as "-0.0s" on a fully cached run.
    let simulated: f64 = run
        .outcomes()
        .iter()
        .filter(|o| !o.from_cache)
        .map(|o| o.seconds)
        .sum::<f64>()
        .max(0.0);
    println!(
        "{} cells: {} cached, {} simulated ({:.1}s of cell time)",
        run.len(),
        cached,
        run.len() - cached,
        simulated
    );
    report_write_errors(&run.write_errors())
}

/// Lists the files (campaign cells, figure text) that could not be
/// written; any such failure makes the command fail once everything else
/// has finished.
fn report_write_errors(errors: &[String]) -> Result<(), CliError> {
    if errors.is_empty() {
        return Ok(());
    }
    for e in errors {
        eprintln!("  {e}");
    }
    Err(format!("{} result(s) could not be written", errors.len()).into())
}

/// `rrs figure <name|all> [flags]`: renders registry entries, printing
/// each and writing `<out>/<name>.txt` (and `<out>/<name>.csv` for
/// per-workload series).
fn cmd_figure(args: &[String]) -> Result<(), CliError> {
    use bench::figures::{self, FigureArgs, Output, FIGURES};
    let names = || FIGURES.iter().map(|f| f.name).collect::<Vec<_>>().join("|");
    let Some((name, rest)) = args.split_first() else {
        return Err(format!("figure expects a name: all|{}", names()).into());
    };
    let selected: Vec<&figures::Figure> = if name == "all" {
        FIGURES.iter().collect()
    } else {
        vec![figures::find(name)
            .ok_or_else(|| CliError(format!("unknown figure {name:?} (all|{})", names())))?]
    };
    let mut flags = Flags::parse(rest)?;
    flags.only(
        &["scale instr workloads epochs threads out"],
        &["force quiet"],
    )?;
    // The figures' own defaults: a 1/100 time scale, 2 M instructions per
    // core, and the shared `results/` cell cache.
    flags.set_default("scale", "100");
    flags.set_default("instr", "2000000");
    flags.set_default("out", "results");
    let config = flags.experiment()?;
    let epochs = flags.get_num::<u64>("epochs")?.unwrap_or(2);
    let run_opts = flags.run_options()?;
    flags.workload_pool("all")?; // a bad --workloads fails before any rendering
    let dir = PathBuf::from(flags.get("out").unwrap_or("results"));
    let write = |file: String, text: &str| {
        let path = dir.join(file);
        let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text));
        if written.is_ok() && !run_opts.quiet {
            eprintln!("wrote {}", path.display());
        }
        written
            .err()
            .map(|e| format!("cannot write {}: {e}", path.display()))
    };
    let mut write_errors = Vec::new();
    for (i, figure) in selected.iter().enumerate() {
        let args = FigureArgs {
            config,
            workloads: flags.workload_pool(figure.workloads)?,
            epochs,
        };
        let mut out = Output::new(run_opts.clone());
        (figure.render)(&args, &mut out);
        if i > 0 {
            println!();
        }
        print!("{}", out.text);
        write_errors.append(&mut out.write_errors);
        write_errors.extend(write(format!("{}.txt", figure.name), &out.text));
        if !out.csv.is_empty() {
            write_errors.extend(write(format!("{}.csv", figure.name), &out.csv_text()));
        }
    }
    report_write_errors(&write_errors)
}

/// Runs one cell on a tracing spine, as `rrs campaign --trace` runs it
/// (same cell, same seed): an attack `--pattern` over `--epochs` windows
/// (default 1), otherwise the benign `--workload` (default gcc). Prints the
/// run, its event kinds and counters, and saves the trace (`--out`) and the
/// registry snapshot (`--summary`). The exposure report warns of drops.
fn run_traced(flags: &Flags, config: ExperimentConfig) -> Result<Telemetry, CliError> {
    let capacity = flags
        .get_num::<usize>("capacity")?
        .unwrap_or(DEFAULT_TRACE_CAPACITY);
    let action = match flags.get("pattern") {
        Some(pattern) => CellAction::Attack {
            kind: parse_attack(pattern, &config)?,
            epochs: flags.get_num("epochs")?.unwrap_or(1),
        },
        None => {
            let name = flags.get("workload").unwrap_or("gcc");
            let spec =
                spec_by_name(name).ok_or_else(|| CliError(format!("unknown workload {name:?}")))?;
            CellAction::Workload(Workload::Single(spec))
        }
    };
    let mitigation = flags.defense()?;
    let cell = Cell {
        config,
        action,
        mitigation,
    };
    let spine = Telemetry::with_trace(capacity);
    print_run(&cell.prepare().run(&spine));
    println!(
        "events       : {} recorded, {} dropped (capacity {capacity})",
        spine.events_recorded(),
        spine.events_dropped()
    );
    for (event, n) in spine.event_kind_counts() {
        println!("  {event:<18} {n}");
    }
    println!("counters     :");
    for (name, value) in spine.counters() {
        println!("  {name:<28} {value}");
    }
    if let Some(path) = flags.get("out") {
        let text = saved_trace(&spine, capacity);
        let path = output::write_as(path, OutputKind::TraceJsonl, &text)?;
        println!("trace        : {} (JSON lines)", path.display());
    }
    if let Some(path) = flags.get("summary") {
        let text = spine.snapshot_json().to_string_pretty();
        let path = output::write_as(path, OutputKind::Json, &text)?;
        println!("summary      : {}", path.display());
    }
    Ok(spine)
}

/// `rrs forensics`: the one traced-cell verb. Audits per-row exposure of
/// a saved trace (`--trace FILE`) or of a fresh traced run.
fn cmd_forensics(flags: &Flags) -> Result<(), CliError> {
    // A saved trace is audited as it is: the flags that shape a run are errors.
    let saved = flags.get("trace");
    let source = match saved {
        Some(_) => "trace",
        None => "pattern workload defense epochs capacity out summary",
    };
    flags.only(
        &[SHARED, "threshold slack report perfetto", source],
        &["acts"],
    )?;
    let cfg = flags.experiment()?;
    let (events, dropped) = match saved {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError(format!("reading {path}: {e}")))?;
            let parsed =
                rrs::forensics::parse_jsonl(&text).map_err(|e| CliError(format!("{path}: {e}")))?;
            println!("trace        : {path} ({} events)", parsed.events.len());
            (parsed.events, parsed.header.map(|h| h.events_dropped))
        }
        None => {
            let spine = run_traced(flags, cfg)?;
            (spine.events(), Some(spine.events_dropped()))
        }
    };
    let mut config =
        ExposureConfig::at_threshold(flags.get_num("threshold")?.unwrap_or(cfg.t_rrs()));
    if let Some(slack) = flags.get_num("slack")? {
        config.slack = slack;
    }
    let report = ExposureReport::reconstruct(&events, config, dropped);
    print!("{}", report.render_text());
    if let Some(path) = flags.get("report") {
        let path = output::write_as(path, OutputKind::Json, &report.to_json().to_string_pretty())?;
        println!("report       : {}", path.display());
    }
    if let Some(path) = flags.get("perfetto") {
        let opts = ExportOptions {
            activations: flags.has("acts"),
        };
        let text = rrs::forensics::export_trace(&events, &opts);
        let path = output::write_as(path, OutputKind::Json, &text)?;
        println!(
            "perfetto     : {} (load in ui.perfetto.dev)",
            path.display()
        );
    }
    Ok(())
}

/// Reads the current commit hash from `.git` (no subprocess), walking up
/// from the working directory; `"unknown"` when unavailable.
fn git_rev() -> String {
    fn from_repo(git: &Path) -> Option<String> {
        let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
        let head = head.trim();
        let Some(refname) = head.strip_prefix("ref: ") else {
            return Some(head.to_string()); // detached HEAD: a raw hash
        };
        if let Ok(hash) = std::fs::read_to_string(git.join(refname)) {
            return Some(hash.trim().to_string());
        }
        // Refs may only exist packed.
        let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
        packed.lines().find_map(|line| {
            line.strip_suffix(refname)
                .map(|hash| hash.trim().to_string())
        })
    }
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let git = dir.join(".git");
        if git.is_dir() {
            if let Some(hash) = from_repo(&git) {
                let short: String = hash.chars().take(12).collect();
                return short;
            }
            break;
        }
        if !dir.pop() {
            break;
        }
    }
    "unknown".to_string()
}

/// Finds the most recent prior `BENCH_*.json` snapshot in `dir` (highest
/// numeric suffix, excluding `current`).
fn find_prior_snapshot(dir: &Path, current: &Path) -> Option<PathBuf> {
    let entries = std::fs::read_dir(dir).ok()?;
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        if path.file_name() == current.file_name() {
            continue;
        }
        let digits: String = name.chars().filter(|c| c.is_ascii_digit()).collect();
        let n: u64 = digits.parse().unwrap_or(0);
        if best.as_ref().is_none_or(|(b, _)| n > *b) {
            best = Some((n, path));
        }
    }
    best.map(|(_, p)| p)
}

fn cmd_bench_report(flags: &Flags) -> Result<(), CliError> {
    flags.only(&["out gate baseline"], &["smoke"])?;
    let smoke = flags.has("smoke");
    let out_raw = flags
        .get("out")
        .ok_or_else(|| CliError::from("bench-report requires --out <file>"))?;
    let out_path = output::resolve(out_raw, OutputKind::Json);
    // --gate PCT is the CI form: it sets the regression threshold AND makes
    // any crossing (or a missing/unreadable baseline) a non-zero exit.
    let gate = flags.get_num::<f64>("gate")?;

    // Read --baseline, or the most recent prior snapshot, before the suite
    // runs. Absent or malformed priors are reported, never fatal — unless
    // gating, where a gate with nothing to gate against fails at once.
    let dir = out_path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf);
    let prior_path = flags
        .get("baseline")
        .map(PathBuf::from)
        .or_else(|| find_prior_snapshot(&dir, &out_path));
    let prior = match prior_path {
        None if gate.is_some() => {
            return Err("bench gate: no baseline BENCH_*.json snapshot found".into())
        }
        None => {
            println!("no prior BENCH_*.json snapshot to diff against");
            None
        }
        Some(path) => match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(&t).map_err(|e| e.to_string()))
        {
            Ok(json) => Some((path, json)),
            Err(e) if gate.is_some() => {
                return Err(
                    format!("bench gate: cannot read baseline {}: {e}", path.display()).into(),
                )
            }
            Err(e) => {
                println!("cannot diff against {}: {e}", path.display());
                None
            }
        },
    };

    if smoke {
        println!("bench-report: smoke mode (tiny measurement budget; numbers are schema checks, not data)");
    }
    let mut h = bench::harness::Harness::programmatic(smoke);
    bench::suite::smoke(&mut h);
    let rev = git_rev();
    let benches: Vec<(String, Json)> = h
        .records()
        .iter()
        .map(|r| {
            (
                r.name.clone(),
                Json::Obj(vec![
                    (
                        "median_ns".to_string(),
                        Json::f64((r.ns_per_iter * 100.0).round() / 100.0),
                    ),
                    (
                        "iqr_ns".to_string(),
                        Json::f64((r.iqr_ns * 100.0).round() / 100.0),
                    ),
                    ("iters".to_string(), Json::u64(r.iters)),
                    ("samples".to_string(), Json::u64(r.samples as u64)),
                    ("git_rev".to_string(), Json::str(&rev)),
                ]),
            )
        })
        .collect();
    let doc = Json::Obj(vec![
        ("schema".to_string(), Json::str("rrs-bench-v1")),
        (
            "mode".to_string(),
            Json::str(if smoke { "smoke" } else { "full" }),
        ),
        ("git_rev".to_string(), Json::str(&rev)),
        ("benches".to_string(), Json::Obj(benches)),
    ]);
    output::write(&out_path, &doc.to_string_pretty())?;
    println!(
        "wrote {} ({} benches, rev {rev})",
        out_path.display(),
        h.records().len()
    );

    let Some((prior_path, prior)) = prior else {
        return Ok(());
    };
    println!("diff vs {}:", prior_path.display());
    let (report, regressions) = bench_diff(h.records(), &prior, gate);
    println!("{report}");
    if gate.is_some() && regressions > 0 {
        return Err(format!("{regressions} benchmark regression(s) over threshold").into());
    }
    Ok(())
}

/// Diffs suite `records` against a `prior` snapshot: one line per bench
/// (`new` when the prior lacks it), then every prior entry the suite no
/// longer runs as `removed` — listed, never gated, since silently dropping
/// it would hide a benchmark's removal. A median more than `gate` percent
/// (10% without a gate) above its prior is a regression. Returns the
/// report and the number of regressions.
fn bench_diff(
    records: &[bench::harness::Record],
    prior: &Json,
    gate: Option<f64>,
) -> (String, usize) {
    let regress_pct = gate.unwrap_or(10.0);
    let mut lines = Vec::new();
    let mut regressions = 0usize;
    for r in records {
        let prior_ns = prior
            .get("benches")
            .and_then(|b| b.get(&r.name))
            .and_then(|b| b.get("median_ns"))
            .and_then(Json::as_f64)
            .filter(|v| v.is_finite() && *v > 0.0);
        match prior_ns {
            Some(p) => {
                let pct = (r.ns_per_iter - p) / p * 100.0;
                let flag = if pct > regress_pct {
                    regressions += 1;
                    "  REGRESSION"
                } else {
                    ""
                };
                lines.push(format!("  {:<40} {:>+8.1}%{flag}", r.name, pct));
            }
            None => lines.push(format!("  {:<40}      new", r.name)),
        }
    }
    if let Some(Json::Obj(prior_benches)) = prior.get("benches") {
        for (name, _) in prior_benches {
            if !records.iter().any(|r| r.name == *name) {
                lines.push(format!("  {name:<40}  removed"));
            }
        }
    }
    if regressions > 0 {
        lines.push(format!(
            "{regressions} benchmark(s) regressed more than {regress_pct:.0}% \
             (timing noise is expected in smoke mode)"
        ));
    }
    (lines.join("\n"), regressions)
}

fn cmd_capture(flags: &Flags) -> Result<(), CliError> {
    flags.only(&[SHARED, "workload records out"], &["text"])?;
    let cfg = flags.experiment()?;
    let name = flags.get("workload").unwrap_or("gcc");
    let spec = spec_by_name(name).ok_or_else(|| CliError(format!("unknown workload {name:?}")))?;
    let records: usize = flags.get_num("records")?.unwrap_or(100_000);
    let out = flags.get("out").unwrap_or("trace.rrst").to_string();
    let sys = cfg.system_config();
    let mut generator = rrs::workloads::generator::SyntheticWorkload::new(&spec, 0, &sys, cfg.seed);
    let trace = rrs_trace::capture(&mut generator, records);
    let format = if flags.has("text") {
        rrs_trace::TraceFormat::Text
    } else {
        rrs_trace::TraceFormat::Binary
    };
    rrs_trace::save(&out, &trace, format).map_err(|e| CliError(e.to_string()))?;
    println!("captured {} records of {} into {}", trace.len(), name, out);
    Ok(())
}

fn cmd_replay(flags: &Flags) -> Result<(), CliError> {
    flags.only(&[SHARED, "trace defense"], &[])?;
    let cfg = flags.experiment()?;
    let path = flags
        .get("trace")
        .ok_or_else(|| CliError("replay requires --trace <file>".into()))?;
    let records = rrs_trace::load(path).map_err(|e| CliError(e.to_string()))?;
    if records.is_empty() {
        return Err("trace file contains no records".into());
    }
    let kind = flags.defense()?;
    let sys = cfg.system_config();
    let sources: Vec<Box<dyn TraceSource>> = (0..sys.cores)
        .map(|_| {
            Box::new(rrs_trace::ReplaySource::new(records.clone(), path)) as Box<dyn TraceSource>
        })
        .collect();
    let mitigation = cfg.build_mitigation(kind);
    let result = rrs::sim::run_probed(&sys, mitigation, sources, path, &Telemetry::new());
    print_run(&result);
    Ok(())
}

/// Prints the command reference.
pub fn print_usage() {
    let names: Vec<&str> = bench::figures::FIGURES.iter().map(|f| f.name).collect();
    let figures = names
        .chunks(5)
        .map(|c| c.join(" | "))
        .collect::<Vec<_>>()
        .join(" |\n          ");
    println!(
        "rrs — Randomized Row-Swap (ASPLOS 2022) reproduction CLI

USAGE:
    rrs <command> [flags]

COMMANDS:
    run      --workload <name> --defense <d> [--baseline]
             [--spec-file <file>]                            benign workload run
    attack   --pattern <p> --defense <d> [--epochs N]       attack campaign
    sweep    --defense <d> [--workloads all|table3|N]       normalized-perf sweep
    campaign [--workloads all|table3|N] [--defenses d1,d2]
             [--attacks p1,p2] [--epochs N]                 declarative grid run
             (cells execute in parallel; results cached under --out,
              default results/, and reruns skip finished cells)
    forensics [--pattern <p> | --workload <name>] [--defense <d>] [--epochs N]
             [--capacity N] [--out <file.jsonl>] [--summary <file.json>]
             | --trace <file.jsonl>
             [--threshold N] [--slack N] [--report <out.json>]
             [--perfetto <out.json>] [--acts]
             run one cell traced (the cell run/attack/campaign simulate;
             prints its counters, saves the trace and registry snapshot)
             or read a saved trace, then audit max activations per
             residency vs T_RRS + slack: pass | fail | inconclusive
             (events dropped or unknown); optional Perfetto export
    bench-report --out FILE [--smoke] [--gate PCT] [--baseline FILE]
             run the smoke tier of the bench registry, snapshot its
             medians to FILE (a BENCH_*.json), diff against --baseline
             (default: the most recent other BENCH_*.json beside FILE)
             and flag regressions over 10%; --gate PCT flags them over
             PCT% and exits non-zero on any, or when no baseline can
             be read; --smoke shortens measurement (CI speed)
    capture  --workload <name> --records N --out <file> [--text]
    replay   --trace <file> --defense <d>                   replay a trace file
    figure   <name|all> [--scale N] [--instr N] [--workloads all|table3|N]
             [--epochs N] [--threads N] [--out DIR] [--force] [--quiet]
             render a paper table/figure: print it and write
             <out>/<name>.txt (+ <name>.csv for per-workload series);
             defaults --scale 100 --instr 2000000 --epochs 2 --out results
             and each figure's own workload pool (names below)
    help

SHARED FLAGS:
    --scale N    time-scale factor (divides 800; default 32; 1 = paper scale)
    --instr N    instructions per core
    --t-rh N     full-scale Row Hammer threshold (default 4800)
    --cores N    cores (default 8)
    --seed N     experiment seed
    --threads N  campaign worker threads (default: RAYON_NUM_THREADS, then
                 available parallelism)
    --out DIR    per-cell result cache (resume-on-rerun)
    --force      re-run cells even when cached
    --quiet      suppress per-cell progress lines
    --trace      trace campaign cells (needs --out; skips the result cache;
                 writes <cell>.trace.jsonl and <cell>.forensics.json next
                 to <cell>.json)

DEFENSES: none | rrs | bh-512 | bh-1k | vfm | graphene | para | prob-rrs
ATTACKS : single-sided | double-sided | half-double | many-sided |
          blacksmith | swap-chasing | dos | random
FIGURES : {figures}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn flags_parse_pairs_and_switches() {
        let f = Flags::parse(&argv("--scale 100 --baseline --workload hmmer")).unwrap();
        assert_eq!(f.get("scale"), Some("100"));
        assert_eq!(f.get("workload"), Some("hmmer"));
        assert!(f.has("baseline"));
        assert!(!f.has("scale"));
    }

    #[test]
    fn bad_flag_values_are_reported() {
        let f = Flags::parse(&argv("--scale banana")).unwrap();
        assert!(f.experiment().is_err());
        let f = Flags::parse(&argv("--scale 7")).unwrap();
        assert!(f.experiment().is_err(), "7 does not divide 800");
    }

    #[test]
    fn positional_arguments_rejected() {
        assert!(Flags::parse(&argv("oops")).is_err());
    }

    #[test]
    fn defense_and_attack_names_resolve() {
        for d in [
            "none", "rrs", "bh-512", "bh-1k", "vfm", "graphene", "para", "prob-rrs",
        ] {
            assert!(parse_defense(d).is_ok(), "{d}");
        }
        assert!(parse_defense("magic").is_err());
        let cfg = ExperimentConfig::smoke_test();
        for a in [
            "single-sided",
            "double-sided",
            "half-double",
            "many-sided",
            "blacksmith",
            "swap-chasing",
            "dos",
            "random",
        ] {
            assert!(parse_attack(a, &cfg).is_ok(), "{a}");
        }
        assert!(parse_attack("nope", &cfg).is_err());
    }

    #[test]
    fn dispatch_rejects_unknown_commands() {
        assert!(dispatch(&argv("frobnicate")).is_err());
        // `trace` is not a verb: `rrs forensics` runs traced cells.
        assert!(dispatch(&argv("trace --workload hmmer")).is_err());
    }

    #[test]
    fn end_to_end_attack_command() {
        let args = argv("attack --pattern double-sided --defense rrs --scale 200 --epochs 1");
        dispatch(&args).unwrap();
    }

    #[test]
    fn campaign_command_runs_and_caches() {
        let dir = std::env::temp_dir().join("rrs_cli_campaign");
        let _ = std::fs::remove_dir_all(&dir);
        let cmd = format!(
            "campaign --workloads 2 --defenses none,rrs --scale 200 --instr 20000 \
             --cores 2 --quiet --out {}",
            dir.display()
        );
        dispatch(&argv(&cmd)).unwrap();
        let cached = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(cached, 4, "2 workloads x 2 defenses must be cached");
        // Rerun resumes from the cache (and still succeeds).
        dispatch(&argv(&cmd)).unwrap();
        assert!(dispatch(&argv("campaign --defenses bogus --quiet")).is_err());
    }

    #[test]
    fn sweep_command_uses_campaign() {
        let args =
            argv("sweep --defense rrs --workloads 1 --scale 200 --instr 20000 --cores 2 --quiet");
        dispatch(&args).unwrap();
    }

    #[test]
    fn spec_file_workloads_run() {
        let dir = std::env::temp_dir().join("rrs_cli_spec");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("custom.spec");
        std::fs::write(
            &path,
            "workload tiny
footprint_mb 64
mpki 12
",
        )
        .unwrap();
        let cmd = format!(
            "run --workload tiny --spec-file {} --scale 200 --instr 50000 --cores 2",
            path.display()
        );
        dispatch(&argv(&cmd)).unwrap();
        // Unknown name still errors, even with a spec file present.
        let bad = format!(
            "run --workload nope --spec-file {} --scale 200",
            path.display()
        );
        assert!(dispatch(&argv(&bad)).is_err());
    }

    fn read(path: &Path) -> String {
        std::fs::read_to_string(path).unwrap()
    }

    fn verdict(report: &Path) -> String {
        let rep = Json::parse(&read(report)).unwrap();
        rep.get("verdict")
            .and_then(Json::as_str)
            .unwrap()
            .to_string()
    }

    #[test]
    fn forensics_out_writes_json_lines() {
        let dir = std::env::temp_dir().join("rrs_cli_trace");
        std::fs::create_dir_all(&dir).unwrap();
        // A ".json" trace path is corrected to ".jsonl".
        let wrong = dir.join("hmmer.json");
        let summary = dir.join("hmmer.summary.json");
        let cmd = format!(
            "forensics --workload hmmer --defense rrs --scale 200 --instr 20000 \
             --cores 2 --out {} --summary {}",
            wrong.display(),
            summary.display()
        );
        dispatch(&argv(&cmd)).unwrap();
        assert!(!wrong.exists(), "mislabelled path must not be written");
        let trace = read(&dir.join("hmmer.jsonl"));
        for line in trace.lines() {
            assert!(line.starts_with("{\"kind\":"), "bad event line: {line}");
        }
        // The first line is the trace_header bookkeeping record, and the
        // whole file parses through the forensics reader.
        assert!(trace.starts_with("{\"kind\":\"trace_header\""));
        let parsed = rrs::forensics::parse_jsonl(&trace).unwrap();
        let header = parsed.header.expect("saved traces carry a header");
        assert!(!parsed.events.is_empty(), "trace must record events");
        assert_eq!(
            parsed.events.len() as u64,
            header.events_recorded - header.events_dropped
        );
        // The summary is a JSON registry snapshot.
        assert!(Json::parse(&read(&summary)).is_ok());
    }

    /// A misspelt flag fails every verb before anything runs or is written,
    /// and `--trace` needs `--out`: traces are kept only as files.
    #[test]
    fn every_verb_rejects_unknown_flags() {
        for verb in [
            "run",
            "attack --pattern double-sided",
            "sweep",
            "campaign",
            "forensics",
            "forensics --trace /nonexistent.jsonl",
            "capture --out /nonexistent/never.rrst",
            "replay --trace /nonexistent.rrst",
            "figure table1",
            "bench-report --out /nonexistent/BENCH_X.json",
        ] {
            let cmd = format!("{verb} --defence none --scale 200");
            let err = dispatch(&argv(&cmd)).expect_err(&cmd).to_string();
            assert!(err.contains("--defence"), "{cmd}: {err}");
        }
        // A saved trace is audited, not re-run: run-only flags are errors.
        let cmd = "forensics --trace /nonexistent.jsonl --pattern random";
        assert!(dispatch(&argv(cmd)).is_err());
        for verb in ["run", "attack", "sweep", "campaign"] {
            let err = dispatch(&argv(&format!("{verb} --trace"))).unwrap_err();
            assert!(err.to_string().contains("--out"), "{verb}: {err}");
        }
    }

    /// RRS bounds exposure and no defense does not. With a 1000-event ring
    /// the attack drops events: a bounded exposure on the retained suffix
    /// proves nothing, but an excess is real.
    #[test]
    fn forensics_pattern_verdicts_flip_with_the_defense() {
        let dir = std::env::temp_dir().join("rrs_cli_forensics");
        let _ = std::fs::remove_dir_all(&dir);
        let perfetto = dir.join("out.json");
        for (defense, capacity, want) in [
            ("rrs", 1 << 20, "pass"),
            ("none", 1 << 20, "fail"),
            ("rrs", 1000, "inconclusive"),
            ("none", 1000, "fail"),
        ] {
            let report = dir.join(format!("{defense}_{capacity}.json"));
            let cmd = format!(
                "forensics --pattern double-sided --defense {defense} --capacity {capacity} \
                 --scale 200 --cores 2 --epochs 1 --report {} --perfetto {}",
                report.display(),
                perfetto.display()
            );
            dispatch(&argv(&cmd)).unwrap();
            assert_eq!(verdict(&report), want, "{defense} with capacity {capacity}");
        }
        let doc = Json::parse(&read(&perfetto)).unwrap();
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert!(!events.is_empty(), "perfetto export has tracks");
    }

    /// `rrs forensics --out` and a traced campaign cell run the same seeded
    /// cell, so they write byte-identical traces and reports, and
    /// re-auditing the saved trace reproduces the report.
    #[test]
    fn forensics_reads_saved_traces() {
        let dir = std::env::temp_dir().join("rrs_cli_forensics_file");
        let _ = std::fs::remove_dir_all(&dir);
        let shared = "--scale 200 --cores 2 --instr 20000";
        for (name, fresh, traced) in [
            (
                "random",
                "forensics --pattern random --defense rrs --epochs 1",
                "campaign --workloads 0 --attacks random --defenses rrs --epochs 1",
            ),
            (
                "hmmer",
                "forensics --workload hmmer --defense rrs",
                "run --workload hmmer --defense rrs",
            ),
        ] {
            let trace = dir.join(format!("{name}.trace.jsonl"));
            let report = dir.join(format!("{name}.json"));
            let cmd = format!(
                "{fresh} {shared} --out {} --report {}",
                trace.display(),
                report.display()
            );
            dispatch(&argv(&cmd)).unwrap();
            let cells = dir.join(name);
            let cmd = format!(
                "{traced} {shared} --trace --quiet --out {}",
                cells.display()
            );
            dispatch(&argv(&cmd)).unwrap();
            let written = |suffix: &str| {
                let file = std::fs::read_dir(&cells)
                    .unwrap()
                    .map(|e| e.unwrap().path())
                    .find(|p| p.to_string_lossy().ends_with(suffix))
                    .unwrap();
                read(&file)
            };
            assert_eq!(
                read(&trace),
                written(".trace.jsonl"),
                "{name}: traces differ"
            );
            assert_eq!(read(&report), written(".forensics.json"), "{name}");

            let replayed = dir.join(format!("{name}.replay.json"));
            let cmd = format!(
                "forensics --trace {} --scale 200 --report {}",
                trace.display(),
                replayed.display()
            );
            dispatch(&argv(&cmd)).unwrap();
            assert_eq!(read(&report), read(&replayed), "{name}: re-audit differs");
        }
        // A missing file errors cleanly.
        assert!(dispatch(&argv("forensics --trace /nonexistent.jsonl")).is_err());
    }

    #[test]
    fn bench_report_smoke_writes_schema_and_diffs() {
        let dir = std::env::temp_dir().join("rrs_cli_bench_report");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // The most recent other snapshot beside --out is the diff's prior.
        std::fs::write(
            dir.join("BENCH_PR3.json"),
            r#"{"schema":"rrs-bench-v1","benches":{"prince/encrypt":{"median_ns":1000000}}}"#,
        )
        .unwrap();
        let out = dir.join("BENCH_PR4.json");
        let cmd = format!("bench-report --smoke --gate 100000 --out {}", out.display());
        dispatch(&argv(&cmd)).unwrap();
        let doc = rrs_json::Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some("rrs-bench-v1")
        );
        let benches = doc.get("benches").unwrap();
        let rrs_json::Json::Obj(entries) = benches else {
            panic!("benches must be an object");
        };
        assert!(entries.len() >= 8, "suite covers the layers");
        for (name, entry) in entries {
            assert!(
                entry.get("median_ns").and_then(|v| v.as_f64()).unwrap() > 0.0,
                "{name}"
            );
            assert!(entry.get("iqr_ns").and_then(|v| v.as_f64()).unwrap() >= 0.0);
            assert!(entry.get("iters").and_then(|v| v.as_u64()).unwrap() > 0);
            assert!(entry.get("samples").and_then(|v| v.as_u64()).unwrap() >= 5);
            assert!(entry.get("git_rev").and_then(|v| v.as_str()).is_some());
        }
    }

    fn record(name: &str, ns_per_iter: f64) -> bench::harness::Record {
        bench::harness::Record {
            name: name.to_string(),
            ns_per_iter,
            iqr_ns: 0.0,
            iters: 1,
            samples: 5,
        }
    }

    #[test]
    fn bench_report_gate_exits_nonzero_on_regression() {
        let dir = std::env::temp_dir().join("rrs_cli_bench_gate");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("BENCH_GATE_OUT.json");

        // Gate with no baseline anywhere, or an unreadable one: must fail
        // before the suite runs (nothing is written), a silent pass is useless.
        let cmd = format!("bench-report --smoke --gate 50 --out {}", out.display());
        assert!(dispatch(&argv(&cmd)).is_err());
        let cmd = format!(
            "bench-report --smoke --gate 50 --baseline {} --out {}",
            dir.join("BENCH_MISSING.json").display(),
            out.display()
        );
        assert!(dispatch(&argv(&cmd)).is_err());
        assert!(!out.exists(), "a failed gate setup must not write");

        let records = [record("prince/encrypt", 90.0), record("new/bench", 5.0)];
        // A baseline entry the suite no longer runs is reported as removed,
        // not gated; a bench the baseline lacks is new.
        let prior = rrs_json::Json::parse(
            r#"{"schema":"rrs-bench-v1","benches":{"prince/encrypt":{"median_ns":100},"retired/bench":{"median_ns":1.0}}}"#,
        )
        .unwrap();
        let (report, regressions) = bench_diff(&records, &prior, Some(50.0));
        assert_eq!(regressions, 0, "{report}");
        let line = |name: &str| report.lines().find(|l| l.contains(name)).unwrap();
        assert!(line("retired/bench").ends_with("removed"), "{report}");
        assert!(line("new/bench").ends_with("new"), "{report}");
        assert!(line("prince/encrypt").ends_with("-10.0%"), "{report}");

        // A baseline with an absurdly fast median is a regression over any
        // threshold, and without a gate the label threshold is 10%.
        let doctored = rrs_json::Json::parse(
            r#"{"schema":"rrs-bench-v1","benches":{"prince/encrypt":{"median_ns":0.0001}}}"#,
        )
        .unwrap();
        let (report, regressions) = bench_diff(&records, &doctored, Some(50.0));
        assert_eq!(regressions, 1);
        assert!(report.contains("REGRESSION"));
        let (_, regressions) = bench_diff(&records[..1], &prior, None);
        assert_eq!(regressions, 0, "-10% is no regression");
        let slower = [record("prince/encrypt", 115.0)];
        assert_eq!(bench_diff(&slower, &prior, None).1, 1, "+15% is over 10%");
        assert_eq!(bench_diff(&slower, &prior, Some(20.0)).1, 0);
    }

    #[test]
    fn bench_report_rejects_missing_out_and_unknown_flags() {
        let dir = std::env::temp_dir().join("rrs_cli_bench_flags");
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.join("BENCH_FLAGS.json");
        assert!(dispatch(&argv("bench-report --smoke")).is_err());
        // The retired --threshold/--strict, and a flag it never had.
        for flag in ["--threshold 5", "--strict", "--quick"] {
            let cmd = format!("bench-report --smoke {flag} --out {}", out.display());
            assert!(dispatch(&argv(&cmd)).is_err(), "{flag}");
        }
        assert!(!dir.exists(), "a rejected command must not write");
    }

    #[test]
    fn capture_and_replay_round_trip() {
        let dir = std::env::temp_dir().join("rrs_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cap.rrst");
        let cap = format!(
            "capture --workload gcc --records 5000 --scale 200 --out {}",
            path.display()
        );
        dispatch(&argv(&cap)).unwrap();
        let rep = format!(
            "replay --trace {} --defense rrs --scale 200 --instr 20000 --cores 2",
            path.display()
        );
        dispatch(&argv(&rep)).unwrap();
    }
}
