//! Declarative experiment campaigns: the one grid runner behind every
//! figure, table, and sweep.
//!
//! Every result the repo reports is some grid of *cells* — a workload or
//! attack, a mitigation, and an [`ExperimentConfig`] — and before this
//! module each figure binary hand-rolled its own serial loop over that
//! grid. A [`Campaign`] instead *describes* the grid, and [`Campaign::run`]
//! executes it:
//!
//! * **in parallel** across a thread pool (explicit [`RunOptions::threads`],
//!   else the `RAYON_NUM_THREADS` convention, else the machine's available
//!   parallelism);
//! * **deterministically** — each cell's trace seed is derived from the
//!   cell's *content* (not its position or schedule), so results are
//!   byte-identical regardless of thread count, and a baseline cell and its
//!   mitigated sibling replay the *same* traces;
//! * **without redundancy** — pushing the same cell twice (e.g. the shared
//!   `none` baseline behind Figures 6, 10, and 11) dedupes to one run;
//! * **resumably** — with [`RunOptions::out_dir`] set, each finished cell
//!   is written to `<out_dir>/<cell-id>.json` and a rerun loads it instead
//!   of recomputing ([`RunOptions::force`] overrides). A file that cannot
//!   be written does not stop the grid: the cell keeps its result and
//!   reports the failure in [`CellOutcome::write_error`].
//!
//! # Example
//!
//! ```
//! use rrs::campaign::{Campaign, CellAction, RunOptions};
//! use rrs::experiments::{ExperimentConfig, MitigationKind};
//! use rrs::workloads::catalog::table3_workloads;
//!
//! let cfg = ExperimentConfig::smoke_test();
//! let mut campaign = Campaign::new();
//! let w = table3_workloads()[0];
//! let (base, mitigated) = campaign.normalized_pair(cfg, w, MitigationKind::Rrs);
//! let run = campaign.run(&RunOptions::quiet());
//! assert!(run.normalized(mitigated, base) > 0.0);
//! ```

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rrs_core::rng::mix_seed;
use rrs_forensics::{saved_trace, ExposureConfig, ExposureReport};
use rrs_json::{FromJson, Json, ToJson};
use rrs_sim::SimResult;
use rrs_telemetry::{Telemetry, DEFAULT_TRACE_CAPACITY};
use rrs_workloads::attacks::AttackKind;
use rrs_workloads::catalog::Workload;

use crate::experiments::{ExperimentConfig, MitigationKind, PreparedCell};

/// What a cell simulates: a benign workload or an attack campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellAction {
    /// A benign run of one catalog workload across all cores.
    Workload(Workload),
    /// An attack on core 0 (idle filler elsewhere) spanning roughly
    /// `epochs` scaled refresh windows.
    Attack {
        /// The access pattern the attacker core generates.
        kind: AttackKind,
        /// Refresh windows the attack spans.
        epochs: u64,
    },
}

impl CellAction {
    /// Mitigation-independent slug naming the simulated scenario.
    pub fn id(&self) -> String {
        match self {
            CellAction::Workload(w) => w.name().to_string(),
            CellAction::Attack { kind, epochs } => format!("atk-{}-e{}", kind.name(), epochs),
        }
    }
}

/// One point of an experiment grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// The (possibly scaled) experiment configuration.
    pub config: ExperimentConfig,
    /// The scenario to simulate.
    pub action: CellAction,
    /// The defense under test.
    pub mitigation: MitigationKind,
}

impl Cell {
    /// Filename-safe identity: two cells with equal ids simulate the same
    /// thing, so the engine runs them once and result files are keyed by it.
    pub fn id(&self) -> String {
        let c = &self.config;
        let mut id = format!(
            "{}__{}__s{}-i{}-c{}-t{}",
            self.action.id(),
            self.mitigation.name(),
            c.scale,
            c.instructions_per_core,
            c.cores,
            c.full_scale_t_rh,
        );
        if c.rowclone {
            id.push_str("-rc");
        }
        if !c.scale_swap_cost {
            id.push_str("-fullswap");
        }
        id.push_str(&format!("-x{:08x}", c.seed));
        id
    }

    /// The trace seed this cell runs with: mixed from the configured base
    /// seed and the *action* id only — never the mitigation — so a baseline
    /// cell and its mitigated sibling replay identical traces, and results
    /// do not depend on where the cell sits in the grid or which thread
    /// picks it up.
    pub fn trace_seed(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
        for b in self.action.id().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        mix_seed(self.config.seed, h)
    }

    /// Assembles the cell: its configuration with the base seed replaced
    /// by [`Cell::trace_seed`], prepared for its action and defense.
    pub fn prepare(&self) -> PreparedCell {
        let mut cfg = self.config;
        cfg.seed = self.trace_seed();
        cfg.prepare(self.action, self.mitigation)
    }
}

/// How to execute a campaign: parallelism, caching, and verbosity.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Worker threads. `None` falls back to the `RAYON_NUM_THREADS`
    /// environment variable, then to the machine's available parallelism.
    pub threads: Option<usize>,
    /// Directory for per-cell result files (`<id>.json`). Enables
    /// resume-on-rerun; `None` keeps everything in memory.
    pub out_dir: Option<PathBuf>,
    /// Re-run cells even when a cached result file exists.
    pub force: bool,
    /// Suppress the per-cell progress lines on stderr.
    pub quiet: bool,
    /// With [`RunOptions::out_dir`] set, trace each cell: write its saved
    /// trace (`<id>.trace.jsonl`) and exposure report (`<id>.forensics.json`)
    /// beside `<id>.json`. Tracing skips the cache, which holds no traces.
    pub trace: bool,
}

impl RunOptions {
    /// In-memory, silent execution — what tests want.
    pub fn quiet() -> Self {
        RunOptions {
            quiet: true,
            ..Default::default()
        }
    }

    /// Caches results under `dir` (resume-on-rerun).
    pub fn with_out_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.out_dir = Some(dir.into());
        self
    }

    /// Uses exactly `n` worker threads.
    pub fn with_threads(mut self, n: usize) -> Self {
        self.threads = Some(n.max(1));
        self
    }

    /// Enables per-cell tracing (see [`RunOptions::trace`]).
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// The worker count this configuration resolves to.
    pub fn resolve_threads(&self) -> usize {
        if let Some(n) = self.threads {
            return n.max(1);
        }
        if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// A declarative grid of experiment cells, deduplicated by cell id.
#[derive(Debug, Default)]
pub struct Campaign {
    cells: Vec<Cell>,
    by_id: BTreeMap<String, usize>,
}

impl Campaign {
    /// An empty campaign.
    pub fn new() -> Self {
        Campaign::default()
    }

    /// Number of (distinct) cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the campaign has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The cells in push order.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Adds a cell, returning its index. A cell whose id already exists is
    /// *not* added again — the existing index is returned, so shared
    /// baselines across figures cost one run.
    pub fn push(&mut self, cell: Cell) -> usize {
        let id = cell.id();
        if let Some(&i) = self.by_id.get(&id) {
            return i;
        }
        let i = self.cells.len();
        self.by_id.insert(id, i);
        self.cells.push(cell);
        i
    }

    /// Adds a benign workload cell.
    pub fn workload(
        &mut self,
        config: ExperimentConfig,
        workload: Workload,
        mitigation: MitigationKind,
    ) -> usize {
        self.push(Cell {
            config,
            action: CellAction::Workload(workload),
            mitigation,
        })
    }

    /// Adds an attack cell.
    pub fn attack(
        &mut self,
        config: ExperimentConfig,
        kind: AttackKind,
        mitigation: MitigationKind,
        epochs: u64,
    ) -> usize {
        self.push(Cell {
            config,
            action: CellAction::Attack { kind, epochs },
            mitigation,
        })
    }

    /// Adds the (baseline, mitigated) pair behind a normalized-performance
    /// data point: the same workload under [`MitigationKind::None`] and
    /// under `mitigation`. Returns `(baseline, mitigated)` indices.
    pub fn normalized_pair(
        &mut self,
        config: ExperimentConfig,
        workload: Workload,
        mitigation: MitigationKind,
    ) -> (usize, usize) {
        let base = self.workload(config, workload, MitigationKind::None);
        let mitigated = self.workload(config, workload, mitigation);
        (base, mitigated)
    }

    /// Executes every cell and returns the results, indexed like
    /// [`Campaign::cells`]. Cells run across a worker pool (see
    /// [`RunOptions::resolve_threads`]); completion order is
    /// schedule-dependent but the returned results are not.
    pub fn run(&self, opts: &RunOptions) -> CampaignRun {
        if let Some(dir) = &opts.out_dir {
            // A failure here resurfaces as each cell's write error.
            let _ = std::fs::create_dir_all(dir);
        }
        let n = self.cells.len();
        let slots: Vec<Mutex<Option<CellOutcome>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let workers = opts.resolve_threads().min(n.max(1));

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let outcome = run_cell(&self.cells[i], opts);
                    let k = done.fetch_add(1, Ordering::Relaxed) + 1;
                    if !opts.quiet {
                        eprintln!(
                            "[{k}/{n}] {} {:.2}s{}",
                            outcome.id,
                            outcome.seconds,
                            if outcome.from_cache { " (cached)" } else { "" }
                        );
                    }
                    *slots[i].lock().unwrap() = Some(outcome);
                });
            }
        });

        CampaignRun {
            outcomes: slots
                .into_iter()
                .map(|s| s.into_inner().unwrap().expect("cell not executed"))
                .collect(),
        }
    }
}

/// One executed (or cache-loaded) cell.
#[derive(Debug)]
pub struct CellOutcome {
    /// The cell's id (also its result filename stem).
    pub id: String,
    /// The simulation result.
    pub result: SimResult,
    /// Whether the result was loaded from `out_dir` instead of simulated.
    pub from_cache: bool,
    /// Wall-clock seconds spent on this cell (load or simulate).
    pub seconds: f64,
    /// Why the cell's files could not be written to
    /// [`RunOptions::out_dir`]; the result above is still valid.
    pub write_error: Option<String>,
}

/// Results of [`Campaign::run`], indexed like the campaign's cells.
#[derive(Debug)]
pub struct CampaignRun {
    outcomes: Vec<CellOutcome>,
}

impl CampaignRun {
    /// All outcomes, in cell order.
    pub fn outcomes(&self) -> &[CellOutcome] {
        &self.outcomes
    }

    /// The outcome of cell `i` (the index [`Campaign::push`] returned).
    pub fn outcome(&self, i: usize) -> &CellOutcome {
        &self.outcomes[i]
    }

    /// The result of cell `i`.
    pub fn get(&self, i: usize) -> &SimResult {
        &self.outcomes[i].result
    }

    /// Normalized performance of cell `mitigated` against cell `baseline`
    /// (Figure 6's y-axis).
    pub fn normalized(&self, mitigated: usize, baseline: usize) -> f64 {
        self.get(mitigated).normalized_to(self.get(baseline))
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether the run is empty.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// One `<cell id>: <error>` line per cell whose files could not be
    /// written, in cell order.
    pub fn write_errors(&self) -> Vec<String> {
        self.outcomes
            .iter()
            .filter_map(|o| Some(format!("{}: {}", o.id, o.write_error.as_ref()?)))
            .collect()
    }
}

/// Executes (or cache-loads) one cell according to `opts`.
#[expect(
    clippy::disallowed_types,
    reason = "`seconds` is only printed; it never enters a result file"
)]
fn run_cell(cell: &Cell, opts: &RunOptions) -> CellOutcome {
    let id = cell.id();
    let start = std::time::Instant::now();
    let path = opts.out_dir.as_ref().map(|d| d.join(format!("{id}.json")));

    // Cached results carry no trace, so a tracing run always simulates.
    // A corrupt or stale-schema file falls through to a fresh simulation
    // (which then overwrites it).
    let trace_dir = opts.out_dir.as_ref().filter(|_| opts.trace);
    let cached = path
        .as_ref()
        .filter(|_| !opts.force && trace_dir.is_none())
        .and_then(|path| std::fs::read_to_string(path).ok())
        .and_then(|text| SimResult::from_json(&Json::parse(&text).ok()?).ok());
    if let Some(result) = cached {
        return CellOutcome {
            id,
            result,
            from_cache: true,
            seconds: start.elapsed().as_secs_f64(),
            write_error: None,
        };
    }

    let spine = match trace_dir {
        Some(_) => Telemetry::with_trace(DEFAULT_TRACE_CAPACITY),
        None => Telemetry::new(),
    };
    let result = cell.prepare().run(&spine);
    let mut written = Ok(());
    if let Some(dir) = trace_dir {
        // Exposure forensics ride along with every traced cell: judge the
        // trace against the cell's own T_RRS (whatever defense ran, so an
        // undefended cell shows a failing verdict).
        let report = ExposureReport::reconstruct(
            &spine.events(),
            ExposureConfig::at_threshold(cell.config.t_rrs()),
            Some(spine.events_dropped()),
        );
        let trace_path = dir.join(format!("{id}.trace.jsonl"));
        let forensics_path = dir.join(format!("{id}.forensics.json"));
        written = write_file(&trace_path, &saved_trace(&spine, DEFAULT_TRACE_CAPACITY))
            .and_then(|()| write_file(&forensics_path, &report.to_json().to_string_pretty()));
    }
    // The first failed write stops the cell's remaining writes (they all
    // target the same directory) but never its result.
    let write_error = written
        .and_then(|()| match &path {
            Some(path) => write_file(path, &result.to_json().to_string_pretty()),
            None => Ok(()),
        })
        .err();
    CellOutcome {
        id,
        result,
        from_cache: false,
        seconds: start.elapsed().as_secs_f64(),
        write_error,
    }
}

/// Writes `contents` to `path`, describing a failure.
fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_workloads::catalog::table3_workloads;

    fn smoke() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::smoke_test();
        cfg.instructions_per_core = 20_000;
        cfg
    }

    #[test]
    fn ids_are_filename_safe_and_unique() {
        let cfg = ExperimentConfig::default();
        let mut campaign = Campaign::new();
        for w in table3_workloads().iter().take(4) {
            campaign.workload(cfg, *w, MitigationKind::Rrs);
            campaign.workload(cfg, *w, MitigationKind::None);
        }
        campaign.attack(cfg, AttackKind::DoubleSided, MitigationKind::Rrs, 2);
        let ids: Vec<String> = campaign.cells().iter().map(|c| c.id()).collect();
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "duplicate ids: {ids:?}");
        for id in &ids {
            assert!(
                id.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "-_.".contains(c)),
                "unsafe filename {id:?}"
            );
        }
    }

    #[test]
    fn config_changes_change_the_id() {
        let w = table3_workloads()[0];
        let mk = |config: ExperimentConfig| Cell {
            config,
            action: CellAction::Workload(w),
            mitigation: MitigationKind::Rrs,
        };
        let base = mk(ExperimentConfig::default()).id();
        assert_ne!(mk(ExperimentConfig::default().with_scale(16)).id(), base);
        assert_ne!(mk(ExperimentConfig::default().with_t_rh(2_400)).id(), base);
        assert_ne!(mk(ExperimentConfig::default().with_rowclone()).id(), base);
        assert_ne!(
            mk(ExperimentConfig::default().with_full_swap_cost()).id(),
            base
        );
        assert_ne!(
            mk(ExperimentConfig::default().with_instructions(1)).id(),
            base
        );
    }

    #[test]
    fn trace_seed_ignores_mitigation() {
        let cfg = ExperimentConfig::default();
        let w = table3_workloads()[0];
        let mk = |m| Cell {
            config: cfg,
            action: CellAction::Workload(w),
            mitigation: m,
        };
        assert_eq!(
            mk(MitigationKind::None).trace_seed(),
            mk(MitigationKind::Rrs).trace_seed()
        );
        // ... but differs across workloads, so cells draw distinct traces.
        let other = Cell {
            config: cfg,
            action: CellAction::Workload(table3_workloads()[1]),
            mitigation: MitigationKind::None,
        };
        assert_ne!(mk(MitigationKind::None).trace_seed(), other.trace_seed());
    }

    #[test]
    fn push_dedupes_shared_baselines() {
        let cfg = ExperimentConfig::default();
        let w = table3_workloads()[0];
        let mut campaign = Campaign::new();
        let (b1, m1) = campaign.normalized_pair(cfg, w, MitigationKind::Rrs);
        let (b2, m2) = campaign.normalized_pair(cfg, w, MitigationKind::BlockHammer512);
        assert_eq!(b1, b2, "shared baseline must dedupe");
        assert_ne!(m1, m2);
        assert_eq!(campaign.len(), 3);
    }

    #[test]
    fn run_executes_all_cells_in_order() {
        let cfg = smoke();
        let mut campaign = Campaign::new();
        let a = campaign.workload(cfg, table3_workloads()[0], MitigationKind::None);
        let b = campaign.workload(cfg, table3_workloads()[1], MitigationKind::None);
        let run = campaign.run(&RunOptions::quiet().with_threads(2));
        assert_eq!(run.len(), 2);
        assert_eq!(run.get(a).workload, table3_workloads()[0].name());
        assert_eq!(run.get(b).workload, table3_workloads()[1].name());
        assert!(run.get(a).aggregate_ipc() > 0.0);
        assert!(!run.outcome(a).from_cache);
    }

    #[test]
    fn write_failures_are_per_cell_errors() {
        // An out "directory" that is a regular file: no cell can be
        // written, yet every cell still simulates and reports its failure.
        let file =
            std::env::temp_dir().join(format!("rrs_campaign_not_a_dir_{}", std::process::id()));
        std::fs::write(&file, "not a directory").unwrap();
        let cfg = smoke();
        let mut campaign = Campaign::new();
        let a = campaign.workload(cfg, table3_workloads()[0], MitigationKind::None);
        let b = campaign.workload(cfg, table3_workloads()[1], MitigationKind::None);
        let run = campaign.run(&RunOptions::quiet().with_out_dir(&file));
        assert_eq!(run.len(), 2);
        assert!(run.get(a).aggregate_ipc() > 0.0);
        assert!(run.get(b).aggregate_ipc() > 0.0);
        let errors = run.write_errors();
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(errors[0].starts_with(&run.outcome(a).id), "{errors:?}");
        std::fs::remove_file(&file).unwrap();
    }

    #[test]
    fn threads_resolution_prefers_explicit() {
        let opts = RunOptions::quiet().with_threads(3);
        assert_eq!(opts.resolve_threads(), 3);
        assert!(RunOptions::default().resolve_threads() >= 1);
    }
}
