//! Reference-cell benchmark for the RRS simulator.
//!
//! ```text
//! cargo run --release --manifest-path cellbench/Cargo.toml -- \
//!     --workload <mcf8_none|mcf8_rrs|ds_attack_rrs> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one cell, single-threaded. `--seconds` is required:
//! the run length is the `run_seconds` of BENCHMARK.json, so two commits
//! compared through it are measured for the same time. With `--trace 0` it
//! times untraced iterations for `--seconds` and reports host time per
//! simulated access and activation, set-up time and peak RSS. With `--trace 1` it
//! alternates untraced and traced iterations and reports the layer ledger
//! (see `probe`). Every iteration's output is checked; the last line of
//! standard output is one JSON object with the verdict and the metrics; the
//! exit code is non-zero when any check failed. See README.md for the
//! workloads and the metric → workload map.

mod cells;
mod probe;

use std::ffi::{c_int, c_long};
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

use rrs::experiments::MitigationKind;
use rrs::sim::runner::{run_probed, SimResult};
use rrs::sim::trace::TraceSource;
use rrs::telemetry::Telemetry;

use cells::{digest, Cell, SetupTiming};
use probe::{HammerReplay, MitigationProbe, Span, TimedMitigation, TimedSource};

/// Set-up samples taken before each timed iteration; the set-up metrics
/// are the medians of all of a run's samples. Spreading them over the run
/// exposes them to the same host conditions as the timed iterations: on a
/// shared host, a burst of a few milliseconds can otherwise fall entirely
/// into a phase of contention, or entirely outside one.
const SETUP_SAMPLES_PER_ITERATION: usize = 3;

/// Set-up time one sample spans at least, in seconds. A sample is the mean
/// of as many set-ups as that takes, so a cell whose set-up lasts a few
/// microseconds is not measured at the resolution of the clock.
const SETUP_SAMPLE_S: f64 = 2e-3;

/// Timed iterations of each kind a run makes however short `--seconds` is.
const MIN_ITERATIONS: usize = 3;

const USAGE: &str = "usage: cellbench --workload <mcf8_none|mcf8_rrs|ds_attack_rrs> \
                     --seconds <s> [--seed <n>] [--trace <0|1>]";

struct Args {
    cell: Cell,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut cell, mut seed, mut seconds, mut trace) = (None, 1, None, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                cell = Some(Cell::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value}: not a positive number"))?;
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        cell: cell.ok_or("--workload is required")?,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One untraced iteration: the cell exactly as a campaign runs it.
fn run_untraced(cell: Cell, seed: u64) -> (f64, SimResult) {
    let p = cell.prepare(seed);
    let telemetry = Telemetry::new();
    let t0 = Instant::now();
    let result = run_probed(&p.sys, p.mitigation, p.sources, &p.name, &telemetry);
    (t0.elapsed().as_secs_f64(), result)
}

/// One traced iteration: the cell with both plug-in traits wrapped, then
/// the captured activation stream replayed into a fresh hammer model.
struct Traced {
    wall_s: f64,
    result: SimResult,
    counters: Vec<(String, u64)>,
    records: Rc<Span>,
    mitigation: Rc<MitigationProbe>,
    hammer: HammerReplay,
}

impl Traced {
    fn run(cell: Cell, seed: u64) -> Traced {
        let p = cell.prepare(seed);
        let mitigation = Rc::new(MitigationProbe::default());
        let records = Rc::new(Span::default());
        let wrapped = Box::new(TimedMitigation::new(p.mitigation, mitigation.clone()));
        let sources: Vec<Box<dyn TraceSource>> = p
            .sources
            .into_iter()
            .map(|s| Box::new(TimedSource::new(s, records.clone())) as Box<dyn TraceSource>)
            .collect();
        let telemetry = Telemetry::new();
        let t0 = Instant::now();
        let result = run_probed(&p.sys, wrapped, sources, &p.name, &telemetry);
        let wall_s = t0.elapsed().as_secs_f64();
        let hammer = probe::replay_hammer(&mitigation, &p.sys.controller);
        Traced {
            wall_s,
            result,
            counters: telemetry.counters(),
            records,
            mitigation,
            hammer,
        }
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }
}

/// Output checks. Each checked iteration is one attempted operation; it
/// fails if any of its checks fails.
struct Checks {
    cell: Cell,
    digest: u64,
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// Starts from the first iteration, whose digest the others must repeat.
    fn new(cell: Cell, first: &SimResult) -> Checks {
        let mut checks = Checks {
            cell,
            digest: digest(first),
            attempted: 0,
            failed: 0,
        };
        checks.result(first, "warm-up");
        checks
    }

    fn common(&self, result: &SimResult) -> Vec<String> {
        let mut problems = Vec::new();
        let d = digest(result);
        if d != self.digest {
            problems.push(format!(
                "digest {d:#018x} differs from {:#018x}",
                self.digest
            ));
        }
        if self.cell.mitigation() == MitigationKind::Rrs && !result.bit_flips.is_empty() {
            problems.push(format!(
                "RRS cell recorded {} bit flips",
                result.bit_flips.len()
            ));
        }
        problems
    }

    fn result(&mut self, result: &SimResult, what: &str) {
        let problems = self.common(result);
        self.record(problems, what);
    }

    fn traced(&mut self, t: &Traced) {
        let mut problems = self.common(&t.result);
        let stats = &t.result.stats;
        if t.records.calls() != stats.reads + stats.writes {
            problems.push(format!(
                "{} generator records but {} DRAM accesses",
                t.records.calls(),
                stats.reads + stats.writes
            ));
        }
        if t.mitigation.on_activation.calls() != t.counter("ctrl.activations") {
            problems.push(format!(
                "{} on_activation calls but ctrl.activations = {}",
                t.mitigation.on_activation.calls(),
                t.counter("ctrl.activations")
            ));
        }
        // The replay must see every activation the controller charged: one
        // per demand activation and two per row of each swap or unswap.
        let charged = stats.activations + 4 * (stats.swaps + stats.unswaps);
        if t.hammer.activations != charged {
            problems.push(format!(
                "replayed {} hammer activations, the controller charged {charged}",
                t.hammer.activations
            ));
        }
        if t.hammer.epoch_hot_rows != stats.epoch_hot_row_history {
            problems.push(format!(
                "replayed hot rows per epoch {:?}, the cell recorded {:?}",
                t.hammer.epoch_hot_rows, stats.epoch_hot_row_history
            ));
        }
        if t.hammer.flips != t.result.bit_flips.len() as u64 {
            problems.push(format!(
                "replayed hammer model flipped {} rows, the cell {}",
                t.hammer.flips,
                t.result.bit_flips.len()
            ));
        }
        self.record(problems, "traced");
    }

    fn record(&mut self, problems: Vec<String>, what: &str) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                eprintln!("check failed ({} {what} iteration): {p}", self.cell.name());
            }
        }
    }
}

/// Mean set-up times over at least `SETUP_SAMPLE_S` of set-ups.
fn sample_setups(cell: Cell, seed: u64) -> SetupTiming {
    let mut sum = SetupTiming {
        total_s: 0.0,
        build_mitigation_s: 0.0,
        sources_s: 0.0,
    };
    let mut n = 0.0;
    while sum.total_s < SETUP_SAMPLE_S {
        let t = cell.prepare(seed).timing;
        sum.total_s += t.total_s;
        sum.build_mitigation_s += t.build_mitigation_s;
        sum.sources_s += t.sources_s;
        n += 1.0;
    }
    SetupTiming {
        total_s: sum.total_s / n,
        build_mitigation_s: sum.build_mitigation_s / n,
        sources_s: sum.sources_s / n,
    }
}

/// Adds `SETUP_SAMPLES_PER_ITERATION` set-up samples of the cell.
fn sample_setups_into(samples: &mut Vec<SetupTiming>, cell: Cell, seed: u64) {
    samples.extend((0..SETUP_SAMPLES_PER_ITERATION).map(|_| sample_setups(cell, seed)));
}

/// Medians of the set-up samples.
fn setup_medians(samples: &[SetupTiming]) -> SetupTiming {
    let med = |f: fn(&SetupTiming) -> f64| median(&mut samples.iter().map(f).collect::<Vec<_>>());
    SetupTiming {
        total_s: med(|s| s.total_s),
        build_mitigation_s: med(|s| s.build_mitigation_s),
        sources_s: med(|s| s.sources_s),
    }
}

/// `struct rusage` as Linux lays it out where `time_t` is a C `long`.
#[repr(C)]
struct Rusage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    /// Peak resident set, in KiB.
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

/// Peak resident set of this process, from the OS (`getrusage`).
fn peak_rss_mib() -> Result<f64, String> {
    const RUSAGE_SELF: c_int = 0;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a writable, properly laid out `struct rusage` that
    // outlives the call, which writes only within it.
    if unsafe { getrusage(RUSAGE_SELF, &mut usage) } != 0 {
        return Err(format!("getrusage: {}", std::io::Error::last_os_error()));
    }
    Ok(usage.maxrss as f64 / 1024.0)
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Untraced run: the end-to-end metrics.
fn end_to_end(args: &Args, checks: &mut Checks, first: &SimResult) -> Result<Metrics, String> {
    let accesses = (first.stats.reads + first.stats.writes) as f64;
    let activations = first.stats.activations as f64;
    let mut walls = Vec::new();
    let mut setups = Vec::new();
    let start = Instant::now();
    while walls.len() < MIN_ITERATIONS || start.elapsed().as_secs_f64() < args.seconds {
        sample_setups_into(&mut setups, args.cell, args.seed);
        let (wall_s, result) = run_untraced(args.cell, args.seed);
        checks.result(&result, "timed");
        walls.push(wall_s);
    }
    // Read before the self-test, whose traced cell holds a captured stream.
    let peak_rss = peak_rss_mib()?;
    checks.traced(&Traced::run(args.cell, args.seed));
    let n = walls.len();
    let wall = median(&mut walls);
    println!(
        "{} seed {}: {n} timed iterations, {:.1} ms per cell (median; min {:.1}, max {:.1}), \
         {accesses} accesses, {activations} activations",
        args.cell.name(),
        args.seed,
        wall * 1e3,
        walls[0] * 1e3,
        walls[n - 1] * 1e3,
    );
    Ok(vec![
        ("ns_per_access", wall * 1e9 / accesses, "ns"),
        ("ns_per_activation", wall * 1e9 / activations, "ns"),
        ("setup_s", setup_medians(&setups).total_s, "s"),
        ("peak_rss_mib", peak_rss, "MiB"),
    ])
}

/// One line of the ledger: median total time over the traced iterations
/// and the operations it covers.
struct Line {
    name: &'static str,
    ns: f64,
    ops: u64,
}

/// Traced run: the per-layer ledger.
fn ledger(args: &Args, checks: &mut Checks) -> Metrics {
    let probe_ns = probe::calibrate_probe();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut setups = Vec::new();
    let start = Instant::now();
    while untraced.len() < MIN_ITERATIONS || start.elapsed().as_secs_f64() < args.seconds {
        sample_setups_into(&mut setups, args.cell, args.seed);
        let t = Traced::run(args.cell, args.seed);
        checks.traced(&t);
        traced.push(t);
        let (wall_s, result) = run_untraced(args.cell, args.seed);
        checks.result(&result, "untraced");
        untraced.push(wall_s);
    }
    let last = traced.last().expect("at least one traced iteration");
    let stats = &last.result.stats;
    let accesses = stats.reads + stats.writes;
    let line = |name, ops, ns: fn(&Traced, f64) -> f64| Line {
        name,
        ns: median(&mut traced.iter().map(|t| ns(t, probe_ns)).collect::<Vec<_>>()),
        ops,
    };
    let m = &last.mitigation;
    let lines = [
        line("workloads.next_record", last.records.calls(), |t, p| {
            t.records.corrected_ns(p)
        }),
        line("mitigations.resolve", m.resolve.calls(), |t, p| {
            t.mitigation.resolve.corrected_ns(p)
        }),
        line(
            "mitigations.on_activation",
            m.on_activation.calls(),
            |t, p| t.mitigation.on_activation.corrected_ns(p),
        ),
        line(
            "mitigations.on_epoch_end",
            m.on_epoch_end.calls(),
            |t, p| t.mitigation.on_epoch_end.corrected_ns(p),
        ),
        line("dram.hammer (replayed)", last.hammer.activations, |t, _| {
            t.hammer.ns
        }),
    ];
    let cell_ns = median(&mut untraced) * 1e9;
    let traced_ns = median(&mut traced.iter().map(|t| t.wall_s * 1e9).collect::<Vec<_>>());
    let remainder_ns = cell_ns - lines.iter().map(|l| l.ns).sum::<f64>();
    let [records, resolve, on_activation, on_epoch_end, hammer] = &lines;

    println!(
        "ledger {} seed {}: untraced cell {:.1} ms (median of {}), traced {:.1} ms, \
         probe {probe_ns:.1} ns per timed call",
        args.cell.name(),
        args.seed,
        cell_ns / 1e6,
        untraced.len(),
        traced_ns / 1e6
    );
    println!(
        "  {:<28} {:>12} {:>10} {:>7}",
        "layer", "ns/op", "ops", "share"
    );
    let remainder = Line {
        name: "mem_ctrl.remainder (per access)",
        ns: remainder_ns,
        ops: accesses,
    };
    for l in lines.iter().chain([&remainder]) {
        println!(
            "  {:<28} {:>12.1} {:>10} {:>6.1}%",
            l.name,
            ratio(l.ns, l.ops as f64),
            l.ops,
            100.0 * l.ns / cell_ns
        );
    }

    let mitigation_ns = resolve.ns + on_activation.ns + on_epoch_end.ns;
    let activations = last.counter("ctrl.activations") as f64;
    let row_hits = last.counter("ctrl.row_hits") as f64;
    let tlb_hits = last.counter("rit.tlb.hits") as f64;
    let tlb_misses = last.counter("rit.tlb.misses") as f64;
    let count = |name| last.counter(name) as f64;
    let setup = setup_medians(&setups);
    vec![
        (
            "workloads.next_record_ns",
            ratio(records.ns, records.ops as f64),
            "ns",
        ),
        ("workloads.share", records.ns / cell_ns, "fraction"),
        (
            "mitigations.resolve_ns",
            ratio(resolve.ns, resolve.ops as f64),
            "ns",
        ),
        (
            "mitigations.on_activation_ns",
            ratio(on_activation.ns, on_activation.ops as f64),
            "ns",
        ),
        (
            "mitigations.on_epoch_end_us",
            ratio(on_epoch_end.ns, on_epoch_end.ops as f64) / 1e3,
            "us",
        ),
        ("mitigations.share", mitigation_ns / cell_ns, "fraction"),
        (
            "hrt.installs_per_activation",
            ratio(count("hrt.installs"), activations),
            "ratio",
        ),
        (
            "rit.tlb_hit_ratio",
            ratio(tlb_hits, tlb_hits + tlb_misses),
            "ratio",
        ),
        (
            "dram.hammer_ns_per_activation",
            ratio(hammer.ns, hammer.ops as f64),
            "ns",
        ),
        ("dram.hammer_share", hammer.ns / cell_ns, "fraction"),
        (
            "mem_ctrl.remainder_ns_per_access",
            remainder_ns / accesses as f64,
            "ns",
        ),
        (
            "mem_ctrl.remainder_share",
            remainder_ns / cell_ns,
            "fraction",
        ),
        ("setup.build_mitigation_s", setup.build_mitigation_s, "s"),
        ("setup.sources_s", setup.sources_s, "s"),
        ("ctrl.activations", activations, "count"),
        (
            "ctrl.row_hit_ratio",
            ratio(row_hits, row_hits + activations),
            "ratio",
        ),
        ("ctrl.swaps", count("ctrl.swaps"), "count"),
        ("ctrl.unswaps", count("ctrl.unswaps"), "count"),
        (
            "ctrl.epochs_completed",
            count("ctrl.epochs_completed"),
            "count",
        ),
        ("cat.relocations", count("cat.relocations"), "count"),
        ("hrt.evicts", count("hrt.evicts"), "count"),
        ("probe.overhead_ns", probe_ns, "ns"),
        (
            "trace.overhead_pct",
            100.0 * (traced_ns - cell_ns) / cell_ns,
            "%",
        ),
    ]
}

/// Runs the benchmark: the summary line and whether every check passed.
fn run(args: &Args) -> Result<(String, bool), String> {
    let forwards = probe::wrapper_forwards_every_method();
    if !forwards {
        eprintln!("check failed: the mitigation wrapper does not forward every method");
    }
    let (_, first) = run_untraced(args.cell, args.seed);
    let mut checks = Checks::new(args.cell, &first);
    let metrics = if args.trace {
        ledger(args, &mut checks)
    } else {
        end_to_end(args, &mut checks, &first)?
    };
    checks.result(
        &args.cell.reference(args.seed),
        "ExperimentConfig reference",
    );
    println!(
        "digest {} seed {} {:#018x}",
        args.cell.name(),
        args.seed,
        checks.digest
    );
    if let Some((name, ..)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is not a finite number"));
    }
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = forwards && checks.failed == 0;
    let summary = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted,
        checks.failed,
        metrics.join(", ")
    );
    Ok((summary, correct))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cellbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((summary, correct)) => {
            println!("{summary}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("cellbench: {e}");
            ExitCode::FAILURE
        }
    }
}
