//! The multi-core simulation loop and its results.
//!
//! Cores are trace-driven: each retires `gap` non-memory instructions at
//! the fetch width, then issues its memory access to the shared controller.
//! Reads occupy one of a bounded set of outstanding-miss slots (the
//! memory-level-parallelism window that approximates ROB stalling); writes
//! are posted. Cores advance independently; a binary heap serializes their
//! requests into the controller in global time order, which yields the FCFS
//! scheduling of the paper's setup.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use rrs_dram::hammer::BitFlip;
use rrs_dram::power::{DramPowerModel, PowerReport};
use rrs_dram::timing::Cycle;
use rrs_mem_ctrl::controller::{ControllerStats, MemoryController};
use rrs_mem_ctrl::mitigation::Mitigation;
use rrs_telemetry::{HistogramSnapshot, Telemetry};

use crate::config::{SystemConfig, CORE_BURST, FETCH_WIDTH};
use crate::trace::TraceSource;

/// Results of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Workload name.
    pub workload: String,
    /// Mitigation name.
    pub mitigation: String,
    /// Per-core IPC at the moment each core finished.
    pub core_ipc: Vec<f64>,
    /// Total instructions retired across cores.
    pub total_instructions: u64,
    /// Cycle at which the last core finished.
    pub cycles: Cycle,
    /// Controller statistics (activations, swaps, epochs, ...).
    pub stats: ControllerStats,
    /// Row Hammer bit flips observed during the run.
    pub bit_flips: Vec<BitFlip>,
    /// Read-latency distribution (request to data, in cycles): the
    /// registry's `sim.read_latency` histogram at the end of the run.
    pub read_latency: HistogramSnapshot,
}

impl SimResult {
    /// System throughput: total instructions / total cycles.
    pub fn aggregate_ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_instructions as f64 / self.cycles as f64
        }
    }

    /// Geometric-mean of per-core IPCs.
    pub fn geomean_core_ipc(&self) -> f64 {
        if self.core_ipc.is_empty() {
            return 0.0;
        }
        let log_sum: f64 = self.core_ipc.iter().map(|i| i.max(1e-12).ln()).sum();
        (log_sum / self.core_ipc.len() as f64).exp()
    }

    /// Performance normalized to a baseline run (Figure 6's y-axis):
    /// `IPC_this / IPC_baseline`.
    pub fn normalized_to(&self, baseline: &SimResult) -> f64 {
        let b = baseline.aggregate_ipc();
        if b == 0.0 {
            0.0
        } else {
            self.aggregate_ipc() / b
        }
    }

    /// Weighted speedup vs a baseline run of the same workload:
    /// `Σᵢ IPCᵢ / IPCᵢ_baseline` — the standard multiprogrammed
    /// throughput metric (equals core count when nothing slowed down).
    ///
    /// Returns `None` when the runs have different core counts (a
    /// per-core metric is meaningless across mismatched configurations).
    pub fn weighted_speedup(&self, baseline: &SimResult) -> Option<f64> {
        if self.core_ipc.len() != baseline.core_ipc.len() {
            return None;
        }
        Some(
            self.core_ipc
                .iter()
                .zip(&baseline.core_ipc)
                .map(|(a, b)| if *b > 0.0 { a / b } else { 0.0 })
                .sum(),
        )
    }

    /// Fairness vs a baseline run: `min slowdown / max slowdown` over
    /// cores (1.0 = perfectly fair, → 0 when one core is starved — the
    /// §8.1 denial-of-service signature).
    ///
    /// Returns `None` when the runs have different core counts.
    pub fn fairness(&self, baseline: &SimResult) -> Option<f64> {
        if self.core_ipc.len() != baseline.core_ipc.len() {
            return None;
        }
        let ratios: Vec<f64> = self
            .core_ipc
            .iter()
            .zip(&baseline.core_ipc)
            .map(|(a, b)| if *b > 0.0 { a / b } else { 0.0 })
            .collect();
        let max = ratios.iter().cloned().fold(0.0f64, f64::max);
        let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        Some(if max <= 0.0 || !min.is_finite() {
            0.0
        } else {
            min / max
        })
    }

    /// DRAM power report for this run, priced from the command counts its
    /// controller statistics imply.
    pub fn power_report(
        &self,
        timing: &rrs_dram::timing::TimingParams,
        lines_per_row: usize,
        ranks: usize,
    ) -> PowerReport {
        DramPowerModel::ddr4().report(
            &self.stats.command_counts(),
            self.cycles,
            timing,
            lines_per_row,
            ranks,
        )
    }
}

impl rrs_json::ToJson for SimResult {
    fn to_json(&self) -> rrs_json::Json {
        use rrs_json::Json;
        Json::Obj(vec![
            ("workload".into(), Json::str(&*self.workload)),
            ("mitigation".into(), Json::str(&*self.mitigation)),
            ("core_ipc".into(), self.core_ipc.to_json()),
            (
                "total_instructions".into(),
                Json::u64(self.total_instructions),
            ),
            ("cycles".into(), Json::u64(self.cycles)),
            ("stats".into(), self.stats.to_json()),
            ("bit_flips".into(), self.bit_flips.to_json()),
            ("read_latency".into(), self.read_latency.to_json()),
        ])
    }
}

impl rrs_json::FromJson for SimResult {
    fn from_json(json: &rrs_json::Json) -> Result<Self, rrs_json::JsonError> {
        Ok(SimResult {
            workload: String::from_json(json.field("workload")?)?,
            mitigation: String::from_json(json.field("mitigation")?)?,
            core_ipc: Vec::from_json(json.field("core_ipc")?)?,
            total_instructions: u64::from_json(json.field("total_instructions")?)?,
            cycles: u64::from_json(json.field("cycles")?)?,
            stats: ControllerStats::from_json(json.field("stats")?)?,
            bit_flips: Vec::from_json(json.field("bit_flips")?)?,
            read_latency: HistogramSnapshot::from_json(json.field("read_latency")?)?,
        })
    }
}

struct CoreState {
    time: Cycle,
    retired: u64,
    outstanding: VecDeque<Cycle>,
    finish_time: Option<Cycle>,
}

/// Runs one simulation, `sources[i]` driving core `i`, with every layer
/// publishing onto `telemetry` (pass `&Telemetry::new()` for a disabled
/// spine: all accounting still flows through registry counters, but no
/// events are recorded).
///
/// The controller, scheduler-equivalent access path and the runner's own
/// read-latency histogram all register on the shared spine; when the
/// spine is tracing (a recorder is attached), structured
/// [`rrs_telemetry::Event`]s stream out as the simulation executes. The
/// caller keeps the handle, so after this returns it can export
/// `telemetry.snapshot_json()` or `telemetry.trace_jsonl()`.
///
/// The returned [`SimResult`] is byte-identical for the same inputs
/// regardless of tracing state — observation must not perturb the
/// experiment.
///
/// # Panics
///
/// Panics if `sources.len()` differs from `config.cores`.
pub fn run_probed(
    config: &SystemConfig,
    mitigation: Box<dyn Mitigation>,
    mut sources: Vec<Box<dyn TraceSource + '_>>,
    workload_name: &str,
    telemetry: &Telemetry,
) -> SimResult {
    assert_eq!(
        sources.len(),
        config.cores,
        "one trace source per core required"
    );
    let mut mc =
        MemoryController::with_telemetry(config.controller.clone(), mitigation, telemetry.clone());
    let mitigation_name = mc.mitigation_name().to_string();

    let mut cores: Vec<CoreState> = (0..config.cores)
        .map(|_| CoreState {
            time: 0,
            retired: 0,
            outstanding: VecDeque::new(),
            finish_time: None,
        })
        .collect();

    // Min-heap of (next event time, core id).
    let mut heap: BinaryHeap<Reverse<(Cycle, usize)>> =
        (0..config.cores).map(|i| Reverse((0, i))).collect();
    let read_latency = telemetry.histogram("sim.read_latency");

    while let Some(Reverse((_, cid))) = heap.pop() {
        // The heap only ever holds core ids `< config.cores`, which both
        // vectors were sized from.
        let (Some(source), Some(core)) = (sources.get_mut(cid), cores.get_mut(cid)) else {
            continue;
        };
        let mut finished = false;
        for _ in 0..CORE_BURST {
            let rec = source.next_record();

            // Retire the gap at fetch width.
            core.time += (rec.gap as u64).div_ceil(FETCH_WIDTH);

            // Traces are post-LLC: every record is one DRAM access.
            let done = mc.access(rec.addr, rec.is_write, core.time);
            if !rec.is_write {
                read_latency.record(done.saturating_sub(core.time).max(1));
                core.outstanding.push_back(done);
                if core.outstanding.len() >= config.max_outstanding {
                    if let Some(oldest) = core.outstanding.pop_front() {
                        core.time = core.time.max(oldest);
                    }
                }
            }

            core.retired += rec.instructions();
            if core.retired >= config.instructions_per_core {
                // Drain outstanding reads before declaring the core done.
                let drain = core.outstanding.iter().copied().max().unwrap_or(0);
                core.finish_time = Some(core.time.max(drain));
                finished = true;
                break;
            }
        }
        if !finished {
            heap.push(Reverse((core.time, cid)));
        }
    }

    // Close the accounting epoch so per-epoch statistics include the tail.
    mc.flush_epoch();

    let core_ipc: Vec<f64> = cores
        .iter()
        .map(|c| {
            let t = c.finish_time.unwrap_or(c.time).max(1);
            c.retired as f64 / t as f64
        })
        .collect();
    let cycles = cores
        .iter()
        .map(|c| c.finish_time.unwrap_or(c.time))
        .max()
        .unwrap_or(0);
    let total_instructions = cores.iter().map(|c| c.retired).sum();
    let bit_flips = mc.take_bit_flips();

    // Snapshot (not drain) the registry: the caller's spine keeps the
    // run's counters and histograms for inspection after `run_probed`
    // returns. Reusing one spine across runs therefore accumulates; pass
    // a fresh spine per run to keep observations separable.
    SimResult {
        workload: workload_name.to_string(),
        mitigation: mitigation_name,
        core_ipc,
        total_instructions,
        cycles,
        stats: mc.stats(),
        bit_flips,
        read_latency: read_latency.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceRecord;
    use rrs_mem_ctrl::mitigation::NoMitigation;

    /// Runs `sources` without a mitigation on a disabled spine.
    fn run_unmitigated(
        config: &SystemConfig,
        sources: Vec<Box<dyn TraceSource>>,
        name: &str,
    ) -> SimResult {
        let mitigation = Box::new(NoMitigation::new());
        run_probed(config, mitigation, sources, name, &Telemetry::new())
    }

    fn stream_source(stride: u64, start: u64) -> Box<dyn TraceSource> {
        let mut addr = start;
        Box::new(move || {
            addr += stride;
            TraceRecord::read(40, addr)
        })
    }

    #[test]
    fn run_completes_and_reports_ipc() {
        let config = SystemConfig::test_config(10_000);
        let sources = vec![stream_source(64, 0), stream_source(64, 1 << 24)];
        let r = run_unmitigated(&config, sources, "stream");
        assert_eq!(r.core_ipc.len(), 2);
        assert!(r.total_instructions >= 20_000);
        assert!(r.aggregate_ipc() > 0.1, "ipc = {}", r.aggregate_ipc());
        assert!(r.aggregate_ipc() <= 8.0);
        assert_eq!(r.workload, "stream");
        assert_eq!(r.mitigation, "none");
    }

    #[test]
    fn memory_bound_core_is_slower_than_compute_bound() {
        let config = SystemConfig::test_config(5_000);
        // Compute-bound: huge gaps. Memory-bound: no gaps, random rows.
        let compute = {
            let mut addr = 0u64;
            Box::new(move || {
                addr += 64;
                TraceRecord::read(400, addr)
            }) as Box<dyn TraceSource>
        };
        let mut x = 7u64;
        let memory = Box::new(move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            TraceRecord::read(0, x % (1 << 23))
        }) as Box<dyn TraceSource>;
        let r = run_unmitigated(&config, vec![compute, memory], "mixed");
        assert!(
            r.core_ipc[0] > r.core_ipc[1],
            "compute {} vs memory {}",
            r.core_ipc[0],
            r.core_ipc[1]
        );
    }

    #[test]
    fn partial_epoch_is_flushed_into_history() {
        let config = SystemConfig::test_config(2_000);
        let sources = vec![stream_source(64, 0), stream_source(64, 1 << 24)];
        let r = run_unmitigated(&config, sources, "x");
        assert!(!r.stats.epoch_swap_history.is_empty());
    }

    #[test]
    fn multiprogram_metrics_against_self_are_ideal() {
        let config = SystemConfig::test_config(3_000);
        let mk = || vec![stream_source(64, 0), stream_source(64, 1 << 24)];
        let a = run_unmitigated(&config, mk(), "a");
        let b = run_unmitigated(&config, mk(), "b");
        assert!((a.weighted_speedup(&b).unwrap() - 2.0).abs() < 1e-9);
        assert!((a.fairness(&b).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mismatched_core_counts_yield_none() {
        let config = SystemConfig::test_config(3_000);
        let sources = vec![stream_source(64, 0), stream_source(64, 1 << 24)];
        let two_core = run_unmitigated(&config, sources, "two");
        let no_core = empty_result();
        assert_eq!(two_core.weighted_speedup(&no_core), None);
        assert_eq!(two_core.fairness(&no_core), None);
        assert_eq!(no_core.weighted_speedup(&two_core), None);
        assert_eq!(no_core.fairness(&two_core), None);
    }

    #[test]
    fn fairness_detects_a_starved_core() {
        let config = SystemConfig::test_config(3_000);
        let fast = vec![stream_source(64, 0), stream_source(64, 1 << 24)];
        let base = run_unmitigated(&config, fast, "base");
        // Second core runs a pathological random row-miss stream.
        let mut x = 7u64;
        let slow: Vec<Box<dyn TraceSource>> = vec![
            stream_source(64, 0),
            Box::new(move || {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                TraceRecord::read(0, x % (1 << 23))
            }),
        ];
        let skewed = run_unmitigated(&config, slow, "skewed");
        let fairness = skewed.fairness(&base).unwrap();
        assert!(fairness < 0.8, "fairness = {fairness}");
        assert!(skewed.weighted_speedup(&base).unwrap() < 2.0);
    }

    #[test]
    #[should_panic(expected = "one trace source per core")]
    fn wrong_source_count_panics() {
        let config = SystemConfig::test_config(100);
        run_unmitigated(&config, vec![], "bad");
    }

    fn empty_result() -> SimResult {
        SimResult {
            workload: "w".into(),
            mitigation: "m".into(),
            core_ipc: vec![],
            total_instructions: 0,
            cycles: 0,
            stats: Default::default(),
            bit_flips: vec![],
            read_latency: HistogramSnapshot::default(),
        }
    }

    #[test]
    fn geomean_of_no_cores_is_zero() {
        assert_eq!(empty_result().geomean_core_ipc(), 0.0);
    }

    #[test]
    fn aggregate_ipc_guards_zero_cycles() {
        let mut r = empty_result();
        r.total_instructions = 100;
        assert_eq!(r.aggregate_ipc(), 0.0);
    }

    #[test]
    fn normalized_to_zero_cycle_baseline_is_zero() {
        let config = SystemConfig::test_config(1_000);
        let sources = vec![stream_source(64, 0), stream_source(64, 1 << 24)];
        let real = run_unmitigated(&config, sources, "real");
        assert!(real.aggregate_ipc() > 0.0);
        // A degenerate baseline (zero cycles => zero IPC) must not divide
        // by zero or return infinity.
        let degenerate = empty_result();
        let n = real.normalized_to(&degenerate);
        assert_eq!(n, 0.0);
        assert!(n.is_finite());
    }

    #[test]
    fn sim_result_json_round_trips() {
        use rrs_json::{FromJson, Json, ToJson};
        let config = SystemConfig::test_config(2_000);
        let sources = vec![stream_source(64, 0), stream_source(64, 1 << 24)];
        let r = run_unmitigated(&config, sources, "json");
        let text = r.to_json().to_string_pretty();
        let back = SimResult::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.workload, r.workload);
        assert_eq!(back.cycles, r.cycles);
        assert_eq!(back.core_ipc, r.core_ipc);
        assert_eq!(back.stats.activations, r.stats.activations);
        assert_eq!(back.stats.epoch_swap_history, r.stats.epoch_swap_history);
        // Byte-identity under re-serialization: the campaign cache depends
        // on it.
        assert_eq!(back.to_json().to_string_pretty(), text);
    }
}
