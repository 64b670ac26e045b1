//! The three reference cells: their configuration, their timed set-up, and
//! the `ExperimentConfig` entry point each one must agree with.

use std::time::Instant;

use rrs::experiments::{ExperimentConfig, MitigationKind};
use rrs::mem_ctrl::mapping::AddressMapper;
use rrs::mem_ctrl::mitigation::Mitigation;
use rrs::sim::config::SystemConfig;
use rrs::sim::runner::SimResult;
use rrs::sim::trace::TraceSource;
use rrs::workloads::attacks::{Attack, AttackKind, IdleFiller};
use rrs::workloads::catalog::{spec_by_name, Workload};
use rrs::workloads::generator::sources_for_workload;
use rrs_json::ToJson;

/// Instructions each core retires in the benign cells (≈910 K DRAM
/// accesses over the 8 cores).
const MCF_INSTRUCTIONS: u64 = 1_000_000;

/// Refresh windows the attack cell is budgeted to span.
const ATTACK_EPOCHS: u64 = 16;

/// One reference cell of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell {
    /// mcf rate-mode on 8 cores, undefended.
    Mcf8None,
    /// The same traffic under RRS.
    Mcf8Rrs,
    /// A rotating double-sided attack from core 0 under RRS; cores 1–7 idle.
    DsAttackRrs,
}

/// Every cell, in the order the notes list them.
pub const ALL: [Cell; 3] = [Cell::Mcf8None, Cell::Mcf8Rrs, Cell::DsAttackRrs];

/// Set-up time of one cell, split as the ledger reports it.
#[derive(Debug, Clone, Copy)]
pub struct SetupTiming {
    /// `system_config` + `build_mitigation` + source construction.
    pub total_s: f64,
    /// `build_mitigation` alone.
    pub build_mitigation_s: f64,
    /// Trace-source construction alone.
    pub sources_s: f64,
}

/// Everything one run of a cell consumes.
pub struct Prepared {
    pub sys: SystemConfig,
    pub mitigation: Box<dyn Mitigation>,
    pub sources: Vec<Box<dyn TraceSource>>,
    pub name: String,
    pub timing: SetupTiming,
}

fn mcf() -> Workload {
    Workload::Single(spec_by_name("mcf").expect("mcf is in the workload catalog"))
}

impl Cell {
    /// The cell named `name`, if any.
    pub fn parse(name: &str) -> Option<Cell> {
        ALL.into_iter().find(|c| c.name() == name)
    }

    /// The workload name the benchmark is invoked with.
    pub fn name(self) -> &'static str {
        match self {
            Cell::Mcf8None => "mcf8_none",
            Cell::Mcf8Rrs => "mcf8_rrs",
            Cell::DsAttackRrs => "ds_attack_rrs",
        }
    }

    /// The defense the cell runs under.
    pub fn mitigation(self) -> MitigationKind {
        match self {
            Cell::Mcf8None => MitigationKind::None,
            Cell::Mcf8Rrs | Cell::DsAttackRrs => MitigationKind::Rrs,
        }
    }

    fn config(self, seed: u64) -> ExperimentConfig {
        let cfg = ExperimentConfig {
            seed,
            ..ExperimentConfig::default()
        };
        match self {
            Cell::DsAttackRrs => cfg,
            Cell::Mcf8None | Cell::Mcf8Rrs => cfg.with_instructions(MCF_INSTRUCTIONS),
        }
    }

    /// Builds the cell's inputs, timing each part of the set-up.
    pub fn prepare(self, seed: u64) -> Prepared {
        let cfg = self.config(seed);
        let t0 = Instant::now();
        let sys = self.system_config(&cfg);
        let t1 = Instant::now();
        let mitigation = cfg.build_mitigation(self.mitigation());
        let t2 = Instant::now();
        let sources = self.sources(&cfg, &sys);
        let t3 = Instant::now();
        Prepared {
            sys,
            mitigation,
            sources,
            name: self.run_name(),
            timing: SetupTiming {
                total_s: (t3 - t0).as_secs_f64(),
                build_mitigation_s: (t2 - t1).as_secs_f64(),
                sources_s: (t3 - t2).as_secs_f64(),
            },
        }
    }

    fn system_config(self, cfg: &ExperimentConfig) -> SystemConfig {
        let mut sys = cfg.system_config();
        if self == Cell::DsAttackRrs {
            // As `ExperimentConfig::run_attack` budgets it: the bank-bound
            // attacker issues about one activation per tRC.
            let timing = sys.controller.timing;
            sys.instructions_per_core = ATTACK_EPOCHS * timing.epoch / timing.t_rc + 1_000;
        }
        sys
    }

    /// The per-core sources. The attack cell rebuilds what
    /// `ExperimentConfig::run_attack` builds internally, because that entry
    /// point takes no wrapped mitigation; the self-test pins the copy.
    fn sources(self, cfg: &ExperimentConfig, sys: &SystemConfig) -> Vec<Box<dyn TraceSource>> {
        match self {
            Cell::Mcf8None | Cell::Mcf8Rrs => sources_for_workload(&mcf(), sys, cfg.seed),
            Cell::DsAttackRrs => {
                let mapper = AddressMapper::new(sys.controller.geometry);
                let attacker = Attack::new(AttackKind::DoubleSided, mapper, cfg.seed)
                    .with_rotation(8 * cfg.t_rh());
                let mut sources: Vec<Box<dyn TraceSource>> = vec![Box::new(attacker)];
                sources.extend(
                    (1..sys.cores).map(|c| Box::new(IdleFiller::new(c)) as Box<dyn TraceSource>),
                );
                sources
            }
        }
    }

    fn run_name(self) -> String {
        match self {
            Cell::Mcf8None | Cell::Mcf8Rrs => mcf().name().to_string(),
            Cell::DsAttackRrs => AttackKind::DoubleSided.name(),
        }
    }

    /// The same cell through the simulator's own entry point, with the
    /// attack's flips moved back into the result so the digests compare.
    pub fn reference(self, seed: u64) -> SimResult {
        let cfg = self.config(seed);
        match self {
            Cell::Mcf8None | Cell::Mcf8Rrs => cfg.run_workload(&mcf(), self.mitigation()),
            Cell::DsAttackRrs => {
                let mut outcome =
                    cfg.run_attack(AttackKind::DoubleSided, self.mitigation(), ATTACK_EPOCHS);
                outcome.result.bit_flips = outcome.bit_flips;
                outcome.result
            }
        }
    }
}

/// FNV-1a over the result's canonical JSON: equal digests mean every
/// simulated statistic is byte-identical.
pub fn digest(result: &SimResult) -> u64 {
    result
        .to_json()
        .to_string_compact()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}
