#![warn(missing_docs)]

//! # rrs — Randomized Row-Swap (ASPLOS 2022) reproduction
//!
//! Umbrella crate for the full system described in *Randomized Row-Swap:
//! Mitigating Row Hammer by Breaking Spatial Correlation between Aggressor
//! and Victim Rows* (Saileshwar, Wang, Qureshi, Nair — ASPLOS 2022):
//!
//! * [`core`] — the RRS mechanism: Misra-Gries tracker, Row Indirection
//!   Table, Collision Avoidance Tables, PRINCE PRNG;
//! * [`dram`] — the DRAM device model and Row Hammer fault model;
//! * [`mem_ctrl`] — the memory controller and the [`Mitigation`] interface;
//! * [`sim`] — the trace-driven multi-core simulator;
//! * [`workloads`] — the 78-workload calibrated population and attack
//!   patterns;
//! * [`mitigations`] — RRS and every baseline (BlockHammer, victim-focused
//!   refresh, PARA, probabilistic RRS);
//! * [`analysis`] — the security/storage/power analytic models;
//! * [`telemetry`] — the observability spine (counters, structured events,
//!   bounded trace recording) threaded through every layer above;
//! * [`forensics`] — the spine's consumer: per-row exposure
//!   reconstruction, exposure verdicts, and Perfetto trace export;
//! * [`experiments`] — the shared harness used by `examples/`, `tests/`,
//!   and the `bench` crate to regenerate the paper's tables and figures;
//! * [`campaign`] — the declarative parallel grid runner those harnesses
//!   execute through (dedup, caching, deterministic parallelism).
//!
//! ## Quick start
//!
//! ```
//! use rrs::experiments::{ExperimentConfig, MitigationKind};
//! use rrs::workloads::AttackKind;
//!
//! // A heavily scaled-down experiment (see DESIGN.md on scaling).
//! let cfg = ExperimentConfig::smoke_test();
//! let outcome = cfg.run_attack(AttackKind::DoubleSided, MitigationKind::None, 1);
//! assert!(!outcome.bit_flips.is_empty(), "undefended memory must flip");
//!
//! let defended = cfg.run_attack(AttackKind::DoubleSided, MitigationKind::Rrs, 1);
//! assert!(defended.bit_flips.is_empty(), "RRS must stop the attack");
//! ```

pub use rrs_analysis as analysis;
pub use rrs_core as core;
pub use rrs_dram as dram;
pub use rrs_forensics as forensics;
pub use rrs_mem_ctrl as mem_ctrl;
pub use rrs_mitigations as mitigations;
pub use rrs_sim as sim;
pub use rrs_telemetry as telemetry;
pub use rrs_workloads as workloads;

pub use rrs_mem_ctrl::mitigation::Mitigation;

pub mod campaign;
pub mod experiments;
