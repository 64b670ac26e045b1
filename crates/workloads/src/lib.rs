#![warn(missing_docs)]

//! Workloads for the RRS reproduction: the 78-workload benign population
//! calibrated to the paper's Table 3, and the attack patterns of §2/§5/§8.
//!
//! * [`catalog`] — workload specs (28 Table-3 + 44 cold + 6 mixes),
//! * [`generator`] — calibrated synthetic trace generation,
//! * [`attacks`] — Row Hammer attack patterns (classic, Half-Double,
//!   swap-chasing, DoS, ...).
//!
//! # Example
//!
//! ```
//! use rrs_workloads::catalog::{all_workloads, spec_by_name};
//!
//! assert_eq!(all_workloads().len(), 78);
//! assert_eq!(spec_by_name("hmmer").unwrap().hot_rows, 1675);
//! ```

pub mod attacks;
pub mod catalog;
pub mod generator;
pub mod specfile;

pub use attacks::{Attack, AttackKind, IdleFiller};
pub use catalog::{
    all_workloads, spec_by_name, table3_workloads, MixSpec, Suite, Workload, WorkloadSpec, COLD,
    MIXES, TABLE3,
};
pub use generator::{sources_for_workload, SyntheticWorkload};
pub use specfile::{load_specs, parse_specs, SpecFileError};
