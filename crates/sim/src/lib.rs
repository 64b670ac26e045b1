#![warn(missing_docs)]

//! Trace-driven multi-core memory-system simulator (the USIMM substitute).
//!
//! * [`trace`] — the trace-record interface between generators and cores,
//! * [`config`] — full-system configuration,
//! * [`runner`] — the simulation loop and [`SimResult`].
//!
//! Traces are post-LLC: the workload generators emit the cache-filtered
//! traffic the paper's USIMM traces carry (Table 3 MPKI), so each trace
//! record is one memory-controller access. The paper's shared LLC
//! (Table 2) is not simulated.
//!
//! # Example
//!
//! ```
//! use rrs_sim::{run_probed, SystemConfig, TraceRecord, TraceSource};
//! use rrs_mem_ctrl::NoMitigation;
//! use rrs_telemetry::Telemetry;
//!
//! let config = SystemConfig::test_config(1_000);
//! let mk = |base: u64| -> Box<dyn TraceSource> {
//!     let mut a = base;
//!     Box::new(move || { a += 64; TraceRecord::read(20, a) })
//! };
//! let result = run_probed(
//!     &config,
//!     Box::new(NoMitigation::new()),
//!     vec![mk(0), mk(1 << 24)],
//!     "quick",
//!     &Telemetry::new(),
//! );
//! assert!(result.aggregate_ipc() > 0.0);
//! ```

pub mod config;
pub mod runner;
pub mod trace;

pub use config::SystemConfig;
pub use runner::{run_probed, SimResult};
pub use trace::{TraceRecord, TraceSource};
