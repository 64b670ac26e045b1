#![warn(missing_docs)]

//! Trace-driven multi-core memory-system simulator (the USIMM substitute).
//!
//! * [`trace`] — the trace-record interface between generators and cores,
//! * [`llc`] — the shared last-level cache (Table 2: 8 MB / 16-way),
//! * [`config`] — full-system configuration,
//! * [`runner`] — the simulation loop and [`SimResult`].
//!
//! # Example
//!
//! ```
//! use rrs_sim::{run, SystemConfig, TraceRecord, TraceSource};
//! use rrs_mem_ctrl::NoMitigation;
//!
//! let config = SystemConfig::test_config(1_000);
//! let mk = |base: u64| -> Box<dyn TraceSource> {
//!     let mut a = base;
//!     Box::new(move || { a += 64; TraceRecord::read(20, a) })
//! };
//! let result = run(
//!     &config,
//!     Box::new(NoMitigation::new()),
//!     vec![mk(0), mk(1 << 24)],
//!     "quick",
//! );
//! assert!(result.aggregate_ipc() > 0.0);
//! ```

pub mod config;
pub mod latency;
pub mod llc;
pub mod runner;
pub mod trace;

pub use config::SystemConfig;
pub use latency::LatencyStats;
pub use llc::{Llc, LlcConfig};
pub use runner::{run, run_probed, SimResult};
pub use trace::{TraceRecord, TraceSource};
