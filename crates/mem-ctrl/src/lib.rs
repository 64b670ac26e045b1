#![warn(missing_docs)]

//! Memory controller for the RRS reproduction.
//!
//! This crate hosts the integration point between workloads and the DRAM
//! device model:
//!
//! * [`mapping`] — physical-address ↔ DRAM-coordinate translation,
//! * [`mitigation`] — the [`Mitigation`] trait every Row Hammer defense
//!   implements, plus the undefended baseline,
//! * [`controller`] — the FCFS [`MemoryController`] that serves accesses,
//!   issues refresh, tracks epochs, executes mitigation actions, and feeds
//!   the Row Hammer fault model.
//!
//! # Example
//!
//! ```
//! use rrs_mem_ctrl::{ControllerConfig, MemoryController, NoMitigation};
//!
//! let mut mc = MemoryController::new(
//!     ControllerConfig::test_config(),
//!     Box::new(NoMitigation::new()),
//! );
//! let done = mc.access(0x1000, false, 0);
//! assert!(done > 0);
//! assert_eq!(mc.stats().reads, 1);
//! ```

pub mod controller;
pub mod json;
pub mod mapping;
pub mod mitigation;

pub use controller::{ControllerConfig, ControllerStats, MemoryController};
pub use mapping::{AddressMapper, DecodedAddr};
pub use mitigation::{Mitigation, MitigationAction, NoMitigation};
