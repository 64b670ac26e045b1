#![warn(missing_docs)]

//! DRAM device model for the Randomized Row-Swap (RRS) reproduction.
//!
//! This crate is the bottom-most substrate of the workspace. It models the
//! parts of a DDR4 main-memory system that the RRS paper's results depend on:
//!
//! * [`geometry`] — channels/ranks/banks/rows and strongly-typed addresses,
//! * [`timing`] — DDR4-3200 timing parameters (Table 2 of the paper) and the
//!   derived quantities the paper quotes (1.36 M activations per bank per
//!   64 ms, 365 ns row transfers, 1.46 µs row swaps, ...),
//! * [`bank`] — the per-bank timing state machine (row buffer, `tRC`-limited
//!   activations, precharge); commands are counted by the controller's
//!   `ctrl.*` statistics, not here,
//! * [`power`] — a first-order DRAM power model priced from command counts
//!   ([`CommandCounts`], which the controller derives from those statistics),
//! * [`hammer`] — the Row Hammer disturbance fault model, including the
//!   mechanics that make the Half-Double attack work against victim-focused
//!   mitigations.
//!
//! # Example
//!
//! ```
//! use rrs_dram::geometry::{DramGeometry, RowAddr};
//! use rrs_dram::timing::TimingParams;
//! use rrs_dram::hammer::{HammerModel, HammerConfig};
//!
//! let geom = DramGeometry::asplos22_baseline();
//! let timing = TimingParams::ddr4_3200();
//! // A bank can do at most ~1.36 M activations in a 64 ms refresh window.
//! assert!((1_350_000..1_370_000).contains(&timing.max_activations_per_epoch()));
//!
//! let mut hammer = HammerModel::new(HammerConfig::lpddr4_new(), geom);
//! let aggressor = RowAddr::new(0, 0, 0, 1000);
//! for _ in 0..4_800 {
//!     hammer.record_activation(aggressor);
//! }
//! // Classic Row Hammer: the immediate neighbours have flipped.
//! assert!(!hammer.take_bit_flips().is_empty());
//! ```

pub mod bank;
pub mod error;
pub mod geometry;
pub mod hammer;
pub mod json;
pub mod power;
pub mod timing;

pub use bank::Bank;
pub use error::DramError;
pub use geometry::{BankId, ChannelId, DramGeometry, RankId, RowAddr, RowId};
pub use hammer::{BitFlip, HammerConfig, HammerModel};
pub use power::{CommandCounts, DramPowerModel, PowerReport};
pub use timing::{Cycle, TimingParams};
