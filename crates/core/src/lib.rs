#![warn(missing_docs)]

//! # rrs-core — Randomized Row-Swap
//!
//! From-scratch implementation of the mechanism proposed in *Randomized
//! Row-Swap: Mitigating Row Hammer by Breaking Spatial Correlation between
//! Aggressor and Victim Rows* (Saileshwar, Wang, Qureshi, Nair — ASPLOS
//! 2022):
//!
//! * [`tracker`] — the Misra-Gries Hot-Row Tracker (HRT, §4.2), in both the
//!   CAM reference form and the scalable CAT form with SetMin counters
//!   (§6.4);
//! * [`rit`] — the Row Indirection Table (RIT, §4.3/§6.3) with lock bits and
//!   lazy epoch draining;
//! * [`cat`] — the Collision Avoidance Table (§6.1–6.2), the conflict-free
//!   associative substrate both structures share;
//! * [`prince`] / [`prng`] — the PRINCE low-latency cipher and the CTR-mode
//!   PRNG that generates swap destinations (§4.4);
//! * [`rrs`] — the assembled engine: [`Rrs`] (system-wide) and [`BankRrs`]
//!   (per bank);
//! * [`detector`] — the optional attack-detection co-design (§5.3.2 fn. 2);
//! * [`audit`] — debug-gated ghost-state audits of the RIT permutation
//!   and CAT occupancy invariants.
//!
//! # Quick start
//!
//! ```
//! use rrs_core::{Rrs, RrsConfig, RrsAction};
//! use rrs_dram::geometry::{DramGeometry, RowAddr};
//!
//! // A small design point: T_RH = 60 ⇒ swap every T_RRS = 10 activations.
//! let config = RrsConfig::for_threshold(60, 1_000, 1_024);
//! let mut rrs = Rrs::new(config, DramGeometry::tiny_test());
//!
//! let aggressor = RowAddr::new(0, 0, 0, 7);
//! let mut swapped = false;
//! for _ in 0..10 {
//!     for action in rrs.on_activation(aggressor) {
//!         if let RrsAction::Swap(_) = action {
//!             swapped = true;
//!         }
//!     }
//! }
//! assert!(swapped);
//! // The hammered row no longer lives at its home location.
//! assert_ne!(rrs.resolve(aggressor), aggressor);
//! ```

pub mod audit;
pub mod cat;
pub mod detector;
pub mod prince;
pub mod prng;
pub mod rit;
pub mod rng;
pub mod rrs;
pub mod tracker;

pub use audit::{AuditError, CatAudit, RitAudit};
pub use cat::{Cat, CatConfig, CatConflict};
pub use detector::{DetectorConfig, SwapDetector};
pub use prince::Prince;
pub use prng::PrinceCtrRng;
pub use rit::{PhysicalSwap, RitError, RowIndirectionTable};
pub use rng::DetRng;
pub use rrs::{BankRrs, BankRrsStats, Rrs, RrsAction, RrsConfig, DEFAULT_K};
pub use tracker::{
    AccessVerdict, CamTracker, CatTracker, CbfTracker, HotRowTracker, TrackerConfig,
};
