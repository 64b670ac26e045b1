//! The Row Hammer mitigation interface.
//!
//! Every defense in this workspace — RRS, BlockHammer, victim-focused
//! refresh, PARA, or nothing at all — plugs into the memory controller
//! through [`Mitigation`]. The controller:
//!
//! 1. resolves each access through [`Mitigation::resolve`] (identity unless
//!    the defense remaps rows, as RRS does via its RIT),
//! 2. charges [`Mitigation::access_latency`] on every access (the RIT
//!    lookup cost, §4.7),
//! 3. asks [`Mitigation::activation_delay`] before issuing an activation
//!    (BlockHammer's throttling, §8.1),
//! 4. reports each performed activation via [`Mitigation::on_activation`]
//!    and executes the returned [`MitigationAction`]s, charging their
//!    bank/channel time and feeding the fault model.

use rrs_dram::geometry::RowAddr;
use rrs_dram::timing::Cycle;
use rrs_telemetry::Telemetry;

/// A physical operation requested by a mitigation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MitigationAction {
    /// Refresh a specific (victim) row: restores its charge, costs the bank
    /// one row-cycle, and — crucially — disturbs *its* neighbours (§2.5).
    TargetedRefresh(RowAddr),
    /// Exchange the contents of two physical rows (RRS swap / re-swap);
    /// blocks the channel for `ControllerConfig::swap_cycles`.
    RowSwap {
        /// One physical row.
        a: RowAddr,
        /// The other physical row.
        b: RowAddr,
    },
    /// Exchange restoring an evicted row home (RIT lazy drain).
    RowUnswap {
        /// One physical row.
        a: RowAddr,
        /// The other physical row.
        b: RowAddr,
    },
    /// Preemptively refresh all of memory (detector escalation,
    /// §5.3.2 fn. 2); costs ≈2.8 ms of full-memory refresh (§2.4).
    FullRefresh,
}

/// A Row Hammer defense as seen by the memory controller.
pub trait Mitigation {
    /// Short human-readable name ("rrs", "blockhammer-512", ...).
    fn name(&self) -> &str;

    /// Maps the requested (logical) row to the physical row to access.
    /// Identity for every defense except RRS.
    fn resolve(&self, row: RowAddr) -> RowAddr {
        row
    }

    /// Extra controller cycles added to every access (e.g. the RIT lookup;
    /// the paper charges 4 cycles, §4.7).
    fn access_latency(&self) -> Cycle {
        0
    }

    /// Cycles to stall an activation of `row` requested at `now`
    /// (BlockHammer's delay-based throttling). Zero for everyone else.
    fn activation_delay(&mut self, row: RowAddr, now: Cycle) -> Cycle {
        let _ = (row, now);
        0
    }

    /// Notification that an activation of logical `row` was issued at `at`;
    /// the mitigation pushes any required actions into `actions`.
    fn on_activation(&mut self, row: RowAddr, at: Cycle, actions: &mut Vec<MitigationAction>);

    /// Notification of an epoch (refresh-window) boundary at `now`.
    fn on_epoch_end(&mut self, now: Cycle, actions: &mut Vec<MitigationAction>) {
        let _ = (now, actions);
    }

    /// Called once when a controller adopts this mitigation: register
    /// counters and event probes on the shared telemetry spine. Defenses
    /// with internal structure (RRS's trackers, RIT, and CAT) forward the
    /// handle inward; the default keeps simple defenses unobserved.
    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        let _ = telemetry;
    }
}

/// The undefended baseline: does nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoMitigation;

impl NoMitigation {
    /// Creates the no-op mitigation.
    pub fn new() -> Self {
        NoMitigation
    }
}

impl Mitigation for NoMitigation {
    fn name(&self) -> &str {
        "none"
    }

    fn on_activation(&mut self, _row: RowAddr, _at: Cycle, _actions: &mut Vec<MitigationAction>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_mitigation_is_transparent() {
        let mut m = NoMitigation::new();
        let row = RowAddr::new(0, 0, 0, 5);
        assert_eq!(m.resolve(row), row);
        assert_eq!(m.access_latency(), 0);
        assert_eq!(m.activation_delay(row, 100), 0);
        let mut actions = Vec::new();
        m.on_activation(row, 100, &mut actions);
        m.on_epoch_end(1_000, &mut actions);
        assert!(actions.is_empty());
        assert_eq!(m.name(), "none");
    }

    #[test]
    fn mitigation_is_object_safe() {
        let boxed: Box<dyn Mitigation> = Box::new(NoMitigation::new());
        assert_eq!(boxed.name(), "none");
    }
}
