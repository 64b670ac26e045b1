//! The memory controller: request service, refresh, epochs, and mitigation
//! action execution.
//!
//! The controller serves accesses in arrival order (FCFS, as in the paper's
//! USIMM setup), models per-bank timing through [`rrs_dram::Bank`], charges
//! the data bus per channel, issues periodic refresh every `tREFI`, and
//! drives the configured [`Mitigation`] exactly as §4.1 describes: every
//! access resolves through the mitigation (RIT lookup), every activation is
//! reported to it, and returned actions (victim refreshes, row swaps,
//! full-memory refreshes) are executed with their real timing cost and fed
//! to the Row Hammer fault model.

use rrs_dram::bank::Bank;
use rrs_dram::geometry::{DramGeometry, RowAddr};
use rrs_dram::hammer::{BitFlip, HammerConfig, HammerModel};
use rrs_dram::timing::{Cycle, TimingParams};
use rrs_telemetry::{Counter, Event, Series, Telemetry};

use crate::mapping::AddressMapper;
use crate::mitigation::{Mitigation, MitigationAction};

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PagePolicy {
    /// Keep the row open after an access (the paper's FCFS open-page
    /// baseline): later same-row accesses hit the row buffer.
    #[default]
    Open,
    /// Precharge immediately after each access: every access activates.
    /// Trades row-hit locality for lower conflict latency; also a useful
    /// worst-case for Row Hammer studies (maximum activation rate).
    Closed,
}

/// Controller configuration.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Memory geometry.
    pub geometry: DramGeometry,
    /// Device timing.
    pub timing: TimingParams,
    /// Fault-model parameters.
    pub hammer: HammerConfig,
    /// Channel-blocking cycles of one row swap (defaults to the four
    /// swap-buffer row transfers for the geometry's row size, ≈1.46 µs;
    /// RowClone configurations charge `4 · tRC` instead).
    pub swap_cycles: Cycle,
    /// Activation-count threshold for the per-epoch "hot rows" statistic
    /// (the paper's ACT-800+ of Table 3). Scale along with the epoch.
    pub act_stat_threshold: u64,
    /// Row-buffer management policy.
    pub page_policy: PagePolicy,
}

impl ControllerConfig {
    /// The paper's baseline configuration (Table 2 + LPDDR4-new fault model).
    pub fn asplos22_baseline() -> Self {
        let geometry = DramGeometry::asplos22_baseline();
        let timing = TimingParams::ddr4_3200();
        ControllerConfig {
            swap_cycles: timing.row_swap_cycles(geometry.row_size_bytes),
            geometry,
            timing,
            hammer: HammerConfig::lpddr4_new(),
            act_stat_threshold: 800,
            page_policy: PagePolicy::Open,
        }
    }

    /// A small configuration for unit tests: tiny geometry, short epoch.
    pub fn test_config() -> Self {
        let geometry = DramGeometry::tiny_test();
        let timing = TimingParams::ddr4_3200().with_epoch_scale(1000); // 64 µs epochs
        ControllerConfig {
            swap_cycles: timing.row_swap_cycles(geometry.row_size_bytes),
            geometry,
            timing,
            hammer: HammerConfig::lpddr4_new(),
            act_stat_threshold: 800,
            page_policy: PagePolicy::Open,
        }
    }
}

/// Aggregate controller statistics.
#[derive(Debug, Clone, Default)]
pub struct ControllerStats {
    /// Read accesses served.
    pub reads: u64,
    /// Write accesses served.
    pub writes: u64,
    /// Row activations issued for demand accesses.
    pub activations: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row swaps executed (mitigation-issued).
    pub swaps: u64,
    /// Un-swaps executed (RIT evictions).
    pub unswaps: u64,
    /// Targeted (victim) refreshes executed.
    pub targeted_refreshes: u64,
    /// Full-memory preemptive refreshes (detector escalations).
    pub full_refreshes: u64,
    /// Cycles of activation stalling imposed by the mitigation
    /// (BlockHammer's delays).
    pub mitigation_delay_cycles: Cycle,
    /// Channel-blocked cycles spent swapping rows.
    pub swap_busy_cycles: Cycle,
    /// Completed epochs.
    pub epochs_completed: u64,
    /// Swaps in each completed epoch (Figure 5's quantity).
    pub epoch_swap_history: Vec<u64>,
    /// Rows with ≥ `act_stat_threshold` activations in each completed epoch
    /// (Table 3's "Rows ACT-800+").
    pub epoch_hot_row_history: Vec<usize>,
}

impl ControllerStats {
    /// Mean swaps per completed epoch (Figure 5's y-axis).
    pub fn mean_swaps_per_epoch(&self) -> f64 {
        if self.epoch_swap_history.is_empty() {
            0.0
        } else {
            self.epoch_swap_history.iter().sum::<u64>() as f64
                / self.epoch_swap_history.len() as f64
        }
    }

    /// Mean hot rows per completed epoch (Table 3's quantity).
    pub fn mean_hot_rows_per_epoch(&self) -> f64 {
        if self.epoch_hot_row_history.is_empty() {
            0.0
        } else {
            self.epoch_hot_row_history.iter().sum::<usize>() as f64
                / self.epoch_hot_row_history.len() as f64
        }
    }

    /// Row-buffer hit rate.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.activations + self.row_hits;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

/// The controller's registry handles: one [`Counter`]/[`Series`] per field
/// of [`ControllerStats`], registered under `ctrl.*` names. Holding the
/// handles keeps the hot path at one `Cell` store per bump — no registry
/// lookup.
struct CtrlMetrics {
    reads: Counter,
    writes: Counter,
    activations: Counter,
    row_hits: Counter,
    swaps: Counter,
    unswaps: Counter,
    targeted_refreshes: Counter,
    full_refreshes: Counter,
    mitigation_delay_cycles: Counter,
    swap_busy_cycles: Counter,
    epochs_completed: Counter,
    epoch_swap_history: Series,
    epoch_hot_row_history: Series,
}

impl CtrlMetrics {
    fn register(tel: &Telemetry) -> Self {
        CtrlMetrics {
            reads: tel.counter("ctrl.reads"),
            writes: tel.counter("ctrl.writes"),
            activations: tel.counter("ctrl.activations"),
            row_hits: tel.counter("ctrl.row_hits"),
            swaps: tel.counter("ctrl.swaps"),
            unswaps: tel.counter("ctrl.unswaps"),
            targeted_refreshes: tel.counter("ctrl.targeted_refreshes"),
            full_refreshes: tel.counter("ctrl.full_refreshes"),
            mitigation_delay_cycles: tel.counter("ctrl.mitigation_delay_cycles"),
            swap_busy_cycles: tel.counter("ctrl.swap_busy_cycles"),
            epochs_completed: tel.counter("ctrl.epochs_completed"),
            epoch_swap_history: tel.series("ctrl.epoch_swap_history"),
            epoch_hot_row_history: tel.series("ctrl.epoch_hot_row_history"),
        }
    }
}

/// The memory controller.
pub struct MemoryController {
    config: ControllerConfig,
    mapper: AddressMapper,
    mitigation: Box<dyn Mitigation>,
    banks: Vec<Bank>,
    bus_free: Vec<Cycle>,
    channel_blocked: Vec<Cycle>,
    hammer: HammerModel,
    clock: Cycle,
    next_refresh: Cycle,
    next_epoch: Cycle,
    epoch_swaps: u64,
    telemetry: Telemetry,
    metrics: CtrlMetrics,
    /// Reused mitigation-action buffer: activations are the hot path, and
    /// most produce no actions, so allocating a fresh `Vec` each time is
    /// pure overhead.
    action_scratch: Vec<MitigationAction>,
}

impl MemoryController {
    /// Creates a controller driving `mitigation`, with a private telemetry
    /// spine (metrics only, no event probes).
    pub fn new(config: ControllerConfig, mitigation: Box<dyn Mitigation>) -> Self {
        Self::with_telemetry(config, mitigation, Telemetry::new())
    }

    /// Creates a controller publishing onto `telemetry`: all `ctrl.*`
    /// counters register there, events are emitted when it is tracing, and
    /// the mitigation gets [`Mitigation::attach_telemetry`] so its inner
    /// structures (trackers, RIT, CAT) share the same spine.
    pub fn with_telemetry(
        config: ControllerConfig,
        mut mitigation: Box<dyn Mitigation>,
        telemetry: Telemetry,
    ) -> Self {
        let banks = (0..config.geometry.total_banks())
            .map(|_| Bank::new(config.timing))
            .collect();
        let hammer = HammerModel::new(config.hammer.clone(), config.geometry);
        mitigation.attach_telemetry(&telemetry);
        let metrics = CtrlMetrics::register(&telemetry);
        MemoryController {
            mapper: AddressMapper::new(config.geometry),
            banks,
            bus_free: vec![0; config.geometry.channels],
            channel_blocked: vec![0; config.geometry.channels],
            hammer,
            clock: 0,
            next_refresh: config.timing.t_refi,
            next_epoch: config.timing.epoch,
            epoch_swaps: 0,
            telemetry,
            metrics,
            action_scratch: Vec::new(),
            mitigation,
            config,
        }
    }

    /// The controller's configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// The address mapper (workload generators use it to aim at rows).
    pub fn mapper(&self) -> &AddressMapper {
        &self.mapper
    }

    /// Name of the installed mitigation.
    pub fn mitigation_name(&self) -> &str {
        self.mitigation.name()
    }

    /// The telemetry spine this controller publishes on.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Accumulated statistics, snapshotted from the telemetry registry.
    /// The returned block carries exactly the values the bespoke
    /// `ControllerStats` fields used to accumulate.
    pub fn stats(&self) -> ControllerStats {
        let m = &self.metrics;
        ControllerStats {
            reads: m.reads.get(),
            writes: m.writes.get(),
            activations: m.activations.get(),
            row_hits: m.row_hits.get(),
            swaps: m.swaps.get(),
            unswaps: m.unswaps.get(),
            targeted_refreshes: m.targeted_refreshes.get(),
            full_refreshes: m.full_refreshes.get(),
            mitigation_delay_cycles: m.mitigation_delay_cycles.get(),
            swap_busy_cycles: m.swap_busy_cycles.get(),
            epochs_completed: m.epochs_completed.get(),
            epoch_swap_history: m.epoch_swap_history.values(),
            epoch_hot_row_history: m
                .epoch_hot_row_history
                .values()
                .into_iter()
                .map(|v| v as usize)
                .collect(),
        }
    }

    /// The fault model (read access).
    pub fn hammer(&self) -> &HammerModel {
        &self.hammer
    }

    /// Drains bit flips recorded by the fault model.
    pub fn take_bit_flips(&mut self) -> Vec<BitFlip> {
        self.hammer.take_bit_flips()
    }

    /// Current internal clock (max of all observed times).
    pub fn now(&self) -> Cycle {
        self.clock
    }

    /// Per-bank command counts (for the power model).
    pub fn command_counts(&self) -> rrs_dram::command::CommandCounts {
        self.banks
            .iter()
            .map(|b| b.counts())
            .fold(rrs_dram::command::CommandCounts::new(), |a, b| a + b)
    }

    fn bank_mut(&mut self, addr: RowAddr) -> &mut Bank {
        let idx = addr.bank_index(&self.config.geometry);
        // lint: allow(index-panic) — `bank_index` is `< geometry.total_banks()` by construction and `banks` has exactly that length
        &mut self.banks[idx]
    }

    /// Serves one access to physical byte address `addr` at time `now`;
    /// returns the cycle the data transfer completes.
    ///
    /// Callers must present requests in (approximately) non-decreasing time
    /// order — the controller is FCFS.
    pub fn access(&mut self, addr: u64, is_write: bool, now: Cycle) -> Cycle {
        self.clock = self.clock.max(now);
        self.maintain();

        let decoded = self.mapper.decode(addr);
        let logical = decoded.row;
        let physical = self.mitigation.resolve(logical);
        debug_assert!(self.config.geometry.contains(physical));

        let ch = physical.channel.0 as usize;
        let mut start = now + self.mitigation.access_latency();
        start = start.max(self.channel_blocked.get(ch).copied().unwrap_or(0));

        let will_activate = self.bank_mut(physical).open_row() != Some(physical.row);
        // Throttling (BlockHammer): the mitigation may require this row's
        // activation to wait until `prospective + delay`, where
        // `prospective` is when the ACT would otherwise issue (so bank
        // queuing is not double-charged). A delayed request is *held
        // aside*: requests behind it proceed — the scheduling-policy
        // cooperation BlockHammer requires (§8.1) — while the requester and
        // the Row Hammer accounting observe the delayed activation time.
        let mut delay = 0;
        if will_activate {
            let prospective = self.bank_mut(physical).earliest_activate(start);
            delay = self.mitigation.activation_delay(logical, prospective);
            self.metrics.mitigation_delay_cycles.add(delay);
        }

        let outcome = self
            .bank_mut(physical)
            .access(physical.row, is_write, start);
        if is_write {
            self.metrics.writes.inc();
        } else {
            self.metrics.reads.inc();
        }

        if let Some(at) = outcome.activated_at {
            let at = at + delay;
            self.metrics.activations.inc();
            if self.telemetry.tracing() {
                self.telemetry.set_now(at);
                self.telemetry.emit(Event::Activation {
                    at,
                    bank: physical.bank_index(&self.config.geometry) as u64,
                    row: physical.row.0 as u64,
                });
            }
            self.hammer.record_activation(physical);
            let mut actions = std::mem::take(&mut self.action_scratch);
            actions.clear();
            self.mitigation.on_activation(logical, at, &mut actions);
            self.execute_actions(&actions, at);
            self.action_scratch = actions;
        } else {
            self.metrics.row_hits.inc();
        }

        if self.config.page_policy == PagePolicy::Closed {
            self.bank_mut(physical).precharge(outcome.data_at);
        }

        // The held-aside (throttled) request must not reserve the shared
        // data bus at its delayed slot — that would head-of-line block the
        // whole channel. The bus is booked at the undelayed time; only the
        // requester observes the delay.
        let bus_slot = outcome
            .data_at
            .max(self.bus_free.get(ch).copied().unwrap_or(0));
        if let Some(slot) = self.bus_free.get_mut(ch) {
            *slot = bus_slot + self.config.timing.line_transfer_cycles();
        }
        let data_at = bus_slot + delay;
        self.clock = self.clock.max(data_at);
        data_at
    }

    /// Advances the controller's notion of time (processing refreshes and
    /// epoch boundaries) without serving an access.
    pub fn advance_to(&mut self, cycle: Cycle) {
        self.clock = self.clock.max(cycle);
        self.maintain();
    }

    /// Forces the current epoch to end now — used by harnesses that want
    /// whole-epoch statistics at the end of a run.
    pub fn flush_epoch(&mut self) {
        self.end_epoch();
    }

    fn maintain(&mut self) {
        while self.next_refresh <= self.clock || self.next_epoch <= self.clock {
            if self.next_epoch <= self.next_refresh {
                let at = self.next_epoch;
                self.clock = self.clock.max(at);
                self.end_epoch();
                let _ = at;
            } else {
                self.do_refresh();
            }
        }
    }

    fn do_refresh(&mut self) {
        let end = self.next_refresh + self.config.timing.t_rfc;
        self.telemetry.emit(Event::Refresh {
            at: self.next_refresh,
        });
        // Banks are laid out `((channel * ranks) + rank) * banks_per_rank +
        // bank`, so walking the vector in order visits each rank's bank 0
        // exactly when `i % banks_per_rank == 0`.
        let banks_per_rank = self.config.geometry.banks_per_rank;
        for (i, bank) in self.banks.iter_mut().enumerate() {
            bank.force_busy_until(end);
            if i % banks_per_rank == 0 {
                bank.record_refresh();
            }
        }
        self.next_refresh += self.config.timing.t_refi;
    }

    fn end_epoch(&mut self) {
        let at = self.next_epoch.min(self.clock.max(self.next_epoch));
        self.metrics.epoch_hot_row_history.push(
            self.hammer
                .rows_with_activations_at_least(self.config.act_stat_threshold) as u64,
        );
        self.metrics
            .epoch_swap_history
            .push(std::mem::take(&mut self.epoch_swaps));
        self.hammer.end_epoch();
        let mut actions = std::mem::take(&mut self.action_scratch);
        actions.clear();
        self.mitigation.on_epoch_end(at, &mut actions);
        self.execute_actions(&actions, at);
        self.action_scratch = actions;
        for b in &mut self.banks {
            b.begin_epoch();
        }
        let epoch = self.metrics.epochs_completed.get();
        self.metrics.epochs_completed.inc();
        if self.telemetry.tracing() {
            self.telemetry.set_now(at);
            self.telemetry.emit(Event::EpochRollover { at, epoch });
            self.telemetry.sample_epoch(epoch, at);
        }
        self.next_epoch += self.config.timing.epoch;
    }

    fn execute_actions(&mut self, actions: &[MitigationAction], at: Cycle) {
        for action in actions {
            match *action {
                MitigationAction::TargetedRefresh(victim) => {
                    if self.config.geometry.contains(victim) {
                        self.bank_mut(victim).targeted_refresh(at);
                        self.hammer.record_targeted_refresh(victim);
                        self.metrics.targeted_refreshes.inc();
                        self.telemetry.emit(Event::TargetedRefresh {
                            at,
                            bank: victim.bank_index(&self.config.geometry) as u64,
                            row: victim.row.0 as u64,
                        });
                    }
                }
                MitigationAction::RowSwap { a, b } | MitigationAction::RowUnswap { a, b } => {
                    let is_swap = matches!(action, MitigationAction::RowSwap { .. });
                    let cost = self.config.swap_cycles;
                    let ch = a.channel.0 as usize;
                    let start = at.max(self.channel_blocked.get(ch).copied().unwrap_or(0));
                    let end = start + cost;
                    if let Some(slot) = self.channel_blocked.get_mut(ch) {
                        *slot = end;
                    }
                    for row in [a, b] {
                        let bank = self.bank_mut(row);
                        bank.force_busy_until(end);
                        // Each row is streamed out and back in: two row
                        // activations' worth of disturbance and two
                        // transfer commands (§4.4).
                        bank.record_swap_transfer();
                        bank.record_swap_transfer();
                        self.hammer.record_activation(row);
                        self.hammer.record_activation(row);
                    }
                    self.metrics.swap_busy_cycles.add(cost);
                    if is_swap {
                        self.metrics.swaps.inc();
                        self.epoch_swaps += 1;
                    } else {
                        self.metrics.unswaps.inc();
                    }
                    if self.telemetry.tracing() {
                        let (row_a, row_b) = (a.row.0 as u64, b.row.0 as u64);
                        // Swaps never cross banks, so `a`'s flat index
                        // identifies the pair's bank.
                        let bank = a.bank_index(&self.config.geometry) as u64;
                        if is_swap {
                            self.telemetry.emit(Event::SwapStart {
                                at: start,
                                bank,
                                row_a,
                                row_b,
                            });
                            self.telemetry.emit(Event::SwapDone {
                                at: end,
                                bank,
                                row_a,
                                row_b,
                            });
                        } else {
                            self.telemetry.emit(Event::Unswap {
                                at: start,
                                bank,
                                row_a,
                                row_b,
                            });
                        }
                    }
                }
                MitigationAction::FullRefresh => {
                    self.hammer.full_refresh();
                    // Minimum time to refresh all of memory: one tRFC per
                    // 8192-row refresh group (§2.4 quotes ≈2.8 ms).
                    let groups = 8_192u64;
                    let end = at + groups * self.config.timing.t_rfc;
                    for bank in &mut self.banks {
                        bank.force_busy_until(end);
                    }
                    for ch in &mut self.channel_blocked {
                        *ch = (*ch).max(end);
                    }
                    self.metrics.full_refreshes.inc();
                    self.telemetry.emit(Event::FullRefresh { at });
                }
            }
        }
    }
}

impl std::fmt::Debug for MemoryController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryController")
            .field("mitigation", &self.mitigation.name())
            .field("clock", &self.clock)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::rc::Rc;

    use super::*;
    use crate::mitigation::NoMitigation;

    fn controller() -> MemoryController {
        MemoryController::new(
            ControllerConfig::test_config(),
            Box::new(NoMitigation::new()),
        )
    }

    #[test]
    fn read_returns_reasonable_latency() {
        let mut c = controller();
        let done = c.access(0, false, 100);
        let t = c.config().timing;
        assert!(done >= 100 + t.t_rcd + t.t_cas);
        assert!(
            done < 100 + 10 * t.t_rc,
            "latency unexpectedly high: {done}"
        );
        assert_eq!(c.stats().reads, 1);
        assert_eq!(c.stats().activations, 1);
    }

    #[test]
    fn same_row_access_hits_row_buffer() {
        let mut c = controller();
        let d1 = c.access(0, false, 0);
        let d2 = c.access(128, false, d1); // same channel, next column
        assert_eq!(c.stats().row_hits, 1);
        assert!(d2 > d1);
    }

    #[test]
    fn different_channels_proceed_in_parallel() {
        let mut c = controller();
        let _ = c.access(0, false, 0);
        // tiny_test has 1 channel; use baseline config for this check.
        let mut c2 = MemoryController::new(
            ControllerConfig::asplos22_baseline(),
            Box::new(NoMitigation::new()),
        );
        let a = c2.access(0, false, 0); // channel 0
        let b = c2.access(64, false, 0); // channel 1
                                         // Both complete at the same uncontended latency.
        assert_eq!(a, b);
    }

    #[test]
    fn writes_are_counted() {
        let mut c = controller();
        c.access(0, true, 0);
        assert_eq!(c.stats().writes, 1);
        assert_eq!(c.stats().reads, 0);
    }

    #[test]
    fn epochs_advance_with_time() {
        let mut c = controller();
        let epoch = c.config().timing.epoch;
        c.advance_to(3 * epoch + 1);
        assert_eq!(c.stats().epochs_completed, 3);
        assert_eq!(c.stats().epoch_swap_history.len(), 3);
    }

    #[test]
    fn refresh_blocks_banks() {
        let mut c = controller();
        let t = c.config().timing;
        // Land exactly in a refresh window.
        c.advance_to(t.t_refi);
        let done = c.access(0, false, t.t_refi + 1);
        // Activation cannot begin until tRFC has elapsed.
        assert!(done >= t.t_refi + t.t_rfc + t.t_rcd + t.t_cas);
    }

    #[test]
    fn hammer_model_sees_demand_activations() {
        let mut c = controller();
        let mapper = *c.mapper();
        let row = RowAddr::new(0, 0, 0, 100);
        let other = RowAddr::new(0, 0, 0, 300);
        let mut now = 0;
        for _ in 0..50 {
            // Alternate rows to force activations.
            now = c.access(mapper.row_base(row), false, now);
            now = c.access(mapper.row_base(other), false, now);
        }
        assert_eq!(c.hammer().activations_of(row), 50);
    }

    #[test]
    fn classic_attack_flips_bits_with_no_mitigation() {
        // Use a long-enough epoch that 2 × 4800 activations (at tRC pace)
        // fit inside one refresh window.
        let mut cfg = ControllerConfig::test_config();
        cfg.timing = TimingParams::ddr4_3200().with_epoch_scale(10);
        let mut c = MemoryController::new(cfg, Box::new(NoMitigation::new()));
        let mapper = *c.mapper();
        let a = mapper.row_base(RowAddr::new(0, 0, 0, 500));
        let b = mapper.row_base(RowAddr::new(0, 0, 0, 700));
        let mut now = 0;
        for _ in 0..4_800 {
            now = c.access(a, false, now);
            now = c.access(b, false, now);
        }
        assert!(
            !c.take_bit_flips().is_empty(),
            "undefended hammering must flip bits"
        );
    }

    #[test]
    fn targeted_refresh_action_protects_victims() {
        // A mitigation that refreshes neighbours on every activation.
        struct EagerVfm(DramGeometry);
        impl Mitigation for EagerVfm {
            fn name(&self) -> &str {
                "eager-vfm"
            }
            fn on_activation(
                &mut self,
                row: RowAddr,
                _at: Cycle,
                actions: &mut Vec<MitigationAction>,
            ) {
                for n in row.neighbors(1, &self.0) {
                    actions.push(MitigationAction::TargetedRefresh(n));
                }
            }
        }
        let cfg = ControllerConfig::test_config();
        let mut c = MemoryController::new(cfg.clone(), Box::new(EagerVfm(cfg.geometry)));
        let mapper = *c.mapper();
        let a = mapper.row_base(RowAddr::new(0, 0, 0, 500));
        let b = mapper.row_base(RowAddr::new(0, 0, 0, 700));
        let mut now = 0;
        for _ in 0..6_000 {
            now = c.access(a, false, now);
            now = c.access(b, false, now);
        }
        // Distance-1 victims survive; (distance-2 disturbance from refreshes
        // is exactly the Half-Double risk, but 6K acts are not enough here.)
        let flips = c.take_bit_flips();
        assert!(flips.is_empty(), "eager VFM should stop classic hammering");
        assert!(c.stats().targeted_refreshes > 0);
    }

    /// Returns `swaps` row swaps from the first activation only and
    /// records that activation's cycle in `fired_at`.
    struct SwapBurst {
        swaps: u32,
        fired_at: Rc<Cell<Option<Cycle>>>,
    }

    impl Mitigation for SwapBurst {
        fn name(&self) -> &str {
            "swap-burst"
        }
        fn on_activation(&mut self, row: RowAddr, at: Cycle, actions: &mut Vec<MitigationAction>) {
            if self.fired_at.get().is_some() {
                return;
            }
            self.fired_at.set(Some(at));
            for i in 1..=self.swaps {
                actions.push(MitigationAction::RowSwap {
                    a: row,
                    b: row.with_row(row.row.0 + 50 * i),
                });
            }
        }
    }

    #[test]
    fn row_swap_action_blocks_channel_and_costs_time() {
        let swap_once = SwapBurst {
            swaps: 1,
            fired_at: Rc::default(),
        };
        let mut c = MemoryController::new(ControllerConfig::test_config(), Box::new(swap_once));
        let d1 = c.access(0, false, 0);
        assert_eq!(c.stats().swaps, 1);
        assert!(c.stats().swap_busy_cycles > 4_000); // ~1.46 µs at 3.2 GHz
                                                     // Next access on the channel waits out the swap.
        let d2 = c.access(1 << 20, false, d1);
        assert!(d2 >= c.stats().swap_busy_cycles);
    }

    #[test]
    fn swaps_serialize_on_the_channel() {
        // Two swaps from one activation run back to back, not overlapped:
        // the channel's next access waits out both.
        let fired_at = Rc::default();
        let swap_twice = SwapBurst {
            swaps: 2,
            fired_at: Rc::clone(&fired_at),
        };
        let cfg = ControllerConfig::test_config();
        let swap_cycles = cfg.swap_cycles;
        let mut c = MemoryController::new(cfg, Box::new(swap_twice));
        let d1 = c.access(0, false, 0);
        let at = fired_at.get().expect("the first access activates");
        assert_eq!(c.stats().swaps, 2);
        assert_eq!(c.stats().swap_busy_cycles, 2 * swap_cycles);
        let d2 = c.access(1 << 20, false, d1);
        assert!(
            d2 >= at + 2 * swap_cycles,
            "next access done at {d2}, swaps from {at} need {}",
            2 * swap_cycles
        );
    }

    #[test]
    fn closed_page_policy_never_hits() {
        let mut cfg = ControllerConfig::test_config();
        cfg.page_policy = PagePolicy::Closed;
        let mut c = MemoryController::new(cfg, Box::new(NoMitigation::new()));
        let mut now = 0;
        for _ in 0..20 {
            now = c.access(0, false, now); // same line every time
        }
        assert_eq!(c.stats().row_hits, 0, "closed page must never row-hit");
        assert_eq!(c.stats().activations, 20);
        // Open page on the same stream hits after the first access.
        let mut open = MemoryController::new(
            ControllerConfig::test_config(),
            Box::new(NoMitigation::new()),
        );
        let mut now = 0;
        for _ in 0..20 {
            now = open.access(0, false, now);
        }
        assert_eq!(open.stats().row_hits, 19);
    }

    #[test]
    fn epoch_histories_record_hot_rows() {
        let mut cfg = ControllerConfig::test_config();
        cfg.act_stat_threshold = 10;
        let mut c = MemoryController::new(cfg, Box::new(NoMitigation::new()));
        let mapper = *c.mapper();
        let hot = mapper.row_base(RowAddr::new(0, 0, 0, 5));
        let cold = mapper.row_base(RowAddr::new(0, 0, 0, 800));
        let mut now = 0;
        for _ in 0..20 {
            now = c.access(hot, false, now);
            now = c.access(cold, false, now);
        }
        c.flush_epoch();
        // Both rows got 20 activations >= 10.
        assert_eq!(c.stats().epoch_hot_row_history.last(), Some(&2));
    }

    #[test]
    fn full_refresh_blocks_everything_for_milliseconds() {
        struct PanicButton;
        impl Mitigation for PanicButton {
            fn name(&self) -> &str {
                "panic"
            }
            fn on_activation(
                &mut self,
                _row: RowAddr,
                _at: Cycle,
                actions: &mut Vec<MitigationAction>,
            ) {
                actions.push(MitigationAction::FullRefresh);
            }
        }
        let mut c = MemoryController::new(ControllerConfig::test_config(), Box::new(PanicButton));
        let d1 = c.access(0, false, 0);
        assert_eq!(c.stats().full_refreshes, 1);
        let d2 = c.access(1 << 20, false, d1);
        let t = c.config().timing;
        assert!(d2 >= 8_192 * t.t_rfc, "full refresh must cost ~2.8 ms");
    }
}
