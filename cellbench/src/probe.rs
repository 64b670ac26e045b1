//! Outside-in probes. The simulator is timed only through its two public
//! plug-in traits, [`Mitigation`] and [`TraceSource`]; the hammer model,
//! which neither trait reaches, is timed by replaying the physical
//! activation stream the mitigation wrapper captures into a fresh
//! [`HammerModel`].

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use rrs::dram::geometry::RowAddr;
use rrs::dram::hammer::HammerModel;
use rrs::dram::timing::Cycle;
use rrs::mem_ctrl::controller::ControllerConfig;
use rrs::mem_ctrl::mitigation::{Mitigation, MitigationAction};
use rrs::sim::trace::{TraceRecord, TraceSource};
use rrs::telemetry::Telemetry;

/// Accumulated wall time and call count of one wrapped method.
#[derive(Debug, Default)]
pub struct Span {
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl Span {
    /// Runs `f`, adding its wall time and one call to the span.
    #[inline(always)]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.ns.set(self.ns.get() + ns);
        self.calls.set(self.calls.get() + 1);
        r
    }

    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Total time with `probe_ns` removed per call: the probe's own share
    /// of each measured interval. Clamped at 0, which a method cheaper than
    /// the probe (the undefended `resolve`, say) would otherwise undershoot.
    pub fn corrected_ns(&self, probe_ns: f64) -> f64 {
        (self.ns.get() as f64 - probe_ns * self.calls.get() as f64).max(0.0)
    }
}

/// Mean time an empty timed call adds to its span, in ns: the median of
/// several batches, so one descheduling does not set it.
pub fn calibrate_probe() -> f64 {
    const BATCHES: usize = 9;
    const CALLS: u64 = 200_000;
    let mut per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let span = Span::default();
            for i in 0..CALLS {
                span.time(|| black_box(i));
            }
            span.corrected_ns(0.0) / CALLS as f64
        })
        .collect();
    crate::median(&mut per_call)
}

/// What the controller does to its hammer model, in the order it does it.
#[derive(Debug, Clone, Copy)]
enum HammerOp {
    Activate(RowAddr),
    TargetedRefresh(RowAddr),
    FullRefresh,
    EndEpoch,
}

/// Spans of the wrapped mitigation, plus the captured activation stream.
#[derive(Debug, Default)]
pub struct MitigationProbe {
    pub resolve: Span,
    pub on_activation: Span,
    pub on_epoch_end: Span,
    last_physical: Cell<RowAddr>,
    stream: RefCell<Vec<HammerOp>>,
}

impl MitigationProbe {
    fn push(&self, op: HammerOp) {
        self.stream.borrow_mut().push(op);
    }

    /// Mirrors the controller's action execution: a swap or unswap charges
    /// each row two activations, `a` first.
    fn capture_actions(&self, actions: &[MitigationAction]) {
        let mut stream = self.stream.borrow_mut();
        for action in actions {
            match *action {
                MitigationAction::TargetedRefresh(row) => {
                    stream.push(HammerOp::TargetedRefresh(row));
                }
                MitigationAction::RowSwap { a, b } | MitigationAction::RowUnswap { a, b } => {
                    stream.extend([a, a, b, b].map(HammerOp::Activate));
                }
                MitigationAction::FullRefresh => stream.push(HammerOp::FullRefresh),
            }
        }
    }
}

/// A mitigation that forwards every method to `inner`, timing `resolve`,
/// `on_activation` and `on_epoch_end` and capturing the hammer stream.
pub struct TimedMitigation {
    inner: Box<dyn Mitigation>,
    probe: Rc<MitigationProbe>,
}

impl TimedMitigation {
    pub fn new(inner: Box<dyn Mitigation>, probe: Rc<MitigationProbe>) -> Self {
        TimedMitigation { inner, probe }
    }
}

impl Mitigation for TimedMitigation {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn resolve(&self, row: RowAddr) -> RowAddr {
        let physical = self.probe.resolve.time(|| self.inner.resolve(row));
        self.probe.last_physical.set(physical);
        physical
    }

    fn access_latency(&self) -> Cycle {
        self.inner.access_latency()
    }

    fn activation_delay(&mut self, row: RowAddr, now: Cycle) -> Cycle {
        self.inner.activation_delay(row, now)
    }

    fn on_activation(&mut self, row: RowAddr, at: Cycle, actions: &mut Vec<MitigationAction>) {
        // The controller charges the hammer model for the row this access
        // resolved to just before it reports the activation.
        self.probe
            .push(HammerOp::Activate(self.probe.last_physical.get()));
        let start = actions.len();
        self.probe
            .on_activation
            .time(|| self.inner.on_activation(row, at, actions));
        self.probe.capture_actions(&actions[start..]);
    }

    fn on_epoch_end(&mut self, now: Cycle, actions: &mut Vec<MitigationAction>) {
        // The controller closes the hammer model's window first.
        self.probe.push(HammerOp::EndEpoch);
        let start = actions.len();
        self.probe
            .on_epoch_end
            .time(|| self.inner.on_epoch_end(now, actions));
        self.probe.capture_actions(&actions[start..]);
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.inner.attach_telemetry(telemetry);
    }
}

/// A trace source that times every record its inner generator produces.
pub struct TimedSource {
    inner: Box<dyn TraceSource>,
    probe: Rc<Span>,
}

impl TimedSource {
    pub fn new(inner: Box<dyn TraceSource>, probe: Rc<Span>) -> Self {
        TimedSource { inner, probe }
    }
}

impl TraceSource for TimedSource {
    fn next_record(&mut self) -> TraceRecord {
        self.probe.time(|| self.inner.next_record())
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// The hammer-model line of one traced cell.
#[derive(Debug, Clone)]
pub struct HammerReplay {
    pub ns: f64,
    /// `record_activation` calls: demand activations plus swap transfers.
    pub activations: u64,
    pub flips: u64,
    /// Rows at or above the controller's ACT threshold at each epoch end,
    /// as the controller records them in `epoch_hot_row_history`.
    pub epoch_hot_rows: Vec<usize>,
}

/// Replays the stream `probe` captured into a fresh hammer model with the
/// controller's configuration, doing what the controller does per op.
pub fn replay_hammer(probe: &MitigationProbe, config: &ControllerConfig) -> HammerReplay {
    let stream = probe.stream.take();
    let mut model = HammerModel::new(config.hammer.clone(), config.geometry);
    let mut activations = 0;
    let mut epoch_hot_rows = Vec::new();
    let t0 = Instant::now();
    for op in &stream {
        match *op {
            HammerOp::Activate(row) => {
                model.record_activation(row);
                activations += 1;
            }
            HammerOp::TargetedRefresh(row) => {
                if config.geometry.contains(row) {
                    model.record_targeted_refresh(row);
                }
            }
            HammerOp::FullRefresh => model.full_refresh(),
            HammerOp::EndEpoch => {
                epoch_hot_rows
                    .push(model.rows_with_activations_at_least(config.act_stat_threshold));
                model.end_epoch();
            }
        }
    }
    let ns = t0.elapsed().as_nanos() as f64;
    HammerReplay {
        ns,
        activations,
        flips: model.total_flips(),
        epoch_hot_rows,
    }
}

/// A mitigation whose every method answers differently from the trait's
/// default and records that it was called.
struct Sentinel {
    called: Rc<Cell<u32>>,
}

impl Sentinel {
    fn mark(&self, method: u32) {
        self.called.set(self.called.get() | 1 << method);
    }
}

impl Mitigation for Sentinel {
    fn name(&self) -> &str {
        self.mark(0);
        "sentinel"
    }

    fn resolve(&self, row: RowAddr) -> RowAddr {
        self.mark(1);
        row.with_row(row.row.0 + 1)
    }

    fn access_latency(&self) -> Cycle {
        self.mark(2);
        7
    }

    fn activation_delay(&mut self, _row: RowAddr, now: Cycle) -> Cycle {
        self.mark(3);
        now + 11
    }

    fn on_activation(&mut self, row: RowAddr, _at: Cycle, actions: &mut Vec<MitigationAction>) {
        self.mark(4);
        actions.push(MitigationAction::TargetedRefresh(row));
    }

    fn on_epoch_end(&mut self, _now: Cycle, actions: &mut Vec<MitigationAction>) {
        self.mark(5);
        actions.push(MitigationAction::FullRefresh);
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.mark(6);
        telemetry.counter("sentinel.attached").inc();
    }
}

/// Whether [`TimedMitigation`] forwards all seven `Mitigation` methods,
/// arguments and results included. A dropped `access_latency`, say, would
/// silently remove RRS's RIT charge from every access.
pub fn wrapper_forwards_every_method() -> bool {
    let called = Rc::new(Cell::new(0));
    let mut m = TimedMitigation::new(
        Box::new(Sentinel {
            called: called.clone(),
        }),
        Rc::default(),
    );
    let row = RowAddr::new(0, 0, 1, 40);
    let telemetry = Telemetry::new();
    let mut actions = Vec::new();
    let answers = m.name() == "sentinel"
        && m.resolve(row) == row.with_row(41)
        && m.access_latency() == 7
        && m.activation_delay(row, 100) == 111;
    m.on_activation(row, 5, &mut actions);
    m.on_epoch_end(9, &mut actions);
    m.attach_telemetry(&telemetry);
    answers
        && actions
            == [
                MitigationAction::TargetedRefresh(row),
                MitigationAction::FullRefresh,
            ]
        && telemetry.counter("sentinel.attached").get() == 1
        && called.get() == 0b111_1111
}
