//! The telemetry spine: one deterministic observability layer shared by the
//! memory controller, the RRS engine, the scheduler and the runner.
//!
//! # Architecture
//!
//! * [`metrics`] — counter / gauge / log₂-histogram / series primitives
//!   behind a name-indexed [`Registry`], plus epoch-aligned time-series
//!   sampling of every counter.
//! * [`event`] — the structured [`Event`] vocabulary (activations, swap
//!   lifecycle, HRT installs/evictions, CAT relocations, epoch rollovers,
//!   refreshes, scheduler stalls).
//! * [`probe`] — the bounded [`TraceRecorder`] ring buffer, the one event
//!   sink, with JSON-lines export.
//!
//! The [`Telemetry`] handle ties these together. It is a cheap `Rc` clone:
//! every component in one simulated system shares the same spine, each
//! holding its own clone plus the metric handles it registered. Metric
//! updates go through [`metrics::Counter`]-style handles (a single `Cell`
//! store — no registry lookup), and event emission is gated on
//! [`Telemetry::tracing`], so the disabled configuration costs one
//! predictable branch per would-be event.
//!
//! # Determinism contract
//!
//! Everything here is a pure function of the event/metric sequence fed in:
//! no wall-clock time, no hash-seeded iteration, no thread identity.
//! Registration order is construction order (single-threaded and fixed),
//! so snapshots and traces are byte-identical across runs with the same
//! seed — a property the test suite asserts.
//!
//! Handles are intentionally `!Send`: a spine belongs to one simulated
//! system, which the campaign engine always builds and runs on a single
//! worker thread.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod event;
pub mod metrics;
pub mod probe;

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use rrs_json::Json;

pub use event::Event;
pub use metrics::{
    Counter, EpochSample, Gauge, Histogram, HistogramSnapshot, Registry, Series, HISTOGRAM_BUCKETS,
};
pub use probe::TraceRecorder;

/// Default ring-buffer capacity for [`Telemetry::with_trace`] (1 Mi
/// events): activation events dominate traced runs, so a smaller ring
/// truncates most attack traces before a whole epoch fits. Larger runs
/// still drop their oldest events, and the recorder counts the drops.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

struct Shared {
    /// Fast-path gate: false means `emit` returns before constructing any
    /// borrow (no recorder attached).
    active: Cell<bool>,
    /// A cycle clock components without their own notion of time stamp
    /// events with; the controller keeps it current while tracing.
    now: Cell<u64>,
    registry: RefCell<Registry>,
    recorder: RefCell<Option<TraceRecorder>>,
}

/// A shared handle on one telemetry spine (registry + optional recorder).
///
/// Cloning is cheap and shares all state. See the crate docs for the
/// architecture and the determinism contract.
#[derive(Clone)]
pub struct Telemetry {
    shared: Rc<Shared>,
}

impl Telemetry {
    /// A spine with metrics only — no trace recorder, event emission
    /// disabled.
    pub fn new() -> Self {
        Telemetry {
            shared: Rc::new(Shared {
                active: Cell::new(false),
                now: Cell::new(0),
                registry: RefCell::new(Registry::new()),
                recorder: RefCell::new(None),
            }),
        }
    }

    /// A spine with an attached [`TraceRecorder`] holding at most
    /// `capacity` events; event emission is enabled.
    pub fn with_trace(capacity: usize) -> Self {
        let t = Telemetry::new();
        *t.shared.recorder.borrow_mut() = Some(TraceRecorder::new(capacity));
        t.shared.active.set(true);
        t
    }

    /// Whether events are being observed. Hot paths check this before
    /// constructing an [`Event`].
    #[inline]
    pub fn tracing(&self) -> bool {
        self.shared.active.get()
    }

    /// Updates the spine's cycle clock (used to stamp events emitted by
    /// components that have no clock of their own, e.g. the trackers).
    #[inline]
    pub fn set_now(&self, at: u64) {
        self.shared.now.set(at);
    }

    /// The spine's cycle clock.
    #[inline]
    pub fn now(&self) -> u64 {
        self.shared.now.get()
    }

    /// Emits one event to the recorder. A no-op (single branch) when
    /// [`Telemetry::tracing`] is false.
    #[inline]
    pub fn emit(&self, event: Event) {
        if !self.tracing() {
            return;
        }
        self.emit_active(event);
    }

    fn emit_active(&self, event: Event) {
        if let Some(r) = self.shared.recorder.borrow_mut().as_mut() {
            r.record(event);
        }
    }

    /// Registers (or finds) a counter by name.
    pub fn counter(&self, name: &str) -> Counter {
        self.shared.registry.borrow_mut().counter(name)
    }

    /// Registers (or finds) a gauge by name.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.shared.registry.borrow_mut().gauge(name)
    }

    /// Registers (or finds) a histogram by name.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.shared.registry.borrow_mut().histogram(name)
    }

    /// Registers (or finds) a series by name.
    pub fn series(&self, name: &str) -> Series {
        self.shared.registry.borrow_mut().series(name)
    }

    /// Records an epoch-aligned sample of every registered counter.
    pub fn sample_epoch(&self, epoch: u64, at: u64) {
        self.shared.registry.borrow_mut().sample_epoch(epoch, at);
    }

    /// Current value of every counter, in registration order.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.shared.registry.borrow().counter_values()
    }

    /// The full registry state as a deterministic JSON object.
    pub fn snapshot_json(&self) -> Json {
        self.shared.registry.borrow().snapshot_json()
    }

    /// The recorded trace as JSON lines, if a recorder is attached.
    pub fn trace_jsonl(&self) -> Option<String> {
        self.shared.recorder.borrow().as_ref().map(|r| r.to_jsonl())
    }

    /// Total events the recorder observed (0 without a recorder).
    pub fn events_recorded(&self) -> u64 {
        self.shared
            .recorder
            .borrow()
            .as_ref()
            .map_or(0, |r| r.recorded())
    }

    /// Events the recorder evicted to stay within capacity.
    pub fn events_dropped(&self) -> u64 {
        self.shared
            .recorder
            .borrow()
            .as_ref()
            .map_or(0, |r| r.dropped())
    }

    /// Retained event count per kind, if a recorder is attached.
    pub fn event_kind_counts(&self) -> Vec<(&'static str, u64)> {
        self.shared
            .recorder
            .borrow()
            .as_ref()
            .map_or_else(Vec::new, |r| r.kind_counts())
    }

    /// The retained events (oldest first), if a recorder is attached.
    ///
    /// Events are `Copy`; this clones the ring so downstream consumers
    /// (the forensics reconstructor, exporters) can replay the stream
    /// without holding the spine's interior borrow.
    pub fn events(&self) -> Vec<Event> {
        self.shared
            .recorder
            .borrow()
            .as_ref()
            .map_or_else(Vec::new, |r| r.events().copied().collect())
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("tracing", &self.tracing())
            .field("now", &self.now())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spine_emits_nothing() {
        let t = Telemetry::new();
        assert!(!t.tracing());
        t.emit(Event::Refresh { at: 1 });
        assert_eq!(t.events_recorded(), 0);
        assert!(t.trace_jsonl().is_none());
    }

    #[test]
    fn clones_share_the_spine() {
        let t = Telemetry::with_trace(16);
        let u = t.clone();
        let c = t.counter("x");
        u.counter("x").add(2);
        assert_eq!(c.get(), 2);
        u.emit(Event::Refresh { at: 5 });
        assert_eq!(t.events_recorded(), 1);
    }

    #[test]
    fn trace_export_is_deterministic() {
        let run = || {
            let t = Telemetry::with_trace(32);
            for at in 0..10 {
                t.emit(Event::Activation {
                    at,
                    bank: at % 2,
                    row: at * 3,
                });
            }
            t.trace_jsonl().unwrap_or_default()
        };
        assert_eq!(run(), run());
        assert_eq!(run().lines().count(), 10);
    }

    #[test]
    fn clock_stamps_are_shared() {
        let t = Telemetry::with_trace(4);
        t.set_now(123);
        let u = t.clone();
        assert_eq!(u.now(), 123);
    }

    #[test]
    fn events_accessor_clones_the_ring() {
        let t = Telemetry::with_trace(4);
        t.emit(Event::Refresh { at: 1 });
        t.emit(Event::FullRefresh { at: 2 });
        let evs = t.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0], Event::Refresh { at: 1 });
        assert_eq!(evs[1], Event::FullRefresh { at: 2 });
        assert!(Telemetry::new().events().is_empty());
    }

    /// Feeds one fixed sequence through a fresh spine.
    fn scripted_spine() -> Telemetry {
        let t = Telemetry::with_trace(64);
        let c = t.counter("acts");
        let h = t.histogram("lat");
        for at in 0..12u64 {
            c.add(1);
            h.record(at * at);
            t.emit(Event::Activation {
                at,
                bank: at % 3,
                row: at * 7,
            });
            if at % 4 == 3 {
                t.emit(Event::EpochRollover { at, epoch: at / 4 });
                t.sample_epoch(at / 4, at);
            }
        }
        t.emit(Event::SwapStart {
            at: 12,
            bank: 1,
            row_a: 7,
            row_b: 21,
        });
        t
    }

    #[test]
    fn event_kind_counts_match_the_script() {
        let t = scripted_spine();
        assert_eq!(
            t.event_kind_counts(),
            vec![("activation", 12), ("epoch_rollover", 3), ("swap_start", 1)]
        );
    }

    #[test]
    fn snapshot_json_is_byte_deterministic() {
        let a = scripted_spine().snapshot_json().to_string_pretty();
        let b = scripted_spine().snapshot_json().to_string_pretty();
        assert_eq!(a, b, "identically-scripted spines snapshot identically");
        let ta = scripted_spine().trace_jsonl().unwrap_or_default();
        let tb = scripted_spine().trace_jsonl().unwrap_or_default();
        assert_eq!(ta, tb, "and export byte-identical traces");
    }
}
