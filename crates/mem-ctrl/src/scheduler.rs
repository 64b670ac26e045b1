//! Queue-based memory-request scheduler: FCFS and FR-FCFS.
//!
//! The main [`crate::MemoryController`] serves requests synchronously in
//! arrival order with burst batching — a faithful, fast abstraction of the
//! paper's FCFS setup. This module provides the explicit alternative: a
//! [`QueuedController`] holding a real per-channel request queue and
//! arbitrating each issue slot under a [`SchedPolicy`]:
//!
//! * **FCFS** — strictly oldest-first (the paper's §3 policy),
//! * **FR-FCFS** — first-ready (row hit) first, then oldest; the classic
//!   open-page scheduler most controllers implement.
//!
//! It is open-loop (callers submit timestamped requests and drain
//! completions), which makes it ideal for scheduler studies over recorded
//! traces: the `scheduler_ablation` bench uses it to quantify how much
//! row-hit-first arbitration matters and to validate the burst
//! approximation of the synchronous controller.

use std::collections::VecDeque;

use rrs_dram::bank::Bank;
use rrs_dram::geometry::DramGeometry;
use rrs_dram::timing::{Cycle, TimingParams};
use rrs_telemetry::{Counter, Event, Telemetry};

use crate::mapping::{AddressMapper, DecodedAddr};

/// Arbitration policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Oldest request first (the paper's configuration).
    #[default]
    Fcfs,
    /// Row hits first, then oldest (first-ready FCFS).
    FrFcfs,
}

/// A completed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Caller-assigned request id.
    pub id: u64,
    /// Cycle the data burst finished.
    pub done_at: Cycle,
    /// Whether the access hit the open row.
    pub row_hit: bool,
}

#[derive(Debug, Clone)]
struct Pending {
    id: u64,
    decoded: DecodedAddr,
    arrival: Cycle,
}

/// Per-channel queued controller with pluggable arbitration.
#[derive(Debug)]
pub struct QueuedController {
    geometry: DramGeometry,
    timing: TimingParams,
    policy: SchedPolicy,
    mapper: AddressMapper,
    banks: Vec<Bank>,
    queues: Vec<VecDeque<Pending>>,
    bus_free: Vec<Cycle>,
    completions: Vec<Completion>,
    queue_capacity: usize,
    telemetry: Telemetry,
    row_hits: Counter,
    activations: Counter,
    stalls: Counter,
}

impl QueuedController {
    /// Creates a controller with a private telemetry spine.
    pub fn new(
        geometry: DramGeometry,
        timing: TimingParams,
        policy: SchedPolicy,
        queue_capacity: usize,
    ) -> Self {
        Self::with_telemetry(geometry, timing, policy, queue_capacity, Telemetry::new())
    }

    /// Creates a controller publishing `sched.*` counters (and
    /// [`Event::SchedulerStall`] events, when tracing) on `telemetry`.
    pub fn with_telemetry(
        geometry: DramGeometry,
        timing: TimingParams,
        policy: SchedPolicy,
        queue_capacity: usize,
        telemetry: Telemetry,
    ) -> Self {
        QueuedController {
            mapper: AddressMapper::new(geometry),
            banks: (0..geometry.total_banks())
                .map(|_| Bank::new(timing))
                .collect(),
            queues: (0..geometry.channels).map(|_| VecDeque::new()).collect(),
            bus_free: vec![0; geometry.channels],
            completions: Vec::new(),
            queue_capacity: queue_capacity.max(1),
            row_hits: telemetry.counter("sched.row_hits"),
            activations: telemetry.counter("sched.activations"),
            stalls: telemetry.counter("sched.stalls"),
            telemetry,
            geometry,
            timing,
            policy,
        }
    }

    /// The arbitration policy in force.
    pub fn policy(&self) -> SchedPolicy {
        self.policy
    }

    /// Row-buffer hits served so far.
    pub fn row_hits(&self) -> u64 {
        self.row_hits.get()
    }

    /// Activations issued so far.
    pub fn activations(&self) -> u64 {
        self.activations.get()
    }

    /// Submissions rejected because the target channel queue was full.
    pub fn stalls(&self) -> u64 {
        self.stalls.get()
    }

    /// Row-buffer hit rate.
    pub fn hit_rate(&self) -> f64 {
        let total = self.row_hits() + self.activations();
        if total == 0 {
            0.0
        } else {
            self.row_hits() as f64 / total as f64
        }
    }

    /// Submits a request; returns `false` (and drops it) when the target
    /// channel queue is full — callers model backpressure by retrying.
    pub fn submit(&mut self, id: u64, addr: u64, arrival: Cycle) -> bool {
        let decoded = self.mapper.decode(addr);
        let ch = decoded.row.channel.0 as usize;
        let Some(q) = self.queues.get_mut(ch) else {
            return false;
        };
        if q.len() >= self.queue_capacity {
            self.stalls.inc();
            if self.telemetry.tracing() {
                let queued = self.queued() as u64;
                self.telemetry.emit(Event::SchedulerStall {
                    at: arrival,
                    queued,
                });
            }
            return false;
        }
        q.push_back(Pending {
            id,
            decoded,
            arrival,
        });
        true
    }

    /// Total queued requests.
    pub fn queued(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Services queues until every request whose arrival is `<= horizon`
    /// has been issued, then returns all completions so far (drained).
    /// Requests arriving after `horizon` stay queued.
    pub fn drain_until(&mut self, horizon: Cycle) -> Vec<Completion> {
        for ch in 0..self.queues.len() {
            while let Some(slot) = self.pick(ch, horizon) {
                self.issue(ch, slot);
            }
        }
        std::mem::take(&mut self.completions)
    }

    /// Chooses the next queue index to issue on `ch`, honouring the policy.
    fn pick(&self, ch: usize, horizon: Cycle) -> Option<usize> {
        let q = self.queues.get(ch)?;
        let eligible = |p: &Pending| p.arrival <= horizon;
        match self.policy {
            SchedPolicy::Fcfs => {
                // Strictly oldest eligible.
                q.iter()
                    .enumerate()
                    .filter(|(_, p)| eligible(p))
                    .min_by_key(|(_, p)| p.arrival)
                    .map(|(i, _)| i)
            }
            SchedPolicy::FrFcfs => {
                // Oldest *row-hitting* eligible request, else oldest.
                let hit = q
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| eligible(p))
                    .filter(|(_, p)| {
                        let idx = p.decoded.row.bank_index(&self.geometry);
                        self.banks.get(idx).and_then(|b| b.open_row()) == Some(p.decoded.row.row)
                    })
                    .min_by_key(|(_, p)| p.arrival)
                    .map(|(i, _)| i);
                hit.or_else(|| {
                    q.iter()
                        .enumerate()
                        .filter(|(_, p)| eligible(p))
                        .min_by_key(|(_, p)| p.arrival)
                        .map(|(i, _)| i)
                })
            }
        }
    }

    fn issue(&mut self, ch: usize, slot: usize) {
        // `pick` only returns occupied slots of existing queues; if the
        // structures ever disagree, the request is simply not issued.
        let Some(p) = self.queues.get_mut(ch).and_then(|q| q.remove(slot)) else {
            return;
        };
        let idx = p.decoded.row.bank_index(&self.geometry);
        let Some(bank) = self.banks.get_mut(idx) else {
            return;
        };
        let outcome = bank.access(p.decoded.row.row, p.arrival);
        if outcome.row_hit {
            self.row_hits.inc();
        } else {
            self.activations.inc();
        }
        let data = outcome
            .data_at
            .max(self.bus_free.get(ch).copied().unwrap_or(0));
        if let Some(slot) = self.bus_free.get_mut(ch) {
            *slot = data + self.timing.line_transfer_cycles();
        }
        self.completions.push(Completion {
            id: p.id,
            done_at: data,
            row_hit: outcome.row_hit,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_dram::geometry::RowAddr;

    fn controller(policy: SchedPolicy) -> QueuedController {
        QueuedController::new(
            DramGeometry::tiny_test(),
            TimingParams::ddr4_3200(),
            policy,
            64,
        )
    }

    fn addr_of(row: u32, col: u32) -> u64 {
        let mapper = AddressMapper::new(DramGeometry::tiny_test());
        mapper.encode(DecodedAddr {
            row: RowAddr::new(0, 0, 0, row),
            column: col,
        })
    }

    #[test]
    fn completes_submitted_requests() {
        let mut c = controller(SchedPolicy::Fcfs);
        assert!(c.submit(1, addr_of(5, 0), 0));
        assert!(c.submit(2, addr_of(5, 1), 10));
        let done = c.drain_until(1_000);
        assert_eq!(done.len(), 2);
        assert!(done[0].done_at > 0);
        assert_eq!(c.queued(), 0);
    }

    #[test]
    fn horizon_gates_future_arrivals() {
        let mut c = controller(SchedPolicy::Fcfs);
        c.submit(1, addr_of(5, 0), 0);
        c.submit(2, addr_of(6, 0), 10_000);
        let done = c.drain_until(100);
        assert_eq!(done.len(), 1);
        assert_eq!(c.queued(), 1);
        let rest = c.drain_until(20_000);
        assert_eq!(rest.len(), 1);
    }

    #[test]
    fn backpressure_when_queue_full() {
        let mut c = QueuedController::new(
            DramGeometry::tiny_test(),
            TimingParams::ddr4_3200(),
            SchedPolicy::Fcfs,
            2,
        );
        assert!(c.submit(1, addr_of(1, 0), 0));
        assert!(c.submit(2, addr_of(2, 0), 0));
        assert!(!c.submit(3, addr_of(3, 0), 0), "queue is full");
    }

    #[test]
    fn frfcfs_prefers_row_hits() {
        // Interleaved rows A,B,A,B...: FCFS ping-pongs (all activations
        // after the first), FR-FCFS reorders to serve each row's requests
        // together (half the activations).
        let pattern: Vec<(u32, u32)> = (0..16)
            .map(|i| (if i % 2 == 0 { 5 } else { 9 }, i / 2))
            .collect();
        let run = |policy| {
            let mut c = controller(policy);
            for (i, (row, col)) in pattern.iter().enumerate() {
                c.submit(i as u64, addr_of(*row, *col), i as u64);
            }
            c.drain_until(1_000_000);
            (c.activations(), c.hit_rate())
        };
        let (fcfs_acts, fcfs_rate) = run(SchedPolicy::Fcfs);
        let (fr_acts, fr_rate) = run(SchedPolicy::FrFcfs);
        assert_eq!(fcfs_acts, 16, "FCFS ping-pong activates every time");
        assert_eq!(fr_acts, 2, "FR-FCFS serves each row in one open stretch");
        assert!(fr_rate > fcfs_rate);
    }

    #[test]
    fn fcfs_preserves_arrival_order() {
        let mut c = controller(SchedPolicy::Fcfs);
        for i in 0..8u64 {
            c.submit(i, addr_of(i as u32, 0), i * 100);
        }
        let done = c.drain_until(1_000_000);
        let ids: Vec<u64> = done.iter().map(|d| d.id).collect();
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn frfcfs_never_starves_forever() {
        // Even with a steady row-hit stream, the oldest conflicting request
        // is served once the hit stream is exhausted at the horizon.
        let mut c = controller(SchedPolicy::FrFcfs);
        c.submit(0, addr_of(1, 0), 0); // opens row 1
        c.submit(1, addr_of(2, 0), 1); // conflicting
        for i in 0..10u64 {
            c.submit(10 + i, addr_of(1, 1 + i as u32), 2 + i);
        }
        let done = c.drain_until(1_000_000);
        assert_eq!(done.len(), 12);
        assert!(done.iter().any(|d| d.id == 1), "conflicting request served");
    }
}
