//! Telemetry-spine overhead benchmarks.
//!
//! The spine's contract is that a *disabled* spine (the default every
//! un-instrumented caller gets) costs nothing measurable: `run_workload` is
//! `prepare(..).run(&spine)` on a null spine, so `sim/null_spine` here must
//! stay within 1% of the pre-spine serial numbers, and the primitive benches
//! bound what each probe site pays when tracing is off.

use std::hint::black_box;

use bench::harness::Harness;
use rrs::campaign::CellAction;
use rrs::experiments::{ExperimentConfig, MitigationKind};
use rrs::telemetry::{Event, Telemetry, DEFAULT_TRACE_CAPACITY};
use rrs::workloads::catalog::{spec_by_name, Workload};

fn bench_primitives(h: &mut Harness) {
    h.bench("telemetry/counter_inc", |b| {
        let t = Telemetry::new();
        let c = t.counter("bench.counter");
        b.iter(|| {
            c.inc();
            black_box(c.get())
        })
    });
    h.bench("telemetry/histogram_record", |b| {
        let t = Telemetry::new();
        let hist = t.histogram("bench.histogram");
        let mut v = 0u64;
        b.iter(|| {
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            hist.record(v >> 32);
            black_box(hist.count())
        })
    });
    // The hot-path pattern is `if telemetry.tracing() { emit(...) }`, so
    // the disabled cost every instrumented site pays is one flag load.
    h.bench("telemetry/tracing_check_disabled", |b| {
        let t = Telemetry::new();
        let mut at = 0u64;
        b.iter(|| {
            at += 1;
            if t.tracing() {
                t.emit(Event::Refresh { at });
            }
            black_box(at)
        })
    });
    h.bench("telemetry/emit_traced", |b| {
        let t = Telemetry::with_trace(DEFAULT_TRACE_CAPACITY);
        let mut at = 0u64;
        b.iter(|| {
            at += 1;
            if t.tracing() {
                t.emit(Event::Refresh { at });
            }
            black_box(t.events_recorded())
        })
    });
}

fn bench_sim_overhead(h: &mut Harness) {
    let cfg = ExperimentConfig::smoke_test().with_instructions(50_000);
    let w = Workload::Single(spec_by_name("sphinx").unwrap());
    // Null spine: the exact path every pre-existing caller takes.
    h.bench("sim/null_spine", |b| {
        b.iter(|| black_box(cfg.run_workload(&w, MitigationKind::Rrs)))
    });
    // Tracing spine: full event recording on, bounding the opt-in cost.
    h.bench("sim/traced_spine", |b| {
        b.iter(|| {
            let t = Telemetry::with_trace(DEFAULT_TRACE_CAPACITY);
            let cell = cfg.prepare(CellAction::Workload(w), MitigationKind::Rrs);
            black_box(cell.run(&t))
        })
    });
}

fn main() {
    let mut h = Harness::from_args();
    bench_primitives(&mut h);
    bench_sim_overhead(&mut h);
    h.finish();
}
