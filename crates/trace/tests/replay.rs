//! Integration: capturing a calibrated generator and replaying it through
//! the simulator is equivalent to running the generator live.

use rrs_mem_ctrl::mitigation::NoMitigation;
use rrs_sim::config::SystemConfig;
use rrs_sim::runner::run_probed;
use rrs_sim::trace::TraceSource;
use rrs_telemetry::Telemetry;
use rrs_trace::{capture, read_records, write_records, ReplaySource, TraceFormat};
use rrs_workloads::catalog::spec_by_name;
use rrs_workloads::generator::SyntheticWorkload;

fn generator(core: usize, config: &SystemConfig) -> SyntheticWorkload {
    let spec = spec_by_name("gcc").expect("catalog");
    SyntheticWorkload::new(&spec, core, config, 77)
}

#[test]
fn captured_replay_matches_live_run() {
    let config = SystemConfig::test_config(20_000);
    // Capture enough records to cover the run without wrapping.
    let captured: Vec<Vec<_>> = (0..config.cores)
        .map(|c| capture(&mut generator(c, &config), 30_000))
        .collect();

    let live: Vec<Box<dyn TraceSource>> = (0..config.cores)
        .map(|c| Box::new(generator(c, &config)) as Box<dyn TraceSource>)
        .collect();
    let replayed: Vec<Box<dyn TraceSource>> = captured
        .iter()
        .map(|r| Box::new(ReplaySource::new(r.clone(), "replay")) as Box<dyn TraceSource>)
        .collect();

    let none = || Box::new(NoMitigation::new());
    let a = run_probed(&config, none(), live, "live", &Telemetry::new());
    let b = run_probed(&config, none(), replayed, "replay", &Telemetry::new());
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.stats.activations, b.stats.activations);
    assert_eq!(a.stats.row_hits, b.stats.row_hits);
    assert_eq!(a.core_ipc, b.core_ipc);
}

#[test]
fn round_trip_through_both_formats_preserves_sim_behavior() {
    let config = SystemConfig::test_config(5_000);
    let records = capture(&mut generator(0, &config), 8_000);
    for format in [TraceFormat::Binary, TraceFormat::Text] {
        let mut buf = Vec::new();
        write_records(&mut buf, &records, format).unwrap();
        let loaded = read_records(&buf[..]).unwrap();
        assert_eq!(loaded, records, "{format:?} round trip changed records");
    }
}
