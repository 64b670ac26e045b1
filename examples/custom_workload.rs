//! Custom workloads end to end: define a workload in a spec file, run it
//! against RRS, capture its trace, and replay the trace deterministically.
//!
//! This is the adoption path for users who want to study their own access
//! patterns rather than the paper's 78-workload population.
//!
//! Run with: `cargo run --release --example custom_workload`

use rrs::experiments::{ExperimentConfig, MitigationKind};
use rrs::sim::{run_probed, TraceSource};
use rrs::telemetry::Telemetry;
use rrs::workloads::catalog::Workload;
use rrs::workloads::generator::SyntheticWorkload;

const SPEC: &str = "\
# A pointer-chasing kernel with a small hot index structure.
workload chasing_kernel
footprint_mb 512
mpki 9.0
hot_rows 64
write_fraction 0.2
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Custom workloads: spec file -> run -> capture -> replay ==\n");

    // 1. Parse the spec (normally from a file via rrs_workloads::load_specs).
    let specs = rrs::workloads::parse_specs(SPEC)?;
    let spec = specs[0];
    println!(
        "parsed {:?}: footprint {} MB, MPKI {}, {} hot rows",
        spec.name,
        spec.footprint_bytes >> 20,
        spec.mpki,
        spec.hot_rows
    );

    // 2. Run it under no defense and under RRS.
    let cfg = ExperimentConfig::default()
        .with_scale(100)
        .with_instructions(3_000_000);
    let workload = Workload::Single(spec);
    let base = cfg.run_workload(&workload, MitigationKind::None);
    let rrs_run = cfg.run_workload(&workload, MitigationKind::Rrs);
    println!(
        "\nrun: base IPC {:.3}, RRS normalized {:.4}, swaps/epoch {:.1}",
        base.aggregate_ipc(),
        rrs_run.normalized_to(&base),
        rrs_run.stats.mean_swaps_per_epoch()
    );
    println!(
        "multiprogram metrics vs baseline: weighted speedup {:.2}/{} cores, fairness {:.3}",
        rrs_run.weighted_speedup(&base).unwrap_or(f64::NAN),
        cfg.cores,
        rrs_run.fairness(&base).unwrap_or(f64::NAN)
    );

    // 3. Capture one core's trace and save it in both formats.
    let sys = cfg.system_config();
    let mut generator = SyntheticWorkload::new(&spec, 0, &sys, cfg.seed);
    let records = rrs_trace_capture(&mut generator, 50_000);
    let dir = std::env::temp_dir().join("rrs_custom_workload");
    std::fs::create_dir_all(&dir)?;
    let bin_path = dir.join("chasing_kernel.rrst");
    rrs_trace::save(&bin_path, &records, rrs_trace::TraceFormat::Binary)?;
    println!(
        "\ncaptured {} records -> {} ({} bytes)",
        records.len(),
        bin_path.display(),
        std::fs::metadata(&bin_path)?.len()
    );

    // 4. Replay the trace through the simulator: identical behaviour.
    let mut live_sys = sys.clone();
    live_sys.cores = 1;
    live_sys.instructions_per_core = 200_000;
    // The generator is calibrated for the full machine (`sys`), as the
    // captured trace was.
    let live = run_probed(
        &live_sys,
        cfg.build_mitigation(MitigationKind::Rrs),
        vec![Box::new(SyntheticWorkload::new(&spec, 0, &sys, cfg.seed))],
        "live",
        &Telemetry::new(),
    );
    let replayed = run_probed(
        &live_sys,
        cfg.build_mitigation(MitigationKind::Rrs),
        vec![Box::new(rrs_trace::ReplaySource::new(
            rrs_trace::load(&bin_path)?,
            "replay",
        ))],
        "replay",
        &Telemetry::new(),
    );
    println!(
        "replay check: live {} cycles vs replayed {} cycles ({})",
        live.cycles,
        replayed.cycles,
        if live.cycles == replayed.cycles {
            "bit-identical"
        } else {
            "DIVERGED"
        }
    );
    assert_eq!(live.cycles, replayed.cycles);
    Ok(())
}

/// Local alias to keep the example self-contained.
fn rrs_trace_capture(source: &mut dyn TraceSource, n: usize) -> Vec<rrs::sim::TraceRecord> {
    rrs_trace::capture(source, n)
}
