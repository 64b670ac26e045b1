//! Byte-identity regression against committed golden results.
//!
//! The campaign cache (`results/*.json`) and every figure/table binary
//! assume a `SimResult`'s pretty-printed JSON is a stable byte sequence
//! for a given configuration and seed. These tests execute one
//! representative *figure* cell (a benign Table-3 workload under RRS, the
//! Fig. 5 grid shape), one *table* cell (a double-sided attack under RRS,
//! the Table 7 grid shape) and one Graphene cell (Half-Double against the
//! bounded-tracker victim refresh) at smoke scale and compare the
//! serialized result byte-for-byte with the goldens committed under
//! `tests/golden/`.
//!
//! Any refactor that changes metric accounting, JSON field order, or
//! number formatting fails here before it can silently invalidate a
//! results cache. To re-bless after an *intentional* change:
//!
//! ```text
//! RRS_BLESS=1 cargo test --release -p rrs --test golden_results
//! ```

use std::path::PathBuf;

use rrs::campaign::{Campaign, Cell, CellAction, RunOptions};
use rrs::dram::power::CommandCounts;
use rrs::experiments::{ExperimentConfig, MitigationKind};
use rrs::sim::runner::SimResult;
use rrs::workloads::catalog::table3_workloads;
use rrs::workloads::AttackKind;
use rrs_json::ToJson;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("tests/golden")
}

fn result_of(cell: Cell) -> SimResult {
    let mut campaign = Campaign::new();
    let idx = campaign.push(cell);
    campaign.run(&RunOptions::quiet()).get(idx).clone()
}

fn check(label: &str, cell: Cell) {
    let id = cell.id();
    let got = result_of(cell).to_json().to_string_pretty();
    let path = golden_dir().join(format!("{id}.json"));
    if std::env::var_os("RRS_BLESS").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, &got).expect("write golden");
        eprintln!("blessed {label}: {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with RRS_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        got,
        want,
        "{label}: serialized result differs from committed golden {} — \
         metric accounting or JSON formatting changed; if intentional, re-bless",
        path.display()
    );
}

/// One Fig. 5-shaped cell: first Table-3 workload under RRS.
fn figure_cell() -> Cell {
    let workload = *table3_workloads().first().expect("table3 workloads");
    Cell {
        config: ExperimentConfig::smoke_test(),
        action: CellAction::Workload(workload),
        mitigation: MitigationKind::Rrs,
    }
}

/// One Table 7-shaped cell: double-sided attack under RRS, 2 epochs.
fn table_cell() -> Cell {
    Cell {
        config: ExperimentConfig::smoke_test(),
        action: CellAction::Attack {
            kind: AttackKind::DoubleSided,
            epochs: 2,
        },
        mitigation: MitigationKind::Rrs,
    }
}

/// Half-Double under Graphene, 2 epochs: the victim refreshes the
/// Misra-Gries tracker triggers are what hammer the distance-2 victim.
fn graphene_cell() -> Cell {
    Cell {
        config: ExperimentConfig::smoke_test(),
        action: CellAction::Attack {
            kind: AttackKind::HalfDouble,
            epochs: 2,
        },
        mitigation: MitigationKind::Graphene,
    }
}

#[test]
fn figure_cell_matches_golden() {
    check("fig5 cell", figure_cell());
}

#[test]
fn table_cell_matches_golden() {
    check("table7 cell", table_cell());
}

#[test]
fn graphene_cell_matches_golden() {
    check("graphene cell", graphene_cell());
}

/// Table 6 prices the commands `ControllerStats::command_counts` derives
/// from the `ctrl.*` counters. These are the counts the golden cells
/// recorded when each bank counted its own commands; the derivation must
/// reproduce them exactly.
#[test]
fn golden_cells_derive_the_recorded_command_counts() {
    let attack = CommandCounts {
        activates: 29_446,
        reads: 29_452,
        writes: 0,
        refreshes: 354,
        targeted_refreshes: 0,
        swap_transfers: 16_336,
    };
    let hmmer = CommandCounts {
        activates: 283,
        reads: 236,
        writes: 107,
        refreshes: 4,
        targeted_refreshes: 0,
        swap_transfers: 0,
    };
    assert_eq!(result_of(table_cell()).stats.command_counts(), attack);
    assert_eq!(result_of(figure_cell()).stats.command_counts(), hmmer);
}
