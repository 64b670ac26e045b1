//! Quickstart: the RRS mechanism in isolation.
//!
//! Builds a single-bank Randomized Row-Swap engine at a small design point,
//! hammers one row, and shows the tracker firing, the swap happening, and
//! the Row Indirection Table redirecting subsequent accesses.
//!
//! Run with: `cargo run --example quickstart`

use rrs::core::rrs::{BankRrs, RrsAction, RrsConfig};
use rrs::core::tracker::HotRowTracker;

fn main() {
    // A scaled design point: defend T_RH = 60 by swapping every
    // T_RRS = 10 activations, in a 1024-row bank.
    let config = RrsConfig::for_threshold(60, 1_000, 1_024);
    println!("== Randomized Row-Swap quickstart ==");
    println!(
        "design point: T_RH = {}, T_RRS = {}, tracker entries = {}, RIT tuples = {}",
        config.t_rh,
        config.t_rrs(),
        config.tracker_entries(),
        config.rit_tuples
    );

    let mut bank = BankRrs::new(config, 0);
    let aggressor = 7u64;
    // The engine emits swap actions; whoever executes them counts them.
    let mut swaps = 0;

    println!("\nhammering logical row {aggressor}:");
    for act in 1..=30u64 {
        let mut quiet = true;
        bank.on_activation(aggressor, |action| {
            quiet = false;
            match action {
                RrsAction::Swap(ps) => {
                    swaps += 1;
                    println!(
                        "  ACT #{act:>2}: tracker hit a multiple of T_RRS -> swapped \
                     physical rows {} <-> {}",
                        ps.row_a, ps.row_b
                    );
                }
                RrsAction::Unswap(ps) => println!(
                    "  ACT #{act:>2}: RIT eviction -> un-swapped {} <-> {}",
                    ps.row_a, ps.row_b
                ),
                RrsAction::Alarm { row } => println!("  ACT #{act:>2}: detector alarm on {row}"),
            }
        });
        if quiet && act % 10 == 1 {
            println!(
                "  ACT #{act:>2}: row {} currently lives at physical row {}",
                aggressor,
                bank.resolve(aggressor)
            );
        }
    }

    println!("\nafter 30 activations:");
    println!("  swaps performed        : {swaps}");
    println!("  resolved location of 7 : {}", bank.resolve(aggressor));
    println!("  RIT tuples in use      : {}", bank.rit().tuples_in_use());
    println!(
        "  tracker count for row 7: {:?}",
        bank.tracker().count_of(aggressor)
    );

    println!("\nending the epoch (tracker reset, RIT locks cleared)...");
    bank.end_epoch();
    println!("  swaps in the epoch     : {swaps}");
    println!(
        "  mapping persists       : row 7 still at physical {}",
        bank.resolve(aggressor)
    );
    println!("\nThe aggressor never accumulated more than T_RRS activations at any");
    println!("single physical location: the spatial correlation between aggressor");
    println!("and victim rows is broken, which is the core idea of the paper.");
}
