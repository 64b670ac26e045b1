//! Epoch inspector: the life cycle of RRS state across refresh windows.
//!
//! Drives a multi-epoch run and prints per-epoch dynamics — tracker resets,
//! RIT lock/lazy-drain behaviour (§4.3), swap counts, and the attack
//! detector extension (§5.3.2 footnote 2) flagging a swap-chasing attack.
//!
//! Run with: `cargo run --release --example epoch_inspector`

use rrs::core::detector::DetectorConfig;
use rrs::core::rrs::{BankRrs, RrsAction, RrsConfig};
use rrs::telemetry::Telemetry;

/// The swaps and unswaps the bank emitted: in a full simulation the memory
/// controller executes these actions and counts them.
#[derive(Default)]
struct Ledger {
    swaps: u64,
    epoch_swaps: u64,
    unswaps: u64,
}

impl Ledger {
    fn record(&mut self, action: RrsAction) {
        match action {
            RrsAction::Swap(_) => {
                self.swaps += 1;
                self.epoch_swaps += 1;
            }
            RrsAction::Unswap(_) => self.unswaps += 1,
            RrsAction::Alarm { .. } => {}
        }
    }

    /// Closes the epoch; returns the swaps it performed.
    fn end_epoch(&mut self) -> u64 {
        std::mem::take(&mut self.epoch_swaps)
    }
}

fn main() {
    let mut config = RrsConfig::for_threshold(60, 2_000, 4_096).with_detector(DetectorConfig {
        swaps_per_row_alarm: 3,
    });
    // Shrink the RIT so the lazy-drain phase actually has to evict.
    config.rit_tuples = 60;
    println!("== Epoch inspector ==");
    println!(
        "T_RRS = {}, tracker entries = {}, RIT tuples = {}, detector alarms at {} same-row swaps/epoch",
        config.t_rrs(),
        config.tracker_entries(),
        config.rit_tuples,
        config.detector.unwrap().swaps_per_row_alarm
    );

    let mut bank = BankRrs::new(config, 0);
    // Destination retries are a registry counter of the bank.
    let spine = Telemetry::new();
    bank.attach_telemetry(&spine);
    let mut ledger = Ledger::default();

    // Phase 1: benign-ish traffic — a few warm rows, below the threshold.
    println!("\n-- epoch 0: benign traffic (rows 10..20, 8 ACTs each) --");
    for row in 10..20u64 {
        for _ in 0..8 {
            bank.on_activation(row, |a| ledger.record(a));
        }
    }
    report(&bank, &ledger, &spine, "after benign traffic");
    bank.end_epoch();
    let swaps = ledger.end_epoch();
    println!("  epoch 0 closed: {swaps} swaps, locks cleared");

    // Phase 2: one hot row — swaps accumulate, mapping persists.
    println!("\n-- epoch 1: one hot row (row 42, 35 ACTs) --");
    for _ in 0..35 {
        bank.on_activation(42, |a| ledger.record(a));
    }
    report(&bank, &ledger, &spine, "after hot row");
    println!(
        "  row 42 now resolves to physical {} (was 42)",
        bank.resolve(42)
    );
    bank.end_epoch();
    let swaps = ledger.end_epoch();
    println!("  epoch 1 closed: {swaps} swaps; mapping persists (lazy drain)");
    println!("  row 42 still resolves to {}", bank.resolve(42));

    // Phase 3: an attacker repeatedly re-hammering the same row — the
    // detector extension fires.
    println!("\n-- epoch 2: attacker re-hammers row 42 --");
    let mut alarms = 0;
    for _ in 0..60 {
        bank.on_activation(42, |action| {
            if let RrsAction::Alarm { row } = action {
                alarms += 1;
                println!("  !! detector alarm: row {row} swapped repeatedly this epoch");
            }
            ledger.record(action);
        });
    }
    report(&bank, &ledger, &spine, "after attack burst");
    println!("  alarms raised: {alarms} (escalation: preemptive full-memory refresh)");

    // Phase 4: RIT drains lazily under fresh traffic.
    println!("\n-- epoch 3: fresh traffic forces lazy drain --");
    bank.end_epoch();
    ledger.end_epoch();
    let before = bank.rit().tuples_in_use();
    for row in 100..140u64 {
        for _ in 0..10 {
            bank.on_activation(row, |a| ledger.record(a));
        }
    }
    let after = bank.rit().tuples_in_use();
    println!("  RIT tuples: {before} -> {after} (evictions un-swap old epochs' rows)");
    println!("  unswaps so far: {}", ledger.unswaps);
}

fn report(bank: &BankRrs, ledger: &Ledger, spine: &Telemetry, label: &str) {
    use rrs::core::tracker::HotRowTracker;
    println!(
        "  [{label}] tracker rows: {}, RIT tuples: {} (locked {}), swaps: {}, retries: {}",
        bank.tracker().len(),
        bank.rit().tuples_in_use(),
        bank.rit().locked_count(),
        ledger.swaps,
        spine.counter("rrs.destination_retries").get(),
    );
}
