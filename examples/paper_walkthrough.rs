//! Paper walkthrough: the conceptual figures of the paper, executed.
//!
//! * Figure 3 — the 3-entry Misra-Gries tracker example, step by step,
//!   exactly with the paper's state (A:6, X:3, Y:9, spill 2);
//! * Figure 4 — a row swap through the swap buffers, with its timing;
//! * Figure 2 — the access flow ①–⑤ through RIT and HRT;
//! * Figure 7 — one round of the attacker's optimal strategy.
//!
//! Run with: `cargo run --example paper_walkthrough`

use rrs::core::rrs::{BankRrs, RrsAction, RrsConfig};
use rrs::core::tracker::{CamTracker, HotRowTracker, TrackerConfig};
use rrs::dram::timing::TimingParams;

fn main() {
    figure3();
    figure4();
    figure2_flow();
    figure7_attacker_round();
}

/// Figure 3: "Operation of Misra-Gries Tracker with 3-entries."
fn figure3() {
    println!("== Figure 3: Misra-Gries tracker, 3 entries ==");
    let mut t = CamTracker::new(TrackerConfig {
        entries: 3,
        threshold: 1_000,
    });
    // Paper's initial state: {Row-A: 6, Row-X: 3, Row-Y: 9}, spill = 2.
    for _ in 0..6 {
        t.record_access(0xA);
    }
    for _ in 0..3 {
        t.record_access(0x5); // Row-X
    }
    // Building Y to 9 pushes the spill; rebuild the exact paper state by
    // constructing counts directly through accesses:
    for _ in 0..9 {
        t.record_access(0x9); // Row-Y
    }
    // Two misses to bump the spill counter to 2 (min is 3 at this point).
    t.record_access(0xB0);
    // the install filled nothing: entries are full, min=3 > spill=0 -> spill=1
    t.record_access(0xB1); // spill=2
    println!(
        "  state: A={:?} X={:?} Y={:?}, spill={}",
        t.count_of(0xA),
        t.count_of(0x5),
        t.count_of(0x9),
        t.spill()
    );

    // "When Row-A arrives, as it is present, the count is incremented 6->7."
    t.record_access(0xA);
    println!("  Row-A arrives: count -> {:?}", t.count_of(0xA).unwrap());

    // "When Row-B arrives ... min (3) > spill (2): only the spill counter is
    // incremented."
    t.record_access(0xB);
    println!(
        "  Row-B arrives: not installed (tracked? {}), spill -> {}",
        t.contains(0xB),
        t.spill()
    );

    // "When Row-C arrives ... min == spill: Row-X is replaced with Row-C and
    // its count set to spill+1 = 4."
    t.record_access(0xC);
    println!(
        "  Row-C arrives: Row-X evicted (tracked? {}), Row-C count = {:?}\n",
        t.contains(0x5),
        t.count_of(0xC).unwrap()
    );
}

/// Figure 4: the four-transfer row swap and its §4.4 timing.
fn figure4() {
    println!("== Figure 4: row swap through the swap buffers ==");
    let timing = TimingParams::ddr4_3200();
    let row_bytes = 8 * 1024;
    let transfer_ns = timing.cycles_to_ns(timing.row_transfer_cycles(row_bytes));
    println!("  (a) Row-X -> Swap-Buffer-1   {transfer_ns:.0} ns");
    println!("  (b) Row-Y -> Swap-Buffer-2   {transfer_ns:.0} ns");
    println!("  (c) Buffer-1 -> Row-Y        {transfer_ns:.0} ns");
    println!("  (d) Buffer-2 -> Row-X        {transfer_ns:.0} ns, RIT <- (X,Y)");
    println!(
        "  total: {:.2} µs per swap (paper: ~1.46 µs); swap+unswap: {:.2} µs\n",
        timing.cycles_to_ns(timing.row_swap_cycles(row_bytes)) / 1e3,
        timing.cycles_to_ns(timing.swap_plus_unswap_cycles(row_bytes)) / 1e3,
    );
}

/// Figure 2: the access flow ① index RIT+HRT, ② redirect, ④ swap verdict,
/// ⑤ randomized destination.
fn figure2_flow() {
    println!("== Figure 2: access flow through RIT and HRT ==");
    let config = RrsConfig::for_threshold(60, 1_000, 1_024);
    let mut bank = BankRrs::new(config, 0);
    let row = 42u64;
    println!("  ① access row {row}: RIT lookup -> {}", bank.resolve(row));
    for i in 1..=10 {
        bank.on_activation(row, |action| {
            if let RrsAction::Swap(ps) = action {
                println!("  ④ HRT: activation #{i} crossed T_RRS={}", config.t_rrs());
                println!(
                    "  ⑤ PRNG destination chosen; physical {} <-> {}",
                    ps.row_a, ps.row_b
                );
            }
        });
    }
    println!(
        "  ② next access to row {row} redirects to physical {}\n",
        bank.resolve(row)
    );
}

/// Figure 7: one round of the optimal attacker — T activations, a swap,
/// and the attacker forced to re-roll.
fn figure7_attacker_round() {
    println!("== Figure 7: the attacker's best strategy, one round ==");
    let config = RrsConfig::for_threshold(60, 1_000, 1 << 17);
    let mut bank = BankRrs::new(config, 0);
    let target = 7_777u64;
    let mut acts = 0;
    loop {
        acts += 1;
        let mut fired = false;
        bank.on_activation(target, |_| fired = true);
        if fired {
            break;
        }
    }
    println!("  attacker hammered row {target} exactly {acts} times (T_RRS)");
    println!(
        "  row now lives at physical {} — unknown to the attacker, who must\n  \
         pick another random row and hope it lands on a previously swapped\n  \
         location (needs k={} hits on one location; expected time at the\n  \
         paper's design point: 3.8 years, Table 4).",
        bank.resolve(target),
        config.k(),
    );
}
