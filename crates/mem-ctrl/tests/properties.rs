//! Property-based tests for address mapping and controller behaviour.

#![allow(
    clippy::disallowed_types,
    reason = "a test membership set; its iteration order never reaches an assertion"
)]

use rrs_check::{check, Gen};
use rrs_dram::geometry::{DramGeometry, RowAddr};
use rrs_dram::timing::Cycle;
use rrs_mem_ctrl::controller::{ControllerConfig, MemoryController};
use rrs_mem_ctrl::mapping::AddressMapper;
use rrs_mem_ctrl::mitigation::{Mitigation, MitigationAction, NoMitigation};

/// Draws a valid (power-of-two) geometry.
fn geometry(g: &mut Gen) -> DramGeometry {
    DramGeometry {
        channels: 1 << g.u32_in(0..2),
        ranks_per_channel: 1 << g.u32_in(0..2),
        banks_per_rank: 1 << g.u32_in(1..5),
        rows_per_bank: 1 << g.u32_in(8..12),
        row_size_bytes: 8 * 1024,
    }
}

/// decode/encode round-trips for any in-range line-aligned address on
/// any valid geometry.
#[test]
fn mapper_round_trips() {
    check(|g| {
        let geom = geometry(g);
        let raw = g.u64();
        let m = AddressMapper::new(geom);
        let addr = (raw % m.address_space()) & !63;
        let d = m.decode(addr);
        assert!(geom.contains(d.row));
        assert_eq!(m.encode(d), addr);
    });
}

/// nth_row enumerates a bijection over all rows of any geometry.
#[test]
fn nth_row_is_a_bijection() {
    check(|g| {
        let geom = geometry(g);
        let m = AddressMapper::new(geom);
        let total = m.total_rows();
        let mut seen = std::collections::HashSet::new();
        for i in 0..total {
            assert!(seen.insert(m.nth_row(i)), "duplicate at {}", i);
        }
        assert_eq!(seen.len() as u64, total);
    });
}

/// Distinct line-aligned addresses decode to distinct (row, column)
/// coordinates — the mapping never aliases.
#[test]
fn mapping_never_aliases() {
    check(|g| {
        let m = AddressMapper::new(DramGeometry::asplos22_baseline());
        let a = (g.u64() % m.address_space()) & !63;
        let b = (g.u64() % m.address_space()) & !63;
        if a == b {
            return;
        }
        assert_ne!(m.decode(a), m.decode(b));
    });
}

/// Controller causality: completions are strictly after requests, and
/// requests presented in non-decreasing time order never produce
/// out-of-thin-air early completions.
#[test]
fn controller_is_causal() {
    check(|g| {
        let reqs = g.vec(1..80, |g| (g.u64(), g.bool(), g.u64_in(0..2_000)));
        let mut mc = MemoryController::new(
            ControllerConfig::test_config(),
            Box::new(NoMitigation::new()),
        );
        let mut now = 0u64;
        for (addr, is_write, gap) in reqs {
            now += gap;
            let done = mc.access(addr, is_write, now);
            assert!(done > now, "completion {} <= request {}", done, now);
        }
    });
}

/// Replays a cyclic script of per-activation verdicts: 0 does nothing,
/// 1 swaps the activated row with its pair row, 2 unswaps them.
struct ScriptedSwaps {
    script: Vec<u8>,
    next: usize,
}

impl Mitigation for ScriptedSwaps {
    fn name(&self) -> &str {
        "scripted-swaps"
    }

    fn on_activation(&mut self, row: RowAddr, _at: Cycle, actions: &mut Vec<MitigationAction>) {
        let verdict = self.script.get(self.next % self.script.len()).copied();
        self.next += 1;
        let (a, b) = (row, row.with_row(row.row.0 ^ 1));
        match verdict {
            Some(1) => actions.push(MitigationAction::RowSwap { a, b }),
            Some(2) => actions.push(MitigationAction::RowUnswap { a, b }),
            _ => {}
        }
    }
}

/// Statistics conservation: reads + writes equals requests served, and
/// every access is either a row hit or an activation. Under a mitigation
/// that swaps on arbitrary activations, the swap ledger balances too:
/// every swap and unswap blocks the channel for exactly `swap_cycles`,
/// and the per-epoch swap counts never exceed the lifetime total. Every
/// rank is refreshed once per elapsed `tREFI`.
#[test]
fn controller_stats_conserve() {
    check(|g| {
        let reqs = g.vec(1..100, |g| (g.u64(), g.bool(), g.below(16) == 0));
        let mitigation: Box<dyn Mitigation> = if g.bool() {
            Box::new(ScriptedSwaps {
                script: g.vec(1..8, |g| g.u8() % 3),
                next: 0,
            })
        } else {
            Box::new(NoMitigation::new())
        };
        let config = ControllerConfig::test_config();
        let mut mc = MemoryController::new(config.clone(), mitigation);
        let mut now = 0u64;
        for (addr, is_write, end_epoch) in &reqs {
            now = mc.access(*addr, *is_write, now);
            if *end_epoch {
                mc.flush_epoch();
            }
        }
        mc.advance_to(mc.now());
        let s = mc.stats();
        assert_eq!(s.reads + s.writes, reqs.len() as u64);
        assert_eq!(s.activations + s.row_hits, reqs.len() as u64);
        assert_eq!(
            s.swap_busy_cycles,
            (s.swaps + s.unswaps) * config.swap_cycles
        );
        assert!(s.epoch_swap_history.iter().sum::<u64>() <= s.swaps);
        // One refresh command per rank every tREFI, up to the clock.
        let ranks = config.geometry.total_banks() / config.geometry.banks_per_rank;
        assert_eq!(
            s.refreshes,
            ranks as u64 * (mc.now() / config.timing.t_refi)
        );
    });
}
