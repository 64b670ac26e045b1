//! Row Hammer attack patterns as trace sources.
//!
//! All attackers issue back-to-back reads (gap 0) — Row Hammer attacks
//! bypass the cache hierarchy (`clflush` or eviction sets), so these traces
//! run without an LLC. Every pattern keeps its aggressors in one bank and
//! alternates between at least two rows so each access forces an activation
//! (the row buffer never retains the aggressor).
//!
//! Patterns:
//!
//! * [`AttackKind::SingleSided`] / [`AttackKind::DoubleSided`] — classic
//!   patterns targeting distance-1 victims (§2.3);
//! * [`AttackKind::HalfDouble`] — the Google attack (§2.5): massive
//!   activation of near-aggressors drives distance-2 flips *through*
//!   victim-focused mitigation;
//! * [`AttackKind::ManySided`] — TRRespass-style multi-aggressor sweep;
//! * [`AttackKind::SwapChasing`] — the optimal attack against RRS from
//!   §5.3/Figure 7: hammer a random row exactly `T_RRS` times (forcing a
//!   swap), then move to another random row, hoping to land on previously
//!   swapped physical rows;
//! * [`AttackKind::Blacksmith`] — a non-uniform multi-pair pattern with
//!   randomized intensities, after the Blacksmith fuzzer that broke
//!   in-DRAM TRR (it defeats *sampling*-based trackers; exhaustive
//!   trackers like Misra-Gries, and RRS on top, are unaffected);
//! * [`AttackKind::Dos`] — the §8.1 denial-of-service probe: continuous
//!   activations to a few rows, which BlockHammer throttles by ~200×;
//! * [`AttackKind::UniformRandom`] — noise baseline.

use rrs_core::rng::DetRng;
use rrs_dram::geometry::RowAddr;
use rrs_mem_ctrl::mapping::AddressMapper;
use rrs_sim::trace::{TraceRecord, TraceSource};

/// Which attack to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    /// Hammer one aggressor (plus a distant row to defeat the row buffer).
    SingleSided,
    /// Hammer `victim ± 1` alternately.
    DoubleSided,
    /// Hammer `victim ± 2` (near-aggressors); flips at the victim arise
    /// from distance-2 disturbance plus the defense's own victim refreshes.
    HalfDouble,
    /// Hammer `n` aggressors spaced two rows apart.
    ManySided(u32),
    /// §5.3's randomized swap-chasing attack with per-row budget `t`.
    SwapChasing {
        /// Activations per randomly chosen row before moving on (`T_RRS`).
        t: u64,
    },
    /// Blacksmith-style non-uniform pattern: `n` aggressor pairs hammered
    /// with randomized per-pair frequencies and phases (the fuzzing attack
    /// family that defeated in-DRAM TRR after this paper; §1's "attackers
    /// continue to develop complex access patterns").
    Blacksmith {
        /// Number of double-sided aggressor pairs in the schedule.
        n: u32,
    },
    /// Continuous activations to two rows (BlockHammer DoS probe).
    Dos,
    /// Uniformly random rows within the bank.
    UniformRandom,
}

impl AttackKind {
    /// Short name for reporting.
    pub fn name(&self) -> String {
        match self {
            AttackKind::SingleSided => "single-sided".into(),
            AttackKind::DoubleSided => "double-sided".into(),
            AttackKind::HalfDouble => "half-double".into(),
            AttackKind::ManySided(n) => format!("many-sided-{n}"),
            AttackKind::SwapChasing { t } => format!("swap-chasing-t{t}"),
            AttackKind::Blacksmith { n } => format!("blacksmith-{n}"),
            AttackKind::Dos => "dos".into(),
            AttackKind::UniformRandom => "uniform-random".into(),
        }
    }
}

/// An attack trace source.
pub struct Attack {
    kind: AttackKind,
    name: String,
    mapper: AddressMapper,
    bank: RowAddr,
    rows_per_bank: u32,
    /// Current aggressor set (row ids within the bank).
    aggressors: Vec<u32>,
    cursor: usize,
    /// SwapChasing: accesses remaining before re-picking aggressors.
    budget: u64,
    /// Classic patterns: accesses per victim group before moving on.
    ///
    /// A real classic attacker spends roughly `T_RH` activations per
    /// aggressor and then targets the next victim; concentrating an entire
    /// epoch on one aggressor is the defining trait of Half-Double (§2.5),
    /// not of classic patterns. `None` (the default) never rotates.
    rotate_after: Option<u64>,
    accesses_in_group: u64,
    group_offset: u32,
    rng: DetRng,
}

/// The victim row all fixed patterns aim at (mid-bank, away from edges).
pub const DEFAULT_VICTIM_ROW: u32 = 5_000;

impl Attack {
    /// Creates an attack against bank `(channel 0, rank 0, bank 0)`.
    pub fn new(kind: AttackKind, mapper: AddressMapper, seed: u64) -> Self {
        let geometry = *mapper.geometry();
        let bank = RowAddr::new(0, 0, 0, 0);
        let rows_per_bank = geometry.rows_per_bank as u32;
        let v = DEFAULT_VICTIM_ROW.min(rows_per_bank / 2);
        let aggressors = match kind {
            AttackKind::SingleSided => vec![v + 1, v + 1000],
            AttackKind::DoubleSided => vec![v - 1, v + 1],
            AttackKind::HalfDouble => vec![v - 2, v + 2],
            AttackKind::ManySided(n) => (0..n.max(2)).map(|i| v + 2 * i).collect(),
            AttackKind::SwapChasing { .. } | AttackKind::UniformRandom => vec![0, 1],
            AttackKind::Blacksmith { n } => {
                // n aggressor pairs around distinct victims, each pair
                // repeated with its own intensity (1..=4 consecutive
                // double-sided rounds per visit) — a fixed randomized
                // schedule, re-rolled per seed like Blacksmith's fuzzer.
                let mut rng = DetRng::seed_from_u64(seed ^ 0xB1AC);
                let mut schedule = Vec::new();
                for i in 0..n.max(1) {
                    let victim = v + 10 * i;
                    let intensity = 1 + rng.next_below(4) as u32;
                    for _ in 0..intensity {
                        schedule.push(victim - 1);
                        schedule.push(victim + 1);
                    }
                }
                schedule
            }
            AttackKind::Dos => vec![v, v + 1000],
        };
        let mut attack = Attack {
            name: kind.name(),
            kind,
            mapper,
            bank,
            rows_per_bank,
            aggressors,
            cursor: 0,
            budget: 0,
            rotate_after: None,
            accesses_in_group: 0,
            group_offset: 0,
            rng: DetRng::seed_from_u64(seed ^ 0xA77AC4),
        };
        if let AttackKind::SwapChasing { .. } | AttackKind::UniformRandom = kind {
            attack.repick();
        }
        attack
    }

    /// Limits classic patterns (single/double/many-sided) to `accesses`
    /// per victim group, after which the whole aggressor set shifts to a
    /// fresh neighbourhood — the realistic classic-attack campaign shape.
    /// Half-Double, DoS, and the randomized patterns are unaffected.
    pub fn with_rotation(mut self, accesses: u64) -> Self {
        if matches!(
            self.kind,
            AttackKind::SingleSided | AttackKind::DoubleSided | AttackKind::ManySided(_)
        ) {
            self.rotate_after = Some(accesses.max(1));
        }
        self
    }

    /// The victim row of the fixed patterns (for assertions in tests).
    pub fn victim_row(&self) -> u32 {
        DEFAULT_VICTIM_ROW.min(self.rows_per_bank / 2)
    }

    fn repick(&mut self) {
        // Two fresh random aggressors (a pair, so every access activates).
        let a = self.rng.next_below(self.rows_per_bank as u64) as u32;
        let b = self.rng.next_below(self.rows_per_bank as u64) as u32;
        self.aggressors = vec![a, b];
        self.budget = match self.kind {
            // T activations per row: 2T accesses for the pair.
            AttackKind::SwapChasing { t } => 2 * t,
            _ => 2,
        };
    }

    fn next_row(&mut self) -> u32 {
        match self.kind {
            AttackKind::SwapChasing { .. } | AttackKind::UniformRandom => {
                if self.budget == 0 {
                    self.repick();
                }
                self.budget -= 1;
                let row = self.aggressors[self.cursor % self.aggressors.len()];
                self.cursor += 1;
                row
            }
            _ => {
                if let Some(limit) = self.rotate_after {
                    if self.accesses_in_group >= limit {
                        // Move the campaign to a fresh neighbourhood.
                        self.accesses_in_group = 0;
                        let max_aggr =
                            *self.aggressors.iter().max().unwrap_or(&0) - self.group_offset;
                        let next = self.group_offset + 2003;
                        self.group_offset = if next + max_aggr + 4 >= self.rows_per_bank {
                            0
                        } else {
                            next
                        };
                        let base = self.group_offset;
                        let kind = self.kind;
                        let v = self.victim_row();
                        self.aggressors = match kind {
                            AttackKind::SingleSided => vec![base + v + 1, base + v + 1000],
                            AttackKind::DoubleSided => vec![base + v - 1, base + v + 1],
                            AttackKind::ManySided(n) => {
                                (0..n.max(2)).map(|i| base + v + 2 * i).collect()
                            }
                            _ => unreachable!("rotation only set for classic patterns"),
                        };
                    }
                    self.accesses_in_group += 1;
                }
                let row = self.aggressors[self.cursor % self.aggressors.len()];
                self.cursor += 1;
                row % self.rows_per_bank
            }
        }
    }
}

impl TraceSource for Attack {
    fn next_record(&mut self) -> TraceRecord {
        let row = self.next_row();
        let addr = self.mapper.row_base(self.bank.with_row(row));
        TraceRecord::read(0, addr)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A quiescent co-runner: compute-bound filler for attacker experiments.
pub struct IdleFiller {
    addr: u64,
}

impl IdleFiller {
    /// Creates a filler touching a private region.
    pub fn new(core: usize) -> Self {
        IdleFiller {
            addr: (core as u64 + 8) << 26,
        }
    }
}

impl TraceSource for IdleFiller {
    fn next_record(&mut self) -> TraceRecord {
        self.addr += 64;
        TraceRecord::read(4_000, self.addr)
    }

    fn name(&self) -> &str {
        "idle-filler"
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_types,
    reason = "test-only reference counts and membership checks; their iteration order never reaches a result"
)]
mod tests {
    use super::*;
    use rrs_dram::geometry::DramGeometry;

    fn mapper() -> AddressMapper {
        AddressMapper::new(DramGeometry::asplos22_baseline())
    }

    fn rows_of(attack: &mut Attack, n: usize) -> Vec<u32> {
        let m = attack.mapper;
        (0..n)
            .map(|_| {
                let r = attack.next_record();
                let d = m.decode(r.addr);
                assert_eq!(d.row.bank.0, 0, "attack must stay in one bank");
                assert_eq!(d.row.channel.0, 0);
                d.row.row.0
            })
            .collect()
    }

    #[test]
    fn double_sided_alternates_victim_neighbors() {
        let mut a = Attack::new(AttackKind::DoubleSided, mapper(), 1);
        let v = a.victim_row();
        let rows = rows_of(&mut a, 6);
        assert_eq!(rows, vec![v - 1, v + 1, v - 1, v + 1, v - 1, v + 1]);
    }

    #[test]
    fn half_double_hammers_distance_two() {
        let mut a = Attack::new(AttackKind::HalfDouble, mapper(), 1);
        let v = a.victim_row();
        let rows = rows_of(&mut a, 4);
        assert_eq!(rows, vec![v - 2, v + 2, v - 2, v + 2]);
    }

    #[test]
    fn many_sided_covers_n_aggressors() {
        let mut a = Attack::new(AttackKind::ManySided(4), mapper(), 1);
        let rows = rows_of(&mut a, 4);
        let mut unique = rows.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 4);
    }

    #[test]
    fn swap_chasing_moves_after_t_per_row() {
        let t = 10u64;
        let mut a = Attack::new(AttackKind::SwapChasing { t }, mapper(), 1);
        let first_round = rows_of(&mut a, 2 * t as usize);
        let mut counts = std::collections::HashMap::new();
        for r in &first_round {
            *counts.entry(*r).or_insert(0u64) += 1;
        }
        // Exactly two rows, each activated T times.
        assert_eq!(counts.len(), 2);
        assert!(counts.values().all(|&c| c == t));
        // Next round uses fresh rows with overwhelming probability.
        let second = rows_of(&mut a, 2);
        assert!(
            second.iter().any(|r| !counts.contains_key(r)),
            "aggressors not re-picked"
        );
    }

    #[test]
    fn attack_records_have_zero_gap() {
        let mut a = Attack::new(AttackKind::Dos, mapper(), 1);
        for _ in 0..10 {
            assert_eq!(a.next_record().gap, 0);
        }
    }

    #[test]
    fn uniform_random_spreads_rows() {
        let mut a = Attack::new(AttackKind::UniformRandom, mapper(), 1);
        let rows = rows_of(&mut a, 1000);
        let mut unique = rows.clone();
        unique.sort_unstable();
        unique.dedup();
        assert!(unique.len() > 300, "only {} unique rows", unique.len());
    }

    #[test]
    fn blacksmith_schedule_is_nonuniform_and_seeded() {
        let mut a = Attack::new(AttackKind::Blacksmith { n: 4 }, mapper(), 1);
        let rows = rows_of(&mut a, 60);
        let mut counts = std::collections::HashMap::new();
        for r in &rows {
            *counts.entry(*r).or_insert(0u32) += 1;
        }
        // 4 pairs = 8 distinct aggressors, with unequal visit counts.
        assert_eq!(counts.len(), 8, "aggressors: {counts:?}");
        let max = counts.values().max().unwrap();
        let min = counts.values().min().unwrap();
        assert!(max > min, "intensities should differ: {counts:?}");
        // Deterministic per seed, different across seeds.
        let mut b = Attack::new(AttackKind::Blacksmith { n: 4 }, mapper(), 1);
        assert_eq!(rows, rows_of(&mut b, 60));
        let mut c = Attack::new(AttackKind::Blacksmith { n: 4 }, mapper(), 2);
        assert_ne!(rows, rows_of(&mut c, 60));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(AttackKind::HalfDouble.name(), "half-double");
        assert_eq!(
            AttackKind::SwapChasing { t: 800 }.name(),
            "swap-chasing-t800"
        );
        assert_eq!(AttackKind::ManySided(9).name(), "many-sided-9");
        assert_eq!(AttackKind::Blacksmith { n: 4 }.name(), "blacksmith-4");
    }
}
