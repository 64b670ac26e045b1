//! Synthetic trace generation calibrated to Table 3.
//!
//! Each [`crate::catalog::WorkloadSpec`] is turned into a per-core
//! [`SyntheticWorkload`] that reproduces the three characteristics the
//! paper's results depend on:
//!
//! * **MPKI** — the mean instruction gap between memory accesses is
//!   `1000 / MPKI`, sampled geometrically;
//! * **footprint** — cold accesses are spread over a per-core region of the
//!   configured size (cores run disjoint copies, as in rate mode);
//! * **rows ACT-800+** — a calibrated fraction of accesses round-robins
//!   over `hot_rows / cores` designated rows, paired per bank so that every
//!   hot visit forces a row activation. The per-row activation rate is
//!   targeted slightly above the 800/epoch statistic threshold, matching
//!   how Table 3's counts arise from working sets slightly larger than the
//!   LLC (§4.6).
//!
//! Determinism: generators are seeded; the same seed yields the same trace.

use rrs_core::rng::DetRng;
use rrs_dram::geometry::RowAddr;
use rrs_mem_ctrl::mapping::{AddressMapper, DecodedAddr};
use rrs_sim::config::{SystemConfig, CORE_BURST};
use rrs_sim::trace::{TraceRecord, TraceSource};

use crate::catalog::WorkloadSpec;

/// Assumed IPC for converting instruction budgets to wall-clock —
/// feedback-free first-order calibration (measured values are reported by
/// the Table 3 harness).
const ASSUMED_IPC: f64 = 2.5;

/// A deterministic synthetic trace source for one core.
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    name: String,
    rng: DetRng,
    /// Mean instruction gap between accesses.
    mean_gap: f64,
    write_fraction: f64,
    /// This core's hot rows.
    hot_rows: Vec<RowAddr>,
    /// Fraction of accesses that go to the hot set.
    hot_fraction: f64,
    /// Fractional accumulator for deterministic hot-access pacing: real
    /// hot rows are touched by loop iterations at near-periodic intervals,
    /// not by coin flips. (Periodicity matters: defenses that enforce
    /// minimum same-row activation spacing — BlockHammer — see the gap
    /// *distribution*, not just its mean.)
    hot_accumulator: f64,
    hot_cursor: usize,
    /// Address mapper used to aim cold traffic at DRAM rows.
    mapper: AddressMapper,
    /// Cold region: DRAM rows `[base, base + count)` in the mapper's
    /// canonical row enumeration.
    region_row_base: u64,
    region_rows: u64,
    /// Fraction of cold traffic that is uniform random (vs. sequential).
    cold_random_fraction: f64,
    /// Consecutive lines emitted per row visit of the sequential sweep.
    seq_lines_per_visit: u32,
    /// Sequential sweep cursors.
    seq_row_cursor: u64,
    seq_col: u32,
    seq_lines_left: u32,
    columns_per_row: u32,
}

impl SyntheticWorkload {
    /// Builds the generator for `core` of a rate-mode run of `spec` on
    /// `config`'s machine. The calibration reads the epoch length (the
    /// tracking window), the core count (hot rows are split across cores)
    /// and the controller's ACT-800+ statistic threshold, the per-epoch
    /// activation count a "hot" row must exceed.
    pub fn new(spec: &WorkloadSpec, core: usize, config: &SystemConfig, seed: u64) -> Self {
        let geometry = config.controller.geometry;
        let mapper = AddressMapper::new(geometry);
        let epoch_cycles = config.controller.timing.epoch;
        let hot_act_threshold = config.controller.act_stat_threshold;
        let total_rows = mapper.total_rows();
        let region_rows =
            (spec.footprint_bytes / geometry.row_size_bytes as u64).clamp(8, total_rows);
        // Rate mode: each core gets its own copy of the footprint. Region
        // bases are spread evenly over the address space; footprints larger
        // than memory/cores alias physically, exactly as an oversubscribed
        // 32 GB machine would (mcf × 8 copies exceeds memory in the paper's
        // setup too).
        let region_row_base =
            (core as u64 * (total_rows / config.cores.max(1) as u64)) % total_rows;

        // Hot rows: split across cores, assigned to banks in pairs so that
        // round-robin visits always miss the row buffer (see module docs).
        // They live just past the core's own cold region in row-in-bank
        // space, so no other core's cold sweep crosses them.
        let per_core_hot = if spec.hot_rows == 0 {
            0
        } else {
            (spec.hot_rows as usize).div_ceil(config.cores)
        };
        let banks = geometry.banks_per_rank;
        let channels = geometry.channels;
        let rows_per_index = (banks * channels * geometry.ranks_per_channel) as u64;
        let hot_base_row = ((region_row_base + region_rows) / rows_per_index + 2) as usize;
        let mut hot_rows = Vec::with_capacity(per_core_hot);
        for i in 0..per_core_hot {
            let pair = i / 2;
            let bank = (pair % banks) as u8;
            let channel = ((pair / banks) % channels) as u8;
            let row_in_bank =
                (hot_base_row + (pair / (banks * channels)) * 2 + (i % 2)) % geometry.rows_per_bank;
            hot_rows.push(RowAddr::new(channel, 0, bank, row_in_bank as u32));
        }

        // Calibrate the hot fraction: each hot row needs ~1.3× the ACT
        // statistic threshold per epoch to robustly exceed it. The wall-
        // clock conversion uses a first-order IPC model — memory-bound
        // workloads retire fewer instructions per epoch — fitted to the
        // simulator's measured per-core IPC curve (peak ≈ 1.2 × the
        // nominal IPC at MPKI → 0, roll-off constant ≈ 7 MPKI).
        let effective_ipc = 1.2 * ASSUMED_IPC / (1.0 + spec.mpki / 7.0);
        let accesses_per_epoch = (spec.mpki / 1000.0) * effective_ipc * epoch_cycles as f64;
        let hot_target = per_core_hot as f64 * hot_act_threshold as f64 * 1.3;
        let hot_fraction = if per_core_hot == 0 || accesses_per_epoch <= 0.0 {
            0.0
        } else {
            (hot_target / accesses_per_epoch).min(0.95)
        };

        // Calibrate cold traffic so that cold rows stay safely *below* the
        // hot-row threshold at any time scale (Table 3's cold workloads
        // have zero ACT-800+ rows by definition):
        //
        // * random cold accesses follow a Poisson-per-row profile; cap the
        //   per-row rate λ so `rows × P[X ≥ t/2]` stays ≪ 1 (Stirling
        //   bound λ_max ≈ (t/2e) · rows^(−2/t)). The t/2 headroom keeps
        //   cold rows clear not just of the hot-row statistic but of every
        //   threshold derived from it (BlockHammer blacklists at ≈0.5–0.6 t);
        // * the sequential sweep emits one burst's worth of consecutive
        //   lines per row visit as an *uninterrupted* record group (capped
        //   at the row's 128 lines). The simulator serves a core's burst
        //   back-to-back, so a visit costs only one or two activations even
        //   when other cores share the bank — keeping swept rows far below
        //   the threshold, as real streaming does at full scale.
        let t = hot_act_threshold.max(1) as f64;
        let t_noise = (t / 2.0).max(1.0);
        let lambda_max =
            (t_noise / std::f64::consts::E) * (region_rows as f64).powf(-1.0 / t_noise);
        let cold_random_fraction = if accesses_per_epoch <= 0.0 {
            0.0
        } else {
            ((0.5 * lambda_max * region_rows as f64) / accesses_per_epoch).min(0.5)
        };
        // Visit length: `burst × max(1, t/4)` lines (capped at the row's
        // 128). Each burst boundary admits at most ~1 interfering
        // activation, so a visit costs ≈ t/4 activations worst-case —
        // below the threshold — while per-row visit *rates* scale with the
        // epoch like real streaming (at full scale this is whole-row
        // 128-line streaming).
        let seq_lines_per_visit = (CORE_BURST * ((t / 4.0) as u32).max(1))
            .clamp(1, (geometry.row_size_bytes / 64) as u32);

        SyntheticWorkload {
            name: format!("{}#{}", spec.name, core),
            rng: DetRng::seed_from_u64(seed ^ ((core as u64) << 32) ^ 0x574b_4c44),
            mean_gap: (1000.0 / spec.mpki.max(0.001) - 1.0).max(0.0),
            write_fraction: spec.write_fraction,
            hot_rows,
            hot_fraction,
            hot_accumulator: 0.0,
            hot_cursor: 0,
            mapper,
            region_row_base,
            region_rows,
            cold_random_fraction,
            seq_lines_per_visit,
            seq_row_cursor: 0,
            seq_col: 0,
            seq_lines_left: 0,
            columns_per_row: (geometry.row_size_bytes / 64) as u32,
        }
    }

    /// The calibrated probability of a hot-set access.
    pub fn hot_fraction(&self) -> f64 {
        self.hot_fraction
    }

    /// Number of hot rows this core maintains.
    pub fn hot_row_count(&self) -> usize {
        self.hot_rows.len()
    }

    fn next_seq_line(&mut self) -> u64 {
        self.seq_lines_left -= 1;
        let row = self
            .mapper
            .nth_row(self.region_row_base + self.seq_row_cursor);
        let col = self.seq_col % self.columns_per_row;
        self.seq_col += 1;
        self.mapper.encode(DecodedAddr { row, column: col })
    }

    fn sample_gap(&mut self) -> u32 {
        if self.mean_gap <= 0.0 {
            return 0;
        }
        let u = self.rng.next_f64();
        (-self.mean_gap * (1.0 - u).ln()).min(100_000.0) as u32
    }
}

impl TraceSource for SyntheticWorkload {
    fn next_record(&mut self) -> TraceRecord {
        let gap = self.sample_gap();
        let is_write = self.rng.next_f64() < self.write_fraction;

        // A sequential visit in progress is never interrupted: its lines go
        // out as one consecutive group so the burst-serving simulator keeps
        // them as row hits.
        let addr = if self.seq_lines_left > 0 {
            self.next_seq_line()
        } else if !self.hot_rows.is_empty() && {
            self.hot_accumulator += self.hot_fraction;
            self.hot_accumulator >= 1.0
        } {
            // Deterministically paced hot access: round-robin over the hot
            // set, random column within the row.
            self.hot_accumulator -= 1.0;
            let row = self.hot_rows[self.hot_cursor % self.hot_rows.len()];
            self.hot_cursor += 1;
            self.mapper.encode(DecodedAddr {
                row,
                column: self.rng.next_below(self.columns_per_row as u64) as u32,
            })
        } else {
            // Cold decision point. Per-*record* traffic fractions are
            // preserved by down-weighting the sequential choice by its
            // group length.
            let w_rand = self.cold_random_fraction;
            let w_seq = (1.0 - self.cold_random_fraction) / self.seq_lines_per_visit as f64;
            let u = self.rng.next_f64() * (w_rand + w_seq);
            if u < w_rand {
                // Calibrated random component over the footprint region.
                let row = self
                    .mapper
                    .nth_row(self.region_row_base + self.rng.next_below(self.region_rows));
                self.mapper.encode(DecodedAddr {
                    row,
                    column: self.rng.next_below(self.columns_per_row as u64) as u32,
                })
            } else {
                // Start a new sequential visit on the region's next row.
                // The visit emits `L` records before the next decision, so
                // credit the hot accumulator for the deferred records —
                // keeping the hot fraction exact per *record*.
                self.hot_accumulator += self.hot_fraction * (self.seq_lines_per_visit - 1) as f64;
                self.seq_row_cursor = (self.seq_row_cursor + 1) % self.region_rows;
                self.seq_lines_left = self.seq_lines_per_visit;
                self.seq_col = 0;
                self.next_seq_line()
            }
        };
        TraceRecord {
            gap,
            addr,
            is_write,
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Builds the per-core trace sources for a workload on `config`'s machine.
pub fn sources_for_workload(
    workload: &crate::catalog::Workload,
    config: &SystemConfig,
    seed: u64,
) -> Vec<Box<dyn TraceSource>> {
    match workload {
        crate::catalog::Workload::Single(spec) => (0..config.cores)
            .map(|c| {
                Box::new(SyntheticWorkload::new(spec, c, config, seed)) as Box<dyn TraceSource>
            })
            .collect(),
        crate::catalog::Workload::Mix(mix) => (0..config.cores)
            .map(|c| {
                let name = mix.members[c % mix.members.len()];
                let spec = crate::catalog::spec_by_name(name)
                    .unwrap_or_else(|| panic!("unknown mix member {name}"));
                Box::new(SyntheticWorkload::new(&spec, c, config, seed)) as Box<dyn TraceSource>
            })
            .collect(),
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_types,
    reason = "test-only reference counts and membership checks; their iteration order never reaches a result"
)]
mod tests {
    use super::*;
    use crate::catalog::{spec_by_name, Workload};
    use rrs_dram::geometry::DramGeometry;

    fn mapper() -> AddressMapper {
        AddressMapper::new(DramGeometry::asplos22_baseline())
    }

    /// The paper's machine: 8 cores, 64 ms epochs, ACT-800+ hot rows.
    fn params() -> SystemConfig {
        SystemConfig::asplos22_baseline(0)
    }

    #[test]
    fn generator_is_deterministic() {
        let spec = spec_by_name("bzip2").unwrap();
        let mut a = SyntheticWorkload::new(&spec, 0, &params(), 42);
        let mut b = SyntheticWorkload::new(&spec, 0, &params(), 42);
        for _ in 0..100 {
            assert_eq!(a.next_record(), b.next_record());
        }
    }

    #[test]
    fn different_cores_use_disjoint_hot_rows() {
        let spec = spec_by_name("hmmer").unwrap();
        let a = SyntheticWorkload::new(&spec, 0, &params(), 1);
        let b = SyntheticWorkload::new(&spec, 1, &params(), 1);
        for ra in &a.hot_rows {
            assert!(!b.hot_rows.contains(ra), "hot rows overlap across cores");
        }
    }

    #[test]
    fn gap_distribution_matches_mpki() {
        let spec = spec_by_name("gcc").unwrap(); // MPKI 4.42
        let mut g = SyntheticWorkload::new(&spec, 0, &params(), 7);
        let n = 20_000;
        let total_instr: u64 = (0..n).map(|_| g.next_record().instructions()).sum();
        let measured_mpki = n as f64 / (total_instr as f64 / 1000.0);
        assert!(
            (measured_mpki - 4.42).abs() < 0.5,
            "measured MPKI = {measured_mpki}"
        );
    }

    #[test]
    fn hot_workload_concentrates_traffic() {
        let spec = spec_by_name("hmmer").unwrap();
        let g = SyntheticWorkload::new(&spec, 0, &params(), 7);
        assert!(
            g.hot_fraction() > 0.1,
            "hot fraction = {}",
            g.hot_fraction()
        );
        assert_eq!(g.hot_row_count(), 1675usize.div_ceil(8));
    }

    #[test]
    fn cold_workload_has_no_hot_traffic() {
        let spec = spec_by_name("lbm").unwrap();
        let g = SyntheticWorkload::new(&spec, 0, &params(), 7);
        assert_eq!(g.hot_fraction(), 0.0);
        assert_eq!(g.hot_row_count(), 0);
    }

    #[test]
    fn addresses_stay_in_bounds() {
        let spec = spec_by_name("mcf").unwrap(); // 7.71 GB footprint
        let mut g = SyntheticWorkload::new(&spec, 7, &params(), 9);
        let cap = DramGeometry::asplos22_baseline().total_bytes();
        for _ in 0..10_000 {
            let r = g.next_record();
            assert!(r.addr < cap, "address {:#x} out of bounds", r.addr);
        }
    }

    #[test]
    fn consecutive_hot_visits_to_a_bank_alternate_rows() {
        // The pairing property: the two hot rows mapped to the same bank are
        // adjacent in the visiting order, so revisits always miss.
        let spec = spec_by_name("hmmer").unwrap();
        let g = SyntheticWorkload::new(&spec, 0, &params(), 7);
        let (d0, d1) = (g.hot_rows[0], g.hot_rows[1]);
        assert_eq!(d0.bank, d1.bank);
        assert_eq!(d0.channel, d1.channel);
        assert_ne!(d0.row, d1.row);
    }

    #[test]
    fn hot_rows_are_unique_physical_rows() {
        let spec = spec_by_name("hmmer").unwrap();
        let g = SyntheticWorkload::new(&spec, 0, &params(), 7);
        let mut rows = g.hot_rows.clone();
        rows.sort();
        let before = rows.len();
        rows.dedup();
        assert_eq!(rows.len(), before, "duplicate hot rows");
    }

    #[test]
    fn hot_emissions_resolve_to_listed_rows_only() {
        // Regression test: column placement must go through the mapper —
        // adding `col * 64` to a row base address toggles the *channel*
        // bit and collides distinct hot rows onto one physical row.
        let spec = spec_by_name("hmmer").unwrap();
        let mut g = SyntheticWorkload::new(&spec, 0, &params(), 7);
        let hot: std::collections::HashSet<_> = g.hot_rows.iter().copied().collect();
        let m = mapper();
        let mut per_row: std::collections::HashMap<_, u32> = Default::default();
        for _ in 0..50_000 {
            let r = g.next_record();
            let d = m.decode(r.addr);
            if hot.contains(&d.row) {
                *per_row.entry(d.row).or_default() += 1;
            }
        }
        // Every listed hot row should receive a comparable share (no row
        // double-counted by aliasing): max/min within a small factor.
        let max = per_row.values().max().copied().unwrap_or(0);
        let min = per_row.values().min().copied().unwrap_or(0);
        assert!(
            max <= 2 * min + 8,
            "hot emission skew: min {min}, max {max}"
        );
    }

    #[test]
    fn mix_sources_build_one_per_core() {
        let config = rrs_sim::SystemConfig::asplos22_baseline(1000);
        let mix = crate::catalog::MIXES[0];
        let sources = sources_for_workload(&Workload::Mix(mix), &config, 3);
        assert_eq!(sources.len(), 8);
    }
}
