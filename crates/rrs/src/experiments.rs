//! Shared experiment harness: scaled configurations, workload runs, and
//! attack campaigns.
//!
//! # Scaling
//!
//! The paper's runs simulate 64 ms refresh windows and billions of
//! instructions. This harness supports a *time-scale factor* `s` that
//! shrinks the epoch to `64 ms / s` and every threshold with it
//! (`T_RH/s`, `T_RRS/s`, ACT-800+ → `800/s`). Because every structure size
//! and rate in the RRS design is a ratio of `ACT_max` to a threshold,
//! scaling preserves tracker occupancy, swaps-per-epoch, duty cycle, and
//! slowdown — the quantities the paper's figures report — while making runs
//! tractable. `s = 1` reproduces the full-scale parameters. `s` must divide
//! 800 so that `T_RH/s` stays a multiple of `k = 6`.

use rrs_dram::hammer::{BitFlip, HammerConfig};
use rrs_dram::timing::TimingParams;
use rrs_mem_ctrl::controller::ControllerConfig;
use rrs_mem_ctrl::mitigation::Mitigation;
use rrs_sim::config::SystemConfig;
use rrs_sim::runner::{run_probed, SimResult};
use rrs_sim::trace::TraceSource;
use rrs_telemetry::Telemetry;
use rrs_workloads::attacks::{Attack, AttackKind, IdleFiller};
use rrs_workloads::catalog::Workload;
use rrs_workloads::generator::sources_for_workload;

pub use rrs_mitigations::factory::MitigationKind;

/// Full-scale Row Hammer threshold defended by the paper.
pub const FULL_SCALE_T_RH: u64 = 4_800;

/// Configuration of a (possibly scaled) experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Time-scale factor `s` (must divide 800; 1 = paper scale).
    pub scale: u64,
    /// Instructions each core retires in benign runs.
    pub instructions_per_core: u64,
    /// Cores (the paper uses 8).
    pub cores: usize,
    /// Base seed for generators and mitigations.
    pub seed: u64,
    /// Row Hammer threshold at full scale (before division by `scale`).
    pub full_scale_t_rh: u64,
    /// Use RowClone-accelerated in-DRAM row copies for swaps (§8.1's
    /// latency-reduction option) instead of streaming through the
    /// per-channel swap buffers.
    pub rowclone: bool,
    /// Scale the swap latency with the epoch (default). Keeps the
    /// swap-time *fraction* of a window — Figures 5/6's quantity —
    /// invariant under scaling. Disable (`with_full_swap_cost`) for
    /// experiments about the swap latency itself (DoS, RowClone), where
    /// the absolute 1.46 µs is the point.
    pub scale_swap_cost: bool,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            scale: 32,
            instructions_per_core: 3_000_000,
            cores: 8,
            seed: 0xA5F0_5EED,
            full_scale_t_rh: FULL_SCALE_T_RH,
            rowclone: false,
            scale_swap_cost: true,
        }
    }
}

impl ExperimentConfig {
    /// A tiny configuration for unit/integration tests and doctests.
    pub fn smoke_test() -> Self {
        ExperimentConfig {
            scale: 100,
            instructions_per_core: 200_000,
            cores: 2,
            seed: 7,
            full_scale_t_rh: FULL_SCALE_T_RH,
            rowclone: false,
            scale_swap_cost: true,
        }
    }

    /// Keeps the full (unscaled) swap latency — for experiments about the
    /// swap cost itself.
    pub fn with_full_swap_cost(mut self) -> Self {
        self.scale_swap_cost = false;
        self
    }

    /// Enables RowClone-accelerated swaps (§8.1 extension).
    pub fn with_rowclone(mut self) -> Self {
        self.rowclone = true;
        self
    }

    /// Overrides the time-scale factor.
    ///
    /// # Panics
    ///
    /// Panics unless `scale` divides 800.
    pub fn with_scale(mut self, scale: u64) -> Self {
        assert!(scale > 0 && 800 % scale == 0, "scale must divide 800");
        self.scale = scale;
        self
    }

    /// Overrides the full-scale Row Hammer threshold (Figure 10 sweeps it).
    pub fn with_t_rh(mut self, t_rh: u64) -> Self {
        self.full_scale_t_rh = t_rh;
        self
    }

    /// Overrides the per-core instruction budget.
    pub fn with_instructions(mut self, n: u64) -> Self {
        self.instructions_per_core = n;
        self
    }

    /// The scaled Row Hammer threshold.
    pub fn t_rh(&self) -> u64 {
        (self.full_scale_t_rh / self.scale).max(rrs_core::DEFAULT_K)
    }

    /// The scaled device timing.
    pub fn timing(&self) -> TimingParams {
        TimingParams::ddr4_3200().with_epoch_scale(self.scale)
    }

    /// The scaled system configuration (Table 2 shape).
    pub fn system_config(&self) -> SystemConfig {
        let timing = self.timing();
        let geometry = rrs_dram::geometry::DramGeometry::asplos22_baseline();
        // The swap latency is scaled with the epoch so that the *fraction*
        // of a window spent swapping — the quantity behind Figures 5/6 —
        // is preserved (a fixed 1.46 µs against a shrunken window would
        // overstate the overhead by the scale factor).
        let full_swap_cycles = if self.rowclone {
            // Four in-DRAM copies at one row cycle each (§8.1).
            4 * timing.t_rc
        } else {
            timing.row_swap_cycles(geometry.row_size_bytes)
        };
        let swap_divisor = if self.scale_swap_cost { self.scale } else { 1 };
        let controller = ControllerConfig {
            swap_cycles: (full_swap_cycles / swap_divisor).max(1),
            geometry,
            timing,
            hammer: HammerConfig::for_threshold(self.t_rh()),
            act_stat_threshold: (800 / self.scale).max(1),
            page_policy: Default::default(),
        };
        let mut sys =
            SystemConfig::asplos22_baseline(self.instructions_per_core).with_controller(controller);
        sys.cores = self.cores;
        sys
    }

    /// Builds the scaled mitigation of the given kind.
    pub fn build_mitigation(&self, kind: MitigationKind) -> Box<dyn Mitigation> {
        let timing = self.timing();
        rrs_mitigations::factory::build(
            kind,
            self.t_rh(),
            rrs_dram::geometry::DramGeometry::asplos22_baseline(),
            &timing,
        )
    }

    /// Runs a benign workload under a mitigation.
    pub fn run_workload(&self, workload: &Workload, kind: MitigationKind) -> SimResult {
        self.run_workload_probed(workload, kind, &Telemetry::new())
    }

    /// [`ExperimentConfig::run_workload`] with every layer publishing on
    /// a caller-held telemetry spine; the result is byte-identical.
    pub fn run_workload_probed(
        &self,
        workload: &Workload,
        kind: MitigationKind,
        telemetry: &Telemetry,
    ) -> SimResult {
        let sys = self.system_config();
        run_probed(
            &sys,
            self.build_mitigation(kind),
            sources_for_workload(workload, &sys, self.seed),
            workload.name(),
            telemetry,
        )
    }

    /// Runs an attack campaign of roughly `epochs` scaled refresh windows:
    /// core 0 is the attacker, remaining cores run compute-bound filler.
    pub fn run_attack(
        &self,
        attack: AttackKind,
        kind: MitigationKind,
        epochs: u64,
    ) -> AttackOutcome {
        self.run_attack_probed(attack, kind, epochs, &Telemetry::new())
    }

    /// [`ExperimentConfig::run_attack`] with every layer publishing on a
    /// caller-held telemetry spine; the outcome is byte-identical.
    pub fn run_attack_probed(
        &self,
        attack: AttackKind,
        kind: MitigationKind,
        epochs: u64,
        telemetry: &Telemetry,
    ) -> AttackOutcome {
        let mut sys = self.system_config();
        let timing = sys.controller.timing;
        // The attacker is bank-bound: ~1 activation per tRC. Budget enough
        // accesses to span the requested epochs.
        let accesses = epochs * timing.epoch / timing.t_rc + 1_000;
        sys.instructions_per_core = accesses;
        let mapper = rrs_mem_ctrl::mapping::AddressMapper::new(sys.controller.geometry);
        let name = attack.name();
        // Classic patterns run as a realistic campaign: ~4×T_RH activations
        // per aggressor, then move to the next victim group. Half-Double
        // and the randomized patterns keep their defining concentration.
        let rotation = 8 * self.t_rh();
        let attacker = Attack::new(attack, mapper, self.seed).with_rotation(rotation);
        let mut sources: Vec<Box<dyn TraceSource>> = vec![Box::new(attacker)];
        for c in 1..sys.cores {
            sources.push(Box::new(IdleFiller::new(c)));
        }
        let mut result = run_probed(&sys, self.build_mitigation(kind), sources, &name, telemetry);
        // The flips are *moved* into the outcome (not cloned): read them
        // from `outcome.bit_flips`, not `outcome.result.bit_flips`.
        AttackOutcome {
            bit_flips: std::mem::take(&mut result.bit_flips),
            result,
        }
    }

    /// The swap-chasing attack tuned to this configuration's `T_RRS`
    /// (the §5.3 optimal strategy).
    pub fn swap_chasing_attack(&self) -> AttackKind {
        AttackKind::SwapChasing {
            t: (self.t_rh() / rrs_core::DEFAULT_K).max(1),
        }
    }
}

/// Result of an attack campaign.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// Bit flips the fault model recorded.
    pub bit_flips: Vec<BitFlip>,
    /// The underlying simulation result (swaps, delays, IPC, ...). Its
    /// `bit_flips` were drained into the field above.
    pub result: SimResult,
}

impl AttackOutcome {
    /// Whether the attack succeeded (any bit flip).
    pub fn attack_succeeded(&self) -> bool {
        !self.bit_flips.is_empty()
    }
}

/// Arithmetic mean helper for figure harnesses.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean helper for figure harnesses.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.max(1e-12).ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_thresholds_stay_consistent() {
        let cfg = ExperimentConfig::default();
        assert_eq!(cfg.t_rh(), 150); // 4800 / 32
        assert_eq!(cfg.t_rh() % rrs_core::DEFAULT_K, 0);
        let sys = cfg.system_config();
        assert_eq!(sys.controller.act_stat_threshold, 25); // 800 / 32
        assert_eq!(sys.controller.timing.epoch, 204_800_000 / 32);
    }

    #[test]
    fn full_scale_matches_paper_constants() {
        let cfg = ExperimentConfig::default().with_scale(1);
        assert_eq!(cfg.t_rh(), 4_800);
        assert_eq!(cfg.system_config().controller.act_stat_threshold, 800);
    }

    #[test]
    #[should_panic(expected = "scale must divide 800")]
    fn invalid_scale_rejected() {
        let _ = ExperimentConfig::default().with_scale(3);
    }

    #[test]
    fn swap_chasing_uses_t_rrs() {
        let cfg = ExperimentConfig::default(); // T_RH 150 -> T_RRS 25
        assert_eq!(cfg.swap_chasing_attack(), AttackKind::SwapChasing { t: 25 });
    }

    #[test]
    fn mean_and_geomean() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(geomean(&[]), 0.0);
    }
}
