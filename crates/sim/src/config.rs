//! System configuration (the paper's Table 2).

use rrs_mem_ctrl::controller::ControllerConfig;

/// Fetch/retire width of every core (Table 2: 4).
pub const FETCH_WIDTH: u64 = 4;

/// Trace records a core issues back-to-back before other cores
/// interleave. Models the row-hit batching of real (FR-)FCFS scheduling:
/// without it, two sequential streams sharing a bank ping-pong the row
/// buffer on every line, which no real controller allows.
pub const CORE_BURST: u32 = 16;

/// Full-system configuration for a simulation run.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Number of cores (Table 2: 8 out-of-order cores).
    pub cores: usize,
    /// Maximum outstanding DRAM reads per core (memory-level parallelism).
    /// The core model has no reorder buffer: this bounded miss window is
    /// what stands in for Table 2's 192-entry ROB.
    pub max_outstanding: usize,
    /// Memory-controller / DRAM configuration.
    pub controller: ControllerConfig,
    /// Instructions each core must retire for the run to complete.
    pub instructions_per_core: u64,
}

impl SystemConfig {
    /// The paper's Table 2 baseline (with a configurable run length set by
    /// the harness — the paper uses 1 B instructions per core).
    pub fn asplos22_baseline(instructions_per_core: u64) -> Self {
        SystemConfig {
            cores: 8,
            max_outstanding: 10,
            controller: ControllerConfig::asplos22_baseline(),
            instructions_per_core,
        }
    }

    /// A small configuration for unit tests.
    pub fn test_config(instructions_per_core: u64) -> Self {
        SystemConfig {
            cores: 2,
            max_outstanding: 8,
            controller: ControllerConfig::test_config(),
            instructions_per_core,
        }
    }

    /// Replaces the controller configuration.
    pub fn with_controller(mut self, controller: ControllerConfig) -> Self {
        self.controller = controller;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table2() {
        let c = SystemConfig::asplos22_baseline(1_000_000);
        assert_eq!(c.cores, 8);
        assert_eq!(c.max_outstanding, 10);
        assert_eq!(c.controller.geometry.channels, 2);
    }

    #[test]
    fn builders_compose() {
        let c =
            SystemConfig::test_config(100).with_controller(ControllerConfig::asplos22_baseline());
        assert_eq!(c.controller.geometry.channels, 2);
        assert_eq!(c.instructions_per_core, 100);
    }
}
