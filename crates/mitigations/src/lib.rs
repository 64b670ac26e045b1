#![warn(missing_docs)]

//! Row Hammer mitigations under one interface.
//!
//! Every defense evaluated in the paper (and this reproduction's ablations)
//! implements [`rrs_mem_ctrl::Mitigation`], so they are interchangeable in
//! the controller and the experiment harness:
//!
//! | Module | Defense | Paper role |
//! |---|---|---|
//! | [`rrs`] | Randomized Row-Swap | the contribution (§4) |
//! | [`rrs`] (`RrsMitigation::probabilistic`) | Probabilistic row-swap | footnote-1 ablation |
//! | [`blockhammer`] | BlockHammer (BL=512/1K) | aggressor-focused baseline (§8.1, Fig. 11) |
//! | [`victim_refresh`] (`VictimRefresh::ideal`) | Idealized victim-focused refresh | Table 7 baseline; Half-Double victim (§2.5) |
//! | [`victim_refresh`] (`VictimRefresh::graphene`) | Graphene (bounded Misra-Gries + victim refresh) | the tracker RRS builds on, as originally deployed |
//! | [`victim_refresh`] (`VictimRefresh::para`) | PARA | stateless victim-focused baseline (§2.4) |
//! | [`rrs_mem_ctrl::NoMitigation`] | nothing | undefended baseline |
//!
//! # Example
//!
//! ```
//! use rrs_mitigations::factory;
//! use rrs_dram::geometry::DramGeometry;
//! use rrs_dram::timing::TimingParams;
//!
//! let g = DramGeometry::tiny_test();
//! let t = TimingParams::ddr4_3200();
//! for kind in factory::MitigationKind::ALL {
//!     let m = factory::build(*kind, 4_800, g, &t);
//!     assert!(!m.name().is_empty());
//! }
//! ```

pub mod blockhammer;
pub mod rrs;
pub mod victim_refresh;

pub use blockhammer::{BlockHammer, BlockHammerConfig};
pub use rrs::RrsMitigation;
pub use victim_refresh::VictimRefresh;

/// Convenience constructors for experiment harnesses.
pub mod factory {
    use rrs_dram::geometry::DramGeometry;
    use rrs_dram::timing::TimingParams;
    use rrs_mem_ctrl::mitigation::{Mitigation, NoMitigation};

    use super::*;

    /// Which defense to build.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum MitigationKind {
        /// No defense.
        None,
        /// Randomized Row-Swap at the secure design point for `T_RH`.
        Rrs,
        /// BlockHammer with blacklist threshold 512.
        BlockHammer512,
        /// BlockHammer with blacklist threshold 1024.
        BlockHammer1k,
        /// Idealized victim-focused refresh, distance 1.
        VictimRefresh,
        /// Graphene proper: bounded Misra-Gries tracker + victim refresh.
        Graphene,
        /// PARA.
        Para,
        /// Probabilistic (stateless) row-swap ablation.
        ProbabilisticRrs,
    }

    impl MitigationKind {
        /// Every defense kind, for sweeps.
        pub const ALL: &'static [MitigationKind] = &[
            MitigationKind::None,
            MitigationKind::Rrs,
            MitigationKind::BlockHammer512,
            MitigationKind::BlockHammer1k,
            MitigationKind::VictimRefresh,
            MitigationKind::Graphene,
            MitigationKind::Para,
            MitigationKind::ProbabilisticRrs,
        ];

        /// Canonical short slug — the CLI's `--defense` vocabulary, also
        /// used in campaign cell ids and result filenames.
        pub fn name(&self) -> &'static str {
            match self {
                MitigationKind::None => "none",
                MitigationKind::Rrs => "rrs",
                MitigationKind::BlockHammer512 => "bh-512",
                MitigationKind::BlockHammer1k => "bh-1k",
                MitigationKind::VictimRefresh => "vfm",
                MitigationKind::Graphene => "graphene",
                MitigationKind::Para => "para",
                MitigationKind::ProbabilisticRrs => "prob-rrs",
            }
        }
    }

    /// Builds the defense for a Row Hammer threshold of `t_rh` on
    /// `geometry` under `timing` (the epoch length parameterizes windowed
    /// defenses). The RRS design point follows §4.5's derivation with
    /// `ACT_max` computed from `timing`.
    pub fn build(
        kind: MitigationKind,
        t_rh: u64,
        geometry: DramGeometry,
        timing: &TimingParams,
    ) -> Box<dyn Mitigation> {
        let act_max = timing.max_activations_per_epoch();
        let rrs =
            || rrs_core::RrsConfig::for_threshold(t_rh, act_max, geometry.rows_per_bank as u64);
        let seed = 0xBEEF_CAFE;
        // Blacklist thresholds scale with T_RH (512 and 1024 at the paper's
        // 4.8K point), clamped into the safe range.
        let blockhammer = |at_4k8: u64| {
            let config = BlockHammerConfig {
                t_rh,
                blacklist_threshold: (at_4k8 * t_rh / 4_800).clamp(1, (t_rh / 4).max(1)),
                ..BlockHammerConfig::asplos22(at_4k8, timing.epoch)
            };
            Box::new(BlockHammer::new(config, geometry, seed))
        };
        match kind {
            MitigationKind::None => Box::new(NoMitigation::new()),
            MitigationKind::Rrs => Box::new(RrsMitigation::new(rrs(), geometry)),
            MitigationKind::BlockHammer512 => blockhammer(512),
            MitigationKind::BlockHammer1k => blockhammer(1_024),
            MitigationKind::VictimRefresh => Box::new(VictimRefresh::ideal(t_rh, geometry)),
            MitigationKind::Graphene => Box::new(VictimRefresh::graphene(t_rh, act_max, geometry)),
            MitigationKind::Para => Box::new(VictimRefresh::para(t_rh, geometry, seed)),
            MitigationKind::ProbabilisticRrs => {
                Box::new(RrsMitigation::probabilistic(rrs(), geometry))
            }
        }
    }
}
