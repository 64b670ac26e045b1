//! End-to-end security integration tests: attacks vs. defenses on the full
//! cycle-level stack (generator → controller → fault model → mitigation).
//!
//! These reproduce the paper's Table 7 qualitative claims at a reduced
//! time scale (see DESIGN.md on scaling): thresholds and epoch lengths are
//! scaled together, preserving every ratio in the design.

use rrs::experiments::{ExperimentConfig, MitigationKind};
use rrs::workloads::AttackKind;

fn cfg() -> ExperimentConfig {
    ExperimentConfig::default().with_scale(200) // T_RH = 24, epoch = 0.32 ms
}

#[test]
fn classic_double_sided_flips_undefended_memory() {
    let outcome = cfg().run_attack(AttackKind::DoubleSided, MitigationKind::None, 1);
    assert!(
        outcome.attack_succeeded(),
        "undefended memory must flip under double-sided hammering"
    );
    // Victims are the rows between/next to the aggressors.
    for flip in &outcome.bit_flips {
        assert_eq!(flip.victim.bank.0, 0, "flips confined to the attacked bank");
    }
}

#[test]
fn single_sided_flips_undefended_memory() {
    let outcome = cfg().run_attack(AttackKind::SingleSided, MitigationKind::None, 1);
    assert!(outcome.attack_succeeded());
}

#[test]
fn victim_refresh_stops_classic_patterns() {
    let c = cfg();
    for attack in [AttackKind::SingleSided, AttackKind::DoubleSided] {
        let outcome = c.run_attack(attack, MitigationKind::VictimRefresh, 1);
        assert!(
            !outcome.attack_succeeded(),
            "{}: idealized victim refresh must stop classic patterns",
            attack.name()
        );
        assert!(outcome.result.stats.targeted_refreshes > 0);
    }
}

#[test]
fn half_double_defeats_victim_refresh() {
    // §2.5: "Half-Double is able to cause more than a hundred bit-flips ...
    // at a distance of 2 away from the aggressor rows" — through the
    // victim-focused mitigation.
    let outcome = cfg().run_attack(AttackKind::HalfDouble, MitigationKind::VictimRefresh, 2);
    assert!(
        outcome.attack_succeeded(),
        "Half-Double must defeat victim-focused mitigation"
    );
}

#[test]
fn rrs_stops_classic_and_half_double() {
    let c = cfg();
    for attack in [
        AttackKind::SingleSided,
        AttackKind::DoubleSided,
        AttackKind::HalfDouble,
        AttackKind::ManySided(6),
    ] {
        let outcome = c.run_attack(attack, MitigationKind::Rrs, 2);
        assert!(
            !outcome.attack_succeeded(),
            "{}: RRS must prevent bit flips (got {})",
            attack.name(),
            outcome.bit_flips.len()
        );
    }
}

#[test]
fn graphene_stops_classic_but_loses_to_half_double() {
    // The real (bounded-tracker) Graphene behaves like its idealized
    // abstraction on both sides of Table 7's comparison.
    let c = cfg();
    for attack in [AttackKind::SingleSided, AttackKind::DoubleSided] {
        let o = c.run_attack(attack, MitigationKind::Graphene, 1);
        assert!(
            !o.attack_succeeded(),
            "{}: Graphene must hold",
            attack.name()
        );
        assert!(o.result.stats.targeted_refreshes > 0);
    }
    let hd = c.run_attack(AttackKind::HalfDouble, MitigationKind::Graphene, 2);
    assert!(hd.attack_succeeded(), "Half-Double must defeat Graphene");
}

#[test]
fn blacksmith_flips_undefended_but_not_rrs() {
    // A Blacksmith-style non-uniform pattern (post-paper attack family):
    // flips undefended memory, and RRS — which tracks *exhaustively*
    // rather than sampling — still stops it.
    let c = cfg();
    let attack = AttackKind::Blacksmith { n: 4 };
    let undefended = c.run_attack(attack, MitigationKind::None, 1);
    assert!(undefended.attack_succeeded(), "blacksmith must flip bits");
    let defended = c.run_attack(attack, MitigationKind::Rrs, 2);
    assert!(!defended.attack_succeeded(), "RRS must stop blacksmith");
}

#[test]
fn rrs_swaps_under_attack_but_not_excessively() {
    let c = cfg();
    let outcome = c.run_attack(AttackKind::DoubleSided, MitigationKind::Rrs, 1);
    let swaps = outcome.result.stats.swaps;
    assert!(swaps > 0, "hammering must trigger swaps");
    // Invariant: at most one swap per T_RRS activations (plus swap-stream
    // activations, which never feed the tracker).
    let bound = outcome.result.stats.activations / c.t_rrs() + 1;
    assert!(
        swaps <= bound,
        "swaps {swaps} exceed ACTs/T_RRS bound {bound}"
    );
}

#[test]
fn rrs_survives_the_optimal_swap_chasing_attack() {
    // §5.3: the best strategy against RRS needs ~1.9e9 iterations at the
    // paper's design point; a short campaign must achieve nothing.
    let c = cfg();
    let outcome = c.run_attack(c.swap_chasing_attack(), MitigationKind::Rrs, 3);
    assert!(
        !outcome.attack_succeeded(),
        "swap-chasing must not succeed within a few epochs"
    );
    assert!(
        outcome.result.stats.swaps > 0,
        "the attack does force swaps"
    );
}

#[test]
fn blockhammer_throttles_classic_attack_to_safety() {
    let outcome = cfg().run_attack(AttackKind::DoubleSided, MitigationKind::BlockHammer512, 1);
    assert!(
        !outcome.attack_succeeded(),
        "BlockHammer's delays must keep rows below T_RH"
    );
    assert!(
        outcome.result.stats.mitigation_delay_cycles > 0,
        "the attack must have been throttled"
    );
}

#[test]
fn para_mitigates_classic_attack_at_moderate_threshold() {
    // PARA's stateless protection needs a reasonably large T_RH — exactly
    // the paper's footnote-1 argument against stateless schemes at low
    // thresholds — so this test runs at a milder scale (T_RH = 300).
    let c = ExperimentConfig::default().with_scale(16);
    let outcome = c.run_attack(AttackKind::DoubleSided, MitigationKind::Para, 1);
    assert!(
        !outcome.attack_succeeded(),
        "PARA must stop a classic attack at T_RH = {}",
        c.t_rh()
    );
    assert!(outcome.result.stats.targeted_refreshes > 0);
}

#[test]
fn benign_workload_never_flips_with_or_without_rrs() {
    let c = ExperimentConfig::smoke_test();
    let w = rrs::workloads::catalog::Workload::Single(
        rrs::workloads::catalog::spec_by_name("gcc").unwrap(),
    );
    for kind in [MitigationKind::None, MitigationKind::Rrs] {
        let r = c.run_workload(&w, kind);
        assert!(
            r.bit_flips.is_empty(),
            "benign workload flipped bits under {:?}",
            kind
        );
    }
}
