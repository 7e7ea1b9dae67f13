//! Tier-1 integration test of the static analyzer: the paper's headline
//! claims certify across the full conformance width ladder, the
//! prover-vs-simulator oracle runs clean, and a deliberately mis-declared
//! affine form is caught with a minimal witness.

use rap_conformance::{Oracle, ProverOracle, WIDTH_LADDER};
use rap_shmem::analyze::lint::{diagnose_form_mismatch, RULE_FORM_MISMATCH};
use rap_shmem::analyze::{
    certify_theorem1, certify_theorem2, lint_plans, AffineWarp, Prover, Severity,
};
use rap_shmem::core::Scheme;

/// Theorems 1 and 2 certify statically at every ladder width — the
/// acceptance bar: contiguous is conflict-free everywhere, every column
/// is conflict-free under RAP *for all σ*, RAW's stride-w access costs
/// exactly w, and the dividing-stride ladder records min(s, w/s).
#[test]
fn theorems_certify_across_the_width_ladder() {
    for &w in WIDTH_LADDER {
        let t1 = certify_theorem1(w, &|| false).unwrap();
        assert!(t1.proven, "theorem1 w={w}:\n{t1}");
        let t2 = certify_theorem2(w, &|| false).unwrap();
        assert!(t2.proven, "theorem2 w={w}:\n{t2}");
    }
}

/// The prover-vs-simulator differential oracle runs clean on a seed
/// stream of its own (the harness also folds it into the 10k+ sweep).
#[test]
fn prover_oracle_runs_clean() {
    let mut oracle = ProverOracle;
    for seed in 0..2000u64 {
        if let Err(d) = oracle.check(seed) {
            panic!("prover/simulator divergence: {d}");
        }
    }
}

/// A deliberately wrong affine form — declared contiguous, implemented
/// as a column sweep — is flagged RAP-E002 with the first mismatching
/// lane as the minimal witness warp.
#[test]
fn wrong_affine_form_is_flagged_with_minimal_witness() {
    let declared = AffineWarp::contiguous(0, 8);
    let actual = AffineWarp::column(0, 8).cells(8).unwrap();
    let d = diagnose_form_mismatch("intentional:bug", "read", &declared, &actual, 8)
        .expect("mismatch must be detected");
    assert_eq!(d.rule, RULE_FORM_MISMATCH);
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.witness.expect("witness lane").lanes, vec![1]);
    // And the correctly-declared plans stay clean.
    assert!(lint_plans(8, Scheme::Rap).unwrap().errors().is_empty());
}

/// End-to-end smoke: JSON artifacts round-trip through the public API.
#[test]
fn reports_serialize_to_machine_readable_json() {
    let t2 = certify_theorem2(16, &|| false).unwrap();
    assert!(t2.to_json().contains("\"proven\": true"));
    let lint = lint_plans(16, Scheme::Raw).unwrap();
    let json = lint.to_json();
    assert!(json.contains("RAP-W001"), "RAW column phases warn:\n{json}");
}

/// The symbolic verdict is a *universal* statement: spot-check that a
/// RAP column access stays conflict-free at a width far beyond anything
/// simulated in the suite.
#[test]
fn universality_spot_check_at_large_width() {
    let prover = Prover::new(1024).unwrap();
    let a = prover
        .analyze(&AffineWarp::column(513, 1024), Scheme::Rap)
        .unwrap();
    assert!(a.conflict_free_for_all());
    assert!(a.exact());
}
