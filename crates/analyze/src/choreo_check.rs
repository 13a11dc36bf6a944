//! Layer 2b: exhaustive static checking of every registered
//! choreography.
//!
//! Each [`GlobalProtocol`] in [`registered_globals`] is
//! validated and then projected onto **every** concrete model in both
//! classes (the blackboard and the cyclic port numbering) for every
//! system size `n ≤ MAX_N` — the same exhaustiveness the paper's
//! model-class claims need. Five rules:
//!
//! | rule | what it proves |
//! |------|----------------|
//! | `RSBT-C001` | the global description validates (totality of roles per phase — a missing role entry is a projection-induced deadlock — plus name hygiene and participation discipline) |
//! | `RSBT-C002` | projection succeeds on every admitted `(model, n)` point and fails with exactly the expected error class (`TooFewNodes` / `ModelNotAdmitted`) elsewhere — no surprise failure modes across the grid |
//! | `RSBT-C003` | the final phase exits on `Decision` and no earlier phase does (decided ⇒ silent: after the decision guard fires nothing else may run) |
//! | `RSBT-C004` | every guard-exited phase has at least one acting role (a guard on common information can only fire if someone can change it) |
//! | `RSBT-C005` | every declared action is expressible under at least one model of the declared class |

use rsbt_protocols::choreo::{
    registered_globals, ActionKind, GlobalProtocol, ModelClass, PhaseExit, ProjectionError,
};
use rsbt_sim::Model;

use crate::Finding;

/// Largest system size the projection grid covers.
pub const MAX_N: usize = 8;

/// The result of the choreography-checking pass.
#[derive(Debug, Default)]
pub struct ChoreoCheckOutcome {
    /// Violations found.
    pub findings: Vec<Finding>,
    /// Registered protocols checked.
    pub protocols_checked: usize,
    /// `(protocol, model, n)` projection points exercised.
    pub projections_checked: usize,
}

/// Checks every registered choreography.
pub fn run() -> ChoreoCheckOutcome {
    let mut out = ChoreoCheckOutcome::default();
    for global in registered_globals() {
        out.protocols_checked += 1;
        out.projections_checked += check_global(&global, &mut out.findings);
    }
    out
}

/// Checks one global protocol; returns the number of projection points
/// exercised and pushes findings.
pub fn check_global(global: &GlobalProtocol, findings: &mut Vec<Finding>) -> usize {
    let locus = format!("choreo:{}", global.name);

    // C001: the description itself.
    if let Err(e) = global.validate() {
        findings.push(Finding::domain(
            "RSBT-C001",
            locus.clone(),
            format!("validation failed: {e}"),
        ));
        // Projection would only repeat the same error.
        return 0;
    }

    // C003: decision discipline across the phase sequence.
    for (i, phase) in global.phases.iter().enumerate() {
        let last = i + 1 == global.phases.len();
        if last && phase.exit != PhaseExit::Decision {
            findings.push(Finding::domain(
                "RSBT-C003",
                locus.clone(),
                format!("final phase `{}` does not exit on Decision", phase.name),
            ));
        }
        if !last && phase.exit == PhaseExit::Decision {
            findings.push(Finding::domain(
                "RSBT-C003",
                locus.clone(),
                format!(
                    "phase `{}` exits on Decision but phases follow it \
                     (decided nodes must stay silent)",
                    phase.name
                ),
            ));
        }

        // C004: guard progress.
        if matches!(phase.exit, PhaseExit::Guard(_))
            && phase.actions.iter().all(|(_, kinds)| kinds.is_empty())
        {
            findings.push(Finding::domain(
                "RSBT-C004",
                locus.clone(),
                format!(
                    "phase `{}` exits on a guard but no role may emit anything \
                     (the guard can never fire)",
                    phase.name
                ),
            ));
        }

        // C005: action/class expressibility.
        for (role, kinds) in &phase.actions {
            for kind in kinds {
                let expressible = match global.model {
                    ModelClass::Blackboard => *kind == ActionKind::Post,
                    ModelClass::MessagePassing => *kind != ActionKind::Post,
                    ModelClass::Any => true,
                };
                if !expressible {
                    findings.push(Finding::domain(
                        "RSBT-C005",
                        locus.clone(),
                        format!(
                            "phase `{}` role `{role}` declares `{kind}`, inexpressible \
                             under {}",
                            phase.name, global.model
                        ),
                    ));
                }
            }
        }
    }

    // C002: the exhaustive projection grid.
    let need: usize = global.roles.iter().map(|r| r.min_count).sum();
    let mut points = 0;
    for n in 1..=MAX_N {
        for model in [Model::Blackboard, Model::message_passing_cyclic(n)] {
            points += 1;
            let admitted = global.model.admits(&model);
            let enough = n >= need;
            match global.project(&model, n) {
                Ok(projection) => {
                    if !admitted || !enough {
                        findings.push(Finding::domain(
                            "RSBT-C002",
                            locus.clone(),
                            format!(
                                "projection onto {model:?} with n = {n} succeeded but should \
                                 have been rejected (admitted = {admitted}, nodes ≥ {need}: \
                                 {enough})"
                            ),
                        ));
                    } else if projection.locals().is_empty() {
                        findings.push(Finding::domain(
                            "RSBT-C002",
                            locus.clone(),
                            format!("projection onto {model:?} with n = {n} yields no locals"),
                        ));
                    }
                }
                Err(ProjectionError::ModelNotAdmitted { .. }) if !admitted => {}
                Err(ProjectionError::TooFewNodes { .. }) if admitted && !enough => {}
                Err(e) => {
                    findings.push(Finding::domain(
                        "RSBT-C002",
                        locus.clone(),
                        format!("projection onto {model:?} with n = {n} failed unexpectedly: {e}"),
                    ));
                }
            }
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsbt_protocols::choreo::{Participation, PhaseSpec, RoleSpec};

    fn rules(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn every_registered_choreography_is_clean() {
        let out = run();
        assert!(out.findings.is_empty(), "{:#?}", out.findings);
        assert!(out.protocols_checked >= 7, "registry shrank unexpectedly");
        assert_eq!(
            out.projections_checked,
            out.protocols_checked * MAX_N * 2,
            "grid must cover both model classes at every n"
        );
    }

    /// A minimal valid sparse blackboard protocol to corrupt in tests.
    fn valid() -> GlobalProtocol {
        GlobalProtocol {
            name: "test-proto",
            model: ModelClass::Blackboard,
            participation: Participation::Sparse,
            roles: vec![RoleSpec {
                name: "node",
                min_count: 2,
            }],
            phases: vec![PhaseSpec {
                name: "race",
                actions: vec![("node", vec![ActionKind::Post])],
                exit: PhaseExit::Decision,
            }],
        }
    }

    #[test]
    fn the_template_protocol_is_clean() {
        let mut findings = Vec::new();
        check_global(&valid(), &mut findings);
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn rejects_a_non_total_phase() {
        // An "observer" role with no action entry in the only phase: its
        // local machine would have no behavior there — a deadlock. The
        // checker must surface validate()'s MissingRole as a finding.
        let mut bad = valid();
        bad.roles.push(RoleSpec {
            name: "observer",
            min_count: 0,
        });
        let mut findings = Vec::new();
        check_global(&bad, &mut findings);
        assert!(rules(&findings).contains(&"RSBT-C001"), "{findings:#?}");
        assert!(
            findings.iter().any(|f| f.message.contains("observer")),
            "{findings:#?}"
        );
    }

    #[test]
    fn rejects_a_mid_protocol_decision_phase() {
        // Keep the description valid (both phases total over one role)
        // but put Decision in the middle.
        let mut bad = valid();
        bad.phases.push(PhaseSpec {
            name: "postscript",
            actions: vec![("node", vec![ActionKind::Post])],
            exit: PhaseExit::Rounds(1),
        });
        let mut findings = Vec::new();
        check_global(&bad, &mut findings);
        let rs = rules(&findings);
        assert!(rs.contains(&"RSBT-C003"), "{findings:#?}");
    }

    #[test]
    fn rejects_a_guard_phase_nobody_can_advance() {
        let mut bad = valid();
        bad.phases.insert(
            0,
            PhaseSpec {
                name: "stall",
                actions: vec![("node", vec![])],
                exit: PhaseExit::Guard("never"),
            },
        );
        let mut findings = Vec::new();
        check_global(&bad, &mut findings);
        assert!(rules(&findings).contains(&"RSBT-C004"), "{findings:#?}");
    }
}
