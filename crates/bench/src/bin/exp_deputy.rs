//! Experiment `deputy` — the paper's Section 5 future-work example:
//! electing a leader *and* a deputy leader.
//!
//! The framework's per-facet solvability machinery never needed output
//! symmetry, so it applies directly. For unconstrained roles the
//! framework yields: blackboard leader+deputy is eventually solvable ⟺
//! **at least two sources are singletons** — strictly stronger than
//! Theorem 4.1's single singleton. The `DeputyChoreo` protocol realizes
//! the positive side (report section "protocol (DeputyChoreo)").
//! Constrained roles (only some nodes may lead) break output symmetry,
//! which is exactly why the paper defers the general theory.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsbt_bench::{fmt_sizes, run_experiment, SweepSpec, Table, TaskSpec};
use rsbt_protocols::choreo::{run_with, DeputyChoreo, DeputyRole};
use rsbt_random::Assignment;
use rsbt_sim::Model;
use rsbt_tasks::{LeaderAndDeputy, Task};
use std::process::ExitCode;

fn main() -> ExitCode {
    run_experiment(
        "deputy",
        "Leader + deputy election (Section 5 future work)",
        "Fraigniaud-Gelles-Lotker 2021, Section 5",
        |eng, rep| {
            // Framework sweep with the unconstrained (symmetric) complex.
            let spec = SweepSpec::new()
                .task(TaskSpec::new(|n| {
                    Box::new(LeaderAndDeputy::unconstrained(n))
                }))
                .nodes(2..=6)
                .t_cap(3)
                .bit_budget(16)
                .predicate(|alpha| alpha.group_sizes().iter().filter(|&&s| s == 1).count() >= 2);
            let rows = eng.sweep(&spec);
            let all_match = rows.iter().all(|r| r.matches == Some(true));
            let section = rep.section("framework sweep (unconstrained roles)");
            section.sweep("leader-and-deputy", rows);
            section.note("framework-derived: solvable ⟺ at least two singleton sources.");
            section.note(format!("all profiles match: {all_match}"));

            // The protocol realizes the positive side.
            const TRIALS: u64 = 100;
            let mut proto = Table::new(vec!["sizes", "elected (L,D)", "mean rounds"]);
            for sizes in [vec![1usize, 1, 2], vec![1, 1, 1], vec![1, 1, 4]] {
                let alpha = Assignment::from_group_sizes(&sizes).unwrap();
                let mut ok = 0u64;
                let mut rounds = Vec::new();
                for seed in 0..TRIALS {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let out = run_with(&DeputyChoreo, &Model::Blackboard, &alpha, 512, &mut rng)
                        .expect("deputy election projects");
                    if out.completed {
                        let l = out
                            .outputs
                            .iter()
                            .filter(|o| **o == Some(DeputyRole::Leader))
                            .count();
                        let d = out
                            .outputs
                            .iter()
                            .filter(|o| **o == Some(DeputyRole::Deputy))
                            .count();
                        if (l, d) == (1, 1) {
                            ok += 1;
                            rounds.push(out.rounds);
                        }
                    }
                }
                let mean = rounds.iter().sum::<usize>() as f64 / rounds.len().max(1) as f64;
                proto.row(vec![
                    fmt_sizes(&sizes),
                    format!("{ok}/{TRIALS}"),
                    format!("{mean:.1}"),
                ]);
            }
            rep.section("protocol (DeputyChoreo)").table(proto);

            // Constrained roles break symmetry — flagged, not silently
            // accepted.
            let constrained =
                LeaderAndDeputy::new(vec![true, false, false], vec![false, true, true]);
            rep.section("constrained roles").note(format!(
                "constrained roles (p0 leads, p1/p2 deputize): output symmetric = {} — \
                 outside the paper's symmetric framework, as Section 5 notes.",
                constrained.is_symmetric_for(3)
            ));
        },
    )
}
