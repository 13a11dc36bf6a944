//! Experiment `appC` — Theorem C.1: any name-independent input-output
//! task reduces to leader election, in both communication models.
//!
//! Runs consensus (the canonical name-independent task) through the
//! reduction on top of both election protocols and checks agreement +
//! validity on every trial.

use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsbt_bench::{fmt_sizes, run_experiment, Table};
use rsbt_protocols::choreo::{
    check_consensus, consensus_choreo, run_with, BleChoreo, EuclidChoreo,
};
use rsbt_random::Assignment;
use rsbt_sim::runner::RunStats;
use rsbt_sim::{Model, PortNumbering};

fn main() -> ExitCode {
    run_experiment(
        "reduction",
        "Theorem C.1: name-independent tasks via leader election",
        "Fraigniaud-Gelles-Lotker 2021, Appendix C",
        |_eng, rep| {
            const TRIALS: u64 = 100;
            let mut table = Table::new(vec![
                "model",
                "sizes",
                "task",
                "valid runs",
                "mean rounds",
                "posts/run",
                "sends/run",
                "max msg B",
            ]);

            // Blackboard consensus.
            for sizes in [vec![1usize, 1, 1], vec![1, 3]] {
                let alpha = Assignment::from_group_sizes(&sizes).unwrap();
                let mut ok = 0u64;
                let mut rounds = Vec::new();
                let mut stats = RunStats::default();
                for seed in 0..TRIALS {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let inputs: Vec<u64> = (0..alpha.n()).map(|_| rng.gen_range(0..10)).collect();
                    let choreo = consensus_choreo(BleChoreo, inputs.clone());
                    let out = run_with(&choreo, &Model::Blackboard, &alpha, 512, &mut rng)
                        .expect("consensus projects on the blackboard");
                    stats.posts += out.stats.posts;
                    stats.sends += out.stats.sends;
                    stats.max_msg_bytes = stats.max_msg_bytes.max(out.stats.max_msg_bytes);
                    if out.completed && check_consensus(&inputs, &out.outputs).is_ok() {
                        ok += 1;
                        rounds.push(out.rounds);
                    }
                }
                let mean = rounds.iter().sum::<usize>() as f64 / rounds.len().max(1) as f64;
                table.row(vec![
                    "blackboard".into(),
                    fmt_sizes(&sizes),
                    "consensus(min)".into(),
                    format!("{ok}/{TRIALS}"),
                    format!("{mean:.1}"),
                    format!("{:.1}", stats.posts as f64 / TRIALS as f64),
                    format!("{:.1}", stats.sends as f64 / TRIALS as f64),
                    stats.max_msg_bytes.to_string(),
                ]);
            }

            // Message-passing consensus over correlated sources.
            for sizes in [vec![2usize, 3], vec![1, 1, 1]] {
                let alpha = Assignment::from_group_sizes(&sizes).unwrap();
                let k = sizes.len();
                let mut ok = 0u64;
                let mut rounds = Vec::new();
                let mut stats = RunStats::default();
                for seed in 0..TRIALS {
                    let mut rng = StdRng::seed_from_u64(seed + 1000);
                    let ports = PortNumbering::random(alpha.n(), &mut rng);
                    let inputs: Vec<u64> = (0..alpha.n()).map(|_| rng.gen_range(0..10)).collect();
                    let choreo = consensus_choreo(EuclidChoreo { k }, inputs.clone());
                    let model = Model::MessagePassing(ports);
                    let out = run_with(&choreo, &model, &alpha, 8000, &mut rng)
                        .expect("consensus projects under message passing");
                    stats.posts += out.stats.posts;
                    stats.sends += out.stats.sends;
                    stats.max_msg_bytes = stats.max_msg_bytes.max(out.stats.max_msg_bytes);
                    if out.completed && check_consensus(&inputs, &out.outputs).is_ok() {
                        ok += 1;
                        rounds.push(out.rounds);
                    }
                }
                let mean = rounds.iter().sum::<usize>() as f64 / rounds.len().max(1) as f64;
                table.row(vec![
                    "message-passing".into(),
                    fmt_sizes(&sizes),
                    "consensus(min)".into(),
                    format!("{ok}/{TRIALS}"),
                    format!("{mean:.1}"),
                    format!("{:.1}", stats.posts as f64 / TRIALS as f64),
                    format!("{:.1}", stats.sends as f64 / TRIALS as f64),
                    stats.max_msg_bytes.to_string(),
                ]);
            }

            let section = rep.section("consensus through the reduction");
            section.table(table);
            section.note("paper: whenever leader election is solvable, every name-independent");
            section.note("task is; agreement and validity hold on every completed run.");
        },
    )
}
