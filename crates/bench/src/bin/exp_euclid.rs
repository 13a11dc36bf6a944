//! Experiment `euclid` — the Theorem 4.2 'if'-direction algorithm:
//! Euclid-style leader election over correlated sources.
//!
//! Measures success rate and rounds-to-election across gcd = 1 profiles
//! (random and adversarial ports) and confirms the stall on gcd > 1 with
//! adversarial ports.

use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsbt_bench::{fmt_sizes, run_experiment, Table};
use rsbt_protocols::choreo::{run_with, EuclidChoreo};
use rsbt_protocols::leader_count;
use rsbt_random::Assignment;
use rsbt_sim::runner::RunStats;
use rsbt_sim::{Model, PortNumbering};

fn trial(
    sizes: &[usize],
    adversarial: bool,
    seed: u64,
    cap: usize,
) -> (bool, usize, usize, RunStats) {
    let alpha = Assignment::from_group_sizes(sizes).unwrap();
    let n = alpha.n();
    let k = sizes.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let ports = if adversarial {
        PortNumbering::adversarial(n, alpha.gcd_of_group_sizes() as usize)
    } else {
        PortNumbering::random(n, &mut rng)
    };
    let out = run_with(
        &EuclidChoreo { k },
        &Model::MessagePassing(ports),
        &alpha,
        cap,
        &mut rng,
    )
    .expect("euclid election projects under message passing");
    (
        out.completed,
        leader_count(&out.outputs),
        out.rounds,
        out.stats,
    )
}

fn main() -> ExitCode {
    run_experiment(
        "euclid",
        "Euclid-style leader election (Theorem 4.2, 'if' direction)",
        "Fraigniaud-Gelles-Lotker 2021, Theorem 4.2 proof (Section 4.2)",
        |_eng, rep| {
            const TRIALS: u64 = 100;
            let mut table = Table::new(vec![
                "sizes",
                "gcd",
                "ports",
                "elected",
                "leaders=1",
                "mean rounds",
                "sends/run",
                "max msg B",
            ]);
            for sizes in [
                vec![1usize, 1],
                vec![1, 2],
                vec![2, 3],
                vec![3, 4],
                vec![2, 2, 3],
                vec![2, 3, 4],
                vec![1, 1, 1, 1],
            ] {
                for adversarial in [false, true] {
                    let mut ok = 0u64;
                    let mut single = true;
                    let mut rounds = Vec::new();
                    let mut sends = 0u64;
                    let mut max_msg_bytes = 0usize;
                    for seed in 0..TRIALS {
                        let (done, leaders, r, stats) = trial(&sizes, adversarial, seed, 8000);
                        sends += stats.sends;
                        max_msg_bytes = max_msg_bytes.max(stats.max_msg_bytes);
                        if done {
                            ok += 1;
                            single &= leaders == 1;
                            rounds.push(r);
                        }
                    }
                    let alpha = Assignment::from_group_sizes(&sizes).unwrap();
                    let mean = rounds.iter().sum::<usize>() as f64 / rounds.len().max(1) as f64;
                    table.row(vec![
                        fmt_sizes(&sizes),
                        alpha.gcd_of_group_sizes().to_string(),
                        if adversarial { "adversarial" } else { "random" }.to_string(),
                        format!("{ok}/{TRIALS}"),
                        single.to_string(),
                        format!("{mean:.1}"),
                        format!("{:.1}", sends as f64 / TRIALS as f64),
                        max_msg_bytes.to_string(),
                    ]);
                }
            }
            let section = rep.section("election success and round counts");
            section.table(table);
            section.note("paper: gcd = 1 elects exactly one leader for EVERY numbering.");

            // The stall side: gcd > 1, adversarial ports.
            let mut stall = Table::new(vec!["sizes", "gcd", "elected within cap"]);
            for sizes in [vec![2usize, 2], vec![3, 3], vec![2, 4]] {
                let mut ok = 0u64;
                for seed in 0..20 {
                    let (done, _, _, _) = trial(&sizes, true, seed, 1000);
                    ok += u64::from(done);
                }
                let alpha = Assignment::from_group_sizes(&sizes).unwrap();
                stall.row(vec![
                    fmt_sizes(&sizes),
                    alpha.gcd_of_group_sizes().to_string(),
                    format!("{ok}/20"),
                ]);
            }
            rep.section("gcd > 1 with adversarial ports (expected 0 everywhere)")
                .table(stall);
        },
    )
}
