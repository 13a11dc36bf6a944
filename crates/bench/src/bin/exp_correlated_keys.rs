//! Experiment `ssh` — the paper's Section 1 motivation: duplicated
//! randomness in the wild (Mat15: >250k devices sharing SSH keys;
//! KV19: 1 in 172 RSA certificates sharing a factor).
//!
//! We synthesize a population of devices whose randomness sources are
//! duplicated at a configurable rate (the substitution for the paper's
//! internet-scan data — same code path: nodes wired to shared sources)
//! and measure how duplication degrades blackboard leader election.

use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsbt_bench::{fmt_p, run_experiment, Table};
use rsbt_core::{bounds, eventual};
use rsbt_protocols::choreo::{run_with, BleChoreo};
use rsbt_protocols::leader_count;
use rsbt_random::Assignment;
use rsbt_sim::Model;

/// Samples a device population: each of `n` devices draws a "key" from a
/// pool of `pool` sources; devices drawing the same key share randomness.
fn sample_population(n: usize, pool: usize, rng: &mut StdRng) -> Assignment {
    let sources: Vec<usize> = (0..n).map(|_| rng.gen_range(0..pool)).collect();
    Assignment::from_sources(sources).expect("n ≥ 1")
}

fn main() -> ExitCode {
    run_experiment(
        "correlated_keys",
        "Correlated-keys workload: duplicated randomness vs leader election",
        "Fraigniaud-Gelles-Lotker 2021, Section 1 motivation ([Mat15], [KV19])",
        |_eng, rep| {
            const TRIALS: u64 = 200;
            let n = 6;
            let mut table = Table::new(vec![
                "pool size",
                "dup pressure",
                "Pr[solvable] (Thm 4.1)",
                "elected (protocol)",
                "mean rounds",
            ]);
            let mut rng = StdRng::seed_from_u64(7);
            for pool in [1usize, 2, 3, 6, 12, 1000] {
                let mut solvable = 0u64;
                let mut elected = 0u64;
                let mut rounds = Vec::new();
                for _ in 0..TRIALS {
                    let alpha = sample_population(n, pool, &mut rng);
                    if eventual::blackboard_eventually_solvable(&alpha) {
                        solvable += 1;
                        let out = run_with(&BleChoreo, &Model::Blackboard, &alpha, 256, &mut rng)
                            .expect("blackboard election projects");
                        if out.completed && leader_count(&out.outputs) == 1 {
                            elected += 1;
                            rounds.push(out.rounds);
                        }
                    }
                }
                let mean = rounds.iter().sum::<usize>() as f64 / rounds.len().max(1) as f64;
                table.row(vec![
                    pool.to_string(),
                    format!("{:.2} dev/key", n as f64 / pool as f64),
                    fmt_p(solvable as f64 / TRIALS as f64),
                    format!("{elected}/{solvable}"),
                    format!("{mean:.1}"),
                ]);
            }
            let section = rep.section("population sweep");
            section.table(table);
            section.note("reading: with a tiny key pool (heavy duplication, the [Mat15] regime)");
            section.note("configurations rarely contain a singleton source, so election is");
            section.note("often impossible; as the pool grows the system approaches private");
            section.note("randomness and election always succeeds.");

            // The closed-form view for one representative profile.
            let closed = rep
                .section("closed forms for sizes [1,2,2] (one unique key, two duplicated pairs)");
            for t in [1usize, 2, 4, 8] {
                closed.note(format!(
                    "  t={t}: exact p(t) = {}  bound 1-(k-1)/2^t = {}",
                    fmt_p(bounds::exact_blackboard_le_probability(&[1, 2, 2], t)),
                    fmt_p(bounds::theorem_4_1_lower_bound(3, t)),
                ));
            }
        },
    )
}
