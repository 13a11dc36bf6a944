//! Experiment `proto_mc` — protocol-level Monte-Carlo estimation through
//! the choreography estimator backend.
//!
//! Where the solvability sweeps estimate what the knowledge structure
//! *admits*, this bin estimates what the executable protocols *do*:
//! cumulative completion-by-round series with Wilson intervals for every
//! ported blackboard election, plus per-run message/byte costs including
//! the Euclid election under message passing.
//!
//! In-process acceptance gates (a green run certifies all three):
//!
//! * **thread invariance** — the estimator is a pure function of the
//!   job: one worker and the CLI's worker count produce bit-identical
//!   rows (per-sample `StreamRng` streams are keyed by `(seed, sample)`,
//!   never by the executing thread);
//! * **exact bracketing** — the cross-validation suite proves a projected election completes by round `t + 1` iff the task
//!   is solvable at time `t`; here the *estimated* completion
//!   probability must bracket `probability::exact` within its Wilson
//!   interval at every exact-reachable point;
//! * **schema** — with `--json`, the emitted rows are validated against
//!   `rsbt-bench-report/v2` before writing (`Report::write_json` panics
//!   on violation).

use std::process::ExitCode;

use rsbt_bench::{counters_table, run_experiment, ProtoMc, ProtoMcPoint};
use rsbt_protocols::choreo::{BleChoreo, DeputyChoreo, EuclidChoreo, KLeaderChoreo, WsbChoreo};
use rsbt_random::Assignment;
use rsbt_sim::Model;
use rsbt_tasks::LeaderElection;

const PROFILES: [&[usize]; 4] = [&[1, 1], &[1, 2], &[1, 1, 2], &[2, 2]];

/// Wilson score interval on `successes / samples` at `z` standard
/// deviations.
fn wilson(successes: u64, samples: u64, z: f64) -> (f64, f64) {
    let n = samples as f64;
    let p = successes as f64 / n;
    let denom = 1.0 + z * z / n;
    let center = (p + z * z / (2.0 * n)) / denom;
    let half = z * (p * (1.0 - p) / n + z * z / (4.0 * n * n)).sqrt() / denom;
    ((center - half).max(0.0), (center + half).min(1.0))
}

fn main() -> ExitCode {
    run_experiment(
        "proto_mc",
        "Protocol-level Monte-Carlo (choreography estimator backend)",
        "Fraigniaud-Gelles-Lotker 2021, Sections 3-4 protocols as executables",
        |eng, rep| {
            let spec = ProtoMc {
                samples: 4000,
                seed: 0x5EED_B0A2D,
                max_rounds: 12,
                threads: eng.threads(),
            };

            // Gate 1: thread invariance, asserted on a real sweep point.
            let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
            let serial = ProtoMc { threads: 1, ..spec }.estimate(
                &BleChoreo,
                "blackboard",
                &Model::Blackboard,
                &alpha,
            );
            let threaded = spec.estimate(&BleChoreo, "blackboard", &Model::Blackboard, &alpha);
            assert_eq!(
                serial.row, threaded.row,
                "protocol-MC rows must be thread-count invariant"
            );

            // Gate 2: the estimate brackets the exact solvability
            // probability (round r = t + 1 completion ≡ time-t
            // solvability, proven pointwise by tests/cross_validation.rs).
            // z = 4 keeps the multi-point gate deterministic-green, the
            // same convention as the sampler's exact-agreement tests.
            for t in 1..=3usize {
                let exact = eng.exact(&Model::Blackboard, &LeaderElection, &alpha, t);
                let (lo, hi) = wilson(
                    threaded.estimate.completed_by_round[t],
                    threaded.estimate.samples,
                    4.0,
                );
                assert!(
                    lo <= exact && exact <= hi,
                    "t={t}: exact {exact} outside z=4 Wilson [{lo}, {hi}]"
                );
            }

            // The sweep proper: every ported blackboard election over a
            // profile grid spanning solvable (min group 1) and
            // symmetric-forever (gcd 2) assignments.
            let mut points: Vec<ProtoMcPoint> = Vec::new();
            for sizes in PROFILES {
                let alpha = Assignment::from_group_sizes(sizes).unwrap();
                let bb = Model::Blackboard;
                points.push(spec.estimate(&BleChoreo, "blackboard", &bb, &alpha));
                points.push(spec.estimate(&WsbChoreo, "blackboard", &bb, &alpha));
                points.push(spec.estimate(&KLeaderChoreo { k: 2 }, "blackboard", &bb, &alpha));
                points.push(spec.estimate(&DeputyChoreo, "blackboard", &bb, &alpha));
            }
            for p in &points {
                assert!(p.row.is_monotone(), "cumulative series must be monotone");
            }
            let section = rep.section("blackboard elections: completion by round");
            section.sweep("proto-mc", points.iter().map(|p| p.row.clone()).collect());
            section.note("series[r-1] = Pr[protocol decided by round r], estimated on the");
            section.note("projected machines; limit column applies the zero-one reading");
            section.note("(any completed sample witnesses eventual success).");

            // Per-run costs, including Euclid under message passing
            // (gcd = 1 so it elects; the round cap is generous).
            let euclid_alpha = Assignment::from_group_sizes(&[2, 3]).unwrap();
            let euclid = ProtoMc {
                samples: 800,
                max_rounds: 512,
                ..spec
            }
            .estimate(
                &EuclidChoreo { k: 2 },
                "cyclic ports",
                &Model::message_passing_cyclic(euclid_alpha.n()),
                &euclid_alpha,
            );
            assert!(
                euclid.estimate.successes > 0,
                "gcd = 1 Euclid election must complete within the cap"
            );
            let mut cost_points = points;
            cost_points.push(euclid);
            let section = rep.section("per-run protocol costs");
            section.table(counters_table(&cost_points));
            section.note("posts/sends are whole-run totals over all nodes, averaged across");
            section.note("samples; max msg B is the wire length of the largest message, so");
            section.note("simulator and socket backends report identical byte counters.");
        },
    )
}
