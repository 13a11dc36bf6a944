//! Theorem C.1: once a leader exists, every name-independent input-output
//! task is solvable — demonstrated with consensus and a histogram task.
//!
//! Run with `cargo run --example task_reduction`.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsbt::protocols::choreo::{
    check_consensus, consensus_choreo, run_with, BleChoreo, ReductionChoreo, SharedSolver,
};
use rsbt::random::Assignment;
use rsbt::sim::Model;
use rsbt_bench::Table;

fn main() {
    let mut rng = StdRng::seed_from_u64(3);
    let alpha = Assignment::private(4);
    let mut table = Table::new(vec!["task", "inputs", "outputs", "rounds"]);

    // --- consensus ---
    let inputs = [12u64, 7, 31, 7];
    let choreo = consensus_choreo(BleChoreo, inputs.to_vec());
    let out = run_with(&choreo, &Model::Blackboard, &alpha, 512, &mut rng)
        .expect("consensus projects on the blackboard");
    let decision = check_consensus(&inputs, &out.outputs).expect("consensus holds");
    table.row(vec![
        "consensus(min)".into(),
        format!("{inputs:?}"),
        format!("everyone decided {decision}"),
        out.rounds.to_string(),
    ]);

    // --- a custom name-independent task: "am I holding a modal value?" ---
    // Output 1 iff your input is among the most frequent input values.
    let solver: SharedSolver = Arc::new(|inputs: &[u64]| {
        let mut counts = std::collections::BTreeMap::new();
        for &v in inputs {
            *counts.entry(v).or_insert(0usize) += 1;
        }
        let max = counts.values().copied().max().unwrap_or(0);
        counts
            .into_iter()
            .map(|(v, c)| (v, u64::from(c == max)))
            .collect()
    });
    let inputs = [5u64, 9, 5, 9];
    let choreo = ReductionChoreo::new("modal-value", BleChoreo, inputs.to_vec(), solver);
    let out = run_with(&choreo, &Model::Blackboard, &alpha, 512, &mut rng)
        .expect("the reduction projects on the blackboard");
    table.row(vec![
        "modal-value".into(),
        format!("{inputs:?}"),
        format!(
            "{:?}",
            out.outputs
                .iter()
                .map(|o| o.expect("decided"))
                .collect::<Vec<_>>()
        ),
        out.rounds.to_string(),
    ]);

    println!("name-independent tasks via the Appendix C reduction:\n");
    print!("{table}");
    println!();
    println!("Both tasks ran as: elect a leader → publish inputs → leader");
    println!("publishes an input→output table → everyone reads off its output.");
    println!("Name-independence is what makes the table well-defined (Appendix C).");
}
