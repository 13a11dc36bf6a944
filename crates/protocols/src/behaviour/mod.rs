//! Helpers shared by the behavioural test modules. Like the tests, each
//! helper carries `#[cfg(test)]`, so `rsbt-analyze` reads it as test code.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsbt_random::Assignment;
use rsbt_sim::runner::RunOutcome;
use rsbt_sim::Model;

use crate::choreo::{run_with, Choreography, NodeOutput};

/// Runs `choreo` once on `alpha` with a fresh `StdRng` seeded by `seed`.
#[cfg(test)]
pub(crate) fn run_seeded<C: Choreography>(
    choreo: &C,
    model: &Model,
    alpha: &Assignment,
    seed: u64,
    max_rounds: usize,
) -> RunOutcome<NodeOutput<C>> {
    let mut rng = StdRng::seed_from_u64(seed);
    run_with(choreo, model, alpha, max_rounds, &mut rng).expect("choreography projects")
}

/// The assignment with these group sizes.
#[cfg(test)]
pub(crate) fn sizes(s: &[usize]) -> Assignment {
    Assignment::from_group_sizes(s).unwrap()
}
