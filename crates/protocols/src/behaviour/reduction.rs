//! Behaviour of the Theorem C.1 reduction of name-independent tasks to
//! leader election, [`ReductionChoreo`](crate::choreo::ReductionChoreo).

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rsbt_random::Assignment;
    use rsbt_sim::{Model, PortNumbering};

    use crate::behaviour::{run_seeded, sizes};
    use crate::choreo::{run_with, BleChoreo, EuclidChoreo, ReductionChoreo, SharedSolver};

    /// Name-independent "minimum" task: everyone outputs the global min.
    fn min_solver() -> SharedSolver {
        Arc::new(|inputs: &[u64]| {
            let min = *inputs.iter().min().expect("non-empty");
            inputs.iter().map(|&v| (v, min)).collect()
        })
    }

    #[test]
    fn blackboard_min_via_leader() {
        let choreo = ReductionChoreo::new("min", BleChoreo, vec![30, 10, 20], min_solver());
        let out = run_seeded(&choreo, &Model::Blackboard, &sizes(&[1, 1, 1]), 5, 256);
        assert!(out.completed);
        assert_eq!(out.outputs, vec![Some(10), Some(10), Some(10)]);
    }

    #[test]
    fn message_passing_min_via_leader() {
        let mut rng = StdRng::seed_from_u64(6);
        let model = Model::MessagePassing(PortNumbering::random(5, &mut rng));
        // Same-source nodes share inputs.
        let inputs = vec![5, 5, 9, 9, 9];
        let choreo = ReductionChoreo::new("min", EuclidChoreo { k: 2 }, inputs, min_solver());
        let out = run_with(&choreo, &model, &sizes(&[2, 3]), 6000, &mut rng).unwrap();
        assert!(out.completed);
        assert!(out.outputs.iter().all(|o| *o == Some(5)));
    }

    #[test]
    fn name_independence_equal_inputs_equal_outputs() {
        // A "rank" task: output = rank of your input among distinct inputs.
        let solver: SharedSolver = Arc::new(|inputs: &[u64]| {
            let mut distinct: Vec<u64> = inputs.to_vec();
            distinct.dedup();
            distinct
                .iter()
                .enumerate()
                .map(|(r, &v)| (v, r as u64))
                .collect()
        });
        let choreo = ReductionChoreo::new("rank", BleChoreo, vec![7, 3, 7, 11], solver);
        let out = run_seeded(&choreo, &Model::Blackboard, &Assignment::private(4), 8, 256);
        assert!(out.completed);
        // inputs sorted: [3,7,7,11] → ranks {3:0, 7:1, 11:2}.
        assert_eq!(
            out.outputs,
            vec![Some(1), Some(0), Some(1), Some(2)],
            "equal inputs get equal outputs"
        );
    }

    #[test]
    fn reduction_stalls_when_election_stalls() {
        // No singleton source on the blackboard: Theorem C.1's hypothesis
        // fails and the reduction inherits the stall.
        let choreo = ReductionChoreo::new("min", BleChoreo, vec![0, 1, 2, 3], min_solver());
        let out = run_seeded(&choreo, &Model::Blackboard, &sizes(&[2, 2]), 9, 64);
        assert!(!out.completed);
    }
}
