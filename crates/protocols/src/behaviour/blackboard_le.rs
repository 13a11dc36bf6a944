//! Behaviour of the Theorem 4.1 blackboard election, [`BleChoreo`](crate::choreo::BleChoreo).

#[cfg(test)]
mod tests {
    use rsbt_sim::runner::RunOutcome;
    use rsbt_sim::Model;

    use crate::behaviour::{run_seeded, sizes};
    use crate::choreo::BleChoreo;
    use crate::{leader_count, Role};

    fn elect(s: &[usize], seed: u64, max_rounds: usize) -> RunOutcome<Role> {
        run_seeded(&BleChoreo, &Model::Blackboard, &sizes(s), seed, max_rounds)
    }

    #[test]
    fn private_randomness_elects_exactly_one() {
        for seed in 0..30 {
            let out = elect(&[1, 1, 1, 1], seed, 128);
            assert!(out.completed, "seed {seed}");
            assert_eq!(leader_count(&out.outputs), 1, "seed {seed}");
        }
    }

    #[test]
    fn singleton_source_suffices() {
        for seed in 0..30 {
            let out = elect(&[1, 3], seed, 128);
            assert!(out.completed, "seed {seed}");
            assert_eq!(leader_count(&out.outputs), 1, "seed {seed}");
        }
    }

    #[test]
    fn no_singleton_never_terminates() {
        for seed in 0..10 {
            let out = elect(&[2, 2], seed, 64);
            assert!(!out.completed, "seed {seed}: [2,2] must not elect");
            assert_eq!(leader_count(&out.outputs), 0);
        }
    }

    #[test]
    fn shared_source_never_terminates() {
        let out = elect(&[3], 5, 64);
        assert!(!out.completed);
    }

    #[test]
    fn single_node_is_immediate_leader() {
        let out = elect(&[1], 0, 4);
        assert!(out.completed);
        assert_eq!(out.rounds, 1);
        assert_eq!(out.outputs, vec![Some(Role::Leader)]);
    }

    #[test]
    fn leader_is_in_a_singleton_group_when_groups_differ() {
        // With sizes [1, 2], only node 0 can ever be elected: nodes 1 and 2
        // always share a string.
        for seed in 0..20 {
            let out = elect(&[1, 2], seed, 128);
            assert!(out.completed);
            assert_eq!(out.outputs[0], Some(Role::Leader), "seed {seed}");
            assert_eq!(out.outputs[1], Some(Role::Follower));
            assert_eq!(out.outputs[2], Some(Role::Follower));
        }
    }

    #[test]
    fn all_nodes_decide_in_the_same_round() {
        let out = elect(&[1, 1, 1], 9, 128);
        assert!(out.completed);
        assert!(out.outputs.iter().all(Option::is_some));
    }
}
