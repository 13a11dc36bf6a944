//! Behaviour of the blackboard k-leader election,
//! [`KLeaderChoreo`](crate::choreo::KLeaderChoreo).

#[cfg(test)]
mod tests {
    use rsbt_sim::runner::RunOutcome;
    use rsbt_sim::Model;

    use crate::behaviour::{run_seeded, sizes};
    use crate::choreo::KLeaderChoreo;
    use crate::{leader_count, Role};

    fn elect(s: &[usize], k: usize, seed: u64, cap: usize) -> RunOutcome<Role> {
        run_seeded(
            &KLeaderChoreo { k },
            &Model::Blackboard,
            &sizes(s),
            seed,
            cap,
        )
    }

    #[test]
    fn k1_matches_leader_election_semantics() {
        for seed in 0..10 {
            let out = elect(&[1, 1, 1], 1, seed, 128);
            assert!(out.completed);
            assert_eq!(leader_count(&out.outputs), 1);
        }
    }

    #[test]
    fn pair_source_elects_two() {
        for seed in 0..10 {
            let out = elect(&[2, 2], 2, seed, 128);
            assert!(out.completed, "seed {seed}");
            assert_eq!(leader_count(&out.outputs), 2);
            // The two leaders share a source: nodes 0,1 or nodes 2,3.
            let leaders: Vec<usize> = (0..4)
                .filter(|&i| out.outputs[i] == Some(Role::Leader))
                .collect();
            assert!(leaders == [0, 1] || leaders == [2, 3], "{leaders:?}");
        }
    }

    #[test]
    fn two_singletons_elect_two() {
        for seed in 0..10 {
            let out = elect(&[1, 1, 3], 2, seed, 256);
            assert!(out.completed, "seed {seed}");
            assert_eq!(leader_count(&out.outputs), 2);
        }
    }

    #[test]
    fn unsolvable_profile_stalls() {
        // [3, 1] cannot produce classes summing to 2 (classes are unions
        // of groups; possible profiles: {3,1} or {4}).
        for seed in 0..5 {
            let out = elect(&[3, 1], 2, seed, 64);
            assert!(!out.completed, "seed {seed}");
        }
    }

    #[test]
    fn all_nodes_leaders_when_k_equals_n() {
        let out = elect(&[2, 1], 3, 3, 64);
        assert!(out.completed);
        assert_eq!(leader_count(&out.outputs), 3);
    }
}
