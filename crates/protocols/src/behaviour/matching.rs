//! Behaviour of Algorithm 1, `CreateMatching`,
//! [`MatchingChoreo`](crate::choreo::MatchingChoreo).

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rsbt_random::Assignment;
    use rsbt_sim::{Model, PortNumbering};

    use crate::behaviour::run_seeded;
    use crate::choreo::{run_with, MatchStatus, MatchingChoreo};

    /// Runs the matching of groups A = first `a` nodes and B = next `b`
    /// nodes, bystanders after, on ports drawn from the run's own stream.
    fn run_matching(
        a: usize,
        b: usize,
        sources: Vec<usize>,
        seed: u64,
    ) -> Vec<Option<MatchStatus>> {
        let alpha = Assignment::from_sources(sources).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let model = Model::MessagePassing(PortNumbering::random(alpha.n(), &mut rng));
        let out = run_with(&MatchingChoreo { a, b }, &model, &alpha, 3000, &mut rng).unwrap();
        assert!(out.completed, "matching a={a} b={b} seed={seed} timed out");
        out.outputs
    }

    /// Checks Lemma 4.8's shape: all of `A` and exactly `|A|` of `B` end
    /// matched, and bystanders finish as bystanders.
    fn assert_matching_shape(outputs: &[Option<MatchStatus>], a: usize, b: usize) {
        let count = |range: std::ops::Range<usize>, s| {
            outputs[range].iter().filter(|o| **o == Some(s)).count()
        };
        assert_eq!(
            count(0..a, MatchStatus::Matched),
            a,
            "every A-node is matched"
        );
        assert_eq!(
            count(a..a + b, MatchStatus::Matched),
            a,
            "|A| B-nodes are matched"
        );
        assert_eq!(count(a..a + b, MatchStatus::Unmatched), b - a);
        for o in &outputs[a + b..] {
            assert_eq!(*o, Some(MatchStatus::Bystander));
        }
    }

    #[test]
    fn matches_all_of_a_private_randomness() {
        for seed in 0..10 {
            let outputs = run_matching(2, 3, (0..5).collect(), seed);
            assert_matching_shape(&outputs, 2, 3);
        }
    }

    #[test]
    fn matches_with_shared_group_sources() {
        // The paper's regime: group A shares one source, group B another.
        for seed in 0..10 {
            let outputs = run_matching(2, 3, vec![0, 0, 1, 1, 1], seed);
            assert_matching_shape(&outputs, 2, 3);
        }
    }

    #[test]
    fn equal_sizes_match_perfectly() {
        for seed in 0..5 {
            let outputs = run_matching(3, 3, vec![0, 0, 0, 1, 1, 1], seed);
            assert_matching_shape(&outputs, 3, 3);
        }
    }

    #[test]
    fn bystanders_observe_and_finish() {
        for seed in 0..5 {
            let outputs = run_matching(1, 2, vec![0, 1, 1, 2, 2], seed);
            assert_matching_shape(&outputs, 1, 2);
        }
    }

    #[test]
    fn singleton_a_matches_fast() {
        let outputs = run_matching(1, 4, vec![0, 1, 1, 1, 1], 3);
        assert_matching_shape(&outputs, 1, 4);
    }

    #[test]
    #[should_panic(expected = "|A| ≤ |B|")]
    fn rejects_a_larger_than_b() {
        let model = Model::MessagePassing(PortNumbering::cyclic(5));
        let choreo = MatchingChoreo { a: 3, b: 2 };
        let _ = run_seeded(&choreo, &model, &Assignment::private(5), 0, 10);
    }
}
