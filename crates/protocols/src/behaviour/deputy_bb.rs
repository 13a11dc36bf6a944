//! Behaviour of the blackboard leader-and-deputy election,
//! [`DeputyChoreo`](crate::choreo::DeputyChoreo).

#[cfg(test)]
mod tests {
    use rand::RngCore;
    use rsbt_sim::runner::RunOutcome;
    use rsbt_sim::Model;

    use crate::behaviour::{run_seeded, sizes};
    use crate::choreo::{run_with, DeputyChoreo, DeputyRole};

    fn run_ld(s: &[usize], seed: u64, cap: usize) -> RunOutcome<DeputyRole> {
        run_seeded(&DeputyChoreo, &Model::Blackboard, &sizes(s), seed, cap)
    }

    fn role_counts(outs: &[Option<DeputyRole>]) -> (usize, usize, usize) {
        let c = |r| outs.iter().filter(|o| **o == Some(r)).count();
        (
            c(DeputyRole::Leader),
            c(DeputyRole::Deputy),
            c(DeputyRole::Follower),
        )
    }

    #[test]
    fn two_singletons_elect_leader_and_deputy() {
        for seed in 0..20 {
            let out = run_ld(&[1, 1, 3], seed, 256);
            assert!(out.completed, "seed {seed}");
            assert_eq!(role_counts(&out.outputs), (1, 1, 3), "seed {seed}");
        }
    }

    #[test]
    fn all_private_works() {
        for seed in 0..10 {
            let out = run_ld(&[1, 1, 1, 1], seed, 256);
            assert!(out.completed);
            assert_eq!(role_counts(&out.outputs), (1, 1, 2));
        }
    }

    #[test]
    fn one_singleton_is_not_enough() {
        // A leader can be elected, but no deputy ever distinguishes itself
        // inside the remaining pair.
        for seed in 0..5 {
            let out = run_ld(&[1, 2], seed, 64);
            assert!(!out.completed, "seed {seed}");
        }
    }

    #[test]
    fn no_singleton_stalls() {
        for seed in 0..5 {
            let out = run_ld(&[2, 2], seed, 64);
            assert!(!out.completed);
        }
    }

    /// Replays fixed source bits in the runner's draw order (round-major,
    /// source-minor), then zeros.
    struct TapeRng<I>(I);

    impl<I: Iterator<Item = bool>> RngCore for TapeRng<I> {
        fn next_u64(&mut self) -> u64 {
            u64::from(self.0.next().unwrap_or(false))
        }
    }

    #[test]
    fn leader_holds_smaller_string_than_deputy() {
        // Sizes [1, 1, 2]: sources 0 and 1 are singletons. Round 1 makes
        // source 0's string the only unique one; round 2 splits source 1 off
        // the pair, so round 3 decides on two unique strings. The smaller
        // string leads, whichever node holds it.
        let alpha = sizes(&[1, 1, 2]);
        for (tape, expect) in [
            // Strings "00" (node 0), "10" (node 1), "11" (nodes 2, 3).
            (
                [false, true, true, false, false, true],
                [DeputyRole::Leader, DeputyRole::Deputy],
            ),
            // Strings "11" (node 0), "01" (node 1), "00" (nodes 2, 3).
            (
                [true, false, false, true, true, false],
                [DeputyRole::Deputy, DeputyRole::Leader],
            ),
        ] {
            let mut rng = TapeRng(tape.into_iter());
            let out = run_with(&DeputyChoreo, &Model::Blackboard, &alpha, 8, &mut rng).unwrap();
            assert!(out.completed);
            assert_eq!(out.rounds, 3);
            assert_eq!(out.outputs[..2], [Some(expect[0]), Some(expect[1])]);
            assert_eq!(out.outputs[2..], [Some(DeputyRole::Follower); 2]);
        }
        // Roles are a function of the common multiset: a rerun with the
        // same seed repeats them.
        let a = run_ld(&[1, 1, 2], 11, 256);
        let b = run_ld(&[1, 1, 2], 11, 256);
        assert!(a.completed && b.completed);
        assert_eq!(a.outputs, b.outputs);
    }
}
