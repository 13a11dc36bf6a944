//! Behaviour of blackboard weak symmetry breaking,
//! [`WsbChoreo`](crate::choreo::WsbChoreo).

#[cfg(test)]
mod tests {
    use rsbt_sim::runner::RunOutcome;
    use rsbt_sim::Model;

    use crate::behaviour::{run_seeded, sizes};
    use crate::choreo::WsbChoreo;

    fn run_wsb(s: &[usize], seed: u64, cap: usize) -> RunOutcome<u8> {
        run_seeded(&WsbChoreo, &Model::Blackboard, &sizes(s), seed, cap)
    }

    fn assert_broken(outputs: &[Option<u8>]) {
        let bits: Vec<u8> = outputs.iter().map(|o| o.expect("decided")).collect();
        assert!(
            bits.contains(&0) && bits.contains(&1),
            "not all equal: {bits:?}"
        );
    }

    #[test]
    fn two_groups_suffice() {
        for seed in 0..20 {
            let out = run_wsb(&[2, 2], seed, 128);
            assert!(out.completed, "seed {seed}");
            assert_broken(&out.outputs);
        }
    }

    #[test]
    fn three_groups_work_too() {
        for seed in 0..10 {
            let out = run_wsb(&[3, 2, 2], seed, 128);
            assert!(out.completed);
            assert_broken(&out.outputs);
        }
    }

    #[test]
    fn single_source_stalls() {
        for seed in 0..5 {
            let out = run_wsb(&[4], seed, 64);
            assert!(!out.completed, "seed {seed}: k = 1 must stall");
        }
    }

    #[test]
    fn groups_output_consistently() {
        // Nodes of the same group hold the same string, so they output the
        // same bit.
        for seed in 0..10 {
            let out = run_wsb(&[3, 2], seed, 128);
            assert!(out.completed);
            let bits: Vec<u8> = out.outputs.iter().map(|o| o.unwrap()).collect();
            assert_eq!(bits[0], bits[1]);
            assert_eq!(bits[1], bits[2]);
            assert_eq!(bits[3], bits[4]);
            assert_ne!(bits[0], bits[3]);
        }
    }

    #[test]
    fn solves_where_leader_election_cannot() {
        // [2,2] has no singleton source: LE impossible (Thm 4.1), yet WSB
        // terminates — the strict task separation, algorithmically.
        let out = run_wsb(&[2, 2], 3, 128);
        assert!(out.completed);
    }
}
