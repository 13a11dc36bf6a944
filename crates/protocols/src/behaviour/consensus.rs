//! Behaviour of consensus through the Theorem C.1 reduction,
//! [`consensus_choreo`](crate::choreo::consensus_choreo), and of
//! [`check_consensus`](crate::choreo::check_consensus).

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rsbt_random::Assignment;
    use rsbt_sim::{Model, PortNumbering};

    use crate::behaviour::{run_seeded, sizes};
    use crate::choreo::{check_consensus, consensus_choreo, run_with, BleChoreo, EuclidChoreo};

    #[test]
    fn blackboard_consensus() {
        for seed in 0..5 {
            let inputs = vec![4u64, 2, 8, 2];
            let choreo = consensus_choreo(BleChoreo, inputs.clone());
            let alpha = Assignment::private(4);
            let out = run_seeded(&choreo, &Model::Blackboard, &alpha, seed, 256);
            assert!(out.completed, "seed {seed}");
            assert_eq!(check_consensus(&inputs, &out.outputs), Ok(2));
        }
    }

    #[test]
    fn message_passing_consensus() {
        for seed in 0..3 {
            let inputs = vec![9u64, 9, 1, 1, 1];
            let choreo = consensus_choreo(EuclidChoreo { k: 2 }, inputs.clone());
            let mut rng = StdRng::seed_from_u64(seed + 40);
            let model = Model::MessagePassing(PortNumbering::random(5, &mut rng));
            let out = run_with(&choreo, &model, &sizes(&[2, 3]), 6000, &mut rng).unwrap();
            assert!(out.completed, "seed {seed}");
            assert_eq!(check_consensus(&inputs, &out.outputs), Ok(1));
        }
    }

    #[test]
    fn checker_detects_violations() {
        for (outputs, want) in [
            (vec![Some(1), None], Err("undecided node")),
            (vec![Some(1), Some(2)], Err("agreement violated")),
            (vec![Some(7), Some(7)], Err("validity violated")),
            (vec![Some(2), Some(2)], Ok(2)),
        ] {
            let got = check_consensus(&[1, 2], &outputs);
            match want {
                Ok(v) => assert_eq!(got, Ok(v)),
                Err(prefix) => {
                    let msg = got.expect_err("violation");
                    assert!(msg.starts_with(prefix), "{msg}");
                }
            }
        }
    }
}
