//! Behaviour of the Theorem 4.2 Euclid-style election,
//! [`EuclidChoreo`](crate::choreo::EuclidChoreo).

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rsbt_sim::runner::RunOutcome;
    use rsbt_sim::{Model, PortNumbering};

    use crate::behaviour::{run_seeded, sizes};
    use crate::choreo::EuclidChoreo;
    use crate::{leader_count, Role};

    fn elect(s: &[usize], ports: PortNumbering, seed: u64, max_rounds: usize) -> RunOutcome<Role> {
        let choreo = EuclidChoreo { k: s.len() };
        let model = Model::MessagePassing(ports);
        run_seeded(&choreo, &model, &sizes(s), seed, max_rounds)
    }

    #[test]
    fn gcd_one_elects_exactly_one_random_ports() {
        for (s, seeds) in [
            (vec![2usize, 3], 0..8u64),
            (vec![1, 2], 0..8),
            (vec![3, 4], 0..4),
            (vec![2, 2, 3], 0..4),
        ] {
            let n: usize = s.iter().sum();
            for seed in seeds {
                let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
                let ports = PortNumbering::random(n, &mut rng);
                let out = elect(&s, ports, seed, 6000);
                assert!(out.completed, "{s:?} seed {seed} timed out");
                assert_eq!(leader_count(&out.outputs), 1, "{s:?} seed {seed}");
            }
        }
    }

    #[test]
    fn gcd_one_elects_even_on_adversarial_ports() {
        // Theorem 4.2 'if': gcd 1 beats EVERY numbering — including the
        // Lemma 4.3 construction built for g = 1 (a valid numbering).
        for seed in 0..5 {
            let ports = PortNumbering::adversarial(5, 1);
            let out = elect(&[2, 3], ports, seed, 6000);
            assert!(out.completed, "seed {seed}");
            assert_eq!(leader_count(&out.outputs), 1);
        }
    }

    #[test]
    fn gcd_greater_than_one_stalls_on_adversarial_ports() {
        // Theorem 4.2 'only if': sizes [2,2] with the adversarial
        // numbering; the protocol must never elect anyone.
        for seed in 0..5 {
            let ports = PortNumbering::adversarial(4, 2);
            let out = elect(&[2, 2], ports, seed, 600);
            assert!(!out.completed, "seed {seed}: [2,2] must stall");
            assert_eq!(leader_count(&out.outputs), 0);
        }
    }

    #[test]
    fn shared_source_stalls() {
        for seed in 0..3 {
            let mut rng = StdRng::seed_from_u64(seed);
            let ports = PortNumbering::random(3, &mut rng);
            let out = elect(&[3], ports, seed, 400);
            assert!(!out.completed);
        }
    }

    #[test]
    fn single_node_trivially_leads() {
        let out = elect(&[1], PortNumbering::cyclic(1), 0, 4);
        assert!(out.completed);
        assert_eq!(out.outputs, vec![Some(Role::Leader)]);
    }

    #[test]
    fn private_randomness_elects() {
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed + 99);
            let ports = PortNumbering::random(4, &mut rng);
            let out = elect(&[1, 1, 1, 1], ports, seed, 6000);
            assert!(out.completed, "seed {seed}");
            assert_eq!(leader_count(&out.outputs), 1);
        }
    }

    #[test]
    fn leader_comes_from_a_singleton_capable_group() {
        // With sizes [1, 4] the singleton node always wins discovery
        // immediately (its group has size 1 at freeze).
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed + 7);
            let ports = PortNumbering::random(5, &mut rng);
            let out = elect(&[1, 4], ports, seed, 2000);
            assert!(out.completed);
            assert_eq!(out.outputs[0], Some(Role::Leader), "seed {seed}");
        }
    }
}
