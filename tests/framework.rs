//! Integration tests spanning all crates: the framework's verdicts must
//! agree with each other, with the closed forms, and with the executable
//! protocols.

use rsbt::core::{bounds, consistency, eventual, iso_h, probability, solvability};
use rsbt::random::{Assignment, Realization};
use rsbt::sim::{KnowledgeArena, Model, PortNumbering};
use rsbt::tasks::{KLeaderElection, LeaderElection, Task};

/// Theorem 4.1 end-to-end: for every profile of n ≤ 6 nodes, the exact
/// probability series classifies exactly as the `∃ n_i = 1` predicate.
#[test]
fn theorem_4_1_end_to_end() {
    for n in 1..=6usize {
        for alpha in Assignment::iter_profiles(n) {
            let t_max = 3.min(15 / alpha.k().max(1)).max(1);
            let series =
                probability::exact_series(&Model::Blackboard, &LeaderElection, &alpha, t_max);
            let observed = eventual::lemma_3_2_limit(&series) == eventual::LimitClass::One;
            assert_eq!(
                observed,
                eventual::blackboard_eventually_solvable(&alpha),
                "profile {:?}",
                alpha.group_sizes()
            );
        }
    }
}

/// Theorem 4.2 end-to-end under the adversarial numbering.
#[test]
fn theorem_4_2_end_to_end() {
    for n in 2..=6usize {
        for alpha in Assignment::iter_profiles(n) {
            let g = alpha.gcd_of_group_sizes() as usize;
            let model = Model::MessagePassing(PortNumbering::adversarial(n, g));
            let t_max = 2.min(14 / alpha.k().max(1)).max(1);
            let series = probability::exact_series(&model, &LeaderElection, &alpha, t_max);
            let observed = eventual::lemma_3_2_limit(&series) == eventual::LimitClass::One;
            // For gcd = 1 the positive probability may need t ≥ 2; our t_max
            // suffices for n ≤ 6 (checked by the assertion itself).
            assert_eq!(
                observed,
                eventual::message_passing_worst_case_solvable(&alpha),
                "profile {:?}",
                alpha.group_sizes()
            );
        }
    }
}

/// The closed form of `bounds` agrees with brute-force framework
/// enumeration on every singleton-bearing profile.
#[test]
fn closed_form_matches_enumeration() {
    for sizes in [
        vec![1usize, 1],
        vec![1, 2],
        vec![1, 2, 2],
        vec![2, 2],
        vec![1, 1, 2],
    ] {
        let alpha = Assignment::from_group_sizes(&sizes).unwrap();
        for t in 1..=3usize {
            let exact = probability::exact(&Model::Blackboard, &LeaderElection, &alpha, t);
            let formula = bounds::exact_blackboard_le_probability(&sizes, t);
            assert!(
                (exact - formula).abs() < 1e-12,
                "sizes {sizes:?} t {t}: {exact} vs {formula}"
            );
        }
    }
}

/// Lemma 3.5: the three solvability definitions agree on every realization
/// across models and tasks.
#[test]
fn lemma_3_5_equivalence_sweep() {
    let models = [
        Model::Blackboard,
        Model::message_passing_cyclic(3),
        Model::MessagePassing(PortNumbering::adversarial(3, 3)),
    ];
    let le = LeaderElection;
    let three = KLeaderElection::new(3);
    let mut arena = KnowledgeArena::new();
    // One output complex per task across the whole sweep (the cached
    // definition-search variants take-or-build instead of rebuilding).
    let mut cache = rsbt::core::output_cache::OutputComplexCache::new();
    for model in &models {
        for rho in Realization::enumerate_all(3, 2) {
            for task in [&le as &dyn Task, &three] {
                let fast = solvability::solves(model, &rho, task, &mut arena);
                let proj = solvability::solves_via_projection_cached(
                    model, &rho, task, &mut arena, &mut cache,
                );
                let d31 = solvability::solves_via_definition_3_1_cached(
                    model, &rho, task, &mut arena, &mut cache,
                );
                assert_eq!(fast, proj, "{model} {rho} {}", task.name());
                assert_eq!(fast, d31, "{model} {rho} {}", task.name());
            }
        }
    }
}

/// The h map is a facet bijection for every model/size combination small
/// enough to enumerate.
#[test]
fn h_isomorphism_sweep() {
    for (model, n, t) in [
        (Model::Blackboard, 2, 3),
        (Model::Blackboard, 4, 1),
        (Model::message_passing_cyclic(4), 4, 1),
        (
            Model::MessagePassing(PortNumbering::adversarial(4, 2)),
            4,
            2,
        ),
    ] {
        let checked = iso_h::verify_facet_isomorphism(&model, n, t);
        assert_eq!(checked, 1usize << (n * t));
    }
}

/// Lemma 4.3 divisibility, full sweep over group profiles with g > 1.
#[test]
fn lemma_4_3_sweep() {
    for (sizes, g) in [
        (vec![2usize, 2], 2usize),
        (vec![3, 3], 3),
        (vec![2, 2, 2], 2),
    ] {
        let n: usize = sizes.iter().sum();
        let alpha = Assignment::from_group_sizes(&sizes).unwrap();
        let model = Model::MessagePassing(PortNumbering::adversarial(n, g));
        let mut arena = KnowledgeArena::new();
        let checked = consistency::verify_lemma_4_3(&model, &alpha, g, 2, &mut arena);
        assert!(checked > 0);
    }
}

/// Protocol-vs-framework agreement: the blackboard election protocol
/// terminates exactly on the configurations the framework declares
/// solvable.
#[test]
fn protocol_agrees_with_framework_blackboard() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rsbt::protocols::choreo::{run_with, BleChoreo};
    use rsbt::protocols::leader_count;

    let mut rng = StdRng::seed_from_u64(77);
    for n in 2..=5usize {
        for alpha in Assignment::iter_profiles(n) {
            let solvable = eventual::blackboard_eventually_solvable(&alpha);
            let out = run_with(&BleChoreo, &Model::Blackboard, &alpha, 256, &mut rng)
                .expect("blackboard election projects");
            if solvable {
                assert!(out.completed, "profile {:?}", alpha.group_sizes());
                assert_eq!(leader_count(&out.outputs), 1);
            } else {
                assert!(!out.completed, "profile {:?}", alpha.group_sizes());
            }
        }
    }
}

/// Protocol-vs-framework agreement in the message-passing model: Euclid LE
/// terminates with one leader iff gcd = 1, under adversarial ports.
#[test]
fn protocol_agrees_with_framework_message_passing() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rsbt::protocols::choreo::{run_with, EuclidChoreo};
    use rsbt::protocols::leader_count;

    let mut rng = StdRng::seed_from_u64(99);
    for sizes in [
        vec![2usize, 3],
        vec![1, 3],
        vec![2, 2],
        vec![3, 3],
        vec![2, 2, 3],
    ] {
        let alpha = Assignment::from_group_sizes(&sizes).unwrap();
        let n = alpha.n();
        let g = alpha.gcd_of_group_sizes();
        let ports = PortNumbering::adversarial(n, g as usize);
        let choreo = EuclidChoreo { k: sizes.len() };
        let out = run_with(
            &choreo,
            &Model::MessagePassing(ports),
            &alpha,
            6000,
            &mut rng,
        )
        .expect("euclid election projects under message passing");
        if eventual::message_passing_worst_case_solvable(&alpha) {
            assert!(out.completed, "sizes {sizes:?}");
            assert_eq!(leader_count(&out.outputs), 1, "sizes {sizes:?}");
        } else {
            assert!(!out.completed, "sizes {sizes:?}");
        }
    }
}

/// Monte-Carlo estimates agree with exact enumeration across models.
#[test]
fn monte_carlo_agrees_with_exact() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(5);
    let cases = [
        (Model::Blackboard, vec![1usize, 2]),
        (Model::message_passing_cyclic(4), vec![2, 2]),
    ];
    for (model, sizes) in cases {
        let alpha = Assignment::from_group_sizes(&sizes).unwrap();
        let t = 3;
        let exact = probability::exact(&model, &LeaderElection, &alpha, t);
        let est = probability::monte_carlo(&model, &LeaderElection, &alpha, t, 30_000, &mut rng);
        assert!(
            est.is_consistent_with(exact, 4.5),
            "{model} {sizes:?}: exact {exact} vs {est:?}"
        );
    }
}
