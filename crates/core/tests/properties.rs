//! Property-based tests for the framework: solvability equivalences,
//! monotonicity, probability laws.

use proptest::prelude::*;
use rsbt_core::{consistency, evolution, probability, solvability};
use rsbt_random::{Assignment, BitString, Realization};
use rsbt_sim::{KnowledgeArena, Model, PortNumbering};
use rsbt_tasks::{KLeaderElection, LeaderElection, WeakSymmetryBreaking};

fn arb_realization(n: usize, t: usize) -> impl Strategy<Value = Realization> {
    proptest::collection::vec(any::<u64>(), n).prop_map(move |words| {
        Realization::new(
            words
                .into_iter()
                .map(|w| BitString::from_word(w, t))
                .collect(),
        )
        .expect("uniform length")
    })
}

fn arb_model(n: usize) -> impl Strategy<Value = Model> {
    prop_oneof![
        Just(Model::Blackboard),
        Just(Model::message_passing_cyclic(n)),
        any::<u64>().prop_map(move |seed| {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            Model::MessagePassing(PortNumbering::random(n, &mut rng))
        }),
    ]
}

proptest! {
    // Fixed RNG configuration so tier-1 is deterministic in CI: the
    // vendored proptest derives each property's stream from this seed
    // and the test's module path, with no persistence files.
    #![proptest_config(ProptestConfig {
        cases: 64,
        rng_seed: 0x5253_4254, // "RSBT"
        ..ProptestConfig::default()
    })]
    /// Lemma 3.5 on random instances: the fast path, the Definition 3.4
    /// search, and the Definition 3.1 search agree.
    #[test]
    fn solvability_definitions_agree(rho in arb_realization(3, 2), model in arb_model(3)) {
        let mut arena = KnowledgeArena::new();
        for k in 1..=3usize {
            let task = KLeaderElection::new(k);
            let fast = solvability::solves(&model, &rho, &task, &mut arena);
            let proj = solvability::solves_via_projection(&model, &rho, &task, &mut arena);
            let d31 = solvability::solves_via_definition_3_1(&model, &rho, &task, &mut arena);
            prop_assert_eq!(fast, proj, "k={} {}", k, &rho);
            prop_assert_eq!(fast, d31, "k={} {}", k, &rho);
        }
    }

    /// Monotonicity: a solving realization keeps solving under every
    /// one-round extension (Section 3.2).
    #[test]
    fn solving_is_monotone(rho in arb_realization(3, 2), model in arb_model(3)) {
        let mut arena = KnowledgeArena::new();
        if solvability::solves(&model, &rho, &LeaderElection, &mut arena) {
            for succ in evolution::one_round_successors(&rho) {
                prop_assert!(solvability::solves(&model, &succ, &LeaderElection, &mut arena));
            }
        }
    }

    /// WSB is implied by LE on every realization (the reduction direction
    /// of task hierarchies), for n ≥ 2.
    #[test]
    fn le_implies_wsb(rho in arb_realization(4, 2), model in arb_model(4)) {
        let mut arena = KnowledgeArena::new();
        if solvability::solves(&model, &rho, &LeaderElection, &mut arena) {
            prop_assert!(solvability::solves(&model, &rho, &WeakSymmetryBreaking, &mut arena));
        }
    }

    /// π̃(ρ) facets are the consistency classes: their sizes sum to n, and
    /// the complex is a disjoint union of simplices.
    #[test]
    fn pi_tilde_shape(rho in arb_realization(4, 2), model in arb_model(4)) {
        let mut arena = KnowledgeArena::new();
        let pi = consistency::pi_tilde(&model, &rho, &mut arena);
        let total: usize = pi.facets().map(|f| f.len()).sum();
        prop_assert_eq!(total, 4);
        let comps = rsbt_complex::connectivity::components(&pi).len();
        prop_assert_eq!(comps, pi.facet_count());
    }

    /// Exact success probability lies in [0,1] and is monotone in t.
    #[test]
    fn probability_laws(sizes_idx in 0usize..5) {
        let profiles: [&[usize]; 5] = [&[1, 1], &[1, 2], &[2, 2], &[1, 1, 1], &[3]];
        let alpha = Assignment::from_group_sizes(profiles[sizes_idx]).unwrap();
        let series = probability::exact_series(&Model::Blackboard, &LeaderElection, &alpha, 4);
        for w in series.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-12);
        }
        for p in series {
            prop_assert!((0.0..=1.0).contains(&p));
        }
    }

    /// Message-passing never solves less than... precisely: blackboard
    /// solvability of a realization implies message-passing solvability of
    /// the same realization for ANY ports (ports only refine knowledge).
    #[test]
    fn ports_only_help(rho in arb_realization(4, 2), model in arb_model(4)) {
        let mut arena = KnowledgeArena::new();
        if solvability::solves(&Model::Blackboard, &rho, &LeaderElection, &mut arena) {
            prop_assert!(
                solvability::solves(&model, &rho, &LeaderElection, &mut arena),
                "{} must stay solvable under {}", &rho, &model
            );
        }
    }

    /// StreamRng streams of one family are pairwise decorrelated: any two
    /// distinct stream indices produce word sequences that disagree on
    /// (essentially) every draw, and equal keys replay bit-for-bit.
    #[test]
    fn stream_rng_pairwise_decorrelation_smoke(
        seed in any::<u64>(),
        a in 0u64..1024,
        offset in 1u64..1024,
    ) {
        use rand::rngs::StreamRng;
        use rand::RngCore;
        let b = a + offset;
        let mut sa = StreamRng::new(seed, a);
        let mut sb = StreamRng::new(seed, b);
        let wa: Vec<u64> = (0..32).map(|_| sa.next_u64()).collect();
        let wb: Vec<u64> = (0..32).map(|_| sb.next_u64()).collect();
        prop_assert_ne!(&wa, &wb, "streams {} and {} coincide", a, b);
        // No more than a couple of coincidental word collisions in 32
        // draws (expected count ~ 32/2^64 ≈ 0).
        let equal = wa.iter().zip(&wb).filter(|(x, y)| x == y).count();
        prop_assert!(equal <= 2, "streams {} and {} share {}/32 words", a, b, equal);
        // Replays are bit-identical.
        let mut again = StreamRng::new(seed, a);
        let replay: Vec<u64> = (0..32).map(|_| again.next_u64()).collect();
        prop_assert_eq!(wa, replay);
    }

    /// The deterministic parallel estimator (the bit-sliced sampler) is
    /// bit-identical for every thread count AND to an independently-written
    /// serial loop in stream order whose verdicts come from the
    /// leaf-by-leaf solvability path — so the property pins the sharding,
    /// the stream keying, the lane layout, and the verdicts at once.
    #[test]
    fn monte_carlo_parallel_thread_invariance(
        seed in any::<u64>(),
        sizes_idx in 0usize..4,
        t in 1usize..5,
    ) {
        use rand::rngs::StreamRng;
        let profiles: [&[usize]; 4] = [&[1, 1], &[1, 2], &[2, 2], &[1, 1, 2]];
        let alpha = Assignment::from_group_sizes(profiles[sizes_idx]).unwrap();
        let samples = 400usize;
        // Independent serial ground truth: sample i from stream i, decide
        // with the reference solvability path.
        let mut arena = KnowledgeArena::new();
        let mut cache = rsbt_core::output_cache::OutputComplexCache::new();
        let mut solved = 0u64;
        for i in 0..samples {
            let mut rng = StreamRng::new(seed, i as u64);
            let rho = Realization::sample(&alpha, t, &mut rng);
            if solvability::solves_with_cache(
                &Model::Blackboard, &rho, &LeaderElection, &mut arena, &mut cache,
            ) {
                solved += 1;
            }
        }
        for threads in [1usize, 2, 3, 4, 8] {
            let est = probability::monte_carlo_bitsliced(
                &Model::Blackboard, &LeaderElection, &alpha, t, samples, seed, threads,
            );
            prop_assert_eq!(est.solved, solved, "threads={}", threads);
            prop_assert_eq!(est.samples, samples);
        }
    }

    /// A rate-zero fault spec is bit-identical to the fault-free sampler
    /// — point estimates and series — for any thread count. The fault
    /// plumbing constructs no RNG at rate zero and the faulted stepper
    /// tracks exactly the fault-free relation, so this is structural, not
    /// coincidental; the property pins it for random seeds, profiles, and
    /// horizons.
    #[test]
    fn rate_zero_faults_are_bit_identical_to_fault_free(
        seed in any::<u64>(),
        sizes_idx in 0usize..4,
        t in 1usize..5,
    ) {
        let profiles: [&[usize]; 4] = [&[1, 1], &[1, 2], &[2, 2], &[1, 1, 2]];
        let alpha = Assignment::from_group_sizes(profiles[sizes_idx]).unwrap();
        let spec = rsbt_sim::FaultSpec::none();
        let samples = 192usize;
        for model in [Model::Blackboard, Model::message_passing_cyclic(alpha.n())] {
            let sliced = probability::monte_carlo_bitsliced(
                &model, &LeaderElection, &alpha, t, samples, seed, 1,
            );
            let series = probability::monte_carlo_bitsliced_series(
                &model, &LeaderElection, &alpha, t, samples, seed, 1,
            );
            for threads in [1usize, 2, 3, 8] {
                prop_assert_eq!(
                    probability::monte_carlo_bitsliced_faulted(
                        &model, &LeaderElection, &alpha, t, samples, seed, threads, &spec,
                    ),
                    sliced,
                    "bitsliced threads={}", threads
                );
                prop_assert_eq!(
                    probability::monte_carlo_bitsliced_series_faulted(
                        &model, &LeaderElection, &alpha, t, samples, seed, threads, &spec,
                    ),
                    series.clone(),
                    "series threads={}", threads
                );
            }
        }
    }

    /// The faulted estimator is thread-count invariant at nonzero rates
    /// too: per-sample schedules come from the salted per-sample
    /// substream, never from worker-local state.
    #[test]
    fn faulted_monte_carlo_is_thread_count_invariant(
        seed in any::<u64>(),
        sizes_idx in 0usize..4,
        t in 1usize..5,
    ) {
        let profiles: [&[usize]; 4] = [&[1, 1], &[1, 2], &[2, 2], &[1, 1, 2]];
        let alpha = Assignment::from_group_sizes(profiles[sizes_idx]).unwrap();
        let spec = rsbt_sim::FaultSpec::rates(0.1, 0.2);
        let samples = 192usize;
        let reference = probability::monte_carlo_bitsliced_faulted(
            &Model::Blackboard, &LeaderElection, &alpha, t, samples, seed, 1, &spec,
        );
        for threads in [2usize, 3, 4, 8] {
            prop_assert_eq!(
                probability::monte_carlo_bitsliced_faulted(
                    &Model::Blackboard, &LeaderElection, &alpha, t, samples, seed, threads, &spec,
                ),
                reference,
                "threads={}", threads
            );
        }
    }

    /// Wilson intervals bracket the sample mean, stay inside [0, 1], and
    /// widen monotonically in z.
    #[test]
    fn wilson_interval_laws(solved in 0u64..=500, extra in 0u64..500, z_idx in 0usize..3) {
        let samples = solved + extra + 1;
        let z = [1.0, 1.959_963_984_540_054, 4.0][z_idx];
        let (lo, hi) = probability::wilson_interval(solved, samples, z);
        let p = solved as f64 / samples as f64;
        prop_assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        prop_assert!(lo <= p && p <= hi, "[{}, {}] must contain {}", lo, hi, p);
        let (lo_wide, hi_wide) = probability::wilson_interval(solved, samples, z + 0.5);
        prop_assert!(lo_wide <= lo && hi <= hi_wide, "interval must widen in z");
        // Never degenerate: positive width even at the extremes.
        prop_assert!(hi > lo, "Wilson interval must have positive width");
    }
}

/// `k·t = 16` series points where the production exact path must
/// reproduce the pre-engine leaf-by-leaf reference bit for bit (2^16
/// realizations, 8 rounds each on the old path), for leader election and
/// for the facet-heavier 2-LE and WSB.
#[test]
fn engine_matches_reference_at_sixteen_bits() {
    let two_le = KLeaderElection::new(2);
    let cases: [(&dyn rsbt_tasks::Task, &[usize]); 3] = [
        (&LeaderElection, &[1, 3]),
        (&two_le, &[2, 2]),
        (&WeakSymmetryBreaking, &[2, 2]),
    ];
    for (task, sizes) in cases {
        let alpha = Assignment::from_group_sizes(sizes).unwrap();
        let reference = probability::exact_series_reference(
            &Model::Blackboard,
            task,
            &alpha,
            8,
            &mut KnowledgeArena::new(),
        );
        let engine = probability::exact_series(&Model::Blackboard, task, &alpha, 8);
        assert_eq!(engine.len(), reference.len());
        for (i, (p, q)) in engine.iter().zip(&reference).enumerate() {
            assert_eq!(p.to_bits(), q.to_bits(), "{} t={}", task.name(), i + 1);
        }
    }
}
