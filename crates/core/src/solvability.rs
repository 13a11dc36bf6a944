//! Solvability of symmetry-breaking tasks, three ways.
//!
//! * [`solves`] — the fast combinatorial criterion: a realization solves
//!   `O` iff some facet `τ ∈ O` is *monochromatic on every consistency
//!   class*. This is the forced form of the name-preserving simplicial map
//!   `δ : π̃(ρ) → π(τ)` of Definition 3.4: name preservation pins
//!   `δ(i, x_i) = (i, τ_i)`, and simpliciality is exactly
//!   class-monochromaticity. The production path decides it without ever
//!   materializing the output complex: it consults the task's closed-form
//!   [`Task::solves_partition`] first and otherwise scans a dense
//!   [`FacetTable`] (`O(1)` value lookups, single-`u32` cell compares).
//! * [`solves_via_projection`] — Definition 3.4 verbatim: build `π̃(ρ)`
//!   and run the generic name-preserving simplicial-map search into each
//!   `π(τ)`.
//! * [`solves_via_definition_3_1`] — Definition 3.1 verbatim on the
//!   protocol facet `σ = h⁻¹(ρ)`: search for a name-preserving *and
//!   name-independent* simplicial map `σ → τ`.
//!
//! Lemma 3.5 states the three agree; the property tests in this module and
//! in `tests/framework.rs` verify that agreement on every realization small
//! enough to enumerate. [`solves_execution_reference`] preserves the
//! pre-dense path (rebuild `output_complex`, scan `Simplex::value_of` by
//! binary search) verbatim as the independent ground truth for the
//! bit-identity tests.
//!
//! Checkers that run in a loop over realizations of one `(task, n)` pair
//! should thread an [`OutputComplexCache`] through the `_with_cache`
//! variants so the dense table is built once, not per call.

use rsbt_complex::{ops, search, FacetTable, ProcessName, Simplex};
use rsbt_random::Realization;
use rsbt_sim::{Execution, KnowledgeArena, Model};
use rsbt_tasks::{projection, Task};

use crate::output_cache::{build_output_table, OutputComplexCache};

/// Fast solvability check (the production path).
///
/// # Example
///
/// ```
/// use rsbt_core::solvability::solves;
/// use rsbt_random::{BitString, Realization};
/// use rsbt_sim::{KnowledgeArena, Model};
/// use rsbt_tasks::LeaderElection;
///
/// let mut arena = KnowledgeArena::new();
/// let broken = Realization::new(vec![
///     BitString::from_bits([true]),
///     BitString::from_bits([false]),
/// ]).unwrap();
/// assert!(solves(&Model::Blackboard, &broken, &LeaderElection, &mut arena));
///
/// let symmetric = Realization::new(vec![
///     BitString::from_bits([true]),
///     BitString::from_bits([true]),
/// ]).unwrap();
/// assert!(!solves(&Model::Blackboard, &symmetric, &LeaderElection, &mut arena));
/// ```
pub fn solves<T: Task + ?Sized>(
    model: &Model,
    rho: &Realization,
    task: &T,
    arena: &mut KnowledgeArena,
) -> bool {
    let exec = Execution::run(model, rho, arena);
    solves_execution(&exec, task)
}

/// [`solves`] with a caller-provided [`OutputComplexCache`], so loops over
/// many realizations of one `(task, n)` pair build the dense facet table
/// once instead of per call.
pub fn solves_with_cache<T: Task + ?Sized>(
    model: &Model,
    rho: &Realization,
    task: &T,
    arena: &mut KnowledgeArena,
    cache: &mut OutputComplexCache,
) -> bool {
    let exec = Execution::run(model, rho, arena);
    solves_execution_with_cache(&exec, task, cache)
}

/// Fast solvability check on an existing execution (final time).
///
/// Consults the task's closed-form [`Task::solves_partition`] first; only
/// tasks without one pay for a facet scan, and that scan runs over a
/// dense [`FacetTable`] built by streaming [`Task::facet_stream`] (one
/// table per call here — prefer [`solves_execution_with_cache`] or the
/// engine's memo when calling in a loop).
pub fn solves_execution<T: Task + ?Sized>(exec: &Execution, task: &T) -> bool {
    let classes = exec.consistency_partition(exec.time());
    let (labels, reps) = partition_labels(&classes, exec.n());
    match task.solves_partition(&labels) {
        Some(verdict) => verdict,
        None => facet_scan(&build_output_table(task, exec.n()), &labels, &reps),
    }
}

/// [`solves_execution`] against a take-or-build table cache.
pub fn solves_execution_with_cache<T: Task + ?Sized>(
    exec: &Execution,
    task: &T,
    cache: &mut OutputComplexCache,
) -> bool {
    let classes = exec.consistency_partition(exec.time());
    let (labels, reps) = partition_labels(&classes, exec.n());
    match task.solves_partition(&labels) {
        Some(verdict) => verdict,
        None => facet_scan(cache.table(task, exec.n()), &labels, &reps),
    }
}

/// The pre-dense reference path, kept verbatim: rebuild the output
/// complex and scan its facets with per-vertex binary-search lookups.
/// Ground truth for the closed-form/dense paths' agreement tests; not used
/// by production callers.
pub fn solves_execution_reference<T: Task + ?Sized>(exec: &Execution, task: &T) -> bool {
    let classes = exec.consistency_partition(exec.time());
    task.output_complex(exec.n())
        .facets()
        .any(|tau| classes_monochromatic(&classes, tau))
}

/// [`solves_execution_reference`] from a realization (runs the execution
/// first) — the per-call cost model `probability::exact_reference` keeps.
pub fn solves_reference<T: Task + ?Sized>(
    model: &Model,
    rho: &Realization,
    task: &T,
    arena: &mut KnowledgeArena,
) -> bool {
    let exec = Execution::run(model, rho, arena);
    solves_execution_reference(&exec, task)
}

/// Whether every class holds a single output value in `tau`.
fn classes_monochromatic(classes: &[Vec<usize>], tau: &Simplex<u64>) -> bool {
    classes.iter().all(|class| {
        let first = tau
            .value_of(ProcessName::new(class[0] as u32))
            .expect("facet covers all names");
        class
            .iter()
            .all(|&i| tau.value_of(ProcessName::new(i as u32)) == Some(first))
    })
}

/// Converts a consistency partition (classes of node indices covering
/// `0..n`) to per-node class labels plus one representative node per
/// class — the form the closed-form verdicts and dense scans consume.
///
/// # Panics
///
/// Panics if there are more than 256 classes (`u8` labels).
pub(crate) fn partition_labels(classes: &[Vec<usize>], n: usize) -> (Vec<u8>, Vec<usize>) {
    assert!(classes.len() <= 256, "too many classes for u8 labels");
    let mut labels = vec![0u8; n];
    let mut reps = Vec::with_capacity(classes.len());
    for (ci, class) in classes.iter().enumerate() {
        reps.push(class[0]);
        for &i in class {
            labels[i] = ci as u8;
        }
    }
    (labels, reps)
}

/// The dense facet scan: does some row of `table` hold a single value on
/// every class? `labels[i]` is node `i`'s class, `reps[c]` the
/// representative node of class `c`. Allocation-free; each check is one
/// `u32` compare thanks to the palette encoding.
pub(crate) fn facet_scan(table: &FacetTable, labels: &[u8], reps: &[usize]) -> bool {
    debug_assert_eq!(table.n(), labels.len(), "table width matches node count");
    table.rows().any(|row| {
        labels
            .iter()
            .enumerate()
            .all(|(i, &c)| row[i] == row[reps[c as usize]])
    })
}

/// Definition 3.4 verbatim: existence of a name-preserving simplicial map
/// `δ : π̃(ρ) → π(τ)` for some facet `τ` of the output complex.
pub fn solves_via_projection<T: Task + ?Sized>(
    model: &Model,
    rho: &Realization,
    task: &T,
    arena: &mut KnowledgeArena,
) -> bool {
    solves_via_projection_cached(model, rho, task, arena, &mut OutputComplexCache::new())
}

/// [`solves_via_projection`] with a take-or-build output-complex cache
/// (the complex is no longer rebuilt per call inside sweeps).
pub fn solves_via_projection_cached<T: Task + ?Sized>(
    model: &Model,
    rho: &Realization,
    task: &T,
    arena: &mut KnowledgeArena,
    cache: &mut OutputComplexCache,
) -> bool {
    let pi_rho = crate::consistency::pi_tilde(model, rho, arena);
    cache.complex(task, rho.n()).facets().any(|tau| {
        let pi_tau = projection::project_facet(tau);
        search::exists_name_preserving_map(&pi_rho, &pi_tau)
    })
}

/// Definition 3.1 verbatim: existence of a name-preserving,
/// name-independent simplicial map `δ : σ → τ` where `σ = h⁻¹(ρ)` is the
/// protocol facet (viewed as a complex).
pub fn solves_via_definition_3_1<T: Task + ?Sized>(
    model: &Model,
    rho: &Realization,
    task: &T,
    arena: &mut KnowledgeArena,
) -> bool {
    solves_via_definition_3_1_cached(model, rho, task, arena, &mut OutputComplexCache::new())
}

/// [`solves_via_definition_3_1`] with a take-or-build output-complex
/// cache.
pub fn solves_via_definition_3_1_cached<T: Task + ?Sized>(
    model: &Model,
    rho: &Realization,
    task: &T,
    arena: &mut KnowledgeArena,
    cache: &mut OutputComplexCache,
) -> bool {
    let sigma = crate::protocol_complex::facet_of(model, rho, arena);
    let sigma_cx = ops::facet_as_complex(&sigma);
    cache.complex(task, rho.n()).facets().any(|tau| {
        let tau_cx = ops::facet_as_complex(tau);
        search::exists_name_independent_map(&sigma_cx, &tau_cx)
    })
}

/// Monotonicity (Section 3.2): once a realization solves a task, every
/// succeeding realization solves it too. Verifies the claim for all
/// one-round extensions of `rho`; returns the number of extensions
/// checked.
///
/// # Panics
///
/// Panics if `rho.n() ≥ 32` (the extension mask is 32-bit), or if a
/// solving realization has a non-solving extension.
pub fn verify_monotonicity<T: Task + ?Sized>(
    model: &Model,
    rho: &Realization,
    task: &T,
    arena: &mut KnowledgeArena,
) -> usize {
    let n = rho.n();
    assert!(
        n < 32,
        "verify_monotonicity enumerates 2^n one-round extensions; \
         n = {n} overflows its 32-bit extension mask"
    );
    let mut cache = OutputComplexCache::new();
    if !solves_with_cache(model, rho, task, arena, &mut cache) {
        return 0;
    }
    let mut checked = 0;
    for mask in 0..1u32 << n {
        let strings: Vec<_> = (0..n)
            .map(|i| {
                let mut s = rho.node(i);
                s.push(mask >> i & 1 == 1);
                s
            })
            .collect();
        let ext = Realization::new(strings).expect("uniform length");
        assert!(ext.succeeds(rho));
        assert!(
            solves_with_cache(model, &ext, task, arena, &mut cache),
            "extension {ext} of a solving realization must solve"
        );
        checked += 1;
    }
    checked
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsbt_random::BitString;
    use rsbt_sim::PortNumbering;
    use rsbt_tasks::{KLeaderElection, LeaderAndDeputy, LeaderElection, WeakSymmetryBreaking};

    fn bits(s: &str) -> BitString {
        BitString::from_bits(s.chars().map(|c| c == '1'))
    }

    fn rho(strs: &[&str]) -> Realization {
        Realization::new(strs.iter().map(|s| bits(s)).collect()).unwrap()
    }

    #[test]
    fn leader_election_needs_singleton_class() {
        let mut arena = KnowledgeArena::new();
        assert!(solves(
            &Model::Blackboard,
            &rho(&["0", "1", "1"]),
            &LeaderElection,
            &mut arena
        ));
        assert!(!solves(
            &Model::Blackboard,
            &rho(&["1", "1", "1"]),
            &LeaderElection,
            &mut arena
        ));
        // Two singletons also solve (pick either leader).
        assert!(solves(
            &Model::Blackboard,
            &rho(&["00", "01", "11"]),
            &LeaderElection,
            &mut arena
        ));
    }

    #[test]
    fn two_leader_election_needs_a_two_split() {
        let mut arena = KnowledgeArena::new();
        let t = KLeaderElection::new(2);
        // Classes {0},{1},{2,3}: elect 0 and 1.
        assert!(solves(
            &Model::Blackboard,
            &rho(&["00", "01", "11", "11"]),
            &t,
            &mut arena
        ));
        // Classes {0,1},{2,3}: elect class {0,1} as the two leaders!
        assert!(solves(
            &Model::Blackboard,
            &rho(&["00", "00", "11", "11"]),
            &t,
            &mut arena
        ));
        // Classes {0,1,2},{3}: cannot pick exactly two.
        assert!(!solves(
            &Model::Blackboard,
            &rho(&["00", "00", "00", "11"]),
            &t,
            &mut arena
        ));
    }

    #[test]
    fn all_three_definitions_agree_blackboard() {
        let mut arena = KnowledgeArena::new();
        let mut cache = OutputComplexCache::new();
        let le = LeaderElection;
        let two = KLeaderElection::new(2);
        for r in Realization::enumerate_all(3, 2) {
            let fast = solves(&Model::Blackboard, &r, &le, &mut arena);
            let proj =
                solves_via_projection_cached(&Model::Blackboard, &r, &le, &mut arena, &mut cache);
            let d31 = solves_via_definition_3_1_cached(
                &Model::Blackboard,
                &r,
                &le,
                &mut arena,
                &mut cache,
            );
            assert_eq!(fast, proj, "Def 3.4 mismatch on {r}");
            assert_eq!(fast, d31, "Def 3.1 mismatch on {r}");
            let fast2 = solves(&Model::Blackboard, &r, &two, &mut arena);
            let proj2 =
                solves_via_projection_cached(&Model::Blackboard, &r, &two, &mut arena, &mut cache);
            assert_eq!(fast2, proj2, "2-LE mismatch on {r}");
        }
        // One output complex per (task, n), not one per realization.
        assert_eq!(cache.builds(), 2);
    }

    #[test]
    fn all_three_definitions_agree_message_passing() {
        let mut arena = KnowledgeArena::new();
        let le = LeaderElection;
        let model = Model::MessagePassing(PortNumbering::adversarial(4, 2));
        for r in Realization::enumerate_all(4, 1) {
            let fast = solves(&model, &r, &le, &mut arena);
            let proj = solves_via_projection(&model, &r, &le, &mut arena);
            let d31 = solves_via_definition_3_1(&model, &r, &le, &mut arena);
            assert_eq!(fast, proj, "Def 3.4 mismatch on {r}");
            assert_eq!(fast, d31, "Def 3.1 mismatch on {r}");
        }
    }

    #[test]
    fn production_path_agrees_with_reference_on_every_execution() {
        // Closed-form / dense verdicts must equal the pre-dense reference
        // on every enumerable realization, both models, all built-ins.
        let mut arena = KnowledgeArena::new();
        let mut cache = OutputComplexCache::new();
        for n in 1..=4usize {
            let mut tasks: Vec<Box<dyn Task>> = vec![
                Box::new(LeaderElection),
                Box::new(KLeaderElection::new(2.min(n))),
            ];
            if n >= 2 {
                tasks.push(Box::new(WeakSymmetryBreaking));
                tasks.push(Box::new(LeaderAndDeputy::unconstrained(n)));
            }
            for model in [Model::Blackboard, Model::message_passing_cyclic(n)] {
                for t in 0..=2usize {
                    for r in Realization::enumerate_all(n, t) {
                        let exec = Execution::run(&model, &r, &mut arena);
                        for task in &tasks {
                            let reference = solves_execution_reference(&exec, task.as_ref());
                            assert_eq!(
                                solves_execution(&exec, task.as_ref()),
                                reference,
                                "{model} n={n} {} on {r}",
                                task.name()
                            );
                            assert_eq!(
                                solves_execution_with_cache(&exec, task.as_ref(), &mut cache),
                                reference,
                                "cached: {model} n={n} {} on {r}",
                                task.name()
                            );
                        }
                    }
                }
            }
        }
    }

    /// Enumerates every set partition of `0..n` as canonical restricted-
    /// growth label strings.
    fn all_partitions(n: usize) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let mut labels = vec![0u8; n];
        fn rec(labels: &mut Vec<u8>, i: usize, max_used: u8, out: &mut Vec<Vec<u8>>) {
            if i == labels.len() {
                out.push(labels.clone());
                return;
            }
            for l in 0..=max_used + 1 {
                labels[i] = l;
                rec(labels, i + 1, max_used.max(l), out);
            }
        }
        if n > 0 {
            rec(&mut labels, 1, 0, &mut out);
        }
        out
    }

    #[test]
    fn dense_scan_and_closed_form_agree_on_every_partition() {
        // Exhaustive over all Bell(n) partitions for n ≤ 6, every built-in
        // task: closed form == dense scan == reference simplex scan.
        for n in 1..=6usize {
            let mut tasks: Vec<Box<dyn Task>> = vec![Box::new(LeaderElection)];
            for k in 1..=n {
                tasks.push(Box::new(KLeaderElection::new(k)));
            }
            if n >= 2 {
                tasks.push(Box::new(WeakSymmetryBreaking));
                tasks.push(Box::new(LeaderAndDeputy::unconstrained(n)));
            }
            for labels in all_partitions(n) {
                // Classes in first-occurrence order (labels are canonical).
                let class_count = labels.iter().map(|&l| l as usize + 1).max().unwrap();
                let classes: Vec<Vec<usize>> = (0..class_count)
                    .map(|c| (0..n).filter(|&i| labels[i] == c as u8).collect())
                    .collect();
                let reps: Vec<usize> = classes.iter().map(|c| c[0]).collect();
                for task in &tasks {
                    let table = build_output_table(task.as_ref(), n);
                    let dense = facet_scan(&table, &labels, &reps);
                    let simplex_scan = task
                        .output_complex(n)
                        .facets()
                        .any(|tau| classes_monochromatic(&classes, tau));
                    assert_eq!(dense, simplex_scan, "{} n={n} {labels:?}", task.name());
                    if let Some(closed) = task.solves_partition(&labels) {
                        assert_eq!(closed, dense, "{} n={n} {labels:?}", task.name());
                    }
                }
            }
        }
    }

    #[test]
    fn monotonicity_holds() {
        let mut arena = KnowledgeArena::new();
        let mut total = 0;
        for r in Realization::enumerate_all(3, 1) {
            total += verify_monotonicity(&Model::Blackboard, &r, &LeaderElection, &mut arena);
        }
        assert!(total > 0, "some realization at t=1 must solve");
    }

    #[test]
    #[should_panic(expected = "overflows its 32-bit extension mask")]
    fn monotonicity_rejects_oversized_systems() {
        // 32 five-bit strings (all distinct, so the realization solves):
        // the 2^32 extension enumeration must be refused up front.
        let strings: Vec<BitString> = (0..32u32)
            .map(|i| BitString::from_bits((0..5).map(|b| i >> b & 1 == 1)))
            .collect();
        let r = Realization::new(strings).unwrap();
        let mut arena = KnowledgeArena::new();
        let _ = verify_monotonicity(&Model::Blackboard, &r, &LeaderElection, &mut arena);
    }

    #[test]
    fn single_node_always_solves() {
        let mut arena = KnowledgeArena::new();
        assert!(solves(
            &Model::Blackboard,
            &rho(&["0"]),
            &LeaderElection,
            &mut arena
        ));
    }

    #[test]
    fn ports_can_solve_what_the_blackboard_cannot() {
        // Sizes [2,2] (no singleton): blackboard never solves; a non-
        // adversarial port numbering can.
        let r = rho(&["01", "01", "11", "11"]);
        let mut arena = KnowledgeArena::new();
        assert!(!solves(&Model::Blackboard, &r, &LeaderElection, &mut arena));
        let mp = Model::message_passing_cyclic(4);
        assert!(
            solves(&mp, &r, &LeaderElection, &mut arena),
            "cyclic ports break the 2+2 symmetry on this realization"
        );
    }
}
