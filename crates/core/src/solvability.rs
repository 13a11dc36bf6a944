//! Solvability of symmetry-breaking tasks: one production path, the two
//! definitions it is proved against, and a test oracle.
//!
//! * [`solves`] / [`solves_with_cache`] — the production path: a
//!   realization solves `O` iff some facet `τ ∈ O` is *monochromatic on
//!   every consistency class*. This is the forced form of the
//!   name-preserving simplicial map `δ : π̃(ρ) → π(τ)` of Definition 3.4:
//!   name preservation pins `δ(i, x_i) = (i, τ_i)`, and simpliciality is
//!   exactly class-monochromaticity. It never materializes the output
//!   complex: the task's closed-form [`Task::solves_partition`] answers
//!   first, and only tasks without one scan a dense [`FacetTable`]
//!   (`O(1)` value lookups, single-`u32` cell compares).
//! * The subjects of Lemma 3.5, searched verbatim over a cached output
//!   complex: [`solves_via_projection_cached`] (Definition 3.4: build
//!   `π̃(ρ)` and run the generic name-preserving simplicial-map search
//!   into each `π(τ)`) and [`solves_via_definition_3_1_cached`]
//!   (Definition 3.1 on the protocol facet `σ = h⁻¹(ρ)`: search for a
//!   name-preserving *and name-independent* simplicial map `σ → τ`).
//!
//! Lemma 3.5 states the three agree; the property tests in this module and
//! in `tests/framework.rs` verify that agreement on every realization small
//! enough to enumerate, and `exp_fig4_lemma35` prints it. The verdict
//! oracle of the bit-identity tests — rebuild the output complex and scan
//! its facets by `Simplex::value_of` binary search — lives in the
//! test-only `oracle` module.
//!
//! Checkers that run in a loop over realizations of one `(task, n)` pair
//! should thread an [`OutputComplexCache`] through the `_with_cache` and
//! `_cached` forms so each output representation is built once, not per
//! call. The exact engine and the Monte-Carlo kernels go one step
//! further: a run-owned `TaskKernel` (the task plus, only for tasks
//! without a closed form, its dense table) answers through a
//! `SolvabilityMemo` keyed by consistency partition, so each distinct
//! partition is decided once per run.

use rsbt_complex::{ops, search, FacetTable};
use rsbt_random::Realization;
use rsbt_sim::{Execution, FxHashMap, KnowledgeArena, KnowledgeId, Model};
use rsbt_tasks::{projection, Task};

use crate::output_cache::{build_output_table, OutputComplexCache};

/// Fast solvability check (the production path), with a fresh
/// [`OutputComplexCache`]: the dense table is only built for tasks
/// without a closed form.
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
    solves_with_cache(model, rho, task, arena, &mut OutputComplexCache::new())
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
    solves_execution(&exec, task, cache)
}

/// The production verdict on an existing execution (final time): the
/// task's closed-form [`Task::solves_partition`] first; only tasks
/// without one pay for the dense scan, over the cache's table.
fn solves_execution<T: Task + ?Sized>(
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

/// Builds the dense output table only when `task` has no closed-form
/// verdict (probed on one partition — the trait contract makes
/// `solves_partition` uniformly `Some`/`None` per `(task, n)`). The probe
/// uses the all-one-class partition, so it panics exactly where
/// `output_complex(n)` would on an undefined `n`.
pub(crate) fn fallback_table<T: Task + ?Sized>(task: &T, n: usize) -> Option<FacetTable> {
    if task.solves_partition(&vec![0u8; n]).is_some() {
        None
    } else {
        Some(build_output_table(task, n))
    }
}

/// Everything a run needs to decide solvability for one `(task, n)` pair:
/// the task (for its closed-form [`Task::solves_partition`]) and, for
/// tasks without one, the dense [`FacetTable`] of its output complex (the
/// fallback scan). Built once per run and assembled from borrowed parts,
/// so parallel workers share one table. Tasks with a closed form carry no
/// table at all: their output complex is never materialized.
#[derive(Debug)]
pub(crate) struct TaskKernel<'a, T: Task + ?Sized> {
    task: &'a T,
    table: Option<&'a FacetTable>,
}

impl<'a, T: Task + ?Sized> TaskKernel<'a, T> {
    /// Assembles a kernel from a task and its [`fallback_table`] (`None`
    /// when the task's closed form always answers).
    pub(crate) fn new(task: &'a T, table: Option<&'a FacetTable>) -> Self {
        TaskKernel { task, table }
    }
}

// Manual impls: `derive` would bound `T: Clone`/`T: Copy`.
impl<T: Task + ?Sized> Clone for TaskKernel<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: Task + ?Sized> Copy for TaskKernel<'_, T> {}

/// Memoized solvability verdicts, keyed by the canonical consistency
/// partition (first-occurrence class labels of the knowledge-id vector).
///
/// Verdicts are a pure function of `(partition, output complex)`: the
/// memo must not be reused across tasks or system sizes. Lookups on the
/// hit path are allocation-free (the label buffer is reused and hashed as
/// a borrowed slice) — and so are misses: the verdict comes from the
/// task's closed-form [`Task::solves_partition`] when it has one, else
/// from [`facet_scan`] over the kernel's dense table (the only allocation
/// is the memo insertion itself, once per distinct partition).
#[derive(Clone, Debug, Default)]
pub(crate) struct SolvabilityMemo {
    verdicts: FxHashMap<Vec<u8>, bool>,
    /// Scratch: canonical class label per node.
    labels: Vec<u8>,
    /// Scratch: the distinct ids, in first-appearance order.
    seen: Vec<KnowledgeId>,
    /// Scratch: the representative (first) node of each class.
    reps: Vec<usize>,
    memo_hits: u64,
    closed_form_verdicts: u64,
    dense_scan_verdicts: u64,
}

impl SolvabilityMemo {
    /// Creates an empty memo.
    pub(crate) fn new() -> Self {
        SolvabilityMemo::default()
    }

    /// How many queries were answered from the partition memo.
    pub(crate) fn memo_hits(&self) -> u64 {
        self.memo_hits
    }

    /// How many verdicts came from the task's closed form
    /// ([`Task::solves_partition`]).
    pub(crate) fn closed_form_verdicts(&self) -> u64 {
        self.closed_form_verdicts
    }

    /// How many verdicts fell back to the dense facet scan.
    pub(crate) fn dense_scan_verdicts(&self) -> u64 {
        self.dense_scan_verdicts
    }

    /// Whether a knowledge vector solves the kernel's task — the
    /// criterion of `solves_execution` (some facet monochromatic on
    /// every consistency class), memoized on the partition signature.
    /// Misses dispatch to the closed form first and the dense scan
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `ids.len() > 255`.
    pub(crate) fn solves<T: Task + ?Sized>(
        &mut self,
        ids: &[KnowledgeId],
        kernel: &TaskKernel<'_, T>,
    ) -> bool {
        assert!(ids.len() <= u8::MAX as usize, "too many nodes for labels");
        self.labels.clear();
        self.seen.clear();
        self.reps.clear();
        for (i, &id) in ids.iter().enumerate() {
            match self.seen.iter().position(|&s| s == id) {
                Some(class) => self.labels.push(class as u8),
                None => {
                    self.labels.push(self.seen.len() as u8);
                    self.seen.push(id);
                    self.reps.push(i);
                }
            }
        }
        self.verdict_for_scratch(kernel)
    }

    /// [`SolvabilityMemo::solves`] on a consistency partition given
    /// directly as canonical first-occurrence class labels — the entry
    /// point of the quotient engine ([`crate::engine_dp`]), which tracks
    /// equality *states* and never synthesizes knowledge ids. The class
    /// representatives the dense fallback scan needs are derived from the
    /// labels themselves (the first node of each class). Verdicts land in
    /// the same memo as [`SolvabilityMemo::solves`] — the two entry points
    /// share every cached partition.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() > 255` or if `labels` is not canonical
    /// (class `c`'s first occurrence must come after class `c − 1`'s).
    pub(crate) fn solves_labels<T: Task + ?Sized>(
        &mut self,
        labels: &[u8],
        kernel: &TaskKernel<'_, T>,
    ) -> bool {
        self.load_labels(labels);
        self.verdict_for_scratch(kernel)
    }

    /// [`SolvabilityMemo::solves_labels`] without the memo map: decides
    /// the partition by closed form, else by dense scan, counted in the
    /// same counters but never stored — for callers that already
    /// deduplicate their partitions, so a stored verdict would never hit.
    ///
    /// # Panics
    ///
    /// Same conditions as [`SolvabilityMemo::solves_labels`].
    pub(crate) fn decide_labels<T: Task + ?Sized>(
        &mut self,
        labels: &[u8],
        kernel: &TaskKernel<'_, T>,
    ) -> bool {
        self.load_labels(labels);
        self.decide_scratch(kernel)
    }

    /// Copies canonical `labels` into the scratch and derives the class
    /// representatives (the first node of each class).
    fn load_labels(&mut self, labels: &[u8]) {
        assert!(
            labels.len() <= u8::MAX as usize,
            "too many nodes for labels"
        );
        self.labels.clear();
        self.labels.extend_from_slice(labels);
        self.reps.clear();
        for (i, &c) in labels.iter().enumerate() {
            let c = c as usize;
            if c == self.reps.len() {
                self.reps.push(i);
            } else {
                assert!(c < self.reps.len(), "labels not in first-occurrence form");
            }
        }
    }

    /// The memoized tail: answers for the canonical partition currently
    /// held in the `labels`/`reps` scratch, deciding and storing it on a
    /// miss.
    fn verdict_for_scratch<T: Task + ?Sized>(&mut self, kernel: &TaskKernel<'_, T>) -> bool {
        if let Some(&verdict) = self.verdicts.get(self.labels.as_slice()) {
            self.memo_hits += 1;
            return verdict;
        }
        let verdict = self.decide_scratch(kernel);
        self.verdicts.insert(self.labels.clone(), verdict);
        verdict
    }

    /// The closed form, else the dense scan, on the scratch partition.
    fn decide_scratch<T: Task + ?Sized>(&mut self, kernel: &TaskKernel<'_, T>) -> bool {
        match kernel.task.solves_partition(&self.labels) {
            Some(v) => {
                self.closed_form_verdicts += 1;
                v
            }
            None => {
                self.dense_scan_verdicts += 1;
                let table = kernel
                    .table
                    .expect("tasks without a closed form carry a dense table");
                facet_scan(table, &self.labels, &self.reps)
            }
        }
    }

    /// How many partitions the memo map stores.
    #[cfg(test)]
    pub(crate) fn memoized(&self) -> usize {
        self.verdicts.len()
    }
}

/// Definition 3.4 verbatim: existence of a name-preserving simplicial map
/// `δ : π̃(ρ) → π(τ)` for some facet `τ` of the output complex, taken
/// from a take-or-build output-complex cache.
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
/// protocol facet (viewed as a complex), with a take-or-build
/// output-complex cache.
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

/// Leader election with its closed form and lane plan hidden: every
/// verdict takes the dense-table scan (the tests' fallback-path task).
#[cfg(test)]
pub(crate) struct OpaqueLeaderElection;

#[cfg(test)]
impl Task for OpaqueLeaderElection {
    fn name(&self) -> std::borrow::Cow<'static, str> {
        std::borrow::Cow::Borrowed("opaque-leader-election")
    }

    fn output_complex(&self, n: usize) -> rsbt_complex::Complex<u64> {
        rsbt_tasks::LeaderElection.output_complex(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
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
        let mut cache = OutputComplexCache::new();
        let le = LeaderElection;
        let model = Model::MessagePassing(PortNumbering::adversarial(4, 2));
        for r in Realization::enumerate_all(4, 1) {
            let fast = solves(&model, &r, &le, &mut arena);
            let proj = solves_via_projection_cached(&model, &r, &le, &mut arena, &mut cache);
            let d31 = solves_via_definition_3_1_cached(&model, &r, &le, &mut arena, &mut cache);
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
                            let reference =
                                oracle::solves_execution_reference(&exec, task.as_ref());
                            let fresh = &mut OutputComplexCache::new();
                            assert_eq!(
                                solves_execution(&exec, task.as_ref(), fresh),
                                reference,
                                "{model} n={n} {} on {r}",
                                task.name()
                            );
                            assert_eq!(
                                solves_execution(&exec, task.as_ref(), &mut cache),
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
                    let simplex_scan = oracle::solves_classes(task.as_ref(), n, &classes);
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
        // Section 3.2: every one-round successor of a solving realization
        // solves too.
        let mut arena = KnowledgeArena::new();
        let mut cache = OutputComplexCache::new();
        let model = Model::Blackboard;
        let mut checked = 0;
        for r in Realization::enumerate_all(3, 1) {
            if !solves_with_cache(&model, &r, &LeaderElection, &mut arena, &mut cache) {
                continue;
            }
            for ext in crate::evolution::one_round_successors(&r) {
                assert!(ext.succeeds(&r));
                assert!(
                    solves_with_cache(&model, &ext, &LeaderElection, &mut arena, &mut cache),
                    "extension {ext} of a solving realization must solve"
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "some realization at t=1 must solve");
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

    #[test]
    fn memo_never_changes_a_verdict() {
        // The partition-signature memo (closed form + dense scan) must
        // agree with the reference facet search on every realization, in
        // both models, even when verdicts replay from the memo in
        // arbitrary interleavings.
        for n in 1..=4usize {
            let models = [Model::Blackboard, Model::message_passing_cyclic(n)];
            for model in models {
                for task in [
                    Box::new(LeaderElection) as Box<dyn Task>,
                    Box::new(KLeaderElection::new(2.min(n))),
                ] {
                    let table = build_output_table(task.as_ref(), n);
                    let kernel = TaskKernel::new(task.as_ref(), Some(&table));
                    let mut memo = SolvabilityMemo::new();
                    let mut arena = KnowledgeArena::new();
                    for t in 0..=2usize {
                        for rho in Realization::enumerate_all(n, t) {
                            let exec = Execution::run(&model, &rho, &mut arena);
                            let direct = oracle::solves_execution_reference(&exec, task.as_ref());
                            let memoized = memo.solves(exec.knowledge_at(t), &kernel);
                            assert_eq!(direct, memoized, "{model} n={n} t={t} {rho}");
                        }
                    }
                    assert!(memo.memoized() > 0);
                    // Built-ins answer in closed form; the dense scan
                    // never runs for them.
                    assert_eq!(memo.closed_form_verdicts(), memo.memoized() as u64);
                    assert_eq!(memo.dense_scan_verdicts(), 0);
                    assert!(memo.memo_hits() > 0);
                }
            }
        }
    }

    #[test]
    fn fallback_table_built_only_without_closed_form() {
        // Built-ins answer in closed form → no table, no output-complex
        // materialization anywhere on the engine path.
        assert!(fallback_table(&LeaderElection, 4).is_none());
        assert!(fallback_table(&KLeaderElection::new(2), 4).is_none());
        // Tasks without a closed form get the dense table.
        assert!(fallback_table(&OpaqueLeaderElection, 4).is_some());
    }

    #[test]
    fn labels_entry_point_shares_the_memo() {
        // `solves_labels` must agree with `solves` on every realization's
        // partition and share the same memo entries (no double-computes).
        let alpha = rsbt_random::Assignment::from_group_sizes(&[1, 2]).unwrap();
        let task = LeaderElection;
        let kernel = TaskKernel::new(&task, None);
        let mut via_ids = SolvabilityMemo::new();
        let mut via_labels = SolvabilityMemo::new();
        let mut arena = KnowledgeArena::new();
        for t in 0..=2usize {
            for rho in Realization::enumerate_consistent(&alpha, t) {
                let exec = Execution::run(&Model::Blackboard, &rho, &mut arena);
                let ids = exec.knowledge_at(t);
                let expected = via_ids.solves(ids, &kernel);
                // Canonicalize by hand, then ask the labels entry point.
                let mut labels = Vec::new();
                let mut seen: Vec<KnowledgeId> = Vec::new();
                for &id in ids {
                    match seen.iter().position(|&s| s == id) {
                        Some(c) => labels.push(c as u8),
                        None => {
                            labels.push(seen.len() as u8);
                            seen.push(id);
                        }
                    }
                }
                assert_eq!(
                    via_labels.solves_labels(&labels, &kernel),
                    expected,
                    "{rho}"
                );
            }
        }
        assert_eq!(via_ids.memoized(), via_labels.memoized());
        assert!(via_labels.memo_hits() > 0);
    }

    #[test]
    #[should_panic(expected = "labels not in first-occurrence form")]
    fn non_canonical_labels_rejected() {
        let mut memo = SolvabilityMemo::new();
        let kernel = TaskKernel::new(&LeaderElection, None);
        // Class 1 appears before class 0 — not first-occurrence canonical.
        memo.solves_labels(&[1, 0], &kernel);
    }
}
