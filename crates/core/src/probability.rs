//! `Pr[S(t) | α]`: the probability that the system solves a task by time
//! `t` (Section 3.4).
//!
//! Exact values count the `2^{k·t}` positive-probability realizations
//! (all equiprobable by Lemma B.1) that solve — computed by the quotient
//! DP engine ([`crate::engine_dp`]), which folds the execution tree into
//! a dynamic program over knowledge-equality states, carries counts as
//! exact `u128` dyadic integers up to `k·t ≤` [`MAX_EXACT_BITS`]` = 126`,
//! and costs `O(states · 2^k)` per round — flat in `t`. Fault-free
//! blackboard queries with a symmetric task and a repeated group size
//! take the DP's orbit quotient ([`crate::engine_dp::orbit_eligible`]),
//! which has no `k` limit; the labeled DP takes every other query with
//! `k ≤` [`crate::engine_dp::MAX_DP_K`], or with `k·t ≤ 62` past it.
//! Every exact entry point here ([`exact`], [`exact_faulted`],
//! [`exact_series`] and their [`Cache`]d forms) reads its counts off that
//! one engine. The leaf-by-leaf enumeration they are checked against
//! lives in the test-only `oracle` module; it is not a production path.
//!
//! Past the exact wall the estimate comes from one sampler,
//! [`monte_carlo_bitsliced_series`] and its `_with_stats` and faulted
//! forms: 64 samples per `u64` lane word, sample `i` keyed to
//! [`StreamRng`](rand::rngs::StreamRng)`(seed, i)`, bit-identical for every
//! thread count; the estimate at one `t` is the last entry of the series
//! at horizon `t`. Its per-lane peel path, the scalar `SampleKernel`,
//! also backs the generator-driven [`monte_carlo`] and the serial
//! Monte-Carlo oracle the bit-sliced kernel is checked against.

use rand::Rng;
use rsbt_random::{Assignment, BitString};
use rsbt_sim::{FaultSchedule, FxHashMap, KnowledgeArena, KnowledgeId, Model, RoundStepper};
use rsbt_tasks::Task;

use crate::engine_dp;
use crate::solvability::{self, SolvabilityMemo, TaskKernel};

pub use crate::bitsliced::{
    monte_carlo_bitsliced_series, monte_carlo_bitsliced_series_faulted_with_stats,
    monte_carlo_bitsliced_series_with_stats,
};

/// Largest `k·t` accepted by the exact entry points: the quotient DP
/// engine carries solved counts as exact dyadic `u128` integers, and 126
/// bits is the last point where every tally — including the full-tree
/// mass `2^{k·t}` — stays representable. Raised from 30 (see
/// [`TREE_EXACT_BITS`]) when the quotient engine
/// ([`crate::engine_dp`]) replaced tree traversal as the exact path; the
/// history is 26 → 30 (prefix-sharing tree walk, `DESIGN.md` §4.4) → 126
/// (knowledge-equality DP, `DESIGN.md` §4.10).
pub const MAX_EXACT_BITS: usize = 126;

/// The largest `k·t` whose `2^{k·t}` realizations can be enumerated one
/// by one (`2^30`). No engine runs on it; it is a threshold in two
/// places. Bench sweeps tag exact rows past it with the `exact-dp` mode,
/// so report consumers can tell the counts only the DP produces; and
/// [`crate::eventual::lemma_3_2_certificate`], which enumerates
/// realizations outright, refuses searches beyond it.
pub const TREE_EXACT_BITS: usize = 30;

/// Exact `Pr[S(t) | α]`: the integer count of solving realizations over
/// `2^{k·t}`, from the quotient DP ([`engine_dp::solved_series_with_stats`]; see
/// [`MAX_EXACT_BITS`]).
///
/// # Panics
///
/// Panics if `alpha.n()` mismatches the model's node count, or if
/// `k·t > MAX_EXACT_BITS`.
///
/// # Example
///
/// ```
/// use rsbt_core::probability;
/// use rsbt_random::Assignment;
/// use rsbt_sim::Model;
/// use rsbt_tasks::LeaderElection;
///
/// // One singleton source among two (k = 2): p(1) = 1/2.
/// let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
/// let p = probability::exact(&Model::Blackboard, &LeaderElection, &alpha, 1);
/// assert!((p - 0.5).abs() < 1e-12);
/// ```
pub fn exact<T: Task + ?Sized>(model: &Model, task: &T, alpha: &Assignment, t: usize) -> f64 {
    exact_at(model, task, alpha, t, None)
}

/// Exact `Pr[S(t) | α]` under a **fixed** [`FaultSchedule`]: counts the
/// `2^{k·t}` equiprobable realizations that solve when every execution
/// runs against the same deterministic silence pattern (crashed or
/// omitting nodes contribute nothing to a round's board or messages; see
/// [`rsbt_sim::Execution::run_with_faults`]).
///
/// Random fault *rates* are deliberately not accepted here: enumerating
/// them would weight realizations by fault-pattern probability and break
/// Lemma B.1's equiprobability — rates belong to the Monte-Carlo
/// estimator [`monte_carlo_bitsliced_series_faulted_with_stats`]. For
/// the solvability-law fine print (where the zero-one argument survives
/// omission faults and where crashes break it) see `DESIGN.md` §4.9.
///
/// # Panics
///
/// Same conditions as [`exact`], plus a schedule/assignment node
/// mismatch.
pub fn exact_faulted<T: Task + ?Sized>(
    model: &Model,
    task: &T,
    alpha: &Assignment,
    t: usize,
    faults: &FaultSchedule,
) -> f64 {
    exact_at(model, task, alpha, t, Some(faults))
}

/// Asserts the shared preconditions of every exact entry point.
fn check_budget(model: &Model, alpha: &Assignment, t: usize) {
    let bits = alpha.k() * t;
    assert!(
        bits <= MAX_EXACT_BITS,
        "k*t = {bits} exceeds exact-enumeration budget; use monte_carlo"
    );
    if let Some(p) = model.ports() {
        assert_eq!(p.n(), alpha.n(), "model/assignment node mismatch");
    }
}

/// Solved counts per depth `1..=t_max` from the quotient DP, faulted or
/// not, on one thread.
fn dp_counts<T: Task + ?Sized>(
    model: &Model,
    task: &T,
    alpha: &Assignment,
    t_max: usize,
    faults: Option<&FaultSchedule>,
) -> Vec<u128> {
    match faults {
        None => engine_dp::solved_series_with_stats(model, task, alpha, t_max, 1).0,
        Some(f) => engine_dp::solved_series_faulted_with_stats(model, task, alpha, t_max, f, 1).0,
    }
}

/// The body of [`exact`] and [`exact_faulted`]. At
/// `t = 0` no round runs and faults never act: the DP's root verdict (the
/// all-`⊥` partition) is the whole answer.
fn exact_at<T: Task + ?Sized>(
    model: &Model,
    task: &T,
    alpha: &Assignment,
    t: usize,
    faults: Option<&FaultSchedule>,
) -> f64 {
    check_budget(model, alpha, t);
    if t == 0 {
        return if engine_dp::root_solves(task, alpha.n()) {
            1.0
        } else {
            0.0
        };
    }
    let counts = dp_counts(model, task, alpha, t, faults);
    counts[t - 1] as f64 / (1u128 << (alpha.k() * t)) as f64
}

/// The series `p(1), …, p(t_max)` of exact success probabilities.
///
/// A **single** DP sweep produces the whole series: the engine tallies
/// solved mass at every depth, so `p(t)` for all `t ≤ t_max` costs one
/// sweep to depth `t_max` instead of one per `t`. Results are
/// bit-identical to calling [`exact`] per `t` (asserted by test).
///
/// # Panics
///
/// Same conditions as [`exact`], applied at `t_max`.
pub fn exact_series<T: Task + ?Sized>(
    model: &Model,
    task: &T,
    alpha: &Assignment,
    t_max: usize,
) -> Vec<f64> {
    check_budget(model, alpha, t_max);
    let counts = dp_counts(model, task, alpha, t_max, None);
    counts
        .iter()
        .enumerate()
        .map(|(i, &c)| c as f64 / (1u128 << (alpha.k() * (i + 1))) as f64)
        .collect()
}

/// Memoization cache for exact sweep points.
///
/// Keyed by `(model, task name, canonical α source labels, t)` — the full
/// identity of one exact-probability evaluation. Overlapping sweep points
/// (the same profile appearing across bins, rounds, and report sections)
/// are computed once per process.
///
/// The key is stored as three nested maps (`model → task name → α`) whose
/// leaves hold the per-`t` series, so **lookups borrow every component**:
/// a hot sweep hit performs no allocation (the old flat
/// `(Model, String, Vec<usize>, usize)` tuple key cloned the model and
/// the source vector — two heap allocations — per lookup, hits included).
/// The generic [`Cache::peek`] still materializes the task name once
/// (`Task::name` returns an owned `String`); hot paths precompute the
/// name and use [`Cache::peek_named`].
///
/// The task name is part of the key, so [`Task::name`] must uniquely
/// identify the task's output-complex family (all in-tree tasks do; e.g.
/// `KLeaderElection` embeds `k` and constrained `LeaderAndDeputy` variants
/// embed their constraint masks).
#[derive(Clone, Debug, Default)]
pub struct Cache {
    /// `model → task name → α sources → p(t) at slot t`.
    map: FxHashMap<Model, TaskMap>,
    points: usize,
    hits: u64,
    misses: u64,
}

/// `task name → α sources → p(t) at slot t` (the inner cache levels).
type TaskMap = FxHashMap<String, FxHashMap<Box<[usize]>, Vec<Option<f64>>>>;

impl Cache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Cache::default()
    }

    /// The number of distinct sweep points stored.
    pub fn len(&self) -> usize {
        self.points
    }

    /// Whether no point has been stored yet.
    pub fn is_empty(&self) -> bool {
        self.points == 0
    }

    /// How many lookups were answered from memory.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// How many lookups had to compute.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Looks up a point without computing; does not touch hit statistics.
    pub fn peek<T: Task + ?Sized>(
        &self,
        model: &Model,
        task: &T,
        alpha: &Assignment,
        t: usize,
    ) -> Option<f64> {
        self.peek_named(model, &task.name(), alpha.sources(), t)
    }

    /// [`Cache::peek`] with every key component borrowed — the
    /// allocation-free hot path for sweep engines that computed
    /// `task.name()` once per point.
    pub fn peek_named(
        &self,
        model: &Model,
        task_name: &str,
        sources: &[usize],
        t: usize,
    ) -> Option<f64> {
        self.map
            .get(model)?
            .get(task_name)?
            .get(sources)?
            .get(t)
            .copied()
            .flatten()
    }

    /// Inserts a precomputed point (used by parallel sweep engines that
    /// compute misses out-of-band and merge deterministically).
    pub fn insert<T: Task + ?Sized>(
        &mut self,
        model: &Model,
        task: &T,
        alpha: &Assignment,
        t: usize,
        p: f64,
    ) {
        self.insert_named(model, &task.name(), alpha.sources(), t, p);
    }

    /// [`Cache::insert`] with borrowed key components; allocates only for
    /// key components not yet present.
    pub fn insert_named(
        &mut self,
        model: &Model,
        task_name: &str,
        sources: &[usize],
        t: usize,
        p: f64,
    ) {
        // Owned key components are cloned only when absent (misses are
        // rare relative to hits and allocate for the computation anyway).
        if !self.map.contains_key(model) {
            self.map.insert(model.clone(), FxHashMap::default());
        }
        let by_task = self.map.get_mut(model).expect("ensured above");
        if !by_task.contains_key(task_name) {
            by_task.insert(task_name.to_string(), FxHashMap::default());
        }
        let by_alpha = by_task.get_mut(task_name).expect("ensured above");
        if !by_alpha.contains_key(sources) {
            by_alpha.insert(Box::from(sources), Vec::new());
        }
        let series = by_alpha.get_mut(sources).expect("ensured above");
        if series.len() <= t {
            series.resize(t + 1, None);
        }
        if series[t].is_none() {
            self.points += 1;
        }
        series[t] = Some(p);
    }

    /// Counted borrowed lookup: bumps the hit/miss statistics.
    fn lookup_counted(
        &mut self,
        model: &Model,
        task_name: &str,
        sources: &[usize],
        t: usize,
    ) -> Option<f64> {
        match self.peek_named(model, task_name, sources, t) {
            Some(p) => {
                self.hits += 1;
                Some(p)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }
}

/// Cached [`exact`]: answers from `cache` when possible, otherwise computes
/// via [`exact`] and memoizes. The cache key is borrowed — no model or
/// source-vector clone on hits.
///
/// # Panics
///
/// Same conditions as [`exact`].
pub fn exact_cached<T: Task + ?Sized>(
    cache: &mut Cache,
    model: &Model,
    task: &T,
    alpha: &Assignment,
    t: usize,
) -> f64 {
    let name = task.name();
    if let Some(p) = cache.lookup_counted(model, &name, alpha.sources(), t) {
        return p;
    }
    let p = exact(model, task, alpha, t);
    cache.insert_named(model, &name, alpha.sources(), t, p);
    p
}

/// Cached [`exact_series`]: each prefix `t` is memoized individually, so a
/// longer series extends a shorter one without recomputing shared
/// prefixes. Uncached suffixes are filled by **one** DP sweep to the
/// deepest missing `t`, not one computation per missing point.
pub fn exact_series_cached<T: Task + ?Sized>(
    cache: &mut Cache,
    model: &Model,
    task: &T,
    alpha: &Assignment,
    t_max: usize,
) -> Vec<f64> {
    let name = task.name();
    let cached: Vec<Option<f64>> = (1..=t_max)
        .map(|t| cache.lookup_counted(model, &name, alpha.sources(), t))
        .collect();
    let deepest_missing = cached.iter().rposition(Option::is_none).map(|i| i + 1);
    let computed = match deepest_missing {
        Some(need) => exact_series(model, task, alpha, need),
        None => Vec::new(),
    };
    cached
        .into_iter()
        .enumerate()
        .map(|(i, slot)| match slot {
            Some(p) => p,
            None => {
                let p = computed[i];
                cache.insert_named(model, &name, alpha.sources(), i + 1, p);
                p
            }
        })
        .collect()
}

/// The largest sample count the estimators accept: counts above `2^53`
/// are no longer exactly representable as `f64`, so `solved / samples`
/// would silently lose precision.
pub const MAX_MC_SAMPLES: usize = 1 << 53;

/// The default confidence coefficient of the committed intervals: the
/// two-sided 95% normal quantile.
pub const DEFAULT_Z: f64 = 1.959_963_984_540_054;

/// The Wilson score interval for `solved` successes in `samples` Bernoulli
/// trials at confidence coefficient `z` (the normal quantile).
///
/// Unlike the naive normal interval `p̂ ± z·sqrt(p̂(1−p̂)/n)`, the Wilson
/// interval stays **informative at the extremes**: at `p̂ = 0` it is
/// `[0, z²/(n+z²)]` and at `p̂ = 1` it is `[n/(n+z²), 1]` — never a
/// zero-width point, so consistency checks against it cannot degenerate
/// to near-exact equality.
///
/// # Panics
///
/// Panics if `samples == 0`, `solved > samples`, or `z` is not positive
/// and finite.
pub fn wilson_interval(solved: u64, samples: u64, z: f64) -> (f64, f64) {
    assert!(samples > 0, "need at least one sample");
    assert!(solved <= samples, "more successes than samples");
    assert!(z.is_finite() && z > 0.0, "z must be positive and finite");
    let n = samples as f64;
    let p = solved as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = z / denom * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    // The boundary cases are exact (at p̂ = 0, center ≡ half); pin them to
    // the closed forms instead of leaving float residue at the endpoints.
    let lo = if solved == 0 {
        0.0
    } else {
        (center - half).max(0.0)
    };
    let hi = if solved == samples {
        1.0
    } else {
        (center + half).min(1.0)
    };
    (lo, hi)
}

/// A Monte-Carlo estimate: sample mean, standard error, and a Wilson
/// score interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Estimate {
    /// Sample mean of the success indicator.
    pub p: f64,
    /// Standard error `sqrt(p(1−p)/samples)` (kept for reporting; the
    /// consistency check uses the Wilson interval, which does not collapse
    /// at `p ∈ {0, 1}` the way `std_error` does).
    pub std_error: f64,
    /// Number of samples drawn.
    pub samples: usize,
    /// Number of samples that solved.
    pub solved: u64,
    /// Lower Wilson bound at [`DEFAULT_Z`] (95%).
    pub ci_lo: f64,
    /// Upper Wilson bound at [`DEFAULT_Z`] (95%).
    pub ci_hi: f64,
}

impl Estimate {
    /// Assembles the estimate from raw counts.
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0`, `samples > MAX_MC_SAMPLES`, or
    /// `solved > samples`.
    pub fn from_counts(solved: u64, samples: usize) -> Estimate {
        assert!(samples > 0, "need at least one sample");
        assert!(
            samples <= MAX_MC_SAMPLES,
            "sample count {samples} exceeds f64-exact range 2^53"
        );
        assert!(solved <= samples as u64, "more successes than samples");
        let p = solved as f64 / samples as f64;
        let (ci_lo, ci_hi) = wilson_interval(solved, samples as u64, DEFAULT_Z);
        Estimate {
            p,
            std_error: (p * (1.0 - p) / samples as f64).sqrt(),
            samples,
            solved,
            ci_lo,
            ci_hi,
        }
    }

    /// The Wilson interval of this estimate at an explicit confidence
    /// coefficient `z`.
    pub fn wilson(&self, z: f64) -> (f64, f64) {
        wilson_interval(self.solved, self.samples as u64, z)
    }

    /// Whether `value` lies inside the Wilson interval at confidence
    /// coefficient `z`.
    ///
    /// This replaces the old `|p − value| ≤ z·std_error` rule, which was
    /// **vacuous at the extremes**: a sample mean of exactly 0 or 1 has
    /// `std_error = 0`, collapsing the check to near-exact equality even
    /// though the estimator's uncertainty is `Θ(1/samples)`, not zero.
    /// The Wilson interval keeps its `≈ z²/samples` width there.
    pub fn is_consistent_with(&self, value: f64, z: f64) -> bool {
        let (lo, hi) = self.wilson(z);
        lo - f64::EPSILON <= value && value <= hi + f64::EPSILON
    }
}

/// Kernel-path statistics of one bit-sliced Monte-Carlo run: how the
/// verdicts were decided, summed across workers. The first three
/// counters come from the scalar peel path's partition memo.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct McStats {
    /// Verdicts answered from the partition-signature memo.
    pub memo_hits: u64,
    /// Verdicts computed by the task's closed form.
    pub closed_form_verdicts: u64,
    /// Verdicts computed by the dense facet scan (zero for every built-in
    /// task — they all carry closed forms).
    pub dense_scan_verdicts: u64,
    /// 64-sample lane words stepped by the bit-sliced kernel (each one
    /// [`rsbt_tasks::VerdictPlan`] evaluation per round; zero when every
    /// lane peels, and zero when the task's plan is the empty,
    /// constant-false program, which skips the word loop).
    pub lane_words: u64,
    /// Samples the bit-sliced kernel peeled to the scalar path because
    /// the task compiled no lane plan (zero for every built-in task).
    pub peeled_lanes: u64,
}

impl McStats {
    pub(crate) fn absorb(&mut self, memo: &SolvabilityMemo) {
        self.memo_hits += memo.memo_hits();
        self.closed_form_verdicts += memo.closed_form_verdicts();
        self.dense_scan_verdicts += memo.dense_scan_verdicts();
    }

    /// Accumulates another run's counters (sweep engines aggregate the
    /// stats of many estimated points).
    pub fn merge(&mut self, other: &McStats) {
        self.memo_hits += other.memo_hits;
        self.closed_form_verdicts += other.closed_form_verdicts;
        self.dense_scan_verdicts += other.dense_scan_verdicts;
        self.lane_words += other.lane_words;
        self.peeled_lanes += other.peeled_lanes;
    }
}

/// Asserts the shared preconditions of every Monte-Carlo entry point.
///
/// Unlike the old `monte_carlo` (which checked the node count only when
/// `model.ports()` was `Some` and accepted sample counts past the
/// `f64`-exact range), this validates every argument up front — including
/// the round count, which would otherwise fail deep inside
/// [`BitString::sample`] with an unrelated message.
pub(crate) fn check_mc_args(model: &Model, alpha: &Assignment, t: usize, samples: usize) {
    assert!(samples > 0, "need at least one sample");
    assert!(
        samples <= MAX_MC_SAMPLES,
        "sample count {samples} exceeds f64-exact range 2^53"
    );
    assert!(
        t <= rsbt_random::MAX_BITS,
        "t = {t} exceeds the {}-round sampling limit (one u64 word per source)",
        rsbt_random::MAX_BITS
    );
    assert!(
        alpha.n() <= u8::MAX as usize,
        "n = {} exceeds the 255-node verdict-kernel limit",
        alpha.n()
    );
    if let Some(p) = model.ports() {
        assert_eq!(p.n(), alpha.n(), "model/assignment node mismatch");
    }
}

/// The per-worker Monte-Carlo sampling kernel: draws the per-source bit
/// strings, steps `t` rounds with a reused [`RoundStepper`], and decides
/// each sample's verdict through the [`SolvabilityMemo`] (closed-form
/// first, dense scan only for tasks without one) — no per-sample
/// allocation after the first few samples warm the buffers.
pub(crate) struct SampleKernel<'a, T: Task + ?Sized> {
    stepper: RoundStepper,
    kernel: TaskKernel<'a, T>,
    alpha: &'a Assignment,
    t: usize,
    /// `K_i(0) = ⊥` for every node, interned once.
    initial: Vec<KnowledgeId>,
    /// Reused per-source strings of the current sample.
    sources: Vec<BitString>,
    /// Reused knowledge-vector buffers (current / next round).
    cur: Vec<KnowledgeId>,
    next: Vec<KnowledgeId>,
}

impl<'a, T: Task + ?Sized> SampleKernel<'a, T> {
    pub(crate) fn new(
        model: &Model,
        kernel: TaskKernel<'a, T>,
        alpha: &'a Assignment,
        t: usize,
        arena: &mut KnowledgeArena,
    ) -> Self {
        let n = alpha.n();
        SampleKernel {
            stepper: RoundStepper::new(model, n),
            kernel,
            alpha,
            t,
            initial: (0..n).map(|_| arena.initial(None)).collect(),
            sources: Vec::with_capacity(alpha.k()),
            cur: Vec::with_capacity(n),
            next: Vec::with_capacity(n),
        }
    }

    /// Runs one sample drawn from `rng`: `true` iff it solves at time
    /// `t`. Consumes the generator exactly like
    /// [`Realization::sample`](rsbt_random::Realization::sample) (k `u64`
    /// draws, source order), so the verdict stream is
    /// bit-comparable to a leaf-by-leaf decision of each sampled
    /// realization (pinned by the test
    /// `kernel_monte_carlo_bit_identical_to_reference`).
    fn sample<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        memo: &mut SolvabilityMemo,
        arena: &mut KnowledgeArena,
    ) -> bool {
        self.first_solving_round(rng, memo, arena).is_some()
    }

    /// Runs one sample and reports the **first** round `r ≤ t` whose
    /// consistency partition solves (`Some(0)` when the all-`⊥` initial
    /// partition already does, `None` when no prefix solves by `t`).
    ///
    /// Rounds stop at the first solving partition: extending an
    /// execution only refines its consistency partition, so a solving
    /// round-`r` prefix solves at every `t ≥ r` (the same monotonicity
    /// the enumeration engine prunes subtrees with). Two consequences:
    /// the sample's verdict at *every* time `t' ≤ t` is `first ≤ t'` —
    /// a whole estimated series from one pass — and at large `t` in the
    /// `p(t) → 1` regime the expected per-sample round count drops to
    /// `O(1)` instead of `t`.
    pub(crate) fn first_solving_round<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        memo: &mut SolvabilityMemo,
        arena: &mut KnowledgeArena,
    ) -> Option<usize> {
        self.sources.clear();
        for _ in 0..self.alpha.k() {
            self.sources.push(BitString::sample(rng, self.t));
        }
        if memo.solves(&self.initial, &self.kernel) {
            // Degenerate n = 1 style cases: the all-⊥ partition solves.
            return Some(0);
        }
        self.cur.clear();
        self.cur.extend_from_slice(&self.initial);
        for r in 0..self.t {
            let sources = &self.sources;
            let alpha = self.alpha;
            self.stepper.step(
                arena,
                &self.cur,
                |i| sources[alpha.source_of(i)].bit(r),
                &mut self.next,
            );
            std::mem::swap(&mut self.cur, &mut self.next);
            if memo.solves(&self.cur, &self.kernel) {
                return Some(r + 1);
            }
        }
        None
    }

    /// [`SampleKernel::first_solving_round`] under a per-sample
    /// [`FaultSchedule`]: identical source-draw discipline (`k` `u64`
    /// words in source order — fault draws live on a salted stream and
    /// never touch `rng`), with every round stepped through
    /// [`RoundStepper::step_faulted`] at the schedule's 1-based round.
    /// With an empty schedule the verdict stream is bit-identical to the
    /// fault-free kernel's.
    pub(crate) fn first_solving_round_faulted<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        faults: &FaultSchedule,
        memo: &mut SolvabilityMemo,
        arena: &mut KnowledgeArena,
    ) -> Option<usize> {
        self.sources.clear();
        for _ in 0..self.alpha.k() {
            self.sources.push(BitString::sample(rng, self.t));
        }
        if memo.solves(&self.initial, &self.kernel) {
            return Some(0);
        }
        self.cur.clear();
        self.cur.extend_from_slice(&self.initial);
        for r in 0..self.t {
            let sources = &self.sources;
            let alpha = self.alpha;
            self.stepper.step_faulted(
                arena,
                &self.cur,
                |i| sources[alpha.source_of(i)].bit(r),
                |i| faults.is_silent(i, r + 1),
                &mut self.next,
            );
            std::mem::swap(&mut self.cur, &mut self.next);
            if memo.solves(&self.cur, &self.kernel) {
                return Some(r + 1);
            }
        }
        None
    }
}

/// Monte-Carlo `Pr[S(t) | α]` from a caller-provided generator: `samples`
/// draws of [`Realization::sample`](rsbt_random::Realization::sample)'s
/// shape (`k` `u64` words per sample, source order), each stepped through
/// one reused [`RoundStepper`] and decided closed-form-first, stopping at
/// its first solving round.
///
/// The serial, generator-driven form of the estimator. Seeded sweeps use
/// [`monte_carlo_bitsliced_series`] instead, which keys sample `i` to
/// [`StreamRng`](rand::rngs::StreamRng)`(seed, i)` and is thread-count
/// invariant.
///
/// # Panics
///
/// Panics if `samples == 0` or exceeds [`MAX_MC_SAMPLES`], if
/// `alpha.n() > 255`, or on a model/assignment node mismatch.
pub fn monte_carlo<T: Task + ?Sized, R: Rng + ?Sized>(
    model: &Model,
    task: &T,
    alpha: &Assignment,
    t: usize,
    samples: usize,
    rng: &mut R,
) -> Estimate {
    check_mc_args(model, alpha, t, samples);
    let table = solvability::fallback_table(task, alpha.n());
    let kernel = TaskKernel::new(task, table.as_ref());
    let mut arena = KnowledgeArena::new();
    let mut memo = SolvabilityMemo::new();
    let mut sampler = SampleKernel::new(model, kernel, alpha, t, &mut arena);
    let mut solved = 0u64;
    for _ in 0..samples {
        if sampler.sample(rng, &mut memo, &mut arena) {
            solved += 1;
        }
    }
    Estimate::from_counts(solved, samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use rsbt_random::Realization;
    use rsbt_sim::FaultSpec;
    use rsbt_tasks::{KLeaderElection, LeaderElection, WeakSymmetryBreaking};

    /// `p(t)` from the quotient DP with `threads` row-building workers.
    fn exact_threads<T: Task + ?Sized>(
        model: &Model,
        task: &T,
        alpha: &Assignment,
        t: usize,
        threads: usize,
    ) -> f64 {
        let (counts, _) = engine_dp::solved_series_with_stats(model, task, alpha, t, threads);
        counts[t - 1] as f64 / (1u128 << (alpha.k() * t)) as f64
    }

    #[test]
    fn shared_source_never_solves() {
        let alpha = Assignment::shared(3);
        for t in 1..=3 {
            assert_eq!(exact(&Model::Blackboard, &LeaderElection, &alpha, t), 0.0);
        }
    }

    #[test]
    fn private_sources_converge_to_one() {
        let alpha = Assignment::private(2);
        let series = exact_series(&Model::Blackboard, &LeaderElection, &alpha, 5);
        // p(t) = 1 − 2^{−t}: the two nodes differ somewhere in t rounds.
        for (i, p) in series.iter().enumerate() {
            let t = i + 1;
            let expect = 1.0 - 0.5f64.powi(t as i32);
            assert!((p - expect).abs() < 1e-12, "t={t}: {p} vs {expect}");
        }
    }

    #[test]
    fn singleton_plus_pair_matches_closed_form() {
        // Group sizes [1, 2]: k = 2, exactly one singleton source. The
        // system solves iff the singleton's string differs from the pair's:
        // p(t) = 1 − 2^{−t}.
        let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
        for t in 1..=4 {
            let p = exact(&Model::Blackboard, &LeaderElection, &alpha, t);
            let expect = 1.0 - 0.5f64.powi(t as i32);
            assert!((p - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn no_singleton_blackboard_is_dead() {
        // Theorem 4.1 'only if': sizes [2,2] never solve on the blackboard.
        let alpha = Assignment::from_group_sizes(&[2, 2]).unwrap();
        for t in 1..=3 {
            assert_eq!(exact(&Model::Blackboard, &LeaderElection, &alpha, t), 0.0);
        }
    }

    #[test]
    fn series_is_monotone() {
        for sizes in [vec![1usize, 1], vec![1, 2], vec![1, 1, 1], vec![1, 3]] {
            let alpha = Assignment::from_group_sizes(&sizes).unwrap();
            let series = exact_series(&Model::Blackboard, &LeaderElection, &alpha, 4);
            for w in series.windows(2) {
                assert!(w[1] >= w[0] - 1e-12, "{sizes:?}: {series:?}");
            }
        }
    }

    #[test]
    fn monte_carlo_matches_exact() {
        let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
        let mut rng = StdRng::seed_from_u64(12345);
        let t = 3;
        let exact_p = exact(&Model::Blackboard, &LeaderElection, &alpha, t);
        let est = monte_carlo(
            &Model::Blackboard,
            &LeaderElection,
            &alpha,
            t,
            20_000,
            &mut rng,
        );
        assert!(
            est.is_consistent_with(exact_p, 4.0),
            "MC {est:?} vs exact {exact_p}"
        );
    }

    #[test]
    fn wilson_interval_matches_hand_computed_values() {
        // z = 2 keeps the arithmetic exact by hand: z² = 4.
        // p̂ = 0, n = 100: [0, 4/104].
        let (lo, hi) = wilson_interval(0, 100, 2.0);
        assert_eq!(lo, 0.0);
        assert!((hi - 4.0 / 104.0).abs() < 1e-12, "hi = {hi}");
        // p̂ = 1, n = 100: the mirror image [100/104, 1].
        let (lo, hi) = wilson_interval(100, 100, 2.0);
        assert!((lo - 100.0 / 104.0).abs() < 1e-12, "lo = {lo}");
        assert_eq!(hi, 1.0);
        // p̂ = 1/2, n = 100: center 0.5, half-width (2/1.04)·sqrt(0.0026).
        let (lo, hi) = wilson_interval(50, 100, 2.0);
        let half = 2.0 / 1.04 * 0.0026f64.sqrt();
        assert!((lo - (0.5 - half)).abs() < 1e-12, "lo = {lo}");
        assert!((hi - (0.5 + half)).abs() < 1e-12, "hi = {hi}");
        // Interval is always inside [0, 1] and contains p̂.
        for (s, n) in [(0u64, 7u64), (1, 7), (6, 7), (7, 7), (500, 1000)] {
            let (lo, hi) = wilson_interval(s, n, 3.0);
            let p = s as f64 / n as f64;
            assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
            assert!(lo <= p && p <= hi, "({s}, {n}): [{lo}, {hi}] ∌ {p}");
        }
    }

    #[test]
    fn estimate_stays_informative_at_the_extremes() {
        // p̂ = 0: std_error is 0, but the Wilson interval is not a point —
        // the old |p − value| ≤ z·std_error check degenerated to equality
        // here and accepted only values within ε of 0.
        let zero = Estimate::from_counts(0, 10_000);
        assert_eq!(zero.std_error, 0.0);
        assert!(zero.ci_hi > 0.0, "upper bound must stay positive");
        assert!(zero.is_consistent_with(1e-4, 2.0), "small p is plausible");
        assert!(!zero.is_consistent_with(0.01, 2.0), "0.01 is implausible");
        // p̂ = 1 mirrors.
        let one = Estimate::from_counts(10_000, 10_000);
        assert_eq!(one.std_error, 0.0);
        assert!(one.ci_lo < 1.0);
        assert!(one.is_consistent_with(1.0 - 1e-4, 2.0));
        assert!(!one.is_consistent_with(0.99, 2.0));
        // Interior estimates keep the old behavior's spirit.
        let half = Estimate::from_counts(5_000, 10_000);
        assert!(half.is_consistent_with(0.5, 2.0));
        assert!(!half.is_consistent_with(0.6, 2.0));
        assert!(half.ci_hi > half.ci_lo);
    }

    #[test]
    fn kernel_monte_carlo_bit_identical_to_reference() {
        // Equal generator states must produce bit-identical estimates:
        // the kernel path consumes the RNG exactly like a leaf-by-leaf
        // loop that samples a whole `Realization` and decides it from
        // its full execution trace.
        for (sizes, t) in [(vec![1usize, 2], 3), (vec![2, 2], 5), (vec![1, 1, 1], 2)] {
            let alpha = Assignment::from_group_sizes(&sizes).unwrap();
            for model in [Model::Blackboard, Model::message_passing_cyclic(alpha.n())] {
                let mut rng_a = StdRng::seed_from_u64(99);
                let mut rng_b = StdRng::seed_from_u64(99);
                let kernel = monte_carlo(&model, &LeaderElection, &alpha, t, 2_000, &mut rng_a);
                let mut arena = KnowledgeArena::new();
                let mut cache = crate::output_cache::OutputComplexCache::new();
                let mut solved = 0u64;
                for _ in 0..2_000 {
                    let rho = Realization::sample(&alpha, t, &mut rng_b);
                    if solvability::solves_with_cache(
                        &model,
                        &rho,
                        &LeaderElection,
                        &mut arena,
                        &mut cache,
                    ) {
                        solved += 1;
                    }
                }
                let reference = Estimate::from_counts(solved, 2_000);
                assert_eq!(kernel, reference, "{model} {sizes:?} t={t}");
                // And the generators are left in identical states.
                assert_eq!(rng_a.next_u64(), rng_b.next_u64());
            }
        }
    }

    #[test]
    fn parallel_monte_carlo_is_thread_count_invariant() {
        let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
        let serial = monte_carlo_bitsliced_series(
            &Model::Blackboard,
            &LeaderElection,
            &alpha,
            4,
            5_000,
            7,
            1,
        )[3];
        assert_eq!(
            serial,
            oracle::estimate(
                &Model::Blackboard,
                &LeaderElection,
                &alpha,
                4,
                5_000,
                7,
                None
            )
        );
        for threads in [2usize, 3, 4, 8] {
            let par = monte_carlo_bitsliced_series(
                &Model::Blackboard,
                &LeaderElection,
                &alpha,
                4,
                5_000,
                7,
                threads,
            )[3];
            assert_eq!(par, serial, "threads={threads}");
        }
        // Different seeds give different (decorrelated) estimates.
        let other = monte_carlo_bitsliced_series(
            &Model::Blackboard,
            &LeaderElection,
            &alpha,
            4,
            5_000,
            8,
            2,
        )[3];
        assert_ne!(other.solved, serial.solved, "seed must matter");
    }

    #[test]
    fn parallel_monte_carlo_brackets_exact_value() {
        let alpha = Assignment::from_group_sizes(&[1, 2, 2]).unwrap();
        let t = 4;
        let exact_p = exact(&Model::Blackboard, &LeaderElection, &alpha, t);
        let (series, stats) = monte_carlo_bitsliced_series_with_stats(
            &Model::Blackboard,
            &LeaderElection,
            &alpha,
            t,
            40_000,
            2021,
            4,
        );
        let est = series[t - 1];
        assert!(
            est.is_consistent_with(exact_p, 4.0),
            "MC {est:?} vs exact {exact_p}"
        );
        // Built-in tasks compile lane plans: words run, nothing peels.
        assert!(stats.lane_words > 0);
        assert_eq!(stats.peeled_lanes, 0);
        assert_eq!(stats.dense_scan_verdicts, 0);
        // The scalar peel path decides in closed form; the dense scan
        // never runs, and the partition memo absorbs repeats.
        let (_, scalar) = oracle::first_rounds(
            &Model::Blackboard,
            &LeaderElection,
            &alpha,
            t,
            2_000,
            2021,
            None,
        );
        assert_eq!(scalar.dense_scan_verdicts, 0);
        assert!(scalar.closed_form_verdicts > 0);
        assert!(scalar.memo_hits > 0, "partition memo must absorb repeats");
        // A cross-validation grid over every built-in symmetric task.
        let two_le = KLeaderElection::new(2);
        let grid: [(&(dyn Task + Sync), &[usize], usize); 7] = [
            (&LeaderElection, &[1, 2], 6),
            (&LeaderElection, &[1, 2, 2], 5),
            (&LeaderElection, &[2, 2], 8),
            (&two_le, &[2, 2], 8),
            (&two_le, &[1, 1, 2], 5),
            (&WeakSymmetryBreaking, &[2, 2], 8),
            (&WeakSymmetryBreaking, &[1, 3], 6),
        ];
        for (task, sizes, t) in grid {
            let alpha = Assignment::from_group_sizes(sizes).unwrap();
            let exact_p = exact(&Model::Blackboard, task, &alpha, t);
            let est =
                monte_carlo_bitsliced_series(&Model::Blackboard, task, &alpha, t, 30_000, 2021, 2)
                    [t - 1];
            assert!(
                est.is_consistent_with(exact_p, 4.0),
                "{} {sizes:?} t={t}: MC {est:?} vs exact {exact_p}",
                task.name()
            );
        }
    }

    #[test]
    fn exact_faulted_with_empty_schedule_matches_exact() {
        let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
        for model in [Model::Blackboard, Model::message_passing_cyclic(3)] {
            for t in 0..=4usize {
                let plain = exact(&model, &LeaderElection, &alpha, t);
                let faulted = exact_faulted(
                    &model,
                    &LeaderElection,
                    &alpha,
                    t,
                    &FaultSchedule::empty(3, t),
                );
                assert_eq!(plain.to_bits(), faulted.to_bits(), "{model} t={t}");
            }
        }
    }

    #[test]
    fn faulted_monte_carlo_brackets_faulted_exact() {
        // A fixed schedule evaluated two independent ways: the exact
        // enumeration and the sampler must agree within the Wilson
        // interval, and the bit-sliced sampler must match the serial
        // oracle bit-for-bit.
        let alpha = Assignment::from_group_sizes(&[1, 2, 2]).unwrap();
        let t = 4;
        let mut sched = FaultSchedule::empty(5, t);
        sched.set_omission(1, 1);
        sched.set_crash(3, 2);
        let spec = FaultSpec::fixed(sched.clone());
        for model in [Model::Blackboard, Model::message_passing_cyclic(5)] {
            let p = exact_faulted(&model, &LeaderElection, &alpha, t, &sched);
            let (series, _) = monte_carlo_bitsliced_series_faulted_with_stats(
                &model,
                &LeaderElection,
                &alpha,
                t,
                40_000,
                2021,
                3,
                &spec,
            );
            let est = series[t - 1];
            assert!(
                est.is_consistent_with(p, 4.0),
                "{model}: MC {est:?} vs exact {p}"
            );
            let serial = oracle::estimate(
                &model,
                &LeaderElection,
                &alpha,
                t,
                40_000,
                2021,
                Some(&spec),
            );
            assert_eq!(serial, est, "{model}");
        }
    }

    #[test]
    fn blackboard_silence_is_observable_and_only_refines() {
        // Theorem 4.1 'only if': sizes [2, 2] never solve a fault-free
        // blackboard. Faults change that — a node's silence shortens the
        // board, which is symmetry-breaking information in itself — so
        // the faulted success count dominates the fault-free one (here:
        // strictly, from 0).
        let alpha = Assignment::from_group_sizes(&[2, 2]).unwrap();
        let t = 4;
        let plain = monte_carlo_bitsliced_series(
            &Model::Blackboard,
            &LeaderElection,
            &alpha,
            t,
            4_000,
            3,
            2,
        )[t - 1];
        assert_eq!(plain.solved, 0, "fault-free [2,2] blackboard is dead");
        let (series, _) = monte_carlo_bitsliced_series_faulted_with_stats(
            &Model::Blackboard,
            &LeaderElection,
            &alpha,
            t,
            4_000,
            3,
            2,
            &FaultSpec::rates(0.2, 0.1),
        );
        let faulted = series[t - 1];
        assert!(
            faulted.solved > 0,
            "silence must break the [2,2] symmetry: {faulted:?}"
        );
    }

    #[test]
    fn one_pass_series_equals_per_t_estimates() {
        // The series at horizon T must carry the series at every shorter
        // horizon t as its prefix, bit for bit (the per-source word draw
        // does not depend on the horizon) — so the point estimate at t,
        // entry t − 1 of the series at t, is entry t − 1 of any longer
        // series. Planned and planless tasks, 1 and 3 threads; the
        // common-random-numbers series must be exactly monotone.
        let tasks: [&(dyn Task + Sync); 2] =
            [&LeaderElection, &crate::solvability::OpaqueLeaderElection];
        for sizes in [vec![1usize, 2], vec![2, 2], vec![1, 1, 2]] {
            let alpha = Assignment::from_group_sizes(&sizes).unwrap();
            for model in [Model::Blackboard, Model::message_passing_cyclic(alpha.n())] {
                for task in tasks {
                    for threads in [1usize, 3] {
                        let what = format!("{model} {sizes:?} {} threads={threads}", task.name());
                        let series = monte_carlo_bitsliced_series(
                            &model, task, &alpha, 5, 2_000, 13, threads,
                        );
                        assert_eq!(series.len(), 5);
                        for t in 1..=5 {
                            let shorter = monte_carlo_bitsliced_series(
                                &model, task, &alpha, t, 2_000, 13, threads,
                            );
                            assert_eq!(shorter[..], series[..t], "{what} t={t}");
                        }
                        for w in series.windows(2) {
                            assert!(w[1].solved >= w[0].solved, "series must be monotone");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "need at least one sample")]
    fn monte_carlo_rejects_zero_samples() {
        let alpha = Assignment::private(2);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = monte_carlo(&Model::Blackboard, &LeaderElection, &alpha, 1, 0, &mut rng);
    }

    #[test]
    #[should_panic(expected = "f64-exact range")]
    fn monte_carlo_rejects_overflowing_sample_counts() {
        let alpha = Assignment::private(2);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = monte_carlo(
            &Model::Blackboard,
            &LeaderElection,
            &alpha,
            1,
            MAX_MC_SAMPLES + 1,
            &mut rng,
        );
    }

    #[test]
    #[should_panic(expected = "round sampling limit")]
    fn monte_carlo_rejects_oversized_round_counts() {
        // t = 64 > MAX_BITS = 63: rejected up front with a clear message
        // instead of panicking deep inside BitString::sample mid-run.
        let alpha = Assignment::private(2);
        let _ =
            monte_carlo_bitsliced_series(&Model::Blackboard, &LeaderElection, &alpha, 64, 10, 0, 1);
    }

    #[test]
    #[should_panic(expected = "model/assignment node mismatch")]
    fn monte_carlo_rejects_node_mismatch() {
        let alpha = Assignment::private(3);
        let mut rng = StdRng::seed_from_u64(0);
        let model = Model::message_passing_cyclic(4);
        let _ = monte_carlo(&model, &LeaderElection, &alpha, 1, 10, &mut rng);
    }

    #[test]
    fn monte_carlo_beyond_the_exact_wall() {
        // k·t = 4·32 = 128 > MAX_EXACT_BITS = 126: even the quotient
        // engine's dyadic u128 counts refuse this point; the estimator
        // covers it. Verify against the closed form for one singleton
        // source among k: a singleton class exists iff its prefix differs
        // from every other source's, so p(t) = (1 − 2^{−t})^{k−1}.
        let alpha = Assignment::from_group_sizes(&[1, 7, 7, 7]).unwrap();
        let t = 32;
        assert!(alpha.k() * t > MAX_EXACT_BITS);
        let est = monte_carlo_bitsliced_series(
            &Model::Blackboard,
            &LeaderElection,
            &alpha,
            t,
            20_000,
            42,
            4,
        )[t - 1];
        let closed_form = (1.0 - 0.5f64.powi(t as i32)).powi(3);
        assert!(
            est.is_consistent_with(closed_form, 4.0),
            "{est:?} vs {closed_form}"
        );
    }

    #[test]
    fn two_leader_probability() {
        // 2-LE on sizes [2,2] in the blackboard: solvable iff the two
        // groups' strings differ (elect one whole group? no — elect the two
        // members of one class... classes are the two groups when strings
        // differ; electing one group of size 2 = exactly two leaders). So
        // p(t) = 1 − 2^{−t}.
        let alpha = Assignment::from_group_sizes(&[2, 2]).unwrap();
        let task = KLeaderElection::new(2);
        for t in 1..=4 {
            let p = exact(&Model::Blackboard, &task, &alpha, t);
            let expect = 1.0 - 0.5f64.powi(t as i32);
            assert!((p - expect).abs() < 1e-12, "t={t}");
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        for sizes in [vec![1usize, 2], vec![2, 2], vec![1, 1, 1]] {
            let alpha = Assignment::from_group_sizes(&sizes).unwrap();
            for t in 1..=3usize {
                let seq = exact(&Model::Blackboard, &LeaderElection, &alpha, t);
                for threads in [1usize, 2, 4] {
                    let par =
                        exact_threads(&Model::Blackboard, &LeaderElection, &alpha, t, threads);
                    assert_eq!(seq, par, "sizes {sizes:?} t {t} threads {threads}");
                }
            }
        }
    }

    #[test]
    fn parallel_message_passing() {
        let alpha = Assignment::from_group_sizes(&[2, 2]).unwrap();
        let model = Model::message_passing_cyclic(4);
        let seq = exact(&model, &LeaderElection, &alpha, 3);
        let par = exact_threads(&model, &LeaderElection, &alpha, 3, 3);
        assert_eq!(seq, par);
    }

    #[test]
    #[should_panic(expected = "exceeds exact-enumeration budget")]
    fn exact_budget_guard() {
        // k·t = 32·4 = 128 > MAX_EXACT_BITS = 126.
        let alpha = Assignment::private(32);
        let _ = exact(&Model::Blackboard, &LeaderElection, &alpha, 4);
    }

    #[test]
    fn wide_k_labeled_dp_matches_the_tree_count() {
        // k = 21 > MAX_DP_K off the orbit quotient (message passing),
        // k·t = 21 ≤ 62: the labeled DP streams the root's 2^20 lane
        // digits. At t = 1 a node's knowledge is its own bit, so exactly
        // the 2·21 realizations with one odd bit out elect; 42 is also
        // the count a full execution-tree walk gives.
        let alpha = Assignment::private(21);
        let model = Model::message_passing_cyclic(21);
        assert_eq!(
            engine_dp::solved_series_with_stats(&model, &LeaderElection, &alpha, 1, 1).0,
            vec![42]
        );
        let series = exact_series(&model, &LeaderElection, &alpha, 1);
        assert_eq!(series, vec![42.0 / (1u128 << 21) as f64]);
    }

    #[test]
    #[should_panic(expected = "digit fan-out bound")]
    fn dispatch_rejects_wide_k_past_the_tree_tallies() {
        // k = 21 > MAX_DP_K off the orbit quotient (message passing)
        // runs on the labeled DP only while k·t ≤ 62; 21·3 = 63 must be
        // refused with a message naming both limits.
        let alpha = Assignment::private(21);
        let model = Model::message_passing_cyclic(21);
        let _ = exact(&model, &LeaderElection, &alpha, 3);
    }

    /// Solved realizations of blackboard LE on `k` private sources at
    /// time `t`, by inclusion–exclusion: `m^k` strings minus the
    /// assignments where no string of the `m = 2^t` is used exactly once,
    /// `Σⱼ (−1)ʲ C(m, j) · k!/(k−j)! · (m−j)^(k−j)`.
    fn private_le_solved(k: u32, t: u32) -> i128 {
        let m = 1i128 << t;
        let binom = |a: i128, b: i128| (0..b).fold(1i128, |c, i| c * (a - i) / (i + 1));
        let falling = |a: i128, b: i128| (0..b).fold(1i128, |f, i| f * (a - i));
        let unsolved: i128 = (0..=m.min(k as i128))
            .map(|j| {
                let term = binom(m, j) * falling(k as i128, j) * (m - j).pow(k - j as u32);
                if j % 2 == 0 {
                    term
                } else {
                    -term
                }
            })
            .sum();
        m.pow(k) - unsolved
    }

    #[test]
    fn orbit_quotient_answers_past_max_dp_k() {
        // k = 40 > MAX_DP_K: the orbit quotient reaches k·t = 120, where
        // the labeled DP's wide-k budget k·t ≤ 62 would refuse.
        let alpha = Assignment::private(40);
        let (counts, _) =
            engine_dp::solved_series_with_stats(&Model::Blackboard, &LeaderElection, &alpha, 3, 1);
        for t in 1..=3u32 {
            assert_eq!(
                counts[t as usize - 1] as i128,
                private_le_solved(40, t),
                "t={t}"
            );
        }
        let p = exact(&Model::Blackboard, &LeaderElection, &alpha, 3);
        let expect = private_le_solved(40, 3) as f64 / (1u128 << 120) as f64;
        assert_eq!(p.to_bits(), expect.to_bits());
        let par = exact_threads(&Model::Blackboard, &LeaderElection, &alpha, 3, 2);
        assert_eq!(par.to_bits(), p.to_bits());
        // Theorem 4.1: gcd 2 never elects, at k = 32 past MAX_DP_K too.
        let pairs = Assignment::from_group_sizes(&[2; 32]).unwrap();
        let series = exact_series(&Model::Blackboard, &LeaderElection, &pairs, 3);
        assert_eq!(series, vec![0.0; 3]);
    }

    #[test]
    fn exact_past_the_tree_wall_matches_the_closed_form() {
        // k·t = 2·40 = 80: four powers of two past TREE_EXACT_BITS = 30,
        // unreachable by any tree walk. For sizes [1, m] the closed form
        // is p(t) = 1 − 2^{−t}, exactly representable in f64 at t = 40,
        // and the DP's integer counts divide out exactly — so equality is
        // bitwise, not approximate.
        let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
        let t = 40;
        assert!(alpha.k() * t > TREE_EXACT_BITS);
        let p = exact(&Model::Blackboard, &LeaderElection, &alpha, t);
        assert_eq!(p.to_bits(), (1.0 - 0.5f64.powi(t as i32)).to_bits());
        let series = exact_series(&Model::Blackboard, &LeaderElection, &alpha, t);
        assert_eq!(series[t - 1].to_bits(), p.to_bits());
    }

    #[test]
    fn exact_at_the_126_bit_edge() {
        // k·t = 2·63 = 126: the new wall itself. counts[62] =
        // 2^126 − 2^63; numerator and denominator are exact u128s whose
        // ratio rounds to the f64 nearest 1 − 2^{−63}.
        let alpha = Assignment::private(2);
        let p = exact(&Model::Blackboard, &LeaderElection, &alpha, 63);
        let expect = ((1u128 << 126) - (1u128 << 63)) as f64 / (1u128 << 126) as f64;
        assert_eq!(p.to_bits(), expect.to_bits());
    }

    #[test]
    fn engine_bit_identical_to_reference_all_profiles() {
        // The exact engine must reproduce the leaf-by-leaf reference
        // bit-for-bit: both models, every profile with n ≤ 4, t ≤ 3
        // (and t = 0), every thread count — exact, series, and parallel
        // paths.
        let two_le = KLeaderElection::new(2);
        let tasks: [&(dyn Task + Sync); 2] = [&LeaderElection, &two_le];
        for n in 2..=4usize {
            let models = [Model::Blackboard, Model::message_passing_cyclic(n)];
            for model in &models {
                for task in tasks {
                    for alpha in Assignment::iter_profiles(n) {
                        let mut ref_arena = KnowledgeArena::new();
                        let reference =
                            oracle::exact_series_reference(model, task, &alpha, 3, &mut ref_arena);
                        let series = exact_series(model, task, &alpha, 3);
                        // t = 0: the DP's root verdict against the one
                        // empty realization.
                        let root = oracle::exact_reference(model, task, &alpha, 0, &mut ref_arena);
                        assert_eq!(exact(model, task, &alpha, 0).to_bits(), root.to_bits());
                        for (i, (&p, &q)) in series.iter().zip(&reference).enumerate() {
                            let t = i + 1;
                            assert_eq!(p.to_bits(), q.to_bits(), "{model} {alpha} series t={t}");
                            let single = exact(model, task, &alpha, t);
                            assert_eq!(single.to_bits(), q.to_bits(), "{model} {alpha} t={t}");
                            for threads in [1usize, 2, 3, 4, 8] {
                                let par = exact_threads(model, task, &alpha, t, threads);
                                assert_eq!(
                                    par.to_bits(),
                                    q.to_bits(),
                                    "{model} {alpha} t={t} threads={threads}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn one_pass_series_equals_per_t_recomputation() {
        // One DP sweep to t_max vs an independent leaf-by-leaf
        // recomputation per prefix, bit for bit.
        for model in [Model::Blackboard, Model::message_passing_cyclic(4)] {
            let alpha = Assignment::from_group_sizes(&[1, 3]).unwrap();
            let one_pass = exact_series(&model, &LeaderElection, &alpha, 4);
            assert_eq!(one_pass.len(), 4);
            for (i, &p) in one_pass.iter().enumerate() {
                let fresh = oracle::exact_reference(
                    &model,
                    &LeaderElection,
                    &alpha,
                    i + 1,
                    &mut KnowledgeArena::new(),
                );
                assert_eq!(p.to_bits(), fresh.to_bits(), "{model} t={}", i + 1);
            }
        }
    }

    #[test]
    fn shared_arena_series_bit_identical_to_per_t_path() {
        // The one-sweep series must agree bit-for-bit with a fresh
        // per-t computation, on both models.
        for model in [Model::Blackboard, Model::message_passing_cyclic(4)] {
            for sizes in [vec![1usize, 3], vec![2, 2], vec![1, 1, 2]] {
                let alpha = Assignment::from_group_sizes(&sizes).unwrap();
                let series = exact_series(&model, &LeaderElection, &alpha, 3);
                for (i, &p) in series.iter().enumerate() {
                    let fresh = exact(&model, &LeaderElection, &alpha, i + 1);
                    assert!(
                        p.to_bits() == fresh.to_bits(),
                        "{model} {sizes:?} t={}: {p} vs {fresh}",
                        i + 1
                    );
                }
            }
        }
    }

    #[test]
    fn cache_replays_bit_identical_values() {
        let mut cache = Cache::new();
        let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
        let first = exact_series_cached(&mut cache, &Model::Blackboard, &LeaderElection, &alpha, 4);
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.len(), 4);
        // A longer series extends the cached prefix: 4 hits + 2 misses.
        let longer =
            exact_series_cached(&mut cache, &Model::Blackboard, &LeaderElection, &alpha, 6);
        assert_eq!(cache.hits(), 4);
        assert_eq!(cache.misses(), 6);
        assert_eq!(&longer[..4], &first[..]);
        for (i, &p) in longer.iter().enumerate() {
            let fresh = exact(&Model::Blackboard, &LeaderElection, &alpha, i + 1);
            assert_eq!(p.to_bits(), fresh.to_bits(), "t={}", i + 1);
        }
    }

    #[test]
    fn cache_key_distinguishes_model_task_and_alpha() {
        let mut cache = Cache::new();
        let a12 = Assignment::from_group_sizes(&[1, 2]).unwrap();
        let a111 = Assignment::from_group_sizes(&[1, 1, 1]).unwrap();
        let two = KLeaderElection::new(2);
        let mp = Model::message_passing_cyclic(3);
        let points: Vec<f64> = vec![
            exact_cached(&mut cache, &Model::Blackboard, &LeaderElection, &a12, 2),
            exact_cached(&mut cache, &Model::Blackboard, &LeaderElection, &a111, 2),
            exact_cached(&mut cache, &Model::Blackboard, &two, &a111, 2),
            exact_cached(&mut cache, &mp, &LeaderElection, &a111, 2),
        ];
        assert_eq!(cache.len(), 4, "four distinct keys, no collisions");
        assert_eq!(cache.misses(), 4);
        // Replays hit and agree.
        assert_eq!(
            exact_cached(&mut cache, &mp, &LeaderElection, &a111, 2).to_bits(),
            points[3].to_bits()
        );
        assert_eq!(cache.hits(), 1);
        assert_eq!(
            cache.peek(&Model::Blackboard, &LeaderElection, &a12, 2),
            Some(points[0])
        );
        assert_eq!(
            cache.peek(&Model::Blackboard, &LeaderElection, &a12, 3),
            None
        );
    }
}
