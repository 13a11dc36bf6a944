//! The declarative parallel sweep engine behind every `exp_*` binary.
//!
//! The paper's results are verified by exhaustive sweeps over
//! `(model × task × α × t)`. [`SweepSpec`] describes such a sweep
//! declaratively; [`SweepEngine`] executes it with three shared
//! mechanisms the hand-rolled per-bin loops never had:
//!
//! * **memoization** — every exact probability point goes through one
//!   process-wide [`rsbt_core::probability::Cache`], so overlapping points
//!   across report sections (and across specs in one binary) are computed
//!   once;
//! * **parallel fan-out** — uncached points are computed on
//!   [`rsbt_sim::pool::map_with_arena`] workers (per-worker arenas, the
//!   pattern proven bit-identical by `probability::exact_parallel`) and
//!   merged back in deterministic point order, never completion order;
//! * **one-pass series** — a worker computes each point's whole
//!   `p(1..t_max)` series from a *single* exact sweep
//!   (`probability::exact_series` tallies solved counts at every depth),
//!   and its arena persists across the chunk so shared knowledge
//!   prefixes are interned once.
//!
//! The engine's numbers are bit-identical to serial
//! [`rsbt_core::probability::exact`] (asserted by the determinism tests in
//! `tests/engine.rs`).

use std::ops::RangeInclusive;

use rsbt_core::eventual::{self, LimitClass};
use rsbt_core::probability::{self, Cache, Estimate};
use rsbt_random::Assignment;
use rsbt_sim::{pool, FaultSpec, KnowledgeArena, Model, PortNumbering};
use rsbt_tasks::Task;

use crate::report::Json;
use crate::Table;
use crate::{fmt_p, fmt_sizes};

/// A model family, instantiated per assignment (port numberings depend on
/// `n` and, for the adversarial construction, on `gcd(n_1..n_k)`).
pub struct ModelSpec {
    label: String,
    make: Box<dyn Fn(&Assignment) -> Model + Send + Sync>,
}

impl ModelSpec {
    /// The anonymous shared blackboard.
    pub fn blackboard() -> Self {
        ModelSpec::custom("blackboard", |_| Model::Blackboard)
    }

    /// Message passing with the canonical cyclic numbering.
    pub fn cyclic_ports() -> Self {
        ModelSpec::custom("cyclic ports", |alpha| {
            Model::message_passing_cyclic(alpha.n())
        })
    }

    /// Message passing with the Lemma 4.3 adversarial numbering for the
    /// assignment's actual `gcd(n_1..n_k)`.
    pub fn adversarial_ports() -> Self {
        ModelSpec::custom("adversarial ports", |alpha| {
            Model::MessagePassing(PortNumbering::adversarial(
                alpha.n(),
                alpha.gcd_of_group_sizes() as usize,
            ))
        })
    }

    /// An arbitrary labeled model constructor.
    pub fn custom<S, F>(label: S, make: F) -> Self
    where
        S: Into<String>,
        F: Fn(&Assignment) -> Model + Send + Sync + 'static,
    {
        ModelSpec {
            label: label.into(),
            make: Box::new(make),
        }
    }
}

/// A task family, instantiated per system size `n` (tasks like
/// `LeaderAndDeputy::unconstrained(n)` depend on `n`; fixed tasks ignore
/// it).
pub struct TaskSpec {
    make: Box<dyn Fn(usize) -> Box<dyn Task + Send + Sync> + Send + Sync>,
}

impl TaskSpec {
    /// A task family from an explicit per-`n` constructor.
    pub fn new<F>(make: F) -> Self
    where
        F: Fn(usize) -> Box<dyn Task + Send + Sync> + Send + Sync + 'static,
    {
        TaskSpec {
            make: Box::new(make),
        }
    }

    /// A size-independent task, cloned for every sweep point.
    pub fn fixed<T: Task + Clone + Send + Sync + 'static>(task: T) -> Self {
        TaskSpec::new(move |_| Box::new(task.clone()))
    }
}

/// A thread-safe predicate over assignments (filters and theorem checks).
type AlphaPredicate = Box<dyn Fn(&Assignment) -> bool + Send + Sync>;

/// The Monte-Carlo estimator configuration of a sweep
/// ([`SweepSpec::mc`]): rows whose exact series would exceed the
/// enumeration bit budget are estimated instead of clamped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct McSweep {
    /// Samples per estimated point.
    pub samples: usize,
    /// Base seed of the per-point stream families (each point derives a
    /// distinct deterministic seed from this plus its own identity, so
    /// adding or reordering points never reshuffles another point's
    /// draws).
    pub seed: u64,
}

/// A declarative sweep: `models × tasks × group-size profiles of
/// `n ∈ n_range` × t ∈ 1..=t_max(α)`, with `t_max(α) =
/// clamp(t_cap, bit_budget / k(α))` keeping every point inside the exact
/// enumerator's `2^{k·t}` budget — unless a Monte-Carlo estimator is
/// attached ([`SweepSpec::mc`]), in which case rows that the budget
/// would clamp run to the full `t_cap` as estimated (`mode: "mc"`) rows.
pub struct SweepSpec {
    models: Vec<ModelSpec>,
    tasks: Vec<TaskSpec>,
    n_range: RangeInclusive<usize>,
    t_cap: usize,
    bit_budget: usize,
    mc: Option<McSweep>,
    faults: Vec<(f64, f64)>,
    filter: Option<AlphaPredicate>,
    predicate: Option<AlphaPredicate>,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec::new()
    }
}

impl SweepSpec {
    /// A spec with the bins' common defaults: blackboard, `n ∈ 2..=6`,
    /// `t ≤ 3`, 16 enumeration bits — no tasks yet.
    pub fn new() -> Self {
        SweepSpec {
            models: Vec::new(),
            tasks: Vec::new(),
            n_range: 2..=6,
            t_cap: 3,
            bit_budget: 16,
            mc: None,
            faults: Vec::new(),
            filter: None,
            predicate: None,
        }
    }

    /// Adds a model family (defaults to blackboard if none added).
    pub fn model(mut self, model: ModelSpec) -> Self {
        self.models.push(model);
        self
    }

    /// Adds a task family.
    pub fn task(mut self, task: TaskSpec) -> Self {
        self.tasks.push(task);
        self
    }

    /// Sets the range of node counts swept.
    pub fn nodes(mut self, n_range: RangeInclusive<usize>) -> Self {
        self.n_range = n_range;
        self
    }

    /// Sets the cap on the series length `t_max`.
    pub fn t_cap(mut self, t_cap: usize) -> Self {
        self.t_cap = t_cap;
        self
    }

    /// Sets the exact-enumeration bit budget (`k·t ≤ bit_budget`).
    pub fn bit_budget(mut self, bit_budget: usize) -> Self {
        self.bit_budget = bit_budget;
        self
    }

    /// Attaches a Monte-Carlo estimator: rows the bit budget would clamp
    /// run to the full `t_cap` as estimated rows instead (deterministic
    /// per-sample streams, so the sweep stays bit-identical for any
    /// worker count).
    pub fn mc(mut self, mc: McSweep) -> Self {
        assert!(mc.samples > 0, "mc sweep needs at least one sample");
        self.mc = Some(mc);
        self
    }

    /// Adds a fault dimension: every `(task, model, α)` triple is swept
    /// once per `(crash, omission)` per-round rate pair, on top of (not
    /// instead of) its fault-free row. Fault rows always run the full
    /// `t_cap` series on the faulted bit-sliced Monte-Carlo kernel —
    /// random fault schedules have no exact enumerator — so the spec
    /// must also attach [`SweepSpec::mc`]. The `(0.0, 0.0)` point is
    /// allowed and routes through the faulted kernel too, where it is
    /// bit-identical to the fault-free estimator (the PR 8 invariant).
    ///
    /// # Panics
    ///
    /// Panics when a rate is outside `[0, 1]`.
    pub fn faults(mut self, points: Vec<(f64, f64)>) -> Self {
        for &(crash, omission) in &points {
            assert!(
                (0.0..=1.0).contains(&crash) && (0.0..=1.0).contains(&omission),
                "fault rates must be probabilities, got ({crash}, {omission})"
            );
        }
        self.faults = points;
        self
    }

    /// Restricts the sweep to assignments accepted by `filter`.
    pub fn filter<F>(mut self, filter: F) -> Self
    where
        F: Fn(&Assignment) -> bool + Send + Sync + 'static,
    {
        self.filter = Some(Box::new(filter));
        self
    }

    /// Attaches the theorem's predicted eventual-solvability predicate;
    /// every row then carries `predicted` and `matches` columns.
    pub fn predicate<F>(mut self, predicate: F) -> Self
    where
        F: Fn(&Assignment) -> bool + Send + Sync + 'static,
    {
        self.predicate = Some(Box::new(predicate));
        self
    }

    /// The series length for one assignment under this spec's budget.
    pub fn t_max(&self, alpha: &Assignment) -> usize {
        self.t_cap.min(self.bit_budget / alpha.k().max(1)).max(1)
    }

    /// How one assignment's row is produced: `(t_max, estimated)`. Exact
    /// rows keep the clamped [`SweepSpec::t_max`]; with an estimator
    /// attached, any row the budget would clamp below `t_cap` instead
    /// runs the full series by Monte-Carlo.
    pub fn row_plan(&self, alpha: &Assignment) -> (usize, bool) {
        let exact_reach = self.bit_budget / alpha.k().max(1);
        match self.mc {
            Some(_) if self.t_cap > exact_reach => (self.t_cap, true),
            _ => (self.t_max(alpha), false),
        }
    }
}

/// How a sweep row's series was produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowMode {
    /// Exact integer counts, within the tree engines' historical reach
    /// (`k·t ≤` [`probability::TREE_EXACT_BITS`]).
    Exact,
    /// Exact integer counts that only the quotient DP engine can produce
    /// (`k·t >` [`probability::TREE_EXACT_BITS`], up to the 126-bit
    /// dyadic budget). Same exactness contract as [`RowMode::Exact`] —
    /// the tag exists so report consumers can tell which rows the old
    /// engine could not have emitted.
    ExactDp,
    /// Deterministic parallel Monte-Carlo estimation.
    Mc,
}

impl RowMode {
    /// The schema string (`"exact"` / `"exact-dp"` / `"mc"`).
    pub fn as_str(self) -> &'static str {
        match self {
            RowMode::Exact => "exact",
            RowMode::ExactDp => "exact-dp",
            RowMode::Mc => "mc",
        }
    }

    /// Whether the row's series is exact integer ratios (either exact
    /// tag) rather than estimated.
    pub fn is_exact(self) -> bool {
        self != RowMode::Mc
    }
}

/// The estimator companion data of a Monte-Carlo row.
#[derive(Clone, Debug, PartialEq)]
pub struct McRow {
    /// Samples drawn per series point.
    pub samples: usize,
    /// The row's derived stream-family seed — shared by every `t` of the
    /// series, so sample `i` at time `t` is the `t`-round prefix of
    /// sample `i` at any later time (common random numbers: the
    /// estimated series is exactly monotone, and the per-`t` estimates
    /// are positively correlated, shrinking the series' relative noise).
    pub seed: u64,
    /// Lower 95% Wilson bounds, parallel to `series`.
    pub ci_lo: Vec<f64>,
    /// Upper 95% Wilson bounds, parallel to `series`.
    pub ci_hi: Vec<f64>,
}

/// One sweep point's result: the `p(1..t_max)` series for a
/// `(model, task, α)` triple plus its zero-one-law classification.
///
/// The classification stays sound for estimated rows: any positive
/// estimate means some sample solved, i.e. a positive-probability
/// solving realization exists — exactly a Lemma 3.2 witness, so the
/// limit is 1 regardless of the estimate's noise.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepRow {
    /// Model label from the [`ModelSpec`].
    pub model: String,
    /// Task name ([`Task::name`]).
    pub task: String,
    /// Group sizes `n_1..n_k` of the assignment.
    pub sizes: Vec<usize>,
    /// Node count `n`.
    pub n: usize,
    /// Source count `k`.
    pub k: usize,
    /// `gcd(n_1..n_k)` (Theorem 4.2's quantity).
    pub gcd: u64,
    /// Probabilities `p(1), …, p(t_max)` (exact or estimated per `mode`).
    pub series: Vec<f64>,
    /// Zero-one-law classification of the series.
    pub limit: LimitClass,
    /// How the series was produced.
    pub mode: RowMode,
    /// Estimator companion data (`mode == Mc` rows only).
    pub mc: Option<McRow>,
    /// Per-round crash probability (fault-dimension rows only).
    pub crash: Option<f64>,
    /// Per-round omission probability (fault-dimension rows only).
    pub omission: Option<f64>,
    /// The spec predicate's verdict, when one was attached.
    pub predicted: Option<bool>,
    /// Whether the observed limit matches `predicted`.
    pub matches: Option<bool>,
}

impl SweepRow {
    /// Whether the series is monotone non-decreasing (Lemma 3.2 requires
    /// it; exposed so bins can assert it per row).
    pub fn is_monotone(&self) -> bool {
        self.series.windows(2).all(|w| w[1] >= w[0] - 1e-12)
    }

    /// `p(t)` formatted for a table cell, `-` when beyond the series.
    pub fn p_at(&self, t: usize) -> String {
        self.series
            .get(t - 1)
            .map(|p| fmt_p(*p))
            .unwrap_or_else(|| "-".into())
    }

    /// The limit classification as a short string.
    pub fn limit_str(&self) -> String {
        format!("{:?}", self.limit)
    }

    /// The typed JSON object for the report schema.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("model".to_string(), Json::Str(self.model.clone())),
            ("task".to_string(), Json::Str(self.task.clone())),
            (
                "sizes".to_string(),
                Json::Arr(self.sizes.iter().map(|&s| Json::Int(s as i64)).collect()),
            ),
            ("n".to_string(), Json::Int(self.n as i64)),
            ("k".to_string(), Json::Int(self.k as i64)),
            ("gcd".to_string(), Json::Int(self.gcd as i64)),
            (
                "series".to_string(),
                Json::Arr(self.series.iter().map(|&p| Json::Num(p)).collect()),
            ),
            ("limit".to_string(), Json::Str(self.limit_str())),
            ("mode".to_string(), Json::Str(self.mode.as_str().into())),
        ];
        if let Some(mc) = &self.mc {
            pairs.push(("samples".to_string(), Json::Int(mc.samples as i64)));
            // The seed is a full-range u64 (half of all FNV-derived seeds
            // exceed i64::MAX, and JSON integers past 2^53 are hazardous
            // for generic tooling anyway): emit it as a decimal string so
            // the reproduction key round-trips exactly.
            pairs.push(("seed".to_string(), Json::Str(mc.seed.to_string())));
            pairs.push((
                "ci_lo".to_string(),
                Json::Arr(mc.ci_lo.iter().map(|&p| Json::Num(p)).collect()),
            ));
            pairs.push((
                "ci_hi".to_string(),
                Json::Arr(mc.ci_hi.iter().map(|&p| Json::Num(p)).collect()),
            ));
        }
        if let Some(crash) = self.crash {
            pairs.push(("crash".to_string(), Json::Num(crash)));
        }
        if let Some(omission) = self.omission {
            pairs.push(("omission".to_string(), Json::Num(omission)));
        }
        if let Some(p) = self.predicted {
            pairs.push(("predicted".to_string(), Json::Bool(p)));
        }
        if let Some(m) = self.matches {
            pairs.push(("matches".to_string(), Json::Bool(m)));
        }
        Json::Obj(pairs)
    }
}

/// The standard text rendering of sweep rows: model/task columns only when
/// they vary, `p(1..4)` capped, predicted/matches only when present.
pub fn standard_table(rows: &[SweepRow]) -> Table {
    let varies = |f: fn(&SweepRow) -> &str| rows.windows(2).any(|w| f(&w[0]) != f(&w[1]));
    let show_model = varies(|r| &r.model);
    let show_task = varies(|r| &r.task);
    let show_predicted = rows.iter().any(|r| r.predicted.is_some());
    let show_mode = rows.iter().any(|r| r.mode != RowMode::Exact);
    let show_fault = rows.iter().any(|r| r.crash.is_some());
    let series_cols = rows
        .iter()
        .map(|r| r.series.len())
        .max()
        .unwrap_or(0)
        .min(4);
    let mut headers = Vec::new();
    if show_model {
        headers.push("model".to_string());
    }
    if show_task {
        headers.push("task".to_string());
    }
    headers.push("sizes".to_string());
    headers.push("gcd".to_string());
    if show_mode {
        headers.push("mode".to_string());
    }
    if show_fault {
        headers.push("crash".to_string());
        headers.push("omission".to_string());
    }
    if show_predicted {
        headers.push("predicted".to_string());
    }
    for t in 1..=series_cols {
        headers.push(format!("p({t})"));
    }
    headers.push("limit".to_string());
    if show_predicted {
        headers.push("matches".to_string());
    }
    let mut table = Table::new(headers);
    for r in rows {
        let mut cells = Vec::new();
        if show_model {
            cells.push(r.model.clone());
        }
        if show_task {
            cells.push(r.task.clone());
        }
        cells.push(fmt_sizes(&r.sizes));
        cells.push(r.gcd.to_string());
        if show_mode {
            cells.push(r.mode.as_str().to_string());
        }
        if show_fault {
            let rate = |v: Option<f64>| v.map(|p| format!("{p:.2}")).unwrap_or_else(|| "-".into());
            cells.push(rate(r.crash));
            cells.push(rate(r.omission));
        }
        if show_predicted {
            cells.push(
                r.predicted
                    .map(|p| p.to_string())
                    .unwrap_or_else(|| "-".into()),
            );
        }
        for t in 1..=series_cols {
            cells.push(r.p_at(t));
        }
        cells.push(r.limit_str());
        if show_predicted {
            cells.push(
                r.matches
                    .map(|m| m.to_string())
                    .unwrap_or_else(|| "-".into()),
            );
        }
        table.row(cells);
    }
    table
}

/// One expanded sweep point, ready for a worker.
struct Point {
    model: Model,
    model_label: String,
    task: Box<dyn Task + Send + Sync>,
    /// [`Task::name`] computed once at expansion, so the per-`t` cache
    /// lookups below are allocation-free.
    task_name: String,
    alpha: Assignment,
    t_max: usize,
    /// Whether this row is estimated instead of enumerated.
    mc: bool,
    /// `(crash, omission)` per-round rates for fault-dimension rows.
    fault: Option<(f64, f64)>,
    predicted: Option<bool>,
}

/// Derives one sweep point's stream-family seed from the spec's base
/// seed and the point's full identity (FNV-1a over the label strings and
/// sizes, folded with the base seed). Stable across processes, thread
/// counts, and sweep composition: adding or removing other points never
/// changes this point's draws.
pub(crate) fn point_seed(base: u64, model_label: &str, task_name: &str, sizes: &[usize]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
    let mut absorb = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3); // FNV-1a prime
        }
    };
    absorb(model_label.as_bytes());
    absorb(&[0xff]);
    absorb(task_name.as_bytes());
    absorb(&[0xff]);
    for &s in sizes {
        absorb(&(s as u64).to_le_bytes());
    }
    h ^ base
}

/// The executor: a probability cache, a shared arena for serial one-off
/// evaluations, and a worker budget for sweep fan-out.
pub struct SweepEngine {
    threads: usize,
    cache: Cache,
    arena: KnowledgeArena,
    sweep_hits: u64,
    sweep_misses: u64,
    mc_stats: probability::McStats,
    mc_samples_override: Option<usize>,
    mc_seed_override: Option<u64>,
}

/// The default worker count: available parallelism, capped at 8 (sweep
/// points are short; beyond that spawn overhead dominates).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(8)
}

impl SweepEngine {
    /// Creates an engine with an explicit worker count.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "need at least one worker");
        SweepEngine {
            threads,
            cache: Cache::new(),
            arena: KnowledgeArena::new(),
            sweep_hits: 0,
            sweep_misses: 0,
            mc_stats: probability::McStats::default(),
            mc_samples_override: None,
            mc_seed_override: None,
        }
    }

    /// Overrides the sample count and/or base seed of every Monte-Carlo
    /// sweep mode in subsequent [`SweepEngine::sweep`] calls (the CLI's
    /// `--samples`/`--seed` flags; `None` keeps the spec's value). The
    /// per-point stream seed is still derived via the usual
    /// spec-base-seed hashing, so overriding the seed re-keys every
    /// point coherently.
    pub fn set_mc_overrides(&mut self, samples: Option<usize>, seed: Option<u64>) {
        if let Some(s) = samples {
            assert!(s >= 1, "sample override must be at least 1");
        }
        self.mc_samples_override = samples;
        self.mc_seed_override = seed;
    }

    /// Aggregated verdict-path counters of every estimated (Monte-Carlo)
    /// sweep point run so far. Estimated rows run on the bit-sliced
    /// kernel, so `lane_words` counts the 64-sample words processed;
    /// `peeled_lanes` and `dense_scan_verdicts` stay zero whenever all
    /// swept tasks compile lane plans (asserted by `tests/engine.rs`).
    pub fn mc_stats(&self) -> probability::McStats {
        self.mc_stats
    }

    /// The worker count sweeps fan out over.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The engine's shared knowledge arena, for bins running their own
    /// enumeration checks (interning stays amortized across sections).
    pub fn arena(&mut self) -> &mut KnowledgeArena {
        &mut self.arena
    }

    /// Total cached points / hits / misses across every evaluation path.
    pub fn cache_stats(&self) -> (u64, u64, usize) {
        (
            self.cache.hits() + self.sweep_hits,
            self.cache.misses() + self.sweep_misses,
            self.cache.len(),
        )
    }

    /// Cached exact `Pr[S(t) | α]` (serial path, engine arena).
    pub fn exact<T: Task + ?Sized>(
        &mut self,
        model: &Model,
        task: &T,
        alpha: &Assignment,
        t: usize,
    ) -> f64 {
        probability::exact_cached(&mut self.cache, model, task, alpha, t, &mut self.arena)
    }

    /// Cached exact series `p(1..t_max)` (serial path, engine arena).
    pub fn exact_series<T: Task + ?Sized>(
        &mut self,
        model: &Model,
        task: &T,
        alpha: &Assignment,
        t_max: usize,
    ) -> Vec<f64> {
        probability::exact_series_cached(
            &mut self.cache,
            model,
            task,
            alpha,
            t_max,
            &mut self.arena,
        )
    }

    /// Executes a declarative sweep: expands the spec, answers cached
    /// points from memory, fans uncached points out over per-worker-arena
    /// threads, merges deterministically, and returns one row per
    /// `(task, model, α)` triple in expansion order.
    pub fn sweep(&mut self, spec: &SweepSpec) -> Vec<SweepRow> {
        let default_model = [ModelSpec::blackboard()];
        let models: &[ModelSpec] = if spec.models.is_empty() {
            &default_model
        } else {
            &spec.models
        };
        assert!(!spec.tasks.is_empty(), "sweep spec needs at least one task");
        assert!(
            spec.faults.is_empty() || spec.mc.is_some(),
            "a fault dimension needs a Monte-Carlo estimator (SweepSpec::mc): \
             random fault schedules have no exact enumerator"
        );

        let mut points = Vec::new();
        for tspec in &spec.tasks {
            for mspec in models {
                for n in spec.n_range.clone() {
                    for alpha in Assignment::iter_profiles(n) {
                        if spec.filter.as_ref().is_some_and(|f| !f(&alpha)) {
                            continue;
                        }
                        let predicted = spec.predicate.as_ref().map(|p| p(&alpha));
                        // The fault-free row, then one row per fault point
                        // (always estimated: faults force the MC kernel).
                        let plans = std::iter::once(None)
                            .chain(spec.faults.iter().map(|&f| Some(f)))
                            .map(|fault| match fault {
                                None => (spec.row_plan(&alpha), None),
                                Some(f) => ((spec.t_cap, true), Some(f)),
                            });
                        for ((t_max, mc), fault) in plans {
                            let task = (tspec.make)(n);
                            points.push(Point {
                                model: (mspec.make)(&alpha),
                                model_label: mspec.label.clone(),
                                task_name: task.name().into_owned(),
                                task,
                                t_max,
                                mc,
                                fault,
                                predicted,
                                alpha: alpha.clone(),
                            });
                        }
                    }
                }
            }
        }

        // Split cached from uncached at per-t granularity: a point whose
        // prefix was already warmed (e.g. by an earlier `exact()` call)
        // only dispatches its missing suffix, and the hit/miss statistics
        // count exactly what was answered from memory vs computed. The
        // lookups borrow every key component (`peek_named`) — no
        // allocation per probed `t`.
        let mut missing: Vec<(&Point, Vec<usize>)> = Vec::new();
        for p in points.iter().filter(|p| !p.mc) {
            let missing_ts: Vec<usize> = (1..=p.t_max)
                .filter(|&t| {
                    self.cache
                        .peek_named(&p.model, &p.task_name, p.alpha.sources(), t)
                        .is_none()
                })
                .collect();
            self.sweep_hits += (p.t_max - missing_ts.len()) as u64;
            self.sweep_misses += missing_ts.len() as u64;
            if !missing_ts.is_empty() {
                missing.push((p, missing_ts));
            }
        }

        // Parallel fan-out with per-worker arenas: each worker runs ONE
        // execution-tree traversal per point (deep enough for the deepest
        // missing t), reading the whole series off the per-depth tallies —
        // never one enumeration per t.
        let computed = pool::map_with_arena(&missing, self.threads, |arena, (p, ts)| {
            let deepest = *ts.last().expect("missing points have at least one t");
            probability::exact_series_with_arena(
                &p.model,
                p.task.as_ref(),
                &p.alpha,
                deepest,
                arena,
            )
        });

        // Deterministic merge: point order, never completion order.
        for ((p, ts), series) in missing.iter().zip(&computed) {
            for &t in ts {
                self.cache.insert_named(
                    &p.model,
                    &p.task_name,
                    p.alpha.sources(),
                    t,
                    series[t - 1],
                );
            }
        }

        points
            .iter()
            .map(|p| {
                let (series, mc) = if p.mc {
                    let base = spec.mc.expect("mc points imply an mc spec");
                    let eff = McSweep {
                        samples: self.mc_samples_override.unwrap_or(base.samples),
                        seed: self.mc_seed_override.unwrap_or(base.seed),
                    };
                    self.estimate_point(p, eff)
                } else {
                    let series = (1..=p.t_max)
                        .map(|t| {
                            self.cache
                                .peek_named(&p.model, &p.task_name, p.alpha.sources(), t)
                                .expect("merged above")
                        })
                        .collect();
                    (series, None)
                };
                let limit = eventual::lemma_3_2_limit(&series);
                let matches = p.predicted.map(|pred| pred == (limit == LimitClass::One));
                SweepRow {
                    model: p.model_label.clone(),
                    task: p.task_name.clone(),
                    sizes: p.alpha.group_sizes().to_vec(),
                    n: p.alpha.n(),
                    k: p.alpha.k(),
                    gcd: p.alpha.gcd_of_group_sizes(),
                    series,
                    limit,
                    mode: if p.mc {
                        RowMode::Mc
                    } else if p.alpha.k() * p.t_max > probability::TREE_EXACT_BITS {
                        RowMode::ExactDp
                    } else {
                        RowMode::Exact
                    },
                    mc,
                    crash: p.fault.map(|(crash, _)| crash),
                    omission: p.fault.map(|(_, omission)| omission),
                    predicted: p.predicted,
                    matches,
                }
            })
            .collect()
    }

    /// Estimates one Monte-Carlo row's whole series in **one** sampling
    /// pass on the bit-sliced kernel
    /// ([`probability::monte_carlo_bitsliced_series`]): sample `i` at
    /// time `t` is the prefix of sample `i` at `t + 1`, so the series is
    /// exactly monotone, and the estimator is bit-identical for any
    /// worker count — and to the PR 5 scalar kernel on the same seed —
    /// so the row is a pure function of the spec.
    fn estimate_point(&mut self, p: &Point, mc: McSweep) -> (Vec<f64>, Option<McRow>) {
        let seed = point_seed(mc.seed, &p.model_label, &p.task_name, p.alpha.group_sizes());
        // Fault rows share the fault-free row's seed on purpose: the
        // source draws are common random numbers across the whole fault
        // grid, so degradation curves vary only through the schedules.
        let (estimates, stats): (Vec<Estimate>, _) = match p.fault {
            None => probability::monte_carlo_bitsliced_series_with_stats(
                &p.model,
                p.task.as_ref(),
                &p.alpha,
                p.t_max,
                mc.samples,
                seed,
                self.threads,
            ),
            Some((crash, omission)) => {
                probability::monte_carlo_bitsliced_series_faulted_with_stats(
                    &p.model,
                    p.task.as_ref(),
                    &p.alpha,
                    p.t_max,
                    mc.samples,
                    seed,
                    self.threads,
                    &FaultSpec::rates(crash, omission),
                )
            }
        };
        self.mc_stats.merge(&stats);
        (
            estimates.iter().map(|e| e.p).collect(),
            Some(McRow {
                samples: mc.samples,
                seed,
                ci_lo: estimates.iter().map(|e| e.ci_lo).collect(),
                ci_hi: estimates.iter().map(|e| e.ci_hi).collect(),
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsbt_tasks::LeaderElection;

    fn le_spec() -> SweepSpec {
        SweepSpec::new()
            .task(TaskSpec::fixed(LeaderElection))
            .nodes(2..=5)
            .predicate(eventual::blackboard_eventually_solvable)
    }

    #[test]
    fn sweep_matches_theorem_4_1() {
        let mut engine = SweepEngine::new(2);
        let rows = engine.sweep(&le_spec());
        assert!(!rows.is_empty());
        assert!(rows.iter().all(|r| r.matches == Some(true)));
        assert!(rows.iter().all(|r| r.is_monotone()));
    }

    #[test]
    fn second_sweep_is_fully_cached() {
        let mut engine = SweepEngine::new(2);
        let first = engine.sweep(&le_spec());
        let (_, misses_after_first, points) = engine.cache_stats();
        let second = engine.sweep(&le_spec());
        let (hits, misses, points_after) = engine.cache_stats();
        assert_eq!(first, second, "replay must be bit-identical");
        assert_eq!(misses, misses_after_first, "no new computation");
        assert_eq!(points, points_after);
        assert!(hits >= misses_after_first);
    }

    #[test]
    fn standard_table_hides_constant_columns() {
        let mut engine = SweepEngine::new(1);
        let rows = engine.sweep(&le_spec());
        let table = standard_table(&rows);
        let text = table.to_string();
        assert!(!text.contains("blackboard"), "constant model column hidden");
        assert!(text.contains("predicted"));
        assert!(text.contains("matches"));
    }

    #[test]
    fn partially_cached_points_only_compute_missing_suffix() {
        // Warm t = 1, 2 of the [2,1] profile through the serial path.
        let mut engine = SweepEngine::new(2);
        let alpha = Assignment::from_group_sizes(&[2, 1]).unwrap();
        engine.exact(&Model::Blackboard, &LeaderElection, &alpha, 1);
        engine.exact(&Model::Blackboard, &LeaderElection, &alpha, 2);
        let (_, misses_before, _) = engine.cache_stats();
        assert_eq!(misses_before, 2);

        // Profiles of n = 3: [3], [2,1], [1,1,1], each with t_max = 3.
        let spec = SweepSpec::new()
            .task(TaskSpec::fixed(LeaderElection))
            .nodes(3..=3)
            .t_cap(3)
            .bit_budget(12);
        let rows = engine.sweep(&spec);
        let (hits, misses, points) = engine.cache_stats();
        assert_eq!(hits, 2, "warmed prefix answered from memory");
        assert_eq!(misses, 2 + 7, "only the 7 uncached points computed");
        assert_eq!(points, 9);

        // And the suffix-only path is bit-identical to a cold engine.
        let cold = SweepEngine::new(2).sweep(&spec);
        assert_eq!(rows, cold);
    }

    #[test]
    fn exact_dp_mode_tags_rows_past_the_tree_wall() {
        // k = 2 at t_cap = 20 under a 126-bit budget: k·t = 40 >
        // TREE_EXACT_BITS = 30 — exact integer counts only the quotient
        // engine can produce, tagged so report consumers can tell.
        let spec = SweepSpec::new()
            .task(TaskSpec::fixed(LeaderElection))
            .nodes(3..=3)
            .t_cap(20)
            .bit_budget(126)
            .filter(|alpha| alpha.k() == 2);
        let mut engine = SweepEngine::new(2);
        let rows = engine.sweep(&spec);
        assert!(!rows.is_empty());
        for r in &rows {
            assert_eq!(r.mode, RowMode::ExactDp, "{:?}", r.sizes);
            assert!(r.mode.is_exact());
            assert!(r.mc.is_none(), "exact-dp rows carry no estimator data");
            assert_eq!(r.series.len(), 20);
        }
        // [2,1]: one singleton among two sources, p(t) = 1 − 2^{−t} —
        // exactly representable, so the check is bitwise.
        let r = rows.iter().find(|r| r.sizes == vec![2, 1]).unwrap();
        assert_eq!(r.series[19].to_bits(), (1.0 - 0.5f64.powi(20)).to_bits());
        // Any non-plain-exact row makes the mode column visible.
        let text = standard_table(&rows).to_string();
        assert!(text.contains("exact-dp"));
    }

    #[test]
    fn t_max_respects_bit_budget() {
        let spec = SweepSpec::new().t_cap(5).bit_budget(12);
        let a = Assignment::from_group_sizes(&[1, 1, 1, 1]).unwrap(); // k=4
        assert_eq!(spec.t_max(&a), 3);
        let b = Assignment::shared(4); // k=1
        assert_eq!(spec.t_max(&b), 5);
    }

    /// `n = 4`, `t_cap = 4`, budget 8: `k ≤ 2` rows stay exact, `k ≥ 3`
    /// rows overflow the budget and are estimated.
    fn mixed_mode_spec() -> SweepSpec {
        SweepSpec::new()
            .task(TaskSpec::fixed(LeaderElection))
            .nodes(4..=4)
            .t_cap(4)
            .bit_budget(8)
            .mc(McSweep {
                samples: 2_000,
                seed: 7,
            })
            .predicate(eventual::blackboard_eventually_solvable)
    }

    #[test]
    fn mc_mode_opens_rows_beyond_the_bit_budget() {
        let mut engine = SweepEngine::new(2);
        let rows = engine.sweep(&mixed_mode_spec());
        let exact_rows: Vec<_> = rows.iter().filter(|r| r.mode == RowMode::Exact).collect();
        let mc_rows: Vec<_> = rows.iter().filter(|r| r.mode == RowMode::Mc).collect();
        assert!(!exact_rows.is_empty() && !mc_rows.is_empty(), "mixed modes");
        for r in &rows {
            assert_eq!(r.series.len(), 4, "every row runs to t_cap");
            assert_eq!(r.mode == RowMode::Mc, r.k >= 3, "{:?}", r.sizes);
            assert_eq!(r.mc.is_some(), r.mode == RowMode::Mc);
            assert!(
                r.is_monotone(),
                "CRN series must be monotone: {:?}",
                r.sizes
            );
            // Zero-one classification stays right even on estimates (a
            // solved sample is a Lemma 3.2 witness).
            assert_eq!(r.matches, Some(true), "{:?}", r.sizes);
        }
        for r in &mc_rows {
            let mc = r.mc.as_ref().unwrap();
            assert_eq!(mc.samples, 2_000);
            assert_eq!(mc.ci_lo.len(), 4);
            assert_eq!(mc.ci_hi.len(), 4);
            for (i, &p) in r.series.iter().enumerate() {
                assert!(
                    mc.ci_lo[i] <= p && p <= mc.ci_hi[i],
                    "{:?} t={}: {p} outside [{}, {}]",
                    r.sizes,
                    i + 1,
                    mc.ci_lo[i],
                    mc.ci_hi[i]
                );
            }
        }
        // Estimated points bracket the exact value where both are
        // computable ([1,1,2] at t = 2 is inside the exact budget).
        let r = rows
            .iter()
            .find(|r| r.sizes == vec![2, 1, 1] && r.mode == RowMode::Mc)
            .expect("k = 3 row is estimated");
        let alpha = Assignment::from_group_sizes(&[2, 1, 1]).unwrap();
        let exact = probability::exact(&Model::Blackboard, &LeaderElection, &alpha, 2);
        let mc = r.mc.as_ref().unwrap();
        assert!(
            mc.ci_lo[1] <= exact && exact <= mc.ci_hi[1],
            "exact {exact} outside [{}, {}]",
            mc.ci_lo[1],
            mc.ci_hi[1]
        );
        // Counters: built-in tasks compile lane plans, so every sample
        // runs bit-sliced — no peeling, no dense fallback.
        let stats = engine.mc_stats();
        assert!(stats.lane_words > 0);
        assert_eq!(stats.peeled_lanes, 0);
        assert_eq!(stats.dense_scan_verdicts, 0);
    }

    #[test]
    fn mc_overrides_rekey_and_resize_estimated_rows() {
        let mut engine = SweepEngine::new(2);
        engine.set_mc_overrides(Some(512), Some(99));
        let rows = engine.sweep(&mixed_mode_spec());
        let mut saw_mc = false;
        for r in rows.iter().filter(|r| r.mode == RowMode::Mc) {
            saw_mc = true;
            let mc = r.mc.as_ref().unwrap();
            assert_eq!(mc.samples, 512, "{:?}", r.sizes);
            assert_eq!(
                mc.seed,
                point_seed(99, &r.model, &r.task, &r.sizes),
                "{:?}",
                r.sizes
            );
        }
        assert!(saw_mc, "spec has estimated rows");
        // Exact rows are untouched by the overrides.
        assert!(rows.iter().any(|r| r.mode == RowMode::Exact));
    }

    #[test]
    fn mc_sweep_is_thread_count_invariant() {
        let rows1 = SweepEngine::new(1).sweep(&mixed_mode_spec());
        for threads in [2usize, 3, 8] {
            let rows = SweepEngine::new(threads).sweep(&mixed_mode_spec());
            assert_eq!(rows, rows1, "threads={threads}");
        }
    }

    #[test]
    fn point_seed_is_stable_and_injective_enough() {
        let a = point_seed(1, "blackboard", "leader-election", &[1, 2]);
        assert_eq!(a, point_seed(1, "blackboard", "leader-election", &[1, 2]));
        assert_ne!(a, point_seed(2, "blackboard", "leader-election", &[1, 2]));
        assert_ne!(a, point_seed(1, "cyclic ports", "leader-election", &[1, 2]));
        assert_ne!(a, point_seed(1, "blackboard", "wsb", &[1, 2]));
        assert_ne!(a, point_seed(1, "blackboard", "leader-election", &[2, 1]));
    }

    /// `n = 3` LE with a fault axis: profiles [3], [2,1] stay exact
    /// fault-free while [1,1,1] overflows the 8-bit budget into MC, and
    /// every profile gains one row per fault point.
    fn faulted_spec() -> SweepSpec {
        SweepSpec::new()
            .task(TaskSpec::fixed(LeaderElection))
            .nodes(3..=3)
            .t_cap(4)
            .bit_budget(8)
            .mc(McSweep {
                samples: 2_000,
                seed: 7,
            })
            .faults(vec![(0.0, 0.0), (0.1, 0.2)])
    }

    #[test]
    fn fault_axis_crosses_every_row() {
        let mut engine = SweepEngine::new(2);
        let rows = engine.sweep(&faulted_spec());
        // 3 profiles × (fault-free + 2 fault points), in expansion order.
        assert_eq!(rows.len(), 9);
        for triple in rows.chunks(3) {
            let [base, zero, faulted] = triple else {
                unreachable!()
            };
            assert!(base.crash.is_none() && base.omission.is_none());
            assert_eq!((zero.crash, zero.omission), (Some(0.0), Some(0.0)));
            assert_eq!((faulted.crash, faulted.omission), (Some(0.1), Some(0.2)));
            for fault_row in [zero, faulted] {
                assert_eq!(fault_row.sizes, base.sizes);
                assert_eq!(fault_row.mode, RowMode::Mc, "faults force the MC kernel");
                assert!(fault_row.mc.is_some());
                assert_eq!(fault_row.series.len(), 4, "fault rows run to t_cap");
                let json = fault_row.to_json();
                assert!(json.get("crash").is_some() && json.get("omission").is_some());
            }
            assert!(base.to_json().get("crash").is_none());
        }
    }

    #[test]
    fn zero_rate_fault_rows_are_bit_identical_to_fault_free_estimates() {
        let mut engine = SweepEngine::new(3);
        let rows = engine.sweep(&faulted_spec());
        // [1,1,1] is estimated even fault-free, so its (0, 0) fault row
        // must reproduce the fault-free estimator bit for bit (same
        // seed, same kernel, structurally no fault RNG at rate zero).
        let base = rows
            .iter()
            .find(|r| r.k == 3 && r.crash.is_none())
            .expect("k = 3 fault-free row is MC");
        assert_eq!(base.mode, RowMode::Mc);
        let zero = rows
            .iter()
            .find(|r| r.k == 3 && r.crash == Some(0.0))
            .expect("k = 3 zero-rate fault row");
        assert_eq!(base.series, zero.series);
        assert_eq!(base.mc, zero.mc);
    }

    #[test]
    fn faulted_sweep_is_thread_count_invariant() {
        let rows1 = SweepEngine::new(1).sweep(&faulted_spec());
        for threads in [2usize, 8] {
            let rows = SweepEngine::new(threads).sweep(&faulted_spec());
            assert_eq!(rows, rows1, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "fault dimension needs a Monte-Carlo estimator")]
    fn fault_axis_without_mc_is_rejected() {
        let spec = SweepSpec::new()
            .task(TaskSpec::fixed(LeaderElection))
            .nodes(3..=3)
            .faults(vec![(0.1, 0.0)]);
        SweepEngine::new(1).sweep(&spec);
    }

    #[test]
    fn exact_only_specs_never_estimate() {
        // Without .mc(), the budget clamps exactly as before.
        let spec = SweepSpec::new()
            .task(TaskSpec::fixed(LeaderElection))
            .nodes(4..=4)
            .t_cap(4)
            .bit_budget(8);
        let rows = SweepEngine::new(2).sweep(&spec);
        assert!(rows.iter().all(|r| r.mode == RowMode::Exact));
        assert!(rows.iter().all(|r| r.mc.is_none()));
        let k3 = rows.iter().find(|r| r.k == 3).unwrap();
        assert_eq!(k3.series.len(), 2, "clamped to the budget");
    }
}
