//! The quotient exact engine: dynamic programming over knowledge-equality
//! states instead of execution-tree prefixes.
//!
//! The prefix-sharing engine ([`crate::engine`]) walks the raw execution
//! tree — `2^{k·r}` nodes at depth `r` — even though the task verdict at
//! every node depends only on the *consistency partition* of the
//! knowledge vector. `rsbt_sim::lanes` proved the key algebraic fact as
//! code: the round-`(r+1)` equality relation is a pure function of the
//! round-`r` equality relation and the **equality pattern** of the new
//! source bits — never their values (the value-independence lemma; see
//! `DESIGN.md` §4.10). So exponentially many tree prefixes that sit in
//! the same equality state are indistinguishable to every future verdict,
//! and the tree folds into a DP over states:
//!
//! * **State** — a labeled equality relation on *knowledge units*, stored
//!   as canonical first-occurrence class labels. Fault-free blackboard:
//!   the units are the `k` sources (`K_i(t) = K_j(t)` iff the sources of
//!   `i` and `j` emitted identical prefixes), so there are at most
//!   Bell(`k`) states — 203 for `k = 6`. Message passing and every
//!   faulted run: the units are the `n` nodes, bounded by Bell(`n`).
//! * **Transition** — for each of the `2^k` round digits, *meet* the
//!   state with the digit's induced equality pattern, mirroring the
//!   `LaneStepper` rules exactly (shared term lists via
//!   [`rsbt_sim::lanes::aligned_terms`]): blackboard is a per-unit key
//!   refinement, message passing evaluates the port-aligned pairwise rule
//!   and relabels, and faulted runs thread the round's silence mask
//!   through the faulted variants of both.
//! * **Weight** — each state carries the exact number of depth-`r` tree
//!   nodes sitting in it, as a `u128`. All `2^{k·r}` nodes are accounted:
//!   `frontier mass + solved mass = 2^{k·r}` at every depth (the dyadic
//!   count accounting of `DESIGN.md` §4.10), so probabilities stay exact
//!   integer ratios up to `k·t ≤` [`MAX_DP_BITS`] ` = 126` — far past the
//!   old `k·t ≤ 30` enumeration wall.
//! * **Verdict & absorption** — a state's verdict comes from the task's
//!   closed-form [`rsbt_tasks::Task::solves_partition`] with the dense
//!   fallback through [`SolvabilityMemo::solves_labels`] (representatives
//!   synthesized from the labels; no knowledge ids exist here). One round
//!   only refines the partition, so verdicts are monotone and solved
//!   states **absorb**: `solved(r) = solved(r−1)·2^k + newly(r)`, exactly
//!   the [`crate::engine`] subtree-pruning tallies lifted to the quotient
//!   (asserted bit-identical by property test and by the
//!   `exp_perf_quotient` bench).
//!
//! Per-round cost is `O(states · 2^k)` — flat in `t`, so whole exact
//! series at `t` in the dozens are routine where the tree engine needed
//! `2^{k·t}` node visits. Transition rows (`2^k` child ids per state) are
//! cached per state — the transposition table — and, when a round's
//! frontier is large, missing rows are computed in parallel via
//! [`rsbt_sim::pool`] and interned serially in deterministic order, so
//! counts are bit-identical for every thread count.
//!
//! **Orbit quotient.** Fault-free blackboard queries whose task is
//! symmetric and whose profile repeats a group size ([`orbit_eligible`])
//! run on the quotient of this state space by permutations of equal-size
//! sources (`DESIGN.md` §4.12): states are multisets of class types,
//! rows are weighted splits, and the counts are the same integers. Those
//! queries have no [`MAX_DP_K`] limit. Message passing, faulted runs,
//! non-symmetric tasks and all-distinct-size profiles keep the labeled
//! DP above.
//!
//! Production dispatch: [`crate::probability::exact`],
//! [`crate::probability::exact_series`] and their faulted/parallel
//! variants route here whenever [`orbit_eligible`] holds or `k ≤`
//! [`MAX_DP_K`]; only the remaining wide-`k` queries fall back to the
//! tree engine, which also stays as the reference path.

use rsbt_random::Assignment;
use rsbt_sim::lanes::{self, pair_index};
use rsbt_sim::{pool, FaultSchedule, FxHashMap, Model};
use rsbt_tasks::Task;

use crate::engine::{self, SolvabilityMemo, TaskKernel};

mod orbit;

/// Largest `k·t_max` the quotient engine accepts: state weights are exact
/// dyadic integers `≤ 2^{k·t}` carried as `u128`, so 126 bits is the last
/// point where every tally (including the full-tree `2^{k·t}`) is
/// representable. The 126-bit edge is pinned by test.
pub const MAX_DP_BITS: usize = 126;

/// Largest `k` the labeled DP accepts: every state expands `2^k`
/// transition digits per round, so the per-round cost `O(states · 2^k)`
/// stops being "flat in `t`" long before this. [`orbit_eligible`]
/// queries are exempt; other points with `k` beyond this (and `k·t`
/// within the tree engine's wall) stay on the reference engine — see
/// `probability`'s dispatch.
pub const MAX_DP_K: usize = 20;

/// Transition rows are cached (one `2^k`-entry child-id row per state)
/// only up to this `k`; beyond it rows are streamed per round instead of
/// stored, trading recomputation for memory.
const ROW_CACHE_MAX_K: usize = 12;

/// Minimum number of missing transition rows in one round before the row
/// build fans out to worker threads — below this the spawn cost dominates.
const PAR_MIN_STATES: usize = 16;

/// Counters from one quotient-DP sweep (the `exp_perf_quotient` bench
/// commits these alongside the timings; the perf-gate CI step greps them
/// non-zero).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DpStats {
    /// Distinct equality states interned (`dp_states` in bench notes) —
    /// bounded by Bell(units), or the orbit count on the orbit path.
    pub states: usize,
    /// Largest unsolved frontier over all rounds.
    pub frontier_max: usize,
    /// Transition rows computed (once per `(state, silence)` ever).
    pub rows_built: u64,
    /// Frontier expansions answered from the cached row table — the
    /// transposition-table hits.
    pub row_hits: u64,
    /// State–digit edges walked (`frontier · 2^k` summed over rounds);
    /// on the orbit path, weighted row entries walked.
    pub transitions: u64,
    /// Verdict-memo hits inside [`SolvabilityMemo`] (states whose node
    /// partition repeated an earlier state's).
    pub memo_hits: u64,
    /// Verdicts answered by the task's closed form.
    pub closed_form_verdicts: u64,
    /// Verdicts that fell back to the dense facet scan.
    pub dense_scan_verdicts: u64,
}

/// Per-depth solved-node tallies from one DP sweep — the quotient twin of
/// [`engine::solved_counts`], widened to `u128`: `counts[d − 1]` is the
/// number of depth-`d` execution-tree nodes (time-`d` realizations) that
/// solve `task`, for `d ∈ 1..=t_max`, so `p(d) = counts[d − 1]/2^{k·d}`.
/// Bit-identical to the tree engine across its whole reachable range
/// (property-tested and bench-asserted).
///
/// # Panics
///
/// Panics if `k·t_max >` [`MAX_DP_BITS`], if `k >` [`MAX_DP_K`] for a
/// query that is not [`orbit_eligible`], or on a model/assignment node
/// mismatch.
pub fn solved_series<T: Task + ?Sized>(
    model: &Model,
    task: &T,
    alpha: &Assignment,
    t_max: usize,
) -> Vec<u128> {
    solved_series_with_stats(model, task, alpha, t_max, 1).0
}

/// [`solved_series`] with the sweep's [`DpStats`] and a worker-thread
/// count: rounds whose frontier has at least [`PAR_MIN_STATES`] missing
/// transition rows compute them on `threads` workers (interning stays
/// serial and ordered, so counts are bit-identical for every `threads`).
///
/// # Panics
///
/// Same conditions as [`solved_series`], plus `threads ≥ 1`.
pub fn solved_series_with_stats<T: Task + ?Sized>(
    model: &Model,
    task: &T,
    alpha: &Assignment,
    t_max: usize,
    threads: usize,
) -> (Vec<u128>, DpStats) {
    run(model, task, alpha, t_max, None, threads)
}

/// [`solved_series`] under a **fixed** [`FaultSchedule`]: the round-`r`
/// transition meets the state with both the digit's equality pattern and
/// the schedule's silence pattern at `r` (deterministic per round, so the
/// DP caches one row per `(state, silence mask)`). The quotient twin of
/// [`engine::solved_counts_faulted`], and bit-identical to it.
///
/// # Panics
///
/// Same conditions as [`solved_series`], plus a schedule/assignment node
/// mismatch and `n ≤ 64` (silence masks are one `u64`).
pub fn solved_series_faulted<T: Task + ?Sized>(
    model: &Model,
    task: &T,
    alpha: &Assignment,
    t_max: usize,
    faults: &FaultSchedule,
) -> Vec<u128> {
    solved_series_faulted_with_stats(model, task, alpha, t_max, faults, 1).0
}

/// [`solved_series_faulted`] with [`DpStats`] and a worker-thread count.
///
/// # Panics
///
/// Same conditions as [`solved_series_faulted`], plus `threads ≥ 1`.
pub fn solved_series_faulted_with_stats<T: Task + ?Sized>(
    model: &Model,
    task: &T,
    alpha: &Assignment,
    t_max: usize,
    faults: &FaultSchedule,
    threads: usize,
) -> (Vec<u128>, DpStats) {
    assert_eq!(
        faults.n(),
        alpha.n(),
        "fault schedule is for {} nodes, assignment for {}",
        faults.n(),
        alpha.n()
    );
    assert!(alpha.n() <= 64, "silence masks are u64: need n <= 64");
    run(model, task, alpha, t_max, Some(faults), threads)
}

/// The transition structure of one quotient DP: everything immutable the
/// per-digit child computation needs, separated from the mutable tables
/// so row building can fan out over read-only borrows.
struct Geometry {
    k: usize,
    /// Knowledge units: the `k` sources (fault-free blackboard) or the
    /// `n` nodes (everything else).
    units: usize,
    /// The source feeding each unit's round bit.
    unit_source: Vec<usize>,
    /// Node `i`'s unit — the pullback for verdicts on source-unit states.
    node_unit: Vec<usize>,
    /// Whether verdicts must pull the state back from sources to nodes.
    node_pullback: bool,
    mp: bool,
    faulted: bool,
    /// Fault-free message-passing term lists ([`lanes::aligned_terms`]).
    terms: Vec<u32>,
    /// Faulted message-passing term lists
    /// ([`lanes::aligned_fault_terms`]).
    fault_terms: Vec<[u32; 3]>,
    term_offsets: Vec<u32>,
}

impl Geometry {
    fn new(model: &Model, alpha: &Assignment, faulted: bool) -> Self {
        let n = alpha.n();
        let k = alpha.k();
        let node_source: Vec<usize> = (0..n).map(|i| alpha.source_of(i)).collect();
        let (units, unit_source, node_unit, node_pullback) = match (model, faulted) {
            (Model::Blackboard, false) => (k, (0..k).collect(), node_source.clone(), true),
            _ => (n, node_source.clone(), (0..n).collect(), false),
        };
        let (mp, terms, fault_terms, term_offsets) = match model {
            Model::Blackboard => (false, Vec::new(), Vec::new(), Vec::new()),
            Model::MessagePassing(ports) => {
                assert_eq!(
                    ports.n(),
                    n,
                    "port numbering is for {} nodes, assignment for {n}",
                    ports.n()
                );
                if faulted {
                    let (ft, off) = lanes::aligned_fault_terms(ports);
                    (true, Vec::new(), ft, off)
                } else {
                    let (t, off) = lanes::aligned_terms(ports);
                    (true, t, Vec::new(), off)
                }
            }
        };
        Geometry {
            k,
            units,
            unit_source,
            node_unit,
            node_pullback,
            mp,
            faulted,
            terms,
            fault_terms,
            term_offsets,
        }
    }

    /// Fills the packed previous-round pair-equality vector for a state
    /// (message passing only; the blackboard meet needs no pair view).
    fn fill_pair_eq(&self, labels: &[u8], pair_eq: &mut Vec<bool>) {
        pair_eq.clear();
        if !self.mp {
            return;
        }
        for a in 0..self.units {
            for b in a + 1..self.units {
                pair_eq.push(labels[a] == labels[b]);
            }
        }
    }

    /// One transition: the canonical labels of the child state reached
    /// from `labels` under round digit `digit` and silence mask `silence`
    /// (0 when fault-free). `pair_eq` must be [`Geometry::fill_pair_eq`]
    /// of `labels`; `new_eq`/`seen` are scratch. Mirrors the
    /// [`rsbt_sim::LaneStepper`] update rules exactly — the shared ground
    /// truth, cross-checked one state at a time by property test.
    #[allow(clippy::too_many_arguments)]
    fn child(
        &self,
        labels: &[u8],
        pair_eq: &[bool],
        digit: u64,
        silence: u64,
        new_eq: &mut Vec<bool>,
        seen: &mut Vec<u32>,
        out: &mut Vec<u8>,
    ) {
        out.clear();
        let bit = |u: usize| digit >> self.unit_source[u] & 1;
        if !self.mp {
            // Blackboard meet: unit u's new class is keyed by its old
            // class, its round bit, and (faulted) its silence status —
            // `eq'[u,v] = eq[u,v] & !(b[u]^b[v]) & !(S[u]^S[v])`.
            seen.clear();
            for (u, &label) in labels.iter().enumerate() {
                let key = label as u32 | (bit(u) as u32) << 8 | ((silence >> u & 1) as u32) << 9;
                match seen.iter().position(|&s| s == key) {
                    Some(c) => out.push(c as u8),
                    None => {
                        out.push(seen.len() as u8);
                        seen.push(key);
                    }
                }
            }
            return;
        }
        // Message passing: evaluate the pairwise rule, then relabel.
        new_eq.clear();
        let mut p = 0;
        for a in 0..self.units {
            for b in a + 1..self.units {
                let lo = self.term_offsets[p] as usize;
                let hi = self.term_offsets[p + 1] as usize;
                let w = if self.faulted {
                    // `eq'[a,b] = eq[a,b] & !(b[a]^b[b]) & AND_p
                    // (!(S[x]^S[y]) & (S[x] | eq[x,y]))` — the
                    // own-previous conjunct is explicit under faults.
                    let mut w = labels[a] == labels[b] && bit(a) == bit(b);
                    if w {
                        for &[q, x, y] in &self.fault_terms[lo..hi] {
                            let (sx, sy) = (silence >> x & 1, silence >> y & 1);
                            if sx != sy || (sx == 0 && !pair_eq[q as usize]) {
                                w = false;
                                break;
                            }
                        }
                    }
                    w
                } else {
                    // `eq'[a,b] = !(b[a]^b[b]) & AND_p eq[nbr(a,p),
                    // nbr(b,p)]` — own-previous is implied by multiset
                    // cancellation (see `rsbt_sim::lanes` docs).
                    let mut w = bit(a) == bit(b);
                    if w {
                        for &q in &self.terms[lo..hi] {
                            if !pair_eq[q as usize] {
                                w = false;
                                break;
                            }
                        }
                    }
                    w
                };
                new_eq.push(w);
                p += 1;
            }
        }
        // First-match relabel: knowledge equality is an equivalence on
        // reachable states, so the first equal predecessor fixes the
        // class (asserted in debug builds).
        let mut next = 0u8;
        for a in 0..self.units {
            let mut assigned = None;
            for b in 0..a {
                if new_eq[pair_index(self.units, b, a)] {
                    assigned = Some(out[b]);
                    break;
                }
            }
            match assigned {
                Some(label) => {
                    debug_assert!(
                        (0..a)
                            .filter(|&b| new_eq[pair_index(self.units, b, a)])
                            .all(|b| out[b] == label),
                        "transition relation is not an equivalence"
                    );
                    out.push(label);
                }
                None => {
                    out.push(next);
                    next += 1;
                }
            }
        }
    }
}

/// The mutable DP tables: interned states, verdicts, cached transition
/// rows, and the shared solvability memo.
struct Dp<'a, T: Task + ?Sized> {
    geom: Geometry,
    kernel: TaskKernel<'a, T>,
    memo: SolvabilityMemo,
    /// Interned states, by id (canonical first-occurrence labels).
    states: Vec<Box<[u8]>>,
    index: FxHashMap<Box<[u8]>, u32>,
    /// Verdict per state, computed once at intern time.
    verdicts: Vec<bool>,
    /// Fault-free transition rows (`2^k` child ids), by state id.
    rows: Vec<Option<Box<[u32]>>>,
    /// Faulted transition rows, keyed by `(state, silence mask)`.
    fault_rows: FxHashMap<(u32, u64), Box<[u32]>>,
    // Scratch buffers (reused across transitions).
    pair_eq: Vec<bool>,
    new_eq: Vec<bool>,
    seen: Vec<u32>,
    out: Vec<u8>,
    node_labels: Vec<u8>,
    remap: Vec<u8>,
    rows_built: u64,
    row_hits: u64,
    transitions: u64,
}

impl<T: Task + ?Sized> Dp<'_, T> {
    /// Interns a state, computing its verdict on first sight: node-unit
    /// states ask [`SolvabilityMemo::solves_labels`] directly; source-unit
    /// states (fault-free blackboard) pull the partition back to nodes
    /// and re-canonicalize first.
    fn intern(&mut self, labels: &[u8]) -> u32 {
        if let Some(&id) = self.index.get(labels) {
            return id;
        }
        let id = self.states.len() as u32;
        let boxed: Box<[u8]> = Box::from(labels);
        self.index.insert(boxed.clone(), id);
        self.states.push(boxed);
        self.rows.push(None);
        let verdict = if self.geom.node_pullback {
            self.node_labels.clear();
            self.remap.clear();
            self.remap.resize(self.geom.units, u8::MAX);
            let mut next = 0u8;
            for &u in &self.geom.node_unit {
                let class = labels[u] as usize;
                if self.remap[class] == u8::MAX {
                    self.remap[class] = next;
                    next += 1;
                }
                self.node_labels.push(self.remap[class]);
            }
            self.memo.solves_labels(&self.node_labels, &self.kernel)
        } else {
            self.memo.solves_labels(labels, &self.kernel)
        };
        self.verdicts.push(verdict);
        id
    }

    /// Expands one state under `silence`: child ids for all `2^k` digits,
    /// in digit order, appended to `row`.
    fn expand(&mut self, labels: &[u8], silence: u64, row: &mut Vec<u32>) {
        row.clear();
        let mut pair_eq = std::mem::take(&mut self.pair_eq);
        let mut new_eq = std::mem::take(&mut self.new_eq);
        let mut seen = std::mem::take(&mut self.seen);
        let mut out = std::mem::take(&mut self.out);
        self.geom.fill_pair_eq(labels, &mut pair_eq);
        for digit in 0..1u64 << self.geom.k {
            self.geom.child(
                labels,
                &pair_eq,
                digit,
                silence,
                &mut new_eq,
                &mut seen,
                &mut out,
            );
            let child = self.intern(&out);
            row.push(child);
        }
        self.pair_eq = pair_eq;
        self.new_eq = new_eq;
        self.seen = seen;
        self.out = out;
    }

    /// Ensures every frontier state has its transition row for `silence`,
    /// fanning the missing child-label computations out to `threads`
    /// workers when the frontier is large. Interning always happens
    /// serially in `(frontier order × digit order)`, so state ids — and
    /// therefore every downstream count — are identical for any thread
    /// count.
    fn build_rows(&mut self, frontier: &[(u32, u128)], silence: u64, threads: usize) {
        let missing: Vec<u32> = frontier
            .iter()
            .map(|&(sid, _)| sid)
            .filter(|&sid| {
                if silence == 0 {
                    self.rows[sid as usize].is_none()
                } else {
                    !self.fault_rows.contains_key(&(sid, silence))
                }
            })
            .collect();
        if missing.is_empty() {
            return;
        }
        self.rows_built += missing.len() as u64;
        if threads > 1 && missing.len() >= PAR_MIN_STATES {
            let geom = &self.geom;
            let states = &self.states;
            let label_rows: Vec<Vec<Vec<u8>>> =
                pool::map_with_arena(&missing, threads, |_, &sid| {
                    let labels = &states[sid as usize];
                    let mut pair_eq = Vec::new();
                    let mut new_eq = Vec::new();
                    let mut seen = Vec::new();
                    let mut out = Vec::new();
                    geom.fill_pair_eq(labels, &mut pair_eq);
                    (0..1u64 << geom.k)
                        .map(|digit| {
                            geom.child(
                                labels,
                                &pair_eq,
                                digit,
                                silence,
                                &mut new_eq,
                                &mut seen,
                                &mut out,
                            );
                            out.clone()
                        })
                        .collect()
                });
            for (child_labels, &sid) in label_rows.iter().zip(&missing) {
                let row: Box<[u32]> = child_labels.iter().map(|l| self.intern(l)).collect();
                self.store_row(sid, silence, row);
            }
        } else {
            let mut row = Vec::with_capacity(1usize << self.geom.k);
            for &sid in &missing {
                let labels = self.states[sid as usize].clone();
                self.expand(&labels, silence, &mut row);
                self.store_row(sid, silence, row.clone().into_boxed_slice());
            }
        }
    }

    fn store_row(&mut self, sid: u32, silence: u64, row: Box<[u32]>) {
        if silence == 0 {
            self.rows[sid as usize] = Some(row);
        } else {
            self.fault_rows.insert((sid, silence), row);
        }
    }

    fn stats(&self, frontier_max: usize) -> DpStats {
        DpStats {
            states: self.states.len(),
            frontier_max,
            rows_built: self.rows_built,
            row_hits: self.row_hits,
            transitions: self.transitions,
            memo_hits: self.memo.memo_hits(),
            closed_form_verdicts: self.memo.closed_form_verdicts(),
            dense_scan_verdicts: self.memo.dense_scan_verdicts(),
        }
    }
}

/// The silence mask of round `round`: bit `i` set iff node `i` is silent.
fn silence_mask(faults: &FaultSchedule, n: usize, round: usize) -> u64 {
    (0..n).fold(0u64, |mask, i| {
        mask | (faults.is_silent(i, round) as u64) << i
    })
}

/// Whether a query runs on the orbit quotient (`DESIGN.md` §4.12): the
/// fault-free blackboard, a profile that repeats a group size, and a task
/// symmetric at `n` ([`Task::is_symmetric_for`]). Such queries are exact
/// for every `k·t ≤` [`MAX_DP_BITS`], with no [`MAX_DP_K`] limit. All
/// others take the labeled DP; with all group sizes distinct the quotient
/// would be the labeled state space anyway.
///
/// # Panics
///
/// Panics where [`Task::is_symmetric_for`] does (the task is undefined
/// at `n`), and only when the other conditions hold.
pub fn orbit_eligible<T: Task + ?Sized>(
    model: &Model,
    task: &T,
    alpha: &Assignment,
    faults: Option<&FaultSchedule>,
) -> bool {
    if !model.is_blackboard() || faults.is_some() {
        return false;
    }
    let mut sizes = alpha.group_sizes().to_vec();
    sizes.sort_unstable();
    sizes.windows(2).any(|w| w[0] == w[1]) && task.is_symmetric_for(alpha.n())
}

/// `counts[d − 1] = 2^{k·d}` at every depth: the all-⊥ root already
/// solves, so monotonicity covers the entire tree wholesale (`k·d ≤ 126`
/// keeps the shift in range).
fn all_solved(k: usize, t_max: usize) -> Vec<u128> {
    (1..=t_max).map(|d| 1u128 << (k * d)).collect()
}

/// Fills the depths after round `r` once the frontier is empty:
/// everything solves from there on, so the tally is pure absorption.
fn absorb_rest(counts: &mut [u128], mut solved: u128, k: usize, r: usize) {
    for count in &mut counts[r..] {
        solved <<= k;
        *count = solved;
    }
}

/// The shared sweep body of every public entry point: the budget checks,
/// then the orbit quotient for [`orbit_eligible`] queries and the labeled
/// DP for the rest.
fn run<T: Task + ?Sized>(
    model: &Model,
    task: &T,
    alpha: &Assignment,
    t_max: usize,
    faults: Option<&FaultSchedule>,
    threads: usize,
) -> (Vec<u128>, DpStats) {
    let k = alpha.k();
    let n = alpha.n();
    assert!(threads >= 1, "need at least one thread");
    assert!(
        k * t_max <= MAX_DP_BITS,
        "k*t = {} exceeds the u128 dyadic-count budget of {MAX_DP_BITS}",
        k * t_max
    );
    if let Some(p) = model.ports() {
        assert_eq!(p.n(), n, "model/assignment node mismatch");
    }
    let orbit = orbit_eligible(model, task, alpha, faults);
    assert!(
        orbit || k <= MAX_DP_K,
        "2^k per-state transition fan-out too large (k = {k} > {MAX_DP_K})"
    );
    let table = engine::fallback_table(task, n);
    let kernel = match table.as_ref() {
        Some(table) => TaskKernel::new(task, table),
        None => TaskKernel::closed_form_only(task),
    };
    if orbit {
        orbit::run(kernel, alpha, t_max)
    } else {
        run_labeled(model, kernel, alpha, t_max, faults, threads)
    }
}

/// The labeled DP over source (or node) partitions.
fn run_labeled<T: Task + ?Sized>(
    model: &Model,
    kernel: TaskKernel<'_, T>,
    alpha: &Assignment,
    t_max: usize,
    faults: Option<&FaultSchedule>,
    threads: usize,
) -> (Vec<u128>, DpStats) {
    let k = alpha.k();
    let n = alpha.n();
    let geom = Geometry::new(model, alpha, faults.is_some());
    assert!(
        geom.units <= u8::MAX as usize,
        "too many knowledge units for u8 labels"
    );
    let units = geom.units;
    let mut dp = Dp {
        geom,
        kernel,
        memo: SolvabilityMemo::new(),
        states: Vec::new(),
        index: FxHashMap::default(),
        verdicts: Vec::new(),
        rows: Vec::new(),
        fault_rows: FxHashMap::default(),
        pair_eq: Vec::new(),
        new_eq: Vec::new(),
        seen: Vec::new(),
        out: Vec::new(),
        node_labels: Vec::new(),
        remap: Vec::new(),
        rows_built: 0,
        row_hits: 0,
        transitions: 0,
    };
    let root = vec![0u8; units];
    let root_id = dp.intern(&root);
    if dp.verdicts[root_id as usize] {
        return (all_solved(k, t_max), dp.stats(1));
    }
    let mut counts = vec![0u128; t_max];
    if t_max == 0 {
        return (counts, dp.stats(1));
    }
    let cache_rows = k <= ROW_CACHE_MAX_K;
    let mut frontier: Vec<(u32, u128)> = vec![(root_id, 1)];
    let mut frontier_max = 1usize;
    let mut solved: u128 = 0;
    for r in 1..=t_max {
        let silence = faults.map_or(0, |f| silence_mask(f, n, r));
        let mut next: FxHashMap<u32, u128> = FxHashMap::default();
        let mut newly: u128 = 0;
        if cache_rows {
            let before = dp.rows_built;
            dp.build_rows(&frontier, silence, threads);
            dp.row_hits += frontier.len() as u64 - (dp.rows_built - before);
            for &(sid, cnt) in &frontier {
                let row: &[u32] = if silence == 0 {
                    dp.rows[sid as usize].as_deref().expect("row built above")
                } else {
                    &dp.fault_rows[&(sid, silence)]
                };
                for &child in row {
                    if dp.verdicts[child as usize] {
                        newly += cnt;
                    } else {
                        *next.entry(child).or_insert(0) += cnt;
                    }
                }
            }
        } else {
            // Streaming mode for very wide digit fan-outs: expand each
            // frontier state into a scratch row instead of caching
            // `2^k`-entry rows per state.
            let mut row = Vec::with_capacity(1usize << k);
            for &(sid, cnt) in &frontier {
                let labels = dp.states[sid as usize].clone();
                dp.expand(&labels, silence, &mut row);
                for &child in &row {
                    if dp.verdicts[child as usize] {
                        newly += cnt;
                    } else {
                        *next.entry(child).or_insert(0) += cnt;
                    }
                }
            }
        }
        dp.transitions += (frontier.len() as u64) << k;
        // The absorption recurrence: every solved depth-(r−1) node has
        // 2^k solved children, plus the freshly solved mass.
        solved = (solved << k) + newly;
        counts[r - 1] = solved;
        let mut merged: Vec<(u32, u128)> = next.into_iter().collect();
        merged.sort_unstable_by_key(|&(sid, _)| sid);
        frontier = merged;
        frontier_max = frontier_max.max(frontier.len());
        if frontier.is_empty() {
            absorb_rest(&mut counts, solved, k, r);
            break;
        }
    }
    let stats = dp.stats(frontier_max);
    (counts, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsbt_sim::{KnowledgeArena, LaneStepper};
    use rsbt_tasks::{
        KLeaderElection, LeaderAndDeputy, LeaderElection, Task, WeakSymmetryBreaking,
    };

    /// The labeled DP, bypassing the orbit dispatch.
    fn labeled_series<T: Task + ?Sized>(
        model: &Model,
        task: &T,
        alpha: &Assignment,
        t_max: usize,
    ) -> (Vec<u128>, DpStats) {
        let table = engine::fallback_table(task, alpha.n());
        let kernel = match table.as_ref() {
            Some(table) => TaskKernel::new(task, table),
            None => TaskKernel::closed_form_only(task),
        };
        run_labeled(model, kernel, alpha, t_max, None, 1)
    }

    fn models_for(n: usize) -> Vec<Model> {
        vec![Model::Blackboard, Model::message_passing_cyclic(n)]
    }

    fn tasks_for(n: usize) -> Vec<Box<dyn Task>> {
        vec![
            Box::new(LeaderElection),
            Box::new(KLeaderElection::new(2.min(n))),
        ]
    }

    #[test]
    fn dp_matches_tree_engine_bit_for_bit() {
        // DP ≡ `solved_counts` for both models, all profiles n ≤ 4,
        // t ≤ 3, threads {1, 2, 4, 8}.
        for n in 1..=4usize {
            for alpha in Assignment::iter_profiles(n) {
                for model in models_for(n) {
                    for task in tasks_for(n) {
                        let mut arena = KnowledgeArena::new();
                        let tree =
                            engine::solved_counts(&model, task.as_ref(), &alpha, 3, &mut arena);
                        let serial = solved_series(&model, task.as_ref(), &alpha, 3);
                        let widened: Vec<u128> = tree.iter().map(|&c| c as u128).collect();
                        assert_eq!(serial, widened, "{model} {alpha} {}", task.name());
                        for threads in [2usize, 4, 8] {
                            let (par, _) =
                                solved_series_with_stats(&model, task.as_ref(), &alpha, 3, threads);
                            assert_eq!(par, serial, "{model} {alpha} threads={threads}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dp_series_equals_per_t_dp() {
        // One sweep to t_max must agree with independent sweeps to every
        // prefix t.
        let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
        for model in models_for(3) {
            let series = solved_series(&model, &LeaderElection, &alpha, 5);
            for t in 1..=5usize {
                let per_t = solved_series(&model, &LeaderElection, &alpha, t);
                assert_eq!(per_t[..], series[..t], "{model} t={t}");
            }
        }
    }

    #[test]
    fn transitions_match_lane_stepper_from_every_reachable_state() {
        // The equality-relation rule is the shared ground truth: seed a
        // LaneStepper with each reachable DP state via `load_relation`,
        // step one round (each lane one digit), and require the lane
        // relation to equal the DP child's labels — for both models,
        // fault-free and faulted.
        let alpha = Assignment::from_group_sizes(&[1, 1, 2]).unwrap();
        let n = alpha.n();
        let k = alpha.k();
        for model in models_for(n) {
            for faulted in [false, true] {
                let geom = Geometry::new(&model, &alpha, faulted);
                // Collect the reachable states by breadth-first expansion.
                let mut states: Vec<Vec<u8>> = vec![vec![0u8; geom.units]];
                let mut seen_states = states.clone();
                let silences: Vec<u64> = if faulted {
                    vec![0, 0b0101, 0b1000]
                } else {
                    vec![0]
                };
                let (mut pair_eq, mut new_eq, mut seen, mut out) =
                    (Vec::new(), Vec::new(), Vec::new(), Vec::new());
                for _round in 0..3 {
                    let mut next_states = Vec::new();
                    for labels in &states {
                        geom.fill_pair_eq(labels, &mut pair_eq);
                        for &silence in &silences {
                            // Lane check: lane d carries digit d.
                            let mut stepper = if faulted {
                                LaneStepper::new_faulted(&model, &alpha)
                            } else {
                                LaneStepper::new(&model, &alpha)
                            };
                            stepper.load_relation(labels);
                            // Source s's word: bit d = digit d's bit for s.
                            let words: Vec<u64> = (0..k)
                                .map(|s| (0..1u64 << k).fold(0u64, |w, d| w | (d >> s & 1) << d))
                                .collect();
                            if faulted {
                                let sil = |u: usize| {
                                    if silence >> u & 1 == 1 {
                                        u64::MAX
                                    } else {
                                        0
                                    }
                                };
                                stepper.step_faulted(|s| words[s], sil);
                            } else {
                                stepper.step(|s| words[s]);
                            }
                            for digit in 0..1u64 << k {
                                geom.child(
                                    labels,
                                    &pair_eq,
                                    digit,
                                    silence,
                                    &mut new_eq,
                                    &mut seen,
                                    &mut out,
                                );
                                // Compare pairwise relations.
                                for a in 0..geom.units {
                                    for b in a + 1..geom.units {
                                        let lane = stepper.eq_words()
                                            [lanes::pair_index(geom.units, a, b)]
                                            >> digit
                                            & 1
                                            == 1;
                                        let dp = out[a] == out[b];
                                        assert_eq!(
                                            dp, lane,
                                            "{model} faulted={faulted} state={labels:?} \
                                             silence={silence:#b} digit={digit} pair=({a},{b})"
                                        );
                                    }
                                }
                                if !seen_states.contains(&out) {
                                    seen_states.push(out.clone());
                                    next_states.push(out.clone());
                                }
                            }
                        }
                    }
                    states = next_states;
                }
                assert!(seen_states.len() > 1, "{model} explored no states");
            }
        }
    }

    #[test]
    fn absorption_equals_expanding_solved_states() {
        // Absorbing solved states must tally exactly what a
        // non-absorbing DP (which keeps expanding solved states and
        // counts every solved state at every depth) computes — the
        // quotient form of the engine's pruning-vs-exhaustive test.
        let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
        let t_max = 4;
        for model in models_for(3) {
            let absorbing = solved_series(&model, &LeaderElection, &alpha, t_max);
            // Reference: expand *every* state, verdict each child.
            let geom = Geometry::new(&model, &alpha, false);
            let kernel = TaskKernel::closed_form_only(&LeaderElection);
            let mut memo = SolvabilityMemo::new();
            let mut dp = Dp {
                geom,
                kernel,
                memo: SolvabilityMemo::new(),
                states: Vec::new(),
                index: FxHashMap::default(),
                verdicts: Vec::new(),
                rows: Vec::new(),
                fault_rows: FxHashMap::default(),
                pair_eq: Vec::new(),
                new_eq: Vec::new(),
                seen: Vec::new(),
                out: Vec::new(),
                node_labels: Vec::new(),
                remap: Vec::new(),
                rows_built: 0,
                row_hits: 0,
                transitions: 0,
            };
            let root = dp.intern(&vec![0u8; dp.geom.units]);
            let mut weights: FxHashMap<u32, u128> = FxHashMap::default();
            weights.insert(root, 1);
            let mut row = Vec::new();
            for t in 1..=t_max {
                let mut next: FxHashMap<u32, u128> = FxHashMap::default();
                let mut ids: Vec<u32> = weights.keys().copied().collect();
                ids.sort_unstable();
                for sid in ids {
                    let cnt = weights[&sid];
                    let labels = dp.states[sid as usize].clone();
                    dp.expand(&labels, 0, &mut row);
                    for &child in &row {
                        *next.entry(child).or_insert(0) += cnt;
                    }
                }
                weights = next;
                let solved: u128 = weights
                    .iter()
                    .filter(|&(&sid, _)| dp.verdicts[sid as usize])
                    .map(|(_, &c)| c)
                    .sum();
                assert_eq!(solved, absorbing[t - 1], "{model} t={t}");
            }
            // The reference used fresh verdicts per state, like the
            // absorbing run; sanity-check the memo actually engaged.
            let _ = &mut memo;
            assert!(dp.states.len() > 1, "{model}");
        }
    }

    #[test]
    fn faulted_dp_matches_faulted_tree_engine() {
        let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
        let t_max = 3;
        let mut sched = FaultSchedule::empty(3, t_max);
        sched.set_omission(0, 2);
        sched.set_crash(2, 2);
        for model in models_for(3) {
            for task in tasks_for(3) {
                let tree = engine::solved_counts_faulted(
                    &model,
                    task.as_ref(),
                    &alpha,
                    t_max,
                    &sched,
                    &mut KnowledgeArena::new(),
                );
                let dp = solved_series_faulted(&model, task.as_ref(), &alpha, t_max, &sched);
                let widened: Vec<u128> = tree.iter().map(|&c| c as u128).collect();
                assert_eq!(dp, widened, "{model} {}", task.name());
                for threads in [2usize, 4] {
                    let (par, _) = solved_series_faulted_with_stats(
                        &model,
                        task.as_ref(),
                        &alpha,
                        t_max,
                        &sched,
                        threads,
                    );
                    assert_eq!(par, dp, "{model} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn fault_free_schedule_matches_fault_free_dp() {
        // An empty schedule through the faulted DP (node units) must
        // reproduce the fault-free DP (source units on the blackboard) —
        // two different state spaces, same counts.
        let alpha = Assignment::from_group_sizes(&[2, 2]).unwrap();
        let sched = FaultSchedule::empty(4, 3);
        for model in models_for(4) {
            let plain = solved_series(&model, &LeaderElection, &alpha, 3);
            let faulted = solved_series_faulted(&model, &LeaderElection, &alpha, 3, &sched);
            assert_eq!(plain, faulted, "{model}");
        }
    }

    #[test]
    fn u128_counts_survive_the_126_bit_edge() {
        // k = 2 private sources, leader election: the two nodes solve
        // exactly when their bit strings differ, so
        // counts[t−1] = 2^{2t} − 2^t. At t = 63 this is 2^126 − 2^63 —
        // exactly the 126-bit wall, far past u64.
        let alpha = Assignment::private(2);
        let series = solved_series(&Model::Blackboard, &LeaderElection, &alpha, 63);
        for t in 1..=63usize {
            assert_eq!(series[t - 1], (1u128 << (2 * t)) - (1u128 << t), "t={t}");
        }
    }

    #[test]
    fn root_solving_fills_every_depth_to_126_bits() {
        // n = 1 solves at the root; k = 1, t = 126 exercises
        // `1u128 << 126` — the largest shift the budget admits.
        let alpha = Assignment::private(1);
        let series = solved_series(&Model::Blackboard, &LeaderElection, &alpha, 126);
        assert_eq!(series[0], 2);
        assert_eq!(series[125], 1u128 << 126);
    }

    #[test]
    #[should_panic(expected = "dyadic-count budget")]
    fn beyond_126_bits_rejected() {
        let alpha = Assignment::private(2);
        let _ = solved_series(&Model::Blackboard, &LeaderElection, &alpha, 64);
    }

    #[test]
    fn orbit_quotient_matches_labeled_dp_bit_for_bit() {
        // Every blackboard profile with a repeated group size, n ≤ 7,
        // t ≤ 5, across the symmetric built-in tasks.
        let mut checked = 0;
        for n in 2..=7usize {
            let tasks: Vec<Box<dyn Task>> = vec![
                Box::new(LeaderElection),
                Box::new(KLeaderElection::new(2)),
                Box::new(KLeaderElection::new(3)),
                Box::new(WeakSymmetryBreaking),
                Box::new(LeaderAndDeputy::unconstrained(n)),
            ];
            for alpha in Assignment::iter_profiles(n) {
                let mut sizes = alpha.group_sizes().to_vec();
                sizes.sort_unstable();
                if !sizes.windows(2).any(|w| w[0] == w[1]) {
                    continue;
                }
                for task in tasks
                    .iter()
                    .filter(|t| t.name() != "3-leader-election" || n >= 3)
                {
                    let task = task.as_ref();
                    assert!(orbit_eligible(&Model::Blackboard, task, &alpha, None));
                    let (orbit, stats) =
                        solved_series_with_stats(&Model::Blackboard, task, &alpha, 5, 1);
                    let (labeled, labeled_stats) =
                        labeled_series(&Model::Blackboard, task, &alpha, 5);
                    assert_eq!(orbit, labeled, "{alpha} {}", task.name());
                    assert!(stats.states <= labeled_stats.states, "{alpha} {stats:?}");
                    checked += 1;
                }
            }
        }
        // 26 profiles × 5 tasks, less 3-LE on the one n = 2 profile.
        assert_eq!(checked, 26 * 5 - 1, "profiles × tasks covered");
    }

    #[test]
    fn orbit_dispatch_leaves_the_labeled_paths_alone() {
        let repeated = Assignment::from_group_sizes(&[2, 2]).unwrap();
        let distinct = Assignment::from_group_sizes(&[1, 2]).unwrap();
        let sched = FaultSchedule::empty(4, 3);
        let constrained = LeaderAndDeputy::new(vec![true; 4], vec![true, true, true, false]);
        let bb = Model::Blackboard;
        assert!(orbit_eligible(&bb, &LeaderElection, &repeated, None));
        assert!(!orbit_eligible(&bb, &LeaderElection, &distinct, None));
        assert!(!orbit_eligible(
            &Model::message_passing_cyclic(4),
            &LeaderElection,
            &repeated,
            None
        ));
        assert!(!orbit_eligible(
            &bb,
            &LeaderElection,
            &repeated,
            Some(&sched)
        ));
        assert!(!orbit_eligible(&bb, &constrained, &repeated, None));
        // The non-symmetric task still gets the labeled DP's answer.
        let (series, stats) = solved_series_with_stats(&bb, &constrained, &repeated, 4, 1);
        assert_eq!(
            (series, stats),
            labeled_series(&bb, &constrained, &repeated, 4)
        );
    }

    #[test]
    fn orbit_quotient_collapses_the_gcd_two_blowups() {
        // Theorem 4.1 (gcd 2): p ≡ 0. The labeled DP needs Bell(12) =
        // 4,213,597 states for [2; 12] and Bell(10) = 115,975 for
        // [2; 10]; the orbits are the 77 and 42 integer partitions.
        for (groups, t, max_states) in [(12usize, 10usize, 77usize), (10, 12, 42)] {
            let alpha = Assignment::from_group_sizes(&vec![2; groups]).unwrap();
            let (series, stats) =
                solved_series_with_stats(&Model::Blackboard, &LeaderElection, &alpha, t, 1);
            assert_eq!(series, vec![0u128; t], "[2; {groups}]");
            assert!(stats.states <= max_states, "[2; {groups}] {stats:?}");
            assert!(stats.rows_built as usize <= stats.states, "{stats:?}");
        }
    }

    #[test]
    fn orbit_rows_reach_the_126_bit_edge() {
        // k = 126 at t = 1: one row of weight 2^126, with C(126, 63) in
        // the split weights. A bit drawn by exactly one source elects
        // it, so 2·126 realizations solve.
        let alpha = Assignment::private(126);
        let series = solved_series(&Model::Blackboard, &LeaderElection, &alpha, 1);
        assert_eq!(series, vec![252]);
        // k·t = 63·2 = 126 with gcd 2: p ≡ 0.
        let pairs = Assignment::from_group_sizes(&[2; 63]).unwrap();
        let series = solved_series(&Model::Blackboard, &LeaderElection, &pairs, 2);
        assert_eq!(series, vec![0, 0]);
    }

    #[test]
    fn stats_report_the_transposition_table() {
        let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
        let (series, stats) =
            solved_series_with_stats(&Model::Blackboard, &LeaderElection, &alpha, 8, 1);
        assert_eq!(series.len(), 8);
        assert!(stats.states >= 2, "{stats:?}");
        assert!(stats.rows_built >= 1, "{stats:?}");
        // The unsolved all-equal state recurs every round: rows must be
        // reused, not rebuilt.
        assert!(stats.row_hits >= 1, "{stats:?}");
        assert!(
            stats.transitions >= stats.rows_built << alpha.k(),
            "{stats:?}"
        );
        assert!(stats.closed_form_verdicts >= 1, "{stats:?}");
    }
}
