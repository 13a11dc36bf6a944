//! The exact engine: dynamic programming over knowledge-equality states
//! instead of execution-tree prefixes.
//!
//! The execution tree has `2^{k·r}` nodes at depth `r` (one per
//! equiprobable realization prefix, Lemma B.1), but the task verdict at
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
//!   state with the digit's induced equality pattern. The rules are
//!   [`rsbt_sim::LaneStepper`]'s, run on the stepper itself: a row loads
//!   the state into every lane, steps 64 digits per word (faulted runs
//!   pass the round's silence mask as constant per-node words), and reads
//!   each lane's child back with [`rsbt_sim::LaneStepper::lane_labels`].
//!   Every rule compares source bits and never reads their values, so
//!   digit `d` and its complement `d ^ (2^k − 1)` reach the same child:
//!   only the digits below `2^(k−1)` are stepped, and each child fills
//!   both of its entries in the `2^k`-entry row.
//! * **Weight** — each state carries the exact number of depth-`r` tree
//!   nodes sitting in it, as a `u128`. All `2^{k·r}` nodes are accounted:
//!   `frontier mass + solved mass = 2^{k·r}` at every depth (the dyadic
//!   count accounting of `DESIGN.md` §4.10), so probabilities stay exact
//!   integer ratios up to `k·t ≤` [`MAX_DP_BITS`] ` = 126` — far past the
//!   old `k·t ≤ 30` enumeration wall.
//! * **Verdict & absorption** — a state's verdict comes from the task's
//!   closed-form [`rsbt_tasks::Task::solves_partition`] with the dense
//!   fallback, through `SolvabilityMemo` (representatives synthesized
//!   from the labels; no knowledge ids exist here). One round
//!   only refines the partition, so verdicts are monotone and solved
//!   states **absorb**: `solved(r) = solved(r−1)·2^k + newly(r)` — a
//!   solving node's whole subtree solves (tested bit-identical to
//!   leaf-by-leaf enumeration on every profile with `n ≤ 4, t ≤ 3` and
//!   under fixed fault schedules, and to pinned counts on deep points).
//!
//! Per-round cost is `O(states · 2^k)` — flat in `t`, so whole exact
//! series at `t` in the dozens are routine where enumeration needs
//! `2^{k·t}` node visits. Transition rows (`2^k` child ids per state) are
//! cached per state — the transposition table — and, when a round's
//! frontier is large, missing rows are computed in parallel via
//! [`rsbt_sim::pool`] and interned serially in deterministic order, so
//! counts are bit-identical for every thread count. Past
//! `ROW_CACHE_MAX_K` (12) rows are streamed instead: each 64-digit lane
//! chunk is interned and tallied as soon as it is stepped, so memory
//! stays at the interned states however wide the fan-out.
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
//! Every exact query runs here: [`crate::probability::exact`],
//! [`crate::probability::exact_series`] and their faulted and cached
//! variants all read their counts off [`solved_series_with_stats`] or its
//! faulted twin. A query is admitted when [`orbit_eligible`] holds, when
//! `k ≤` [`MAX_DP_K`], or when `k·t ≤ 62` (see [`MAX_DP_K`]).

use rsbt_random::Assignment;
use rsbt_sim::{pool, FaultSchedule, FxHashMap, LaneStepper, Model};
use rsbt_tasks::Task;

use crate::solvability::{self, SolvabilityMemo, TaskKernel};

mod orbit;

/// Largest `k·t_max` the quotient engine accepts: state weights are exact
/// dyadic integers `≤ 2^{k·t}` carried as `u128`, so 126 bits is the last
/// point where every tally (including the full-tree `2^{k·t}`) is
/// representable. The 126-bit edge is pinned by test.
pub const MAX_DP_BITS: usize = 126;

/// Largest `k` the labeled DP accepts at any depth: every state expands
/// `2^k` transition digits per round, so the per-round cost
/// `O(states · 2^k)` stops being "flat in `t`" long before this.
/// [`orbit_eligible`] queries are exempt. Wider queries are still
/// admitted while `k·t ≤ 62` (`WIDE_K_MAX_BITS`), the range exact answers
/// have always covered at such `k`; they run in streaming mode.
pub const MAX_DP_K: usize = 20;

/// Largest `k·t_max` admitted for a labeled query with `k >` [`MAX_DP_K`].
const WIDE_K_MAX_BITS: usize = 62;

/// Transition rows are cached (one `2^k`-entry child-id row per state)
/// only up to this `k`; beyond it rows are streamed per round instead of
/// stored, trading recomputation for memory.
const ROW_CACHE_MAX_K: usize = 12;

/// Minimum number of missing transition rows in one round before the row
/// build fans out to worker threads — below this the spawn cost dominates.
const PAR_MIN_STATES: usize = 16;

/// Counters from one quotient-DP sweep (perfbench's traced run reports
/// them as `dp.*`, and CI gates those counts exactly).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DpStats {
    /// Distinct equality states interned — bounded by Bell(units), or the
    /// orbit count on the orbit path.
    pub states: usize,
    /// Largest unsolved frontier over all rounds.
    pub frontier_max: usize,
    /// Transition rows computed. With rows cached (`k ≤ 12`) each
    /// `(state, silence)` row is built once ever; in streaming mode
    /// (`k > 12`) every frontier state's row is built afresh each round,
    /// and each of those expansions counts.
    pub rows_built: u64,
    /// Frontier expansions answered from the cached row table — the
    /// transposition-table hits. Always 0 in streaming mode.
    pub row_hits: u64,
    /// State–digit edges walked (`frontier · 2^k` summed over rounds),
    /// every digit counted although rows step only the digits below
    /// `2^(k−1)`; on the orbit path, weighted row entries walked.
    pub transitions: u64,
    /// Verdict-memo hits inside the partition memo (states whose node
    /// partition repeated an earlier state's).
    pub memo_hits: u64,
    /// Verdicts answered by the task's closed form.
    pub closed_form_verdicts: u64,
    /// Verdicts that fell back to the dense facet scan.
    pub dense_scan_verdicts: u64,
}

/// Per-depth solved-node tallies from one DP sweep, with the sweep's
/// [`DpStats`]: `counts[d − 1]` is the number of depth-`d`
/// execution-tree nodes (time-`d` realizations) that solve `task`, for
/// `d ∈ 1..=t_max`, so `p(d) = counts[d − 1]/2^{k·d}`. Bit-identical to
/// leaf-by-leaf enumeration (tested on every small profile and under
/// fixed fault schedules). Rounds whose frontier has at least
/// `PAR_MIN_STATES` (16) missing transition rows compute them on
/// `threads` workers; interning stays serial and ordered, so counts and
/// stats are bit-identical for every `threads`.
///
/// # Panics
///
/// Panics if `threads == 0`, if `k·t_max >` [`MAX_DP_BITS`], if `k >`
/// [`MAX_DP_K`] and `k·t_max > 62` for a query that is not
/// [`orbit_eligible`], or on a model/assignment node mismatch; also if
/// the labeled DP would need more than 255 knowledge units.
pub fn solved_series_with_stats<T: Task + ?Sized>(
    model: &Model,
    task: &T,
    alpha: &Assignment,
    t_max: usize,
    threads: usize,
) -> (Vec<u128>, DpStats) {
    run(model, task, alpha, t_max, None, threads)
}

/// [`solved_series_with_stats`] under a **fixed** [`FaultSchedule`]: the
/// round-`r` transition meets the state with both the digit's equality
/// pattern and the schedule's silence pattern at `r` (deterministic per
/// round, so the DP caches one row per `(state, silence mask)`).
/// Bit-identical to a leaf-by-leaf faulted re-simulation.
///
/// # Panics
///
/// Same conditions as [`solved_series_with_stats`], plus a
/// schedule/assignment node mismatch and `n ≤ 64` (silence masks are one
/// `u64`).
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

/// Lane words of the sources `s < 6` in a 64-digit chunk: lane `l` carries
/// digit `base + l` with `base` a multiple of 64, so bit `l` of source
/// `s`'s word is bit `s` of `l`. Sources `s ≥ 6` read bit `s` of `base`,
/// the same in every lane.
const LANE_DIGIT_BITS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Hands the children of state `labels` under the round digits
/// `d < 2^(k−1)` to `visit`, in digit order, as canonical labels.
/// `silence` is the round's silence mask on a faulted stepper and `None`
/// on a fault-free one.
///
/// Each chunk of 64 digits is one lane step: `labels` goes into every
/// lane, lane `l` reads digit `base + l`, and each lane's relation comes
/// back as canonical labels, visited before the next chunk is stepped.
/// The digits `d ≥ 2^(k−1)` are left out: every step rule compares source
/// bits and never reads their values, so `d` and its complement
/// `d ^ (2^k − 1)` reach the same child.
fn for_each_child(
    stepper: &mut LaneStepper,
    k: usize,
    labels: &[u8],
    silence: Option<u64>,
    mut visit: impl FnMut(&[u8]),
) {
    let mut lane = Vec::with_capacity(labels.len());
    let half = 1u64 << (k - 1);
    for base in (0..half).step_by(64) {
        // `0u64.wrapping_sub(bit)` spreads a bit over a whole word.
        let bits = |s: usize| match LANE_DIGIT_BITS.get(s) {
            Some(&word) => word,
            None => 0u64.wrapping_sub(base >> s & 1),
        };
        stepper.load_relation(labels);
        match silence {
            None => stepper.step(bits),
            Some(mask) => stepper.step_faulted(bits, |i| 0u64.wrapping_sub(mask >> i & 1)),
        }
        for l in 0..(half - base).min(64) {
            stepper.lane_labels(l as usize, &mut lane);
            visit(&lane);
        }
    }
}

/// The mutable DP tables: interned states, verdicts, cached transition
/// rows, the shared solvability memo, and the lane stepper that computes
/// every transition.
struct Dp<'a, T: Task + ?Sized> {
    k: usize,
    units: usize,
    /// Fault-free blackboard only: node `i`'s source unit, through which
    /// verdicts pull a source-unit state back to nodes.
    node_unit: Option<Vec<usize>>,
    /// The step rule: fault-free or faulted, over the same units as the
    /// states.
    stepper: LaneStepper,
    kernel: TaskKernel<'a, T>,
    memo: SolvabilityMemo,
    /// Interned states, by id (canonical first-occurrence labels).
    states: Vec<Box<[u8]>>,
    index: FxHashMap<Box<[u8]>, u32>,
    /// Verdict per state, computed once at intern time.
    verdicts: Vec<bool>,
    /// Transition rows for silence mask 0 (`2^k` child ids), by state id.
    rows: Vec<Option<Box<[u32]>>>,
    /// Faulted transition rows, keyed by `(state, silence mask)`.
    fault_rows: FxHashMap<(u32, u64), Box<[u32]>>,
    // Scratch buffers (reused across transitions).
    children: Vec<u8>,
    node_labels: Vec<u8>,
    remap: Vec<u8>,
    rows_built: u64,
    row_hits: u64,
    transitions: u64,
}

impl<'a, T: Task + ?Sized> Dp<'a, T> {
    /// An empty DP for `model` under `alpha`. Fault-free blackboard states
    /// are over the `k` sources; message passing and every faulted run are
    /// over the `n` nodes.
    fn new(model: &Model, alpha: &Assignment, kernel: TaskKernel<'a, T>, faulted: bool) -> Self {
        let stepper = if faulted {
            LaneStepper::new_faulted(model, alpha)
        } else {
            LaneStepper::new(model, alpha)
        };
        let units = stepper.units();
        assert!(
            units <= u8::MAX as usize,
            "too many knowledge units for u8 labels"
        );
        let node_unit =
            (model.is_blackboard() && !faulted).then(|| stepper.unit_of_node().to_vec());
        Dp {
            k: alpha.k(),
            units,
            node_unit,
            stepper,
            kernel,
            memo: SolvabilityMemo::new(),
            states: Vec::new(),
            index: FxHashMap::default(),
            verdicts: Vec::new(),
            rows: Vec::new(),
            fault_rows: FxHashMap::default(),
            children: Vec::new(),
            node_labels: Vec::new(),
            remap: Vec::new(),
            rows_built: 0,
            row_hits: 0,
            transitions: 0,
        }
    }

    /// Interns a state, computing its verdict on first sight. Node-unit
    /// states (message passing, faulted runs) are already node partitions;
    /// source-unit states (fault-free blackboard) pull the partition back
    /// to nodes and re-canonicalize. Every source feeds at least one node,
    /// so the pullback is injective: either way `index` has already
    /// deduplicated the node partition, each is decided exactly once, and
    /// the memo map would never hit ([`SolvabilityMemo::decide_labels`]).
    fn intern(&mut self, labels: &[u8]) -> u32 {
        if let Some(&id) = self.index.get(labels) {
            return id;
        }
        let id = self.states.len() as u32;
        let boxed: Box<[u8]> = Box::from(labels);
        self.index.insert(boxed.clone(), id);
        self.states.push(boxed);
        self.rows.push(None);
        let verdict = if let Some(node_unit) = &self.node_unit {
            self.node_labels.clear();
            self.remap.clear();
            self.remap.resize(self.units, u8::MAX);
            let mut next = 0u8;
            for &u in node_unit {
                let class = labels[u] as usize;
                if self.remap[class] == u8::MAX {
                    self.remap[class] = next;
                    next += 1;
                }
                self.node_labels.push(self.remap[class]);
            }
            self.memo.decide_labels(&self.node_labels, &self.kernel)
        } else {
            self.memo.decide_labels(labels, &self.kernel)
        };
        self.verdicts.push(verdict);
        id
    }

    /// Expands one state under `silence`: child ids for all `2^k` digits,
    /// in digit order, written to `row`.
    fn expand(&mut self, labels: &[u8], silence: Option<u64>, row: &mut Vec<u32>) {
        let mut children = std::mem::take(&mut self.children);
        children.clear();
        for_each_child(&mut self.stepper, self.k, labels, silence, |child| {
            children.extend_from_slice(child)
        });
        self.intern_row(&children, row);
        self.children = children;
    }

    /// Interns the children of [`for_each_child`] in digit order and
    /// writes the full `2^k`-entry row: digit `d` and its complement share
    /// a child. Each child's first occurrence in digit order is at some
    /// `d < 2^(k−1)`, so the state ids are those of interning all `2^k`
    /// digits in order.
    fn intern_row(&mut self, children: &[u8], row: &mut Vec<u32>) {
        let mask = (1usize << self.k) - 1;
        row.clear();
        row.resize(mask + 1, 0);
        for (d, child) in children.chunks_exact(self.units).enumerate() {
            let id = self.intern(child);
            row[d] = id;
            row[d ^ mask] = id;
        }
    }

    /// Ensures every frontier state has its transition row for `silence`,
    /// fanning the missing rows' child labels out to `threads` workers
    /// (one stepper clone each) when the frontier is large. Interning
    /// always happens serially in `(frontier order × digit order)`, so
    /// state ids — and therefore every downstream count — are identical
    /// for any thread count.
    fn build_rows(&mut self, frontier: &[(u32, u128)], silence: Option<u64>, threads: usize) {
        let key = silence.unwrap_or(0);
        let missing: Vec<u32> = frontier
            .iter()
            .map(|&(sid, _)| sid)
            .filter(|&sid| {
                if key == 0 {
                    self.rows[sid as usize].is_none()
                } else {
                    !self.fault_rows.contains_key(&(sid, key))
                }
            })
            .collect();
        if missing.is_empty() {
            return;
        }
        self.rows_built += missing.len() as u64;
        let mut row = Vec::new();
        if threads > 1 && missing.len() >= PAR_MIN_STATES {
            let (stepper, states, k) = (&self.stepper, &self.states, self.k);
            let shards: Vec<&[u32]> = missing.chunks(missing.len().div_ceil(threads)).collect();
            let halves: Vec<Vec<Vec<u8>>> = pool::map_with_arena(&shards, threads, |_, shard| {
                let mut stepper = stepper.clone();
                shard
                    .iter()
                    .map(|&sid| {
                        let mut children = Vec::new();
                        for_each_child(&mut stepper, k, &states[sid as usize], silence, |child| {
                            children.extend_from_slice(child)
                        });
                        children
                    })
                    .collect()
            });
            for (children, &sid) in halves.iter().flatten().zip(&missing) {
                self.intern_row(children, &mut row);
                self.store_row(sid, key, row.as_slice().into());
            }
        } else {
            for &sid in &missing {
                let labels = self.states[sid as usize].clone();
                self.expand(&labels, silence, &mut row);
                self.store_row(sid, key, row.as_slice().into());
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

/// Whether the all-`⊥` root — one consistency class, before any round —
/// solves `task` on `n` nodes: the verdict the DP gives its root state,
/// and the whole exact answer at `t = 0`.
pub(crate) fn root_solves<T: Task + ?Sized>(task: &T, n: usize) -> bool {
    let table = solvability::fallback_table(task, n);
    SolvabilityMemo::new().decide_labels(&vec![0u8; n], &TaskKernel::new(task, table.as_ref()))
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
        orbit || k <= MAX_DP_K || k * t_max <= WIDE_K_MAX_BITS,
        "k = {k} exceeds the quotient engine's digit fan-out bound (MAX_DP_K = {MAX_DP_K}) \
         and k*t = {} exceeds the wide-k budget ({WIDE_K_MAX_BITS} bits)",
        k * t_max
    );
    let table = solvability::fallback_table(task, n);
    let kernel = TaskKernel::new(task, table.as_ref());
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
    let mut dp = Dp::new(model, alpha, kernel, faults.is_some());
    let units = dp.units;
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
        let silence = faults.map(|f| silence_mask(f, n, r));
        let mut next: FxHashMap<u32, u128> = FxHashMap::default();
        let mut newly: u128 = 0;
        if cache_rows {
            let before = dp.rows_built;
            dp.build_rows(&frontier, silence, threads);
            dp.row_hits += frontier.len() as u64 - (dp.rows_built - before);
            for &(sid, cnt) in &frontier {
                let row: &[u32] = match silence {
                    Some(mask) if mask != 0 => &dp.fault_rows[&(sid, mask)],
                    _ => dp.rows[sid as usize].as_deref().expect("row built above"),
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
            // Streaming mode for wide digit fan-outs: each lane chunk's
            // children are interned and tallied as soon as it is stepped,
            // with no row buffer. A child stands for its digit and the
            // complement, hence twice the weight.
            let mut stepper = dp.stepper.clone();
            dp.rows_built += frontier.len() as u64;
            for &(sid, cnt) in &frontier {
                let labels = dp.states[sid as usize].clone();
                for_each_child(&mut stepper, k, &labels, silence, |child| {
                    let id = dp.intern(child);
                    if dp.verdicts[id as usize] {
                        newly += 2 * cnt;
                    } else {
                        *next.entry(id).or_insert(0) += 2 * cnt;
                    }
                });
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
    use crate::oracle;
    use crate::solvability::OpaqueLeaderElection;
    use rsbt_random::Realization;
    use rsbt_sim::lanes::pair_index;
    use rsbt_sim::{Execution, KnowledgeArena};
    use rsbt_tasks::{
        KLeaderElection, LeaderAndDeputy, LeaderElection, Task, WeakSymmetryBreaking,
    };

    /// The solved counts of [`solved_series_with_stats`] on one thread.
    fn solved_series<T: Task + ?Sized>(
        model: &Model,
        task: &T,
        alpha: &Assignment,
        t_max: usize,
    ) -> Vec<u128> {
        solved_series_with_stats(model, task, alpha, t_max, 1).0
    }

    /// The solved counts of [`solved_series_faulted_with_stats`] on one
    /// thread.
    fn solved_series_faulted<T: Task + ?Sized>(
        model: &Model,
        task: &T,
        alpha: &Assignment,
        t_max: usize,
        faults: &FaultSchedule,
    ) -> Vec<u128> {
        solved_series_faulted_with_stats(model, task, alpha, t_max, faults, 1).0
    }

    /// The labeled DP, bypassing the orbit dispatch.
    fn labeled_series<T: Task + ?Sized>(
        model: &Model,
        task: &T,
        alpha: &Assignment,
        t_max: usize,
    ) -> (Vec<u128>, DpStats) {
        let table = solvability::fallback_table(task, alpha.n());
        run_labeled(
            model,
            TaskKernel::new(task, table.as_ref()),
            alpha,
            t_max,
            None,
            1,
        )
    }

    /// Solved counts at depths `1..=t_max` by leaf-by-leaf faulted
    /// re-simulation: every realization run under `faults` and decided by
    /// the reference facet search.
    fn leaf_by_leaf_faulted<T: Task + ?Sized>(
        model: &Model,
        task: &T,
        alpha: &Assignment,
        t_max: usize,
        faults: &FaultSchedule,
    ) -> Vec<u128> {
        let mut arena = KnowledgeArena::new();
        (1..=t_max)
            .map(|t| {
                Realization::enumerate_consistent(alpha, t)
                    .filter(|rho| {
                        let exec = Execution::run_with_faults(model, rho, faults, &mut arena);
                        oracle::solves_execution_reference(&exec, task)
                    })
                    .count() as u128
            })
            .collect()
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
        // DP ≡ leaf-by-leaf enumeration (`exact_series_reference`) for
        // both models, all profiles n ≤ 4, t ≤ 3, threads {1, 2, 4, 8}.
        for n in 1..=4usize {
            for alpha in Assignment::iter_profiles(n) {
                for model in models_for(n) {
                    for task in tasks_for(n) {
                        let mut arena = KnowledgeArena::new();
                        let reference: Vec<u128> = oracle::exact_series_reference(
                            &model,
                            task.as_ref(),
                            &alpha,
                            3,
                            &mut arena,
                        )
                        .iter()
                        .enumerate()
                        // p·2^{k·t} is an exact integer in f64 at k·t ≤ 12.
                        .map(|(i, &p)| (p * (1u128 << (alpha.k() * (i + 1))) as f64) as u128)
                        .collect();
                        let serial = solved_series(&model, task.as_ref(), &alpha, 3);
                        assert_eq!(serial, reference, "{model} {alpha} {}", task.name());
                        for threads in [2usize, 4, 8] {
                            let (par, _) =
                                solved_series_with_stats(&model, task.as_ref(), &alpha, 3, threads);
                            assert_eq!(par, serial, "{model} {alpha} threads={threads}");
                        }
                    }
                }
            }
        }
        // Deep points past that grid, pinned to the counts of a full
        // execution-tree walk: solvable profiles, and never-solving ones
        // ([2, 2], [4]).
        const HALVES: [u128; 15] = [
            2, 12, 56, 240, 992, 4032, 16256, 65280, 261632, 1047552, 4192256, 16773120, 67100672,
            268419072, 1073709056,
        ];
        let deep: [(bool, &[usize], &[u128]); 7] = [
            (false, &[1, 2], &HALVES),
            (false, &[1, 3], &HALVES),
            (
                false,
                &[1, 1, 2],
                &[4, 48, 448, 3840, 31744, 258048, 2080768, 16711680],
            ),
            (true, &[1, 2], &HALVES),
            (
                true,
                &[1, 1, 2],
                &[4, 56, 496, 4064, 32704, 262016, 2096896, 16776704],
            ),
            (false, &[2, 2], &[0; 7]),
            (false, &[4], &[0; 12]),
        ];
        for (mp, sizes, expected) in deep {
            let alpha = Assignment::from_group_sizes(sizes).unwrap();
            let model = if mp {
                Model::message_passing_cyclic(alpha.n())
            } else {
                Model::Blackboard
            };
            let dp = solved_series(&model, &LeaderElection, &alpha, expected.len());
            assert_eq!(dp, expected, "{model} {alpha}");
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
        // Rows come from the lane stepper, 64 digits per step, each lane
        // read back by `lane_labels`, and only the digits below 2^(k−1)
        // are stepped. This guards that extraction and the complement
        // shortcut: from every reachable state, under every silence mask,
        // each row entry's labels must induce exactly the pair bits of an
        // independent stepper whose lane d took digit d, and digits d and
        // d ^ (2^k − 1) must share a child — both models, fault-free and
        // faulted.
        let alpha = Assignment::from_group_sizes(&[1, 1, 2]).unwrap();
        let k = alpha.k();
        let mask = (1usize << k) - 1;
        // Source s's word: bit d = digit d's bit for s.
        let words: Vec<u64> = (0..k)
            .map(|s| (0..1u64 << k).fold(0u64, |w, d| w | (d >> s & 1) << d))
            .collect();
        for model in models_for(alpha.n()) {
            for faulted in [false, true] {
                let kernel = TaskKernel::new(&LeaderElection, None);
                let mut dp = Dp::new(&model, &alpha, kernel, faulted);
                let (mut lanes, silences) = if faulted {
                    let silences = vec![Some(0), Some(0b0101), Some(0b1000)];
                    (LaneStepper::new_faulted(&model, &alpha), silences)
                } else {
                    (LaneStepper::new(&model, &alpha), vec![None])
                };
                dp.intern(&vec![0u8; dp.units]);
                let mut row = Vec::new();
                // Expanding in id order reaches every reachable state.
                let mut sid = 0;
                while sid < dp.states.len() {
                    let labels = dp.states[sid].clone();
                    for &silence in &silences {
                        dp.expand(&labels, silence, &mut row);
                        assert_eq!(row.len(), mask + 1);
                        lanes.load_relation(&labels);
                        match silence {
                            None => lanes.step(|s| words[s]),
                            Some(m) => lanes.step_faulted(
                                |s| words[s],
                                |u| {
                                    if m >> u & 1 == 1 {
                                        u64::MAX
                                    } else {
                                        0
                                    }
                                },
                            ),
                        }
                        for (digit, &child) in row.iter().enumerate() {
                            let context = format!(
                                "{model} faulted={faulted} state={labels:?} \
                                 silence={silence:?} digit={digit}"
                            );
                            assert_eq!(child, row[digit ^ mask], "complement: {context}");
                            let out = &dp.states[child as usize];
                            for a in 0..dp.units {
                                for b in a + 1..dp.units {
                                    let lane =
                                        lanes.eq_words()[pair_index(dp.units, a, b)] >> digit & 1
                                            == 1;
                                    assert_eq!(out[a] == out[b], lane, "{context} pair=({a},{b})");
                                }
                            }
                        }
                    }
                    sid += 1;
                }
                assert!(dp.states.len() > 1, "{model} explored no states");
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
            let kernel = TaskKernel::new(&LeaderElection, None);
            let mut dp = Dp::new(&model, &alpha, kernel, false);
            let root = dp.intern(&vec![0u8; dp.units]);
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
                    dp.expand(&labels, None, &mut row);
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
            assert!(dp.states.len() > 1, "{model}");
        }
    }

    #[test]
    fn cyclic_le_counters_are_pinned() {
        // Rows keep all 2^k entries, so the counters keep their meaning:
        // cyclic LE on [1; 8] at t = 6.
        let alpha = Assignment::private(8);
        let model = Model::message_passing_cyclic(8);
        let (_, stats) = solved_series_with_stats(&model, &LeaderElection, &alpha, 6, 1);
        assert_eq!(
            (
                stats.states,
                stats.rows_built,
                stats.row_hits,
                stats.transitions
            ),
            (206, 135, 526, 169_216),
            "{stats:?}"
        );
    }

    #[test]
    fn node_unit_states_skip_the_memo_map() {
        // Node-unit states are node partitions already deduplicated by
        // the state index: each is decided once, by closed form, and the
        // verdict memo stays empty — counted all the same.
        let alpha = Assignment::private(6);
        let model = Model::message_passing_cyclic(6);
        let kernel = TaskKernel::new(&LeaderElection, None);
        let mut dp = Dp::new(&model, &alpha, kernel, false);
        dp.intern(&vec![0u8; dp.units]);
        let mut row = Vec::new();
        for sid in 0..3 {
            let labels = dp.states[sid].clone();
            dp.expand(&labels, None, &mut row);
        }
        assert!(dp.states.len() > 3, "{}", dp.states.len());
        assert_eq!(dp.memo.memoized(), 0);
        let stats = dp.stats(1);
        assert_eq!(stats.closed_form_verdicts, stats.states as u64, "{stats:?}");
        assert_eq!(stats.memo_hits, 0);
    }

    #[test]
    fn source_unit_states_skip_the_memo_map() {
        // Fault-free blackboard states are source partitions. Every
        // source feeds a node, so distinct states pull back to distinct
        // node partitions: each is decided once, the memo map stays
        // empty, and no verdict could have come from it.
        let alpha = Assignment::from_group_sizes(&[1, 2, 3, 1]).unwrap();
        let kernel = TaskKernel::new(&LeaderElection, None);
        let mut dp = Dp::new(&Model::Blackboard, &alpha, kernel, false);
        assert!(dp.node_unit.is_some(), "blackboard units are the sources");
        dp.intern(&vec![0u8; dp.units]);
        let mut row = Vec::new();
        let mut sid = 0;
        while sid < dp.states.len() {
            let labels = dp.states[sid].clone();
            dp.expand(&labels, None, &mut row);
            sid += 1;
        }
        assert_eq!(dp.states.len(), 15, "Bell(4) source partitions");
        assert_eq!(dp.memo.memoized(), 0);
        let stats = dp.stats(1);
        assert_eq!(stats.closed_form_verdicts, stats.states as u64, "{stats:?}");
        assert_eq!(stats.memo_hits, 0);
    }

    #[test]
    fn parallel_rows_match_serial_rows() {
        // Frontiers past `PAR_MIN_STATES` missing rows take the
        // parallel branch: counts and every counter must equal the
        // serial run's, fault-free and faulted.
        let alpha = Assignment::private(7);
        let model = Model::message_passing_cyclic(7);
        let t_max = 4;
        let mut sched = FaultSchedule::empty(7, t_max);
        sched.set_omission(0, 2);
        sched.set_crash(4, 3);
        for faults in [None, Some(&sched)] {
            let series = |threads| run(&model, &LeaderElection, &alpha, t_max, faults, threads);
            let serial = series(1);
            assert!(serial.1.frontier_max >= 32, "{:?}", serial.1);
            assert_eq!(series(4), serial, "faulted={}", faults.is_some());
        }
    }

    #[test]
    fn faulted_dp_matches_faulted_tree_engine() {
        let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
        let t_max = 3;
        let mut sched = FaultSchedule::empty(3, t_max);
        sched.set_omission(0, 2);
        sched.set_crash(2, 2);
        // A longer horizon with the faults mid-run: an omission in round
        // 3 and a crash from round 5, ten rounds deep, pinned to the
        // counts of a full faulted execution-tree walk.
        let mut late = FaultSchedule::empty(3, 10);
        late.set_omission(0, 3);
        late.set_crash(2, 5);
        let late_counts: [u128; 10] = [2, 12, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576];
        for model in models_for(3) {
            let dp = solved_series_faulted(&model, &LeaderElection, &alpha, 10, &late);
            assert_eq!(dp, late_counts, "{model} omit(0@3) crash(2@5)");
        }
        // Leaf-by-leaf faulted re-simulation on the short schedule: the
        // absorption of solved states stays sound under faults (the
        // partition still only refines, because every round embeds each
        // node's own previous knowledge, silent or not).
        for model in models_for(3) {
            for task in tasks_for(3) {
                let dp = solved_series_faulted(&model, task.as_ref(), &alpha, t_max, &sched);
                let reference = leaf_by_leaf_faulted(&model, task.as_ref(), &alpha, t_max, &sched);
                assert_eq!(dp, reference, "{model} {}", task.name());
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
        // Sizes [1, 2] share the closed form; sizes [2, 2] never elect on
        // the blackboard, so their row stays zero to the edge.
        for sizes in [&[1, 1][..], &[1, 2]] {
            let alpha = Assignment::from_group_sizes(sizes).unwrap();
            let series = solved_series(&Model::Blackboard, &LeaderElection, &alpha, 63);
            for t in 1..=63usize {
                assert_eq!(
                    series[t - 1],
                    (1u128 << (2 * t)) - (1u128 << t),
                    "{sizes:?} t={t}"
                );
            }
        }
        let pairs = Assignment::from_group_sizes(&[2, 2]).unwrap();
        let series = solved_series(&Model::Blackboard, &LeaderElection, &pairs, 63);
        assert!(series.iter().all(|&c| c == 0), "LE on [2, 2] is a zero row");
    }

    #[test]
    fn root_solving_fills_every_depth_to_126_bits() {
        // n = 1 solves at the root, so every depth tallies full; k = 1,
        // t = 126 exercises `1u128 << 126` — the largest shift the budget
        // admits — and every depth on the way, past 2^62 and 2^64.
        let alpha = Assignment::private(1);
        let series = solved_series(&Model::Blackboard, &LeaderElection, &alpha, 126);
        for (i, &count) in series.iter().enumerate() {
            assert_eq!(count, 1u128 << (i + 1), "t={}", i + 1);
        }
    }

    #[test]
    fn dense_scan_fallback_matches_closed_form() {
        // The same output complex through solves_partition (LeaderElection)
        // and through the dense fallback (OpaqueLeaderElection) must tally
        // identically, and the opaque task must actually hit the scan.
        let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
        for model in models_for(3) {
            let (closed, _) = solved_series_with_stats(&model, &LeaderElection, &alpha, 3, 1);
            let (scanned, stats) =
                solved_series_with_stats(&model, &OpaqueLeaderElection, &alpha, 3, 1);
            assert_eq!(closed, scanned, "{model}");
            assert!(stats.dense_scan_verdicts > 0, "{model} {stats:?}");
            assert_eq!(stats.closed_form_verdicts, 0, "{model} {stats:?}");
        }
    }

    #[test]
    fn streaming_mode_counts_each_expansion_as_a_built_row() {
        // k = 13 > ROW_CACHE_MAX_K streams its rows: at t = 1 the root
        // is the only frontier state, expanded once over all 2^13 digits.
        let alpha = Assignment::private(13);
        let model = Model::message_passing_cyclic(13);
        let (series, stats) = solved_series_with_stats(&model, &LeaderElection, &alpha, 1, 1);
        // Exactly one node's bit differs from the other twelve.
        assert_eq!(series, vec![26]);
        assert_eq!(
            (stats.rows_built, stats.row_hits, stats.transitions),
            (1, 0, 1 << 13),
            "{stats:?}"
        );
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
