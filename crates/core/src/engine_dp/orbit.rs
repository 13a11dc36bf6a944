//! The orbit quotient of the fault-free blackboard DP (`DESIGN.md` §4.12).
//!
//! When the task is symmetric under process renaming, permuting sources of
//! equal group size maps every labeled source partition's children onto
//! its image's children, digit for digit, and leaves the multiset of
//! node-class sizes — hence the verdict — unchanged. So the labeled DP's
//! counts summed over an orbit obey a DP of their own:
//!
//! * **State** — a multiset of knowledge classes, each named by its *class
//!   type*: how many sources of each distinct group size it holds. For
//!   sizes `[2; 8]` the states are the 22 integer partitions of 8 instead
//!   of the Bell(8) = 4,140 labeled partitions.
//! * **Transition** — a round splits every class `c` into the unordered
//!   pair `{i, c − i}` (the sources that drew 0 and those that drew 1),
//!   with weight `∏ₛ C(cₛ, iₛ)`, doubled when `i ≠ c − i`. `r` identical
//!   classes fold into a multiset of `r` splits with multinomial weight.
//!   Each row's weights sum to `2^k`, the labeled row's digit count.
//! * **Counts and verdicts** — the labeled DP's absorption recurrence over
//!   exact `u128` dyadic integers, unchanged; a state's verdict is
//!   [`SolvabilityMemo::solves_labels`] on node labels built from each
//!   class's node size.

use rsbt_random::Assignment;
use rsbt_sim::FxHashMap;
use rsbt_tasks::Task;

use super::{absorb_rest, all_solved, DpStats};
use crate::solvability::{SolvabilityMemo, TaskKernel};

/// One unordered split `{i, c − i}` of a class type.
struct Split {
    /// Type ids of the non-empty parts, sorted.
    parts: Vec<u32>,
    /// How many of the class's source-bit patterns produce this split.
    weight: u128,
}

/// A weighted transition row: `(child state, weight)` pairs.
type Row = Box<[(u32, u128)]>;

/// A class type: the number of sources of each distinct group size.
struct ClassType {
    counts: Box<[u8]>,
    /// Nodes in a class of this type.
    nodes: usize,
}

/// The orbit DP tables.
struct Orbit<'a, T: Task + ?Sized> {
    k: usize,
    kernel: TaskKernel<'a, T>,
    memo: SolvabilityMemo,
    /// The distinct group sizes, ascending (the class-type coordinates).
    sizes: Vec<usize>,
    /// `binom[a][b] = C(a, b)` for `a ≤ k`.
    binom: Vec<Vec<u128>>,
    types: Vec<ClassType>,
    type_index: FxHashMap<Box<[u8]>, u32>,
    /// Splits per type id; empty until first built (every type has at
    /// least the trivial split `{0, c}`).
    splits: Vec<Vec<Split>>,
    /// Interned states, by id: sorted class type ids.
    states: Vec<Box<[u32]>>,
    index: FxHashMap<Box<[u32]>, u32>,
    verdicts: Vec<bool>,
    /// Weighted transition rows `(child, weight)`, by state id.
    rows: Vec<Option<Row>>,
    node_labels: Vec<u8>,
    rows_built: u64,
    row_hits: u64,
    transitions: u64,
}

impl<T: Task + ?Sized> Orbit<'_, T> {
    fn intern_type(&mut self, counts: &[u8]) -> u32 {
        if let Some(&id) = self.type_index.get(counts) {
            return id;
        }
        let id = self.types.len() as u32;
        let nodes = counts
            .iter()
            .zip(&self.sizes)
            .map(|(&c, &s)| c as usize * s)
            .sum();
        self.type_index.insert(Box::from(counts), id);
        self.types.push(ClassType {
            counts: Box::from(counts),
            nodes,
        });
        self.splits.push(Vec::new());
        id
    }

    /// Interns a state, computing its verdict on first sight: class `j`
    /// of the sorted state contributes its node count of label `j`.
    /// Unlike the labeled DP's states, distinct orbit states can share
    /// these node labels (under group sizes `[1, 1, 1, 1, 2, 2]` a class
    /// of two singleton sources and one of a single pair both hold two
    /// nodes), so the verdict goes through the memo map, which hits.
    fn intern(&mut self, state: &[u32]) -> u32 {
        if let Some(&id) = self.index.get(state) {
            return id;
        }
        let id = self.states.len() as u32;
        self.index.insert(Box::from(state), id);
        self.states.push(Box::from(state));
        self.rows.push(None);
        self.node_labels.clear();
        for (class, &ty) in state.iter().enumerate() {
            let nodes = self.types[ty as usize].nodes;
            self.node_labels
                .extend(std::iter::repeat_n(class as u8, nodes));
        }
        let verdict = self.memo.solves_labels(&self.node_labels, &self.kernel);
        self.verdicts.push(verdict);
        id
    }

    /// Builds the unordered splits of type `ty` once: every sub-vector
    /// `i ≤ c` with `i ≤ c − i` lexicographically, so each pair appears
    /// exactly once.
    fn ensure_splits(&mut self, ty: u32) {
        if !self.splits[ty as usize].is_empty() {
            return;
        }
        let c = self.types[ty as usize].counts.clone();
        let mut i = vec![0u8; c.len()];
        let mut rest = vec![0u8; c.len()];
        let mut splits = Vec::new();
        'odometer: loop {
            for ((r, &cj), &ij) in rest.iter_mut().zip(c.iter()).zip(&i) {
                *r = cj - ij;
            }
            if i <= rest {
                let mut weight: u128 = i
                    .iter()
                    .zip(c.iter())
                    .map(|(&a, &b)| self.binom[b as usize][a as usize])
                    .product();
                if i != rest {
                    weight *= 2;
                }
                let mut parts = Vec::with_capacity(2);
                for part in [&i, &rest] {
                    if part.iter().any(|&x| x > 0) {
                        parts.push(self.intern_type(part));
                    }
                }
                parts.sort_unstable();
                splits.push(Split { parts, weight });
            }
            for (ij, &cj) in i.iter_mut().zip(c.iter()) {
                if *ij < cj {
                    *ij += 1;
                    continue 'odometer;
                }
                *ij = 0;
            }
            break;
        }
        self.splits[ty as usize] = splits;
    }

    /// The weighted transition row of state `sid`: runs of identical
    /// classes fold to multisets of splits, and the partial outcomes are
    /// merged run by run, so children reached several ways are summed
    /// before the next run multiplies them out.
    fn build_row(&mut self, sid: u32) -> Row {
        let state = self.states[sid as usize].clone();
        for &ty in state.iter() {
            self.ensure_splits(ty);
        }
        let mut partials: Vec<(Vec<u32>, u128)> = vec![(Vec::new(), 1)];
        let mut options = Vec::new();
        let mut merged: FxHashMap<Vec<u32>, u128> = FxHashMap::default();
        for run in state.chunk_by(|a, b| a == b) {
            options.clear();
            fold_copies(
                &self.splits[run[0] as usize],
                run.len(),
                &self.binom,
                &mut Vec::new(),
                1,
                &mut options,
            );
            for (partial, weight) in &partials {
                for (parts, option_weight) in &options {
                    let mut child = partial.clone();
                    child.extend_from_slice(parts);
                    child.sort_unstable();
                    *merged.entry(child).or_insert(0) += weight * option_weight;
                }
            }
            partials = merged.drain().collect();
        }
        // Sorted, so state ids are assigned in a fixed order.
        partials.sort_unstable();
        debug_assert_eq!(
            partials.iter().map(|&(_, w)| w).sum::<u128>(),
            1u128 << self.k,
            "orbit row weights must sum to 2^k"
        );
        partials
            .iter()
            .map(|(child, weight)| (self.intern(child), *weight))
            .collect()
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

/// Appends the outcomes of `left` identical classes splitting
/// independently, folded to multisets over `splits`: each multiset's
/// parts, with weight `left! / ∏ mₗ! · ∏ weightₗ^mₗ` (times `weight`).
/// Every intermediate product divides its final weight, and the weights
/// sum to `2^{|c|·left} ≤ 2^k`, so nothing overflows for `k ≤ 126`.
fn fold_copies(
    splits: &[Split],
    left: usize,
    binom: &[Vec<u128>],
    parts: &mut Vec<u32>,
    weight: u128,
    out: &mut Vec<(Vec<u32>, u128)>,
) {
    let Some((first, rest)) = splits.split_first() else {
        return;
    };
    let len = parts.len();
    if rest.is_empty() {
        // The last split takes every remaining copy. (Trying fewer would
        // only build dead branches, whose products can overflow.)
        let mut w = weight;
        for _ in 0..left {
            w *= first.weight;
            parts.extend_from_slice(&first.parts);
        }
        out.push((parts.clone(), w));
    } else {
        let mut w = weight;
        for m in 0..=left {
            if m > 0 {
                w *= first.weight;
                parts.extend_from_slice(&first.parts);
            }
            fold_copies(rest, left - m, binom, parts, w * binom[left][m], out);
        }
    }
    parts.truncate(len);
}

/// Pascal's triangle through row `k` (`C(126, 63) < 2^123`).
fn pascal(k: usize) -> Vec<Vec<u128>> {
    let mut rows: Vec<Vec<u128>> = Vec::with_capacity(k + 1);
    for a in 0..=k {
        let row = (0..=a)
            .map(|b| {
                if b == 0 || b == a {
                    1
                } else {
                    rows[a - 1][b - 1] + rows[a - 1][b]
                }
            })
            .collect();
        rows.push(row);
    }
    rows
}

/// The orbit sweep: the same per-depth solved counts as the labeled DP
/// for an eligible query ([`super::orbit_eligible`]).
pub(super) fn run<T: Task + ?Sized>(
    kernel: TaskKernel<'_, T>,
    alpha: &Assignment,
    t_max: usize,
) -> (Vec<u128>, DpStats) {
    let k = alpha.k();
    assert!(
        k <= u8::MAX as usize,
        "too many knowledge units for u8 labels"
    );
    let mut all_sizes = alpha.group_sizes().to_vec();
    all_sizes.sort_unstable();
    let mut sizes = all_sizes.clone();
    sizes.dedup();
    let root_counts: Vec<u8> = sizes
        .iter()
        .map(|&s| all_sizes.iter().filter(|&&x| x == s).count() as u8)
        .collect();
    let mut dp = Orbit {
        k,
        kernel,
        memo: SolvabilityMemo::new(),
        sizes,
        binom: Vec::new(),
        types: Vec::new(),
        type_index: FxHashMap::default(),
        splits: Vec::new(),
        states: Vec::new(),
        index: FxHashMap::default(),
        verdicts: Vec::new(),
        rows: Vec::new(),
        node_labels: Vec::new(),
        rows_built: 0,
        row_hits: 0,
        transitions: 0,
    };
    let root_type = dp.intern_type(&root_counts);
    let root = dp.intern(&[root_type]);
    if dp.verdicts[root as usize] {
        return (all_solved(k, t_max), dp.stats(1));
    }
    let mut counts = vec![0u128; t_max];
    if t_max == 0 {
        return (counts, dp.stats(1));
    }
    // `k·t_max ≤ 126` with `t_max ≥ 1` keeps the triangle in u128.
    dp.binom = pascal(k);
    let mut frontier: Vec<(u32, u128)> = vec![(root, 1)];
    let mut frontier_max = 1usize;
    let mut solved: u128 = 0;
    for r in 1..=t_max {
        let mut next: FxHashMap<u32, u128> = FxHashMap::default();
        let mut newly: u128 = 0;
        for &(sid, cnt) in &frontier {
            let row = match dp.rows[sid as usize].take() {
                Some(row) => {
                    dp.row_hits += 1;
                    row
                }
                None => {
                    dp.rows_built += 1;
                    dp.build_row(sid)
                }
            };
            dp.transitions += row.len() as u64;
            for &(child, weight) in row.iter() {
                if dp.verdicts[child as usize] {
                    newly += cnt * weight;
                } else {
                    *next.entry(child).or_insert(0) += cnt * weight;
                }
            }
            dp.rows[sid as usize] = Some(row);
        }
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
