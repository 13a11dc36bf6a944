//! Compiled lane-parallel verdict plans: `solves_partition` lowered to
//! straight-line bitwise ops over pairwise-equality words.
//!
//! The bit-sliced Monte-Carlo kernel tracks, for 64 samples at once, the
//! pairwise knowledge-equality relation over *units* (sources on the
//! blackboard, nodes under message passing) as packed `u64` words — bit
//! `l` of `eq[pair_index(units, a, b)]` says whether units `a` and `b`
//! are consistent in sample `l`. A [`VerdictPlan`] is the task's
//! closed-form [`crate::Task::solves_partition`] verdict compiled once
//! per `(task, unit layout)` into a short branch-free program over those
//! words: one [`VerdictPlan::eval`] answers all 64 samples in a handful
//! of ANDs and ORs, in the spirit of a JIT — compile the decision once,
//! run it per word — instead of re-interpreting the closed form per
//! sample.
//!
//! The lowerings exploit that the equality relation is an *equivalence*:
//! literal bit-string (or hash-consed id) equality is transitive, so
//! e.g. "≥ 2 classes" is simply "some unit differs from unit 0", and "a
//! weight-1 unit forms a singleton node class" is "that unit differs
//! from every other unit".
//!
//! **Fused runs.** Those "differs from every other unit" terms are long
//! runs of same-register `AndNotEq` (or `OrNotEq`) ops: leader election
//! over 24 units is 24 runs of 23. The plan stores each maximal run as
//! one pair slice, and [`VerdictPlan::eval`] folds it in a local register
//! that stops at the absorbing value (`0` for AND, `!0` for OR), after
//! which the rest of the run cannot change it. [`VerdictPlan::ops`]
//! expands the runs back, so the introspection view and
//! [`VerdictPlan::len`] still count single ops.

/// The packed index of unit pair `(a, b)`, `a < b`, among `units` units
/// (row-major upper triangle). Must match the convention of the caller's
/// equality words — `rsbt_sim::lanes` uses the same formula.
pub fn pair_index(units: usize, a: usize, b: usize) -> usize {
    debug_assert!(a < b && b < units, "need a < b < units");
    a * (2 * units - a - 1) / 2 + (b - a - 1)
}

/// The number of packed unit pairs: `units·(units − 1)/2`.
pub fn pair_count(units: usize) -> usize {
    units * (units - 1) / 2
}

/// Plans longer than this are refused at compile time
/// ([`crate::Task::lane_plan`] returns `None` and the caller peels lanes
/// to the scalar path): past a few thousand ops the straight-line
/// program loses to the scalar verdict it replaces.
pub(crate) const MAX_PLAN_OPS: usize = 4096;

/// Which way a fused run folds its distinction inputs into `regs[dst]`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Fold {
    /// `regs[dst] &= !eq[pair]` per pair (absorbing at `0`).
    And,
    /// `regs[dst] |= !eq[pair]` per pair (absorbing at `!0`).
    Or,
}

/// One stored instruction over lane words. Register 0 is the verdict
/// accumulator; all registers start zeroed. A maximal run of same-`dst`
/// [`PlanOp::AndNotEq`] (or [`PlanOp::OrNotEq`]) ops is stored as one
/// [`Op::Run`] over a slice of the plan's pair list.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// `regs[dst] = !0`.
    Ones { dst: u16 },
    /// `regs[dst] &= !eq[p]` (or `|=`) for every `p` in `pairs[lo..hi]`.
    Run {
        dst: u16,
        fold: Fold,
        lo: usize,
        hi: usize,
    },
    /// `regs[dst] |= regs[src]`.
    Or { dst: u16, src: u16 },
    /// `regs[dst] |= regs[a] & regs[b]`.
    OrAnd { dst: u16, a: u16, b: u16 },
}

/// The introspection view of one plan instruction: the private encoding
/// with every fused run expanded back into its single ops, in execution
/// order. `rsbt-analyze`'s abstract interpreter walks
/// plans through this view ([`VerdictPlan::ops`]) and rebuilds corrupted
/// plans for its rejection tests ([`VerdictPlan::from_raw_ops`]); the
/// execution path never touches it.
///
/// Every op is monotone non-decreasing in the pairwise *distinction*
/// inputs `!eq[pair]` — the structural fact behind the verifier's
/// refinement-monotonicity argument. A new op kind added here must keep
/// that property or the static verifier will reject every plan using it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlanOp {
    /// `regs[dst] = !0`.
    Ones {
        /// Destination register.
        dst: u16,
    },
    /// `regs[dst] &= !eq[pair]`.
    AndNotEq {
        /// Destination register (read-modify-write).
        dst: u16,
        /// Packed pair index (see [`pair_index`]).
        pair: u32,
    },
    /// `regs[dst] |= !eq[pair]`.
    OrNotEq {
        /// Destination register (read-modify-write).
        dst: u16,
        /// Packed pair index (see [`pair_index`]).
        pair: u32,
    },
    /// `regs[dst] |= regs[src]`.
    Or {
        /// Destination register (read-modify-write).
        dst: u16,
        /// Source register.
        src: u16,
    },
    /// `regs[dst] |= regs[a] & regs[b]`.
    OrAnd {
        /// Destination register (read-modify-write).
        dst: u16,
        /// First source register.
        a: u16,
        /// Second source register.
        b: u16,
    },
}

/// A compiled lane-parallel solvability verdict (see the module docs).
///
/// Built by [`crate::Task::lane_plan`]; evaluated once per 64-sample
/// word by [`VerdictPlan::eval`].
#[derive(Clone, Debug)]
pub struct VerdictPlan {
    units: usize,
    regs: usize,
    ops: Vec<Op>,
    /// The pair indices of every fused run, run after run.
    pairs: Vec<u32>,
    /// The op count with every run expanded (what [`Self::len`] reports).
    len: usize,
}

impl VerdictPlan {
    /// An empty plan over `units` units with a `regs`-register file.
    fn empty(units: usize, regs: usize) -> Self {
        VerdictPlan {
            units,
            regs,
            ops: Vec::new(),
            pairs: Vec::new(),
            len: 0,
        }
    }

    /// Appends one op, extending the last run when `op` continues it.
    /// Runs only ever grow at the tail of `pairs`, so a run that is the
    /// last op always ends at `pairs.len()`.
    fn push(&mut self, op: PlanOp) {
        self.len += 1;
        let (dst, fold, pair) = match op {
            PlanOp::AndNotEq { dst, pair } => (dst, Fold::And, pair),
            PlanOp::OrNotEq { dst, pair } => (dst, Fold::Or, pair),
            PlanOp::Ones { dst } => return self.ops.push(Op::Ones { dst }),
            PlanOp::Or { dst, src } => return self.ops.push(Op::Or { dst, src }),
            PlanOp::OrAnd { dst, a, b } => return self.ops.push(Op::OrAnd { dst, a, b }),
        };
        let end = self.pairs.len();
        self.pairs.push(pair);
        match self.ops.last_mut() {
            Some(Op::Run {
                dst: d,
                fold: f,
                hi,
                ..
            }) if *d == dst && *f == fold => *hi += 1,
            _ => self.ops.push(Op::Run {
                dst,
                fold,
                lo: end,
                hi: end + 1,
            }),
        }
    }

    /// The unit count the plan was compiled for.
    pub fn units(&self) -> usize {
        self.units
    }

    /// The size of the plan's register file (register 0 is the verdict).
    pub fn regs(&self) -> usize {
        self.regs
    }

    /// The op budget compilation refuses to exceed — the bound the static
    /// verifier re-checks on every built plan.
    pub fn max_ops() -> usize {
        MAX_PLAN_OPS
    }

    /// The instruction stream as introspection ops, in execution order,
    /// with every fused run expanded into its single ops.
    pub fn ops(&self) -> impl Iterator<Item = PlanOp> + '_ {
        self.ops.iter().flat_map(move |&op| {
            let (single, run) = match op {
                Op::Ones { dst } => (Some(PlanOp::Ones { dst }), None),
                Op::Run { dst, fold, lo, hi } => (None, Some((dst, fold, &self.pairs[lo..hi]))),
                Op::Or { dst, src } => (Some(PlanOp::Or { dst, src }), None),
                Op::OrAnd { dst, a, b } => (Some(PlanOp::OrAnd { dst, a, b }), None),
            };
            let run = run.into_iter().flat_map(|(dst, fold, pairs)| {
                pairs.iter().map(move |&pair| match fold {
                    Fold::And => PlanOp::AndNotEq { dst, pair },
                    Fold::Or => PlanOp::OrNotEq { dst, pair },
                })
            });
            single.into_iter().chain(run)
        })
    }

    /// Assembles a plan from raw introspection ops, bypassing the task
    /// lowerings and every builder invariant (same-`dst` runs are fused
    /// exactly as the builder fuses them).
    ///
    /// This is an analysis/testing hook: `rsbt-analyze` uses it to build
    /// deliberately corrupted plans and prove its verifier rejects them.
    /// Nothing validates the ops — evaluating a plan with out-of-range
    /// registers or pair indices panics unless a run exits before
    /// reaching the bad pair.
    pub fn from_raw_ops(units: usize, regs: usize, ops: &[PlanOp]) -> VerdictPlan {
        let mut plan = VerdictPlan::empty(units, regs);
        for &op in ops {
            plan.push(op);
        }
        plan
    }

    /// The number of straight-line ops, counting every op of a fused run
    /// (diagnostics only).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the plan is the empty (constant-false) program.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Runs the plan over packed pairwise-equality words: bit `l` of the
    /// result is the task's verdict for lane `l`'s partition. `regs` is
    /// caller-owned scratch, reused across calls without reallocating.
    ///
    /// Each fused run folds its pairs in a local register and stops as
    /// soon as that register is absorbing (`0` for an AND run, `!0` for
    /// an OR run): the remaining ops of the run cannot change it.
    ///
    /// # Panics
    ///
    /// Panics if `eq` is not the packed upper triangle for the plan's
    /// unit count.
    pub fn eval(&self, eq: &[u64], regs: &mut Vec<u64>) -> u64 {
        assert_eq!(
            eq.len(),
            pair_count(self.units),
            "equality words do not match the plan's {} units",
            self.units
        );
        regs.clear();
        regs.resize(self.regs, 0);
        for op in &self.ops {
            match *op {
                Op::Ones { dst } => regs[dst as usize] = !0,
                Op::Run {
                    dst,
                    fold: Fold::And,
                    lo,
                    hi,
                } => {
                    let mut r = regs[dst as usize];
                    for &p in &self.pairs[lo..hi] {
                        if r == 0 {
                            break;
                        }
                        r &= !eq[p as usize];
                    }
                    regs[dst as usize] = r;
                }
                Op::Run {
                    dst,
                    fold: Fold::Or,
                    lo,
                    hi,
                } => {
                    let mut r = regs[dst as usize];
                    for &p in &self.pairs[lo..hi] {
                        if r == !0 {
                            break;
                        }
                        r |= !eq[p as usize];
                    }
                    regs[dst as usize] = r;
                }
                Op::Or { dst, src } => regs[dst as usize] |= regs[src as usize],
                Op::OrAnd { dst, a, b } => {
                    let v = regs[a as usize] & regs[b as usize];
                    regs[dst as usize] |= v;
                }
            }
        }
        regs[0]
    }
}

/// Incremental [`VerdictPlan`] assembly for the task lowerings.
pub(crate) struct PlanBuilder {
    plan: VerdictPlan,
}

impl PlanBuilder {
    /// A builder with register 0 (the verdict) allocated and zeroed.
    pub(crate) fn new(units: usize) -> Self {
        PlanBuilder {
            plan: VerdictPlan::empty(units, 1),
        }
    }

    /// Allocates a fresh scratch register (starts zeroed).
    pub(crate) fn reg(&mut self) -> u16 {
        let r = self.plan.regs;
        self.plan.regs += 1;
        u16::try_from(r).expect("plan register file overflow")
    }

    pub(crate) fn ones(&mut self, dst: u16) {
        self.plan.push(PlanOp::Ones { dst });
    }

    /// `regs[dst] &= !eq[(a, b)]` for distinct units `a`, `b`.
    pub(crate) fn and_not_eq(&mut self, dst: u16, a: usize, b: usize) {
        let pair = self.pair(a, b);
        self.plan.push(PlanOp::AndNotEq { dst, pair });
    }

    /// `regs[dst] |= !eq[(a, b)]` for distinct units `a`, `b`.
    pub(crate) fn or_not_eq(&mut self, dst: u16, a: usize, b: usize) {
        let pair = self.pair(a, b);
        self.plan.push(PlanOp::OrNotEq { dst, pair });
    }

    pub(crate) fn or(&mut self, dst: u16, src: u16) {
        self.plan.push(PlanOp::Or { dst, src });
    }

    pub(crate) fn or_and(&mut self, dst: u16, a: u16, b: u16) {
        self.plan.push(PlanOp::OrAnd { dst, a, b });
    }

    pub(crate) fn len(&self) -> usize {
        self.plan.len()
    }

    fn pair(&self, a: usize, b: usize) -> u32 {
        pair_index(self.plan.units, a.min(b), a.max(b)) as u32
    }

    /// Finishes the plan, or `None` when it overran [`MAX_PLAN_OPS`].
    pub(crate) fn finish(self) -> Option<VerdictPlan> {
        (self.plan.len() <= MAX_PLAN_OPS).then_some(self.plan)
    }
}

/// The number of nodes each unit covers, from the node → unit map.
pub(crate) fn unit_weights(unit_of_node: &[usize], units: usize) -> Vec<u32> {
    let mut w = vec![0u32; units];
    for &u in unit_of_node {
        w[u] += 1;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Task;
    use crate::{KLeaderElection, LeaderAndDeputy, LeaderElection, WeakSymmetryBreaking};

    /// Packs per-lane node partitions into unit-equality words for the
    /// identity unit layout (units = nodes).
    fn eq_words_from_labels(lanes: &[Vec<u8>], n: usize) -> Vec<u64> {
        let mut eq = vec![0u64; pair_count(n)];
        for (l, labels) in lanes.iter().enumerate() {
            for a in 0..n {
                for b in a + 1..n {
                    if labels[a] == labels[b] {
                        eq[pair_index(n, a, b)] |= 1 << l;
                    }
                }
            }
        }
        eq
    }

    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^ (z >> 31)
    }

    /// 64 independently randomized partitions of `n` nodes.
    fn random_lanes(n: usize, salt: u64) -> Vec<Vec<u8>> {
        (0..64u64)
            .map(|l| {
                (0..n)
                    .map(|i| (mix(salt ^ (l << 16) ^ i as u64) % n as u64) as u8)
                    .collect()
            })
            .collect()
    }

    fn assert_plan_matches_scalar(task: &dyn Task, n: usize, salt: u64) {
        let unit_of_node: Vec<usize> = (0..n).collect();
        let plan = task
            .lane_plan(&unit_of_node, n)
            .unwrap_or_else(|| panic!("{} has no plan for n={n}", task.name()));
        let lanes = random_lanes(n, salt);
        let eq = eq_words_from_labels(&lanes, n);
        let mut regs = Vec::new();
        let got = plan.eval(&eq, &mut regs);
        for (l, labels) in lanes.iter().enumerate() {
            let want = task.solves_partition(labels).expect("closed form");
            assert_eq!(
                got >> l & 1 == 1,
                want,
                "{} n={n} lane {l} labels {labels:?}",
                task.name()
            );
        }
    }

    #[test]
    fn plans_match_scalar_closed_forms_on_random_partitions() {
        for n in 1..=8 {
            assert_plan_matches_scalar(&LeaderElection, n, 101 + n as u64);
        }
        for n in 2..=8 {
            assert_plan_matches_scalar(&WeakSymmetryBreaking, n, 211 + n as u64);
            assert_plan_matches_scalar(&LeaderAndDeputy::unconstrained(n), n, 307 + n as u64);
            for k in 1..=n {
                let task = KLeaderElection::new(k);
                assert_plan_matches_scalar(&task, n, 401 + (n * 16 + k) as u64);
            }
        }
    }

    #[test]
    fn constrained_deputy_plans_match_scalar() {
        let t = LeaderAndDeputy::new(
            vec![true, true, false, false],
            vec![false, false, true, true],
        );
        assert_plan_matches_scalar(&t, 4, 997);
    }

    #[test]
    fn k_leader_subset_sum_pin() {
        // Sizes [3, 3, 2] reach k = 5 (3 + 2) but not k = 4.
        let labels = [0u8, 0, 0, 1, 1, 1, 2, 2];
        let unit_of_node: Vec<usize> = (0..8).collect();
        let eq = eq_words_from_labels(&[labels.to_vec()], 8);
        let mut regs = Vec::new();
        let five = KLeaderElection::new(5);
        let four = KLeaderElection::new(4);
        assert_eq!(five.solves_partition(&labels), Some(true));
        assert_eq!(four.solves_partition(&labels), Some(false));
        let p5 = five.lane_plan(&unit_of_node, 8).unwrap();
        let p4 = four.lane_plan(&unit_of_node, 8).unwrap();
        assert_eq!(p5.eval(&eq, &mut regs) & 1, 1);
        assert_eq!(p4.eval(&eq, &mut regs) & 1, 0);
    }

    #[test]
    fn grouped_units_carry_their_weights() {
        // Blackboard-style layout: 3 nodes on 2 units ([1, 2]). The
        // weight-2 unit can never be a singleton class, so leader
        // election solves iff unit 0 is alone.
        let unit_of_node = [0usize, 1, 1];
        let plan = LeaderElection.lane_plan(&unit_of_node, 2).unwrap();
        let mut regs = Vec::new();
        assert_eq!(plan.eval(&[u64::MAX], &mut regs), 0, "one class of 3");
        assert_eq!(plan.eval(&[0], &mut regs), u64::MAX, "unit 0 split off");
    }

    #[test]
    fn oversized_plans_are_refused() {
        // 2-leader election over 17+ units bails out of the subset
        // enumeration rather than compile an enormous program.
        let unit_of_node: Vec<usize> = (0..32).collect();
        assert!(KLeaderElection::new(2)
            .lane_plan(&unit_of_node, 32)
            .is_none());
    }

    #[test]
    fn introspection_roundtrips_through_raw_ops() {
        let unit_of_node: Vec<usize> = (0..5).collect();
        let plan = KLeaderElection::new(2).lane_plan(&unit_of_node, 5).unwrap();
        let ops: Vec<PlanOp> = plan.ops().collect();
        assert_eq!(ops.len(), plan.len());
        assert!(plan.regs() >= 1 && plan.len() <= VerdictPlan::max_ops());
        let rebuilt = VerdictPlan::from_raw_ops(plan.units(), plan.regs(), &ops);
        let lanes = random_lanes(5, 77);
        let eq = eq_words_from_labels(&lanes, 5);
        let mut regs = Vec::new();
        let want = plan.eval(&eq, &mut regs);
        assert_eq!(rebuilt.eval(&eq, &mut regs), want);
    }

    /// The op-by-op interpretation of the introspection view — the
    /// unfused semantics the fused `eval` must reproduce.
    fn interpret(plan: &VerdictPlan, eq: &[u64]) -> u64 {
        let mut regs = vec![0u64; plan.regs()];
        for op in plan.ops() {
            match op {
                PlanOp::Ones { dst } => regs[dst as usize] = !0,
                PlanOp::AndNotEq { dst, pair } => regs[dst as usize] &= !eq[pair as usize],
                PlanOp::OrNotEq { dst, pair } => regs[dst as usize] |= !eq[pair as usize],
                PlanOp::Or { dst, src } => regs[dst as usize] |= regs[src as usize],
                PlanOp::OrAnd { dst, a, b } => {
                    regs[dst as usize] |= regs[a as usize] & regs[b as usize]
                }
            }
        }
        regs[0]
    }

    /// Random, all-distinct and all-equal words, plus words where each
    /// pair is all-ones or all-zeros at random.
    fn word_sets(pairs: usize, salt: u64) -> Vec<Vec<u64>> {
        let random: Vec<u64> = (0..pairs).map(|p| mix(salt ^ p as u64)).collect();
        let blocky: Vec<u64> = random
            .iter()
            .map(|&w| if w & 1 == 1 { !0 } else { 0 })
            .collect();
        vec![random, vec![0; pairs], vec![!0; pairs], blocky]
    }

    #[test]
    fn fused_eval_matches_op_by_op_interpretation() {
        let mut tasks: Vec<(Box<dyn Task>, usize)> = Vec::new();
        for n in 1..=8usize {
            tasks.push((Box::new(LeaderElection), n));
        }
        for n in 2..=8usize {
            tasks.push((Box::new(WeakSymmetryBreaking), n));
            tasks.push((Box::new(LeaderAndDeputy::unconstrained(n)), n));
            for k in 1..=n {
                tasks.push((Box::new(KLeaderElection::new(k)), n));
            }
        }
        tasks.push((
            Box::new(LeaderAndDeputy::new(
                vec![true, true, false, false],
                vec![false, false, true, true],
            )),
            4,
        ));
        let mut regs = Vec::new();
        let mut plans = 0;
        for (case, (task, n)) in tasks.iter().enumerate() {
            let identity: Vec<usize> = (0..*n).collect();
            let paired: Vec<usize> = (0..*n).map(|i| i / 2).collect();
            for unit_of_node in [identity, paired] {
                let units = unit_of_node.iter().max().map_or(0, |&u| u + 1);
                let Some(plan) = task.lane_plan(&unit_of_node, units) else {
                    continue;
                };
                plans += 1;
                for eq in word_sets(pair_count(units), case as u64) {
                    assert_eq!(
                        plan.eval(&eq, &mut regs),
                        interpret(&plan, &eq),
                        "{} n={n} units={units} eq={eq:x?}",
                        task.name()
                    );
                }
            }
        }
        assert!(plans > 100, "only {plans} plans built");
    }

    #[test]
    fn raw_plans_fuse_only_same_destination_runs() {
        // Runs split on every destination or fold change; `ops()` and
        // `len()` still see the single ops.
        let ops = [
            PlanOp::Ones { dst: 1 },
            PlanOp::AndNotEq { dst: 1, pair: 0 },
            PlanOp::AndNotEq { dst: 2, pair: 1 },
            PlanOp::AndNotEq { dst: 1, pair: 2 },
            PlanOp::OrNotEq { dst: 1, pair: 3 },
            PlanOp::OrNotEq { dst: 1, pair: 4 },
            PlanOp::AndNotEq { dst: 1, pair: 5 },
            PlanOp::Ones { dst: 2 },
            PlanOp::AndNotEq { dst: 2, pair: 0 },
            PlanOp::AndNotEq { dst: 2, pair: 5 },
            PlanOp::OrAnd { dst: 0, a: 1, b: 2 },
            PlanOp::OrNotEq { dst: 0, pair: 2 },
            PlanOp::OrNotEq { dst: 0, pair: 1 },
            PlanOp::Or { dst: 0, src: 1 },
        ];
        let plan = VerdictPlan::from_raw_ops(4, 3, &ops);
        // Stored: Ones, [0], [1], [2], [3 4], [5], Ones, [0 5], OrAnd,
        // [2 1], Or.
        assert_eq!(plan.ops.len(), 11);
        assert_eq!(plan.ops().collect::<Vec<_>>(), ops);
        assert_eq!(plan.len(), ops.len());
        assert!(!plan.is_empty());
        let mut regs = Vec::new();
        for salt in 0..16 {
            for eq in word_sets(pair_count(4), salt) {
                assert_eq!(plan.eval(&eq, &mut regs), interpret(&plan, &eq), "{eq:x?}");
            }
        }
        let empty = VerdictPlan::from_raw_ops(4, 1, &[]);
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.eval(&[!0; 6], &mut regs), 0);
    }

    #[test]
    fn default_lane_plan_is_none() {
        struct Opaque;
        impl Task for Opaque {
            fn name(&self) -> std::borrow::Cow<'static, str> {
                std::borrow::Cow::Borrowed("opaque")
            }
            fn output_complex(&self, n: usize) -> rsbt_complex::Complex<u64> {
                LeaderElection.output_complex(n)
            }
        }
        assert!(Opaque.lane_plan(&[0, 1], 2).is_none());
    }

    #[test]
    #[should_panic(expected = "do not match")]
    fn eval_checks_the_pair_word_count() {
        let plan = LeaderElection.lane_plan(&[0, 1], 2).unwrap();
        let _ = plan.eval(&[], &mut Vec::new());
    }
}
