//! Layer 2a: static verification of compiled [`VerdictPlan`]s.
//!
//! Every built-in task lowering is verified over a `(task, n, layout)`
//! grid, statically, and then runs the plan's real execution form once
//! per endpoint. Six rules:
//!
//! | rule | what it proves |
//! |------|----------------|
//! | `RSBT-P001` | the op count respects the compilation budget ([`VerdictPlan::max_ops`]) |
//! | `RSBT-P002` | no op reads a never-written register (a read of start-zeroed scratch that was never defined is a lowering bug: the op is a constant) |
//! | `RSBT-P003` | no dead ops (backward liveness from the verdict register) |
//! | `RSBT-P004` | every register and pair index is in bounds for the plan's register file and unit count |
//! | `RSBT-P005` | endpoint correctness under refinement monotonicity (below) |
//! | `RSBT-P006` | the executed plan ([`VerdictPlan::eval`], which runs fused pair runs with early exits) agrees with the dual-rail interpretation of [`VerdictPlan::ops`] at both endpoints |
//!
//! # The refinement-monotonicity argument (P005)
//!
//! Every plan op is monotone non-decreasing in the pairwise *distinction*
//! inputs `d[pair] = !eq[pair]`: `Ones` is constant, `AndNotEq`/`OrNotEq`
//! are `&`/`|` with `d[pair]`, and `Or`/`OrAnd` are monotone boolean
//! combinations of registers that are themselves monotone by induction.
//! Running the plan on the two lattice endpoints — the *lo rail* (all
//! `d = 0`: the coarsest partition, every unit equal) and the *hi rail*
//! (all `d = 1`: the finest partition) — therefore brackets the verdict
//! for **every** intermediate equality pattern, and the two endpoint
//! outputs are exact. The verifier interprets both rails abstractly (one
//! bool per register) and compares them against the semantic authority,
//! [`Task::solves_partition`], at the matching node partitions: all
//! labels equal for the lo rail, `labels[i] = unit_of_node[i]` for the hi
//! rail. A plan whose endpoints agree with the closed form and whose op
//! set is drawn from the monotone kinds cannot be wrong *at the
//! endpoints* no matter which lane pattern arrives at run time — and the
//! rails double as a `lo ≤ hi` consistency proof obligation that any
//! future non-monotone op kind would violate.
//!
//! P005 reasons about the introspection view; the kernel runs a lowered
//! form of it (same-destination pair runs fused, folded with early
//! exits). P006 closes that gap: it evaluates the real `eval` on the
//! endpoint words themselves (every equality word `!0` for the lo rail,
//! `0` for the hi rail) and requires each result to be the uniform word
//! of the matching rail's verdict, so a lowering bug fails CI instead of
//! silently shifting an estimate.

use rsbt_tasks::{
    pair_count, KLeaderElection, LeaderAndDeputy, LeaderElection, PlanOp, Task, VerdictPlan,
    WeakSymmetryBreaking,
};

use crate::Finding;

/// Largest system size the grid covers (every task, every `n` up to
/// here, both unit layouts).
pub const MAX_N: usize = 16;

/// The result of the plan-verification pass.
#[derive(Debug, Default)]
pub struct PlanCheckOutcome {
    /// Violations found.
    pub findings: Vec<Finding>,
    /// Plans that were built and verified.
    pub plans_verified: usize,
    /// Grid points where the lowering declined (`lane_plan` → `None`).
    pub plans_skipped: usize,
}

/// Verifies every built-in lowering over the full grid.
pub fn run() -> PlanCheckOutcome {
    let mut out = PlanCheckOutcome::default();
    let tasks: Vec<(Box<dyn Task>, Vec<usize>)> = grid_tasks();
    for (task, sizes) in &tasks {
        for &n in sizes {
            for (layout_name, unit_of_node, units) in layouts(n) {
                let locus = format!("plan:{}/n={n}/{layout_name}", task.name());
                match task.lane_plan(&unit_of_node, units) {
                    None => out.plans_skipped += 1,
                    Some(plan) => {
                        let expected = endpoint_expectations(task.as_ref(), &unit_of_node);
                        out.findings.extend(verify_plan(&locus, &plan, expected));
                        out.plans_verified += 1;
                    }
                }
            }
        }
    }
    out
}

/// The built-in tasks and the sizes each is verified at. `k`-leader
/// election covers every `1 ≤ k ≤ n` (the subset-sum verdict shapes);
/// leader-and-deputy covers the unconstrained task at every `n` plus a
/// genuinely heterogeneous constraint split at `n = 4`.
fn grid_tasks() -> Vec<(Box<dyn Task>, Vec<usize>)> {
    let mut tasks: Vec<(Box<dyn Task>, Vec<usize>)> = vec![
        (Box::new(LeaderElection), (1..=MAX_N).collect()),
        (Box::new(WeakSymmetryBreaking), (2..=MAX_N).collect()),
    ];
    for n in 2..=MAX_N {
        for k in 1..=n {
            tasks.push((Box::new(KLeaderElection::new(k)), vec![n]));
        }
        tasks.push((
            Box::new(LeaderAndDeputy::new(vec![true; n], vec![true; n])),
            vec![n],
        ));
    }
    tasks.push((
        Box::new(LeaderAndDeputy::new(
            vec![true, true, false, false],
            vec![false, false, true, true],
        )),
        vec![4],
    ));
    tasks
}

/// The unit layouts verified per size: one unit per node, and nodes
/// grouped in pairs (the bit-sliced runner's merged-knowledge shape).
fn layouts(n: usize) -> Vec<(&'static str, Vec<usize>, usize)> {
    let mut out = vec![("identity", (0..n).collect::<Vec<_>>(), n)];
    if n >= 2 {
        out.push(("paired", (0..n).map(|i| i / 2).collect(), n.div_ceil(2)));
    }
    out
}

/// The semantic endpoint verdicts: `solves_partition` at the coarsest
/// partition (all nodes one class) and the finest the layout admits
/// (classes = units). `None` when the task has no closed form.
fn endpoint_expectations(task: &dyn Task, unit_of_node: &[usize]) -> Option<(bool, bool)> {
    let coarse = task.solves_partition(&vec![0u8; unit_of_node.len()])?;
    let fine_labels: Vec<u8> = unit_of_node
        .iter()
        .map(|&u| u8::try_from(u).expect("grid sizes fit u8"))
        .collect();
    let fine = task.solves_partition(&fine_labels)?;
    Some((coarse, fine))
}

/// Statically verifies one plan. `expected` carries the semantic
/// `(coarse, fine)` endpoint verdicts when the task has a closed form.
pub fn verify_plan(
    locus: &str,
    plan: &VerdictPlan,
    expected: Option<(bool, bool)>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let regs = plan.regs();
    let pairs = pair_count(plan.units());
    let ops: Vec<PlanOp> = plan.ops().collect();

    // P001: compilation budget.
    if ops.len() > VerdictPlan::max_ops() {
        findings.push(Finding::domain(
            "RSBT-P001",
            locus.to_string(),
            format!(
                "{} ops exceed the compilation budget of {}",
                ops.len(),
                VerdictPlan::max_ops()
            ),
        ));
    }
    if regs == 0 {
        findings.push(Finding::domain(
            "RSBT-P004",
            locus.to_string(),
            "empty register file: register 0 (the verdict) must exist".to_string(),
        ));
        return findings;
    }

    // P004: bounds. Out-of-range ops are excluded from the later passes
    // (they would index past the register file).
    let mut in_bounds = vec![true; ops.len()];
    for (i, op) in ops.iter().enumerate() {
        let (regs_used, pair) = match *op {
            PlanOp::Ones { dst } => (vec![dst], None),
            PlanOp::AndNotEq { dst, pair } | PlanOp::OrNotEq { dst, pair } => {
                (vec![dst], Some(pair))
            }
            PlanOp::Or { dst, src } => (vec![dst, src], None),
            PlanOp::OrAnd { dst, a, b } => (vec![dst, a, b], None),
        };
        for r in regs_used {
            if r as usize >= regs {
                findings.push(Finding::domain(
                    "RSBT-P004",
                    locus.to_string(),
                    format!("op {i} uses register {r}, register file has {regs}"),
                ));
                in_bounds[i] = false;
            }
        }
        if let Some(p) = pair {
            if p as usize >= pairs {
                findings.push(Finding::domain(
                    "RSBT-P004",
                    locus.to_string(),
                    format!(
                        "op {i} reads pair {p}, {} units pack only {pairs} pairs",
                        plan.units()
                    ),
                ));
                in_bounds[i] = false;
            }
        }
    }

    // P002: def-before-use. Registers start zeroed, so a *read* of a
    // never-written register is well-defined — and therefore a silent
    // constant, which is always a lowering bug.
    let mut defined = vec![false; regs];
    for (i, op) in ops.iter().enumerate() {
        if !in_bounds[i] {
            continue;
        }
        match *op {
            PlanOp::Ones { dst } | PlanOp::OrNotEq { dst, .. } => defined[dst as usize] = true,
            PlanOp::AndNotEq { dst, .. } => {
                if !defined[dst as usize] {
                    findings.push(Finding::domain(
                        "RSBT-P002",
                        locus.to_string(),
                        format!("op {i} masks never-written register {dst} (constant zero)"),
                    ));
                    defined[dst as usize] = true;
                }
            }
            PlanOp::Or { dst, src } => {
                if !defined[src as usize] {
                    findings.push(Finding::domain(
                        "RSBT-P002",
                        locus.to_string(),
                        format!("op {i} reads never-written register {src}"),
                    ));
                }
                defined[dst as usize] = true;
            }
            PlanOp::OrAnd { dst, a, b } => {
                for r in [a, b] {
                    if !defined[r as usize] {
                        findings.push(Finding::domain(
                            "RSBT-P002",
                            locus.to_string(),
                            format!("op {i} reads never-written register {r}"),
                        ));
                    }
                }
                defined[dst as usize] = true;
            }
        }
    }

    // P003: dead ops, by backward liveness from the verdict register.
    // `Ones` is a full overwrite and kills its destination; the RMW ops
    // keep it live and propagate liveness into their sources.
    let mut live = vec![false; regs];
    live[0] = true;
    for (i, op) in ops.iter().enumerate().rev() {
        if !in_bounds[i] {
            continue;
        }
        let dst = match *op {
            PlanOp::Ones { dst }
            | PlanOp::AndNotEq { dst, .. }
            | PlanOp::OrNotEq { dst, .. }
            | PlanOp::Or { dst, .. }
            | PlanOp::OrAnd { dst, .. } => dst as usize,
        };
        if !live[dst] {
            findings.push(Finding::domain(
                "RSBT-P003",
                locus.to_string(),
                format!("op {i} ({op:?}) writes register {dst}, which nothing reads"),
            ));
            continue;
        }
        match *op {
            PlanOp::Ones { .. } => live[dst] = false,
            PlanOp::AndNotEq { .. } | PlanOp::OrNotEq { .. } => {}
            PlanOp::Or { src, .. } => live[src as usize] = true,
            PlanOp::OrAnd { a, b, .. } => {
                live[a as usize] = true;
                live[b as usize] = true;
            }
        }
    }

    // P005: dual-rail abstract interpretation at the lattice endpoints
    // (module docs). One bool per register per rail; `lo` sees every
    // distinction as 0, `hi` as 1.
    let mut lo = vec![false; regs];
    let mut hi = vec![false; regs];
    for (i, op) in ops.iter().enumerate() {
        if !in_bounds[i] {
            continue;
        }
        match *op {
            PlanOp::Ones { dst } => {
                lo[dst as usize] = true;
                hi[dst as usize] = true;
            }
            PlanOp::AndNotEq { dst, .. } => lo[dst as usize] = false,
            PlanOp::OrNotEq { dst, .. } => hi[dst as usize] = true,
            PlanOp::Or { dst, src } => {
                lo[dst as usize] |= lo[src as usize];
                hi[dst as usize] |= hi[src as usize];
            }
            PlanOp::OrAnd { dst, a, b } => {
                lo[dst as usize] |= lo[a as usize] && lo[b as usize];
                hi[dst as usize] |= hi[a as usize] && hi[b as usize];
            }
        }
        if lo[..].iter().zip(&hi[..]).any(|(l, h)| *l && !*h) {
            findings.push(Finding::domain(
                "RSBT-P005",
                locus.to_string(),
                format!("op {i} breaks lo ≤ hi: an op kind is not monotone in distinctions"),
            ));
            return findings;
        }
    }
    if in_bounds.iter().all(|&ok| ok) {
        findings.extend(execution_form_findings(locus, plan, (lo[0], hi[0])));
    }
    if let Some((coarse, fine)) = expected {
        if lo[0] != coarse {
            findings.push(Finding::domain(
                "RSBT-P005",
                locus.to_string(),
                format!(
                    "coarse-endpoint verdict {} contradicts solves_partition = {coarse} \
                     (all units equal)",
                    lo[0]
                ),
            ));
        }
        if hi[0] != fine {
            findings.push(Finding::domain(
                "RSBT-P005",
                locus.to_string(),
                format!(
                    "fine-endpoint verdict {} contradicts solves_partition = {fine} \
                     (all units distinct)",
                    hi[0]
                ),
            ));
        }
    }
    findings
}

/// P006: runs the real [`VerdictPlan::eval`] on the two endpoint rails
/// and reports each disagreement with the dual-rail verdicts `rails =
/// (lo, hi)`. Only called on plans whose ops are all in bounds.
fn execution_form_findings(locus: &str, plan: &VerdictPlan, rails: (bool, bool)) -> Vec<Finding> {
    let pairs = pair_count(plan.units());
    let mut regs = Vec::new();
    let mut findings = Vec::new();
    for (rail, eq, verdict) in [("lo", !0u64, rails.0), ("hi", 0, rails.1)] {
        let got = plan.eval(&vec![eq; pairs], &mut regs);
        let want = if verdict { !0u64 } else { 0 };
        if got != want {
            findings.push(Finding::domain(
                "RSBT-P006",
                locus.to_string(),
                format!(
                    "eval on the {rail} rail returned {got:#x}, the interpreted ops give {want:#x}"
                ),
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn full_grid_is_clean() {
        let out = run();
        assert!(out.findings.is_empty(), "{:#?}", out.findings);
        assert!(out.plans_verified > 0, "grid must exercise real plans");
    }

    #[test]
    fn rejects_plan_exceeding_the_op_budget() {
        let ops = vec![PlanOp::OrNotEq { dst: 0, pair: 0 }; VerdictPlan::max_ops() + 1];
        let plan = VerdictPlan::from_raw_ops(2, 1, &ops);
        assert!(rules(&verify_plan("t", &plan, None)).contains(&"RSBT-P001"));
    }

    #[test]
    fn rejects_reads_of_never_written_registers() {
        let plan = VerdictPlan::from_raw_ops(2, 2, &[PlanOp::Or { dst: 0, src: 1 }]);
        let f = verify_plan("t", &plan, None);
        assert!(rules(&f).contains(&"RSBT-P002"), "{f:?}");

        let plan = VerdictPlan::from_raw_ops(2, 1, &[PlanOp::AndNotEq { dst: 0, pair: 0 }]);
        assert!(rules(&verify_plan("t", &plan, None)).contains(&"RSBT-P002"));
    }

    #[test]
    fn rejects_dead_ops() {
        // Register 1 is written, feeds nothing.
        let plan = VerdictPlan::from_raw_ops(
            2,
            2,
            &[PlanOp::Ones { dst: 1 }, PlanOp::OrNotEq { dst: 0, pair: 0 }],
        );
        let f = verify_plan("t", &plan, None);
        assert!(rules(&f).contains(&"RSBT-P003"), "{f:?}");
    }

    #[test]
    fn rejects_out_of_bounds_registers_and_pairs() {
        let plan = VerdictPlan::from_raw_ops(2, 1, &[PlanOp::Or { dst: 0, src: 7 }]);
        assert!(rules(&verify_plan("t", &plan, None)).contains(&"RSBT-P004"));

        // 2 units pack one pair; pair 3 is out of range.
        let plan = VerdictPlan::from_raw_ops(2, 1, &[PlanOp::OrNotEq { dst: 0, pair: 3 }]);
        assert!(rules(&verify_plan("t", &plan, None)).contains(&"RSBT-P004"));

        let plan = VerdictPlan::from_raw_ops(2, 0, &[]);
        assert!(rules(&verify_plan("t", &plan, None)).contains(&"RSBT-P004"));
    }

    #[test]
    fn rejects_corrupted_leader_election_plan_at_the_endpoints() {
        // `[Ones{0}]` claims leader election is solvable even when both
        // units are indistinguishable — the coarse endpoint refutes it.
        let corrupt = VerdictPlan::from_raw_ops(2, 1, &[PlanOp::Ones { dst: 0 }]);
        let expected = endpoint_expectations(&LeaderElection, &[0, 1]).expect("LE closed form");
        assert_eq!(expected, (false, true));
        let f = verify_plan("plan:corrupt-le", &corrupt, Some(expected));
        assert!(rules(&f).contains(&"RSBT-P005"), "{f:?}");
        assert!(f.iter().any(|f| f.message.contains("coarse-endpoint")));

        // The genuine lowering passes the same gauntlet.
        let real = LeaderElection.lane_plan(&[0, 1], 2).expect("LE lowers");
        assert!(verify_plan("plan:real-le", &real, Some(expected)).is_empty());
    }

    #[test]
    fn execution_form_disagreements_are_reported() {
        // A real plan checked against the opposite rails stands in for a
        // lowering that drifted from its introspection view.
        let real = LeaderElection.lane_plan(&[0, 1, 2], 3).expect("LE lowers");
        assert!(execution_form_findings("t", &real, (false, true)).is_empty());
        let f = execution_form_findings("plan:drifted-le", &real, (true, false));
        assert_eq!(rules(&f), ["RSBT-P006", "RSBT-P006"], "{f:?}");
        assert!(f[0].message.contains("lo rail") && f[1].message.contains("hi rail"));
    }

    #[test]
    fn endpoint_expectations_match_closed_forms() {
        // WSB at n = 3: unsolvable when all agree, solvable when all
        // distinct.
        assert_eq!(
            endpoint_expectations(&WeakSymmetryBreaking, &[0, 1, 2]),
            Some((false, true))
        );
        // 1-leader election on one node: solvable at both endpoints.
        assert_eq!(
            endpoint_expectations(&LeaderElection, &[0]),
            Some((true, true))
        );
    }
}
