//! Leader + deputy-leader election: the paper's future-work example.
//!
//! Section 5 of the paper proposes "electing a leader and a deputy leader
//! (…) under the constraint that some nodes may only be leaders, some nodes
//! may only be deputy leaders, some nodes may be either of the two, and
//! some nodes may be neither" as a first step beyond symmetric output
//! complexes. We implement the output complex so the framework's
//! *per-facet* solvability machinery (which never needed symmetry) can be
//! exercised on it; the `is_symmetric_for` check correctly reports when the
//! constraints break symmetry.

use std::borrow::Cow;

use rsbt_complex::{Complex, ProcessName, Simplex, Vertex};

use crate::plan::{unit_weights, PlanBuilder, VerdictPlan};
use crate::task::{FacetStream, Task};

/// Output value for the elected leader in [`LeaderAndDeputy`].
pub const ROLE_LEADER: u64 = 2;
/// Output value for the deputy leader.
pub const ROLE_DEPUTY: u64 = 1;
/// Output value for everyone else.
pub const ROLE_FOLLOWER: u64 = 0;

/// The leader-and-deputy task with per-node role constraints.
///
/// A facet elects a leader `i` (allowed by `may_lead`) and a distinct
/// deputy `j` (allowed by `may_deputy`); all other nodes are followers.
///
/// # Example
///
/// ```
/// use rsbt_tasks::{LeaderAndDeputy, Task};
///
/// // Unconstrained: any of 3 leaders × 2 remaining deputies = 6 facets.
/// let t = LeaderAndDeputy::unconstrained(3);
/// assert_eq!(t.output_complex(3).facet_count(), 6);
/// assert!(t.is_symmetric_for(3));
///
/// // Node 0 may only lead, node 1 may only deputize: not symmetric.
/// let c = LeaderAndDeputy::new(vec![true, false, false], vec![false, true, false]);
/// assert_eq!(c.output_complex(3).facet_count(), 1);
/// assert!(!c.is_symmetric_for(3));
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LeaderAndDeputy {
    may_lead: Vec<bool>,
    may_deputy: Vec<bool>,
}

impl LeaderAndDeputy {
    /// Creates the task with explicit per-node role permissions.
    ///
    /// # Panics
    ///
    /// Panics if the two permission vectors have different lengths or are
    /// empty.
    pub fn new(may_lead: Vec<bool>, may_deputy: Vec<bool>) -> Self {
        assert_eq!(may_lead.len(), may_deputy.len(), "one flag pair per node");
        assert!(!may_lead.is_empty(), "need at least one node");
        LeaderAndDeputy {
            may_lead,
            may_deputy,
        }
    }

    /// Every node may take either role (symmetric output complex).
    pub fn unconstrained(n: usize) -> Self {
        LeaderAndDeputy::new(vec![true; n], vec![true; n])
    }

    /// The number of nodes the constraints cover.
    pub fn n(&self) -> usize {
        self.may_lead.len()
    }

    /// Whether every node may take either role.
    fn is_unconstrained(&self) -> bool {
        self.may_lead.iter().all(|&b| b) && self.may_deputy.iter().all(|&b| b)
    }

    /// Panics where the output complex for `n` nodes is undefined: `n`
    /// differs from the constraint vectors' length, or no valid
    /// (leader, deputy) pair exists.
    fn assert_defined(&self, n: usize) {
        assert_eq!(n, self.n(), "constraints defined for {} nodes", self.n());
        assert!(
            (0..n).any(|l| (0..n).any(|d| l != d && self.may_lead[l] && self.may_deputy[d])),
            "role constraints admit no (leader, deputy) pair"
        );
    }

    /// The facet electing leader `i` and deputy `j`.
    ///
    /// Returns `None` when the pair violates the constraints (or `i == j`).
    pub fn facet_for(&self, leader: usize, deputy: usize) -> Option<Simplex<u64>> {
        let n = self.n();
        if leader == deputy
            || leader >= n
            || deputy >= n
            || !self.may_lead[leader]
            || !self.may_deputy[deputy]
        {
            return None;
        }
        Some(
            Simplex::from_vertices((0..n).map(|i| {
                let role = if i == leader {
                    ROLE_LEADER
                } else if i == deputy {
                    ROLE_DEPUTY
                } else {
                    ROLE_FOLLOWER
                };
                Vertex::new(ProcessName::new(i as u32), role)
            }))
            .expect("distinct names"),
        )
    }
}

impl Task for LeaderAndDeputy {
    fn name(&self) -> Cow<'static, str> {
        // The name doubles as a memoization key (`rsbt_core::probability`
        // caches on it), so constrained variants must not alias the
        // unconstrained task.
        if self.is_unconstrained() {
            Cow::Borrowed("leader-and-deputy")
        } else {
            let enc = |v: &[bool]| {
                v.iter()
                    .map(|&b| if b { '1' } else { '0' })
                    .collect::<String>()
            };
            Cow::Owned(format!(
                "leader-and-deputy[L:{},D:{}]",
                enc(&self.may_lead),
                enc(&self.may_deputy)
            ))
        }
    }

    /// # Panics
    ///
    /// Panics if `n` differs from the constraint vectors' length, or if no
    /// valid (leader, deputy) pair exists.
    fn output_complex(&self, n: usize) -> Complex<u64> {
        self.facet_stream(n).collect()
    }

    /// Lazily enumerates the admissible `(leader, deputy)` facets in
    /// leader-major order.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Task::output_complex`]: the constraint check
    /// runs eagerly (it is `O(n²)` on booleans), so an impossible
    /// constraint set panics before the first facet is demanded.
    fn facet_stream(&self, n: usize) -> FacetStream<'_> {
        self.assert_defined(n);
        Box::new((0..n).flat_map(move |leader| {
            (0..n).filter_map(move |deputy| self.facet_for(leader, deputy))
        }))
    }

    /// Closed form: leader and deputy carry distinct non-follower roles,
    /// so a facet is class-monochromatic iff its leader and deputy each
    /// form a *singleton* class and everyone else (all followers — always
    /// permitted) fills the rest. Hence: two distinct singleton classes
    /// `{i}`, `{j}` with `may_lead[i]` and `may_deputy[j]`.
    fn solves_partition(&self, labels: &[u8]) -> Option<bool> {
        let n = self.n();
        // Panic-parity with `output_complex`/`facet_stream`: an impossible
        // constraint set must not silently read as "unsolvable".
        self.assert_defined(labels.len());
        // Singleton classes, identified by their unique member.
        let singleton = |i: usize| labels.iter().filter(|&&l| l == labels[i]).count() == 1;
        Some((0..n).any(|i| {
            self.may_lead[i]
                && singleton(i)
                && (0..n).any(|j| j != i && self.may_deputy[j] && singleton(j))
        }))
    }

    /// Unconstrained, the task is symmetric wherever it is defined;
    /// constrained masks take the default check on the output complex.
    fn is_symmetric_for(&self, n: usize) -> bool {
        if !self.is_unconstrained() {
            return self.output_complex(n).is_symmetric();
        }
        self.assert_defined(n);
        true
    }

    /// Lane lowering of the two-singletons test: only a *weight-1 unit*
    /// can be a singleton node class, and it is one iff it differs from
    /// every other unit ("alone"). Materialize an alone-flag register
    /// per weight-1 unit whose node may hold a role, then OR over the
    /// admissible `(leader unit, deputy unit)` pairs the AND of the two
    /// flags.
    fn lane_plan(&self, unit_of_node: &[usize], units: usize) -> Option<VerdictPlan> {
        // Panic-parity with `solves_partition` on impossible constraints.
        self.assert_defined(unit_of_node.len());
        let w = unit_weights(unit_of_node, units);
        // The unique node of each weight-1 unit carries the unit's role
        // permissions.
        let mut lead = vec![false; units];
        let mut deputy = vec![false; units];
        for (i, &u) in unit_of_node.iter().enumerate() {
            if w[u] == 1 {
                lead[u] = self.may_lead[i];
                deputy[u] = self.may_deputy[i];
            }
        }
        let mut b = PlanBuilder::new(units);
        // Only units that can actually appear in a (leader, deputy) pair
        // get a singleton register: a lead-capable unit with no
        // deputy-capable partner (or vice versa) would compute a value the
        // pair loop never reads, and the static plan verifier flags such
        // dead ops.
        let paired = |u: usize| -> bool {
            let partner = |cap: &[bool]| (0..units).any(|v| v != u && w[v] == 1 && cap[v]);
            w[u] == 1 && ((lead[u] && partner(&deputy)) || (deputy[u] && partner(&lead)))
        };
        let mut alone = vec![0u16; units];
        for u in (0..units).filter(|&u| paired(u)) {
            let r = b.reg();
            b.ones(r);
            for v in (0..units).filter(|&v| v != u) {
                b.and_not_eq(r, u, v);
            }
            alone[u] = r;
        }
        for u in (0..units).filter(|&u| w[u] == 1 && lead[u]) {
            for v in (0..units).filter(|&v| v != u && w[v] == 1 && deputy[v]) {
                b.or_and(0, alone[u], alone[v]);
            }
            if b.len() > crate::plan::MAX_PLAN_OPS {
                return None;
            }
        }
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconstrained_counts() {
        for n in 2..=5 {
            let t = LeaderAndDeputy::unconstrained(n);
            assert_eq!(t.output_complex(n).facet_count(), n * (n - 1));
            assert!(t.is_symmetric_for(n));
        }
    }

    #[test]
    fn unpaired_singleton_units_compile_to_nothing() {
        // One weight-1 unit among weight-2 units: no (leader, deputy)
        // pair of singletons is ever possible, so the plan must be the
        // empty constant-false program — not dead singleton computations.
        let t = LeaderAndDeputy::unconstrained(3);
        let plan = t.lane_plan(&[0, 1, 1], 2).unwrap();
        assert!(plan.is_empty(), "expected no ops, got {}", plan.len());
        assert_eq!(plan.eval(&[0], &mut Vec::new()), 0);
        // A lead-capable singleton whose only deputy-capable peers sit on
        // a weight-2 unit likewise contributes nothing.
        let t = LeaderAndDeputy::new(vec![true, false, false], vec![false, true, true]);
        let plan = t.lane_plan(&[0, 1, 1], 2).unwrap();
        assert!(plan.is_empty(), "expected no ops, got {}", plan.len());
    }

    #[test]
    fn constraints_prune_facets() {
        // Nodes 0,1 may lead; only node 2 may deputize.
        let t = LeaderAndDeputy::new(vec![true, true, false], vec![false, false, true]);
        let c = t.output_complex(3);
        assert_eq!(c.facet_count(), 2); // leaders 0 or 1, deputy always 2
        assert!(!t.is_symmetric_for(3));
    }

    #[test]
    fn facet_for_validates() {
        let t = LeaderAndDeputy::unconstrained(3);
        assert!(t.facet_for(0, 0).is_none(), "leader ≠ deputy");
        assert!(t.facet_for(0, 3).is_none(), "range check");
        let f = t.facet_for(1, 2).unwrap();
        assert_eq!(f.value_of(ProcessName::new(1)), Some(&ROLE_LEADER));
        assert_eq!(f.value_of(ProcessName::new(2)), Some(&ROLE_DEPUTY));
        assert_eq!(f.value_of(ProcessName::new(0)), Some(&ROLE_FOLLOWER));
    }

    #[test]
    fn projection_isolates_both_roles() {
        let t = LeaderAndDeputy::unconstrained(4);
        for pi in t.projected_facets(4) {
            // Leader and deputy are singletons; followers form a simplex.
            assert_eq!(pi.isolated_vertices().len(), 2);
            assert_eq!(pi.facet_count(), 3);
        }
    }

    #[test]
    #[should_panic(expected = "no (leader, deputy) pair")]
    fn impossible_constraints_panic() {
        let t = LeaderAndDeputy::new(vec![true, false], vec![true, false]);
        // Only node 0 may hold either role, but roles must differ.
        let _ = t.output_complex(2);
    }

    #[test]
    #[should_panic(expected = "no (leader, deputy) pair")]
    fn impossible_constraints_panic_in_closed_form_too() {
        // Panic-parity: the closed form must refuse the same constraint
        // sets `output_complex` refuses, not report "unsolvable".
        let t = LeaderAndDeputy::new(vec![true, false], vec![true, false]);
        let _ = t.solves_partition(&[0, 1]);
    }

    #[test]
    #[should_panic(expected = "one flag pair per node")]
    fn mismatched_constraint_lengths_panic() {
        let _ = LeaderAndDeputy::new(vec![true], vec![true, false]);
    }
}
