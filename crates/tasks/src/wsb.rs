//! Weak symmetry breaking: outputs in `{0,1}`, not all equal.
//!
//! The classic companion task of leader election in topological
//! distributed computing (cf. HKR14): every node outputs a bit, and the
//! all-zero and all-one outputs are forbidden. It is strictly weaker than
//! leader election (any leader can set itself to `1` and the rest to `0`),
//! and under the paper's framework its blackboard characterization is
//! `k ≥ 2` — two sources eventually diverge, and the two sides output
//! different bits — in contrast to leader election's `∃ n_i = 1`.

use std::borrow::Cow;

use rsbt_complex::{Complex, ProcessName, Simplex, Vertex};

use crate::plan::{PlanBuilder, VerdictPlan};
use crate::task::{class_sizes, FacetStream, Task};

/// The weak-symmetry-breaking task.
///
/// For `n ≥ 2` the output complex has `2^n − 2` facets (every non-constant
/// bit assignment). The task is undefined for `n = 1` (a single node can
/// never "not all agree"), and [`Task::output_complex`] panics there.
///
/// # Example
///
/// ```
/// use rsbt_tasks::{Task, WeakSymmetryBreaking};
///
/// let wsb = WeakSymmetryBreaking;
/// assert_eq!(wsb.output_complex(3).facet_count(), 6);
/// assert!(wsb.is_symmetric_for(3));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WeakSymmetryBreaking;

impl WeakSymmetryBreaking {
    /// The facet in which the nodes of `ones` output 1 and the rest 0.
    ///
    /// Returns `None` for the two forbidden constant assignments.
    pub fn facet_for(n: usize, ones: &[usize]) -> Option<Simplex<u64>> {
        if ones.is_empty() || ones.len() >= n {
            return None;
        }
        Some(
            Simplex::from_vertices(
                (0..n)
                    .map(|i| Vertex::new(ProcessName::new(i as u32), u64::from(ones.contains(&i)))),
            )
            .expect("distinct names"),
        )
    }
}

impl Task for WeakSymmetryBreaking {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("weak-symmetry-breaking")
    }

    /// # Panics
    ///
    /// Panics for `n < 2`: a single node cannot break symmetry with
    /// itself.
    fn output_complex(&self, n: usize) -> Complex<u64> {
        self.facet_stream(n).collect()
    }

    /// Lazily enumerates the `2^n − 2` non-constant bit assignments in
    /// mask order.
    ///
    /// # Panics
    ///
    /// Panics for `n < 2` (undefined) and `n > 62` (mask overflow).
    fn facet_stream(&self, n: usize) -> FacetStream<'_> {
        assert!(n >= 2, "weak symmetry breaking needs n ≥ 2");
        assert!(n <= 62, "facet enumeration limited to 62 nodes");
        Box::new((1u64..(1 << n) - 1).map(move |mask| {
            Simplex::from_vertices(
                (0..n).map(|i| Vertex::new(ProcessName::new(i as u32), mask >> i & 1)),
            )
            .expect("distinct names")
        }))
    }

    /// A name permutation keeps a bit assignment non-constant.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Task::facet_stream`].
    fn is_symmetric_for(&self, n: usize) -> bool {
        assert!(n >= 2, "weak symmetry breaking needs n ≥ 2");
        assert!(n <= 62, "facet enumeration limited to 62 nodes");
        true
    }

    /// Closed form: a facet is a non-constant bit assignment; it is
    /// class-monochromatic iff the 1-side is a union of classes. A proper
    /// non-empty union of classes exists iff there are at least two
    /// classes — the `k ≥ 2` characterization the module docs cite.
    fn solves_partition(&self, labels: &[u8]) -> Option<bool> {
        assert!(labels.len() >= 2, "weak symmetry breaking needs n ≥ 2");
        let (_, classes) = class_sizes(labels);
        Some(classes >= 2)
    }

    /// Lane lowering of "≥ 2 classes": equality is transitive, so at
    /// least two classes exist iff *some* unit differs from unit 0 —
    /// an OR of `units − 1` pair words. One unit means one class.
    fn lane_plan(&self, unit_of_node: &[usize], units: usize) -> Option<VerdictPlan> {
        assert!(
            unit_of_node.len() >= 2,
            "weak symmetry breaking needs n ≥ 2"
        );
        let mut b = PlanBuilder::new(units);
        for v in 1..units {
            b.or_not_eq(0, 0, v);
        }
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facet_count_is_two_to_n_minus_two() {
        for n in 2..=6usize {
            assert_eq!(
                WeakSymmetryBreaking.output_complex(n).facet_count(),
                (1usize << n) - 2,
                "n={n}"
            );
        }
    }

    #[test]
    fn symmetric() {
        for n in 2..=5 {
            assert!(WeakSymmetryBreaking.is_symmetric_for(n));
        }
    }

    #[test]
    fn constant_assignments_rejected() {
        assert!(WeakSymmetryBreaking::facet_for(3, &[]).is_none());
        assert!(WeakSymmetryBreaking::facet_for(3, &[0, 1, 2]).is_none());
        assert!(WeakSymmetryBreaking::facet_for(3, &[1]).is_some());
    }

    #[test]
    #[should_panic(expected = "n ≥ 2")]
    fn single_node_undefined() {
        let _ = WeakSymmetryBreaking.output_complex(1);
    }

    #[test]
    fn projection_has_two_sides() {
        for pi in WeakSymmetryBreaking.projected_facets(4) {
            // Each facet splits into the 1-side and the 0-side.
            assert_eq!(pi.facet_count(), 2);
        }
    }

    #[test]
    fn strictly_weaker_than_leader_election() {
        // Every O_LE facet is a WSB facet (one 1, rest 0): the LE output
        // complex is a subcomplex of the WSB output complex.
        use crate::leader::LeaderElection;
        use rsbt_complex::ops;
        for n in 2..=5 {
            let le = LeaderElection.output_complex(n);
            let wsb = WeakSymmetryBreaking.output_complex(n);
            assert!(ops::is_subcomplex(&le, &wsb), "n={n}");
        }
    }
}
