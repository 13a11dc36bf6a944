//! Leader election: the output complex `O_LE`.

use std::borrow::Cow;

use rsbt_complex::{Complex, ProcessName, Simplex, Vertex};

use crate::plan::{unit_weights, PlanBuilder, VerdictPlan};
use crate::task::{class_sizes, FacetStream, Task};

/// Output value of the elected leader.
pub const LEADER: u64 = 1;
/// Output value of a defeated (non-leader) node.
pub const DEFEATED: u64 = 0;

/// The leader-election task: exactly one node outputs [`LEADER`], all
/// others output [`DEFEATED`].
///
/// `O_LE` has `n` facets
/// `τ_i = {(0,0), …, (i−1,0), (i,1), (i+1,0), …, (n−1,0)}`.
///
/// # Example
///
/// ```
/// use rsbt_tasks::{LeaderElection, Task};
///
/// let ole = LeaderElection.output_complex(4);
/// assert_eq!(ole.facet_count(), 4);
/// assert!(ole.is_pure());
/// assert!(LeaderElection.is_symmetric_for(4));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LeaderElection;

impl LeaderElection {
    /// The facet `τ_i` in which node `leader` is elected.
    ///
    /// # Panics
    ///
    /// Panics if `leader >= n` or `n == 0`.
    pub fn tau(n: usize, leader: usize) -> Simplex<u64> {
        assert!(leader < n, "leader index out of range");
        Simplex::from_vertices((0..n).map(|i| {
            Vertex::new(
                ProcessName::new(i as u32),
                if i == leader { LEADER } else { DEFEATED },
            )
        }))
        .expect("distinct names")
    }
}

impl Task for LeaderElection {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("leader-election")
    }

    fn output_complex(&self, n: usize) -> Complex<u64> {
        self.facet_stream(n).collect()
    }

    fn facet_stream(&self, n: usize) -> FacetStream<'_> {
        assert!(n >= 1, "leader election needs at least one node");
        Box::new((0..n).map(move |leader| LeaderElection::tau(n, leader)))
    }

    /// Every name permutation maps `τ_i` to another `τ_j`.
    fn is_symmetric_for(&self, n: usize) -> bool {
        assert!(n >= 1, "leader election needs at least one node");
        true
    }

    /// Closed form: some facet `τ_i` is class-monochromatic iff the class
    /// of the elected `i` is the singleton `{i}` — i.e. iff the partition
    /// has a singleton class (Theorem 4.1's combinatorial core).
    fn solves_partition(&self, labels: &[u8]) -> Option<bool> {
        assert!(
            !labels.is_empty(),
            "leader election needs at least one node"
        );
        let (sizes, _) = class_sizes(labels);
        Some(sizes.contains(&1))
    }

    /// Lane lowering of the singleton-class test: a node class is a
    /// singleton iff it is a *weight-1 unit* split from every other unit
    /// (units of weight ≥ 2 contain ≥ 2 always-consistent nodes). So:
    /// OR over weight-1 units `u` of AND over `v ≠ u` of "u ≠ v".
    fn lane_plan(&self, unit_of_node: &[usize], units: usize) -> Option<VerdictPlan> {
        assert!(
            !unit_of_node.is_empty(),
            "leader election needs at least one node"
        );
        let w = unit_weights(unit_of_node, units);
        let mut b = PlanBuilder::new(units);
        let term = b.reg();
        for u in (0..units).filter(|&u| w[u] == 1) {
            if units == 1 {
                // A lone weight-1 unit is a singleton unconditionally.
                b.ones(0);
                break;
            }
            b.ones(term);
            for v in (0..units).filter(|&v| v != u) {
                b.and_not_eq(term, u, v);
            }
            b.or(0, term);
        }
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::projection;

    #[test]
    fn facet_structure() {
        let ole = LeaderElection.output_complex(3);
        assert_eq!(ole.facet_count(), 3);
        assert_eq!(ole.dimension(), Some(2));
        assert!(ole.is_pure());
        assert_eq!(ole.vertex_count(), 6);
    }

    #[test]
    fn single_node_degenerates() {
        let ole = LeaderElection.output_complex(1);
        assert_eq!(ole.facet_count(), 1);
        assert_eq!(ole.dimension(), Some(0));
        // The single facet is the elected vertex.
        assert_eq!(ole.isolated_vertices().len(), 1);
    }

    #[test]
    fn symmetric_for_all_small_n() {
        for n in 1..=5 {
            assert!(LeaderElection.is_symmetric_for(n), "n={n}");
        }
    }

    #[test]
    fn tau_has_unique_leader() {
        let tau = LeaderElection::tau(4, 2);
        let leaders: Vec<_> = tau.vertices().filter(|v| *v.value() == LEADER).collect();
        assert_eq!(leaders.len(), 1);
        assert_eq!(leaders[0].name().index(), 2);
    }

    #[test]
    fn projected_facets_shape() {
        // π(τ_i): isolated leader + one defeated simplex of dim n−2.
        for n in 2..=5 {
            for pi in LeaderElection.projected_facets(n) {
                assert_eq!(pi.facet_count(), 2);
                // For n = 2 the lone defeated node is also isolated.
                let expected_isolated = if n == 2 { 2 } else { 1 };
                assert_eq!(pi.isolated_vertices().len(), expected_isolated);
                assert_eq!(pi.dimension(), Some(n - 2));
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn tau_rejects_bad_leader() {
        let _ = LeaderElection::tau(3, 3);
    }

    #[test]
    fn projection_of_whole_complex_matches_paper() {
        // π(O_LE) has facets {(i,1)} and {(j,0) : j ≠ i} for every i.
        let ole = LeaderElection.output_complex(3);
        let pi = projection::project_complex(&ole);
        // 3 isolated leader vertices + 3 defeated edges.
        assert_eq!(pi.facet_count(), 6);
        assert_eq!(pi.isolated_vertices().len(), 3);
    }
}
