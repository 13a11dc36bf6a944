//! `k`-leader election: exactly `k` nodes output [`crate::LEADER`].
//!
//! Section 1.2 of the paper challenges the reader to characterize
//! "2-leader election" directly and compare with the characterization the
//! topological framework produces; this module supplies the output complex
//! so `rsbt-core` can run that exercise mechanically (see the
//! `exp_two_leader` experiment).

use std::borrow::Cow;

use rsbt_complex::generators::Combinations;
use rsbt_complex::{Complex, ProcessName, Simplex, Vertex};

use crate::leader::{DEFEATED, LEADER};
use crate::plan::{unit_weights, PlanBuilder, VerdictPlan};
use crate::task::{class_sizes, FacetStream, Task};

/// The exactly-`k`-leaders task.
///
/// Facets are indexed by the `C(n, k)` leader sets: the nodes of the set
/// output [`LEADER`], everyone else [`DEFEATED`].
///
/// # Example
///
/// ```
/// use rsbt_tasks::{KLeaderElection, Task};
///
/// let two = KLeaderElection::new(2);
/// assert_eq!(two.output_complex(4).facet_count(), 6); // C(4,2)
/// assert!(two.is_symmetric_for(4));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct KLeaderElection {
    k: usize,
}

impl KLeaderElection {
    /// Creates the exactly-`k`-leaders task.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` (electing nobody is the trivial task).
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "k-leader election needs k ≥ 1");
        KLeaderElection { k }
    }

    /// The number of leaders `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The facet in which exactly the nodes of `leaders` are elected.
    ///
    /// # Panics
    ///
    /// Panics if `leaders` has the wrong size or out-of-range members.
    pub fn facet_for(&self, n: usize, leaders: &[usize]) -> Simplex<u64> {
        assert_eq!(leaders.len(), self.k, "need exactly k leaders");
        assert!(leaders.iter().all(|&l| l < n), "leader out of range");
        Simplex::from_vertices((0..n).map(|i| {
            Vertex::new(
                ProcessName::new(i as u32),
                if leaders.contains(&i) {
                    LEADER
                } else {
                    DEFEATED
                },
            )
        }))
        .expect("distinct names")
    }
}

impl Task for KLeaderElection {
    fn name(&self) -> Cow<'static, str> {
        Cow::Owned(format!("{}-leader-election", self.k))
    }

    /// # Panics
    ///
    /// Panics if `k > n` (no valid outputs exist).
    fn output_complex(&self, n: usize) -> Complex<u64> {
        self.facet_stream(n).collect()
    }

    /// Lazily enumerates the `C(n, k)` leader sets in combination order.
    ///
    /// # Panics
    ///
    /// Panics if `k > n` (no valid outputs exist).
    fn facet_stream(&self, n: usize) -> FacetStream<'_> {
        assert!(self.k <= n, "cannot elect {} leaders among {n}", self.k);
        let task = *self;
        Box::new(Combinations::new(n, self.k).map(move |subset| task.facet_for(n, &subset)))
    }

    /// A name permutation maps a `k`-leader set to another `k`-leader set.
    ///
    /// # Panics
    ///
    /// Panics if `k > n` (no valid outputs exist).
    fn is_symmetric_for(&self, n: usize) -> bool {
        assert!(self.k <= n, "cannot elect {} leaders among {n}", self.k);
        true
    }

    /// Closed form: a facet elects a leader set `S` with `|S| = k`; `S` is
    /// class-monochromatic iff it is a union of whole classes. So the task
    /// solves iff some subset of the class sizes sums to exactly `k` — a
    /// subset-sum over at most `n` parts, decided by a dense DP instead of
    /// a `C(n, k)`-facet scan.
    fn solves_partition(&self, labels: &[u8]) -> Option<bool> {
        let n = labels.len();
        assert!(self.k <= n, "cannot elect {} leaders among {n}", self.k);
        let (sizes, _) = class_sizes(labels);
        // Stack DP table: labels are u8, so n ≤ usize::from(u8::MAX) + 1
        // and k ≤ n fits in 256 slots — no allocation on the verdict path.
        let mut reachable = [false; 257];
        reachable[0] = true;
        for &s in sizes.iter().filter(|&&s| s > 0) {
            let s = s as usize;
            if s > self.k {
                continue;
            }
            for total in (s..=self.k).rev() {
                if reachable[total - s] {
                    reachable[total] = true;
                }
            }
        }
        Some(reachable[self.k])
    }

    /// Lane lowering of the subset-sum verdict: the class sizes reach
    /// `k` iff some unit subset `S` of total node weight `k` is *closed
    /// under equality* — no unit of `S` consistent with a unit outside
    /// it (then `S` is exactly a union of classes). One AND-term per
    /// such subset, enumerated over at most `2^units` masks; refused
    /// (`None` — callers peel to the scalar DP) when the unit count or
    /// the op budget makes the enumeration a bad trade.
    fn lane_plan(&self, unit_of_node: &[usize], units: usize) -> Option<VerdictPlan> {
        let n = unit_of_node.len();
        assert!(self.k <= n, "cannot elect {} leaders among {n}", self.k);
        if units > 16 {
            return None;
        }
        let w = unit_weights(unit_of_node, units);
        let mut b = PlanBuilder::new(units);
        let term = b.reg();
        for mask in 1u32..1 << units {
            let weight: u32 = (0..units)
                .filter(|&u| mask >> u & 1 == 1)
                .map(|u| w[u])
                .sum();
            if weight != self.k as u32 {
                continue;
            }
            if mask == (1 << units) - 1 {
                // The full unit set: closed under anything (k = n).
                b.ones(0);
                continue;
            }
            b.ones(term);
            for u in (0..units).filter(|&u| mask >> u & 1 == 1) {
                for v in (0..units).filter(|&v| mask >> v & 1 == 0) {
                    b.and_not_eq(term, u, v);
                }
            }
            b.or(0, term);
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

    fn binomial(n: usize, k: usize) -> usize {
        if k > n {
            return 0;
        }
        (0..k).fold(1, |acc, i| acc * (n - i) / (i + 1))
    }

    #[test]
    fn facet_counts_are_binomial() {
        for n in 1..=6 {
            for k in 1..=n {
                let t = KLeaderElection::new(k);
                assert_eq!(
                    t.output_complex(n).facet_count(),
                    binomial(n, k),
                    "n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn one_leader_matches_leader_election() {
        use crate::leader::LeaderElection;
        for n in 1..=5 {
            assert_eq!(
                KLeaderElection::new(1).output_complex(n),
                LeaderElection.output_complex(n)
            );
        }
    }

    #[test]
    fn symmetric() {
        for n in 2..=5 {
            for k in 1..=n {
                assert!(KLeaderElection::new(k).is_symmetric_for(n), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn projected_facet_shape() {
        // π(τ) for 2-LE on n=4: a leader edge + a defeated edge.
        let t = KLeaderElection::new(2);
        for pi in t.projected_facets(4) {
            assert_eq!(pi.facet_count(), 2);
            assert!(pi.is_pure());
            assert_eq!(pi.dimension(), Some(1));
        }
        // All leaders (k = n): the projection is the full simplex.
        let all = KLeaderElection::new(3);
        for pi in all.projected_facets(3) {
            assert_eq!(pi.facet_count(), 1);
            assert_eq!(pi.dimension(), Some(2));
        }
    }

    #[test]
    #[should_panic(expected = "cannot elect")]
    fn k_larger_than_n_panics() {
        let _ = KLeaderElection::new(3).output_complex(2);
    }

    #[test]
    #[should_panic(expected = "k ≥ 1")]
    fn zero_k_rejected() {
        let _ = KLeaderElection::new(0);
    }

    #[test]
    fn name_mentions_k() {
        assert_eq!(KLeaderElection::new(2).name(), "2-leader-election");
    }
}
