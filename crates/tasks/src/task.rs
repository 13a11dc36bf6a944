//! The task abstraction: a family of output complexes indexed by `n`.

use std::borrow::Cow;

use rsbt_complex::{Complex, Simplex};

use crate::plan::VerdictPlan;
use crate::projection;

/// A boxed lazy facet iterator (the return type of [`Task::facet_stream`]).
pub type FacetStream<'a> = Box<dyn Iterator<Item = Simplex<u64>> + 'a>;

/// An input-free task, defined by its output complex for each system size.
///
/// Output values are `u64` role codes (e.g. [`crate::LEADER`] /
/// [`crate::DEFEATED`] for leader election).
///
/// The paper's framework additionally *requires* the output complex of a
/// symmetry-breaking task to be symmetric ([`Task::is_symmetric_for`]);
/// tasks violating this (such as [`crate::LeaderAndDeputy`] with
/// heterogeneous role constraints) are provided as explicitly-flagged
/// extensions.
///
/// # Solvability hooks
///
/// A realization solves a task iff some facet of the output complex is
/// monochromatic on every consistency class (Definition 3.4 forced into
/// its combinatorial form: name preservation pins the simplicial map
/// `δ(i, x_i) = (i, τ_i)`, and simpliciality is exactly
/// class-monochromaticity). Two optional hooks let `rsbt_core` decide
/// that without ever materializing the output complex:
///
/// * [`Task::facet_stream`] yields the facets lazily (the built-in tasks
///   override it with closed generators), so callers can build a dense
///   [`rsbt_complex::FacetTable`] straight from the stream;
/// * [`Task::solves_partition`] answers the verdict in closed form from
///   the consistency partition alone — `O(n)`-ish instead of a scan over
///   every facet. Returning `None` (the default) falls back to the scan.
pub trait Task {
    /// A short human-readable task name (for experiment tables).
    ///
    /// The name doubles as a memoization key in `rsbt_core`, so it must
    /// uniquely identify the task's output-complex family. Fixed tasks
    /// return `Cow::Borrowed` (no allocation per call); parameterized
    /// tasks encode their parameters.
    fn name(&self) -> Cow<'static, str>;

    /// The output complex `O` for `n` processes.
    ///
    /// # Panics
    ///
    /// Implementations may panic when the task is undefined for `n` (e.g.
    /// `k`-leader election with `k > n`).
    fn output_complex(&self, n: usize) -> Complex<u64>;

    /// The facets of `O` for `n` processes, as a lazy stream.
    ///
    /// Must yield exactly the facet set of [`Task::output_complex`] (in
    /// any order; duplicates are tolerated by the dense-table consumer).
    /// The default collects from `output_complex`; implementations
    /// override it with a direct generator so no [`Complex`] is ever
    /// built on the hot path.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Task::output_complex`].
    fn facet_stream(&self, n: usize) -> FacetStream<'_> {
        Box::new(
            self.output_complex(n)
                .facets()
                .cloned()
                .collect::<Vec<_>>()
                .into_iter(),
        )
    }

    /// Closed-form solvability from a consistency partition, if this task
    /// has one.
    ///
    /// `labels[i]` is the class label of process `i` (`labels.len() = n`);
    /// labels are arbitrary `u8` tags — equal label ⟺ same class. The
    /// verdict must equal "some facet of `output_complex(n)` holds a
    /// single value on every class". Return `None` (the default) when no
    /// closed form is known; callers then scan the facets.
    ///
    /// For a fixed task value and `n`, the result must be uniformly
    /// `Some(_)` or uniformly `None` across all partitions: callers probe
    /// one partition per run to decide whether the dense fallback table
    /// needs building at all.
    ///
    /// # Panics
    ///
    /// Implementations panic exactly where [`Task::output_complex`] would
    /// (e.g. `k > n`), so both paths agree on the defined domain.
    fn solves_partition(&self, labels: &[u8]) -> Option<bool> {
        let _ = labels;
        None
    }

    /// [`Task::solves_partition`] compiled to a lane-parallel
    /// [`VerdictPlan`], if this task supports it.
    ///
    /// `unit_of_node[i]` names the knowledge *unit* tracking node `i`
    /// (`0 ≤ unit_of_node[i] < units`; every unit is some node's); the
    /// plan evaluates over packed pairwise unit-equality words (see
    /// [`crate::pair_index`]). The contract: for every lane, the plan's
    /// verdict bit must equal `solves_partition(labels)` on the node
    /// partition induced by the lane — `i ∼ j` iff
    /// `unit_of_node[i] == unit_of_node[j]` or the pair's equality bit is
    /// set. Implementations may assume the relation is an equivalence
    /// (unit equality is transitive for the callers' executions).
    ///
    /// Return `None` (the default) when no plan exists — because the
    /// task has no closed form, or the lowering would exceed the op
    /// budget; callers then peel lanes to the scalar path.
    ///
    /// # Panics
    ///
    /// Implementations panic exactly where [`Task::solves_partition`]
    /// would on `n = unit_of_node.len()` nodes, so both paths agree on
    /// the defined domain.
    fn lane_plan(&self, unit_of_node: &[usize], units: usize) -> Option<VerdictPlan> {
        let _ = (unit_of_node, units);
        None
    }

    /// Whether the output complex for `n` processes is symmetric (stable
    /// under name permutations), the paper's admissibility condition.
    ///
    /// The default builds the complex and tries every facet against every
    /// transposition; the built-in tasks answer without building it.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Task::output_complex`]; overrides must panic
    /// exactly there too.
    fn is_symmetric_for(&self, n: usize) -> bool {
        self.output_complex(n).is_symmetric()
    }

    /// The projected facets `{ π(τ) : τ facet of O }` (Definition 3.4's
    /// codomains), as a lazy stream over [`Task::facet_stream`].
    fn projected_facets(&self, n: usize) -> Box<dyn Iterator<Item = Complex<u64>> + '_> {
        Box::new(
            self.facet_stream(n)
                .map(|tau| projection::project_facet(&tau)),
        )
    }

    /// [`Task::projected_facets`], collected (convenience for tests).
    fn projected_facets_vec(&self, n: usize) -> Vec<Complex<u64>> {
        self.projected_facets(n).collect()
    }

    /// [`Task::facet_stream`], collected (convenience for tests).
    fn facets_vec(&self, n: usize) -> Vec<Simplex<u64>> {
        self.facet_stream(n).collect()
    }
}

/// Helper for closed-form verdicts: the number of members of each class,
/// indexed by label, plus the class count. Allocation-free (labels are
/// `u8`, so 256 counters cover every partition).
pub(crate) fn class_sizes(labels: &[u8]) -> ([u32; 256], usize) {
    assert!(
        labels.len() <= 256,
        "closed-form verdicts support at most 256 nodes"
    );
    let mut sizes = [0u32; 256];
    let mut classes = 0usize;
    for &l in labels {
        if sizes[l as usize] == 0 {
            classes += 1;
        }
        sizes[l as usize] += 1;
    }
    (sizes, classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsbt_complex::{ProcessName, Vertex};

    /// A trivial "everyone outputs 0" task to exercise default methods.
    struct Constant;

    impl Task for Constant {
        fn name(&self) -> Cow<'static, str> {
            Cow::Borrowed("constant")
        }

        fn output_complex(&self, n: usize) -> Complex<u64> {
            let mut c = Complex::new();
            c.add_facet((0..n as u32).map(|i| Vertex::new(ProcessName::new(i), 0u64)))
                .unwrap();
            c
        }
    }

    #[test]
    fn defaults_work() {
        let t = Constant;
        assert!(t.is_symmetric_for(3));
        assert_eq!(t.facets_vec(3).len(), 1);
        assert_eq!(t.facet_stream(3).count(), 1);
        assert_eq!(t.solves_partition(&[0, 0, 1]), None, "no closed form");
        let proj = t.projected_facets_vec(3);
        assert_eq!(proj.len(), 1);
        // All values equal: projection is the whole facet.
        assert_eq!(proj[0].dimension(), Some(2));
    }

    #[test]
    fn default_stream_matches_output_complex() {
        let t = Constant;
        let from_stream: Complex<u64> = t.facet_stream(4).collect();
        assert_eq!(from_stream, t.output_complex(4));
    }

    #[test]
    fn builtin_symmetry_overrides_match_the_complex_check() {
        use crate::{KLeaderElection, LeaderAndDeputy, LeaderElection, WeakSymmetryBreaking};
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // `None` is a panic: an override must panic exactly where the
        // default check does, and agree with it everywhere else.
        let check = |task: &dyn Task, n: usize| {
            let fast = catch_unwind(AssertUnwindSafe(|| task.is_symmetric_for(n))).ok();
            let slow =
                catch_unwind(AssertUnwindSafe(|| task.output_complex(n).is_symmetric())).ok();
            assert_eq!(fast, slow, "{} n={n}", task.name());
        };
        for n in 0..=6 {
            check(&LeaderElection, n);
            check(&WeakSymmetryBreaking, n);
            for k in 1..=7 {
                check(&KLeaderElection::new(k), n);
            }
        }
        check(&WeakSymmetryBreaking, 63);
        // Every role mask on up to 6 nodes, constrained and impossible
        // ones included, plus a node-count mismatch.
        let flags = |mask: u32, m: usize| (0..m).map(|i| mask >> i & 1 == 1).collect::<Vec<_>>();
        for m in 1..=6usize {
            for lead in 0u32..1 << m {
                for deputy in 0u32..1 << m {
                    check(&LeaderAndDeputy::new(flags(lead, m), flags(deputy, m)), m);
                }
            }
            check(&LeaderAndDeputy::unconstrained(m), m + 1);
        }
    }

    #[test]
    fn class_size_helper_counts() {
        let (sizes, classes) = class_sizes(&[0, 2, 0, 2, 2]);
        assert_eq!(classes, 2);
        assert_eq!(sizes[0], 2);
        assert_eq!(sizes[2], 3);
        assert_eq!(sizes[1], 0);
    }
}
