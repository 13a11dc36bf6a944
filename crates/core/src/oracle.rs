//! The brute-force oracles the production paths are tested against —
//! test-only code, compiled into no build but the crate's own tests.
//!
//! * **Verdict oracle** — rebuild the task's output complex and scan its
//!   facets for one monochromatic on every consistency class, by
//!   per-vertex `Simplex::value_of` binary search: the solvability
//!   criterion with no closed form, no dense table and no memo.
//! * **Exact oracle** — re-simulate every positive-probability
//!   realization one by one ([`Realization::enumerate_consistent`]) and
//!   decide each with the verdict oracle: no DP, no absorption, no orbit
//!   quotient.
//! * **Monte-Carlo oracle** — sample `i` draws from `StreamRng(seed, i)`
//!   and is decided by one scalar `SampleKernel`, in stream order on one
//!   thread: no lanes, no chunking, no plans.
#![cfg(test)]

use rand::rngs::StreamRng;
use rsbt_complex::ProcessName;
use rsbt_random::{Assignment, Realization};
use rsbt_sim::{Execution, FaultSchedule, FaultSpec, KnowledgeArena, Model};
use rsbt_tasks::Task;

use crate::probability::{Estimate, McStats, SampleKernel};
use crate::solvability::{self, SolvabilityMemo, TaskKernel};

/// Whether some facet of `task`'s output complex on `n` nodes holds a
/// single value on every class of `classes` (a partition of `0..n`).
pub(crate) fn solves_classes<T: Task + ?Sized>(task: &T, n: usize, classes: &[Vec<usize>]) -> bool {
    task.output_complex(n).facets().any(|tau| {
        classes.iter().all(|class| {
            let first = tau
                .value_of(name(class[0]))
                .expect("facet covers all names");
            class.iter().all(|&i| tau.value_of(name(i)) == Some(first))
        })
    })
}

fn name(i: usize) -> ProcessName {
    ProcessName::new(i as u32)
}

/// The verdict oracle on an execution, at its final time.
pub(crate) fn solves_execution_reference<T: Task + ?Sized>(exec: &Execution, task: &T) -> bool {
    let classes = exec.consistency_partition(exec.time());
    solves_classes(task, exec.n(), &classes)
}

/// Exact `Pr[S(t) | α]` leaf by leaf: the share of the `2^{k·t}`
/// equiprobable realizations the verdict oracle accepts.
pub(crate) fn exact_reference<T: Task + ?Sized>(
    model: &Model,
    task: &T,
    alpha: &Assignment,
    t: usize,
    arena: &mut KnowledgeArena,
) -> f64 {
    let mut solved = 0u64;
    let mut total = 0u64;
    for rho in Realization::enumerate_consistent(alpha, t) {
        let exec = Execution::run(model, &rho, arena);
        solved += u64::from(solves_execution_reference(&exec, task));
        total += 1;
    }
    solved as f64 / total as f64
}

/// [`exact_reference`] at every `t ∈ 1..=t_max`, over a shared arena.
pub(crate) fn exact_series_reference<T: Task + ?Sized>(
    model: &Model,
    task: &T,
    alpha: &Assignment,
    t_max: usize,
    arena: &mut KnowledgeArena,
) -> Vec<f64> {
    (1..=t_max)
        .map(|t| exact_reference(model, task, alpha, t, arena))
        .collect()
}

/// Each sample's first solving round at horizon `t` (`None` when it does
/// not solve by `t`), plus the memo's verdict counters. Under `faults`,
/// sample `i` compiles its schedule at horizon `t` from the same
/// `(seed, i)` key.
pub(crate) fn first_rounds<T: Task + ?Sized>(
    model: &Model,
    task: &T,
    alpha: &Assignment,
    t: usize,
    samples: usize,
    seed: u64,
    faults: Option<&FaultSpec>,
) -> (Vec<Option<usize>>, McStats) {
    let table = solvability::fallback_table(task, alpha.n());
    let kernel = TaskKernel::new(task, table.as_ref());
    let mut arena = KnowledgeArena::new();
    let mut memo = SolvabilityMemo::new();
    let mut sampler = SampleKernel::new(model, kernel, alpha, t, &mut arena);
    let mut schedule = FaultSchedule::empty(alpha.n(), t);
    let firsts = (0..samples as u64)
        .map(|i| {
            let mut rng = StreamRng::new(seed, i);
            match faults {
                None => sampler.first_solving_round(&mut rng, &mut memo, &mut arena),
                Some(spec) => {
                    spec.fill_schedule(alpha.n(), t, seed, i, &mut schedule);
                    sampler.first_solving_round_faulted(&mut rng, &schedule, &mut memo, &mut arena)
                }
            }
        })
        .collect();
    let mut stats = McStats::default();
    stats.absorb(&memo);
    (firsts, stats)
}

/// The Monte-Carlo oracle's estimate at horizon `t`.
pub(crate) fn estimate<T: Task + ?Sized>(
    model: &Model,
    task: &T,
    alpha: &Assignment,
    t: usize,
    samples: usize,
    seed: u64,
    faults: Option<&FaultSpec>,
) -> Estimate {
    series(model, task, alpha, t, samples, seed, faults)[t - 1]
}

/// The Monte-Carlo oracle's series `p̂(1), …, p̂(t_max)` from one pass at
/// horizon `t_max`: sample `i` counts at `t` iff its first solving round
/// is at most `t` (round 0 counts from `t = 1`).
pub(crate) fn series<T: Task + ?Sized>(
    model: &Model,
    task: &T,
    alpha: &Assignment,
    t_max: usize,
    samples: usize,
    seed: u64,
    faults: Option<&FaultSpec>,
) -> Vec<Estimate> {
    let (firsts, _) = first_rounds(model, task, alpha, t_max, samples, seed, faults);
    (1..=t_max)
        .map(|t| {
            let solved = firsts.iter().filter(|f| f.is_some_and(|r| r <= t)).count();
            Estimate::from_counts(solved as u64, samples)
        })
        .collect()
}

mod tests {
    use super::*;
    use crate::probability;
    use rsbt_tasks::{KLeaderElection, LeaderElection, WeakSymmetryBreaking};

    /// `k·t = 16` series points where the production exact path must
    /// reproduce the leaf-by-leaf oracle bit for bit (2^16 realizations,
    /// 8 rounds each), for leader election and for the facet-heavier
    /// 2-LE and WSB.
    #[test]
    fn engine_matches_reference_at_sixteen_bits() {
        let two_le = KLeaderElection::new(2);
        let cases: [(&dyn Task, &[usize]); 3] = [
            (&LeaderElection, &[1, 3]),
            (&two_le, &[2, 2]),
            (&WeakSymmetryBreaking, &[2, 2]),
        ];
        for (task, sizes) in cases {
            let alpha = Assignment::from_group_sizes(sizes).unwrap();
            let reference = exact_series_reference(
                &Model::Blackboard,
                task,
                &alpha,
                8,
                &mut KnowledgeArena::new(),
            );
            let engine = probability::exact_series(&Model::Blackboard, task, &alpha, 8);
            assert_eq!(engine.len(), reference.len());
            for (i, (p, q)) in engine.iter().zip(&reference).enumerate() {
                assert_eq!(p.to_bits(), q.to_bits(), "{} t={}", task.name(), i + 1);
            }
        }
    }
}
