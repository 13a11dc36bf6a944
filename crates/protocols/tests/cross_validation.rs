//! Cross-validation: executable choreographies vs the exact knowledge
//! kernel.
//!
//! The paper's solvability theory (`rsbt_core::solvability`,
//! `rsbt_core::probability`) and the executable protocols were built as
//! separate layers; this suite pins them together point by point. For
//! every α-consistent realization with `n ≤ 4`, `t ≤ 3`:
//!
//! * the projected blackboard-leader-election machine, run on exactly that
//!   realization's bits, completes within `t + 1` rounds **iff**
//!   [`solvability::solves`] says leader election is solvable at time `t`
//!   on that realization;
//! * same for weak symmetry breaking, exactly-2-leader election and
//!   leader-and-deputy election;
//! * the per-α completion counts therefore reproduce
//!   [`probability::exact`] exactly (as a ratio of integers, not within a
//!   tolerance).
//!
//! The `t + 1` horizon is the protocols' decision structure: decisions at
//! round `t + 1` read the round-`t` board, and both "has a unique string"
//! (leader election) and "has two distinct strings" (symmetry breaking)
//! are monotone under extension, as are "some classes sum to `k`"
//! (k-leader election) and "has two unique strings" (leader and deputy),
//! so earlier decisions never disagree with the time-`t` verdict.

use rand::RngCore;
use rsbt_core::{probability, solvability};
use rsbt_protocols::choreo::{
    run_with, BleChoreo, Choreography, DeputyChoreo, KLeaderChoreo, WsbChoreo,
};
use rsbt_random::{Assignment, Realization};
use rsbt_sim::{KnowledgeArena, Model};
use rsbt_tasks::{KLeaderElection, LeaderAndDeputy, LeaderElection, Task, WeakSymmetryBreaking};

/// Replays one realization's bits in the runner's draw order (round-major,
/// source-minor); zero bits afterwards (the final round's draws are dead:
/// decisions only read the previous round's board).
struct TapeRng {
    bits: Vec<bool>,
    pos: usize,
}

impl TapeRng {
    fn from_tree_index(k: usize, t: usize, index: u64) -> Self {
        let bits = (1..=t)
            .flat_map(|r| (0..k).map(move |s| index >> ((t - r) * k + s) & 1 == 1))
            .collect();
        TapeRng { bits, pos: 0 }
    }
}

impl RngCore for TapeRng {
    fn next_u64(&mut self) -> u64 {
        let b = self.bits.get(self.pos).copied().unwrap_or(false);
        self.pos += 1;
        u64::from(b)
    }
}

/// Shared sweep: for every profile and horizon, check the protocol's
/// completion against per-realization solvability of `task(n)`, and the
/// completion count against the exact probability.
fn cross_validate<C, T>(choreo: &C, task: impl Fn(usize) -> T, n_min: usize, what: &str)
where
    C: Choreography,
    T: Task,
{
    let model = Model::Blackboard;
    let mut arena = KnowledgeArena::new();
    for n in n_min..=4usize {
        let task = task(n);
        for alpha in Assignment::iter_profiles(n) {
            let k = alpha.k();
            for t in 1..=3usize {
                let mut completed_runs = 0u64;
                for (index, rho) in Realization::enumerate_consistent(&alpha, t).enumerate() {
                    let index = index as u64;
                    let mut tape = TapeRng::from_tree_index(k, t, index);
                    let out = run_with(choreo, &model, &alpha, t + 1, &mut tape)
                        .expect("blackboard protocols project");
                    let solvable = solvability::solves(&model, &rho, &task, &mut arena);
                    assert_eq!(
                        out.completed,
                        solvable,
                        "{what}: n={n} sizes={:?} t={t} index={index}: \
                         protocol completed={} but kernel says solvable={}",
                        alpha.sources(),
                        out.completed,
                        solvable,
                    );
                    completed_runs += u64::from(out.completed);
                }
                let total = 1u64 << (k * t);
                let p_protocol = completed_runs as f64 / total as f64;
                let p_exact = probability::exact(&model, &task, &alpha, t);
                assert_eq!(
                    p_protocol,
                    p_exact,
                    "{what}: n={n} sizes={:?} t={t}: protocol completion ratio \
                     {completed_runs}/{total} != exact probability {p_exact}",
                    alpha.sources(),
                );
            }
        }
    }
}

#[test]
fn ble_agrees_with_solvability_kernel_and_exact_probability() {
    cross_validate(&BleChoreo, |_| LeaderElection, 1, "ble");
}

#[test]
fn wsb_agrees_with_solvability_kernel_and_exact_probability() {
    // The WSB task is undefined for n = 1 (a single node cannot break
    // symmetry with itself), so the sweep starts at n = 2.
    cross_validate(&WsbChoreo, |_| WeakSymmetryBreaking, 2, "wsb");
}

#[test]
fn k_leader_agrees_with_solvability_kernel_and_exact_probability() {
    // Two leaders need at least two nodes.
    cross_validate(
        &KLeaderChoreo { k: 2 },
        |_| KLeaderElection::new(2),
        2,
        "k-leader",
    );
}

#[test]
fn deputy_agrees_with_solvability_kernel_and_exact_probability() {
    // A leader and a distinct deputy need at least two nodes.
    cross_validate(&DeputyChoreo, LeaderAndDeputy::unconstrained, 2, "deputy");
}
