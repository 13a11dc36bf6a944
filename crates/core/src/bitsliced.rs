//! The bit-sliced Monte-Carlo kernel: 64 samples per `u64` lane word —
//! the crate's one seeded sampler.
//!
//! The scalar [`SampleKernel`] advances one sample at a time through a
//! [`RoundStepper`] and decides each partition with a branchy scalar
//! closed form. This module packs 64 independent samples into the bit
//! positions ("lanes") of `u64` words and advances them together: a
//! [`LaneStepper`] tracks the pairwise
//! knowledge-equality relation per round as packed words, and a
//! [`VerdictPlan`] — the task's closed form
//! compiled once per run to straight-line bitwise ops — answers all 64
//! verdicts per evaluation.
//!
//! **Entry points.** Every estimate is a series: the fault-free
//! [`monte_carlo_bitsliced_series`] (and its `_with_stats` form) and the
//! faulted [`monte_carlo_bitsliced_series_faulted_with_stats`], all on
//! one word loop. A point estimate at `t` is entry `t − 1` of the series
//! at horizon `t`: the same draws, the same word loop, the same early
//! exit.
//!
//! **Determinism.** Lane `l` of word `w` is sample index `w·64 + l` and
//! draws its per-source words from `StreamRng(seed, w·64 + l)` — the
//! identical per-sample stream discipline of the scalar kernel — and the
//! equality tracking and compiled verdicts are exact (not approximate),
//! so every per-sample first-solving-round equals the scalar kernel's
//! and the estimates are **bit-identical to a serial stream-order loop
//! of the scalar kernel (the Monte-Carlo oracle in the test-only
//! `oracle` module) for any thread count and any lane fill**. Worker
//! chunks are word-aligned ([`pool::map_sample_chunks_aligned`] with
//! `align = 64`), so lane ↔ stream mapping never depends on the worker
//! count; the last partial word masks its dead lanes out of every tally.
//!
//! **Early exit.** Monotonicity (a solving round-`r` prefix solves at
//! every later round — the same fact the exact DP absorbs solved states
//! with) makes per-lane verdicts monotone in `r`, so each word keeps a
//! `solved` mask, tallies `newly = verdict & live & !solved` per round,
//! and stops stepping as soon as `solved` covers every live lane.
//!
//! **Work only for what is in play.** One word loop serves the
//! fault-free and the faulted kernels (the faulted one adds per-round
//! silence words). Per word it draws the 64 lanes' streams together
//! through one [`StreamBlock`] (lane `l` of draw `s` is exactly the
//! `s`-th word of `StreamRng(seed, w·64 + l)`; the lanes' xoshiro states
//! step side by side instead of as 64 serial chains), and under faults
//! fills the silence words the same way
//! ([`LaneSilence::fill_word`]). It keeps each source's 64 raw draws and
//! transposes only the round rows the word reaches: rounds `0..2` up
//! front, and when the word reaches round `ready`, rounds
//! `ready..2·ready` (capped at `t`) from the raw words shifted right by
//! `ready`. Most words exit within a few rounds, so most rows are never
//! computed. Every word starts from the all-equal relation, so the
//! round-0 verdict is evaluated once per call and each word starts from
//! it masked to its live lanes. The stepper's first step from the
//! all-equal state skips the message-passing port terms, later steps
//! share one AND per group of pairs with the same terms (see
//! [`LaneStepper`]), and the plan folds its fused pair runs with early
//! exits (see [`VerdictPlan::eval`]). A plan that compiles to the empty,
//! constant-false program (blackboard leader election without a
//! singleton source, `p ≡ 0` by Theorem 4.1) returns an all-zero series
//! without drawing or stepping a word.
//!
//! Tasks that compile no plan (no closed form, or an op budget overrun)
//! peel every lane to the scalar [`SampleKernel`] path, counted in
//! [`McStats::peeled_lanes`] — estimates stay bit-identical either way.
//!
//! [`RoundStepper`]: rsbt_sim::RoundStepper
//! [`SampleKernel`]: crate::probability
//! [`McStats::peeled_lanes`]: crate::probability::McStats::peeled_lanes
//! [`LaneStepper`]: rsbt_sim::LaneStepper
//! [`VerdictPlan::eval`]: rsbt_tasks::VerdictPlan::eval
//! [`StreamBlock`]: rand::rngs::StreamBlock
//! [`LaneSilence::fill_word`]: rsbt_sim::LaneSilence::fill_word

use rand::rngs::{StreamBlock, StreamRng};
use rsbt_random::Assignment;
use rsbt_sim::{pool, FaultSchedule, FaultSpec, LaneStepper, Model};
use rsbt_tasks::{Task, VerdictPlan};

use crate::probability::{check_mc_args, Estimate, McStats, SampleKernel};
use crate::solvability::{self, SolvabilityMemo, TaskKernel};

/// The estimated series `p̂(1), …, p̂(t_max)` of `Pr[S(t) | α]` from
/// **one** sampling pass: sample `i` always draws `t_max`-bit strings from
/// [`StreamRng`]`(seed, i)`, 64 samples ride one lane word, and workers
/// take word-aligned index ranges whose tallies merge by integer addition
/// — so the series is **bit-identical for any `threads` value** (see the
/// module docs). Each sample's first solving round decides its verdict at
/// every `t` simultaneously (monotonicity), the Monte-Carlo mirror of the
/// exact DP's one-sweep series, and the series is exactly monotone
/// (common random numbers).
///
/// The estimate at one `t` is entry `t − 1` of the series at horizon `t`
/// or any later one: the per-source word draw does not depend on the
/// horizon, and a word stops stepping once every live lane has solved
/// (asserted by test).
///
/// # Panics
///
/// Panics if `t_max == 0`, if `samples == 0` or exceeds
/// [`MAX_MC_SAMPLES`](crate::probability::MAX_MC_SAMPLES), if `t_max > 63`,
/// if `alpha.n() > 255`, if `threads == 0`, or on a model/assignment node
/// mismatch.
pub fn monte_carlo_bitsliced_series<T>(
    model: &Model,
    task: &T,
    alpha: &Assignment,
    t_max: usize,
    samples: usize,
    seed: u64,
    threads: usize,
) -> Vec<Estimate>
where
    T: Task + Sync + ?Sized,
{
    monte_carlo_bitsliced_series_with_stats(model, task, alpha, t_max, samples, seed, threads).0
}

/// [`monte_carlo_bitsliced_series`] exposing the verdict-path statistics
/// (summed across workers).
///
/// # Panics
///
/// Same conditions as [`monte_carlo_bitsliced_series`].
pub fn monte_carlo_bitsliced_series_with_stats<T>(
    model: &Model,
    task: &T,
    alpha: &Assignment,
    t_max: usize,
    samples: usize,
    seed: u64,
    threads: usize,
) -> (Vec<Estimate>, McStats)
where
    T: Task + Sync + ?Sized,
{
    fold_lane_chunks(model, task, alpha, t_max, samples, seed, threads, None)
}

/// [`monte_carlo_bitsliced_series`] under a [`FaultSpec`], with the
/// verdict-path statistics: the whole degradation curve
/// `p̂(1), …, p̂(t_max)` from one faulted sampling pass. Lane `l` of word
/// `w` is still sample `w·64 + l`, draws its source words from the
/// identical unsalted stream, and draws its per-node silence masks from
/// the salted fault substream (the masks of the per-sample
/// [`FaultSchedule`], written without building it) — the 64 lanes' masks
/// of a word become per-round **silence lane words** (bit `l` = lane
/// `l`'s node silent this round) fed to
/// [`LaneStepper::step_faulted`](rsbt_sim::LaneStepper::step_faulted).
/// Faulted lanes track every node as its own unit (silence is per-node),
/// so the plan compiles over the identity unit layout; the series is
/// bit-identical for any thread count, and with a rate-zero spec
/// bit-identical to the fault-free series (asserted by tests).
///
/// Sample `i`'s schedule is compiled once at horizon `t_max` and every
/// prefix time reads the same silence pattern — common random numbers
/// *and* common faults across the series. Fault draws run node-major over
/// rounds `1..=t_max`, so the faulted estimate at `t` is the **last**
/// entry of the series at horizon `t`, not a prefix of a longer one.
///
/// A sample "solves" when its consistency partition solves at some
/// round `≤ t` — crashed nodes keep their (listening) knowledge and stay
/// in the partition; see `DESIGN.md` §4.9 for how this relates to the
/// operational runner's `None` outputs.
///
/// # Panics
///
/// Same conditions as [`monte_carlo_bitsliced_series`], plus the
/// [`FaultSpec::rates`] range panics if the spec was built with invalid
/// rates, and a fixed schedule must cover `alpha.n()` nodes.
#[allow(clippy::too_many_arguments)]
pub fn monte_carlo_bitsliced_series_faulted_with_stats<T>(
    model: &Model,
    task: &T,
    alpha: &Assignment,
    t_max: usize,
    samples: usize,
    seed: u64,
    threads: usize,
    faults: &FaultSpec,
) -> (Vec<Estimate>, McStats)
where
    T: Task + Sync + ?Sized,
{
    fold_lane_chunks(
        model,
        task,
        alpha,
        t_max,
        samples,
        seed,
        threads,
        Some(faults),
    )
}

/// The one sharded lane loop every bit-sliced series runs on: per
/// word-aligned chunk, either the compiled-plan path or the scalar peel,
/// tallying how many samples first solve in each round, then summing the
/// chunks into the cumulative estimate series.
#[allow(clippy::too_many_arguments)]
fn fold_lane_chunks<T>(
    model: &Model,
    task: &T,
    alpha: &Assignment,
    t: usize,
    samples: usize,
    seed: u64,
    threads: usize,
    faults: Option<&FaultSpec>,
) -> (Vec<Estimate>, McStats)
where
    T: Task + Sync + ?Sized,
{
    assert!(threads >= 1, "need at least one thread");
    assert!(t >= 1, "need at least one round");
    check_mc_args(model, alpha, t, samples);
    // first_solved[r] = samples whose first solving round is exactly
    // r + 1 (round 0 counts as round 1: solved before any bits).
    let mut first_solved = vec![0u64; t];
    let mut stats = McStats::default();
    // Compile once per run: the unit layout is a pure function of
    // (model, alpha) — and of whether faults are in play: silence is
    // per-node, so the faulted stepper tracks every node as its own
    // unit instead of collapsing source groups.
    let layout = LaneStepper::unit_layout(model, alpha, faults.is_some());
    let plan = task.lane_plan(&layout.unit_of_node, layout.units);
    // A constant-false plan (e.g. blackboard leader election with no
    // singleton source, p ≡ 0 by Theorem 4.1) never solves a lane, so
    // there is nothing to draw or step.
    if !plan.as_ref().is_some_and(VerdictPlan::is_empty) {
        // The dense fallback is only reachable from the peel path.
        let table = if plan.is_some() {
            None
        } else {
            solvability::fallback_table(task, alpha.n())
        };
        let per_chunk = pool::map_sample_chunks_aligned(samples, threads, 64, |arena, range| {
            let mut chunk = vec![0u64; t];
            let mut stats = McStats::default();
            match plan.as_ref() {
                Some(plan) => run_plan_words(
                    model, alpha, plan, t, seed, faults, &range, &mut chunk, &mut stats,
                ),
                None => {
                    let kernel = TaskKernel::new(task, table.as_ref());
                    let mut memo = SolvabilityMemo::new();
                    let mut sampler = SampleKernel::new(model, kernel, alpha, t, arena);
                    let mut schedule = FaultSchedule::empty(alpha.n(), t);
                    for i in range.clone() {
                        let mut rng = StreamRng::new(seed, i as u64);
                        let first = match faults {
                            None => sampler.first_solving_round(&mut rng, &mut memo, arena),
                            Some(spec) => {
                                spec.fill_schedule(alpha.n(), t, seed, i as u64, &mut schedule);
                                sampler.first_solving_round_faulted(
                                    &mut rng, &schedule, &mut memo, arena,
                                )
                            }
                        };
                        if let Some(first) = first {
                            chunk[first.saturating_sub(1)] += 1;
                        }
                    }
                    stats.peeled_lanes += range.len() as u64;
                    stats.absorb(&memo);
                }
            }
            (chunk, stats)
        });
        for (chunk, st) in per_chunk {
            for (acc, c) in first_solved.iter_mut().zip(chunk) {
                *acc += c;
            }
            stats.merge(&st);
        }
    }
    let mut solved = 0u64;
    let series = first_solved
        .iter()
        .map(|&c| {
            solved += c;
            Estimate::from_counts(solved, samples)
        })
        .collect();
    (series, stats)
}

/// The compiled-plan word loop (see the module docs for the layout and
/// early-exit argument): adds each lane's first solving round into
/// `first_solved` (round 0 into entry 0, round `r` into entry `r − 1`).
/// `range` is word-aligned: `range.start % 64 == 0` and only the final
/// word can be partially live.
///
/// Under `faults`, each word also writes its 64 lanes' per-node silence
/// masks from the salted fault substream
/// ([`LaneSilence::fill_word`](rsbt_sim::LaneSilence::fill_word), no
/// per-lane [`FaultSchedule`]) and transposes them into per-round
/// **silence lane words** (`sil[i][r]` bit `l` = lane
/// `l`'s node `i` silent in round `r + 1`) for
/// [`LaneStepper::step_faulted`]. Source draws are untouched — same
/// streams, same order — so a rate-zero spec compiles all-zero silence
/// words and reproduces the fault-free verdicts bit-for-bit. Early exit
/// per word stays sound: faulted partitions still only refine over time
/// (each round's knowledge embeds the node's own previous knowledge), so
/// per-lane verdicts stay monotone in `r`.
#[allow(clippy::too_many_arguments)]
fn run_plan_words(
    model: &Model,
    alpha: &Assignment,
    plan: &VerdictPlan,
    t: usize,
    seed: u64,
    faults: Option<&FaultSpec>,
    range: &std::ops::Range<usize>,
    first_solved: &mut [u64],
    stats: &mut McStats,
) {
    debug_assert_eq!(range.start % 64, 0, "chunks must be word-aligned");
    let (k, n) = (alpha.k(), alpha.n());
    let mut stepper = match faults {
        None => LaneStepper::new(model, alpha),
        Some(_) => LaneStepper::new_faulted(model, alpha),
    };
    // raw[s][l] = lane l's one-word draw for source s (BitString::sample
    // packs round r at bit r, and t ≤ 63 keeps every round inside one
    // word); rows[s][r] bit l = source s's round-r bit in lane l, filled
    // by transpose_window as the word reaches round r. The first k blocks
    // are the sources; under faults n more follow, node i's silence mask
    // (bit r = silent in round r + 1).
    let blocks = k + if faults.is_some() { n } else { 0 };
    let mut raw = vec![[0u64; 64]; blocks];
    let mut rows = vec![[0u64; 64]; blocks];
    let silence = faults.map(|spec| spec.lane_silence(n, t, seed));
    let mut regs: Vec<u64> = Vec::new();
    // Round 0: the all-⊥ partition (all lanes all-equal) — matches the
    // scalar kernel's `Some(0)` probe. Every word starts there, so one
    // evaluation answers round 0 for all of them (all ones or all zeros).
    stepper.reset();
    let root = plan.eval(stepper.eq_words(), &mut regs);
    let mut base = range.start;
    while base < range.end {
        let live = (range.end - base).min(64);
        let live_mask = if live == 64 {
            u64::MAX
        } else {
            (1u64 << live) - 1
        };
        // Exactly the scalar discipline: sample w·64 + l draws k words in
        // source order from its own stream; dead lanes draw zeros.
        let (draws, sil) = raw.split_at_mut(k);
        StreamBlock::new(seed, base as u64, live).fill(draws);
        if let Some(silence) = &silence {
            silence.fill_word(base as u64, live, sil);
        }
        // Rounds 0..ready are transposed; most words exit within them.
        let mut ready = t.min(2);
        for (row, word) in rows.iter_mut().zip(&raw) {
            transpose_window(word, 0, &mut row[..ready]);
        }
        stepper.reset();
        stats.lane_words += 1;
        let mut solved = root & live_mask;
        first_solved[0] += u64::from(solved.count_ones());
        for r in 0..t {
            if solved == live_mask {
                break;
            }
            if r == ready {
                // Double the transposed rounds, capped at t.
                let end = (2 * ready).min(t);
                for (row, word) in rows.iter_mut().zip(&raw) {
                    transpose_window(word, ready, &mut row[ready..end]);
                }
                ready = end;
            }
            let (draws, sil) = rows.split_at(k);
            match faults {
                None => stepper.step(|s| draws[s][r]),
                Some(_) => stepper.step_faulted(|s| draws[s][r], |i| sil[i][r]),
            }
            let newly = plan.eval(stepper.eq_words(), &mut regs) & live_mask & !solved;
            first_solved[r] += u64::from(newly.count_ones());
            solved |= newly;
        }
        base += 64;
    }
}

/// The delta-swap ladder of a 64×64 bit-matrix transpose, high stages
/// first: `(j, m)` swaps the `j`-bit blocks that mask `m` selects.
const STAGES: [(usize, u64); 6] = [
    (32, 0x0000_0000_ffff_ffff),
    (16, 0x0000_ffff_0000_ffff),
    (8, 0x00ff_00ff_00ff_00ff),
    (4, 0x0f0f_0f0f_0f0f_0f0f),
    (2, 0x3333_3333_3333_3333),
    (1, 0x5555_5555_5555_5555),
];

/// Rows `ready..ready + out.len()` of the transpose of `raw`: bit `l` of
/// `out[i]` is bit `ready + i` of `raw[l]`. The raw words shifted right
/// by `ready` put those rows first, so a row-limited transpose of the
/// shifted words computes just the window. Up to 32 rows, the shift rides
/// the first stage, which keeps only its low side (see [`transpose_rows`]).
fn transpose_window(raw: &[u64; 64], ready: usize, out: &mut [u64]) {
    let rows = out.len();
    if rows == 0 {
        return;
    }
    debug_assert!(ready + rows <= 64, "a 64×64 matrix has 64 rows");
    if rows > 32 {
        let mut a: [u64; 64] = std::array::from_fn(|l| raw[l] >> ready);
        transpose_rows(&mut a, rows);
        out.copy_from_slice(&a[..rows]);
    } else {
        let (_, low) = STAGES[0];
        let mut a: [u64; 32] =
            std::array::from_fn(|k| (raw[k] >> ready) & low | (raw[k + 32] >> ready) << 32);
        ladder(&mut a, rows.next_power_of_two(), &STAGES[1..]);
        out.copy_from_slice(&a[..rows]);
    }
}

/// In-place 64×64 bit-matrix transpose, computing only the first `rows`
/// output rows: afterwards, for `r < rows`, bit `l` of `a[r]` equals bit
/// `r` of the original `a[l]`. Rows from `rows.next_power_of_two()` on
/// are left as scratch.
fn transpose_rows(a: &mut [u64; 64], rows: usize) {
    debug_assert!(rows <= 64, "a 64×64 matrix has 64 rows");
    ladder(a, rows.next_power_of_two(), &STAGES);
}

/// Runs `stages` of the ladder on `a`, keeping the first `p` rows (`p` a
/// power of two). Output rows below `p` depend only on the low side of
/// every swap at a stage `j ≥ p`, so those stages compute just
/// `a[k] = (a[k] & m) | ((a[k + j] << j) & !m)` for `k < j`, and the
/// remaining stages run in full on `a[..p]`. Inlined so that each
/// caller's constant stages unroll.
#[inline(always)]
fn ladder(a: &mut [u64], p: usize, stages: &[(usize, u64)]) {
    for &(j, m) in stages {
        if j >= p {
            let (lo, hi) = a.split_at_mut(j);
            for (x, &y) in lo.iter_mut().zip(&hi[..j]) {
                *x = (*x & m) | ((y << j) & !m);
            }
        } else {
            for block in a[..p].chunks_exact_mut(2 * j) {
                let (lo, hi) = block.split_at_mut(j);
                for (x, y) in lo.iter_mut().zip(hi) {
                    let t = ((*x >> j) ^ *y) & m;
                    *x ^= t << j;
                    *y ^= t;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::output_cache::build_output_table;
    use crate::solvability::OpaqueLeaderElection;
    use rsbt_tasks::{
        pair_count, pair_index, KLeaderElection, LeaderAndDeputy, LeaderElection,
        WeakSymmetryBreaking,
    };

    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^ (z >> 31)
    }

    fn random_matrix(salt: u64) -> [u64; 64] {
        std::array::from_fn(|i| mix(i as u64 ^ salt))
    }

    /// The faulted series without its statistics.
    #[allow(clippy::too_many_arguments)]
    fn series_faulted<T: Task + Sync + ?Sized>(
        model: &Model,
        task: &T,
        alpha: &Assignment,
        t_max: usize,
        samples: usize,
        seed: u64,
        threads: usize,
        faults: &FaultSpec,
    ) -> Vec<Estimate> {
        monte_carlo_bitsliced_series_faulted_with_stats(
            model, task, alpha, t_max, samples, seed, threads, faults,
        )
        .0
    }

    #[test]
    fn transpose_is_the_bit_matrix_transpose() {
        let orig = random_matrix(0xdead);
        let mut a = orig;
        transpose_rows(&mut a, 64);
        for (r, &row) in a.iter().enumerate() {
            for (l, &old) in orig.iter().enumerate() {
                assert_eq!(row >> l & 1, old >> r & 1, "({r},{l})");
            }
        }
        transpose_rows(&mut a, 64);
        assert_eq!(a, orig, "involution");
    }

    #[test]
    fn row_limited_transpose_matches_the_full_transpose() {
        for salt in [0xdead_u64, 0xbeef, 0] {
            let orig = random_matrix(salt);
            let mut full = orig;
            transpose_rows(&mut full, 64);
            for rows in 1..=64 {
                let mut a = orig;
                transpose_rows(&mut a, rows);
                assert_eq!(a[..rows], full[..rows], "rows={rows} salt={salt:#x}");
            }
        }
    }

    #[test]
    fn transpose_windows_match_the_full_transpose() {
        for salt in [0xdead_u64, 0xbeef, 0] {
            let orig = random_matrix(salt);
            let mut full = orig;
            transpose_rows(&mut full, 64);
            for ready in 0..=64 {
                for w in 0..=64 - ready {
                    let mut out = vec![!0u64; w];
                    transpose_window(&orig, ready, &mut out);
                    assert_eq!(
                        out,
                        full[ready..ready + w],
                        "ready={ready} w={w} salt={salt:#x}"
                    );
                }
            }
        }
    }

    fn grid() -> Vec<(Model, Box<dyn Task + Sync>, Assignment, usize)> {
        vec![
            (
                Model::Blackboard,
                Box::new(LeaderElection),
                Assignment::from_group_sizes(&[1, 2, 2]).unwrap(),
                5,
            ),
            (
                Model::Blackboard,
                Box::new(WeakSymmetryBreaking),
                Assignment::from_group_sizes(&[2, 2]).unwrap(),
                6,
            ),
            (
                Model::Blackboard,
                Box::new(KLeaderElection::new(2)),
                Assignment::from_group_sizes(&[1, 1, 2]).unwrap(),
                5,
            ),
            (
                Model::Blackboard,
                Box::new(LeaderAndDeputy::unconstrained(4)),
                Assignment::private(4),
                4,
            ),
            (
                Model::message_passing_cyclic(4),
                Box::new(LeaderElection),
                Assignment::private(4),
                4,
            ),
            (
                Model::message_passing_cyclic(3),
                Box::new(WeakSymmetryBreaking),
                Assignment::from_group_sizes(&[1, 2]).unwrap(),
                5,
            ),
        ]
    }

    #[test]
    fn bitsliced_is_bit_identical_to_the_scalar_kernel() {
        // Every lane fill around the word boundary, a count past 64 words,
        // and every thread count must reproduce the serial oracle.
        for (model, task, alpha, t) in grid() {
            for samples in [1usize, 63, 64, 65, 200, 4097] {
                let reference =
                    oracle::estimate(&model, task.as_ref(), &alpha, t, samples, 42, None);
                for threads in [1usize, 2, 3, 4, 8] {
                    let sliced = monte_carlo_bitsliced_series(
                        &model,
                        task.as_ref(),
                        &alpha,
                        t,
                        samples,
                        42,
                        threads,
                    )[t - 1];
                    assert_eq!(
                        sliced,
                        reference,
                        "{} {model} samples={samples} threads={threads}",
                        task.name()
                    );
                }
            }
        }
    }

    #[test]
    fn bitsliced_series_matches_the_scalar_series() {
        for (model, task, alpha, t_max) in grid() {
            let reference = oracle::series(&model, task.as_ref(), &alpha, t_max, 130, 7, None);
            for threads in [1usize, 2, 4] {
                let sliced = monte_carlo_bitsliced_series(
                    &model,
                    task.as_ref(),
                    &alpha,
                    t_max,
                    130,
                    7,
                    threads,
                );
                assert_eq!(
                    sliced,
                    reference,
                    "{} {model} threads={threads}",
                    task.name()
                );
            }
        }
    }

    /// Every row-limited transpose size the word loop can pick, on each
    /// port model: `t` straddles every power of two up to the 63-round
    /// cap.
    #[test]
    fn series_are_bit_identical_at_every_transpose_size() {
        use rsbt_sim::PortNumbering;
        let cases: Vec<(Model, Box<dyn Task + Sync>, Assignment)> = vec![
            (
                Model::Blackboard,
                Box::new(LeaderElection),
                Assignment::from_group_sizes(&[1, 1, 2]).unwrap(),
            ),
            (
                Model::message_passing_cyclic(4),
                Box::new(WeakSymmetryBreaking),
                Assignment::from_group_sizes(&[2, 2]).unwrap(),
            ),
            // A shared source on the cyclic ring never breaks symmetry:
            // every word runs all `t` rounds.
            (
                Model::message_passing_cyclic(3),
                Box::new(LeaderElection),
                Assignment::shared(3),
            ),
            (
                Model::MessagePassing(PortNumbering::adversarial(4, 2)),
                Box::new(LeaderElection),
                Assignment::private(4),
            ),
        ];
        let spec = FaultSpec::rates(0.05, 0.2);
        for (model, task, alpha) in &cases {
            let task = task.as_ref();
            for t in [1usize, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 63] {
                let what = format!("{} {model} t={t}", task.name());
                let reference = oracle::series(model, task, alpha, t, 130, 17, None);
                let sliced = monte_carlo_bitsliced_series(model, task, alpha, t, 130, 17, 2);
                assert_eq!(sliced, reference, "{what}");
                let silent = series_faulted(model, task, alpha, t, 130, 17, 2, &FaultSpec::none());
                assert_eq!(silent, reference, "{what} rate zero");
                let faulted = series_faulted(model, task, alpha, t, 130, 17, 2, &spec);
                let serial = oracle::series(model, task, alpha, t, 130, 17, Some(&spec));
                assert_eq!(faulted, serial, "{what} faulted");
            }
        }
    }

    #[test]
    fn constant_false_plans_skip_the_word_loop() {
        // Blackboard leader election without a singleton source compiles
        // the empty plan: p ≡ 0 (Theorem 4.1), so no word is stepped.
        let alpha = Assignment::from_group_sizes(&[2, 2]).unwrap();
        let unit_of_node: Vec<usize> = (0..4).map(|i| alpha.source_of(i)).collect();
        assert!(LeaderElection
            .lane_plan(&unit_of_node, alpha.k())
            .is_some_and(|plan| plan.is_empty()));
        let (series, stats) = monte_carlo_bitsliced_series_with_stats(
            &Model::Blackboard,
            &LeaderElection,
            &alpha,
            6,
            200,
            3,
            2,
        );
        assert_eq!(stats, McStats::default());
        assert_eq!(
            series,
            oracle::series(&Model::Blackboard, &LeaderElection, &alpha, 6, 200, 3, None)
        );
        assert!(series.iter().all(|e| e.solved == 0));
    }

    #[test]
    fn faulted_bitsliced_matches_the_faulted_scalar_kernel() {
        let specs = [
            FaultSpec::rates(0.05, 0.15),
            FaultSpec::rates(0.0, 0.3),
            FaultSpec::rates(0.2, 0.0),
        ];
        for (model, task, alpha, t) in grid() {
            for spec in &specs {
                for samples in [63usize, 200] {
                    let reference =
                        oracle::estimate(&model, task.as_ref(), &alpha, t, samples, 42, Some(spec));
                    for threads in [1usize, 3] {
                        let sliced = series_faulted(
                            &model,
                            task.as_ref(),
                            &alpha,
                            t,
                            samples,
                            42,
                            threads,
                            spec,
                        )[t - 1];
                        assert_eq!(
                            sliced,
                            reference,
                            "{} {model} spec={spec:?} samples={samples} threads={threads}",
                            task.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rate_zero_spec_is_bit_identical_to_the_fault_free_kernels() {
        let spec = FaultSpec::none();
        for (model, task, alpha, t) in grid() {
            assert_eq!(
                oracle::estimate(&model, task.as_ref(), &alpha, t, 200, 11, Some(&spec)),
                oracle::estimate(&model, task.as_ref(), &alpha, t, 200, 11, None),
                "{} {model} scalar",
                task.name()
            );
            let series = monte_carlo_bitsliced_series(&model, task.as_ref(), &alpha, t, 200, 11, 2);
            let faulted_series =
                series_faulted(&model, task.as_ref(), &alpha, t, 200, 11, 2, &spec);
            assert_eq!(faulted_series, series, "{} {model} series", task.name());
        }
    }

    #[test]
    fn faulted_series_tail_equals_the_point_estimate_and_stays_monotone() {
        // Schedules are compiled at the series horizon, so interior points
        // are *distributionally* p̂(t) but only the tail is bit-identical
        // to a point estimate at the same horizon (here the oracle's).
        let spec = FaultSpec::rates(0.1, 0.2);
        for (model, task, alpha, t_max) in grid() {
            let task = task.as_ref();
            let series = series_faulted(&model, task, &alpha, t_max, 200, 13, 2, &spec);
            let point = oracle::estimate(&model, task, &alpha, t_max, 200, 13, Some(&spec));
            assert_eq!(series[t_max - 1], point, "{} {model}", task.name());
            for w in series.windows(2) {
                assert!(w[1].solved >= w[0].solved, "{} {model}", task.name());
            }
        }
    }

    #[test]
    fn faulted_plan_path_actually_engages_lanes() {
        // Leader election on the blackboard compiles a lane plan in the
        // identity unit layout: the faulted kernel must run words, not
        // peel.
        let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
        let (_, stats) = monte_carlo_bitsliced_series_faulted_with_stats(
            &Model::Blackboard,
            &LeaderElection,
            &alpha,
            4,
            130,
            9,
            3,
            &FaultSpec::rates(0.1, 0.1),
        );
        assert_eq!(stats.lane_words, 3);
        assert_eq!(stats.peeled_lanes, 0);
    }

    #[test]
    fn faulted_planless_tasks_peel_to_the_scalar_path() {
        let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
        let spec = FaultSpec::rates(0.1, 0.2);
        let (series, stats) = monte_carlo_bitsliced_series_faulted_with_stats(
            &Model::Blackboard,
            &OpaqueLeaderElection,
            &alpha,
            4,
            100,
            5,
            2,
            &spec,
        );
        assert_eq!(stats.peeled_lanes, 100);
        assert_eq!(stats.lane_words, 0);
        // Bit-identical to the plan path on the same underlying task.
        assert_eq!(
            series,
            series_faulted(
                &Model::Blackboard,
                &LeaderElection,
                &alpha,
                4,
                100,
                5,
                3,
                &spec,
            )
        );
    }

    #[test]
    fn lane_word_counters_count_words() {
        let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
        let (_, stats) = monte_carlo_bitsliced_series_with_stats(
            &Model::Blackboard,
            &LeaderElection,
            &alpha,
            4,
            130,
            9,
            3,
        );
        // 130 samples over word-aligned chunks: 3 words in total.
        assert_eq!(stats.lane_words, 3);
        assert_eq!(stats.peeled_lanes, 0);
        assert_eq!(stats.closed_form_verdicts, 0, "plan path needs no memo");
    }

    #[test]
    fn planless_tasks_peel_to_the_scalar_path() {
        let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
        let (series, stats) = monte_carlo_bitsliced_series_with_stats(
            &Model::Blackboard,
            &OpaqueLeaderElection,
            &alpha,
            4,
            100,
            5,
            2,
        );
        assert_eq!(stats.peeled_lanes, 100);
        assert_eq!(stats.lane_words, 0);
        assert!(stats.dense_scan_verdicts > 0, "no closed form, no plan");
        // Still bit-identical — and equal to the plan path on the
        // same underlying task.
        let want = oracle::series(
            &Model::Blackboard,
            &OpaqueLeaderElection,
            &alpha,
            4,
            100,
            5,
            None,
        );
        assert_eq!(series, want);
        assert_eq!(
            series,
            monte_carlo_bitsliced_series(&Model::Blackboard, &LeaderElection, &alpha, 4, 100, 5, 3)
        );
    }

    /// 64 independently randomized node partitions, as both per-lane
    /// label vectors and packed equality words (identity unit layout).
    fn random_lanes(n: usize, salt: u64) -> (Vec<Vec<u8>>, Vec<u64>) {
        let lanes: Vec<Vec<u8>> = (0..64u64)
            .map(|l| {
                (0..n)
                    .map(|i| (mix(salt ^ (l << 16) ^ i as u64) % n as u64) as u8)
                    .collect()
            })
            .collect();
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
        (lanes, eq)
    }

    /// First-occurrence canonical labels and class representatives (the
    /// layout `facet_scan` expects, mirroring `SolvabilityMemo`).
    fn canonicalize(labels: &[u8]) -> (Vec<u8>, Vec<usize>) {
        let mut canon = Vec::with_capacity(labels.len());
        let mut seen: Vec<u8> = Vec::new();
        let mut reps = Vec::new();
        for (i, &l) in labels.iter().enumerate() {
            match seen.iter().position(|&s| s == l) {
                Some(c) => canon.push(c as u8),
                None => {
                    canon.push(seen.len() as u8);
                    seen.push(l);
                    reps.push(i);
                }
            }
        }
        (canon, reps)
    }

    #[test]
    fn plan_scalar_and_dense_scan_agree_on_random_partitions() {
        // Satellite: VerdictPlan ≡ solves_partition ≡ dense FacetTable
        // scan, for every built-in task, n ≤ 8, 64 random lanes each.
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
        let mut regs = Vec::new();
        for (case, (task, n)) in tasks.iter().enumerate() {
            let n = *n;
            let unit_of_node: Vec<usize> = (0..n).collect();
            let plan = task
                .lane_plan(&unit_of_node, n)
                .unwrap_or_else(|| panic!("{} has no plan for n={n}", task.name()));
            let table = build_output_table(task.as_ref(), n);
            let (lanes, eq) = random_lanes(n, 0x5eed ^ (case as u64) << 8);
            let verdicts = plan.eval(&eq, &mut regs);
            for (l, labels) in lanes.iter().enumerate() {
                let scalar = task.solves_partition(labels).expect("closed form");
                let (canon, reps) = canonicalize(labels);
                let dense = solvability::facet_scan(&table, &canon, &reps);
                assert_eq!(scalar, dense, "{} n={n} lane {l}", task.name());
                assert_eq!(
                    verdicts >> l & 1 == 1,
                    scalar,
                    "{} n={n} lane {l} labels {labels:?}",
                    task.name()
                );
            }
        }
    }

    #[test]
    fn mc_stats_merge_is_fieldwise_addition() {
        // Satellite: sum law plus identity element.
        let a = McStats {
            memo_hits: 1,
            closed_form_verdicts: 2,
            dense_scan_verdicts: 3,
            lane_words: 4,
            peeled_lanes: 5,
        };
        let b = McStats {
            memo_hits: 10,
            closed_form_verdicts: 20,
            dense_scan_verdicts: 30,
            lane_words: 40,
            peeled_lanes: 50,
        };
        let mut m = a;
        m.merge(&b);
        assert_eq!(
            m,
            McStats {
                memo_hits: 11,
                closed_form_verdicts: 22,
                dense_scan_verdicts: 33,
                lane_words: 44,
                peeled_lanes: 55,
            }
        );
        let mut id = a;
        id.merge(&McStats::default());
        assert_eq!(id, a, "default is the identity");
        let mut id2 = McStats::default();
        id2.merge(&a);
        assert_eq!(id2, a);
    }
}
