//! Deterministic fault injection: per-node crash and omission schedules.
//!
//! The paper's model is fault-free — every node participates in every
//! round. This module adds the classical round-based failure modes on
//! top of it, with the same determinism discipline as the Monte-Carlo
//! subsystem: a [`FaultSpec`] (per-node per-round crash and omission
//! probabilities, or a fixed hand-written schedule) compiles into a
//! concrete [`FaultSchedule`] per sample, drawn from a **dedicated**
//! [`StreamRng`] substream keyed by `(seed ⊕ salt, sample)`. Fault draws
//! therefore never perturb the source-bit streams, so a spec with all
//! rates zero is *bit-identical* to the fault-free kernels — for any
//! worker-thread count — and the fault dimension can be swept without
//! re-keying anything else.
//!
//! # Semantics: silence
//!
//! Both failure modes reduce to one observable, **silence**: a node that
//! is silent in round `r` makes none of its round-`r` transmissions (its
//! blackboard post, or all of its port messages). An *omission* is
//! silence in a single round; a *crash* at round `r` is permanent
//! silence from round `r` on (send-omission semantics). A silent node
//! keeps listening, its own bit keeps entering its own knowledge, and it
//! still occupies its slot in the consistency partition — only its
//! outgoing information is lost. In the blackboard model the board
//! simply shortens (silence is observable); under message passing the
//! receiver's port slot holds a distinguished *hole* value
//! ([`crate::KnowledgeNode::Hole`]) rather than the sender's knowledge.
//!
//! # Monotone coupling
//!
//! [`FaultSpec::fill_schedule`] (one sample) and the lane kernels'
//! [`LaneSilence::fill_word`] (64 samples at once) share one draw loop
//! (`draw_cells`). It always draws **both** a crash word and an omission
//! word for every `(node, round)` cell, node-major and round-minor, even
//! after the node has crashed and even when one rate is zero (unless both
//! are, in which case the schedule is empty without touching any RNG).
//! Draw positions are therefore a pure function of `(n, t)`: raising a
//! rate can only *add* silences to the schedule produced under a lower
//! rate with the same seed — the common-random-numbers coupling that
//! makes degradation curves monotone sample-by-sample.

use rand::rngs::{StreamBlock, StreamRng, BLOCK_LANES};
use rand::RngCore;

/// The salt folded into the base seed to key the fault substream. Any
/// fixed constant works; it only has to differ from the (unsalted)
/// source-bit stream family.
pub const FAULT_STREAM_SALT: u64 = 0x6661_756c_7473_2121; // "faults!!"

/// The dedicated fault-draw stream for `sample` under base `seed`:
/// `StreamRng::new(seed ^ FAULT_STREAM_SALT, sample)`. Decorrelated from
/// the source-bit stream `StreamRng::new(seed, sample)` by the salt (the
/// stream keying runs the pair through a full-avalanche finalizer).
pub fn fault_stream(seed: u64, sample: u64) -> StreamRng {
    StreamRng::new(seed ^ FAULT_STREAM_SALT, sample)
}

/// [`fault_stream`]`(seed, first + l)` in lane `l < live` of one
/// [`StreamBlock`].
fn fault_streams(seed: u64, first: u64, live: usize) -> StreamBlock {
    StreamBlock::new(seed ^ FAULT_STREAM_SALT, first, live)
}

/// A per-node per-round rate as a 64-bit threshold: a raw 64-bit draw
/// fires when `draw < p · 2⁶⁴`, saturating at the endpoints so `p ≤ 0`
/// never fires and `p ≥ 1` always does (`always`: 2⁶⁴ does not fit a
/// `u64`). For `p` in `(0, 1)` the product is an exact power-of-two
/// scaling below 2⁶⁴, so the truncating cast is exact and the test is
/// decided by one integer compare per draw, without a branch.
#[derive(Clone, Copy, Debug)]
struct Threshold {
    limit: u64,
    always: bool,
}

impl Threshold {
    fn of(p: f64) -> Threshold {
        let limit = if p > 0.0 && p < 1.0 {
            (p * 18_446_744_073_709_551_616.0) as u64
        } else {
            0
        };
        Threshold {
            limit,
            always: p >= 1.0,
        }
    }

    fn fires(self, draw: u64) -> bool {
        self.always | (draw < self.limit)
    }

    /// [`Threshold::fires`] as a word: all ones when the draw fires.
    fn mask(self, draw: u64) -> u64 {
        u64::from(self.fires(draw)).wrapping_neg()
    }
}

/// A spec's two rates as thresholds, converted once and then used for
/// every draw of a [`FaultSpec::fill_schedule`] call, or of every word
/// a [`LaneSilence`] fills.
#[derive(Clone, Copy, Debug)]
struct Rates {
    crash: Threshold,
    omission: Threshold,
}

impl Rates {
    /// `None` when both rates are zero: nothing to draw.
    fn of(spec: &FaultSpec) -> Option<Rates> {
        (spec.crash > 0.0 || spec.omission > 0.0).then(|| Rates {
            crash: Threshold::of(spec.crash),
            omission: Threshold::of(spec.omission),
        })
    }
}

/// The one fault draw order, shared by [`FaultSpec::fill_schedule`] (one
/// sample, `W = u64`) and [`LaneSilence::fill_word`] (64 samples, `W =
/// [u64; 64]`): node-major, round-minor, and for every `(node, round)`
/// cell first a crash word then an omission word — always both, so the
/// draw positions are independent of outcomes (see the module docs on
/// monotone coupling). `fill` draws the next `draws.len()` words, up to
/// four rounds' worth at a time, into `buf`; `cell(node, round, crash,
/// omission)` then sees each cell's pair, `round` counting from 0.
fn draw_cells<W>(
    n: usize,
    t: usize,
    buf: &mut [W; 8],
    mut fill: impl FnMut(&mut [W]),
    mut cell: impl FnMut(usize, usize, &W, &W),
) {
    for node in 0..n {
        for start in (0..t).step_by(4) {
            let draws = &mut buf[..2 * (t - start).min(4)];
            fill(draws);
            for (round, [crash, omit]) in (start..).zip(draws.as_chunks::<2>().0) {
                cell(node, round, crash, omit);
            }
        }
    }
}

/// A probabilistic fault model: i.i.d. per-node per-round crash and
/// omission rates, or a fixed [`FaultSchedule`] overriding both (the
/// exact enumerator only accepts the fixed form — counts stay provably
/// exact because nothing random is marginalized).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSpec {
    /// Per-node per-round crash probability in `[0, 1]`.
    pub crash: f64,
    /// Per-node per-round omission probability in `[0, 1]`.
    pub omission: f64,
    /// A fixed schedule; when present, the rates are ignored and every
    /// sample receives this exact schedule.
    pub fixed: Option<FaultSchedule>,
}

impl FaultSpec {
    /// A fault-free spec (both rates zero, no fixed schedule).
    pub fn none() -> FaultSpec {
        FaultSpec::default()
    }

    /// A spec with the given crash and omission rates.
    ///
    /// # Panics
    ///
    /// Panics unless both rates are finite and in `[0, 1]`.
    pub fn rates(crash: f64, omission: f64) -> FaultSpec {
        assert!(
            (0.0..=1.0).contains(&crash) && (0.0..=1.0).contains(&omission),
            "fault rates must lie in [0, 1], got crash={crash} omission={omission}"
        );
        FaultSpec {
            crash,
            omission,
            fixed: None,
        }
    }

    /// A spec that replays one fixed schedule for every sample.
    pub fn fixed(schedule: FaultSchedule) -> FaultSpec {
        FaultSpec {
            crash: 0.0,
            omission: 0.0,
            fixed: Some(schedule),
        }
    }

    /// Whether this spec can never produce a fault.
    pub fn is_fault_free(&self) -> bool {
        match &self.fixed {
            Some(fixed) => fixed.is_fault_free(),
            None => self.crash <= 0.0 && self.omission <= 0.0,
        }
    }

    /// Compiles the concrete schedule of one sample into `out` (reusing
    /// its buffers), from [`fault_stream`]`(seed, sample)` in the draw
    /// discipline of the module docs: node-major, round-minor, a crash
    /// word then an omission word per `(node, round)` cell, always both.
    /// With both rates zero the RNG is never even constructed.
    ///
    /// # Panics
    ///
    /// Panics if a fixed schedule's node count differs from `n`.
    pub fn fill_schedule(
        &self,
        n: usize,
        t: usize,
        seed: u64,
        sample: u64,
        out: &mut FaultSchedule,
    ) {
        if let Some(fixed) = &self.fixed {
            assert_eq!(fixed.n(), n, "fixed schedule is for {} nodes", fixed.n());
            out.clone_from(fixed);
            return;
        }
        out.reset(n, t);
        if let Some(rates) = Rates::of(self) {
            let mut rng = fault_stream(seed, sample);
            // The last node that crashed: only a node's first crash counts.
            let mut crashed = None;
            draw_cells(
                n,
                t,
                &mut [0; 8],
                |draws| draws.fill_with(|| rng.next_u64()),
                |node, round, &crash, &omit| {
                    if crashed != Some(node) && rates.crash.fires(crash) {
                        crashed = Some(node);
                        out.set_crash(node, round + 1);
                    }
                    if rates.omission.fires(omit) {
                        out.set_omission(node, round + 1);
                    }
                },
            );
        }
    }

    /// Compiles this spec for the lane kernels at `n` nodes, horizon `t`
    /// and base `seed`: the rates become thresholds, or a fixed
    /// schedule's masks are read, once for every sample that follows.
    ///
    /// # Panics
    ///
    /// Panics if `t > 64` (a silence word holds 64 rounds), or if a fixed
    /// schedule's node count differs from `n`.
    pub fn lane_silence(&self, n: usize, t: usize, seed: u64) -> LaneSilence {
        assert!(t <= 64, "silence words hold 64 rounds, got t={t}");
        let source = match &self.fixed {
            Some(fixed) => {
                assert_eq!(fixed.n(), n, "fixed schedule is for {} nodes", fixed.n());
                SilenceSource::Fixed((0..n).map(|i| fixed.silent_mask64(i)).collect())
            }
            None => SilenceSource::Drawn(Rates::of(self)),
        };
        LaneSilence { n, t, seed, source }
    }

    /// [`FaultSpec::fill_schedule`] into a fresh schedule.
    pub fn schedule(&self, n: usize, t: usize, seed: u64, sample: u64) -> FaultSchedule {
        let mut out = FaultSchedule::empty(n, t);
        self.fill_schedule(n, t, seed, sample, &mut out);
        out
    }
}

/// A [`FaultSpec`] compiled by [`FaultSpec::lane_silence`]: writes each
/// sample's per-node silence words straight into lane columns, without
/// building a [`FaultSchedule`].
#[derive(Clone, Debug)]
pub struct LaneSilence {
    n: usize,
    t: usize,
    seed: u64,
    source: SilenceSource,
}

#[derive(Clone, Debug)]
enum SilenceSource {
    /// Per-node masks of a fixed schedule, the same for every sample.
    Fixed(Vec<u64>),
    /// Drawn per sample; `None` when both rates are zero.
    Drawn(Option<Rates>),
}

impl LaneSilence {
    /// Sets lane `l < live` of `words[i]`, for every node `i`, to sample
    /// `first + l`'s silence word of node `i` (bit `r` = silent in round
    /// `r + 1`): exactly [`FaultSchedule::silent_mask64`] of the schedule
    /// [`FaultSpec::fill_schedule`] compiles for that sample — the
    /// omission bits, OR `u64::MAX << (c − 1)` for a crash in round `c`.
    /// Lanes from `live` on are set to zero.
    ///
    /// The 64 samples' fault streams are drawn one word per `(node, round,
    /// crash | omission)` position through a [`StreamBlock`], by the same
    /// draw loop as [`FaultSpec::fill_schedule`], and every draw sets its
    /// bits by a threshold compare instead of a branch. A crash ORs in its
    /// whole tail each time its draw fires: a later crash's tail lies
    /// inside the first one's, so only the first crash shows.
    ///
    /// # Panics
    ///
    /// Panics if `words` has fewer than `n` columns or `live > 64`.
    pub fn fill_word(&self, first: u64, live: usize, words: &mut [[u64; BLOCK_LANES]]) {
        let words = &mut words[..self.n];
        match &self.source {
            SilenceSource::Fixed(masks) => {
                for (column, &mask) in words.iter_mut().zip(masks) {
                    let (live_lanes, dead) = column.split_at_mut(live);
                    live_lanes.fill(mask);
                    dead.fill(0);
                }
            }
            SilenceSource::Drawn(None) => words.fill([0; BLOCK_LANES]),
            SilenceSource::Drawn(Some(rates)) => {
                let mut rng = fault_streams(self.seed, first, live);
                words.fill([0; BLOCK_LANES]);
                draw_cells(
                    self.n,
                    self.t,
                    &mut [[0; BLOCK_LANES]; 8],
                    |draws| rng.fill(draws),
                    |node, round, crash, omit| {
                        let (tail, bit) = (u64::MAX << round, 1u64 << round);
                        for ((word, &c), &o) in words[node].iter_mut().zip(crash).zip(omit) {
                            *word |= rates.crash.mask(c) & tail | rates.omission.mask(o) & bit;
                        }
                    },
                );
                for column in words {
                    column[live..].fill(0);
                }
            }
        }
    }
}

/// A concrete per-sample fault assignment: for each node, the set of
/// rounds (1-based) in which it is silent, plus its crash round if any.
/// Rounds beyond the compiled horizon are silent only for crashed nodes
/// (crashes are permanent; omissions are per-round events inside the
/// horizon).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    n: usize,
    /// Rounds covered by the silence bitset.
    horizon: usize,
    /// Words per node in `silent`.
    stride: usize,
    /// Packed silence bits: node `i`, round `r` (1-based) lives at word
    /// `i * stride + (r - 1) / 64`, bit `(r - 1) % 64`. Crash tails are
    /// baked in up to the horizon.
    silent: Vec<u64>,
    /// 1-based crash round per node (`None` = never crashes).
    crash_round: Vec<Option<u32>>,
}

impl FaultSchedule {
    /// A fault-free schedule for `n` nodes over `horizon` rounds.
    pub fn empty(n: usize, horizon: usize) -> FaultSchedule {
        let stride = horizon.div_ceil(64).max(1);
        FaultSchedule {
            n,
            horizon,
            stride,
            silent: vec![0; n * stride],
            crash_round: vec![None; n],
        }
    }

    /// Clears all faults and resizes for `n` nodes over `horizon` rounds,
    /// reusing the allocation where possible.
    pub fn reset(&mut self, n: usize, horizon: usize) {
        self.n = n;
        self.horizon = horizon;
        self.stride = horizon.div_ceil(64).max(1);
        self.silent.clear();
        self.silent.resize(n * self.stride, 0);
        self.crash_round.clear();
        self.crash_round.resize(n, None);
    }

    /// The number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The number of rounds the silence bitset covers.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Whether the schedule contains no faults at all.
    pub fn is_fault_free(&self) -> bool {
        self.silent.iter().all(|&w| w == 0) && self.crash_round.iter().all(Option::is_none)
    }

    /// Marks `node` as omitting (silent) in 1-based `round`.
    ///
    /// # Panics
    ///
    /// Panics if `round` is zero or beyond the horizon, or `node ≥ n`.
    pub fn set_omission(&mut self, node: usize, round: usize) {
        assert!(node < self.n, "node {node} out of range");
        assert!(
            (1..=self.horizon).contains(&round),
            "round {round} outside 1..={}",
            self.horizon
        );
        self.silent[node * self.stride + (round - 1) / 64] |= 1u64 << ((round - 1) % 64);
    }

    /// Marks `node` as crashed from 1-based `round` on (permanent
    /// silence). Baked into the silence bitset up to the horizon; rounds
    /// beyond it stay silent through [`FaultSchedule::is_silent`].
    ///
    /// # Panics
    ///
    /// Panics if `round` is zero, or `node ≥ n`.
    pub fn set_crash(&mut self, node: usize, round: usize) {
        assert!(node < self.n, "node {node} out of range");
        assert!(round >= 1, "rounds are 1-based");
        let prior = self.crash_round[node];
        assert!(
            prior.is_none_or(|c| c as usize >= round),
            "node {node} already crashed earlier (round {prior:?})"
        );
        self.crash_round[node] = Some(u32::try_from(round).expect("round fits u32"));
        for r in round..=self.horizon {
            self.silent[node * self.stride + (r - 1) / 64] |= 1u64 << ((r - 1) % 64);
        }
    }

    /// The 1-based crash round of `node`, if it ever crashes.
    pub fn crash_round(&self, node: usize) -> Option<usize> {
        self.crash_round[node].map(|r| r as usize)
    }

    /// Whether `node` has crashed by (at or before) 1-based `round`.
    pub fn crashed_by(&self, node: usize, round: usize) -> bool {
        self.crash_round[node].is_some_and(|c| c as usize <= round)
    }

    /// Whether `node` is silent in 1-based `round` (omitting this round,
    /// or crashed at or before it).
    ///
    /// # Panics
    ///
    /// Panics if `round` is zero or `node ≥ n`.
    pub fn is_silent(&self, node: usize, round: usize) -> bool {
        assert!(round >= 1, "rounds are 1-based");
        if round > self.horizon {
            return self.crashed_by(node, round);
        }
        self.silent[node * self.stride + (round - 1) / 64] >> ((round - 1) % 64) & 1 == 1
    }

    /// The first 64 rounds of `node`'s silence as one word (bit `r` =
    /// silent in round `r + 1`) — the lane-kernel layout. Exact whenever
    /// the horizon is at most 64 (always true for Monte-Carlo schedules,
    /// where `t ≤` [`rsbt_random::MAX_BITS`]).
    pub fn silent_mask64(&self, node: usize) -> u64 {
        let mut word = self.silent[node * self.stride];
        // Crash tails past the horizon still belong in the mask.
        if let Some(c) = self.crash_round[node] {
            let from = (c as usize).max(self.horizon + 1);
            if from <= 64 {
                word |= u64::MAX << (from - 1);
            }
        }
        word
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_is_fault_free() {
        let s = FaultSchedule::empty(3, 10);
        assert!(s.is_fault_free());
        for node in 0..3 {
            assert_eq!(s.crash_round(node), None);
            for round in 1..=20 {
                assert!(!s.is_silent(node, round));
            }
        }
    }

    #[test]
    fn omissions_are_per_round_and_crashes_permanent() {
        let mut s = FaultSchedule::empty(2, 100);
        s.set_omission(0, 3);
        s.set_crash(1, 70);
        assert!(s.is_silent(0, 3));
        assert!(!s.is_silent(0, 2) && !s.is_silent(0, 4));
        assert_eq!(s.crash_round(0), None);
        assert!(!s.is_silent(1, 69));
        for round in [70usize, 71, 100, 101, 5000] {
            assert!(s.is_silent(1, round), "round {round}");
        }
        assert!(s.crashed_by(1, 70) && !s.crashed_by(1, 69));
        assert!(!s.is_fault_free());
    }

    #[test]
    fn mask64_matches_is_silent() {
        let mut s = FaultSchedule::empty(2, 20);
        s.set_omission(0, 1);
        s.set_omission(0, 17);
        s.set_crash(1, 19);
        for node in 0..2 {
            let mask = s.silent_mask64(node);
            for round in 1..=20 {
                assert_eq!(
                    mask >> (round - 1) & 1 == 1,
                    s.is_silent(node, round),
                    "node {node} round {round}"
                );
            }
        }
        // The crash tail extends past the horizon inside the mask.
        assert_eq!(s.silent_mask64(1) >> 63 & 1, 1);
    }

    #[test]
    fn zero_rates_compile_to_empty_without_rng() {
        let spec = FaultSpec::none();
        assert!(spec.is_fault_free());
        let s = spec.schedule(4, 8, 42, 7);
        assert_eq!(s, FaultSchedule::empty(4, 8));
    }

    #[test]
    fn fixed_schedules_replay_verbatim() {
        let mut fixed = FaultSchedule::empty(3, 5);
        fixed.set_crash(2, 2);
        let spec = FaultSpec::fixed(fixed.clone());
        assert!(!spec.is_fault_free());
        for sample in [0u64, 1, 99] {
            assert_eq!(spec.schedule(3, 5, 11, sample), fixed);
        }
    }

    #[test]
    fn compilation_is_deterministic_and_seed_sensitive() {
        let spec = FaultSpec::rates(0.1, 0.2);
        let a = spec.schedule(5, 30, 7, 3);
        let b = spec.schedule(5, 30, 7, 3);
        assert_eq!(a, b, "pure function of (seed, sample)");
        let c = spec.schedule(5, 30, 8, 3);
        let d = spec.schedule(5, 30, 7, 4);
        assert!(a != c || a != d, "seed and sample must matter");
    }

    #[test]
    fn raising_rates_only_adds_silence() {
        // The always-draw coupling: under the same (seed, sample), every
        // silence at the lower rates persists at the higher rates.
        let lo = FaultSpec::rates(0.05, 0.05);
        let hi = FaultSpec::rates(0.25, 0.30);
        for sample in 0..50u64 {
            let a = lo.schedule(6, 40, 13, sample);
            let b = hi.schedule(6, 40, 13, sample);
            for node in 0..6 {
                for round in 1..=40 {
                    if a.is_silent(node, round) {
                        assert!(
                            b.is_silent(node, round),
                            "sample {sample} node {node} round {round}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rate_one_crashes_everyone_in_round_one() {
        let spec = FaultSpec::rates(1.0, 0.0);
        let s = spec.schedule(3, 4, 0, 0);
        for node in 0..3 {
            assert_eq!(s.crash_round(node), Some(1));
            assert!(s.is_silent(node, 1));
        }
    }

    /// The threshold test as it was first written: the exact product
    /// compared in 128 bits on every draw.
    fn fires_u128(p: f64, draw: u64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        u128::from(draw) < (p * 18_446_744_073_709_551_616.0) as u128
    }

    const EDGE_RATES: [f64; 6] = [
        0.0,
        1.0,
        1.0 / (1u64 << 60) as f64,
        0.1,
        0.5,
        1.0 - f64::EPSILON / 2.0,
    ];

    #[test]
    fn u64_thresholds_fire_exactly_like_the_exact_product() {
        for p in EDGE_RATES {
            let limit = (p * 18_446_744_073_709_551_616.0) as u128;
            let near = [limit.saturating_sub(1), limit, limit + 1];
            let draws = near.iter().filter_map(|&d| u64::try_from(d).ok()).chain([
                0,
                1,
                u64::MAX >> 1,
                u64::MAX - 1,
                u64::MAX,
            ]);
            let threshold = Threshold::of(p);
            for draw in draws {
                assert_eq!(
                    threshold.fires(draw),
                    fires_u128(p, draw),
                    "p={p} draw={draw}"
                );
            }
        }
    }

    /// Fills one word of `live` samples from `first` on and checks every
    /// lane against the sample's compiled schedule (dead lanes: zero).
    fn assert_word_equals_schedules(
        spec: &FaultSpec,
        n: usize,
        t: usize,
        first: u64,
        live: usize,
        words: &mut [[u64; 64]],
    ) {
        let silence = spec.lane_silence(n, t, 21);
        // Stale bits from an earlier fill must not survive.
        words.fill([!0; 64]);
        silence.fill_word(first, live, words);
        let mut schedule = FaultSchedule::default();
        for l in 0..64 {
            if l < live {
                spec.fill_schedule(n, t, 21, first + l as u64, &mut schedule);
            }
            for (i, column) in words[..n].iter().enumerate() {
                let want = if l < live {
                    schedule.silent_mask64(i)
                } else {
                    0
                };
                assert_eq!(
                    column[l], want,
                    "{spec:?} n={n} t={t} first={first} live={live} lane={l} node={i}"
                );
            }
        }
    }

    #[test]
    fn lane_silence_equals_schedule_masks() {
        // Each edge rate as the crash rate, the omission rate, and both.
        let specs: Vec<FaultSpec> = EDGE_RATES
            .iter()
            .flat_map(|&p| [(p, 0.0), (0.0, p), (p, p)])
            .map(|(crash, omission)| FaultSpec::rates(crash, omission))
            .collect();
        let mut words = vec![[0u64; 64]; 9];
        for spec in &specs {
            for n in 1..=9 {
                for t in [1, 8, 63] {
                    for first in [0u64, 64, 128, 192] {
                        assert_word_equals_schedules(spec, n, t, first, 64, &mut words);
                    }
                    // Partial words, as the last word of a sample range.
                    for live in [1, 2, 33, 63] {
                        assert_word_equals_schedules(spec, n, t, 256, live, &mut words);
                    }
                }
            }
        }
        // A fixed schedule, with a horizon shorter than t: the crash tail
        // runs on past it in both.
        let mut fixed = FaultSchedule::empty(4, 6);
        fixed.set_omission(0, 2);
        fixed.set_omission(0, 6);
        fixed.set_crash(2, 5);
        fixed.set_omission(3, 1);
        let spec = FaultSpec::fixed(fixed.clone());
        for live in [64, 5] {
            assert_word_equals_schedules(&spec, 4, 8, 0, live, &mut words);
            assert_eq!(words[2][0], fixed.silent_mask64(2));
        }
    }

    #[test]
    fn fault_draws_are_decorrelated_from_source_draws() {
        // The salted substream must differ from the unsalted family.
        let mut plain = StreamRng::new(42, 0);
        let mut faulty = fault_stream(42, 0);
        assert_ne!(plain.next_u64(), faulty.next_u64());
    }
}
