//! Bit-identity of the choreographies against the hand-rolled nodes they
//! replaced.
//!
//! Each protocol was first written as a hand-rolled `Protocol` node and
//! then ported to a choreography; the two ran side by side until the
//! nodes were deleted. Each test below replays the RNG streams that the
//! side-by-side check used and folds every [`RunOutcome`] — outputs, round
//! count, completion flag and message counters — into an FNV-1a digest of
//! its `Debug` rendering. The expected digests were taken from the
//! hand-rolled nodes on the same streams, so a match means the
//! choreography still behaves bit for bit as they did. The streams are
//! pinned two ways:
//!
//! * exhaustively, over every α-consistent realization with `n ≤ 4`,
//!   `t ≤ 3` (the realization's bits replayed round-major, source-minor —
//!   exactly the runner's draw order — then a deterministic continuation
//!   keyed by the realization index);
//! * statistically, over seeded `StdRng` runs long enough for the
//!   protocols to decide.
//!
//! Along the way the exhaustive tests check the safety properties every
//! finished run must have, and that some runs do finish.

use std::fmt::{self, Debug, Write};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rsbt_protocols::choreo::{
    check_consensus, consensus_choreo, run_with, BleChoreo, Choreography, DeputyChoreo,
    EuclidChoreo, KLeaderChoreo, MatchStatus, MatchingChoreo, NodeOutput, WsbChoreo,
};
use rsbt_protocols::leader_count;
use rsbt_random::Assignment;
use rsbt_sim::runner::RunOutcome;
use rsbt_sim::{Model, PortNumbering};

/// Replays the bits of one enumerated realization in the runner's draw
/// order (round-major, source-minor), then continues with a deterministic
/// pseudorandom stream keyed by the realization index so runs terminate.
struct TapeRng {
    bits: Vec<bool>,
    pos: usize,
    cont: StdRng,
}

impl TapeRng {
    /// The tape of the α-consistent realization at tree index `index`
    /// (bit `(t − r)·k + s` of `index` = bit of source `s` in round `r`).
    fn from_tree_index(k: usize, t: usize, index: u64) -> Self {
        let bits = (1..=t)
            .flat_map(|r| (0..k).map(move |s| index >> ((t - r) * k + s) & 1 == 1))
            .collect();
        TapeRng {
            bits,
            pos: 0,
            cont: StdRng::seed_from_u64(index.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        }
    }
}

impl RngCore for TapeRng {
    fn next_u64(&mut self) -> u64 {
        match self.bits.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                u64::from(b)
            }
            None => self.cont.next_u64(),
        }
    }
}

/// Every `(n, α, t, tree index)` with `n` in `ns`, `t ≤ t_max`, in the
/// order the digests were taken.
fn realizations(
    ns: std::ops::RangeInclusive<usize>,
    t_max: usize,
) -> impl Iterator<Item = (usize, Assignment, usize, u64)> {
    ns.flat_map(move |n| {
        Assignment::iter_profiles(n).flat_map(move |alpha| {
            let k = alpha.k();
            (1..=t_max).flat_map(move |t| {
                let alpha = alpha.clone();
                (0..1u64 << (k * t)).map(move |index| (n, alpha.clone(), t, index))
            })
        })
    })
}

/// The port numberings the Euclid sweep runs under for `n` nodes.
fn euclid_numberings(n: usize) -> Vec<PortNumbering> {
    let mut numberings = vec![PortNumbering::cyclic(n)];
    if n > 1 {
        let mut prng = StdRng::seed_from_u64(n as u64);
        numberings.push(PortNumbering::random(n, &mut prng));
    }
    if n == 4 {
        numberings.push(PortNumbering::adversarial(4, 2));
    }
    numberings
}

/// FNV-1a over the `Debug` rendering of run outcomes.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn add<O: Debug>(&mut self, out: &RunOutcome<O>) {
        write!(
            self,
            "{:?}|{}|{}|{:?};",
            out.outputs, out.rounds, out.completed, out.stats
        )
        .expect("hashing never fails");
    }

    fn assert_is(&self, expected: u64, what: &str) {
        assert_eq!(
            self.0, expected,
            "{what}: outcomes differ from the hand-rolled nodes' ({:#018x} vs {expected:#018x})",
            self.0
        );
    }
}

impl Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// Runs `choreo` on the tape of one realization.
fn run_tape<C: Choreography>(
    choreo: &C,
    model: &Model,
    alpha: &Assignment,
    max_rounds: usize,
    (t, index): (usize, u64),
) -> RunOutcome<NodeOutput<C>> {
    let mut tape = TapeRng::from_tree_index(alpha.k(), t, index);
    run_with(choreo, model, alpha, max_rounds, &mut tape).expect("choreography projects")
}

/// Checks Lemma 4.8's shape: all of `A` and exactly `|A|` of `B` end
/// matched, and bystanders finish as bystanders.
fn assert_matching_shape(outputs: &[Option<MatchStatus>], a: usize, b: usize, what: &str) {
    let count =
        |range: std::ops::Range<usize>, s| outputs[range].iter().filter(|o| **o == Some(s)).count();
    assert_eq!(count(0..a, MatchStatus::Matched), a, "{what}: A matched");
    assert_eq!(
        count(a..a + b, MatchStatus::Matched),
        a,
        "{what}: B matched"
    );
    assert_eq!(count(a..a + b, MatchStatus::Unmatched), b - a, "{what}");
    assert!(
        outputs[a + b..]
            .iter()
            .all(|o| *o == Some(MatchStatus::Bystander)),
        "{what}: bystanders"
    );
}

#[test]
fn board_elections_match_legacy_over_all_realizations() {
    let bb = Model::Blackboard;
    let mut digest = Digest::new();
    for (_, alpha, t, index) in realizations(1..=4, 3) {
        digest.add(&run_tape(&BleChoreo, &bb, &alpha, 64, (t, index)));
        digest.add(&run_tape(&WsbChoreo, &bb, &alpha, 64, (t, index)));
        digest.add(&run_tape(
            &KLeaderChoreo { k: 2 },
            &bb,
            &alpha,
            64,
            (t, index),
        ));
        digest.add(&run_tape(&DeputyChoreo, &bb, &alpha, 64, (t, index)));
    }
    digest.assert_is(0x40ad_3df6_1a4b_db34, "board elections");
}

#[test]
fn euclid_matches_legacy_over_all_realizations_and_port_numberings() {
    let mut digest = Digest::new();
    let mut completed = 0u32;
    for n in 1..=4usize {
        for alpha in Assignment::iter_profiles(n) {
            let k = alpha.k();
            for ports in euclid_numberings(n) {
                let model = Model::MessagePassing(ports);
                for t in 1..=3usize {
                    for index in 0..1u64 << (k * t) {
                        let out = run_tape(&EuclidChoreo { k }, &model, &alpha, 256, (t, index));
                        let what = format!("n={n} {:?} t={t} index={index}", alpha.sources());
                        let leaders = leader_count(&out.outputs);
                        assert!(leaders <= 1, "{what}: {leaders} leaders");
                        assert!(!out.completed || leaders == 1, "{what}");
                        completed += u32::from(out.completed);
                        digest.add(&out);
                    }
                }
            }
        }
    }
    assert!(completed > 0);
    digest.assert_is(0x855c_e172_98a5_b779, "euclid");
}

#[test]
fn matching_matches_legacy_over_all_realizations() {
    let mut digest = Digest::new();
    let mut completed = 0u32;
    for (a, b, n) in [(1, 1, 2), (1, 2, 3), (1, 1, 3), (2, 2, 4), (1, 2, 4)] {
        for alpha in Assignment::iter_profiles(n) {
            let k = alpha.k();
            let mut prng = StdRng::seed_from_u64((n + a) as u64);
            for ports in [
                PortNumbering::cyclic(n),
                PortNumbering::random(n, &mut prng),
            ] {
                let model = Model::MessagePassing(ports);
                for t in 1..=3usize {
                    for index in 0..1u64 << (k * t) {
                        let choreo = MatchingChoreo { a, b };
                        let out = run_tape(&choreo, &model, &alpha, 128, (t, index));
                        if out.completed {
                            completed += 1;
                            let what =
                                format!("a={a} b={b} {:?} t={t} index={index}", alpha.sources());
                            assert_matching_shape(&out.outputs, a, b, &what);
                        }
                        digest.add(&out);
                    }
                }
            }
        }
    }
    assert!(completed > 0);
    digest.assert_is(0x9b10_e20a_9220_2101, "matching");
}

#[test]
fn consensus_reduction_matches_legacy_on_blackboard() {
    let mut digest = Digest::new();
    let mut completed = 0u32;
    for (n, alpha, t, index) in realizations(1..=4, 3) {
        let inputs = [7u64, 3, 9, 3][..n].to_vec();
        let choreo = consensus_choreo(BleChoreo, inputs.clone());
        let out = run_tape(&choreo, &Model::Blackboard, &alpha, 96, (t, index));
        if out.completed {
            completed += 1;
            let what = format!("n={n} {:?} t={t} index={index}", alpha.sources());
            check_consensus(&inputs, &out.outputs).expect(&what);
        }
        digest.add(&out);
    }
    assert!(completed > 0);
    digest.assert_is(0xe266_9b39_3b2d_4ca4, "consensus on the blackboard");
}

#[test]
fn consensus_reduction_matches_legacy_under_message_passing() {
    let mut digest = Digest::new();
    let mut completed = 0u32;
    for (n, alpha, t, index) in realizations(2..=4, 2) {
        let inputs = [5u64, 5, 1, 8][..n].to_vec();
        let model = Model::MessagePassing(PortNumbering::cyclic(n));
        let choreo = consensus_choreo(EuclidChoreo { k: alpha.k() }, inputs.clone());
        let out = run_tape(&choreo, &model, &alpha, 256, (t, index));
        if out.completed {
            completed += 1;
            let what = format!("n={n} {:?} t={t} index={index}", alpha.sources());
            check_consensus(&inputs, &out.outputs).expect(&what);
        }
        digest.add(&out);
    }
    assert!(completed > 0);
    digest.assert_is(0x4111_d342_4e12_7377, "consensus under message passing");
}

#[test]
fn seeded_long_runs_agree_and_decide() {
    // Statistical leg: long seeded runs where the protocols actually
    // decide, so bit-identity is exercised through decision rounds too.
    let mut digest = Digest::new();
    for seed in 0..8u64 {
        let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let out = run_with(&BleChoreo, &Model::Blackboard, &alpha, 128, &mut rng).unwrap();
        assert!(out.completed, "seed {seed}: ble should decide");
        digest.add(&out);

        let alpha = Assignment::from_group_sizes(&[2, 3]).unwrap();
        let mut prng = StdRng::seed_from_u64(seed ^ 0xabcd);
        let model = Model::MessagePassing(PortNumbering::random(5, &mut prng));
        let mut rng = StdRng::seed_from_u64(seed);
        let out = run_with(&EuclidChoreo { k: 2 }, &model, &alpha, 6000, &mut rng).unwrap();
        assert!(out.completed, "seed {seed}: euclid should decide");
        digest.add(&out);
    }
    digest.assert_is(0x7863_af80_8e6f_f2a4, "seeded long runs");
}
