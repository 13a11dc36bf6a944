//! Bit-sliced knowledge tracking: 64 independent samples per `u64` word.
//!
//! The Monte-Carlo estimator only ever consumes an execution through its
//! *consistency partition* (`i ∼_t j ⇔ K_i(t) = K_j(t)`), so it never
//! needs the knowledge values themselves — only the pairwise equality
//! relation. [`LaneStepper`] tracks exactly that relation for 64 samples
//! at once, one bit per sample ("lane"), as a packed upper-triangular
//! matrix of `u64` words over *knowledge units*:
//!
//! * **Blackboard** — every node sees the same board, so `K_i(t)` is a
//!   function of node `i`'s *source* and the per-source bit prefixes:
//!   `K_i(t) = K_j(t)` iff the sources of `i` and `j` emitted identical
//!   bit strings through round `t` (nodes of the same source are always
//!   equal). The units are therefore the `k` sources, and one round is a
//!   single in-place refinement per pair:
//!   `eq'[u,v] = eq[u,v] & !(bits[u] ^ bits[v])`.
//! * **Message-passing** — the units are the `n` nodes. Round knowledge
//!   is built from the own source bit plus the neighbors' previous
//!   knowledge *in port order* (the arena keeps ports positional, it
//!   never sorts them), and hash-consing makes id equality structural
//!   equality. Hence `K_i(t) = K_j(t)` iff their source bits agree *and*
//!   every port-aligned neighbor pair was equal at `t − 1`:
//!   `eq'[i,j] = !(b[i] ^ b[j]) & AND_p eq[nbr(i,p), nbr(j,p)]`
//!   (ports `p` with `nbr(i,p) = nbr(j,p)` contribute nothing and are
//!   dropped at construction). This reads the *previous* relation, so the
//!   step double-buffers.
//!
//! Both rules are exact — no abstraction, no over-approximation — so a
//! caller evaluating a partition-based verdict on the packed relation
//! gets bit-for-bit the verdict of 64 scalar executions.
//!
//! **The fresh first step.** A stepper built by a constructor or
//! [`LaneStepper::reset`] is *fresh*: every `eq` word is all ones, so
//! every port term `eq[nbr(i,p), nbr(j,p)]` is all ones and the
//! message-passing rule reduces exactly to the blackboard's in-place
//! `eq[i,j] = !(b[i] ^ b[j])`. [`LaneStepper::step`] takes that loop on
//! its first call instead of walking the `O(n³)` port terms (276 pairs ×
//! 23 terms on a 24-node ring). Any step or
//! [`LaneStepper::load_relation`] ends the fresh state;
//! [`LaneStepper::step_faulted`] always runs its term loop, because the
//! silence terms still apply.
//!
//! # Faulted lanes
//!
//! [`LaneStepper::new_faulted`] tracks the same relation under per-node
//! silence (see [`crate::faults`]), with silence masks supplied as lane
//! words just like source bits. Because silence is per *node*, the units
//! are the `n` nodes in **both** models, and the rules change:
//!
//! * **Blackboard** — node `i`'s round board is the sorted multiset of
//!   the *live* others' previous knowledge. If `i` and `j` had equal
//!   knowledge and the same silence status, their boards differ only by
//!   swapping `K_j ↔ K_i` (equal values) — still equal; any silence
//!   mismatch changes the board size; and unequal previous knowledge can
//!   never re-merge. Hence the exact in-place rule
//!   `eq'[i,j] = eq[i,j] & !(b[i] ^ b[j]) & !(S[i] ^ S[j])`.
//! * **Message-passing** — a silent sender's slot holds the `Hole`
//!   sentinel. A port-aligned pair `(x, y)`, `x ≠ y`, contributes
//!   `!(S[x] ^ S[y]) & (S[x] | eq[x,y])` (both silent → holes match; both
//!   live → previous equality; mixed → a hole never equals knowledge).
//!   Unlike the fault-free rule, the own-previous conjunct `eq[a,b]` must
//!   be **explicit**: fault-free it is implied by multiset cancellation
//!   across the aligned slots, but two silent senders' matching holes
//!   carry no information about their knowledge, which breaks the
//!   cancellation. So
//!   `eq'[a,b] = eq[a,b] & !(b[a] ^ b[b]) & AND_p term(x, y)`.
//!
//! Both faulted rules remain exact, verified lane-by-lane against 64
//! scalar [`Execution::run_with_faults`](crate::Execution::run_with_faults)
//! runs in the tests.

use rsbt_random::Assignment;

use crate::model::Model;
use crate::ports::PortNumbering;

/// The packed index of unit pair `(a, b)`, `a < b`, among `units` units:
/// row-major upper triangle, `a·(2·units − a − 1)/2 + (b − a − 1)`.
///
/// # Panics
///
/// Panics (in debug builds) unless `a < b < units`.
pub fn pair_index(units: usize, a: usize, b: usize) -> usize {
    debug_assert!(a < b && b < units, "need a < b < units");
    a * (2 * units - a - 1) / 2 + (b - a - 1)
}

/// The number of packed unit pairs: `units·(units − 1)/2`.
pub fn pair_count(units: usize) -> usize {
    units * (units - 1) / 2
}

/// The fault-free message-passing term lists: for every node pair
/// `(a, b)` (packed order, see [`pair_index`]), the packed indices `q` of
/// the port-aligned neighbor pairs `(nbr(a, p), nbr(b, p))`, `p ∈ 1..n`,
/// whose previous-round equality the update rule
/// `eq'[a,b] = !(b[a] ^ b[b]) & AND_q eq[q]` consults. Ports with
/// `nbr(a, p) = nbr(b, p)` contribute nothing and are dropped.
///
/// Returns `(terms, offsets)` with `offsets[p]..offsets[p + 1]` indexing
/// `terms` for pair `p`. Shared ground truth between [`LaneStepper`] and
/// the quotient exact engine (`rsbt_core::engine_dp`), which evaluates the
/// same rule on one labeled equality state instead of 64 lanes.
pub fn aligned_terms(ports: &PortNumbering) -> (Vec<u32>, Vec<u32>) {
    let n = ports.n();
    let mut terms = Vec::new();
    let mut offsets = Vec::with_capacity(pair_count(n) + 1);
    offsets.push(0u32);
    for a in 0..n {
        for b in a + 1..n {
            for p in 1..n {
                let (x, y) = (ports.neighbor(a, p), ports.neighbor(b, p));
                if x != y {
                    terms.push(pair_index(n, x.min(y), x.max(y)) as u32);
                }
            }
            offsets.push(terms.len() as u32);
        }
    }
    (terms, offsets)
}

/// The faulted message-passing term lists: like [`aligned_terms`], but
/// each term keeps its sender pair `(x, y)` alongside the packed pair
/// index `q` — the faulted rule needs the senders' silence status
/// (`!(S[x] ^ S[y]) & (S[x] | eq[q])`), not just the previous equality.
///
/// Returns `(terms, offsets)` with entries `[q, x, y]`.
pub fn aligned_fault_terms(ports: &PortNumbering) -> (Vec<[u32; 3]>, Vec<u32>) {
    let n = ports.n();
    let mut terms: Vec<[u32; 3]> = Vec::new();
    let mut offsets = Vec::with_capacity(pair_count(n) + 1);
    offsets.push(0u32);
    for a in 0..n {
        for b in a + 1..n {
            for p in 1..n {
                let (x, y) = (ports.neighbor(a, p), ports.neighbor(b, p));
                // x == y: both receivers hold the same slot value
                // (knowledge or hole) — no constraint.
                if x != y {
                    let q = pair_index(n, x.min(y), x.max(y));
                    terms.push([q as u32, x as u32, y as u32]);
                }
            }
            offsets.push(terms.len() as u32);
        }
    }
    (terms, offsets)
}

/// Pairwise knowledge-equality words for 64 samples at once.
///
/// `eq_words()[pair_index(units, a, b)]` holds one bit per lane: bit `l`
/// is set iff units `a` and `b` have equal knowledge in lane `l`'s sample
/// after the rounds stepped so far. See the module docs for the exact
/// per-model update rules and why they are lossless.
///
/// # Example
///
/// ```
/// use rsbt_random::Assignment;
/// use rsbt_sim::{lanes::LaneStepper, Model};
///
/// // Two private-source nodes: they stay equal exactly while their
/// // source bits agree. Lane 1's bits agree in round 0, lane 0's differ.
/// let alpha = Assignment::private(2);
/// let mut st = LaneStepper::new(&Model::Blackboard, &alpha);
/// st.step(|s| if s == 0 { 0b10 } else { 0b11 });
/// assert_eq!(st.eq_words()[0] & 0b11, 0b10);
/// ```
#[derive(Clone, Debug)]
pub struct LaneStepper {
    units: usize,
    unit_of_node: Vec<usize>,
    /// The source feeding each unit's bits.
    unit_source: Vec<usize>,
    eq: Vec<u64>,
    /// Double buffer for the message-passing step (empty on blackboard).
    next: Vec<u64>,
    /// Flattened per-pair neighbor-pair term lists (message-passing).
    terms: Vec<u32>,
    /// `term_offsets[p]..term_offsets[p + 1]` indexes `terms` (fault-free)
    /// or `fault_terms` (faulted) for pair `p`.
    term_offsets: Vec<u32>,
    /// Scratch: the current round's bit word per unit.
    bits: Vec<u64>,
    /// Whether this stepper was built by [`LaneStepper::new_faulted`].
    faulted: bool,
    /// Faulted message-passing term list: `(pair q, sender x, sender y)`
    /// per port-aligned neighbor pair, indexed by `term_offsets`.
    fault_terms: Vec<[u32; 3]>,
    /// Scratch: the current round's silence word per unit (faulted mode).
    silence: Vec<u64>,
    /// Whether every lane is still in the initial all-equal state (every
    /// `eq` word all ones): set by the constructors and [`Self::reset`],
    /// cleared by every step and by [`Self::load_relation`].
    fresh: bool,
}

impl LaneStepper {
    /// Builds a stepper for `model` under source assignment `alpha` with
    /// all lanes in the initial all-equal state (`K_i(0) = ⊥` for all).
    ///
    /// # Panics
    ///
    /// Panics if `model` is message-passing with a port numbering whose
    /// node count differs from `alpha.n()`.
    pub fn new(model: &Model, alpha: &Assignment) -> Self {
        let n = alpha.n();
        let (units, unit_of_node, unit_source) = match model {
            Model::Blackboard => {
                let k = alpha.k();
                let unit_of_node: Vec<usize> = (0..n).map(|i| alpha.source_of(i)).collect();
                (k, unit_of_node, (0..k).collect())
            }
            Model::MessagePassing(ports) => {
                assert_eq!(
                    ports.n(),
                    n,
                    "port numbering is for {} nodes, assignment for {n}",
                    ports.n()
                );
                let unit_source: Vec<usize> = (0..n).map(|i| alpha.source_of(i)).collect();
                (n, (0..n).collect(), unit_source)
            }
        };
        let pairs = pair_count(units);
        let (terms, term_offsets, next) = match model {
            Model::Blackboard => (Vec::new(), Vec::new(), Vec::new()),
            Model::MessagePassing(ports) => {
                // Port-aligned neighbor pairs whose previous-round
                // equality the rule must consult.
                let (terms, offsets) = aligned_terms(ports);
                (terms, offsets, vec![0u64; pairs])
            }
        };
        LaneStepper {
            units,
            unit_of_node,
            unit_source,
            eq: vec![u64::MAX; pairs],
            next,
            terms,
            term_offsets,
            bits: vec![0u64; units],
            faulted: false,
            fault_terms: Vec::new(),
            silence: Vec::new(),
            fresh: true,
        }
    }

    /// Builds a stepper tracking knowledge equality under per-node
    /// silence (see the module docs for the faulted update rules). The
    /// units are the `n` nodes in both models — silence is per node, so
    /// the blackboard's source-level collapse no longer applies. Advance
    /// with [`LaneStepper::step_faulted`].
    ///
    /// # Panics
    ///
    /// Panics if `model` is message-passing with a port numbering whose
    /// node count differs from `alpha.n()`.
    pub fn new_faulted(model: &Model, alpha: &Assignment) -> Self {
        let n = alpha.n();
        if let Model::MessagePassing(ports) = model {
            assert_eq!(
                ports.n(),
                n,
                "port numbering is for {} nodes, assignment for {n}",
                ports.n()
            );
        }
        let units = n;
        let unit_source: Vec<usize> = (0..n).map(|i| alpha.source_of(i)).collect();
        let pairs = pair_count(units);
        let (fault_terms, term_offsets, next) = match model {
            Model::Blackboard => (Vec::new(), Vec::new(), Vec::new()),
            Model::MessagePassing(ports) => {
                let (terms, offsets) = aligned_fault_terms(ports);
                (terms, offsets, vec![0u64; pairs])
            }
        };
        LaneStepper {
            units,
            unit_of_node: (0..n).collect(),
            unit_source,
            eq: vec![u64::MAX; pairs],
            next,
            terms: Vec::new(),
            term_offsets,
            bits: vec![0u64; units],
            faulted: true,
            fault_terms,
            silence: vec![0u64; units],
            fresh: true,
        }
    }

    /// The number of knowledge units (`k` on the blackboard, `n` under
    /// message passing).
    pub fn units(&self) -> usize {
        self.units
    }

    /// The unit tracking each node's knowledge.
    pub fn unit_of_node(&self) -> &[usize] {
        &self.unit_of_node
    }

    /// The packed pairwise-equality words (see [`pair_index`]).
    pub fn eq_words(&self) -> &[u64] {
        &self.eq
    }

    /// Resets every lane to the initial all-equal state.
    pub fn reset(&mut self) {
        self.eq.fill(u64::MAX);
        self.fresh = true;
    }

    /// Loads the same labeled equality state into **every** lane:
    /// `labels[u]` is unit `u`'s class tag (equal tag ⟺ equal knowledge),
    /// exactly the state representation of the quotient exact engine.
    /// Subsequent steps then evolve 64 copies of that state in lockstep —
    /// the cross-check harness for one-step transitions from arbitrary
    /// mid-execution states (not just the initial all-equal one).
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != units()`.
    pub fn load_relation(&mut self, labels: &[u8]) {
        assert_eq!(
            labels.len(),
            self.units,
            "state is over {} units, stepper over {}",
            labels.len(),
            self.units
        );
        let mut p = 0;
        for a in 0..self.units {
            for b in a + 1..self.units {
                self.eq[p] = if labels[a] == labels[b] { u64::MAX } else { 0 };
                p += 1;
            }
        }
        self.fresh = false;
    }

    /// Advances every lane by one round. `source_bits(s)` must return the
    /// current round's bit of source `s`, one lane per bit position.
    pub fn step<F: Fn(usize) -> u64>(&mut self, source_bits: F) {
        debug_assert!(!self.faulted, "faulted stepper: use step_faulted");
        for u in 0..self.units {
            self.bits[u] = source_bits(self.unit_source[u]);
        }
        if self.next.is_empty() || self.fresh {
            // Blackboard: pure refinement, safe in place. Message passing
            // from the fresh state reduces to the same loop: every
            // `eq[q]` is all ones, so the port terms drop out.
            let mut p = 0;
            for a in 0..self.units {
                for b in a + 1..self.units {
                    self.eq[p] &= !(self.bits[a] ^ self.bits[b]);
                    p += 1;
                }
            }
        } else {
            let mut p = 0;
            for a in 0..self.units {
                for b in a + 1..self.units {
                    let mut w = !(self.bits[a] ^ self.bits[b]);
                    let lo = self.term_offsets[p] as usize;
                    let hi = self.term_offsets[p + 1] as usize;
                    for &q in &self.terms[lo..hi] {
                        if w == 0 {
                            break;
                        }
                        w &= self.eq[q as usize];
                    }
                    self.next[p] = w;
                    p += 1;
                }
            }
            std::mem::swap(&mut self.eq, &mut self.next);
        }
        self.fresh = false;
    }

    /// Advances every lane of a faulted stepper by one round. `silent(i)`
    /// must return node `i`'s silence word for the round (bit `l` set iff
    /// node `i` is silent in lane `l`'s sample). With all-zero silence
    /// words this computes exactly the fault-free relation (over node
    /// units).
    pub fn step_faulted<F, S>(&mut self, source_bits: F, silent: S)
    where
        F: Fn(usize) -> u64,
        S: Fn(usize) -> u64,
    {
        debug_assert!(self.faulted, "fault-free stepper: use step");
        for u in 0..self.units {
            self.bits[u] = source_bits(self.unit_source[u]);
            self.silence[u] = silent(u);
        }
        if self.next.is_empty() {
            // Blackboard: pure refinement, safe in place.
            let mut p = 0;
            for a in 0..self.units {
                for b in a + 1..self.units {
                    self.eq[p] &=
                        !(self.bits[a] ^ self.bits[b]) & !(self.silence[a] ^ self.silence[b]);
                    p += 1;
                }
            }
        } else {
            let mut p = 0;
            for a in 0..self.units {
                for b in a + 1..self.units {
                    // The own-previous conjunct is explicit here — see the
                    // module docs on why faults break the fault-free
                    // multiset cancellation.
                    let mut w = !(self.bits[a] ^ self.bits[b]) & self.eq[p];
                    let lo = self.term_offsets[p] as usize;
                    let hi = self.term_offsets[p + 1] as usize;
                    for &[q, x, y] in &self.fault_terms[lo..hi] {
                        if w == 0 {
                            break;
                        }
                        let (sx, sy) = (self.silence[x as usize], self.silence[y as usize]);
                        w &= !(sx ^ sy) & (sx | self.eq[q as usize]);
                    }
                    self.next[p] = w;
                    p += 1;
                }
            }
            std::mem::swap(&mut self.eq, &mut self.next);
        }
        self.fresh = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsbt_random::{BitString, Realization};

    use crate::execution::Execution;
    use crate::knowledge::KnowledgeArena;
    use crate::ports::PortNumbering;

    /// Deterministic lane words without any RNG dependency.
    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Cross-checks `LaneStepper` against 64 scalar `Execution` runs.
    #[allow(clippy::needless_range_loop)] // `r` indexes the *inner* vectors
    fn check_against_scalar(model: &Model, alpha: &Assignment, t: usize, salt: u64) {
        let k = alpha.k();
        let n = alpha.n();
        // Per-source draw words: draws[s] bit l = source s's round bit in
        // lane l... transposed below into per-round words.
        let source_words: Vec<Vec<u64>> = (0..k)
            .map(|s| {
                (0..t)
                    .map(|r| mix(salt ^ (s as u64) << 32 ^ r as u64))
                    .collect()
            })
            .collect();
        let mut stepper = LaneStepper::new(model, alpha);
        let mut arena = KnowledgeArena::new();
        // Scalar truth: one execution per lane.
        let execs: Vec<Execution> = (0..64)
            .map(|l| {
                let strings: Vec<BitString> = (0..n)
                    .map(|i| {
                        let s = alpha.source_of(i);
                        BitString::from_bits((0..t).map(|r| source_words[s][r] >> l & 1 == 1))
                    })
                    .collect();
                let rho = Realization::new(strings).unwrap();
                Execution::run(model, &rho, &mut arena)
            })
            .collect();
        for r in 0..t {
            stepper.step(|s| source_words[s][r]);
            for i in 0..n {
                for j in i + 1..n {
                    let (ui, uj) = (stepper.unit_of_node()[i], stepper.unit_of_node()[j]);
                    for (l, exec) in execs.iter().enumerate() {
                        let scalar = exec.knowledge(r + 1, i) == exec.knowledge(r + 1, j);
                        let sliced = ui == uj
                            || stepper.eq_words()
                                [pair_index(stepper.units(), ui.min(uj), ui.max(uj))]
                                >> l
                                & 1
                                == 1;
                        assert_eq!(
                            scalar, sliced,
                            "round {r}, nodes ({i},{j}), lane {l}, model {model}"
                        );
                    }
                }
            }
        }
    }

    /// Cross-checks faulted lanes against 64 scalar
    /// `Execution::run_with_faults` runs — the faulted twin of
    /// `check_against_scalar`. Each lane gets its own compiled
    /// `FaultSchedule`; silence words are the per-round transposition of
    /// the 64 schedules.
    #[allow(clippy::needless_range_loop)]
    fn check_faulted_against_scalar(
        model: &Model,
        alpha: &Assignment,
        t: usize,
        salt: u64,
        spec: &crate::faults::FaultSpec,
    ) {
        let k = alpha.k();
        let n = alpha.n();
        let source_words: Vec<Vec<u64>> = (0..k)
            .map(|s| {
                (0..t)
                    .map(|r| mix(salt ^ (s as u64) << 32 ^ r as u64))
                    .collect()
            })
            .collect();
        let schedules: Vec<crate::faults::FaultSchedule> = (0..64)
            .map(|l| spec.schedule(n, t, salt, l as u64))
            .collect();
        // silence_words[r][i] bit l = node i silent in round r+1, lane l.
        let silence_words: Vec<Vec<u64>> = (1..=t)
            .map(|round| {
                (0..n)
                    .map(|i| {
                        (0..64).fold(0u64, |w, l| {
                            w | u64::from(schedules[l].is_silent(i, round)) << l
                        })
                    })
                    .collect()
            })
            .collect();
        let mut stepper = LaneStepper::new_faulted(model, alpha);
        assert_eq!(stepper.units(), n, "faulted units are nodes");
        let mut arena = KnowledgeArena::new();
        let execs: Vec<Execution> = (0..64)
            .map(|l| {
                let strings: Vec<BitString> = (0..n)
                    .map(|i| {
                        let s = alpha.source_of(i);
                        BitString::from_bits((0..t).map(|r| source_words[s][r] >> l & 1 == 1))
                    })
                    .collect();
                let rho = Realization::new(strings).unwrap();
                Execution::run_with_faults(model, &rho, &schedules[l], &mut arena)
            })
            .collect();
        for r in 0..t {
            stepper.step_faulted(|s| source_words[s][r], |i| silence_words[r][i]);
            for i in 0..n {
                for j in i + 1..n {
                    for (l, exec) in execs.iter().enumerate() {
                        let scalar = exec.knowledge(r + 1, i) == exec.knowledge(r + 1, j);
                        let sliced = stepper.eq_words()[pair_index(n, i, j)] >> l & 1 == 1;
                        assert_eq!(
                            scalar, sliced,
                            "round {r}, nodes ({i},{j}), lane {l}, model {model}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn blackboard_matches_scalar_executions() {
        check_against_scalar(
            &Model::Blackboard,
            &Assignment::from_group_sizes(&[1, 2]).unwrap(),
            5,
            7,
        );
        check_against_scalar(&Model::Blackboard, &Assignment::private(3), 4, 11);
        check_against_scalar(&Model::Blackboard, &Assignment::shared(4), 3, 13);
    }

    #[test]
    fn message_passing_matches_scalar_executions() {
        check_against_scalar(
            &Model::message_passing_cyclic(4),
            &Assignment::private(4),
            4,
            17,
        );
        check_against_scalar(
            &Model::message_passing_cyclic(3),
            &Assignment::from_group_sizes(&[1, 2]).unwrap(),
            5,
            19,
        );
        check_against_scalar(
            &Model::MessagePassing(PortNumbering::adversarial(4, 2)),
            &Assignment::private(4),
            4,
            23,
        );
    }

    #[test]
    fn faulted_blackboard_matches_scalar_executions() {
        let spec = crate::faults::FaultSpec::rates(0.08, 0.2);
        check_faulted_against_scalar(
            &Model::Blackboard,
            &Assignment::from_group_sizes(&[1, 2]).unwrap(),
            5,
            29,
            &spec,
        );
        check_faulted_against_scalar(&Model::Blackboard, &Assignment::private(4), 4, 31, &spec);
        // Shared source: fault-free all nodes stay equal forever, so any
        // split the lanes report comes purely from silence observability.
        check_faulted_against_scalar(&Model::Blackboard, &Assignment::shared(4), 4, 37, &spec);
    }

    #[test]
    fn faulted_message_passing_matches_scalar_executions() {
        let spec = crate::faults::FaultSpec::rates(0.08, 0.2);
        check_faulted_against_scalar(
            &Model::message_passing_cyclic(4),
            &Assignment::private(4),
            4,
            41,
            &spec,
        );
        check_faulted_against_scalar(
            &Model::message_passing_cyclic(3),
            &Assignment::from_group_sizes(&[1, 2]).unwrap(),
            5,
            43,
            &spec,
        );
        check_faulted_against_scalar(
            &Model::MessagePassing(PortNumbering::adversarial(4, 2)),
            &Assignment::private(4),
            4,
            47,
            &spec,
        );
        // High rates stress the both-silent hole==hole case that forces
        // the explicit own-previous conjunct.
        check_faulted_against_scalar(
            &Model::message_passing_cyclic(3),
            &Assignment::private(3),
            5,
            53,
            &crate::faults::FaultSpec::rates(0.3, 0.5),
        );
    }

    #[test]
    fn faulted_stepper_with_zero_silence_matches_fault_free() {
        // Rate 0: the faulted relation over node units must agree with the
        // fault-free relation lifted through unit_of_node.
        let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
        for model in [Model::Blackboard, Model::message_passing_cyclic(3)] {
            let mut plain = LaneStepper::new(&model, &alpha);
            let mut faulted = LaneStepper::new_faulted(&model, &alpha);
            for r in 0..5u64 {
                let words: Vec<u64> = (0..alpha.k())
                    .map(|s| mix(59 ^ (s as u64) << 32 ^ r))
                    .collect();
                plain.step(|s| words[s]);
                faulted.step_faulted(|s| words[s], |_| 0);
                let n = alpha.n();
                for i in 0..n {
                    for j in i + 1..n {
                        let (ui, uj) = (plain.unit_of_node()[i], plain.unit_of_node()[j]);
                        let p = if ui == uj {
                            u64::MAX
                        } else {
                            plain.eq_words()[pair_index(plain.units(), ui.min(uj), ui.max(uj))]
                        };
                        let f = faulted.eq_words()[pair_index(n, i, j)];
                        assert_eq!(p, f, "round {r}, nodes ({i},{j}), model {model}");
                    }
                }
            }
        }
    }

    /// The message-passing rule by its port-term loop, on one packed
    /// relation: `eq'[a,b] = !(bits[a] ^ bits[b]) & AND_q eq[q]`.
    fn term_loop_step(ports: &PortNumbering, eq: &[u64], bits: &[u64]) -> Vec<u64> {
        let (terms, offsets) = aligned_terms(ports);
        let n = ports.n();
        let mut out = Vec::with_capacity(eq.len());
        for a in 0..n {
            for b in a + 1..n {
                let p = pair_index(n, a, b);
                let lo = offsets[p] as usize;
                let hi = offsets[p + 1] as usize;
                let w = terms[lo..hi]
                    .iter()
                    .fold(!(bits[a] ^ bits[b]), |w, &q| w & eq[q as usize]);
                out.push(w);
            }
        }
        out
    }

    #[test]
    fn loaded_relations_step_by_the_term_loop_rule() {
        // `load_relation` leaves the fresh state: the next step must
        // consult every port term, not the fresh-state shortcut.
        for ports in [PortNumbering::cyclic(4), PortNumbering::adversarial(4, 2)] {
            let model = Model::MessagePassing(ports.clone());
            let mut st = LaneStepper::new(&model, &Assignment::private(4));
            for (case, labels) in [[0u8, 0, 1, 1], [0, 1, 0, 1], [0, 1, 2, 3], [0, 0, 0, 0]]
                .iter()
                .enumerate()
            {
                let bits: Vec<u64> = (0..4u64).map(|s| mix(61 ^ s << 8 ^ case as u64)).collect();
                st.load_relation(labels);
                let loaded = st.eq_words().to_vec();
                st.step(|s| bits[s]);
                assert_eq!(
                    st.eq_words(),
                    &term_loop_step(&ports, &loaded, &bits)[..],
                    "labels {labels:?}, model {model}"
                );
            }
            // And from the fresh state the shortcut agrees with the rule.
            let bits: Vec<u64> = (0..4u64).map(|s| mix(67 ^ s)).collect();
            st.reset();
            let fresh = st.eq_words().to_vec();
            st.step(|s| bits[s]);
            assert_eq!(st.eq_words(), &term_loop_step(&ports, &fresh, &bits)[..]);
        }
    }

    #[test]
    fn pair_index_is_the_packed_upper_triangle() {
        for m in 1..=8 {
            let mut expect = 0;
            for a in 0..m {
                for b in a + 1..m {
                    assert_eq!(pair_index(m, a, b), expect);
                    expect += 1;
                }
            }
            assert_eq!(pair_count(m), expect);
        }
    }

    #[test]
    fn reset_restores_all_equal() {
        let alpha = Assignment::private(2);
        let mut st = LaneStepper::new(&Model::Blackboard, &alpha);
        st.step(|s| if s == 0 { 0 } else { u64::MAX });
        assert_eq!(st.eq_words()[0], 0);
        st.reset();
        assert_eq!(st.eq_words()[0], u64::MAX);
    }

    #[test]
    fn shared_source_needs_no_pairs() {
        let alpha = Assignment::shared(5);
        let st = LaneStepper::new(&Model::Blackboard, &alpha);
        assert_eq!(st.units(), 1);
        assert!(st.eq_words().is_empty());
    }

    #[test]
    #[should_panic(expected = "port numbering is for")]
    fn node_count_mismatch_panics() {
        let _ = LaneStepper::new(&Model::message_passing_cyclic(3), &Assignment::private(4));
    }
}
