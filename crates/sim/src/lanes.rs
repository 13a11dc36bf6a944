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
//! **Shared port terms.** Walked pair by pair, the message-passing rule
//! reads `O(n³)` words per step: 276 pairs × 22.5 port terms on a 24-node
//! ring. But the pair's own previous equality `eq[i,j]` is implied by its
//! port terms: `i`'s neighbors over all ports are every node but `i`, so
//! if every aligned pair is equal, the classes of "all nodes but `i`" and
//! of "all nodes but `j`" form the same multiset, which forces `i ∼ j`.
//! So adding the pair's own term changes nothing, and pairs whose term
//! set plus themselves coincide share one AND (`aligned_terms`). On a ring
//! those sets are the rotation orbits of node pairs: 12 groups holding
//! 276 terms in all at `n = 24`, so a step reads each pair once.
//! Numberings without that symmetry mostly keep one group per pair.
//!
//! **Two clients.** The bit-sliced Monte-Carlo sampler steps 64 samples
//! per word. The labeled exact DP (`rsbt_core::engine_dp`) steps 64 round
//! digits per word instead: it loads one state into every lane with
//! [`LaneStepper::load_relation`], feeds lane `l` the digit `base + l` as
//! source bits, steps once, and reads each lane's child state back with
//! [`LaneStepper::lane_labels`]. So both run the one implementation of
//! the equality-step rules below.
//!
//! **The fresh first step.** A stepper built by a constructor or
//! [`LaneStepper::reset`] is *fresh*: every `eq` word is all ones, so
//! every port term `eq[nbr(i,p), nbr(j,p)]` is all ones and the
//! message-passing rule reduces exactly to the blackboard's in-place
//! `eq[i,j] = !(b[i] ^ b[j])`. [`LaneStepper::step`] takes that loop on
//! its first call instead of reading the port terms. Any step or
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

/// The fault-free message-passing step, grouped: node pairs whose update
/// reads the same previous-round equality words share one AND over them.
#[derive(Clone, Debug, Default)]
struct TermGroups {
    /// Each group's key: distinct packed pair indices.
    terms: Vec<u32>,
    /// Each group's member pairs as `[p, a, b]`: packed index `p` of pair
    /// `(a, b)`, in packed order within a group.
    members: Vec<[u32; 3]>,
    /// Per group, where its runs of `members` and `terms` end; each run
    /// starts where the previous group's ends.
    ends: Vec<(u32, u32)>,
}

impl TermGroups {
    /// Each group's members and terms, in group order.
    fn iter(&self) -> impl Iterator<Item = (&[[u32; 3]], &[u32])> {
        let (members, terms) = (&self.members[..], &self.terms[..]);
        let mut start = (0, 0);
        self.ends.iter().map(move |&(m, t)| {
            let (m0, t0) = std::mem::replace(&mut start, (m as usize, t as usize));
            (&members[m0..m as usize], &terms[t0..t as usize])
        })
    }
}

/// The fault-free message-passing step grouped by shared terms. Pair
/// `(a, b)`'s rule is `eq'[a,b] = !(b[a] ^ b[b]) & AND_q eq[q]` over the
/// packed indices `q` of its port-aligned neighbor pairs
/// `(nbr(a, p), nbr(b, p))`, `p ∈ 1..n`; ports with `nbr(a, p) = nbr(b, p)`
/// contribute nothing and are dropped.
///
/// **The pair's own term is implied.** On any equivalence, if every
/// aligned pair is equal, then `eq[a,b]` holds too: node `a`'s neighbors
/// over all ports are every node but `a`, so the aligned classes are the
/// classes of the multiset "all nodes but `a`", and equally of "all nodes
/// but `b`"; equal multisets minus `a` resp. `b` force `a ∼ b`. Every
/// relation the stepper holds is an equivalence in every lane, so
/// `AND_q eq[q] = eq[a,b] & AND_q eq[q]`. Each pair's *key* is therefore
/// the set of its terms plus itself, and pairs with equal keys share one
/// AND: a member's update is its own `!(b[a] ^ b[b])` AND the group's.
///
/// Groups are built in `O(n)` per pair, without a per-pair allocation:
/// each pair's key is written at the tail of the flat term buffer (its
/// port terms in port order, then the pair itself, each once), then
/// compared with the key of the group holding its least entry, and
/// dropped if they match. That one comparison finds the group whenever
/// the key's least entry is a member of it, as on a ring, where a key is
/// a rotation orbit of pairs; it never merges pairs whose keys differ. A
/// pair in a group of its own thus runs the plain per-pair rule, with its
/// own implied term read last.
fn aligned_terms(ports: &PortNumbering) -> TermGroups {
    let n = ports.n();
    let pairs = pair_count(n);
    // At most n − 1 port terms and the pair itself per pair; rings use
    // a small part of it.
    let mut terms: Vec<u32> = Vec::with_capacity(pairs * n);
    // Group g's key is terms[term_starts[g]..term_starts[g + 1]].
    let mut term_starts = Vec::with_capacity(pairs + 1);
    term_starts.push(0u32);
    let mut group_of = vec![0u32; pairs];
    // seen[q] == me: pair q is in pair me's key.
    let mut seen = vec![u32::MAX; pairs];
    for a in 0..n {
        for b in a + 1..n {
            let me = pair_index(n, a, b) as u32;
            let start = terms.len();
            let port_terms = ports
                .neighbors(a)
                .iter()
                .zip(ports.neighbors(b))
                .filter(|(x, y)| x != y)
                .map(|(&x, &y)| pair_index(n, x.min(y), x.max(y)) as u32);
            let mut least = me;
            for q in port_terms.chain([me]) {
                if seen[q as usize] != me {
                    seen[q as usize] = me;
                    terms.push(q);
                    least = least.min(q);
                }
            }
            let g = group_of[least as usize] as usize;
            // Neither key repeats an entry, so equal lengths and one
            // containing the other make them equal.
            let shared = least < me && {
                let key = &terms[term_starts[g] as usize..term_starts[g + 1] as usize];
                key.len() == terms.len() - start && key.iter().all(|&q| seen[q as usize] == me)
            };
            if shared {
                terms.truncate(start);
                group_of[me as usize] = g as u32;
            } else {
                group_of[me as usize] = (term_starts.len() - 1) as u32;
                term_starts.push(terms.len() as u32);
            }
        }
    }
    // Bucket the members by group, packed order within each: `fill[g]`
    // starts at the group's first slot and ends past its last.
    let mut fill = vec![0u32; term_starts.len() - 1];
    for &g in &group_of {
        fill[g as usize] += 1;
    }
    let mut end = 0;
    for slot in &mut fill {
        end += std::mem::replace(slot, end);
    }
    let mut members = vec![[0u32; 3]; pairs];
    for a in 0..n {
        for b in a + 1..n {
            let me = pair_index(n, a, b);
            let slot = &mut fill[group_of[me] as usize];
            members[*slot as usize] = [me as u32, a as u32, b as u32];
            *slot += 1;
        }
    }
    let ends = fill
        .into_iter()
        .zip(&term_starts[1..])
        .map(|(m, &t)| (m, t))
        .collect();
    TermGroups {
        terms,
        members,
        ends,
    }
}

/// The faulted message-passing term lists, one per pair: the port terms
/// of [`aligned_terms`], ungrouped (under silence the pair's own term is
/// not implied), each keeping its sender pair `(x, y)` alongside the
/// packed pair index `q` — the faulted rule needs the senders' silence
/// status (`!(S[x] ^ S[y]) & (S[x] | eq[q])`), not just the previous
/// equality.
///
/// Returns `(terms, offsets)` with entries `[q, x, y]`.
fn aligned_fault_terms(ports: &PortNumbering) -> (Vec<[u32; 3]>, Vec<u32>) {
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

/// How a [`LaneStepper`]'s knowledge units map onto nodes and sources
/// (see [`LaneStepper::unit_layout`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitLayout {
    /// The number of units.
    pub units: usize,
    /// The unit tracking each node's knowledge.
    pub unit_of_node: Vec<usize>,
    /// The source feeding each unit's bits.
    pub unit_source: Vec<usize>,
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
    /// The fault-free message-passing step's shared-term groups (empty
    /// on the blackboard and when faulted).
    groups: TermGroups,
    /// `term_offsets[p]..term_offsets[p + 1]` indexes `fault_terms` for
    /// pair `p` (faulted message passing).
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
        let layout = Self::unit_layout(model, alpha, false);
        let (units, pairs) = (layout.units, pair_count(layout.units));
        let (groups, next) = match model {
            Model::Blackboard => (TermGroups::default(), Vec::new()),
            Model::MessagePassing(ports) => (aligned_terms(ports), vec![0u64; pairs]),
        };
        LaneStepper {
            units,
            unit_of_node: layout.unit_of_node,
            unit_source: layout.unit_source,
            eq: vec![u64::MAX; pairs],
            next,
            groups,
            term_offsets: Vec::new(),
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
        let layout = Self::unit_layout(model, alpha, true);
        let (units, pairs) = (layout.units, pair_count(layout.units));
        let (fault_terms, term_offsets, next) = match model {
            Model::Blackboard => (Vec::new(), Vec::new(), Vec::new()),
            Model::MessagePassing(ports) => {
                let (terms, offsets) = aligned_fault_terms(ports);
                (terms, offsets, vec![0u64; pairs])
            }
        };
        LaneStepper {
            units,
            unit_of_node: layout.unit_of_node,
            unit_source: layout.unit_source,
            eq: vec![u64::MAX; pairs],
            next,
            groups: TermGroups::default(),
            term_offsets,
            bits: vec![0u64; units],
            faulted: true,
            fault_terms,
            silence: vec![0u64; units],
            fresh: true,
        }
    }

    /// The unit layout of the stepper [`LaneStepper::new`] (`faulted =
    /// false`) or [`LaneStepper::new_faulted`] (`faulted = true`) builds
    /// for `model` and `alpha`, without building its step tables.
    ///
    /// # Panics
    ///
    /// Panics if `model` is message-passing with a port numbering whose
    /// node count differs from `alpha.n()`.
    pub fn unit_layout(model: &Model, alpha: &Assignment, faulted: bool) -> UnitLayout {
        let n = alpha.n();
        if let Model::MessagePassing(ports) = model {
            assert_eq!(
                ports.n(),
                n,
                "port numbering is for {} nodes, assignment for {n}",
                ports.n()
            );
        }
        let sources = alpha.sources().to_vec();
        let (unit_of_node, unit_source) = if model.is_blackboard() && !faulted {
            // Nodes sharing a source always post the same bits: one unit
            // per source.
            (sources, (0..alpha.k()).collect())
        } else {
            ((0..n).collect(), sources)
        };
        UnitLayout {
            units: unit_source.len(),
            unit_of_node,
            unit_source,
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
    /// Subsequent steps then evolve 64 copies of that state in lockstep,
    /// one round digit per lane — how that engine builds its transition
    /// rows from arbitrary mid-execution states.
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

    /// Writes lane `lane`'s relation to `out` (cleared first) as canonical
    /// first-occurrence class labels, the representation
    /// [`LaneStepper::load_relation`] reads: each unit takes the label of
    /// the first unit equal to it. Every relation reachable by stepping
    /// is an equivalence, so a sweep of the packed rows of the classes'
    /// first units labels every unit (the labels are checked against
    /// every pair in debug builds).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) unless `lane < 64`.
    pub fn lane_labels(&self, lane: usize, out: &mut Vec<u8>) {
        debug_assert!(lane < 64, "a word holds 64 lanes");
        out.clear();
        out.resize(self.units, u8::MAX);
        let mut next = 0u8;
        // `row` is the packed index of pair `(a, a + 1)`: the pairs
        // `(a, b)`, `b > a`, are `eq[row..row + width]`.
        let mut row = 0;
        for a in 0..self.units {
            let width = self.units - a - 1;
            if out[a] == u8::MAX {
                out[a] = next;
                for (label, &w) in out[a + 1..].iter_mut().zip(&self.eq[row..row + width]) {
                    if w >> lane & 1 == 1 {
                        *label = next;
                    }
                }
                next += 1;
            }
            row += width;
        }
        debug_assert!(
            (0..self.units).all(|a| (a + 1..self.units).all(|b| {
                (out[a] == out[b]) == (self.eq[pair_index(self.units, a, b)] >> lane & 1 == 1)
            })),
            "lane relation is not an equivalence"
        );
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
            // Local slices: a store to `next` cannot move these buffers.
            let (eq, next, bits) = (&self.eq[..], &mut self.next[..], &self.bits[..]);
            let agree = |&[_, a, b]: &[u32; 3]| !(bits[a as usize] ^ bits[b as usize]);
            let and_terms = |mut w: u64, terms: &[u32]| {
                for &q in terms {
                    if w == 0 {
                        break;
                    }
                    w &= eq[q as usize];
                }
                w
            };
            for (group, terms) in self.groups.iter() {
                // A lone pair needs neither the union nor a second pass.
                if let [m] = group {
                    next[m[0] as usize] = and_terms(agree(m), terms);
                    continue;
                }
                // Only lanes where some member's bits agree can keep a
                // member equal: seed the shared AND with their union.
                let w = and_terms(group.iter().fold(0, |w, m| w | agree(m)), terms);
                for m in group {
                    next[m[0] as usize] = agree(m) & w;
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

    /// The message-passing rule pair by pair, straight from the port
    /// numbering, on one packed relation:
    /// `eq'[a,b] = !(bits[a] ^ bits[b]) & AND_p eq[nbr(a,p), nbr(b,p)]`.
    fn term_loop_step(ports: &PortNumbering, eq: &[u64], bits: &[u64]) -> Vec<u64> {
        let n = ports.n();
        let mut out = Vec::with_capacity(eq.len());
        for a in 0..n {
            for b in a + 1..n {
                let mut w = !(bits[a] ^ bits[b]);
                for p in 1..n {
                    let (x, y) = (ports.neighbor(a, p), ports.neighbor(b, p));
                    if x != y {
                        w &= eq[pair_index(n, x.min(y), x.max(y))];
                    }
                }
                out.push(w);
            }
        }
        out
    }

    /// Cyclic, adversarial and three seeded random numberings of `n`
    /// nodes.
    fn numberings(n: usize) -> Vec<PortNumbering> {
        use rand::SeedableRng;
        let mut all = vec![PortNumbering::cyclic(n)];
        all.extend(
            [2, 3]
                .into_iter()
                .filter(|g| n.is_multiple_of(*g))
                .map(|g| PortNumbering::adversarial(n, g)),
        );
        all.extend((0..3u64).map(|seed| {
            PortNumbering::random(n, &mut rand::rngs::StdRng::seed_from_u64(seed ^ n as u64))
        }));
        all
    }

    #[test]
    fn loaded_relations_step_by_the_term_loop_rule() {
        // `load_relation` leaves the fresh state: the next steps must
        // consult the port terms, not the fresh-state shortcut. Random
        // equivalences go into every lane, one per case.
        for n in [4usize, 6, 9] {
            for ports in numberings(n) {
                let model = Model::MessagePassing(ports.clone());
                let mut st = LaneStepper::new(&model, &Assignment::private(n));
                for case in 0..8u64 {
                    let classes = 1 + case % n as u64;
                    let labels: Vec<u8> = (0..n as u64)
                        .map(|i| (mix(73 ^ case << 8 ^ i) % classes) as u8)
                        .collect();
                    st.load_relation(&labels);
                    for r in 0..3u64 {
                        let bits: Vec<u64> = (0..n as u64)
                            .map(|s| mix(61 ^ s << 8 ^ case << 16 ^ r << 24))
                            .collect();
                        let before = st.eq_words().to_vec();
                        st.step(|s| bits[s]);
                        assert_eq!(
                            st.eq_words(),
                            &term_loop_step(&ports, &before, &bits)[..],
                            "labels {labels:?}, step {r}, model {model}"
                        );
                    }
                }
                // And from the fresh state: the shortcut, then the
                // grouped steps, agree with the rule.
                st.reset();
                for r in 0..4u64 {
                    let bits: Vec<u64> = (0..n as u64).map(|s| mix(67 ^ s ^ r << 8)).collect();
                    let before = st.eq_words().to_vec();
                    st.step(|s| bits[s]);
                    assert_eq!(
                        st.eq_words(),
                        &term_loop_step(&ports, &before, &bits)[..],
                        "fresh, step {r}, model {model}"
                    );
                }
            }
        }
    }

    /// The set of pair `(a, b)`'s port terms plus the pair itself.
    fn key_of(ports: &PortNumbering, a: usize, b: usize) -> Vec<u32> {
        let n = ports.n();
        let mut key: Vec<u32> = (1..n)
            .map(|p| (ports.neighbor(a, p), ports.neighbor(b, p)))
            .filter(|(x, y)| x != y)
            .map(|(x, y)| pair_index(n, x.min(y), x.max(y)) as u32)
            .chain([pair_index(n, a, b) as u32])
            .collect();
        key.sort_unstable();
        key.dedup();
        key
    }

    #[test]
    fn term_groups_are_the_ring_orbits_and_never_merge_distinct_keys() {
        let check = |ports: &PortNumbering| -> TermGroups {
            let n = ports.n();
            let groups = aligned_terms(ports);
            let mut seen = vec![false; pair_count(n)];
            for (members, terms) in groups.iter() {
                assert!(!members.is_empty());
                let mut key = terms.to_vec();
                key.sort_unstable();
                for &[p, a, b] in members {
                    assert_eq!(p as usize, pair_index(n, a as usize, b as usize));
                    assert!(
                        !std::mem::replace(&mut seen[p as usize], true),
                        "pair {p} twice"
                    );
                    assert_eq!(key, key_of(ports, a as usize, b as usize));
                }
            }
            assert!(seen.iter().all(|&s| s), "every pair in a group");
            groups
        };
        for n in 1..=24 {
            let groups = check(&PortNumbering::cyclic(n));
            assert_eq!(groups.ends.len(), n / 2, "cyclic({n})");
            assert_eq!(groups.terms.len(), pair_count(n), "cyclic({n})");
        }
        let groups = check(&PortNumbering::adversarial(24, 2));
        assert_eq!(groups.ends.len(), 13);
        assert_eq!(groups.terms.len(), 276);
        for n in [4usize, 6, 7, 9] {
            for ports in numberings(n) {
                check(&ports);
            }
        }
    }

    #[test]
    fn lane_labels_are_canonical_and_match_the_pair_words() {
        // Every lane of a stepped relation reads back as first-occurrence
        // labels that induce exactly its pair bits: both models, with
        // cyclic and adversarial ports, fault-free and faulted.
        let alpha = Assignment::from_group_sizes(&[1, 2, 3]).unwrap();
        let n = alpha.n();
        let models = [
            Model::Blackboard,
            Model::message_passing_cyclic(n),
            Model::MessagePassing(PortNumbering::adversarial(n, 2)),
        ];
        let mut labels = Vec::new();
        let (mut split, mut merged) = (0, 0);
        for model in &models {
            for faulted in [false, true] {
                let mut st = if faulted {
                    LaneStepper::new_faulted(model, &alpha)
                } else {
                    LaneStepper::new(model, &alpha)
                };
                for r in 0..4u64 {
                    let salt = 71 ^ r << 16 ^ u64::from(faulted) << 24;
                    let bits: Vec<u64> = (0..alpha.k() as u64).map(|s| mix(salt ^ s)).collect();
                    if faulted {
                        // About one node in four silent per lane.
                        let silent =
                            |i: usize| mix(salt ^ 97 ^ i as u64) & mix(salt ^ 89 ^ i as u64);
                        st.step_faulted(|s| bits[s], silent);
                    } else {
                        st.step(|s| bits[s]);
                    }
                    let units = st.units();
                    for lane in 0..64 {
                        st.lane_labels(lane, &mut labels);
                        assert_eq!(labels.len(), units);
                        let mut fresh = 0;
                        for &label in &labels {
                            assert!(label <= fresh, "not canonical: {labels:?}");
                            fresh = fresh.max(label + 1);
                        }
                        split += usize::from(fresh > 1);
                        merged += usize::from(usize::from(fresh) < units);
                        for a in 0..units {
                            for b in a + 1..units {
                                let bit = st.eq_words()[pair_index(units, a, b)] >> lane & 1 == 1;
                                assert_eq!(
                                    labels[a] == labels[b],
                                    bit,
                                    "{model} faulted={faulted} round {r} lane {lane} ({a},{b})"
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(split > 0 && merged > 0, "split {split}, merged {merged}");
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
    fn unit_layout_is_the_built_steppers_layout() {
        let alpha = Assignment::from_sources(vec![0, 1, 0, 2, 1, 0]).unwrap();
        let mut models = vec![Model::Blackboard];
        models.extend(numberings(6).into_iter().map(Model::MessagePassing));
        for model in &models {
            for faulted in [false, true] {
                let built = if faulted {
                    LaneStepper::new_faulted(model, &alpha)
                } else {
                    LaneStepper::new(model, &alpha)
                };
                let layout = LaneStepper::unit_layout(model, &alpha, faulted);
                assert_eq!(layout.units, built.units(), "{model} faulted={faulted}");
                assert_eq!(layout.unit_of_node, built.unit_of_node());
                assert_eq!(layout.unit_source, built.unit_source);
            }
        }
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
