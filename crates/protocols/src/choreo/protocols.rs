//! The paper's protocols as choreographies: global descriptions plus
//! projected role implementations.
//!
//! This module is the only implementation of the paper's constructive
//! results: the blackboard election of Theorem 4.1 ([`BleChoreo`]) and its
//! k-leader, weak-symmetry-breaking and leader-and-deputy variants,
//! Algorithm 1 ([`MatchingChoreo`]), the Euclid-style election of
//! Theorem 4.2 ([`EuclidChoreo`]), and the Appendix C reduction
//! ([`ReductionChoreo`], with consensus as its example). Each protocol
//! declares its send/receive discipline once in a [`GlobalProtocol`], and
//! the projected machines enforce it at run time. Run one on a caller's
//! RNG with [`run_with`](super::run_with), or through a
//! [`Backend`](super::Backend).
//!
//! All protocols draw their randomness through the run's
//! [`Assignment`](rsbt_random::Assignment), so nodes sharing a source draw
//! identical bits, the correlated regime the paper studies.

use std::collections::BTreeMap;
use std::sync::Arc;

use rsbt_sim::net::{Wire, WireError};
use rsbt_sim::runner::{BoardView, Incoming, Outgoing, PortsView, Protocol, RoundCtx};
use rsbt_sim::Model;

use super::backend::Choreography;
use super::global::{
    ActionKind, GlobalProtocol, ModelClass, Participation, PhaseExit, PhaseSpec, Projection,
    RoleSpec,
};
use super::machine::{
    AnyAction, BoardAction, BoardMachine, BoardRole, DualMachine, DualRole, PortAction,
    PortMachine, PortRole, View,
};
use crate::role::Role;

/// The shared single-role, single-phase, full-participation shape of the
/// blackboard election protocols.
fn board_election_global(name: &'static str) -> GlobalProtocol {
    GlobalProtocol {
        name,
        model: ModelClass::Blackboard,
        participation: Participation::Full,
        roles: vec![RoleSpec {
            name: "node",
            min_count: 1,
        }],
        phases: vec![PhaseSpec {
            name: "elect",
            actions: vec![("node", vec![ActionKind::Post])],
            exit: PhaseExit::Decision,
        }],
    }
}

/// The common multiset of the previous round's strings (the board plus
/// this node's own) as equality classes in lexicographic order: each
/// distinct string with its multiplicity. Every node computes the same
/// classes, which is what lets the blackboard rules agree.
///
/// The board arrives sorted (the runner presents it in lexicographic
/// order), so the node's own string is merged in at its place and equal
/// neighbours are counted as they stream by: no allocation, no sort.
fn board_classes<'a>(
    board: &'a [Vec<bool>],
    mine: &'a Vec<bool>,
) -> impl Iterator<Item = (&'a Vec<bool>, usize)> {
    debug_assert!(board.is_sorted(), "the board arrives sorted");
    let (below, rest) = board.split_at(board.partition_point(|s| s < mine));
    let mut all = below
        .iter()
        .chain(std::iter::once(mine))
        .chain(rest)
        .peekable();
    std::iter::from_fn(move || {
        let rep = all.next()?;
        let mut count = 1;
        while all.next_if_eq(&rep).is_some() {
            count += 1;
        }
        Some((rep, count))
    })
}

// ---------------------------------------------------------------------------
// Blackboard leader election (Theorem 4.1)
// ---------------------------------------------------------------------------

/// Projected role of [`BleChoreo`].
///
/// Every round, each node posts the bit string it has received from its
/// randomness source so far. At the start of round `r + 1` every node sees
/// the same multiset of `n` length-`r` strings (the `n − 1` board entries
/// plus its own). As soon as some string is *unique* in that multiset, all
/// nodes agree deterministically on the leader: the holder of the
/// lexicographically smallest unique string. A lone node leads at once.
#[derive(Clone, Debug, Default)]
pub struct BleRole {
    history: Vec<bool>,
    decided: Option<Role>,
}

impl BoardRole for BleRole {
    type Msg = Vec<bool>;
    type Output = Role;

    fn step(&mut self, ctx: RoundCtx, board: BoardView<'_, Vec<bool>>) -> BoardAction<Vec<bool>> {
        if ctx.round > 1 {
            // Lexicographically smallest string occurring exactly once.
            let unique = board_classes(&board, &self.history).find(|&(_, count)| count == 1);
            if let Some((winner, _)) = unique {
                let leads = *winner == self.history;
                self.decided = Some(if leads { Role::Leader } else { Role::Follower });
                return BoardAction::Silent;
            }
        } else if ctx.n == 1 {
            self.decided = Some(Role::Leader);
            return BoardAction::Silent;
        }
        self.history.push(ctx.bit);
        BoardAction::Post(self.history.clone())
    }

    fn decision(&self) -> Option<Role> {
        self.decided
    }

    fn msg_bytes(msg: &Vec<bool>) -> usize {
        msg.wire_len()
    }
}

/// Blackboard leader election (Theorem 4.1, 'if' direction) as a
/// choreography; the node logic is [`BleRole`].
///
/// Under a configuration with a singleton source some string becomes
/// unique with probability 1, so the election terminates; with no
/// singleton source no string is ever unique and the protocol runs
/// forever. That is exactly the dichotomy of Theorem 4.1.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use rsbt_protocols::choreo::{run_with, BleChoreo};
/// use rsbt_protocols::{leader_count, Role};
/// use rsbt_random::Assignment;
/// use rsbt_sim::Model;
///
/// let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let out = run_with(&BleChoreo, &Model::Blackboard, &alpha, 64, &mut rng).unwrap();
/// assert!(out.completed);
/// assert_eq!(leader_count(&out.outputs), 1);
/// // Nodes 1 and 2 share a source, so they always hold equal strings.
/// assert_eq!(out.outputs[0], Some(Role::Leader));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct BleChoreo;

impl Choreography for BleChoreo {
    type Node = BoardMachine<BleRole>;

    fn name(&self) -> &'static str {
        "blackboard-le"
    }

    fn global(&self) -> GlobalProtocol {
        board_election_global("blackboard-le")
    }

    fn node(&self, _index: usize, _model: &Model, projection: &Projection) -> Self::Node {
        BoardMachine::new(BleRole::default(), projection.local("node").clone())
    }
}

// ---------------------------------------------------------------------------
// Blackboard k-leader election
// ---------------------------------------------------------------------------

/// Projected role of [`KLeaderChoreo`].
///
/// Generalizes [`BleRole`]. Every node posts its randomness string each
/// round; all nodes see the same multiset of `n` strings and hence the
/// same partition into equality classes. As soon as some sub-collection of
/// classes has sizes summing to exactly `k`, everyone agrees on the
/// lexicographically first such sub-collection, and its members are the
/// leaders.
#[derive(Clone, Debug)]
pub struct KLeaderRole {
    k: usize,
    history: Vec<bool>,
    decided: Option<Role>,
}

impl KLeaderRole {
    /// A fresh node for the exactly-`k`-leaders task.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "need k ≥ 1");
        KLeaderRole {
            k,
            history: Vec::new(),
            decided: None,
        }
    }

    /// Finds the lexicographically first set of classes with sizes
    /// summing to `k`. `sizes` lists the classes sorted by their string;
    /// the result is the indices of the chosen classes.
    fn choose_classes(sizes: &[usize], k: usize) -> Option<Vec<usize>> {
        fn rec(sizes: &[usize], k: usize, from: usize, chosen: &mut Vec<usize>) -> bool {
            if k == 0 {
                return true;
            }
            for i in from..sizes.len() {
                if sizes[i] <= k {
                    chosen.push(i);
                    if rec(sizes, k - sizes[i], i + 1, chosen) {
                        return true;
                    }
                    chosen.pop();
                }
            }
            false
        }
        let mut chosen = Vec::new();
        rec(sizes, k, 0, &mut chosen).then_some(chosen)
    }
}

impl BoardRole for KLeaderRole {
    type Msg = Vec<bool>;
    type Output = Role;

    fn step(&mut self, ctx: RoundCtx, board: BoardView<'_, Vec<bool>>) -> BoardAction<Vec<bool>> {
        if ctx.round > 1 {
            let sizes: Vec<usize> = board_classes(&board, &self.history)
                .map(|(_, count)| count)
                .collect();
            if let Some(chosen) = KLeaderRole::choose_classes(&sizes, self.k) {
                let my_class = board_classes(&board, &self.history)
                    .position(|(s, _)| *s == self.history)
                    .expect("own string present");
                self.decided = Some(if chosen.contains(&my_class) {
                    Role::Leader
                } else {
                    Role::Follower
                });
                return BoardAction::Silent;
            }
        } else if ctx.n == 1 && self.k == 1 {
            self.decided = Some(Role::Leader);
            return BoardAction::Silent;
        }
        self.history.push(ctx.bit);
        BoardAction::Post(self.history.clone())
    }

    fn decision(&self) -> Option<Role> {
        self.decided
    }

    fn msg_bytes(msg: &Vec<bool>) -> usize {
        msg.wire_len()
    }
}

/// Blackboard exactly-`k`-leaders election as a choreography; the node
/// logic is [`KLeaderRole`].
///
/// This realizes the framework's characterization that `exp_two_leader`
/// exercises: blackboard `k`-leader election is eventually solvable iff
/// the group sizes admit a sub-multiset that sums to `k`. For `k = 2` that
/// means a source of size 2 or two singleton sources.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use rsbt_protocols::choreo::{run_with, KLeaderChoreo};
/// use rsbt_protocols::leader_count;
/// use rsbt_random::Assignment;
/// use rsbt_sim::Model;
///
/// // Sizes [2, 2]: a whole pair can be elected as the 2 leaders.
/// let alpha = Assignment::from_group_sizes(&[2, 2]).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let choreo = KLeaderChoreo { k: 2 };
/// let out = run_with(&choreo, &Model::Blackboard, &alpha, 128, &mut rng).unwrap();
/// assert!(out.completed);
/// assert_eq!(leader_count(&out.outputs), 2);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct KLeaderChoreo {
    /// Number of leaders to elect.
    pub k: usize,
}

impl Choreography for KLeaderChoreo {
    type Node = BoardMachine<KLeaderRole>;

    fn name(&self) -> &'static str {
        "k-leader-bb"
    }

    fn global(&self) -> GlobalProtocol {
        board_election_global("k-leader-bb")
    }

    fn node(&self, _index: usize, _model: &Model, projection: &Projection) -> Self::Node {
        BoardMachine::new(KLeaderRole::new(self.k), projection.local("node").clone())
    }
}

// ---------------------------------------------------------------------------
// Blackboard weak symmetry breaking
// ---------------------------------------------------------------------------

/// Projected role of [`WsbChoreo`]. Outputs a bit.
///
/// Every node posts its randomness string each round. As soon as at least
/// two distinct strings exist, the nodes holding the lexicographically
/// smallest string output `0` and everyone else outputs `1`: a
/// deterministic rule on the common multiset, so outputs are consistent
/// and never all equal.
#[derive(Clone, Debug, Default)]
pub struct WsbRole {
    history: Vec<bool>,
    decided: Option<u8>,
}

impl BoardRole for WsbRole {
    type Msg = Vec<bool>;
    type Output = u8;

    fn step(&mut self, ctx: RoundCtx, board: BoardView<'_, Vec<bool>>) -> BoardAction<Vec<bool>> {
        if ctx.round > 1 {
            let mine = self.history.clone();
            let min = board.iter().min().map_or(&mine, |m| m.min(&mine));
            let max = board.iter().max().map_or(&mine, |m| m.max(&mine));
            if min != max {
                self.decided = Some(u8::from(mine != *min));
                return BoardAction::Silent;
            }
        }
        self.history.push(ctx.bit);
        BoardAction::Post(self.history.clone())
    }

    fn decision(&self) -> Option<u8> {
        self.decided
    }

    fn msg_bytes(msg: &Vec<bool>) -> usize {
        msg.wire_len()
    }
}

/// Blackboard weak symmetry breaking as a choreography; the node logic is
/// [`WsbRole`].
///
/// This is the algorithmic counterpart of `exp_wsb`'s framework
/// characterization: the task is eventually solvable iff `k ≥ 2` (two
/// distinct sources), even with no singleton source.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use rsbt_protocols::choreo::{run_with, WsbChoreo};
/// use rsbt_random::Assignment;
/// use rsbt_sim::Model;
///
/// // k = 2 suffices even with no singleton source.
/// let alpha = Assignment::from_group_sizes(&[2, 2]).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let out = run_with(&WsbChoreo, &Model::Blackboard, &alpha, 64, &mut rng).unwrap();
/// assert!(out.completed);
/// let bits: Vec<u8> = out.outputs.iter().map(|o| o.unwrap()).collect();
/// assert!(bits.contains(&0) && bits.contains(&1));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct WsbChoreo;

impl Choreography for WsbChoreo {
    type Node = BoardMachine<WsbRole>;

    fn name(&self) -> &'static str {
        "wsb-bb"
    }

    fn global(&self) -> GlobalProtocol {
        board_election_global("wsb-bb")
    }

    fn node(&self, _index: usize, _model: &Model, projection: &Projection) -> Self::Node {
        BoardMachine::new(WsbRole::default(), projection.local("node").clone())
    }
}

// ---------------------------------------------------------------------------
// Blackboard leader-and-deputy election
// ---------------------------------------------------------------------------

/// Roles of the leader-and-deputy election.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DeputyRole {
    /// The elected leader.
    Leader,
    /// The deputy (immediate backup).
    Deputy,
    /// Everyone else.
    Follower,
}

impl Wire for DeputyRole {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            DeputyRole::Leader => 0,
            DeputyRole::Deputy => 1,
            DeputyRole::Follower => 2,
        });
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(DeputyRole::Leader),
            1 => Ok(DeputyRole::Deputy),
            2 => Ok(DeputyRole::Follower),
            _ => Err(WireError::new("invalid DeputyRole tag")),
        }
    }

    fn wire_len(&self) -> usize {
        1
    }
}

/// Projected role of [`DeputyChoreo`].
///
/// Keep posting randomness strings; decide once the common multiset
/// contains **two distinct unique strings**. Their holders become leader
/// (the smaller string) and deputy (the next unique string), and everyone
/// else follows.
#[derive(Clone, Debug, Default)]
pub struct DeputyElectRole {
    history: Vec<bool>,
    decided: Option<DeputyRole>,
}

impl BoardRole for DeputyElectRole {
    type Msg = Vec<bool>;
    type Output = DeputyRole;

    fn step(&mut self, ctx: RoundCtx, board: BoardView<'_, Vec<bool>>) -> BoardAction<Vec<bool>> {
        if ctx.round > 1 {
            let mut uniques = board_classes(&board, &self.history)
                .filter(|&(_, count)| count == 1)
                .map(|(s, _)| s);
            if let (Some(leader), Some(deputy)) = (uniques.next(), uniques.next()) {
                let mine = &self.history;
                self.decided = Some(if leader == mine {
                    DeputyRole::Leader
                } else if deputy == mine {
                    DeputyRole::Deputy
                } else {
                    DeputyRole::Follower
                });
                return BoardAction::Silent;
            }
        }
        self.history.push(ctx.bit);
        BoardAction::Post(self.history.clone())
    }

    fn decision(&self) -> Option<DeputyRole> {
        self.decided
    }

    fn msg_bytes(msg: &Vec<bool>) -> usize {
        msg.wire_len()
    }
}

/// Blackboard leader-and-deputy election (unconstrained roles) as a
/// choreography; the node logic is [`DeputyElectRole`].
///
/// This is the algorithmic side of the paper's Section 5 future-work
/// example. On a blackboard the equality classes are exactly the source
/// groups merged by string collisions, so the task is eventually solvable
/// iff **at least two sources are singletons**. That is a strictly
/// stronger requirement than Theorem 4.1's single singleton.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use rsbt_protocols::choreo::{run_with, DeputyChoreo, DeputyRole};
/// use rsbt_random::Assignment;
/// use rsbt_sim::Model;
///
/// let alpha = Assignment::from_group_sizes(&[1, 1, 2]).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let out = run_with(&DeputyChoreo, &Model::Blackboard, &alpha, 128, &mut rng).unwrap();
/// assert!(out.completed);
/// let count = |r| out.outputs.iter().filter(|o| **o == Some(r)).count();
/// assert_eq!((count(DeputyRole::Leader), count(DeputyRole::Deputy)), (1, 1));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct DeputyChoreo;

impl Choreography for DeputyChoreo {
    type Node = BoardMachine<DeputyElectRole>;

    fn name(&self) -> &'static str {
        "deputy-bb"
    }

    fn global(&self) -> GlobalProtocol {
        board_election_global("deputy-bb")
    }

    fn node(&self, _index: usize, _model: &Model, projection: &Projection) -> Self::Node {
        BoardMachine::new(DeputyElectRole::default(), projection.local("node").clone())
    }
}

// ---------------------------------------------------------------------------
// Euclid leader election (Theorem 4.2)
// ---------------------------------------------------------------------------

/// Messages of the Euclid leader election.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum EuclidMsg {
    /// Discovery phase: the sender's random string so far.
    Hist(Vec<bool>),
    /// Matching: `A → B` request.
    Req,
    /// Matching: `B → A` accept.
    Ack,
    /// Matching: matched `B`-node announcement.
    AnnB,
    /// Matching: matched `A`-node announcement.
    AnnA,
}

impl Wire for EuclidMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            EuclidMsg::Hist(h) => {
                out.push(0);
                h.encode(out);
            }
            EuclidMsg::Req => out.push(1),
            EuclidMsg::Ack => out.push(2),
            EuclidMsg::AnnB => out.push(3),
            EuclidMsg::AnnA => out.push(4),
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(EuclidMsg::Hist(Vec::decode(buf)?)),
            1 => Ok(EuclidMsg::Req),
            2 => Ok(EuclidMsg::Ack),
            3 => Ok(EuclidMsg::AnnB),
            4 => Ok(EuclidMsg::AnnA),
            _ => Err(WireError::new("invalid EuclidMsg tag")),
        }
    }

    fn wire_len(&self) -> usize {
        match self {
            EuclidMsg::Hist(h) => 1 + h.wire_len(),
            _ => 1,
        }
    }
}

/// Uniform index in `0..m` by rejection sampling from a node's bit
/// buffer. Returns `None` when the buffer cannot decide yet; a rejected
/// draw still consumes its bits. Nodes sharing a source hold the same
/// buffer and so draw the same index, by design.
fn draw_index(bit_buffer: &mut Vec<bool>, m: usize) -> Option<usize> {
    if m == 1 {
        return Some(0);
    }
    let needed = usize::BITS as usize - (m - 1).leading_zeros() as usize;
    if bit_buffer.len() < needed {
        return None;
    }
    let v = bit_buffer
        .drain(..needed)
        .fold(0usize, |acc, b| acc << 1 | usize::from(b));
    (v < m).then_some(v)
}

/// Projected role of [`EuclidChoreo`]. The protocol has two phases:
///
/// 1. **Discovery.** Every node broadcasts its accumulated random string
///    each round. All nodes see the same multiset of `n` strings, so once
///    `k` distinct strings appear (`k` = number of sources, common
///    knowledge) everyone agrees on the partition into source groups, on
///    each group's size, and on which local port leads into which group.
/// 2. **Euclid loop.** Repeatedly pick the two smallest active groups
///    `A, B` (`|A| ≤ |B|`, ties broken by group id), run Algorithm 1's
///    matching ([`MatchingRole`]) between them, and deactivate the
///    matched `B`-members. Group sizes evolve as
///    `(|A|, |B|) → (|A|, |B| − |A|)`: the subtractive Euclid step.
#[derive(Clone, Debug)]
pub struct EuclidRole {
    /// Number of randomness sources (common knowledge).
    k: usize,
    history: Vec<bool>,
    freeze_round: Option<usize>,
    my_group: usize,
    /// Group of the node behind each port (valid after freeze).
    port_group: Vec<usize>,
    /// Whether the node behind each port is still active.
    port_active: Vec<bool>,
    self_active: bool,
    /// Active size of each group.
    sizes: Vec<usize>,
    pair: Option<(usize, usize)>,
    matched_self: bool,
    matched_a_count: usize,
    bit_buffer: Vec<bool>,
    decided: Option<Role>,
}

impl EuclidRole {
    /// A fresh node expecting `k` distinct randomness sources.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "at least one source");
        EuclidRole {
            k,
            history: Vec::new(),
            freeze_round: None,
            my_group: 0,
            port_group: Vec::new(),
            port_active: Vec::new(),
            self_active: true,
            sizes: Vec::new(),
            pair: None,
            matched_self: false,
            matched_a_count: 0,
            bit_buffer: Vec::new(),
            decided: None,
        }
    }

    /// Deterministic pair selection: the two smallest non-empty groups,
    /// ties broken by group id. Returns `(A, B)` with `|A| ≤ |B|`.
    fn select_pair(&self) -> Option<(usize, usize)> {
        let mut live: Vec<usize> = (0..self.sizes.len())
            .filter(|&g| self.sizes[g] > 0)
            .collect();
        live.sort_by_key(|&g| (self.sizes[g], g));
        match live.as_slice() {
            [a, b, ..] => Some((*a, *b)),
            _ => None,
        }
    }

    /// The smallest group id of size exactly one, if any.
    fn winner_group(&self) -> Option<usize> {
        (0..self.sizes.len()).find(|&g| self.sizes[g] == 1)
    }

    /// Concludes the election once a singleton group exists.
    fn try_decide(&mut self) -> bool {
        if let Some(g) = self.winner_group() {
            self.decided = Some(if self.self_active && self.my_group == g {
                Role::Leader
            } else {
                Role::Follower
            });
            true
        } else {
            false
        }
    }

    /// Starts the next matching iteration (or decides), after group sizes
    /// changed.
    fn next_iteration(&mut self) -> bool {
        if self.try_decide() {
            return true;
        }
        self.pair = self.select_pair();
        self.matched_self = false;
        self.matched_a_count = 0;
        false
    }

    /// Ports of this node leading to active members of group `g`.
    fn active_ports_of_group(&self, g: usize) -> Vec<usize> {
        self.port_group
            .iter()
            .zip(&self.port_active)
            .enumerate()
            .filter(|(_, (pg, act))| **pg == g && **act)
            .map(|(i, _)| i + 1)
            .collect()
    }

    fn discovery_step(
        &mut self,
        ctx: RoundCtx,
        ports: &[Option<EuclidMsg>],
    ) -> PortAction<EuclidMsg> {
        if ctx.n == 1 {
            self.decided = Some(Role::Leader);
            return PortAction::Silent;
        }
        if ctx.round > 1 {
            fn hist(m: &Option<EuclidMsg>) -> &Vec<bool> {
                match m {
                    Some(EuclidMsg::Hist(h)) => h,
                    other => panic!("discovery expects Hist, got {other:?}"),
                }
            }
            let mine = &self.history;
            let mut distinct: Vec<&Vec<bool>> = ports
                .iter()
                .map(hist)
                .chain(std::iter::once(mine))
                .collect();
            distinct.sort();
            distinct.dedup();
            if distinct.len() == self.k {
                self.my_group = distinct.binary_search(&mine).expect("present");
                self.port_group = ports
                    .iter()
                    .map(|m| distinct.binary_search(&hist(m)).expect("present"))
                    .collect();
                self.port_active = vec![true; ports.len()];
                self.sizes = vec![0; self.k];
                self.sizes[self.my_group] += 1;
                for &g in &self.port_group {
                    self.sizes[g] += 1;
                }
                self.freeze_round = Some(ctx.round);
                self.next_iteration();
                return PortAction::Silent;
            }
        }
        self.history.push(ctx.bit);
        PortAction::Broadcast(EuclidMsg::Hist(self.history.clone()))
    }

    fn matching_step(
        &mut self,
        ctx: RoundCtx,
        ports: &[Option<EuclidMsg>],
    ) -> PortAction<EuclidMsg> {
        self.bit_buffer.push(ctx.bit);
        let freeze = self.freeze_round.expect("frozen");
        let (ga, gb) = match self.pair {
            Some(p) => p,
            None => return PortAction::Silent, // stuck: gcd > 1 dead end
        };
        match (ctx.round - freeze - 1) % 3 {
            // R1: count AnnA; close the iteration when A is exhausted;
            // otherwise unmatched A-members request a random B-port.
            0 => {
                self.matched_a_count += ports
                    .iter()
                    .filter(|m| **m == Some(EuclidMsg::AnnA))
                    .count();
                if self.matched_a_count >= self.sizes[ga] {
                    self.sizes[gb] -= self.sizes[ga];
                    if self.next_iteration() {
                        return PortAction::Silent;
                    }
                }
                let (ga, gb) = match self.pair {
                    Some(p) => p,
                    None => return PortAction::Silent, // gcd > 1 dead end
                };
                if self.self_active && self.my_group == ga && !self.matched_self {
                    let targets = self.active_ports_of_group(gb);
                    debug_assert!(!targets.is_empty(), "B side exhausted prematurely");
                    if let Some(i) = draw_index(&mut self.bit_buffer, targets.len()) {
                        return PortAction::Send(vec![(targets[i], EuclidMsg::Req)]);
                    }
                }
                PortAction::Silent
            }
            // R2: unmatched active B-members accept the minimal requester.
            1 => {
                if self.self_active && self.my_group == gb && !self.matched_self {
                    let requesters: Vec<usize> = ports
                        .iter()
                        .enumerate()
                        .filter(|(_, m)| **m == Some(EuclidMsg::Req))
                        .map(|(i, _)| i + 1)
                        .collect();
                    if let Some(&min_port) = requesters.first() {
                        self.matched_self = true;
                        self.self_active = false; // deactivated for good
                        let mut out = vec![(min_port, EuclidMsg::Ack)];
                        for p in 1..ctx.n {
                            if p != min_port {
                                out.push((p, EuclidMsg::AnnB));
                            }
                        }
                        return PortAction::Send(out);
                    }
                }
                PortAction::Silent
            }
            // R3: record deactivated B-members; acknowledged A-members
            // announce their match.
            _ => {
                let mut acked = false;
                for (i, m) in ports.iter().enumerate() {
                    match m {
                        Some(EuclidMsg::Ack) => {
                            acked = true;
                            self.port_active[i] = false;
                        }
                        Some(EuclidMsg::AnnB) => {
                            self.port_active[i] = false;
                        }
                        _ => {}
                    }
                }
                if acked && self.self_active && self.my_group == ga && !self.matched_self {
                    self.matched_self = true;
                    self.matched_a_count += 1;
                    return PortAction::Broadcast(EuclidMsg::AnnA);
                }
                PortAction::Silent
            }
        }
    }
}

impl PortRole for EuclidRole {
    type Msg = EuclidMsg;
    type Output = Role;

    fn step(&mut self, ctx: RoundCtx, ports: PortsView<'_, EuclidMsg>) -> PortAction<EuclidMsg> {
        if self.freeze_round.is_none() {
            self.discovery_step(ctx, &ports)
        } else {
            self.matching_step(ctx, &ports)
        }
    }

    fn decision(&self) -> Option<Role> {
        self.decided
    }

    fn phase(&self) -> usize {
        usize::from(self.freeze_round.is_some())
    }

    fn msg_bytes(msg: &EuclidMsg) -> usize {
        msg.wire_len()
    }
}

/// Message-passing leader election by imitating Euclid's algorithm
/// (Theorem 4.2, 'if' direction) as a choreography; the node logic is
/// [`EuclidRole`].
///
/// The gcd of the active group sizes is invariant under the subtractive
/// step, so when `gcd(n_1, …, n_k) = 1` a singleton group eventually
/// appears, and its unique active member becomes the leader. When the gcd
/// exceeds 1 the loop bottoms out at one group of gcd-many
/// mutually-consistent nodes and never terminates, matching the
/// impossibility direction. Nodes sharing a randomness source draw
/// identical bits throughout, including during the matching's random port
/// choices, and the protocol still works for *any* port numbering, which
/// is exactly the content of Theorem 4.2.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use rsbt_protocols::choreo::{run_with, EuclidChoreo};
/// use rsbt_protocols::leader_count;
/// use rsbt_random::Assignment;
/// use rsbt_sim::{Model, PortNumbering};
///
/// // Group sizes [2, 3]: gcd 1, so election succeeds for any ports.
/// let alpha = Assignment::from_group_sizes(&[2, 3]).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(11);
/// let model = Model::MessagePassing(PortNumbering::random(5, &mut rng));
/// let out = run_with(&EuclidChoreo { k: 2 }, &model, &alpha, 4000, &mut rng).unwrap();
/// assert!(out.completed);
/// assert_eq!(leader_count(&out.outputs), 1);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct EuclidChoreo {
    /// Number of randomness sources (common knowledge).
    pub k: usize,
}

impl Choreography for EuclidChoreo {
    type Node = PortMachine<EuclidRole>;

    fn name(&self) -> &'static str {
        "euclid-le"
    }

    fn global(&self) -> GlobalProtocol {
        GlobalProtocol {
            name: "euclid-le",
            model: ModelClass::MessagePassing,
            participation: Participation::Sparse,
            roles: vec![RoleSpec {
                name: "node",
                min_count: 1,
            }],
            phases: vec![
                PhaseSpec {
                    name: "discovery",
                    actions: vec![("node", vec![ActionKind::Broadcast])],
                    exit: PhaseExit::Guard("k distinct strings observed"),
                },
                PhaseSpec {
                    name: "euclid-loop",
                    actions: vec![("node", vec![ActionKind::Send, ActionKind::Broadcast])],
                    exit: PhaseExit::Decision,
                },
            ],
        }
    }

    fn node(&self, _index: usize, _model: &Model, projection: &Projection) -> Self::Node {
        PortMachine::new(EuclidRole::new(self.k), projection.local("node").clone())
    }
}

// ---------------------------------------------------------------------------
// CreateMatching (Algorithm 1)
// ---------------------------------------------------------------------------

/// Messages of the matching procedure.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum MatchMsg {
    /// `A → B`: "match with me".
    Req,
    /// `B → A`: "accepted" (sent to exactly one requester).
    Ack,
    /// `B → all`: "I am matched, stop targeting me".
    AnnB,
    /// `A → all`: "I am matched" (progress counting).
    AnnA,
}

impl Wire for MatchMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            MatchMsg::Req => 0,
            MatchMsg::Ack => 1,
            MatchMsg::AnnB => 2,
            MatchMsg::AnnA => 3,
        });
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(MatchMsg::Req),
            1 => Ok(MatchMsg::Ack),
            2 => Ok(MatchMsg::AnnB),
            3 => Ok(MatchMsg::AnnA),
            _ => Err(WireError::new("invalid MatchMsg tag")),
        }
    }

    fn wire_len(&self) -> usize {
        1
    }
}

/// Final status of a node after the matching completes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MatchStatus {
    /// An `A`-node (always matched on termination) or a matched `B`-node.
    Matched,
    /// A `B`-node that no `A`-node claimed (`b − a` of them).
    Unmatched,
    /// A node outside both groups.
    Bystander,
}

impl Wire for MatchStatus {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            MatchStatus::Matched => 0,
            MatchStatus::Unmatched => 1,
            MatchStatus::Bystander => 2,
        });
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(MatchStatus::Matched),
            1 => Ok(MatchStatus::Unmatched),
            2 => Ok(MatchStatus::Bystander),
            _ => Err(WireError::new("invalid MatchStatus tag")),
        }
    }

    fn wire_len(&self) -> usize {
        1
    }
}

/// Which side of the matching a node is on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum MatchSide {
    A,
    B,
    Bystander,
}

/// Projected role of [`MatchingChoreo`]. The same state machine serves
/// all three global roles; the projection assigns each node the local
/// spec of its side. Each iteration takes three rounds:
///
/// 1. every unmatched `A`-node picks a uniformly random *active* `B`-port
///    and sends a request;
/// 2. every `B`-node that received requests acknowledges the minimal
///    requesting port and announces itself matched to everyone else;
/// 3. acknowledged `A`-nodes announce themselves matched.
#[derive(Clone, Debug)]
pub struct MatchingRole {
    side: MatchSide,
    /// |A|: how many `AnnA` announcements signal termination.
    a_total: usize,
    /// For `A`-nodes: ports leading to currently-active `B`-nodes.
    active_b_ports: Vec<usize>,
    /// Fresh random bits accumulated for target selection.
    bit_buffer: Vec<bool>,
    matched_self: bool,
    matched_count: usize,
    decided: Option<MatchStatus>,
}

impl MatchingRole {
    fn on_side(side: MatchSide, a_total: usize, active_b_ports: Vec<usize>) -> Self {
        MatchingRole {
            side,
            a_total,
            active_b_ports,
            bit_buffer: Vec::new(),
            matched_self: false,
            matched_count: 0,
            decided: None,
        }
    }

    /// An `A`-side node; `b_ports` are its ports into `B`.
    ///
    /// # Panics
    ///
    /// Panics if `a_total == 0` or `b_ports.len() < a_total` (the procedure
    /// requires `|A| ≤ |B|`).
    pub fn new_a(a_total: usize, b_ports: Vec<usize>) -> Self {
        assert!(a_total >= 1, "matching needs a non-empty A side");
        assert!(
            b_ports.len() >= a_total,
            "CreateMatching requires |A| ≤ |B|"
        );
        MatchingRole::on_side(MatchSide::A, a_total, b_ports)
    }

    /// A `B`-side node.
    pub fn new_b(a_total: usize) -> Self {
        MatchingRole::on_side(MatchSide::B, a_total, Vec::new())
    }

    /// A node in neither group (it still observes announcements so that
    /// every node terminates with a status).
    pub fn bystander(a_total: usize) -> Self {
        MatchingRole::on_side(MatchSide::Bystander, a_total, Vec::new())
    }

    fn finish(&mut self) {
        self.decided = Some(match self.side {
            MatchSide::A => MatchStatus::Matched,
            MatchSide::B => {
                if self.matched_self {
                    MatchStatus::Matched
                } else {
                    MatchStatus::Unmatched
                }
            }
            MatchSide::Bystander => MatchStatus::Bystander,
        });
    }
}

impl PortRole for MatchingRole {
    type Msg = MatchMsg;
    type Output = MatchStatus;

    fn step(&mut self, ctx: RoundCtx, ports: PortsView<'_, MatchMsg>) -> PortAction<MatchMsg> {
        self.bit_buffer.push(ctx.bit);
        match (ctx.round - 1) % 3 {
            // R1: count AnnA from the previous block; unmatched A-nodes
            // request a random active B-port.
            0 => {
                self.matched_count += ports.iter().filter(|m| **m == Some(MatchMsg::AnnA)).count();
                if self.matched_count >= self.a_total {
                    self.finish();
                    return PortAction::Silent;
                }
                if self.side == MatchSide::A && !self.matched_self {
                    let m = self.active_b_ports.len();
                    debug_assert!(m > 0, "A-node ran out of active B targets");
                    if let Some(i) = draw_index(&mut self.bit_buffer, m) {
                        return PortAction::Send(vec![(self.active_b_ports[i], MatchMsg::Req)]);
                    }
                }
                PortAction::Silent
            }
            // R2: unmatched B-nodes accept the minimal requesting port.
            1 => {
                if self.side == MatchSide::B && !self.matched_self {
                    let requesters: Vec<usize> = ports
                        .iter()
                        .enumerate()
                        .filter(|(_, m)| **m == Some(MatchMsg::Req))
                        .map(|(i, _)| i + 1)
                        .collect();
                    if let Some(&min_port) = requesters.first() {
                        self.matched_self = true;
                        let mut out = vec![(min_port, MatchMsg::Ack)];
                        for p in 1..ctx.n {
                            if p != min_port {
                                out.push((p, MatchMsg::AnnB));
                            }
                        }
                        return PortAction::Send(out);
                    }
                }
                PortAction::Silent
            }
            // R3: process Ack/AnnB; acknowledged A-nodes announce.
            _ => {
                let mut acked = false;
                for (i, m) in ports.iter().enumerate() {
                    match m {
                        Some(MatchMsg::Ack) => {
                            acked = true;
                            self.active_b_ports.retain(|&p| p != i + 1);
                        }
                        Some(MatchMsg::AnnB) => {
                            self.active_b_ports.retain(|&p| p != i + 1);
                        }
                        _ => {}
                    }
                }
                if acked && self.side == MatchSide::A {
                    self.matched_self = true;
                    self.matched_count += 1;
                    if self.matched_count >= self.a_total {
                        // Still announce so everyone else can finish.
                        self.finish();
                    }
                    return PortAction::Broadcast(MatchMsg::AnnA);
                }
                PortAction::Silent
            }
        }
    }

    fn decision(&self) -> Option<MatchStatus> {
        self.decided
    }

    fn msg_bytes(msg: &MatchMsg) -> usize {
        msg.wire_len()
    }
}

/// Algorithm 1 (`CreateMatching`) as a choreography: the first `a` nodes
/// are side `A`, the next `b` are side `B`, the rest are bystanders. The
/// node logic is [`MatchingRole`].
///
/// The procedure matches all of `A` into `B`. Each iteration matches at
/// least one pair, so it terminates after at most `a` iterations
/// (Lemma 4.8). Nodes whose group shares one randomness source draw
/// *identical* random choices, yet the procedure still works because port
/// numbers are local: the same random index points different nodes at
/// different targets.
///
/// Group membership and the ports leading into `B` are fixed by the
/// layout, mirroring the paper's premise that "this separation is already
/// known to all the participating parties". [`EuclidRole`] derives that
/// information on-line from the nodes' randomness instead.
#[derive(Clone, Copy, Debug)]
pub struct MatchingChoreo {
    /// Size of side `A` (`a ≤ b`).
    pub a: usize,
    /// Size of side `B`.
    pub b: usize,
}

impl Choreography for MatchingChoreo {
    type Node = PortMachine<MatchingRole>;

    fn name(&self) -> &'static str {
        "create-matching"
    }

    fn global(&self) -> GlobalProtocol {
        GlobalProtocol {
            name: "create-matching",
            model: ModelClass::MessagePassing,
            participation: Participation::Sparse,
            roles: vec![
                RoleSpec {
                    name: "a",
                    min_count: 1,
                },
                RoleSpec {
                    name: "b",
                    min_count: 1,
                },
                RoleSpec {
                    name: "bystander",
                    min_count: 0,
                },
            ],
            phases: vec![PhaseSpec {
                name: "match",
                actions: vec![
                    ("a", vec![ActionKind::Send, ActionKind::Broadcast]),
                    ("b", vec![ActionKind::Send]),
                    ("bystander", vec![]),
                ],
                exit: PhaseExit::Decision,
            }],
        }
    }

    fn node(&self, index: usize, model: &Model, projection: &Projection) -> Self::Node {
        let ports = model.ports().expect("matching runs under message passing");
        if index < self.a {
            let b_ports: Vec<usize> = (self.a..self.a + self.b)
                .map(|target| ports.port_towards(index, target))
                .collect();
            PortMachine::new(
                MatchingRole::new_a(self.a, b_ports),
                projection.local("a").clone(),
            )
        } else if index < self.a + self.b {
            PortMachine::new(MatchingRole::new_b(self.a), projection.local("b").clone())
        } else {
            PortMachine::new(
                MatchingRole::bystander(self.a),
                projection.local("bystander").clone(),
            )
        }
    }
}

// ---------------------------------------------------------------------------
// Appendix C reduction and consensus
// ---------------------------------------------------------------------------

/// The centralized solver the leader applies to the multiset of inputs:
/// maps the sorted input multiset to an input-value → output-value table.
/// It is `Send + Sync` because the Monte-Carlo backend builds nodes from
/// worker threads.
pub type SharedSolver = Arc<dyn Fn(&[u64]) -> BTreeMap<u64, u64> + Send + Sync>;

/// Messages of the reduction: inner election messages, then task phases.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum ReductionMsg<M> {
    /// A message of the inner leader-election protocol.
    Inner(M),
    /// Phase 1: a node's input value.
    Input(u64),
    /// Phase 2: the leader's input → output table, as sorted pairs.
    Table(Vec<(u64, u64)>),
}

impl<M: Wire> Wire for ReductionMsg<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ReductionMsg::Inner(m) => {
                out.push(0);
                m.encode(out);
            }
            ReductionMsg::Input(v) => {
                out.push(1);
                v.encode(out);
            }
            ReductionMsg::Table(t) => {
                out.push(2);
                t.encode(out);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(ReductionMsg::Inner(M::decode(buf)?)),
            1 => Ok(ReductionMsg::Input(u64::decode(buf)?)),
            2 => Ok(ReductionMsg::Table(Vec::decode(buf)?)),
            _ => Err(WireError::new("invalid ReductionMsg tag")),
        }
    }

    fn wire_len(&self) -> usize {
        1 + match self {
            ReductionMsg::Inner(m) => m.wire_len(),
            ReductionMsg::Input(v) => v.wire_len(),
            ReductionMsg::Table(t) => t.wire_len(),
        }
    }
}

/// Projected role of [`ReductionChoreo`]: run the inner election, publish
/// inputs, the leader publishes the table, decide.
///
/// The inner elections of this crate decide in the same round at every
/// node, so the three task phases run in lockstep after it:
///
/// 1. every node publishes its input value;
/// 2. the leader computes an input-value → output-value table from the
///    input multiset (the centralized solve) and publishes it;
/// 3. every node outputs the table entry for its own input.
pub struct ReductionRole<N: Protocol<Output = Role>> {
    inner: N,
    input: u64,
    solver: SharedSolver,
    elected_round: Option<usize>,
    inputs_seen: Option<Vec<u64>>,
    output: Option<u64>,
    current_phase: usize,
}

impl<N: Protocol<Output = Role>> std::fmt::Debug for ReductionRole<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReductionRole")
            .field("input", &self.input)
            .field("elected_round", &self.elected_round)
            .field("output", &self.output)
            .finish_non_exhaustive()
    }
}

impl<N: Protocol<Output = Role>> ReductionRole<N> {
    /// Wraps an inner election node with this node's input and solver.
    pub fn new(inner: N, input: u64, solver: SharedSolver) -> Self {
        ReductionRole {
            inner,
            input,
            solver,
            elected_round: None,
            inputs_seen: None,
            output: None,
            current_phase: 0,
        }
    }
}

/// Re-publishes a task message under whichever model is running.
fn publish<M: Clone + Ord + std::fmt::Debug>(
    view: &View<'_, ReductionMsg<M>>,
    msg: ReductionMsg<M>,
) -> AnyAction<ReductionMsg<M>> {
    match view {
        View::Board(_) => AnyAction::Post(msg),
        View::Ports(_) => AnyAction::Broadcast(msg),
    }
}

/// Collects incoming task messages matching `f`, model-agnostically.
fn collect<M, T>(
    view: &View<'_, ReductionMsg<M>>,
    f: impl Fn(&ReductionMsg<M>) -> Option<T>,
) -> Vec<T>
where
    M: Clone + Ord + std::fmt::Debug,
{
    match view {
        View::Board(msgs) => msgs.iter().filter_map(f).collect(),
        View::Ports(slots) => slots.iter().flatten().filter_map(f).collect(),
    }
}

/// Rebuilds the inner protocol's incoming view from the reduction's.
fn project_inner<M: Clone + Ord + std::fmt::Debug>(
    view: &View<'_, ReductionMsg<M>>,
) -> Incoming<M> {
    match view {
        View::Board(msgs) => Incoming::Board(
            msgs.iter()
                .filter_map(|m| match m {
                    ReductionMsg::Inner(x) => Some(x.clone()),
                    _ => None,
                })
                .collect(),
        ),
        View::Ports(slots) => Incoming::Ports(
            slots
                .iter()
                .map(|s| match s {
                    Some(ReductionMsg::Inner(x)) => Some(x.clone()),
                    _ => None,
                })
                .collect(),
        ),
    }
}

/// Lifts the inner protocol's outgoing messages into the reduction
/// alphabet.
fn lift_inner<M: Clone + Ord + std::fmt::Debug>(out: Outgoing<M>) -> AnyAction<ReductionMsg<M>> {
    match out {
        Outgoing::Silent => AnyAction::Silent,
        Outgoing::Post(m) => AnyAction::Post(ReductionMsg::Inner(m)),
        Outgoing::Send(v) => AnyAction::Send(
            v.into_iter()
                .map(|(p, m)| (p, ReductionMsg::Inner(m)))
                .collect(),
        ),
        Outgoing::Broadcast(m) => AnyAction::Broadcast(ReductionMsg::Inner(m)),
    }
}

impl<N: Protocol<Output = Role>> DualRole for ReductionRole<N>
where
    N::Msg: Wire,
{
    type Msg = ReductionMsg<N::Msg>;
    type Output = u64;

    fn step(&mut self, ctx: RoundCtx, view: View<'_, Self::Msg>) -> AnyAction<Self::Msg> {
        // Phase 0: run the inner election until it decides.
        let elected_round = match self.elected_round {
            None => {
                let inner_incoming = project_inner(&view);
                let out = self.inner.round(ctx, &inner_incoming);
                if self.inner.output().is_some() {
                    self.elected_round = Some(ctx.round);
                    self.current_phase = 1;
                }
                return lift_inner(out);
            }
            Some(r) => r,
        };
        // Phase 1: publish the input.
        if ctx.round == elected_round + 1 {
            self.current_phase = 2;
            return publish(&view, ReductionMsg::Input(self.input));
        }
        // Phase 2: the leader publishes the table.
        if ctx.round == elected_round + 2 {
            let mut inputs: Vec<u64> = collect(&view, |m| match m {
                ReductionMsg::Input(v) => Some(*v),
                _ => None,
            });
            inputs.push(self.input);
            inputs.sort_unstable();
            self.inputs_seen = Some(inputs.clone());
            self.current_phase = 3;
            if self.inner.output() == Some(Role::Leader) {
                let table: Vec<(u64, u64)> = (self.solver)(&inputs).into_iter().collect();
                return publish(&view, ReductionMsg::Table(table));
            }
            return AnyAction::Silent;
        }
        // Phase 3: read the table and decide.
        if ctx.round == elected_round + 3 && self.output.is_none() {
            let tables: Vec<Vec<(u64, u64)>> = collect(&view, |m| match m {
                ReductionMsg::Table(t) => Some(t.clone()),
                _ => None,
            });
            let table = if self.inner.output() == Some(Role::Leader) {
                let inputs = self.inputs_seen.as_ref().expect("phase 2 ran");
                (self.solver)(inputs).into_iter().collect()
            } else {
                tables.into_iter().next().expect("leader published a table")
            };
            let map: BTreeMap<u64, u64> = table.into_iter().collect();
            self.output = Some(*map.get(&self.input).expect("table covers all inputs"));
        }
        AnyAction::Silent
    }

    fn decision(&self) -> Option<u64> {
        self.output
    }

    fn phase(&self) -> usize {
        self.current_phase
    }

    fn msg_bytes(msg: &Self::Msg) -> usize {
        msg.wire_len()
    }
}

/// The Appendix C reduction (Theorem C.1) as a choreography: any
/// name-independent task over an inner leader-election choreography. The
/// node logic is [`ReductionRole`].
///
/// A task `(I, O, Δ)` is *name-independent* when parties holding the same
/// input value must produce the same output value. Publishing the *table*
/// rather than per-node outputs keeps the reduction anonymous: nobody
/// needs to address anybody. The construction is generic over the inner
/// election, so it runs in both the blackboard and the message-passing
/// model, and it stalls exactly when the inner election does.
pub struct ReductionChoreo<C: Choreography>
where
    C::Node: Protocol<Output = Role>,
{
    name: &'static str,
    inner: C,
    inputs: Vec<u64>,
    solver: SharedSolver,
}

impl<C: Choreography> ReductionChoreo<C>
where
    C::Node: Protocol<Output = Role>,
{
    /// Builds the reduction over `inner`, with per-node `inputs` and the
    /// centralized `solver`.
    pub fn new(name: &'static str, inner: C, inputs: Vec<u64>, solver: SharedSolver) -> Self {
        ReductionChoreo {
            name,
            inner,
            inputs,
            solver,
        }
    }
}

impl<C: Choreography> Choreography for ReductionChoreo<C>
where
    C::Node: Protocol<Output = Role>,
    <C::Node as Protocol>::Msg: Wire,
{
    type Node = DualMachine<ReductionRole<C::Node>>;

    fn name(&self) -> &'static str {
        self.name
    }

    fn global(&self) -> GlobalProtocol {
        GlobalProtocol {
            name: "via-leader",
            model: ModelClass::Any,
            participation: Participation::Sparse,
            roles: vec![RoleSpec {
                name: "node",
                min_count: 1,
            }],
            phases: vec![
                PhaseSpec {
                    name: "elect",
                    actions: vec![(
                        "node",
                        vec![ActionKind::Post, ActionKind::Send, ActionKind::Broadcast],
                    )],
                    exit: PhaseExit::Guard("inner election decided"),
                },
                PhaseSpec {
                    name: "publish-input",
                    actions: vec![("node", vec![ActionKind::Post, ActionKind::Broadcast])],
                    exit: PhaseExit::Rounds(1),
                },
                PhaseSpec {
                    name: "publish-table",
                    actions: vec![("node", vec![ActionKind::Post, ActionKind::Broadcast])],
                    exit: PhaseExit::Rounds(1),
                },
                PhaseSpec {
                    name: "decide",
                    actions: vec![("node", vec![])],
                    exit: PhaseExit::Decision,
                },
            ],
        }
    }

    fn node(&self, index: usize, model: &Model, projection: &Projection) -> Self::Node {
        let inner_projection = self
            .inner
            .global()
            .project(model, projection.n())
            .expect("inner election projects wherever the reduction does");
        let inner_node = self.inner.node(index, model, &inner_projection);
        DualMachine::new(
            ReductionRole::new(inner_node, self.inputs[index], self.solver.clone()),
            projection.local("node").clone(),
        )
    }
}

/// The consensus solver as a [`SharedSolver`]: every input maps to the
/// minimal input (validity: the decision is someone's input; agreement:
/// the table is constant).
pub fn consensus_shared_solver() -> SharedSolver {
    Arc::new(|inputs: &[u64]| {
        let decision = *inputs.iter().min().expect("at least one input");
        inputs.iter().map(|&v| (v, decision)).collect()
    })
}

/// Consensus via the reduction over an inner election choreography.
///
/// Consensus (everyone outputs the same value, which must be some party's
/// input) is name-independent: parties with equal inputs trivially agree.
/// The paper notes (footnote 3) that consensus is deterministically
/// solvable in the fault-free setting; here it serves as the canonical
/// demonstration of Theorem C.1. Check a run with [`check_consensus`].
pub fn consensus_choreo<C: Choreography>(inner: C, inputs: Vec<u64>) -> ReductionChoreo<C>
where
    C::Node: Protocol<Output = Role>,
{
    ReductionChoreo::new(
        "consensus-via-leader",
        inner,
        inputs,
        consensus_shared_solver(),
    )
}

/// Checks the two consensus properties on a complete output vector and
/// returns the decision.
///
/// # Errors
///
/// A description of the first violation:
///
/// * completeness — some node is undecided;
/// * agreement — two nodes decided different values;
/// * validity — the decision is not among the inputs.
pub fn check_consensus(inputs: &[u64], outputs: &[Option<u64>]) -> Result<u64, String> {
    let decided: Vec<u64> = outputs
        .iter()
        .map(|o| o.ok_or_else(|| "undecided node".to_string()))
        .collect::<Result<_, _>>()?;
    let first = decided[0];
    if decided.iter().any(|&d| d != first) {
        return Err(format!("agreement violated: {decided:?}"));
    }
    if !inputs.contains(&first) {
        return Err(format!("validity violated: {first} not among inputs"));
    }
    Ok(first)
}

/// Every global protocol registered on the choreography layer, one entry
/// per distinct [`GlobalProtocol`] description.
///
/// This is the enumeration hook for ahead-of-time analysis
/// (`rsbt-analyze`'s projection checker exhaustively projects each entry
/// across both model classes and an `n`-range): a choreography whose
/// global description is not returned here is invisible to the static
/// pass, so new protocols must be added to this list. Parameterized
/// choreographies contribute one representative — their `global()` does
/// not depend on the parameters (only `node()` does).
pub fn registered_globals() -> Vec<GlobalProtocol> {
    vec![
        BleChoreo.global(),
        WsbChoreo.global(),
        KLeaderChoreo { k: 2 }.global(),
        DeputyChoreo.global(),
        EuclidChoreo { k: 2 }.global(),
        MatchingChoreo { a: 1, b: 1 }.global(),
        consensus_choreo(BleChoreo, Vec::new()).global(),
    ]
}

#[cfg(test)]
mod registry_tests {
    use super::*;

    #[test]
    fn registry_names_are_distinct_and_validate() {
        let globals = registered_globals();
        assert_eq!(globals.len(), 7);
        for (i, g) in globals.iter().enumerate() {
            g.validate().unwrap_or_else(|e| panic!("{}: {e}", g.name));
            assert!(
                globals[..i].iter().all(|h| h.name != g.name),
                "duplicate global name {}",
                g.name
            );
        }
    }

    #[test]
    fn registry_globals_match_choreography_accessors() {
        // The representative instances must return the very description a
        // backend would project: same name, model class, phase count.
        let from_registry = registered_globals();
        let direct = [
            BleChoreo.global(),
            WsbChoreo.global(),
            KLeaderChoreo { k: 3 }.global(),
            DeputyChoreo.global(),
            EuclidChoreo { k: 3 }.global(),
            MatchingChoreo { a: 2, b: 3 }.global(),
            consensus_choreo(BleChoreo, vec![7, 7]).global(),
        ];
        for (r, d) in from_registry.iter().zip(direct.iter()) {
            assert_eq!(r.name, d.name);
            assert_eq!(r.model, d.model);
            assert_eq!(r.phases.len(), d.phases.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rsbt_random::gcd;

    use super::*;

    /// The sort-based classes that the merging [`board_classes`] replaced.
    fn board_classes_by_sort(board: &[Vec<bool>], mine: &Vec<bool>) -> Vec<(Vec<bool>, usize)> {
        let mut all: Vec<&Vec<bool>> = board.iter().chain(std::iter::once(mine)).collect();
        all.sort();
        let mut classes: Vec<(Vec<bool>, usize)> = Vec::new();
        for s in all {
            match classes.last_mut() {
                Some((rep, count)) if rep == s => *count += 1,
                _ => classes.push((s.clone(), 1)),
            }
        }
        classes
    }

    fn assert_classes_agree(board: &[Vec<bool>], mine: &Vec<bool>) {
        let merged: Vec<(Vec<bool>, usize)> = board_classes(board, mine)
            .map(|(s, count)| (s.clone(), count))
            .collect();
        assert_eq!(
            merged,
            board_classes_by_sort(board, mine),
            "board {board:?}, mine {mine:?}"
        );
    }

    fn random_string(rng: &mut StdRng, len: usize) -> Vec<bool> {
        (0..len).map(|_| rng.gen::<bool>()).collect()
    }

    #[test]
    fn wire_len_is_the_encoded_length() {
        fn check<M: Wire + std::fmt::Debug>(msg: M) {
            let mut buf = Vec::new();
            msg.encode(&mut buf);
            assert_eq!(msg.wire_len(), buf.len(), "{msg:?}");
        }
        for msg in [
            EuclidMsg::Hist(vec![]),
            EuclidMsg::Hist(vec![true, false, true]),
            EuclidMsg::Req,
            EuclidMsg::Ack,
            EuclidMsg::AnnB,
            EuclidMsg::AnnA,
        ] {
            check(msg.clone());
            check(ReductionMsg::Inner(msg));
        }
        check(ReductionMsg::<EuclidMsg>::Input(7));
        check(ReductionMsg::<EuclidMsg>::Table(vec![]));
        check(ReductionMsg::<EuclidMsg>::Table(vec![(1, 2), (3, 4)]));
    }

    #[test]
    fn merged_board_classes_equal_sorted_classes() {
        let (f, t) = (false, true);
        // Empty board: the node's own string is the only class.
        assert_classes_agree(&[], &vec![t]);
        // Own string equal to several entries, last among them.
        assert_classes_agree(&[vec![f], vec![t], vec![t], vec![t]], &vec![t]);
        // Own string first, and last.
        assert_classes_agree(&[vec![f, t], vec![t, f], vec![t, f]], &vec![f, f]);
        assert_classes_agree(&[vec![f, f], vec![f, f], vec![f, t]], &vec![t, t]);
        // Random sorted boards of short strings, so collisions are common;
        // half the time the own string is drawn from the board.
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..2000 {
            let len = rng.gen_range(0..4usize);
            let size = rng.gen_range(0..9usize);
            let mut board: Vec<Vec<bool>> =
                (0..size).map(|_| random_string(&mut rng, len)).collect();
            board.sort();
            let mine = if size > 0 && rng.gen::<bool>() {
                board[rng.gen_range(0..size)].clone()
            } else {
                random_string(&mut rng, len)
            };
            assert_classes_agree(&board, &mine);
        }
        // The reduction hands its inner election a board filtered out of
        // its own sorted board; the filter keeps the order.
        for _ in 0..200 {
            let len = rng.gen_range(1..4usize);
            let mut outer: Vec<ReductionMsg<Vec<bool>>> = (0..rng.gen_range(0..9usize))
                .map(|_| match rng.gen_range(0..3u32) {
                    0 => ReductionMsg::Input(rng.gen_range(0..4u64)),
                    1 => ReductionMsg::Table(vec![(rng.gen_range(0..4u64), 0)]),
                    _ => ReductionMsg::Inner(random_string(&mut rng, len)),
                })
                .collect();
            outer.sort();
            let Incoming::Board(board) = project_inner(&View::Board(BoardView::new(&outer))) else {
                unreachable!("a board view projects to a board");
            };
            assert_classes_agree(&board, &random_string(&mut rng, len));
        }
    }

    #[test]
    fn euclid_subtractive_sizes_keep_the_gcd_and_reach_a_singleton() {
        // The pair-selection arithmetic alone, without a run.
        let mut node = EuclidRole::new(3);
        node.sizes = vec![4, 6, 9];
        let g0 = gcd::gcd_many(&[4, 6, 9]);
        while let Some((a, b)) = node.select_pair() {
            assert!(node.sizes[a] <= node.sizes[b], "A is the smaller group");
            if node.sizes[a] == 1 || node.sizes[b] == 1 {
                break;
            }
            node.sizes[b] -= node.sizes[a];
            let live: Vec<u64> = node
                .sizes
                .iter()
                .filter(|&&s| s > 0)
                .map(|&s| s as u64)
                .collect();
            assert_eq!(gcd::gcd_many(&live), g0, "gcd invariant");
        }
        assert_eq!(node.winner_group(), Some(2));
    }

    #[test]
    fn draw_index_rejection_samples_and_consumes_rejected_bits() {
        let mut buffer = Vec::new();
        // m = 1 needs no bits.
        assert_eq!(draw_index(&mut buffer, 1), Some(0));
        // m = 3 needs 2 bits, and cannot decide on fewer.
        buffer = vec![true];
        assert_eq!(draw_index(&mut buffer, 3), None);
        assert_eq!(buffer, [true], "an undecided draw keeps its bits");
        // "11" = 3 is rejected, and its bits are spent.
        buffer = vec![true, true];
        assert_eq!(draw_index(&mut buffer, 3), None);
        assert!(buffer.is_empty(), "rejected bits are consumed");
        buffer = vec![true, false, true];
        assert_eq!(draw_index(&mut buffer, 3), Some(2));
        assert_eq!(buffer, [true]);
    }

    #[test]
    fn k_leader_chooses_the_lexicographically_first_classes() {
        for (sizes, k, want) in [
            (&[1, 1, 3][..], 2, Some(vec![0, 1])),
            (&[3, 2], 2, Some(vec![1])),
            (&[3, 1], 2, None),
            (&[2, 1, 1], 4, Some(vec![0, 1, 2])),
            (&[], 1, None),
        ] {
            assert_eq!(
                KLeaderRole::choose_classes(sizes, k),
                want,
                "{sizes:?} k={k}"
            );
        }
    }
}
