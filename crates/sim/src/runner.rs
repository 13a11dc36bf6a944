//! Synchronous runner for concrete anonymous protocols.
//!
//! While [`crate::Execution`] computes *full-information* knowledge (what
//! the topological framework consumes), real algorithms such as the paper's
//! `CreateMatching` (Algorithm 1) exchange small messages. This module runs
//! `n` identical anonymous state machines in lockstep rounds, wiring their
//! randomness through an [`Assignment`] so correlated sources are modeled
//! faithfully.

use std::fmt;
use std::ops::Deref;

use rand::Rng;
use rsbt_random::Assignment;

use crate::faults::FaultSchedule;
use crate::model::Model;
use crate::ports::PortNumbering;

/// Per-round context handed to each node.
#[derive(Clone, Copy, Debug)]
pub struct RoundCtx {
    /// The 1-based round number `r` (the round occurs between time `r − 1`
    /// and time `r`).
    pub round: usize,
    /// The bit `X_i(r)` received from the node's randomness source.
    pub bit: bool,
    /// The system size `n` (common knowledge in the paper's model).
    pub n: usize,
}

/// Messages received by a node at the start of a round.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Incoming<M> {
    /// Blackboard model: everything the *other* nodes posted in the
    /// previous round, sorted (anonymous, lexicographic board order; own
    /// post excluded, per Eq. 1). Empty in round 1.
    Board(Vec<M>),
    /// Message-passing model: `ports[j - 1]` holds the message (if any)
    /// that arrived through port `j`. Empty slots in round 1.
    Ports(Vec<Option<M>>),
}

/// Model-typed view of a blackboard round: the other nodes' posts from the
/// previous round, in lexicographic order.
///
/// Produced by [`Incoming::board_view`]; a protocol written against this
/// type can only ever observe blackboard input, so wiring it to the
/// message-passing model is rejected before any round runs instead of
/// panicking mid-execution.
#[derive(Clone, Copy, Debug)]
pub struct BoardView<'a, M> {
    msgs: &'a [M],
}

impl<'a, M> BoardView<'a, M> {
    /// Wraps a sorted board slice.
    pub fn new(msgs: &'a [M]) -> Self {
        BoardView { msgs }
    }

    /// The board content as a slice (also available through `Deref`).
    pub fn as_slice(&self) -> &'a [M] {
        self.msgs
    }
}

impl<M> Deref for BoardView<'_, M> {
    type Target = [M];

    fn deref(&self) -> &[M] {
        self.msgs
    }
}

/// Model-typed view of a message-passing round: `slot j - 1` holds the
/// message (if any) that arrived through port `j`.
///
/// Produced by [`Incoming::ports_view`]; the dual of [`BoardView`] for the
/// message-passing model.
#[derive(Clone, Copy, Debug)]
pub struct PortsView<'a, M> {
    slots: &'a [Option<M>],
}

impl<'a, M> PortsView<'a, M> {
    /// Wraps a per-port slot slice.
    pub fn new(slots: &'a [Option<M>]) -> Self {
        PortsView { slots }
    }

    /// The per-port slots as a slice (also available through `Deref`).
    pub fn as_slice(&self) -> &'a [Option<M>] {
        self.slots
    }
}

impl<M> Deref for PortsView<'_, M> {
    type Target = [Option<M>];

    fn deref(&self) -> &[Option<M>] {
        self.slots
    }
}

impl<M> Incoming<M> {
    /// The blackboard view, or `None` under message passing.
    ///
    /// Non-panicking and model-typed: the choreography layer's projected
    /// machines receive a [`BoardView`] directly, so a model mismatch
    /// surfaces at projection time rather than as a runtime panic.
    pub fn board_view(&self) -> Option<BoardView<'_, M>> {
        match self {
            Incoming::Board(b) => Some(BoardView::new(b)),
            Incoming::Ports(_) => None,
        }
    }

    /// The per-port view, or `None` under the blackboard model.
    ///
    /// Non-panicking, model-typed dual of [`Incoming::board_view`].
    pub fn ports_view(&self) -> Option<PortsView<'_, M>> {
        match self {
            Incoming::Ports(p) => Some(PortsView::new(p)),
            Incoming::Board(_) => None,
        }
    }
}

/// Messages emitted by a node at the end of a round.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Outgoing<M> {
    /// Send nothing this round.
    Silent,
    /// Blackboard model: append one message to the board.
    Post(M),
    /// Message-passing model: send each `(port, message)` pair (at most one
    /// message per port).
    Send(Vec<(usize, M)>),
    /// Message-passing model: send the same message through every port.
    Broadcast(M),
}

/// An anonymous synchronous protocol: `n` copies of the same state machine.
///
/// Nodes have no identifiers; a node may only distinguish neighbors by its
/// local port numbers, exactly as in the paper's model.
pub trait Protocol {
    /// Message alphabet. `Ord` is required so the blackboard can be
    /// presented in lexicographic order.
    type Msg: Clone + Ord + fmt::Debug;
    /// Decision value.
    type Output: Clone + fmt::Debug;

    /// Executes one round: consume the incoming messages and the fresh
    /// random bit, update local state, and emit outgoing messages.
    fn round(&mut self, ctx: RoundCtx, incoming: &Incoming<Self::Msg>) -> Outgoing<Self::Msg>;

    /// The node's decision, once made. The runner stops when every node
    /// has decided (or the round cap is hit).
    fn output(&self) -> Option<Self::Output>;

    /// Size in bytes charged to one message for the [`RunStats`]
    /// `max_msg_bytes` counter.
    ///
    /// Defaults to the in-memory size; protocols with a wire encoding
    /// override this with the encoded length so simulator and socket
    /// backends report comparable byte costs.
    fn msg_bytes(msg: &Self::Msg) -> usize {
        std::mem::size_of_val(msg)
    }
}

/// Per-run communication counters, accumulated by the runner.
///
/// The socket backend reports the same fields measured on the real wire,
/// so backend costs are directly comparable.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct RunStats {
    /// Total blackboard posts across all nodes and rounds.
    pub posts: u64,
    /// Total point-to-point deliveries (each [`Outgoing::Send`] entry
    /// counts once; a [`Outgoing::Broadcast`] counts `n − 1`).
    pub sends: u64,
    /// Largest single message, in bytes (see [`Protocol::msg_bytes`]).
    pub max_msg_bytes: usize,
    /// Nodes that crashed during the run (permanent silence — injected by
    /// a [`crate::faults::FaultSchedule`], or declared by the
    /// fault-tolerant socket coordinator).
    pub crashes: u64,
    /// Transmissions dropped by omission faults (a dropped
    /// [`Outgoing::Post`] counts 1, a dropped [`Outgoing::Send`] counts
    /// its entries, a dropped [`Outgoing::Broadcast`] counts `n − 1`).
    pub omissions: u64,
}

impl RunStats {
    /// Adds `other`'s counters into `self` (`max_msg_bytes` takes the
    /// larger). Commutative and associative, so merged totals do not
    /// depend on the order runs are merged in.
    pub fn merge(&mut self, other: &RunStats) {
        self.posts += other.posts;
        self.sends += other.sends;
        self.max_msg_bytes = self.max_msg_bytes.max(other.max_msg_bytes);
        self.crashes += other.crashes;
        self.omissions += other.omissions;
    }
}

/// The result of running a protocol.
#[derive(Clone, Debug)]
pub struct RunOutcome<O> {
    /// Per-node outputs (`None` for undecided nodes on timeout, and
    /// always `None` for crashed nodes).
    pub outputs: Vec<Option<O>>,
    /// Rounds executed.
    pub rounds: usize,
    /// Whether every *live* (non-crashed) node decided before the round
    /// cap.
    pub completed: bool,
    /// Message and byte counters for the run.
    pub stats: RunStats,
    /// Which nodes had crashed by the end of the run (all `false` on the
    /// fault-free paths).
    pub crashed: Vec<bool>,
}

/// Execution options for [`run_nodes_with`].
#[derive(Clone, Copy, Default, Debug)]
pub struct RunOptions {
    /// Enforce the blackboard full-participation invariant in *release*
    /// builds: in every round, each node that has not decided by the end
    /// of the round must have posted exactly one message, and each node
    /// that has decided must have stayed silent.
    ///
    /// This promotes the debug-only `debug_assert` the blackboard
    /// protocols used to carry locally into a runner-level check. Only
    /// meaningful under [`Model::Blackboard`]; ignored (vacuously true)
    /// under message passing.
    pub full_participation: bool,
}

/// Runs `n` identical nodes of protocol `P` under `model`, drawing
/// randomness through `alpha`, for at most `max_rounds` rounds.
///
/// `make` constructs one fresh node; it is called `n` times with no
/// arguments so that nodes are genuinely identical (anonymity).
///
/// # Panics
///
/// Panics if `alpha.n()` disagrees with the model's node count, or if a
/// node emits a message kind that does not match the model (e.g.
/// [`Outgoing::Post`] under message passing).
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use rsbt_random::Assignment;
/// use rsbt_sim::runner::{run, Incoming, Outgoing, Protocol, RoundCtx};
/// use rsbt_sim::Model;
///
/// /// Every node posts its bit and decides on the sorted board.
/// #[derive(Default)]
/// struct OneShot { decided: Option<Vec<bool>> }
/// impl Protocol for OneShot {
///     type Msg = bool;
///     type Output = Vec<bool>;
///     fn round(&mut self, ctx: RoundCtx, incoming: &Incoming<bool>) -> Outgoing<bool> {
///         if ctx.round == 1 {
///             Outgoing::Post(ctx.bit)
///         } else {
///             self.decided = Some(incoming.board_view().unwrap().to_vec());
///             Outgoing::Silent
///         }
///     }
///     fn output(&self) -> Option<Vec<bool>> { self.decided.clone() }
/// }
///
/// let alpha = Assignment::private(3);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let out = run(&Model::Blackboard, &alpha, 10, OneShot::default, &mut rng);
/// assert!(out.completed);
/// assert_eq!(out.rounds, 2);
/// assert_eq!(out.stats.posts, 3);
/// ```
pub fn run<P, F, R>(
    model: &Model,
    alpha: &Assignment,
    max_rounds: usize,
    make: F,
    rng: &mut R,
) -> RunOutcome<P::Output>
where
    P: Protocol,
    F: Fn() -> P,
    R: Rng + ?Sized,
{
    let nodes: Vec<P> = (0..alpha.n()).map(|_| make()).collect();
    let options = RunOptions::default();
    run_nodes_with(model, alpha, max_rounds, nodes, rng, options, None)
}

/// Like [`run`], with caller-constructed nodes, explicit [`RunOptions`]
/// and an optional [`FaultSchedule`].
///
/// Caller-constructed nodes serve input-output tasks, where nodes run
/// identical *code* but carry different inputs (the Appendix C
/// reduction); the choreography layer derives the options from the
/// projected global protocol.
///
/// `faults: None` is the fault-free run. Under a schedule (see
/// [`crate::faults`]): a node that *omits* in a round still executes it,
/// but every transmission it emitted is dropped (counted in
/// [`RunStats::omissions`]); a node that has *crashed* stops executing
/// entirely — its output is reported as `None` even if it had decided
/// earlier, it is flagged in [`RunOutcome::crashed`], and completion only
/// requires the live nodes to decide. Source bits are drawn identically
/// every round regardless of faults, so runs under different schedules
/// stay coupled to the same randomness.
///
/// # Panics
///
/// Same conditions as [`run`], plus `nodes.len()` and `faults.n()` must
/// equal `alpha.n()`. Also panics — in release builds too — when
/// `options.full_participation` is set under the blackboard model and a
/// round violates the invariant documented on
/// [`RunOptions::full_participation`] (nodes silent in that round are
/// exempt).
pub fn run_nodes_with<P, R>(
    model: &Model,
    alpha: &Assignment,
    max_rounds: usize,
    mut nodes: Vec<P>,
    rng: &mut R,
    options: RunOptions,
    faults: Option<&FaultSchedule>,
) -> RunOutcome<P::Output>
where
    P: Protocol,
    R: Rng + ?Sized,
{
    let n = alpha.n();
    assert_eq!(nodes.len(), n, "one node per assignment slot");
    if let Some(faults) = faults {
        assert_eq!(faults.n(), n, "fault schedule covers {} nodes", faults.n());
    }
    let crashed_by = |i: usize, round: usize| faults.is_some_and(|f| f.crashed_by(i, round));
    let mut lockstep = Lockstep::new(model, alpha, options, P::msg_bytes);
    let mut rounds = 0;
    for round in 1..=max_rounds {
        rounds = round;
        lockstep.start_round(round, rng);
        for (i, node) in nodes.iter_mut().enumerate() {
            if crashed_by(i, round) {
                // Dead: no execution at all. Mail addressed to it is
                // simply never read.
                continue;
            }
            let (bit, incoming) = lockstep.view(i);
            let out = node.round(RoundCtx { round, bit, n }, incoming);
            let silent = faults.is_some_and(|f| f.is_silent(i, round));
            let decided = || node.output().is_some();
            if let Err(e) = lockstep.deliver(i, out, silent, decided) {
                panic!("{e}");
            }
        }
        if (0..n).all(|i| crashed_by(i, round) || nodes[i].output().is_some()) {
            break;
        }
    }
    let crashed = (0..n).map(|i| crashed_by(i, rounds)).collect();
    lockstep.finish(nodes.iter().map(Protocol::output).collect(), crashed)
}

/// A node's round output that breaks the lockstep round rule.
///
/// The in-process runner panics on it (a bug in a local protocol); the
/// socket coordinator reports it, prefixed with the node, as
/// [`crate::net::NetError::Protocol`] (the output came from another
/// process).
#[derive(Debug)]
pub(crate) enum RouteError {
    /// An [`Outgoing::Send`] entry names a port outside `1..n`.
    BadPort { port: usize, n: usize },
    /// Two [`Outgoing::Send`] entries of one node use the same port.
    DuplicateOnEdge,
    /// The outgoing kind (its `Debug` form) does not exist in the model.
    ModelMismatch { out: String, model: String },
    /// A round breaks [`RunOptions::full_participation`].
    Participation {
        round: usize,
        node: usize,
        undecided: bool,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::BadPort { port, n } => write!(f, "port {port} out of range for n={n}"),
            RouteError::DuplicateOnEdge => write!(f, "duplicate message on edge"),
            RouteError::ModelMismatch { out, model } => {
                write!(f, "outgoing message {out} does not match model {model}")
            }
            RouteError::Participation {
                round,
                node,
                undecided,
            } => write!(
                f,
                "full participation violated in round {round}: node {node} {}",
                if *undecided {
                    "is undecided but did not post"
                } else {
                    "has decided but posted"
                }
            ),
        }
    }
}

/// The lockstep round rule, shared by [`run_nodes_with`] and the socket
/// coordinator [`crate::net::run_coordinator`]: one bit per source per
/// round, each node's [`Incoming`] view, delivery of its [`Outgoing`],
/// the [`RunStats`] counters and the full-participation check.
///
/// A round is [`Self::start_round`], then [`Self::view`] and
/// [`Self::deliver`] once per live node, in any interleaving: views read
/// this round's mail, deliveries fill the next round's.
///
/// Buffers live as long as the run: the board and mailboxes are swapped
/// between rounds, and each node keeps one view buffer that
/// [`Self::view`] refills in place (board entries by `clone_from`, port
/// slots by a swap with the node's mailbox) and lends out. Once the
/// buffers have grown to a round's size, a round allocates nothing but
/// the messages the nodes post or send.
pub(crate) struct Lockstep<'a, M> {
    model: &'a Model,
    alpha: &'a Assignment,
    msg_bytes: fn(&M) -> usize,
    check_participation: bool,
    round: usize,
    /// This round's bit per source.
    bits: Vec<bool>,
    /// This round's board, stably sorted by message. Posts are tagged
    /// with the sender so a node's own post can be left out of its view
    /// (Eq. 1 hands node i the multiset {K_j : j ≠ i}); the tag never
    /// reaches the nodes, preserving anonymity.
    board: Vec<(usize, M)>,
    next_board: Vec<(usize, M)>,
    /// Message passing only: `mailboxes[i][j - 1]` is what node `i`
    /// receives through port `j` this round.
    mailboxes: Vec<Vec<Option<M>>>,
    next_mailboxes: Vec<Vec<Option<M>>>,
    /// Each node's view of this round, lent out by [`Self::view`].
    views: Vec<Incoming<M>>,
    stats: RunStats,
}

impl<'a, M: Clone + Ord + fmt::Debug> Lockstep<'a, M> {
    /// An empty round state; `msg_bytes` sizes each message for
    /// [`RunStats::max_msg_bytes`].
    ///
    /// # Panics
    ///
    /// Panics if a message-passing model's port numbering does not cover
    /// `alpha.n()` nodes.
    pub(crate) fn new(
        model: &'a Model,
        alpha: &'a Assignment,
        options: RunOptions,
        msg_bytes: fn(&M) -> usize,
    ) -> Self {
        let n = alpha.n();
        if let Model::MessagePassing(p) = model {
            assert_eq!(p.n(), n, "port numbering covers {} nodes, need {n}", p.n());
        }
        let slots = n.saturating_sub(1);
        let boxes = if model.is_blackboard() { 0 } else { n };
        let empty = || vec![vec![None; slots]; boxes];
        let view = || match model {
            Model::Blackboard => Incoming::Board(Vec::with_capacity(slots)),
            Model::MessagePassing(_) => Incoming::Ports(Vec::with_capacity(slots)),
        };
        Lockstep {
            model,
            alpha,
            msg_bytes,
            check_participation: options.full_participation && model.is_blackboard(),
            round: 0,
            bits: Vec::with_capacity(alpha.k()),
            board: Vec::new(),
            next_board: Vec::new(),
            mailboxes: empty(),
            next_mailboxes: empty(),
            views: (0..n).map(|_| view()).collect(),
            stats: RunStats::default(),
        }
    }

    /// Opens round `round`: the previous round's deliveries become this
    /// round's mail, and one bit per source is drawn, in source order.
    pub(crate) fn start_round<R: Rng + ?Sized>(&mut self, round: usize, rng: &mut R) {
        self.round = round;
        std::mem::swap(&mut self.board, &mut self.next_board);
        self.next_board.clear();
        // Stable, so equal messages keep sender order: each node's
        // filtered view is then exactly its own sorted board.
        self.board.sort_by(|a, b| a.1.cmp(&b.1));
        let slots = self.alpha.n().saturating_sub(1);
        for mailbox in &mut self.mailboxes {
            // A read mailbox holds its node's previous view (swapped in by
            // `view`); a crashed node's holds unread mail. Either is
            // cleared, keeping its allocation.
            mailbox.clear();
            mailbox.resize(slots, None);
        }
        std::mem::swap(&mut self.mailboxes, &mut self.next_mailboxes);
        self.bits.clear();
        self.bits
            .extend((0..self.alpha.k()).map(|_| rng.gen::<bool>()));
    }

    /// Node `i`'s bit this round, and its view of this round's mail: the
    /// other nodes' posts in lexicographic order, or one slot per port.
    /// The view is node `i`'s buffer, refilled in place; call this at most
    /// once per node per round (under message passing it takes the
    /// node's mailbox).
    pub(crate) fn view(&mut self, i: usize) -> (bool, &Incoming<M>) {
        match &mut self.views[i] {
            Incoming::Board(view) => {
                let mut len = 0;
                for (_, m) in self.board.iter().filter(|(sender, _)| *sender != i) {
                    match view.get_mut(len) {
                        Some(slot) => slot.clone_from(m),
                        None => view.push(m.clone()),
                    }
                    len += 1;
                }
                view.truncate(len);
            }
            Incoming::Ports(view) => std::mem::swap(view, &mut self.mailboxes[i]),
        }
        (self.bits[self.alpha.source_of(i)], &self.views[i])
    }

    /// Delivers node `i`'s round output into the next round. A `silent`
    /// (omitting) node's transmissions are dropped and counted in
    /// [`RunStats::omissions`], and it is exempt from the
    /// full-participation check, which asks `decided()` whether the node
    /// has decided by the end of this round.
    pub(crate) fn deliver(
        &mut self,
        i: usize,
        out: Outgoing<M>,
        silent: bool,
        decided: impl FnOnce() -> bool,
    ) -> Result<(), RouteError> {
        let n = self.alpha.n();
        let posted = matches!(out, Outgoing::Post(_));
        match (out, self.model) {
            (Outgoing::Silent, _) => {}
            (Outgoing::Post(_), Model::Blackboard) if silent => self.stats.omissions += 1,
            (Outgoing::Post(m), Model::Blackboard) => {
                self.stats.posts += 1;
                self.note_bytes(&m);
                self.next_board.push((i, m));
            }
            (Outgoing::Send(msgs), Model::MessagePassing(_)) if silent => {
                self.stats.omissions += msgs.len() as u64;
            }
            (Outgoing::Send(msgs), Model::MessagePassing(ports)) => {
                for (port, m) in msgs {
                    self.stats.sends += 1;
                    self.note_bytes(&m);
                    self.route(ports, i, port, m)?;
                }
            }
            (Outgoing::Broadcast(_), Model::MessagePassing(_)) if silent => {
                self.stats.omissions += n.saturating_sub(1) as u64;
            }
            (Outgoing::Broadcast(m), Model::MessagePassing(ports)) => {
                self.stats.sends += n.saturating_sub(1) as u64;
                self.note_bytes(&m);
                // Every port but the last gets a clone; the last takes `m`.
                for port in 1..n.saturating_sub(1) {
                    self.route(ports, i, port, m.clone())?;
                }
                if n > 1 {
                    self.route(ports, i, n - 1, m)?;
                }
            }
            (out, model) => {
                return Err(RouteError::ModelMismatch {
                    out: format!("{out:?}"),
                    model: model.to_string(),
                })
            }
        }
        if self.check_participation && !silent {
            let undecided = !decided();
            if posted != undecided {
                return Err(RouteError::Participation {
                    round: self.round,
                    node: i,
                    undecided,
                });
            }
        }
        Ok(())
    }

    fn note_bytes(&mut self, m: &M) {
        self.stats.max_msg_bytes = self.stats.max_msg_bytes.max((self.msg_bytes)(m));
    }

    /// Puts `m`, sent by node `i` through its port `port`, in the
    /// receiver's slot for the port it arrives on.
    fn route(
        &mut self,
        ports: &PortNumbering,
        i: usize,
        port: usize,
        m: M,
    ) -> Result<(), RouteError> {
        let n = self.alpha.n();
        if port < 1 || port >= n {
            return Err(RouteError::BadPort { port, n });
        }
        let target = ports.neighbor(i, port);
        let slot = &mut self.next_mailboxes[target][ports.port_towards(target, i) - 1];
        if slot.is_some() {
            return Err(RouteError::DuplicateOnEdge);
        }
        *slot = Some(m);
        Ok(())
    }

    /// The outcome after the last started round: crashed nodes report
    /// `None` and count in [`RunStats::crashes`], and completion covers
    /// the live nodes only.
    pub(crate) fn finish<O>(
        self,
        mut outputs: Vec<Option<O>>,
        crashed: Vec<bool>,
    ) -> RunOutcome<O> {
        let mut stats = self.stats;
        stats.crashes = crashed.iter().filter(|&&c| c).count() as u64;
        for (output, _) in outputs.iter_mut().zip(&crashed).filter(|(_, &c)| c) {
            *output = None;
        }
        RunOutcome {
            completed: outputs.iter().zip(&crashed).all(|(o, &c)| c || o.is_some()),
            outputs,
            rounds: self.round,
            stats,
            crashed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rsbt_random::Assignment;

    /// Counts how many distinct bits appeared on the board in round 1.
    #[derive(Default)]
    struct BitCounter {
        seen: Option<usize>,
    }

    impl Protocol for BitCounter {
        type Msg = bool;
        type Output = usize;

        fn round(&mut self, ctx: RoundCtx, incoming: &Incoming<bool>) -> Outgoing<bool> {
            if ctx.round == 1 {
                Outgoing::Post(ctx.bit)
            } else {
                if self.seen.is_none() {
                    let board = incoming.board_view().expect("blackboard protocol");
                    let distinct = board.windows(2).filter(|w| w[0] != w[1]).count() + 1;
                    self.seen = Some(if board.is_empty() { 0 } else { distinct });
                }
                Outgoing::Silent
            }
        }

        fn output(&self) -> Option<usize> {
            self.seen
        }
    }

    #[test]
    fn shared_source_posts_identical_bits() {
        let alpha = Assignment::shared(4);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let out = run(&Model::Blackboard, &alpha, 5, BitCounter::default, &mut rng);
            assert!(out.completed);
            assert_eq!(out.rounds, 2);
            for o in &out.outputs {
                assert_eq!(o.unwrap(), 1, "all bits equal under a shared source");
            }
        }
    }

    #[test]
    fn private_sources_eventually_differ() {
        let alpha = Assignment::private(4);
        let mut rng = StdRng::seed_from_u64(3);
        let mut saw_diff = false;
        for _ in 0..50 {
            let out = run(&Model::Blackboard, &alpha, 5, BitCounter::default, &mut rng);
            if out.outputs[0] == Some(2) {
                saw_diff = true;
            }
        }
        assert!(saw_diff, "independent bits differ with probability 7/8");
    }

    #[test]
    fn stats_count_posts_and_bytes() {
        let alpha = Assignment::private(4);
        let mut rng = StdRng::seed_from_u64(5);
        let out = run(&Model::Blackboard, &alpha, 5, BitCounter::default, &mut rng);
        assert!(out.completed);
        // Round 1: four posts; round 2: everyone decides silently.
        assert_eq!(out.stats.posts, 4);
        assert_eq!(out.stats.sends, 0);
        assert_eq!(out.stats.max_msg_bytes, std::mem::size_of::<bool>());
    }

    /// Message-passing echo: round 1 send bit on every port; round 2 decide
    /// on the multiset of received bits.
    #[derive(Default)]
    struct Echo {
        got: Option<Vec<bool>>,
    }

    impl Protocol for Echo {
        type Msg = bool;
        type Output = Vec<bool>;

        fn round(&mut self, ctx: RoundCtx, incoming: &Incoming<bool>) -> Outgoing<bool> {
            if ctx.round == 1 {
                Outgoing::Broadcast(ctx.bit)
            } else {
                if self.got.is_none() {
                    let ports = incoming.ports_view().expect("message-passing protocol");
                    let mut bits: Vec<bool> = ports.iter().map(|m| m.unwrap()).collect();
                    bits.sort_unstable();
                    self.got = Some(bits);
                }
                Outgoing::Silent
            }
        }

        fn output(&self) -> Option<Vec<bool>> {
            self.got.clone()
        }
    }

    #[test]
    fn broadcast_reaches_every_port() {
        let alpha = Assignment::private(3);
        let mut rng = StdRng::seed_from_u64(9);
        let out = run(
            &Model::message_passing_cyclic(3),
            &alpha,
            4,
            Echo::default,
            &mut rng,
        );
        assert!(out.completed);
        for o in &out.outputs {
            assert_eq!(o.as_ref().unwrap().len(), 2);
        }
        // Three broadcasts over two ports each.
        assert_eq!(out.stats.sends, 6);
        assert_eq!(out.stats.posts, 0);
    }

    /// Directed send: node sends its bit only through port 1 and records
    /// what shows up.
    #[derive(Default)]
    struct Port1 {
        got: Option<usize>,
    }

    impl Protocol for Port1 {
        type Msg = u8;
        type Output = usize;

        fn round(&mut self, ctx: RoundCtx, incoming: &Incoming<u8>) -> Outgoing<u8> {
            if ctx.round == 1 {
                Outgoing::Send(vec![(1, 7u8)])
            } else {
                if self.got.is_none() {
                    let ports = incoming.ports_view().expect("message-passing protocol");
                    self.got = Some(ports.iter().flatten().count());
                }
                Outgoing::Silent
            }
        }

        fn output(&self) -> Option<usize> {
            self.got
        }
    }

    #[test]
    fn unicast_is_delivered_once() {
        let alpha = Assignment::private(4);
        let mut rng = StdRng::seed_from_u64(11);
        let out = run(
            &Model::message_passing_cyclic(4),
            &alpha,
            4,
            Port1::default,
            &mut rng,
        );
        assert!(out.completed);
        // With cyclic ports every node's port 1 hits its successor: each
        // node receives exactly one message.
        assert!(out.outputs.iter().all(|o| *o == Some(1)));
        assert_eq!(out.stats.sends, 4);
    }

    /// A protocol that never decides — runner must time out gracefully.
    struct Mute;

    impl Protocol for Mute {
        type Msg = u8;
        type Output = ();

        fn round(&mut self, _ctx: RoundCtx, _incoming: &Incoming<u8>) -> Outgoing<u8> {
            Outgoing::Silent
        }

        fn output(&self) -> Option<()> {
            None
        }
    }

    #[test]
    fn timeout_reports_incomplete() {
        let alpha = Assignment::shared(2);
        let mut rng = StdRng::seed_from_u64(0);
        let out = run(&Model::Blackboard, &alpha, 3, || Mute, &mut rng);
        assert!(!out.completed);
        assert_eq!(out.rounds, 3);
        assert!(out.outputs.iter().all(Option::is_none));
    }

    #[test]
    fn empty_schedule_matches_fault_free_run() {
        // `None` is the fault-free run; a run with an explicit empty
        // schedule must be identical, RNG and all.
        let alpha = Assignment::private(4);
        let faults = crate::faults::FaultSchedule::empty(4, 0);
        let mut rng_a = StdRng::seed_from_u64(21);
        let mut rng_b = StdRng::seed_from_u64(21);
        let a = run(
            &Model::Blackboard,
            &alpha,
            5,
            BitCounter::default,
            &mut rng_a,
        );
        let nodes = (0..4).map(|_| BitCounter::default()).collect();
        let b = run_nodes_with(
            &Model::Blackboard,
            &alpha,
            5,
            nodes,
            &mut rng_b,
            RunOptions::default(),
            Some(&faults),
        );
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.stats, b.stats);
        assert!(b.crashed.iter().all(|&c| !c));
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "same draw count");
    }

    #[test]
    fn crashed_node_reports_none_and_survivors_decide() {
        // Node 2 crashes in round 1: it never posts, each survivor sees
        // a 2-post board (the other two live nodes), everyone live
        // decides in round 2, and the outcome flags the crash.
        let alpha = Assignment::private(4);
        let mut faults = crate::faults::FaultSchedule::empty(4, 5);
        faults.set_crash(2, 1);
        let mut rng = StdRng::seed_from_u64(5);
        let nodes = (0..4).map(|_| BitCounter::default()).collect();
        let out = run_nodes_with(
            &Model::Blackboard,
            &alpha,
            5,
            nodes,
            &mut rng,
            RunOptions::default(),
            Some(&faults),
        );
        assert!(out.completed, "live nodes decided");
        assert_eq!(out.crashed, vec![false, false, true, false]);
        assert_eq!(out.outputs[2], None, "crashed node's output is forced out");
        for i in [0usize, 1, 3] {
            assert!(out.outputs[i].is_some(), "survivor {i} decided");
        }
        assert_eq!(out.stats.crashes, 1);
        // Three live posts in round 1; the crashed node never executed,
        // so nothing of its was dropped either.
        assert_eq!(out.stats.posts, 3);
        assert_eq!(out.stats.omissions, 0);
    }

    #[test]
    fn omission_drops_the_post_and_counts_it() {
        let alpha = Assignment::private(3);
        let mut faults = crate::faults::FaultSchedule::empty(3, 5);
        faults.set_omission(1, 1);
        let mut rng = StdRng::seed_from_u64(13);
        let nodes = (0..3).map(|_| BitCounter::default()).collect();
        let out = run_nodes_with(
            &Model::Blackboard,
            &alpha,
            5,
            nodes,
            &mut rng,
            RunOptions {
                full_participation: true, // silent rounds are exempt
            },
            Some(&faults),
        );
        assert!(out.completed);
        assert_eq!(out.stats.posts, 2, "round-1 post of node 1 dropped");
        assert_eq!(out.stats.omissions, 1);
        assert_eq!(out.stats.crashes, 0);
        assert!(out.outputs[1].is_some(), "omitting node still decides");
    }

    /// Broadcasts in round 1, decides on how many messages arrived —
    /// tolerant of empty slots, so omissions surface in the output.
    #[derive(Default)]
    struct CountArrivals {
        got: Option<usize>,
    }

    impl Protocol for CountArrivals {
        type Msg = bool;
        type Output = usize;

        fn round(&mut self, ctx: RoundCtx, incoming: &Incoming<bool>) -> Outgoing<bool> {
            if ctx.round == 1 {
                Outgoing::Broadcast(ctx.bit)
            } else {
                if self.got.is_none() {
                    let ports = incoming.ports_view().expect("message-passing protocol");
                    self.got = Some(ports.iter().flatten().count());
                }
                Outgoing::Silent
            }
        }

        fn output(&self) -> Option<usize> {
            self.got
        }
    }

    #[test]
    fn omitted_broadcast_counts_per_port() {
        let alpha = Assignment::private(3);
        let mut faults = crate::faults::FaultSchedule::empty(3, 4);
        faults.set_omission(0, 1);
        let mut rng = StdRng::seed_from_u64(9);
        let nodes = (0..3).map(|_| CountArrivals::default()).collect();
        let out = run_nodes_with(
            &Model::message_passing_cyclic(3),
            &alpha,
            4,
            nodes,
            &mut rng,
            RunOptions::default(),
            Some(&faults),
        );
        assert!(out.completed);
        assert_eq!(out.stats.omissions, 2, "one dropped broadcast x 2 ports");
        assert_eq!(out.stats.sends, 4, "two live broadcasts delivered");
        // The omitting node still hears both neighbors; the neighbors
        // each miss exactly its message.
        assert_eq!(out.outputs[0], Some(2));
        assert_eq!(out.outputs[1], Some(1));
        assert_eq!(out.outputs[2], Some(1));
    }

    #[test]
    #[should_panic(expected = "does not match model")]
    fn model_mismatch_panics() {
        struct BadPost;
        impl Protocol for BadPost {
            type Msg = u8;
            type Output = ();
            fn round(&mut self, _ctx: RoundCtx, _incoming: &Incoming<u8>) -> Outgoing<u8> {
                Outgoing::Post(0)
            }
            fn output(&self) -> Option<()> {
                None
            }
        }
        let alpha = Assignment::shared(2);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = run(
            &Model::message_passing_cyclic(2),
            &alpha,
            2,
            || BadPost,
            &mut rng,
        );
    }

    #[test]
    #[should_panic(expected = "full participation violated")]
    fn full_participation_catches_silent_undecided_node() {
        // `Mute` never decides and never posts: under the invariant this
        // must abort in round 1 — in release builds too (plain `assert`).
        let alpha = Assignment::shared(3);
        let mut rng = StdRng::seed_from_u64(0);
        let nodes = vec![Mute, Mute, Mute];
        let _ = run_nodes_with(
            &Model::Blackboard,
            &alpha,
            3,
            nodes,
            &mut rng,
            RunOptions {
                full_participation: true,
            },
            None,
        );
    }

    #[test]
    fn full_participation_accepts_conforming_protocol() {
        // BitCounter posts while undecided and is silent once decided, so
        // the invariant holds in every round.
        let alpha = Assignment::private(4);
        let mut rng = StdRng::seed_from_u64(7);
        let nodes = (0..4).map(|_| BitCounter::default()).collect();
        let out = run_nodes_with(
            &Model::Blackboard,
            &alpha,
            5,
            nodes,
            &mut rng,
            RunOptions {
                full_participation: true,
            },
            None,
        );
        assert!(out.completed);
    }
}
