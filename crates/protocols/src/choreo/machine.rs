//! Projected local machines: model-typed role traits and the adapters
//! that turn a role into a runner [`Protocol`].
//!
//! A role written against [`BoardRole`] receives a [`BoardView`] — the
//! *type system* makes it impossible for blackboard logic to read port
//! slots, so the old panicking accessors are unnecessary. The adapters
//! ([`BoardMachine`], [`PortMachine`], [`DualMachine`]) wrap a role
//! together with its projected [`LocalSpec`] and check every emitted
//! action against the global protocol's declaration before handing it to
//! the runner, and translate the role's typed action into the runner's
//! untyped [`Outgoing`].

use std::fmt;

use rsbt_sim::runner::{BoardView, Incoming, Outgoing, PortsView, Protocol, RoundCtx};

use super::global::{ActionKind, LocalSpec};

/// What a blackboard role may emit in a round.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BoardAction<M> {
    /// Post nothing.
    Silent,
    /// Append one message to the board.
    Post(M),
}

/// What a message-passing role may emit in a round.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PortAction<M> {
    /// Send nothing.
    Silent,
    /// Send each `(port, message)` pair.
    Send(Vec<(usize, M)>),
    /// Send one message through every port.
    Broadcast(M),
}

/// What a model-generic role may emit in a round (used by protocols that
/// run under either model, like the Appendix C reduction).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AnyAction<M> {
    /// Send nothing.
    Silent,
    /// Blackboard: append one message to the board.
    Post(M),
    /// Message passing: send each `(port, message)` pair.
    Send(Vec<(usize, M)>),
    /// Message passing: send one message through every port.
    Broadcast(M),
}

/// The incoming view of a model-generic role: whichever the model gives.
#[derive(Clone, Copy, Debug)]
pub enum View<'a, M> {
    /// Blackboard content (other nodes' posts, sorted).
    Board(BoardView<'a, M>),
    /// Per-port slots.
    Ports(PortsView<'a, M>),
}

/// A projected blackboard role: a state machine that reads the board and
/// may post.
pub trait BoardRole {
    /// Message alphabet (posted to the board).
    type Msg: Clone + Ord + fmt::Debug;
    /// Decision value.
    type Output: Clone + fmt::Debug;

    /// Executes one round against the board view.
    fn step(&mut self, ctx: RoundCtx, board: BoardView<'_, Self::Msg>) -> BoardAction<Self::Msg>;

    /// The decision, once made.
    fn decision(&self) -> Option<Self::Output>;

    /// Index of the global phase the *upcoming* step belongs to, used to
    /// select which [`LocalSpec`] phase governs the emitted action.
    /// Single-phase protocols keep the default.
    fn phase(&self) -> usize {
        0
    }

    /// Bytes charged per message; see
    /// [`Protocol::msg_bytes`].
    fn msg_bytes(msg: &Self::Msg) -> usize {
        std::mem::size_of_val(msg)
    }
}

/// A projected message-passing role: reads port slots, may send.
pub trait PortRole {
    /// Message alphabet.
    type Msg: Clone + Ord + fmt::Debug;
    /// Decision value.
    type Output: Clone + fmt::Debug;

    /// Executes one round against the per-port view.
    fn step(&mut self, ctx: RoundCtx, ports: PortsView<'_, Self::Msg>) -> PortAction<Self::Msg>;

    /// The decision, once made.
    fn decision(&self) -> Option<Self::Output>;

    /// Current global phase; see [`BoardRole::phase`].
    fn phase(&self) -> usize {
        0
    }

    /// Bytes charged per message.
    fn msg_bytes(msg: &Self::Msg) -> usize {
        std::mem::size_of_val(msg)
    }
}

/// A projected model-generic role (admits both models; the projection
/// filters its allowed actions down to the concrete model).
pub trait DualRole {
    /// Message alphabet.
    type Msg: Clone + Ord + fmt::Debug;
    /// Decision value.
    type Output: Clone + fmt::Debug;

    /// Executes one round against whichever view the model provides.
    fn step(&mut self, ctx: RoundCtx, view: View<'_, Self::Msg>) -> AnyAction<Self::Msg>;

    /// The decision, once made.
    fn decision(&self) -> Option<Self::Output>;

    /// Current global phase; see [`BoardRole::phase`].
    fn phase(&self) -> usize {
        0
    }

    /// Bytes charged per message.
    fn msg_bytes(msg: &Self::Msg) -> usize {
        std::mem::size_of_val(msg)
    }
}

/// Adapter: a [`BoardRole`] plus its projected spec, as a runner
/// [`Protocol`].
#[derive(Clone, Debug)]
pub struct BoardMachine<R> {
    role: R,
    spec: LocalSpec,
}

impl<R: BoardRole> BoardMachine<R> {
    /// Binds `role` to its projected local spec.
    pub fn new(role: R, spec: LocalSpec) -> Self {
        BoardMachine { role, spec }
    }

    /// The wrapped role (for inspecting final state in tests).
    pub fn role(&self) -> &R {
        &self.role
    }
}

impl<R: BoardRole> Protocol for BoardMachine<R> {
    type Msg = R::Msg;
    type Output = R::Output;

    fn round(&mut self, ctx: RoundCtx, incoming: &Incoming<Self::Msg>) -> Outgoing<Self::Msg> {
        if self.role.decision().is_some() {
            return Outgoing::Silent;
        }
        let board = incoming.board_view().unwrap_or_else(|| {
            panic!(
                "{}/{}: blackboard machine wired to message passing (projection should have rejected this)",
                self.spec.protocol, self.spec.role
            )
        });
        // The phase is sampled before the step: it indexes the phase the
        // upcoming emission belongs to.
        let phase = self.role.phase();
        match self.role.step(ctx, board) {
            BoardAction::Silent => Outgoing::Silent,
            BoardAction::Post(m) => {
                self.spec.check(phase, ActionKind::Post);
                Outgoing::Post(m)
            }
        }
    }

    fn output(&self) -> Option<Self::Output> {
        self.role.decision()
    }

    fn msg_bytes(msg: &Self::Msg) -> usize {
        R::msg_bytes(msg)
    }
}

/// Adapter: a [`PortRole`] plus its projected spec, as a runner
/// [`Protocol`].
#[derive(Clone, Debug)]
pub struct PortMachine<R> {
    role: R,
    spec: LocalSpec,
}

impl<R: PortRole> PortMachine<R> {
    /// Binds `role` to its projected local spec.
    pub fn new(role: R, spec: LocalSpec) -> Self {
        PortMachine { role, spec }
    }

    /// The wrapped role.
    pub fn role(&self) -> &R {
        &self.role
    }
}

impl<R: PortRole> Protocol for PortMachine<R> {
    type Msg = R::Msg;
    type Output = R::Output;

    fn round(&mut self, ctx: RoundCtx, incoming: &Incoming<Self::Msg>) -> Outgoing<Self::Msg> {
        if self.role.decision().is_some() {
            return Outgoing::Silent;
        }
        let ports = incoming.ports_view().unwrap_or_else(|| {
            panic!(
                "{}/{}: message-passing machine wired to the blackboard (projection should have rejected this)",
                self.spec.protocol, self.spec.role
            )
        });
        let phase = self.role.phase();
        match self.role.step(ctx, ports) {
            PortAction::Silent => Outgoing::Silent,
            PortAction::Send(msgs) => {
                self.spec.check(phase, ActionKind::Send);
                Outgoing::Send(msgs)
            }
            PortAction::Broadcast(m) => {
                self.spec.check(phase, ActionKind::Broadcast);
                Outgoing::Broadcast(m)
            }
        }
    }

    fn output(&self) -> Option<Self::Output> {
        self.role.decision()
    }

    fn msg_bytes(msg: &Self::Msg) -> usize {
        R::msg_bytes(msg)
    }
}

/// Adapter: a [`DualRole`] plus its projected spec, as a runner
/// [`Protocol`].
#[derive(Clone, Debug)]
pub struct DualMachine<R> {
    role: R,
    spec: LocalSpec,
}

impl<R: DualRole> DualMachine<R> {
    /// Binds `role` to its projected local spec.
    pub fn new(role: R, spec: LocalSpec) -> Self {
        DualMachine { role, spec }
    }

    /// The wrapped role.
    pub fn role(&self) -> &R {
        &self.role
    }
}

impl<R: DualRole> Protocol for DualMachine<R> {
    type Msg = R::Msg;
    type Output = R::Output;

    fn round(&mut self, ctx: RoundCtx, incoming: &Incoming<Self::Msg>) -> Outgoing<Self::Msg> {
        if self.role.decision().is_some() {
            return Outgoing::Silent;
        }
        let view = match incoming {
            Incoming::Board(_) => View::Board(incoming.board_view().expect("board view")),
            Incoming::Ports(_) => View::Ports(incoming.ports_view().expect("ports view")),
        };
        let phase = self.role.phase();
        match self.role.step(ctx, view) {
            AnyAction::Silent => Outgoing::Silent,
            AnyAction::Post(m) => {
                self.spec.check(phase, ActionKind::Post);
                Outgoing::Post(m)
            }
            AnyAction::Send(msgs) => {
                self.spec.check(phase, ActionKind::Send);
                Outgoing::Send(msgs)
            }
            AnyAction::Broadcast(m) => {
                self.spec.check(phase, ActionKind::Broadcast);
                Outgoing::Broadcast(m)
            }
        }
    }

    fn output(&self) -> Option<Self::Output> {
        self.role.decision()
    }

    fn msg_bytes(msg: &Self::Msg) -> usize {
        R::msg_bytes(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::choreo::global::{
        GlobalProtocol, ModelClass, Participation, PhaseExit, PhaseSpec, RoleSpec,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rsbt_random::Assignment;
    use rsbt_sim::runner::run_nodes_with;
    use rsbt_sim::Model;

    /// Posts its bit once, then decides on how many posts it saw.
    #[derive(Default)]
    struct CountRole {
        decided: Option<usize>,
    }

    impl BoardRole for CountRole {
        type Msg = bool;
        type Output = usize;

        fn step(&mut self, ctx: RoundCtx, board: BoardView<'_, bool>) -> BoardAction<bool> {
            if ctx.round == 1 {
                BoardAction::Post(ctx.bit)
            } else {
                self.decided = Some(board.len());
                BoardAction::Silent
            }
        }

        fn decision(&self) -> Option<usize> {
            self.decided
        }
    }

    fn count_global() -> GlobalProtocol {
        GlobalProtocol {
            name: "count",
            model: ModelClass::Blackboard,
            participation: Participation::Full,
            roles: vec![RoleSpec {
                name: "node",
                min_count: 1,
            }],
            phases: vec![PhaseSpec {
                name: "count",
                actions: vec![("node", vec![super::ActionKind::Post])],
                exit: PhaseExit::Decision,
            }],
        }
    }

    #[test]
    fn board_machine_runs_under_projection() {
        let alpha = Assignment::private(3);
        let projection = count_global().project(&Model::Blackboard, 3).unwrap();
        let nodes: Vec<_> = (0..3)
            .map(|_| BoardMachine::new(CountRole::default(), projection.local("node").clone()))
            .collect();
        let mut rng = StdRng::seed_from_u64(1);
        let out = run_nodes_with(
            &Model::Blackboard,
            &alpha,
            5,
            nodes,
            &mut rng,
            projection.options(),
            None,
        );
        assert!(out.completed);
        assert!(out.outputs.iter().all(|o| *o == Some(2)));
        assert_eq!(out.stats.posts, 3);
    }

    /// A role that posts in a phase where the projection forbids it.
    struct RebelRole;

    impl BoardRole for RebelRole {
        type Msg = bool;
        type Output = ();

        fn step(&mut self, _ctx: RoundCtx, _board: BoardView<'_, bool>) -> BoardAction<bool> {
            BoardAction::Post(true)
        }

        fn decision(&self) -> Option<()> {
            None
        }

        fn phase(&self) -> usize {
            1 // claims to be in a phase that does not exist
        }
    }

    #[test]
    #[should_panic(expected = "violates the projection")]
    fn machine_rejects_undeclared_emission() {
        let projection = count_global().project(&Model::Blackboard, 2).unwrap();
        let nodes: Vec<_> = (0..2)
            .map(|_| BoardMachine::new(RebelRole, projection.local("node").clone()))
            .collect();
        let alpha = Assignment::private(2);
        let mut rng = StdRng::seed_from_u64(1);
        let _ = run_nodes_with(
            &Model::Blackboard,
            &alpha,
            3,
            nodes,
            &mut rng,
            Default::default(),
            None,
        );
    }
}
