//! Choreographic protocol layer: one global description, three backends.
//!
//! A protocol is written once as a [`GlobalProtocol`] — its rounds,
//! message actions, and exit conditions for every role — and *projected*
//! onto a concrete [`Model`](rsbt_sim::Model) and system size. Projection
//! validates the description (totality of roles per phase, action/model
//! compatibility, participation discipline) and yields per-role
//! [`LocalSpec`]s that the typed machines in
//! [`machine`] enforce at run time: a role that emits an action its
//! projection does not allow panics with protocol/role/phase context
//! instead of silently diverging from the paper.
//!
//! The same projected protocol then runs on any of three backends
//! ([`backend`]):
//!
//! - [`SimBackend`] — the in-process lockstep
//!   simulator ([`rsbt_sim::runner`]), one seeded run; [`run_with`] is the
//!   same run on a caller's RNG;
//! - [`McBackend`] — protocol-level Monte-Carlo
//!   estimation with per-sample [`StreamRng`](rand::rngs::StreamRng) streams
//!   and Wilson confidence intervals, thread-count invariant;
//! - [`SocketBackend`] — real processes (or
//!   threads) over local TCP via [`rsbt_sim::net`], with a coordinator
//!   distributing assignment bits and enforcing round barriers.
//!
//! [`protocols`] holds all of the paper's protocols, written on this
//! layer.

pub mod backend;
pub mod global;
pub mod machine;
pub mod protocols;

pub use backend::{
    run_with, Backend, BackendError, BackendReport, Choreography, KillPlan, Launcher, McBackend,
    NodeMsg, NodeOutput, ProtocolEstimate, RunJob, SimBackend, SocketBackend, SpawnFn,
};
pub use global::{
    ActionKind, GlobalProtocol, LocalPhase, LocalSpec, ModelClass, Participation, PhaseExit,
    PhaseSpec, Projection, ProjectionError, RoleSpec,
};
pub use machine::{
    AnyAction, BoardAction, BoardMachine, BoardRole, DualMachine, DualRole, PortAction,
    PortMachine, PortRole, View,
};
pub use protocols::{
    check_consensus, consensus_choreo, consensus_shared_solver, registered_globals, BleChoreo,
    BleRole, DeputyChoreo, DeputyElectRole, DeputyRole, EuclidChoreo, EuclidMsg, EuclidRole,
    KLeaderChoreo, KLeaderRole, MatchMsg, MatchStatus, MatchingChoreo, MatchingRole,
    ReductionChoreo, ReductionMsg, ReductionRole, SharedSolver, WsbChoreo, WsbRole,
};
