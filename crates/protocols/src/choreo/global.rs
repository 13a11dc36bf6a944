//! The global-protocol AST and its projection onto per-role machines.
//!
//! A [`GlobalProtocol`] is one declarative description of a whole
//! protocol: which communication model it needs, which roles exist, and —
//! per phase — which message actions each role may emit and what makes the
//! phase end. [`GlobalProtocol::project`] validates the description
//! against a concrete [`Model`] and system size and derives one
//! [`LocalSpec`] per role; the specs parameterize the typed machines in
//! [`crate::choreo::machine`], which enforce the declared send/receive
//! discipline at runtime while the *model* discipline (a blackboard role
//! cannot read ports) is already fixed by the role trait's types.
//!
//! # Deadlock freedom
//!
//! Projection rejects every description in which some role could get
//! stuck waiting:
//!
//! * every declared role must have an action entry in **every** phase
//!   ([`ProjectionError::MissingRole`]) — no role is ever left without
//!   local behavior while others advance;
//! * every phase must end: either after a fixed number of rounds
//!   ([`PhaseExit::Rounds`]) or via a guard evaluated on *common*
//!   information — the shared board content or the common multiset of
//!   broadcast strings ([`PhaseExit::Guard`], [`PhaseExit::Decision`]).
//!   Since rounds are synchronous and guards are functions of data every
//!   node observes identically, all nodes leave a phase in the same round;
//! * the runner's lockstep semantics make communication *closed* per
//!   round: everything sent in round `r` is received in round `r + 1` and
//!   nothing else, so a projected machine never awaits a message that was
//!   never sent.

use std::fmt;
use std::sync::Arc;

use rsbt_sim::runner::RunOptions;
use rsbt_sim::Model;

/// Which communication models a global protocol admits.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ModelClass {
    /// Only the shared anonymous blackboard.
    Blackboard,
    /// Only port-labeled message passing.
    MessagePassing,
    /// Either model; per-model actions are filtered at projection time.
    Any,
}

impl ModelClass {
    /// Whether the concrete `model` belongs to this class.
    pub fn admits(self, model: &Model) -> bool {
        match self {
            ModelClass::Blackboard => model.is_blackboard(),
            ModelClass::MessagePassing => !model.is_blackboard(),
            ModelClass::Any => true,
        }
    }
}

impl fmt::Display for ModelClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelClass::Blackboard => write!(f, "blackboard"),
            ModelClass::MessagePassing => write!(f, "message-passing"),
            ModelClass::Any => write!(f, "any model"),
        }
    }
}

/// Participation discipline of a blackboard protocol.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Participation {
    /// Every undecided node posts exactly once per round; decided nodes
    /// are silent. Projection turns this into the runner's release-build
    /// invariant ([`RunOptions::full_participation`]).
    Full,
    /// Some nodes may stay silent while undecided (e.g. only the leader
    /// publishes the reduction table).
    Sparse,
}

/// A message-emitting action kind a role may perform. Staying silent is
/// always allowed and never declared.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ActionKind {
    /// Append a message to the blackboard.
    Post,
    /// Send per-port messages (message passing).
    Send,
    /// Send one message through every port (message passing).
    Broadcast,
}

impl ActionKind {
    /// Whether this action is expressible under the concrete `model`.
    pub fn fits(self, model: &Model) -> bool {
        match self {
            ActionKind::Post => model.is_blackboard(),
            ActionKind::Send | ActionKind::Broadcast => !model.is_blackboard(),
        }
    }

    fn fits_class(self, class: ModelClass) -> bool {
        match class {
            ModelClass::Blackboard => self == ActionKind::Post,
            ModelClass::MessagePassing => self != ActionKind::Post,
            ModelClass::Any => true,
        }
    }
}

impl fmt::Display for ActionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActionKind::Post => write!(f, "post"),
            ActionKind::Send => write!(f, "send"),
            ActionKind::Broadcast => write!(f, "broadcast"),
        }
    }
}

/// How a phase ends (part of the deadlock-freedom argument: every phase
/// must name its exit).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PhaseExit {
    /// The phase ends when the protocol's decision condition fires — a
    /// guard on common information, so all nodes exit together.
    Decision,
    /// A named intermediate guard on common information (e.g. "k distinct
    /// strings observed").
    Guard(&'static str),
    /// Exactly this many rounds (≥ 1).
    Rounds(usize),
}

/// A role of the global protocol.
#[derive(Clone, Debug)]
pub struct RoleSpec {
    /// Role name, referenced by phase actions and by node construction.
    pub name: &'static str,
    /// Minimal number of nodes this role needs.
    pub min_count: usize,
}

/// One phase of the global protocol.
#[derive(Clone, Debug)]
pub struct PhaseSpec {
    /// Phase name (diagnostics only).
    pub name: &'static str,
    /// Allowed emissions per role. Every declared role must appear —
    /// totality is what rules out a role with no local behavior.
    pub actions: Vec<(&'static str, Vec<ActionKind>)>,
    /// What ends the phase.
    pub exit: PhaseExit,
}

/// One global description of a protocol: model class, roles, phases.
///
/// See the [module docs](self) for the projection rules.
#[derive(Clone, Debug)]
pub struct GlobalProtocol {
    /// Protocol name (diagnostics, reports).
    pub name: &'static str,
    /// Admissible communication models.
    pub model: ModelClass,
    /// Blackboard participation discipline.
    pub participation: Participation,
    /// The role set.
    pub roles: Vec<RoleSpec>,
    /// The phase sequence (the last phase may loop until its exit fires).
    pub phases: Vec<PhaseSpec>,
}

/// Why a global protocol failed validation or projection.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProjectionError {
    /// The protocol declares no roles.
    NoRoles(&'static str),
    /// The protocol declares no phases.
    NoPhases(&'static str),
    /// Two roles share a name.
    DuplicateRole {
        /// Protocol name.
        protocol: &'static str,
        /// The duplicated role name.
        role: &'static str,
    },
    /// A phase action references an undeclared role.
    UnknownRole {
        /// Protocol name.
        protocol: &'static str,
        /// Phase name.
        phase: &'static str,
        /// The unknown role name.
        role: &'static str,
    },
    /// A declared role has no action entry in some phase, so its local
    /// machine would have no behavior there (a projection-induced
    /// deadlock).
    MissingRole {
        /// Protocol name.
        protocol: &'static str,
        /// Phase name.
        phase: &'static str,
        /// The role without an entry.
        role: &'static str,
    },
    /// An action can never be expressed under the declared model class
    /// (e.g. a post in a message-passing-only protocol).
    ActionModelMismatch {
        /// Protocol name.
        protocol: &'static str,
        /// Phase name.
        phase: &'static str,
        /// Role name.
        role: &'static str,
        /// The offending action.
        action: ActionKind,
        /// The declared model class.
        model: ModelClass,
    },
    /// A fixed-length phase of zero rounds.
    EmptyPhase {
        /// Protocol name.
        protocol: &'static str,
        /// Phase name.
        phase: &'static str,
    },
    /// Full participation requires the blackboard model class.
    FullParticipationNeedsBlackboard(&'static str),
    /// Under full participation every role must be allowed to post in
    /// every phase (an undecided node must be able to participate).
    FullParticipationNeedsPost {
        /// Protocol name.
        protocol: &'static str,
        /// Phase name.
        phase: &'static str,
        /// Role name.
        role: &'static str,
    },
    /// The concrete model is outside the protocol's model class.
    ModelNotAdmitted {
        /// Protocol name.
        protocol: &'static str,
        /// The declared class.
        class: ModelClass,
        /// Display form of the rejected model.
        model: String,
    },
    /// Fewer nodes than the roles' minimal counts require.
    TooFewNodes {
        /// Protocol name.
        protocol: &'static str,
        /// Sum of the per-role minimal counts.
        need: usize,
        /// Nodes available.
        got: usize,
    },
}

impl fmt::Display for ProjectionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProjectionError::NoRoles(p) => write!(f, "{p}: no roles declared"),
            ProjectionError::NoPhases(p) => write!(f, "{p}: no phases declared"),
            ProjectionError::DuplicateRole { protocol, role } => {
                write!(f, "{protocol}: duplicate role `{role}`")
            }
            ProjectionError::UnknownRole {
                protocol,
                phase,
                role,
            } => write!(f, "{protocol}/{phase}: unknown role `{role}`"),
            ProjectionError::MissingRole {
                protocol,
                phase,
                role,
            } => write!(
                f,
                "{protocol}/{phase}: role `{role}` has no action entry (would deadlock)"
            ),
            ProjectionError::ActionModelMismatch {
                protocol,
                phase,
                role,
                action,
                model,
            } => write!(
                f,
                "{protocol}/{phase}: role `{role}` action `{action}` is impossible under {model}"
            ),
            ProjectionError::EmptyPhase { protocol, phase } => {
                write!(f, "{protocol}/{phase}: fixed-length phase of zero rounds")
            }
            ProjectionError::FullParticipationNeedsBlackboard(p) => {
                write!(f, "{p}: full participation requires the blackboard model")
            }
            ProjectionError::FullParticipationNeedsPost {
                protocol,
                phase,
                role,
            } => write!(
                f,
                "{protocol}/{phase}: full participation, but role `{role}` may not post"
            ),
            ProjectionError::ModelNotAdmitted {
                protocol,
                class,
                model,
            } => write!(f, "{protocol}: declared for {class}, got {model}"),
            ProjectionError::TooFewNodes {
                protocol,
                need,
                got,
            } => write!(f, "{protocol}: needs at least {need} nodes, got {got}"),
        }
    }
}

impl std::error::Error for ProjectionError {}

/// One phase of a projected local machine: the emissions this role may
/// make, under the concrete model.
#[derive(Clone, Debug)]
pub struct LocalPhase {
    /// Phase name (diagnostics).
    pub name: &'static str,
    /// Emissions allowed in this phase (silence is always allowed).
    pub allowed: Vec<ActionKind>,
    /// What ends the phase.
    pub exit: PhaseExit,
}

/// The projected, validated behavior of one role: its per-phase allowed
/// emissions. Machines carry a `LocalSpec` and check every emitted action
/// against it.
#[derive(Clone, Debug)]
pub struct LocalSpec {
    /// Owning protocol name.
    pub protocol: &'static str,
    /// Role name.
    pub role: &'static str,
    /// Per-phase allowed emissions.
    pub phases: Vec<LocalPhase>,
}

impl LocalSpec {
    /// Whether `kind` may be emitted in `phase`.
    pub fn allows(&self, phase: usize, kind: ActionKind) -> bool {
        self.phases
            .get(phase)
            .is_some_and(|p| p.allowed.contains(&kind))
    }

    /// Panics unless `kind` is allowed in `phase` — the machines'
    /// conformance check against the projected global description.
    ///
    /// # Panics
    ///
    /// Panics when the emission violates the projection.
    pub fn check(&self, phase: usize, kind: ActionKind) {
        assert!(
            self.allows(phase, kind),
            "{}/{}: emission `{kind}` violates the projection in phase {phase} ({})",
            self.protocol,
            self.role,
            self.phases.get(phase).map_or("no such phase", |p| p.name),
        );
    }
}

/// A validated projection of a [`GlobalProtocol`] onto a concrete model
/// and system size: one shared [`LocalSpec`] per role, plus the derived
/// runner options. Machines hold their role's spec through the `Arc`, so
/// building the nodes of a run (once per sample in Monte-Carlo) copies a
/// pointer per node, not the spec's phase vectors.
#[derive(Clone, Debug)]
pub struct Projection {
    /// Protocol name.
    pub name: &'static str,
    /// The participation discipline (drives [`Projection::options`]).
    pub participation: Participation,
    n: usize,
    locals: Vec<Arc<LocalSpec>>,
}

impl Projection {
    /// The system size this projection was computed for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The local spec of `role`.
    ///
    /// # Panics
    ///
    /// Panics when the role does not exist (a construction bug, not a
    /// runtime condition).
    pub fn local(&self, role: &str) -> &Arc<LocalSpec> {
        self.locals
            .iter()
            .find(|l| l.role == role)
            .unwrap_or_else(|| panic!("{}: no role `{role}` in projection", self.name))
    }

    /// All local specs, in role declaration order.
    pub fn locals(&self) -> &[Arc<LocalSpec>] {
        &self.locals
    }

    /// Runner options derived from the global description (full
    /// participation becomes the runner's release-build invariant).
    pub fn options(&self) -> RunOptions {
        RunOptions {
            full_participation: self.participation == Participation::Full,
        }
    }
}

impl GlobalProtocol {
    /// Structural validation, independent of a concrete model instance.
    ///
    /// # Errors
    ///
    /// Every [`ProjectionError`] variant except `ModelNotAdmitted` and
    /// `TooFewNodes`, which depend on the concrete model and size.
    pub fn validate(&self) -> Result<(), ProjectionError> {
        if self.roles.is_empty() {
            return Err(ProjectionError::NoRoles(self.name));
        }
        if self.phases.is_empty() {
            return Err(ProjectionError::NoPhases(self.name));
        }
        for (i, role) in self.roles.iter().enumerate() {
            if self.roles[..i].iter().any(|r| r.name == role.name) {
                return Err(ProjectionError::DuplicateRole {
                    protocol: self.name,
                    role: role.name,
                });
            }
        }
        if self.participation == Participation::Full && self.model != ModelClass::Blackboard {
            return Err(ProjectionError::FullParticipationNeedsBlackboard(self.name));
        }
        for phase in &self.phases {
            if let PhaseExit::Rounds(0) = phase.exit {
                return Err(ProjectionError::EmptyPhase {
                    protocol: self.name,
                    phase: phase.name,
                });
            }
            for (role, kinds) in &phase.actions {
                if !self.roles.iter().any(|r| r.name == *role) {
                    return Err(ProjectionError::UnknownRole {
                        protocol: self.name,
                        phase: phase.name,
                        role,
                    });
                }
                for kind in kinds {
                    if !kind.fits_class(self.model) {
                        return Err(ProjectionError::ActionModelMismatch {
                            protocol: self.name,
                            phase: phase.name,
                            role,
                            action: *kind,
                            model: self.model,
                        });
                    }
                }
            }
            for role in &self.roles {
                let entry = phase.actions.iter().find(|(r, _)| *r == role.name);
                match entry {
                    None => {
                        return Err(ProjectionError::MissingRole {
                            protocol: self.name,
                            phase: phase.name,
                            role: role.name,
                        })
                    }
                    Some((_, kinds)) => {
                        if self.participation == Participation::Full
                            && !kinds.contains(&ActionKind::Post)
                        {
                            return Err(ProjectionError::FullParticipationNeedsPost {
                                protocol: self.name,
                                phase: phase.name,
                                role: role.name,
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Validates and projects onto a concrete `model` and size `n`,
    /// producing one [`LocalSpec`] per role. Actions that the concrete
    /// model cannot express (posts under message passing and vice versa —
    /// possible only for [`ModelClass::Any`] protocols) are filtered out
    /// of the local specs, so the machines' conformance checks are exact
    /// for the model the run actually uses.
    ///
    /// # Errors
    ///
    /// Everything [`GlobalProtocol::validate`] reports, plus
    /// [`ProjectionError::ModelNotAdmitted`] and
    /// [`ProjectionError::TooFewNodes`].
    pub fn project(&self, model: &Model, n: usize) -> Result<Projection, ProjectionError> {
        self.validate()?;
        if !self.model.admits(model) {
            return Err(ProjectionError::ModelNotAdmitted {
                protocol: self.name,
                class: self.model,
                model: model.to_string(),
            });
        }
        let need: usize = self.roles.iter().map(|r| r.min_count).sum();
        if n < need {
            return Err(ProjectionError::TooFewNodes {
                protocol: self.name,
                need,
                got: n,
            });
        }
        let locals = self
            .roles
            .iter()
            .map(|role| {
                Arc::new(LocalSpec {
                    protocol: self.name,
                    role: role.name,
                    phases: self
                        .phases
                        .iter()
                        .map(|phase| LocalPhase {
                            name: phase.name,
                            allowed: phase
                                .actions
                                .iter()
                                .find(|(r, _)| *r == role.name)
                                .map(|(_, kinds)| {
                                    kinds.iter().copied().filter(|k| k.fits(model)).collect()
                                })
                                .unwrap_or_default(),
                            exit: phase.exit,
                        })
                        .collect(),
                })
            })
            .collect();
        Ok(Projection {
            name: self.name,
            participation: self.participation,
            n,
            locals,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> GlobalProtocol {
        GlobalProtocol {
            name: "test-proto",
            model: ModelClass::Blackboard,
            participation: Participation::Full,
            roles: vec![RoleSpec {
                name: "node",
                min_count: 1,
            }],
            phases: vec![PhaseSpec {
                name: "main",
                actions: vec![("node", vec![ActionKind::Post])],
                exit: PhaseExit::Decision,
            }],
        }
    }

    #[test]
    fn minimal_projects() {
        let g = minimal();
        let p = g.project(&Model::Blackboard, 3).unwrap();
        assert!(p.options().full_participation);
        assert!(p.local("node").allows(0, ActionKind::Post));
        assert!(!p.local("node").allows(0, ActionKind::Broadcast));
        assert!(!p.local("node").allows(1, ActionKind::Post), "no phase 1");
    }

    #[test]
    fn wrong_model_is_rejected_at_projection_time() {
        let g = minimal();
        let err = g.project(&Model::message_passing_cyclic(3), 3).unwrap_err();
        assert!(matches!(err, ProjectionError::ModelNotAdmitted { .. }));
    }

    #[test]
    fn post_under_message_passing_class_is_rejected() {
        let mut g = minimal();
        g.model = ModelClass::MessagePassing;
        g.participation = Participation::Sparse;
        let err = g.validate().unwrap_err();
        assert!(matches!(err, ProjectionError::ActionModelMismatch { .. }));
    }

    #[test]
    fn role_without_phase_entry_is_a_deadlock() {
        let mut g = minimal();
        g.participation = Participation::Sparse;
        g.roles.push(RoleSpec {
            name: "observer",
            min_count: 0,
        });
        let err = g.validate().unwrap_err();
        assert!(
            matches!(
                err,
                ProjectionError::MissingRole {
                    role: "observer",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn unknown_role_is_rejected() {
        let mut g = minimal();
        g.phases[0].actions.push(("ghost", vec![ActionKind::Post]));
        assert!(matches!(
            g.validate().unwrap_err(),
            ProjectionError::UnknownRole { role: "ghost", .. }
        ));
    }

    #[test]
    fn duplicate_role_is_rejected() {
        let mut g = minimal();
        g.roles.push(RoleSpec {
            name: "node",
            min_count: 1,
        });
        assert!(matches!(
            g.validate().unwrap_err(),
            ProjectionError::DuplicateRole { .. }
        ));
    }

    #[test]
    fn full_participation_requires_posting_everywhere() {
        let mut g = minimal();
        g.phases[0].actions[0].1 = vec![];
        assert!(matches!(
            g.validate().unwrap_err(),
            ProjectionError::FullParticipationNeedsPost { .. }
        ));
    }

    #[test]
    fn too_few_nodes_is_rejected() {
        let mut g = minimal();
        g.roles[0].min_count = 4;
        assert!(matches!(
            g.project(&Model::Blackboard, 3).unwrap_err(),
            ProjectionError::TooFewNodes {
                need: 4,
                got: 3,
                ..
            }
        ));
    }

    #[test]
    fn zero_round_phase_is_rejected() {
        let mut g = minimal();
        g.phases[0].exit = PhaseExit::Rounds(0);
        assert!(matches!(
            g.validate().unwrap_err(),
            ProjectionError::EmptyPhase { .. }
        ));
    }

    #[test]
    fn any_model_filters_actions_per_concrete_model() {
        let g = GlobalProtocol {
            name: "dual",
            model: ModelClass::Any,
            participation: Participation::Sparse,
            roles: vec![RoleSpec {
                name: "node",
                min_count: 1,
            }],
            phases: vec![PhaseSpec {
                name: "main",
                actions: vec![(
                    "node",
                    vec![ActionKind::Post, ActionKind::Broadcast, ActionKind::Send],
                )],
                exit: PhaseExit::Decision,
            }],
        };
        let bb = g.project(&Model::Blackboard, 2).unwrap();
        assert!(bb.local("node").allows(0, ActionKind::Post));
        assert!(!bb.local("node").allows(0, ActionKind::Broadcast));
        let mp = g.project(&Model::message_passing_cyclic(2), 2).unwrap();
        assert!(!mp.local("node").allows(0, ActionKind::Post));
        assert!(mp.local("node").allows(0, ActionKind::Broadcast));
        assert!(mp.local("node").allows(0, ActionKind::Send));
    }

    #[test]
    fn spec_check_panics_with_context() {
        let g = minimal();
        let p = g.project(&Model::Blackboard, 2).unwrap();
        let spec = p.local("node");
        spec.check(0, ActionKind::Post); // fine
        let err = std::panic::catch_unwind(|| spec.check(0, ActionKind::Send)).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("test-proto/node"), "{msg}");
    }
}
