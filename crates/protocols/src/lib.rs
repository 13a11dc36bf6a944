//! Executable anonymous distributed algorithms from the paper.
//!
//! Every protocol is written once, as a *choreography* in [`choreo`]: one
//! global description projected onto per-role local machines, runnable on
//! a caller's RNG with [`choreo::run_with`] or on three interchangeable
//! backends (the in-process simulator, a parallel Monte-Carlo estimator,
//! and real processes over local TCP). The paper's constructive results
//! are:
//!
//! * [`BleChoreo`](choreo::BleChoreo) — the Theorem 4.1 'if'-direction
//!   algorithm: post your randomness every round, elect the holder of the
//!   minimal *unique* string once one exists;
//! * [`MatchingChoreo`](choreo::MatchingChoreo) — Algorithm 1
//!   (`CreateMatching`): randomized request/acknowledge matching between
//!   two groups of anonymous nodes;
//! * [`EuclidChoreo`](choreo::EuclidChoreo) — the Theorem 4.2
//!   'if'-direction algorithm: discover the source groups, then imitate
//!   the subtractive Euclid process by repeatedly matching the two
//!   smallest groups and deactivating the matched members of the larger,
//!   until a singleton group remains — its member leads;
//! * [`ReductionChoreo`](choreo::ReductionChoreo) — Theorem C.1: any
//!   *name-independent* input-output task reduces to leader election (the
//!   leader aggregates the input multiset, computes an input→output table,
//!   and publishes it), with [`consensus_choreo`](choreo::consensus_choreo)
//!   as the canonical example.
//!
//! All protocols run on the [`rsbt_sim::runner`] engine, drawing their
//! randomness through an [`rsbt_random::Assignment`] so correlated sources
//! are modeled faithfully — the central concern of the paper.

#![deny(deprecated)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod choreo;

mod role;

// Behavioural tests of the protocols, run through their choreographies
// with `choreo::run_with`: one module per protocol, helpers in `behaviour`.
#[cfg(test)]
mod behaviour;
#[cfg(test)]
#[path = "behaviour/blackboard_le.rs"]
mod blackboard_le;
#[cfg(test)]
#[path = "behaviour/consensus.rs"]
mod consensus;
#[cfg(test)]
#[path = "behaviour/deputy_bb.rs"]
mod deputy_bb;
#[cfg(test)]
#[path = "behaviour/euclid_le.rs"]
mod euclid_le;
#[cfg(test)]
#[path = "behaviour/k_leader_bb.rs"]
mod k_leader_bb;
#[cfg(test)]
#[path = "behaviour/matching.rs"]
mod matching;
#[cfg(test)]
#[path = "behaviour/reduction.rs"]
mod reduction;
#[cfg(test)]
#[path = "behaviour/wsb_bb.rs"]
mod wsb_bb;

pub use crate::role::{leader_count, Role};
