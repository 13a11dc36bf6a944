//! `rsbt` — facade crate for the reproduction of *Fraigniaud, Gelles,
//! Lotker, "The Topology of Randomized Symmetry-Breaking Distributed
//! Computing"* (PODC 2021).
//!
//! Re-exports every workspace crate under a short module name:
//!
//! * [`complex`] — chromatic simplicial complexes, maps, homology;
//! * [`random`] — correlated randomness sources, assignments, realizations;
//! * [`sim`] — synchronous anonymous execution engine (blackboard and
//!   message-passing models);
//! * [`tasks`] — output complexes for symmetry-breaking tasks;
//! * [`core`] — the paper's topological framework: `P(t)`, `R(t)`,
//!   consistency projections, solvability, probabilities;
//! * [`protocols`] — executable algorithms (leader election, matching,
//!   Appendix C reduction).
//!
//! See the workspace `README.md` for a tour and `DESIGN.md` for the
//! paper-to-code mapping.

#![deny(deprecated)]
#![forbid(unsafe_code)]

pub use rsbt_complex as complex;
pub use rsbt_core as core;
pub use rsbt_protocols as protocols;
pub use rsbt_random as random;
pub use rsbt_sim as sim;
pub use rsbt_tasks as tasks;

/// The Rust examples of the workspace `README.md`, compiled and run as
/// doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
