//! Synchronous anonymous full-information execution engine.
//!
//! Implements the two communication models of the paper (Section 2):
//!
//! * the **blackboard model** — Eq. (1): every round each node appends a
//!   message to a shared board; the board content is seen by everyone, in
//!   lexicographic order, with no sender identification;
//! * the **message-passing model** — Eq. (2): nodes form a clique `K_n` with
//!   per-node *port numbers* labeling their `n − 1` incident edges.
//!
//! The engine computes the exact *knowledge* values `K_i(t)` of the paper's
//! recursive definition, represented as hash-consed DAG nodes in a
//! [`KnowledgeArena`]: structurally equal knowledge values intern to the same
//! [`KnowledgeId`], so the paper's consistency relation `i ∼_t j`
//! (`K_i(t) = K_j(t)`) is an integer comparison.
//!
//! The crate also hosts the generic synchronous [`runner`] used by
//! `rsbt-protocols` to execute concrete anonymous algorithms (Algorithm 1,
//! Euclid-style leader election, the Appendix C reduction).
//!
//! # Example
//!
//! Two nodes with private randomness become inconsistent exactly when their
//! bits first differ:
//!
//! ```
//! use rsbt_random::{Assignment, BitString, Realization};
//! use rsbt_sim::{Execution, KnowledgeArena, Model};
//!
//! let alpha = Assignment::private(2);
//! let rho = Realization::new(vec![
//!     BitString::from_bits([false, true]),
//!     BitString::from_bits([false, false]),
//! ]).unwrap();
//! let mut arena = KnowledgeArena::new();
//! let exec = Execution::run(&Model::Blackboard, &rho, &mut arena);
//! assert_eq!(exec.consistency_partition(1), vec![vec![0, 1]]); // same bit
//! assert_eq!(exec.consistency_partition(2), vec![vec![0], vec![1]]);
//! ```

#![deny(deprecated)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod execution;
pub mod faults;
pub mod fxhash;
mod knowledge;
pub mod lanes;
mod model;
pub mod net;
pub mod pool;
pub mod ports;
pub mod runner;
pub mod stats;

pub use crate::execution::{Execution, RoundStepper};
pub use crate::faults::{FaultSchedule, FaultSpec, LaneSilence};
pub use crate::fxhash::{FxBuildHasher, FxHashMap, FxHasher};
pub use crate::knowledge::{KnowledgeArena, KnowledgeId, KnowledgeNode, NeighborInfo};
pub use crate::lanes::LaneStepper;
pub use crate::model::Model;
pub use crate::ports::PortNumbering;
