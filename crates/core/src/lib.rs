//! The paper's topological framework for randomized symmetry-breaking
//! distributed computing.
//!
//! This crate assembles the substrates (`rsbt-complex`, `rsbt-random`,
//! `rsbt-sim`, `rsbt-tasks`) into the machinery of Sections 3 and 4 of
//! *Fraigniaud, Gelles, Lotker (PODC 2021)*:
//!
//! * [`realization_complex`] — the complex `R(t)` whose facets are the
//!   possible randomness realizations (Figure 2);
//! * [`protocol_complex`] — the complex `P(t)` of knowledge vectors
//!   (Figure 1), built by running the full-information dynamics;
//! * [`iso_h`] — the facet isomorphism `h : P(t) → R(t)` (Section 3.3);
//! * [`consistency`] — the projection `π̃(ρ)` (Eq. 5): the consistency
//!   classes of `K_i(t) = K_j(t)`, materialized as a complex;
//! * [`solvability`] — Definitions 3.1 and 3.4: the fast combinatorial
//!   production path, plus the generic simplicial-map search on `π̃(ρ)`
//!   and the Definition 3.1 map search on the protocol facet, which are
//!   cross-validated in tests — a mechanical proof of Lemma 3.5 on every
//!   instance we can enumerate; the per-run verdict memo every engine
//!   decides through also lives here;
//! * [`engine_dp`] — the exact engine: dynamic programming over
//!   knowledge-equality states (the transposition table), `u128` dyadic
//!   counts to `k·t ≤ 126`, per-round cost flat in `t`;
//! * [`probability`] — `Pr[S(t) | α]` exactly (solved counts from
//!   [`engine_dp`] over the `2^{kt}` equiprobable source words) and by the
//!   bit-sliced Monte-Carlo sampler;
//! * [`eventual`] — the eventual-solvability predicates of Theorems 4.1
//!   and 4.2 and zero-one-law helpers (Lemma 3.2);
//! * [`bounds`] — the closed forms appearing in the proof of Theorem 4.1.
//!
//! # Example
//!
//! Decide whether a realization solves leader election, and check the
//! Theorem 4.1 predicate:
//!
//! ```
//! use rsbt_core::{eventual, solvability};
//! use rsbt_random::{Assignment, BitString, Realization};
//! use rsbt_sim::{KnowledgeArena, Model};
//! use rsbt_tasks::LeaderElection;
//!
//! let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
//! assert!(eventual::blackboard_eventually_solvable(&alpha));
//!
//! // Node 0 got "1", nodes 1-2 got "0": symmetry broken, task solved.
//! let rho = Realization::new(vec![
//!     BitString::from_bits([true]),
//!     BitString::from_bits([false]),
//!     BitString::from_bits([false]),
//! ]).unwrap();
//! let mut arena = KnowledgeArena::new();
//! assert!(solvability::solves(&Model::Blackboard, &rho, &LeaderElection, &mut arena));
//! ```

#![deny(deprecated)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitsliced;
pub mod bounds;
pub mod consistency;
pub mod engine_dp;
pub mod eventual;
pub mod evolution;
pub mod iso_h;
mod oracle;
pub mod output_cache;
pub mod probability;
pub mod protocol_complex;
pub mod realization_complex;
pub mod solvability;
