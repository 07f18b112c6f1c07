//! # repstream-markov
//!
//! Continuous-time Markov chains over Petri-net markings — the engine
//! behind the exponential-law throughput results of the paper (Section 5).
//!
//! When every firing time is exponential, the marking of a timed event
//! graph is a CTMC: in marking `M` the enabled transitions race, transition
//! `t` wins with rate `λ_t` and moves the net to `M − •t + t•`
//! (Theorem 2).  The throughput is then the stationary probability-weighted
//! firing rate of the last-column transitions.
//!
//! Modules:
//!
//! * [`net`] — a minimal event-net representation ([`net::EventNet`]) and
//!   constructors: adapters from `repstream-petri` TPNs and the `u × v`
//!   communication *pattern* of Theorem 3;
//! * [`marking`] — reachable-marking enumeration: one frontier-BFS kernel
//!   over a queue of fixed-width rows and a word-keyed Fx interner, both
//!   holding each state as packed `u64` words (optional capacity bound
//!   for non-safe nets), and one row sink producing one graph type,
//!   [`marking::Graph`], rated into a [`ctmc::Ctmc`].  When a validated
//!   rate-preserving automorphism is known up front, the same kernel is
//!   the **direct quotient BFS** ([`marking::QuotientGraph`]): the state
//!   space is explored one canonical representative per orbit, emitting
//!   the symmetry-reduced chain without ever materializing the full one;
//!   the full chain ([`marking::MarkingGraph`]) is the quotient under the
//!   identity;
//! * [`ctmc`] — stationary solvers: GTH elimination (subtraction-free,
//!   exact up to rounding), Gauss–Seidel, and uniformized power iteration,
//!   selected by an explicit measured [`SolverPlan`](ctmc::SolverPlan):
//!   GTH for small or dense chains, Gauss–Seidel with a power fallback at
//!   every other size;
//! * [`pattern`] — the Young-diagram pattern chain of Theorem 3: the state
//!   count `S(u,v) = C(u+v−1, u−1) · v` and the homogeneous closed form
//!   `u·v·λ/(u+v−1)` of Theorem 4 (its stationary throughput under
//!   arbitrary per-link rates is [`cache::ChainCache::pattern_throughput`]);
//! * `lump` *(test builds only)* — exact ordinary lumping, the test
//!   oracle of the direct quotient: the full chain's orbit partition
//!   under the TPN row-rotation, its Kemeny–Snell quotient with a lift
//!   back to full-state marginals, and a lumpability check;
//! * [`cache`] — structure-keyed chain reuse for batch evaluation:
//!   marking graphs (and their symmetry orbit seeds) cached per
//!   [`TpnSignature`](repstream_petri::tpn::TpnSignature) / pattern shape,
//!   re-rated on hits by label — one rate per transition over the shared
//!   edge structure, no allocation per edge
//!   ([`Graph::ctmc_with_trans_rates`](marking::Graph::ctmc_with_trans_rates))
//!   — and the one place a Theorem 2 or Theorem 3 chain is solved;
//! * [`govern`] — the cooperative resource governor: a `Copy`
//!   [`Budget`] (wall-clock deadline, arena-byte cap,
//!   external cancel flag) checked once per BFS level / solver
//!   checkpoint / candidate batch, surfacing overruns as structured
//!   [`Interrupt`]s instead of running to completion;
//! * `fault` *(feature `fault-inject`)* — deterministic fault
//!   injection: forced solver stagnation at the Nth checkpoint and
//!   budget exhaustion at chosen BFS levels, installable
//!   from `REPSTREAM_FAULT`, so every error path is exercised by tests;
//! * [`fxhash`] — a small Fx-style hasher for marking deduplication
//!   (keys are a few packed words; SipHash is measurably slower and
//!   HashDoS is irrelevant here).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod ctmc;
#[cfg(feature = "fault-inject")]
pub mod fault;
pub mod fxhash;
pub mod govern;
#[cfg(test)]
mod lump;
pub mod marking;
pub mod net;
pub mod pattern;

pub use cache::ChainCache;
pub use ctmc::{Ctmc, SolveReport, Solver, SolverChoice};
pub use govern::{Budget, Interrupt, InterruptReason, Phase, Progress, RunConfig};
pub use marking::{MarkingGraph, MarkingOptions, QuotientGraph};
pub use net::EventNet;
