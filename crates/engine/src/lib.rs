//! # repstream-engine
//!
//! The batch evaluation engine: everything needed to score *thousands of
//! candidate mappings per request* instead of one — the workload the
//! paper's §8 points at when it proposes using the throughput evaluators
//! to drive (NP-complete) mapping construction.
//!
//! A single evaluation was already fast; a search is not a single
//! evaluation.  The engine removes the per-candidate overheads that
//! dominate search inner loops, in four layers:
//!
//! * **zero-clone scoring** — candidates are borrowed into
//!   [`SystemRef`](repstream_core::model::SystemRef)s (validation only,
//!   no `Application`/`Platform`/`Mapping` clones);
//! * **structure + value reuse** — [`score::DetScorer`] memoizes
//!   deterministic pattern periods by their exact weight vectors, and
//!   [`score::ExpScorer`] reuses marking-graph structures through
//!   [`ChainCache`](repstream_markov::cache::ChainCache), re-rating the
//!   shared edge structure by label (no per-edge copy).  Both are **bitwise identical** to the cold
//!   `repstream-core` evaluators (pinned by property tests);
//! * **delta scoring** — [`delta::DeltaScorer`] maintains
//!   per-column minima of the columnwise Overlap score, so a
//!   single-processor move re-evaluates `O(affected)` columns instead of
//!   all of them;
//! * **parallel batches** — [`batch::score_batch`] chunks a candidate
//!   slice across `std::thread::scope` threads, each with private
//!   scorer scratch; per-candidate independence makes the result
//!   bitwise deterministic for any thread count.
//!
//! [`portfolio::portfolio_search`] composes them into a search driver:
//! greedy seeding + a parallel random batch + delta-scored hill climbing,
//! with an exponential re-rank of the finalists (Theorem 7: variability
//! punishes replicated columns, so the deterministic winner is not always
//! the robust winner).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod delta;
pub mod portfolio;
pub mod score;

pub use batch::{score_batch, score_joint_batch};
pub use delta::{DeltaScorer, JointDeltaScorer};
pub use portfolio::{
    portfolio_search, portfolio_search_cached, workload_search, Objective, PortfolioOptions,
    PortfolioReport, WorkloadSearchOptions, WorkloadSearchReport,
};
pub use score::{DetScorer, ExpScorer, WorkloadDetScorer, WorkloadExpScorer};
