//! # repstream-engine
//!
//! The batch evaluation engine: everything needed to score *thousands of
//! candidate mappings per request* instead of one — the workload the
//! paper's §8 points at when it proposes using the throughput evaluators
//! to drive (NP-complete) mapping construction.
//!
//! A single evaluation was already fast; a search is not a single
//! evaluation.  The engine removes the per-candidate overheads that
//! dominate search inner loops, in four layers — each written once, for
//! a K-app [`Workload`](repstream_core::model::Workload) whose one-app
//! case is the single application (every contention share is 1, so the
//! scores are bitwise the single-application ones):
//!
//! * **zero-clone scoring** — candidates are borrowed per app into
//!   [`SystemRef`](repstream_core::model::SystemRef)s (validation only,
//!   no `Application`/`Platform`/`Mapping` clones);
//! * **structure + value reuse** — [`score::WorkloadDetScorer`]
//!   memoizes deterministic pattern periods by their exact weight
//!   vectors, and [`score::WorkloadExpScorer`] reuses marking-graph
//!   structures through
//!   [`ChainCache`](repstream_markov::cache::ChainCache), re-rating the
//!   shared edge structure by label (no per-edge copy).  Both are
//!   **bitwise identical** to the cold `repstream-core` evaluators
//!   (pinned by property tests);
//! * **delta scoring** — [`delta::JointDeltaScorer`] maintains
//!   per-column minima of the columnwise Overlap score, so a
//!   single-processor move re-evaluates `O(affected)` columns instead of
//!   all of them;
//! * **parallel batches** — [`batch::score_joint_batch_with_threads`]
//!   chunks a candidate slice across `std::thread::scope` threads, each
//!   with private scorer scratch and its own budget checks;
//!   per-candidate independence makes the result bitwise deterministic
//!   for any thread count.  [`batch::score_batch`] is its one-app view.
//!
//! [`portfolio::workload_search`] composes them into the search driver:
//! greedy seeding + a parallel random batch + delta-scored hill climbing,
//! with an exponential re-rank of the finalists (Theorem 7: variability
//! punishes replicated columns, so the deterministic winner is not always
//! the robust winner).  [`portfolio::portfolio_search`] is its one-app
//! case.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod delta;
pub mod portfolio;
pub mod score;

pub use batch::score_batch;
pub use delta::JointDeltaScorer;
pub use portfolio::{
    portfolio_search, portfolio_search_cached, workload_search, Objective, PortfolioOptions,
    PortfolioReport, WorkloadSearchOptions, WorkloadSearchReport,
};
pub use score::{WorkloadDetScorer, WorkloadExpScorer};
