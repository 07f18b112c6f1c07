//! # repstream-core
//!
//! Throughput analysis of probabilistic and replicated streaming
//! applications — the main library of the `repstream` workspace,
//! reproducing *“Computing the Throughput of Probabilistic and Replicated
//! Streaming Applications”* (Benoit, Gallet, Gaujal, Robert — SPAA 2010 /
//! INRIA RR-7510).
//!
//! ## The problem
//!
//! A linear-chain application of `N` stages runs on a heterogeneous
//! platform under a given **one-to-many mapping**: each processor executes
//! at most one stage, a stage may be *replicated* over a team of
//! processors served round-robin.  Given the mapping and a model of
//! computation/communication times (constant, exponential, or arbitrary
//! I.I.D. laws), compute the **throughput** — the long-run rate of
//! completed data sets.
//!
//! ## Entry points
//!
//! Every analysis accepts `impl Into<SystemRef<'_>>`: borrow the triple
//! with [`model::SystemRef::new`] (zero-clone — the right shape for
//! search loops scoring thousands of candidate mappings; see the
//! `repstream-engine` crate) or pass `&System` for the owned style.
//!
//! ```
//! use repstream_core::model::{Application, Platform, Mapping, SystemRef};
//! use repstream_core::{deterministic, exponential, bounds};
//! use repstream_petri::shape::ExecModel;
//!
//! // 2-stage chain on 3 processors, second stage replicated.
//! let app = Application::new(vec![4.0, 6.0], vec![8.0]).unwrap();
//! let platform = Platform::complete(vec![1.0, 1.0, 1.0], 4.0).unwrap();
//! let mapping = Mapping::new(vec![vec![0], vec![1, 2]]).unwrap();
//!
//! // Borrowed, validated view: no clone of the application or platform.
//! let system = SystemRef::new(&app, &platform, &mapping).unwrap();
//!
//! // Deterministic (static) analysis — Section 4 of the paper.
//! let det = deterministic::analyze(system, ExecModel::Overlap);
//! assert!(det.throughput > 0.0);
//!
//! // Exponential laws — Theorems 3/4 (Overlap decomposition).
//! let exp = exponential::throughput_overlap(system).unwrap();
//! assert!(exp.throughput <= det.throughput + 1e-9);
//!
//! // N.B.U.E. sandwich — Theorem 7.
//! let b = bounds::nbue_bounds(system, ExecModel::Overlap).unwrap();
//! assert!(b.lower <= b.upper);
//! ```
//!
//! ## Modules
//!
//! * [`model`] — applications, platforms, validated mappings (owned
//!   [`System`] and borrowed [`model::SystemRef`] views);
//! * [`timing`] — per-resource deterministic times and law tables;
//! * [`deterministic`] — critical-cycle analysis (§4, Theorem 1),
//!   global and column-wise;
//! * [`exponential`] — Markovian analysis (§5, Theorems 2–4);
//! * [`bounds`] — the N.B.U.E. sandwich (§6, Theorem 7);
//! * [`simulate`] — Monte-Carlo estimation via the event-graph simulator
//!   and the platform DES, with parallel replications;
//! * [`chainsim`] — a third, minimal recurrence simulator (ablation
//!   baseline);
//! * [`mapping_opt`] — greedy mapping construction scored by the
//!   analytic evaluators (the paper's "future work" §8);
//! * [`report`] — one-call human-readable reports combining all analyses.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bounds;
pub mod chainsim;
pub mod deterministic;
pub mod exponential;
pub mod mapping_opt;
pub mod model;
pub mod report;
pub mod simulate;
pub mod timing;
pub mod wire;

pub use model::{
    App, Application, JointMapping, Mapping, Platform, System, SystemRef, Workload, WorkloadRef,
};
