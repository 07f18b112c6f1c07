//! # repstream-workload
//!
//! Workload, platform and mapping generators plus the paper's canned
//! examples — everything the experiment harnesses (§7) need to produce
//! instances.
//!
//! * [`examples`] — Example A (Fig. 1: four stages on seven processors,
//!   replication 1/2/3/1) and Example C (Fig. 6: replication 5/21/27/11);
//! * [`random`] — the random instance families of Table 1 ((stages,
//!   processors) ∈ {(10,20), (10,30), (20,30), (2,7), (3,7)} with
//!   computation/communication times drawn from the paper's ranges), plus
//!   seeded random-mapping candidate sets
//!   ([`random::random_mappings`]) for the search benchmark and property
//!   tests;
//! * [`scenarios`] — the parametric systems behind Figures 10–17 (the
//!   seven-stage replicated pipeline, the repeated two-stage pattern, the
//!   single `u × v` communication with homogeneous or heterogeneous
//!   links) and the 12-processor [`scenarios::mapping_search`] instance
//!   of the §8 mapping-construction experiments.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod examples;
pub mod random;
pub mod scenarios;
