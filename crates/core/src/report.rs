//! Human-readable full-system reports.
//!
//! [`system_report`] runs every applicable analysis on a system and
//! renders one text block: shape, deterministic periods and critical
//! resources for both models, the exponential decomposition with its
//! per-component candidates, the Strict Theorem 2 chain with its
//! full-vs-quotient state counts, and the Theorem 7 sandwich.  Used by
//! the CLI (`repstream` binary) and handy in tests and examples.
//!
//! All exponential analyses of one report share a single
//! [`ChainCache`]: the Theorem 7 sandwich refills the pattern chains the
//! decomposition already built instead of re-running their marking BFS.
//!
//! Reports are **resource-governed**: the [`RunConfig::budget`] of
//! [`ReportOptions::run`] threads a
//! deadline / memory cap / cancel flag into the chain builds and solvers,
//! and [`ReportOptions::degrade`] picks what happens when it fires — fail
//! with a structured status, or fall back to the N.B.U.E. sandwich
//! (Theorem 7) and stamp the report with `degraded=` provenance.

// Every `unwrap` in this module is a `writeln!` into a `String`, whose
// `fmt::Write` impl is infallible — allowed file-wide instead of matched
// on each formatting line.
#![allow(clippy::unwrap_used)]

use crate::bounds;
use crate::deterministic;
use crate::exponential::{self, ChainSolver, ColumnRef, ExpError};
use crate::model::System;
use crate::timing;
use repstream_markov::cache::{ChainCache, SharedChainCache};
use repstream_markov::govern::{InterruptReason, RunConfig};
use repstream_markov::marking::MarkingError;
use repstream_petri::shape::ExecModel;
use std::fmt::Write;

/// What a governed report does when its [`RunConfig::budget`] fires
/// mid-analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradeMode {
    /// Stop: the report carries the interrupt and the caller maps it to
    /// a failure (the CLI's `--degrade=fail`, exit code 4).
    Fail,
    /// Degrade gracefully: replace the interrupted exact section with
    /// the N.B.U.E. sandwich (Theorem 7, Overlap — polynomial, cached)
    /// and stamp the report with `degraded=` provenance (the CLI's
    /// `--degrade=bounds`, still exit code 0).
    #[default]
    Bounds,
}

/// Structured outcome of [`system_report_status`], mapped by the CLI
/// onto process exit codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportStatus {
    /// Every requested analysis completed exactly.
    Ok,
    /// The governor fired and the report fell back to bounds
    /// ([`DegradeMode::Bounds`]); the text carries `degraded=`
    /// provenance.  Still a success for the CLI (exit 0).
    Degraded(InterruptReason),
    /// The governor fired under [`DegradeMode::Fail`]: the exact section
    /// is missing and no fallback was attempted (CLI exit 4).
    Interrupted(InterruptReason),
    /// A chain exceeded its state budget (`max_states`) — a sizing
    /// problem, not a resource overrun (CLI exit 3).
    OverBudget,
    /// An internal failure (an unexpected unsafety, deadlock, …) — CLI
    /// exit 5.
    Internal,
}

impl ReportStatus {
    /// The exit code of a report with this status, for the one-shot CLI
    /// and a served `analyze` alike: `0` ok or degraded, `3` over budget,
    /// `4` interrupted, `5` internal.
    pub fn exit_code(self) -> u8 {
        match self {
            ReportStatus::Ok | ReportStatus::Degraded(_) => 0,
            ReportStatus::OverBudget => 3,
            ReportStatus::Interrupted(_) => 4,
            ReportStatus::Internal => 5,
        }
    }
}

/// Options for report generation: what to render, how to run the exact
/// analyses, and what to do when their budget fires.
#[derive(Debug, Clone, Copy)]
pub struct ReportOptions {
    /// Include the Strict model (needs the global TPN; skipped for shapes
    /// with more rows than this).
    pub max_rows_strict: usize,
    /// List every per-component throughput candidate of the exponential
    /// decomposition.
    pub list_candidates: bool,
    /// How every chain of the report is built and solved.  The Strict
    /// section prints which solver actually ran, the diagonal scaling it
    /// iterated under, its iteration count and residual.
    pub run: RunConfig,
    /// What to do when the budget fires (the CLI's `--degrade`).
    pub degrade: DegradeMode,
}

impl Default for ReportOptions {
    fn default() -> Self {
        ReportOptions {
            max_rows_strict: 20_000,
            list_candidates: true,
            run: RunConfig::default(),
            degrade: DegradeMode::Bounds,
        }
    }
}

/// Run knobs read through the report options (`opts.max_states`,
/// `opts.threads`, …) without a second declaration of any of them.
impl std::ops::Deref for ReportOptions {
    type Target = RunConfig;
    fn deref(&self) -> &RunConfig {
        &self.run
    }
}

/// Render the full analysis of `system` as text.
pub fn system_report(system: &System, opts: ReportOptions) -> String {
    system_report_status(system, opts).0
}

/// Classify a hard (non-interrupt) analysis failure.
fn hard_status(e: &ExpError) -> ReportStatus {
    match e.marking() {
        MarkingError::TooManyStates(_) => ReportStatus::OverBudget,
        _ => ReportStatus::Internal,
    }
}

/// Record the first non-`Ok` outcome (later sections cannot upgrade it).
fn note(status: &mut ReportStatus, new: ReportStatus) {
    if *status == ReportStatus::Ok {
        *status = new;
    }
}

/// As [`system_report`], also returning the structured [`ReportStatus`]
/// the CLI maps onto exit codes.  With an un-fired
/// [`RunConfig::budget`] the text is bitwise identical to
/// [`system_report`]'s and the status is [`ReportStatus::Ok`].
pub fn system_report_status(system: &System, opts: ReportOptions) -> (String, ReportStatus) {
    // One fresh chain cache serves every exponential analysis of the
    // report: the Theorem 7 sandwich refills the pattern chains the
    // decomposition already built instead of re-running their BFS.
    system_report_with(system, opts, &mut ChainCache::new())
}

/// As [`system_report_status`] against the serving layer's shared
/// sharded cache: chain structures warmed by *any* earlier request —
/// this connection's or another's — are re-rated by label, with no
/// per-edge copy, instead of re-running their marking BFS.  The rendered text is **bitwise
/// identical** to [`system_report_status`]'s for the same system and
/// options (the [`ChainSolver`] contract); only the wall-clock differs.
pub fn system_report_shared(
    system: &System,
    opts: ReportOptions,
    cache: &SharedChainCache,
) -> (String, ReportStatus) {
    system_report_with(system, opts, &mut &*cache)
}

/// The generic renderer behind [`system_report_status`] (one-shot cache)
/// and [`system_report_shared`] (concurrent sharded cache).
pub fn system_report_with(
    system: &System,
    opts: ReportOptions,
    solver: &mut impl ChainSolver,
) -> (String, ReportStatus) {
    let mut status = ReportStatus::Ok;
    let mut s = String::new();
    let shape = system.shape();
    writeln!(
        s,
        "system: {} stages on {} processors, teams {:?}",
        shape.n_stages(),
        system.platform().n_processors(),
        shape.teams()
    )
    .unwrap();
    writeln!(s, "paths (TPN rows): m = {}", shape.n_paths()).unwrap();

    // Deterministic, Overlap (columnwise — works for any m) + global when
    // feasible.
    let rho_cw = deterministic::throughput_columnwise(system);
    writeln!(s, "\n[overlap/deterministic]").unwrap();
    writeln!(s, "  throughput (Theorem 1) = {rho_cw:.6}").unwrap();
    if shape.n_paths() <= opts.max_rows_strict {
        let det = deterministic::analyze(system, ExecModel::Overlap);
        writeln!(
            s,
            "  period P = {:.6}   1/Mct = {:.6}",
            det.period, det.bound_throughput
        )
        .unwrap();
        writeln!(
            s,
            "  critical resource dictates rate: {}",
            det.has_critical_resource
        )
        .unwrap();
        for r in &det.critical_resources {
            writeln!(s, "    critical: {r}").unwrap();
        }

        let st = deterministic::analyze(system, ExecModel::Strict);
        writeln!(s, "\n[strict/deterministic]").unwrap();
        writeln!(
            s,
            "  throughput = {:.6}   period P = {:.6}   1/Mct = {:.6}",
            st.throughput, st.period, st.bound_throughput
        )
        .unwrap();
        writeln!(
            s,
            "  critical resource dictates rate: {}",
            st.has_critical_resource
        )
        .unwrap();
    } else {
        writeln!(
            s,
            "  (global TPN and Strict analyses skipped: m = {} rows)",
            shape.n_paths()
        )
        .unwrap();
    }

    let rates = timing::exponential_rates(system);

    // Exponential decomposition.
    writeln!(s, "\n[overlap/exponential — Theorems 3/4]").unwrap();
    match exponential::throughput_overlap_with_solver(&shape, &rates, opts.run, solver) {
        Ok(rep) => {
            writeln!(s, "  throughput = {:.6}", rep.throughput).unwrap();
            writeln!(s, "  bottleneck: {}", describe(rep.bottleneck.place)).unwrap();
            if opts.list_candidates {
                for c in &rep.candidates {
                    writeln!(
                        s,
                        "    {:<28} candidate rate {:.6}",
                        describe(c.place),
                        c.rate
                    )
                    .unwrap();
                }
            }
        }
        Err(e) => {
            writeln!(s, "  unavailable: {e}").unwrap();
            note(
                &mut status,
                match e.interrupt() {
                    Some(i) => ReportStatus::Interrupted(i.reason),
                    None => hard_status(&e),
                },
            );
        }
    }

    // Strict Theorem 2 chain with full-vs-quotient state counts.
    if shape.n_paths() <= opts.max_rows_strict {
        writeln!(s, "\n[strict/exponential — Theorem 2]").unwrap();
        match exponential::throughput_strict_with_solver(system, opts.run, solver) {
            Ok(rep) => {
                writeln!(s, "  throughput = {:.6}", rep.throughput).unwrap();
                match rep.lumped_states {
                    Some(q) => writeln!(
                        s,
                        "  chain: {} states solved for {} full ({}, {:.1}x reduction)",
                        q,
                        rep.full_states,
                        rep.method.label(),
                        rep.full_states as f64 / q as f64
                    )
                    .unwrap(),
                    None => writeln!(
                        s,
                        "  chain: {} states ({})",
                        rep.full_states,
                        rep.method.label()
                    )
                    .unwrap(),
                }
                writeln!(
                    s,
                    "  solver={} iterations={} residual={:.3e}",
                    rep.solver.label(),
                    rep.iterations,
                    rep.residual
                )
                .unwrap();
                writeln!(
                    s,
                    "  memory: arena {} + interner {} resident",
                    mib(rep.arena.keys_bytes + rep.arena.reps_bytes),
                    mib(rep.arena.interner_bytes)
                )
                .unwrap();
            }
            // Degradation ladder: an interrupt under `Bounds` falls back
            // to the polynomial N.B.U.E. sandwich (Overlap — the Strict
            // N.B.U.E. lower bound may itself need the chain that just
            // timed out) and stamps the report with provenance; every
            // other failure is classified for the caller's exit code.
            Err(e) => match (e.interrupt(), opts.degrade) {
                (Some(i), DegradeMode::Bounds) => {
                    writeln!(
                        s,
                        "  degraded=yes method=bounds-fallback reason={}",
                        i.reason.label()
                    )
                    .unwrap();
                    writeln!(
                        s,
                        "  progress: phase={} states={} levels={} iterations={}",
                        i.progress.phase.label(),
                        i.progress.states,
                        i.progress.levels,
                        i.progress.iterations
                    )
                    .unwrap();
                    match bounds::nbue_bounds_capped(
                        system,
                        ExecModel::Overlap,
                        opts.max_states,
                        solver,
                    ) {
                        Ok(b) => writeln!(
                            s,
                            "  N.B.U.E. fallback: throughput in [{:.6}, {:.6}] ({:?})",
                            b.lower, b.upper, b.method
                        )
                        .unwrap(),
                        Err(be) => writeln!(s, "  bounds fallback unavailable: {be}").unwrap(),
                    }
                    note(&mut status, ReportStatus::Degraded(i.reason));
                }
                (Some(i), DegradeMode::Fail) => {
                    writeln!(s, "  interrupted: {i}").unwrap();
                    note(&mut status, ReportStatus::Interrupted(i.reason));
                }
                (None, _) => {
                    writeln!(s, "  unavailable: {e}").unwrap();
                    note(&mut status, hard_status(&e));
                }
            },
        }
    }

    // Theorem 7 sandwich (reuses the pattern chains cached above).
    if let Ok(b) = bounds::nbue_bounds_capped(system, ExecModel::Overlap, opts.max_states, solver) {
        writeln!(s, "\n[N.B.U.E. sandwich — Theorem 7, overlap]").unwrap();
        writeln!(
            s,
            "  any N.B.U.E. timing: throughput in [{:.6}, {:.6}] ({:?})",
            b.lower, b.upper, b.method
        )
        .unwrap();
    }
    (s, status)
}

/// Render a byte count as MiB with enough precision for small builds.
fn mib(bytes: usize) -> String {
    format!("{:.2} MiB", bytes as f64 / (1024.0 * 1024.0))
}

fn describe(place: ColumnRef) -> String {
    match place {
        ColumnRef::Compute { stage, slot } => format!("compute stage {stage} slot {slot}"),
        ColumnRef::Comm { file, component } => {
            format!("communication file {file} component {component}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Application, Mapping, Platform};
    use crate::wire::WireOptions;

    fn system() -> System {
        let app = Application::uniform(2, 6.0, 12.0).unwrap();
        let platform = Platform::complete(vec![1.0, 1.0, 1.0], 4.0).unwrap();
        System::new(
            app,
            platform,
            Mapping::new(vec![vec![0], vec![1, 2]]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn report_contains_all_sections() {
        let r = system_report(&system(), ReportOptions::default());
        for needle in [
            "teams [1, 2]",
            "[overlap/deterministic]",
            "[strict/deterministic]",
            "Theorems 3/4",
            "[strict/exponential — Theorem 2]",
            "direct-quotient",
            "solver=",
            "iterations=",
            "residual=",
            "memory: arena",
            "N.B.U.E. sandwich",
            "bottleneck:",
        ] {
            assert!(r.contains(needle), "missing {needle:?} in:\n{r}");
        }
    }

    #[test]
    fn a_state_cap_bounds_the_pattern_chains_too() {
        // Teams 5 × 6 with one slow link: the decomposition needs one
        // heterogeneous 1 260-state pattern chain (S(5,6) = C(10,4)·6).
        let app = Application::uniform(2, 6.0, 12.0).unwrap();
        let mut platform = Platform::complete(vec![100.0; 11], 1.0).unwrap();
        platform.set_bandwidth(0, 5, 0.5).unwrap();
        let teams = vec![(0..5).collect(), (5..11).collect()];
        let sys = System::new(app, platform, Mapping::new(teams).unwrap()).unwrap();
        // The 30-row Strict chain is not what this test is about.
        let wire = WireOptions {
            max_rows_strict: 1,
            ..Default::default()
        };

        let default_cap = RunConfig::default().max_states;
        let (text, status) = system_report_status(&sys, wire.report_options(None, default_cap));
        assert_eq!(status, ReportStatus::Ok, "{text}");
        assert!(
            text.contains("Theorems 3/4]\n  throughput = 0.239344"),
            "{text}"
        );
        assert!(text.contains("N.B.U.E. sandwich"), "{text}");

        // Under a server cap of 100 states neither the decomposition nor
        // the sandwich may build that chain.
        let (text, status) = system_report_status(&sys, wire.report_options(None, 100));
        assert_eq!(status, ReportStatus::OverBudget, "{text}");
        assert!(
            text.contains("Theorems 3/4]\n  unavailable: pattern 5×6"),
            "{text}"
        );
        assert!(!text.contains("N.B.U.E. sandwich"), "{text}");
    }

    #[test]
    fn big_shapes_skip_the_global_tpn() {
        let app = Application::uniform(4, 1.0, 1.0).unwrap();
        let platform = Platform::complete(vec![1.0; 64], 4.0).unwrap();
        let teams: Vec<Vec<usize>> = {
            let sizes = [5usize, 21, 27, 11];
            let mut v = Vec::new();
            let mut next = 0;
            for &r in &sizes {
                v.push((next..next + r).collect());
                next += r;
            }
            v
        };
        let sys = System::new(app, platform, Mapping::new(teams).unwrap()).unwrap();
        let r = system_report(
            &sys,
            ReportOptions {
                max_rows_strict: 5_000,
                ..Default::default()
            },
        );
        assert!(r.contains("skipped: m = 10395"), "{r}");
        assert!(r.contains("Theorem 1"), "{r}");
    }

    #[test]
    fn candidates_can_be_suppressed() {
        let r = system_report(
            &system(),
            ReportOptions {
                list_candidates: false,
                ..Default::default()
            },
        );
        assert!(!r.contains("candidate rate"));
    }
}
