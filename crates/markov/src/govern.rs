//! Cooperative resource governor for the long-running analyses.
//!
//! A [`Budget`] bundles the resource limits a caller is willing to spend
//! on one analysis: a wall-clock deadline, an arena-byte cap, and an
//! external cancellation flag.  The budget is **checked cooperatively at
//! coarse grain** — once per BFS level in the marking builds, once per
//! restart/sweep checkpoint in the stationary solvers, once per candidate
//! batch in the portfolio search — so the checks cost nothing measurable
//! and, crucially, they only decide *whether to abort*, never what to
//! emit: output bits do not depend on the budget as long as no limit
//! fires.
//!
//! An overrun surfaces as a structured [`Interrupt`] carrying the
//! [`InterruptReason`] and a [`Progress`] snapshot (phase, states,
//! levels, iterations, arena bytes) so callers can report how far the
//! computation got — the degradation ladder in `repstream-core` turns
//! that into a bounds-fallback report stamped with provenance.

use crate::ctmc::SolverChoice;
use crate::marking::MarkingOptions;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Which long-running phase a [`Progress`] snapshot was taken in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Phase {
    /// Plain marking-graph BFS (full reachable chain).
    #[default]
    MarkingBfs,
    /// Direct-quotient BFS (orbit representatives).
    QuotientBfs,
    /// Stationary solve (Gauss–Seidel and power sweeps).
    Solve,
    /// Candidate scoring in the portfolio / workload search.
    Search,
}

impl Phase {
    /// Stable lowercase label (report provenance and error messages).
    pub fn label(self) -> &'static str {
        match self {
            Phase::MarkingBfs => "marking-bfs",
            Phase::QuotientBfs => "quotient-bfs",
            Phase::Solve => "solve",
            Phase::Search => "search",
        }
    }
}

/// How far a governed computation had gotten when it was interrupted
/// (all counters are zero when not applicable to the phase).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Progress {
    /// The phase the computation was in.
    pub phase: Phase,
    /// States interned so far (BFS phases) or system size (solve).
    pub states: usize,
    /// BFS levels completed.
    pub levels: usize,
    /// Solver iterations (matvecs/sweeps) or candidates scored.
    pub iterations: usize,
    /// Resident marking-storage bytes (arenas + interner tables).
    pub arena_bytes: usize,
}

/// Why a governed computation was interrupted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InterruptReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The external cancellation flag was raised.
    Cancelled,
    /// Resident marking storage exceeded the arena-byte cap.
    MemoryCap,
    /// A forced solver made no progress across a checkpoint window.
    SolverStall,
}

impl InterruptReason {
    /// Stable lowercase label (report provenance: `reason=<label>`).
    pub fn label(self) -> &'static str {
        match self {
            InterruptReason::Deadline => "deadline",
            InterruptReason::Cancelled => "cancel",
            InterruptReason::MemoryCap => "memory-cap",
            InterruptReason::SolverStall => "solver-stall",
        }
    }
}

/// A structured interruption: why the governor fired and how far the
/// computation had gotten.  Wrapped by the per-layer error enums
/// (`MarkingError::Interrupted`, `ExpError`, `EngineError`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interrupt {
    /// Which limit fired.
    pub reason: InterruptReason,
    /// Progress snapshot at the check that fired.
    pub progress: Progress,
}

impl std::fmt::Display for Interrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "interrupted ({}) during {} after {} states / {} levels / {} iterations",
            self.reason.label(),
            self.progress.phase.label(),
            self.progress.states,
            self.progress.levels,
            self.progress.iterations,
        )
    }
}

impl std::error::Error for Interrupt {}

/// Resource limits for one analysis, checked cooperatively (see the
/// module docs).  `Copy` so it embeds in every options struct; the
/// default is [`Budget::UNLIMITED`] — every check passes; there is no
/// separate ungoverned path, this *is* the no-limit case of the one path.
#[derive(Clone, Copy, Debug, Default)]
pub struct Budget {
    /// Absolute wall-clock instant past which checks fail.
    pub deadline: Option<Instant>,
    /// External cancellation flag (raised by another thread — e.g. a
    /// server's per-request cancel).  `'static` so the handle stays
    /// `Copy`; long-lived callers leak one `AtomicBool` per cancel
    /// scope (`Box::leak`), which is the intended pattern.
    pub cancel: Option<&'static AtomicBool>,
    /// Cap on resident marking-storage bytes (arenas + interner).
    pub max_arena_bytes: Option<usize>,
}

impl Budget {
    /// The default: no deadline, no cancel flag, no memory cap.
    pub const UNLIMITED: Budget = Budget {
        deadline: None,
        cancel: None,
        max_arena_bytes: None,
    };

    /// Budget with a deadline `d` from now.
    pub fn deadline_in(d: Duration) -> Budget {
        Budget {
            deadline: Some(Instant::now() + d),
            ..Budget::UNLIMITED
        }
    }

    /// Budget with an absolute deadline.
    pub fn deadline_at(at: Instant) -> Budget {
        Budget {
            deadline: Some(at),
            ..Budget::UNLIMITED
        }
    }

    /// Attach an external cancellation flag.
    pub fn cancelled_by(mut self, flag: &'static AtomicBool) -> Budget {
        self.cancel = Some(flag);
        self
    }

    /// Attach a resident arena-byte cap.
    pub fn arena_cap(mut self, bytes: usize) -> Budget {
        self.max_arena_bytes = Some(bytes);
        self
    }

    /// `true` when no limit is set — checks are a handful of compares
    /// (no clock read) and always pass, except under fault injection.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.cancel.is_none() && self.max_arena_bytes.is_none()
    }

    /// One cooperative checkpoint: cancellation first (cheapest and most
    /// urgent), then the deadline, then the memory cap.  Under the
    /// `fault-inject` feature an installed `budget-level:N` fault makes
    /// the check fail with [`InterruptReason::Deadline`] when a BFS
    /// phase reaches level `N`, with or without real limits set.
    pub fn check(&self, progress: Progress) -> Result<(), Interrupt> {
        #[cfg(feature = "fault-inject")]
        if crate::fault::budget_exhausted(&progress) {
            return Err(Interrupt {
                reason: InterruptReason::Deadline,
                progress,
            });
        }
        if let Some(flag) = self.cancel {
            if flag.load(Ordering::Relaxed) {
                return Err(Interrupt {
                    reason: InterruptReason::Cancelled,
                    progress,
                });
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(Interrupt {
                    reason: InterruptReason::Deadline,
                    progress,
                });
            }
        }
        if let Some(cap) = self.max_arena_bytes {
            if progress.arena_bytes > cap {
                return Err(Interrupt {
                    reason: InterruptReason::MemoryCap,
                    progress,
                });
            }
        }
        Ok(())
    }
}

/// How to run one exact analysis: the four knobs every evaluator above
/// the marking BFS shares.  Declared here once; the report, search and
/// serving layers *hold* a `RunConfig` (`ReportOptions::run`,
/// `PortfolioOptions::run`, …) instead of re-declaring its fields, and it
/// becomes the BFS's own [`MarkingOptions`] in exactly one place,
/// [`RunConfig::marking`].
///
/// Only `max_states` and `solver` can change a result (an over-budget
/// error, the method that solves the chain); `threads` and an un-fired
/// `budget` are **bitwise-neutral**.
/// Which chain is solved is not a knob: the Theorem 2 chain is the
/// row-rotation quotient whenever the rotation survives the rates.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// State budget of a cold chain build (the CLI's `--max-states`).
    /// The Theorem 2 chain gets all of it; a Theorem 3 pattern chain gets
    /// [`RunConfig::pattern_states`].  The 4M default covers quotients up
    /// to the 6×7 shape; 10M-class shapes (7×8, 14.06M lumped states)
    /// need a larger budget.  A warm cache hit reuses the cached
    /// structure without re-checking it.
    pub max_states: usize,
    /// Worker threads of the chunk-parallel marking BFS (the CLI's
    /// `--threads`; `0` = auto: one per core on levels large enough to
    /// amortize the spawns, `1` = the forced-sequential scan).
    pub threads: usize,
    /// Stationary solver of the Theorem 2 chain (the CLI's `--solver`):
    /// [`SolverChoice::Auto`] runs the measured
    /// [`SolverPlan`](crate::ctmc::SolverPlan) policy, `Force` pins one
    /// method for A/B runs — warm or cold, within the solvers' agreement
    /// tolerance.  Pattern chains always use the automatic policy (they
    /// are small; forcing there only adds noise).
    pub solver: SolverChoice,
    /// Cooperative resource budget (the CLI's `--deadline`), checked once
    /// per BFS level of a cold build, at the stationary solver's
    /// checkpoints, and per candidate batch of a search.  An overrun
    /// surfaces as a structured [`Interrupt`].
    pub budget: Budget,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            max_states: 4_000_000,
            threads: 0,
            solver: SolverChoice::Auto,
            budget: Budget::UNLIMITED,
        }
    }
}

impl RunConfig {
    /// Ceiling on [`RunConfig::pattern_states`]: `S(u,v) = C(u+v−1,u−1)·v`
    /// grows exponentially, and a pattern chain is solved per candidate.
    pub const MAX_PATTERN_STATES: usize = 2_000_000;

    /// State budget of one Theorem 3 pattern chain: `max_states`, so a
    /// caller's (or a server's) cap bounds every chain of the request,
    /// but never more than [`Self::MAX_PATTERN_STATES`].
    pub fn pattern_states(&self) -> usize {
        self.max_states.min(Self::MAX_PATTERN_STATES)
    }

    /// The marking BFS's own options for a build under this
    /// configuration (`capacity`: `None` for the safe Strict nets, a
    /// per-place token bound for the capped Overlap validation chain).
    /// The BFS-only knob `interner_shards` keeps its built-in default.
    pub fn marking(&self, capacity: Option<u32>) -> MarkingOptions {
        MarkingOptions {
            max_states: self.max_states,
            capacity,
            threads: self.threads,
            budget: self.budget,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_always_passes() {
        let b = Budget::default();
        assert!(b.is_unlimited());
        assert!(b
            .check(Progress {
                states: usize::MAX,
                ..Progress::default()
            })
            .is_ok());
    }

    #[test]
    fn expired_deadline_fires() {
        let b = Budget::deadline_at(Instant::now() - Duration::from_millis(1));
        let e = b.check(Progress::default()).unwrap_err();
        assert_eq!(e.reason, InterruptReason::Deadline);
        assert_eq!(e.reason.label(), "deadline");
    }

    #[test]
    fn cancel_flag_fires_before_deadline() {
        let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let b = Budget::deadline_at(Instant::now() - Duration::from_millis(1)).cancelled_by(flag);
        assert_eq!(
            b.check(Progress::default()).unwrap_err().reason,
            InterruptReason::Deadline
        );
        flag.store(true, Ordering::Relaxed);
        assert_eq!(
            b.check(Progress::default()).unwrap_err().reason,
            InterruptReason::Cancelled
        );
    }

    #[test]
    fn arena_cap_fires_on_excess() {
        let b = Budget::UNLIMITED.arena_cap(1024);
        let mk = |bytes| Progress {
            arena_bytes: bytes,
            ..Progress::default()
        };
        assert!(b.check(mk(1024)).is_ok());
        let e = b.check(mk(1025)).unwrap_err();
        assert_eq!(e.reason, InterruptReason::MemoryCap);
        assert_eq!(e.progress.arena_bytes, 1025);
    }

    #[test]
    fn interrupt_display_mentions_phase_and_reason() {
        let i = Interrupt {
            reason: InterruptReason::Cancelled,
            progress: Progress {
                phase: Phase::QuotientBfs,
                states: 42,
                levels: 3,
                iterations: 0,
                arena_bytes: 0,
            },
        };
        let s = i.to_string();
        assert!(s.contains("cancel"), "{s}");
        assert!(s.contains("quotient-bfs"), "{s}");
        assert!(s.contains("42 states"), "{s}");
    }
}
