//! Deterministic fault injection (only compiled under the
//! `fault-inject` feature).
//!
//! A [`FaultPlan`] says which fault to inject and at which occurrence:
//! spill-file read/write failures at the Nth I/O operation, forced
//! solver stagnation at the Nth solver checkpoint, and budget
//! exhaustion when a BFS build reaches level N.  Plans install into a
//! process-global slot ([`install`]/[`clear`]) or from the
//! `REPSTREAM_FAULT` environment variable
//! (`REPSTREAM_FAULT=spill-write:3,solver-stall:0`, see [`parse`]).
//!
//! Faults are **deterministic**: occurrence counters tick in the code's
//! own operation order, so a given plan fails the same operation on
//! every run.  With no plan installed every hook is inert and the
//! feature-compiled binary behaves bitwise identically to one built
//! without the feature — the `markov/tests/faults.rs` matrix pins that.

use std::io;
use std::sync::{Mutex, MutexGuard};

use crate::govern::{Phase, Progress};

/// Which faults to inject and at which occurrence.  Counters are
/// 0-based: `spill_write: Some(3)` fails the **4th** spill write.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Fail the Nth spill-file write.
    pub spill_write: Option<u64>,
    /// Fail the Nth spill-file read.
    pub spill_read: Option<u64>,
    /// Report stagnation at the Nth solver checkpoint.
    pub solver_stall: Option<u64>,
    /// Fail budget checks once a BFS build reaches level N.
    pub budget_level: Option<u64>,
}

/// Installed plan plus its occurrence counters.
struct FaultState {
    plan: FaultPlan,
    writes: u64,
    reads: u64,
    solver_checks: u64,
}

static STATE: Mutex<Option<FaultState>> = Mutex::new(None);

fn state() -> MutexGuard<'static, Option<FaultState>> {
    // A panic while holding the lock (e.g. a test assertion) must not
    // wedge every later test: take the data through the poison.
    STATE.lock().unwrap_or_else(|p| p.into_inner())
}

/// Install `plan`, resetting all occurrence counters.
pub fn install(plan: FaultPlan) {
    *state() = Some(FaultState {
        plan,
        writes: 0,
        reads: 0,
        solver_checks: 0,
    });
}

/// Remove any installed plan — all hooks become inert again.
pub fn clear() {
    *state() = None;
}

/// Parse a `REPSTREAM_FAULT` spec: comma-separated `kind:N` pairs with
/// kind ∈ {`spill-write`, `spill-read`, `solver-stall`, `budget-level`}.
pub fn parse(spec: &str) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::default();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (kind, n) = part
            .split_once(':')
            .ok_or_else(|| format!("fault spec `{part}` is not of the form kind:N"))?;
        let n: u64 = n
            .trim()
            .parse()
            .map_err(|_| format!("fault spec `{part}`: `{n}` is not a number"))?;
        let slot = match kind.trim() {
            "spill-write" => &mut plan.spill_write,
            "spill-read" => &mut plan.spill_read,
            "solver-stall" => &mut plan.solver_stall,
            "budget-level" => &mut plan.budget_level,
            other => {
                return Err(format!(
                    "unknown fault kind `{other}` (expected spill-write, \
                     spill-read, solver-stall or budget-level)"
                ))
            }
        };
        *slot = Some(n);
    }
    Ok(plan)
}

/// Install a plan from the `REPSTREAM_FAULT` environment variable.
/// Returns `Ok(true)` when a plan was installed, `Ok(false)` when the
/// variable is unset or empty, `Err` on a malformed spec.  Read fresh
/// on every call (not cached) so tests can vary plans per run.
pub fn install_from_env() -> Result<bool, String> {
    match std::env::var("REPSTREAM_FAULT") {
        Ok(s) if !s.trim().is_empty() => {
            install(parse(&s)?);
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// Hook for the spill write path: `Some(error)` when this write is the
/// planned casualty.
pub(crate) fn spill_write_fault() -> Option<io::Error> {
    let mut g = state();
    let st = g.as_mut()?;
    let n = st.plan.spill_write?;
    let k = st.writes;
    st.writes += 1;
    (k == n).then(|| io::Error::other("injected spill-write fault"))
}

/// Hook for the spill read path: `Some(error)` when this read is the
/// planned casualty.
pub(crate) fn spill_read_fault() -> Option<io::Error> {
    let mut g = state();
    let st = g.as_mut()?;
    let n = st.plan.spill_read?;
    let k = st.reads;
    st.reads += 1;
    (k == n).then(|| io::Error::other("injected spill-read fault"))
}

/// Hook for solver checkpoints: `true` when this checkpoint is the
/// planned stall.
pub(crate) fn solver_stall_fault() -> bool {
    let mut g = state();
    let Some(st) = g.as_mut() else { return false };
    let Some(n) = st.plan.solver_stall else {
        return false;
    };
    let k = st.solver_checks;
    st.solver_checks += 1;
    k == n
}

/// Hook for [`crate::govern::Budget::check`]: `true` once a BFS build
/// reaches the planned level (fires with or without real limits set).
pub(crate) fn budget_exhausted(progress: &Progress) -> bool {
    if !matches!(progress.phase, Phase::MarkingBfs | Phase::QuotientBfs) {
        return false;
    }
    let g = state();
    let Some(st) = g.as_ref() else { return false };
    st.plan.budget_level == Some(progress.levels as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let plan = parse("spill-write:3, solver-stall:0,budget-level:2").unwrap();
        assert_eq!(
            plan,
            FaultPlan {
                spill_write: Some(3),
                spill_read: None,
                solver_stall: Some(0),
                budget_level: Some(2),
            }
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("spill-write").is_err());
        assert!(parse("spill-write:x").is_err());
        assert!(parse("flux-capacitor:1").is_err());
        assert_eq!(parse("").unwrap(), FaultPlan::default());
    }
}
