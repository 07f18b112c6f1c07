//! Deterministic fault injection (only compiled under the
//! `fault-inject` feature).
//!
//! A [`FaultPlan`] says which fault to inject and at which occurrence:
//! forced solver stagnation at the Nth solver checkpoint, and budget
//! exhaustion when a BFS build reaches level N.  Plans install into a
//! process-global slot ([`install`]/[`clear`]) or from the
//! `REPSTREAM_FAULT` environment variable
//! (`REPSTREAM_FAULT=budget-level:3,solver-stall:0`, see [`parse`]).
//!
//! Faults are **deterministic**: occurrence counters tick in the code's
//! own operation order, so a given plan fails the same operation on
//! every run.  With no plan installed every hook is inert and the
//! feature-compiled binary behaves bitwise identically to one built
//! without the feature — this module's tests and the
//! `markov/tests/faults.rs` matrix pin that.

use std::sync::{Mutex, MutexGuard};

use crate::govern::{Phase, Progress};

/// Which faults to inject and at which occurrence.  Counters are
/// 0-based: `solver_stall: Some(3)` stalls the **4th** solver
/// checkpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Report stagnation at the Nth solver checkpoint.
    pub solver_stall: Option<u64>,
    /// Fail budget checks once a BFS build reaches level N.
    pub budget_level: Option<u64>,
}

/// Installed plan plus its occurrence counters.
struct FaultState {
    plan: FaultPlan,
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
        solver_checks: 0,
    });
}

/// Remove any installed plan — all hooks become inert again.
pub fn clear() {
    *state() = None;
}

/// Parse a `REPSTREAM_FAULT` spec: comma-separated `kind:N` pairs with
/// kind ∈ {`solver-stall`, `budget-level`}.
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
            "solver-stall" => &mut plan.solver_stall,
            "budget-level" => &mut plan.budget_level,
            other => {
                return Err(format!(
                    "unknown fault kind `{other}` (expected solver-stall or budget-level)"
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
        let plan = parse("solver-stall:0, budget-level:2").unwrap();
        assert_eq!(
            plan,
            FaultPlan {
                solver_stall: Some(0),
                budget_level: Some(2),
            }
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("solver-stall").is_err());
        assert!(parse("solver-stall:x").is_err());
        assert!(parse("flux-capacitor:1").is_err());
        assert!(parse("spill-write:0").is_err());
        assert_eq!(parse("").unwrap(), FaultPlan::default());
    }

    /// Clears the plan on drop, so a failed test never leaves it armed.
    struct Cleared;

    impl Drop for Cleared {
        fn drop(&mut self) {
            clear();
        }
    }

    /// With no plan installed — or a plan whose trigger is never reached —
    /// the hooks are inert: states, rates, and the stationary solve are
    /// bitwise identical to an unfaulted run.
    #[test]
    fn no_fault_run_is_bitwise_identical() {
        use crate::ctmc::Ctmc;
        use crate::marking::{MarkingOptions, QuotientGraph};
        use crate::net::EventNet;
        use repstream_petri::shape::{ExecModel, MappingShape, ResourceTable};
        use repstream_petri::tpn::Tpn;

        let _cleared = Cleared;
        clear();
        let shape = MappingShape::new(vec![4, 5]);
        let tpn = Tpn::build(&shape, ExecModel::Strict);
        let rates = ResourceTable::from_fns(&shape, |_, _| 0.5, |_, _, _| 2.0);
        let (net, sym) = EventNet::from_tpn_with_symmetry(&tpn, &rates);
        let sym = sym.expect("homogeneous table keeps the row rotation");
        let opts = MarkingOptions {
            max_states: 1 << 22,
            capacity: None,
            ..Default::default()
        };
        let reference = QuotientGraph::build(&net, &sym, opts).unwrap();
        let reference_ctmc = reference.ctmc_with_trans_rates(&net.rates);
        let pi_ref = reference_ctmc.stationary();

        install(FaultPlan {
            solver_stall: Some(u64::MAX),
            budget_level: Some(10_000),
        });
        let armed_run = QuotientGraph::build(&net, &sym, opts).unwrap();
        assert_eq!(armed_run.n_states(), reference.n_states());
        let armed_ctmc = armed_run.ctmc_with_trans_rates(&net.rates);
        assert_eq!(
            armed_ctmc.structure().forward_targets(),
            reference_ctmc.structure().forward_targets(),
            "forward targets"
        );
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for s in 0..reference.n_states() {
            assert_eq!(
                armed_run.recorded.read_into(s, &mut a),
                reference.recorded.read_into(s, &mut b),
                "representative {s}"
            );
            for (x, y) in armed_ctmc.row_rates(s).zip(reference_ctmc.row_rates(s)) {
                assert_eq!(x.to_bits(), y.to_bits(), "rate bits of {s}");
            }
            let incoming = |c: &Ctmc| -> Vec<(usize, u64)> {
                c.incoming(s).map(|(i, r)| (i, r.to_bits())).collect()
            };
            assert_eq!(
                incoming(&armed_ctmc),
                incoming(&reference_ctmc),
                "incoming of {s}"
            );
        }
        let pi_armed = armed_ctmc.stationary();
        for (i, (x, y)) in pi_armed.iter().zip(pi_ref.iter()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "pi[{i}]");
        }
    }
}
