//! The deterministic fault matrix (`--features fault-inject`).
//!
//! Every injected failure — forced solver stagnation, budget exhaustion
//! at every BFS level — must surface as a structured error
//! (`Interrupt`), never a panic.  That with no plan installed (or a plan
//! that never fires) the feature-compiled build is bitwise identical to
//! a run without the hooks is a unit test of `fault.rs`: it compares the
//! built markings, which only the crate's own test builds record.
//!
//! The fault plan is process-global, so every test serializes on one
//! mutex (poison-tolerant: an assertion failure in one test must not
//! wedge the rest).

#![cfg(feature = "fault-inject")]

use repstream_markov::cache::ChainCache;
use repstream_markov::ctmc::{Solver, SolverChoice};
use repstream_markov::fault::{self, FaultPlan};
use repstream_markov::govern::{Budget, InterruptReason, Phase};
use repstream_markov::marking::{MarkingError, MarkingGraph, MarkingOptions, QuotientGraph};
use repstream_markov::net::{comm_pattern, EventNet};
use repstream_petri::shape::{ExecModel, MappingShape, ResourceTable};
use repstream_petri::tpn::Tpn;
use std::sync::Mutex;

/// Serializes the tests (the installed plan is process-global state).
static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// A guard that holds the lock and clears the plan on drop, so a failed
/// test never leaves its plan armed for the next one.
struct Armed(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);

impl Armed {
    fn install(plan: FaultPlan) -> Self {
        let g = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        fault::install(plan);
        Armed(g)
    }

    fn clear() -> Self {
        let g = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        fault::clear();
        Armed(g)
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        fault::clear();
    }
}

fn net_for(teams: &[usize]) -> (EventNet, repstream_markov::net::NetSymmetry) {
    let shape = MappingShape::new(teams.to_vec());
    let tpn = Tpn::build(&shape, ExecModel::Strict);
    let rates = ResourceTable::from_fns(&shape, |_, _| 0.5, |_, _, _| 2.0);
    let (net, sym) = EventNet::from_tpn_with_symmetry(&tpn, &rates);
    (net, sym.expect("homogeneous table keeps the row rotation"))
}

/// Forced stagnation at the first governed-solver checkpoint: the solve
/// returns `Interrupt { reason: SolverStall }` instead of spinning.
#[test]
fn solver_stall_fault_interrupts_the_solve() {
    let _armed = Armed::clear();
    let (net, sym) = net_for(&[3, 4]);
    let qg = QuotientGraph::build(&net, &sym, MarkingOptions::default()).unwrap();
    fault::install(FaultPlan {
        solver_stall: Some(0),
        ..Default::default()
    });
    let err = qg
        .ctmc_with_trans_rates(&net.rates)
        .stationary_solve_governed(SolverChoice::Force(Solver::GaussSeidel), &Budget::UNLIMITED)
        .unwrap_err();
    assert_eq!(err.reason, InterruptReason::SolverStall);
    assert_eq!(err.progress.phase, Phase::Solve);
}

/// Budget exhaustion forced at every BFS level of the 4×5 quotient in
/// turn: each firing reports exactly the planned level, and a plan past
/// the last level never fires.
#[test]
fn budget_fires_at_each_bfs_level() {
    let _armed = Armed::clear();
    let (net, sym) = net_for(&[4, 5]);
    let mut completed_at = None;
    for level in 0..200u64 {
        fault::install(FaultPlan {
            budget_level: Some(level),
            ..Default::default()
        });
        match QuotientGraph::build(&net, &sym, MarkingOptions::default()) {
            Err(MarkingError::Interrupted(i)) => {
                assert_eq!(i.progress.phase, Phase::QuotientBfs, "level {level}");
                assert_eq!(i.progress.levels as u64, level, "level {level}");
            }
            Err(other) => panic!("level {level}: expected an interrupt, got {other:?}"),
            Ok(_) => {
                completed_at = Some(level);
                break;
            }
        }
    }
    let done = completed_at.expect("some level count completes the 4x5 build");
    assert!(done > 3, "the 4x5 BFS has more than {done} levels");
}

/// A level fault past level 0 fires on a ≤ 8-place net too: small nets
/// run the same level-structured kernel as every other build.
#[test]
fn budget_level_fault_fires_on_a_small_net() {
    let _armed = Armed::install(FaultPlan {
        budget_level: Some(1),
        ..Default::default()
    });
    let net = comm_pattern(1, 4, |_, _| 1.0);
    assert!(net.n_places() <= 8);
    match MarkingGraph::build(&net, MarkingOptions::default()) {
        Err(MarkingError::Interrupted(i)) => {
            assert_eq!(i.progress.phase, Phase::MarkingBfs);
            assert_eq!(i.progress.levels, 1);
        }
        other => panic!("expected a level-1 interrupt, got {other:?}"),
    }
}

/// `REPSTREAM_FAULT` env parsing end to end (under the same lock: the
/// plan slot and the env var are both process-global).
#[test]
fn env_install_parses_and_arms() {
    let _armed = Armed::clear();
    std::env::set_var("REPSTREAM_FAULT", "budget-level:0");
    assert_eq!(fault::install_from_env(), Ok(true));
    let (net, sym) = net_for(&[2, 3]);
    match QuotientGraph::build(&net, &sym, MarkingOptions::default()) {
        Err(MarkingError::Interrupted(i)) => assert_eq!(i.progress.levels, 0),
        other => panic!("expected a level-0 interrupt, got {other:?}"),
    }
    std::env::set_var("REPSTREAM_FAULT", "flux-capacitor:1");
    assert!(fault::install_from_env().is_err());
    std::env::remove_var("REPSTREAM_FAULT");
    fault::clear();
    assert_eq!(fault::install_from_env(), Ok(false));
}

/// The stall matrix over every solver: each iterative method returns
/// `Interrupt { reason: SolverStall }` from its first checkpoint under
/// the one solve entry — and so does a production caller of it,
/// `ChainCache::pattern_throughput`, as a structured `MarkingError`
/// rather than a panic.  `Force(Gth)` completes: the direct elimination has no
/// checkpoint (and no iteration to stall).
#[test]
fn solver_stall_fault_covers_every_solver() {
    let _armed = Armed::clear();
    let stall = FaultPlan {
        solver_stall: Some(0),
        ..Default::default()
    };
    let (net, sym) = net_for(&[3, 4]);
    let qg = QuotientGraph::build(&net, &sym, MarkingOptions::default()).unwrap();
    for solver in [Solver::GaussSeidel, Solver::Power] {
        fault::install(stall);
        let err = qg
            .ctmc_with_trans_rates(&net.rates)
            .stationary_solve_governed(SolverChoice::Force(solver), &Budget::UNLIMITED)
            .expect_err(solver.label());
        assert_eq!(err.reason, InterruptReason::SolverStall, "{solver:?}");
        assert_eq!(err.progress.phase, Phase::Solve, "{solver:?}");
    }
    fault::install(stall);
    let gth = qg
        .ctmc_with_trans_rates(&net.rates)
        .stationary_solve_governed(SolverChoice::Force(Solver::Gth), &Budget::UNLIMITED)
        .expect("GTH has no checkpoint");
    assert_eq!(gth.solver, Solver::Gth);

    // A heterogeneous 4×5 pattern: 280 states, so the plan relaxes it
    // with Gauss–Seidel, and rates skewed enough that the unfaulted solve
    // sweeps past the first checkpoint.
    fault::clear();
    let rate: Vec<Vec<f64>> = (0..4)
        .map(|a| (0..5).map(|b| 0.25 + (a * 5 + b) as f64).collect())
        .collect();
    let pattern = comm_pattern(4, 5, |a, b| rate[a][b]);
    let mg = MarkingGraph::build(&pattern, MarkingOptions::default()).unwrap();
    let unfaulted = mg
        .ctmc_with_trans_rates(&pattern.rates)
        .stationary_solve_governed(SolverChoice::Auto, &Budget::UNLIMITED)
        .unwrap();
    assert_eq!(unfaulted.solver, Solver::GaussSeidel);
    assert!(unfaulted.iterations >= 8, "{} sweeps", unfaulted.iterations);
    assert!(ChainCache::new().pattern_throughput(&rate, 1 << 20).is_ok());

    fault::install(stall);
    match ChainCache::new().pattern_throughput(&rate, 1 << 20) {
        Err(MarkingError::Interrupted(i)) => {
            assert_eq!(i.reason, InterruptReason::SolverStall);
            assert_eq!(i.progress.phase, Phase::Solve);
        }
        other => panic!("expected a solver-stall interrupt, got {other:?}"),
    }
}
