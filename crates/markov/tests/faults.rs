//! The deterministic fault matrix (`--features fault-inject`).
//!
//! Every injected failure — spill writes dying at the first / second /
//! mid-build operation, spill reads dying, forced solver stagnation,
//! budget exhaustion at every BFS level — must surface as a structured
//! error (`MarkingError::SpillIo`, `Interrupt`), never a panic, and
//! must leak no spill temp file.  And with no plan installed (or a plan
//! that never fires) the feature-compiled build must be bitwise
//! identical to a run without the hooks.
//!
//! The fault plan is process-global, so every test serializes on one
//! mutex (poison-tolerant: an assertion failure in one test must not
//! wedge the rest).

#![cfg(feature = "fault-inject")]

use repstream_markov::cache::ChainCache;
use repstream_markov::ctmc::{Ctmc, Solver, SolverChoice};
use repstream_markov::fault::{self, FaultPlan};
use repstream_markov::govern::{Budget, InterruptReason, Phase};
use repstream_markov::marking::{
    MarkingError, MarkingGraph, MarkingOptions, QuotientGraph, SpillOp,
};
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

/// Spill-forcing options: a 64-byte resident limit parks payload on
/// disk almost immediately, so spill I/O runs from the first levels.
fn spill_opts() -> MarkingOptions {
    MarkingOptions {
        max_states: 1 << 22,
        capacity: None,
        interner_spill: true,
        spill_limit: 64,
        ..Default::default()
    }
}

/// A private spill dir for leak checks: anything left in it after the
/// build (and its drop) is a leaked temp file.
struct SpillDir(std::path::PathBuf);

impl SpillDir {
    fn set(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("repstream-faults-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create spill dir");
        std::env::set_var("REPSTREAM_SPILL_DIR", &dir);
        SpillDir(dir)
    }

    fn assert_no_leaks(&self, what: &str) {
        let leaked: Vec<_> = std::fs::read_dir(&self.0)
            .expect("read spill dir")
            .filter_map(|e| e.ok())
            .map(|e| e.file_name())
            .collect();
        assert!(leaked.is_empty(), "{what}: leaked spill files {leaked:?}");
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        std::env::remove_var("REPSTREAM_SPILL_DIR");
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Spill writes dying at the first, second, and a mid-build operation:
/// each surfaces as a structured `SpillIo` write error with the
/// injected source, and no temp file survives.
#[test]
fn spill_write_faults_surface_cleanly() {
    for n in [0u64, 1, 200] {
        let _armed = Armed::install(FaultPlan {
            spill_write: Some(n),
            ..Default::default()
        });
        let dir = SpillDir::set(&format!("write-{n}"));
        let (net, sym) = net_for(&[4, 5]);
        for quotient in [false, true] {
            let what = format!("spill-write:{n} quotient={quotient}");
            let err = if quotient {
                QuotientGraph::build(&net, &sym, spill_opts()).unwrap_err()
            } else {
                MarkingGraph::build(&net, spill_opts()).unwrap_err()
            };
            match err {
                MarkingError::SpillIo(e) => {
                    assert_eq!(e.op, SpillOp::Write, "{what}");
                    assert!(
                        e.source.to_string().contains("injected"),
                        "{what}: unexpected source {}",
                        e.source
                    );
                }
                other => panic!("{what}: expected SpillIo, got {other:?}"),
            }
            // Re-arm for the quotient pass (the counter already ticked).
            fault::install(FaultPlan {
                spill_write: Some(n),
                ..Default::default()
            });
        }
        dir.assert_no_leaks(&format!("spill-write:{n}"));
    }
}

/// A spill read dying mid-probe: the poison drains at the next level
/// boundary as a structured `SpillIo` read error.
#[test]
fn spill_read_fault_surfaces_cleanly() {
    let _armed = Armed::install(FaultPlan {
        spill_read: Some(0),
        ..Default::default()
    });
    let dir = SpillDir::set("read-0");
    let (net, _) = net_for(&[4, 5]);
    match MarkingGraph::build(&net, spill_opts()).unwrap_err() {
        MarkingError::SpillIo(e) => assert_eq!(e.op, SpillOp::Read),
        other => panic!("expected SpillIo read, got {other:?}"),
    }
    dir.assert_no_leaks("spill-read:0");
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

/// With no plan installed — or a plan whose trigger is never reached —
/// the hooks are inert: states, rates, and the stationary solve are
/// bitwise identical to an unfaulted run.
#[test]
fn no_fault_run_is_bitwise_identical() {
    let _armed = Armed::clear();
    let (net, sym) = net_for(&[4, 5]);
    let reference = QuotientGraph::build(&net, &sym, spill_opts()).unwrap();
    let reference_ctmc = reference.ctmc_with_trans_rates(&net.rates);
    let pi_ref = reference_ctmc.stationary();

    fault::install(FaultPlan {
        spill_write: Some(u64::MAX),
        spill_read: Some(u64::MAX),
        solver_stall: Some(u64::MAX),
        budget_level: Some(10_000),
    });
    let armed_run = QuotientGraph::build(&net, &sym, spill_opts()).unwrap();
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
            armed_run.states.read_into(s, &mut a),
            reference.states.read_into(s, &mut b),
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
