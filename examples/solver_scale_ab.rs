//! Solver-plan A/B against uniformized power iteration on Theorem 2
//! quotients.  The automatic plan (`SolverChoice::Auto`) relaxes every
//! sparse chain with Gauss–Seidel and falls back to power only when the
//! relaxation misses the residual contract; this example pins that the
//! fallback is not needed, and that the plan's answer is power's:
//!
//! * the direct quotient of the homogeneous 6×7 Strict scenario
//!   (1 081 344 lumped states standing for 45.4M full ones) at a balanced
//!   rate table;
//! * the 5×6 quotient (86 016 states) under two stiff tables — links 150×
//!   faster than compute, and 100× slower.
//!
//! On every leg the plan must report `gs` (no fallback fired) and its
//! throughput must agree with forced power's to 1e-10 relative.  There is
//! no stiff 6×7 leg: power alone takes minutes there.
//!
//! It also pins the chain's layout: the 6×7 chain's `heap_bytes()` must
//! equal `24 · nnz + 16 · n + 8` (forward and incoming CSR, exit rates,
//! no third copy of the rates).  The figure is printed beside the
//! process's peak resident set (`VmHWM`, Linux only), which is reported,
//! not asserted.
//!
//! `--teams a,b` swaps in a smaller shape for the balanced leg (e.g.
//! `--teams 4,5` for a quick local run).
//!
//! ```sh
//! cargo run --release --example solver_scale_ab
//! cargo run --release --example solver_scale_ab -- --teams 5,6
//! ```

use repstream::markov::ctmc::{Solver, SolverChoice};
use repstream::markov::marking::{MarkingOptions, QuotientGraph};
use repstream::markov::net::EventNet;
use repstream::petri::shape::{ExecModel, MappingShape, ResourceTable};
use repstream::petri::tpn::Tpn;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut teams = vec![6usize, 7];
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--teams" => {
                i += 1;
                teams = args
                    .get(i)
                    .map(|s| {
                        s.split(',')
                            .map(|t| t.parse().expect("--teams needs integers"))
                            .collect()
                    })
                    .expect("--teams needs a,b[,c]");
            }
            other => panic!("unknown argument {other} (only --teams a,b is accepted)"),
        }
        i += 1;
    }

    let t = Instant::now();
    leg(&teams, 0.5, 2.0, true);
    leg(&[5, 6], 0.04, 6.0, false);
    leg(&[5, 6], 3.0, 0.03, false);
    println!("all legs agree in {:?}", t.elapsed());
}

/// One A/B leg: build the homogeneous Strict quotient of `teams` at
/// compute rate `compute` and link rate `link`, solve it with the plan
/// and with forced power, and assert the plan ran Gauss–Seidel and
/// matches power to 1e-10 relative.  `pin_layout` also asserts the
/// chain's `heap_bytes()` formula.
fn leg(teams: &[usize], compute: f64, link: f64, pin_layout: bool) {
    // Uniform rates keep the row rotation, so the Theorem 2 chain lumps
    // m-fold onto the canonical-marking quotient the solvers run on.
    let shape = MappingShape::new(teams.to_vec());
    let tpn = Tpn::build(&shape, ExecModel::Strict);
    let rates = ResourceTable::from_fns(&shape, |_, _| compute, |_, _, _| link);
    let (net, sym) = EventNet::from_tpn_with_symmetry(&tpn, &rates);
    let sym = sym.expect("homogeneous table keeps the row rotation");
    let last = tpn.last_column();

    let t = Instant::now();
    let qg = QuotientGraph::build(
        &net,
        &sym,
        MarkingOptions {
            max_states: 1 << 22,
            capacity: None,
            ..Default::default()
        },
    )
    .expect("quotient build");
    println!(
        "teams {teams:?} compute {compute} link {link}: quotient {} states for {} full, \
         built in {:?}",
        qg.n_states(),
        qg.full_states(),
        t.elapsed()
    );
    let ctmc = qg.ctmc_with_trans_rates(&net.rates);
    if pin_layout {
        let layout = 24 * ctmc.nnz() + 16 * ctmc.n_states() + 8;
        assert_eq!(
            ctmc.heap_bytes(),
            layout,
            "chain layout: 24 B/nnz + 16 B/state + 8"
        );
        println!(
            "chain: {} nnz, heap {:.1} MiB (24 B/nnz + 16 B/state + 8); peak RSS {}",
            ctmc.nnz(),
            ctmc.heap_bytes() as f64 / (1 << 20) as f64,
            peak_rss().unwrap_or_else(|| "n/a".into())
        );
    }

    let rho_of = |pi: &[f64]| -> f64 {
        let rates = qg.firing_rates_with(&net.rates, pi);
        last.iter().map(|&t| rates[t]).sum()
    };
    let t = Instant::now();
    let plan = ctmc.stationary_solve(SolverChoice::Auto);
    let t_plan = t.elapsed();
    let rho_plan = rho_of(&plan.pi);
    println!(
        "  plan  rho = {rho_plan:.12}  ({} {} sweeps, residual {:.3e}, {t_plan:?})",
        plan.solver.label(),
        plan.iterations,
        plan.residual
    );
    assert_eq!(
        plan.solver,
        Solver::GaussSeidel,
        "the plan fell back to power on {teams:?} at {compute}/{link}"
    );

    // Power runs to an explicit change tolerance well below the residual
    // contract: residual-to-throughput amplification grows with the
    // mixing time (~10²–10³× at these sizes), so near-machine residuals
    // keep the 1e-10 agreement honest.
    let t = Instant::now();
    let pi_power = ctmc.stationary_power(1e-13, 500_000);
    let t_power = t.elapsed();
    let rho_power = rho_of(&pi_power);
    println!(
        "  power rho = {rho_power:.12}  (residual {:.3e}, {t_power:?})",
        ctmc.stationarity_residual(&pi_power)
    );

    let diff = (rho_plan - rho_power).abs();
    assert!(
        diff <= 1e-10 * rho_power.abs(),
        "plan and power diverged on {teams:?} at {compute}/{link}: {rho_plan} vs {rho_power}"
    );
    println!(
        "  OK: plan and power agree (|diff| = {diff:.3e}); plan wall time {:.2}x power's",
        t_plan.as_secs_f64() / t_power.as_secs_f64()
    );
}

/// The `VmHWM` line of `/proc/self/status` (the process's peak resident
/// set), where that file exists.
fn peak_rss() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    Some(line["VmHWM:".len()..].trim().to_string())
}
