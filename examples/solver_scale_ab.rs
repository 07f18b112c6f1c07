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
//! equal `(8 + w) · nnz + 16 · n + 8` plus its label table (8 bytes per
//! label rate, 4 per label that occurs) — forward `u32` labels, and an
//! incoming CSR of `u32` sources and labels stored `w` bytes wide (1
//! where the largest label fits a byte, as on every marking chain
//! measured, 4 otherwise), shared with the graph, and exit rates; no forward
//! target and no rate per edge.  The figure is printed beside the process's
//! resident set after the build, the refill and the solve (`VmRSS`) and
//! its peak (`VmHWM`), Linux only; those are reported, not asserted.
//!
//! Each plan line also prints the solve's wall time per edge per sweep
//! (`ns/nnz·sweep`: wall ÷ (sweeps × nnz)), the kernel's cost.
//!
//! `--teams a,b` swaps in another shape for the balanced leg (e.g.
//! `--teams 4,5` for a quick local run).  `--plan-only` runs the balanced
//! leg's plan and layout pin alone — no forced-power leg, no stiff legs —
//! which is how the 14M-state hom(7×8) rung is recorded (minutes and
//! gigabytes; kept out of CI):
//!
//! ```sh
//! cargo run --release --example solver_scale_ab
//! cargo run --release --example solver_scale_ab -- --teams 5,6
//! cargo run --release --example solver_scale_ab -- --teams 7,8 --plan-only
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
    let mut plan_only = false;
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
            "--plan-only" => plan_only = true,
            other => panic!("unknown argument {other} (only --teams a,b and --plan-only)"),
        }
        i += 1;
    }

    let t = Instant::now();
    if plan_only {
        leg(&teams, 0.5, 2.0, true, false);
        println!("plan leg done in {:?}", t.elapsed());
        return;
    }
    leg(&teams, 0.5, 2.0, true, true);
    leg(&[5, 6], 0.04, 6.0, false, true);
    leg(&[5, 6], 3.0, 0.03, false, true);
    println!("all legs agree in {:?}", t.elapsed());
}

/// One A/B leg: build the homogeneous Strict quotient of `teams` at
/// compute rate `compute` and link rate `link`, solve it with the plan
/// and assert it ran Gauss–Seidel; with `against_power`, also solve with
/// forced power and assert the two match to 1e-10 relative.
/// `pin_layout` also asserts the chain's `heap_bytes()` formula and
/// prints the resident set after each phase.
fn leg(teams: &[usize], compute: f64, link: f64, pin_layout: bool, against_power: bool) {
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
            max_states: 1 << 24,
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
    let after_build = format!("{} (peak {})", status("VmRSS"), status("VmHWM"));
    let t = Instant::now();
    let ctmc = qg.ctmc_with_trans_rates(&net.rates);
    let t_refill = t.elapsed();
    let after_refill = status("VmRSS");
    if pin_layout {
        let table = 8 * ctmc.label_rates().len() + 4 * ctmc.structure().labels_used().len();
        let w = ctmc.structure().in_label_bytes();
        let layout = (8 + w) * ctmc.nnz() + 16 * ctmc.n_states() + 8 + table;
        assert_eq!(
            ctmc.heap_bytes(),
            layout,
            "chain layout: (8 + w) B/nnz + 16 B/state + 8 + label table, w = {w}"
        );
        println!(
            "chain: {} nnz, {} labels, w = {w}, heap {:.1} MiB ({} B/nnz + 16 B/state + 8 + \
             {table} B of label table), refilled in {t_refill:?}",
            ctmc.nnz(),
            ctmc.label_rates().len(),
            ctmc.heap_bytes() as f64 / (1 << 20) as f64,
            8 + w,
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
    // The kernel's cost: the solve's wall time per edge per sweep.
    let ns_per_nnz_sweep = t_plan.as_secs_f64() * 1e9 / (plan.iterations * ctmc.nnz()) as f64;
    println!(
        "  plan  rho = {rho_plan:.12}  ({} {} sweeps, residual {:.3e}, {t_plan:?}, \
         {ns_per_nnz_sweep:.2} ns/nnz·sweep)",
        plan.solver.label(),
        plan.iterations,
        plan.residual
    );
    assert_eq!(
        plan.solver,
        Solver::GaussSeidel,
        "the plan fell back to power on {teams:?} at {compute}/{link}"
    );
    if pin_layout {
        println!(
            "  resident: {after_build} after build, {after_refill} after refill, {} after \
             solve; peak {}",
            status("VmRSS"),
            status("VmHWM")
        );
    }
    if !against_power {
        return;
    }

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

/// The `field` line of `/proc/self/status` (`VmRSS`: resident set now,
/// `VmHWM`: its peak), or `n/a` where that file does not exist.
fn status(field: &str) -> String {
    let read = || {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with(field))?;
        Some(line[field.len() + 1..].trim().to_string())
    };
    read().unwrap_or_else(|| "n/a".into())
}
