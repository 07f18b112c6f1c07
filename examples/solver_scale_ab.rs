//! Top-end solver A/B on a ≥ 2²⁰-state Theorem 2 quotient: restarted
//! GMRES and the automatic solver plan (`Ctmc::stationary`, whose primary
//! at this size is SOR) against uniformized power iteration on the direct
//! quotient of the homogeneous 6×7 Strict scenario (1 081 344 lumped
//! states standing for 45.4M full ones).  All three solve the same chain,
//! so each throughput must agree with power's to 1e-10 relative — CI runs
//! this to pin the Krylov path and the plan at the scale they exist for,
//! and the printed wall times record the top-end crossover the plan
//! encodes (where SOR, not GMRES, is the primary).
//!
//! It also pins the chain's layout: the rated chain's `heap_bytes()` must
//! equal `24 · nnz + 16 · n + 8` (forward and incoming CSR, exit rates,
//! no third copy of the rates).  The figure is printed beside the
//! process's peak resident set (`VmHWM`, Linux only), which is reported,
//! not asserted.
//!
//! `--teams a,b` swaps in a smaller shape (e.g. `--teams 4,5` for a
//! quick local run).
//!
//! ```sh
//! cargo run --release --example solver_scale_ab
//! cargo run --release --example solver_scale_ab -- --teams 5,6
//! ```

use repstream::markov::marking::{MarkingOptions, QuotientGraph};
use repstream::markov::net::EventNet;
use repstream::petri::shape::{ExecModel, MappingShape, ResourceTable};
use repstream::petri::tpn::Tpn;

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

    // Homogeneous Strict scenario: uniform rates keep the row rotation,
    // so the Theorem 2 chain lumps m-fold onto the canonical-marking
    // quotient the solvers run on.
    let shape = MappingShape::new(teams.clone());
    let tpn = Tpn::build(&shape, ExecModel::Strict);
    let rates = ResourceTable::from_fns(&shape, |_, _| 0.5, |_, _, _| 2.0);
    let (net, sym) = EventNet::from_tpn_with_symmetry(&tpn, &rates);
    let sym = sym.expect("homogeneous table keeps the row rotation");
    let last = tpn.last_column();

    let t = std::time::Instant::now();
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
    let t_build = t.elapsed();
    println!(
        "teams {teams:?}: quotient {} states for {} full, built in {t_build:?}",
        qg.n_states(),
        qg.full_states()
    );
    let ctmc = qg.ctmc_with_trans_rates(&net.rates);
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

    // Both solvers run to an explicit residual well below the forced
    // budgets — residual-to-throughput amplification grows with the
    // spectral gap (~10²–10³× at these sizes), so near-machine residuals
    // keep the 1e-10 agreement honest.
    let rho_of = |pi: &[f64]| -> f64 {
        let rates = qg.firing_rates_with(&net.rates, pi);
        last.iter().map(|&t| rates[t]).sum()
    };
    let t = std::time::Instant::now();
    let pi_gmres = ctmc.stationary_gmres(1e-14, 200_000);
    let t_gmres = t.elapsed();
    let rho_gmres = rho_of(&pi_gmres);
    println!(
        "gmres rho = {rho_gmres:.12}  (residual {:.3e}, {t_gmres:?})",
        ctmc.stationarity_residual(&pi_gmres)
    );
    let t = std::time::Instant::now();
    let pi_power = ctmc.stationary_power(1e-13, 500_000);
    let t_power = t.elapsed();
    let rho_power = rho_of(&pi_power);
    println!(
        "power rho = {rho_power:.12}  (residual {:.3e}, {t_power:?})",
        ctmc.stationarity_residual(&pi_power)
    );

    let t = std::time::Instant::now();
    let pi_plan = ctmc.stationary();
    let t_plan = t.elapsed();
    let rho_plan = rho_of(&pi_plan);
    println!(
        "plan  rho = {rho_plan:.12}  (residual {:.3e}, {t_plan:?}; primary {:?})",
        ctmc.stationarity_residual(&pi_plan),
        ctmc.solver_plan().primary
    );

    for (name, rho) in [("gmres", rho_gmres), ("plan", rho_plan)] {
        let diff = (rho - rho_power).abs();
        assert!(
            diff <= 1e-10 * rho_power.abs(),
            "solvers diverged: {name} {rho} vs power {rho_power}"
        );
        println!("OK: {name} and power agree (|diff| = {diff:.3e})");
    }
    println!(
        "wall time relative to power: gmres {:.2}, plan {:.2}",
        t_gmres.as_secs_f64() / t_power.as_secs_f64(),
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
