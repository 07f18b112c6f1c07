//! A/B smoke of the Theorem 2 paths on the homogeneous 4×5 Strict
//! scenario: the direct canonical-marking quotient that
//! `throughput_strict_report` solves against the full chain built by
//! `MarkingGraph::build` and solved as it is.  Both are exact, so the
//! throughputs must agree to rounding — CI runs this to pin the
//! equivalence end to end through the public API.
//!
//! `--threads N` forces the worker count of the chunk-parallel
//! quotient-frontier BFS (0 = auto) — CI runs this smoke at 2 threads so
//! the parallel path is exercised and its bitwise-determinism contract
//! checked even though 1-core runners see no speedup.
//!
//! ```sh
//! cargo run --release --example strict_quotient_ab
//! cargo run --release --example strict_quotient_ab -- --threads 2
//! ```

use repstream::core::exponential::{throughput_strict_report, ExpOptions, StrictMethod};
use repstream::core::model::{Application, Mapping, Platform, System};
use repstream::core::timing::exponential_rates;
use repstream::markov::marking::MarkingGraph;
use repstream::markov::net::EventNet;
use repstream::petri::shape::ExecModel;
use repstream::petri::tpn::Tpn;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut threads = 0usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--threads needs a count (0 = auto)");
            }
            other => panic!("unknown argument {other} (only --threads N is accepted)"),
        }
        i += 1;
    }

    // Homogeneous 4×5 Strict scenario: two stages on teams of 4 and 5,
    // uniform speeds and bandwidths, m = lcm(4, 5) = 20.
    let app = Application::uniform(2, 6.0, 12.0).expect("valid app");
    let platform = Platform::complete(vec![2.0; 9], 1.0).expect("valid platform");
    let mapping = Mapping::new(vec![(0..4).collect(), (4..9).collect()]).expect("valid mapping");
    let system = System::new(app, platform, mapping).expect("valid system");

    let opts = ExpOptions {
        threads,
        ..Default::default()
    };
    let t = std::time::Instant::now();
    let direct = throughput_strict_report(&system, opts).expect("direct path");
    let t_direct = t.elapsed();
    let t = std::time::Instant::now();
    let tpn = Tpn::build(&system.shape(), ExecModel::Strict);
    let net = EventNet::from_tpn(&tpn, &exponential_rates(&system));
    let mg = MarkingGraph::build(&net, opts.marking(None)).expect("full path");
    let (full_rho, _) = mg.throughput_solve(
        &mg.ctmc_with_trans_rates(&net.rates),
        &net.rates,
        &tpn.last_column(),
        opts.solver,
    );
    let t_full = t.elapsed();

    println!("threads: {} (0 = auto)", threads);
    println!(
        "direct-quotient: rho = {:.12}  ({} states solved for {} full, {:?})",
        direct.throughput,
        direct.lumped_states.expect("homogeneous 4x5 lumps"),
        direct.full_states,
        t_direct
    );
    println!(
        "full chain:      rho = {:.12}  ({} states, {:?})",
        full_rho,
        mg.n_states(),
        t_full
    );

    assert_eq!(direct.method, StrictMethod::DirectQuotient);
    assert_eq!(direct.full_states, mg.n_states(), "state accounting");
    assert_eq!(
        direct.full_states,
        direct.lumped_states.unwrap() * 20,
        "reduction is exactly m-fold"
    );
    let diff = (direct.throughput - full_rho).abs();
    assert!(
        diff <= 1e-12 * full_rho,
        "paths diverged: {} vs {full_rho}",
        direct.throughput
    );
    println!("OK: all paths agree (|direct - full| = {diff:.3e})");
}
