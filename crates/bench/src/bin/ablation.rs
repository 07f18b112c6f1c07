//! Engine ablations — agreement and speed of the alternative
//! implementations that DESIGN.md calls out:
//!
//! * critical cycle: Howard (global TPN) vs Lawler vs Theorem 1 columnwise;
//! * stationary solver: GTH vs uniformized power iteration on pattern
//!   chains;
//! * simulators: eg_sim vs platformsim vs chainsim on one workload.

use repstream_bench::{timed, Args, Table};
use repstream_core::chainsim::{self, ChainSimOptions};
use repstream_core::simulate::{throughput_once, MonteCarloOptions, SimEngine};
use repstream_core::{deterministic, timing};
use repstream_markov::marking::{MarkingGraph, MarkingOptions};
use repstream_markov::net::comm_pattern;
use repstream_maxplus::cycle_ratio::{lawler, maximum_cycle_ratio};
use repstream_petri::shape::ExecModel;
use repstream_petri::tpn::Tpn;
use repstream_stochastic::law::LawFamily;
use repstream_workload::examples::{example_c, seven_stage_pipeline};

fn main() {
    let args = Args::parse();
    let mut table = Table::new(&["experiment", "variant", "value", "seconds"]);

    // --- critical cycle engines on Example C (m = 10395 rows) ----------
    let sys = if args.smoke {
        seven_stage_pipeline()
    } else {
        example_c(0.3, 0.3, args.seed)
    };
    let times = timing::deterministic_times(&sys);
    let shape = sys.shape();

    let ((colwise, t_colwise), global) = (
        timed(|| deterministic::throughput_columnwise_shape(&shape, &times)),
        {
            let tpn = Tpn::build(&shape, ExecModel::Overlap);
            let g = tpn.to_token_graph(&times);
            let (r, t) = timed(|| maximum_cycle_ratio(&g).unwrap().ratio);
            (tpn.rows() as f64 / r, t)
        },
    );
    table.row(vec![
        "critical cycle".into(),
        "Theorem 1 columnwise".into(),
        Table::num(colwise),
        Table::num(t_colwise),
    ]);
    table.row(vec![
        "critical cycle".into(),
        "global Howard".into(),
        Table::num(global.0),
        Table::num(global.1),
    ]);
    {
        // Lawler is O(V·E·log 1/ε): run it on a small shape where the
        // comparison with Howard is still meaningful.
        let small = repstream_petri::shape::MappingShape::new(vec![2, 3, 2]);
        let small_times = repstream_petri::shape::ResourceTable::from_fns(
            &small,
            |s, p| 1.0 + ((s + p) % 3) as f64,
            |f, s, d| 0.5 + ((f + s + d) % 4) as f64,
        );
        let tpn = Tpn::build(&small, ExecModel::Overlap);
        let g = tpn.to_token_graph(&small_times);
        let (rh, th) = timed(|| maximum_cycle_ratio(&g).unwrap().ratio);
        let (rl, tl) = timed(|| lawler(&g).unwrap());
        table.row(vec![
            "critical cycle (2,3,2)".into(),
            "Howard".into(),
            Table::num(tpn.rows() as f64 / rh),
            Table::num(th),
        ]);
        table.row(vec![
            "critical cycle (2,3,2)".into(),
            "Lawler".into(),
            Table::num(tpn.rows() as f64 / rl),
            Table::num(tl),
        ]);
    }

    // --- stationary solvers on a pattern chain --------------------------
    let (u, v) = if args.smoke { (3, 4) } else { (4, 7) };
    let net = comm_pattern(u, v, |a, b| 0.5 + ((a * v + b) % 5) as f64 * 0.3);
    let mg = MarkingGraph::build(&net, MarkingOptions::default()).unwrap();
    let ctmc = mg.ctmc_with_trans_rates(&net.rates);
    let all: Vec<usize> = (0..net.n_transitions()).collect();
    let (pi_gth, t_gth) = timed(|| ctmc.stationary_gth());
    let rho_gth: f64 = {
        let r = mg.firing_rates_with(&net.rates, &pi_gth);
        all.iter().map(|&t| r[t]).sum()
    };
    let (pi_pow, t_pow) = timed(|| ctmc.stationary_power(1e-13, 500_000));
    let rho_pow: f64 = {
        let r = mg.firing_rates_with(&net.rates, &pi_pow);
        all.iter().map(|&t| r[t]).sum()
    };
    table.row(vec![
        format!("pattern {u}x{v} ({} states)", mg.states.len()),
        "GTH".into(),
        Table::num(rho_gth),
        Table::num(t_gth),
    ]);
    table.row(vec![
        format!("pattern {u}x{v} ({} states)", mg.states.len()),
        "power iteration".into(),
        Table::num(rho_pow),
        Table::num(t_pow),
    ]);

    // --- the three simulators ------------------------------------------
    let sys = seven_stage_pipeline();
    let datasets = if args.smoke { 2_000 } else { 50_000 };
    let laws = timing::laws(&sys, LawFamily::Exponential);
    for engine in [SimEngine::EventGraph, SimEngine::Platform] {
        let (rho, t) = timed(|| {
            throughput_once(
                &sys,
                ExecModel::Overlap,
                &laws,
                MonteCarloOptions {
                    datasets,
                    warmup: datasets / 10,
                    seed: args.seed,
                    engine,
                    ..Default::default()
                },
            )
        });
        table.row(vec![
            "simulator".into(),
            engine.label().into(),
            Table::num(rho),
            Table::num(t),
        ]);
    }
    let (r, t) = timed(|| {
        chainsim::simulate(
            &sys,
            ExecModel::Overlap,
            &laws,
            ChainSimOptions {
                datasets,
                warmup: datasets / 10,
                seed: args.seed,
            },
        )
    });
    table.row(vec![
        "simulator".into(),
        "chainsim".into(),
        Table::num(r.steady_throughput),
        Table::num(t),
    ]);

    table.emit(args.out.as_deref());
}
