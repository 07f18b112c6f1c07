//! The paper's evaluation (§7) and three extension experiments, one
//! function per table or figure.  Each takes the sizes (`smoke`: tiny
//! parameters) and the master seed and returns its [`Table`]; every
//! Overlap simulation warms up on the first tenth of its data sets.

use crate::{timed, Table};
use repstream_core::chainsim::{self, ChainSimOptions};
use repstream_core::exponential::{self, ExpOptions};
use repstream_core::model::{Application, Mapping, Platform, System};
use repstream_core::simulate::{monte_carlo, throughput_once, MonteCarloOptions, SimEngine};
use repstream_core::{deterministic, timing};
use repstream_markov::marking::{MarkingGraph, MarkingOptions};
use repstream_markov::net::comm_pattern;
use repstream_maxplus::cycle_ratio::{lawler, maximum_cycle_ratio};
use repstream_petri::egsim::{self, AssociatedLaws, EgSimOptions};
use repstream_petri::shape::{gcd, ExecModel, MappingShape, ResourceTable};
use repstream_petri::tpn::{max_cycle_time_shape, Tpn};
use repstream_platformsim as platformsim;
use repstream_stochastic::law::{Law, LawFamily};
use repstream_stochastic::rng::split_seed;
use repstream_workload::examples::{example_c, seven_stage_pipeline};
use repstream_workload::random::{instance_stream, FamilyParams};
use repstream_workload::scenarios::{repeated_pattern, single_comm, single_comm_heterogeneous};

/// A figure: `(smoke, seed)` to its table.
pub type Figure = fn(bool, u64) -> Table;

/// Every figure, by the name the `figures` binary takes.
pub const FIGURES: &[(&str, Figure)] = &[
    ("table1", table1),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("fig16", fig16),
    ("fig17", fig17),
    ("timing", timing),
    ("ablation", ablation),
    ("capacity", capacity),
    ("theorem8", theorem8),
];

/// One simulated Overlap throughput of `sys` with every time drawn from
/// `family` at its deterministic mean.
fn simulated(
    sys: &System,
    family: LawFamily,
    engine: SimEngine,
    datasets: usize,
    seed: u64,
) -> f64 {
    throughput_once(
        sys,
        ExecModel::Overlap,
        &timing::laws(sys, family),
        MonteCarloOptions {
            datasets,
            warmup: datasets / 10,
            seed,
            engine,
            ..Default::default()
        },
    )
}

/// Strict analyses need the full `m`-row TPN; instances whose `lcm`
/// explodes are skipped (and counted) — the Overlap path is TPN-free and
/// has no such limit.
const MAX_ROWS_STRICT: usize = 30_000;

/// Table 1 — how often is there no critical hardware resource?
///
/// For every random-instance family of the paper, compare the system
/// throughput against the critical-resource bound `1/Mct` and count the
/// experiments where the period strictly exceeds the largest resource
/// cycle time, for both execution models.  The paper finds such cases
/// rare (none under Overlap; a few percent at most under Strict) and the
/// relative gap below 9%.
pub fn table1(smoke: bool, seed: u64) -> Table {
    // Paper counts: 220 for the (10,2x) rows, 68 for (20,30), 1000 for
    // the small (2/3,7) rows.
    let count_for = |label: &str| -> usize {
        let full = if label.starts_with("(20,30)") {
            68
        } else if label.starts_with("(2,7)") || label.starts_with("(3,7)") {
            1000
        } else {
            220
        };
        if smoke {
            (full / 40).max(4)
        } else {
            full
        }
    };

    let mut table = Table::new(&["family", "model", "no_critical", "total", "max_rel_gap_%"]);
    let mut grand_total = 0usize;
    for (label, params) in FamilyParams::table1() {
        for model in [ExecModel::Overlap, ExecModel::Strict] {
            let n = count_for(label);
            let mut without = 0usize;
            let mut max_gap = 0.0f64;
            let mut done = 0usize;
            let mut skipped = 0usize;
            for inst in instance_stream(params, seed) {
                if done == n {
                    break;
                }
                let (throughput, bound) = match model {
                    ExecModel::Overlap => (
                        // TPN-free Theorem 1 path: works for any lcm.
                        deterministic::throughput_columnwise_shape(&inst.shape, &inst.times),
                        1.0 / max_cycle_time_shape(&inst.shape, model, &inst.times),
                    ),
                    ExecModel::Strict => {
                        if inst.shape.n_paths() > MAX_ROWS_STRICT {
                            skipped += 1;
                            continue;
                        }
                        let rep = deterministic::analyze_shape(&inst.shape, model, &inst.times);
                        (rep.throughput, rep.bound_throughput)
                    }
                };
                done += 1;
                // "No critical resource": the achieved throughput is
                // strictly below the 1/Mct bound.
                let gap = (bound - throughput) / bound;
                if gap > 1e-7 {
                    without += 1;
                    max_gap = max_gap.max(gap);
                }
            }
            if skipped > 0 {
                eprintln!(
                    "note: {label}/{}: skipped {skipped} instances with lcm > {MAX_ROWS_STRICT}",
                    model.label()
                );
            }
            grand_total += n;
            table.row(vec![
                label.to_string(),
                model.label().to_string(),
                without.to_string(),
                n.to_string(),
                Table::num(100.0 * max_gap),
            ]);
        }
    }
    eprintln!("total experiments: {grand_total}");
    table
}

/// Figure 10 — throughput vs number of processed data sets.
///
/// The seven-stage pipeline (replication 1,3,4,5,6,7,1) simulated with
/// constant and exponential times by both simulators; the horizontal
/// reference is the deterministic theory (the role ERS `scscyc` plays in
/// the paper).  The `K/T(K)` estimate climbs to the steady rate once the
/// pipeline-fill transient amortizes (the paper sees convergence from
/// ~10 000 data sets).
pub fn fig10(smoke: bool, seed: u64) -> Table {
    let sys = seven_stage_pipeline();
    let shape = sys.shape();
    let tpn = Tpn::build(&shape, ExecModel::Overlap);
    let checkpoints: Vec<usize> = if smoke {
        vec![100, 500, 1000]
    } else {
        vec![
            100, 200, 500, 1000, 2000, 5000, 10_000, 20_000, 30_000, 40_000, 50_000,
        ]
    };
    let theory = deterministic::analyze(&sys, ExecModel::Overlap).throughput;

    let mut series: Vec<(String, Vec<f64>)> = Vec::new();
    for (name, fam) in [
        ("Cst", LawFamily::Deterministic),
        ("Exp", LawFamily::Exponential),
    ] {
        let laws = timing::laws(&sys, fam);
        let pts = egsim::throughput_vs_datasets(&tpn, &laws, &checkpoints, seed);
        series.push((
            format!("{name} (eg_sim)"),
            pts.iter().map(|&(_, r)| r).collect(),
        ));
        // The platform simulator runs once per checkpoint: the paper's
        // SimGrid runs are independent per point.
        let runs = checkpoints.iter().map(|&k| {
            platformsim::simulate(
                &shape,
                ExecModel::Overlap,
                &laws,
                platformsim::SimOptions {
                    datasets: k,
                    warmup: k / 10,
                    seed: seed ^ 0x5151,
                    ..Default::default()
                },
            )
            .throughput
        });
        series.push((format!("{name} (platformsim)"), runs.collect()));
    }

    let mut headers = vec!["datasets".to_string(), "Cst (theory)".to_string()];
    headers.extend(series.iter().map(|(n, _)| n.clone()));
    let mut table = Table::new(&headers);
    for (i, &k) in checkpoints.iter().enumerate() {
        let mut row = vec![k.to_string(), Table::num(theory)];
        row.extend(series.iter().map(|(_, v)| Table::num(v[i])));
        table.row(row);
    }
    table
}

/// Figure 11 — dispersion of the throughput estimate across 500 runs.
///
/// For the seven-stage pipeline with exponential times, run 500
/// independent replications at each data-set budget and report the
/// minimum, maximum, average and standard deviation of `K/T(K)` — for
/// both simulators — next to the deterministic references.  The paper
/// observes the standard deviation shrinking to ~2% at 5 000 data sets
/// and ~1% at 10 000.
pub fn fig11(smoke: bool, seed: u64) -> Table {
    let sys = seven_stage_pipeline();
    let budgets: Vec<usize> = if smoke {
        vec![10, 100, 500]
    } else {
        vec![10, 50, 100, 500, 1000, 5000, 10_000]
    };
    let reps = if smoke { 12 } else { 500 };
    let det = deterministic::analyze(&sys, ExecModel::Overlap).throughput;
    let exp_laws = timing::laws(&sys, LawFamily::Exponential);

    let mut table = Table::new(&[
        "datasets",
        "engine",
        "min",
        "avg",
        "max",
        "std_dev",
        "Cst(theory)",
    ]);
    for &k in &budgets {
        for engine in [SimEngine::EventGraph, SimEngine::Platform] {
            let s = monte_carlo(
                &sys,
                ExecModel::Overlap,
                &exp_laws,
                MonteCarloOptions {
                    datasets: k,
                    warmup: 0,
                    replications: reps,
                    seed,
                    engine,
                    total_rate_metric: true,
                },
            );
            table.row(vec![
                k.to_string(),
                engine.label().to_string(),
                Table::num(s.min),
                Table::num(s.mean),
                Table::num(s.max),
                Table::num(s.std_dev),
                Table::num(det),
            ]);
        }
    }
    table
}

/// Figure 12 — fidelity of the event-graph model: throughput vs number of
/// stages.
///
/// A costly 5 → 7 communication pattern is chained 1…25 times.  Because
/// the Overlap TPN has no backward dependences, the throughput must not
/// depend on the number of chained blocks — for constant times, for
/// exponential times (simulated), and for Theorem 4's analytic value.
/// All series are normalized to the single-block constant throughput.
pub fn fig12(smoke: bool, seed: u64) -> Table {
    let reps_list: Vec<usize> = if smoke {
        vec![1, 2, 3]
    } else {
        vec![1, 2, 3, 5, 8, 12, 16, 20, 25]
    };
    let datasets = if smoke { 2000 } else { 10_000 };
    let base = deterministic::analyze(&repeated_pattern(1, 1.0), ExecModel::Overlap).throughput;

    let mut table = Table::new(&[
        "stages",
        "Cst (sim)",
        "Exp (sim)",
        "Exp (Theorem 4)",
        "Cst (theory)",
    ]);
    for &reps in &reps_list {
        let sys = repeated_pattern(reps, 1.0);
        let det = deterministic::analyze(&sys, ExecModel::Overlap).throughput;
        let thm = exponential::throughput_overlap(&sys).unwrap().throughput;
        let sim = |fam, seed| simulated(&sys, fam, SimEngine::Platform, datasets, seed);
        table.row(vec![
            (2 * reps).to_string(),
            Table::num(sim(LawFamily::Deterministic, seed) / base),
            Table::num(sim(LawFamily::Exponential, seed ^ 1) / base),
            Table::num(thm / base),
            Table::num(det / base),
        ]);
    }
    table
}

/// Figure 13 — single communication, homogeneous network.
///
/// A single `u → v` communication between negligible computations, for
/// replication factors 2 ≤ u, v ≤ 9: simulated constant and exponential
/// throughputs against Theorem 4's prediction `g·u′v′λ/(u′+v′−1)`.  All
/// normalized to the constant throughput `min(u,v)·λ` (the paper's
/// y-axis).
pub fn fig13(smoke: bool, seed: u64) -> Table {
    let range: Vec<usize> = if smoke { vec![2, 3] } else { (2..=9).collect() };
    let datasets = if smoke { 10_000 } else { 60_000 };

    let mut table = Table::new(&["u.v", "Cst (sim)", "Exp (sim)", "Exp (Theorem 4)"]);
    for &u in &range {
        for &v in &range {
            let sys = single_comm(u, v, 1.0).expect("valid comm time");
            let det = deterministic::analyze(&sys, ExecModel::Overlap).throughput;
            let thm = exponential::throughput_overlap(&sys).unwrap().throughput;
            let sim = |fam, seed| simulated(&sys, fam, SimEngine::Platform, datasets, seed);
            table.row(vec![
                format!("{u}.{v}"),
                Table::num(sim(LawFamily::Deterministic, seed) / det),
                Table::num(sim(LawFamily::Exponential, seed ^ 3) / det),
                Table::num(thm / det),
            ]);
        }
    }
    table
}

/// Figure 14 — single communication, heterogeneous network.
///
/// Link mean times drawn uniformly in [100, 1000].  The paper observes
/// that with heterogeneous links the exponential case almost coincides
/// with the constant case (a single slow link serializes the round-robin),
/// unlike the homogeneous network of Figure 13.  Series are normalized to
/// the constant (platform-simulated) throughput; the exact exponential
/// value comes from the heterogeneous pattern CTMC (Theorem 3), the
/// constant theory from the columnwise critical cycle (the `scscyc` role).
pub fn fig14(smoke: bool, seed: u64) -> Table {
    let range: Vec<usize> = if smoke { vec![2, 3] } else { (2..=9).collect() };
    let datasets = if smoke { 10_000 } else { 60_000 };

    let mut table = Table::new(&[
        "u.v",
        "Cst (eg_sim)",
        "Cst (platformsim)",
        "Exp (eg_sim)",
        "Exp (platformsim)",
        "Exp (Thm3 CTMC)",
        "Cst (theory)",
    ]);
    for &u in &range {
        for &v in &range {
            let sys = single_comm_heterogeneous(u, v, seed ^ ((u * 31 + v) as u64));
            let det = deterministic::analyze(&sys, ExecModel::Overlap).throughput;
            let thm3 = exponential::throughput_overlap(&sys)
                .map(|r| r.throughput)
                .unwrap_or(f64::NAN);
            let sim = |fam, engine, seed| simulated(&sys, fam, engine, datasets, seed);
            let cst_plat = sim(LawFamily::Deterministic, SimEngine::Platform, seed);
            table.row(vec![
                format!("{u}.{v}"),
                Table::num(sim(LawFamily::Deterministic, SimEngine::EventGraph, seed) / cst_plat),
                Table::num(1.0),
                Table::num(sim(LawFamily::Exponential, SimEngine::EventGraph, seed ^ 7) / cst_plat),
                Table::num(sim(LawFamily::Exponential, SimEngine::Platform, seed ^ 9) / cst_plat),
                Table::num(thm3 / cst_plat),
                Table::num(det / cst_plat),
            ]);
        }
    }
    table
}

/// Figure 15 — the constant-vs-exponential gap as a function of the
/// number of senders.
///
/// For a single `u → v` homogeneous communication the paper derives the
/// ratio `ρ_exp / ρ_cst = max(u,v)/(u+v−1)` (which tends to 1/2 as the
/// asymmetry vanishes and to 1 as one side dominates).  Sweep the number
/// of senders at fixed `v`: simulated and analytic series normalized by
/// the constant throughput, and the closed-form ratio.
pub fn fig15(smoke: bool, seed: u64) -> Table {
    let v = 7usize; // fixed receiver side, as in the paper's sweep
    let senders: Vec<usize> = if smoke {
        vec![2, 3]
    } else {
        (2..=15).collect()
    };
    let datasets = if smoke { 10_000 } else { 60_000 };

    let mut table = Table::new(&[
        "senders",
        "Cst (sim)",
        "Exp (sim)",
        "Exp (Theorem)",
        "closed_form_ratio",
    ]);
    for &u in &senders {
        let sys = single_comm(u, v, 1.0).expect("valid comm time");
        let det = deterministic::analyze(&sys, ExecModel::Overlap).throughput;
        let thm = exponential::throughput_overlap(&sys).unwrap().throughput;
        let g = gcd(u, v);
        let (up, vp) = (u / g, v / g);
        let closed = up.max(vp) as f64 / (up + vp - 1) as f64;
        let sim = |fam, seed| simulated(&sys, fam, SimEngine::Platform, datasets, seed);
        table.row(vec![
            u.to_string(),
            Table::num(sim(LawFamily::Deterministic, seed) / det),
            Table::num(sim(LawFamily::Exponential, seed ^ 5) / det),
            Table::num(thm / det),
            Table::num(closed),
        ]);
    }
    table
}

/// Figure 16 — N.B.U.E. laws are sandwiched (Theorem 7).
///
/// On the single-communication sweep, every N.B.U.E. law (the paper uses
/// "Gauss X" — truncated normals with variance √X — and symmetric
/// "Beta X") must land between the exponential and constant curves.
pub fn fig16(smoke: bool, seed: u64) -> Table {
    law_sweep(
        smoke,
        seed,
        &[
            LawFamily::Deterministic,
            LawFamily::Exponential,
            LawFamily::Gauss(5.0),
            LawFamily::Gauss(10.0),
            LawFamily::BetaSym(1.0),
            LawFamily::BetaSym(2.0),
            // Extensions: more N.B.U.E. laws for the sandwich.
            LawFamily::Gamma(4.0),
            LawFamily::Weibull(2.0),
        ],
    )
}

/// Figure 17 — laws outside the N.B.U.E. class can leave the sandwich.
///
/// The paper plots "Gamma X" and "Uniform X" families here.  Our law
/// catalogue classifies Gamma with shape ≥ 1 and bounded uniforms as
/// N.B.U.E. (they are IFR), so those reproduce *inside* the bounds; the
/// laws that genuinely escape the sandwich are the decreasing-failure-rate
/// ones — Gamma/Weibull with shape < 1, Pareto, log-normal — added as
/// extensions.  Escape happens *below the exponential curve* (N.W.U.E.
/// laws are worse than exponential), as the theory predicts.
pub fn fig17(smoke: bool, seed: u64) -> Table {
    law_sweep(
        smoke,
        seed,
        &[
            LawFamily::Deterministic,
            LawFamily::Exponential,
            // The paper's Figure 17 families.
            LawFamily::Gamma(1.0),
            LawFamily::Gamma(2.0),
            LawFamily::Gamma(5.0),
            LawFamily::Gamma(8.0),
            LawFamily::Uniform(1.0),
            LawFamily::Uniform(2.0),
            LawFamily::Uniform(5.0),
            // Extensions that genuinely violate N.B.U.E. (DFR):
            LawFamily::Gamma(0.4),
            LawFamily::Weibull(0.6),
            LawFamily::Pareto(1.7),
            LawFamily::LogNormal(2.0),
        ],
    )
}

/// Mean communication time of the law sweeps.  The paper draws link means
/// in [100, 1000]; a large mean matters for the "Gauss X" laws whose
/// *absolute* variance is fixed at √X — at small means the truncation at
/// zero would distort the mean and the sandwich comparison.
const COMM_MEAN: f64 = 550.0;

/// The `u → 7` single-communication sweep of Figures 16 and 17: one
/// column per law family, normalized by the constant throughput.
fn law_sweep(smoke: bool, seed: u64, families: &[LawFamily]) -> Table {
    let v = 7usize;
    let senders: Vec<usize> = if smoke {
        vec![2, 3]
    } else {
        (2..=15).collect()
    };
    let datasets = if smoke { 8_000 } else { 40_000 };

    let mut headers: Vec<String> = vec!["senders".into()];
    headers.extend(families.iter().map(|f| f.label()));
    let mut table = Table::new(&headers);
    for &u in &senders {
        let sys = single_comm(u, v, COMM_MEAN).expect("valid comm time");
        let det = deterministic::analyze(&sys, ExecModel::Overlap).throughput;
        let mut row = vec![u.to_string()];
        for (i, &fam) in families.iter().enumerate() {
            let seed = seed ^ (i as u64) << 8;
            let rho = simulated(&sys, fam, SimEngine::Platform, datasets, seed);
            row.push(Table::num(rho / det));
        }
        table.row(row);
    }
    table
}

/// §7.7 — running time of the tools.
///
/// Wall-clock seconds of every engine on the seven-stage pipeline at
/// increasing data-set budgets, plus the (budget-independent) analytic
/// methods.  The paper reports "< 1 s at 100 data sets, ~3 min at
/// 100 000 events" for its C tools; our engines are measured the same
/// way.
pub fn timing(smoke: bool, seed: u64) -> Table {
    let sys = seven_stage_pipeline();
    let shape = sys.shape();
    let budgets: Vec<usize> = if smoke {
        vec![100, 1000]
    } else {
        vec![100, 1_000, 10_000, 100_000]
    };

    let (_, t_global) = timed(|| deterministic::analyze(&sys, ExecModel::Overlap));
    let (_, t_colwise) = timed(|| deterministic::throughput_columnwise(&sys));
    let (_, t_thm4) = timed(|| exponential::throughput_overlap(&sys).unwrap());
    let mut table = Table::new(&["tool", "datasets", "seconds"]);
    for (tool, t) in [
        ("critical-cycle (global TPN)", t_global),
        ("critical-cycle (columnwise, Thm 1)", t_colwise),
        ("exponential decomposition (Thm 3/4)", t_thm4),
    ] {
        table.row(vec![tool.into(), "-".into(), Table::num(t)]);
    }

    let det = timing::laws(&sys, LawFamily::Deterministic);
    let exp = timing::laws(&sys, LawFamily::Exponential);
    let tpn = Tpn::build(&shape, ExecModel::Overlap);
    for &k in &budgets {
        for (label, laws) in [("Cst", &det), ("Exp", &exp)] {
            let (_, t_eg) = timed(|| {
                egsim::simulate(
                    &tpn,
                    laws,
                    EgSimOptions {
                        datasets: k,
                        warmup: k / 10,
                        seed,
                    },
                )
            });
            let (_, t_plat) = timed(|| {
                platformsim::simulate(
                    &shape,
                    ExecModel::Overlap,
                    laws,
                    platformsim::SimOptions {
                        datasets: k,
                        warmup: k / 10,
                        seed,
                        ..Default::default()
                    },
                )
            });
            let (_, t_chain) = timed(|| {
                chainsim::simulate(
                    &sys,
                    ExecModel::Overlap,
                    laws,
                    ChainSimOptions {
                        datasets: k,
                        warmup: k / 10,
                        seed,
                    },
                )
            });
            for (tool, t) in [
                ("eg_sim", t_eg),
                ("platformsim", t_plat),
                ("chainsim", t_chain),
            ] {
                table.row(vec![
                    format!("{tool} {label}"),
                    k.to_string(),
                    Table::num(t),
                ]);
            }
        }
    }
    table
}

/// Engine ablations — agreement and speed of the alternative
/// implementations:
///
/// * critical cycle: Howard (global TPN) vs Lawler vs Theorem 1 columnwise;
/// * stationary solver: GTH vs uniformized power iteration on pattern
///   chains;
/// * simulators: eg_sim vs platformsim vs chainsim on one workload.
pub fn ablation(smoke: bool, seed: u64) -> Table {
    let mut table = Table::new(&["experiment", "variant", "value", "seconds"]);
    let mut push = |experiment: &str, variant: &str, value: f64, seconds: f64| {
        table.row(vec![
            experiment.into(),
            variant.into(),
            Table::num(value),
            Table::num(seconds),
        ]);
    };

    // --- critical cycle engines on Example C (m = 10395 rows) ----------
    let sys = if smoke {
        seven_stage_pipeline()
    } else {
        example_c(0.3, 0.3, seed)
    };
    let times = timing::deterministic_times(&sys);
    let shape = sys.shape();
    let (colwise, t_colwise) = timed(|| deterministic::throughput_columnwise_shape(&shape, &times));
    let tpn = Tpn::build(&shape, ExecModel::Overlap);
    let g = tpn.to_token_graph(&times);
    let (r, t_global) = timed(|| maximum_cycle_ratio(&g).unwrap().ratio);
    push("critical cycle", "Theorem 1 columnwise", colwise, t_colwise);
    push(
        "critical cycle",
        "global Howard",
        tpn.rows() as f64 / r,
        t_global,
    );

    // Lawler is O(V·E·log 1/ε): run it on a small shape where the
    // comparison with Howard is still meaningful.
    let small = MappingShape::new(vec![2, 3, 2]);
    let small_times = ResourceTable::from_fns(
        &small,
        |s, p| 1.0 + ((s + p) % 3) as f64,
        |f, s, d| 0.5 + ((f + s + d) % 4) as f64,
    );
    let tpn = Tpn::build(&small, ExecModel::Overlap);
    let g = tpn.to_token_graph(&small_times);
    let (rh, th) = timed(|| maximum_cycle_ratio(&g).unwrap().ratio);
    let (rl, tl) = timed(|| lawler(&g).unwrap());
    push(
        "critical cycle (2,3,2)",
        "Howard",
        tpn.rows() as f64 / rh,
        th,
    );
    push(
        "critical cycle (2,3,2)",
        "Lawler",
        tpn.rows() as f64 / rl,
        tl,
    );

    // --- stationary solvers on a pattern chain --------------------------
    let (u, v) = if smoke { (3, 4) } else { (4, 7) };
    let net = comm_pattern(u, v, |a, b| 0.5 + ((a * v + b) % 5) as f64 * 0.3);
    let mg = MarkingGraph::build(&net, MarkingOptions::default()).unwrap();
    let ctmc = mg.ctmc_with_trans_rates(&net.rates);
    let rho = |pi: &[f64]| -> f64 { mg.firing_rates_with(&net.rates, pi).iter().sum() };
    let (pi_gth, t_gth) = timed(|| ctmc.stationary_gth());
    let (pi_pow, t_pow) = timed(|| ctmc.stationary_power(1e-13, 500_000));
    let pattern = format!("pattern {u}x{v} ({} states)", mg.n_states());
    push(&pattern, "GTH", rho(&pi_gth), t_gth);
    push(&pattern, "power iteration", rho(&pi_pow), t_pow);

    // --- the three simulators ------------------------------------------
    let sys = seven_stage_pipeline();
    let datasets = if smoke { 2_000 } else { 50_000 };
    for engine in [SimEngine::EventGraph, SimEngine::Platform] {
        let (rho, t) = timed(|| simulated(&sys, LawFamily::Exponential, engine, datasets, seed));
        push("simulator", engine.label(), rho, t);
    }
    let laws = timing::laws(&sys, LawFamily::Exponential);
    let (r, t) = timed(|| {
        chainsim::simulate(
            &sys,
            ExecModel::Overlap,
            &laws,
            ChainSimOptions {
                datasets,
                warmup: datasets / 10,
                seed,
            },
        )
    });
    push("simulator", "chainsim", r.steady_throughput, t);
    table
}

/// Extension experiment — finite-buffer truncation of the Overlap chain.
///
/// The paper's Theorem 2 Markov chain needs bounded markings; Overlap
/// TPNs have unbounded forward places.  This shows the capacity-bounded
/// global chain converging from below to the Theorem 3 decomposition
/// value as buffers grow — the justification for using the decomposition
/// as the production path.
pub fn capacity(smoke: bool, _seed: u64) -> Table {
    // Small system so the bounded chain stays tractable: 1 → 2 replicated,
    // exponential rates with a unique bottleneck.
    let app = Application::new(vec![4.0, 6.0], vec![3.0]).unwrap();
    let platform = Platform::complete(vec![1.0, 1.0, 1.0], 2.0).unwrap();
    let mapping = Mapping::new(vec![vec![0], vec![1, 2]]).unwrap();
    let sys = System::new(app, platform, mapping).unwrap();

    let exact = exponential::throughput_overlap(&sys).unwrap().throughput;
    let caps: Vec<u32> = if smoke {
        vec![1, 2, 4]
    } else {
        vec![1, 2, 3, 4, 6, 8, 12, 16]
    };
    let opts = ExpOptions {
        max_states: 6_000_000,
        ..Default::default()
    };

    let mut table = Table::new(&["capacity", "states", "bounded_ctmc", "thm3_limit", "gap_%"]);
    for &cap in &caps {
        match exponential::throughput_overlap_bounded(&sys, cap, opts) {
            Ok((rho, states)) => table.row(vec![
                cap.to_string(),
                states.to_string(),
                Table::num(rho),
                Table::num(exact),
                Table::num(100.0 * (exact - rho) / exact),
            ]),
            Err(e) => {
                table.row(vec![
                    cap.to_string(),
                    "-".into(),
                    format!("error: {e}"),
                    Table::num(exact),
                    "-".into(),
                ]);
                break;
            }
        }
    }
    table
}

/// Extension experiment — the **associated** case of §6.2 (Theorem 8).
///
/// In the associated model the data-set sizes `δ_i(n)`/`w_i(n)` are random
/// but *shared* by every resource touching data set `n`, so processing
/// times across stages are positively correlated ("associated").
/// Theorem 8 orders the three regimes:
///
/// ```text
///   ρ(det at means)  ≥  ρ(associated)  ≥  ρ(independent same marginals)
/// ```
///
/// Sweep the size-law variability (Gamma shape) on a system whose
/// bottleneck is a replicated 2×3 communication pattern (association is
/// invisible behind a single-resource bottleneck) and print the three
/// columns, each averaged over replications; the matched independent
/// system uses the same Gamma marginals per resource (a Gamma size divided
/// by a constant speed stays Gamma with the same shape).
pub fn theorem8(smoke: bool, seed: u64) -> Table {
    let app = Application::new(vec![4.0, 6.0, 2.0], vec![8.0, 1.0]).unwrap();
    let platform = Platform::complete(vec![1.0; 6], 2.0).unwrap();
    let mapping = Mapping::new(vec![vec![0, 1], vec![2, 3, 4], vec![5]]).unwrap();
    let sys = System::new(app, platform, mapping).unwrap();
    let shape = sys.shape();
    let tpn = Tpn::build(&shape, ExecModel::Overlap);
    let datasets = if smoke { 5_000 } else { 150_000 };
    let replications = if smoke { 1 } else { 4 };
    let det = deterministic::analyze(&sys, ExecModel::Overlap).throughput;
    let shapes_k: Vec<f64> = if smoke {
        vec![1.0, 0.5]
    } else {
        vec![8.0, 4.0, 2.0, 1.0, 0.5]
    };

    let mut table = Table::new(&[
        "gamma_shape",
        "cv",
        "Cst (theory)",
        "associated (sim)",
        "independent (sim)",
        "ordering_ok",
    ]);
    for &k in &shapes_k {
        // Associated: sizes Gamma(k) at the application's means, speeds
        // and bandwidths deterministic.
        let n = sys.app().n_stages();
        let assoc = AssociatedLaws {
            work: (0..n)
                .map(|i| Law::gamma_mean(k, sys.app().work(i)))
                .collect(),
            file: (0..n - 1)
                .map(|i| Law::gamma_mean(k, sys.app().file_size(i)))
                .collect(),
            rates: ResourceTable::from_fns(
                &shape,
                |stage, slot| Law::det(sys.platform().speed(sys.proc_at(stage, slot))),
                |file, s, d| {
                    let p = sys.proc_at(file, s);
                    let q = sys.proc_at(file + 1, d);
                    Law::det(sys.platform().bandwidth(p, q))
                },
            ),
        };
        // Average a few independent replications of both regimes.
        let iid = timing::laws(&sys, LawFamily::Gamma(k));
        let mut rho_assoc = 0.0;
        let mut rho_iid = 0.0;
        for rep in 0..replications {
            let opts = EgSimOptions {
                datasets,
                warmup: datasets / 10,
                seed: split_seed(seed, rep as u64),
            };
            rho_assoc += egsim::simulate_associated(&tpn, &assoc, opts).steady_throughput;
            rho_iid += egsim::simulate(&tpn, &iid, opts).steady_throughput;
        }
        rho_assoc /= replications as f64;
        rho_iid /= replications as f64;

        let ok = det >= rho_assoc * 0.995 && rho_assoc >= rho_iid * 0.995;
        table.row(vec![
            format!("{k}"),
            Table::num(1.0 / k.sqrt()),
            Table::num(det),
            Table::num(rho_assoc),
            Table::num(rho_iid),
            ok.to_string(),
        ]);
    }
    table
}
