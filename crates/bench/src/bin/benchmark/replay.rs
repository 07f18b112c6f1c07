//! The replay of one report: the same public layer functions
//! `core::report::system_report_with` reaches, called in the library's
//! order from here, each under a span.  Summed, the spans must account for
//! the monolithic call (`trace.coverage`), and the replay must return the
//! monolithic call's throughput to the last bit.

use crate::run::{self, Failures};
use crate::stats::{median, median_over};
use crate::trace::Tracer;
use repstream::core::exponential::{self, ChainSolver, ExpOptions};
use repstream::core::model::System;
use repstream::core::report::ReportOptions;
use repstream::core::{bounds, deterministic, timing};
use repstream::markov::cache::CacheStats;
use repstream::markov::ctmc::{Ctmc, SolverChoice};
use repstream::markov::marking::{ArenaStats, MarkingGraph, MarkingOptions, QuotientGraph};
use repstream::markov::net::{EventNet, NetSymmetry};
use repstream::petri::shape::{ExecModel, MappingShape, ResourceTable};
use repstream::petri::tpn::Tpn;

/// Root span of a report replay; its direct children are the additive
/// decomposition of the report.
pub const ROOT: &str = "report.replay";

/// The Strict chain's reachability structure — what a `ChainCache` entry
/// holds — built through the public builders.
#[derive(Debug)]
pub struct Structure {
    tpn: Tpn,
    graph: Graph,
}

#[derive(Debug)]
enum Graph {
    Quotient(QuotientGraph),
    Full(MarkingGraph),
}

impl Graph {
    fn full_states(&self) -> usize {
        match self {
            Graph::Quotient(g) => g.full_states(),
            Graph::Full(g) => g.n_states(),
        }
    }

    fn arena_stats(&self) -> ArenaStats {
        match self {
            Graph::Quotient(g) => g.arena_stats(),
            Graph::Full(g) => g.arena_stats(),
        }
    }

    fn ctmc_with_trans_rates(&self, rates: &[f64]) -> Ctmc {
        match self {
            Graph::Quotient(g) => g.ctmc_with_trans_rates(rates),
            Graph::Full(g) => g.ctmc_with_trans_rates(rates),
        }
    }

    fn firing_rates_with(&self, rates: &[f64], pi: &[f64]) -> Vec<f64> {
        match self {
            Graph::Quotient(g) => g.firing_rates_with(rates, pi),
            Graph::Full(g) => g.firing_rates_with(rates, pi),
        }
    }
}

/// `Tpn::build` → `EventNet::from_tpn_with_symmetry`, each under a span.
/// On a warm path these run only nested in other public calls, so the
/// serving workload calls this beside the op, as a probe.
pub fn net(
    t: &mut Tracer,
    shape: &MappingShape,
    rates: &ResourceTable<f64>,
) -> (Tpn, EventNet, Option<NetSymmetry>) {
    let s = t.enter("petri.tpn.build");
    let tpn = Tpn::build(shape, ExecModel::Strict);
    t.exit(s);
    t.count(s, "transitions", tpn.transitions().len() as f64);
    t.count(s, "places", tpn.places().len() as f64);
    let (net, symmetry) = t.leaf("markov.net.from_tpn", || {
        EventNet::from_tpn_with_symmetry(&tpn, rates)
    });
    (tpn, net, symmetry)
}

impl Structure {
    /// [`net`], then `QuotientGraph::build` when the rotation survives the
    /// rates and `MarkingGraph::build` when it does not, under a span.
    pub fn build(t: &mut Tracer, shape: &MappingShape, rates: &ResourceTable<f64>) -> Structure {
        let (tpn, net, symmetry) = net(t, shape, rates);
        let options = MarkingOptions {
            max_states: ReportOptions::default().max_states,
            ..Default::default()
        };
        let graph = t.leaf("markov.marking.build", || {
            match symmetry.filter(|_| tpn.rows() > 1) {
                Some(symmetry) => {
                    QuotientGraph::build(&net, &symmetry, options).map(Graph::Quotient)
                }
                None => MarkingGraph::build(&net, options).map(Graph::Full),
            }
        });
        let graph = graph.expect("the benchmark's shapes fit the default state budget");
        Structure { tpn, graph }
    }

    /// The structure of `system`'s shape, built outside any trace — the
    /// set-up of the warm replays.
    pub fn of(system: &System) -> Structure {
        let mut scratch = Tracer::new(std::time::Instant::now());
        Structure::build(
            &mut scratch,
            &system.shape(),
            &timing::exponential_rates(system),
        )
    }
}

/// Replay the report of `system`.  `solver` serves the pattern chains of
/// the decomposition and the sandwich, as the report's own cache does.
/// With `warm`, the Theorem 2 section refills that structure, as a cache
/// hit does; without, it builds the chain, as a miss does.  Returns the
/// Strict throughput.
pub fn report(
    t: &mut Tracer,
    system: &System,
    solver: &mut impl ChainSolver,
    warm: Option<&Structure>,
) -> f64 {
    let root = t.enter(ROOT);
    let shape = system.shape();
    t.leaf("core.deterministic.columnwise", || {
        deterministic::throughput_columnwise(system)
    });
    for model in [ExecModel::Overlap, ExecModel::Strict] {
        t.leaf("core.deterministic.analyze", || {
            deterministic::analyze(system, model)
        });
    }
    let rates = t.leaf("core.timing.rates", || timing::exponential_rates(system));
    t.leaf("core.exponential.overlap", || {
        exponential::throughput_overlap_with_solver(&shape, &rates, ExpOptions::default(), solver)
    })
    .expect("pattern chains of the benchmark's shapes fit the default budget");

    let strict = t.enter("core.exponential.strict");
    // The library derives the rate table again inside the Strict solve.
    let rates = t.leaf("core.timing.rates", || timing::exponential_rates(system));
    let built;
    let structure = match warm {
        Some(structure) => structure,
        None => {
            built = Structure::build(t, &shape, &rates);
            &built
        }
    };
    let Structure { tpn, graph } = structure;
    let trans_rates: Vec<f64> = tpn
        .transitions()
        .iter()
        .map(|tr| *rates.get(tr.resource))
        .collect();
    let ctmc = t.leaf("markov.marking.refill", || {
        graph.ctmc_with_trans_rates(&trans_rates)
    });
    let s = t.enter("markov.ctmc.solve");
    let solved = ctmc.stationary_solve(SolverChoice::Auto);
    t.exit(s);
    t.count(s, "iterations", solved.iterations as f64);
    t.count(s, "residual", solved.residual);
    let throughput = t.leaf("markov.marking.aggregate", || {
        let fired = graph.firing_rates_with(&trans_rates, &solved.pi);
        tpn.last_column().iter().map(|&tr| fired[tr]).sum()
    });
    t.exit(strict);
    let arena = graph.arena_stats();
    for (key, value) in [
        ("states", ctmc.n_states()),
        ("nnz", ctmc.nnz()),
        ("full_states", graph.full_states()),
        ("arena_resident_bytes", arena.keys_bytes + arena.reps_bytes),
        ("arena_spill_bytes", arena.spill_bytes),
        ("interner_bytes", arena.interner_bytes),
    ] {
        t.count(strict, key, value as f64);
    }

    t.leaf("core.bounds.nbue", || {
        bounds::nbue_bounds_with(system, ExecModel::Overlap, solver)
    })
    .expect("the sandwich needs no chain the decomposition did not build");
    t.exit(root);
    throughput
}

/// Time the Strict solve through a cache that already holds the
/// structure, and hold the replay to its throughput bits.  The cache's
/// contract is that this warm value is the cold value bit for bit, so this
/// also holds the replay to the monolithic report it follows.
pub fn strict_through_cache(
    t: &mut Tracer,
    system: &System,
    cache: &mut impl ChainSolver,
) -> Result<f64, String> {
    t.leaf("core.exponential.strict_cached", || {
        exponential::throughput_strict_with_solver(system, ExpOptions::default(), cache)
    })
    .map(|r| r.throughput)
    .map_err(|e| e.to_string())
}

pub fn check_bits(
    failures: &mut Failures,
    op: usize,
    replayed: f64,
    cached: Result<f64, String>,
    text: &str,
) {
    match cached {
        Ok(cached) => {
            failures.check(replayed.to_bits() == cached.to_bits(), || {
                format!("op {op}: replay returned {replayed:e}, the library {cached:e}")
            });
            failures.check(
                text.contains(&format!("  throughput = {cached:.6}\n  chain: ")),
                || format!("op {op}: the report does not print the Strict throughput {cached:.6}"),
            );
        }
        Err(e) => failures.push(format!("op {op}: cached Strict solve failed: {e}")),
    }
}

/// Lookups between two readings of a cache's counters.
pub fn cache_use(after: CacheStats, before: CacheStats) -> CacheStats {
    CacheStats {
        pattern_hits: after.pattern_hits - before.pattern_hits,
        pattern_misses: after.pattern_misses - before.pattern_misses,
        strict_hits: after.strict_hits - before.strict_hits,
        strict_misses: after.strict_misses - before.strict_misses,
    }
}

/// The `markov.cache.*` counts of the lookups in `uses`, summed.
pub fn cache_metrics(uses: &[CacheStats]) -> Vec<(&'static str, f64)> {
    let sum = |pick: fn(&CacheStats) -> usize| uses.iter().map(pick).sum::<usize>() as f64;
    let (hits, misses) = (sum(CacheStats::hits), sum(CacheStats::misses));
    vec![
        ("markov.cache.strict_hits", sum(|u| u.strict_hits)),
        ("markov.cache.strict_misses", sum(|u| u.strict_misses)),
        ("markov.cache.pattern_hits", sum(|u| u.pattern_hits)),
        ("markov.cache.pattern_misses", sum(|u| u.pattern_misses)),
        ("markov.cache.hit_ratio", hits / (hits + misses).max(1.0)),
    ]
}

/// The per-layer metrics every report replay yields, as medians over
/// `ops` traced ops.  `report_span` names the span of the monolithic
/// report the replay is reconciled against.
pub fn layer_metrics(t: &Tracer, ops: usize, report_span: &str) -> Vec<(&'static str, f64)> {
    let seconds = |span: &str| t.per_op(span, ops);
    let chain = |key: &str| t.counted("core.exponential.strict", key, ops);

    let build = seconds("markov.marking.build");
    let refill = seconds("markov.marking.refill");
    let solve = seconds("markov.ctmc.solve");
    let aggregate = seconds("markov.marking.aggregate");
    let rates = seconds("core.timing.rates");
    let cached = seconds("core.exponential.strict_cached");
    let report = seconds(report_span);
    let covered = t.covered_per_op(ROOT, ops);
    let (states, nnz, full_states) = (chain("states"), chain("nnz"), chain("full_states"));
    let iterations = t.counted("markov.ctmc.solve", "iterations", ops);

    let mut metrics = run::span_seconds(t, ops);
    metrics.extend([
        (
            "markov.marking.states_per_s",
            median_over(ops, |i| {
                if build[i] > 0.0 {
                    states[i] / build[i]
                } else {
                    0.0
                }
            }),
        ),
        ("markov.marking.states", median(&states)),
        ("markov.marking.nnz", median(&nnz)),
        ("markov.marking.full_states", median(&full_states)),
        (
            "markov.marking.orbit_reduction",
            median_over(ops, |i| full_states[i] / states[i]),
        ),
        (
            "markov.marking.arena_resident_bytes",
            median(&chain("arena_resident_bytes")),
        ),
        (
            "markov.marking.arena_spill_bytes",
            median(&chain("arena_spill_bytes")),
        ),
        (
            "markov.marking.interner_bytes",
            median(&chain("interner_bytes")),
        ),
        ("markov.ctmc.iterations", median(&iterations)),
        (
            "markov.ctmc.residual",
            median(&t.counted("markov.ctmc.solve", "residual", ops)),
        ),
        (
            "markov.ctmc.ns_per_nnz_sweep",
            median_over(ops, |i| solve[i] * 1e9 / (iterations[i] * nnz[i])),
        ),
        // Computed from the CSR sizes, not measured: one sweep reads a
        // column index, a rate and a vector entry per non-zero, and a row
        // pointer, an exit rate and the vector entry it writes per state.
        (
            "markov.ctmc.computed_bytes_per_sweep",
            median_over(ops, |i| 20.0 * (nnz[i] + states[i])),
        ),
        // What a warm solve through the cache costs beyond the refill, the
        // solve and the aggregation it cannot avoid.  The replay derives
        // the rate table twice per op, the cached solve once.
        (
            "markov.cache.warm_overhead_s",
            median_over(ops, |i| {
                cached[i] - rates[i] / 2.0 - refill[i] - solve[i] - aggregate[i]
            }),
        ),
        (
            "petri.tpn.transitions",
            median(&t.counted("petri.tpn.build", "transitions", ops)),
        ),
        (
            "petri.tpn.places",
            median(&t.counted("petri.tpn.build", "places", ops)),
        ),
        // What the monolithic report spends outside the sections the
        // replay reaches: rendering, and the cache's own bookkeeping.
        (
            "core.report.render_self_s",
            median_over(ops, |i| report[i] - covered[i]),
        ),
    ]);
    metrics
}
