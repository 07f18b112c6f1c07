//! `search_overlap`: one `engine::portfolio_search` per op on the
//! 12-processor mapping-search scenario.  Batch, delta and exponential
//! scoring over `core::deterministic` and `maxplus::cycle_ratio` do all
//! the work and no marking chain is built: the bypass workload for every
//! `markov` change, the target workload for engine changes.

use crate::inputs::op_rng;
use crate::json::Json;
use crate::run::{self, Config, Failures, Outcome, Workload, DEFAULT_SEED};
use crate::stats::{median, median_over};
use crate::trace::Tracer;
use repstream::core::model::{Application, Platform};
use repstream::engine::batch::score_batch;
use repstream::engine::{portfolio_search, PortfolioOptions, PortfolioReport};
use repstream::petri::shape::ExecModel;
use repstream::workload::random::random_mappings;
use repstream::workload::scenarios::mapping_search;
use std::time::Instant;

/// The search's size is the workload's identity and is frozen.
const RANDOM_CANDIDATES: usize = 4000;

struct Sizes {
    max_ops: usize,
    traced_ops: usize,
    warm_ups: u64,
}

impl Sizes {
    fn of(cfg: &Config) -> Sizes {
        if cfg.smoke {
            Sizes {
                max_ops: 20,
                traced_ops: 5,
                warm_ups: 2,
            }
        } else {
            Sizes {
                max_ops: usize::MAX,
                traced_ops: 150,
                warm_ups: 10,
            }
        }
    }
}

struct Scenario {
    app: Application,
    platform: Platform,
}

impl Scenario {
    /// The scenario, and warm-up searches on seeds no timed op uses.
    fn set_up(cfg: &Config, sizes: &Sizes, failures: &mut Failures) -> Scenario {
        let (app, platform) = mapping_search();
        let scenario = Scenario { app, platform };
        for k in 0..sizes.warm_ups {
            if let Err(what) = scenario.search(search_seed(cfg.seed, u64::MAX - k)) {
                failures.push(format!("warm-up {k}: {what}"));
            }
        }
        scenario
    }

    /// One op.  Every field that defines the workload is spelled out; the
    /// rest are the defaults users get.
    fn search(&self, seed: u64) -> Result<PortfolioReport, String> {
        let options = PortfolioOptions {
            model: ExecModel::Overlap,
            random_candidates: RANDOM_CANDIDATES,
            exp_rerank: true,
            seed,
            ..Default::default()
        };
        let report =
            portfolio_search(&self.app, &self.platform, options).map_err(|e| e.to_string())?;
        if report.det_evaluations != RANDOM_CANDIDATES {
            return Err(format!("{} candidates scored", report.det_evaluations));
        }
        match report.best.exp {
            Some(exp) if exp > 0.0 && exp <= report.best.det * (1.0 + 1e-9) => Ok(report),
            exp => Err(format!("best scores det {} exp {exp:?}", report.best.det)),
        }
    }
}

/// The search seed of op `op`: the op index mixed with the workload seed.
fn search_seed(seed: u64, op: u64) -> u64 {
    op_rng(seed, Workload::SearchOverlap.stream(), op).next_u64()
}

/// What a repeated seed must reproduce exactly.
fn best_of(report: &PortfolioReport) -> (Vec<Vec<usize>>, u64, Option<u64>) {
    let best = &report.best;
    (
        best.mapping.teams().to_vec(),
        best.det.to_bits(),
        best.exp.map(f64::to_bits),
    )
}

/// Op 0's winner against `expected.json`, under the default seed.
fn check_pins(expected: &Json, report: &PortfolioReport, failures: &mut Failures) {
    let best = &report.best;
    let printed = [
        ("best_teams", format!("{:?}", best.mapping.teams())),
        ("best_det", format!("{:.6}", best.det)),
        ("best_exp", format!("{:.6}", best.exp.unwrap_or(f64::NAN))),
    ];
    for (key, value) in printed {
        let pinned = expected.get(key).and_then(Json::as_str);
        failures.check(pinned == Some(&value), || {
            format!("op 0: {key} is {value}, expected.json pins {pinned:?}")
        });
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let sizes = Sizes::of(cfg);
    if cfg.trace {
        traced(cfg, &sizes)
    } else {
        timed(cfg, &sizes)
    }
}

fn timed(cfg: &Config, sizes: &Sizes) -> Outcome {
    let mut failures = Failures::default();
    let (set_ups, scenario) =
        run::set_up_repeatedly(|| Scenario::set_up(cfg, sizes, &mut failures), drop);

    let mut latencies = Vec::new();
    let mut first = None;
    let clock = Instant::now();
    for op in 0..sizes.max_ops {
        let seed = search_seed(cfg.seed, op as u64);
        let t = Instant::now();
        let result = scenario.search(seed);
        latencies.push(t.elapsed().as_secs_f64());
        match result {
            Ok(report) if op == 0 => first = Some(report),
            Ok(_) => {}
            Err(what) => failures.push(format!("op {op}: {what}")),
        }
        if clock.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    let wall_s = clock.elapsed().as_secs_f64();
    let peak_rss_mib = run::peak_rss_mib();

    if let Some(first) = first {
        if cfg.seed == DEFAULT_SEED {
            check_pins(&run::expected(cfg), &first, &mut failures);
        }
        // A search is deterministic in its seed: the same winner, bit for bit.
        match scenario.search(search_seed(cfg.seed, 0)) {
            Ok(again) => failures.check(best_of(&again) == best_of(&first), || {
                format!(
                    "op 0 repeated: {:?}, first {:?}",
                    best_of(&again),
                    best_of(&first)
                )
            }),
            Err(what) => failures.push(format!("op 0 repeated: {what}")),
        }
    }
    Outcome {
        attempted: latencies.len() as u64,
        failures,
        metrics: run::end_to_end(&latencies, wall_s, &set_ups, peak_rss_mib),
    }
}

fn traced(cfg: &Config, sizes: &Sizes) -> Outcome {
    let mut failures = Failures::default();
    let (_, scenario) =
        run::set_up_repeatedly(|| Scenario::set_up(cfg, sizes, &mut failures), drop);
    let Scenario { app, platform } = &scenario;
    let ops = sizes.traced_ops;

    // The same ops untraced and back to back, as the timed region runs
    // them: the base of `trace.overhead_ratio`.
    let untraced: Vec<f64> = (0..ops)
        .map(|op| {
            let t = Instant::now();
            let _ = scenario.search(search_seed(cfg.seed, op as u64));
            t.elapsed().as_secs_f64()
        })
        .collect();

    let mut t = Tracer::new(Instant::now());
    for op in 0..ops {
        t.begin_op(op as u32);
        let seed = search_seed(cfg.seed, op as u64);
        let op_span = t.enter("op");
        let s = t.enter("engine.portfolio.search");
        let result = scenario.search(seed);
        t.exit(s);
        t.exit(op_span);
        let report = match result {
            Ok(report) => report,
            Err(what) => {
                failures.push(format!("op {op}: {what}"));
                continue;
            }
        };
        t.count(s, "det_evaluations", report.det_evaluations as f64);
        t.count(s, "delta_recomputes", report.delta_recomputes as f64);
        t.count(s, "exp_evaluations", report.exp_evaluations as f64);

        // The search's batch phase, beside it: the same seeded candidates
        // through the same scorer.
        let root = t.enter("search.replay");
        let candidates = t.leaf("workload.random.random_mappings", || {
            random_mappings(
                app.n_stages(),
                platform.n_processors(),
                RANDOM_CANDIDATES,
                seed,
            )
        });
        let scores = t.leaf("engine.batch.score", || {
            score_batch(app, platform, ExecModel::Overlap, &candidates)
        });
        t.exit(root);
        // The batch's best candidate is one of the search's finalists,
        // with the score the batch gave it.
        let batch_best = scores.map(|s| s.into_iter().fold(0.0, f64::max));
        let finalist_best = report.finalists.iter().map(|c| c.det).fold(0.0, f64::max);
        failures.check(
            batch_best.as_ref().is_ok_and(|&b| b <= finalist_best),
            || format!("op {op}: batch best {batch_best:?} above every finalist's {finalist_best}"),
        );
    }

    let op_s = t.per_op("op", ops);
    let score_s = t.per_op("engine.batch.score", ops);
    let covered = t.covered_per_op("search.replay", ops);
    let counted = |key| median(&t.counted("engine.portfolio.search", key, ops));
    let mut metrics = run::span_seconds(&t, ops);
    metrics.extend([
        (
            "engine.portfolio.det_evaluations",
            counted("det_evaluations"),
        ),
        (
            "engine.portfolio.delta_recomputes",
            counted("delta_recomputes"),
        ),
        (
            "engine.portfolio.exp_evaluations",
            counted("exp_evaluations"),
        ),
        (
            "engine.batch.candidates_per_s",
            median_over(ops, |i| RANDOM_CANDIDATES as f64 / score_s[i]),
        ),
        // The share of a search its batch phase accounts for: the climbs
        // and the re-rank have no public entry of their own to replay.
        ("trace.coverage", median_over(ops, |i| covered[i] / op_s[i])),
        ("trace.overhead_ratio", median(&op_s) / median(&untraced)),
    ]);
    run::write_spans(cfg, &t, &mut failures);
    Outcome {
        attempted: ops as u64,
        failures,
        metrics,
    }
}
