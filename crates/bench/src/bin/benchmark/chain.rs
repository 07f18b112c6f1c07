//! The four chain workloads: one analysis (`system_report_status`) per op.
//!
//! * `cold_quotient`, `cold_large` — homogeneous shapes, so the Strict
//!   chain is the direct quotient (`QuotientGraph` row-rotation BFS);
//! * `cold_full` — heterogeneous speeds, so it is the full marking graph
//!   (`MarkingGraph::build`): the same layer used differently;
//! * `warm_resolve` — one `ChainCache` primed in set-up, a fresh rate
//!   table per op: no BFS in the timed region, only refill + solve.

use crate::inputs::{het, hom, op_rng};
use crate::json::Json;
use crate::replay::{self, Structure};
use crate::run::{self, Config, Failures, Outcome, Workload, DEFAULT_SEED};
use crate::stats::median;
use crate::trace::Tracer;
use repstream::core::model::System;
use repstream::core::report::{
    system_report_status, system_report_with, ReportOptions, ReportStatus,
};
use repstream::markov::cache::ChainCache;
use std::time::Instant;

/// Shapes are the workloads' identity and are frozen.
struct Spec {
    workload: Workload,
    teams: &'static [usize],
    /// The shape of set-up's warm-up analysis: the workload's own, except
    /// where one more op of it would double the run.
    warm_up_teams: &'static [usize],
    heterogeneous: bool,
    warm: bool,
    /// Cap on timed ops; the time budget usually ends the run first.
    max_ops: usize,
    /// Ops of the traced pass (fixed, so that counts repeat exactly).
    traced_ops: usize,
    /// The warm workload compares every n-th timed op byte for byte with a
    /// one-shot analysis of the same system.
    verify_every: usize,
}

impl Spec {
    fn of(cfg: &Config) -> Spec {
        let (teams, warm_up_teams, max_ops, traced_ops): (&[usize], &[usize], _, _) =
            match (cfg.workload, cfg.smoke) {
                (Workload::ColdQuotient, false) => (&[5, 6], &[5, 6], usize::MAX, 5),
                (Workload::ColdLarge, false) => (&[6, 7], &[5, 6], 1, 1),
                (Workload::ColdFull, false) => (&[4, 5], &[4, 5], usize::MAX, 10),
                (Workload::WarmResolve, false) => (&[5, 6], &[5, 6], usize::MAX, 50),
                (Workload::ColdQuotient, true) => (&[3, 4], &[3, 4], 4, 2),
                (Workload::ColdLarge, true) => (&[4, 5], &[3, 4], 1, 1),
                (Workload::ColdFull, true) => (&[3, 4], &[3, 4], 4, 2),
                (Workload::WarmResolve, true) => (&[3, 4], &[3, 4], 20, 5),
                (other, _) => unreachable!("{} is not a chain workload", other.name()),
            };
        Spec {
            workload: cfg.workload,
            teams,
            warm_up_teams,
            heterogeneous: cfg.workload == Workload::ColdFull,
            warm: cfg.workload == Workload::WarmResolve,
            max_ops,
            traced_ops,
            verify_every: if cfg.smoke { 10 } else { 40 },
        }
    }

    fn system_on(&self, teams: &[usize], seed: u64, op: u64) -> System {
        let mut rng = op_rng(seed, self.workload.stream(), op);
        if self.heterogeneous {
            het(teams, &mut rng)
        } else if op == 0 {
            // Seed-independent, so that `expected.json` pins it under any seed.
            hom(teams, 6.0, 12.0)
        } else {
            hom(teams, rng.range(4.0, 8.0), rng.range(8.0, 16.0))
        }
    }

    /// The system of op `op`: a fresh uniform work and file size per op,
    /// or fresh speeds where heterogeneous.
    fn system(&self, seed: u64, op: u64) -> System {
        self.system_on(self.teams, seed, op)
    }

    /// One op, as the timed region runs it.
    fn op(&self, system: &System, cache: &mut ChainCache) -> (String, ReportStatus) {
        if self.warm {
            system_report_with(system, ReportOptions::default(), cache)
        } else {
            system_report_status(system, ReportOptions::default())
        }
    }

    /// Everything between process start and the first timed op: a warm-up
    /// analysis, which on the warm workload also primes the cache.
    fn set_up(&self, seed: u64, failures: &mut Failures) -> ChainCache {
        let mut cache = ChainCache::new();
        // Inputs from the far end of the op range, never a timed op's.
        let warm_ups = if self.warm { 3 } else { 1 };
        for k in 0..warm_ups {
            let system = self.system_on(self.warm_up_teams, seed, u64::MAX - k);
            let (_, status) = self.op(&system, &mut cache);
            failures.check(status == ReportStatus::Ok, || {
                format!("warm-up {k}: {status:?}")
            });
        }
        cache
    }
}

/// The lines of a report the checks read.
#[derive(Debug, PartialEq)]
struct Parsed {
    states: u64,
    /// `None` for a full-chain solve.
    full_states: Option<u64>,
    residual: f64,
}

fn parse(text: &str) -> Option<Parsed> {
    let chain = text.lines().find_map(|l| l.strip_prefix("  chain: "))?;
    let mut words = chain.split(' ');
    let states = words.next()?.parse().ok()?;
    let full_states = match chain.strip_suffix(" states (full)") {
        Some(_) => None,
        None => {
            let rest = chain.split_once(" states solved for ")?.1;
            let (full, method) = rest.split_once(" full (")?;
            method.starts_with("direct-quotient").then_some(())?;
            Some(full.parse().ok()?)
        }
    };
    let residual = text
        .split_once("residual=")?
        .1
        .lines()
        .next()?
        .parse()
        .ok()?;
    Some(Parsed {
        states,
        full_states,
        residual,
    })
}

/// Every op must be `Ok`, converged, and on the pinned chain.
fn check_op(expected: &Json, op: usize, text: &str, status: ReportStatus) -> Result<(), String> {
    if status != ReportStatus::Ok {
        return Err(format!("op {op}: status {status:?}"));
    }
    let parsed = parse(text).ok_or_else(|| format!("op {op}: no chain line in the report"))?;
    if parsed.residual > 1e-10 {
        return Err(format!(
            "op {op}: residual {:e} above 1e-10",
            parsed.residual
        ));
    }
    let pin = |key: &str| expected.get(key).and_then(Json::as_f64).map(|x| x as u64);
    if Some(parsed.states) != pin("states") || parsed.full_states != pin("full_states") {
        return Err(format!(
            "op {op}: chain of {} states for {:?} full, expected.json pins {:?} for {:?}",
            parsed.states,
            parsed.full_states,
            pin("states"),
            pin("full_states")
        ));
    }
    Ok(())
}

/// Op 0 must print the pinned lines — under any seed where it is
/// seed-independent, under the default seed otherwise.
fn check_pins(expected: &Json, spec: &Spec, seed: u64, text: &str, failures: &mut Failures) {
    if spec.heterogeneous && seed != DEFAULT_SEED {
        return;
    }
    for line in expected
        .get("op0")
        .and_then(Json::as_arr)
        .unwrap_or_default()
    {
        let line = line.as_str().unwrap_or_default();
        failures.check(text.lines().any(|l| l == line), || {
            format!("op 0 does not print the pinned line {line:?}")
        });
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let spec = Spec::of(cfg);
    if cfg.trace {
        traced(cfg, &spec)
    } else {
        timed(cfg, &spec)
    }
}

fn timed(cfg: &Config, spec: &Spec) -> Outcome {
    let expected = run::expected(cfg);
    let mut failures = Failures::default();
    let (set_ups, mut cache) =
        run::set_up_repeatedly(|| spec.set_up(cfg.seed, &mut failures), drop);

    let stats_before = cache.stats();
    let mut latencies = Vec::new();
    let mut reports = Vec::new();
    let clock = Instant::now();
    for op in 0..spec.max_ops {
        let system = spec.system(cfg.seed, op as u64);
        let t = Instant::now();
        let report = spec.op(&system, &mut cache);
        latencies.push(t.elapsed().as_secs_f64());
        reports.push(report);
        if clock.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    let wall_s = clock.elapsed().as_secs_f64();
    // Read before verification, whose one-shot analyses are not the workload's.
    let peak_rss_mib = run::peak_rss_mib();

    for (op, (text, status)) in reports.iter().enumerate() {
        if let Err(what) = check_op(&expected, op, text, *status) {
            failures.push(what);
        }
    }
    check_pins(&expected, spec, cfg.seed, &reports[0].0, &mut failures);
    if spec.warm {
        let misses = replay::cache_use(cache.stats(), stats_before).strict_misses;
        failures.check(misses == 0, || {
            format!("{misses} chain builds in the timed region")
        });
        for op in (spec.verify_every / 2..reports.len()).step_by(spec.verify_every) {
            let one_shot =
                system_report_status(&spec.system(cfg.seed, op as u64), ReportOptions::default());
            failures.check(reports[op] == one_shot, || {
                format!("op {op}: warm report differs from the one-shot analysis")
            });
        }
    }
    Outcome {
        attempted: latencies.len() as u64,
        failures,
        metrics: run::end_to_end(&latencies, wall_s, &set_ups, peak_rss_mib),
    }
}

fn traced(cfg: &Config, spec: &Spec) -> Outcome {
    let expected = run::expected(cfg);
    let mut failures = Failures::default();
    let (_, mut cache) = run::set_up_repeatedly(|| spec.set_up(cfg.seed, &mut failures), drop);
    // The replay's stand-in for the cache entry a warm op refills.
    let structure = spec.warm.then(|| Structure::of(&spec.system(cfg.seed, 0)));
    let ops = spec.traced_ops;

    // The same ops untraced and back to back, as the timed region runs
    // them: the base of `trace.overhead_ratio`.
    let untraced: Vec<f64> = (0..ops)
        .map(|op| {
            let system = spec.system(cfg.seed, op as u64);
            let t = Instant::now();
            spec.op(&system, &mut cache);
            t.elapsed().as_secs_f64()
        })
        .collect();

    let mut t = Tracer::new(Instant::now());
    let mut cache_uses = Vec::new();
    let mut text_bytes = Vec::new();
    for op in 0..ops {
        t.begin_op(op as u32);
        let system = spec.system(cfg.seed, op as u64);
        // The report through `report_cache`, then — the structure now
        // cached — the Strict solve alone: its throughput bits are the
        // report's, by the cache's contract.
        let mut monolithic = |report_cache: &mut ChainCache| {
            let before = report_cache.stats();
            let (text, status) = t.leaf("op", || {
                system_report_with(&system, ReportOptions::default(), report_cache)
            });
            cache_uses.push(replay::cache_use(report_cache.stats(), before));
            let through_cache = replay::strict_through_cache(&mut t, &system, report_cache);
            (text, status, through_cache)
        };
        // A cold report solves through a fresh cache of its own, dropped
        // before the replay builds the same chain again.
        let (text, status, through_cache) = if spec.warm {
            monolithic(&mut cache)
        } else {
            monolithic(&mut ChainCache::new())
        };
        if let Err(what) = check_op(&expected, op, &text, status) {
            failures.push(what);
        }
        text_bytes.push(text.len() as f64);
        // The replay's decomposition and sandwich solve through a cache
        // of their own, as the report's do.
        let replayed = replay::report(&mut t, &system, &mut ChainCache::new(), structure.as_ref());
        replay::check_bits(&mut failures, op, replayed, through_cache, &text);
    }

    let mut metrics = replay::layer_metrics(&t, ops, "op");
    for (name, key) in [
        ("markov.marking.nnz", "nnz"),
        ("petri.tpn.transitions", "transitions"),
        ("petri.tpn.places", "places"),
    ] {
        let measured = metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
        let pinned = expected.get(key).and_then(Json::as_f64);
        // The warm replay builds no net, so it has no net counts to hold.
        let on_path = measured.is_some_and(|v| v != 0.0);
        failures.check(!on_path || measured == pinned, || {
            format!("{name} is {measured:?}, expected.json pins {pinned:?}")
        });
    }
    let op_s = t.per_op("op", ops);
    let covered = t.covered_per_op(replay::ROOT, ops);
    let coverage = median(&(0..ops).map(|i| covered[i] / op_s[i]).collect::<Vec<_>>());
    // "Phases reconcile with wall time", measured from outside.  Smoke
    // chains are solved in microseconds, where the replay's fixed costs
    // show; the band is a statement about the full sizes.
    failures.check(cfg.smoke || (0.90..=1.10).contains(&coverage), || {
        format!("trace.coverage {coverage:.3} outside [0.90, 1.10]")
    });
    metrics.extend(replay::cache_metrics(&cache_uses));
    metrics.extend([
        ("core.report.text_bytes", median(&text_bytes)),
        ("trace.coverage", coverage),
        ("trace.overhead_ratio", median(&op_s) / median(&untraced)),
    ]);
    run::write_spans(cfg, &t, &mut failures);
    Outcome {
        attempted: ops as u64,
        failures,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUOTIENT: &str = "[strict/exponential — Theorem 2]\n  throughput = 0.214475\n  \
        chain: 86016 states solved for 2580480 full (direct-quotient, 30.0x reduction)\n  \
        solver=gs precond=none iterations=64 residual=3.043e-18\n  memory: arena 6.91 MiB\n";
    const FULL: &str = "  throughput = 0.164864\n  chain: 143360 states (full)\n  \
        solver=gs precond=none iterations=15 residual=1.796e-19\n";

    #[test]
    fn parses_both_chain_lines() {
        assert_eq!(
            parse(QUOTIENT),
            Some(Parsed {
                states: 86016,
                full_states: Some(2580480),
                residual: 3.043e-18
            })
        );
        assert_eq!(
            parse(FULL),
            Some(Parsed {
                states: 143360,
                full_states: None,
                residual: 1.796e-19
            })
        );
        assert_eq!(
            parse("  degraded=yes method=bounds-fallback reason=deadline\n"),
            None
        );
        // A full-then-lump solve is not what the workload is pinned to.
        assert_eq!(
            parse(&QUOTIENT.replace("direct-quotient", "full-then-lump")),
            None
        );
    }

    #[test]
    fn refusals_and_wrong_chains_fail_the_op() {
        let pins = Json::obj([
            ("states", Json::Num(86016.0)),
            ("full_states", Json::Num(2580480.0)),
        ]);
        assert_eq!(check_op(&pins, 0, QUOTIENT, ReportStatus::Ok), Ok(()));
        assert!(check_op(&pins, 0, QUOTIENT, ReportStatus::OverBudget).is_err());
        assert!(check_op(&pins, 0, FULL, ReportStatus::Ok).is_err());
        assert!(check_op(
            &pins,
            0,
            &QUOTIENT.replace("3.043e-18", "3.0e-9"),
            ReportStatus::Ok
        )
        .is_err());
        let full = Json::obj([("states", Json::Num(143360.0)), ("full_states", Json::Null)]);
        assert_eq!(check_op(&full, 0, FULL, ReportStatus::Ok), Ok(()));
    }

    #[test]
    fn op_zero_is_pinned_and_later_ops_follow_the_seed() {
        let cfg = |workload, seed| Config {
            workload,
            seed,
            seconds: 1.0,
            trace: false,
            smoke: true,
            trace_out: "unused".into(),
        };
        let spec = Spec::of(&cfg(Workload::ColdQuotient, 1));
        let work = |seed, op| spec.system(seed, op).app().work(0).to_bits();
        assert_eq!(work(1, 0), work(2, 0));
        assert_eq!(work(1, 3), work(1, 3));
        assert_ne!(work(1, 3), work(2, 3));
        assert_ne!(work(1, 3), work(1, 4));
        let spec = Spec::of(&cfg(Workload::ColdFull, 1));
        let speed = |seed, op| spec.system(seed, op).platform().speed(0).to_bits();
        assert_eq!(speed(1, 0), speed(1, 0));
        assert_ne!(speed(1, 0), speed(2, 0));
    }
}
