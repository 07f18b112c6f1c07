//! What every workload run shares: its configuration, the metric tables,
//! failure accounting, and the result line.

use crate::json::Json;
use crate::stats;
use crate::trace::Tracer;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdQuotient,
    ColdLarge,
    ColdFull,
    WarmResolve,
    ServeSmall,
    SearchOverlap,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::ColdQuotient,
        Workload::ColdLarge,
        Workload::ColdFull,
        Workload::WarmResolve,
        Workload::ServeSmall,
        Workload::SearchOverlap,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdQuotient => "cold_quotient",
            Workload::ColdLarge => "cold_large",
            Workload::ColdFull => "cold_full",
            Workload::WarmResolve => "warm_resolve",
            Workload::ServeSmall => "serve_small",
            Workload::SearchOverlap => "search_overlap",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Separates the workloads' input streams under one seed.
    pub fn stream(self) -> u64 {
        self as u64 + 1
    }
}

/// The seed `expected.json` pins heterogeneous and search results at.
pub const DEFAULT_SEED: u64 = 2010;

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed region.  The traced pass runs a fixed number of
    /// ops instead, so that its counts repeat exactly.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Spans of workload `W` go to this path with `.W` before the extension.
    pub trace_out: PathBuf,
}

/// The name of the sizes a run uses, in `expected.json` and the stamp.
pub fn sizes(smoke: bool) -> &'static str {
    if smoke {
        "smoke"
    } else {
        "full"
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count made by the program: it must repeat exactly between runs of
    /// the same code on the same seed, and `compare` checks that it does.
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; `BENCHMARK.json` lists the same five
/// with their bounds.  `failed_share` is the sixth: it travels as
/// `failed` ÷ `attempted` on the result line, because it must be 0.
pub const END_TO_END: [MetricDef; 5] = [
    timing("op_p50_s", "s", Lower),
    timing("op_p90_s", "s", Lower),
    timing("ops_per_s", "1/s", Higher),
    timing("peak_rss_mib", "MiB", Lower),
    timing("setup_s", "s", Lower),
];

/// `<module>.<metric>`, one row per number the traced pass reports.  A
/// layer that is not on a workload's path reads 0 there.
pub const PER_LAYER: [MetricDef; 54] = [
    timing("markov.marking.build_s", "s", Lower),
    timing("markov.marking.states_per_s", "1/s", Higher),
    count("markov.marking.states", "count", Lower),
    count("markov.marking.nnz", "count", Lower),
    count("markov.marking.full_states", "count", Lower),
    count("markov.marking.orbit_reduction", "ratio", Higher),
    count("markov.marking.arena_resident_bytes", "bytes", Lower),
    count("markov.marking.arena_spill_bytes", "bytes", Lower),
    count("markov.marking.interner_bytes", "bytes", Lower),
    timing("markov.marking.refill_s", "s", Lower),
    timing("markov.marking.aggregate_s", "s", Lower),
    timing("markov.ctmc.solve_s", "s", Lower),
    count("markov.ctmc.iterations", "count", Lower),
    timing("markov.ctmc.residual", "ratio", Lower),
    timing("markov.ctmc.ns_per_nnz_sweep", "ns", Lower),
    count("markov.ctmc.computed_bytes_per_sweep", "bytes", Lower),
    count("markov.cache.strict_hits", "count", Higher),
    count("markov.cache.strict_misses", "count", Lower),
    count("markov.cache.pattern_hits", "count", Higher),
    count("markov.cache.pattern_misses", "count", Lower),
    count("markov.cache.hit_ratio", "ratio", Higher),
    timing("markov.cache.warm_overhead_s", "s", Lower),
    timing("petri.tpn.build_s", "s", Lower),
    count("petri.tpn.transitions", "count", Lower),
    count("petri.tpn.places", "count", Lower),
    timing("markov.net.from_tpn_s", "s", Lower),
    timing("core.timing.rates_s", "s", Lower),
    timing("core.model.build_s", "s", Lower),
    timing("core.deterministic.analyze_s", "s", Lower),
    timing("core.deterministic.columnwise_s", "s", Lower),
    timing("core.exponential.overlap_s", "s", Lower),
    timing("core.exponential.strict_s", "s", Lower),
    timing("core.bounds.nbue_s", "s", Lower),
    timing("core.report.render_self_s", "s", Lower),
    count("core.report.text_bytes", "bytes", Lower),
    timing("core.wire.request_encode_s", "s", Lower),
    timing("core.wire.request_decode_s", "s", Lower),
    timing("core.wire.response_encode_s", "s", Lower),
    timing("core.wire.response_decode_s", "s", Lower),
    count("core.wire.request_bytes", "bytes", Lower),
    count("core.wire.response_bytes", "bytes", Lower),
    timing("serve.transport_s", "s", Lower),
    count("serve.requests", "count", Higher),
    count("serve.connections", "count", Lower),
    count("serve.cache_hit_ratio", "ratio", Higher),
    timing("serve.op_p99_s", "s", Lower),
    timing("engine.portfolio.search_s", "s", Lower),
    count("engine.portfolio.det_evaluations", "count", Lower),
    count("engine.portfolio.delta_recomputes", "count", Lower),
    count("engine.portfolio.exp_evaluations", "count", Lower),
    timing("engine.batch.score_s", "s", Lower),
    timing("engine.batch.candidates_per_s", "1/s", Higher),
    timing("trace.coverage", "ratio", Higher),
    timing("trace.overhead_ratio", "ratio", Lower),
];

/// Every `<span>_s` metric of the table whose span the trace holds: the
/// median over `ops` traced ops of the seconds an op spends in spans
/// called `<span>`.
pub fn span_seconds(t: &Tracer, ops: usize) -> Vec<(&'static str, f64)> {
    PER_LAYER
        .iter()
        .filter_map(|def| {
            let span = def.name.strip_suffix("_s").filter(|span| t.has(span))?;
            Some((def.name, stats::median(&t.per_op(span, ops))))
        })
        .collect()
}

/// The pins of this run's workload at this run's sizes, from
/// `expected.json` beside the sources.
pub fn expected(cfg: &Config) -> Json {
    Json::parse(include_str!("expected.json"))
        .expect("expected.json parses")
        .get(sizes(cfg.smoke))
        .and_then(|sizes| sizes.get(cfg.workload.name()))
        .cloned()
        .expect("expected.json pins every workload at both sizes")
}

/// Ops that errored, were refused, or failed a correctness check.
#[derive(Debug, Default)]
pub struct Failures {
    pub count: u64,
    /// The first few, for the log.
    pub first: Vec<String>,
}

impl Failures {
    pub fn push(&mut self, what: String) {
        self.count += 1;
        if self.first.len() < 5 {
            self.first.push(what);
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.push(what());
        }
    }

    pub fn merge(&mut self, other: Failures) {
        self.count += other.count;
        self.first.extend(other.first);
        self.first.truncate(5);
    }
}

/// What one run of one workload measured.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failures: Failures,
    pub metrics: Vec<(&'static str, f64)>,
}

/// Set-ups per run; `setup_s` is their median, and the last one is kept.
const SET_UPS: usize = 3;

/// Run the set-up [`SET_UPS`] times, returning every duration and the
/// last result; earlier results are torn down outside the timed part.
pub fn set_up_repeatedly<T>(
    mut set_up: impl FnMut() -> T,
    mut tear_down: impl FnMut(T),
) -> (Vec<f64>, T) {
    let mut seconds = Vec::with_capacity(SET_UPS);
    let mut last = None;
    for _ in 0..SET_UPS {
        if let Some(stale) = last.take() {
            tear_down(stale);
        }
        let t = Instant::now();
        last = Some(set_up());
        seconds.push(t.elapsed().as_secs_f64());
    }
    (seconds, last.expect("SET_UPS is positive"))
}

/// The end-to-end metrics of a timed region of `latencies.len()` ops that
/// took `wall_s` in all.
pub fn end_to_end(
    latencies: &[f64],
    wall_s: f64,
    set_ups: &[f64],
    peak_rss_mib: f64,
) -> Vec<(&'static str, f64)> {
    let ascending = stats::sorted(latencies);
    let p50 = stats::median(&ascending);
    vec![
        ("op_p50_s", p50),
        // The result line must carry a number for every metric, so below
        // 100 ops, where the 90th percentile has fewer than ten samples
        // beyond it, the median stands in for it.
        (
            "op_p90_s",
            stats::tail_percentile(&ascending, 90).unwrap_or(p50),
        ),
        ("ops_per_s", latencies.len() as f64 / wall_s),
        ("peak_rss_mib", peak_rss_mib),
        ("setup_s", stats::median(set_ups)),
    ]
}

/// `VmHWM` of this process: the most memory it has held resident so far.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Write the spans where [`Config::trace_out`] says.
pub fn write_spans(cfg: &Config, tracer: &Tracer, failures: &mut Failures) {
    let mut path = cfg.trace_out.clone();
    let extension = match path.extension().and_then(|e| e.to_str()) {
        Some(e) => format!("{}.{e}", cfg.workload.name()),
        None => cfg.workload.name().to_string(),
    };
    path.set_extension(extension);
    let written = (|| {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tracer.write_json(cfg.workload.name(), &mut out)?;
        std::io::Write::flush(&mut out)
    })();
    match written {
        Ok(()) => println!("  spans written to {}", path.display()),
        Err(e) => failures.push(format!("cannot write spans to {}: {e}", path.display())),
    }
}

/// Print every metric by name with its unit, then — as the last line of
/// standard output — the one JSON object the driver reads.  Returns the
/// process exit code: 0 only if nothing failed.
pub fn report(cfg: &Config, outcome: &Outcome) -> i32 {
    let table: &[MetricDef] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let value_of = |name: &str| {
        outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    };
    for (name, _) in &outcome.metrics {
        assert!(
            table.iter().any(|d| d.name == *name),
            "metric {name} is not in the table"
        );
    }
    // The driver wants `attempted` ≥ 1; a run that got nowhere failed.
    let attempted = outcome.attempted.max(1);
    let failed = outcome.failures.count.min(attempted);
    let mut metrics = Vec::new();
    for def in table {
        let value = value_of(def.name).unwrap_or(0.0);
        let note = match def.name {
            "op_p50_s" => format!("   (n = {attempted})"),
            "op_p90_s" if !stats::tail_defined(attempted as usize, 90) => {
                format!("   (n = {attempted}: too few for a 90th percentile, the median stands in)")
            }
            _ => String::new(),
        };
        println!("  {:<40} = {value:>14.6e} {}{note}", def.name, def.unit);
        metrics.push((
            def.name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(def.unit))]),
        ));
    }
    println!(
        "  {:<40} = {:>14.6e} ratio   ({failed} of {attempted} ops)",
        "failed_share",
        failed as f64 / attempted as f64,
    );
    for what in &outcome.failures.first {
        println!("  FAILED: {what}");
    }
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(failed == 0)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    );
    i32::from(failed > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_is_a_percentile_from_100_ops_and_the_median_below() {
        let get = |m: &[(&str, f64)], name: &str| m.iter().find(|(n, _)| *n == name).unwrap().1;
        let lat: Vec<f64> = (1..=100).map(f64::from).collect();
        let m = end_to_end(&lat, 50.0, &[3.0, 1.0, 2.0], 64.0);
        assert_eq!(get(&m, "op_p50_s"), 50.5);
        assert_eq!(get(&m, "op_p90_s"), 90.0);
        assert_eq!(get(&m, "ops_per_s"), 2.0);
        assert_eq!(get(&m, "setup_s"), 2.0);
        let m = end_to_end(&lat[..99], 50.0, &[1.0], 64.0);
        assert_eq!(get(&m, "op_p90_s"), get(&m, "op_p50_s"));
        let names: Vec<_> = m.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, END_TO_END.map(|d| d.name));
    }

    #[test]
    fn metric_names_are_unique_and_fit_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        for n in &names {
            assert!(
                n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn set_up_runs_three_times_and_keeps_the_last() {
        let mut calls = 0;
        let mut torn_down = Vec::new();
        let (seconds, last) = set_up_repeatedly(
            || {
                calls += 1;
                calls
            },
            |stale| torn_down.push(stale),
        );
        assert_eq!((seconds.len(), last, torn_down), (3, 3, vec![1, 2]));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("cold"), None);
    }
}
