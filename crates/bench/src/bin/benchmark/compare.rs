//! Results files, and the comparison of two sets of runs: per workload and
//! end-to-end metric both medians, the ratio with its base, the bound, and
//! `ok | regressed | unresolved`; exact equality for the counts.

use crate::json::Json;
use crate::run::{Better, MetricDef, Workload, END_TO_END, PER_LAYER};
use crate::stats::{median, quartile_spread, tail_defined};
use std::path::Path;

/// One workload's numbers from one run of the suite.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<(String, f64)>,
    /// `None` when the suite ran without its traced pass.
    pub per_layer: Option<Vec<(String, f64)>>,
}

/// One run of the suite: a result per workload, in suite order.
pub type Run = Vec<(Workload, WorkloadResult)>;

fn numbers(values: &[(String, f64)]) -> Json {
    Json::obj(values.iter().map(|(k, v)| (k.as_str(), Json::Num(*v))))
}

fn parse_numbers(json: &Json) -> Option<Vec<(String, f64)>> {
    json.as_obj()?
        .iter()
        .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect()
}

pub fn run_to_json(run: &Run) -> Json {
    Json::obj(run.iter().map(|(workload, r)| {
        let result = Json::obj([
            ("attempted", Json::Num(r.attempted as f64)),
            ("failed", Json::Num(r.failed as f64)),
            ("end_to_end", numbers(&r.end_to_end)),
            (
                "per_layer",
                r.per_layer.as_deref().map_or(Json::Null, numbers),
            ),
        ]);
        (workload.name(), result)
    }))
}

fn run_from_json(json: &Json) -> Option<Run> {
    json.as_obj()?
        .iter()
        .map(|(name, r)| {
            let result = WorkloadResult {
                attempted: r.get("attempted")?.as_f64()? as u64,
                failed: r.get("failed")?.as_f64()? as u64,
                end_to_end: parse_numbers(r.get("end_to_end")?)?,
                per_layer: match r.get("per_layer")? {
                    Json::Null => None,
                    layers => Some(parse_numbers(layers)?),
                },
            };
            Some((Workload::from_name(name)?, result))
        })
        .collect()
}

/// A results file as the suite writes it: the machine stamp and the runs.
pub fn load(path: &Path) -> Result<(Json, Vec<Run>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let file = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs = file
        .get("runs")
        .and_then(Json::as_arr)
        .and_then(|runs| runs.iter().map(run_from_json).collect::<Option<Vec<_>>>())
        .filter(|runs| !runs.is_empty())
        .ok_or_else(|| format!("{}: not a results file of this benchmark", path.display()))?;
    Ok((file.get("stamp").cloned().unwrap_or(Json::Null), runs))
}

/// The share of the base's median an end-to-end metric may get worse by
/// before the change counts as a regression — `BENCHMARK.json` carries the
/// same numbers.  The machine sets them, not the code: README, "Bounds and
/// spreads".
pub fn bound(metric: &str) -> f64 {
    match metric {
        "peak_rss_mib" => 0.15,
        "op_p50_s" | "op_p90_s" | "ops_per_s" | "setup_s" => 0.25,
        other => unreachable!("{other} is not an end-to-end metric"),
    }
}

/// A set-up that got slower by less than this is not a regression,
/// whatever its share: a few set-ups take only tens of milliseconds.
const SETUP_FLOOR_S: f64 = 0.05;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// The rule of the guides: no regression means the change's median is no
/// worse than the base's by more than the bound; where the run-to-run
/// spread is wider than the bound the metric is unresolved, not
/// unchanged, unless every run of the change reads better than every run
/// of the base.
pub fn verdict(def: &MetricDef, base: &[f64], change: &[f64]) -> (Verdict, f64, Option<f64>) {
    let (a, b) = (median(base), median(change));
    let worse_by = match def.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    let bound = bound(def.name);
    let spread = [base, change]
        .into_iter()
        .filter_map(quartile_spread)
        .reduce(f64::max);
    let better = |x: f64, y: f64| match def.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let all_better = change.iter().all(|&x| base.iter().all(|&y| better(x, y)));
    let within_floor = def.name == "setup_s" && worse_by <= SETUP_FLOOR_S;
    let verdict = if spread.is_some_and(|s| s > bound) && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound * a && !within_floor {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, worse_by / a, spread)
}

fn values(
    runs: &[Run],
    workload: Workload,
    pick: impl Fn(&WorkloadResult) -> Option<f64>,
) -> Vec<f64> {
    runs.iter()
        .flat_map(|run| run.iter().filter(|(w, _)| *w == workload))
        .filter_map(|(_, r)| pick(r))
        .collect()
}

fn find(values: &[(String, f64)], name: &str) -> Option<f64> {
    values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
}

/// Print the comparison of `change` against `base`; returns how many
/// pairings regressed.  Counts are compared only between sets run on the
/// same inputs (`same_inputs`).  At smoke sizes an op takes microseconds
/// and its timing is noise: only failures and counts are judged.
pub fn compare(base: &[Run], change: &[Run], same_inputs: bool, smoke: bool) -> usize {
    let mut regressed = 0;
    println!(
        "{:<15} {:<13} {:>13} {:>13} {:>24} {:>7} {:>8}  verdict",
        "workload", "metric", "base median", "change median", "change vs base", "bound", "spread"
    );
    for workload in Workload::ALL {
        for def in &END_TO_END {
            // Below 100 ops there is no 90th percentile to compare.
            let defined = |r: &WorkloadResult| {
                def.name != "op_p90_s" || tail_defined(r.attempted as usize, 90)
            };
            let of = |runs| {
                values(runs, workload, |r| {
                    find(&r.end_to_end, def.name).filter(|_| defined(r))
                })
            };
            let (a, b) = (of(base), of(change));
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let (verdict, worse_share, spread) = verdict(def, &a, &b);
            regressed += usize::from(verdict == Verdict::Regressed && !smoke);
            println!(
                "{:<15} {:<13} {:>13.6e} {:>13.6e} {:>24} {:>6.0}% {:>8}  {}",
                workload.name(),
                def.name,
                median(&a),
                median(&b),
                format!(
                    "{:.4}x of base, {:.1}% {}",
                    median(&b) / median(&a),
                    worse_share.abs() * 100.0,
                    if worse_share > 0.0 { "worse" } else { "better" }
                ),
                bound(def.name) * 100.0,
                spread.map_or("n/a".to_string(), |s| format!("{:.1}%", s * 100.0)),
                match verdict {
                    _ if smoke => "not judged at smoke sizes",
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        // failed_share must be 0: a failed op is a regression outright.
        let failed: f64 = values(change, workload, |r| Some(r.failed as f64))
            .iter()
            .sum();
        if failed > 0.0 {
            regressed += 1;
            println!(
                "{:<15} failed_share: {failed} ops failed  REGRESSED",
                workload.name()
            );
        }
        if same_inputs {
            regressed += compare_counts(base, change, workload);
        }
    }
    regressed
}

/// The counts of the traced pass must repeat exactly on the same inputs.
fn compare_counts(base: &[Run], change: &[Run], workload: Workload) -> usize {
    let mut differing = 0;
    for def in PER_LAYER.iter().filter(|d| d.exact) {
        let of = |runs| values(runs, workload, |r| find(r.per_layer.as_deref()?, def.name));
        let mut all = of(base);
        all.extend(of(change));
        if all.windows(2).any(|w| w[0] != w[1]) {
            differing += 1;
            println!(
                "{:<15} {} differs between runs: {all:?}  REGRESSED",
                workload.name(),
                def.name
            );
        }
    }
    differing
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        END_TO_END.iter().find(|d| d.name == name).unwrap()
    }

    #[test]
    fn within_the_bound_is_ok_beyond_it_regressed() {
        let b = bound("op_p50_s");
        let (v, share, spread) = verdict(def("op_p50_s"), &[1.0], &[1.0 + 0.9 * b]);
        assert_eq!((v, spread), (Verdict::Ok, None));
        assert!((share - 0.9 * b).abs() < 1e-12);
        assert_eq!(
            verdict(def("op_p50_s"), &[1.0], &[1.0 + 1.1 * b]).0,
            Verdict::Regressed
        );
        // Higher is better for a rate: dropping is what is worse.
        let b = bound("ops_per_s");
        assert_eq!(
            verdict(def("ops_per_s"), &[100.0], &[100.0 * (1.0 - 1.1 * b)]).0,
            Verdict::Regressed
        );
        assert_eq!(
            verdict(def("ops_per_s"), &[100.0], &[100.0 * (1.0 + 1.1 * b)]).0,
            Verdict::Ok
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let noisy = [1.0, 1.6, 0.7, 1.3, 1.0];
        let (v, _, spread) = verdict(def("op_p50_s"), &noisy, &[1.0, 1.3, 1.0, 0.8, 1.6]);
        assert_eq!(v, Verdict::Unresolved);
        assert!(spread.unwrap() > bound("op_p50_s"));
        assert_eq!(
            verdict(def("op_p50_s"), &noisy, &[0.6, 0.5, 0.65, 0.4, 0.6]).0,
            Verdict::Ok
        );
    }

    #[test]
    fn a_short_set_up_may_move_by_its_floor() {
        assert_eq!(verdict(def("setup_s"), &[0.06], &[0.10]).0, Verdict::Ok);
        assert_eq!(
            verdict(def("setup_s"), &[0.06], &[0.12]).0,
            Verdict::Regressed
        );
        assert_eq!(verdict(def("setup_s"), &[1.0], &[1.2]).0, Verdict::Ok);
        assert_eq!(
            verdict(def("setup_s"), &[1.0], &[1.3]).0,
            Verdict::Regressed
        );
    }

    fn run(p50: f64, states: f64, failed: u64) -> Run {
        vec![(
            Workload::ColdFull,
            WorkloadResult {
                attempted: 40,
                failed,
                end_to_end: vec![("op_p50_s".into(), p50), ("ops_per_s".into(), 1.0 / p50)],
                per_layer: Some(vec![
                    ("markov.marking.states".into(), states),
                    ("markov.marking.build_s".into(), p50 * 0.7),
                ]),
            },
        )]
    }

    #[test]
    fn counts_must_repeat_exactly_and_failures_regress() {
        let base = [run(1.0, 143360.0, 0)];
        assert_eq!(compare(&base, &[run(1.01, 143360.0, 0)], true, false), 0);
        // A count that moved; a timing of the same layer may.
        assert_eq!(compare(&base, &[run(1.0, 143361.0, 0)], true, false), 1);
        assert_eq!(compare(&base, &[run(1.0, 143361.0, 0)], false, false), 0);
        assert_eq!(compare(&base, &[run(1.0, 143360.0, 2)], true, false), 1);
        // Both the median and the rate regress.
        assert_eq!(compare(&base, &[run(1.5, 143360.0, 0)], true, false), 2);
        // At smoke sizes timings are not judged; answers still are.
        assert_eq!(compare(&base, &[run(1.5, 143360.0, 0)], true, true), 0);
        assert_eq!(compare(&base, &[run(1.5, 143361.0, 1)], true, true), 2);
    }

    #[test]
    fn results_round_trip_through_the_file_format() {
        let mut without_layers = run(0.27, 143360.0, 0);
        without_layers[0].1.per_layer = None;
        for r in [run(0.27, 143360.0, 1), without_layers] {
            let text = format!("{:#}", run_to_json(&r));
            assert_eq!(run_from_json(&Json::parse(&text).unwrap()), Some(r));
        }
    }

    /// `BENCHMARK.json` at the root of the repository is the contract the
    /// driver reads; the tables here are what the program prints.
    #[test]
    fn the_contract_lists_what_the_program_measures() {
        let contract = Json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let list = |key: &str| contract.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let text =
            |entry: &Json, key: &str| entry.get(key).and_then(Json::as_str).unwrap().to_string();
        let row = |d: &MetricDef| {
            let better = match d.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            (d.name.to_string(), d.unit.to_string(), better.to_string())
        };
        let listed = |key: &str| -> Vec<_> {
            list(key)
                .iter()
                .map(|e| (text(e, "name"), text(e, "unit"), text(e, "better")))
                .collect()
        };
        assert_eq!(
            listed("end_to_end"),
            END_TO_END.iter().map(row).collect::<Vec<_>>()
        );
        assert_eq!(
            listed("per_layer"),
            PER_LAYER.iter().map(row).collect::<Vec<_>>()
        );
        for entry in list("end_to_end") {
            let b = entry.get("bound").and_then(Json::as_f64).unwrap();
            assert_eq!(b, bound(&text(&entry, "name")));
            assert!(b > 0.0 && b <= 0.25);
        }
        let workloads: Vec<_> = list("workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name()));
        assert_eq!(
            contract.get("paths"),
            Some(&Json::Arr(vec![Json::str(
                "crates/bench/src/bin/benchmark"
            )]))
        );
    }
}
