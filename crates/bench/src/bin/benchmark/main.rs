//! The repository's benchmark: six workloads over the whole request path,
//! the same end-to-end metrics on each, and per-layer numbers from a
//! traced pass that times calls into each layer's public functions from
//! here.  `README.md` beside this file explains the workloads, the
//! metrics and how to compare two commits; `BENCHMARK.json` at the root of
//! the repository is the contract.
//!
//! ```text
//! benchmark [--smoke] [--seed N] [--seconds S] [--trace 0|1] [--repeat K]
//!           [--out FILE] [--trace-out FILE]       every workload, each in a child process
//! benchmark --workload NAME [--smoke] [--seed N] [--seconds S] [--trace 0|1]
//!           [--trace-out FILE]                    one workload, in this process
//! benchmark compare BASE.json CHANGE.json         two results files
//! ```
//!
//! It calls only public entry points of the library, builds every options
//! struct with `..Default::default()`, and runs with the options users
//! get (`threads = 0`, solver `auto`, …).

mod chain;
mod compare;
mod inputs;
mod json;
mod replay;
mod run;
mod search;
mod serve;
mod stats;
mod suite;
mod trace;

use run::{Config, Workload, DEFAULT_SEED};
use std::path::{Path, PathBuf};

const USAGE: &str = "usage:
  benchmark [--smoke] [--seed N] [--seconds S] [--trace 0|1] [--repeat K] [--out FILE] [--trace-out FILE]
  benchmark --workload NAME [--smoke] [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
  benchmark compare BASE.json CHANGE.json
workloads: cold_quotient cold_large cold_full warm_resolve serve_small search_overlap";

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}\n{USAGE}");
    std::process::exit(2);
}

/// The value after flag `argv[*i]`, parsed.
fn value<T: std::str::FromStr>(argv: &[String], i: &mut usize) -> T {
    *i += 1;
    argv.get(*i)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{} needs a value", argv[*i - 1])))
}

fn compare_files(base: &Path, change: &Path) -> i32 {
    let load = |path| compare::load(path).unwrap_or_else(|e| usage(&e));
    let ((base_stamp, base), (change_stamp, change)) = (load(base), load(change));
    println!("base:   {base_stamp}\nchange: {change_stamp}");
    let inputs = |stamp: &json::Json| (stamp.get("seed").cloned(), stamp.get("sizes").cloned());
    let same_inputs = inputs(&base_stamp) == inputs(&change_stamp);
    if !same_inputs {
        println!("the files differ in seed or sizes: counts are not compared");
    }
    let smoke = base_stamp.get("sizes").and_then(json::Json::as_str) == Some(run::sizes(true));
    i32::from(compare::compare(&base, &change, same_inputs, smoke) > 0)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "compare") {
        let [_, base, change] = argv.as_slice() else {
            usage("compare takes two results files");
        };
        std::process::exit(compare_files(Path::new(base), Path::new(change)));
    }

    let mut workload = None;
    let mut args = suite::Args {
        smoke: false,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        repeat: 1,
        out: PathBuf::from("target/benchmark.json"),
        trace_out: PathBuf::from("target/benchmark-trace.json"),
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => {
                let name: String = value(&argv, &mut i);
                workload = Some(
                    Workload::from_name(&name)
                        .unwrap_or_else(|| usage(&format!("no workload {name}"))),
                );
            }
            "--smoke" => args.smoke = true,
            "--seed" => args.seed = value(&argv, &mut i),
            "--seconds" => args.seconds = value(&argv, &mut i),
            "--trace" => match value::<u8>(&argv, &mut i) {
                0 => args.trace = false,
                1 => args.trace = true,
                _ => usage("--trace takes 0 or 1"),
            },
            "--repeat" => args.repeat = value(&argv, &mut i),
            "--out" => args.out = value(&argv, &mut i),
            "--trace-out" => args.trace_out = value(&argv, &mut i),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) || args.repeat == 0 {
        usage("--seconds and --repeat must be positive");
    }

    let Some(workload) = workload else {
        std::process::exit(suite::run(&args));
    };
    let cfg = Config {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        trace_out: args.trace_out,
    };
    println!(
        "workload {} sizes {} seed {} seconds {} trace {} nproc {}",
        workload.name(),
        run::sizes(cfg.smoke),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        run::cores()
    );
    let outcome = match workload {
        Workload::ServeSmall => serve::run(&cfg),
        Workload::SearchOverlap => search::run(&cfg),
        _ => chain::run(&cfg),
    };
    std::process::exit(run::report(&cfg, &outcome));
}
