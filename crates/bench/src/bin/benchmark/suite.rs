//! The whole suite: every workload in a child process of its own (so that
//! `peak_rss_mib` is per workload), every metric printed by name, the
//! results written to a file `compare` reads.

use crate::compare::{self, Run, WorkloadResult};
use crate::json::Json;
use crate::run::{self, Workload, END_TO_END};
use crate::stats;
use std::path::PathBuf;
use std::process::{Command, Stdio};

#[derive(Debug, Clone)]
pub struct Args {
    pub smoke: bool,
    pub seed: u64,
    pub seconds: f64,
    /// Follow each workload's timed run with its traced run.
    pub trace: bool,
    /// Run the suite this many times and compare the runs with each other.
    pub repeat: usize,
    pub out: PathBuf,
    pub trace_out: PathBuf,
}

/// The first line of a command's output, or `unknown`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// What the numbers were measured on, and with which inputs.
fn stamp(args: &Args) -> Json {
    let memory_mib = std::fs::read_to_string("/proc/meminfo").ok().and_then(|m| {
        let line = m.lines().find(|l| l.starts_with("MemTotal:"))?;
        Some(line.split_whitespace().nth(1)?.parse::<f64>().ok()? / 1024.0)
    });
    Json::obj([
        ("nproc", Json::Num(run::cores() as f64)),
        (
            "memory_mib",
            memory_mib.map_or(Json::Null, |m| Json::Num(m.round())),
        ),
        ("rustc", Json::str(first_line("rustc", &["-V"]))),
        (
            "commit",
            Json::str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("sizes", Json::str(run::sizes(args.smoke))),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
    ])
}

/// One workload run in a child process; its result line, parsed.
fn child(args: &Args, workload: Workload, trace: bool) -> Result<Json, String> {
    let mut command = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--trace-out")
        .arg(&args.trace_out);
    if args.smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child to end.
    let out = command
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} run: {e}", workload.name()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    let line = text.lines().last().unwrap_or_default();
    Json::parse(line).map_err(|e| {
        format!(
            "the {} run ended {} without a result line: {e}",
            workload.name(),
            out.status
        )
    })
}

fn metrics(result: &Json) -> Option<Vec<(String, f64)>> {
    result
        .get("metrics")?
        .as_obj()?
        .iter()
        .map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect()
}

fn workload_result(args: &Args, workload: Workload) -> Result<WorkloadResult, String> {
    let malformed = || {
        format!(
            "the {} run printed a malformed result line",
            workload.name()
        )
    };
    let count = |result: &Json, key| result.get(key).and_then(Json::as_f64).map(|x| x as u64);
    let timed = child(args, workload, false)?;
    let mut result = WorkloadResult {
        attempted: count(&timed, "attempted").ok_or_else(malformed)?,
        failed: count(&timed, "failed").ok_or_else(malformed)?,
        end_to_end: metrics(&timed).ok_or_else(malformed)?,
        per_layer: None,
    };
    if args.trace {
        let traced = child(args, workload, true)?;
        // A wrong answer in the traced pass is a wrong answer.
        result.failed += count(&traced, "failed").ok_or_else(malformed)?;
        result.per_layer = Some(metrics(&traced).ok_or_else(malformed)?);
    }
    Ok(result)
}

fn print_run(run: &Run) {
    print!("\n{:<15} {:>8}", "workload", "ops");
    for def in &END_TO_END {
        print!(" {:>16}", format!("{} [{}]", def.name, def.unit));
    }
    println!(" {:>13}", "failed_share");
    for (workload, r) in run {
        print!("{:<15} {:>8}", workload.name(), r.attempted);
        for def in &END_TO_END {
            let value = r
                .end_to_end
                .iter()
                .find(|(n, _)| n == def.name)
                .map(|&(_, v)| v);
            match (def.name, value) {
                // The median stood in on the result line; here it is null.
                ("op_p90_s", _) if !stats::tail_defined(r.attempted as usize, 90) => {
                    print!(" {:>16}", "null")
                }
                (_, Some(v)) => print!(" {v:>16.6e}"),
                (_, None) => print!(" {:>16}", "missing"),
            }
        }
        println!(" {:>13.6e}", r.failed as f64 / r.attempted.max(1) as f64);
    }
    println!();
}

pub fn run(args: &Args) -> i32 {
    let stamp = stamp(args);
    println!("benchmark suite: {stamp}");
    let mut runs: Vec<Run> = Vec::new();
    let mut failed = false;
    for k in 0..args.repeat {
        if args.repeat > 1 {
            println!("\n=== run {} of {} ===", k + 1, args.repeat);
        }
        let mut run = Run::new();
        for workload in Workload::ALL {
            match workload_result(args, workload) {
                Ok(result) => {
                    failed |= result.failed > 0;
                    run.push((workload, result));
                }
                Err(what) => {
                    eprintln!("error: {what}");
                    failed = true;
                }
            }
        }
        print_run(&run);
        runs.push(run);
    }

    let file = Json::obj([
        ("stamp", stamp),
        (
            "runs",
            Json::Arr(runs.iter().map(compare::run_to_json).collect()),
        ),
    ]);
    let written = args
        .out
        .parent()
        .filter(|dir| !dir.as_os_str().is_empty())
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&args.out, format!("{file:#}\n")));
    match written {
        Ok(()) => println!("results written to {}", args.out.display()),
        Err(e) => {
            eprintln!("error: cannot write {}: {e}", args.out.display());
            failed = true;
        }
    }

    if args.repeat > 1 {
        // Alternate the runs between the two sets, so that drift over the
        // session lands on both.
        let (even, odd): (Vec<_>, Vec<_>) =
            runs.into_iter().enumerate().partition(|(k, _)| k % 2 == 0);
        let set = |runs: Vec<(usize, Run)>| runs.into_iter().map(|(_, r)| r).collect::<Vec<_>>();
        println!("\neven runs (base) against odd runs (change), same code:");
        failed |= compare::compare(&set(even), &set(odd), true, args.smoke) > 0;
    }
    i32::from(failed)
}
