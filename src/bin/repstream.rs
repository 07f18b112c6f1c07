//! `repstream` — command-line throughput analysis.
//!
//! ```sh
//! repstream analyze system.rsys        # full report
//! repstream dot system.rsys overlap    # Graphviz of the TPN
//! repstream example-a                  # built-in Example A
//! repstream search mapping-search      # portfolio mapping search
//! ```
//!
//! `search` runs the engine's portfolio driver (greedy + parallel random
//! batch + delta-scored hill climbing + exponential re-rank) on a named
//! `workload::scenarios` scenario (`mapping-search`, `example-a`) or on
//! the application/platform of an `.rsys` file, and prints the scored
//! finalists with the evaluation and cache counters.  Its own flags:
//! `--model overlap|strict`, `--candidates N`, `--seed N`, `--no-exp`.
//!
//! `search --scenario workload` (equivalently `search workload`) runs
//! the **multi-application** joint search instead: `--apps K` tenants of
//! `scenarios::shared_platform` contend for the 12-processor platform,
//! and `--objective maxmin|weighted|sla` picks the scalarization of the
//! per-app contended throughputs.  The report prints the winner's
//! per-app throughput table (weight, SLA verdict) and a contention
//! summary (shared processors/links, busiest processor).
//!
//! ## Run flags
//!
//! `analyze`, `client analyze` and `search` share one set of flags, one
//! per knob of the library's `RunConfig` — where each is documented, with
//! the README's table — parsed in one place ([`RunFlags`]):
//!
//! * `--threads N` — workers of the chunk-parallel marking BFS (`0` =
//!   auto, `1` = sequential; every value is **bitwise-identical**);
//! * `--solver auto|gth|gs|power` — stationary
//!   method of the Theorem 2 chains (`auto` = the measured plan; the
//!   report prints what actually ran, its iterations and residual);
//! * `--max-states N` — state budget of every chain the command builds
//!   (default 4M; a Theorem 3 pattern chain gets at most 2M of it);
//! * `--deadline DUR` (`2s`, `500ms`) — arm the cooperative governor: the
//!   BFS checks it per level, the solvers per checkpoint, the portfolio
//!   per candidate sub-batch; un-fired, it changes no output bit;
//! * `--degrade bounds|fail` (reports only; default `bounds`) — on
//!   overrun, fall the Strict section back to the N.B.U.E. sandwich and
//!   stamp the report `degraded=yes method=bounds-fallback reason=…`
//!   (exit 0), or abort with a one-line error (exit 4).  An interrupted
//!   `search` always exits 4.
//!
//! Exit codes: `0` success (including a degraded-to-bounds report),
//! `2` configuration/usage error, `3` over the `--max-states` budget,
//! `4` interrupted (a report under `--degrade fail`, any search), `5`
//! internal error (e.g. unexpected unsafety).
//!
//! The `.rsys` format is a small line-oriented description (see
//! [`repstream::workload` docs] and `parse_system`):
//!
//! ```text
//! # comments and blank lines ignored
//! stages    4
//! work      52 95 120 60
//! files     57 300 73
//! speeds    165 73 77 126 147 128 186
//! bandwidth 104                 # default for every link
//! link      1 3 22              # override: proc 1 -> proc 3
//! link      1 4 22
//! team      0                   # stage 0 team: processor ids
//! team      1 2
//! team      3 4 5
//! team      6
//! ```

use repstream::core::model::{Application, Mapping, Platform, System};
use repstream::core::report::{
    system_report, system_report_status, DegradeMode, ReportOptions, ReportStatus,
};
use repstream::core::timing;
use repstream::core::wire::{
    AnalyzeRequest, Request, Response, ScaleRequest, SearchRequest, WireOptions,
};
use repstream::engine::portfolio::EngineError;
use repstream::engine::{
    portfolio_search, workload_search, Objective, PortfolioOptions, WorkloadSearchOptions,
};
use repstream::markov::ctmc::SolverChoice;
use repstream::markov::govern::{Budget, RunConfig};
use repstream::petri::dot::to_dot;
use repstream::petri::shape::ExecModel;
use repstream::petri::tpn::Tpn;
use repstream::serve::{response_exit_code, Client, ServeOptions, Server};
use repstream::workload::examples::example_a;
use repstream::workload::scenarios;
use std::num::NonZeroUsize;
use std::time::Duration;

fn main() {
    #[cfg(feature = "fault-inject")]
    if let Err(e) = repstream::markov::fault::install_from_env() {
        eprintln!("error: REPSTREAM_FAULT: {e}");
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = run(&args);
    std::process::exit(code);
}

/// Parse a `--deadline` spelling: `2s`, `1.5s`, `500ms`.
fn parse_deadline(s: &str) -> Option<Duration> {
    let (num, scale) = if let Some(ms) = s.strip_suffix("ms") {
        (ms, 1e-3)
    } else if let Some(sec) = s.strip_suffix('s') {
        (sec, 1.0)
    } else {
        (s, 1.0)
    };
    let v: f64 = num.parse().ok()?;
    if v.is_finite() && v > 0.0 {
        Some(Duration::from_secs_f64(v * scale))
    } else {
        None
    }
}

/// Print a report — computed here or served — with the one-line
/// diagnostic of a non-success status; returns its exit code in the
/// documented taxonomy.
fn print_report(text: &str, status: ReportStatus) -> i32 {
    print!("{text}");
    let code = status.exit_code();
    match status {
        ReportStatus::Ok | ReportStatus::Degraded(_) => {}
        ReportStatus::OverBudget => eprintln!("error: over the --max-states budget (exit {code})"),
        ReportStatus::Interrupted(r) => {
            eprintln!("error: interrupted ({}) (exit {code})", r.label())
        }
        ReportStatus::Internal => eprintln!("error: internal analysis failure (exit {code})"),
    }
    i32::from(code)
}

/// Print a configuration error the way every command does; exit code 2.
fn fail(msg: impl std::fmt::Display) -> i32 {
    eprintln!("error: {msg}");
    2
}

/// Advance to the value of the flag at `args[*i]`.
fn value<'a>(args: &'a [String], i: &mut usize) -> Option<&'a str> {
    *i += 1;
    args.get(*i).map(String::as_str)
}

/// That value parsed as a `T` (`NonZeroUsize` for the counts that must be
/// positive), or the complaint `needs`.
fn parsed<T: std::str::FromStr>(args: &[String], i: &mut usize, needs: &str) -> Result<T, String> {
    value(args, i)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| needs.to_string())
}

/// The run flags — `--threads --solver --max-states --deadline
/// --degrade` — parsed in this one place for
/// `analyze`, `client analyze` and `search`: one spelling, one error text
/// and one [`RunConfig`] per flag, whichever command it is given to.
#[derive(Default)]
struct RunFlags {
    /// The knobs; `--deadline` has already armed `run.budget`.
    run: RunConfig,
    /// `--deadline` as given — the wire carries it relative, in place of
    /// the budget.
    deadline: Option<Duration>,
    /// `--degrade`, when given (`search` has no report to degrade and
    /// refuses it).
    degrade: Option<DegradeMode>,
}

impl RunFlags {
    /// Consume the flag at `args[*i]` (and its value) if it is a run
    /// flag; `Ok(false)` leaves it to the calling command.
    fn take(&mut self, args: &[String], i: &mut usize) -> Result<bool, String> {
        match args[*i].as_str() {
            "--threads" => {
                self.run.threads = parsed(args, i, "--threads needs a count (0 = auto)")?
            }
            "--solver" => {
                self.run.solver = value(args, i)
                    .and_then(SolverChoice::parse)
                    .ok_or("--solver needs auto|gth|gs|power")?;
            }
            "--max-states" => {
                self.run.max_states =
                    parsed::<NonZeroUsize>(args, i, "--max-states needs a positive state budget")?
                        .get();
            }
            "--deadline" => {
                let d = value(args, i)
                    .and_then(parse_deadline)
                    .ok_or("--deadline needs a duration like 2s or 500ms")?;
                self.run.budget = Budget::deadline_in(d);
                self.deadline = Some(d);
            }
            "--degrade" => {
                self.degrade = Some(match value(args, i) {
                    Some("bounds") => DegradeMode::Bounds,
                    Some("fail") => DegradeMode::Fail,
                    _ => return Err("--degrade needs bounds|fail".into()),
                });
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn report_options(&self) -> ReportOptions {
        ReportOptions {
            run: self.run,
            degrade: self.degrade.unwrap_or_default(),
            ..Default::default()
        }
    }
}

/// `[FILE] [run flags]`: the argument shape of `analyze` and
/// `client analyze` (`cmd` names the command in the error text).
fn file_and_run_flags(cmd: &str, args: &[String]) -> Result<(Option<String>, RunFlags), String> {
    let mut path = None;
    let mut flags = RunFlags::default();
    let mut i = 0;
    while i < args.len() {
        if !flags.take(args, &mut i)? {
            match args[i].as_str() {
                other if path.is_none() && !other.starts_with('-') => path = Some(other.into()),
                other => return Err(format!("unknown {cmd} argument {other}")),
            }
        }
        i += 1;
    }
    Ok((path, flags))
}

/// Parse `analyze FILE [run flags]`.
fn analyze_args(args: &[String]) -> Result<(Option<String>, ReportOptions), String> {
    let (path, flags) = file_and_run_flags("analyze", args)?;
    Ok((path, flags.report_options()))
}

fn run(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("analyze") => match analyze_args(&args[1..]) {
            Ok((Some(path), report_opts)) => match load(&path) {
                Ok(sys) => {
                    let (report, status) = system_report_status(&sys, report_opts);
                    print_report(&report, status)
                }
                Err(e) => fail(e),
            },
            Ok((None, _)) => usage(),
            Err(e) => fail(e),
        },
        Some("dot") => {
            let (path, model) = match (args.get(1), args.get(2)) {
                (Some(p), m) => (p, m.map(String::as_str).unwrap_or("overlap")),
                _ => return usage(),
            };
            let model = match model {
                "overlap" => ExecModel::Overlap,
                "strict" => ExecModel::Strict,
                other => return fail(format!("unknown model {other} (overlap|strict)")),
            };
            match load(path) {
                Ok(sys) => {
                    let tpn = Tpn::build(&sys.shape(), model);
                    print!("{}", to_dot(&tpn));
                    0
                }
                Err(e) => fail(e),
            }
        }
        Some("example-a") => {
            print!("{}", system_report(&example_a(), ReportOptions::default()));
            0
        }
        Some("search") => run_search(&args[1..]),
        Some("serve") => run_serve(&args[1..]),
        Some("client") => run_client(&args[1..]),
        _ => usage(),
    }
}

/// Parse `serve [--addr A] [--workers N] [--deadline-cap DUR]
/// [--max-states N] [--shards N]`.
fn serve_args(args: &[String]) -> Result<ServeOptions, String> {
    let mut opts = ServeOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => opts.addr = value(args, &mut i).ok_or("--addr needs host:port")?.into(),
            "--workers" => {
                opts.workers =
                    parsed::<NonZeroUsize>(args, &mut i, "--workers needs a count >= 1")?.get();
            }
            "--deadline-cap" => {
                opts.deadline_cap = Some(
                    value(args, &mut i)
                        .and_then(parse_deadline)
                        .ok_or("--deadline-cap needs a duration like 2s or 500ms")?,
                );
            }
            "--max-states" => {
                let needs = "--max-states needs a positive state budget";
                opts.max_states_cap = parsed::<NonZeroUsize>(args, &mut i, needs)?.get();
            }
            "--shards" => {
                opts.shards =
                    parsed::<NonZeroUsize>(args, &mut i, "--shards needs a count >= 1")?.get();
            }
            other => return Err(format!("unknown serve argument {other}")),
        }
        i += 1;
    }
    Ok(opts)
}

/// `repstream serve …` (see [`serve_args`]): run the resident analyzer
/// until a client sends a shutdown frame.
fn run_serve(args: &[String]) -> i32 {
    let opts = match serve_args(args) {
        Ok(opts) => opts,
        Err(e) => return fail(e),
    };
    let server = match Server::bind(opts) {
        Ok(s) => s,
        Err(e) => return fail(format!("bind failed: {e}")),
    };
    match server.local_addr() {
        Ok(addr) => println!("listening on {addr}"),
        Err(e) => {
            eprintln!("error: {e}");
            return 5;
        }
    }
    match server.run() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            5
        }
    }
}

/// `repstream client [--addr A] <ping|stats|shutdown|analyze FILE …|
/// search FILE …|scale FILE --procs 2,4,…>`: one wire request against a
/// running server, mapped to the documented exit taxonomy.
fn run_client(args: &[String]) -> i32 {
    let mut addr = ServeOptions::default().addr;
    let mut rest: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--addr" {
            match value(args, &mut i) {
                Some(a) => addr = a.to_string(),
                None => return fail("--addr needs host:port"),
            }
        } else {
            rest.push(args[i].clone());
        }
        i += 1;
    }
    let req = match build_client_request(&rest) {
        Ok(r) => r,
        Err(msg) => return fail(msg),
    };
    let mut client = match Client::connect(&addr) {
        Ok(c) => c,
        Err(e) => return fail(format!("connect {addr}: {e}")),
    };
    let resp = match client.call(&req) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 5;
        }
    };
    print_client_response(&resp);
    response_exit_code(&resp)
}

/// Parse the client subcommand words into one wire [`Request`].
fn build_client_request(rest: &[String]) -> Result<Request, String> {
    match rest.first().map(String::as_str) {
        Some("ping") => Ok(Request::Ping),
        Some("stats") => Ok(Request::Stats),
        Some("shutdown") => Ok(Request::Shutdown),
        Some("analyze") => {
            let (path, options) = client_analyze_args(&rest[1..])?;
            let system = load(&path)?;
            Ok(Request::Analyze(AnalyzeRequest { system, options }))
        }
        Some("search") => {
            let mut path = None;
            let mut req = SearchRequest {
                app: Application::new(vec![1.0], vec![]).map_err(|e| e.to_string())?,
                platform: Platform::complete(vec![1.0], 1.0).map_err(|e| e.to_string())?,
                random_candidates: 512,
                seed: 2010,
                exp_rerank: true,
                deadline_ms: None,
            };
            let mut i = 0;
            while i < rest.len() - 1 {
                i += 1;
                match rest[i].as_str() {
                    "--candidates" => {
                        req.random_candidates = parsed(rest, &mut i, "--candidates needs a count")?;
                    }
                    "--seed" => req.seed = parsed(rest, &mut i, "--seed needs a u64")?,
                    "--no-exp" => req.exp_rerank = false,
                    // The wire `SearchRequest` carries this one run knob
                    // only; the other run flags stay refused.
                    "--deadline" => {
                        let d = value(rest, &mut i)
                            .and_then(parse_deadline)
                            .ok_or("--deadline needs a duration like 2s or 500ms")?;
                        req.deadline_ms = Some(d.as_millis() as u64);
                    }
                    other if path.is_none() && !other.starts_with('-') => {
                        path = Some(other.to_string())
                    }
                    other => return Err(format!("unknown client search argument {other}")),
                }
            }
            let sys = load(&path.ok_or("client search needs an .rsys file")?)?;
            req.app = sys.app().clone();
            req.platform = sys.platform().clone();
            Ok(Request::Search(req))
        }
        Some("scale") => {
            let mut path = None;
            let mut counts: Vec<usize> = Vec::new();
            let mut i = 0;
            while i < rest.len() - 1 {
                i += 1;
                match rest[i].as_str() {
                    "--procs" => {
                        counts = value(rest, &mut i)
                            .map(|s| s.split(',').map(|t| t.trim().parse()).collect())
                            .transpose()
                            .ok()
                            .flatten()
                            .ok_or("--procs needs counts like 2,4,6")?;
                    }
                    other if path.is_none() && !other.starts_with('-') => {
                        path = Some(other.to_string())
                    }
                    other => return Err(format!("unknown client scale argument {other}")),
                }
            }
            if counts.is_empty() {
                return Err("client scale needs --procs 2,4,…".into());
            }
            let system = load(&path.ok_or("client scale needs an .rsys file")?)?;
            Ok(Request::Scale(ScaleRequest {
                system,
                processor_counts: counts,
            }))
        }
        _ => Err("client needs ping|stats|shutdown|analyze|search|scale".into()),
    }
}

/// Parse `client analyze FILE [run flags]`: the one-shot `analyze`
/// surface, with the deadline sent relative for the server to arm.
fn client_analyze_args(args: &[String]) -> Result<(String, WireOptions), String> {
    let (path, flags) = file_and_run_flags("client analyze", args)?;
    let deadline_ms = flags.deadline.map(|d| d.as_millis() as u64);
    Ok((
        path.ok_or("client analyze needs an .rsys file")?,
        WireOptions::new(&flags.report_options(), deadline_ms),
    ))
}

/// Render a served response the way the one-shot commands print theirs.
fn print_client_response(resp: &Response) {
    match resp {
        Response::Pong => println!("pong"),
        Response::Analyze(a) => {
            print_report(&a.text, a.status);
        }
        Response::Search(s) => {
            println!("origin      det-throughput  exp-throughput  teams");
            for c in &s.finalists {
                let exp = c
                    .exp
                    .map(|e| format!("{e:>14.5}"))
                    .unwrap_or_else(|| format!("{:>14}", "-"));
                println!("{:<11} {:>14.5}  {exp}  {:?}", c.origin, c.det, c.teams);
            }
            println!(
                "evaluations: {} det + {} delta recomputes + {} exp \
                 (chain cache: {} hits / {} misses)",
                s.det_evaluations,
                s.delta_recomputes,
                s.exp_evaluations,
                s.cache_hits,
                s.cache_misses
            );
        }
        Response::Scale(s) => {
            println!("processors  det-throughput  teams");
            for p in &s.points {
                println!(
                    "{:<11} {:>14.5}  {:?}",
                    p.processors, p.det_throughput, p.teams
                );
            }
        }
        Response::Stats(s) => {
            println!(
                "requests {} connections {} workers {} shards {}",
                s.requests, s.connections, s.workers, s.shards
            );
            println!(
                "cache: pattern {} hits / {} misses, strict {} hits / {} misses",
                s.cache.pattern_hits,
                s.cache.pattern_misses,
                s.cache.strict_hits,
                s.cache.strict_misses
            );
        }
        Response::ShuttingDown => println!("server shutting down"),
        Response::Error(e) => eprintln!("error (class {}): {}", e.class, e.message),
    }
}

/// What `repstream search` was asked to do.
struct SearchArgs {
    scenario: String,
    opts: PortfolioOptions,
    /// `--objective`, when given (workload scenario only).
    objective: Option<Objective>,
    /// `--apps` (workload scenario only).
    apps: usize,
}

/// Parse `search [SCENARIO|FILE] [--scenario NAME] [--model M]
/// [--candidates N] [--seed N] [--no-exp] [--objective O] [--apps K]
/// [run flags]`.
fn search_args(args: &[String]) -> Result<SearchArgs, String> {
    let mut scenario = None;
    let mut opts = PortfolioOptions::default();
    let mut objective = None;
    let mut apps = 2usize;
    let mut flags = RunFlags::default();
    let mut i = 0;
    while i < args.len() {
        if !flags.take(args, &mut i)? {
            match args[i].as_str() {
                "--scenario" => {
                    scenario = Some(value(args, &mut i).ok_or("--scenario needs a name")?.into());
                }
                "--objective" => {
                    objective = Some(
                        value(args, &mut i)
                            .and_then(Objective::parse)
                            .ok_or("--objective needs maxmin|weighted|sla")?,
                    );
                }
                "--apps" => {
                    apps = parsed::<NonZeroUsize>(args, &mut i, "--apps needs a count >= 1")?.get();
                }
                "--model" => {
                    opts.model = match value(args, &mut i) {
                        Some("overlap") => ExecModel::Overlap,
                        Some("strict") => ExecModel::Strict,
                        other => {
                            return Err(format!(
                                "--model needs overlap|strict, got {}",
                                other.unwrap_or("nothing")
                            ))
                        }
                    };
                }
                "--candidates" => {
                    opts.random_candidates = parsed(args, &mut i, "--candidates needs a count")?;
                }
                "--seed" => opts.seed = parsed(args, &mut i, "--seed needs a u64")?,
                "--no-exp" => opts.exp_rerank = false,
                other if scenario.is_none() && !other.starts_with('-') => {
                    scenario = Some(other.to_string());
                }
                other => return Err(format!("unknown search argument {other}")),
            }
        }
        i += 1;
    }
    if flags.degrade.is_some() {
        return Err("--degrade only applies to analyze (an interrupted search exits 4)".into());
    }
    opts.run = flags.run;
    Ok(SearchArgs {
        scenario: scenario.unwrap_or_else(|| "mapping-search".to_string()),
        opts,
        objective,
        apps,
    })
}

/// Report a failed search: exit 4 when interrupted, 3 when a re-rank
/// chain outgrew `--max-states`, 2 otherwise.
fn search_failed(e: &EngineError) -> i32 {
    eprintln!("error: {e}");
    i32::from(e.exit_code())
}

/// `repstream search …` (see [`search_args`] for the flags).
fn run_search(args: &[String]) -> i32 {
    let SearchArgs {
        scenario,
        opts,
        objective,
        apps,
    } = match search_args(args) {
        Ok(parsed) => parsed,
        Err(e) => return fail(e),
    };

    if scenario == "workload" {
        return run_workload_search(apps, objective.unwrap_or_default(), opts);
    }
    if objective.is_some() {
        return fail("--objective only applies to the workload scenario");
    }

    let (app, platform) = match scenario.as_str() {
        "mapping-search" => scenarios::mapping_search(),
        "example-a" => {
            let sys = example_a();
            (sys.app().clone(), sys.platform().clone())
        }
        path => match load(path) {
            Ok(sys) => (sys.app().clone(), sys.platform().clone()),
            Err(e) => {
                return fail(format!(
                    "{scenario} is neither a scenario (mapping-search, example-a) nor a readable .rsys file: {e}"
                ))
            }
        },
    };

    let report = match portfolio_search(&app, &platform, opts) {
        Ok(r) => r,
        Err(e) => return search_failed(&e),
    };
    println!(
        "portfolio search on `{scenario}` ({}, {} random candidates, seed {})",
        opts.model.label(),
        opts.random_candidates,
        opts.seed
    );
    println!("origin      det-throughput  exp-throughput  teams");
    for c in &report.finalists {
        let exp = c
            .exp
            .map(|e| format!("{e:>14.5}"))
            .unwrap_or_else(|| format!("{:>14}", "-"));
        println!(
            "{:<11} {:>14.5}  {exp}  {:?}",
            c.origin,
            c.det,
            c.mapping.teams()
        );
    }
    println!(
        "evaluations: {} det (batch) + {} delta column recomputes + {} exp \
         (chain cache: {} hits / {} misses)",
        report.det_evaluations,
        report.delta_recomputes,
        report.exp_evaluations,
        report.exp_cache.hits(),
        report.exp_cache.misses(),
    );
    0
}

/// `repstream search --scenario workload`: the K-app joint search on the
/// shared 12-processor platform.
fn run_workload_search(apps: usize, objective: Objective, portfolio: PortfolioOptions) -> i32 {
    let workload = scenarios::shared_platform(apps);
    let opts = WorkloadSearchOptions {
        objective,
        portfolio,
    };
    let report = match workload_search(&workload, opts) {
        Ok(r) => r,
        Err(e) => return search_failed(&e),
    };
    println!(
        "workload search: {apps} apps on {} shared processors ({}, objective {}, \
         {} random candidates, seed {})",
        workload.platform().n_processors(),
        portfolio.model.label(),
        objective.label(),
        portfolio.random_candidates,
        portfolio.seed
    );
    println!("origin      det-objective   exp-objective");
    for c in &report.finalists {
        let exp = c
            .exp_objective
            .map(|e| format!("{e:>14.5}"))
            .unwrap_or_else(|| format!("{:>14}", "-"));
        println!("{:<11} {:>14.5}  {exp}", c.origin, c.objective);
    }
    println!("winner ({}):", report.best.origin);
    println!("  app  weight  sla          det-throughput  exp-throughput  teams");
    for (k, app) in workload.apps().iter().enumerate() {
        let sla = app
            .sla()
            .map(|s| {
                let rho = report
                    .best
                    .exp_per_app
                    .as_ref()
                    .map_or(report.best.per_app[k], |e| e[k]);
                format!("{s:.4}{}", if rho >= s { " ok" } else { " MISS" })
            })
            .unwrap_or_else(|| "-".to_string());
        let exp = report
            .best
            .exp_per_app
            .as_ref()
            .map(|e| format!("{:>14.5}", e[k]))
            .unwrap_or_else(|| format!("{:>14}", "-"));
        println!(
            "  {k:<4} {:<7} {sla:<12} {:>14.5}  {exp}  {:?}",
            app.weight(),
            report.best.per_app[k],
            report.best.joint.mapping(k).teams()
        );
    }
    println!(
        "contention: {} shared processors, {} shared directed links, \
         busiest processor carries {} apps",
        report.contention.shared_processors,
        report.contention.shared_links,
        report.contention.max_processor_users
    );
    println!(
        "evaluations: {} det (batch) + {} delta column recomputes + {} exp \
         (shared chain cache: {} hits / {} misses)",
        report.det_evaluations,
        report.delta_recomputes,
        report.exp_evaluations,
        report.exp_cache.hits(),
        report.exp_cache.misses(),
    );
    0
}

fn usage() -> i32 {
    eprintln!(
        "usage: repstream <analyze FILE [--threads N] [--solver S] \
         [--max-states N] [--deadline DUR] [--degrade bounds|fail] | \
         dot FILE [overlap|strict] | \
         example-a | search [SCENARIO|FILE] [--model overlap|strict] [--candidates N] [--seed N] \
         [--no-exp] [--threads N] [--solver S] [--deadline DUR] \
         [--scenario workload --apps K --objective maxmin|weighted|sla] | \
         serve [--addr A] [--workers N] [--deadline-cap DUR] [--max-states N] [--shards N] | \
         client [--addr A] (ping | stats | shutdown | analyze FILE [flags] | \
         search FILE [--candidates N] [--seed N] [--no-exp] [--deadline DUR] | \
         scale FILE --procs 2,4,6)>  \
         (S: auto|gth|gs|power; DUR: 2s, 500ms; \
         exit codes: 0 ok/degraded, 2 config, 3 over-budget, 4 interrupted, 5 internal)"
    );
    2
}

fn load(path: &str) -> Result<System, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let sys = parse_system(&text)?;
    // A structurally valid system can still derive a broken timing
    // table (a subnormal bandwidth divides to an infinite transfer
    // time, whose exponential rate is 0 — the chain builders reject
    // that deep inside the Markov layer).  Catching it here keeps the
    // failure in the configuration class (exit 2), with the offending
    // resource named, instead of a panic.
    timing::validate_service_times(&sys)?;
    Ok(sys)
}

/// Parse the `.rsys` line format (see the module docs).
pub fn parse_system(text: &str) -> Result<System, String> {
    let mut work: Option<Vec<f64>> = None;
    let mut files: Vec<f64> = Vec::new();
    let mut speeds: Option<Vec<f64>> = None;
    let mut default_bw: Option<f64> = None;
    let mut links: Vec<(usize, usize, f64)> = Vec::new();
    let mut teams: Vec<Vec<usize>> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let key = it.next().unwrap();
        let rest: Vec<&str> = it.collect();
        let err = |msg: &str| format!("line {}: {msg}", lineno + 1);
        let floats = |rest: &[&str]| -> Result<Vec<f64>, String> {
            rest.iter()
                .map(|t| {
                    t.parse::<f64>()
                        .map_err(|_| err(&format!("bad number {t}")))
                })
                .collect()
        };
        match key {
            "stages" => { /* informational; validated against work below */ }
            "work" => work = Some(floats(&rest)?),
            "files" => files = floats(&rest)?,
            "speeds" => speeds = Some(floats(&rest)?),
            "bandwidth" => {
                default_bw = Some(
                    rest.first()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| err("bandwidth needs one number"))?,
                )
            }
            "link" => {
                if rest.len() != 3 {
                    return Err(err("link needs: src dst bandwidth"));
                }
                let p: usize = rest[0].parse().map_err(|_| err("bad src"))?;
                let q: usize = rest[1].parse().map_err(|_| err("bad dst"))?;
                let b: f64 = rest[2].parse().map_err(|_| err("bad bandwidth"))?;
                links.push((p, q, b));
            }
            "team" => {
                let ids: Result<Vec<usize>, _> = rest.iter().map(|t| t.parse()).collect();
                teams.push(ids.map_err(|_| err("bad processor id"))?);
            }
            other => return Err(err(&format!("unknown key {other}"))),
        }
    }

    let work = work.ok_or("missing `work` line")?;
    let speeds = speeds.ok_or("missing `speeds` line")?;
    let bw = default_bw.ok_or("missing `bandwidth` line")?;
    let app = Application::new(work, files).map_err(|e| e.to_string())?;
    let mut platform = Platform::complete(speeds, bw).map_err(|e| e.to_string())?;
    for (p, q, b) in links {
        if p >= platform.n_processors() || q >= platform.n_processors() {
            return Err(format!("link {p}->{q}: processor out of range"));
        }
        platform
            .set_bandwidth(p, q, b)
            .map_err(|e| format!("link {p}->{q}: {e}"))?;
    }
    let mapping = Mapping::new(teams).map_err(|e| e.to_string())?;
    System::new(app, platform, mapping).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use repstream::markov::ctmc::Solver;

    const EXAMPLE: &str = "
# Example A-like instance
stages    4
work      52 95 120 60
files     57 300 73
speeds    165 73 77 126 147 128 186
bandwidth 104
link      1 3 22
link      1 4 22
link      1 5 22
team      0
team      1 2
team      3 4 5
team      6
";

    /// One spelling, one error text and one `RunConfig` per run flag,
    /// whichever of the three commands parses it.
    #[test]
    fn run_flags_parse_the_same_in_every_command() {
        // max_states, threads, solver, deadline armed
        type Knobs = (usize, usize, SolverChoice, bool);
        fn knobs(r: &RunConfig) -> Knobs {
            let armed = r.budget.deadline.is_some();
            (r.max_states, r.threads, r.solver, armed)
        }
        let all: &[&str] = &[
            "--threads",
            "3",
            "--solver",
            "power",
            "--max-states",
            "5000",
            "--deadline",
            "1500ms",
        ];
        let power = SolverChoice::Force(Solver::Power);
        let table: &[(&[&str], Result<Knobs, &str>)] = &[
            (&[], Ok(knobs(&RunConfig::default()))),
            (all, Ok((5000, 3, power, true))),
            (&["--threads"], Err("--threads needs a count (0 = auto)")),
            (
                &["--threads", "x"],
                Err("--threads needs a count (0 = auto)"),
            ),
            (
                &["--solver", "simplex"],
                Err("--solver needs auto|gth|gs|power"),
            ),
            (
                &["--solver", "sor"],
                Err("--solver needs auto|gth|gs|power"),
            ),
            (
                &["--solver", "gmres"],
                Err("--solver needs auto|gth|gs|power"),
            ),
            (
                &["--max-states", "0"],
                Err("--max-states needs a positive state budget"),
            ),
            (
                &["--deadline", "soon"],
                Err("--deadline needs a duration like 2s or 500ms"),
            ),
            (&["--degrade", "maybe"], Err("--degrade needs bounds|fail")),
        ];
        let argv = |flags: &[&str]| -> Vec<String> {
            std::iter::once("x.rsys")
                .chain(flags.iter().copied())
                .map(String::from)
                .collect()
        };
        for (flags, want) in table {
            let args = argv(flags);
            let want = want.map_err(String::from);
            let analyze = analyze_args(&args).map(|(_, o)| knobs(&o.run));
            let client = client_analyze_args(&args)
                .map(|(_, w)| knobs(&w.report_options(None, usize::MAX).run));
            let search = search_args(&args).map(|a| knobs(&a.opts.run));
            assert_eq!(analyze, want, "analyze {flags:?}");
            assert_eq!(client, want, "client analyze {flags:?}");
            assert_eq!(search, want, "search {flags:?}");
        }

        // A refused flag is a configuration error: exit 2, before any
        // file is read.
        for retired in ["sor", "gmres", "gmres-plain"] {
            let cmd = ["analyze", "x.rsys", "--solver", retired].map(String::from);
            assert_eq!(run(&cmd), 2, "--solver {retired}");
        }
        // `--no-lump` and `--interner-spill` are no flags: an unknown
        // argument, exit 2, before any file is read or any server is
        // dialled.
        for flag in ["--no-lump", "--interner-spill"] {
            assert_eq!(
                analyze_args(&argv(&[flag])).err(),
                Some(format!("unknown analyze argument {flag}"))
            );
            let search = ["search", "x.rsys", flag].map(String::from);
            assert_eq!(
                build_client_request(&search).err(),
                Some(format!("unknown client search argument {flag}"))
            );
            for cmd in [
                &["analyze", "x.rsys", flag][..],
                &["client", "search", "x.rsys", flag][..],
            ] {
                let cmd: Vec<String> = cmd.iter().copied().map(String::from).collect();
                assert_eq!(run(&cmd), 2, "{cmd:?}");
            }
        }

        // The wire carries the deadline relative, for the server to arm.
        let (_, wire) = client_analyze_args(&argv(all)).unwrap();
        assert_eq!(wire.deadline_ms, Some(1500));

        // `--degrade` picks what a *report* does when the budget fires;
        // `search` has no report to degrade and says so.
        let fail = argv(&["--degrade", "fail"]);
        assert_eq!(analyze_args(&fail).unwrap().1.degrade, DegradeMode::Fail);
        assert_eq!(
            client_analyze_args(&fail).unwrap().1.degrade,
            DegradeMode::Fail
        );
        assert!(search_args(&fail)
            .err()
            .unwrap()
            .contains("only applies to analyze"));
    }

    #[test]
    fn parses_the_documented_format() {
        let sys = parse_system(EXAMPLE).unwrap();
        assert_eq!(sys.shape().teams(), &[1, 2, 3, 1]);
        assert_eq!(sys.platform().bandwidth(1, 3), 22.0);
        assert_eq!(sys.platform().bandwidth(0, 1), 104.0);
        assert_eq!(sys.app().file_size(1), 300.0);
    }

    #[test]
    fn reports_missing_sections() {
        assert!(parse_system("work 1 2\nfiles 3")
            .unwrap_err()
            .contains("speeds"));
        assert!(parse_system("speeds 1\nbandwidth 1\nteam 0")
            .unwrap_err()
            .contains("work"));
    }

    #[test]
    fn reports_bad_lines_with_numbers() {
        let err = parse_system("work 1 x").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let err = parse_system("work 1\nnope 3").unwrap_err();
        assert!(err.contains("unknown key nope"), "{err}");
    }

    #[test]
    fn validates_model_semantics() {
        // Reused processor.
        let err =
            parse_system("work 1 1\nfiles 1\nspeeds 1 1\nbandwidth 1\nteam 0\nteam 0").unwrap_err();
        assert!(err.contains("more than one stage"), "{err}");
    }
}
