//! `serve_small`: closed-loop clients sending `Request::Analyze` over
//! loopback TCP to an in-process `serve::Server`.  The analysis itself is
//! tens of microseconds, so wire encode/decode, the socket round trip,
//! dispatch and report rendering are most of the latency — the only
//! workload where those layers dominate.

use crate::inputs::{het, op_rng};
use crate::replay::{self, Structure};
use crate::run::{self, Config, Failures, Outcome, Workload};
use crate::stats::{self, median, median_over};
use crate::trace::Tracer;
use repstream::core::model::System;
use repstream::core::report::{
    system_report_shared, system_report_status, ReportOptions, ReportStatus,
};
use repstream::core::timing;
use repstream::core::wire::{
    AnalyzeRequest, AnalyzeResponse, Request, Response, StatsResponse, WireOptions,
};
use repstream::markov::cache::SharedChainCache;
use repstream::serve::{Client, ServeOptions, Server};
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Instant;

/// The shape set is the workload's identity and is frozen.  Every shape is
/// structure-warm after set-up.
const SHAPES: [&[usize]; 5] = [&[2, 2], &[2, 3], &[3, 2], &[1, 2, 1], &[2, 2, 1]];
/// One load-generating thread, and one connection, per core of the
/// 2-core reference machine; the server's workers share those cores.
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// One response in this many is kept and compared byte for byte with a
/// one-shot analysis of the same system.
const VERIFY_EVERY: usize = 1000;

/// In the traced pass one request in this many is under a span and
/// replayed.  The rest keep the server as busy as the timed region does:
/// latency here depends on how long the workers sat idle.  Coprime with
/// the number of shapes, so that the traced requests visit every shape.
const TRACE_EVERY: usize = 11;

/// Traced requests among a client's `ops`.
fn traced_among(ops: usize) -> usize {
    ops.div_ceil(TRACE_EVERY)
}

struct Sizes {
    /// Cap on timed requests per client.
    max_ops: usize,
    /// Requests per client of the traced pass.
    traced_ops: usize,
    warm_ups: usize,
}

impl Sizes {
    fn of(cfg: &Config) -> Sizes {
        if cfg.smoke {
            Sizes {
                max_ops: 250,
                traced_ops: 100,
                warm_ups: 50,
            }
        } else {
            Sizes {
                max_ops: usize::MAX,
                traced_ops: 10_000,
                warm_ups: 500,
            }
        }
    }
}

fn shape_of(op: usize) -> usize {
    op % SHAPES.len()
}

/// Request `op` of client `client`: the shapes round-robin, fresh speeds
/// per request.
fn system(seed: u64, client: usize, op: usize) -> System {
    let stream = ((client as u64) << 48) | op as u64;
    het(
        SHAPES[shape_of(op)],
        &mut op_rng(seed, Workload::ServeSmall.stream(), stream),
    )
}

fn analyze(system: System) -> Request {
    Request::Analyze(AnalyzeRequest {
        system,
        options: WireOptions::default(),
    })
}

/// The report of an `Ok` analysis, or why the response is a failure:
/// errors, refusals and degraded answers all count.
fn ok_text(response: Result<Response, impl std::fmt::Display>) -> Result<String, String> {
    match response {
        Ok(Response::Analyze(AnalyzeResponse {
            text,
            status: ReportStatus::Ok,
        })) => Ok(text),
        Ok(Response::Analyze(a)) => Err(format!("status {:?}", a.status)),
        Ok(Response::Error(e)) => Err(format!("error class {}: {}", e.class, e.message)),
        Ok(other) => Err(format!("unexpected response {other:?}")),
        Err(e) => Err(format!("call failed: {e}")),
    }
}

/// A server running on its own thread.
struct Running {
    addr: SocketAddr,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Running {
    /// Boot on an ephemeral loopback port, build every shape's chain, and
    /// send warm-up requests down the warm path.
    fn set_up(cfg: &Config, sizes: &Sizes, failures: &mut Failures) -> Running {
        let server = Server::bind(ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: WORKERS,
            ..Default::default()
        })
        .expect("bind an ephemeral loopback port");
        let addr = server.local_addr().expect("bound socket has an address");
        let server = Arc::new(server);
        let thread = std::thread::spawn(move || server.run());
        let mut client = Client::connect(addr).expect("connect to the server just bound");
        for k in 0..sizes.warm_ups.max(SHAPES.len()) {
            // Client numbers beyond CLIENTS: never a timed request's inputs.
            if let Err(what) = ok_text(client.call(&analyze(system(cfg.seed, CLIENTS, k)))) {
                failures.push(format!("warm-up {k}: {what}"));
            }
        }
        Running { addr, thread }
    }

    fn stats(&self) -> StatsResponse {
        let mut client = Client::connect(self.addr).expect("connect for stats");
        match client.call(&Request::Stats) {
            Ok(Response::Stats(stats)) => stats,
            other => panic!("stats request answered {other:?}"),
        }
    }

    /// Ask the server to drain and stop, and wait until it has.
    fn shut_down(self) {
        let mut client = Client::connect(self.addr).expect("connect for shutdown");
        let answer = client.call(&Request::Shutdown);
        assert!(
            matches!(answer, Ok(Response::ShuttingDown)),
            "shutdown answered {answer:?}"
        );
        drop(client);
        self.thread
            .join()
            .expect("server thread does not panic")
            .expect("server stops cleanly");
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

/// Run `client(c)` on [`CLIENTS`] threads released together; returns the
/// results and the wall time from release to the last client's end.
fn closed_loop<T: Send>(client: impl Fn(usize, &Barrier) -> T + Sync) -> (Vec<T>, f64) {
    let barrier = Barrier::new(CLIENTS + 1);
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (client, barrier) = (&client, &barrier);
                s.spawn(move || client(c, barrier))
            })
            .collect();
        barrier.wait();
        let clock = Instant::now();
        let results = threads
            .into_iter()
            .map(|t| t.join().expect("client thread does not panic"))
            .collect();
        (results, clock.elapsed().as_secs_f64())
    })
}

struct ClientLog {
    latencies: Vec<f64>,
    failures: Failures,
    /// `(op, report)` of the responses kept for verification.
    kept: Vec<(usize, String)>,
}

/// One client's closed loop: the next request goes out when the previous
/// answer is in, until `seconds` have passed or `max_ops` are done.
fn client_loop(
    cfg: &Config,
    addr: SocketAddr,
    c: usize,
    max_ops: usize,
    seconds: f64,
    barrier: &Barrier,
) -> ClientLog {
    let mut log = ClientLog {
        latencies: Vec::new(),
        failures: Failures::default(),
        kept: Vec::new(),
    };
    let mut client = Client::connect(addr).expect("connect to the running server");
    barrier.wait();
    let clock = Instant::now();
    for op in 0..max_ops {
        let request = analyze(system(cfg.seed, c, op));
        let t = Instant::now();
        let response = client.call(&request);
        log.latencies.push(t.elapsed().as_secs_f64());
        match ok_text(response) {
            Ok(text) if op % VERIFY_EVERY == 0 => log.kept.push((op, text)),
            Ok(_) => {}
            Err(what) => log.failures.push(format!("client {c} op {op}: {what}")),
        }
        if clock.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    log
}

fn timed(cfg: &Config, sizes: &Sizes) -> Outcome {
    let mut failures = Failures::default();
    let (set_ups, server) = run::set_up_repeatedly(
        || Running::set_up(cfg, sizes, &mut failures),
        Running::shut_down,
    );
    let addr = server.addr;
    let before = server.stats();
    let (logs, wall_s) =
        closed_loop(|c, barrier| client_loop(cfg, addr, c, sizes.max_ops, cfg.seconds, barrier));
    let after = server.stats();
    let peak_rss_mib = run::peak_rss_mib();
    server.shut_down();

    let builds = after.cache.strict_misses - before.cache.strict_misses;
    failures.check(builds == 0, || {
        format!("{builds} chain builds in the timed region")
    });
    let mut latencies = Vec::new();
    for (c, log) in logs.into_iter().enumerate() {
        latencies.extend(log.latencies);
        failures.merge(log.failures);
        for (op, text) in log.kept {
            let one_shot = system_report_status(&system(cfg.seed, c, op), ReportOptions::default());
            failures.check((text, ReportStatus::Ok) == one_shot, || {
                format!("client {c} op {op}: served report differs from the one-shot analysis")
            });
        }
    }
    Outcome {
        attempted: latencies.len() as u64,
        failures,
        metrics: run::end_to_end(&latencies, wall_s, &set_ups, peak_rss_mib),
    }
}

/// What a client's traced requests run against in-process.
struct Twin<'a> {
    /// Warmed like the server's cache.
    cache: &'a SharedChainCache,
    /// The replay's stand-ins for the entries that cache holds, by shape.
    structures: &'a [Structure],
}

/// One client's traced requests: first the real calls, back to back as
/// the timed region sends them, the traced ones under an `op` span; then
/// each traced request again in-process, layer by layer.  Replaying between the calls would
/// leave the server's workers idle for longer than any timed request
/// does, and the calls would measure their wake-up.
fn traced_client(
    cfg: &Config,
    addr: SocketAddr,
    c: usize,
    ops: usize,
    epoch: Instant,
    twin: &Twin<'_>,
    barrier: &Barrier,
) -> (Tracer, Failures) {
    let mut t = Tracer::new(epoch);
    let mut failures = Failures::default();
    let mut client = Client::connect(addr).expect("connect to the running server");
    barrier.wait();
    let traced_op = |op| c * traced_among(ops) + op / TRACE_EVERY;
    let mut served = Vec::new();
    for op in 0..ops {
        let request = analyze(system(cfg.seed, c, op));
        if op % TRACE_EVERY == 0 {
            t.begin_op(traced_op(op) as u32);
            served.push((op, ok_text(t.leaf("op", || client.call(&request)))));
        } else if let Err(what) = ok_text(client.call(&request)) {
            failures.push(format!("client {c} op {op}: {what}"));
        }
    }

    for (op, served) in served {
        t.begin_op(traced_op(op) as u32);
        let system = system(cfg.seed, c, op);
        let request = analyze(system.clone());
        let root = t.enter("request.replay");
        let s = t.enter("core.wire.request_encode");
        let body = request.encode();
        t.exit(s);
        t.count(s, "bytes", body.len() as f64);
        t.leaf("core.wire.request_decode", || Request::decode(&body))
            .expect("an encoded request decodes");
        let s = t.enter("core.report.shared");
        let (text, status) = system_report_shared(&system, ReportOptions::default(), twin.cache);
        t.exit(s);
        t.count(s, "text_bytes", text.len() as f64);
        let response = Response::Analyze(AnalyzeResponse { text, status });
        let s = t.enter("core.wire.response_encode");
        let body = response.encode();
        t.exit(s);
        t.count(s, "bytes", body.len() as f64);
        let decoded = t.leaf("core.wire.response_decode", || Response::decode(&body));
        t.exit(root);

        // Every traced request is held to its in-process twin, byte for byte.
        let in_process = ok_text(decoded);
        failures.check(served.is_ok() && served == in_process, || {
            format!("client {c} op {op}: served {served:?}, in-process {in_process:?}")
        });

        // Probes: on this path the model and the net are built only
        // nested in other public calls (request decode; the deterministic
        // analyses), so their cost is measured beside the replay.
        t.leaf("core.model.build", || {
            System::new(
                system.app().clone(),
                system.platform().clone(),
                system.mapping().clone(),
            )
        })
        .expect("a valid system's parts are valid");
        replay::net(&mut t, &system.shape(), &timing::exponential_rates(&system));

        let through_cache = replay::strict_through_cache(&mut t, &system, &mut &*twin.cache);
        let structure = &twin.structures[shape_of(op)];
        let replayed = replay::report(&mut t, &system, &mut &*twin.cache, Some(structure));
        let text = in_process.as_deref().unwrap_or_default();
        replay::check_bits(&mut failures, op, replayed, through_cache, text);
    }
    (t, failures)
}

fn traced(cfg: &Config, sizes: &Sizes) -> Outcome {
    let mut failures = Failures::default();
    let (_, server) = run::set_up_repeatedly(
        || Running::set_up(cfg, sizes, &mut failures),
        Running::shut_down,
    );
    let addr = server.addr;
    let cache = SharedChainCache::with_shards(SharedChainCache::DEFAULT_SHARDS);
    let structures: Vec<Structure> = (0..SHAPES.len())
        .map(|k| {
            let system = system(cfg.seed, CLIENTS, k);
            system_report_shared(&system, ReportOptions::default(), &cache);
            Structure::of(&system)
        })
        .collect();
    let twin = Twin {
        cache: &cache,
        structures: &structures,
    };
    let ops = sizes.traced_ops;
    let before = server.stats();

    // The same requests untraced, as the timed region sends them: the
    // base of `trace.overhead_ratio`.
    let (untraced, _) =
        closed_loop(|c, barrier| client_loop(cfg, addr, c, ops, f64::INFINITY, barrier));
    let epoch = Instant::now();
    let (traced, _) =
        closed_loop(|c, barrier| traced_client(cfg, addr, c, ops, epoch, &twin, barrier));
    let after = server.stats();
    server.shut_down();

    let mut untraced_latencies = Vec::new();
    for log in untraced {
        untraced_latencies.extend(log.latencies);
        failures.merge(log.failures);
    }
    let mut t = Tracer::new(epoch);
    for (tracer, client_failures) in traced {
        t.merge(tracer);
        failures.merge(client_failures);
    }

    let ops = CLIENTS * traced_among(ops);
    let op_s = t.per_op("op", ops);
    let covered = t.covered_per_op("request.replay", ops);
    let bytes = |span: &str, key: &str| median(&t.counted(span, key, ops));
    let mut metrics = replay::layer_metrics(&t, ops, "core.report.shared");
    metrics.extend(replay::cache_metrics(&[replay::cache_use(
        after.cache,
        before.cache,
    )]));
    metrics.extend([
        (
            "core.report.text_bytes",
            bytes("core.report.shared", "text_bytes"),
        ),
        (
            "core.wire.request_bytes",
            bytes("core.wire.request_encode", "bytes"),
        ),
        (
            "core.wire.response_bytes",
            bytes("core.wire.response_encode", "bytes"),
        ),
        // What the client waits for beyond the work it can redo in-process:
        // the socket round trip, the server's queue and dispatch.
        (
            "serve.transport_s",
            median_over(ops, |i| op_s[i] - covered[i]),
        ),
        ("serve.requests", (after.requests - before.requests) as f64),
        ("serve.connections", after.connections as f64),
        // Since the server booted: set-up's chain builds are the misses.
        (
            "serve.cache_hit_ratio",
            after.cache.hits() as f64 / (after.cache.hits() + after.cache.misses()).max(1) as f64,
        ),
        (
            "serve.op_p99_s",
            stats::tail_percentile(&stats::sorted(&op_s), 99).unwrap_or(0.0),
        ),
        ("trace.coverage", median_over(ops, |i| covered[i] / op_s[i])),
        (
            "trace.overhead_ratio",
            median(&op_s) / median(&untraced_latencies),
        ),
    ]);
    run::write_spans(cfg, &t, &mut failures);
    Outcome {
        attempted: ops as u64,
        failures,
        metrics,
    }
}
