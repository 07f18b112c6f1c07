//! Serving-layer smoke: an in-process `repstream serve` answering a
//! mixed 50-query battery from concurrent clients.
//!
//! ```sh
//! cargo run --release --example serve_smoke -- --threads 2
//! ```
//!
//! First, on the fresh server, the warm path is pinned by the cache
//! counters, not by wall time: one hot-shape query is exactly one strict
//! miss, and each of the next three is exactly one strict hit with no
//! miss.  The cold/warm wall ratio is printed, not asserted.  Then two
//! client threads fire 25 queries each — a repeated hot shape, cold
//! per-query shapes, and a deadline-capped request that must come back
//! `degraded` — and the example asserts the shared-cache warm-hit ratio
//! is positive, every repeated-shape response is **byte-identical** to
//! the one-shot report, and shutdown drains cleanly.  This is the CI
//! guard for the wire protocol + shared-cache serving path; the served
//! path's speed is measured by the `benchmark` bin of `repstream-bench`
//! (workload `serve_small`).

use repstream::core::model::{Application, Mapping, Platform, System};
use repstream::core::report::{system_report_status, ReportOptions, ReportStatus};
use repstream::core::wire::{AnalyzeRequest, Request, Response, StatsResponse, WireOptions};
use repstream::serve::{Client, ServeOptions, Server};

/// Deterministic system with the given team sizes; distinct seeds give
/// distinct chain-cache signatures.
fn system_with_teams(teams: &[usize], seed: u64) -> System {
    let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15).max(3);
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        1.0 + (x >> 40) as f64 / 64.0
    };
    let stages = teams.len();
    let work: Vec<f64> = (0..stages).map(|_| next()).collect();
    let files: Vec<f64> = (0..stages - 1).map(|_| next()).collect();
    let m: usize = teams.iter().sum();
    let speeds: Vec<f64> = (0..m).map(|_| next()).collect();
    let app = Application::new(work, files).unwrap();
    let platform = Platform::complete(speeds, next()).unwrap();
    let mut start = 0;
    let mapping = Mapping::new(
        teams
            .iter()
            .map(|&r| {
                start += r;
                (start - r..start).collect()
            })
            .collect(),
    )
    .unwrap();
    System::new(app, platform, mapping).unwrap()
}

fn stats(client: &mut Client) -> StatsResponse {
    match client.call(&Request::Stats).expect("stats") {
        Response::Stats(s) => s,
        other => panic!("unexpected response {other:?}"),
    }
}

/// One hot-shape query; returns its wall time after checking the served
/// report is the one-shot one, byte for byte.
fn analyze_hot(client: &mut Client, hot: &System, oneshot_text: &str) -> f64 {
    let t = std::time::Instant::now();
    let resp = client
        .call(&Request::Analyze(AnalyzeRequest {
            system: hot.clone(),
            options: WireOptions::default(),
        }))
        .expect("hot analyze");
    let wall = t.elapsed().as_secs_f64();
    match resp {
        Response::Analyze(a) => {
            assert_eq!(a.status, ReportStatus::Ok);
            assert_eq!(
                a.text, oneshot_text,
                "served hot response diverged from one-shot"
            );
        }
        other => panic!("unexpected response {other:?}"),
    }
    wall
}

fn main() {
    let mut threads = 2usize;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--threads" => {
                i += 1;
                threads = argv[i].parse().expect("--threads needs a count");
            }
            other => panic!("unknown flag {other}"),
        }
        i += 1;
    }
    let queries_per_thread = 50usize.div_ceil(threads.max(1));

    let server = Server::bind(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: threads.max(1),
        ..Default::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let server = std::sync::Arc::new(server);
    let run = {
        let server = server.clone();
        std::thread::spawn(move || server.run())
    };

    let hot = system_with_teams(&[2, 3], 2010);
    let (oneshot_text, oneshot_status) = system_report_status(&hot, ReportOptions::default());
    assert_eq!(oneshot_status, ReportStatus::Ok);

    // The warm path, pinned by counters on the still-fresh server.
    const WARM_CALLS: usize = 3;
    let mut client = Client::connect(addr).expect("connect");
    let cold_s = analyze_hot(&mut client, &hot, &oneshot_text);
    let first = stats(&mut client).cache;
    assert_eq!(
        (first.strict_hits, first.strict_misses),
        (0, 1),
        "the first hot query must be exactly one strict miss"
    );
    let warm_s = (0..WARM_CALLS)
        .map(|_| analyze_hot(&mut client, &hot, &oneshot_text))
        .sum::<f64>()
        / WARM_CALLS as f64;
    let warm = stats(&mut client).cache;
    assert_eq!(
        warm.strict_hits,
        first.strict_hits + WARM_CALLS,
        "every warm hot query must be one strict hit"
    );
    assert_eq!(
        (warm.strict_misses, warm.pattern_misses),
        (first.strict_misses, first.pattern_misses),
        "warm hot queries must not miss"
    );
    drop(client);

    std::thread::scope(|s| {
        for tid in 0..threads as u64 {
            let (hot, oneshot_text) = (&hot, &oneshot_text);
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for q in 0..queries_per_thread as u64 {
                    match q % 4 {
                        // The repeated hot shape: warm after the first
                        // build, byte-identical to the one-shot report.
                        0 | 1 => {
                            analyze_hot(&mut client, hot, oneshot_text);
                        }
                        // A never-seen shape: always a cold build.
                        2 => {
                            let sys = system_with_teams(&[2, 2], (tid << 32) | q | 1 << 60);
                            let resp = client
                                .call(&Request::Analyze(AnalyzeRequest {
                                    system: sys,
                                    options: WireOptions::default(),
                                }))
                                .expect("cold analyze");
                            match resp {
                                Response::Analyze(a) => assert_eq!(a.status, ReportStatus::Ok),
                                other => panic!("unexpected response {other:?}"),
                            }
                        }
                        // An already-expired (0 ms) deadline on a fresh
                        // shape: the ladder degrades to bounds, never
                        // errors.
                        _ => {
                            let sys = system_with_teams(&[2, 2, 1], (tid << 32) | q | 1 << 61);
                            let resp = client
                                .call(&Request::Analyze(AnalyzeRequest {
                                    system: sys,
                                    options: WireOptions {
                                        deadline_ms: Some(0),
                                        ..Default::default()
                                    },
                                }))
                                .expect("deadline analyze");
                            match resp {
                                Response::Analyze(a) => assert!(
                                    matches!(a.status, ReportStatus::Degraded(_)),
                                    "deadline-capped query must degrade, got {:?}",
                                    a.status
                                ),
                                other => panic!("unexpected response {other:?}"),
                            }
                        }
                    }
                }
            });
        }
    });

    let mut client = Client::connect(addr).expect("connect");
    let stats = stats(&mut client);
    let hits = stats.cache.strict_hits + stats.cache.pattern_hits;
    let misses = stats.cache.strict_misses + stats.cache.pattern_misses;
    assert!(hits > 0, "repeated shapes must produce warm hits");
    assert!(
        client
            .call(&Request::Shutdown)
            .is_ok_and(|r| matches!(r, Response::ShuttingDown)),
        "shutdown handshake"
    );
    drop(client);
    run.join()
        .expect("server thread")
        .expect("clean server shutdown");

    println!(
        "serve_smoke: warm path 1 strict miss then {WARM_CALLS} strict hits, \
         cold/warm wall {:.1}x (printed, not asserted); {} queries on {threads} client \
         threads, {} requests served, cache {hits} hits / {misses} misses (warm ratio {:.2}), \
         bitwise-equal hot responses, clean shutdown",
        cold_s / warm_s,
        queries_per_thread * threads,
        stats.requests,
        hits as f64 / (hits + misses).max(1) as f64,
    );
}
