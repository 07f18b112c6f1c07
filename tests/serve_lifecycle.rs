//! Serving-layer lifecycle (satellite): an in-process server on an
//! ephemeral port must answer concurrent clients, degrade (not die)
//! when a client's deadline fires, survive peers that disconnect
//! mid-request or talk garbage, and drain in-flight work on shutdown.
//! A served search must find what the in-process search finds.  Plus
//! the exit-taxonomy pins: an `.rsys` that fails validation exits the
//! one-shot CLI with the configuration code 2, not a panic, and a search
//! whose deadline fires exits 4.

use repstream::core::report::{system_report_status, ReportOptions, ReportStatus};
use repstream::core::wire::{
    write_frame, AnalyzeRequest, Request, Response, SearchRequest, WireOptions,
};
use repstream::engine::{portfolio_search, PortfolioOptions};
use repstream::serve::{Client, ServeOptions, Server};
use repstream::workload::examples::example_a;
use repstream::workload::scenarios::mapping_search;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::process::Command;
use std::time::Duration;

fn test_server(workers: usize) -> (std::sync::Arc<Server>, SocketAddr) {
    let server = Server::bind(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers,
        ..Default::default()
    })
    .expect("bind ephemeral");
    let addr = server.local_addr().expect("local addr");
    (std::sync::Arc::new(server), addr)
}

#[test]
fn concurrent_clients_deadlines_and_disconnects() {
    let (server, addr) = test_server(2);
    let run = {
        let server = server.clone();
        std::thread::spawn(move || server.run())
    };

    let sys = example_a();
    let (oneshot_text, oneshot_status) = system_report_status(&sys, ReportOptions::default());
    assert_eq!(oneshot_status, ReportStatus::Ok);

    // Several concurrent clients ask for the same system; every answer
    // must be byte-identical to the one-shot CLI report.
    std::thread::scope(|s| {
        for _ in 0..4 {
            let sys = &sys;
            let oneshot_text = &oneshot_text;
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for _ in 0..2 {
                    let resp = client
                        .call(&Request::Analyze(AnalyzeRequest {
                            system: sys.clone(),
                            options: WireOptions::default(),
                        }))
                        .expect("analyze");
                    match resp {
                        Response::Analyze(a) => {
                            assert_eq!(a.status, ReportStatus::Ok);
                            assert_eq!(
                                &a.text, oneshot_text,
                                "served text differs from one-shot report"
                            );
                        }
                        other => panic!("unexpected response {other:?}"),
                    }
                }
            });
        }
    });

    // A client with an already-expired deadline (0 ms) under
    // degrade=bounds gets a *degraded* response — the ladder works per
    // connection, and the server keeps running.
    let mut client = Client::connect(addr).expect("connect");
    let resp = client
        .call(&Request::Analyze(AnalyzeRequest {
            system: sys.clone(),
            options: WireOptions {
                deadline_ms: Some(0),
                ..Default::default()
            },
        }))
        .expect("deadline analyze");
    match resp {
        Response::Analyze(a) => {
            assert!(
                matches!(a.status, ReportStatus::Degraded(_)),
                "expired deadline must degrade, got {:?}",
                a.status
            );
            assert!(
                a.text.contains("degraded=yes method=bounds-fallback"),
                "degraded provenance missing from:\n{}",
                a.text
            );
        }
        other => panic!("unexpected response {other:?}"),
    }
    // Workers serve a connection until it closes: release ours so the
    // later clients in this test are not starved behind an idle socket.
    drop(client);

    // A peer that promises a 100-byte frame, sends 3, and vanishes: its
    // worker drops the connection and the server stays up.
    {
        let mut rude = TcpStream::connect(addr).expect("connect");
        rude.write_all(&100u32.to_le_bytes()).unwrap();
        rude.write_all(&[1, 2, 3]).unwrap();
        drop(rude);
    }
    // A peer that sends a well-framed garbage body gets a structured
    // class-2 error back, not silence.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write_frame(&mut stream, &[99u8, 99, 99]).expect("write garbage frame");
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        match repstream::core::wire::read_response(&mut reader) {
            Ok(Some(Response::Error(e))) => assert_eq!(e.class, 2, "{}", e.message),
            other => panic!("expected class-2 error, got {other:?}"),
        }
    }

    // Still alive after both abuses.
    let mut client = Client::connect(addr).expect("reconnect");
    assert!(matches!(
        client.call(&Request::Ping).expect("ping"),
        Response::Pong
    ));
    drop(client);

    // Shutdown drains in-flight work: C1's analyze is mid-service when
    // C2 requests shutdown; C1 must still receive its full answer.
    let mut c1 = Client::connect(addr).expect("c1");
    let mut c2 = Client::connect(addr).expect("c2");
    let sys2 = sys.clone();
    let oneshot = oneshot_text.clone();
    let inflight = std::thread::spawn(move || {
        let resp = c1
            .call(&Request::Analyze(AnalyzeRequest {
                system: sys2,
                options: WireOptions::default(),
            }))
            .expect("in-flight analyze");
        match resp {
            Response::Analyze(a) => assert_eq!(a.text, oneshot),
            other => panic!("unexpected response {other:?}"),
        }
    });
    std::thread::sleep(Duration::from_millis(20));
    assert!(matches!(
        c2.call(&Request::Shutdown).expect("shutdown"),
        Response::ShuttingDown
    ));
    drop(c2);
    inflight.join().expect("in-flight client");

    run.join().expect("server thread").expect("clean shutdown");

    // The port is really quiet now (the listener closes with the last
    // Server handle).
    drop(server);
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(300)).is_err(),
        "listener must be closed after shutdown"
    );
}

#[test]
fn warm_hits_accumulate_in_shared_cache_stats() {
    let (server, addr) = test_server(2);
    let run = {
        let server = server.clone();
        std::thread::spawn(move || server.run())
    };
    let sys = example_a();
    let mut client = Client::connect(addr).expect("connect");
    for _ in 0..3 {
        let resp = client
            .call(&Request::Analyze(AnalyzeRequest {
                system: sys.clone(),
                options: WireOptions::default(),
            }))
            .expect("analyze");
        assert!(matches!(resp, Response::Analyze(_)));
    }
    match client.call(&Request::Stats).expect("stats") {
        Response::Stats(s) => {
            assert_eq!(s.cache.strict_misses, 1, "one BFS for three requests");
            assert!(s.cache.strict_hits >= 2, "later requests must be warm");
            assert_eq!(s.workers, 2);
        }
        other => panic!("unexpected response {other:?}"),
    }
    let _ = client.call(&Request::Shutdown).expect("shutdown");
    drop(client);
    run.join().expect("server thread").expect("clean shutdown");
}

/// S4 pin: a structurally valid `.rsys` whose *derived* service times
/// are broken (subnormal bandwidth ⇒ infinite transfer time) must exit
/// with the configuration code 2 — not an internal panic code.
#[test]
fn invalid_rsys_exits_with_config_code() {
    let dir = std::env::temp_dir();
    let bad = dir.join(format!("repstream_bad_{}.rsys", std::process::id()));
    std::fs::write(
        &bad,
        "stages 2\nwork 100 200\nfiles 300\nspeeds 1 1\nbandwidth 1e-320\nteam 0\nteam 1\n",
    )
    .expect("write bad rsys");

    let out = Command::new(env!("CARGO_BIN_EXE_repstream"))
        .args(["analyze", bad.to_str().unwrap()])
        .output()
        .expect("run repstream analyze");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "validation failure must exit 2 (config), stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("service time"),
        "error must name the derived-time problem, got:\n{stderr}"
    );

    // Control: the same file with a sane bandwidth analyzes fine.
    let good = dir.join(format!("repstream_good_{}.rsys", std::process::id()));
    std::fs::write(
        &good,
        "stages 2\nwork 100 200\nfiles 300\nspeeds 1 1\nbandwidth 10\nteam 0\nteam 1\n",
    )
    .expect("write good rsys");
    let out = Command::new(env!("CARGO_BIN_EXE_repstream"))
        .args(["analyze", good.to_str().unwrap()])
        .output()
        .expect("run repstream analyze");
    assert_eq!(out.status.code(), Some(0));

    let _ = std::fs::remove_file(&bad);
    let _ = std::fs::remove_file(&good);
}

/// A served `Search` — with no deadline, and with one that never fires —
/// returns the finalists (origin, teams, det and exp bits) and effort
/// counts of the in-process `portfolio_search` on the same options.
#[test]
fn served_search_matches_in_process_search() {
    let (server, addr) = test_server(1);
    let run = {
        let server = server.clone();
        std::thread::spawn(move || server.run())
    };
    let (app, platform) = mapping_search();
    let opts = PortfolioOptions {
        random_candidates: 300,
        seed: 11,
        exp_rerank: true,
        ..Default::default()
    };
    let local = portfolio_search(&app, &platform, opts).expect("in-process search");
    let local_finalists: Vec<_> = local
        .finalists
        .iter()
        .map(|c| {
            let teams = c.mapping.teams().to_vec();
            (
                c.origin.to_string(),
                teams,
                c.det.to_bits(),
                c.exp.map(f64::to_bits),
            )
        })
        .collect();

    let mut client = Client::connect(addr).expect("connect");
    for (i, deadline_ms) in [None, Some(3_600_000)].into_iter().enumerate() {
        let resp = client
            .call(&Request::Search(SearchRequest {
                app: app.clone(),
                platform: platform.clone(),
                random_candidates: opts.random_candidates,
                seed: opts.seed,
                exp_rerank: opts.exp_rerank,
                deadline_ms,
            }))
            .expect("search");
        let Response::Search(served) = resp else {
            panic!("deadline {deadline_ms:?}: unexpected response {resp:?}");
        };
        let served_finalists: Vec<_> = served
            .finalists
            .iter()
            .map(|c| {
                (
                    c.origin.clone(),
                    c.teams.clone(),
                    c.det.to_bits(),
                    c.exp.map(f64::to_bits),
                )
            })
            .collect();
        assert_eq!(
            served_finalists, local_finalists,
            "deadline {deadline_ms:?}"
        );
        assert_eq!(served.det_evaluations, opts.random_candidates);
        assert_eq!(served.det_evaluations, local.det_evaluations);
        assert_eq!(served.delta_recomputes, local.delta_recomputes);
        assert_eq!(served.exp_evaluations, local.exp_evaluations);
        if i == 0 {
            // The first search runs on a cold pooled cache, like the
            // in-process one; later ones reuse it warm.
            assert_eq!(served.cache_hits, local.exp_cache.hits());
            assert_eq!(served.cache_misses, local.exp_cache.misses());
        }
    }
    let _ = client.call(&Request::Shutdown).expect("shutdown");
    drop(client);
    run.join().expect("server thread").expect("clean shutdown");
}

/// A search whose deadline fires mid-batch exits with the interrupted
/// code 4 and says so.
#[test]
fn interrupted_search_exits_4() {
    let out = Command::new(env!("CARGO_BIN_EXE_repstream"))
        .args(["search", "--candidates", "4000", "--deadline", "1ms"])
        .output()
        .expect("run repstream search");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(4), "stderr:\n{stderr}");
    assert!(
        stderr.starts_with("error: search: interrupted"),
        "stderr:\n{stderr}"
    );
}
