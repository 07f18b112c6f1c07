//! The serving layer: `repstream serve` — a resident analyzer answering
//! wire-protocol queries over TCP.
//!
//! ## Shape
//!
//! One acceptor thread + a fixed pool of worker threads (std scoped
//! threads, `std::net` TCP — no extra dependencies).  Accepted
//! connections go into a `Mutex<VecDeque>` + `Condvar` queue; each
//! worker owns one connection at a time and answers its frames until
//! the peer closes.  A worker that loses its peer mid-request just
//! drops the connection — the server stays up.
//!
//! ## The shared cache
//!
//! All analyze requests solve through one
//! [`SharedChainCache`] — the sharded concurrent chain cache
//! (`repstream-markov`).  Two clients asking about the same TPN shape
//! pay one marking BFS: the first request builds, every later request
//! (any connection, any worker) reuses the cached chain and re-solves
//! only the linear system.  Sharding is by `TpnSignature` hash with
//! per-shard locking, so warm hits on one shape never serialize behind
//! a cold build of another.  Search requests check a private
//! [`ChainCache`] out of a pool instead (a search scores *many* shapes
//! back-to-back; holding a shard lock that long would starve analyze
//! traffic) and check it back in warm afterwards.
//!
//! ## Governance
//!
//! Every request arms its own `Budget`: the client's relative
//! `deadline_ms` capped by the server's `--deadline-cap`, and
//! `max_states` clamped by the server's cap.  The degradation ladder is
//! exactly the CLI's: under `degrade=bounds` a deadline miss falls the
//! Strict section back to the N.B.U.E. sandwich and the response is
//! stamped degraded; under `degrade=fail` the request errors with the
//! interrupted class.  One slow request cannot take the server down —
//! or even another connection's latency budget.

use repstream_core::model::{Application, Platform, System};
use repstream_core::report::{system_report_shared, ReportOptions};
use repstream_core::timing;
use repstream_core::wire::{
    read_request, read_response, write_request, write_response, AnalyzeResponse, ErrorResponse,
    Request, Response, ScalePoint, ScaleResponse, SearchResponse, StatsResponse, WireCandidate,
    WireError, WireOptions,
};
use repstream_engine::portfolio::EngineError;
use repstream_engine::{portfolio_search_cached, PortfolioOptions, PortfolioReport};
use repstream_markov::cache::{ChainCache, SharedChainCache};
use repstream_markov::govern::RunConfig;
use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Server configuration (the CLI's `serve` flags).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads answering requests.
    pub workers: usize,
    /// Server-side relative deadline cap applied to every request
    /// (`None` = only client deadlines apply).
    pub deadline_cap: Option<Duration>,
    /// Server-side clamp on any request's `max_states` — analyze and
    /// search alike, Theorem 2 and pattern chains alike.
    pub max_states_cap: usize,
    /// Shards of the shared chain cache (rounded up to a power of two).
    pub shards: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:7533".to_string(),
            workers: 4,
            deadline_cap: None,
            max_states_cap: RunConfig::default().max_states,
            shards: SharedChainCache::DEFAULT_SHARDS,
        }
    }
}

/// A bound, not-yet-running `repstream serve` instance.
///
/// [`Server::bind`] claims the port (so callers can read
/// [`Server::local_addr`] before any client connects); [`Server::run`]
/// blocks serving requests until a [`Request::Shutdown`] frame arrives,
/// then drains queued and in-flight connections and returns.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    opts: ServeOptions,
    cache: SharedChainCache,
    /// Warm per-search caches, checked out for the duration of one
    /// search request and returned afterwards.
    search_caches: Mutex<Vec<ChainCache>>,
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    shutdown: AtomicBool,
    requests: AtomicU64,
    connections: AtomicU64,
}

impl Server {
    /// Bind the listen socket and build the shared state.
    pub fn bind(opts: ServeOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        let cache = SharedChainCache::with_shards(opts.shards);
        Ok(Server {
            listener,
            cache,
            search_caches: Mutex::new(Vec::new()),
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            opts,
        })
    }

    /// The bound address (resolves `:0` to the ephemeral port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until a shutdown frame arrives, then drain and return.
    ///
    /// The calling thread becomes the acceptor; `workers` scoped
    /// threads answer requests.  All of them are joined before this
    /// returns, so when `run` is back the port is quiet and every
    /// accepted connection got its answers.
    pub fn run(&self) -> io::Result<()> {
        std::thread::scope(|s| {
            for _ in 0..self.opts.workers.max(1) {
                s.spawn(|| self.worker_loop());
            }
            self.accept_loop();
            // Unblock workers parked on an empty queue; each drains
            // remaining connections before exiting.
            self.ready.notify_all();
        });
        Ok(())
    }

    fn accept_loop(&self) {
        for conn in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                // The wake connection itself needs no service.
                break;
            }
            match conn {
                Ok(stream) => {
                    self.connections.fetch_add(1, Ordering::Relaxed);
                    let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
                    q.push_back(stream);
                    drop(q);
                    self.ready.notify_one();
                }
                // A peer that vanished between SYN and accept is not a
                // server problem; keep listening.
                Err(_) => continue,
            }
        }
    }

    fn worker_loop(&self) {
        loop {
            let conn = {
                let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if let Some(conn) = q.pop_front() {
                        break Some(conn);
                    }
                    if self.shutdown.load(Ordering::SeqCst) {
                        break None;
                    }
                    q = self.ready.wait(q).unwrap_or_else(|e| e.into_inner());
                }
            };
            match conn {
                Some(stream) => self.handle_connection(stream),
                None => return,
            }
        }
    }

    /// Answer one connection's frames until the peer closes (or breaks
    /// protocol).  Peer failures never propagate past this frame.
    fn handle_connection(&self, stream: TcpStream) {
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let mut reader = BufReader::new(read_half);
        let mut writer = BufWriter::new(stream);
        loop {
            match read_request(&mut reader) {
                Ok(None) => return, // clean close between frames
                Ok(Some(req)) => {
                    self.requests.fetch_add(1, Ordering::Relaxed);
                    let stop = matches!(req, Request::Shutdown);
                    // A request that panics (a model invariant tripping
                    // deep in a solver) costs its connection an
                    // internal-class error, not the server its life.
                    let resp = catch_unwind(AssertUnwindSafe(|| self.dispatch(req)))
                        .unwrap_or_else(|_| {
                            Response::Error(ErrorResponse::internal(
                                "request handler panicked; see server log",
                            ))
                        });
                    if write_response(&mut writer, &resp).is_err() {
                        return; // peer went away mid-answer
                    }
                    if stop {
                        return;
                    }
                }
                Err(e) => {
                    // Best-effort structured goodbye; the stream may
                    // already be dead.
                    let class = ErrorResponse::config(format!("bad frame: {e}"));
                    let _ = write_response(&mut writer, &Response::Error(class));
                    return;
                }
            }
        }
    }

    fn dispatch(&self, req: Request) -> Response {
        match req {
            Request::Ping => Response::Pong,
            Request::Analyze(r) => self.analyze(&r.system, r.options),
            Request::Search(r) => self.search(&r),
            Request::Scale(r) => self.scale(&r.system, &r.processor_counts),
            Request::Stats => Response::Stats(StatsResponse {
                cache: self.cache.stats(),
                requests: self.requests.load(Ordering::Relaxed),
                connections: self.connections.load(Ordering::Relaxed),
                workers: self.opts.workers.max(1),
                shards: self.cache.shards(),
            }),
            Request::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                self.wake_acceptor();
                self.ready.notify_all();
                Response::ShuttingDown
            }
        }
    }

    /// Nudge the acceptor off its blocking `accept` so it observes the
    /// shutdown flag (the classic self-connect wake).
    fn wake_acceptor(&self) {
        if let Ok(addr) = self.local_addr() {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
        }
    }

    /// A request's options under this server's deadline and state caps —
    /// the one clamp `analyze` and `search` both go through.
    fn governed(&self, options: WireOptions) -> ReportOptions {
        options.report_options(self.opts.deadline_cap, self.opts.max_states_cap)
    }

    fn analyze(&self, system: &System, options: WireOptions) -> Response {
        if let Err(e) = timing::validate_service_times(system) {
            return Response::Error(ErrorResponse::config(e));
        }
        let (text, status) = system_report_shared(system, self.governed(options), &self.cache);
        Response::Analyze(AnalyzeResponse { text, status })
    }

    fn search(&self, r: &repstream_core::wire::SearchRequest) -> Response {
        // The request's one run knob goes through the same deadline and
        // `max_states` clamps as an analyze request's.
        let wire_opts = WireOptions {
            deadline_ms: r.deadline_ms,
            ..Default::default()
        };
        let opts = PortfolioOptions {
            random_candidates: r.random_candidates,
            seed: r.seed,
            exp_rerank: r.exp_rerank,
            run: self.governed(wire_opts).run,
            ..Default::default()
        };
        match self.pooled_search(&r.app, &r.platform, opts) {
            Ok(report) => Response::Search(SearchResponse {
                finalists: report
                    .finalists
                    .iter()
                    .map(|c| WireCandidate {
                        origin: c.origin.to_string(),
                        teams: c.mapping.teams().to_vec(),
                        det: c.det,
                        exp: c.exp,
                    })
                    .collect(),
                det_evaluations: report.det_evaluations,
                delta_recomputes: report.delta_recomputes,
                exp_evaluations: report.exp_evaluations,
                cache_hits: report.exp_cache.hits(),
                cache_misses: report.exp_cache.misses(),
            }),
            Err(e) => Response::Error(ErrorResponse {
                class: e.exit_code(),
                message: e.to_string(),
            }),
        }
    }

    /// One portfolio search on a chain cache checked out of the pool and
    /// checked back in — warm — whether the search succeeds or not.
    fn pooled_search(
        &self,
        app: &Application,
        platform: &Platform,
        opts: PortfolioOptions,
    ) -> Result<PortfolioReport, EngineError> {
        let pool = || self.search_caches.lock().unwrap_or_else(|e| e.into_inner());
        let cache = pool().pop().unwrap_or_default();
        let (result, cache) = portfolio_search_cached(app, platform, opts, cache);
        pool().push(cache);
        result
    }

    fn scale(&self, system: &System, processor_counts: &[usize]) -> Response {
        let platform = system.platform();
        let m = platform.n_processors();
        let mut points = Vec::with_capacity(processor_counts.len());
        for &p in processor_counts {
            if p == 0 || p > m {
                return Response::Error(ErrorResponse::config(format!(
                    "scale: processor count {p} outside 1..={m}"
                )));
            }
            let speeds: Vec<f64> = (0..p).map(|i| platform.speed(i)).collect();
            let bw: Vec<Vec<f64>> = (0..p)
                .map(|i| {
                    (0..p)
                        .map(|j| {
                            if i == j {
                                1.0
                            } else {
                                platform.bandwidth(i, j)
                            }
                        })
                        .collect()
                })
                .collect();
            let prefix = match Platform::new(speeds, bw) {
                Ok(pl) => pl,
                Err(e) => return Response::Error(ErrorResponse::config(e.to_string())),
            };
            // Deterministic-only search: scale curves are a det-scoring
            // sweep (the paper's Theorem 1 metric); a modest seeded
            // batch keeps multi-point sweeps interactive.
            let opts = PortfolioOptions {
                random_candidates: 64,
                seed: 2010,
                exp_rerank: false,
                ..Default::default()
            };
            match self.pooled_search(system.app(), &prefix, opts) {
                Ok(report) => points.push(ScalePoint {
                    processors: p,
                    det_throughput: report.best.det,
                    teams: report.best.mapping.teams().to_vec(),
                }),
                Err(e) => return Response::Error(ErrorResponse::config(e.to_string())),
            }
        }
        Response::Scale(ScaleResponse { points })
    }
}

// ---------------------------------------------------------------------
// Client.
// ---------------------------------------------------------------------

/// A blocking wire-protocol client (`repstream client`, the load-test
/// harness, and the lifecycle tests all speak through this).
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connect to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let read_half = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
        })
    }

    /// Send one request and wait for its response.
    pub fn call(&mut self, req: &Request) -> Result<Response, WireError> {
        write_request(&mut self.writer, req)?;
        match read_response(&mut self.reader)? {
            Some(resp) => Ok(resp),
            None => Err(WireError::Truncated),
        }
    }
}

/// Map a served response to the CLI exit taxonomy — the same codes the
/// one-shot commands document (`0` ok/degraded, `2` config, `3`
/// over-budget, `4` interrupted, `5` internal).
pub fn response_exit_code(resp: &Response) -> i32 {
    match resp {
        Response::Error(e) => i32::from(e.class),
        Response::Analyze(a) => i32::from(a.status.exit_code()),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repstream_core::exponential::ExpError;
    use repstream_core::model::ModelError;
    use repstream_core::report::ReportStatus;
    use repstream_core::wire::SearchRequest;
    use repstream_engine::score::ExpScoreError;
    use repstream_markov::govern::{Interrupt, InterruptReason, Progress};
    use repstream_markov::marking::MarkingError;

    /// One exit-code table for the CLI and the server: every report
    /// status, computed here or served, and every class of failed search.
    #[test]
    fn exit_codes_follow_the_documented_taxonomy() {
        for (status, code) in [
            (ReportStatus::Ok, 0),
            (ReportStatus::Degraded(InterruptReason::Deadline), 0),
            (ReportStatus::OverBudget, 3),
            (ReportStatus::Interrupted(InterruptReason::Cancelled), 4),
            (ReportStatus::Internal, 5),
        ] {
            assert_eq!(status.exit_code(), code, "{status:?}");
            let served = Response::Analyze(AnalyzeResponse {
                text: String::new(),
                status,
            });
            assert_eq!(response_exit_code(&served), i32::from(code), "{status:?}");
        }
        let interrupt = Interrupt {
            reason: InterruptReason::Deadline,
            progress: Progress::default(),
        };
        let chain = |e| EngineError::Exp(ExpScoreError::Exp(ExpError::MarkingGraph(e)));
        for (error, code) in [
            (EngineError::Interrupted(interrupt), 4),
            (chain(MarkingError::Interrupted(interrupt)), 4),
            (chain(MarkingError::TooManyStates(100)), 3),
            (chain(MarkingError::Deadlock), 2),
            (EngineError::Model(ModelError::NoApps), 2),
        ] {
            assert_eq!(error.exit_code(), code, "{error}");
        }
    }

    #[test]
    fn the_state_cap_bounds_a_served_search() {
        // A communication-bound 2-stage app on 11 fast processors whose
        // links all differ: the best mappings split 5 × 6, and re-ranking
        // one needs a heterogeneous 1 260-state pattern chain.
        let bw = (0..11)
            .map(|i| {
                (0..11)
                    .map(|j| 1.0 + ((3 * i + 7 * j) % 11) as f64 * 0.01)
                    .collect()
            })
            .collect();
        let req = SearchRequest {
            app: Application::uniform(2, 0.06, 12.0).unwrap(),
            platform: Platform::new(vec![100.0; 11], bw).unwrap(),
            random_candidates: 64,
            seed: 2010,
            exp_rerank: true,
            deadline_ms: None,
        };
        let serve = |max_states_cap| {
            let opts = ServeOptions {
                addr: "127.0.0.1:0".to_string(),
                max_states_cap,
                ..Default::default()
            };
            Server::bind(opts).unwrap().search(&req)
        };
        match serve(ServeOptions::default().max_states_cap) {
            Response::Search(s) => assert_eq!((s.cache_hits, s.cache_misses), (0, 1)),
            other => panic!("{other:?}"),
        }
        match serve(100) {
            Response::Error(e) => {
                assert_eq!(e.class, 3, "{}", e.message);
                assert!(e.message.contains("pattern 5×6"), "{}", e.message);
                assert!(e.message.contains("exceeds 100 states"), "{}", e.message);
            }
            other => panic!("{other:?}"),
        }
    }
}
