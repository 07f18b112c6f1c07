//! Length-prefixed binary wire protocol of `repstream serve`.
//!
//! Every message — request or response — is one **frame**:
//!
//! ```text
//!   u32 LE  body length              (0 < len ≤ 64 MiB)
//!   u8      protocol version         (WIRE_VERSION = 4)
//!   u8      message tag              (Request: 0–6, Response: 128–135;
//!                                     2 and 130 unassigned)
//!   …       tag-specific payload
//! ```
//!
//! The payload is hand-rolled (the workspace has no serde): integers are
//! LEB128 varints, `f64`s travel as their IEEE-754 bit pattern in 8 LE
//! bytes — **bitwise exact**, so a served throughput round-trips to the
//! last ulp — strings as varint length + UTF-8, `Option` as a 1-byte
//! presence tag, vectors as varint length + elements.
//!
//! Decoding is **total**: any byte sequence yields either a message or a
//! structured [`WireError`] — never a panic, never an allocation larger
//! than the frame itself (vector lengths are validated against the bytes
//! actually remaining).  A frame that decodes must consume every body
//! byte ([`WireError::TrailingBytes`] otherwise) and a [`crate::model::System`]
//! is re-validated through its constructors on arrival, so a malicious
//! peer cannot smuggle a system the model layer would reject.  The
//! `wire_roundtrip` property tests pin both directions.
//!
//! Deadline semantics: requests carry an optional `deadline_ms`,
//! **relative** to the server's receipt of the frame (wall clocks never
//! cross the wire).  The server arms its cooperative [`Budget`] with
//! `min(client deadline, server --deadline-cap)`; what happens when it
//! fires is the request's `degrade` option — exactly the CLI's
//! `--deadline/--degrade` ladder, per connection.

use crate::model::{Application, Mapping, Platform, System};
use crate::report::{DegradeMode, ReportOptions, ReportStatus};
use repstream_markov::cache::CacheStats;
use repstream_markov::ctmc::{Solver, SolverChoice};
use repstream_markov::govern::{Budget, InterruptReason, RunConfig};
use std::io::{Read, Write};
use std::time::Duration;

/// Protocol version carried by every frame.
pub const WIRE_VERSION: u8 = 4;

/// Hard cap on a frame body (64 MiB): anything longer is rejected before
/// allocation ([`WireError::Oversized`]).
pub const MAX_FRAME: usize = 64 << 20;

/// Structured decode/transport failure.  Every malformed input maps
/// here — the decoder never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame or a field ended before its declared length.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized(usize),
    /// The version byte is not [`WIRE_VERSION`].
    UnknownVersion(u8),
    /// The message tag is not one this build knows.
    UnknownTag(u8),
    /// A frame decoded but left unread bytes behind.
    TrailingBytes(usize),
    /// A field decoded but failed semantic validation (bad UTF-8, a
    /// rejected `System`, an out-of-range enum byte, …).
    Invalid(String),
    /// Transport I/O failure (by kind; the payload is gone either way).
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::Oversized(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            WireError::UnknownVersion(v) => {
                write!(
                    f,
                    "unknown wire version {v} (this build speaks {WIRE_VERSION})"
                )
            }
            WireError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the message"),
            WireError::Invalid(msg) => write!(f, "invalid payload: {msg}"),
            WireError::Io(kind) => write!(f, "transport error: {kind}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e.kind())
        }
    }
}

// ---------------------------------------------------------------------
// Primitives.
// ---------------------------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_varint(out, v as u64);
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_usize(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

fn put_usizes(out: &mut Vec<u8>, v: &[usize]) {
    put_usize(out, v.len());
    for &x in v {
        put_usize(out, x);
    }
}

/// Bounded, panic-free reader over one frame body.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Start reading at the first byte of `buf`.
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn varint(&mut self) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let bits = (byte & 0x7f) as u64;
            if shift == 63 && bits > 1 {
                return Err(WireError::Invalid("varint overflows u64".into()));
            }
            v |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(WireError::Invalid("varint longer than 10 bytes".into()))
    }

    fn usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.varint()?)
            .map_err(|_| WireError::Invalid("varint exceeds usize".into()))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        let b = self.take(8)?;
        let Ok(arr) = <[u8; 8]>::try_from(b) else {
            return Err(WireError::Truncated);
        };
        Ok(f64::from_bits(u64::from_le_bytes(arr)))
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::Invalid(format!("bool byte {b}"))),
        }
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.seq_len(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Invalid("string is not UTF-8".into()))
    }

    /// A declared sequence length, sanity-checked against the bytes left:
    /// each element needs at least `elem_min` bytes, so any length the
    /// body cannot possibly hold is rejected **before** allocation.
    fn seq_len(&mut self, elem_min: usize) -> Result<usize, WireError> {
        let len = self.usize()?;
        if len > self.remaining() / elem_min.max(1) {
            return Err(WireError::Truncated);
        }
        Ok(len)
    }

    fn f64s(&mut self) -> Result<Vec<f64>, WireError> {
        let len = self.seq_len(8)?;
        (0..len).map(|_| self.f64()).collect()
    }

    fn usizes(&mut self) -> Result<Vec<usize>, WireError> {
        let len = self.seq_len(1)?;
        (0..len).map(|_| self.usize()).collect()
    }

    /// Require the body to be fully consumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

fn put_opt_varint(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => out.push(0),
        Some(x) => {
            out.push(1);
            put_varint(out, x);
        }
    }
}

fn get_opt_varint(c: &mut Cursor<'_>) -> Result<Option<u64>, WireError> {
    match c.u8()? {
        0 => Ok(None),
        1 => Ok(Some(c.varint()?)),
        b => Err(WireError::Invalid(format!("option byte {b}"))),
    }
}

// ---------------------------------------------------------------------
// Model serde.
// ---------------------------------------------------------------------

fn put_system(out: &mut Vec<u8>, sys: &System) {
    let app = sys.app();
    let n = app.n_stages();
    put_usize(out, n);
    for i in 0..n {
        put_f64(out, app.work(i));
    }
    put_usize(out, n.saturating_sub(1));
    for i in 0..n.saturating_sub(1) {
        put_f64(out, app.file_size(i));
    }
    put_platform(out, sys.platform());
    put_teams(out, sys.mapping().teams());
}

fn put_platform(out: &mut Vec<u8>, platform: &Platform) {
    let m = platform.n_processors();
    put_usize(out, m);
    for p in 0..m {
        put_f64(out, platform.speed(p));
    }
    for p in 0..m {
        for q in 0..m {
            put_f64(
                out,
                if p == q {
                    1.0
                } else {
                    platform.bandwidth(p, q)
                },
            );
        }
    }
}

fn put_teams(out: &mut Vec<u8>, teams: &[Vec<usize>]) {
    put_usize(out, teams.len());
    for team in teams {
        put_usizes(out, team);
    }
}

fn put_application(out: &mut Vec<u8>, app: &Application) {
    let n = app.n_stages();
    put_usize(out, n);
    for i in 0..n {
        put_f64(out, app.work(i));
    }
    put_usize(out, n.saturating_sub(1));
    for i in 0..n.saturating_sub(1) {
        put_f64(out, app.file_size(i));
    }
}

fn invalid<E: std::fmt::Display>(e: E) -> WireError {
    WireError::Invalid(e.to_string())
}

fn get_application(c: &mut Cursor<'_>) -> Result<Application, WireError> {
    let n = c.seq_len(8)?;
    let work: Vec<f64> = (0..n).map(|_| c.f64()).collect::<Result<_, _>>()?;
    let files = c.f64s()?;
    Application::new(work, files).map_err(invalid)
}

fn get_platform(c: &mut Cursor<'_>) -> Result<Platform, WireError> {
    let m = c.seq_len(8)?;
    let speeds: Vec<f64> = (0..m).map(|_| c.f64()).collect::<Result<_, _>>()?;
    let mut bw = Vec::with_capacity(m);
    for _ in 0..m {
        let row: Vec<f64> = (0..m).map(|_| c.f64()).collect::<Result<_, _>>()?;
        bw.push(row);
    }
    Platform::new(speeds, bw).map_err(invalid)
}

fn get_teams(c: &mut Cursor<'_>) -> Result<Vec<Vec<usize>>, WireError> {
    let n = c.seq_len(1)?;
    (0..n).map(|_| c.usizes()).collect()
}

fn get_system(c: &mut Cursor<'_>) -> Result<System, WireError> {
    let app = get_application(c)?;
    let platform = get_platform(c)?;
    let mapping = Mapping::new(get_teams(c)?).map_err(invalid)?;
    System::new(app, platform, mapping).map_err(invalid)
}

// ---------------------------------------------------------------------
// Enum serde.
// ---------------------------------------------------------------------

fn put_solver(out: &mut Vec<u8>, s: Solver) {
    out.push(match s {
        Solver::Gth => 0,
        Solver::GaussSeidel => 1,
        Solver::Power => 2,
    });
}

fn get_solver(c: &mut Cursor<'_>) -> Result<Solver, WireError> {
    Ok(match c.u8()? {
        0 => Solver::Gth,
        1 => Solver::GaussSeidel,
        2 => Solver::Power,
        b => return Err(WireError::Invalid(format!("solver byte {b}"))),
    })
}

fn put_solver_choice(out: &mut Vec<u8>, s: SolverChoice) {
    match s {
        SolverChoice::Auto => out.push(0),
        SolverChoice::Force(solver) => {
            out.push(1);
            put_solver(out, solver);
        }
    }
}

fn get_solver_choice(c: &mut Cursor<'_>) -> Result<SolverChoice, WireError> {
    Ok(match c.u8()? {
        0 => SolverChoice::Auto,
        1 => SolverChoice::Force(get_solver(c)?),
        b => return Err(WireError::Invalid(format!("solver-choice byte {b}"))),
    })
}

fn put_reason(out: &mut Vec<u8>, r: InterruptReason) {
    out.push(match r {
        InterruptReason::Deadline => 0,
        InterruptReason::Cancelled => 1,
        InterruptReason::MemoryCap => 2,
        InterruptReason::SolverStall => 3,
    });
}

fn get_reason(c: &mut Cursor<'_>) -> Result<InterruptReason, WireError> {
    Ok(match c.u8()? {
        0 => InterruptReason::Deadline,
        1 => InterruptReason::Cancelled,
        2 => InterruptReason::MemoryCap,
        3 => InterruptReason::SolverStall,
        b => return Err(WireError::Invalid(format!("interrupt-reason byte {b}"))),
    })
}

fn put_status(out: &mut Vec<u8>, s: ReportStatus) {
    match s {
        ReportStatus::Ok => out.push(0),
        ReportStatus::Degraded(r) => {
            out.push(1);
            put_reason(out, r);
        }
        ReportStatus::Interrupted(r) => {
            out.push(2);
            put_reason(out, r);
        }
        ReportStatus::OverBudget => out.push(3),
        ReportStatus::Internal => out.push(4),
    }
}

fn get_status(c: &mut Cursor<'_>) -> Result<ReportStatus, WireError> {
    Ok(match c.u8()? {
        0 => ReportStatus::Ok,
        1 => ReportStatus::Degraded(get_reason(c)?),
        2 => ReportStatus::Interrupted(get_reason(c)?),
        3 => ReportStatus::OverBudget,
        4 => ReportStatus::Internal,
        b => return Err(WireError::Invalid(format!("report-status byte {b}"))),
    })
}

// ---------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------

/// Serializable analysis options: the wire schema of [`ReportOptions`].
/// It stays flat — these are the bytes `put_options` writes — and leaves
/// out what cannot cross the wire: the live [`Budget`] (its deadline
/// travels as a **relative** `deadline_ms`; wall clocks and cancel flags
/// stay home).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireOptions {
    /// [`ReportOptions::max_rows_strict`].
    pub max_rows_strict: usize,
    /// [`ReportOptions::list_candidates`].
    pub list_candidates: bool,
    /// [`RunConfig::threads`] (BFS workers; `0` = server auto).
    pub threads: usize,
    /// [`RunConfig::solver`].
    pub solver: SolverChoice,
    /// [`RunConfig::max_states`] (the server may clamp it further).
    pub max_states: usize,
    /// [`ReportOptions::degrade`].
    pub degrade: DegradeMode,
    /// Relative request deadline in milliseconds (`None` = no client
    /// deadline; the server-side cap still applies).
    pub deadline_ms: Option<u64>,
}

impl Default for WireOptions {
    fn default() -> Self {
        WireOptions::new(&ReportOptions::default(), None)
    }
}

impl WireOptions {
    /// The wire form of `opts` with a relative `deadline_ms` in place of
    /// its budget.
    pub fn new(opts: &ReportOptions, deadline_ms: Option<u64>) -> WireOptions {
        WireOptions {
            max_rows_strict: opts.max_rows_strict,
            list_candidates: opts.list_candidates,
            threads: opts.run.threads,
            solver: opts.run.solver,
            max_states: opts.run.max_states,
            degrade: opts.degrade,
            deadline_ms,
        }
    }

    /// The effective relative deadline under a server-side cap: the
    /// smaller of the client's ask and the cap (either may be absent).
    pub fn effective_deadline(&self, cap: Option<Duration>) -> Option<Duration> {
        let client = self.deadline_ms.map(Duration::from_millis);
        match (client, cap) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Materialize server-side [`ReportOptions`]: the wire fields plus a
    /// [`Budget`] armed from [`Self::effective_deadline`] and a
    /// `max_states` clamp — which, through
    /// [`RunConfig::pattern_states`], bounds the pattern chains too.
    pub fn report_options(&self, cap: Option<Duration>, max_states_cap: usize) -> ReportOptions {
        ReportOptions {
            max_rows_strict: self.max_rows_strict,
            list_candidates: self.list_candidates,
            run: RunConfig {
                max_states: self.max_states.min(max_states_cap),
                threads: self.threads,
                solver: self.solver,
                budget: match self.effective_deadline(cap) {
                    Some(d) => Budget::deadline_in(d),
                    None => Budget::UNLIMITED,
                },
            },
            degrade: self.degrade,
        }
    }
}

fn put_options(out: &mut Vec<u8>, o: &WireOptions) {
    put_usize(out, o.max_rows_strict);
    put_bool(out, o.list_candidates);
    put_usize(out, o.threads);
    put_solver_choice(out, o.solver);
    put_usize(out, o.max_states);
    // Retired byte (a row-spill switch): always written 0, read and
    // ignored, so version-4 frames keep their layout.
    put_bool(out, false);
    put_bool(out, matches!(o.degrade, DegradeMode::Bounds));
    put_opt_varint(out, o.deadline_ms);
}

fn get_options(c: &mut Cursor<'_>) -> Result<WireOptions, WireError> {
    Ok(WireOptions {
        max_rows_strict: c.usize()?,
        list_candidates: c.bool()?,
        threads: c.usize()?,
        solver: get_solver_choice(c)?,
        max_states: {
            let max_states = c.usize()?;
            c.bool()?; // the retired byte: still a bool, ignored
            max_states
        },
        degrade: if c.bool()? {
            DegradeMode::Bounds
        } else {
            DegradeMode::Fail
        },
        deadline_ms: get_opt_varint(c)?,
    })
}

/// `analyze`: render the full governed text report of one system.
#[derive(Debug, Clone)]
pub struct AnalyzeRequest {
    /// The system to analyze (re-validated on arrival).
    pub system: System,
    /// Analysis options and relative deadline.
    pub options: WireOptions,
}

/// `search`: run the portfolio mapping search for an application on a
/// platform and return the scored finalists.
#[derive(Debug, Clone)]
pub struct SearchRequest {
    /// The application to map.
    pub app: Application,
    /// The target platform.
    pub platform: Platform,
    /// Random candidates of the batch phase.
    pub random_candidates: usize,
    /// Deterministic seed of the random batch.
    pub seed: u64,
    /// Re-rank the finalists by exponential throughput.
    pub exp_rerank: bool,
    /// Relative deadline in milliseconds (as [`WireOptions::deadline_ms`]).
    pub deadline_ms: Option<u64>,
}

/// `scale`: best-mapping throughput at each of several platform sizes —
/// "how far does this pipeline scale" as one query.
#[derive(Debug, Clone)]
pub struct ScaleRequest {
    /// The system whose application and platform are scaled (the mapping
    /// is ignored; each point searches its own).
    pub system: System,
    /// Processor counts to evaluate; each must be `1..=m` of the
    /// system's platform (the first `p` processors are used).
    pub processor_counts: Vec<usize>,
}

/// One client → server message.
#[derive(Debug, Clone)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Full governed text report.
    Analyze(AnalyzeRequest),
    /// Portfolio mapping search.
    Search(SearchRequest),
    /// Multi-size scaling sweep.
    Scale(ScaleRequest),
    /// Server + cache counters.
    Stats,
    /// Graceful shutdown: drain in-flight work, then exit.
    Shutdown,
}

const TAG_PING: u8 = 0;
const TAG_ANALYZE: u8 = 1;
// 2 is retired (a structured Strict report no client sent) and never
// reused, so an old peer's frame fails as an unknown tag.
const TAG_SEARCH: u8 = 3;
const TAG_SCALE: u8 = 4;
const TAG_STATS: u8 = 5;
const TAG_SHUTDOWN: u8 = 6;

impl Request {
    /// Encode into a frame body (version + tag + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![WIRE_VERSION];
        match self {
            Request::Ping => out.push(TAG_PING),
            Request::Analyze(r) => {
                out.push(TAG_ANALYZE);
                put_system(&mut out, &r.system);
                put_options(&mut out, &r.options);
            }
            Request::Search(r) => {
                out.push(TAG_SEARCH);
                put_application(&mut out, &r.app);
                put_platform(&mut out, &r.platform);
                put_usize(&mut out, r.random_candidates);
                put_varint(&mut out, r.seed);
                put_bool(&mut out, r.exp_rerank);
                put_opt_varint(&mut out, r.deadline_ms);
            }
            Request::Scale(r) => {
                out.push(TAG_SCALE);
                put_system(&mut out, &r.system);
                put_usizes(&mut out, &r.processor_counts);
            }
            Request::Stats => out.push(TAG_STATS),
            Request::Shutdown => out.push(TAG_SHUTDOWN),
        }
        out
    }

    /// Decode a frame body.  Total: every failure is a [`WireError`].
    pub fn decode(body: &[u8]) -> Result<Request, WireError> {
        let mut c = Cursor::new(body);
        let version = c.u8()?;
        if version != WIRE_VERSION {
            return Err(WireError::UnknownVersion(version));
        }
        let tag = c.u8()?;
        let req = match tag {
            TAG_PING => Request::Ping,
            TAG_ANALYZE => Request::Analyze(AnalyzeRequest {
                system: get_system(&mut c)?,
                options: get_options(&mut c)?,
            }),
            TAG_SEARCH => Request::Search(SearchRequest {
                app: get_application(&mut c)?,
                platform: get_platform(&mut c)?,
                random_candidates: c.usize()?,
                seed: c.varint()?,
                exp_rerank: c.bool()?,
                deadline_ms: get_opt_varint(&mut c)?,
            }),
            TAG_SCALE => Request::Scale(ScaleRequest {
                system: get_system(&mut c)?,
                processor_counts: c.usizes()?,
            }),
            TAG_STATS => Request::Stats,
            TAG_SHUTDOWN => Request::Shutdown,
            t => return Err(WireError::UnknownTag(t)),
        };
        c.finish()?;
        Ok(req)
    }
}

// ---------------------------------------------------------------------
// Responses.
// ---------------------------------------------------------------------

/// `analyze` result: the rendered report plus its structured status
/// (the same pair the one-shot CLI prints and maps to an exit code).
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeResponse {
    /// The rendered text report — byte-identical to the one-shot CLI's
    /// stdout for the same system and options.
    pub text: String,
    /// Structured outcome (`Degraded` carries the interrupt reason).
    pub status: ReportStatus,
}

/// One scored finalist of a served `search`.
#[derive(Debug, Clone, PartialEq)]
pub struct WireCandidate {
    /// Candidate provenance (`greedy` / `random` / `hill-climb`).
    pub origin: String,
    /// The mapping's teams.
    pub teams: Vec<Vec<usize>>,
    /// Deterministic (Theorem 1) throughput.
    pub det: f64,
    /// Exponential re-rank throughput, when requested.
    pub exp: Option<f64>,
}

/// `search` result: scored finalists (best first) plus effort counters.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResponse {
    /// Finalists, best first (`finalists[0]` is the winner).
    pub finalists: Vec<WireCandidate>,
    /// Deterministic candidate evaluations.
    pub det_evaluations: usize,
    /// Delta-scoring column recomputes of the hill climbs.
    pub delta_recomputes: usize,
    /// Exponential evaluations of the re-rank phase.
    pub exp_evaluations: usize,
    /// Chain-cache hits of this request's evaluations.
    pub cache_hits: usize,
    /// Chain-cache misses of this request's evaluations.
    pub cache_misses: usize,
}

/// One point of a served `scale` sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalePoint {
    /// Processors made available to the search.
    pub processors: usize,
    /// Best deterministic throughput found.
    pub det_throughput: f64,
    /// The winning mapping's teams.
    pub teams: Vec<Vec<usize>>,
}

/// `scale` result: one point per requested processor count, in order.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleResponse {
    /// The sweep, in the request's order.
    pub points: Vec<ScalePoint>,
}

/// `stats` result: shared-cache counters plus server totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsResponse {
    /// Shared chain-cache counters (summed over shards).
    pub cache: CacheStats,
    /// Requests served since startup (all kinds, errors included).
    pub requests: u64,
    /// Connections accepted since startup.
    pub connections: u64,
    /// Worker threads of the pool.
    pub workers: usize,
    /// Shards of the shared cache.
    pub shards: usize,
}

/// Error classes mirror the CLI exit taxonomy (`2` config, `3`
/// over-budget, `4` interrupted, `5` internal), so a client can map a
/// served failure to exactly the exit code the one-shot CLI would have
/// produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorResponse {
    /// Exit-taxonomy class: 2 config, 3 over-budget, 4 interrupted,
    /// 5 internal.
    pub class: u8,
    /// Human-readable cause.
    pub message: String,
}

impl ErrorResponse {
    /// A configuration/usage error (class 2).
    pub fn config(message: impl Into<String>) -> ErrorResponse {
        ErrorResponse {
            class: 2,
            message: message.into(),
        }
    }

    /// An internal error (class 5).
    pub fn internal(message: impl Into<String>) -> ErrorResponse {
        ErrorResponse {
            class: 5,
            message: message.into(),
        }
    }
}

/// One server → client message.
#[derive(Debug, Clone)]
pub enum Response {
    /// Liveness answer.
    Pong,
    /// Full text report.
    Analyze(AnalyzeResponse),
    /// Search finalists.
    Search(SearchResponse),
    /// Scaling sweep.
    Scale(ScaleResponse),
    /// Server counters.
    Stats(StatsResponse),
    /// Acknowledges a [`Request::Shutdown`]; the server drains and exits.
    ShuttingDown,
    /// Structured failure (class mirrors the CLI exit taxonomy).
    Error(ErrorResponse),
}

const TAG_PONG: u8 = 128;
const TAG_ANALYZE_OK: u8 = 129;
// 130 answered tag 2: retired the same way.
const TAG_SEARCH_OK: u8 = 131;
const TAG_SCALE_OK: u8 = 132;
const TAG_STATS_OK: u8 = 133;
const TAG_SHUTTING_DOWN: u8 = 134;
const TAG_ERROR: u8 = 135;

impl Response {
    /// Encode into a frame body (version + tag + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![WIRE_VERSION];
        match self {
            Response::Pong => out.push(TAG_PONG),
            Response::Analyze(r) => {
                out.push(TAG_ANALYZE_OK);
                put_str(&mut out, &r.text);
                put_status(&mut out, r.status);
            }
            Response::Search(r) => {
                out.push(TAG_SEARCH_OK);
                put_usize(&mut out, r.finalists.len());
                for c in &r.finalists {
                    put_str(&mut out, &c.origin);
                    put_teams(&mut out, &c.teams);
                    put_f64(&mut out, c.det);
                    match c.exp {
                        None => out.push(0),
                        Some(e) => {
                            out.push(1);
                            put_f64(&mut out, e);
                        }
                    }
                }
                put_usize(&mut out, r.det_evaluations);
                put_usize(&mut out, r.delta_recomputes);
                put_usize(&mut out, r.exp_evaluations);
                put_usize(&mut out, r.cache_hits);
                put_usize(&mut out, r.cache_misses);
            }
            Response::Scale(r) => {
                out.push(TAG_SCALE_OK);
                put_usize(&mut out, r.points.len());
                for p in &r.points {
                    put_usize(&mut out, p.processors);
                    put_f64(&mut out, p.det_throughput);
                    put_teams(&mut out, &p.teams);
                }
            }
            Response::Stats(r) => {
                out.push(TAG_STATS_OK);
                put_usize(&mut out, r.cache.pattern_hits);
                put_usize(&mut out, r.cache.pattern_misses);
                put_usize(&mut out, r.cache.strict_hits);
                put_usize(&mut out, r.cache.strict_misses);
                put_varint(&mut out, r.requests);
                put_varint(&mut out, r.connections);
                put_usize(&mut out, r.workers);
                put_usize(&mut out, r.shards);
            }
            Response::ShuttingDown => out.push(TAG_SHUTTING_DOWN),
            Response::Error(r) => {
                out.push(TAG_ERROR);
                out.push(r.class);
                put_str(&mut out, &r.message);
            }
        }
        out
    }

    /// Decode a frame body.  Total: every failure is a [`WireError`].
    pub fn decode(body: &[u8]) -> Result<Response, WireError> {
        let mut c = Cursor::new(body);
        let version = c.u8()?;
        if version != WIRE_VERSION {
            return Err(WireError::UnknownVersion(version));
        }
        let tag = c.u8()?;
        let resp = match tag {
            TAG_PONG => Response::Pong,
            TAG_ANALYZE_OK => Response::Analyze(AnalyzeResponse {
                text: c.string()?,
                status: get_status(&mut c)?,
            }),
            TAG_SEARCH_OK => {
                let n = c.seq_len(1)?;
                let mut finalists = Vec::with_capacity(n);
                for _ in 0..n {
                    finalists.push(WireCandidate {
                        origin: c.string()?,
                        teams: get_teams(&mut c)?,
                        det: c.f64()?,
                        exp: match c.u8()? {
                            0 => None,
                            1 => Some(c.f64()?),
                            b => return Err(WireError::Invalid(format!("option byte {b}"))),
                        },
                    });
                }
                Response::Search(SearchResponse {
                    finalists,
                    det_evaluations: c.usize()?,
                    delta_recomputes: c.usize()?,
                    exp_evaluations: c.usize()?,
                    cache_hits: c.usize()?,
                    cache_misses: c.usize()?,
                })
            }
            TAG_SCALE_OK => {
                let n = c.seq_len(1)?;
                let mut points = Vec::with_capacity(n);
                for _ in 0..n {
                    points.push(ScalePoint {
                        processors: c.usize()?,
                        det_throughput: c.f64()?,
                        teams: get_teams(&mut c)?,
                    });
                }
                Response::Scale(ScaleResponse { points })
            }
            TAG_STATS_OK => Response::Stats(StatsResponse {
                cache: CacheStats {
                    pattern_hits: c.usize()?,
                    pattern_misses: c.usize()?,
                    strict_hits: c.usize()?,
                    strict_misses: c.usize()?,
                },
                requests: c.varint()?,
                connections: c.varint()?,
                workers: c.usize()?,
                shards: c.usize()?,
            }),
            TAG_SHUTTING_DOWN => Response::ShuttingDown,
            TAG_ERROR => Response::Error(ErrorResponse {
                class: c.u8()?,
                message: c.string()?,
            }),
            t => return Err(WireError::UnknownTag(t)),
        };
        c.finish()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------
// Frame I/O.
// ---------------------------------------------------------------------

/// Write one frame (length prefix + body).
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> Result<(), WireError> {
    if body.len() > MAX_FRAME {
        return Err(WireError::Oversized(body.len()));
    }
    let Ok(len) = u32::try_from(body.len()) else {
        return Err(WireError::Oversized(body.len()));
    };
    w.write_all(&len.to_le_bytes())?;
    w.write_all(body)?;
    w.flush()?;
    Ok(())
}

/// Read one frame body.  `Ok(None)` means the peer closed cleanly
/// **between** frames; EOF inside a frame is [`WireError::Truncated`],
/// and a length prefix beyond [`MAX_FRAME`] is rejected before any
/// allocation.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Oversized(len));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

/// Write a request as one frame.
pub fn write_request(w: &mut impl Write, req: &Request) -> Result<(), WireError> {
    write_frame(w, &req.encode())
}

/// Read a request frame (`Ok(None)` = clean close).
pub fn read_request(r: &mut impl Read) -> Result<Option<Request>, WireError> {
    match read_frame(r)? {
        None => Ok(None),
        Some(body) => Request::decode(&body).map(Some),
    }
}

/// Write a response as one frame.
pub fn write_response(w: &mut impl Write, resp: &Response) -> Result<(), WireError> {
    write_frame(w, &resp.encode())
}

/// Read a response frame (`Ok(None)` = clean close).
pub fn read_response(r: &mut impl Read) -> Result<Option<Response>, WireError> {
    match read_frame(r)? {
        None => Ok(None),
        Some(body) => Response::decode(&body).map(Some),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Application, Mapping, Platform, System};

    fn system() -> System {
        let app = Application::new(vec![6.0, 9.0], vec![12.0]).unwrap();
        let platform = Platform::complete(vec![1.0, 2.0, 3.0], 4.0).unwrap();
        let mapping = Mapping::new(vec![vec![0], vec![1, 2]]).unwrap();
        System::new(app, platform, mapping).unwrap()
    }

    #[test]
    fn request_round_trips() {
        let req = Request::Analyze(AnalyzeRequest {
            system: system(),
            options: WireOptions {
                deadline_ms: Some(250),
                ..Default::default()
            },
        });
        let body = req.encode();
        let back = Request::decode(&body).unwrap();
        let Request::Analyze(a) = back else {
            panic!("wrong tag")
        };
        assert_eq!(a.options.deadline_ms, Some(250));
        assert_eq!(a.system.mapping().teams(), system().mapping().teams());
        assert_eq!(a.system.platform().bandwidth(0, 1), 4.0);
    }

    #[test]
    fn unknown_version_and_tag_are_structured() {
        assert!(matches!(
            Request::decode(&[9, TAG_PING]),
            Err(WireError::UnknownVersion(9))
        ));
        // A version-1 frame is refused on its version byte, not
        // misparsed.
        assert!(matches!(
            Response::decode(&[1, TAG_ANALYZE_OK]),
            Err(WireError::UnknownVersion(1))
        ));
        assert!(matches!(
            Request::decode(&[WIRE_VERSION, 77]),
            Err(WireError::UnknownTag(77))
        ));
        assert!(matches!(
            Response::decode(&[WIRE_VERSION, 7]),
            Err(WireError::UnknownTag(7))
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut body = Request::Ping.encode();
        body.push(0);
        assert!(matches!(
            Request::decode(&body),
            Err(WireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn truncation_is_rejected_everywhere() {
        let body = Request::Analyze(AnalyzeRequest {
            system: system(),
            options: WireOptions::default(),
        })
        .encode();
        for cut in 0..body.len() {
            let r = Request::decode(&body[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes decoded");
        }
    }

    #[test]
    fn effective_deadline_takes_the_minimum() {
        let mut o = WireOptions::default();
        assert_eq!(o.effective_deadline(None), None);
        o.deadline_ms = Some(500);
        assert_eq!(
            o.effective_deadline(Some(Duration::from_millis(200))),
            Some(Duration::from_millis(200))
        );
        assert_eq!(o.effective_deadline(None), Some(Duration::from_millis(500)));
        o.deadline_ms = None;
        assert_eq!(
            o.effective_deadline(Some(Duration::from_secs(30))),
            Some(Duration::from_secs(30))
        );
    }

    #[test]
    fn frame_io_round_trips_and_caps() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Stats.encode()).unwrap();
        let mut r = &buf[..];
        let body = read_frame(&mut r).unwrap().unwrap();
        assert!(matches!(Request::decode(&body), Ok(Request::Stats)));
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");

        // Oversized length prefix: rejected before allocation.
        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
        let mut r = &huge[..];
        assert_eq!(read_frame(&mut r), Err(WireError::Oversized(MAX_FRAME + 1)));

        // EOF inside a frame body.
        let mut partial = 10u32.to_le_bytes().to_vec();
        partial.extend_from_slice(&[1, 2, 3]);
        let mut r = &partial[..];
        assert_eq!(read_frame(&mut r), Err(WireError::Truncated));
    }

    #[test]
    fn hostile_length_does_not_preallocate() {
        // A teams vector claiming 2^50 entries inside a tiny body must be
        // rejected by the remaining-bytes check, not attempted.
        let mut body = vec![WIRE_VERSION, TAG_SCALE];
        put_system(&mut body, &system());
        put_varint(&mut body, 1 << 50);
        assert!(matches!(Request::decode(&body), Err(WireError::Truncated)));
    }
}
