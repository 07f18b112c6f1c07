//! Wire-format property tests (serving-layer satellite): every frame
//! type round-trips bit-exactly under random inputs, and every
//! malformed input — truncation, oversized length prefixes, unknown
//! versions/tags, trailing bytes, random garbage — yields a structured
//! [`WireError`], never a panic.

use proptest::prelude::*;
use repstream_core::exponential::{StrictMethod, StrictReport};
use repstream_core::model::{Application, Mapping, Platform, System};
use repstream_core::report::{DegradeMode, ReportStatus};
use repstream_core::wire::{
    read_frame, write_frame, AnalyzeRequest, AnalyzeResponse, ErrorResponse, ReportRequest,
    Request, Response, ScalePoint, ScaleRequest, ScaleResponse, SearchRequest, SearchResponse,
    StatsResponse, WireCandidate, WireError, WireOptions, MAX_FRAME, WIRE_VERSION,
};
use repstream_markov::cache::CacheStats;
use repstream_markov::ctmc::{Solver, SolverChoice};
use repstream_markov::govern::InterruptReason;
use repstream_markov::marking::ArenaStats;

/// Deterministic pseudo-random System: `teams` stage team sizes over
/// consecutive processors, complete platform.  Every numeric field is
/// derived from `seed` so distinct cases exercise distinct bit
/// patterns.
fn arb_system(stages: usize, team_size: usize, seed: u64) -> System {
    let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15).max(3);
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // Positive, finite, and spread over several decades.
        1.0 + (x >> 40) as f64 / 64.0
    };
    let work: Vec<f64> = (0..stages).map(|_| next()).collect();
    let files: Vec<f64> = (0..stages - 1).map(|_| next()).collect();
    let m = stages * team_size;
    let speeds: Vec<f64> = (0..m).map(|_| next()).collect();
    let app = Application::new(work, files).unwrap();
    let platform = Platform::complete(speeds, next()).unwrap();
    let teams: Vec<Vec<usize>> = (0..stages)
        .map(|s| (s * team_size..(s + 1) * team_size).collect())
        .collect();
    let mapping = Mapping::new(teams).unwrap();
    System::new(app, platform, mapping).unwrap()
}

/// Bitwise equality of two systems (the model types deliberately do not
/// implement `PartialEq`; the wire contract is exact-bits round-trip).
fn assert_system_bits(a: &System, b: &System) {
    assert_eq!(a.app().n_stages(), b.app().n_stages());
    for i in 0..a.app().n_stages() {
        assert_eq!(a.app().work(i).to_bits(), b.app().work(i).to_bits());
    }
    for i in 0..a.app().n_stages() - 1 {
        assert_eq!(
            a.app().file_size(i).to_bits(),
            b.app().file_size(i).to_bits()
        );
    }
    let m = a.platform().n_processors();
    assert_eq!(m, b.platform().n_processors());
    for p in 0..m {
        assert_eq!(
            a.platform().speed(p).to_bits(),
            b.platform().speed(p).to_bits()
        );
        for q in 0..m {
            if p != q {
                assert_eq!(
                    a.platform().bandwidth(p, q).to_bits(),
                    b.platform().bandwidth(p, q).to_bits()
                );
            }
        }
    }
    assert_eq!(a.mapping().teams(), b.mapping().teams());
}

fn arb_options(seed: u64) -> WireOptions {
    let solvers = [
        SolverChoice::Auto,
        SolverChoice::Force(Solver::Gth),
        SolverChoice::Force(Solver::GaussSeidel),
        SolverChoice::Force(Solver::Power),
    ];
    WireOptions {
        max_rows_strict: (seed % 50_000) as usize,
        list_candidates: seed & 1 == 0,
        threads: (seed % 9) as usize,
        solver: solvers[(seed % 4) as usize],
        max_states: 1 + (seed % 4_000_000) as usize,
        interner_spill: seed & 4 == 0,
        degrade: if seed & 8 == 0 {
            DegradeMode::Bounds
        } else {
            DegradeMode::Fail
        },
        deadline_ms: (seed & 16 == 0).then_some(seed % 100_000),
    }
}

fn assert_options_eq(a: &WireOptions, b: &WireOptions) {
    assert_eq!(a, b);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Analyze/Report requests round-trip: system bits, options,
    /// deadline.
    #[test]
    fn analyze_and_report_requests_round_trip(
        stages in 2usize..5,
        team in 1usize..3,
        seed in 0u64..u64::MAX,
    ) {
        let system = arb_system(stages, team, seed);
        let options = arb_options(seed);
        let body = Request::Analyze(AnalyzeRequest {
            system: system.clone(),
            options,
        })
        .encode();
        match Request::decode(&body).unwrap() {
            Request::Analyze(a) => {
                assert_system_bits(&a.system, &system);
                assert_options_eq(&a.options, &options);
            }
            other => panic!("wrong tag: {other:?}"),
        }
        let body = Request::Report(ReportRequest {
            system: system.clone(),
            options,
        })
        .encode();
        match Request::decode(&body).unwrap() {
            Request::Report(r) => {
                assert_system_bits(&r.system, &system);
                assert_options_eq(&r.options, &options);
            }
            other => panic!("wrong tag: {other:?}"),
        }
    }

    /// Search and Scale requests round-trip with exact bits.
    #[test]
    fn search_and_scale_requests_round_trip(
        stages in 2usize..5,
        team in 1usize..3,
        seed in 0u64..u64::MAX,
        candidates in 0usize..10_000,
    ) {
        let system = arb_system(stages, team, seed);
        let req = SearchRequest {
            app: system.app().clone(),
            platform: system.platform().clone(),
            random_candidates: candidates,
            seed,
            exp_rerank: seed & 1 == 0,
            deadline_ms: (seed & 4 == 0).then_some(seed % 60_000),
        };
        let body = Request::Search(req.clone()).encode();
        match Request::decode(&body).unwrap() {
            Request::Search(s) => {
                assert_eq!(s.random_candidates, candidates);
                assert_eq!(s.seed, seed);
                assert_eq!(s.exp_rerank, req.exp_rerank);
                assert_eq!(s.deadline_ms, req.deadline_ms);
                for i in 0..s.app.n_stages() {
                    assert_eq!(s.app.work(i).to_bits(), system.app().work(i).to_bits());
                }
            }
            other => panic!("wrong tag: {other:?}"),
        }
        let counts: Vec<usize> = (1..=system.platform().n_processors()).collect();
        let body = Request::Scale(ScaleRequest {
            system: system.clone(),
            processor_counts: counts.clone(),
        })
        .encode();
        match Request::decode(&body).unwrap() {
            Request::Scale(s) => {
                assert_system_bits(&s.system, &system);
                assert_eq!(s.processor_counts, counts);
            }
            other => panic!("wrong tag: {other:?}"),
        }
    }

    /// Report/Analyze/Error responses round-trip bit-exactly —
    /// including throughputs that are arbitrary f64 bit patterns.
    #[test]
    fn responses_round_trip(seed in 0u64..u64::MAX, states in 1usize..5_000_000) {
        let methods = [StrictMethod::DirectQuotient, StrictMethod::Full];
        let solvers = [Solver::Gth, Solver::GaussSeidel, Solver::Power];
        let reasons = [
            InterruptReason::Deadline,
            InterruptReason::Cancelled,
            InterruptReason::MemoryCap,
            InterruptReason::SolverStall,
        ];
        let report = StrictReport {
            throughput: f64::from_bits(seed),
            full_states: states,
            lumped_states: (seed & 1 == 0).then_some(states / 2),
            method: methods[(seed % 2) as usize],
            solver: solvers[(seed % 3) as usize],
            iterations: (seed % 100_000) as usize,
            residual: f64::from_bits(seed.rotate_left(17)),
            arena: ArenaStats {
                keys_bytes: (seed % 1_000_000) as usize,
                reps_bytes: (seed % 500_000) as usize,
                interner_bytes: (seed % 250_000) as usize,
                spill_bytes: (seed % 125_000) as usize,
            },
        };
        let body = Response::Report(report.clone()).encode();
        match Response::decode(&body).unwrap() {
            Response::Report(r) => {
                assert_eq!(r.throughput.to_bits(), report.throughput.to_bits());
                assert_eq!(r.residual.to_bits(), report.residual.to_bits());
                assert_eq!(r.full_states, report.full_states);
                assert_eq!(r.lumped_states, report.lumped_states);
                assert_eq!(r.method.label(), report.method.label());
                assert_eq!(r.solver, report.solver);
                assert_eq!(r.iterations, report.iterations);
                assert_eq!(r.arena, report.arena);
            }
            other => panic!("wrong tag: {other:?}"),
        }

        let statuses = [
            ReportStatus::Ok,
            ReportStatus::Degraded(reasons[(seed % 4) as usize]),
            ReportStatus::Interrupted(reasons[(seed % 4) as usize]),
            ReportStatus::OverBudget,
            ReportStatus::Internal,
        ];
        let analyze = AnalyzeResponse {
            text: format!("report §{seed} — ρ = {}\n", f64::from_bits(seed)),
            status: statuses[(seed % 5) as usize],
        };
        let body = Response::Analyze(analyze.clone()).encode();
        match Response::decode(&body).unwrap() {
            Response::Analyze(a) => assert_eq!(a, analyze),
            other => panic!("wrong tag: {other:?}"),
        }

        let err = ErrorResponse {
            class: 2 + (seed % 4) as u8,
            message: format!("failure {seed} with unicode: ∞ × {}", seed % 7),
        };
        let body = Response::Error(err.clone()).encode();
        match Response::decode(&body).unwrap() {
            Response::Error(e) => assert_eq!(e, err),
            other => panic!("wrong tag: {other:?}"),
        }
    }

    /// Search/Scale/Stats responses round-trip.
    #[test]
    fn aggregate_responses_round_trip(seed in 0u64..u64::MAX, n in 0usize..6) {
        let search = SearchResponse {
            finalists: (0..n)
                .map(|i| WireCandidate {
                    origin: ["greedy", "random", "hill-climb"][i % 3].to_string(),
                    teams: vec![vec![i], vec![i + 1, i + 2]],
                    det: f64::from_bits(seed.rotate_left(i as u32)),
                    exp: (i % 2 == 0).then_some(f64::from_bits(seed.rotate_right(i as u32))),
                })
                .collect(),
            det_evaluations: (seed % 100_000) as usize,
            delta_recomputes: (seed % 10_000) as usize,
            exp_evaluations: (seed % 1_000) as usize,
            cache_hits: (seed % 512) as usize,
            cache_misses: (seed % 128) as usize,
        };
        let body = Response::Search(search.clone()).encode();
        match Response::decode(&body).unwrap() {
            Response::Search(s) => {
                assert_eq!(s.finalists.len(), search.finalists.len());
                for (a, b) in s.finalists.iter().zip(&search.finalists) {
                    assert_eq!(a.origin, b.origin);
                    assert_eq!(a.teams, b.teams);
                    assert_eq!(a.det.to_bits(), b.det.to_bits());
                    assert_eq!(a.exp.map(f64::to_bits), b.exp.map(f64::to_bits));
                }
                assert_eq!(s.det_evaluations, search.det_evaluations);
                assert_eq!(s.cache_hits, search.cache_hits);
                assert_eq!(s.cache_misses, search.cache_misses);
            }
            other => panic!("wrong tag: {other:?}"),
        }

        let scale = ScaleResponse {
            points: (1..=n)
                .map(|p| ScalePoint {
                    processors: p,
                    det_throughput: f64::from_bits(seed.wrapping_add(p as u64)),
                    teams: vec![vec![0; p.max(1)]],
                })
                .collect(),
        };
        let body = Response::Scale(scale.clone()).encode();
        match Response::decode(&body).unwrap() {
            Response::Scale(s) => {
                assert_eq!(s.points.len(), scale.points.len());
                for (a, b) in s.points.iter().zip(&scale.points) {
                    assert_eq!(a.processors, b.processors);
                    assert_eq!(a.det_throughput.to_bits(), b.det_throughput.to_bits());
                    assert_eq!(a.teams, b.teams);
                }
            }
            other => panic!("wrong tag: {other:?}"),
        }

        let stats = StatsResponse {
            cache: CacheStats {
                pattern_hits: (seed % 97) as usize,
                pattern_misses: (seed % 89) as usize,
                strict_hits: (seed % 83) as usize,
                strict_misses: (seed % 79) as usize,
            },
            requests: seed % 1_000_000,
            connections: seed % 100_000,
            workers: 1 + (seed % 64) as usize,
            shards: 1 << (seed % 8),
        };
        let body = Response::Stats(stats).encode();
        match Response::decode(&body).unwrap() {
            Response::Stats(s) => assert_eq!(s, stats),
            other => panic!("wrong tag: {other:?}"),
        }
    }

    /// Every strict prefix of a valid frame is rejected with a
    /// structured error — never a panic, never a bogus success.
    #[test]
    fn truncated_frames_reject_structurally(
        stages in 2usize..5,
        team in 1usize..3,
        seed in 0u64..u64::MAX,
    ) {
        let system = arb_system(stages, team, seed);
        let body = Request::Analyze(AnalyzeRequest {
            system,
            options: arb_options(seed),
        })
        .encode();
        for cut in 0..body.len() {
            prop_assert!(
                Request::decode(&body[..cut]).is_err(),
                "prefix of {} bytes decoded",
                cut
            );
        }
    }

    /// Random garbage bodies decode to `Ok` or a structured `Err`,
    /// never a panic (decoding is total).
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..200)) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }
}

#[test]
fn unknown_version_and_tag_reject() {
    assert!(matches!(
        Request::decode(&[WIRE_VERSION + 1, 0]),
        Err(WireError::UnknownVersion(v)) if v == WIRE_VERSION + 1
    ));
    assert!(matches!(
        Request::decode(&[0, 0]),
        Err(WireError::UnknownVersion(0))
    ));
    // A version-2 report carried a preconditioner byte after the solver:
    // refused on its version byte, before any field is read.
    let mut body = strict_report(StrictMethod::DirectQuotient, Solver::GaussSeidel).encode();
    body[0] = 2;
    assert!(matches!(
        Response::decode(&body),
        Err(WireError::UnknownVersion(2))
    ));
    // A version-3 request carried a lumping byte in its options: refused
    // on its version byte too.
    let mut body = Request::Analyze(AnalyzeRequest {
        system: arb_system(2, 1, 3),
        options: WireOptions::default(),
    })
    .encode();
    body[0] = 3;
    assert!(matches!(
        Request::decode(&body),
        Err(WireError::UnknownVersion(3))
    ));
    assert!(matches!(
        Request::decode(&[WIRE_VERSION, 99]),
        Err(WireError::UnknownTag(99))
    ));
    assert!(matches!(
        Response::decode(&[WIRE_VERSION, 3]),
        Err(WireError::UnknownTag(3))
    ));
    // 136 tagged a raw stationary solve that no server ever sent.
    assert!(matches!(
        Response::decode(&[WIRE_VERSION, 136]),
        Err(WireError::UnknownTag(136))
    ));
}

/// A small Strict report whose only free bytes are its method and solver.
fn strict_report(method: StrictMethod, solver: Solver) -> Response {
    Response::Report(StrictReport {
        throughput: 0.5,
        full_states: 10,
        lumped_states: None,
        method,
        solver,
        iterations: 10,
        residual: 0.0,
        arena: ArenaStats::default(),
    })
}

/// The solver byte has three assigned values (`Gth 0`, `GaussSeidel 1`,
/// `Power 2`); every other value — the retired SOR/GMRES tags included
/// — is a structured `Invalid`, not a misparse.
#[test]
fn unassigned_solver_byte_is_invalid() {
    let encode = |solver| strict_report(StrictMethod::DirectQuotient, solver).encode();
    let (gth, power) = (encode(Solver::Gth), encode(Solver::Power));
    assert_eq!(gth.len(), power.len());
    let differ: Vec<usize> = (0..gth.len()).filter(|&i| gth[i] != power[i]).collect();
    assert_eq!(differ.len(), 1, "the solver is one byte");
    let at = differ[0];
    assert_eq!((gth[at], power[at]), (0, 2));
    for byte in [3u8, 4, 5, 0xff] {
        let mut body = gth.clone();
        body[at] = byte;
        assert!(
            matches!(Response::decode(&body), Err(WireError::Invalid(_))),
            "solver byte {byte}"
        );
    }
}

/// The strict-method byte has two assigned values (`DirectQuotient 0`,
/// `Full 2`); `1`, the retired full-then-lump method, and every other
/// value are a structured `Invalid`.
#[test]
fn unassigned_strict_method_byte_is_invalid() {
    let encode = |method| strict_report(method, Solver::Gth).encode();
    let (direct, full) = (
        encode(StrictMethod::DirectQuotient),
        encode(StrictMethod::Full),
    );
    assert_eq!(direct.len(), full.len());
    let differ: Vec<usize> = (0..direct.len())
        .filter(|&i| direct[i] != full[i])
        .collect();
    assert_eq!(differ.len(), 1, "the method is one byte");
    let at = differ[0];
    assert_eq!((direct[at], full[at]), (0, 2));
    for byte in [1u8, 3, 0xff] {
        let mut body = direct.clone();
        body[at] = byte;
        assert!(
            matches!(Response::decode(&body), Err(WireError::Invalid(_))),
            "strict-method byte {byte}"
        );
    }
}

/// Wire version 4 options and search requests carry no lumping byte: the
/// options are exactly their eight fields, and a search request ends
/// `candidates, seed, exp_rerank, deadline` with nothing in between.
#[test]
fn options_and_search_carry_no_lumping_byte() {
    let system = arb_system(2, 1, 5);
    let options = WireOptions {
        max_rows_strict: 5,
        list_candidates: true,
        threads: 3,
        solver: SolverChoice::Auto,
        max_states: 100,
        interner_spill: true,
        degrade: DegradeMode::Bounds,
        deadline_ms: None,
    };
    let analyze = Request::Analyze(AnalyzeRequest {
        system: system.clone(),
        options,
    })
    .encode();
    // A scale request with no counts is the same header and system plus
    // one length byte.
    let scale = Request::Scale(ScaleRequest {
        system: system.clone(),
        processor_counts: vec![],
    })
    .encode();
    assert_eq!(&analyze[scale.len() - 1..], &[5, 1, 3, 0, 100, 1, 1, 0]);
    match Request::decode(&analyze).unwrap() {
        Request::Analyze(a) => assert_eq!(a.options, options),
        other => panic!("wrong tag: {other:?}"),
    }

    let search = Request::Search(SearchRequest {
        app: system.app().clone(),
        platform: system.platform().clone(),
        random_candidates: 5,
        seed: 7,
        exp_rerank: true,
        deadline_ms: None,
    })
    .encode();
    assert!(search.ends_with(&[5, 7, 1, 0]), "{search:?}");
    assert!(matches!(
        Request::decode(&search),
        Ok(Request::Search(s)) if s.random_candidates == 5 && s.seed == 7 && s.exp_rerank
    ));
}

#[test]
fn trailing_bytes_reject() {
    let mut body = Request::Stats.encode();
    body.extend_from_slice(&[1, 2, 3]);
    assert!(matches!(
        Request::decode(&body),
        Err(WireError::TrailingBytes(3))
    ));
}

#[test]
fn oversized_length_prefix_rejects_before_allocation() {
    // 4 GiB claimed in 4 bytes: must fail fast on the length check.
    let frame = (u32::MAX).to_le_bytes();
    let mut r = &frame[..];
    assert!(matches!(
        read_frame(&mut r),
        Err(WireError::Oversized(n)) if n > MAX_FRAME
    ));
}

#[test]
fn oversized_write_rejects() {
    let mut sink = Vec::new();
    let body = vec![0u8; MAX_FRAME + 1];
    assert!(matches!(
        write_frame(&mut sink, &body),
        Err(WireError::Oversized(_))
    ));
    assert!(sink.is_empty(), "nothing written after rejection");
}

#[test]
fn eof_semantics_distinguish_clean_close_from_truncation() {
    // Clean EOF between frames: Ok(None).
    let mut empty: &[u8] = &[];
    assert!(matches!(read_frame(&mut empty), Ok(None)));
    // EOF inside the length prefix: Truncated.
    let partial = [1u8, 0];
    let mut r = &partial[..];
    assert!(matches!(read_frame(&mut r), Err(WireError::Truncated)));
    // EOF inside the body: Truncated.
    let mut frame = 8u32.to_le_bytes().to_vec();
    frame.push(42);
    let mut r = &frame[..];
    assert!(matches!(read_frame(&mut r), Err(WireError::Truncated)));
}

#[test]
fn hostile_sequence_lengths_reject_without_allocating() {
    // A Scale request claiming 2^40 processor counts in a 40-byte body.
    let system = arb_system(2, 1, 7);
    let mut body = Request::Scale(ScaleRequest {
        system,
        processor_counts: vec![],
    })
    .encode();
    // Rewrite the trailing (empty) counts vector into a huge claim.
    body.pop();
    body.extend([0x80, 0x80, 0x80, 0x80, 0x80, 0x40]);
    assert!(Request::decode(&body).is_err());
}

#[test]
fn smuggled_invalid_system_is_rejected_by_revalidation() {
    // Encode a valid Analyze request, then flip a work value to a
    // negative bit pattern: decode must fail with `Invalid`, because
    // `Application::new` re-validates on arrival.
    let system = arb_system(2, 1, 11);
    let options = WireOptions::default();
    let good = Request::Analyze(AnalyzeRequest {
        system: system.clone(),
        options,
    })
    .encode();
    // Body layout: version, tag, stage-count varint (=2), then work[0]
    // as 8 LE bytes.  Overwrite work[0] with −1.0.
    let mut evil = good.clone();
    let neg = (-1.0f64).to_bits().to_le_bytes();
    evil[3..11].copy_from_slice(&neg);
    match Request::decode(&evil) {
        Err(WireError::Invalid(_)) => {}
        other => panic!("expected Invalid, got {other:?}"),
    }
    // Control: the untouched frame still decodes.
    assert!(Request::decode(&good).is_ok());
}
