//! Deterministic chunk-parallel batch scoring.
//!
//! Candidate scores are mutually independent, so a batch is split into
//! contiguous chunks, one `std::thread::scope` thread per chunk, each
//! thread owning a private [`WorkloadDetScorer`] (memo and scratch
//! included) and a disjoint slice of the output.  No result ever crosses
//! a thread boundary mid-computation, so the output is **bitwise
//! identical for any thread count** — the same pattern as the CTMC power
//! sweep (see `repstream-markov`), and pinned by the engine's property
//! tests.
//!
//! There is one batch, [`score_joint_batch_with_threads`], over a flat
//! slice of mappings, `K` per candidate for a K-app workload — so a
//! one-app batch is a plain list of [`Mapping`]s and no per-candidate
//! container is built.  Its scores are flat the same way, `K` per
//! candidate, so a one-app batch is exactly the list of throughputs.
//! [`score_batch`] is its unbudgeted one-app view.

use crate::score::WorkloadDetScorer;
use repstream_core::model::{App, Application, Mapping, ModelError, Platform, WorkloadRef};
use repstream_markov::govern::{Budget, Interrupt, Phase, Progress};
use repstream_petri::shape::ExecModel;

/// Candidates per thread below which spawning is not worth it; also how
/// often each thread checks the budget.
const PAR_MIN_CANDIDATES: usize = 64;

/// Errors of the batch scorer.
#[derive(Debug)]
pub enum BatchError {
    /// A candidate failed validation.
    Model(ModelError),
    /// The budget fired between candidates.
    Interrupted(Interrupt),
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::Model(e) => write!(f, "batch: {e}"),
            BatchError::Interrupted(i) => write!(f, "batch: {i}"),
        }
    }
}

impl std::error::Error for BatchError {}

/// Deterministic throughput of every candidate of one application, in
/// input order — the one batch on the one-app workload.
///
/// Thread count is `available_parallelism` capped so each thread scores
/// at least `PAR_MIN_CANDIDATES` (64); the result does not depend on it.
/// The first invalid candidate (in input order) aborts the batch with its
/// validation error.
pub fn score_batch(
    app: &Application,
    platform: &Platform,
    model: ExecModel,
    candidates: &[Mapping],
) -> Result<Vec<f64>, ModelError> {
    let apps = [App::new(app.clone())];
    let workload = WorkloadRef::new(&apps, platform)?;
    score_joint_batch_with_threads(workload, model, candidates, &Budget::UNLIMITED, 0).map_err(
        |e| match e {
            BatchError::Model(e) => e,
            BatchError::Interrupted(_) => unreachable!("an unlimited budget never fires"),
        },
    )
}

/// The one batch: the contended per-app deterministic throughputs of
/// every candidate, flat and in input order, on `threads` threads (0 =
/// `available_parallelism`, capped so each thread scores at least
/// `PAR_MIN_CANDIDATES`) under a cooperative [`Budget`].  `candidates`
/// holds `K` mappings per candidate for the workload's `K` apps
/// (candidate `i`'s app `k` at `i·K + k`), and candidate `i`'s `K` scores
/// land at `i·K..(i+1)·K`.  A length that is not a multiple of `K` fails
/// with [`ModelError::AppCountMismatch`], naming how many mappings the
/// trailing candidate has.
///
/// Each thread checks the budget before every `PAR_MIN_CANDIDATES`
/// candidates of its own chunk; the checks only decide whether the batch
/// aborts, never a score, so the scores are bitwise identical for every
/// thread count and budget that does not fire.  The first failing chunk
/// (in chunk order) reports: its first invalid candidate's validation
/// error, or the interrupt.
pub fn score_joint_batch_with_threads(
    workload: WorkloadRef<'_>,
    model: ExecModel,
    candidates: &[Mapping],
    budget: &Budget,
    threads: usize,
) -> Result<Vec<f64>, BatchError> {
    let k = workload.n_apps();
    if !candidates.len().is_multiple_of(k) {
        return Err(BatchError::Model(ModelError::AppCountMismatch {
            apps: k,
            mappings: candidates.len() % k,
        }));
    }
    let n = candidates.len() / k;
    let threads = match threads {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(n / PAR_MIN_CANDIDATES),
        n => n,
    }
    .max(1);
    let chunk = n.div_ceil(threads).max(1);
    let mut out = vec![0.0f64; candidates.len()];
    let score_chunk = |(i, (slots, chunk_candidates)): (usize, (&mut [f64], &[Mapping]))| {
        let mut scorer = WorkloadDetScorer::new(workload, model);
        let mut per_app = Vec::with_capacity(k);
        for (j, (c, slot)) in chunk_candidates
            .chunks(k)
            .zip(slots.chunks_mut(k))
            .enumerate()
        {
            if j % PAR_MIN_CANDIDATES == 0 {
                budget
                    .check(Progress {
                        phase: Phase::Search,
                        states: 0,
                        levels: 0,
                        iterations: i * chunk + j,
                        arena_bytes: 0,
                    })
                    .map_err(BatchError::Interrupted)?;
            }
            scorer
                .score_into(c, &mut per_app)
                .map_err(BatchError::Model)?;
            slot.copy_from_slice(&per_app);
        }
        Ok(())
    };
    let parts = out
        .chunks_mut(chunk * k)
        .zip(candidates.chunks(chunk * k))
        .enumerate();
    // One Result per chunk, in chunk order, so the reported error is the
    // first failing chunk's regardless of thread scheduling.
    let results: Vec<Result<(), BatchError>> = if threads == 1 {
        parts.map(score_chunk).collect()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = parts
                .map(|part| scope.spawn(move || score_chunk(part)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("batch scorer thread panicked"))
                .collect()
        })
    };
    results.into_iter().collect::<Result<(), _>>()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use repstream_core::model::Workload;
    use repstream_markov::govern::InterruptReason;
    use repstream_workload::random::{random_joint_mappings, random_mappings};
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    fn instance() -> (Application, Platform) {
        repstream_workload::scenarios::mapping_search()
    }

    /// The scenario as a one-app workload.
    fn one_app() -> Workload {
        let (app, platform) = instance();
        Workload::new(vec![App::new(app)], platform).unwrap()
    }

    fn two_apps() -> Workload {
        let (app, platform) = instance();
        Workload::new(vec![App::new(app.clone()), App::new(app)], platform).unwrap()
    }

    fn with_threads(
        workload: &Workload,
        candidates: &[Mapping],
        budget: &Budget,
        threads: usize,
    ) -> Result<Vec<f64>, BatchError> {
        score_joint_batch_with_threads(
            workload.as_ref(),
            ExecModel::Overlap,
            candidates,
            budget,
            threads,
        )
    }

    #[test]
    fn thread_counts_agree_bitwise() {
        let workload = one_app();
        let candidates = random_mappings(4, workload.platform().n_processors(), 96, 11);
        let seq = with_threads(&workload, &candidates, &Budget::UNLIMITED, 1).unwrap();
        for threads in [2, 3, 8] {
            let par = with_threads(&workload, &candidates, &Budget::UNLIMITED, threads).unwrap();
            assert_eq!(seq.len(), par.len());
            for (i, (a, b)) in seq.iter().zip(par.iter()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "candidate {i} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn invalid_candidate_aborts_with_first_error() {
        let workload = one_app();
        let mut candidates = random_mappings(4, workload.platform().n_processors(), 8, 3);
        candidates.insert(
            2,
            Mapping::new(vec![vec![0], vec![1], vec![2], vec![99]]).unwrap(),
        );
        let err = with_threads(&workload, &candidates, &Budget::UNLIMITED, 4).unwrap_err();
        assert!(matches!(
            err,
            BatchError::Model(ModelError::UnknownProcessor { proc: 99 })
        ));
    }

    #[test]
    fn auto_threading_small_batch_is_sequential_path() {
        let (app, platform) = instance();
        let candidates = random_mappings(4, platform.n_processors(), 5, 7);
        let auto = score_batch(&app, &platform, ExecModel::Overlap, &candidates).unwrap();
        let seq = with_threads(&one_app(), &candidates, &Budget::UNLIMITED, 1).unwrap();
        assert_eq!(auto, seq);
    }

    #[test]
    fn joint_thread_counts_agree_bitwise() {
        let workload = two_apps();
        let candidates = random_joint_mappings(&[4, 4], workload.platform().n_processors(), 96, 13);
        let seq = with_threads(&workload, &candidates, &Budget::UNLIMITED, 1).unwrap();
        for threads in [2, 3, 8] {
            let par = with_threads(&workload, &candidates, &Budget::UNLIMITED, threads).unwrap();
            assert_eq!(seq.len(), candidates.len());
            assert_eq!(seq.len(), par.len());
            for (i, (x, y)) in seq.iter().zip(par.iter()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "candidate {} app {} at {threads} threads",
                    i / 2,
                    i % 2
                );
            }
        }
    }

    #[test]
    fn joint_invalid_candidate_aborts_with_first_error() {
        let workload = two_apps();
        let mut candidates =
            random_joint_mappings(&[4, 4], workload.platform().n_processors(), 8, 3);
        candidates.splice(
            4..4,
            [
                Mapping::one_to_one(4),
                Mapping::new(vec![vec![0], vec![1], vec![2], vec![99]]).unwrap(),
            ],
        );
        let err = with_threads(&workload, &candidates, &Budget::UNLIMITED, 4).unwrap_err();
        assert!(matches!(
            err,
            BatchError::Model(ModelError::UnknownProcessor { proc: 99 })
        ));
    }

    /// A joint batch is `K` mappings per candidate: a slice that ends
    /// part-way through a candidate is rejected before anything is
    /// scored, naming how many mappings the trailing candidate has.
    #[test]
    fn joint_batch_rejects_a_partial_candidate() {
        let workload = two_apps();
        let mut candidates =
            random_joint_mappings(&[4, 4], workload.platform().n_processors(), 8, 3);
        candidates.pop();
        for threads in [1, 4] {
            let err =
                with_threads(&workload, &candidates, &Budget::UNLIMITED, threads).unwrap_err();
            assert!(matches!(
                err,
                BatchError::Model(ModelError::AppCountMismatch {
                    apps: 2,
                    mappings: 1
                })
            ));
        }
    }

    #[test]
    fn a_budget_that_never_fires_changes_no_score() {
        let workload = one_app();
        let candidates = random_mappings(4, workload.platform().n_processors(), 300, 19);
        let far = Budget::deadline_in(Duration::from_secs(3600));
        let unbudgeted = with_threads(&workload, &candidates, &Budget::UNLIMITED, 1).unwrap();
        for threads in [1, 4] {
            let budgeted = with_threads(&workload, &candidates, &far, threads).unwrap();
            assert_eq!(unbudgeted.len(), budgeted.len());
            for (i, (a, b)) in unbudgeted.iter().zip(budgeted.iter()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "candidate {i} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn a_raised_cancel_flag_interrupts_the_batch() {
        static CANCEL: AtomicBool = AtomicBool::new(true);
        let workload = one_app();
        let candidates = random_mappings(4, workload.platform().n_processors(), 300, 23);
        let cancelled = Budget::UNLIMITED.cancelled_by(&CANCEL);
        for threads in [1, 4] {
            match with_threads(&workload, &candidates, &cancelled, threads) {
                Err(BatchError::Interrupted(i)) => {
                    assert_eq!(i.reason, InterruptReason::Cancelled);
                    // The first chunk reports, at its first candidate.
                    assert_eq!(i.progress.iterations, 0);
                }
                other => panic!("{threads} threads: expected an interrupt, got {other:?}"),
            }
        }
    }
}
