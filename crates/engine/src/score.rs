//! Per-app scorers of candidate mappings with cross-candidate reuse.
//!
//! [`WorkloadDetScorer`] evaluates the contended deterministic
//! (columnwise, Theorem 1) throughput of every app of a candidate;
//! [`WorkloadExpScorer`] the exponential one (Theorem 3/4 decomposition
//! for Overlap, the Theorem 2 chain for Strict).  A candidate is its
//! per-app mappings — a [`JointMapping::mappings`], or one [`Mapping`]
//! (`std::slice::from_ref`) on a one-app workload, where every contention
//! share is 1 and the scores are the single-application ones.  Both
//! scorers borrow the workload once and reuse work across candidates:
//!
//! * the deterministic pattern-period solves (critical cycles of `u′×v′`
//!   patterns) are memoized by `(u′, v′, exact weight bits)` — on
//!   homogeneous-bandwidth platforms almost every candidate hits;
//! * the exponential pattern/Strict chains reuse marking-graph
//!   *structures* through [`ChainCache`], refilling the CSR rates per
//!   candidate.
//!
//! Reuse never changes a value: both scorers return **bitwise** the same
//! numbers as the cold `repstream-core` entry points
//! ([`deterministic::throughput_columnwise`],
//! [`exponential::throughput_overlap`] /
//! [`exponential::throughput_strict`] on one app, the same over
//! [`timing::contended_times`] on K); the engine's property tests pin
//! this.
//!
//! [`JointMapping::mappings`]: repstream_core::model::JointMapping::mappings

use repstream_core::exponential::{self, ChainSolver, ExpError};
use repstream_core::model::{Mapping, ModelError, WorkloadRef};
use repstream_core::timing::Contention;
use repstream_core::{deterministic, timing};
use repstream_markov::cache::ChainCache;
use repstream_markov::fxhash::FxHashMap;
use repstream_markov::govern::RunConfig;
use repstream_petri::shape::ExecModel;

/// Memo of deterministic pattern periods keyed by the **exact bits** of
/// the pattern's weight vector (plus its dimensions), so a hit is
/// guaranteed to return what [`deterministic::pattern_period_weights`]
/// would compute for the same inputs.
///
/// Keys are `[u, v, w₀.to_bits(), …]` slices; lookups probe with a
/// reused scratch buffer (`Box<[u64]>: Borrow<[u64]>`), so the hit path
/// — the hot path of every delta move and batch candidate — allocates
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct PatternMemo {
    map: FxHashMap<Box<[u64]>, f64>,
    key_scratch: Vec<u64>,
    hits: usize,
    misses: usize,
}

impl PatternMemo {
    /// Pattern period of weight vector `w` over a `u × v` pattern
    /// (memoized; `w.len() == u·v`).
    pub fn period(&mut self, u: usize, v: usize, w: &[f64]) -> f64 {
        self.key_scratch.clear();
        self.key_scratch.push(u as u64);
        self.key_scratch.push(v as u64);
        self.key_scratch.extend(w.iter().map(|x| x.to_bits()));
        if let Some(&p) = self.map.get(self.key_scratch.as_slice()) {
            self.hits += 1;
            return p;
        }
        self.misses += 1;
        let p = deterministic::pattern_period_weights(u, v, w);
        self.map.insert(self.key_scratch.as_slice().into(), p);
        p
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (usize, usize) {
        (self.hits, self.misses)
    }
}

/// Deterministic **per-app** throughput scorer for the candidates of a
/// K-app workload, with one [`PatternMemo`] shared across apps and
/// candidates.
///
/// Each score charges the contention shares of the candidate and
/// evaluates every app's columnwise throughput against them — bitwise
/// what the cold path over [`timing::contended_times`] computes.
#[derive(Debug)]
pub struct WorkloadDetScorer<'a> {
    workload: WorkloadRef<'a>,
    model: ExecModel,
    memo: PatternMemo,
    scratch: Vec<f64>,
    /// Reused team-size buffer (the hot path never allocates a
    /// [`repstream_petri::shape::MappingShape`]).
    teams: Vec<usize>,
    /// Reused per-candidate contention bookkeeping (refilled, never
    /// reallocated).
    contention: Contention,
    evaluations: usize,
}

impl<'a> WorkloadDetScorer<'a> {
    /// Scorer over one workload.
    pub fn new(workload: WorkloadRef<'a>, model: ExecModel) -> WorkloadDetScorer<'a> {
        let contention = Contention::empty(workload.n_apps(), workload.platform().n_processors());
        WorkloadDetScorer {
            workload,
            model,
            memo: PatternMemo::default(),
            scratch: Vec::new(),
            teams: Vec::new(),
            contention,
            evaluations: 0,
        }
    }

    /// The workload being scored.
    pub fn workload(&self) -> WorkloadRef<'a> {
        self.workload
    }

    /// Candidates scored so far.
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// Pattern-period memo `(hits, misses)`.
    pub fn memo_stats(&self) -> (usize, usize) {
        self.memo.stats()
    }

    /// Contended per-app deterministic throughputs of the candidate with
    /// per-app `mappings`, appended to `out` (cleared first).
    pub fn score_into(
        &mut self,
        mappings: &[Mapping],
        out: &mut Vec<f64>,
    ) -> Result<(), ModelError> {
        self.workload.validate(mappings)?;
        self.evaluations += 1;
        out.clear();
        self.contention.refill_from_joint(mappings);
        let contention = &self.contention;
        for k in 0..self.workload.n_apps() {
            let system = self.workload.system_of(k, mappings);
            out.push(match self.model {
                // Hot path: fold the contention shares on the fly — the
                // closures compute exactly the expressions
                // `contended_system_times` tabulates, so the fold is
                // bitwise the cold table path without the per-candidate
                // table allocation (pinned by this module's tests and
                // the engine's equivalence properties).
                ExecModel::Overlap => {
                    self.teams.clear();
                    self.teams
                        .extend(system.mapping().teams().iter().map(Vec::len));
                    let (app, platform) = (system.app(), system.platform());
                    let (memo, scratch) = (&mut self.memo, &mut self.scratch);
                    deterministic::throughput_columnwise_with_fns(
                        &self.teams,
                        &mut |stage, slot| {
                            let p = system.proc_at(stage, slot);
                            let users = contention.proc_users(p) as f64;
                            app.work(stage) / (platform.speed(p) / users)
                        },
                        &mut |file, comp, g, up, vp| {
                            // Row k of the pattern is the link
                            // (k mod u′) → (k mod v′) of the component.
                            scratch.clear();
                            scratch.extend((0..up * vp).map(|k| {
                                let p = system.proc_at(file, comp + g * (k % up));
                                let q = system.proc_at(file + 1, comp + g * (k % vp));
                                let users = contention.link_users(p, q) as f64;
                                app.file_size(file) / (platform.bandwidth(p, q) / users)
                            }));
                            memo.period(up, vp, scratch)
                        },
                    )
                }
                ExecModel::Strict => {
                    let times = timing::contended_system_times(system, contention);
                    deterministic::analyze_shape(&system.shape(), self.model, &times).throughput
                }
            });
        }
        Ok(())
    }

    /// As [`WorkloadDetScorer::score_into`], allocating the result.
    pub fn score(&mut self, mappings: &[Mapping]) -> Result<Vec<f64>, ModelError> {
        let mut out = Vec::with_capacity(self.workload.n_apps());
        self.score_into(mappings, &mut out)?;
        Ok(out)
    }
}

/// Exponential **per-app** throughput scorer for the candidates of a
/// workload, with **one** [`ChainCache`] shared across apps and
/// candidates — two apps with the same replication shape (same
/// `TpnSignature`) pay one marking-graph BFS, the designed stress-test
/// for the cache.  Generic over the chain oracle so a test can
/// substitute a recording fake; every production caller scores through a
/// [`ChainCache`].
#[derive(Debug)]
pub struct WorkloadExpScorer<'a, S = ChainCache> {
    workload: WorkloadRef<'a>,
    model: ExecModel,
    opts: RunConfig,
    cache: S,
    contention: Contention,
    evaluations: usize,
}

impl<'a> WorkloadExpScorer<'a> {
    /// Scorer over one workload with the default [`RunConfig`] and a
    /// cold cache.
    pub fn new(workload: WorkloadRef<'a>, model: ExecModel) -> WorkloadExpScorer<'a> {
        Self::with_cache(workload, model, RunConfig::default(), ChainCache::new())
    }

    /// Chain-cache hit/miss counters (shared across all apps).
    pub fn cache_stats(&self) -> repstream_markov::cache::CacheStats {
        self.cache.stats()
    }
}

impl<'a, S: ChainSolver> WorkloadExpScorer<'a, S> {
    /// As [`WorkloadExpScorer::new`] under an explicit [`RunConfig`],
    /// scoring through a caller-supplied chain oracle (a served search
    /// hands a pooled cache in so repeated shapes skip their BFS across
    /// requests).
    pub fn with_cache(
        workload: WorkloadRef<'a>,
        model: ExecModel,
        opts: RunConfig,
        cache: S,
    ) -> WorkloadExpScorer<'a, S> {
        let contention = Contention::empty(workload.n_apps(), workload.platform().n_processors());
        WorkloadExpScorer {
            workload,
            model,
            opts,
            cache,
            contention,
            evaluations: 0,
        }
    }

    /// Surrender the chain oracle (warm entries included) to the caller —
    /// the inverse of [`WorkloadExpScorer::with_cache`].
    pub fn into_cache(self) -> S {
        self.cache
    }

    /// Candidates scored so far.
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// Contended per-app exponential throughputs of the candidate with
    /// per-app `mappings`.
    pub fn score(&mut self, mappings: &[Mapping]) -> Result<Vec<f64>, ExpScoreError> {
        self.workload
            .validate(mappings)
            .map_err(ExpScoreError::Model)?;
        self.evaluations += 1;
        self.contention.refill_from_joint(mappings);
        let mut out = Vec::with_capacity(self.workload.n_apps());
        for k in 0..self.workload.n_apps() {
            let system = self.workload.system_of(k, mappings);
            let rates =
                timing::contended_system_times(system, &self.contention).map(|_, &t| 1.0 / t);
            let shape = system.shape();
            let rho = match self.model {
                ExecModel::Overlap => exponential::throughput_overlap_with_solver(
                    &shape,
                    &rates,
                    self.opts,
                    &mut self.cache,
                )
                .map(|r| r.throughput),
                ExecModel::Strict => self
                    .cache
                    .strict_solve(&shape, &rates, self.opts)
                    .map(|s| s.throughput)
                    .map_err(ExpError::MarkingGraph),
            };
            out.push(rho.map_err(ExpScoreError::Exp)?);
        }
        Ok(out)
    }
}

/// Errors of [`WorkloadExpScorer::score`].
#[derive(Debug)]
pub enum ExpScoreError {
    /// The candidate failed triple validation.
    Model(ModelError),
    /// The exponential analysis failed (chain too large).
    Exp(ExpError),
}

impl ExpScoreError {
    /// The cooperative-governor interrupt behind this error, when the
    /// score was cut short by a deadline / cancel / memory cap.
    pub fn interrupt(&self) -> Option<repstream_markov::govern::Interrupt> {
        match self {
            ExpScoreError::Exp(e) => e.interrupt(),
            ExpScoreError::Model(_) => None,
        }
    }
}

impl std::fmt::Display for ExpScoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExpScoreError::Model(e) => write!(f, "model: {e}"),
            ExpScoreError::Exp(e) => write!(f, "exponential analysis: {e}"),
        }
    }
}

impl std::error::Error for ExpScoreError {}

#[cfg(test)]
mod tests {
    use super::*;
    use repstream_core::model::{App, Application, JointMapping, Platform, System, Workload};

    fn instance() -> (Application, Platform) {
        repstream_workload::scenarios::mapping_search()
    }

    /// The one-app workload of an application.
    fn one_app(app: &Application, platform: &Platform) -> Workload {
        Workload::new(vec![App::new(app.clone())], platform.clone()).unwrap()
    }

    fn mappings() -> Vec<Mapping> {
        vec![
            Mapping::new(vec![vec![0], vec![1, 2], vec![3, 4, 5], vec![6]]).unwrap(),
            Mapping::new(vec![vec![3, 7], vec![1, 5], vec![0, 4, 6], vec![2]]).unwrap(),
            Mapping::new(vec![vec![9], vec![1, 8, 2], vec![0, 4, 3], vec![7]]).unwrap(),
            Mapping::new(vec![vec![0], vec![1], vec![2], vec![3]]).unwrap(),
        ]
    }

    #[test]
    fn det_scorer_matches_cold_columnwise_bitwise() {
        let (app, platform) = instance();
        let workload = one_app(&app, &platform);
        let mut scorer = WorkloadDetScorer::new(workload.as_ref(), ExecModel::Overlap);
        for m in mappings() {
            let cold = deterministic::throughput_columnwise(
                &System::new(app.clone(), platform.clone(), m.clone()).unwrap(),
            );
            let s = scorer.score(std::slice::from_ref(&m)).unwrap();
            assert_eq!(s.len(), 1);
            assert_eq!(cold.to_bits(), s[0].to_bits(), "{:?}", m.teams());
            // Scoring the same candidate again hits the memo and must not
            // change the value.
            let again = scorer.score(std::slice::from_ref(&m)).unwrap();
            assert_eq!(s[0].to_bits(), again[0].to_bits());
        }
        let (hits, _) = scorer.memo_stats();
        assert!(hits > 0, "uniform-bandwidth platform must hit the memo");
    }

    #[test]
    fn det_scorer_strict_matches_analyze() {
        let (app, platform) = instance();
        let workload = one_app(&app, &platform);
        let mut scorer = WorkloadDetScorer::new(workload.as_ref(), ExecModel::Strict);
        let m = &mappings()[0];
        let cold = deterministic::analyze(
            &System::new(app.clone(), platform.clone(), m.clone()).unwrap(),
            ExecModel::Strict,
        )
        .throughput;
        let s = scorer.score(std::slice::from_ref(m)).unwrap();
        assert_eq!(cold.to_bits(), s[0].to_bits());
    }

    #[test]
    fn exp_scorer_matches_cold_overlap_bitwise() {
        let (app, platform) = instance();
        let workload = one_app(&app, &platform);
        let mut scorer = WorkloadExpScorer::new(workload.as_ref(), ExecModel::Overlap);
        for m in mappings() {
            let sys = System::new(app.clone(), platform.clone(), m.clone()).unwrap();
            let cold = exponential::throughput_overlap(&sys).unwrap().throughput;
            let s = scorer.score(std::slice::from_ref(&m)).unwrap();
            assert_eq!(cold.to_bits(), s[0].to_bits(), "{:?}", m.teams());
        }
    }

    #[test]
    fn exp_scorer_matches_cold_strict_bitwise() {
        let app = Application::uniform(2, 6.0, 12.0).unwrap();
        let platform = Platform::complete(vec![1.0; 5], 2.0).unwrap();
        let workload = one_app(&app, &platform);
        let mut scorer = WorkloadExpScorer::new(workload.as_ref(), ExecModel::Strict);
        for teams in [
            vec![vec![0], vec![1]],
            vec![vec![0, 1], vec![2, 3]],
            vec![vec![0, 1], vec![2]],
        ] {
            let m = Mapping::new(teams).unwrap();
            let sys = System::new(app.clone(), platform.clone(), m.clone()).unwrap();
            let cold = exponential::throughput_strict(&sys, RunConfig::default()).unwrap();
            let s = scorer.score(std::slice::from_ref(&m)).unwrap();
            assert_eq!(cold.to_bits(), s[0].to_bits(), "{:?}", m.teams());
        }
        // Same-shape candidates share one chain structure.
        let m = Mapping::new(vec![vec![4, 1], vec![3]]).unwrap();
        scorer.score(std::slice::from_ref(&m)).unwrap();
        assert!(scorer.cache_stats().strict_hits >= 1);
    }

    #[test]
    fn invalid_candidate_is_reported_not_scored() {
        let (app, platform) = instance();
        let workload = one_app(&app, &platform);
        let mut scorer = WorkloadDetScorer::new(workload.as_ref(), ExecModel::Overlap);
        let bad = Mapping::new(vec![vec![0], vec![1], vec![2], vec![42]]).unwrap();
        assert!(matches!(
            scorer.score(std::slice::from_ref(&bad)),
            Err(ModelError::UnknownProcessor { proc: 42 })
        ));
        assert_eq!(scorer.evaluations(), 0);
    }

    #[test]
    fn workload_det_scorer_matches_cold_contended_tables() {
        let (app, platform) = instance();
        let workload = Workload::new(
            vec![App::new(app.clone()), App::new(app.clone())],
            platform.clone(),
        )
        .unwrap();
        let joint = JointMapping::new(vec![
            Mapping::new(vec![vec![0], vec![1, 2], vec![3, 4, 5], vec![6]]).unwrap(),
            Mapping::new(vec![vec![7], vec![3, 4], vec![0, 1, 2], vec![8]]).unwrap(),
        ])
        .unwrap();
        let mut scorer = WorkloadDetScorer::new(workload.as_ref(), ExecModel::Overlap);
        let scores = scorer.score(joint.mappings()).unwrap();
        let cold: Vec<f64> = timing::contended_times(&workload, &joint)
            .iter()
            .zip(joint.mappings())
            .map(|(t, m)| deterministic::throughput_columnwise_shape(&m.shape(), t))
            .collect();
        for (k, (s, c)) in scores.iter().zip(cold.iter()).enumerate() {
            assert_eq!(s.to_bits(), c.to_bits(), "app {k}");
        }
        // Contention must actually bite: both apps share procs 0..=4.
        let solo = one_app(&app, &platform);
        let alone = WorkloadDetScorer::new(solo.as_ref(), ExecModel::Overlap)
            .score(&joint.mappings()[..1])
            .unwrap()[0];
        assert!(scores[0] < alone, "{} !< {alone}", scores[0]);
    }

    #[test]
    fn workload_exp_scorer_shares_one_chain_cache_across_apps() {
        // Two apps with the same replication shape: one Strict BFS total.
        let app = Application::uniform(2, 6.0, 12.0).unwrap();
        let platform = Platform::complete(vec![1.0; 8], 2.0).unwrap();
        let workload = Workload::new(vec![App::new(app.clone()), App::new(app)], platform).unwrap();
        let joint = JointMapping::new(vec![
            Mapping::new(vec![vec![0, 1], vec![2, 3]]).unwrap(),
            Mapping::new(vec![vec![4, 5], vec![6, 7]]).unwrap(),
        ])
        .unwrap();
        let mut scorer = WorkloadExpScorer::new(workload.as_ref(), ExecModel::Strict);
        scorer.score(joint.mappings()).unwrap();
        let stats = scorer.cache_stats();
        assert_eq!(
            stats.strict_misses, 1,
            "two same-shape apps must pay exactly one marking-graph build"
        );
        assert!(stats.strict_hits >= 1, "second app must hit the cache");
    }
}
