//! Single-candidate scorers with cross-candidate reuse.
//!
//! [`DetScorer`] evaluates the deterministic (columnwise, Theorem 1)
//! throughput of a candidate mapping; [`ExpScorer`] the exponential one
//! (Theorem 3/4 decomposition for Overlap, the Theorem 2 chain for
//! Strict).  Both borrow the application and platform once and reuse
//! work across candidates:
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
//! [`exponential::throughput_strict`]); the engine's property tests pin
//! this.

use repstream_core::exponential::{self, ChainSolver, ExpError};
use repstream_core::model::{
    Application, JointMapping, Mapping, ModelError, Platform, SystemRef, WorkloadRef,
};
use repstream_core::timing::Contention;
use repstream_core::{deterministic, timing};
use repstream_markov::cache::ChainCache;
use repstream_markov::fxhash::FxHashMap;
use repstream_markov::govern::RunConfig;
use repstream_petri::shape::{ExecModel, MappingShape, Resource, ResourceTable};

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

/// Deterministic throughput scorer with pattern-period memoization.
#[derive(Debug)]
pub struct DetScorer<'a> {
    app: &'a Application,
    platform: &'a Platform,
    model: ExecModel,
    memo: PatternMemo,
    /// Reused weight buffer for memo keys.
    scratch: Vec<f64>,
    evaluations: usize,
}

impl<'a> DetScorer<'a> {
    /// Scorer over one application/platform pair.
    pub fn new(app: &'a Application, platform: &'a Platform, model: ExecModel) -> DetScorer<'a> {
        DetScorer {
            app,
            platform,
            model,
            memo: PatternMemo::default(),
            scratch: Vec::new(),
            evaluations: 0,
        }
    }

    /// The execution model being scored.
    pub fn model(&self) -> ExecModel {
        self.model
    }

    /// Candidates scored so far.
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// Pattern-period memo `(hits, misses)`.
    pub fn memo_stats(&self) -> (usize, usize) {
        self.memo.stats()
    }

    /// Deterministic throughput of a candidate mapping — bitwise equal to
    /// [`deterministic::throughput_columnwise`] (Overlap) or
    /// [`deterministic::analyze`] (Strict) on the same triple.
    pub fn score(&mut self, mapping: &Mapping) -> Result<f64, ModelError> {
        let system = SystemRef::new(self.app, self.platform, mapping)?;
        self.evaluations += 1;
        match self.model {
            ExecModel::Overlap => {
                let times = timing::deterministic_times(system);
                Ok(columnwise_with_memo(
                    system,
                    &times,
                    &mut self.memo,
                    &mut self.scratch,
                ))
            }
            ExecModel::Strict => Ok(deterministic::analyze(system, self.model).throughput),
        }
    }
}

/// Exponential throughput scorer with structure-keyed chain reuse
/// (generic over the chain oracle so a test can substitute a recording
/// fake; every production caller scores through a [`ChainCache`]).
#[derive(Debug)]
pub struct ExpScorer<'a, S = ChainCache> {
    app: &'a Application,
    platform: &'a Platform,
    model: ExecModel,
    opts: RunConfig,
    cache: S,
    evaluations: usize,
}

impl<'a> ExpScorer<'a> {
    /// Scorer over one application/platform pair with the default
    /// [`RunConfig`] and a cold cache.
    pub fn new(app: &'a Application, platform: &'a Platform, model: ExecModel) -> ExpScorer<'a> {
        Self::with_cache(
            app,
            platform,
            model,
            RunConfig::default(),
            ChainCache::new(),
        )
    }

    /// Chain-cache hit/miss counters.
    pub fn cache_stats(&self) -> repstream_markov::cache::CacheStats {
        self.cache.stats()
    }
}

impl<'a, S: ChainSolver> ExpScorer<'a, S> {
    /// As [`ExpScorer::new`] under an explicit [`RunConfig`], seeding the
    /// scorer with an already-warm [`ChainCache`] (a served search hands
    /// a pooled cache in so repeated shapes skip their BFS across
    /// requests).
    pub fn with_cache(
        app: &'a Application,
        platform: &'a Platform,
        model: ExecModel,
        opts: RunConfig,
        cache: S,
    ) -> ExpScorer<'a, S> {
        ExpScorer {
            app,
            platform,
            model,
            opts,
            cache,
            evaluations: 0,
        }
    }

    /// Surrender the chain cache (warm entries included) to the caller —
    /// the inverse of [`ExpScorer::with_cache`].
    pub fn into_cache(self) -> S {
        self.cache
    }

    /// Candidates scored so far.
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// Exponential throughput of a candidate mapping — bitwise equal to
    /// [`exponential::throughput_overlap`] (Overlap) or
    /// [`exponential::throughput_strict`] (Strict) on the same triple.
    pub fn score(&mut self, mapping: &Mapping) -> Result<f64, ExpScoreError> {
        let system =
            SystemRef::new(self.app, self.platform, mapping).map_err(ExpScoreError::Model)?;
        self.evaluations += 1;
        let rates = timing::exponential_rates(system);
        exp_throughput(
            self.model,
            &system.shape(),
            &rates,
            self.opts,
            &mut self.cache,
        )
    }
}

/// Exponential throughput of one shape under per-resource `rates` — the
/// Theorem 3/4 decomposition (Overlap) or the Theorem 2 chain (Strict),
/// both through `solver`: the common kernel of [`ExpScorer`] and
/// [`WorkloadExpScorer`].
fn exp_throughput(
    model: ExecModel,
    shape: &MappingShape,
    rates: &ResourceTable<f64>,
    opts: RunConfig,
    solver: &mut impl ChainSolver,
) -> Result<f64, ExpScoreError> {
    match model {
        ExecModel::Overlap => {
            exponential::throughput_overlap_with_solver(shape, rates, opts, solver)
                .map(|r| r.throughput)
        }
        ExecModel::Strict => solver
            .strict_solve(shape, rates, opts)
            .map(|s| s.throughput)
            .map_err(ExpError::MarkingGraph),
    }
    .map_err(ExpScoreError::Exp)
}

/// Columnwise throughput of one app's table with the shared pattern
/// memo — the common kernel of [`DetScorer`] and [`WorkloadDetScorer`].
fn columnwise_with_memo(
    system: SystemRef<'_>,
    times: &ResourceTable<f64>,
    memo: &mut PatternMemo,
    scratch: &mut Vec<f64>,
) -> f64 {
    let shape = system.shape();
    deterministic::throughput_columnwise_with_periods(
        &shape,
        times,
        &mut |file, comp, g, up, vp| {
            // Same weight layout as `pattern_period`: row k is the link
            // (k mod u′) → (k mod v′) of the component.
            scratch.clear();
            scratch.extend((0..up * vp).map(|k| {
                *times.get(Resource::Link {
                    file,
                    src: comp + g * (k % up),
                    dst: comp + g * (k % vp),
                })
            }));
            memo.period(up, vp, scratch)
        },
    )
}

/// Deterministic **per-app** throughput scorer for joint candidates of a
/// K-app workload, with one [`PatternMemo`] shared across apps and
/// candidates.
///
/// Each score builds the contended time tables
/// ([`timing::contended_times`]) and evaluates every app's columnwise
/// throughput against them — bitwise what the cold path computes, and
/// for K = 1 bitwise what [`DetScorer`] returns on the same mapping.
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

    /// Contended per-app deterministic throughputs of a joint candidate,
    /// appended to `out` (cleared first).
    pub fn score_into(
        &mut self,
        joint: &JointMapping,
        out: &mut Vec<f64>,
    ) -> Result<(), ModelError> {
        self.workload.validate(joint)?;
        self.evaluations += 1;
        out.clear();
        self.contention.refill_from_joint(joint);
        let contention = &self.contention;
        for k in 0..self.workload.n_apps() {
            let system = self.workload.system_of(k, joint);
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
    pub fn score(&mut self, joint: &JointMapping) -> Result<Vec<f64>, ModelError> {
        let mut out = Vec::with_capacity(self.workload.n_apps());
        self.score_into(joint, &mut out)?;
        Ok(out)
    }
}

/// Exponential **per-app** throughput scorer for joint candidates, with
/// **one** [`ChainCache`] shared across apps and candidates — two apps
/// with the same replication shape (same `TpnSignature`) pay one
/// marking-graph BFS, the designed stress-test for the cache.
#[derive(Debug)]
pub struct WorkloadExpScorer<'a, S = ChainCache> {
    workload: WorkloadRef<'a>,
    model: ExecModel,
    opts: RunConfig,
    cache: S,
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
    /// scoring through a caller-supplied chain oracle.
    pub fn with_cache(
        workload: WorkloadRef<'a>,
        model: ExecModel,
        opts: RunConfig,
        cache: S,
    ) -> WorkloadExpScorer<'a, S> {
        WorkloadExpScorer {
            workload,
            model,
            opts,
            cache,
            evaluations: 0,
        }
    }

    /// Surrender the chain oracle to the caller.
    pub fn into_cache(self) -> S {
        self.cache
    }

    /// Candidates scored so far.
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// Contended per-app exponential throughputs of a joint candidate.
    pub fn score(&mut self, joint: &JointMapping) -> Result<Vec<f64>, ExpScoreError> {
        self.workload
            .validate(joint)
            .map_err(ExpScoreError::Model)?;
        self.evaluations += 1;
        let contention = Contention::from_joint(joint, self.workload.platform().n_processors());
        let mut out = Vec::with_capacity(self.workload.n_apps());
        for k in 0..self.workload.n_apps() {
            let system = self.workload.system_of(k, joint);
            let rates = timing::contended_system_times(system, &contention).map(|_, &t| 1.0 / t);
            out.push(exp_throughput(
                self.model,
                &system.shape(),
                &rates,
                self.opts,
                &mut self.cache,
            )?);
        }
        Ok(out)
    }
}

/// Errors of [`ExpScorer::score`].
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
    use repstream_core::model::System;

    fn instance() -> (Application, Platform) {
        repstream_workload::scenarios::mapping_search()
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
        let mut scorer = DetScorer::new(&app, &platform, ExecModel::Overlap);
        for m in mappings() {
            let cold = deterministic::throughput_columnwise(
                &System::new(app.clone(), platform.clone(), m.clone()).unwrap(),
            );
            let s = scorer.score(&m).unwrap();
            assert_eq!(cold.to_bits(), s.to_bits(), "{:?}", m.teams());
            // Scoring the same candidate again hits the memo and must not
            // change the value.
            let again = scorer.score(&m).unwrap();
            assert_eq!(s.to_bits(), again.to_bits());
        }
        let (hits, _) = scorer.memo_stats();
        assert!(hits > 0, "uniform-bandwidth platform must hit the memo");
    }

    #[test]
    fn det_scorer_strict_matches_analyze() {
        let (app, platform) = instance();
        let mut scorer = DetScorer::new(&app, &platform, ExecModel::Strict);
        let m = &mappings()[0];
        let cold = deterministic::analyze(
            &System::new(app.clone(), platform.clone(), m.clone()).unwrap(),
            ExecModel::Strict,
        )
        .throughput;
        assert_eq!(cold.to_bits(), scorer.score(m).unwrap().to_bits());
    }

    #[test]
    fn exp_scorer_matches_cold_overlap_bitwise() {
        let (app, platform) = instance();
        let mut scorer = ExpScorer::new(&app, &platform, ExecModel::Overlap);
        for m in mappings() {
            let sys = System::new(app.clone(), platform.clone(), m.clone()).unwrap();
            let cold = exponential::throughput_overlap(&sys).unwrap().throughput;
            let s = scorer.score(&m).unwrap();
            assert_eq!(cold.to_bits(), s.to_bits(), "{:?}", m.teams());
        }
    }

    #[test]
    fn exp_scorer_matches_cold_strict_bitwise() {
        let app = Application::uniform(2, 6.0, 12.0).unwrap();
        let platform = Platform::complete(vec![1.0; 5], 2.0).unwrap();
        let mut scorer = ExpScorer::new(&app, &platform, ExecModel::Strict);
        for teams in [
            vec![vec![0], vec![1]],
            vec![vec![0, 1], vec![2, 3]],
            vec![vec![0, 1], vec![2]],
        ] {
            let m = Mapping::new(teams).unwrap();
            let sys = System::new(app.clone(), platform.clone(), m.clone()).unwrap();
            let cold = exponential::throughput_strict(&sys, RunConfig::default()).unwrap();
            let s = scorer.score(&m).unwrap();
            assert_eq!(cold.to_bits(), s.to_bits(), "{:?}", m.teams());
        }
        // Same-shape candidates share one chain structure.
        let m = Mapping::new(vec![vec![4, 1], vec![3]]).unwrap();
        scorer.score(&m).unwrap();
        assert!(scorer.cache_stats().strict_hits >= 1);
    }

    #[test]
    fn invalid_candidate_is_reported_not_scored() {
        let (app, platform) = instance();
        let mut scorer = DetScorer::new(&app, &platform, ExecModel::Overlap);
        let bad = Mapping::new(vec![vec![0], vec![1], vec![2], vec![42]]).unwrap();
        assert!(matches!(
            scorer.score(&bad),
            Err(ModelError::UnknownProcessor { proc: 42 })
        ));
        assert_eq!(scorer.evaluations(), 0);
    }

    use repstream_core::model::{App, Workload};

    #[test]
    fn workload_det_scorer_k1_matches_det_scorer_bitwise() {
        let (app, platform) = instance();
        let workload = Workload::new(vec![App::new(app.clone())], platform.clone()).unwrap();
        for model in [ExecModel::Overlap, ExecModel::Strict] {
            let mut single = DetScorer::new(&app, &platform, model);
            let mut joint = WorkloadDetScorer::new(workload.as_ref(), model);
            for m in mappings() {
                let s = single.score(&m).unwrap();
                let j = joint.score(&m.clone().into()).unwrap();
                assert_eq!(j.len(), 1);
                assert_eq!(s.to_bits(), j[0].to_bits(), "{model:?} {:?}", m.teams());
            }
        }
    }

    #[test]
    fn workload_det_scorer_matches_cold_contended_tables() {
        let (app, platform) = instance();
        let workload = Workload::new(vec![App::new(app.clone()), App::new(app)], platform).unwrap();
        let joint = JointMapping::new(vec![
            Mapping::new(vec![vec![0], vec![1, 2], vec![3, 4, 5], vec![6]]).unwrap(),
            Mapping::new(vec![vec![7], vec![3, 4], vec![0, 1, 2], vec![8]]).unwrap(),
        ])
        .unwrap();
        let mut scorer = WorkloadDetScorer::new(workload.as_ref(), ExecModel::Overlap);
        let scores = scorer.score(&joint).unwrap();
        let cold: Vec<f64> = timing::contended_times(&workload, &joint)
            .iter()
            .zip(joint.mappings())
            .map(|(t, m)| deterministic::throughput_columnwise_shape(&m.shape(), t))
            .collect();
        for (k, (s, c)) in scores.iter().zip(cold.iter()).enumerate() {
            assert_eq!(s.to_bits(), c.to_bits(), "app {k}");
        }
        // Contention must actually bite: both apps share procs 0..=4.
        let mut solo = DetScorer::new(
            workload.app(0).application(),
            workload.platform(),
            ExecModel::Overlap,
        );
        let alone = solo.score(joint.mapping(0)).unwrap();
        assert!(scores[0] < alone, "{} !< {alone}", scores[0]);
    }

    #[test]
    fn workload_exp_scorer_k1_matches_exp_scorer_bitwise() {
        let (app, platform) = instance();
        let workload = Workload::new(vec![App::new(app.clone())], platform.clone()).unwrap();
        let mut single = ExpScorer::new(&app, &platform, ExecModel::Overlap);
        let mut joint = WorkloadExpScorer::new(workload.as_ref(), ExecModel::Overlap);
        for m in mappings() {
            let s = single.score(&m).unwrap();
            let j = joint.score(&m.clone().into()).unwrap();
            assert_eq!(s.to_bits(), j[0].to_bits(), "{:?}", m.teams());
        }
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
        scorer.score(&joint).unwrap();
        let stats = scorer.cache_stats();
        assert_eq!(
            stats.strict_misses, 1,
            "two same-shape apps must pay exactly one marking-graph build"
        );
        assert!(stats.strict_hits >= 1, "second app must hit the cache");
    }
}
