//! The portfolio search driver.
//!
//! No single heuristic dominates mapping construction: greedy seeding is
//! strong when one stage dominates, random restarts cover rugged
//! landscapes, and hill climbing polishes both.  The portfolio runs all
//! of them on the shared engine machinery and (optionally) re-ranks the
//! deterministic finalists under exponential variability — Theorem 7:
//! variability punishes replicated columns, so the deterministic winner
//! is not always the robust one.
//!
//! Pipeline (all deterministic given the seed):
//!
//! 1. **greedy** ([`mapping_opt::greedy`]) — one candidate;
//! 2. **random batch** — `random_candidates` seeded mappings scored
//!    chunk-parallel by [`crate::batch::score_batch`];
//! 3. **hill climb** — from the best `hill_climb_starts` distinct
//!    candidates, first-improvement single-processor moves scored
//!    `O(affected)` by [`DeltaScorer`];
//! 4. **re-rank** — the top `finalists` by deterministic score are
//!    re-scored by [`ExpScorer`] (chain-cache backed) and the best
//!    exponential candidate wins.

use crate::batch::{self, BatchError};
use crate::delta::{DeltaScorer, JointDeltaScorer};
use crate::score::{ExpScoreError, ExpScorer, WorkloadDetScorer, WorkloadExpScorer};
use repstream_core::exponential::ChainSolver;
use repstream_core::mapping_opt::{self, OptError};
use repstream_core::model::{
    App, Application, JointMapping, Mapping, ModelError, Platform, ProcId, WorkloadRef,
};
use repstream_markov::cache::{CacheStats, ChainCache};
use repstream_markov::govern::{Interrupt, Phase, Progress, RunConfig};
use repstream_markov::marking::MarkingError;
use repstream_petri::shape::ExecModel;
use repstream_workload::random::{random_joint_mappings, random_mappings};

/// Errors of the portfolio driver.
#[derive(Debug)]
pub enum EngineError {
    /// Candidate validation failed.
    Model(ModelError),
    /// A constructive heuristic failed (e.g. too few processors).
    Opt(OptError),
    /// The exponential re-rank failed (chain too large).
    Exp(ExpScoreError),
    /// The search budget fired (deadline / cancel / memory cap).
    Interrupted(Interrupt),
}

impl EngineError {
    /// The governor interrupt behind this error, if that is what it is —
    /// either a direct search-phase abort or one surfaced through a
    /// governed re-rank chain build/solve.
    pub fn interrupt(&self) -> Option<Interrupt> {
        match self {
            EngineError::Interrupted(i) => Some(*i),
            EngineError::Exp(e) => e.interrupt(),
            EngineError::Model(_) | EngineError::Opt(_) => None,
        }
    }

    /// `true` when a re-rank chain outgrew [`RunConfig::max_states`] — a
    /// sizing problem (exit class 3), not a configuration error.
    pub fn over_budget(&self) -> bool {
        matches!(self, EngineError::Exp(ExpScoreError::Exp(e))
            if matches!(e.marking(), MarkingError::TooManyStates(_)))
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Model(e) => write!(f, "model: {e}"),
            EngineError::Opt(e) => write!(f, "heuristic: {e}"),
            EngineError::Exp(e) => write!(f, "re-rank: {e}"),
            EngineError::Interrupted(i) => write!(f, "search: {i}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ModelError> for EngineError {
    fn from(e: ModelError) -> Self {
        EngineError::Model(e)
    }
}

impl From<OptError> for EngineError {
    fn from(e: OptError) -> Self {
        EngineError::Opt(e)
    }
}

impl From<Interrupt> for EngineError {
    fn from(i: Interrupt) -> Self {
        EngineError::Interrupted(i)
    }
}

impl From<BatchError> for EngineError {
    fn from(e: BatchError) -> Self {
        match e {
            BatchError::Model(e) => EngineError::Model(e),
            BatchError::Interrupted(i) => EngineError::Interrupted(i),
        }
    }
}

/// Options of [`portfolio_search`].
#[derive(Debug, Clone, Copy)]
pub struct PortfolioOptions {
    /// Execution model to score under.
    pub model: ExecModel,
    /// Seeded random candidates scored in the batch phase.
    pub random_candidates: usize,
    /// Master seed (the whole search is deterministic in it).
    pub seed: u64,
    /// Distinct best candidates used as hill-climb starting points.
    pub hill_climb_starts: usize,
    /// Hill-climb round cap per start.
    pub hill_climb_rounds: usize,
    /// Deterministic finalists re-ranked exponentially.
    pub finalists: usize,
    /// Re-rank finalists under exponential times (Theorem 7).
    pub exp_rerank: bool,
    /// How the re-rank chains are built and solved.  Its
    /// [`RunConfig::budget`] also governs the search itself: checked per
    /// candidate sub-batch in the random phase and per finalist in the
    /// re-rank phase.
    pub run: RunConfig,
}

impl Default for PortfolioOptions {
    fn default() -> Self {
        PortfolioOptions {
            model: ExecModel::Overlap,
            random_candidates: 512,
            seed: 2010,
            hill_climb_starts: 3,
            hill_climb_rounds: 32,
            finalists: 4,
            exp_rerank: true,
            run: RunConfig::default(),
        }
    }
}

/// One scored candidate of the portfolio.
#[derive(Debug, Clone)]
pub struct PortfolioCandidate {
    /// Which phase produced it (`"greedy"`, `"random"`, `"hill-climb"`).
    pub origin: &'static str,
    /// The mapping.
    pub mapping: Mapping,
    /// Deterministic throughput under the chosen model.
    pub det: f64,
    /// Exponential throughput (finalists only, when re-ranking is on).
    pub exp: Option<f64>,
}

/// Result of [`portfolio_search`].
#[derive(Debug, Clone)]
pub struct PortfolioReport {
    /// The winner: best exponential score when re-ranked, best
    /// deterministic score otherwise.
    pub best: PortfolioCandidate,
    /// All finalists, sorted best-first by the ranking score.
    pub finalists: Vec<PortfolioCandidate>,
    /// Full deterministic candidate evaluations of the batch phase
    /// (greedy internals are not counted; the hill climbers' work shows
    /// up as [`PortfolioReport::delta_recomputes`]).
    pub det_evaluations: usize,
    /// `O(affected)` column re-evaluations spent by the hill climbers.
    pub delta_recomputes: usize,
    /// Exponential evaluations spent on the finalists.
    pub exp_evaluations: usize,
    /// Chain-cache hit/miss counters of the exponential re-rank.
    pub exp_cache: CacheStats,
}

/// Hill-climb `start` by first-improvement single-processor moves
/// (including drops), re-scoring `O(affected)` columns per probe.  A
/// processor moves from a team of two or more to any other team, or is
/// dropped; singleton teams stay.
fn hill_climb(
    scorer: &mut DeltaScorer<'_>,
    max_rounds: usize,
) -> Result<(Mapping, f64), ModelError> {
    let n = scorer.teams().len();
    let mut best = scorer.score();
    for _ in 0..max_rounds {
        let mut improved = false;
        'moves: for from in 0..n {
            for pos in 0..scorer.teams()[from].len() {
                if scorer.teams()[from].len() == 1 {
                    continue; // teams must stay non-empty
                }
                let p = scorer.remove(from, pos);
                // Every destination, plus dropping the processor.
                for to in (0..n).chain(std::iter::once(usize::MAX)) {
                    if to == from {
                        continue;
                    }
                    let s = if to == usize::MAX {
                        scorer.score()
                    } else {
                        scorer.insert(to, scorer.teams()[to].len(), p);
                        scorer.score()
                    };
                    if s > best + 1e-12 {
                        best = s;
                        improved = true;
                        continue 'moves;
                    }
                    if to != usize::MAX {
                        scorer.remove(to, scorer.teams()[to].len() - 1);
                    }
                }
                scorer.insert(from, pos, p); // undo
            }
        }
        if !improved {
            break;
        }
    }
    Ok((scorer.mapping()?, best))
}

/// Run the portfolio (see the module docs).
///
/// ```
/// use repstream_engine::{portfolio_search, PortfolioOptions};
/// use repstream_core::model::{Application, Platform};
///
/// // A 3-stage chain on 6 processors; a small seeded batch keeps the
/// // example fast — searches scale `random_candidates` into the
/// // thousands (the batch phase is chunk-parallel).
/// let app = Application::uniform(3, 6.0, 12.0).unwrap();
/// let platform = Platform::complete(vec![1.0, 2.0, 1.0, 2.0, 1.0, 2.0], 4.0).unwrap();
/// let report = portfolio_search(
///     &app,
///     &platform,
///     PortfolioOptions {
///         random_candidates: 32,
///         seed: 7,
///         ..Default::default()
///     },
/// )
/// .unwrap();
///
/// // The winner carries both scores, and the whole run is deterministic
/// // in the seed.
/// assert!(report.best.det > 0.0);
/// assert!(report.best.exp.unwrap() <= report.best.det + 1e-9);
/// assert!(!report.finalists.is_empty());
/// ```
pub fn portfolio_search(
    app: &Application,
    platform: &Platform,
    opts: PortfolioOptions,
) -> Result<PortfolioReport, EngineError> {
    portfolio_search_cached(app, platform, opts, ChainCache::new()).0
}

/// As [`portfolio_search`], seeded with an existing [`ChainCache`] and
/// returning it afterwards — warm or cold, success or failure — so a
/// resident server can pool chain caches across search requests (shapes
/// revisited by later searches skip their marking BFS entirely).
///
/// Scoring through a warm cache is bitwise identical to a cold search:
/// the cache equivalence tests pin cached solves to cold builds, so the
/// only observable difference is [`PortfolioReport::exp_cache`]'s
/// hit/miss split (counters are cumulative across the cache's life).
pub fn portfolio_search_cached(
    app: &Application,
    platform: &Platform,
    opts: PortfolioOptions,
    cache: ChainCache,
) -> (Result<PortfolioReport, EngineError>, ChainCache) {
    let (result, cache) = portfolio_search_with(app, platform, opts, cache);
    let result = result.map(|report| PortfolioReport {
        exp_cache: cache.stats(),
        ..report
    });
    (result, cache)
}

/// [`portfolio_search_cached`] over any chain oracle (the plumbing tests
/// pass a recording fake); `exp_cache` is left for the caller that knows
/// its oracle keeps counters.
fn portfolio_search_with<S: ChainSolver>(
    app: &Application,
    platform: &Platform,
    opts: PortfolioOptions,
    solver: S,
) -> (Result<PortfolioReport, EngineError>, S) {
    let mut exp_scorer = ExpScorer::with_cache(app, platform, opts.model, opts.run, solver);
    let result = portfolio_phases(app, platform, opts, &mut exp_scorer);
    (result, exp_scorer.into_cache())
}

/// The four search phases, generic over an externally-owned scorer so
/// [`portfolio_search_with`] can recover the oracle on every path.
fn portfolio_phases<'a, S: ChainSolver>(
    app: &'a Application,
    platform: &'a Platform,
    opts: PortfolioOptions,
    exp_scorer: &mut ExpScorer<'a, S>,
) -> Result<PortfolioReport, EngineError> {
    let mut det_evaluations = 0usize;
    let mut delta_recomputes = 0usize;

    // Phase 1: greedy seeding.
    let greedy = mapping_opt::greedy(app, platform, opts.model)?;
    let mut pool: Vec<PortfolioCandidate> = vec![PortfolioCandidate {
        origin: "greedy",
        mapping: greedy.mapping,
        det: greedy.throughput,
        exp: None,
    }];

    // Phase 2: parallel random batch.
    let candidates = random_mappings(
        app.n_stages(),
        platform.n_processors(),
        opts.random_candidates,
        opts.seed,
    );
    let scores =
        batch::score_batch_governed(app, platform, opts.model, &candidates, &opts.run.budget)?;
    det_evaluations += scores.len();
    // Best-first candidate order (deterministic: total_cmp, then index).
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    if let Some(&i) = order.first() {
        pool.push(PortfolioCandidate {
            origin: "random",
            mapping: candidates[i].clone(),
            det: scores[i],
            exp: None,
        });
    }

    // Phase 3: hill climbs from the best distinct candidates (greedy
    // included).  Delta scoring only covers the columnwise Overlap
    // evaluation; Strict searches skip this phase.
    if opts.model == ExecModel::Overlap && opts.hill_climb_starts > 0 {
        let mut starts: Vec<Mapping> = vec![pool[0].mapping.clone()];
        for &i in order.iter() {
            if starts.len() >= opts.hill_climb_starts {
                break;
            }
            if starts.iter().all(|m| m.teams() != candidates[i].teams()) {
                starts.push(candidates[i].clone());
            }
        }
        for start in starts {
            let mut scorer = DeltaScorer::new(app, platform, &start)?;
            let (mapping, det) = hill_climb(&mut scorer, opts.hill_climb_rounds)?;
            delta_recomputes += scorer.recomputes();
            pool.push(PortfolioCandidate {
                origin: "hill-climb",
                mapping,
                det,
                exp: None,
            });
        }
    }

    // Phase 4: finalists + optional exponential re-rank.
    pool.sort_by(|a, b| b.det.total_cmp(&a.det));
    let mut seen = std::collections::HashSet::new();
    pool.retain(|c| seen.insert(c.mapping.teams().to_vec()));
    pool.truncate(opts.finalists.max(1));
    if opts.exp_rerank {
        for (idx, c) in pool.iter_mut().enumerate() {
            opts.run.budget.check(Progress {
                phase: Phase::Search,
                states: 0,
                levels: 0,
                iterations: idx,
                arena_bytes: 0,
            })?;
            c.exp = Some(exp_scorer.score(&c.mapping).map_err(EngineError::Exp)?);
        }
        pool.sort_by(|a, b| {
            let (ea, eb) = (a.exp.unwrap_or(a.det), b.exp.unwrap_or(b.det));
            eb.total_cmp(&ea).then(b.det.total_cmp(&a.det))
        });
    }

    Ok(PortfolioReport {
        best: pool[0].clone(),
        finalists: pool,
        det_evaluations,
        delta_recomputes,
        exp_evaluations: exp_scorer.evaluations(),
        exp_cache: CacheStats::default(),
    })
}

/// Scalarization of per-app throughputs into one joint-search objective.
///
/// The three objectives of the multi-app resource-allocation papers
/// (PAPERS.md): egalitarian, utilitarian, and contractual.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// Max-min fairness: maximize `min_k ρ_k / w_k` (weights stretch an
    /// app's fair share).
    #[default]
    MaxMin,
    /// Weighted sum: maximize `Σ_k w_k · ρ_k`.
    Weighted,
    /// SLA feasibility: maximize `min_k ρ_k / sla_k` over the apps that
    /// declare an SLA (≥ 1 means every declared SLA is met).  Degenerates
    /// to [`Objective::MaxMin`] when no app declares one.
    Sla,
}

impl Objective {
    /// Parse a CLI spelling (`maxmin`, `weighted`, `sla`).
    pub fn parse(s: &str) -> Option<Objective> {
        match s {
            "maxmin" | "max-min" => Some(Objective::MaxMin),
            "weighted" | "sum" => Some(Objective::Weighted),
            "sla" => Some(Objective::Sla),
            _ => None,
        }
    }

    /// Canonical CLI spelling.
    pub fn label(&self) -> &'static str {
        match self {
            Objective::MaxMin => "maxmin",
            Objective::Weighted => "weighted",
            Objective::Sla => "sla",
        }
    }

    /// Objective value of per-app throughputs `per_app` (larger is
    /// better for every variant).
    pub fn value(&self, apps: &[App], per_app: &[f64]) -> f64 {
        debug_assert_eq!(apps.len(), per_app.len());
        match self {
            Objective::MaxMin => apps
                .iter()
                .zip(per_app)
                .map(|(a, &rho)| rho / a.weight())
                .fold(f64::INFINITY, f64::min),
            Objective::Weighted => apps
                .iter()
                .zip(per_app)
                .map(|(a, &rho)| a.weight() * rho)
                .sum(),
            Objective::Sla => {
                let mut worst = f64::INFINITY;
                let mut declared = false;
                for (a, &rho) in apps.iter().zip(per_app) {
                    if let Some(sla) = a.sla() {
                        declared = true;
                        worst = worst.min(rho / sla);
                    }
                }
                if declared {
                    worst
                } else {
                    Objective::MaxMin.value(apps, per_app)
                }
            }
        }
    }
}

/// Options of [`workload_search`]: the four phases are
/// [`portfolio_search`]'s, with the same knobs, run over joint candidates
/// and ranked by one more.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkloadSearchOptions {
    /// Scalarization of per-app throughputs.
    pub objective: Objective,
    /// Model, batch size, seed, hill-climb and re-rank knobs, and the
    /// [`RunConfig`] of the re-rank chains.
    pub portfolio: PortfolioOptions,
}

/// One scored joint candidate of the workload search.
#[derive(Debug, Clone)]
pub struct WorkloadCandidate {
    /// Which phase produced it (`"greedy"`, `"random"`, `"hill-climb"`).
    pub origin: &'static str,
    /// The joint mapping.
    pub joint: JointMapping,
    /// Contended deterministic throughput per app.
    pub per_app: Vec<f64>,
    /// Deterministic objective value.
    pub objective: f64,
    /// Contended exponential throughput per app (finalists only, when
    /// re-ranking is on).
    pub exp_per_app: Option<Vec<f64>>,
    /// Exponential objective value (as above).
    pub exp_objective: Option<f64>,
}

/// How much of the platform a joint mapping actually shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContentionSummary {
    /// Processors used by ≥ 2 apps.
    pub shared_processors: usize,
    /// Directed links used by ≥ 2 apps.
    pub shared_links: usize,
    /// Largest number of apps on one processor.
    pub max_processor_users: usize,
}

/// Compute the [`ContentionSummary`] of a joint mapping.
pub fn contention_summary(joint: &JointMapping, n_procs: usize) -> ContentionSummary {
    let mut proc_users = vec![0usize; n_procs];
    let mut link_users: std::collections::HashMap<(ProcId, ProcId), usize> =
        std::collections::HashMap::new();
    for mapping in joint.mappings() {
        for team in mapping.teams() {
            for &p in team {
                proc_users[p] += 1;
            }
        }
        for file in 0..mapping.n_stages().saturating_sub(1) {
            for &p in mapping.team(file) {
                for &q in mapping.team(file + 1) {
                    *link_users.entry((p, q)).or_insert(0) += 1;
                }
            }
        }
    }
    ContentionSummary {
        shared_processors: proc_users.iter().filter(|&&u| u >= 2).count(),
        shared_links: link_users.values().filter(|&&u| u >= 2).count(),
        max_processor_users: proc_users.iter().copied().max().unwrap_or(0),
    }
}

/// Result of [`workload_search`].
#[derive(Debug, Clone)]
pub struct WorkloadSearchReport {
    /// The winner: best exponential objective when re-ranked, best
    /// deterministic objective otherwise.
    pub best: WorkloadCandidate,
    /// All finalists, sorted best-first by the ranking objective.
    pub finalists: Vec<WorkloadCandidate>,
    /// Full deterministic joint-candidate evaluations.
    pub det_evaluations: usize,
    /// `O(affected)` column re-evaluations spent by the hill climbers.
    pub delta_recomputes: usize,
    /// Exponential joint evaluations spent on the finalists.
    pub exp_evaluations: usize,
    /// Chain-cache hit/miss counters of the exponential re-rank — one
    /// cache shared across **all apps and finalists**, so same-shape
    /// apps pay one marking-graph build.
    pub exp_cache: CacheStats,
    /// Platform sharing of the winner.
    pub contention: ContentionSummary,
}

/// Hill-climb the joint mapping by first-improvement single-processor
/// moves within each app (including drops), re-scoring `O(affected)`
/// columns per probe — co-located apps' contention terms included.
fn hill_climb_joint(
    scorer: &mut JointDeltaScorer<'_>,
    apps: &[App],
    objective: Objective,
    max_rounds: usize,
    buf: &mut Vec<f64>,
) -> Result<(JointMapping, f64), ModelError> {
    scorer.scores_into(buf);
    let mut best = objective.value(apps, buf);
    for _ in 0..max_rounds {
        let mut improved = false;
        'moves: for k in 0..scorer.n_apps() {
            let n = scorer.teams_of(k).len();
            for from in 0..n {
                for pos in 0..scorer.teams_of(k)[from].len() {
                    if scorer.teams_of(k)[from].len() == 1 {
                        continue; // teams must stay non-empty
                    }
                    let p = scorer.remove(k, from, pos);
                    // Every destination within app `k`, plus dropping.
                    for to in (0..n).chain(std::iter::once(usize::MAX)) {
                        if to == from {
                            continue;
                        }
                        if to != usize::MAX {
                            scorer.insert(k, to, scorer.teams_of(k)[to].len(), p);
                        }
                        scorer.scores_into(buf);
                        let s = objective.value(apps, buf);
                        if s > best + 1e-12 {
                            best = s;
                            improved = true;
                            continue 'moves;
                        }
                        if to != usize::MAX {
                            scorer.remove(k, to, scorer.teams_of(k)[to].len() - 1);
                        }
                    }
                    scorer.insert(k, from, pos, p); // undo
                }
            }
        }
        if !improved {
            break;
        }
    }
    Ok((scorer.joint_mapping()?, best))
}

/// Portfolio search over the **joint** mapping space of a K-app workload
/// (see the module docs): selfish per-app greedy seeding, a
/// chunk-parallel random joint batch, contention-aware delta hill
/// climbing, and an exponential re-rank of the finalists through **one**
/// `ChainCache` shared across apps.
///
/// The whole run is deterministic in `opts.portfolio.seed`, and for K = 1
/// with the same phases it explores the same single-app landscape as
/// [`portfolio_search`].
///
/// ```
/// use repstream_engine::{workload_search, Objective, PortfolioOptions, WorkloadSearchOptions};
/// use repstream_core::model::{App, Application, Platform, Workload};
///
/// // Two tenants share six processors; the second pays double weight.
/// let chain = Application::uniform(2, 6.0, 12.0).unwrap();
/// let platform = Platform::complete(vec![2.0, 2.0, 1.0, 1.0, 1.0, 1.0], 4.0).unwrap();
/// let workload = Workload::new(
///     vec![
///         App::new(chain.clone()),
///         App::new(chain).with_weight(2.0).unwrap(),
///     ],
///     platform,
/// )
/// .unwrap();
///
/// let report = workload_search(
///     &workload,
///     WorkloadSearchOptions {
///         objective: Objective::MaxMin,
///         portfolio: PortfolioOptions {
///             random_candidates: 32,
///             seed: 7,
///             ..Default::default()
///         },
///     },
/// )
/// .unwrap();
///
/// // Each app gets a positive contended throughput, and the winner
/// // carries both deterministic and exponential per-app scores.
/// assert_eq!(report.best.per_app.len(), 2);
/// assert!(report.best.per_app.iter().all(|&rho| rho > 0.0));
/// assert!(report.best.exp_objective.unwrap() <= report.best.objective + 1e-9);
/// ```
pub fn workload_search<'a>(
    workload: impl Into<WorkloadRef<'a>>,
    opts: WorkloadSearchOptions,
) -> Result<WorkloadSearchReport, EngineError> {
    let (report, cache) = workload_search_with(workload.into(), opts, ChainCache::new())?;
    Ok(WorkloadSearchReport {
        exp_cache: cache.stats(),
        ..report
    })
}

/// [`workload_search`] over any chain oracle, handed back with the report
/// (whose `exp_cache` is left for the caller; see
/// [`portfolio_search_with`]).
fn workload_search_with<S: ChainSolver>(
    workload: WorkloadRef<'_>,
    opts: WorkloadSearchOptions,
    solver: S,
) -> Result<(WorkloadSearchReport, S), EngineError> {
    let WorkloadSearchOptions {
        objective,
        portfolio: opts,
    } = opts;
    let apps = workload.apps();
    let platform = workload.platform();
    let mut det_evaluations = 0usize;
    let mut delta_recomputes = 0usize;
    let mut det_scorer = WorkloadDetScorer::new(workload, opts.model);
    let mut buf = Vec::new();

    // Phase 1: selfish greedy seeding — each app greedily maps as if it
    // were alone, then the joint score charges the contention.
    let greedy_joint = JointMapping::new(
        apps.iter()
            .map(|a| mapping_opt::greedy(a.application(), platform, opts.model).map(|g| g.mapping))
            .collect::<Result<_, _>>()?,
    )
    .expect("a workload has at least one app");
    det_scorer.score_into(&greedy_joint, &mut buf)?;
    det_evaluations += 1;
    let mut pool: Vec<WorkloadCandidate> = vec![WorkloadCandidate {
        origin: "greedy",
        per_app: buf.clone(),
        objective: objective.value(apps, &buf),
        joint: greedy_joint,
        exp_per_app: None,
        exp_objective: None,
    }];

    // Phase 2: parallel random joint batch.
    let stage_counts: Vec<usize> = apps.iter().map(|a| a.application().n_stages()).collect();
    let candidates = random_joint_mappings(
        &stage_counts,
        platform.n_processors(),
        opts.random_candidates,
        opts.seed,
    );
    let scores =
        batch::score_joint_batch_governed(workload, opts.model, &candidates, &opts.run.budget)?;
    det_evaluations += scores.len();
    let values: Vec<f64> = scores
        .iter()
        .map(|per_app| objective.value(apps, per_app))
        .collect();
    // Best-first candidate order (deterministic: total_cmp, then index).
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[b].total_cmp(&values[a]).then(a.cmp(&b)));
    if let Some(&i) = order.first() {
        pool.push(WorkloadCandidate {
            origin: "random",
            joint: candidates[i].clone(),
            per_app: scores[i].clone(),
            objective: values[i],
            exp_per_app: None,
            exp_objective: None,
        });
    }

    // Phase 3: hill climbs from the best distinct candidates (greedy
    // included).  Delta scoring only covers the columnwise Overlap
    // evaluation; Strict searches skip this phase.
    if opts.model == ExecModel::Overlap && opts.hill_climb_starts > 0 {
        let mut starts: Vec<JointMapping> = vec![pool[0].joint.clone()];
        for &i in order.iter() {
            if starts.len() >= opts.hill_climb_starts {
                break;
            }
            if starts
                .iter()
                .all(|j| j.mappings() != candidates[i].mappings())
            {
                starts.push(candidates[i].clone());
            }
        }
        for start in starts {
            let mut scorer = JointDeltaScorer::new(workload, &start)?;
            let (joint, objective) = hill_climb_joint(
                &mut scorer,
                apps,
                objective,
                opts.hill_climb_rounds,
                &mut buf,
            )?;
            delta_recomputes += scorer.recomputes();
            scorer.scores_into(&mut buf);
            pool.push(WorkloadCandidate {
                origin: "hill-climb",
                joint,
                per_app: buf.clone(),
                objective,
                exp_per_app: None,
                exp_objective: None,
            });
        }
    }

    // Phase 4: finalists + optional exponential re-rank (one ChainCache
    // across all apps and finalists).
    pool.sort_by(|a, b| b.objective.total_cmp(&a.objective));
    let mut seen = std::collections::HashSet::new();
    pool.retain(|c| {
        seen.insert(
            c.joint
                .mappings()
                .iter()
                .map(|m| m.teams().to_vec())
                .collect::<Vec<_>>(),
        )
    });
    pool.truncate(opts.finalists.max(1));
    let mut exp_scorer = WorkloadExpScorer::with_cache(workload, opts.model, opts.run, solver);
    if opts.exp_rerank {
        for (idx, c) in pool.iter_mut().enumerate() {
            opts.run.budget.check(Progress {
                phase: Phase::Search,
                states: 0,
                levels: 0,
                iterations: idx,
                arena_bytes: 0,
            })?;
            let per = exp_scorer.score(&c.joint).map_err(EngineError::Exp)?;
            c.exp_objective = Some(objective.value(apps, &per));
            c.exp_per_app = Some(per);
        }
        pool.sort_by(|a, b| {
            let (ea, eb) = (
                a.exp_objective.unwrap_or(a.objective),
                b.exp_objective.unwrap_or(b.objective),
            );
            eb.total_cmp(&ea).then(b.objective.total_cmp(&a.objective))
        });
    }

    let contention = contention_summary(&pool[0].joint, platform.n_processors());
    let report = WorkloadSearchReport {
        best: pool[0].clone(),
        finalists: pool,
        det_evaluations,
        delta_recomputes,
        exp_evaluations: exp_scorer.evaluations(),
        exp_cache: CacheStats::default(),
        contention,
    };
    Ok((report, exp_scorer.into_cache()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use repstream_core::deterministic;
    use repstream_core::model::{System, SystemRef};
    use repstream_core::report::{system_report_with, ReportOptions, ReportStatus};
    use repstream_markov::cache::StrictSolve;
    use repstream_markov::ctmc::{Solver, SolverChoice};
    use repstream_markov::govern::Budget;
    use repstream_markov::marking::ArenaStats;
    use repstream_petri::shape::{MappingShape, ResourceTable};
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    fn instance() -> (Application, Platform) {
        repstream_workload::scenarios::mapping_search()
    }

    #[test]
    fn greedy_beats_random_search_usually() {
        let app = Application::new(vec![2.0, 8.0, 2.0], vec![1.0, 1.0]).unwrap();
        let platform = Platform::complete(vec![1.0; 6], 50.0).unwrap();
        let g = mapping_opt::greedy(&app, &platform, ExecModel::Overlap).unwrap();
        let best_random = random_mappings(3, 6, 30, 7)
            .iter()
            .map(|m| {
                let sys = SystemRef::new(&app, &platform, m).unwrap();
                deterministic::throughput_columnwise(sys)
            })
            .fold(f64::NEG_INFINITY, f64::max);
        // Not a theorem, but on this instance greedy is optimal.
        assert!(g.throughput >= best_random - 1e-9);
    }

    #[test]
    fn portfolio_beats_its_own_ingredients() {
        let (app, platform) = instance();
        let opts = PortfolioOptions {
            random_candidates: 128,
            seed: 17,
            ..Default::default()
        };
        let report = portfolio_search(&app, &platform, opts).unwrap();
        let g = mapping_opt::greedy(&app, &platform, ExecModel::Overlap).unwrap();
        let best_det = report
            .finalists
            .iter()
            .map(|c| c.det)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            best_det >= g.throughput - 1e-12,
            "portfolio {best_det} < greedy {}",
            g.throughput
        );
        assert!(report.det_evaluations >= 128);
        assert!(report.best.exp.is_some());
        // Reported det scores are genuine.
        for c in &report.finalists {
            let sys = System::new(app.clone(), platform.clone(), c.mapping.clone()).unwrap();
            let fresh = deterministic::throughput_columnwise(&sys);
            assert_eq!(fresh.to_bits(), c.det.to_bits(), "{}", c.origin);
        }
    }

    #[test]
    fn portfolio_is_deterministic_in_its_seed() {
        let (app, platform) = instance();
        let opts = PortfolioOptions {
            random_candidates: 64,
            seed: 5,
            ..Default::default()
        };
        let a = portfolio_search(&app, &platform, opts).unwrap();
        let b = portfolio_search(&app, &platform, opts).unwrap();
        assert_eq!(a.best.mapping.teams(), b.best.mapping.teams());
        assert_eq!(a.best.det.to_bits(), b.best.det.to_bits());
        assert_eq!(a.best.exp.unwrap().to_bits(), b.best.exp.unwrap().to_bits());
    }

    fn shared_workload() -> repstream_core::model::Workload {
        let (app, platform) = instance();
        repstream_core::model::Workload::new(
            vec![
                App::new(app.clone()),
                App::new(app).with_weight(2.0).unwrap(),
            ],
            platform,
        )
        .unwrap()
    }

    #[test]
    fn workload_search_beats_its_own_random_phase() {
        let workload = shared_workload();
        let opts = WorkloadSearchOptions {
            portfolio: PortfolioOptions {
                random_candidates: 96,
                seed: 17,
                ..Default::default()
            },
            ..Default::default()
        };
        let report = workload_search(&workload, opts).unwrap();
        assert!(report.det_evaluations >= 96);
        assert_eq!(report.best.per_app.len(), 2);
        assert!(report.best.per_app.iter().all(|&rho| rho > 0.0));
        assert!(report.best.exp_per_app.is_some());
        // Reported objective values are genuine re-evaluations.
        let mut scorer = WorkloadDetScorer::new(workload.as_ref(), ExecModel::Overlap);
        for c in &report.finalists {
            let fresh = scorer.score(&c.joint).unwrap();
            for (k, (a, b)) in fresh.iter().zip(c.per_app.iter()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{} app {k}", c.origin);
            }
            let v = Objective::MaxMin.value(workload.apps(), &fresh);
            assert_eq!(v.to_bits(), c.objective.to_bits(), "{}", c.origin);
        }
        // The winner at least matches every finalist's objective.
        for c in &report.finalists {
            assert!(report.best.exp_objective.unwrap() >= c.exp_objective.unwrap() - 1e-12);
        }
    }

    #[test]
    fn workload_search_is_deterministic_in_its_seed() {
        let workload = shared_workload();
        let opts = WorkloadSearchOptions {
            portfolio: PortfolioOptions {
                random_candidates: 48,
                seed: 5,
                ..Default::default()
            },
            ..Default::default()
        };
        let a = workload_search(&workload, opts).unwrap();
        let b = workload_search(&workload, opts).unwrap();
        assert_eq!(a.best.joint.mappings(), b.best.joint.mappings());
        assert_eq!(a.best.objective.to_bits(), b.best.objective.to_bits());
        assert_eq!(
            a.best.exp_objective.unwrap().to_bits(),
            b.best.exp_objective.unwrap().to_bits()
        );
        assert_eq!(a.contention, b.contention);
    }

    #[test]
    fn workload_search_shares_one_chain_cache_across_apps() {
        // Two same-shape apps: the Strict re-rank must build each distinct
        // marking graph once, with the second app hitting the cache.
        let app = Application::uniform(2, 6.0, 12.0).unwrap();
        let platform = Platform::complete(vec![1.0; 8], 2.0).unwrap();
        let workload = repstream_core::model::Workload::new(
            vec![App::new(app.clone()), App::new(app)],
            platform,
        )
        .unwrap();
        let report = workload_search(
            &workload,
            WorkloadSearchOptions {
                portfolio: PortfolioOptions {
                    model: ExecModel::Strict,
                    random_candidates: 8,
                    finalists: 2,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        let stats = report.exp_cache;
        // The greedy finalist maps two identical apps identically, so its
        // evaluation must hit the cache on the second app (the exact
        // one-build-per-shape accounting is pinned by the scorer test
        // `workload_exp_scorer_shares_one_chain_cache_across_apps`).
        assert!(stats.strict_misses >= 1);
        assert!(
            stats.strict_hits >= 1,
            "no cross-app cache reuse: {stats:?}"
        );
    }

    /// A chain oracle that records the `RunConfig` every Strict solve
    /// arrives with and answers a fixed throughput.
    #[derive(Default)]
    struct Recorder {
        seen: Vec<RunConfig>,
    }

    impl ChainSolver for Recorder {
        fn pattern_throughput(&mut self, _: &[Vec<f64>], _: usize) -> Result<f64, MarkingError> {
            Ok(1.0)
        }

        fn strict_solve(
            &mut self,
            _: &MappingShape,
            _: &ResourceTable<f64>,
            opts: RunConfig,
        ) -> Result<StrictSolve, MarkingError> {
            self.seen.push(opts);
            Ok(StrictSolve {
                throughput: 1.0,
                full_states: 1,
                lumped_states: None,
                quotient_direct: false,
                cache_hit: false,
                solver: Solver::Gth,
                residual: 0.0,
                iterations: 0,
                arena: ArenaStats::default(),
            })
        }
    }

    /// A `RunConfig` that differs from the default in every knob.
    fn odd_run() -> RunConfig {
        static CANCEL: AtomicBool = AtomicBool::new(false);
        RunConfig {
            max_states: 12_345,
            threads: 3,
            solver: SolverChoice::Force(Solver::Power),
            interner_spill: true,
            budget: Budget::deadline_in(Duration::from_secs(3600))
                .cancelled_by(&CANCEL)
                .arena_cap(1 << 30),
        }
    }

    /// Every recorded solve got `sent`, field for field.
    fn assert_arrived(rec: &Recorder, sent: RunConfig) {
        assert!(!rec.seen.is_empty(), "no Strict solve reached the oracle");
        for got in &rec.seen {
            assert_eq!(got.max_states, sent.max_states);
            assert_eq!(got.threads, sent.threads);
            assert_eq!(got.solver, sent.solver);
            assert_eq!(got.interner_spill, sent.interner_spill);
            assert_eq!(got.budget.deadline, sent.budget.deadline);
            assert_eq!(got.budget.max_arena_bytes, sent.budget.max_arena_bytes);
            assert!(std::ptr::eq(
                got.budget.cancel.expect("cancel flag"),
                sent.budget.cancel.expect("cancel flag")
            ));
        }
    }

    // One plumbing test per holder of a `RunConfig`: each knob, set once
    // at the top, is what `strict_solve` sees.

    #[test]
    fn report_options_run_reaches_the_chain_solver() {
        let (app, platform) = instance();
        let mapping = Mapping::new(vec![vec![0], vec![1, 2], vec![3], vec![4]]).unwrap();
        let system = System::new(app, platform, mapping).unwrap();
        let mut rec = Recorder::default();
        let opts = ReportOptions {
            run: odd_run(),
            ..Default::default()
        };
        let (text, status) = system_report_with(&system, opts, &mut rec);
        assert_eq!(status, ReportStatus::Ok, "{text}");
        assert_arrived(&rec, opts.run);
    }

    #[test]
    fn portfolio_options_run_reaches_the_chain_solver() {
        let (app, platform) = instance();
        let opts = PortfolioOptions {
            model: ExecModel::Strict,
            random_candidates: 8,
            run: odd_run(),
            ..Default::default()
        };
        let (result, rec) = portfolio_search_with(&app, &platform, opts, Recorder::default());
        result.unwrap();
        assert_arrived(&rec, opts.run);
    }

    #[test]
    fn workload_search_options_run_reaches_the_chain_solver() {
        let workload = shared_workload();
        let opts = WorkloadSearchOptions {
            portfolio: PortfolioOptions {
                model: ExecModel::Strict,
                random_candidates: 8,
                run: odd_run(),
                ..Default::default()
            },
            ..Default::default()
        };
        let (_, rec) = workload_search_with(workload.as_ref(), opts, Recorder::default()).unwrap();
        assert_arrived(&rec, opts.portfolio.run);
    }

    #[test]
    fn objective_values_and_parsing() {
        let chain = Application::uniform(2, 1.0, 1.0).unwrap();
        let apps = vec![
            App::new(chain.clone()).with_weight(2.0).unwrap(),
            App::new(chain).with_sla(4.0).unwrap(),
        ];
        let per_app = [6.0, 2.0];
        assert_eq!(Objective::MaxMin.value(&apps, &per_app), 2.0); // min(3, 2)
        assert_eq!(Objective::Weighted.value(&apps, &per_app), 14.0); // 12 + 2
        assert_eq!(Objective::Sla.value(&apps, &per_app), 0.5); // only app 1
                                                                // No SLA declared anywhere ⇒ maxmin fallback.
        let plain = vec![
            App::new(Application::uniform(2, 1.0, 1.0).unwrap()),
            App::new(Application::uniform(2, 1.0, 1.0).unwrap()),
        ];
        assert_eq!(
            Objective::Sla.value(&plain, &per_app).to_bits(),
            Objective::MaxMin.value(&plain, &per_app).to_bits()
        );
        for (s, o) in [
            ("maxmin", Objective::MaxMin),
            ("max-min", Objective::MaxMin),
            ("weighted", Objective::Weighted),
            ("sla", Objective::Sla),
        ] {
            assert_eq!(Objective::parse(s), Some(o));
            assert_eq!(Objective::parse(o.label()), Some(o));
        }
        assert_eq!(Objective::parse("fair"), None);
    }

    #[test]
    fn contention_summary_counts_sharing() {
        let joint = JointMapping::new(vec![
            Mapping::new(vec![vec![0], vec![1, 2]]).unwrap(),
            Mapping::new(vec![vec![0], vec![1, 3]]).unwrap(),
        ])
        .unwrap();
        let s = contention_summary(&joint, 4);
        // Procs 0 and 1 are shared; directed link 0→1 is used by both.
        assert_eq!(s.shared_processors, 2);
        assert_eq!(s.shared_links, 1);
        assert_eq!(s.max_processor_users, 2);
        // A disjoint joint mapping shares nothing.
        let disjoint = JointMapping::new(vec![
            Mapping::new(vec![vec![0], vec![1]]).unwrap(),
            Mapping::new(vec![vec![2], vec![3]]).unwrap(),
        ])
        .unwrap();
        let s = contention_summary(&disjoint, 4);
        assert_eq!(s.shared_processors, 0);
        assert_eq!(s.shared_links, 0);
        assert_eq!(s.max_processor_users, 1);
    }

    #[test]
    fn strict_model_portfolio_runs() {
        let app = Application::uniform(2, 6.0, 12.0).unwrap();
        let platform = Platform::complete(vec![1.0; 5], 2.0).unwrap();
        let report = portfolio_search(
            &app,
            &platform,
            PortfolioOptions {
                model: ExecModel::Strict,
                random_candidates: 16,
                finalists: 3,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(report.best.det > 0.0);
        assert!(report.best.exp.unwrap() > 0.0);
        assert!(report.best.exp.unwrap() <= report.best.det + 1e-9);
        // Same-shape candidates must have shared chain structures.
        assert!(report.exp_cache.hits() + report.exp_cache.misses() > 0);
    }
}
