//! Greedy mapping construction — the paper's "future work" (§8).
//!
//! Finding the optimal one-to-many mapping is NP-complete even without
//! communications [Benoit et al., SPAA'10 ref. 3]; the paper closes by
//! proposing to use its throughput evaluators to score heuristics.
//! [`greedy`] seeds one processor per stage (fastest processors on the
//! heaviest stages), then repeatedly gives the next fastest idle
//! processor to the stage where it raises the (column-wise,
//! deterministic) throughput the most.  Scores come from
//! [`crate::deterministic`].  `repstream-engine`'s `portfolio_search`
//! starts from this mapping, adds random candidates and hill climbing,
//! and re-ranks the best few with the exponential analyses.

use crate::deterministic;
use crate::model::{Application, Mapping, ModelError, Platform, SystemRef};
use repstream_petri::shape::ExecModel;

/// Errors of the greedy construction.
#[derive(Debug, Clone, PartialEq)]
pub enum OptError {
    /// Fewer processors than stages — no valid one-to-many mapping exists.
    NotEnoughProcessors {
        /// Processors available.
        procs: usize,
        /// Stages to place.
        stages: usize,
    },
    /// Propagated model validation error.
    Model(ModelError),
}

impl std::fmt::Display for OptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptError::NotEnoughProcessors { procs, stages } => {
                write!(f, "{procs} processors cannot serve {stages} stages")
            }
            OptError::Model(e) => write!(f, "model: {e}"),
        }
    }
}

impl std::error::Error for OptError {}

impl From<ModelError> for OptError {
    fn from(e: ModelError) -> Self {
        OptError::Model(e)
    }
}

/// Throughput of a candidate mapping (deterministic score).
///
/// Zero-clone: the candidate is only *borrowed* into a
/// [`SystemRef`] (cross-reference validation, no allocation) — this runs
/// once per placement probe of [`greedy`].
fn score(
    app: &Application,
    platform: &Platform,
    mapping: &Mapping,
    model: ExecModel,
) -> Result<f64, OptError> {
    let system = SystemRef::new(app, platform, mapping)?;
    Ok(match model {
        // Columnwise evaluation is exact for Overlap and much faster.
        ExecModel::Overlap => deterministic::throughput_columnwise(system),
        ExecModel::Strict => deterministic::analyze(system, model).throughput,
    })
}

/// A scored mapping.
#[derive(Debug, Clone)]
pub struct ScoredMapping {
    /// The mapping.
    pub mapping: Mapping,
    /// Its deterministic throughput under the chosen model.
    pub throughput: f64,
}

/// Greedy constructive heuristic.
pub fn greedy(
    app: &Application,
    platform: &Platform,
    model: ExecModel,
) -> Result<ScoredMapping, OptError> {
    let n = app.n_stages();
    let m = platform.n_processors();
    if m < n {
        return Err(OptError::NotEnoughProcessors {
            procs: m,
            stages: n,
        });
    }
    // Processors fastest-first; stages heaviest-first.
    let mut procs: Vec<usize> = (0..m).collect();
    // `total_cmp`: speeds and works are validated positive-finite at
    // model construction, but a NaN-proof sort can never abort.
    procs.sort_by(|&a, &b| platform.speed(b).total_cmp(&platform.speed(a)));
    let mut stages: Vec<usize> = (0..n).collect();
    stages.sort_by(|&a, &b| app.work(b).total_cmp(&app.work(a)));

    let mut teams: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (idx, &stage) in stages.iter().enumerate() {
        teams[stage].push(procs[idx]);
    }
    let mut free: Vec<usize> = procs[n..].to_vec();
    let mut best = score(app, platform, &Mapping::new(teams.clone())?, model)?;

    // Give each remaining processor to the stage that benefits the most.
    // The placement keeps the *largest-gain* stage with a deterministic
    // tie-break on the lowest stage index; ties (including all-zero gains,
    // e.g. identical replicable stages where no single placement moves the
    // bottleneck) place the processor instead of silently dropping it —
    // the old `s > best + best_gain + 1e-12` test bailed out as soon as
    // every gain tied within epsilon and stranded the remaining
    // processors.  Only a placement that strictly *hurts* everywhere drops
    // the processor (and ends the loop: later processors would score the
    // same placements).
    while let Some(p) = free.first().copied() {
        let mut best_score = f64::NEG_INFINITY;
        let mut best_stage = None;
        for stage in 0..n {
            teams[stage].push(p);
            if let Ok(mapping) = Mapping::new(teams.clone()) {
                if let Ok(s) = score(app, platform, &mapping, model) {
                    if s > best_score + 1e-12 {
                        best_score = s;
                        best_stage = Some(stage);
                    }
                }
            }
            teams[stage].pop();
        }
        match best_stage {
            // Non-worsening placement (up to epsilon): take it.
            Some(stage) if best_score >= best - 1e-12 => {
                teams[stage].push(p);
                free.remove(0);
                best = best.max(best_score);
            }
            _ => break, // every placement hurts: drop the processor
        }
    }
    let mapping = Mapping::new(teams)?;
    let throughput = score(app, platform, &mapping, model)?;
    Ok(ScoredMapping {
        mapping,
        throughput,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance() -> (Application, Platform) {
        let app = Application::new(vec![2.0, 8.0, 2.0], vec![1.0, 1.0]).unwrap();
        let platform = Platform::complete(vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0], 50.0).unwrap();
        (app, platform)
    }

    #[test]
    fn greedy_replicates_the_heavy_stage() {
        let (app, platform) = instance();
        let g = greedy(&app, &platform, ExecModel::Overlap).unwrap();
        // Stage 1 is 4× heavier: greedy should give it the spare
        // processors (teams 1/4/1 would balance: 2/1, 8/4, 2/1 → rate 0.5).
        assert!(
            g.mapping.team(1).len() >= 3,
            "heavy stage got {:?}",
            g.mapping.teams()
        );
        assert!(g.throughput >= 0.45, "throughput {}", g.throughput);
    }

    #[test]
    fn greedy_places_tied_gains_instead_of_dropping() {
        // Two identical stages: placing one extra processor on either
        // stage alone leaves the other stage the bottleneck (gain 0 for
        // every placement).  The old gain test dropped the spares at the
        // first all-tie round, stranding half the platform at ρ = 0.25;
        // the tie-break must place them (lowest stage index first) and
        // reach the balanced 2/2 mapping at ρ = 0.5.
        let app = Application::new(vec![4.0, 4.0], vec![1.0]).unwrap();
        let platform = Platform::homogeneous(4, 1.0, 100.0).unwrap();
        let g = greedy(&app, &platform, ExecModel::Overlap).unwrap();
        assert_eq!(
            g.mapping.teams().iter().map(Vec::len).collect::<Vec<_>>(),
            vec![2, 2],
            "all four processors must be used: {:?}",
            g.mapping.teams()
        );
        assert!((g.throughput - 0.5).abs() < 1e-9, "{}", g.throughput);
    }

    #[test]
    fn too_few_processors_rejected() {
        let app = Application::uniform(4, 1.0, 1.0).unwrap();
        let platform = Platform::homogeneous(2, 1.0, 1.0).unwrap();
        assert!(matches!(
            greedy(&app, &platform, ExecModel::Overlap).unwrap_err(),
            OptError::NotEnoughProcessors {
                procs: 2,
                stages: 4
            }
        ));
    }
}
