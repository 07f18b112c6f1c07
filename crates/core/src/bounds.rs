//! The N.B.U.E. sandwich — Section 6 of the paper (Theorem 7).
//!
//! For any system whose computation and communication times are I.I.D.
//! **N.B.U.E.** variables, the throughput is bounded *below* by the same
//! system with exponential times of equal means and *above* by the
//! deterministic system at the means:
//!
//! ```text
//!   ρ_exp  ≤  ρ_NBUE  ≤  ρ_det
//! ```
//!
//! Both bounds are computable: the deterministic one by critical cycles
//! (§4), the exponential one by the Markovian analyses (§5) — in
//! polynomial time for the Overlap model with homogeneous communication
//! columns (Theorem 4).

use crate::deterministic;
use crate::exponential::{self, ChainSolver, ExpError};
use crate::model::SystemRef;
use crate::simulate::{self, MonteCarloOptions, SimEngine};
use crate::timing;
use repstream_markov::cache::ChainCache;
use repstream_markov::govern::RunConfig;
use repstream_petri::shape::ExecModel;
use repstream_stochastic::law::LawFamily;

/// How the exponential lower bound was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LowerBoundMethod {
    /// Theorem 3/4 column decomposition (exact; Overlap).
    Decomposition,
    /// Theorem 2 global marking CTMC (exact; Strict).
    MarkingChain,
    /// Monte-Carlo estimate (the chain was too large).
    Simulation,
}

/// Theorem 7's sandwich for a system.
#[derive(Debug, Clone, Copy)]
pub struct NbueBounds {
    /// Exponential-times throughput (lower bound).
    pub lower: f64,
    /// Deterministic-times throughput (upper bound).
    pub upper: f64,
    /// Provenance of the lower bound.
    pub method: LowerBoundMethod,
}

impl NbueBounds {
    /// `true` when `value` is inside the sandwich up to `tol` relative
    /// slack (used by experiment assertions).
    pub fn contains(&self, value: f64, tol: f64) -> bool {
        value >= self.lower * (1.0 - tol) && value <= self.upper * (1.0 + tol)
    }
}

/// Compute Theorem 7's bounds.
///
/// The deterministic bound always succeeds; the exponential bound uses the
/// exact chain when feasible and falls back to a long simulation
/// otherwise (reported in [`NbueBounds::method`]).
pub fn nbue_bounds<'a>(
    system: impl Into<SystemRef<'a>>,
    model: ExecModel,
) -> Result<NbueBounds, ExpError> {
    nbue_bounds_with(system, model, &mut ChainCache::new())
}

/// As [`nbue_bounds`], reusing chain structures from (and warming) a
/// caller-supplied chain oracle: the exponential lower bound's pattern
/// and Strict chains are refilled instead of rebuilt when the cache has
/// already seen their shape — e.g. from an earlier decomposition of the
/// same system in a report, or from sibling candidates in a search.  The
/// serving layer passes `&mut &SharedChainCache` so concurrent requests
/// share one set of chain structures.  Values are bitwise identical to
/// [`nbue_bounds`] (the [`ChainSolver`] contract).
///
/// ```
/// use repstream_core::bounds::nbue_bounds_with;
/// use repstream_core::model::{Application, Mapping, Platform, System};
/// use repstream_markov::cache::ChainCache;
/// use repstream_petri::shape::ExecModel;
///
/// let app = Application::uniform(2, 6.0, 12.0).unwrap();
/// let platform = Platform::complete(vec![1.0; 5], 2.0).unwrap();
/// let mapping = Mapping::new(vec![vec![0, 1], vec![2, 3, 4]]).unwrap();
/// let system = System::new(app, platform, mapping).unwrap();
///
/// // One cache across both models: the Strict call reuses whatever
/// // pattern chains the Overlap decomposition already built.
/// let mut cache = ChainCache::new();
/// let overlap = nbue_bounds_with(&system, ExecModel::Overlap, &mut cache).unwrap();
/// let strict = nbue_bounds_with(&system, ExecModel::Strict, &mut cache).unwrap();
/// assert!(overlap.lower <= overlap.upper);
/// assert!(strict.lower <= strict.upper);
/// ```
pub fn nbue_bounds_with<'a>(
    system: impl Into<SystemRef<'a>>,
    model: ExecModel,
    cache: &mut impl ChainSolver,
) -> Result<NbueBounds, ExpError> {
    nbue_bounds_capped(system, model, RunConfig::default().max_states, cache)
}

/// As [`nbue_bounds_with`] under the caller's state cap: no chain of the
/// sandwich is built beyond `max_states`.  A report passes its own
/// [`RunConfig::max_states`], so a server-side cap bounds the sandwich's
/// pattern chains like every other chain of the request.
pub(crate) fn nbue_bounds_capped<'a>(
    system: impl Into<SystemRef<'a>>,
    model: ExecModel,
    max_states: usize,
    cache: &mut impl ChainSolver,
) -> Result<NbueBounds, ExpError> {
    let system = system.into();
    let upper = deterministic::analyze(system, model).throughput;
    let shape = system.shape();
    let rates = timing::exponential_rates(system);
    // Ungoverned on purpose: the sandwich is what a report falls back to
    // *after* its budget fired.
    let run = RunConfig {
        max_states,
        ..Default::default()
    };
    let (lower, method) = match model {
        ExecModel::Overlap => {
            let rep = exponential::throughput_overlap_with_solver(&shape, &rates, run, cache)?;
            (rep.throughput, LowerBoundMethod::Decomposition)
        }
        ExecModel::Strict => {
            // Beyond 400k states the simulation below is the cheaper bound.
            let run = RunConfig {
                max_states: max_states.min(400_000),
                ..run
            };
            match cache.strict_solve(&shape, &rates, run) {
                Ok(v) => (v.throughput, LowerBoundMethod::MarkingChain),
                Err(_) => {
                    // Chain too large: estimate by simulation (the one
                    // remaining owned-`System` consumer; this fallback is
                    // rare enough that the clone is irrelevant).
                    let laws = timing::laws(system, LawFamily::Exponential);
                    let v = simulate::monte_carlo(
                        &system.to_owned(),
                        model,
                        &laws,
                        MonteCarloOptions {
                            datasets: 200_000,
                            warmup: 20_000,
                            replications: 4,
                            seed: 0xB0_07,
                            engine: SimEngine::Chain,
                            total_rate_metric: false,
                        },
                    );
                    (v.mean, LowerBoundMethod::Simulation)
                }
            }
        }
    };
    Ok(NbueBounds {
        lower,
        upper,
        method,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Application, Mapping, Platform, System};
    use crate::simulate::{monte_carlo_family, MonteCarloOptions};

    fn system(teams: Vec<Vec<usize>>) -> System {
        let n = teams.len();
        let app = Application::uniform(n, 6.0, 12.0).unwrap();
        let platform = Platform::complete(vec![1.0; 8], 2.0).unwrap();
        System::new(app, platform, Mapping::new(teams).unwrap()).unwrap()
    }

    #[test]
    fn bounds_are_ordered() {
        for model in [ExecModel::Overlap, ExecModel::Strict] {
            let sys = system(vec![vec![0, 1], vec![2, 3, 4]]);
            let b = nbue_bounds(&sys, model).unwrap();
            assert!(b.lower <= b.upper, "{model:?}: {b:?}");
            assert!(b.lower > 0.0);
        }
    }

    #[test]
    fn nbue_laws_fall_inside_the_sandwich() {
        // Gamma(4) and symmetric Beta(2) are N.B.U.E. — simulations must
        // land inside the Theorem 7 sandwich (with CLT slack).
        let sys = system(vec![vec![0, 1], vec![2, 3, 4]]);
        let b = nbue_bounds(&sys, ExecModel::Overlap).unwrap();
        for fam in [LawFamily::Gamma(4.0), LawFamily::BetaSym(2.0)] {
            let s = monte_carlo_family(
                &sys,
                ExecModel::Overlap,
                fam,
                MonteCarloOptions {
                    datasets: 30_000,
                    warmup: 5_000,
                    replications: 4,
                    seed: 9,
                    engine: SimEngine::EventGraph,
                    total_rate_metric: false,
                },
            );
            assert!(
                b.contains(s.mean, 0.02),
                "{}: {} not in [{}, {}]",
                fam.label(),
                s.mean,
                b.lower,
                b.upper
            );
        }
    }

    #[test]
    fn exponential_attains_the_lower_bound() {
        let sys = system(vec![vec![0, 1], vec![2, 3, 4]]);
        let b = nbue_bounds(&sys, ExecModel::Overlap).unwrap();
        let s = monte_carlo_family(
            &sys,
            ExecModel::Overlap,
            LawFamily::Exponential,
            MonteCarloOptions {
                datasets: 60_000,
                warmup: 10_000,
                replications: 4,
                seed: 10,
                engine: SimEngine::EventGraph,
                total_rate_metric: false,
            },
        );
        assert!(
            (s.mean - b.lower).abs() < 0.03 * b.lower,
            "sim {} vs exact {}",
            s.mean,
            b.lower
        );
    }

    #[test]
    fn deterministic_attains_the_upper_bound() {
        let sys = system(vec![vec![0, 1], vec![2, 3, 4]]);
        let b = nbue_bounds(&sys, ExecModel::Overlap).unwrap();
        let s = monte_carlo_family(
            &sys,
            ExecModel::Overlap,
            LawFamily::Deterministic,
            MonteCarloOptions {
                datasets: 20_000,
                warmup: 10_000,
                replications: 1,
                seed: 0,
                engine: SimEngine::EventGraph,
                total_rate_metric: false,
            },
        );
        assert!(
            (s.mean - b.upper).abs() < 0.01 * b.upper,
            "sim {} vs det {}",
            s.mean,
            b.upper
        );
    }
}
