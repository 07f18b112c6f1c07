//! Monte-Carlo throughput estimation and parallel replications.
//!
//! Thin orchestration over the three simulation engines
//! (`repstream-petri::egsim`, `repstream-platformsim`, [`crate::chainsim`])
//! plus a scoped-thread fan-out for independent replications — the
//! paper's Figure 11 runs 500 replications per point.

use crate::chainsim::{self, ChainSimOptions};
use crate::model::SystemRef;
use crate::timing;
use repstream_petri::egsim::{self, EgSimOptions};
use repstream_petri::shape::{ExecModel, ResourceTable};
use repstream_petri::tpn::Tpn;
use repstream_platformsim as platformsim;
use repstream_stochastic::law::{Law, LawFamily};
use repstream_stochastic::rng::split_seed;
use repstream_stochastic::stats::{OnlineStats, RunSummary};

/// Which simulation engine to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEngine {
    /// TPN dater recurrence (ERS `eg_sim` role).
    EventGraph,
    /// Application-level DES (SimGrid role).
    Platform,
    /// Direct data-set recurrence (fast baseline).
    Chain,
}

impl SimEngine {
    /// Label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            SimEngine::EventGraph => "eg_sim",
            SimEngine::Platform => "platformsim",
            SimEngine::Chain => "chainsim",
        }
    }
}

/// Options for a Monte-Carlo estimate.
#[derive(Debug, Clone, Copy)]
pub struct MonteCarloOptions {
    /// Data sets per replication.
    pub datasets: usize,
    /// Warm-up data sets per replication.
    pub warmup: usize,
    /// Number of independent replications.
    pub replications: usize,
    /// Master seed (replication `i` uses `split_seed(seed, i)`).
    pub seed: u64,
    /// The engine.
    pub engine: SimEngine,
    /// Use `K/T(K)` (the paper's simulator metric) instead of the
    /// steady-state estimate.
    pub total_rate_metric: bool,
}

impl Default for MonteCarloOptions {
    fn default() -> Self {
        MonteCarloOptions {
            datasets: 10_000,
            warmup: 1_000,
            replications: 1,
            seed: 0,
            engine: SimEngine::EventGraph,
            total_rate_metric: false,
        }
    }
}

/// One simulated throughput value.
pub fn throughput_once<'a>(
    system: impl Into<SystemRef<'a>>,
    model: ExecModel,
    laws: &ResourceTable<Law>,
    opts: MonteCarloOptions,
) -> f64 {
    let system = system.into();
    match opts.engine {
        SimEngine::EventGraph => {
            let tpn = Tpn::build(&system.shape(), model);
            let r = egsim::simulate(
                &tpn,
                laws,
                EgSimOptions {
                    datasets: opts.datasets,
                    warmup: opts.warmup,
                    seed: opts.seed,
                },
            );
            if opts.total_rate_metric {
                r.throughput
            } else {
                r.steady_throughput
            }
        }
        SimEngine::Platform => {
            let r = platformsim::simulate(
                &system.shape(),
                model,
                laws,
                platformsim::SimOptions {
                    datasets: opts.datasets,
                    warmup: opts.warmup,
                    seed: opts.seed,
                    ..Default::default()
                },
            );
            if opts.total_rate_metric {
                r.throughput
            } else {
                r.steady_throughput
            }
        }
        SimEngine::Chain => {
            let r = chainsim::simulate(
                system,
                model,
                laws,
                ChainSimOptions {
                    datasets: opts.datasets,
                    warmup: opts.warmup,
                    seed: opts.seed,
                },
            );
            if opts.total_rate_metric {
                r.throughput
            } else {
                r.steady_throughput
            }
        }
    }
}

/// Parallel Monte-Carlo estimate across `opts.replications` independent
/// runs; returns the across-run summary (min/max/mean/std — the columns
/// of the paper's Figure 11).
pub fn monte_carlo<'a>(
    system: impl Into<SystemRef<'a>>,
    model: ExecModel,
    laws: &ResourceTable<Law>,
    opts: MonteCarloOptions,
) -> RunSummary {
    let system = system.into();
    let reps = opts.replications.max(1);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(reps);
    let stats = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let laws = &*laws;
            handles.push(scope.spawn(move || {
                let mut acc = OnlineStats::new();
                let mut i = w;
                while i < reps {
                    let mut o = opts;
                    o.seed = split_seed(opts.seed, i as u64);
                    acc.push(throughput_once(system, model, laws, o));
                    i += workers;
                }
                acc
            }));
        }
        let mut total = OnlineStats::new();
        for h in handles {
            match h.join() {
                Ok(acc) => total.merge(&acc),
                Err(p) => std::panic::resume_unwind(p),
            }
        }
        total
    });
    stats.summary()
}

/// Convenience: Monte-Carlo with a law family at the system's means.
pub fn monte_carlo_family<'a>(
    system: impl Into<SystemRef<'a>>,
    model: ExecModel,
    family: LawFamily,
    opts: MonteCarloOptions,
) -> RunSummary {
    let system = system.into();
    let laws = timing::laws(system, family);
    monte_carlo(system, model, &laws, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deterministic;
    use crate::model::{Application, Mapping, Platform, System};

    fn system() -> System {
        let app = Application::uniform(2, 6.0, 12.0).unwrap();
        let platform = Platform::complete(vec![1.0, 1.0, 1.0], 4.0).unwrap();
        let mapping = Mapping::new(vec![vec![0], vec![1, 2]]).unwrap();
        System::new(app, platform, mapping).unwrap()
    }

    #[test]
    fn three_engines_agree_deterministically() {
        let sys = system();
        let laws = timing::laws(&sys, LawFamily::Deterministic);
        let rho = deterministic::analyze(&sys, ExecModel::Overlap).throughput;
        for engine in [SimEngine::EventGraph, SimEngine::Platform, SimEngine::Chain] {
            let v = throughput_once(
                &sys,
                ExecModel::Overlap,
                &laws,
                MonteCarloOptions {
                    datasets: 8000,
                    warmup: 4000,
                    engine,
                    ..Default::default()
                },
            );
            assert!(
                (v - rho).abs() < 0.01 * rho,
                "{}: {v} vs {rho}",
                engine.label()
            );
        }
    }

    #[test]
    fn monte_carlo_summary_shape() {
        let sys = system();
        let laws = timing::laws(&sys, LawFamily::Exponential);
        let s = monte_carlo(
            &sys,
            ExecModel::Overlap,
            &laws,
            MonteCarloOptions {
                datasets: 1500,
                warmup: 300,
                replications: 16,
                seed: 11,
                engine: SimEngine::Chain,
                total_rate_metric: false,
            },
        );
        assert_eq!(s.count, 16);
        assert!(s.min <= s.mean && s.mean <= s.max);
        assert!(s.std_dev > 0.0, "replications must differ: {s:?}");
    }

    #[test]
    fn replications_are_reproducible() {
        let sys = system();
        let laws = timing::laws(&sys, LawFamily::Exponential);
        let opts = MonteCarloOptions {
            datasets: 800,
            warmup: 100,
            replications: 8,
            seed: 5,
            engine: SimEngine::Chain,
            total_rate_metric: false,
        };
        let a = monte_carlo(&sys, ExecModel::Strict, &laws, opts);
        let b = monte_carlo(&sys, ExecModel::Strict, &laws, opts);
        assert_eq!(a.mean, b.mean);
        assert_eq!(a.min, b.min);
    }
}
