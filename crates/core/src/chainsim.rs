//! A third, minimal simulator: the direct data-set recurrence.
//!
//! Sweeping data sets in order and keeping one "free at" clock per
//! resource reproduces the mapping semantics with `O(M)` memory and no
//! event queue — the fastest engine in the repository and an independent
//! cross-check of `egsim` and `platformsim` (three implementations, one
//! semantics).  Used as the ablation baseline by `repstream-bench`'s
//! `ablation` binary.

use crate::model::SystemRef;
use crate::timing::deterministic_times;
use repstream_petri::shape::{ExecModel, Resource, ResourceTable};
use repstream_stochastic::law::Law;
use repstream_stochastic::rng::seeded_rng;

/// Options for a chain-recurrence run.
#[derive(Debug, Clone, Copy)]
pub struct ChainSimOptions {
    /// Number of data sets.
    pub datasets: usize,
    /// Warm-up data sets excluded from the steady-state estimate.
    pub warmup: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ChainSimOptions {
    fn default() -> Self {
        ChainSimOptions {
            datasets: 10_000,
            warmup: 1_000,
            seed: 0,
        }
    }
}

/// Result of a chain-recurrence run.
#[derive(Debug, Clone, Copy)]
pub struct ChainSimReport {
    /// `K / T(K)`.
    pub throughput: f64,
    /// `(K − W) / (T(K) − T(W))`.
    pub steady_throughput: f64,
    /// Completion time of all data sets.
    pub makespan: f64,
}

/// Run the recurrence with per-resource laws.
pub fn simulate<'a>(
    system: impl Into<SystemRef<'a>>,
    model: ExecModel,
    laws: &ResourceTable<Law>,
    opts: ChainSimOptions,
) -> ChainSimReport {
    let shape = system.into().shape();
    let n = shape.n_stages();
    let k = opts.datasets;
    assert!(k > 0);
    let mut rng = seeded_rng(opts.seed);

    // Per-(stage, slot) clocks; communications also key on the receiver.
    let mut comp_free: Vec<Vec<f64>> = (0..n).map(|i| vec![0.0; shape.team_size(i)]).collect();
    let mut out_free = comp_free.clone();
    let mut in_free = comp_free.clone();
    // Strict: one clock per processor.
    let mut unit_free = comp_free.clone();

    let mut tmax = 0.0f64;
    let mut t_warm = 0.0f64;
    let warm_at = opts.warmup.clamp(1, k.max(2) - 1);

    for d in 0..k {
        // `ready` carries the data set through the chain.
        let mut ready = 0.0f64;
        for stage in 0..n {
            let slot = d % shape.team_size(stage);
            // Receive file `stage − 1` (except the first stage).
            if stage > 0 {
                let file = stage - 1;
                let src = d % shape.team_size(file);
                let y = laws
                    .get(Resource::Link {
                        file,
                        src,
                        dst: slot,
                    })
                    .sample(&mut rng);
                let start = match model {
                    ExecModel::Overlap => ready.max(out_free[file][src]).max(in_free[stage][slot]),
                    ExecModel::Strict => {
                        ready.max(unit_free[file][src]).max(unit_free[stage][slot])
                    }
                };
                let end = start + y;
                match model {
                    ExecModel::Overlap => {
                        out_free[file][src] = end;
                        in_free[stage][slot] = end;
                    }
                    ExecModel::Strict => {
                        unit_free[file][src] = end;
                        unit_free[stage][slot] = end;
                    }
                }
                ready = end;
            }
            // Compute.
            let x = laws.get(Resource::Proc { stage, slot }).sample(&mut rng);
            let start = match model {
                ExecModel::Overlap => ready.max(comp_free[stage][slot]),
                ExecModel::Strict => ready.max(unit_free[stage][slot]),
            };
            let end = start + x;
            match model {
                ExecModel::Overlap => comp_free[stage][slot] = end,
                ExecModel::Strict => unit_free[stage][slot] = end,
            }
            ready = end;
        }
        tmax = tmax.max(ready);
        if d + 1 == warm_at {
            t_warm = tmax;
        }
    }

    let steady = if k > warm_at && tmax > t_warm {
        (k - warm_at) as f64 / (tmax - t_warm)
    } else {
        k as f64 / tmax
    };
    ChainSimReport {
        throughput: k as f64 / tmax,
        steady_throughput: steady,
        makespan: tmax,
    }
}

/// Deterministic-law convenience wrapper.
pub fn simulate_deterministic<'a>(
    system: impl Into<SystemRef<'a>>,
    model: ExecModel,
    opts: ChainSimOptions,
) -> ChainSimReport {
    let system = system.into();
    let laws = deterministic_times(system).map(|_, &t| Law::det(t));
    simulate(system, model, &laws, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deterministic;
    use crate::model::{Application, Mapping, Platform, System};

    fn system(teams: Vec<Vec<usize>>, speeds: Vec<f64>, bw: f64) -> System {
        let n = teams.len();
        let app = Application::uniform(n, 6.0, 12.0).unwrap();
        let platform = Platform::complete(speeds, bw).unwrap();
        System::new(app, platform, Mapping::new(teams).unwrap()).unwrap()
    }

    #[test]
    fn matches_deterministic_analysis() {
        for teams in [
            vec![vec![0], vec![1]],
            vec![vec![0, 1], vec![2, 3, 4]],
            vec![vec![0], vec![1, 2], vec![3]],
        ] {
            let sys = system(teams.clone(), vec![1.0, 2.0, 1.5, 0.8, 1.2], 2.0);
            for model in [ExecModel::Overlap, ExecModel::Strict] {
                let rho = deterministic::analyze(&sys, model).throughput;
                let sim = simulate_deterministic(
                    &sys,
                    model,
                    ChainSimOptions {
                        datasets: 20_000,
                        warmup: 10_000,
                        seed: 0,
                    },
                );
                assert!(
                    (sim.steady_throughput - rho).abs() < 0.01 * rho,
                    "{teams:?} {model:?}: sim {} vs analytic {rho}",
                    sim.steady_throughput
                );
            }
        }
    }

    #[test]
    fn strict_slower_than_overlap() {
        let sys = system(vec![vec![0], vec![1, 2]], vec![1.0, 1.0, 1.0], 2.0);
        let opts = ChainSimOptions {
            datasets: 10_000,
            warmup: 1_000,
            seed: 3,
        };
        let ov = simulate_deterministic(&sys, ExecModel::Overlap, opts);
        let st = simulate_deterministic(&sys, ExecModel::Strict, opts);
        assert!(st.steady_throughput <= ov.steady_throughput + 1e-9);
    }
}
