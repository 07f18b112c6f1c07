//! Exponential-law throughput — Section 5 of the paper.
//!
//! * [`throughput_overlap`] — Theorem 3's column decomposition: the
//!   Overlap TPN has no cycle across columns, so each connected component
//!   is analysed in isolation (processors in closed form, communication
//!   components through their pattern CTMC — with Theorem 4's closed form
//!   `u·v·λ/(u+v−1)` as a fast path when the component's links share one
//!   rate) and the results compose by feed-forward `min`;
//! * [`throughput_strict`] — Theorem 2's general method: the
//!   marking-graph CTMC (the Strict TPN is safe, so the chain is exact).
//!   On homogeneous mappings the symmetry-reduced chain is **built
//!   directly** (canonical markings, one representative per row-rotation
//!   orbit — `m`-fold fewer states ever touched); heterogeneous mappings
//!   fall back to the full chain;
//! * [`throughput_overlap_bounded`] — the same global chain for Overlap
//!   with a finite buffer capacity, used to validate the decomposition
//!   (the value increases to the true throughput as the capacity grows).
//!
//! Complexities match the paper: the decomposition is
//! `O(N · exp(max R_i))` in general and polynomial when each column is
//! rate-homogeneous (Theorem 4); the global chain is exponential
//! (Theorem 2).

use crate::model::SystemRef;
use crate::timing::exponential_rates;
use repstream_markov::cache::{ChainCache, SharedChainCache, StrictSolve};
use repstream_markov::ctmc::{Solver, SolverChoice};
use repstream_markov::govern::{Interrupt, RunConfig};
use repstream_markov::marking::{ArenaStats, MarkingError, MarkingGraph};
use repstream_markov::net::EventNet;
use repstream_markov::pattern;
use repstream_petri::shape::{gcd, ExecModel, MappingShape, Resource, ResourceTable};
use repstream_petri::tpn::Tpn;

/// Errors of the exponential analyses.
#[derive(Debug)]
pub enum ExpError {
    /// A pattern CTMC exceeded the state budget
    /// (`S(u,v) = C(u+v−1,u−1)·v` grows exponentially).
    PatternTooLarge {
        /// Pattern sender count.
        u: usize,
        /// Pattern receiver count.
        v: usize,
        /// The underlying marking error.
        source: MarkingError,
    },
    /// The global marking graph failed (too many states, or unexpectedly
    /// unsafe).
    MarkingGraph(MarkingError),
}

impl std::fmt::Display for ExpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExpError::PatternTooLarge { u, v, source } => {
                write!(f, "pattern {u}×{v} chain too large: {source}")
            }
            ExpError::MarkingGraph(e) => write!(f, "marking graph: {e}"),
        }
    }
}

impl std::error::Error for ExpError {}

impl ExpError {
    /// The marking-BFS error underneath, whichever chain family hit it —
    /// what callers classify (over budget / interrupted / internal).
    pub fn marking(&self) -> &MarkingError {
        match self {
            ExpError::PatternTooLarge { source, .. } | ExpError::MarkingGraph(source) => source,
        }
    }

    /// The cooperative-governor interrupt behind this error, when the
    /// analysis was cut short by a deadline / cancel / memory cap rather
    /// than failing outright.  Callers use this to pick the degradation
    /// path (fall back to bounds) instead of treating the overrun as a
    /// hard failure.
    pub fn interrupt(&self) -> Option<Interrupt> {
        self.marking().interrupt()
    }
}

/// Where a throughput candidate comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnRef {
    /// Processor `slot` of stage `stage`.
    Compute {
        /// Stage index.
        stage: usize,
        /// Team slot.
        slot: usize,
    },
    /// Connected component `component` of the communication of file
    /// `file` (`0 ≤ component < gcd(R_file, R_{file+1})`).
    Comm {
        /// File index.
        file: usize,
        /// Component index.
        component: usize,
    },
}

/// One candidate system throughput contributed by a component
/// (`ρ_cand = m × per-transition inner rate`).
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// The component.
    pub place: ColumnRef,
    /// Its candidate throughput (data sets per time unit).
    pub rate: f64,
}

/// Result of the Overlap decomposition.
#[derive(Debug, Clone)]
pub struct ExpReport {
    /// System throughput (minimum candidate).
    pub throughput: f64,
    /// The binding component.
    pub bottleneck: Candidate,
    /// All candidates, in column order.
    pub candidates: Vec<Candidate>,
}

/// Options for the exponential analyses: the one [`RunConfig`] every
/// layer holds.  The Theorem 2 chain is budgeted by
/// [`RunConfig::max_states`], each Theorem 3 pattern chain by
/// [`RunConfig::pattern_states`]; an interrupted
/// [`RunConfig::budget`] surfaces through [`ExpError::interrupt`].
pub type ExpOptions = RunConfig;

/// Theorem 3/4: throughput of the Overlap model by column decomposition
/// (default budgets, every pattern chain solved through a fresh
/// [`ChainCache`]).
pub fn throughput_overlap<'a>(system: impl Into<SystemRef<'a>>) -> Result<ExpReport, ExpError> {
    let system = system.into();
    let rates = exponential_rates(system);
    throughput_overlap_with_solver(
        &system.shape(),
        &rates,
        ExpOptions::default(),
        &mut ChainCache::new(),
    )
}

/// Oracle for **both** chain families an analysis needs: the pattern
/// chains of the Theorem 3 decomposition and the Strict Theorem 2 chain.
/// Implemented by [`ChainCache`] (one owner — the one-shot CLI, a search
/// thread, `bounds`, `report`, the engine's batch scorers) and by
/// `&SharedChainCache` (the serving layer's sharded concurrent cache;
/// each solve locks one shard for its duration).  Every value of both is
/// **bitwise identical** to a fresh cache's cold solve, so
/// [`throughput_strict_with_solver`] and `report::system_report_with`,
/// generic over this trait, render the one-shot and served reports
/// byte-for-byte the same.
pub trait ChainSolver {
    /// Inner throughput of the `u′ × v′` pattern with per-link rates
    /// `rate[a][b]` (coprime dimensions), or the marking error of a chain
    /// that exceeds `max_states`.
    fn pattern_throughput(
        &mut self,
        rate: &[Vec<f64>],
        max_states: usize,
    ) -> Result<f64, MarkingError>;

    /// Strict Theorem 2 solve of `shape` under per-resource `rates` (what
    /// [`throughput_strict_report`] runs through a fresh [`ChainCache`]).
    fn strict_solve(
        &mut self,
        shape: &MappingShape,
        rates: &ResourceTable<f64>,
        opts: RunConfig,
    ) -> Result<StrictSolve, MarkingError>;
}

impl ChainSolver for ChainCache {
    fn pattern_throughput(
        &mut self,
        rate: &[Vec<f64>],
        max_states: usize,
    ) -> Result<f64, MarkingError> {
        ChainCache::pattern_throughput(self, rate, max_states)
    }

    fn strict_solve(
        &mut self,
        shape: &MappingShape,
        rates: &ResourceTable<f64>,
        opts: RunConfig,
    ) -> Result<StrictSolve, MarkingError> {
        self.strict_throughput(shape, rates, opts)
    }
}

impl ChainSolver for &SharedChainCache {
    fn pattern_throughput(
        &mut self,
        rate: &[Vec<f64>],
        max_states: usize,
    ) -> Result<f64, MarkingError> {
        SharedChainCache::pattern_throughput(self, rate, max_states)
    }

    fn strict_solve(
        &mut self,
        shape: &MappingShape,
        rates: &ResourceTable<f64>,
        opts: RunConfig,
    ) -> Result<StrictSolve, MarkingError> {
        SharedChainCache::strict_throughput(self, shape, rates, opts)
    }
}

/// The decomposition itself, on a shape and per-resource rates (callers
/// may sweep synthetic columns without a full platform), with a
/// caller-supplied [`ChainSolver`] (see the trait docs for the bitwise
/// contract).
pub fn throughput_overlap_with_solver(
    shape: &MappingShape,
    rates: &ResourceTable<f64>,
    opts: ExpOptions,
    solver: &mut impl ChainSolver,
) -> Result<ExpReport, ExpError> {
    let n = shape.n_stages();
    let mut candidates = Vec::new();

    // Compute columns: processor cycles never interfere; the inner
    // data-set rate of processor p is its own rate λ_p, and the candidate
    // system throughput is m · λ_p / (m / R_i) = R_i · λ_p.
    for stage in 0..n {
        let r = shape.team_size(stage);
        for slot in 0..r {
            let lam = *rates.get(Resource::Proc { stage, slot });
            candidates.push(Candidate {
                place: ColumnRef::Compute { stage, slot },
                rate: r as f64 * lam,
            });
        }
    }

    // Communication columns: g components, each a u′×v′ pattern.
    for file in 0..n.saturating_sub(1) {
        let u = shape.team_size(file);
        let v = shape.team_size(file + 1);
        let g = gcd(u, v);
        let (up, vp) = (u / g, v / g);
        for component in 0..g {
            let rate_at = |a: usize, b: usize| {
                *rates.get(Resource::Link {
                    file,
                    src: component + g * a,
                    dst: component + g * b,
                })
            };
            // Homogeneous component → Theorem 4 closed form.
            let first = rate_at(0, 0);
            let mut homogeneous = true;
            'scan: for a in 0..up {
                for b in 0..vp {
                    if (rate_at(a, b) - first).abs() > 1e-12 * first {
                        homogeneous = false;
                        break 'scan;
                    }
                }
            }
            let inner = if homogeneous {
                pattern::homogeneous_throughput(up, vp, first)
            } else {
                let matrix: Vec<Vec<f64>> = (0..up)
                    .map(|a| (0..vp).map(|b| rate_at(a, b)).collect())
                    .collect();
                solver
                    .pattern_throughput(&matrix, opts.pattern_states())
                    .map_err(|source| ExpError::PatternTooLarge {
                        u: up,
                        v: vp,
                        source,
                    })?
            };
            candidates.push(Candidate {
                place: ColumnRef::Comm { file, component },
                rate: g as f64 * inner,
            });
        }
    }

    let Some(&bottleneck) = candidates.iter().min_by(|a, b| a.rate.total_cmp(&b.rate)) else {
        unreachable!("every stage contributes at least one compute candidate")
    };
    Ok(ExpReport {
        throughput: bottleneck.rate,
        bottleneck,
        candidates,
    })
}

/// How a [`StrictReport`]'s chain was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrictMethod {
    /// The symmetry-reduced chain was built **directly** by the
    /// canonical-marking BFS — the full chain was never materialized.
    DirectQuotient,
    /// Full-chain solve (heterogeneous rates, or `m = 1`).
    Full,
}

impl StrictMethod {
    /// Short label for reports ("direct-quotient" / "full").
    pub fn label(self) -> &'static str {
        match self {
            StrictMethod::DirectQuotient => "direct-quotient",
            StrictMethod::Full => "full",
        }
    }
}

/// Result of the Theorem 2 analysis, recording whether the direct
/// quotient was solved and how much it reduced the chain.
#[derive(Debug, Clone)]
pub struct StrictReport {
    /// System throughput (data sets per time unit).
    pub throughput: f64,
    /// States of the full marking chain (for a direct-quotient solve this
    /// is the orbit-size total — the full chain itself was never built).
    pub full_states: usize,
    /// States of the symmetry-reduced chain actually solved, when the
    /// direct quotient applied (`None` ⇒ full-chain solve).
    pub lumped_states: Option<usize>,
    /// How the solved chain was obtained.
    pub method: StrictMethod,
    /// The stationary method that actually ran (under
    /// `SolverChoice::Auto` this is the plan's pick; under `Force` it
    /// echoes the forced method).
    pub solver: Solver,
    /// Iterations the winning solver spent (sweeps for Gauss–Seidel and
    /// power, `n` for GTH's eliminations).
    pub iterations: usize,
    /// Max-norm stationarity residual `‖πQ‖∞` of the solved chain's
    /// vector, measured by the solver layer after the solve (for every
    /// method, including the direct ones).
    pub residual: f64,
    /// Storage accounting of the build: interning keys, the row queue's
    /// peak and the interner's slot tables — the report's memory line.
    pub arena: ArenaStats,
}

/// Theorem 2: exact throughput of the **Strict** model through the global
/// marking-graph CTMC (the Strict TPN is safe).
///
/// On a homogeneous mapping the stationary solve runs on the row-rotation
/// quotient chain — see [`throughput_strict_report`] for the reduction
/// bookkeeping.
///
/// ```
/// use repstream_core::exponential::{throughput_strict, ExpOptions};
/// use repstream_core::model::{Application, Mapping, Platform, System};
///
/// // Two stages on teams of 2 and 3 (homogeneous ⇒ m = lcm(2,3) = 6
/// // and the solve runs on the 6-fold-smaller quotient chain).
/// let app = Application::uniform(2, 6.0, 12.0).unwrap();
/// let platform = Platform::complete(vec![2.0; 5], 1.0).unwrap();
/// let mapping = Mapping::new(vec![vec![0, 1], vec![2, 3, 4]]).unwrap();
/// let system = System::new(app, platform, mapping).unwrap();
///
/// let rho = throughput_strict(&system, ExpOptions::default()).unwrap();
/// assert!(rho > 0.0);
/// // Strict serialization can only lose throughput vs Overlap.
/// let overlap = repstream_core::exponential::throughput_overlap(&system)
///     .unwrap()
///     .throughput;
/// assert!(rho <= overlap + 1e-9);
/// ```
pub fn throughput_strict<'a>(
    system: impl Into<SystemRef<'a>>,
    opts: ExpOptions,
) -> Result<f64, ExpError> {
    throughput_strict_report(system, opts).map(|r| r.throughput)
}

/// As [`throughput_strict`], also reporting full-vs-quotient state counts
/// and the construction method.
///
/// A one-shot [`throughput_strict_with_solver`] through a fresh
/// [`ChainCache`], so a cold solve and a cached one take the same
/// decision in the same place: when each stage's team and its links are
/// homogeneous (the exponential setting of Theorem 2), the TPN
/// row-rotation automorphism survives into the rate table and the
/// symmetry-reduced chain is **constructed directly** — the
/// canonical-marking BFS interns one representative per rotation orbit,
/// so the full chain (larger by `m = lcm(R_i)`) is never materialized and
/// [`ExpOptions::max_states`] only has to cover the quotient.  When the
/// rotation does not survive — heterogeneous rates, or the degenerate
/// `m = 1` — the full chain is solved.
pub fn throughput_strict_report<'a>(
    system: impl Into<SystemRef<'a>>,
    opts: ExpOptions,
) -> Result<StrictReport, ExpError> {
    throughput_strict_with_solver(system, opts, &mut ChainCache::new())
}

/// As [`throughput_strict_report`], solving through a caller-supplied
/// [`ChainSolver`]: a warm cache re-rates the chain's shared structure —
/// a rate per transition label and the `O(n)` exit rates — instead of
/// re-running the marking BFS, bitwise identical to the cold solve.  A validated rate-preserving rotation yields
/// [`StrictMethod::DirectQuotient`], everything else
/// [`StrictMethod::Full`].
pub fn throughput_strict_with_solver<'a>(
    system: impl Into<SystemRef<'a>>,
    opts: ExpOptions,
    solver: &mut impl ChainSolver,
) -> Result<StrictReport, ExpError> {
    let system = system.into();
    let shape = system.shape();
    let rates = exponential_rates(system);
    let sol = solver
        .strict_solve(&shape, &rates, opts)
        .map_err(ExpError::MarkingGraph)?;
    Ok(StrictReport {
        throughput: sol.throughput,
        full_states: sol.full_states,
        lumped_states: sol.lumped_states,
        method: if sol.quotient_direct {
            StrictMethod::DirectQuotient
        } else {
            StrictMethod::Full
        },
        solver: sol.solver,
        iterations: sol.iterations,
        residual: sol.residual,
        arena: sol.arena,
    })
}

/// Validation variant: global CTMC of the **Overlap** TPN with a finite
/// per-place capacity.  Under-estimates the infinite-buffer throughput and
/// increases towards it with the capacity (at most 255 tokens per place;
/// more is refused as `MarkingError::CapacityTooLarge`).  Returns the
/// throughput and the bounded chain's state count.
pub fn throughput_overlap_bounded<'a>(
    system: impl Into<SystemRef<'a>>,
    capacity: u32,
    opts: ExpOptions,
) -> Result<(f64, usize), ExpError> {
    let system = system.into();
    let shape = system.shape();
    let tpn = Tpn::build(&shape, ExecModel::Overlap);
    let rates = exponential_rates(system);
    let net = EventNet::from_tpn(&tpn, &rates);
    let mg =
        MarkingGraph::build(&net, opts.marking(Some(capacity))).map_err(ExpError::MarkingGraph)?;
    let (rho, _) = mg
        .throughput_solve_governed(
            &mg.ctmc_with_trans_rates(&net.rates),
            &net.rates,
            &tpn.last_column(),
            SolverChoice::Auto,
            &opts.budget,
        )
        .map_err(|i| ExpError::MarkingGraph(i.into()))?;
    Ok((rho, mg.n_states()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Application, Mapping, Platform, System};

    fn system(teams: Vec<Vec<usize>>, speeds: Vec<f64>, bw: f64) -> System {
        let n = teams.len();
        let app = Application::uniform(n, 6.0, 12.0).unwrap();
        let platform = Platform::complete(speeds, bw).unwrap();
        System::new(app, platform, Mapping::new(teams).unwrap()).unwrap()
    }

    #[test]
    fn single_stage_sums_rates() {
        // Homogeneous 3-replica stage: ρ = R·λ = 3·(1/6)·… per proc speed 2
        // → time 3, λ = 1/3, ρ = 1.
        let sys = system(vec![vec![0, 1, 2]], vec![2.0, 2.0, 2.0], 1.0);
        let rep = throughput_overlap(&sys).unwrap();
        assert!((rep.throughput - 1.0).abs() < 1e-12, "{rep:?}");
    }

    #[test]
    fn heterogeneous_stage_bound_by_slowest() {
        // Round-robin: ρ = R·λ_slow = 2·(0.5/6) = 1/6.
        let sys = system(vec![vec![0, 1]], vec![2.0, 0.5], 1.0);
        let rep = throughput_overlap(&sys).unwrap();
        assert!((rep.throughput - 2.0 * 0.5 / 6.0).abs() < 1e-12);
        assert_eq!(
            rep.bottleneck.place,
            ColumnRef::Compute { stage: 0, slot: 1 }
        );
    }

    #[test]
    fn comm_bound_uses_theorem_4() {
        // Fast processors, slow homogeneous network: 2×3 pattern,
        // comm time 12/1 = 12 → λ = 1/12, inner = 6λ/4 = 1/8.
        let sys = system(vec![vec![0, 1], vec![2, 3, 4]], vec![100.0; 5], 1.0);
        let rep = throughput_overlap(&sys).unwrap();
        assert!((rep.throughput - 1.0 / 8.0).abs() < 1e-12, "{rep:?}");
        assert_eq!(
            rep.bottleneck.place,
            ColumnRef::Comm {
                file: 0,
                component: 0
            }
        );
    }

    #[test]
    fn components_split_by_gcd() {
        // 2 → 4: g = 2 components of 1×2 patterns; inner = 2λ/2 = λ each,
        // candidate = g·λ = 2λ.
        let sys = system(vec![vec![0, 1], vec![2, 3, 4, 5]], vec![100.0; 6], 1.0);
        let rep = throughput_overlap(&sys).unwrap();
        let comm: Vec<&Candidate> = rep
            .candidates
            .iter()
            .filter(|c| matches!(c.place, ColumnRef::Comm { .. }))
            .collect();
        assert_eq!(comm.len(), 2);
        let lam = 1.0 / 12.0;
        for c in comm {
            assert!((c.rate - 2.0 * lam).abs() < 1e-12, "{c:?}");
        }
    }

    #[test]
    fn heterogeneous_pattern_solved_exactly() {
        // Make one link slow: the pattern CTMC must be invoked and the
        // result must fall between the homogeneous extremes.
        let app = Application::uniform(2, 0.06, 12.0).unwrap();
        let mut platform = Platform::complete(vec![100.0; 5], 1.0).unwrap();
        platform.set_bandwidth(0, 2, 0.5).unwrap(); // slower link 0→2
        let mapping = Mapping::new(vec![vec![0, 1], vec![2, 3, 4]]).unwrap();
        let sys = System::new(app, platform, mapping).unwrap();
        let rep = throughput_overlap(&sys).unwrap();
        let lam_fast = 1.0 / 12.0;
        let lam_slow = 0.5 / 12.0;
        let hi = pattern::homogeneous_throughput(2, 3, lam_fast);
        let lo = pattern::homogeneous_throughput(2, 3, lam_slow);
        assert!(
            rep.throughput > lo && rep.throughput < hi,
            "{lo} < {} < {hi}",
            rep.throughput
        );
    }

    #[test]
    fn strict_ctmc_runs_on_small_system() {
        let sys = system(vec![vec![0], vec![1]], vec![1.0, 1.0], 4.0);
        let rho = throughput_strict(&sys, ExpOptions::default()).unwrap();
        // Must be below the deterministic Strict throughput 1/9.
        assert!(rho > 0.0 && rho < 1.0 / 9.0, "rho {rho}");
    }

    #[test]
    fn strict_lumped_matches_full_chain_on_homogeneous_lcm12() {
        // Teams 3 and 4 ⇒ m = lcm = 12; homogeneous platform keeps the
        // row-rotation symmetry, so the lumped path must engage, shrink
        // the chain measurably, and agree with the full-chain solve.
        let sys = system(vec![vec![0, 1, 2], vec![3, 4, 5, 6]], vec![2.0; 7], 1.0);
        let lumped = throughput_strict_report(&sys, ExpOptions::default()).unwrap();
        let tpn = Tpn::build(&sys.shape(), ExecModel::Strict);
        let net = EventNet::from_tpn(&tpn, &exponential_rates(&sys));
        let mg = MarkingGraph::build(&net, ExpOptions::default().marking(None)).unwrap();
        let (full, _) = mg.throughput_solve(
            &mg.ctmc_with_trans_rates(&net.rates),
            &net.rates,
            &tpn.last_column(),
            SolverChoice::Auto,
        );
        let reduced = lumped.lumped_states.expect("homogeneous system lumps");
        assert_eq!(lumped.method, StrictMethod::DirectQuotient);
        assert_eq!(lumped.full_states, mg.n_states());
        assert!(
            reduced * 2 <= lumped.full_states,
            "expected ≥ 2× reduction: {reduced} of {}",
            lumped.full_states
        );
        assert!(
            (lumped.throughput - full).abs() < 1e-8 * full,
            "lumped {} vs full {full}",
            lumped.throughput
        );
    }

    #[test]
    fn strict_lumped_refuses_heterogeneous_platform() {
        // One slower processor breaks team homogeneity: the symmetry hint
        // must be refused and the full chain used — same result, no lump.
        let sys = system(vec![vec![0, 1], vec![2]], vec![2.0, 1.0, 2.0], 1.0);
        let rep = throughput_strict_report(&sys, ExpOptions::default()).unwrap();
        assert!(rep.lumped_states.is_none(), "{rep:?}");
        assert_eq!(rep.method, StrictMethod::Full);
        assert!(rep.throughput > 0.0);
    }

    #[test]
    fn strict_lumped_degenerates_on_unreplicated_pipeline() {
        // All R_i = 1 ⇒ m = 1 ⇒ identity rotation ⇒ discrete seed: the
        // lump-first path falls back to the full chain.
        let sys = system(vec![vec![0], vec![1], vec![2]], vec![1.0; 3], 2.0);
        let rep = throughput_strict_report(&sys, ExpOptions::default()).unwrap();
        assert!(rep.lumped_states.is_none(), "{rep:?}");
        assert_eq!(rep.method, StrictMethod::Full);
        assert!(rep.throughput > 0.0);
    }

    #[test]
    fn overlap_bounded_increases_with_capacity() {
        let sys = system(vec![vec![0], vec![1]], vec![1.0, 2.0], 4.0);
        let mut last = 0.0;
        for cap in [1, 2, 4] {
            let (rho, _) = throughput_overlap_bounded(&sys, cap, ExpOptions::default()).unwrap();
            assert!(rho >= last - 1e-12);
            last = rho;
        }
        // Upper bound: the decomposition value (infinite buffers).
        let rep = throughput_overlap(&sys).unwrap();
        assert!(last <= rep.throughput + 1e-9);
    }
}
