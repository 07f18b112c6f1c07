//! Deterministic (static) throughput — Section 4 of the paper.
//!
//! The period of the mapping is the maximum cycle ratio of its TPN and the
//! throughput is `ρ = m / P` (all `m` rows complete once per period).
//! Two algorithms:
//!
//! * [`analyze`] — build the full TPN and run Howard policy iteration on
//!   it (works for both execution models, reports the critical cycle and
//!   the resources on it);
//! * [`throughput_columnwise`] — the polynomial algorithm of Theorem 1 for
//!   the **Overlap** model: cycles never straddle columns, so each
//!   communication column is analysed through one pattern per connected
//!   component and the compute columns in closed form.  Never materializes
//!   the `m`-row TPN, hence usable when `m = lcm(R_i)` is astronomically
//!   large.

use crate::model::SystemRef;
use crate::timing::deterministic_times;
use repstream_maxplus::cycle_ratio::maximum_cycle_ratio;
use repstream_maxplus::TokenGraph;
use repstream_petri::shape::{gcd, ExecModel, MappingShape, Resource, ResourceTable};
use repstream_petri::tpn::Tpn;

/// Report of the global deterministic analysis.
#[derive(Debug, Clone)]
pub struct DeterministicReport {
    /// Execution model analysed.
    pub model: ExecModel,
    /// The period `P` (time between data-set completions × `m`).
    pub period: f64,
    /// Throughput `ρ = m / P`.
    pub throughput: f64,
    /// Number of TPN rows `m` (paths).
    pub rows: usize,
    /// The paper's `Mct`: largest per-data-set resource cycle time.
    pub mct: f64,
    /// The §2.3 bound `1 / Mct ≥ ρ`.
    pub bound_throughput: f64,
    /// `true` when `ρ` is (numerically) equal to `1/Mct`, i.e. a critical
    /// hardware resource dictates the throughput.  The paper's Table 1
    /// counts the (rare) instances where this fails.
    pub has_critical_resource: bool,
    /// Resources appearing on a critical cycle of the TPN.
    pub critical_resources: Vec<Resource>,
}

/// Relative gap below which we say "a critical resource dictates ρ".
const CRITICAL_TOL: f64 = 1e-9;

/// Global analysis: build the TPN, compute the maximum cycle ratio.
pub fn analyze<'a>(system: impl Into<SystemRef<'a>>, model: ExecModel) -> DeterministicReport {
    let system = system.into();
    let times = deterministic_times(system);
    analyze_shape(&system.shape(), model, &times)
}

/// As [`analyze`], working directly on a shape and an explicit
/// per-resource time table (used by experiment harnesses that generate
/// resource times without a full platform, e.g. Table 1).
pub fn analyze_shape(
    shape: &MappingShape,
    model: ExecModel,
    times: &ResourceTable<f64>,
) -> DeterministicReport {
    let tpn = Tpn::build(shape, model);
    let g = tpn.to_token_graph(times);
    let Some(cr) = maximum_cycle_ratio(&g) else {
        unreachable!("a TPN always has resource cycles")
    };
    let period = cr.ratio;
    let m = tpn.rows();
    let throughput = m as f64 / period;

    let mct = tpn.max_cycle_time(times);
    let bound = 1.0 / mct;
    let mut critical: Vec<Resource> = cr
        .critical_cycle
        .iter()
        .map(|&aid| {
            // Arc weight = firing time of the destination transition.
            let dst = g.arc(aid).dst;
            tpn.transitions()[dst].resource
        })
        .collect();
    critical.sort();
    critical.dedup();

    DeterministicReport {
        model,
        period,
        throughput,
        rows: m,
        mct,
        bound_throughput: bound,
        has_critical_resource: (bound - throughput).abs() <= CRITICAL_TOL * bound,
        critical_resources: critical,
    }
}

/// Theorem 1 (Overlap): columnwise polynomial algorithm.
///
/// Returns the throughput without ever building the `m`-row TPN.
/// The candidate rate of each component is:
///
/// * processor `p` of stage `i`: `ρ_cand = R_i / c_p` (round-robin: the
///   stage advances at the pace of each of its processors in turn);
/// * communication component (pattern `u′ × v′`, `g` components):
///   `ρ_cand = g · u′v′ / P_pattern` where `P_pattern` is the pattern's
///   maximum cycle ratio.
///
/// The throughput is the minimum candidate (feed-forward min-composition).
pub fn throughput_columnwise<'a>(system: impl Into<SystemRef<'a>>) -> f64 {
    let system = system.into();
    let times = deterministic_times(system);
    throughput_columnwise_shape(&system.shape(), &times)
}

/// As [`throughput_columnwise`], working on a shape and time table.
pub fn throughput_columnwise_shape(shape: &MappingShape, times: &ResourceTable<f64>) -> f64 {
    throughput_columnwise_with_fns(
        shape.teams(),
        &mut |stage, slot| *times.get(Resource::Proc { stage, slot }),
        &mut |file, comp, g, up, vp| {
            pattern_period(up, vp, |a, b| {
                *times.get(Resource::Link {
                    file,
                    src: comp + g * a,
                    dst: comp + g * b,
                })
            })
        },
    )
}

/// Columnwise throughput with the stage times and the pattern periods
/// supplied by closures, so batch evaluators (the `repstream-engine`
/// crate) can fold per-resource service times (e.g. contention shares)
/// on the fly instead of materializing a [`ResourceTable`] per
/// candidate, and memoize the (comparatively expensive) critical-cycle
/// solves.  Takes the raw team sizes (`shape.teams()`) so hot paths need
/// not allocate a [`MappingShape`] either.
///
/// `stage_time(stage, slot)` is the processor's service time;
/// `period(file, component, g, u′, v′)` must return exactly what
/// [`pattern_period`] would compute for that component's link times.
/// Every fold and candidate value happens here, in the one shared
/// implementation — a caller whose closures return the table's values is
/// **bitwise** [`throughput_columnwise_shape`].
pub fn throughput_columnwise_with_fns(
    teams: &[usize],
    stage_time: &mut impl FnMut(usize, usize) -> f64,
    period: &mut impl FnMut(usize, usize, usize, usize, usize) -> f64,
) -> f64 {
    let n = teams.len();
    let mut best = f64::INFINITY;

    // Compute columns.
    for (stage, &r) in teams.iter().enumerate() {
        for slot in 0..r {
            let c = stage_time(stage, slot);
            best = best.min(r as f64 / c);
        }
    }

    // Communication columns.
    for file in 0..n.saturating_sub(1) {
        let u = teams[file];
        let v = teams[file + 1];
        let g = gcd(u, v);
        let (up, vp) = (u / g, v / g);
        for comp in 0..g {
            let p_pattern = period(file, comp, g, up, vp);
            best = best.min(g as f64 * (up * vp) as f64 / p_pattern);
        }
    }
    best
}

/// Maximum cycle ratio of the deterministic `u × v` pattern
/// (`gcd(u,v) = 1`): pattern row `k` transfers from sender `k mod u` to
/// receiver `k mod v`; one-port places link `k → k+u` and `k → k+v` with
/// wrap-around tokens.
///
/// Public so batch evaluators can memoize pattern periods by their weight
/// vectors while reproducing this function's results bit for bit (see
/// [`pattern_period_weights`] for the weight-vector form).
pub fn pattern_period(u: usize, v: usize, mut time: impl FnMut(usize, usize) -> f64) -> f64 {
    let n = u * v;
    let w: Vec<f64> = (0..n).map(|k| time(k % u, k % v)).collect();
    pattern_period_weights(u, v, &w)
}

/// As [`pattern_period`], taking the per-row transfer times directly
/// (`w[k]` is the time of pattern row `k`, i.e. of the link
/// `k mod u → k mod v`; `w.len() == u·v`).
pub fn pattern_period_weights(u: usize, v: usize, w: &[f64]) -> f64 {
    let n = u * v;
    assert_eq!(w.len(), n, "need one time per pattern row");
    let mut g = TokenGraph::new(n);
    for k in 0..n {
        let dst = (k + u) % n;
        g.add_arc(k, dst, w[dst], u32::from(k + u >= n));
        let dst = (k + v) % n;
        g.add_arc(k, dst, w[dst], u32::from(k + v >= n));
    }
    match maximum_cycle_ratio(&g) {
        Some(cr) => cr.ratio,
        None => unreachable!("pattern has cycles"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Application, Mapping, Platform, System};

    fn simple_system(teams: Vec<Vec<usize>>, speeds: Vec<f64>, bw: f64) -> System {
        let n = teams.len();
        let app = Application::uniform(n, 6.0, 12.0).unwrap();
        let platform = Platform::complete(speeds, bw).unwrap();
        System::new(app, platform, Mapping::new(teams).unwrap()).unwrap()
    }

    #[test]
    fn no_replication_matches_mct() {
        // Two stages on two unit-speed processors: comp 6 each, comm 12/4=3.
        let sys = simple_system(vec![vec![0], vec![1]], vec![1.0, 1.0], 4.0);
        let det = analyze(&sys, ExecModel::Overlap);
        assert!((det.throughput - 1.0 / 6.0).abs() < 1e-9);
        assert!(det.has_critical_resource);
        // Strict: P0 6+3, P1 3+6 → 1/9.
        let det = analyze(&sys, ExecModel::Strict);
        assert!((det.throughput - 1.0 / 9.0).abs() < 1e-9);
        assert!(det.has_critical_resource);
    }

    #[test]
    fn columnwise_matches_global_homogeneous() {
        let sys = simple_system(vec![vec![0, 1], vec![2, 3, 4]], vec![1.0; 5], 4.0);
        let global = analyze(&sys, ExecModel::Overlap).throughput;
        let colwise = throughput_columnwise(&sys);
        assert!(
            (global - colwise).abs() < 1e-9 * global,
            "global {global} vs columnwise {colwise}"
        );
    }

    #[test]
    fn columnwise_matches_global_heterogeneous() {
        // Heterogeneous speeds and bandwidths.
        let app = Application::new(vec![4.0, 9.0, 2.0], vec![6.0, 8.0]).unwrap();
        let mut platform = Platform::complete(vec![2.0, 1.0, 3.0, 1.5, 2.5, 1.0], 2.0).unwrap();
        platform.set_bandwidth(0, 1, 5.0).unwrap();
        platform.set_bandwidth(0, 2, 1.0).unwrap();
        platform.set_bandwidth(1, 3, 3.0).unwrap();
        platform.set_bandwidth(2, 4, 0.5).unwrap();
        let mapping = Mapping::new(vec![vec![0], vec![1, 2], vec![3, 4, 5]]).unwrap();
        let sys = System::new(app, platform, mapping).unwrap();
        let global = analyze(&sys, ExecModel::Overlap).throughput;
        let colwise = throughput_columnwise(&sys);
        assert!(
            (global - colwise).abs() < 1e-9 * global,
            "global {global} vs columnwise {colwise}"
        );
    }

    #[test]
    fn replication_helps_until_comm_binds() {
        // One slow stage; replicating it 3× should triple the rate while
        // communication and the (fast) first stage stay non-binding.
        let speeds = vec![10.0, 1.0, 1.0, 1.0, 1.0];
        let one = simple_system(vec![vec![0], vec![1]], speeds.clone(), 100.0);
        let three = simple_system(vec![vec![0], vec![1, 2, 3]], speeds, 100.0);
        let r1 = analyze(&one, ExecModel::Overlap).throughput;
        let r3 = analyze(&three, ExecModel::Overlap).throughput;
        assert!((r3 / r1 - 3.0).abs() < 1e-6, "{r1} -> {r3}");
    }

    #[test]
    fn critical_resources_identified() {
        let sys = simple_system(vec![vec![0], vec![1]], vec![1.0, 0.5], 4.0);
        let det = analyze(&sys, ExecModel::Overlap);
        // Stage 1 on the slow processor dominates (12 s).
        assert!(det
            .critical_resources
            .contains(&Resource::Proc { stage: 1, slot: 0 }));
        assert!((det.period - 12.0).abs() < 1e-9);
    }

    #[test]
    fn strict_never_faster_than_overlap() {
        let sys = simple_system(vec![vec![0, 1], vec![2]], vec![1.0, 2.0, 1.5], 3.0);
        let ov = analyze(&sys, ExecModel::Overlap).throughput;
        let st = analyze(&sys, ExecModel::Strict).throughput;
        assert!(st <= ov + 1e-12);
    }
}
