//! Parametric systems behind Figures 12–17.
//!
//! The communication-focused figures all use "a single communication
//! between two negligible computations" with replication factors `u` and
//! `v`; the fidelity figure (12) chains that pattern repeatedly.

use rand::Rng;
use repstream_core::model::{App, Application, Mapping, Platform, System, Workload};
use repstream_stochastic::rng::seeded_rng;

/// Errors of the scenario constructors.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// A per-link transfer time must be positive and finite: a zero or
    /// negative time would silently become an infinite/negative bandwidth
    /// (`1 / time`) and propagate NaN into every throughput computed from
    /// the system.
    BadLinkTime {
        /// Sender slot.
        src: usize,
        /// Receiver slot.
        dst: usize,
        /// The offending time.
        time: f64,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::BadLinkTime { src, dst, time } => write!(
                f,
                "link {src} -> {dst}: transfer time {time} must be positive and finite"
            ),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A single `u → v` communication between negligible computations
/// (Figures 13 and 15–17).  `comm_time` is the homogeneous transfer time
/// of every link; it must be positive and finite.
pub fn single_comm(u: usize, v: usize, comm_time: f64) -> Result<System, ScenarioError> {
    single_comm_with(u, v, |_, _| comm_time)
}

/// As [`single_comm`] with per-link transfer times (Figure 14's
/// heterogeneous network).
///
/// Every `time(s, d)` is validated before being inverted into a
/// bandwidth: zero, negative, infinite or NaN times are reported as
/// [`ScenarioError::BadLinkTime`] instead of leaking a non-finite
/// bandwidth into the platform.
pub fn single_comm_with(
    u: usize,
    v: usize,
    mut time: impl FnMut(usize, usize) -> f64,
) -> Result<System, ScenarioError> {
    // File of unit size; bandwidth encodes the requested time.
    let app = Application::new(vec![1e-9, 1e-9], vec![1.0]).unwrap();
    let m = u + v;
    let mut platform = Platform::complete(vec![1e9; m], 1.0).unwrap();
    for s in 0..u {
        for d in 0..v {
            let t = time(s, d);
            // The platform validates the bandwidth again, which also
            // catches subnormal times whose reciprocal overflows to ∞.
            if !(t > 0.0 && t.is_finite()) || platform.set_bandwidth(s, u + d, 1.0 / t).is_err() {
                return Err(ScenarioError::BadLinkTime {
                    src: s,
                    dst: d,
                    time: t,
                });
            }
        }
    }
    let mapping =
        Mapping::new(vec![(0..u).collect::<Vec<_>>(), (u..m).collect::<Vec<_>>()]).unwrap();
    Ok(System::new(app, platform, mapping).unwrap())
}

/// Heterogeneous single communication: each link's mean time drawn
/// uniformly in `[100, 1000]` (Figure 14).
pub fn single_comm_heterogeneous(u: usize, v: usize, seed: u64) -> System {
    let mut rng = seeded_rng(seed);
    let mut times = vec![vec![0.0; v]; u];
    for row in &mut times {
        for t in row.iter_mut() {
            *t = rng.gen_range(100.0..1000.0);
        }
    }
    single_comm_with(u, v, |s, d| times[s][d]).expect("drawn times are positive and finite")
}

/// The 12-processor **mapping-search** scenario: a 4-stage chain with two
/// heavy *adjacent* stages on a heterogeneous platform.
///
/// The best mappings replicate both heavy stages, so the transfer between
/// them becomes a `u × v` pattern where deterministic and exponential
/// throughputs genuinely differ (Theorem 4) — the instance the §8
/// mapping-construction heuristics, the portfolio search driver, and the
/// benchmark's search workload all run on.  Returned as `(application,
/// platform)`: the mapping is what the search is *for*.
pub fn mapping_search() -> (Application, Platform) {
    let app = Application::new(vec![8.0, 30.0, 45.0, 12.0], vec![4.0, 6.0, 3.0])
        .expect("static scenario is valid");
    let speeds = vec![3.0, 3.0, 2.5, 2.5, 2.0, 2.0, 2.0, 1.5, 1.5, 1.0, 1.0, 1.0];
    let platform = Platform::complete(speeds, 0.45).expect("static scenario is valid");
    (app, platform)
}

/// The **shared-platform workload** scenario: `k ≥ 1` applications
/// competing for the 12-processor [`mapping_search`] platform.
///
/// Tenants cycle through three templates:
///
/// * `i % 3 == 0` — the 4-stage mapping-search chain, weight 1, no SLA;
/// * `i % 3 == 1` — the **same** chain again, weight 2 and an SLA of
///   0.02 jobs/s.  Identical stage counts mean joint candidates often
///   give apps 0 and 1 the same replication shape, so one search
///   exercises cross-app `ChainCache` sharing (one `TpnSignature`, one
///   marking-graph build);
/// * `i % 3 == 2` — a lighter 3-stage chain with an SLA of 0.05 jobs/s.
///
/// `shared_platform(2)` is therefore the smallest instance with both
/// contention and cache sharing — the CI smoke workload.
pub fn shared_platform(k: usize) -> Workload {
    assert!(k >= 1, "a workload needs at least one application");
    let (anchor, platform) = mapping_search();
    let light =
        Application::new(vec![6.0, 18.0, 9.0], vec![3.0, 2.0]).expect("static scenario is valid");
    let apps = (0..k)
        .map(|i| match i % 3 {
            0 => App::new(anchor.clone()),
            1 => App::new(anchor.clone())
                .with_weight(2.0)
                .and_then(|a| a.with_sla(0.02))
                .expect("static weight/SLA are valid"),
            _ => App::new(light.clone())
                .with_sla(0.05)
                .expect("static SLA is valid"),
        })
        .collect();
    Workload::new(apps, platform).expect("k >= 1 apps")
}

/// Figure 12's repeated pattern: `reps` copies of a 2-stage block joined
/// by a costly 5 → 7 communication.  Stage works are negligible; all the
/// action is in the `reps` communication columns.
///
/// The resulting chain has `2·reps` stages alternating teams of 5 and 7.
pub fn repeated_pattern(reps: usize, comm_time: f64) -> System {
    assert!(reps >= 1);
    let n = 2 * reps;
    let work = vec![1e-9; n];
    // Costly communication inside a block (5 → 7), negligible between
    // blocks (7 → 5).
    let mut sizes = Vec::with_capacity(n - 1);
    for i in 0..n - 1 {
        sizes.push(if i % 2 == 0 { 1.0 } else { 1e-9 });
    }
    let app = Application::new(work, sizes).unwrap();

    let per_block = 5 + 7;
    let m = per_block * reps;
    let platform = Platform::complete(vec![1e9; m], 1.0 / comm_time).unwrap();
    let mut teams = Vec::with_capacity(n);
    let mut next = 0;
    for _ in 0..reps {
        teams.push((next..next + 5).collect::<Vec<_>>());
        next += 5;
        teams.push((next..next + 7).collect::<Vec<_>>());
        next += 7;
    }
    System::new(app, platform, Mapping::new(teams).unwrap()).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use repstream_core::{deterministic, exponential};
    use repstream_petri::shape::ExecModel;

    #[test]
    fn single_comm_deterministic_rate() {
        // u=2, v=3, time 1: deterministic ρ = min(u,v)/time = 2.
        let sys = single_comm(2, 3, 1.0).unwrap();
        let det = deterministic::analyze(&sys, ExecModel::Overlap);
        assert!((det.throughput - 2.0).abs() < 1e-6, "{}", det.throughput);
    }

    #[test]
    fn single_comm_exponential_theorem4() {
        let sys = single_comm(2, 3, 1.0).unwrap();
        let rep = exponential::throughput_overlap(&sys).unwrap();
        assert!((rep.throughput - 1.5).abs() < 1e-6, "{}", rep.throughput);
    }

    #[test]
    fn bad_link_times_rejected() {
        for bad in [0.0, -2.0, f64::INFINITY, f64::NAN] {
            let err = single_comm(2, 3, bad).unwrap_err();
            assert!(
                matches!(err, ScenarioError::BadLinkTime { src: 0, dst: 0, .. }),
                "time {bad}: {err}"
            );
        }
        // A single offending link is pinpointed.
        let err =
            single_comm_with(2, 2, |s, d| if (s, d) == (1, 0) { -1.0 } else { 5.0 }).unwrap_err();
        assert_eq!(
            err,
            ScenarioError::BadLinkTime {
                src: 1,
                dst: 0,
                time: -1.0
            }
        );
        // A subnormal time whose reciprocal overflows to ∞ is caught by
        // the platform-level validation.
        let err = single_comm(1, 1, 5e-324).unwrap_err();
        assert!(matches!(err, ScenarioError::BadLinkTime { .. }), "{err}");
    }

    #[test]
    fn heterogeneous_times_in_range() {
        let sys = single_comm_heterogeneous(3, 4, 9);
        let times = repstream_core::timing::deterministic_times(&sys);
        for (r, &t) in times.iter() {
            if matches!(r, repstream_petri::shape::Resource::Link { .. }) {
                assert!((100.0..1000.0).contains(&t), "{r}: {t}");
            }
        }
    }

    #[test]
    fn mapping_search_scenario_is_searchable() {
        let (app, platform) = mapping_search();
        assert_eq!(app.n_stages(), 4);
        assert_eq!(platform.n_processors(), 12);
        // A valid mapping exists and scores positively.
        let mapping = Mapping::new(vec![vec![0], vec![1, 2], vec![3, 4, 5], vec![6]]).unwrap();
        let sys = System::new(app, platform, mapping).unwrap();
        assert!(deterministic::throughput_columnwise(&sys) > 0.0);
    }

    #[test]
    fn shared_platform_cycles_templates() {
        let w = shared_platform(4);
        assert_eq!(w.n_apps(), 4);
        assert_eq!(w.platform().n_processors(), 12);
        // Apps 0 and 1 share a chain shape (the cache-sharing pair).
        assert_eq!(w.app(0).application(), w.app(1).application());
        assert_eq!(w.app(0).weight(), 1.0);
        assert_eq!(w.app(0).sla(), None);
        assert_eq!(w.app(1).weight(), 2.0);
        assert_eq!(w.app(1).sla(), Some(0.02));
        assert_eq!(w.app(2).application().n_stages(), 3);
        assert_eq!(w.app(2).sla(), Some(0.05));
        // Template cycle wraps around.
        assert_eq!(w.app(3).application(), w.app(0).application());
    }

    #[test]
    fn repeated_pattern_throughput_independent_of_reps() {
        // Figure 12's point: no backward influence, so the rate does not
        // change with the number of repeated blocks.
        let r1 = deterministic::analyze(&repeated_pattern(1, 1.0), ExecModel::Overlap);
        let r3 = deterministic::analyze(&repeated_pattern(3, 1.0), ExecModel::Overlap);
        assert!(
            (r1.throughput - r3.throughput).abs() < 1e-6 * r1.throughput,
            "{} vs {}",
            r1.throughput,
            r3.throughput
        );
        // Exponential too (Theorem 3 decomposition).
        let e1 = exponential::throughput_overlap(&repeated_pattern(1, 1.0)).unwrap();
        let e3 = exponential::throughput_overlap(&repeated_pattern(3, 1.0)).unwrap();
        assert!((e1.throughput - e3.throughput).abs() < 1e-9);
    }
}
