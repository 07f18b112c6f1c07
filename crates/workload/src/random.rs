//! Random instance families — the generator behind the paper's Table 1.
//!
//! The paper draws all relevant parameters (processor speeds, link
//! bandwidths, replication factors) uniformly in stated ranges, and
//! reports computation/communication *times* in seconds.  The generator
//! therefore produces per-resource times directly, alongside the mapping
//! shape.

use rand::seq::SliceRandom;
use rand::Rng;
use repstream_core::model::{JointMapping, Mapping};
use repstream_petri::shape::{MappingShape, ResourceTable};
use repstream_stochastic::rng::seeded_rng;

/// Parameters of a random instance family (one row block of Table 1).
#[derive(Debug, Clone, Copy)]
pub struct FamilyParams {
    /// Number of stages.
    pub stages: usize,
    /// Total number of processors distributed over teams.
    pub processors: usize,
    /// Computation times drawn uniformly from this range (seconds).
    pub comp_range: (f64, f64),
    /// Communication times drawn uniformly from this range (seconds).
    pub comm_range: (f64, f64),
}

impl FamilyParams {
    /// The instance families of Table 1, in row order, with their labels.
    pub fn table1() -> Vec<(&'static str, FamilyParams)> {
        let mk = |stages, processors, comp: (f64, f64), comm: (f64, f64)| FamilyParams {
            stages,
            processors,
            comp_range: comp,
            comm_range: comm,
        };
        vec![
            ("(10,20) 5..15/5..15", mk(10, 20, (5.0, 15.0), (5.0, 15.0))),
            ("(10,30) 5..15/5..15", mk(10, 30, (5.0, 15.0), (5.0, 15.0))),
            (
                "(10,20) 10..1000/10..1000",
                mk(10, 20, (10.0, 1000.0), (10.0, 1000.0)),
            ),
            (
                "(10,30) 10..1000/10..1000",
                mk(10, 30, (10.0, 1000.0), (10.0, 1000.0)),
            ),
            ("(20,30) 5..15/5..15", mk(20, 30, (5.0, 15.0), (5.0, 15.0))),
            (
                "(20,30) 10..1000/10..1000",
                mk(20, 30, (10.0, 1000.0), (10.0, 1000.0)),
            ),
            ("(2,7) 1/5..10", mk(2, 7, (1.0, 1.0), (5.0, 10.0))),
            ("(3,7) 1/5..10", mk(3, 7, (1.0, 1.0), (5.0, 10.0))),
            ("(2,7) 1/10..50", mk(2, 7, (1.0, 1.0), (10.0, 50.0))),
            ("(3,7) 1/10..50", mk(3, 7, (1.0, 1.0), (10.0, 50.0))),
        ]
    }
}

/// One random instance: the mapping shape plus per-resource times.
#[derive(Debug, Clone)]
pub struct RandomInstance {
    /// Team sizes.
    pub shape: MappingShape,
    /// Deterministic time of every resource (seconds).
    pub times: ResourceTable<f64>,
}

/// Split `total` processors over `stages` non-empty teams uniformly.
pub fn random_teams<R: Rng>(stages: usize, total: usize, rng: &mut R) -> Vec<usize> {
    assert!(total >= stages, "need one processor per stage");
    let mut teams = vec![1usize; stages];
    for _ in 0..total - stages {
        teams[rng.gen_range(0..stages)] += 1;
    }
    teams
}

/// Draw one instance of a family.
pub fn instance<R: Rng>(params: &FamilyParams, rng: &mut R) -> RandomInstance {
    let teams = random_teams(params.stages, params.processors, rng);
    let shape = MappingShape::new(teams);
    let (clo, chi) = params.comp_range;
    let (mlo, mhi) = params.comm_range;
    let draw = |lo: f64, hi: f64, rng: &mut R| {
        if hi > lo {
            rng.gen_range(lo..hi)
        } else {
            lo
        }
    };
    // Borrow juggling: pre-draw into closures via local generators.
    let times = {
        let mut proc_vals = Vec::new();
        for i in 0..shape.n_stages() {
            let mut v = Vec::new();
            for _ in 0..shape.team_size(i) {
                v.push(draw(clo, chi, rng));
            }
            proc_vals.push(v);
        }
        let mut link_vals = Vec::new();
        for i in 0..shape.n_stages().saturating_sub(1) {
            let mut mat = Vec::new();
            for _ in 0..shape.team_size(i) {
                let mut row = Vec::new();
                for _ in 0..shape.team_size(i + 1) {
                    row.push(draw(mlo, mhi, rng));
                }
                mat.push(row);
            }
            link_vals.push(mat);
        }
        ResourceTable::from_fns(&shape, |s, p| proc_vals[s][p], |f, s, d| link_vals[f][s][d])
    };
    RandomInstance { shape, times }
}

/// One uniformly random **valid** one-to-many mapping of `stages` stages
/// over processors `0..processors`: disjoint non-empty teams using a
/// uniform count of processors in `[stages, processors]`.
///
/// # Panics
/// Panics when `processors < stages` (no valid mapping exists).
pub fn random_mapping_with<R: Rng>(stages: usize, processors: usize, rng: &mut R) -> Mapping {
    assert!(
        processors >= stages,
        "{processors} processors cannot serve {stages} stages"
    );
    let mut procs: Vec<usize> = (0..processors).collect();
    procs.shuffle(rng);
    let used = rng.gen_range(stages..=processors);
    let mut teams: Vec<Vec<usize>> = vec![Vec::new(); stages];
    for (i, &p) in procs[..used].iter().enumerate() {
        if i < stages {
            teams[i].push(p); // each stage gets one first
        } else {
            teams[rng.gen_range(0..stages)].push(p);
        }
    }
    Mapping::new(teams).expect("teams are non-empty and disjoint by construction")
}

/// `count` seeded random mappings (see [`random_mapping_with`]), the
/// candidate sets of the search benchmark and property tests.  Candidate
/// `i` depends only on `(seed, i)`, so sets are reproducible and
/// extendable.
pub fn random_mappings(stages: usize, processors: usize, count: usize, seed: u64) -> Vec<Mapping> {
    (0..count as u64)
        .map(|i| {
            let mut rng = seeded_rng(seed.wrapping_add(i).wrapping_mul(0x9E37_79B9));
            random_mapping_with(stages, processors, &mut rng)
        })
        .collect()
}

/// One uniformly random **valid** joint mapping for `stage_counts.len()`
/// applications sharing processors `0..processors`: an independent
/// [`random_mapping_with`] draw per app, so cross-app processor sharing
/// (the contention the workload model charges for) arises naturally.
///
/// # Panics
/// Panics when `stage_counts` is empty or any app has more stages than
/// there are processors.
pub fn random_joint_mapping_with<R: Rng>(
    stage_counts: &[usize],
    processors: usize,
    rng: &mut R,
) -> JointMapping {
    JointMapping::new(
        stage_counts
            .iter()
            .map(|&stages| random_mapping_with(stages, processors, rng))
            .collect(),
    )
    .expect("stage_counts is non-empty")
}

/// `count` seeded random joint mappings (see
/// [`random_joint_mapping_with`]), the candidate sets of the joint search
/// and its property tests, flat: candidate `i`'s mapping of app `k` is at
/// `i·K + k` for `K = stage_counts.len()`.  Candidate `i` depends only on
/// `(seed, i)`, so sets are reproducible and extendable — and for a
/// single app the set is exactly [`random_mappings`]' (same
/// per-candidate stream).
///
/// # Panics
/// Panics when any app has more stages than there are processors.
pub fn random_joint_mappings(
    stage_counts: &[usize],
    processors: usize,
    count: usize,
    seed: u64,
) -> Vec<Mapping> {
    let mut out = Vec::with_capacity(count * stage_counts.len());
    for i in 0..count as u64 {
        let mut rng = seeded_rng(seed.wrapping_add(i).wrapping_mul(0x9E37_79B9));
        for &stages in stage_counts {
            out.push(random_mapping_with(stages, processors, &mut rng));
        }
    }
    out
}

/// Iterator over `count` seeded instances of a family.
pub fn instances(
    params: FamilyParams,
    count: usize,
    seed: u64,
) -> impl Iterator<Item = RandomInstance> {
    instance_stream(params, seed).take(count)
}

/// Unbounded stream of seeded instances (callers may filter, e.g. by TPN
/// size, and take as many as they need).
pub fn instance_stream(params: FamilyParams, seed: u64) -> impl Iterator<Item = RandomInstance> {
    (0u64..).map(move |i| {
        let mut rng = seeded_rng(seed.wrapping_add(i).wrapping_mul(0x9E37_79B9));
        instance(&params, &mut rng)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use repstream_petri::shape::Resource;

    #[test]
    fn teams_partition_processors() {
        let mut rng = seeded_rng(1);
        for _ in 0..100 {
            let teams = random_teams(5, 17, &mut rng);
            assert_eq!(teams.iter().sum::<usize>(), 17);
            assert!(teams.iter().all(|&t| t >= 1));
        }
    }

    #[test]
    fn times_respect_ranges() {
        let params = FamilyParams {
            stages: 3,
            processors: 7,
            comp_range: (5.0, 15.0),
            comm_range: (10.0, 50.0),
        };
        let mut rng = seeded_rng(2);
        for _ in 0..20 {
            let inst = instance(&params, &mut rng);
            for (r, &t) in inst.times.iter() {
                match r {
                    Resource::Proc { .. } => {
                        assert!((5.0..15.0).contains(&t), "{r}: {t}")
                    }
                    Resource::Link { .. } => {
                        assert!((10.0..50.0).contains(&t), "{r}: {t}")
                    }
                }
            }
        }
    }

    #[test]
    fn degenerate_range_is_constant() {
        let params = FamilyParams {
            stages: 2,
            processors: 7,
            comp_range: (1.0, 1.0),
            comm_range: (5.0, 10.0),
        };
        let mut rng = seeded_rng(3);
        let inst = instance(&params, &mut rng);
        for (r, &t) in inst.times.iter() {
            if matches!(r, Resource::Proc { .. }) {
                assert_eq!(t, 1.0);
            }
        }
    }

    #[test]
    fn random_mappings_are_valid_and_reproducible() {
        let a = random_mappings(4, 12, 40, 9);
        let b = random_mappings(4, 12, 40, 9);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.teams(), y.teams());
        }
        for m in &a {
            assert_eq!(m.n_stages(), 4);
            let used: usize = m.teams().iter().map(Vec::len).sum();
            assert!((4..=12).contains(&used));
            let mut seen = std::collections::HashSet::new();
            for team in m.teams() {
                assert!(!team.is_empty());
                for &p in team {
                    assert!(p < 12);
                    assert!(seen.insert(p), "processor reused");
                }
            }
        }
        // Prefixes agree: candidate i depends only on (seed, i).
        let c = random_mappings(4, 12, 10, 9);
        for (x, y) in c.iter().zip(a.iter()) {
            assert_eq!(x.teams(), y.teams());
        }
    }

    #[test]
    #[should_panic(expected = "cannot serve")]
    fn random_mappings_need_enough_processors() {
        random_mappings(5, 3, 1, 0);
    }

    #[test]
    fn random_joint_mappings_are_valid_and_reproducible() {
        let a = random_joint_mappings(&[4, 3], 12, 30, 9);
        let b = random_joint_mappings(&[4, 3], 12, 30, 9);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2 * 30);
        for j in a.chunks(2) {
            assert_eq!(j[0].n_stages(), 4);
            assert_eq!(j[1].n_stages(), 3);
            // Per-app disjointness holds; cross-app sharing may not.
            for m in j {
                let mut seen = std::collections::HashSet::new();
                for team in m.teams() {
                    assert!(!team.is_empty());
                    for &p in team {
                        assert!(p < 12);
                        assert!(seen.insert(p), "processor reused within an app");
                    }
                }
            }
        }
        // With 2 apps on 12 processors some candidate shares a processor.
        assert!(
            a.chunks(2).any(|j| {
                let first: std::collections::HashSet<_> =
                    j[0].teams().iter().flatten().copied().collect();
                j[1].teams().iter().flatten().any(|p| first.contains(p))
            }),
            "no candidate exercises cross-app sharing"
        );
        // Candidate `i` is `random_joint_mapping_with` on its own stream.
        for (i, j) in a.chunks(2).enumerate() {
            let mut rng = seeded_rng(9u64.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9));
            assert_eq!(
                random_joint_mapping_with(&[4, 3], 12, &mut rng).mappings(),
                j
            );
        }
        // For one app the set replays `random_mappings`' stream.
        assert_eq!(
            random_joint_mappings(&[4], 12, 10, 9),
            random_mappings(4, 12, 10, 9)
        );
    }

    #[test]
    fn instances_are_reproducible() {
        let params = FamilyParams::table1()[0].1;
        let a: Vec<_> = instances(params, 3, 7).map(|i| i.shape).collect();
        let b: Vec<_> = instances(params, 3, 7).map(|i| i.shape).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn table1_has_all_families() {
        assert_eq!(FamilyParams::table1().len(), 10);
    }
}
