//! Per-resource timing tables derived from a system view
//! ([`SystemRef`] or [`crate::model::System`]).
//!
//! The deterministic time of a resource is the mapping's nominal value
//! (§2.4): `w_i / s_p` for a processor, `δ_i / b_{p,q}` for a link.
//! Stochastic experiments keep those values as the *means* and vary the
//! law family — exactly the paper's setup, where every law is calibrated
//! to the deterministic mean.

use crate::model::{JointMapping, Mapping, ProcId, SystemRef, WorkloadRef};
use repstream_petri::shape::{Resource, ResourceTable};
use repstream_stochastic::law::{Law, LawFamily};

/// Per-resource user counts for a K-app joint mapping.
///
/// Contention follows the fair-share model of the multi-application
/// resource-allocation papers (PAPERS.md): a resource used by `u`
/// tenants gives each a `1/u` share, so the *effective* speed of
/// processor `p` is `s_p / u` and the effective bandwidth of link
/// `p → q` is `b_{p,q} / u`.  A processor is "used" by an app if any of
/// its stages runs there; a directed link `p → q` is "used" by an app
/// if it maps some stage to `p` and the next stage to `q`.
///
/// The bookkeeping is one `stage_of` array per app (processor → stage
/// index, or −1), so user counts are `O(K)` lookups with no hashing —
/// and the array is exactly the state an incremental scorer must patch
/// when it moves one processor of one app.
#[derive(Debug, Clone)]
pub struct Contention {
    /// `stage_of[k][p]` = stage of app `k` that processor `p` serves,
    /// or −1 when app `k` does not use `p`.
    stage_of: Vec<Vec<i32>>,
}

impl Contention {
    /// Empty bookkeeping: no app uses any processor yet.
    pub fn empty(n_apps: usize, n_procs: usize) -> Self {
        Contention {
            stage_of: vec![vec![-1; n_procs]; n_apps],
        }
    }

    /// Build from a joint mapping.
    pub fn from_joint(joint: &JointMapping, n_procs: usize) -> Self {
        let mut c = Contention::empty(joint.n_apps(), n_procs);
        c.refill_from_joint(joint.mappings());
        c
    }

    /// Refill from per-app mappings (a [`JointMapping::mappings`], or one
    /// [`Mapping`] for a single app) without reallocating — the per-
    /// candidate reset of batch scorers.  There must be as many mappings
    /// as this bookkeeping was built with apps.
    pub fn refill_from_joint(&mut self, mappings: &[Mapping]) {
        assert_eq!(self.stage_of.len(), mappings.len(), "app count changed");
        for (k, mapping) in mappings.iter().enumerate() {
            self.stage_of[k].fill(-1);
            for (stage, team) in mapping.teams().iter().enumerate() {
                for &p in team {
                    self.stage_of[k][p] = stage as i32;
                }
            }
        }
    }

    /// Number of applications `K`.
    pub fn n_apps(&self) -> usize {
        self.stage_of.len()
    }

    /// Stage of app `k` that processor `p` serves, if any.
    pub fn stage_of(&self, k: usize, p: ProcId) -> Option<usize> {
        let s = self.stage_of[k][p];
        (s >= 0).then_some(s as usize)
    }

    /// Record that processor `p` now serves stage `stage` of app `k`.
    pub fn assign(&mut self, k: usize, p: ProcId, stage: usize) {
        self.stage_of[k][p] = stage as i32;
    }

    /// Record that processor `p` no longer serves app `k`.
    pub fn clear(&mut self, k: usize, p: ProcId) {
        self.stage_of[k][p] = -1;
    }

    /// Number of apps using processor `p` (≥ 1: callers query resources
    /// of a mapped app, which is itself a user).
    pub fn proc_users(&self, p: ProcId) -> usize {
        self.stage_of.iter().filter(|s| s[p] >= 0).count().max(1)
    }

    /// Number of apps using the directed link `p → q` (≥ 1, as above).
    pub fn link_users(&self, p: ProcId, q: ProcId) -> usize {
        self.stage_of
            .iter()
            .filter(|s| s[p] >= 0 && s[q] == s[p] + 1)
            .count()
            .max(1)
    }
}

/// Contended per-resource times of one app's system view under shared
/// user counts: `w_i / (s_p / u)` and `δ_i / (b_{p,q} / u)`.
///
/// With every user count equal to 1 this is bitwise
/// [`deterministic_times`] — IEEE division by `1.0` is exact — which is
/// how the single-app path delegates to the workload model without a
/// separate formula.
pub fn contended_system_times(
    system: SystemRef<'_>,
    contention: &Contention,
) -> ResourceTable<f64> {
    let shape = system.shape();
    ResourceTable::from_fns(
        &shape,
        |stage, slot| {
            let p = system.proc_at(stage, slot);
            let users = contention.proc_users(p) as f64;
            system.app().work(stage) / (system.platform().speed(p) / users)
        },
        |file, src, dst| {
            let p = system.proc_at(file, src);
            let q = system.proc_at(file + 1, dst);
            let users = contention.link_users(p, q) as f64;
            system.app().file_size(file) / (system.platform().bandwidth(p, q) / users)
        },
    )
}

/// Per-app contended time tables for a joint mapping (one
/// [`ResourceTable`] per app, indexed like the workload's apps).
pub fn contended_times<'a>(
    workload: impl Into<WorkloadRef<'a>>,
    joint: &JointMapping,
) -> Vec<ResourceTable<f64>> {
    let workload = workload.into();
    let contention = Contention::from_joint(joint, workload.platform().n_processors());
    (0..workload.n_apps())
        .map(|k| contended_system_times(workload.system_of(k, joint.mappings()), &contention))
        .collect()
}

/// Deterministic per-resource times (`w_i/s_p`, `δ_i/b_{p,q}`).
///
/// Routes through the K = 1 workload path: a single-app system has no
/// co-tenants, every contention share is 1, and `x / 1.0 == x` bitwise.
pub fn deterministic_times<'a>(system: impl Into<SystemRef<'a>>) -> ResourceTable<f64> {
    let system = system.into();
    let mut contention = Contention::empty(1, system.platform().n_processors());
    contention.refill_from_joint(std::slice::from_ref(system.mapping()));
    contended_system_times(system, &contention)
}

/// Exponential rates per resource (`1 / deterministic time`), as consumed
/// by the Markovian analyses.
pub fn exponential_rates<'a>(system: impl Into<SystemRef<'a>>) -> ResourceTable<f64> {
    deterministic_times(system).map(|_, &t| 1.0 / t)
}

/// Require every derived service time to be positive and finite.
///
/// Model validation checks the *inputs* (speeds, bandwidths, work,
/// sizes) individually, but a derived quotient can still overflow: a
/// subnormal bandwidth like `1e-320` is positive and finite, yet
/// `δ / b` is `∞` and its exponential rate `0` — which the chain
/// builders reject with a panic deep in the Markov layer.  Entry points
/// that accept untrusted systems (the CLI's `.rsys` loader, the serve
/// request handlers) call this first so the failure surfaces as a
/// *configuration* error (exit/class 2), not an internal one.
pub fn validate_service_times<'a>(system: impl Into<SystemRef<'a>>) -> Result<(), String> {
    for (res, &t) in deterministic_times(system).iter() {
        if !(t > 0.0 && t.is_finite()) {
            return Err(format!(
                "derived service time of {res} is {t}: work/speed and \
                 size/bandwidth quotients must be positive and finite \
                 (check for extreme speeds or bandwidths)"
            ));
        }
    }
    Ok(())
}

/// Law table with every resource following `family` at its deterministic
/// mean.
pub fn laws<'a>(system: impl Into<SystemRef<'a>>, family: LawFamily) -> ResourceTable<Law> {
    deterministic_times(system).map(|_, &t| family.law_with_mean(t))
}

/// Law table with separate families for computations and communications.
pub fn laws_split<'a>(
    system: impl Into<SystemRef<'a>>,
    comp: LawFamily,
    comm: LawFamily,
) -> ResourceTable<Law> {
    deterministic_times(system).map(|r, &t| match r {
        Resource::Proc { .. } => comp.law_with_mean(t),
        Resource::Link { .. } => comm.law_with_mean(t),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{App, Application, Mapping, Platform, System, Workload};

    fn system() -> System {
        let app = Application::new(vec![6.0, 9.0], vec![12.0]).unwrap();
        let platform = Platform::new(
            vec![2.0, 3.0, 1.0],
            vec![
                vec![1.0, 4.0, 6.0],
                vec![1.0, 1.0, 2.0],
                vec![3.0, 1.0, 1.0],
            ],
        )
        .unwrap();
        let mapping = Mapping::new(vec![vec![2], vec![0, 1]]).unwrap();
        System::new(app, platform, mapping).unwrap()
    }

    #[test]
    fn deterministic_table_values() {
        let s = system();
        let t = deterministic_times(&s);
        // Stage 0 on proc 2 (speed 1): 6.0.
        assert_eq!(*t.get(Resource::Proc { stage: 0, slot: 0 }), 6.0);
        // Stage 1 slot 0 = proc 0 (speed 2): 4.5; slot 1 = proc 1: 3.0.
        assert_eq!(*t.get(Resource::Proc { stage: 1, slot: 0 }), 4.5);
        assert_eq!(*t.get(Resource::Proc { stage: 1, slot: 1 }), 3.0);
        // File 0 (12 bytes) from proc 2: to proc 0 (bw 3) = 4; to proc 1
        // (bw 1) = 12.
        assert_eq!(
            *t.get(Resource::Link {
                file: 0,
                src: 0,
                dst: 0
            }),
            4.0
        );
        assert_eq!(
            *t.get(Resource::Link {
                file: 0,
                src: 0,
                dst: 1
            }),
            12.0
        );
    }

    #[test]
    fn rates_invert_times() {
        let s = system();
        let t = deterministic_times(&s);
        let r = exponential_rates(&s);
        for (res, &time) in t.iter() {
            assert!((r.get(res) * time - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn law_tables_preserve_means() {
        let s = system();
        let t = deterministic_times(&s);
        for fam in [
            LawFamily::Exponential,
            LawFamily::Gamma(3.0),
            LawFamily::BetaSym(2.0),
        ] {
            let l = laws(&s, fam);
            for (res, law) in l.iter() {
                assert!(
                    (law.mean() - t.get(res)).abs() < 1e-9,
                    "{fam:?} at {res}: {} vs {}",
                    law.mean(),
                    t.get(res)
                );
            }
        }
    }

    #[test]
    fn contended_times_charge_shared_resources() {
        // Two 2-stage apps on 4 processors; app 1 shares proc 0 with
        // app 0's stage 0 and reuses the 0→1 link in the same direction.
        let app = Application::new(vec![6.0, 9.0], vec![12.0]).unwrap();
        let platform = Platform::complete(vec![2.0, 3.0, 1.0, 1.0], 4.0).unwrap();
        let workload = Workload::new(
            vec![App::new(app.clone()), App::new(app.clone())],
            platform.clone(),
        )
        .unwrap();
        let joint = JointMapping::new(vec![
            Mapping::new(vec![vec![0], vec![1]]).unwrap(),
            Mapping::new(vec![vec![0], vec![1]]).unwrap(),
        ])
        .unwrap();
        let tables = contended_times(&workload, &joint);
        assert_eq!(tables.len(), 2);
        for t in &tables {
            // Both apps see both shared processors at half speed …
            assert_eq!(*t.get(Resource::Proc { stage: 0, slot: 0 }), 6.0 / 1.0);
            assert_eq!(*t.get(Resource::Proc { stage: 1, slot: 0 }), 9.0 / 1.5);
            // … and the shared 0→1 link at half bandwidth.
            assert_eq!(
                *t.get(Resource::Link {
                    file: 0,
                    src: 0,
                    dst: 0
                }),
                12.0 / 2.0
            );
        }

        // Disjoint placement for app 1 ⇒ app 0's table is bitwise the
        // single-app deterministic table.
        let disjoint = JointMapping::new(vec![
            Mapping::new(vec![vec![0], vec![1]]).unwrap(),
            Mapping::new(vec![vec![2], vec![3]]).unwrap(),
        ])
        .unwrap();
        let tables = contended_times(&workload, &disjoint);
        let solo =
            System::new(app, platform, Mapping::new(vec![vec![0], vec![1]]).unwrap()).unwrap();
        let alone = deterministic_times(&solo);
        for (res, &t) in tables[0].iter() {
            assert_eq!(t.to_bits(), alone.get(res).to_bits());
        }
    }

    #[test]
    fn link_users_are_directional() {
        // App 0 sends 0→1; app 1 sends 1→0.  Opposite directions do not
        // contend on a directed link.
        let joint = JointMapping::new(vec![
            Mapping::new(vec![vec![0], vec![1]]).unwrap(),
            Mapping::new(vec![vec![1], vec![0]]).unwrap(),
        ])
        .unwrap();
        let c = Contention::from_joint(&joint, 2);
        assert_eq!(c.proc_users(0), 2);
        assert_eq!(c.link_users(0, 1), 1);
        assert_eq!(c.link_users(1, 0), 1);
        assert_eq!(c.stage_of(1, 0), Some(1));
        assert_eq!(c.stage_of(1, 1), Some(0));
    }

    #[test]
    fn contention_incremental_ops_match_rebuild() {
        let joint = JointMapping::new(vec![
            Mapping::new(vec![vec![0, 1], vec![2]]).unwrap(),
            Mapping::new(vec![vec![2], vec![3]]).unwrap(),
        ])
        .unwrap();
        let mut c = Contention::from_joint(&joint, 4);
        // Move app 1's stage 0 from proc 2 to proc 1.
        c.clear(1, 2);
        c.assign(1, 1, 0);
        let moved = JointMapping::new(vec![
            Mapping::new(vec![vec![0, 1], vec![2]]).unwrap(),
            Mapping::new(vec![vec![1], vec![3]]).unwrap(),
        ])
        .unwrap();
        let rebuilt = Contention::from_joint(&moved, 4);
        for p in 0..4 {
            assert_eq!(c.proc_users(p), rebuilt.proc_users(p));
            for q in 0..4 {
                assert_eq!(c.link_users(p, q), rebuilt.link_users(p, q));
            }
        }
    }

    #[test]
    fn split_laws_differ_by_kind() {
        let s = system();
        let l = laws_split(&s, LawFamily::Deterministic, LawFamily::Exponential);
        assert!(l
            .get(Resource::Proc { stage: 0, slot: 0 })
            .is_deterministic());
        assert!(l
            .get(Resource::Link {
                file: 0,
                src: 0,
                dst: 0
            })
            .is_exponential());
    }
}
