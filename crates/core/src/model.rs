//! Applications, platforms and one-to-many mappings (§2.1–2.2), plus the
//! multi-application extension: several applications ([`App`]) competing
//! for one shared [`Platform`] as a [`Workload`], mapped jointly by a
//! [`JointMapping`].
//!
//! The single-application [`System`] is the `K = 1` special case: its
//! timing path (`crate::timing`) routes through the same contention
//! machinery with every share equal to one, so single-app results are
//! bit-for-bit what they were before the multi-app refactor.

use repstream_petri::shape::MappingShape;

/// Index of a processor in a [`Platform`].
pub type ProcId = usize;

/// Validation errors for model construction.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// The application needs at least one stage.
    NoStages,
    /// `file_sizes` must have exactly `stages − 1` entries.
    FileCountMismatch {
        /// Number of stages.
        stages: usize,
        /// Number of file sizes supplied.
        files: usize,
    },
    /// Work, size, speed or bandwidth values must be positive and finite.
    NonPositive {
        /// Description of the offending quantity.
        what: &'static str,
    },
    /// A mapping team is empty.
    EmptyTeam {
        /// The stage with no processors.
        stage: usize,
    },
    /// A processor appears in more than one team (the paper's rule: at
    /// most one stage per processor).
    ProcessorReused {
        /// The reused processor.
        proc: ProcId,
    },
    /// A mapping references a processor the platform does not have.
    UnknownProcessor {
        /// The out-of-range id.
        proc: ProcId,
    },
    /// Mapping and application disagree on the number of stages.
    StageCountMismatch {
        /// Stages in the application.
        app: usize,
        /// Teams in the mapping.
        mapping: usize,
    },
    /// A workload needs at least one application.
    NoApps,
    /// Workload and joint mapping disagree on the number of applications.
    AppCountMismatch {
        /// Applications in the workload.
        apps: usize,
        /// Per-app mappings in the joint mapping.
        mappings: usize,
    },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::NoStages => write!(f, "application has no stages"),
            ModelError::FileCountMismatch { stages, files } => write!(
                f,
                "expected {} file sizes for {stages} stages, got {files}",
                stages - 1
            ),
            ModelError::NonPositive { what } => {
                write!(f, "{what} must be positive and finite")
            }
            ModelError::EmptyTeam { stage } => {
                write!(f, "stage {stage} has an empty team")
            }
            ModelError::ProcessorReused { proc } => {
                write!(f, "processor {proc} is mapped to more than one stage")
            }
            ModelError::UnknownProcessor { proc } => {
                write!(f, "mapping references unknown processor {proc}")
            }
            ModelError::StageCountMismatch { app, mapping } => write!(
                f,
                "application has {app} stages but the mapping has {mapping} teams"
            ),
            ModelError::NoApps => write!(f, "workload has no applications"),
            ModelError::AppCountMismatch { apps, mappings } => write!(
                f,
                "workload has {apps} applications but the joint mapping has {mappings}"
            ),
        }
    }
}

impl std::error::Error for ModelError {}

/// A linear-chain streaming application: stage works `w_i` (flop) and
/// inter-stage file sizes `δ_i` (bytes).
#[derive(Debug, Clone, PartialEq)]
pub struct Application {
    work: Vec<f64>,
    file_sizes: Vec<f64>,
}

impl Application {
    /// Build from per-stage work and per-file sizes
    /// (`file_sizes.len() == work.len() − 1`).
    pub fn new(work: Vec<f64>, file_sizes: Vec<f64>) -> Result<Self, ModelError> {
        if work.is_empty() {
            return Err(ModelError::NoStages);
        }
        if file_sizes.len() + 1 != work.len() {
            return Err(ModelError::FileCountMismatch {
                stages: work.len(),
                files: file_sizes.len(),
            });
        }
        if !work.iter().all(|w| *w > 0.0 && w.is_finite()) {
            return Err(ModelError::NonPositive { what: "stage work" });
        }
        if !file_sizes.iter().all(|s| *s > 0.0 && s.is_finite()) {
            return Err(ModelError::NonPositive { what: "file size" });
        }
        Ok(Application { work, file_sizes })
    }

    /// `n` identical stages of work `w` with files of size `d`.
    pub fn uniform(n: usize, w: f64, d: f64) -> Result<Self, ModelError> {
        Application::new(vec![w; n], vec![d; n.saturating_sub(1)])
    }

    /// Number of stages `N`.
    pub fn n_stages(&self) -> usize {
        self.work.len()
    }

    /// Work of stage `i` (flop).
    pub fn work(&self, stage: usize) -> f64 {
        self.work[stage]
    }

    /// Size of file `i` (bytes), flowing from stage `i` to `i+1`.
    pub fn file_size(&self, file: usize) -> f64 {
        self.file_sizes[file]
    }
}

/// A fully connected heterogeneous platform: processor speeds (flop/s) and
/// pairwise link bandwidths (bytes/s).  Links can be logical (e.g. a
/// star-shaped physical network), as in the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    speeds: Vec<f64>,
    /// `bandwidth[p][q]` for the directed link `p → q`.
    bandwidth: Vec<Vec<f64>>,
}

impl Platform {
    /// Build from speeds and a full bandwidth matrix (diagonal ignored).
    pub fn new(speeds: Vec<f64>, bandwidth: Vec<Vec<f64>>) -> Result<Self, ModelError> {
        if !speeds.iter().all(|s| *s > 0.0 && s.is_finite()) {
            return Err(ModelError::NonPositive { what: "speed" });
        }
        let m = speeds.len();
        if bandwidth.len() != m || bandwidth.iter().any(|row| row.len() != m) {
            return Err(ModelError::NonPositive {
                what: "bandwidth matrix shape",
            });
        }
        for (p, row) in bandwidth.iter().enumerate() {
            for (q, b) in row.iter().enumerate() {
                if p != q && !(*b > 0.0 && b.is_finite()) {
                    return Err(ModelError::NonPositive { what: "bandwidth" });
                }
            }
        }
        Ok(Platform { speeds, bandwidth })
    }

    /// Fully connected platform with per-processor speeds and a single
    /// bandwidth everywhere.
    pub fn complete(speeds: Vec<f64>, bandwidth: f64) -> Result<Self, ModelError> {
        let m = speeds.len();
        Platform::new(speeds, vec![vec![bandwidth; m]; m])
    }

    /// Homogeneous platform: `m` processors of speed `s`, bandwidth `b`.
    pub fn homogeneous(m: usize, s: f64, b: f64) -> Result<Self, ModelError> {
        Platform::complete(vec![s; m], b)
    }

    /// Number of processors `M`.
    pub fn n_processors(&self) -> usize {
        self.speeds.len()
    }

    /// Speed of processor `p` (flop/s).
    pub fn speed(&self, p: ProcId) -> f64 {
        self.speeds[p]
    }

    /// Bandwidth of the directed link `p → q` (bytes/s).
    pub fn bandwidth(&self, p: ProcId, q: ProcId) -> f64 {
        self.bandwidth[p][q]
    }

    /// Set one directed bandwidth (builder-style tweak).
    ///
    /// Rejects zero, negative, infinite and NaN values with a typed
    /// error instead of silently storing a bandwidth that would turn
    /// downstream transfer times into `∞`/NaN and poison every
    /// throughput computed from them.
    pub fn set_bandwidth(&mut self, p: ProcId, q: ProcId, b: f64) -> Result<(), ModelError> {
        if !(b > 0.0 && b.is_finite()) {
            return Err(ModelError::NonPositive { what: "bandwidth" });
        }
        self.bandwidth[p][q] = b;
        Ok(())
    }
}

/// A one-to-many mapping: `teams[i]` lists the processors executing stage
/// `i`, in round-robin order.
#[derive(Debug, Clone, PartialEq)]
pub struct Mapping {
    teams: Vec<Vec<ProcId>>,
}

impl Mapping {
    /// Build and validate team disjointness.
    pub fn new(teams: Vec<Vec<ProcId>>) -> Result<Self, ModelError> {
        if teams.is_empty() {
            return Err(ModelError::NoStages);
        }
        let mut seen = std::collections::HashSet::new();
        for (stage, team) in teams.iter().enumerate() {
            if team.is_empty() {
                return Err(ModelError::EmptyTeam { stage });
            }
            for &p in team {
                if !seen.insert(p) {
                    return Err(ModelError::ProcessorReused { proc: p });
                }
            }
        }
        Ok(Mapping { teams })
    }

    /// One processor per stage, in order `0, 1, 2, …` (no replication).
    pub fn one_to_one(n_stages: usize) -> Self {
        Mapping {
            teams: (0..n_stages).map(|i| vec![i]).collect(),
        }
    }

    /// Number of stages.
    pub fn n_stages(&self) -> usize {
        self.teams.len()
    }

    /// The team of a stage.
    pub fn team(&self, stage: usize) -> &[ProcId] {
        &self.teams[stage]
    }

    /// All teams.
    pub fn teams(&self) -> &[Vec<ProcId>] {
        &self.teams
    }

    /// Team sizes as a [`MappingShape`] (drives the TPN construction).
    pub fn shape(&self) -> MappingShape {
        MappingShape::new(self.teams.iter().map(Vec::len).collect())
    }
}

/// Cross-validation shared by [`System::new`] and [`SystemRef::new`]:
/// the mapping must have one team per stage and reference only existing
/// processors.
fn validate_triple(
    app: &Application,
    platform: &Platform,
    mapping: &Mapping,
) -> Result<(), ModelError> {
    if app.n_stages() != mapping.n_stages() {
        return Err(ModelError::StageCountMismatch {
            app: app.n_stages(),
            mapping: mapping.n_stages(),
        });
    }
    for team in mapping.teams() {
        for &p in team {
            if p >= platform.n_processors() {
                return Err(ModelError::UnknownProcessor { proc: p });
            }
        }
    }
    Ok(())
}

/// A validated (application, platform, mapping) triple.
#[derive(Debug, Clone, PartialEq)]
pub struct System {
    app: Application,
    platform: Platform,
    mapping: Mapping,
}

impl System {
    /// Validate cross-references and build.
    pub fn new(app: Application, platform: Platform, mapping: Mapping) -> Result<Self, ModelError> {
        validate_triple(&app, &platform, &mapping)?;
        Ok(System {
            app,
            platform,
            mapping,
        })
    }

    /// The application.
    pub fn app(&self) -> &Application {
        &self.app
    }

    /// The platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The mapping.
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// The mapping shape (team sizes).
    pub fn shape(&self) -> MappingShape {
        self.mapping.shape()
    }

    /// Processor id serving stage `stage` at team position `slot`.
    pub fn proc_at(&self, stage: usize, slot: usize) -> ProcId {
        self.mapping.team(stage)[slot]
    }

    /// Borrowed view of the triple (validity is inherited, no re-check).
    pub fn as_ref(&self) -> SystemRef<'_> {
        SystemRef {
            app: &self.app,
            platform: &self.platform,
            mapping: &self.mapping,
        }
    }
}

/// A **borrowed** validated (application, platform, mapping) triple — the
/// zero-clone counterpart of [`System`].
///
/// Every analysis entry point of this crate accepts
/// `impl Into<SystemRef<'_>>`, so both `&System` and a `SystemRef` work.
/// Search loops that score thousands of candidate mappings build a
/// `SystemRef` per candidate ([`SystemRef::new`] only validates the
/// cross-references — no `Application`/`Platform` clone, no allocation)
/// instead of assembling an owned [`System`].
#[derive(Debug, Clone, Copy)]
pub struct SystemRef<'a> {
    app: &'a Application,
    platform: &'a Platform,
    mapping: &'a Mapping,
}

impl<'a> SystemRef<'a> {
    /// Validate cross-references and build a borrowed view.
    pub fn new(
        app: &'a Application,
        platform: &'a Platform,
        mapping: &'a Mapping,
    ) -> Result<Self, ModelError> {
        validate_triple(app, platform, mapping)?;
        Ok(SystemRef {
            app,
            platform,
            mapping,
        })
    }

    /// The application.
    pub fn app(&self) -> &'a Application {
        self.app
    }

    /// The platform.
    pub fn platform(&self) -> &'a Platform {
        self.platform
    }

    /// The mapping.
    pub fn mapping(&self) -> &'a Mapping {
        self.mapping
    }

    /// The mapping shape (team sizes).
    pub fn shape(&self) -> MappingShape {
        self.mapping.shape()
    }

    /// Processor id serving stage `stage` at team position `slot`.
    pub fn proc_at(&self, stage: usize, slot: usize) -> ProcId {
        self.mapping.team(stage)[slot]
    }

    /// Clone the borrowed parts into an owned [`System`].
    pub fn to_owned(&self) -> System {
        System {
            app: self.app.clone(),
            platform: self.platform.clone(),
            mapping: self.mapping.clone(),
        }
    }
}

impl<'a> From<&'a System> for SystemRef<'a> {
    fn from(s: &'a System) -> SystemRef<'a> {
        s.as_ref()
    }
}

/// One tenant of a multi-application workload: an [`Application`] plus
/// its scheduling metadata — an objective weight and an optional
/// per-app throughput SLA (jobs/s).
#[derive(Debug, Clone, PartialEq)]
pub struct App {
    application: Application,
    weight: f64,
    sla: Option<f64>,
}

impl App {
    /// Wrap an application with weight 1 and no SLA.
    pub fn new(application: Application) -> Self {
        App {
            application,
            weight: 1.0,
            sla: None,
        }
    }

    /// Set the objective weight (must be positive and finite).
    pub fn with_weight(mut self, weight: f64) -> Result<Self, ModelError> {
        if !(weight > 0.0 && weight.is_finite()) {
            return Err(ModelError::NonPositive { what: "app weight" });
        }
        self.weight = weight;
        Ok(self)
    }

    /// Set the throughput SLA in jobs/s (must be positive and finite).
    pub fn with_sla(mut self, sla: f64) -> Result<Self, ModelError> {
        if !(sla > 0.0 && sla.is_finite()) {
            return Err(ModelError::NonPositive { what: "app SLA" });
        }
        self.sla = Some(sla);
        Ok(self)
    }

    /// The wrapped application.
    pub fn application(&self) -> &Application {
        &self.application
    }

    /// Objective weight (default 1).
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Throughput SLA in jobs/s, if declared.
    pub fn sla(&self) -> Option<f64> {
        self.sla
    }
}

impl From<Application> for App {
    fn from(application: Application) -> App {
        App::new(application)
    }
}

/// A joint mapping for a K-app workload: one [`Mapping`] per application.
///
/// Each per-app mapping keeps the paper's rule (a processor serves at
/// most one stage *of that app*), but **different apps may share a
/// processor** — that is the whole point of the workload model, and the
/// sharing is what the contention terms in
/// [`crate::timing::contended_times`] charge for.
#[derive(Debug, Clone, PartialEq)]
pub struct JointMapping {
    mappings: Vec<Mapping>,
}

impl JointMapping {
    /// Build from per-app mappings (each already validated on its own).
    pub fn new(mappings: Vec<Mapping>) -> Result<Self, ModelError> {
        if mappings.is_empty() {
            return Err(ModelError::NoApps);
        }
        Ok(JointMapping { mappings })
    }

    /// Number of applications `K`.
    pub fn n_apps(&self) -> usize {
        self.mappings.len()
    }

    /// The mapping of application `k`.
    pub fn mapping(&self, k: usize) -> &Mapping {
        &self.mappings[k]
    }

    /// All per-app mappings.
    pub fn mappings(&self) -> &[Mapping] {
        &self.mappings
    }
}

impl From<Mapping> for JointMapping {
    fn from(mapping: Mapping) -> JointMapping {
        JointMapping {
            mappings: vec![mapping],
        }
    }
}

/// `K` applications competing for one shared [`Platform`].
///
/// The single-application [`System`] is the `K = 1` special case; all
/// single-app entry points delegate to this model with one app and no
/// co-tenants (every contention share is 1, so results are bitwise
/// unchanged).
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    apps: Vec<App>,
    platform: Platform,
}

impl Workload {
    /// Build from tenant apps and the shared platform (`K ≥ 1`).
    pub fn new(apps: Vec<App>, platform: Platform) -> Result<Self, ModelError> {
        if apps.is_empty() {
            return Err(ModelError::NoApps);
        }
        Ok(Workload { apps, platform })
    }

    /// Number of applications `K`.
    pub fn n_apps(&self) -> usize {
        self.apps.len()
    }

    /// Tenant `k`.
    pub fn app(&self, k: usize) -> &App {
        &self.apps[k]
    }

    /// All tenants.
    pub fn apps(&self) -> &[App] {
        &self.apps
    }

    /// The shared platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Borrowed view (validity inherited, no re-check).
    pub fn as_ref(&self) -> WorkloadRef<'_> {
        WorkloadRef {
            apps: &self.apps,
            platform: &self.platform,
        }
    }
}

/// A **borrowed** workload view — the zero-clone counterpart of
/// [`Workload`], mirroring what [`SystemRef`] is to [`System`].
///
/// Search loops score thousands of candidate [`JointMapping`]s against
/// one `WorkloadRef`; [`WorkloadRef::validate`] re-runs exactly the
/// shared triple validation per app, with no clones.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadRef<'a> {
    apps: &'a [App],
    platform: &'a Platform,
}

impl<'a> WorkloadRef<'a> {
    /// Build a borrowed view (`K ≥ 1`).
    pub fn new(apps: &'a [App], platform: &'a Platform) -> Result<Self, ModelError> {
        if apps.is_empty() {
            return Err(ModelError::NoApps);
        }
        Ok(WorkloadRef { apps, platform })
    }

    /// Number of applications `K`.
    pub fn n_apps(&self) -> usize {
        self.apps.len()
    }

    /// Tenant `k`.
    pub fn app(&self, k: usize) -> &'a App {
        &self.apps[k]
    }

    /// All tenants.
    pub fn apps(&self) -> &'a [App] {
        self.apps
    }

    /// The shared platform.
    pub fn platform(&self) -> &'a Platform {
        self.platform
    }

    /// Validate per-app mappings (a [`JointMapping::mappings`], or one
    /// [`Mapping`] for a one-app workload) against this workload: one
    /// mapping per app, stage counts matching, only existing processors —
    /// the same checks [`SystemRef::new`] runs, per app.
    pub fn validate(&self, mappings: &[Mapping]) -> Result<(), ModelError> {
        if mappings.len() != self.apps.len() {
            return Err(ModelError::AppCountMismatch {
                apps: self.apps.len(),
                mappings: mappings.len(),
            });
        }
        for (app, mapping) in self.apps.iter().zip(mappings) {
            validate_triple(app.application(), self.platform, mapping)?;
        }
        Ok(())
    }

    /// Borrowed single-app view of tenant `k` under per-app `mappings`
    /// (validity inherited from [`WorkloadRef::validate`], no re-check).
    pub fn system_of(&self, k: usize, mappings: &'a [Mapping]) -> SystemRef<'a> {
        SystemRef {
            app: self.apps[k].application(),
            platform: self.platform,
            mapping: &mappings[k],
        }
    }
}

impl<'a> From<&'a Workload> for WorkloadRef<'a> {
    fn from(w: &'a Workload) -> WorkloadRef<'a> {
        w.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app2() -> Application {
        Application::new(vec![4.0, 6.0], vec![10.0]).unwrap()
    }

    #[test]
    fn application_validation() {
        assert_eq!(
            Application::new(vec![], vec![]).unwrap_err(),
            ModelError::NoStages
        );
        assert!(matches!(
            Application::new(vec![1.0, 2.0], vec![]).unwrap_err(),
            ModelError::FileCountMismatch { .. }
        ));
        assert!(matches!(
            Application::new(vec![1.0, -2.0], vec![1.0]).unwrap_err(),
            ModelError::NonPositive { .. }
        ));
        let a = Application::uniform(3, 2.0, 5.0).unwrap();
        assert_eq!(a.n_stages(), 3);
        assert_eq!(a.work(2), 2.0);
        assert_eq!(a.file_size(1), 5.0);
    }

    #[test]
    fn platform_validation() {
        assert!(Platform::homogeneous(3, 1.0, 2.0).is_ok());
        assert!(matches!(
            Platform::complete(vec![1.0, 0.0], 1.0).unwrap_err(),
            ModelError::NonPositive { .. }
        ));
        let mut p = Platform::homogeneous(2, 1.0, 2.0).unwrap();
        p.set_bandwidth(0, 1, 7.0).unwrap();
        assert_eq!(p.bandwidth(0, 1), 7.0);
        assert_eq!(p.bandwidth(1, 0), 2.0);
        // Non-finite and non-positive updates are rejected, state intact.
        for bad in [0.0, -1.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert!(
                matches!(
                    p.set_bandwidth(0, 1, bad),
                    Err(ModelError::NonPositive { what: "bandwidth" })
                ),
                "bandwidth {bad} must be rejected"
            );
        }
        assert_eq!(p.bandwidth(0, 1), 7.0);
    }

    #[test]
    fn mapping_validation() {
        assert!(matches!(
            Mapping::new(vec![vec![0], vec![]]).unwrap_err(),
            ModelError::EmptyTeam { stage: 1 }
        ));
        assert!(matches!(
            Mapping::new(vec![vec![0, 1], vec![1]]).unwrap_err(),
            ModelError::ProcessorReused { proc: 1 }
        ));
        let m = Mapping::new(vec![vec![2], vec![0, 1]]).unwrap();
        assert_eq!(m.shape().teams(), &[1, 2]);
    }

    #[test]
    fn system_cross_validation() {
        let plat = Platform::homogeneous(3, 1.0, 1.0).unwrap();
        assert!(matches!(
            System::new(app2(), plat.clone(), Mapping::one_to_one(3)).unwrap_err(),
            ModelError::StageCountMismatch { .. }
        ));
        assert!(matches!(
            System::new(
                app2(),
                plat.clone(),
                Mapping::new(vec![vec![0], vec![7]]).unwrap()
            )
            .unwrap_err(),
            ModelError::UnknownProcessor { proc: 7 }
        ));
        let sys = System::new(
            app2(),
            plat,
            Mapping::new(vec![vec![2], vec![0, 1]]).unwrap(),
        )
        .unwrap();
        assert_eq!(sys.proc_at(1, 1), 1);
        assert_eq!(sys.shape().n_paths(), 2);
    }

    #[test]
    fn system_ref_validates_like_system() {
        let app = app2();
        let plat = Platform::homogeneous(3, 1.0, 1.0).unwrap();
        let bad = Mapping::new(vec![vec![0], vec![7]]).unwrap();
        assert_eq!(
            SystemRef::new(&app, &plat, &bad).unwrap_err(),
            System::new(app.clone(), plat.clone(), bad).unwrap_err()
        );
        let mapping = Mapping::new(vec![vec![2], vec![0, 1]]).unwrap();
        let r = SystemRef::new(&app, &plat, &mapping).unwrap();
        assert_eq!(r.proc_at(1, 1), 1);
        assert_eq!(r.shape().teams(), &[1, 2]);
        // Round trips: borrowed → owned → borrowed.
        let owned = r.to_owned();
        let back: SystemRef<'_> = (&owned).into();
        assert_eq!(back.mapping(), &mapping);
    }

    #[test]
    fn app_metadata_validation() {
        let a = App::new(app2());
        assert_eq!(a.weight(), 1.0);
        assert_eq!(a.sla(), None);
        let a = a.with_weight(2.5).unwrap().with_sla(0.125).unwrap();
        assert_eq!(a.weight(), 2.5);
        assert_eq!(a.sla(), Some(0.125));
        for bad in [0.0, -1.0, f64::INFINITY, f64::NAN] {
            assert!(App::new(app2()).with_weight(bad).is_err());
            assert!(App::new(app2()).with_sla(bad).is_err());
        }
    }

    #[test]
    fn workload_validation() {
        let plat = Platform::homogeneous(4, 1.0, 1.0).unwrap();
        assert!(matches!(
            Workload::new(vec![], plat.clone()).unwrap_err(),
            ModelError::NoApps
        ));
        let w = Workload::new(vec![App::new(app2()), App::new(app2())], plat).unwrap();
        assert_eq!(w.n_apps(), 2);
        let r = w.as_ref();

        // Wrong app count.
        let one: JointMapping = Mapping::one_to_one(2).into();
        assert!(matches!(
            r.validate(one.mappings()).unwrap_err(),
            ModelError::AppCountMismatch {
                apps: 2,
                mappings: 1
            }
        ));

        // Cross-app processor sharing is allowed; per-app checks still run.
        let shared = JointMapping::new(vec![
            Mapping::new(vec![vec![0], vec![1, 2]]).unwrap(),
            Mapping::new(vec![vec![0], vec![3]]).unwrap(),
        ])
        .unwrap();
        assert!(r.validate(shared.mappings()).is_ok());
        let bad = JointMapping::new(vec![
            Mapping::one_to_one(2),
            Mapping::new(vec![vec![0], vec![9]]).unwrap(),
        ])
        .unwrap();
        assert!(matches!(
            r.validate(bad.mappings()).unwrap_err(),
            ModelError::UnknownProcessor { proc: 9 }
        ));

        // Per-app borrowed view matches the plain SystemRef.
        let view = r.system_of(1, shared.mappings());
        assert_eq!(view.proc_at(1, 0), 3);
        assert_eq!(view.app(), w.app(1).application());
    }
}
