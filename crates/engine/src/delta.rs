//! Incremental (delta) scoring of single-processor moves.
//!
//! The columnwise Overlap score (Theorem 1) is a **min over independent
//! columns**: one candidate rate per processor slot and one per
//! communication component.  Moving one processor between teams only
//! touches the two affected stage columns and their adjacent transfer
//! patterns, so a hill-climbing rescore needs `O(affected)` column
//! re-evaluations, not `O(N)` — [`JointDeltaScorer`] maintains the
//! per-column minima and recomputes exactly the touched ones.
//!
//! Over a K-app workload every column value uses the **contended**
//! service times (`timing::Contention` shares), and a move of processor
//! `p` in app `k` additionally refreshes, for every *co-located* app
//! `l ≠ k` that uses `p`, the columns around the stage `p` serves in `l`
//! — those are exactly the columns whose user counts can change, because
//! only links with endpoint `p` gain or lose users.  A single
//! application is the one-app workload: no co-tenants, every share is 1.
//!
//! Exactness: every column value is computed by the same formulas (and
//! the same memoized pattern-period solver) as the full columnwise
//! evaluation over [`timing::contended_times`], and `min` over the
//! per-column minima equals the flat fold of [`throughput_columnwise_shape`]
//! bit for bit — the engine's property tests compare randomly walked
//! scorers against full rescoring to 0 ulp.
//!
//! [`throughput_columnwise_shape`]: repstream_core::deterministic::throughput_columnwise_shape
//! [`timing::contended_times`]: repstream_core::timing::contended_times

use crate::score::PatternMemo;
use repstream_core::model::{
    Application, JointMapping, Mapping, ModelError, Platform, ProcId, WorkloadRef,
};
use repstream_core::timing::Contention;
use repstream_petri::shape::gcd;

/// Incremental columnwise Overlap scorer over the mutable team
/// assignments of a K-app workload, charging contention shares.
#[derive(Debug)]
pub struct JointDeltaScorer<'a> {
    apps: Vec<&'a Application>,
    platform: &'a Platform,
    /// `teams[k][stage]` = processors serving stage `stage` of app `k`.
    teams: Vec<Vec<Vec<ProcId>>>,
    contention: Contention,
    /// Min candidate rate of each compute column, per app.
    stage_min: Vec<Vec<f64>>,
    /// Min candidate rate of each communication column (file), per app.
    comm_min: Vec<Vec<f64>>,
    memo: PatternMemo,
    scratch: Vec<f64>,
    /// Column re-evaluations performed (the `O(affected)` count).
    recomputes: usize,
}

impl<'a> JointDeltaScorer<'a> {
    /// Build from a starting joint mapping (validated per app).
    pub fn new(
        workload: WorkloadRef<'a>,
        start: &JointMapping,
    ) -> Result<JointDeltaScorer<'a>, ModelError> {
        workload.validate(start.mappings())?;
        let apps: Vec<&Application> = workload.apps().iter().map(|a| a.application()).collect();
        let platform = workload.platform();
        let contention = Contention::from_joint(start, platform.n_processors());
        let teams = start
            .mappings()
            .iter()
            .map(|m| m.teams().to_vec())
            .collect();
        let mut s = JointDeltaScorer {
            stage_min: apps
                .iter()
                .map(|a| vec![f64::INFINITY; a.n_stages()])
                .collect(),
            comm_min: apps
                .iter()
                .map(|a| vec![f64::INFINITY; a.n_stages().saturating_sub(1)])
                .collect(),
            apps,
            platform,
            teams,
            contention,
            memo: PatternMemo::default(),
            scratch: Vec::new(),
            recomputes: 0,
        };
        for k in 0..s.apps.len() {
            for stage in 0..s.apps[k].n_stages() {
                s.recompute_stage(k, stage);
            }
            for file in 0..s.apps[k].n_stages().saturating_sub(1) {
                s.recompute_comm(k, file);
            }
        }
        Ok(s)
    }

    /// Number of applications `K`.
    pub fn n_apps(&self) -> usize {
        self.apps.len()
    }

    /// The current team assignment of app `k`.
    pub fn teams_of(&self, k: usize) -> &[Vec<ProcId>] {
        &self.teams[k]
    }

    /// The current assignment of app `k` as a validated [`Mapping`].
    pub fn mapping_of(&self, k: usize) -> Result<Mapping, ModelError> {
        Mapping::new(self.teams[k].clone())
    }

    /// The current assignment as a validated [`JointMapping`].
    pub fn joint_mapping(&self) -> Result<JointMapping, ModelError> {
        JointMapping::new(
            (0..self.apps.len())
                .map(|k| self.mapping_of(k))
                .collect::<Result<_, _>>()?,
        )
    }

    /// Column re-evaluations performed so far.
    pub fn recomputes(&self) -> usize {
        self.recomputes
    }

    /// Current contended columnwise throughput of app `k` — bitwise equal
    /// to [`throughput_columnwise_shape`] over that app's table from
    /// [`timing::contended_times`] on the current joint mapping.
    ///
    /// [`throughput_columnwise_shape`]: repstream_core::deterministic::throughput_columnwise_shape
    /// [`timing::contended_times`]: repstream_core::timing::contended_times
    pub fn score_of(&self, k: usize) -> f64 {
        let mut best = f64::INFINITY;
        for &s in &self.stage_min[k] {
            best = best.min(s);
        }
        for &c in &self.comm_min[k] {
            best = best.min(c);
        }
        best
    }

    /// Current per-app throughputs, written into `out` (cleared first).
    pub fn scores_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..self.apps.len()).map(|k| self.score_of(k)));
    }

    /// Remove the processor at `(k, stage, pos)` and return it,
    /// re-scoring the affected columns of app `k` **and of every
    /// co-located app** (the shares of resources `p` touches change).
    /// The inverse of [`JointDeltaScorer::insert`].
    ///
    /// The team may transiently become empty (an invalid mapping); the
    /// caller must re-insert a processor before trusting
    /// [`JointDeltaScorer::score_of`] — empty columns report the neutral
    /// `+∞` candidate, which makes the transient state *look* faster
    /// than any valid one.
    ///
    /// # Panics
    /// Panics if `(k, stage, pos)` is out of range.
    pub fn remove(&mut self, k: usize, stage: usize, pos: usize) -> ProcId {
        let p = self.teams[k][stage].remove(pos);
        self.contention.clear(k, p);
        self.refresh_move(k, stage, p);
        p
    }

    /// Insert processor `p` at `(k, stage, pos)`, re-scoring the affected
    /// columns (co-located apps included).  The inverse of
    /// [`JointDeltaScorer::remove`].
    ///
    /// # Panics
    /// Panics if `k`, `stage` or `pos` is out of range, `p` is not a
    /// platform processor, or `p` already serves another stage of app
    /// `k` (per-app disjointness).
    pub fn insert(&mut self, k: usize, stage: usize, pos: usize, p: ProcId) {
        assert!(p < self.platform.n_processors(), "unknown processor {p}");
        assert!(
            self.contention.stage_of(k, p).is_none(),
            "processor {p} already serves app {k}"
        );
        self.teams[k][stage].insert(pos, p);
        self.contention.assign(k, p, stage);
        self.refresh_move(k, stage, p);
    }

    /// Re-score every column a change of processor `p` at `(k, stage)`
    /// can affect: app `k`'s columns around `stage`, plus — because only
    /// resources with endpoint `p` change user counts — the columns
    /// around the stage `p` serves in each co-located app.
    fn refresh_move(&mut self, k: usize, stage: usize, p: ProcId) {
        self.refresh_around(k, stage);
        for l in 0..self.apps.len() {
            if l == k {
                continue;
            }
            if let Some(s) = self.contention.stage_of(l, p) {
                self.refresh_around(l, s);
            }
        }
    }

    /// Re-score the columns touched by a team change at `(k, stage)`: its
    /// compute column and the transfer columns on both sides.
    fn refresh_around(&mut self, k: usize, stage: usize) {
        self.recompute_stage(k, stage);
        if stage > 0 {
            self.recompute_comm(k, stage - 1);
        }
        if stage < self.comm_min[k].len() {
            self.recompute_comm(k, stage);
        }
    }

    fn recompute_stage(&mut self, k: usize, stage: usize) {
        self.recomputes += 1;
        let team = &self.teams[k][stage];
        let r = team.len();
        let mut best = f64::INFINITY;
        for &p in team {
            // Same formula as `timing::contended_system_times`:
            // c = w_i / (s_p / users), candidate = R_i / c.
            let users = self.contention.proc_users(p) as f64;
            let c = self.apps[k].work(stage) / (self.platform.speed(p) / users);
            best = best.min(r as f64 / c);
        }
        self.stage_min[k][stage] = best;
    }

    fn recompute_comm(&mut self, k: usize, file: usize) {
        self.recomputes += 1;
        let u = self.teams[k][file].len();
        let v = self.teams[k][file + 1].len();
        if u == 0 || v == 0 {
            // Transient invalid state between a remove and an insert.
            self.comm_min[k][file] = f64::INFINITY;
            return;
        }
        let g = gcd(u, v);
        let (up, vp) = (u / g, v / g);
        let mut best = f64::INFINITY;
        for comp in 0..g {
            self.scratch.clear();
            for i in 0..up * vp {
                let p = self.teams[k][file][comp + g * (i % up)];
                let q = self.teams[k][file + 1][comp + g * (i % vp)];
                let users = self.contention.link_users(p, q) as f64;
                self.scratch
                    .push(self.apps[k].file_size(file) / (self.platform.bandwidth(p, q) / users));
            }
            let period = self.memo.period(up, vp, &self.scratch);
            best = best.min(g as f64 * (up * vp) as f64 / period);
        }
        self.comm_min[k][file] = best;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repstream_core::deterministic;
    use repstream_core::model::{App, System, Workload};
    use repstream_core::timing;

    fn instance() -> (Application, Platform) {
        repstream_workload::scenarios::mapping_search()
    }

    fn full_score(app: &Application, platform: &Platform, teams: &[Vec<ProcId>]) -> f64 {
        let sys = System::new(
            app.clone(),
            platform.clone(),
            Mapping::new(teams.to_vec()).unwrap(),
        )
        .unwrap();
        deterministic::throughput_columnwise(&sys)
    }

    /// The scenario as a one-app workload.
    fn workload1() -> (Application, Platform, Workload) {
        let (app, platform) = instance();
        let workload = Workload::new(vec![App::new(app.clone())], platform.clone()).unwrap();
        (app, platform, workload)
    }

    fn one_app_scorer<'a>(workload: &'a Workload, teams: Vec<Vec<ProcId>>) -> JointDeltaScorer<'a> {
        let start = Mapping::new(teams).unwrap().into();
        JointDeltaScorer::new(workload.as_ref(), &start).unwrap()
    }

    #[test]
    fn initial_score_matches_full_bitwise() {
        let (app, platform, workload) = workload1();
        let d = one_app_scorer(
            &workload,
            vec![vec![0, 1], vec![2, 3], vec![4, 5, 6], vec![7]],
        );
        let full = full_score(&app, &platform, d.teams_of(0));
        assert_eq!(d.score_of(0).to_bits(), full.to_bits());
    }

    #[test]
    fn moves_track_full_rescoring_bitwise() {
        let (app, platform, workload) = workload1();
        let start = vec![vec![0, 1], vec![2, 3], vec![4, 5, 6], vec![7]];
        let mut d = one_app_scorer(&workload, start.clone());
        // A processor tour (never emptying a team): 1 → stage 2,
        // 2 → stage 3, 5 → stage 0, then back.
        let moves = [(0usize, 1usize, 2usize), (1, 0, 3), (2, 1, 0)];
        for &(from, pos, to) in &moves {
            let p = d.remove(0, from, pos);
            let at = d.teams_of(0)[to].len();
            d.insert(0, to, at, p);
            let full = full_score(&app, &platform, d.teams_of(0));
            assert_eq!(d.score_of(0).to_bits(), full.to_bits(), "move {from}->{to}");
        }
        // Reverse the tour: the scorer must land exactly where it started.
        for &(from, pos, to) in moves.iter().rev() {
            let p = d.remove(0, to, d.teams_of(0)[to].len() - 1);
            d.insert(0, from, pos, p);
            let full = full_score(&app, &platform, d.teams_of(0));
            assert_eq!(d.score_of(0).to_bits(), full.to_bits());
        }
        assert_eq!(d.teams_of(0), start.as_slice());
    }

    #[test]
    fn recompute_count_is_local() {
        let (_, _, workload) = workload1();
        let mut d = one_app_scorer(
            &workload,
            vec![vec![0, 1], vec![2, 3], vec![4, 5, 6], vec![7]],
        );
        let base = d.recomputes();
        let p = d.remove(0, 0, 0);
        d.insert(0, 1, 0, p);
        // Stage 0 touch: its compute column + comm 0; stage 1 touch: its
        // compute column + comms 0 and 1 — 5 column evaluations, not the
        // 7 (4 compute + 3 comm) of a full rescore.
        assert_eq!(d.recomputes() - base, 5);
    }

    #[test]
    fn drop_and_readd_roundtrips() {
        let (app, platform, workload) = workload1();
        let mut d = one_app_scorer(&workload, vec![vec![0, 1], vec![2], vec![3, 4], vec![5]]);
        let before = d.score_of(0);
        let p = d.remove(0, 0, 1);
        // Dropped entirely (smaller mapping is still valid).
        let dropped = full_score(&app, &platform, d.teams_of(0));
        assert_eq!(d.score_of(0).to_bits(), dropped.to_bits());
        d.insert(0, 0, 1, p);
        assert_eq!(d.score_of(0).to_bits(), before.to_bits());
    }

    fn workload2() -> (Workload, JointMapping) {
        let (app, platform) = instance();
        let workload = Workload::new(vec![App::new(app.clone()), App::new(app)], platform).unwrap();
        let joint = JointMapping::new(vec![
            Mapping::new(vec![vec![0, 1], vec![2, 3], vec![4, 5, 6], vec![7]]).unwrap(),
            Mapping::new(vec![vec![8], vec![4, 5], vec![0, 1, 2], vec![9]]).unwrap(),
        ])
        .unwrap();
        (workload, joint)
    }

    fn full_joint_scores(workload: &Workload, joint: &JointMapping) -> Vec<f64> {
        timing::contended_times(workload, joint)
            .iter()
            .zip(joint.mappings())
            .map(|(times, m)| deterministic::throughput_columnwise_shape(&m.shape(), times))
            .collect()
    }

    #[test]
    fn joint_initial_scores_match_full_bitwise() {
        let (workload, joint) = workload2();
        let d = JointDeltaScorer::new(workload.as_ref(), &joint).unwrap();
        let full = full_joint_scores(&workload, &joint);
        for (k, f) in full.iter().enumerate() {
            assert_eq!(d.score_of(k).to_bits(), f.to_bits(), "app {k}");
        }
    }

    #[test]
    fn joint_moves_refresh_colocated_apps_bitwise() {
        let (workload, joint) = workload2();
        let mut d = JointDeltaScorer::new(workload.as_ref(), &joint).unwrap();
        // Move app 0's proc 0 (shared with app 1's stage 2) to stage 1,
        // then app 1's proc 4 (shared with app 0's stage 2) to stage 3 —
        // both moves change co-located apps' contention terms.
        let tours = [(0usize, 0usize, 0usize, 1usize), (1, 1, 0, 3)];
        for &(k, from, pos, to) in &tours {
            let p = d.remove(k, from, pos);
            let at = d.teams_of(k)[to].len();
            d.insert(k, to, at, p);
            let now = d.joint_mapping().unwrap();
            let full = full_joint_scores(&workload, &now);
            for (l, f) in full.iter().enumerate() {
                assert_eq!(
                    d.score_of(l).to_bits(),
                    f.to_bits(),
                    "app {l} after moving app {k}'s processor"
                );
            }
        }
        // Reverse the tour: land exactly on the starting scores.
        for &(k, from, pos, to) in tours.iter().rev() {
            let p = d.remove(k, to, d.teams_of(k)[to].len() - 1);
            d.insert(k, from, pos, p);
        }
        let full = full_joint_scores(&workload, &joint);
        for (l, f) in full.iter().enumerate() {
            assert_eq!(d.score_of(l).to_bits(), f.to_bits());
        }
    }

    #[test]
    fn joint_recompute_count_stays_local() {
        let (workload, joint) = workload2();
        let mut d = JointDeltaScorer::new(workload.as_ref(), &joint).unwrap();
        let base = d.recomputes();
        // Proc 7 is private to app 0: moving it must not touch app 1.
        let p = d.remove(0, 3, 0);
        d.insert(0, 2, 3, p);
        // Stage 3 touch: compute + comm 2; stage 2 touch: compute +
        // comms 1, 2 — 5 columns, none of app 1's.
        assert_eq!(d.recomputes() - base, 5);
        // Proc 4 is shared with app 0's stage 2: moving it inside app 1
        // refreshes app 0's stage-2 neighbourhood too.  Remove from
        // stage 1: 3 own columns + 3 of app 0; insert at stage 0: 2 own
        // columns (no left comm) + 3 of app 0.
        let base = d.recomputes();
        let p = d.remove(1, 1, 0);
        d.insert(1, 0, 0, p);
        assert_eq!(d.recomputes() - base, 6 + 5);
    }
}
