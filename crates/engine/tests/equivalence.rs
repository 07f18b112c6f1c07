//! Engine equivalence properties: every reuse path (parallel chunks,
//! memo/cache hits, delta rescoring) must be **bitwise identical** to the
//! cold sequential evaluators it replaces.  (a)–(c) run the engine on a
//! single application — its one-app workload — against the cold
//! single-application evaluators; (d) on K apps.

use proptest::prelude::*;
use rand::Rng;
use repstream_core::model::{App, Application, JointMapping, Platform, System, Workload};
use repstream_core::{deterministic, exponential, timing};
use repstream_engine::batch::score_joint_batch_with_threads;
use repstream_engine::{JointDeltaScorer, WorkloadDetScorer, WorkloadExpScorer};
use repstream_markov::govern::Budget;
use repstream_petri::shape::ExecModel;
use repstream_stochastic::rng::seeded_rng;
use repstream_workload::random::{random_joint_mapping_with, random_mapping_with, random_mappings};

/// A random heterogeneous instance: `stages` stage works and file sizes,
/// `procs` processor speeds, and (sometimes) per-link bandwidths.
fn random_instance(stages: usize, procs: usize, seed: u64) -> (Application, Platform) {
    let mut rng = seeded_rng(seed);
    let work: Vec<f64> = (0..stages).map(|_| rng.gen_range(1.0..20.0)).collect();
    let files: Vec<f64> = (0..stages - 1).map(|_| rng.gen_range(1.0..10.0)).collect();
    let app = Application::new(work, files).expect("positive works/sizes");
    let speeds: Vec<f64> = (0..procs).map(|_| rng.gen_range(0.5..4.0)).collect();
    let mut platform = Platform::complete(speeds, rng.gen_range(0.2..2.0)).expect("valid");
    if rng.gen_bool(0.5) {
        // Heterogeneous network: per-link overrides (keeps the pattern
        // memo honest — weight vectors differ between candidates).
        for p in 0..procs {
            for q in 0..procs {
                if p != q && rng.gen_bool(0.3) {
                    platform
                        .set_bandwidth(p, q, rng.gen_range(0.2..2.0))
                        .expect("positive bandwidth");
                }
            }
        }
    }
    (app, platform)
}

/// The one-app workload of an application.
fn one_app(app: &Application, platform: &Platform) -> Workload {
    Workload::new(vec![App::new(app.clone())], platform.clone()).expect("one app")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (a) Chunk-parallel batch scoring is bitwise identical to the
    /// sequential pass, for any thread count.
    #[test]
    fn parallel_batches_match_sequential_bitwise(
        stages in 2usize..5,
        extra in 0usize..7,
        threads in 2usize..7,
        seed in 0u64..1_000_000,
    ) {
        let procs = stages + extra;
        let (app, platform) = random_instance(stages, procs, seed);
        let candidates = random_mappings(stages, procs, 48, seed ^ 0xBA7C4);
        let workload = one_app(&app, &platform);
        let batch = |threads| {
            score_joint_batch_with_threads(
                workload.as_ref(), ExecModel::Overlap, &candidates, &Budget::UNLIMITED, threads,
            )
            .expect("valid candidates")
        };
        let (seq, par) = (batch(1), batch(threads));
        for (i, (a, b)) in seq.iter().zip(par.iter()).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "candidate {} of case", i);
        }
    }

    /// (b) Memo/cache-hit scoring is bitwise identical to cold scoring —
    /// deterministic (pattern-period memo) and exponential (chain cache)
    /// alike, including repeat visits of the same candidate.
    #[test]
    fn warm_scorers_match_cold_evaluators_bitwise(
        stages in 2usize..4,
        extra in 0usize..6,
        seed in 0u64..1_000_000,
    ) {
        let procs = stages + extra;
        let (app, platform) = random_instance(stages, procs, seed);
        let candidates = random_mappings(stages, procs, 10, seed ^ 0x5EED);
        let workload = one_app(&app, &platform);
        let mut det = WorkloadDetScorer::new(workload.as_ref(), ExecModel::Overlap);
        let mut exp = WorkloadExpScorer::new(workload.as_ref(), ExecModel::Overlap);
        for visit in 0..2 {
            for (i, m) in candidates.iter().enumerate() {
                let sys = System::new(app.clone(), platform.clone(), m.clone())
                    .expect("valid candidate");
                let cold_det = deterministic::throughput_columnwise(&sys);
                let warm_det = det.score(std::slice::from_ref(m)).expect("valid candidate")[0];
                prop_assert_eq!(
                    cold_det.to_bits(), warm_det.to_bits(),
                    "det candidate {} visit {}", i, visit
                );
                let cold_exp = exponential::throughput_overlap(&sys)
                    .expect("pattern chains fit")
                    .throughput;
                let warm_exp = exp.score(std::slice::from_ref(m)).expect("pattern chains fit")[0];
                prop_assert_eq!(
                    cold_exp.to_bits(), warm_exp.to_bits(),
                    "exp candidate {} visit {}", i, visit
                );
            }
        }
    }

    /// (b′) Strict-chain cache hits match the cold Theorem 2 evaluator.
    /// Small shapes only — the full marking chain is exponential.
    #[test]
    fn warm_strict_scorer_matches_cold_bitwise(
        extra in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let stages = 2usize;
        let procs = stages + extra;
        let (app, platform) = random_instance(stages, procs, seed);
        let candidates = random_mappings(stages, procs, 6, seed ^ 0x57817);
        let workload = one_app(&app, &platform);
        let mut exp = WorkloadExpScorer::new(workload.as_ref(), ExecModel::Strict);
        for (i, m) in candidates.iter().enumerate() {
            let sys = System::new(app.clone(), platform.clone(), m.clone())
                .expect("valid candidate");
            let cold = exponential::throughput_strict(&sys, Default::default())
                .expect("small chain");
            let warm = exp.score(std::slice::from_ref(m)).expect("small chain")[0];
            prop_assert_eq!(cold.to_bits(), warm.to_bits(), "candidate {}", i);
        }
    }

    /// (c) Delta scoring after random single-processor moves equals a
    /// full columnwise rescore to 0 ulp.
    #[test]
    fn delta_moves_match_full_rescore_to_zero_ulp(
        stages in 2usize..5,
        extra in 1usize..7,
        moves in 1usize..25,
        seed in 0u64..1_000_000,
    ) {
        let procs = stages + extra;
        let (app, platform) = random_instance(stages, procs, seed);
        let mut rng = seeded_rng(seed ^ 0xDE17A);
        let start = JointMapping::from(random_mapping_with(stages, procs, &mut rng));
        let workload = one_app(&app, &platform);
        let mut scorer =
            JointDeltaScorer::new(workload.as_ref(), &start).expect("valid start");
        for step in 0..moves {
            // A random move that keeps every team non-empty: move one
            // processor from a team of ≥ 2 to any other stage (or drop it
            // if the assignment stays valid).
            let candidates: Vec<usize> = (0..stages)
                .filter(|&s| scorer.teams_of(0)[s].len() >= 2)
                .collect();
            if candidates.is_empty() {
                break;
            }
            let from = candidates[rng.gen_range(0..candidates.len())];
            let pos = rng.gen_range(0..scorer.teams_of(0)[from].len());
            let p = scorer.remove(0, from, pos);
            let drop_it = rng.gen_bool(0.2);
            if !drop_it {
                let to = rng.gen_range(0..stages);
                let at = rng.gen_range(0..=scorer.teams_of(0)[to].len());
                scorer.insert(0, to, at, p);
            }
            let mapping = scorer.mapping_of(0).expect("teams stay non-empty");
            let sys = System::new(app.clone(), platform.clone(), mapping).expect("valid");
            let full = deterministic::throughput_columnwise(&sys);
            prop_assert_eq!(
                full.to_bits(),
                scorer.score_of(0).to_bits(),
                "step {} of case", step
            );
        }
    }

    /// (d) Joint delta scoring: after a single-stage move of **one** app,
    /// every app's maintained score — including the contention terms of
    /// co-located apps — equals a cold full workload rescore over
    /// [`timing::contended_times`] to 0 ulp.  This is the multi-app
    /// extension of the PR 3 delta ≡ full contract.
    #[test]
    fn joint_delta_moves_match_full_contended_rescore_to_zero_ulp(
        extra in 1usize..6,
        moves in 1usize..20,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = seeded_rng(seed ^ 0x10177);
        let n_apps = rng.gen_range(2..4usize);
        let stage_counts: Vec<usize> =
            (0..n_apps).map(|_| rng.gen_range(2..4usize)).collect();
        let procs = stage_counts.iter().copied().max().unwrap() + extra;
        // One shared platform; each tenant gets its own random chain.
        let (_, platform) = random_instance(2, procs, seed);
        let apps: Vec<App> = stage_counts
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let (a, _) =
                    random_instance(s, procs, seed ^ ((i as u64 + 1) * 0x9E37_79B9));
                App::new(a)
            })
            .collect();
        let workload = Workload::new(apps, platform).expect("at least one app");
        let start = random_joint_mapping_with(&stage_counts, procs, &mut rng);
        let mut scorer =
            JointDeltaScorer::new((&workload).into(), &start).expect("valid start");
        for step in 0..moves {
            // A random within-app move that keeps every team non-empty:
            // app k moves one processor from a team of ≥ 2 to any of its
            // other stages (or drops it).  Co-located apps are the point:
            // their shares of the moved processor's resources change too.
            let k = rng.gen_range(0..n_apps);
            let donors: Vec<usize> = (0..stage_counts[k])
                .filter(|&s| scorer.teams_of(k)[s].len() >= 2)
                .collect();
            if donors.is_empty() {
                continue;
            }
            let from = donors[rng.gen_range(0..donors.len())];
            let pos = rng.gen_range(0..scorer.teams_of(k)[from].len());
            let p = scorer.remove(k, from, pos);
            if !rng.gen_bool(0.2) {
                let to = rng.gen_range(0..stage_counts[k]);
                let at = rng.gen_range(0..=scorer.teams_of(k)[to].len());
                scorer.insert(k, to, at, p);
            }
            let joint = scorer.joint_mapping().expect("teams stay non-empty");
            let tables = timing::contended_times(&workload, &joint);
            for (l, (times, m)) in tables.iter().zip(joint.mappings()).enumerate() {
                let full = deterministic::throughput_columnwise_shape(&m.shape(), times);
                prop_assert_eq!(
                    full.to_bits(),
                    scorer.score_of(l).to_bits(),
                    "step {}, app {} (moved app {})", step, l, k
                );
            }
        }
    }
}
