//! Machine-readable CTMC engine snapshot: times the marking BFS and every
//! stationary solver on pattern chains of growing size and writes the
//! results as JSON (`BENCH_ctmc.json` by default, `--out` to override).
//!
//! The JSON is the before/after record demanded by the CSR-engine rework:
//! run it on two checkouts and diff the numbers.  It is also how the
//! GTH ↔ Gauss–Seidel crossover of `Ctmc::stationary` was tuned — the
//! pattern sizes span 12 to 1260 states, bracketing both selection
//! thresholds (`GTH_SMALL_N` and the old hard-coded 1500).
//!
//! A second `"lumping"` section records the symmetry-reduced (lumped)
//! Theorem 2 chains of homogeneous Strict TPNs: full-vs-lumped state
//! counts, the orbit/refine/quotient/solve pipeline time against the
//! full-chain solve, and the max per-state disagreement of the lifted
//! stationary vector.
//!
//! A third `"mapping_search"` section records batch candidate scoring on
//! the 12-processor `mapping_search` scenario: the PR 2 clone-per-
//! candidate baseline vs the engine's zero-clone memoized scorer
//! (sequential, i.e. "cached", and chunk-parallel) in candidates/sec,
//! plus a bitwise-equality check of the three result vectors.
//!
//! A fourth `"quotient"` section records the direct canonical-marking
//! quotient construction of the Theorem 2 chain against the PR 3
//! lump-first pipeline (full BFS + orbit propagation + refinement +
//! quotient solve), end to end per shape: build time, total
//! time-to-throughput, the `m`-fold peak-state reduction (asserted), and
//! the throughput agreement of the two paths (asserted ≤ 1e-12
//! relative).  Shapes whose full chain exceeds the state budget record
//! the lump-first path as unavailable — those are exactly the shapes the
//! direct path newly opens.
//!
//! A fifth `"quotient_parallel"` section records the thread scaling of
//! the chunk-parallel quotient-frontier BFS: the same direct quotient
//! build at 1/2/4/8 workers on the 4×5 / 5×6 / 3×4×5 scenarios, with
//! every output asserted **bitwise identical** to the sequential scan
//! before its time is recorded (on a 1-core container the speedups sit
//! below 1 and only the determinism check is meaningful — re-measure on
//! a multi-core box).
//!
//! A sixth `"solver_scale"` section times every stationary method
//! (automatic plan, Gauss–Seidel where feasible, GMRES, SOR, power) on
//! the direct quotient chains up to the ≥ 2²⁰-state 6×7 shape —
//! wall-clock, iteration count and final residual per solver, with every
//! forced solve's throughput asserted against the automatic plan's.
//! This is the measured record behind the Krylov routing threshold.
//!
//! A seventh `"workload_search"` section records **joint multi-app**
//! candidate scoring on the shared 12-processor platform
//! (`shared_platform`, K = 2 and K = 3 tenants): the cold per-candidate
//! contended rescore vs the engine's `WorkloadDetScorer` with its shared
//! pattern memo, in candidates/sec, with the two per-app score matrices
//! asserted bitwise equal before any time is recorded.
//!
//! Accepts the standard harness flags (`--smoke`, `--seed`, `--out`).

use repstream_bench::Args;
use repstream_core::model::System;
use repstream_core::{deterministic, timing};
use repstream_engine::batch::{score_batch, score_batch_with_threads};
use repstream_engine::WorkloadDetScorer;
use repstream_markov::ctmc::{Solver, SolverChoice};
use repstream_markov::govern::Budget;
use repstream_markov::marking::{MarkingGraph, MarkingOptions, QuotientGraph};
use repstream_markov::net::{comm_pattern, EventNet};
use repstream_petri::shape::{ExecModel, MappingShape, ResourceTable};
use repstream_petri::tpn::Tpn;
use repstream_workload::random::{random_joint_mappings, random_mappings};
use repstream_workload::scenarios;
use std::cell::Cell;
use std::fmt::Write as _;
use std::time::Instant;

/// Median-of-`reps` wall time of `f`, in seconds.
fn timed<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// One `"key": value` line of a JSON object body.
fn field(out: &mut String, indent: &str, key: &str, value: impl std::fmt::Display, last: bool) {
    let comma = if last { "" } else { "," };
    writeln!(out, "{indent}\"{key}\": {value}{comma}").unwrap();
}

fn main() {
    let args = Args::parse();
    let out_path = args.out.clone().unwrap_or_else(|| "BENCH_ctmc.json".into());
    let reps = if args.smoke { 1 } else { 5 };
    // Recorded in the file header and in every speedup-claiming section:
    // numbers from a 1-core box measure spawn overhead, not scaling, and
    // the file must say so instead of silently misleading.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let patterns: &[(usize, usize)] = if args.smoke {
        &[(2, 3), (3, 4)]
    } else {
        &[(2, 3), (3, 4), (3, 5), (4, 5), (4, 7), (5, 6)]
    };

    let mut json = format!(
        "{{\n  \"machine\": {{\n    \"available_parallelism\": {cores}\n  }},\n  \"benches\": [\n"
    );
    for (idx, &(u, v)) in patterns.iter().enumerate() {
        let net = comm_pattern(u, v, |a, b| 0.4 + ((3 * a + b) % 5) as f64 * 0.25);
        let opts = MarkingOptions {
            max_states: 1 << 22,
            capacity: None,
            ..Default::default()
        };
        let t_build = timed(reps, || MarkingGraph::build(&net, opts).unwrap());
        let mg = MarkingGraph::build(&net, opts).unwrap();
        let c = &mg.ctmc;
        let t_gth = timed(reps, || c.stationary_gth());
        let t_power = timed(reps, || c.stationary_power(1e-12, 200_000));
        let t_gs = timed(reps, || c.stationary_gauss_seidel(1e-14, 10_000));
        let t_auto = timed(reps, || c.stationary());
        let pi = c.stationary();
        let residual = c.stationarity_residual(&pi);

        json.push_str("    {\n");
        let ind = "      ";
        field(&mut json, ind, "pattern", format!("\"{u}x{v}\""), false);
        field(&mut json, ind, "states", c.n_states(), false);
        field(&mut json, ind, "nnz", c.nnz(), false);
        field(&mut json, ind, "build_s", format!("{t_build:.3e}"), false);
        field(&mut json, ind, "gth_s", format!("{t_gth:.3e}"), false);
        field(&mut json, ind, "power_s", format!("{t_power:.3e}"), false);
        field(
            &mut json,
            ind,
            "gauss_seidel_s",
            format!("{t_gs:.3e}"),
            false,
        );
        field(&mut json, ind, "auto_s", format!("{t_auto:.3e}"), false);
        field(
            &mut json,
            ind,
            "auto_residual",
            format!("{residual:.3e}"),
            true,
        );
        let comma = if idx + 1 == patterns.len() { "" } else { "," };
        writeln!(json, "    }}{comma}").unwrap();
        println!(
            "{u}x{v}: states {} build {:.1?}us gth {:.1?}us power {:.1?}us gs {:.1?}us auto {:.1?}us",
            c.n_states(),
            t_build * 1e6,
            t_gth * 1e6,
            t_power * 1e6,
            t_gs * 1e6,
            t_auto * 1e6,
        );
    }
    json.push_str("  ],\n  \"lumping\": [\n");

    // Symmetry-reduced Theorem 2 chains of homogeneous Strict TPNs.
    let shapes: &[&[usize]] = if args.smoke {
        &[&[2, 3]]
    } else {
        &[&[2, 3], &[3, 4], &[2, 3, 4], &[4, 5]]
    };
    for (idx, &teams) in shapes.iter().enumerate() {
        let shape = MappingShape::new(teams.to_vec());
        let tpn = Tpn::build(&shape, ExecModel::Strict);
        let rates = ResourceTable::from_fns(&shape, |_, _| 0.5, |_, _, _| 2.0);
        let (net, sym) = EventNet::from_tpn_with_symmetry(&tpn, &rates);
        let sym = sym.expect("homogeneous table keeps the row rotation");
        let mg = MarkingGraph::build(
            &net,
            MarkingOptions {
                max_states: 1 << 22,
                capacity: None,
                ..Default::default()
            },
        )
        .expect("Strict TPN is safe");
        let seed = mg.orbit_partition(&sym).expect("orbit seed applies");
        let t_lump = timed(reps, || mg.ctmc.stationary_lumped(&seed).unwrap());
        let t_orbit = timed(reps, || mg.orbit_partition(&sym).unwrap());
        let t_full = timed(reps, || mg.ctmc.stationary());
        let sol = mg.ctmc.stationary_lumped(&seed).unwrap();
        let full = mg.ctmc.stationary();
        let maxdiff = sol
            .pi
            .iter()
            .zip(&full)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);

        json.push_str("    {\n");
        let ind = "      ";
        let label: Vec<String> = teams.iter().map(|r| r.to_string()).collect();
        field(
            &mut json,
            ind,
            "teams",
            format!("\"{}\"", label.join("x")),
            false,
        );
        field(&mut json, ind, "m", shape.n_paths(), false);
        field(&mut json, ind, "full_states", sol.full_states, false);
        field(&mut json, ind, "lumped_states", sol.lumped_states, false);
        field(&mut json, ind, "orbit_s", format!("{t_orbit:.3e}"), false);
        field(
            &mut json,
            ind,
            "lump_refine_quotient_solve_s",
            format!("{t_lump:.3e}"),
            false,
        );
        field(
            &mut json,
            ind,
            "full_solve_s",
            format!("{t_full:.3e}"),
            false,
        );
        field(
            &mut json,
            ind,
            "max_state_diff",
            format!("{maxdiff:.3e}"),
            true,
        );
        let comma = if idx + 1 == shapes.len() { "" } else { "," };
        writeln!(json, "    }}{comma}").unwrap();
        println!(
            "lump {}: m={} states {} -> {} orbit {:.1}us lump {:.1}us full {:.1}us maxdiff {:.1e}",
            label.join("x"),
            shape.n_paths(),
            sol.full_states,
            sol.lumped_states,
            t_orbit * 1e6,
            t_lump * 1e6,
            t_full * 1e6,
            maxdiff,
        );
    }
    json.push_str("  ],\n  \"quotient\": [\n");

    // Direct canonical-marking quotient vs the PR 3 lump-first pipeline,
    // end to end (BFS through throughput).  The second tuple element is
    // the rep count for the lump-first side: large shapes time it once
    // (the full 5×6 BFS alone runs ~16 s), 0 skips it entirely (full
    // chain over the state budget — feasible only via the direct path).
    let qshapes: &[(&[usize], usize)] = if args.smoke {
        &[(&[2, 3], 1), (&[3, 4], 1)]
    } else {
        &[(&[3, 4], 5), (&[4, 5], 5), (&[5, 6], 1), (&[3, 4, 5], 0)]
    };
    for (idx, &(teams, lf_reps)) in qshapes.iter().enumerate() {
        let shape = MappingShape::new(teams.to_vec());
        let tpn = Tpn::build(&shape, ExecModel::Strict);
        let rates = ResourceTable::from_fns(&shape, |_, _| 0.5, |_, _, _| 2.0);
        let (net, sym) = EventNet::from_tpn_with_symmetry(&tpn, &rates);
        let sym = sym.expect("homogeneous table keeps the row rotation");
        let opts = MarkingOptions {
            max_states: 1 << 22,
            capacity: None,
            ..Default::default()
        };
        let last = tpn.last_column();

        // Shapes that take seconds per direct run (the ones whose
        // lump-first side is already clamped) get fewer direct reps.
        let direct_reps = if lf_reps >= reps { reps } else { reps.min(3) };
        let rho_direct = Cell::new(0.0f64);
        let states = Cell::new((0usize, 0usize));
        let t_direct_build = timed(direct_reps, || {
            QuotientGraph::build(&net, &sym, opts).unwrap()
        });
        let t_direct = timed(direct_reps, || {
            let qg = QuotientGraph::build(&net, &sym, opts).unwrap();
            states.set((qg.n_states(), qg.full_states()));
            rho_direct.set(qg.throughput_of(&net, &last));
        });
        let (q_states, f_states) = states.get();
        assert_eq!(
            f_states,
            q_states * shape.n_paths(),
            "peak interned states must be full/m on these free-orbit shapes"
        );

        // PR 3 lump-first end to end: full BFS + orbit + refine + quotient
        // solve + throughput.
        let rho_lump = Cell::new(0.0f64);
        let lumpfirst = || {
            let mg = MarkingGraph::build(&net, opts).unwrap();
            let seed = mg.orbit_partition(&sym).expect("orbit seed applies");
            let sol = mg.ctmc.stationary_lumped(&seed).expect("reduction exists");
            let fired = mg.firing_rates_with(&net.rates, &sol.pi);
            rho_lump.set(last.iter().map(|&t| fired[t]).sum::<f64>());
        };
        let t_lumpfirst = (lf_reps > 0).then(|| timed(lf_reps, lumpfirst));
        if t_lumpfirst.is_some() {
            let (a, b) = (rho_direct.get(), rho_lump.get());
            assert!(
                (a - b).abs() <= 1e-12 * b.abs(),
                "direct {a} vs lump-first {b} throughput diverged"
            );
        }

        json.push_str("    {\n");
        let ind = "      ";
        let label: Vec<String> = teams.iter().map(|r| r.to_string()).collect();
        field(
            &mut json,
            ind,
            "teams",
            format!("\"{}\"", label.join("x")),
            false,
        );
        field(&mut json, ind, "m", shape.n_paths(), false);
        field(&mut json, ind, "full_states", f_states, false);
        field(&mut json, ind, "quotient_states", q_states, false);
        field(
            &mut json,
            ind,
            "direct_build_s",
            format!("{t_direct_build:.3e}"),
            false,
        );
        field(
            &mut json,
            ind,
            "direct_total_s",
            format!("{t_direct:.3e}"),
            false,
        );
        match t_lumpfirst {
            Some(t) => {
                field(
                    &mut json,
                    ind,
                    "lumpfirst_total_s",
                    format!("{t:.3e}"),
                    false,
                );
                field(
                    &mut json,
                    ind,
                    "speedup_end_to_end",
                    format!("{:.2}", t / t_direct),
                    true,
                );
            }
            None => {
                field(&mut json, ind, "lumpfirst_total_s", "null", false);
                field(
                    &mut json,
                    ind,
                    "lumpfirst_skipped",
                    "\"full chain exceeds the state budget\"",
                    true,
                );
            }
        }
        let comma = if idx + 1 == qshapes.len() { "" } else { "," };
        writeln!(json, "    }}{comma}").unwrap();
        println!(
            "quotient {}: m={} states {} -> {} direct {:.1}ms (build {:.1}ms) lumpfirst {}",
            label.join("x"),
            shape.n_paths(),
            f_states,
            q_states,
            t_direct * 1e3,
            t_direct_build * 1e3,
            t_lumpfirst
                .map(|t| format!("{:.1}ms ({:.1}x)", t * 1e3, t / t_direct))
                .unwrap_or_else(|| "skipped (over budget)".into()),
        );
    }
    json.push_str("  ],\n  \"quotient_parallel\": [\n");

    // Thread scaling of the chunk-parallel quotient-frontier BFS: the
    // same direct quotient build at 1/2/4/8 workers, every output
    // asserted bitwise identical to the sequential scan before the times
    // are recorded.  On a 1-core box the spawns are pure overhead, so the
    // speedup fields are replaced by a logged skip reason — the raw build
    // times and the determinism check are still real data.
    let pshapes: &[&[usize]] = if args.smoke {
        &[&[2, 3], &[3, 4]]
    } else {
        &[&[4, 5], &[5, 6], &[3, 4, 5]]
    };
    let thread_counts = [1usize, 2, 4, 8];
    for (idx, &teams) in pshapes.iter().enumerate() {
        let shape = MappingShape::new(teams.to_vec());
        let tpn = Tpn::build(&shape, ExecModel::Strict);
        let rates = ResourceTable::from_fns(&shape, |_, _| 0.5, |_, _, _| 2.0);
        let (net, sym) = EventNet::from_tpn_with_symmetry(&tpn, &rates);
        let sym = sym.expect("homogeneous table keeps the row rotation");
        let opts_with = |threads: usize| MarkingOptions {
            max_states: 1 << 22,
            capacity: None,
            threads,
            ..Default::default()
        };
        let reference = QuotientGraph::build(&net, &sym, opts_with(1)).unwrap();
        // Big shapes (seconds per build) are timed once per count.
        let preps = if reference.n_states() < 50_000 {
            reps
        } else {
            1
        };
        let mut times = Vec::new();
        for &threads in &thread_counts {
            let t = timed(preps, || {
                QuotientGraph::build(&net, &sym, opts_with(threads)).unwrap()
            });
            let qg = QuotientGraph::build(&net, &sym, opts_with(threads)).unwrap();
            assert_eq!(qg.n_states(), reference.n_states(), "threads {threads}");
            assert_eq!(
                qg.orbit_sizes(),
                reference.orbit_sizes(),
                "threads {threads}"
            );
            let (mut buf_a, mut buf_b) = (Vec::new(), Vec::new());
            for s in 0..reference.n_states() {
                assert_eq!(
                    qg.reps.read_into(s, &mut buf_a),
                    reference.reps.read_into(s, &mut buf_b),
                    "threads {threads}"
                );
                assert_eq!(
                    qg.ctmc.row_targets(s),
                    reference.ctmc.row_targets(s),
                    "threads {threads}"
                );
                for (a, b) in qg.ctmc.row_rates(s).iter().zip(reference.ctmc.row_rates(s)) {
                    assert_eq!(a.to_bits(), b.to_bits(), "threads {threads} state {s}");
                }
            }
            times.push(t);
        }

        json.push_str("    {\n");
        let ind = "      ";
        let label: Vec<String> = teams.iter().map(|r| r.to_string()).collect();
        field(
            &mut json,
            ind,
            "teams",
            format!("\"{}\"", label.join("x")),
            false,
        );
        field(&mut json, ind, "m", shape.n_paths(), false);
        field(
            &mut json,
            ind,
            "quotient_states",
            reference.n_states(),
            false,
        );
        field(&mut json, ind, "available_parallelism", cores, false);
        for (i, &threads) in thread_counts.iter().enumerate() {
            field(
                &mut json,
                ind,
                &format!("build_t{threads}_s"),
                format!("{:.3e}", times[i]),
                false,
            );
        }
        if cores > 1 {
            for (i, &threads) in thread_counts.iter().enumerate().skip(1) {
                field(
                    &mut json,
                    ind,
                    &format!("speedup_t{threads}"),
                    format!("{:.2}", times[0] / times[i]),
                    false,
                );
            }
        } else {
            field(
                &mut json,
                ind,
                "speedup_skipped",
                "\"1 core available: parallel builds measure spawn overhead, not scaling\"",
                false,
            );
        }
        field(&mut json, ind, "bitwise_equal", true, true);
        let comma = if idx + 1 == pshapes.len() { "" } else { "," };
        writeln!(json, "    }}{comma}").unwrap();
        println!(
            "quotient_parallel {}: states {} t1 {:.1}ms t2 {:.1}ms t4 {:.1}ms t8 {:.1}ms (bitwise equal{})",
            label.join("x"),
            reference.n_states(),
            times[0] * 1e3,
            times[1] * 1e3,
            times[2] * 1e3,
            times[3] * 1e3,
            if cores > 1 {
                String::new()
            } else {
                "; speedups skipped: 1 core".into()
            },
        );
    }
    json.push_str("  ],\n  \"solver_scale\": [\n");

    // Stationary-solver scaling on the direct quotient chains: one timed
    // solve-to-throughput per method.  Single-shot timings — the top-end
    // solves run seconds to minutes, medians would triple the bench.
    // Gauss–Seidel only runs below 200 k states (a GS sweep is
    // sequential by construction; above that it is exactly what the
    // Krylov routing exists to avoid).  The ≥ 2²⁰-state shape (6×7) is
    // the acceptance record: GMRES/SOR must beat power there at equal
    // residual.  Every forced solve's throughput is asserted against the
    // automatic plan's.
    let sshapes: &[&[usize]] = if args.smoke {
        &[&[2, 3], &[3, 4]]
    } else {
        &[&[4, 5], &[5, 6], &[6, 7]]
    };
    for (idx, &teams) in sshapes.iter().enumerate() {
        let shape = MappingShape::new(teams.to_vec());
        let tpn = Tpn::build(&shape, ExecModel::Strict);
        let rates = ResourceTable::from_fns(&shape, |_, _| 0.5, |_, _, _| 2.0);
        let (net, sym) = EventNet::from_tpn_with_symmetry(&tpn, &rates);
        let sym = sym.expect("homogeneous table keeps the row rotation");
        let opts = MarkingOptions {
            max_states: 1 << 22,
            capacity: None,
            ..Default::default()
        };
        let last = tpn.last_column();
        let qg = QuotientGraph::build(&net, &sym, opts).unwrap();
        let n = qg.n_states();
        let mut choices: Vec<(&str, SolverChoice)> = vec![("auto", SolverChoice::Auto)];
        if n < 200_000 {
            choices.push(("gs", SolverChoice::Force(Solver::GaussSeidel)));
        }
        for s in [Solver::Gmres, Solver::Sor, Solver::Power] {
            choices.push((s.label(), SolverChoice::Force(s)));
        }

        json.push_str("    {\n");
        let ind = "      ";
        let label: Vec<String> = teams.iter().map(|r| r.to_string()).collect();
        field(
            &mut json,
            ind,
            "teams",
            format!("\"{}\"", label.join("x")),
            false,
        );
        field(&mut json, ind, "states", n, false);
        field(&mut json, ind, "nnz", qg.ctmc.nnz(), false);
        let mut rho_auto = f64::NAN;
        let mut summary = String::new();
        for (i, &(name, choice)) in choices.iter().enumerate() {
            let t0 = Instant::now();
            let (rho, report) = qg.throughput_solve(&qg.ctmc, &net.rates, &last, choice);
            let t = t0.elapsed().as_secs_f64();
            if name == "auto" {
                rho_auto = rho;
            }
            assert!(
                (rho - rho_auto).abs() <= 1e-8 * rho_auto.abs(),
                "{name} throughput {rho} diverged from auto {rho_auto}"
            );
            field(
                &mut json,
                ind,
                &format!("{name}_s"),
                format!("{t:.3e}"),
                false,
            );
            field(
                &mut json,
                ind,
                &format!("{name}_solver"),
                format!("\"{}\"", report.solver.label()),
                false,
            );
            field(
                &mut json,
                ind,
                &format!("{name}_iters"),
                report.iterations,
                false,
            );
            field(
                &mut json,
                ind,
                &format!("{name}_residual"),
                format!("{:.3e}", report.residual),
                i + 1 == choices.len(),
            );
            write!(
                summary,
                " {name} {:.2}s ({} it res {:.1e})",
                t, report.iterations, report.residual
            )
            .unwrap();
        }
        let comma = if idx + 1 == sshapes.len() { "" } else { "," };
        writeln!(json, "    }}{comma}").unwrap();
        println!("solver_scale {}: states {n}{summary}", label.join("x"));
    }
    json.push_str("  ],\n  \"mapping_search\": {\n");

    // Batch candidate scoring on the 12-processor mapping-search scenario.
    let (app, platform) = scenarios::mapping_search();
    let n_candidates = if args.smoke { 200 } else { 1000 };
    let candidates = random_mappings(
        app.n_stages(),
        platform.n_processors(),
        n_candidates,
        args.seed,
    );
    let baseline = || -> Vec<f64> {
        candidates
            .iter()
            .map(|m| {
                let sys =
                    System::new(app.clone(), platform.clone(), m.clone()).expect("valid candidate");
                deterministic::throughput_columnwise(&sys)
            })
            .collect()
    };
    let t_baseline = timed(reps, baseline);
    let t_engine = timed(reps, || {
        score_batch_with_threads(&app, &platform, ExecModel::Overlap, &candidates, 1)
            .expect("valid candidates")
    });
    let t_parallel = timed(reps, || {
        score_batch(&app, &platform, ExecModel::Overlap, &candidates).expect("valid candidates")
    });
    let cold = baseline();
    let cached =
        score_batch_with_threads(&app, &platform, ExecModel::Overlap, &candidates, 1).unwrap();
    let parallel = score_batch(&app, &platform, ExecModel::Overlap, &candidates).unwrap();
    let bitwise_equal = cold
        .iter()
        .zip(&cached)
        .zip(&parallel)
        .all(|((a, b), c)| a.to_bits() == b.to_bits() && b.to_bits() == c.to_bits());

    {
        let ind = "    ";
        let per_s = |t: f64| format!("{:.4e}", n_candidates as f64 / t);
        field(&mut json, ind, "candidates", n_candidates, false);
        field(&mut json, ind, "available_parallelism", cores, false);
        field(
            &mut json,
            ind,
            "clone_baseline_s",
            format!("{t_baseline:.3e}"),
            false,
        );
        field(
            &mut json,
            ind,
            "engine_sequential_s",
            format!("{t_engine:.3e}"),
            false,
        );
        field(
            &mut json,
            ind,
            "engine_parallel_s",
            format!("{t_parallel:.3e}"),
            false,
        );
        field(
            &mut json,
            ind,
            "baseline_cand_per_s",
            per_s(t_baseline),
            false,
        );
        field(&mut json, ind, "cached_cand_per_s", per_s(t_engine), false);
        field(
            &mut json,
            ind,
            "parallel_cand_per_s",
            per_s(t_parallel),
            false,
        );
        field(
            &mut json,
            ind,
            "speedup_cached",
            format!("{:.2}", t_baseline / t_engine),
            false,
        );
        if cores > 1 {
            field(
                &mut json,
                ind,
                "speedup_parallel",
                format!("{:.2}", t_baseline / t_parallel),
                false,
            );
        } else {
            field(
                &mut json,
                ind,
                "speedup_parallel_skipped",
                "\"1 core available: the parallel scorer degenerates to sequential plus spawn overhead\"",
                false,
            );
        }
        field(&mut json, ind, "bitwise_equal", bitwise_equal, true);
    }
    println!(
        "mapping_search: {n_candidates} candidates baseline {:.1}ms engine {:.1}ms parallel {:.1}ms speedup {:.2}x/{:.2}x bitwise_equal {bitwise_equal}",
        t_baseline * 1e3,
        t_engine * 1e3,
        t_parallel * 1e3,
        t_baseline / t_engine,
        t_baseline / t_parallel,
    );
    assert!(bitwise_equal, "engine scoring diverged from the baseline");

    json.push_str("  },\n  \"workload_search\": [\n");

    // Joint multi-app candidate scoring: K tenants of the shared
    // 12-processor platform, each joint candidate scored with the
    // per-resource contention folded into every app's service times.
    // Cold = fresh contended tables + columnwise evaluation per
    // candidate; engine = WorkloadDetScorer with its shared pattern
    // memo.  Bitwise equality of the K×N score matrices is asserted
    // before either time is recorded.
    let tenant_counts = [2usize, 3];
    for (idx, &k) in tenant_counts.iter().enumerate() {
        let workload = scenarios::shared_platform(k);
        let stage_counts: Vec<usize> = workload
            .apps()
            .iter()
            .map(|a| a.application().n_stages())
            .collect();
        let joints = random_joint_mappings(
            &stage_counts,
            workload.platform().n_processors(),
            n_candidates,
            args.seed ^ 0x10AD,
        );
        let cold = || -> Vec<Vec<f64>> {
            joints
                .iter()
                .map(|joint| {
                    timing::contended_times(&workload, joint)
                        .iter()
                        .zip(joint.mappings())
                        .map(|(times, m)| {
                            deterministic::throughput_columnwise_shape(&m.shape(), times)
                        })
                        .collect()
                })
                .collect()
        };
        let shared = || -> Vec<Vec<f64>> {
            let mut scorer = WorkloadDetScorer::new((&workload).into(), ExecModel::Overlap);
            joints
                .iter()
                .map(|joint| scorer.score(joint).expect("valid candidate"))
                .collect()
        };
        let cold_scores = cold();
        let shared_scores = shared();
        let joint_bitwise = cold_scores
            .iter()
            .zip(&shared_scores)
            .all(|(a, b)| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));
        assert!(
            joint_bitwise,
            "K={k} shared-memo scoring diverged from cold"
        );
        let t_cold = timed(reps, cold);
        let t_shared = timed(reps, shared);

        json.push_str("    {\n");
        let ind = "      ";
        let per_s = |t: f64| format!("{:.4e}", n_candidates as f64 / t);
        field(&mut json, ind, "apps", k, false);
        field(&mut json, ind, "candidates", n_candidates, false);
        field(&mut json, ind, "available_parallelism", cores, false);
        field(&mut json, ind, "cold_s", format!("{t_cold:.3e}"), false);
        field(&mut json, ind, "shared_s", format!("{t_shared:.3e}"), false);
        field(&mut json, ind, "cold_cand_per_s", per_s(t_cold), false);
        field(&mut json, ind, "shared_cand_per_s", per_s(t_shared), false);
        field(
            &mut json,
            ind,
            "speedup_shared",
            format!("{:.2}", t_cold / t_shared),
            false,
        );
        field(&mut json, ind, "bitwise_equal", joint_bitwise, true);
        let comma = if idx + 1 == tenant_counts.len() {
            ""
        } else {
            ","
        };
        writeln!(json, "    }}{comma}").unwrap();
        println!(
            "workload_search K={k}: {n_candidates} candidates cold {:.1}ms shared {:.1}ms \
             ({:.0}/s -> {:.0}/s, {:.2}x) bitwise_equal {joint_bitwise}",
            t_cold * 1e3,
            t_shared * 1e3,
            n_candidates as f64 / t_cold,
            n_candidates as f64 / t_shared,
            t_cold / t_shared,
        );
    }

    json.push_str("  ],\n  \"governor\": {\n");

    // Resource-governor overhead: the 4×5 strict quotient built and
    // solved end to end, ungoverned vs under a far-away deadline (the
    // per-level/per-checkpoint `Budget::check` calls run but never
    // fire).  The contract is twofold: the overhead ratio stays noise
    // (the checks are one `Instant::now` per BFS level / solver
    // checkpoint) and the governed outputs are **bitwise identical** —
    // an un-fired budget changes zero output bits.
    {
        let ind = "    ";
        let teams = &[4usize, 5];
        let shape = MappingShape::new(teams.to_vec());
        let tpn = Tpn::build(&shape, ExecModel::Strict);
        let rates = ResourceTable::from_fns(&shape, |_, _| 0.5, |_, _, _| 2.0);
        let (net, sym) = EventNet::from_tpn_with_symmetry(&tpn, &rates);
        let sym = sym.expect("homogeneous table keeps the row rotation");
        let last = tpn.last_column();
        let far = Budget::deadline_in(std::time::Duration::from_secs(3600));
        let mk = |budget: Budget| MarkingOptions {
            max_states: 1 << 22,
            capacity: None,
            budget,
            ..Default::default()
        };
        let rho_plain = Cell::new(0.0f64);
        let states = Cell::new(0usize);
        let t_plain = timed(reps, || {
            let qg = QuotientGraph::build(&net, &sym, mk(Budget::UNLIMITED)).unwrap();
            states.set(qg.n_states());
            rho_plain.set(qg.throughput_of(&net, &last));
        });
        let q_states = states.get();
        let rho_governed = Cell::new(0.0f64);
        let t_governed = timed(reps, || {
            let qg = QuotientGraph::build(&net, &sym, mk(far)).unwrap();
            assert_eq!(qg.n_states(), q_states, "governed BFS state count diverged");
            let (rho, _) = qg
                .throughput_solve_governed(&qg.ctmc, &net.rates, &last, SolverChoice::Auto, &far)
                .expect("a one-hour deadline never fires here");
            rho_governed.set(rho);
        });
        assert_eq!(
            rho_plain.get().to_bits(),
            rho_governed.get().to_bits(),
            "un-fired budget must be bitwise invisible: {} vs {}",
            rho_plain.get(),
            rho_governed.get()
        );
        field(&mut json, ind, "teams", "\"4x5\"", false);
        field(&mut json, ind, "quotient_states", q_states, false);
        field(
            &mut json,
            ind,
            "ungoverned_s",
            format!("{t_plain:.3e}"),
            false,
        );
        field(
            &mut json,
            ind,
            "governed_s",
            format!("{t_governed:.3e}"),
            false,
        );
        field(
            &mut json,
            ind,
            "overhead_ratio",
            format!("{:.4}", t_governed / t_plain),
            false,
        );
        field(&mut json, ind, "bitwise_equal", true, true);
        println!(
            "governor 4x5: ungoverned {t_plain:.3}s governed {t_governed:.3}s \
             (ratio {:.3}), bitwise equal",
            t_governed / t_plain
        );
    }

    json.push_str("  },\n  \"ten_million\": {\n");

    // The 10M-state acceptance record, in two parts.  (a) The
    // Jacobi-scaled GMRES against its unpreconditioned baseline on the
    // ≥ 2²⁰-state 6×7 quotient — the matvec counts are the point.
    // (b) The 7×8 direct quotient (14.06M lumped states) built and
    // solved end-to-end with the interner spill off and then on: wall
    // times and peak arena+interner bytes recorded both ways, and the
    // two throughputs asserted bitwise equal.  This is minutes of work,
    // so --smoke records a skip reason instead of silently omitting it.
    {
        let ind = "    ";
        if args.smoke {
            field(
                &mut json,
                ind,
                "skipped",
                "\"--smoke: the 7x8 build-and-solve runs for minutes\"",
                true,
            );
            println!("ten_million: skipped under --smoke");
        } else {
            field(&mut json, ind, "available_parallelism", cores, false);
            let build_net = |teams: &[usize]| {
                let shape = MappingShape::new(teams.to_vec());
                let tpn = Tpn::build(&shape, ExecModel::Strict);
                let rates = ResourceTable::from_fns(&shape, |_, _| 0.5, |_, _, _| 2.0);
                let (net, sym) = EventNet::from_tpn_with_symmetry(&tpn, &rates);
                let sym = sym.expect("homogeneous table keeps the row rotation");
                (tpn, net, sym)
            };

            // (a) preconditioner A/B on the 6×7 quotient.
            {
                let (tpn, net, sym) = build_net(&[6, 7]);
                let qg = QuotientGraph::build(
                    &net,
                    &sym,
                    MarkingOptions {
                        max_states: 1 << 22,
                        capacity: None,
                        ..Default::default()
                    },
                )
                .unwrap();
                let last = tpn.last_column();
                field(&mut json, ind, "precond_teams", "\"6x7\"", false);
                field(&mut json, ind, "precond_states", qg.n_states(), false);
                let mut rhos = Vec::new();
                for (key, solver) in [("jacobi", Solver::Gmres), ("plain", Solver::GmresPlain)] {
                    let t0 = Instant::now();
                    let (rho, rep) = qg.throughput_solve(
                        &qg.ctmc,
                        &net.rates,
                        &last,
                        SolverChoice::Force(solver),
                    );
                    let t = t0.elapsed().as_secs_f64();
                    rhos.push(rho);
                    field(
                        &mut json,
                        ind,
                        &format!("gmres_{key}_matvecs"),
                        rep.iterations,
                        false,
                    );
                    field(
                        &mut json,
                        ind,
                        &format!("gmres_{key}_s"),
                        format!("{t:.3e}"),
                        false,
                    );
                    field(
                        &mut json,
                        ind,
                        &format!("gmres_{key}_residual"),
                        format!("{:.3e}", rep.residual),
                        false,
                    );
                    println!(
                        "ten_million precond 6x7 {key}: {} matvecs {t:.2}s residual {:.3e}",
                        rep.iterations, rep.residual
                    );
                }
                assert!(
                    (rhos[0] - rhos[1]).abs() <= 1e-8 * rhos[1].abs(),
                    "preconditioned GMRES throughput diverged: {} vs {}",
                    rhos[0],
                    rhos[1]
                );
            }

            // (b) the 7×8 shape, spill off vs on, bitwise-equal solve.
            {
                let (tpn, net, sym) = build_net(&[7, 8]);
                let last = tpn.last_column();
                let mk = |spill: bool| MarkingOptions {
                    max_states: 1 << 24,
                    capacity: None,
                    interner_spill: spill,
                    ..Default::default()
                };
                field(&mut json, ind, "scale_teams", "\"7x8\"", false);
                let mut recorded: Option<(usize, u64)> = None;
                for (key, spill) in [("spill_off", false), ("spill_on", true)] {
                    let t0 = Instant::now();
                    let qg = QuotientGraph::build(&net, &sym, mk(spill)).unwrap();
                    let t_build = t0.elapsed().as_secs_f64();
                    let stats = qg.arena_stats();
                    let t0 = Instant::now();
                    let (rho, rep) =
                        qg.throughput_solve(&qg.ctmc, &net.rates, &last, SolverChoice::Auto);
                    let t_solve = t0.elapsed().as_secs_f64();
                    if spill {
                        assert!(stats.spill_bytes > 0, "the spill run must actually spill");
                    }
                    match recorded {
                        None => {
                            field(&mut json, ind, "scale_states", qg.n_states(), false);
                            field(&mut json, ind, "scale_full_states", qg.full_states(), false);
                            field(
                                &mut json,
                                ind,
                                "scale_solver",
                                format!("\"{}\"", rep.solver.label()),
                                false,
                            );
                            field(
                                &mut json,
                                ind,
                                "scale_precond",
                                format!("\"{}\"", rep.precond.label()),
                                false,
                            );
                            field(&mut json, ind, "scale_iterations", rep.iterations, false);
                            field(
                                &mut json,
                                ind,
                                "scale_residual",
                                format!("{:.3e}", rep.residual),
                                false,
                            );
                            field(
                                &mut json,
                                ind,
                                "scale_throughput",
                                format!("{rho:.12e}"),
                                false,
                            );
                            recorded = Some((qg.n_states(), rho.to_bits()));
                        }
                        Some((states, bits)) => {
                            assert_eq!(
                                qg.n_states(),
                                states,
                                "spill run must walk the same quotient"
                            );
                            assert_eq!(
                                rho.to_bits(),
                                bits,
                                "spill run must solve to the same bits"
                            );
                        }
                    }
                    field(
                        &mut json,
                        ind,
                        &format!("{key}_build_s"),
                        format!("{t_build:.3e}"),
                        false,
                    );
                    field(
                        &mut json,
                        ind,
                        &format!("{key}_solve_s"),
                        format!("{t_solve:.3e}"),
                        false,
                    );
                    field(
                        &mut json,
                        ind,
                        &format!("{key}_resident_bytes"),
                        stats.total(),
                        false,
                    );
                    field(
                        &mut json,
                        ind,
                        &format!("{key}_spill_bytes"),
                        stats.spill_bytes,
                        false,
                    );
                    println!(
                        "ten_million 7x8 {key}: {} states build {t_build:.1}s solve {t_solve:.1}s \
                         ({} {} {} it) {} B resident / {} B spilled rho {rho:.9}",
                        qg.n_states(),
                        rep.solver.label(),
                        rep.precond.label(),
                        rep.iterations,
                        stats.total(),
                        stats.spill_bytes,
                    );
                }
                field(&mut json, ind, "bitwise_equal", true, true);
            }
        }
    }
    json.push_str("  }\n}\n");

    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(2);
    }
    println!("wrote {out_path}");
}
