//! Direct quotient construction vs full-then-lump: the canonical-marking
//! BFS must produce **the identical chain** — state for state, edge for
//! edge, rate for rate, bit for bit — that building the full Theorem 2
//! chain and lumping it through `orbit_partition` + `Ctmc::quotient`
//! produces, while never materializing the full graph.

use repstream_markov::marking::{MarkingGraph, MarkingOptions, QuotientGraph};
use repstream_markov::net::{EventNet, NetSymmetry};
use repstream_petri::shape::{ExecModel, MappingShape, ResourceTable};
use repstream_petri::tpn::Tpn;

fn homogeneous(shape: &MappingShape, comp: f64, comm: f64) -> ResourceTable<f64> {
    ResourceTable::from_fns(shape, |_, _| comp, |_, _, _| comm)
}

fn strict_net(teams: &[usize], comp: f64, comm: f64) -> (Tpn, EventNet, Option<NetSymmetry>) {
    let shape = MappingShape::new(teams.to_vec());
    let tpn = Tpn::build(&shape, ExecModel::Strict);
    let rates = homogeneous(&shape, comp, comm);
    let (net, sym) = EventNet::from_tpn_with_symmetry(&tpn, &rates);
    (tpn, net, sym)
}

/// Assert two chains are bitwise identical (structure and rates).
fn assert_chains_identical(a: &repstream_markov::Ctmc, b: &repstream_markov::Ctmc, context: &str) {
    assert_eq!(a.n_states(), b.n_states(), "{context}: state counts");
    assert_eq!(a.nnz(), b.nnz(), "{context}: edge counts");
    for s in 0..a.n_states() {
        assert_eq!(a.row_targets(s), b.row_targets(s), "{context}: row {s}");
        let (ra, rb) = (a.row_rates(s), b.row_rates(s));
        for (e, (x, y)) in ra.iter().zip(rb.iter()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{context}: rate of edge {e} in row {s}: {x} vs {y}"
            );
        }
    }
}

/// The tentpole contract: on homogeneous Strict TPNs the direct quotient
/// is state-for-state and rate-for-rate identical to full-then-lump.
#[test]
fn direct_quotient_equals_full_then_lump_bitwise() {
    for teams in [
        vec![2usize, 2],
        vec![2, 3],
        vec![3, 4],
        vec![2, 3, 4],
        vec![1, 2, 3, 1],
        vec![2, 4],
    ] {
        let (_, net, sym) = strict_net(&teams, 0.5, 2.0);
        let sym = sym.expect("homogeneous rates keep the rotation");
        let opts = MarkingOptions::default();

        // Full-then-lump: full BFS, orbit propagation, quotient.
        let mg = MarkingGraph::build(&net, opts).expect("Strict TPN is safe");
        let seed = mg.orbit_partition(&sym).expect("orbit seed applies");
        let (lumped, lift) = mg.ctmc_with_trans_rates(&net.rates).quotient(&seed);

        // Direct: canonical-marking BFS, no full graph.
        let qg = QuotientGraph::build(&net, &sym, opts).expect("same net");

        let ctx = format!("teams {teams:?}");
        assert_chains_identical(&qg.ctmc_with_trans_rates(&net.rates), &lumped, &ctx);

        // Orbit bookkeeping matches the full partition's block sizes, and
        // every stored representative is the block's first full state.
        assert_eq!(qg.full_states(), mg.n_states(), "{ctx}");
        for b in 0..qg.n_states() {
            assert_eq!(qg.orbit_sizes()[b] as usize, lift.block_size(b), "{ctx}");
            let first = (0..mg.n_states())
                .find(|&s| seed.block_of(s) == b)
                .expect("non-empty block");
            assert_eq!(
                qg.reps.get(b),
                mg.states.get(first),
                "{ctx}: representative of block {b}"
            );
            assert_eq!(qg.enabled(b), mg.enabled(first), "{ctx}: enabled of {b}");
        }
    }
}

/// The lifted stationary vector of the direct quotient agrees with the
/// full-chain solve to 1e-12, and the throughput (an orbit-closed
/// transition-set sum) matches exactly as tightly.
#[test]
fn direct_quotient_stationary_agrees_with_full_solve() {
    for teams in [vec![2usize, 3], vec![3, 4], vec![2, 3, 4]] {
        let (tpn, net, sym) = strict_net(&teams, 0.5, 2.0);
        let sym = sym.expect("homogeneous rates keep the rotation");
        let opts = MarkingOptions::default();

        let mg = MarkingGraph::build(&net, opts).unwrap();
        let pi_full = mg.ctmc_with_trans_rates(&net.rates).stationary();

        let qg = QuotientGraph::build(&net, &sym, opts).unwrap();
        let pi_q = qg.ctmc_with_trans_rates(&net.rates).stationary();

        // Per-state agreement through the full partition's lift.
        let seed = mg.orbit_partition(&sym).unwrap();
        let (_, lift) = mg.ctmc_with_trans_rates(&net.rates).quotient(&seed);
        let lifted = lift.lift(&pi_q);
        for (s, (&a, &b)) in lifted.iter().zip(pi_full.iter()).enumerate() {
            assert!(
                (a - b).abs() < 1e-12,
                "teams {teams:?} state {s}: lifted {a} vs full {b}"
            );
        }

        // Throughput over the last column.
        let last = tpn.last_column();
        let direct = qg.throughput_of(&net, &last);
        let full = mg.throughput_of(&net, &last);
        assert!(
            (direct - full).abs() <= 1e-12 * full,
            "teams {teams:?}: direct {direct} vs full {full}"
        );

        // The size-only lift of the direct path carries the same
        // bookkeeping as the full one.
        let ql = qg.lift();
        assert!(!ql.has_state_map());
        assert_eq!(ql.n_states(), lift.n_states());
        assert_eq!(ql.n_blocks(), lift.n_blocks());
        for b in 0..ql.n_blocks() {
            assert_eq!(ql.block_size(b), lift.block_size(b));
            assert_eq!(
                ql.member_probability(&pi_q, b).to_bits(),
                lift.member_probability(&pi_q, b).to_bits()
            );
        }
    }
}

/// `m = 1` (no replication): the rotation is the identity, every orbit is
/// a singleton, and the quotient BFS degenerates to the plain marking BFS
/// bit for bit.
#[test]
fn m1_degenerates_to_the_plain_bfs_bitwise() {
    let (_, net, sym) = strict_net(&[1, 1, 1], 0.5, 2.0);
    let sym = sym.expect("identity rotation is always valid");
    let opts = MarkingOptions::default();
    let mg = MarkingGraph::build(&net, opts).unwrap();
    let qg = QuotientGraph::build(&net, &sym, opts).unwrap();
    assert_chains_identical(
        &qg.ctmc_with_trans_rates(&net.rates),
        &mg.ctmc_with_trans_rates(&net.rates),
        "teams [1,1,1]",
    );
    assert_eq!(qg.full_states(), mg.n_states());
    assert!(qg.orbit_sizes().iter().all(|&k| k == 1));
    for s in 0..mg.n_states() {
        assert_eq!(qg.reps.get(s), mg.states.get(s), "state {s}");
        assert_eq!(qg.enabled(s), mg.enabled(s), "state {s}");
    }
}

/// The peak interned-state count of the direct build is `full / m`: the
/// state budget only has to cover the representatives, so shapes whose
/// full chain busts the budget still complete.
#[test]
fn budget_covers_representatives_not_the_full_chain() {
    let teams = vec![3usize, 4];
    let (tpn, net, sym) = strict_net(&teams, 0.5, 2.0);
    let sym = sym.expect("homogeneous rates keep the rotation");
    let m = tpn.rows();
    let full = MarkingGraph::build(&net, MarkingOptions::default()).unwrap();
    let quotient_states = full.n_states() / m;

    // A budget below the full count but above the orbit count: the full
    // BFS fails, the direct quotient completes.
    let tight = MarkingOptions {
        max_states: quotient_states + 1,
        capacity: None,
        ..Default::default()
    };
    assert!(MarkingGraph::build(&net, tight).is_err());
    let qg = QuotientGraph::build(&net, &sym, tight).unwrap();
    assert_eq!(
        qg.n_states(),
        quotient_states,
        "reduction is exactly m-fold"
    );

    // One fewer representative and the direct build fails too.
    let too_tight = MarkingOptions {
        max_states: quotient_states - 1,
        capacity: None,
        ..Default::default()
    };
    assert!(QuotientGraph::build(&net, &sym, too_tight).is_err());
}

/// Refilled quotient chains are bitwise identical to cold builds with the
/// same (orbit-invariant) rate table.
#[test]
fn quotient_refill_is_bitwise_cold() {
    let shape = MappingShape::new(vec![2, 3]);
    let tpn = Tpn::build(&shape, ExecModel::Strict);
    let opts = MarkingOptions::default();
    let warm = {
        let rates = homogeneous(&shape, 0.5, 2.0);
        let (net, sym) = EventNet::from_tpn_with_symmetry(&tpn, &rates);
        QuotientGraph::build(&net, &sym.unwrap(), opts).unwrap()
    };
    for (comp, comm) in [(0.25, 1.0), (2.0, 0.125), (1.0, 1.0)] {
        let rates = homogeneous(&shape, comp, comm);
        let (net, sym) = EventNet::from_tpn_with_symmetry(&tpn, &rates);
        let cold = QuotientGraph::build(&net, &sym.unwrap(), opts).unwrap();
        let refilled = warm.ctmc_with_trans_rates(&net.rates);
        assert_chains_identical(
            &refilled,
            &cold.ctmc_with_trans_rates(&net.rates),
            &format!("λ ({comp},{comm})"),
        );
        let last = tpn.last_column();
        let a = warm.throughput_with(&refilled, &net.rates, &last);
        let b = cold.throughput_of(&net, &last);
        assert_eq!(a.to_bits(), b.to_bits(), "λ ({comp},{comm})");
    }
}

/// The chunk-parallel frontier BFS of the quotient build is **bitwise
/// identical** to the sequential scan for every thread count: chain
/// (targets and rate bits), representatives, enabled sets, orbit sizes,
/// the edge→transitions refill map, and the solved throughput.
#[test]
fn parallel_quotient_build_is_bitwise_sequential() {
    for teams in [vec![2usize, 3], vec![3, 4], vec![2, 3, 4]] {
        let (tpn, net, sym) = strict_net(&teams, 0.5, 2.0);
        let sym = sym.expect("homogeneous rates keep the rotation");
        let seq = QuotientGraph::build(
            &net,
            &sym,
            MarkingOptions {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let last = tpn.last_column();
        for threads in [2usize, 4, 8] {
            let par = QuotientGraph::build(
                &net,
                &sym,
                MarkingOptions {
                    threads,
                    ..Default::default()
                },
            )
            .unwrap();
            let ctx = format!("teams {teams:?} threads {threads}");
            assert_chains_identical(
                &par.ctmc_with_trans_rates(&net.rates),
                &seq.ctmc_with_trans_rates(&net.rates),
                &ctx,
            );
            assert_eq!(par.orbit_sizes(), seq.orbit_sizes(), "{ctx}");
            assert_eq!(par.full_states(), seq.full_states(), "{ctx}");
            for s in 0..seq.n_states() {
                assert_eq!(par.reps.get(s), seq.reps.get(s), "{ctx}: rep {s}");
                assert_eq!(par.enabled(s), seq.enabled(s), "{ctx}: enabled {s}");
            }
            // The edge→transitions refill maps coincide: re-rating both
            // graphs from a scaled table gives identical chains.
            let doubled: Vec<f64> = net.rates.iter().map(|r| r * 2.0).collect();
            assert_chains_identical(
                &par.ctmc_with_trans_rates(&doubled),
                &seq.ctmc_with_trans_rates(&doubled),
                &format!("{ctx} (refilled)"),
            );
            assert_eq!(
                par.throughput_of(&net, &last).to_bits(),
                seq.throughput_of(&net, &last).to_bits(),
                "{ctx}"
            );
        }
    }
}

/// The same contract for the plain marking BFS (the `m = 1` degenerate of
/// the quotient): states, enabled sets and chain agree bit for bit at
/// every thread count, and budget errors fire identically.
#[test]
fn parallel_plain_bfs_is_bitwise_sequential() {
    for teams in [vec![2usize, 3], vec![1, 2, 2]] {
        let (_, net, _) = strict_net(&teams, 0.5, 2.0);
        let seq = MarkingGraph::build(
            &net,
            MarkingOptions {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        for threads in [2usize, 4, 8] {
            let par = MarkingGraph::build(
                &net,
                MarkingOptions {
                    threads,
                    ..Default::default()
                },
            )
            .unwrap();
            let ctx = format!("teams {teams:?} threads {threads}");
            assert_chains_identical(
                &par.ctmc_with_trans_rates(&net.rates),
                &seq.ctmc_with_trans_rates(&net.rates),
                &ctx,
            );
            assert_eq!(par.n_states(), seq.n_states(), "{ctx}");
            for s in 0..seq.n_states() {
                assert_eq!(par.states.get(s), seq.states.get(s), "{ctx}: state {s}");
                assert_eq!(par.enabled(s), seq.enabled(s), "{ctx}: enabled {s}");
            }
            // A budget below the reachable count errors identically.
            let tight = MarkingOptions {
                max_states: seq.n_states() - 1,
                threads,
                ..Default::default()
            };
            let err = MarkingGraph::build(&net, tight).unwrap_err();
            assert_eq!(
                err,
                repstream_markov::marking::MarkingError::TooManyStates(seq.n_states() - 1),
                "{ctx}"
            );
        }
    }
}

/// Heterogeneous rate tables refuse the symmetry (no `NetSymmetry` is
/// produced), and handing a bogus hint to the direct builder panics
/// rather than silently conflating non-exchangeable markings.
#[test]
fn heterogeneous_platforms_refuse_canonicalization() {
    let shape = MappingShape::new(vec![2, 3]);
    let tpn = Tpn::build(&shape, ExecModel::Strict);
    let het = ResourceTable::from_fns(&shape, |_, s| 0.5 + s as f64, |_, _, _| 2.0);
    let (_, sym) = EventNet::from_tpn_with_symmetry(&tpn, &het);
    assert!(sym.is_none(), "heterogeneous table must refuse the hint");

    // Forcing the structural rotation against heterogeneous rates is a
    // contract violation the builder rejects loudly.
    let hom = homogeneous(&shape, 0.5, 2.0);
    let (_, hom_sym) = EventNet::from_tpn_with_symmetry(&tpn, &hom);
    let hom_sym = hom_sym.unwrap();
    let het_net = EventNet::from_tpn(&tpn, &het);
    let result = std::panic::catch_unwind(|| {
        QuotientGraph::build(&het_net, &hom_sym, MarkingOptions::default())
    });
    assert!(result.is_err(), "bogus hint must panic");
}
