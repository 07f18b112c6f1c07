//! The direct quotient construction on its own terms: the state budget,
//! refills, labelled chains and refused hints.  Its bit-for-bit
//! agreement with building the full chain and lumping it is pinned next
//! to the oracle, in `src/lump/tests.rs`, and the pins that compare its
//! markings — the `m = 1` degenerate, every thread count — are unit
//! tests in `src/marking/tests.rs`: the oracle and the recorded markings
//! are compiled into the crate's own test builds only, out of reach of
//! these integration tests.

use repstream_markov::ctmc::{Ctmc, Solver, SolverChoice};
use repstream_markov::marking::{MarkingGraph, MarkingOptions, QuotientGraph};
use repstream_markov::net::{EventNet, NetSymmetry};
use repstream_petri::shape::{ExecModel, MappingShape, ResourceTable};
use repstream_petri::tpn::Tpn;
use std::sync::Arc;

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

/// Assert two labelled chains are bitwise identical: the forward
/// targets (exact, as each row carries a label once) and the edges.
fn assert_chains_identical(a: &Ctmc, b: &Ctmc, context: &str) {
    let targets = |c: &Ctmc| c.structure().forward_targets();
    assert_eq!(targets(a), targets(b), "{context}: forward targets");
    assert_same_edges(a, b, context);
}

/// Assert two chains have the same edges, bit for bit: every column's
/// incoming (source, rate) pairs, every row's rates and the exit rates.
fn assert_same_edges(a: &Ctmc, b: &Ctmc, context: &str) {
    assert_eq!(a.n_states(), b.n_states(), "{context}: state counts");
    assert_eq!(a.nnz(), b.nnz(), "{context}: edge counts");
    let incoming = |c: &Ctmc, j| -> Vec<(usize, u64)> {
        c.incoming(j).map(|(i, r)| (i, r.to_bits())).collect()
    };
    for s in 0..a.n_states() {
        let (ra, rb) = (a.row_rates(s), b.row_rates(s));
        for (e, (x, y)) in ra.zip(rb).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{context}: rate of edge {e} in row {s}: {x} vs {y}"
            );
        }
        assert_eq!(incoming(a, s), incoming(b, s), "{context}: incoming {s}");
        assert_eq!(
            a.exit_rate(s).to_bits(),
            b.exit_rate(s).to_bits(),
            "{context}: exit {s}"
        );
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
        let (a, _) = warm.throughput_solve(&refilled, &net.rates, &last, SolverChoice::Auto);
        let b = cold.throughput_of(&net, &last);
        assert_eq!(a.to_bits(), b.to_bits(), "λ ({comp},{comm})");
    }
}

/// Rebuild `chain` the way every chain was built before edges carried
/// labels: one `f64` per edge, `edge_rate(e)` for edge `e` in forward
/// order, through [`Ctmc::from_csr`].  The forward targets are the ones
/// derived from the chain's incoming CSR and labels — exact on a marking
/// chain, whose rows carry each label once.
fn rated_csr(chain: &Ctmc, edge_rate: impl Fn(usize) -> f64) -> Ctmc {
    let targets = chain.structure().forward_targets();
    let (mut row_ptr, mut col, mut rate) = (vec![0u32], Vec::new(), Vec::new());
    for s in 0..chain.n_states() {
        for _ in chain.row_rates(s) {
            rate.push(edge_rate(col.len()));
            col.push(targets[col.len()]);
        }
        row_ptr.push(col.len() as u32);
    }
    Ctmc::from_csr(row_ptr, col, rate)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `labelled` and `rated` are one chain, bit for bit: row rates,
/// incoming rows, exit rates, Λ, the residual scale, and every solver's
/// π, residual and iteration count — GTH only where it is cheap.  The
/// forward targets are not compared: `rated` takes them from `labelled`
/// ([`rated_csr`]), and labelled by rate it cannot order a row's
/// equal-rate edges.
fn assert_same_solves(labelled: &Ctmc, rated: &Ctmc, ctx: &str) {
    assert_same_edges(labelled, rated, ctx);
    assert_eq!(
        labelled.uniformization().to_bits(),
        rated.uniformization().to_bits(),
        "{ctx}: Λ"
    );
    assert_eq!(
        labelled.max_rate().to_bits(),
        rated.max_rate().to_bits(),
        "{ctx}"
    );
    let mut choices = vec![
        SolverChoice::Auto,
        SolverChoice::Force(Solver::GaussSeidel),
        SolverChoice::Force(Solver::Power),
    ];
    if labelled.n_states() <= 600 {
        choices.push(SolverChoice::Force(Solver::Gth));
    }
    for choice in choices {
        let (a, b) = (
            labelled.stationary_solve(choice),
            rated.stationary_solve(choice),
        );
        let what = format!("{ctx}: {}", choice.label());
        assert_eq!(bits(&a.pi), bits(&b.pi), "{what}: π");
        assert_eq!(
            a.residual.to_bits(),
            b.residual.to_bits(),
            "{what}: residual"
        );
        assert_eq!(
            labelled.stationarity_residual(&b.pi).to_bits(),
            rated.stationarity_residual(&a.pi).to_bits(),
            "{what}: residual of the other's π"
        );
        assert_eq!((a.solver, a.iterations), (b.solver, b.iterations), "{what}");
    }
}

/// A chain rated by label — the graph's shared structure plus one rate
/// per transition, or per merged list of them — is the chain a rate per
/// edge gives, summed in firing order, bit for bit: the full chain of
/// het(2×3) and het(3×4), the quotients of hom(2×3) and hom(4×5), and a
/// quotient whose edges merge transitions.  A refill shares the
/// structure instead of copying it.
#[test]
fn labelled_chain_is_the_rated_csr_bitwise() {
    for teams in [vec![2usize, 3], vec![3, 4]] {
        let shape = MappingShape::new(teams.clone());
        let tpn = Tpn::build(&shape, ExecModel::Strict);
        let het = ResourceTable::from_fns(
            &shape,
            |c, s| 0.3 + 0.7 * c as f64 + 0.1 * s as f64,
            |f, a, b| 1.1 + 0.2 * f as f64 + 0.3 * (a + 2 * b) as f64,
        );
        let net = EventNet::from_tpn(&tpn, &het);
        let mg = MarkingGraph::build(&net, MarkingOptions::default()).unwrap();
        let labelled = mg.ctmc_with_trans_rates(&net.rates);
        let rated = rated_csr(&labelled, |e| net.rates[mg.edge_transitions(e)[0] as usize]);
        let ctx = format!("het {teams:?} full");
        assert_same_solves(&labelled, &rated, &ctx);
        let again = mg.ctmc_with_trans_rates(&net.rates);
        assert!(
            Arc::ptr_eq(labelled.structure(), again.structure()),
            "{ctx}"
        );
    }
    let hom = |teams: &[usize], comp, comm| {
        let (_, net, sym) = strict_net(teams, comp, comm);
        (net, sym.expect("homogeneous rates keep the rotation"))
    };
    let (_, merging, merging_sym) = three_cycles_with_rotation();
    for (ctx, (net, sym)) in [
        ("hom [2, 3] quotient", hom(&[2, 3], 0.5, 2.0)),
        ("hom [4, 5] quotient", hom(&[4, 5], 0.3, 1.7)),
        ("merging quotient", (merging, merging_sym)),
    ] {
        let qg = QuotientGraph::build(&net, &sym, MarkingOptions::default()).unwrap();
        let labelled = qg.ctmc_with_trans_rates(&net.rates);
        let rated = rated_csr(&labelled, |e| {
            qg.edge_transitions(e)
                .iter()
                .map(|&t| net.rates[t as usize])
                .sum()
        });
        assert_same_solves(&labelled, &rated, ctx);
        let again = qg.ctmc_with_trans_rates(&net.rates);
        assert!(
            Arc::ptr_eq(labelled.structure(), again.structure()),
            "{ctx}"
        );
    }
}

/// The label table's two rules.  A transition that fires on no edge may
/// carry any rate: a huge one (or zero) moves neither `max_rate` — and
/// with it the residual contract the plan accepts Gauss–Seidel by — nor
/// any solve bit.
#[test]
fn unused_label_rates_stay_out_of_the_chain() {
    let (_, net, sym) = strict_net(&[4, 5], 0.5, 2.0);
    let qg = QuotientGraph::build(&net, &sym.unwrap(), MarkingOptions::default()).unwrap();
    let reference = qg.ctmc_with_trans_rates(&net.rates);
    let fired: std::collections::HashSet<u32> = (0..reference.nnz())
        .flat_map(|e| qg.edge_transitions(e).iter().copied())
        .collect();
    let idle = (0..net.n_transitions())
        .find(|&t| !fired.contains(&(t as u32)))
        .expect("some transition labels no quotient edge");
    let want = reference.stationary_solve(SolverChoice::Auto);
    for huge in [1e300, 0.0] {
        let mut rates = net.rates.clone();
        rates[idle] = huge;
        let chain = qg.ctmc_with_trans_rates(&rates);
        assert_eq!(
            chain.max_rate().to_bits(),
            reference.max_rate().to_bits(),
            "{huge}"
        );
        let got = chain.stationary_solve(SolverChoice::Auto);
        assert_eq!(bits(&got.pi), bits(&want.pi), "{huge}");
        assert_eq!(got.residual.to_bits(), want.residual.to_bits(), "{huge}");
        assert_eq!((got.solver, got.iterations), (want.solver, want.iterations));
    }
}

/// …and a transition that does fire must still be rated positive.
#[test]
#[should_panic(expected = "rates must be positive")]
fn non_positive_rate_on_a_used_label_panics() {
    let (_, net, sym) = strict_net(&[2, 3], 0.5, 2.0);
    let qg = QuotientGraph::build(&net, &sym.unwrap(), MarkingOptions::default()).unwrap();
    let mut rates = net.rates.clone();
    rates[qg.edge_transitions(0)[0] as usize] = 0.0;
    qg.ctmc_with_trans_rates(&rates);
}

/// Three copies of a two-transition cycle (`a_k ⇄ b_k`, one token each),
/// rotated copy `k → k + 1` by the symmetry.  From `XXX` the three `b`s
/// all reach the one-moved orbit, from its representative two of them
/// reach the two-moved orbit, and so on: unlike the benchmark's TPN
/// shapes, nearly every edge of its quotient merges several
/// transitions.
fn three_cycles_with_rotation() -> (Vec<usize>, EventNet, NetSymmetry) {
    let rates = [0.1, 0.7].repeat(3);
    let places = (0..3)
        .flat_map(|k| [(2 * k, 2 * k + 1, 1), (2 * k + 1, 2 * k, 0)])
        .collect();
    let next = |x: usize| (x + 2) % 6;
    let sym = NetSymmetry {
        trans_perm: (0..6).map(next).collect(),
        place_perm: (0..6).map(next).collect(),
    };
    let net = EventNet::new(rates, places);
    assert!(net.symmetry_valid(&sym));
    // The `a` transitions: their summed rate is rotation-closed.
    (vec![0, 2, 4], net, sym)
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
