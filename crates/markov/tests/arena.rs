//! The chunk-parallel BFS is scheduling-only: for every thread count,
//! the full marking graph and the Theorem 2 quotient must be bitwise
//! identical to the sequential reference — same states in the same BFS
//! order, same representative markings, same enabled sets, and the same
//! chain bits both at build time and through a `ctmc_with_trans_rates`
//! refill.

use repstream_markov::marking::{Graph, MarkingGraph, MarkingOptions, QuotientGraph};
use repstream_markov::net::EventNet;
use repstream_petri::shape::{ExecModel, MappingShape, ResourceTable};
use repstream_petri::tpn::Tpn;

fn opts(threads: usize) -> MarkingOptions {
    MarkingOptions {
        max_states: 1 << 22,
        capacity: None,
        threads,
        ..Default::default()
    }
}

fn net_for(teams: &[usize]) -> (EventNet, repstream_markov::net::NetSymmetry) {
    let shape = MappingShape::new(teams.to_vec());
    let tpn = Tpn::build(&shape, ExecModel::Strict);
    let rates = ResourceTable::from_fns(&shape, |_, _| 0.5, |_, _, _| 2.0);
    let (net, sym) = EventNet::from_tpn_with_symmetry(&tpn, &rates);
    (net, sym.expect("homogeneous table keeps the row rotation"))
}

fn assert_rows_bitwise(
    a: &repstream_markov::ctmc::Ctmc,
    b: &repstream_markov::ctmc::Ctmc,
    what: &str,
) {
    assert_eq!(a.n_states(), b.n_states(), "{what}: state count");
    assert_eq!(
        a.structure().forward_targets(),
        b.structure().forward_targets(),
        "{what}: forward targets"
    );
    let incoming = |c: &repstream_markov::ctmc::Ctmc, j| -> Vec<(usize, u64)> {
        c.incoming(j).map(|(i, r)| (i, r.to_bits())).collect()
    };
    for s in 0..a.n_states() {
        assert_eq!(incoming(a, s), incoming(b, s), "{what}: incoming of {s}");
        for (x, y) in a.row_rates(s).zip(b.row_rates(s)) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: rate bits of {s}");
        }
        let exit = (a.exit_rate(s).to_bits(), b.exit_rate(s).to_bits());
        assert_eq!(exit.0, exit.1, "{what}: exit of {s}");
    }
}

/// `g` against the sequential `reference`, either graph kind: states,
/// full-chain states, markings, enabled sets, and the chain bits at the
/// net's rates and through a refill with fresh ones.
fn assert_graphs_bitwise<K>(g: &Graph<K>, reference: &Graph<K>, net: &EventNet, what: &str) {
    assert_eq!(g.n_states(), reference.n_states(), "{what}");
    assert_eq!(g.full_states(), reference.full_states(), "{what}");
    let (mut buf_a, mut buf_b) = (Vec::new(), Vec::new());
    for s in 0..reference.n_states() {
        assert_eq!(
            g.states.read_into(s, &mut buf_a),
            reference.states.read_into(s, &mut buf_b),
            "{what}: marking {s}"
        );
        assert_eq!(g.enabled(s), reference.enabled(s), "{what}: enabled {s}");
    }
    assert_rows_bitwise(
        &g.ctmc_with_trans_rates(&net.rates),
        &reference.ctmc_with_trans_rates(&net.rates),
        what,
    );
    // A refill with fresh per-transition rates must also match.
    let doubled: Vec<f64> = net.rates.iter().map(|r| r * 2.0).collect();
    assert_rows_bitwise(
        &g.ctmc_with_trans_rates(&doubled),
        &reference.ctmc_with_trans_rates(&doubled),
        &format!("{what} (refill)"),
    );
}

/// Quotient builds on {1, 2, 4} threads against the sequential reference.
#[test]
fn quotient_matrix_is_bitwise_deterministic() {
    let (net, sym) = net_for(&[3, 4]);
    let reference = QuotientGraph::build(&net, &sym, opts(1)).unwrap();
    for threads in [1usize, 2, 4] {
        let what = format!("threads {threads}");
        let qg = QuotientGraph::build(&net, &sym, opts(threads)).unwrap();
        assert_graphs_bitwise(&qg, &reference, &net, &what);
        assert_eq!(qg.orbit_sizes(), reference.orbit_sizes(), "{what}");
    }
}

/// The plain (non-lumped) marking graph across the same thread counts.
#[test]
fn full_graph_matrix_is_bitwise_deterministic() {
    let (net, _) = net_for(&[3, 4]);
    let reference = MarkingGraph::build(&net, opts(1)).unwrap();
    for threads in [1usize, 2, 4] {
        let what = format!("threads {threads}");
        let mg = MarkingGraph::build(&net, opts(threads)).unwrap();
        assert_graphs_bitwise(&mg, &reference, &net, &what);
    }
}
