//! The sharded interner and the arena spill region are storage-only:
//! for every shard count, spill mode, and thread count, the Theorem 2
//! quotient and the full marking graph must be bitwise identical to the
//! sequential single-shard resident reference — same states in the same
//! BFS order, same representative bytes, same orbit sizes, same enabled
//! sets, and the same chain bits through a rate refill.

use repstream_markov::ctmc::Ctmc;
use repstream_markov::marking::{Graph, MarkingGraph, MarkingOptions, QuotientGraph};
use repstream_markov::net::EventNet;
use repstream_petri::shape::{ExecModel, MappingShape, ResourceTable};
use repstream_petri::tpn::Tpn;

/// A spill limit tiny enough that every build parks payload bytes on
/// disk almost immediately — the point is to exercise the file path, not
/// to model a realistic budget.
const TINY_SPILL: usize = 256;

fn opts(threads: usize, shards: usize, spill: bool) -> MarkingOptions {
    MarkingOptions {
        max_states: 1 << 22,
        capacity: None,
        threads,
        interner_shards: shards,
        interner_spill: spill,
        spill_limit: if spill { TINY_SPILL } else { 0 },
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

/// `a` against the reference `b`, either graph kind: states, full-chain
/// states, markings, enabled sets and the chain bits.
fn assert_graphs_bitwise<K>(a: &Graph<K>, b: &Graph<K>, net: &EventNet, what: &str) {
    assert_eq!(a.n_states(), b.n_states(), "{what}: state count");
    assert_eq!(a.full_states(), b.full_states(), "{what}: full states");
    let (mut buf_a, mut buf_b) = (Vec::new(), Vec::new());
    for s in 0..b.n_states() {
        assert_eq!(
            a.states.read_into(s, &mut buf_a),
            b.states.read_into(s, &mut buf_b),
            "{what}: marking {s}"
        );
        assert_eq!(a.enabled(s), b.enabled(s), "{what}: enabled {s}");
    }
    let (a_ctmc, b_ctmc) = (
        a.ctmc_with_trans_rates(&net.rates),
        b.ctmc_with_trans_rates(&net.rates),
    );
    assert_eq!(a_ctmc.n_states(), b_ctmc.n_states(), "{what}: ctmc states");
    assert_eq!(
        a_ctmc.structure().forward_targets(),
        b_ctmc.structure().forward_targets(),
        "{what}: forward targets"
    );
    let incoming = |c: &Ctmc, j| -> Vec<(usize, u64)> {
        c.incoming(j).map(|(i, r)| (i, r.to_bits())).collect()
    };
    for s in 0..b_ctmc.n_states() {
        assert_eq!(
            incoming(&a_ctmc, s),
            incoming(&b_ctmc, s),
            "{what}: incoming of {s}"
        );
        for (x, y) in a_ctmc.row_rates(s).zip(b_ctmc.row_rates(s)) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: rate bits of {s}");
        }
        let exit = (a_ctmc.exit_rate(s).to_bits(), b_ctmc.exit_rate(s).to_bits());
        assert_eq!(exit.0, exit.1, "{what}: exit of {s}");
    }
}

/// The full shards × spill × threads matrix on the 4×5 quotient against
/// the sequential single-shard resident reference.
#[test]
fn quotient_shard_spill_matrix_4x5_is_bitwise_identical() {
    let (net, sym) = net_for(&[4, 5]);
    let reference = QuotientGraph::build(&net, &sym, opts(1, 1, false)).unwrap();
    for shards in [1usize, 4, 16] {
        for spill in [false, true] {
            for threads in [1usize, 2, 4] {
                let what = format!("shards {shards} spill {spill} threads {threads}");
                let qg = QuotientGraph::build(&net, &sym, opts(threads, shards, spill)).unwrap();
                if spill {
                    assert!(
                        qg.arena_stats().spill_bytes > 0,
                        "{what}: a {TINY_SPILL}-byte limit must actually spill"
                    );
                }
                assert_graphs_bitwise(&qg, &reference, &net, &what);
                assert_eq!(qg.orbit_sizes(), reference.orbit_sizes(), "{what}");
                let doubled: Vec<f64> = net.rates.iter().map(|r| r * 2.0).collect();
                let (ra, rb) = (
                    qg.ctmc_with_trans_rates(&doubled),
                    reference.ctmc_with_trans_rates(&doubled),
                );
                for s in 0..rb.n_states() {
                    for (x, y) in ra.row_rates(s).zip(rb.row_rates(s)) {
                        assert_eq!(x.to_bits(), y.to_bits(), "{what} (refill): rate bits");
                    }
                }
            }
        }
    }
}

/// A reduced sweep on the larger 5×6 quotient (debug builds are slow;
/// the release CI smoke covers the heavy matrix): max shards, spill on
/// and off, sequential and 2-thread BFS.
#[test]
fn quotient_shard_spill_5x6_is_bitwise_identical() {
    let (net, sym) = net_for(&[5, 6]);
    let reference = QuotientGraph::build(&net, &sym, opts(1, 1, false)).unwrap();
    for (threads, spill) in [(1usize, true), (2, false), (2, true)] {
        let what = format!("5x6 shards 16 spill {spill} threads {threads}");
        let qg = QuotientGraph::build(&net, &sym, opts(threads, 16, spill)).unwrap();
        if spill {
            assert!(qg.arena_stats().spill_bytes > 0, "{what}: must spill");
        }
        assert_graphs_bitwise(&qg, &reference, &net, &what);
        assert_eq!(qg.orbit_sizes(), reference.orbit_sizes(), "{what}");
    }
}

/// The plain (non-lumped) marking graph across the same knobs on 4×5.
#[test]
fn full_graph_shard_spill_is_bitwise_identical() {
    let (net, _) = net_for(&[4, 5]);
    let reference = MarkingGraph::build(&net, opts(1, 1, false)).unwrap();
    for shards in [4usize, 16] {
        for spill in [false, true] {
            for threads in [1usize, 4] {
                let what = format!("full shards {shards} spill {spill} threads {threads}");
                let mg = MarkingGraph::build(&net, opts(threads, shards, spill)).unwrap();
                if spill {
                    assert!(mg.arena_stats().spill_bytes > 0, "{what}: must spill");
                }
                assert_graphs_bitwise(&mg, &reference, &net, &what);
            }
        }
    }
}
