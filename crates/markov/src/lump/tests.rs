//! The full-then-lump oracle against its definition and against the
//! direct quotient.
//!
//! An orbit seed's quotient chain, solved and lifted back uniformly, must
//! match the full GTH stationary vector to 1e-8 — on random replicated
//! chains, on the boundary shapes (`m = 1`, single-state chains) and on
//! the symmetric marking graphs of homogeneous TPNs and patterns — and
//! the canonical-marking BFS of [`QuotientGraph`] must produce **the
//! identical chain** — state for state, edge for edge, rate for rate, bit
//! for bit — that building the full Theorem 2 chain and lumping it
//! through `orbit_partition` + [`Ctmc::quotient`] produces.

use super::*;
use crate::marking::{MarkingGraph, MarkingOptions, QuotientGraph};
use crate::net::{comm_pattern, EventNet, NetSymmetry};
use proptest::prelude::*;
use repstream_petri::shape::{ExecModel, MappingShape, ResourceTable};
use repstream_petri::tpn::Tpn;

/// Two mirrored copies of a 2-state gadget glued through a hub: the
/// mirror symmetry is an automorphism, so the orbit seed lumps it.
fn mirrored_chain() -> Ctmc {
    // states: 0 hub; (1,2) left pair; (3,4) right pair (mirror of left)
    Ctmc::new(vec![
        vec![(1, 2.0), (3, 2.0)],
        vec![(2, 1.0)],
        vec![(0, 3.0)],
        vec![(4, 1.0)],
        vec![(0, 3.0)],
    ])
}

#[test]
fn partition_constructors() {
    // Orbits of the permutation (0 1)(2)(3 4): cycles become blocks,
    // numbered in order of first appearance.
    let o = Partition::from_permutation_orbits(&[1, 0, 2, 4, 3]);
    assert_eq!(o.n_states(), 5);
    assert_eq!(o.n_blocks(), 3);
    assert_eq!(o.block_of(3), o.block_of(4));
    assert_ne!(o.block_of(0), o.block_of(2));
    assert_eq!(o.blocks(), vec![vec![0, 1], vec![2], vec![3, 4]]);
    assert!(!o.is_discrete());
    assert!(Partition::from_permutation_orbits(&[0, 1, 2]).is_discrete());
}

#[test]
#[should_panic(expected = "not a permutation")]
fn non_permutation_rejected() {
    Partition::from_permutation_orbits(&[0, 0, 1]);
}

#[test]
fn mirror_symmetry_lumps() {
    let c = mirrored_chain();
    // Orbit seed of the mirror automorphism 0↔0, 1↔3, 2↔4.
    let seed = Partition::from_permutation_orbits(&[0, 3, 4, 1, 2]);
    assert!(is_ordinarily_lumpable(&c, &seed, 1e-12));
    assert_eq!(seed.n_blocks(), 3, "{seed:?}");

    let (q, lift) = c.quotient(&seed);
    assert_eq!(q.n_states(), 3);
    assert_eq!(lift.n_states(), 5);
    let pi = lift.lift(&q.stationary_gth());
    let full = c.stationary_gth();
    for (s, (&a, &b)) in pi.iter().zip(full.iter()).enumerate() {
        assert!((a - b).abs() < 1e-12, "state {s}: {a} vs {b}");
    }
}

#[test]
fn uniform_ring_lumps_to_one_state() {
    // The rotation automorphism of a uniform ring has a single orbit,
    // so the orbit seed is one block and the quotient is one state.
    let n = 12;
    let rows: Vec<Vec<(usize, f64)>> = (0..n).map(|i| vec![((i + 1) % n, 2.5)]).collect();
    let c = Ctmc::new(rows);
    let rot: Vec<u32> = (0..n as u32).map(|i| (i + 1) % n as u32).collect();
    let seed = Partition::from_permutation_orbits(&rot);
    assert_eq!(seed.n_blocks(), 1);
    let (q, lift) = c.quotient(&seed);
    assert_eq!(q.n_states(), 1);
    for &p in &lift.lift(&q.stationary()) {
        assert!((p - 1.0 / n as f64).abs() < 1e-15);
    }
}

#[test]
fn single_state_chain() {
    let c = Ctmc::new(vec![Vec::new()]);
    // One state is its own orbit: the seed is discrete and the
    // quotient is the chain itself.
    let p = Partition::from_permutation_orbits(&[0]);
    assert!(p.is_discrete());
    let (q, lift) = c.quotient(&p);
    assert_eq!(q.n_states(), 1);
    assert_eq!(lift.lift(&[1.0]), vec![1.0]);
}

/// A random irreducible CTMC (same construction as the cross-solver
/// harness in `solvers.rs`): a ring for strong connectivity plus random
/// chords with rates in `[0.05, 1.05]`.
fn random_irreducible(n: usize, extra: usize, seed: u64) -> Ctmc {
    let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for (i, row) in rows.iter_mut().enumerate() {
        let rate = |v: u64| (v >> 11) as f64 / (1u64 << 53) as f64 + 0.05;
        row.push(((i + 1) % n, rate(next())));
        for _ in 0..extra {
            let j = (next() as usize) % n;
            if j != i {
                row.push((j, rate(next())));
            }
        }
    }
    Ctmc::new(rows)
}

/// `k` disjoint copies of a random chain, weakly coupled through state 0
/// of each copy in a ring of copies: the copy-rotation is an exact
/// automorphism, so its orbits lump the chain `k`-fold.
fn replicated_chain(copy_states: usize, copies: usize, seed: u64) -> (Ctmc, Vec<u32>) {
    let base = random_irreducible(copy_states, 2, seed);
    let base_rows = forward_rows(&base);
    let n = copy_states * copies;
    let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for c in 0..copies {
        let off = c * copy_states;
        for s in 0..copy_states {
            for &(j, r) in &base_rows[s] {
                rows[off + s].push((off + j, r));
            }
        }
        // Couple copy c to copy c+1 through their local state 0.
        rows[off].push((((c + 1) % copies) * copy_states, 0.75));
    }
    // Copy-rotation permutation on states.
    let perm: Vec<u32> = (0..n)
        .map(|s| {
            let (c, l) = (s / copy_states, s % copy_states);
            (((c + 1) % copies) * copy_states + l) as u32
        })
        .collect();
    (Ctmc::new(rows), perm)
}

/// Solve the quotient of `c` by the orbit seed `seed` and lift the
/// result back to the full states (uniform within each orbit).
fn lumped_stationary(c: &Ctmc, seed: &Partition) -> (Vec<f64>, usize) {
    let (q, lift) = c.quotient(seed);
    (lift.lift(&q.stationary()), q.n_states())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Orbit-seeded lumping of a replicated chain: the orbit seed is
    /// ordinarily lumpable, the quotient is `copies`-fold smaller, and the
    /// lifted stationary vector matches the full GTH solution to 1e-8.
    #[test]
    fn lumped_matches_full_on_replicated_chains(
        copy_states in 3usize..20,
        copies in 2usize..5,
        seed in 0u64..1_000_000,
    ) {
        let (c, perm) = replicated_chain(copy_states, copies, seed);
        let seed_part = Partition::from_permutation_orbits(&perm);
        prop_assert!(is_ordinarily_lumpable(&c, &seed_part, 1e-9));
        let (pi, lumped_states) = lumped_stationary(&c, &seed_part);
        prop_assert_eq!(pi.len(), c.n_states());
        prop_assert_eq!(lumped_states, copy_states);
        let full = c.stationary_gth();
        for (s, (&a, &b)) in pi.iter().zip(full.iter()).enumerate() {
            prop_assert!(
                (a - b).abs() < 1e-8,
                "state {}: lumped {} vs full {}", s, a, b
            );
        }
    }
}

/// Rotation symmetry of the homogeneous `u × v` pattern chain: transition
/// `k ↦ k + 1 (mod uv)` with the matching place shift.
fn pattern_rotation(u: usize, v: usize) -> NetSymmetry {
    let n = u * v;
    let trans_perm: Vec<usize> = (0..n).map(|k| (k + 1) % n).collect();
    // Places 0..n are the sender cycles (k → k+u), n..2n the receiver
    // cycles (k → k+v); both families shift with the rows.
    let mut place_perm: Vec<usize> = (0..n).map(|k| (k + 1) % n).collect();
    place_perm.extend((0..n).map(|k| n + (k + 1) % n));
    NetSymmetry {
        trans_perm,
        place_perm,
    }
}

#[test]
fn homogeneous_pattern_chain_lumps() {
    for (u, v) in [(2, 3), (3, 4), (3, 5)] {
        let net = comm_pattern(u, v, |_, _| 0.7);
        let sym = pattern_rotation(u, v);
        assert!(net.symmetry_valid(&sym), "{u}x{v}: symmetry refused");
        let mg = MarkingGraph::build(&net, MarkingOptions::default()).unwrap();
        let seed = mg
            .orbit_partition(&sym)
            .expect("rotated markings stay reachable");
        let c = mg.ctmc_with_trans_rates(&net.rates);
        let (pi, lumped_states) = lumped_stationary(&c, &seed);
        assert!(
            lumped_states < c.n_states(),
            "{u}x{v}: no reduction ({lumped_states} vs {})",
            c.n_states()
        );
        let full = c.stationary_gth();
        for (s, (&a, &b)) in pi.iter().zip(full.iter()).enumerate() {
            assert!((a - b).abs() < 1e-8, "{u}x{v} state {s}: {a} vs {b}");
        }
        // Throughput through the lifted vector matches the full chain.
        let all: Vec<usize> = (0..net.n_transitions()).collect();
        let lumped_rho: f64 = {
            let rates = mg.firing_rates_with(&net.rates, &pi);
            all.iter().map(|&t| rates[t]).sum()
        };
        let full_rho = mg.throughput_of(&net, &all);
        assert!((lumped_rho - full_rho).abs() < 1e-8 * full_rho.max(1.0));
    }
}

#[test]
fn heterogeneous_pattern_symmetry_refused() {
    // One slow link breaks the rate invariance: `symmetry_valid` must
    // refuse the structural rotation.
    let net = comm_pattern(2, 3, |a, b| if (a, b) == (0, 1) { 0.2 } else { 0.7 });
    let sym = pattern_rotation(2, 3);
    assert!(!net.symmetry_valid(&sym));
}

/// Homogeneous Strict TPN with `m = lcm(R_i) ≥ 12`: the acceptance-shape
/// case.  The lumped chain must be measurably smaller and agree with the
/// full GTH solution to 1e-8.
#[test]
fn strict_tpn_lcm12_lumps_measurably() {
    let shape = MappingShape::new(vec![3, 4]); // m = 12
    let tpn = Tpn::build(&shape, ExecModel::Strict);
    let rates = ResourceTable::from_fns(&shape, |_, _| 0.5, |_, _, _| 2.0);
    let (net, sym) = EventNet::from_tpn_with_symmetry(&tpn, &rates);
    let sym = sym.expect("homogeneous table keeps the rotation");
    let mg = MarkingGraph::build(&net, MarkingOptions::default()).unwrap();
    let seed = mg.orbit_partition(&sym).expect("orbit seed applies");
    let c = mg.ctmc_with_trans_rates(&net.rates);
    let (pi, lumped_states) = lumped_stationary(&c, &seed);
    assert!(
        lumped_states * 2 <= c.n_states(),
        "expected ≥ 2× reduction, got {lumped_states} of {}",
        c.n_states()
    );
    let full = c.stationary_gth();
    for (s, (&a, &b)) in pi.iter().zip(full.iter()).enumerate() {
        assert!((a - b).abs() < 1e-8, "state {s}: {a} vs {b}");
    }
}

/// Heterogeneous rates on the same shape: the hint must be refused at the
/// net level and the analysis falls back to the full chain.
#[test]
fn strict_tpn_heterogeneous_hint_refused() {
    let shape = MappingShape::new(vec![3, 4]);
    let tpn = Tpn::build(&shape, ExecModel::Strict);
    let rates = ResourceTable::from_fns(&shape, |_, slot| 0.5 + slot as f64 * 0.1, |_, _, _| 2.0);
    let (_, sym) = EventNet::from_tpn_with_symmetry(&tpn, &rates);
    assert!(sym.is_none(), "heterogeneous team must refuse the rotation");
}

/// `R_i = 1` everywhere ⇒ `m = 1` ⇒ the rotation is the identity and the
/// orbit seed is discrete: its quotient is no smaller than the full
/// chain, which is solved as it is.
#[test]
fn all_teams_of_one_degenerates() {
    let shape = MappingShape::new(vec![1, 1, 1]);
    let tpn = Tpn::build(&shape, ExecModel::Strict);
    let rates = ResourceTable::from_fns(&shape, |_, _| 1.0, |_, _, _| 3.0);
    let (net, sym) = EventNet::from_tpn_with_symmetry(&tpn, &rates);
    let sym = sym.expect("identity rotation is rate-preserving");
    let mg = MarkingGraph::build(&net, MarkingOptions::default()).unwrap();
    let seed = mg
        .orbit_partition(&sym)
        .expect("identity maps states to themselves");
    assert!(seed.is_discrete());
    let c = mg.ctmc_with_trans_rates(&net.rates);
    assert_eq!(c.quotient(&seed).0.n_states(), c.n_states());
    // The full path still solves the chain.
    let pi = c.stationary();
    assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
}

/// A single-state chain must survive every solver and the quotient.
#[test]
fn single_state_chain_every_solver() {
    let c = Ctmc::new(vec![Vec::new()]);
    assert_eq!(c.stationary(), vec![1.0]);
    assert_eq!(c.stationary_gth(), vec![1.0]);
    assert_eq!(c.stationary_gauss_seidel(1e-12, 100), vec![1.0]);
    let pw = c.stationary_power(1e-12, 100);
    assert!((pw[0] - 1.0).abs() < 1e-12);
    let p = Partition::from_permutation_orbits(&[0]);
    assert!(p.is_discrete(), "no reduction on 1 state");
    let (q, lift) = c.quotient(&p);
    assert_eq!(q.n_states(), 1);
    assert_eq!(q.stationary(), vec![1.0]);
    assert_eq!(lift.lift(&[1.0]), vec![1.0]);
}

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

/// Assert two chains are bitwise identical: every column's incoming
/// (source, rate) pairs, every row's rates and the exit rates.
fn assert_chains_identical(a: &Ctmc, b: &Ctmc, context: &str) {
    assert_eq!(a.n_states(), b.n_states(), "{context}: state counts");
    assert_eq!(a.nnz(), b.nnz(), "{context}: edge counts");
    let targets = |c: &Ctmc| c.structure().forward_targets();
    assert_eq!(targets(a), targets(b), "{context}: forward targets");
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
        let exit = (a.exit_rate(s).to_bits(), b.exit_rate(s).to_bits());
        assert_eq!(exit.0, exit.1, "{context}: exit {s}");
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The direct quotient's contract: on homogeneous Strict TPNs it
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
                qg.recorded.get(b),
                mg.recorded.get(first),
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

/// The list-table path against the oracle: a quotient whose edges merge
/// transitions is `Ctmc::quotient(orbit_partition)` + `Lift` bit for bit.
#[test]
fn merged_transition_labels_equal_full_then_lump() {
    let (closed, net, sym) = three_cycles_with_rotation();
    let opts = MarkingOptions::default();
    let mg = MarkingGraph::build(&net, opts).unwrap();
    let seed = mg.orbit_partition(&sym).expect("orbit seed applies");
    let (lumped, lift) = mg.ctmc_with_trans_rates(&net.rates).quotient(&seed);
    let qg = QuotientGraph::build(&net, &sym, opts).unwrap();
    let chain = qg.ctmc_with_trans_rates(&net.rates);
    assert_eq!((mg.n_states(), qg.n_states()), (8, 4));
    let merged: Vec<&[u32]> = (0..chain.nnz())
        .map(|e| qg.edge_transitions(e))
        .filter(|ts| ts.len() > 1)
        .collect();
    assert_eq!(merged, [&[1, 3, 5][..], &[3, 5], &[0, 2], &[0, 2, 4]]);
    let nt = net.n_transitions() as u32;
    let lists = chain.structure().labels_used().iter().filter(|&&l| l >= nt);
    assert_eq!(lists.count(), 4);

    assert_chains_identical(&chain, &lumped, "merging quotient");
    assert_eq!(qg.full_states(), lift.n_states());
    let (pi_q, pi_lumped) = (chain.stationary(), lumped.stationary());
    assert_eq!(bits(&pi_q), bits(&pi_lumped));
    let pi_full = mg.ctmc_with_trans_rates(&net.rates).stationary();
    for b in 0..qg.n_states() {
        assert_eq!(qg.orbit_sizes()[b] as usize, lift.block_size(b), "{b}");
    }
    for (s, (&a, &b)) in lift.lift(&pi_q).iter().zip(&pi_full).enumerate() {
        assert!((a - b).abs() < 1e-12, "state {s}: lifted {a} vs full {b}");
    }
    // Throughput of the rotation-closed `a` set, both ways.
    let direct = qg.throughput_of(&net, &closed);
    let full = mg.throughput_of(&net, &closed);
    assert!((direct - full).abs() <= 1e-12 * full, "{direct} vs {full}");
}
