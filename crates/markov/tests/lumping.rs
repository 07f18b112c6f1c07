//! The lumping oracle: an orbit seed's quotient chain, solved and lifted
//! back uniformly, must match the full GTH stationary vector to 1e-8 — on
//! random replicated chains, on the boundary shapes (`m = 1`, single-state
//! chains) and on the symmetric marking graphs of homogeneous TPNs and
//! patterns.

use proptest::prelude::*;
use repstream_markov::ctmc::Ctmc;
use repstream_markov::lump::{is_ordinarily_lumpable, Partition};
use repstream_markov::marking::{MarkingGraph, MarkingOptions};
use repstream_markov::net::{comm_pattern, EventNet, NetSymmetry};
use repstream_petri::shape::{ExecModel, MappingShape, ResourceTable};
use repstream_petri::tpn::Tpn;

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
    let n = copy_states * copies;
    let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for c in 0..copies {
        let off = c * copy_states;
        for s in 0..copy_states {
            for (j, r) in base.row(s) {
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
