//! The marking kernel's unit tests: every instantiation against the
//! full-then-lump oracle, and the bitwise pins across thread and shard
//! counts — the tests that read the markings a build recorded.

use super::*;
use crate::net::comm_pattern;
use repstream_petri::shape::{ExecModel, MappingShape, ResourceTable};
use repstream_petri::tpn::Tpn;

#[test]
fn single_transition_self_loop() {
    // One transition with a marked self-loop: a Poisson clock.
    let net = EventNet::new(vec![2.0], vec![(0, 0, 1)]);
    let mg = MarkingGraph::build(&net, MarkingOptions::default()).unwrap();
    assert_eq!(mg.n_states(), 1);
    // The firing changes no state: enabled, but no chain edge.
    assert_eq!(mg.ctmc_with_trans_rates(&net.rates).nnz(), 0);
    assert_eq!(mg.enabled(0), [0]);
    let rates = mg.firing_rates_with(&net.rates, &[1.0]);
    assert!((rates[0] - 2.0).abs() < 1e-12);
}

#[test]
fn two_transition_cycle() {
    // A ⇄ B with one token: alternating firings; each fires at rate
    // 1/(1/λa + 1/λb).
    let net = EventNet::new(vec![2.0, 3.0], vec![(0, 1, 1), (1, 0, 0)]);
    let mg = MarkingGraph::build(&net, MarkingOptions::default()).unwrap();
    assert_eq!(mg.n_states(), 2);
    let pi = mg.ctmc_with_trans_rates(&net.rates).stationary();
    let rates = mg.firing_rates_with(&net.rates, &pi);
    let expect = 1.0 / (1.0 / 2.0 + 1.0 / 3.0);
    assert!((rates[0] - expect).abs() < 1e-10, "{rates:?}");
    assert!((rates[1] - expect).abs() < 1e-10);
}

#[test]
fn pattern_1x1_is_poisson() {
    let net = comm_pattern(1, 1, |_, _| 5.0);
    let mg = MarkingGraph::build(&net, MarkingOptions::default()).unwrap();
    assert_eq!(mg.n_states(), 1);
    assert!((mg.throughput_of(&net, &[0]) - 5.0).abs() < 1e-12);
}

#[test]
fn unsafe_net_detected() {
    // Producer feeding a place with no consumer constraint forming
    // accumulation: t0 self-loop marked + place t0→t1, t1 needs also a
    // token that never comes back… simplest: t0 (free-running) feeds
    // t1 which is throttled by a slow self-loop — the middle place
    // accumulates.
    let net = EventNet::new(vec![1.0, 1.0], vec![(0, 0, 1), (0, 1, 0), (1, 1, 1)]);
    let err = MarkingGraph::build(&net, MarkingOptions::default()).unwrap_err();
    assert!(matches!(err, MarkingError::NotSafe { .. }), "{err}");
    // With a capacity it converges.
    let mg = MarkingGraph::build(
        &net,
        MarkingOptions {
            capacity: Some(4),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(mg.n_states() > 2);
    // Throughput of the sink transition is throttled by both clocks.
    let rho = mg.throughput_of(&net, &[1]);
    assert!(rho < 1.0 && rho > 0.4, "rho {rho}");
}

/// Monotone up to the largest capacity a marking byte holds; anything
/// above is refused up front instead of wrapping a token count (debug
/// builds used to panic there, release builds returned a throughput
/// *below* cap 255's).
#[test]
fn capacity_increases_throughput_monotonically() {
    let net = EventNet::new(vec![1.0, 1.0], vec![(0, 0, 1), (0, 1, 0), (1, 1, 1)]);
    let build = |capacity| {
        let opts = MarkingOptions {
            capacity: Some(capacity),
            ..Default::default()
        };
        MarkingGraph::build(&net, opts)
    };
    let mut last = 0.0;
    for cap in [1, 2, 4, 8, 16, 254, 255] {
        let mg = build(cap).unwrap();
        assert_eq!(mg.n_states(), cap as usize + 1);
        let rho = mg.throughput_of(&net, &[1]);
        assert!(rho >= last - 1e-12, "cap {cap}: {rho} < {last}");
        // Tandem of two rate-1 exponential servers with infinite
        // buffer saturates at 1; with cap 16 we should be close.
        assert!(cap < 16 || (rho > 0.8 && rho < 1.0), "cap {cap}: {rho}");
        last = rho;
    }
    for cap in [256, 300, 1000, u32::MAX] {
        assert_eq!(build(cap).unwrap_err(), MarkingError::CapacityTooLarge(cap));
    }
}

#[test]
fn state_budget_enforced() {
    let net = comm_pattern(4, 5, |_, _| 1.0);
    let err = MarkingGraph::build(
        &net,
        MarkingOptions {
            max_states: 10,
            capacity: None,
            ..Default::default()
        },
    )
    .unwrap_err();
    assert!(matches!(err, MarkingError::TooManyStates(10)));
}

/// The 1×n pattern (2n places) with its row shift: transition
/// `k ↦ k+1 mod n` maps both one-port cycle families onto themselves
/// (sender cycle place `k`, receiver cycle place `n+k`).  Its n
/// markings are one orbit.
fn pattern_1xn_with_shift(n: usize) -> (EventNet, NetSymmetry) {
    let net = comm_pattern(1, n, |_, _| 1.5);
    let sym = NetSymmetry {
        trans_perm: (0..n).map(|k| (k + 1) % n).collect(),
        place_perm: (0..2 * n)
            .map(|p| {
                if p < n {
                    (p + 1) % n
                } else {
                    n + (p + 1 - n) % n
                }
            })
            .collect(),
    };
    (net, sym)
}

/// The homogeneous Strict 2×3 TPN (> 8 places) with its row rotation.
fn strict_2x3_with_rotation() -> (EventNet, NetSymmetry) {
    let (_, net, sym) = hom_strict(&[2, 3]);
    (net, sym)
}

/// [`strict_2x3_with_rotation`] re-indexed behind `pad` (even)
/// always-marked places — self-loops of one extra transition, swapped
/// in pairs by the symmetry, which keeps its order — so the same
/// many-orbit chain is elected on bits that sit `pad` places further
/// into the packed rows.
fn strict_2x3_padded(pad: usize) -> (EventNet, NetSymmetry) {
    let (net, sym) = strict_2x3_with_rotation();
    let extra = net.n_transitions();
    let mut rates = net.rates.clone();
    rates.push(1.0);
    let places = (0..pad)
        .map(|_| (extra, extra, 1))
        .chain(net.places.iter().copied())
        .collect();
    let mut trans_perm = sym.trans_perm.clone();
    trans_perm.push(extra);
    let place_perm = (0..pad)
        .map(|p| p ^ 1)
        .chain(sym.place_perm.iter().map(|&p| pad + p))
        .collect();
    let sym = NetSymmetry {
        trans_perm,
        place_perm,
    };
    (EventNet::new(rates, places), sym)
}

fn assert_same_chain(a: &Ctmc, b: &Ctmc, what: &str) {
    assert_eq!(a.n_states(), b.n_states(), "{what}: states");
    assert_eq!(a.nnz(), b.nnz(), "{what}: nnz");
    let targets = |c: &Ctmc| c.structure().forward_targets();
    assert_eq!(targets(a), targets(b), "{what}: forward targets");
    let incoming = |c: &Ctmc, j| -> Vec<(usize, u64)> {
        c.incoming(j).map(|(i, r)| (i, r.to_bits())).collect()
    };
    for s in 0..a.n_states() {
        for (x, y) in a.row_rates(s).zip(b.row_rates(s)) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: rates of row {s}");
        }
        assert_eq!(incoming(a, s), incoming(b, s), "{what}: incoming {s}");
        let exit = (a.exit_rate(s).to_bits(), b.exit_rate(s).to_bits());
        assert_eq!(exit.0, exit.1, "{what}: exit {s}");
    }
}

/// `g` against `reference`, either graph kind: states, full-chain
/// states, markings, enabled sets, and the chain bits at the net's rates
/// and through a refill with fresh ones.
fn assert_same_graph<K, L>(g: &Graph<K>, reference: &Graph<L>, net: &EventNet, what: &str) {
    assert_eq!(g.n_states(), reference.n_states(), "{what}: states");
    assert_eq!(
        g.full_states(),
        reference.full_states(),
        "{what}: full states"
    );
    let (mut buf_a, mut buf_b) = (Vec::new(), Vec::new());
    for s in 0..reference.n_states() {
        assert_eq!(
            g.recorded.read_into(s, &mut buf_a),
            reference.recorded.read_into(s, &mut buf_b),
            "{what}: marking {s}"
        );
        assert_eq!(g.enabled(s), reference.enabled(s), "{what}: enabled {s}");
    }
    assert_same_chain(
        &g.ctmc_with_trans_rates(&net.rates),
        &reference.ctmc_with_trans_rates(&net.rates),
        what,
    );
    let doubled: Vec<f64> = net.rates.iter().map(|r| r * 2.0).collect();
    assert_same_chain(
        &g.ctmc_with_trans_rates(&doubled),
        &reference.ctmc_with_trans_rates(&doubled),
        &format!("{what} (refill)"),
    );
}

/// One kernel, every instantiation: canonicaliser × threads on a
/// ≤ 8-place and a > 8-place net.  The full chain — on bit rows and
/// on byte-row `Identity` — must equal the sequential one, and both
/// quotient canonicalisers must equal full-then-lump bit for bit —
/// chain, representatives, orbit sizes, enabled sets, refill map.
/// Every build stores its keys `⌈places/64⌉` words per state on bit
/// rows, `⌈places/8⌉` on byte rows, and its queued rows as wide.
///
/// The nets also span `RowRotation`'s election widths: one word (1×4,
/// 2×3), two with the deciding bits in word 1 (2×3 behind 64 places),
/// three (1×70; 2×3 behind 128, deciding in word 2) and the slice
/// pass beyond four (1×130, five words).  The single-orbit counts
/// are what an election that depended on the rotation it starts from
/// could not produce.
#[test]
fn kernel_instantiations_agree() {
    for (label, (net, sym), orbits) in [
        ("pattern 1x4", pattern_1xn_with_shift(4), 1),
        ("strict 2x3", strict_2x3_with_rotation(), 64),
        ("strict 2x3 behind 64", strict_2x3_padded(64), 64),
        ("strict 2x3 behind 128", strict_2x3_padded(128), 64),
        ("pattern 1x70", pattern_1xn_with_shift(70), 1),
        ("pattern 1x130", pattern_1xn_with_shift(130), 1),
    ] {
        assert!(net.symmetry_valid(&sym), "{label}");
        let canon = MarkingCanonicalizer::new(&sym.place_perm).unwrap();
        let order = canon.order() as usize;

        let plain = MarkingOptions {
            threads: 1,
            ..Default::default()
        };
        let full = MarkingGraph::build(&net, plain).unwrap();
        let seed = full.orbit_partition(&sym).expect("orbit seed applies");
        let (lumped, lift) = full.ctmc_with_trans_rates(&net.rates).quotient(&seed);
        assert_eq!(lumped.n_states(), orbits, "{label}");
        let firsts: Vec<usize> = (0..lumped.n_states())
            .map(|b| {
                (0..full.n_states())
                    .find(|&s| seed.block_of(s) == b)
                    .unwrap()
            })
            .collect();
        let refill = QuotientGraph::explore(&net, plain, &PerFiring(&canon)).unwrap();
        let places = net.n_places();
        let assert_words = |stats: ArenaStats, n: usize, per_word: usize, what: &str| {
            let row = places.div_ceil(per_word) * 8;
            assert_eq!(stats.keys_bytes, n * row, "{what}: keys");
            assert_eq!(stats.reps_bytes % row, 0, "{what}: rows");
            assert!((row..=n * row).contains(&stats.reps_bytes), "{what}: rows");
        };

        let mut buf = Vec::new();
        for threads in [1usize, 2, 4] {
            let opts = MarkingOptions {
                threads,
                ..Default::default()
            };
            let what = format!("{label} threads={threads}");

            let mg = MarkingGraph::build(&net, opts).unwrap();
            assert_same_graph(&mg, &full, &net, &what);
            assert_words(mg.arena_stats(), mg.n_states(), 64, &what);

            // The safe full chain is built on bit rows; byte-row
            // `Identity` must build the same graph.
            let bytes = MarkingGraph::explore(&net, opts, &Identity).unwrap();
            let bytes_what = format!("{what} bytes");
            assert_same_graph(&bytes, &full, &net, &bytes_what);
            assert_words(bytes.arena_stats(), bytes.n_states(), 8, &bytes_what);

            let rowrot = RowRotation::new(&net, &sym, order);
            for (name, qg, per_word) in [
                ("rowrot", QuotientGraph::explore(&net, opts, &rowrot), 64),
                (
                    "perfiring",
                    QuotientGraph::explore(&net, opts, &PerFiring(&canon)),
                    8,
                ),
            ] {
                let what = format!("{what} {name}");
                let qg = qg.unwrap();
                assert_same_chain(&qg.ctmc_with_trans_rates(&net.rates), &lumped, &what);
                assert_eq!(qg.full_states(), full.n_states(), "{what}");
                assert_eq!(qg.chain.labels(), refill.chain.labels(), "{what}");
                assert_eq!(qg.lists.ptr, refill.lists.ptr, "{what}");
                assert_eq!(qg.lists.trans, refill.lists.trans, "{what}");
                assert_words(qg.arena_stats(), qg.n_states(), per_word, &what);
                for (b, &first) in firsts.iter().enumerate() {
                    assert_eq!(qg.orbit_sizes()[b] as usize, lift.block_size(b));
                    assert_eq!(qg.recorded.read_into(b, &mut buf), full.recorded.get(first));
                    assert_eq!(qg.enabled(b), full.enabled(first), "{what}: {b}");
                }
            }
        }
    }
    // The quotient preserves the Theorem 4 closed form u·v·λ/(u+v−1).
    let (net, sym) = pattern_1xn_with_shift(4);
    let rho = QuotientGraph::build(&net, &sym, MarkingOptions::default())
        .unwrap()
        .throughput_of(&net, &[0, 1, 2, 3]);
    assert!((rho - 4.0 * 1.5 / 4.0).abs() < 1e-12, "rho {rho}");
}

/// The padded 2×3 net's extra transition is enabled in every marking
/// and moves no token.  Each of its firings stays in its state and
/// takes no edge, so the full chain is the unpadded one — its `nnz`
/// and its π bits — and the extra transition still fires at its
/// rate.
#[test]
fn self_loop_firings_take_no_edge() {
    let (plain, _) = strict_2x3_with_rotation();
    let (padded, _) = strict_2x3_padded(64);
    let opts = MarkingOptions::default();
    let (a, b) = (
        MarkingGraph::build(&plain, opts).unwrap(),
        MarkingGraph::build(&padded, opts).unwrap(),
    );
    let (ca, cb) = (
        a.ctmc_with_trans_rates(&plain.rates),
        b.ctmc_with_trans_rates(&padded.rates),
    );
    assert_eq!(cb.nnz(), ca.nnz());
    let bits = |pi: &[f64]| pi.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
    let pi = cb.stationary();
    assert_eq!(bits(&pi), bits(&ca.stationary()));
    let extra = plain.n_transitions();
    for s in 0..b.n_states() {
        assert_eq!(b.enabled(s).last(), Some(&(extra as u32)), "{s}");
    }
    let fired = b.firing_rates_with(&padded.rates, &pi)[extra];
    assert!((fired - padded.rates[extra]).abs() < 1e-12, "{fired}");
}

/// No `Tpn::build` net drops or merges a firing, so on each the
/// enabled sets are the chain's forward rows, stored once, and the
/// chain has one edge per firing: Strict hom and het 2×3, 3×4 and
/// 4×5 under both aliases (the quotient where the rotation survives),
/// and an Overlap net under a capacity of 2.
#[test]
fn tpn_graphs_keep_no_separate_enabled_table() {
    fn assert_shared<K>(g: &Graph<K>, what: &str) {
        assert!(g.enabled.is_none(), "{what}: separate enabled table");
        let firings: usize = (0..g.n_states()).map(|s| g.enabled(s).len()).sum();
        assert_eq!(g.chain.nnz(), firings, "{what}: nnz");
    }
    let check = |teams: &[usize], model, capacity| {
        let shape = MappingShape::new(teams.to_vec());
        let tpn = Tpn::build(&shape, model);
        let opts = MarkingOptions {
            capacity,
            ..Default::default()
        };
        let hom = ResourceTable::from_fns(&shape, |_, _| 0.5, |_, _, _| 2.0);
        let het = ResourceTable::from_fns(&shape, |_, s| 0.5 + s as f64, |_, _, _| 2.0);
        let (net, sym) = EventNet::from_tpn_with_symmetry(&tpn, &hom);
        let what = format!("{model:?} {teams:?}");
        let sym = sym.expect("homogeneous rates keep the rotation");
        let qg = QuotientGraph::build(&net, &sym, opts).unwrap();
        assert_shared(&qg, &format!("{what} hom quotient"));
        let net = EventNet::from_tpn(&tpn, &het);
        assert_shared(
            &MarkingGraph::build(&net, opts).unwrap(),
            &format!("{what} het full"),
        );
    };
    for teams in [[2usize, 3], [3, 4], [4, 5]] {
        check(&teams, ExecModel::Strict, None);
    }
    check(&[2, 3], ExecModel::Overlap, Some(2));
}

/// Two copies of [`unsafe_net_detected`]'s producer/consumer pair,
/// swapped by the symmetry: unsafe (place 1 accumulates), finite under
/// a capacity, and a genuine order-2 automorphism either way.
fn unsafe_pair_with_swap() -> (EventNet, NetSymmetry) {
    let copy = |t: usize| [(t, t, 1), (t, t + 1, 0), (t + 1, t + 1, 1)];
    let net = EventNet::new(vec![1.0, 3.0, 1.0, 3.0], [copy(0), copy(2)].concat());
    let sym = NetSymmetry {
        trans_perm: vec![2, 3, 0, 1],
        place_perm: vec![3, 4, 5, 0, 1, 2],
    };
    assert!(net.symmetry_valid(&sym));
    (net, sym)
}

/// Which canonicaliser runs never shows in a failure: an unsafe net
/// is refused at the same place by `RowRotation` (whose key for the
/// unsafe successor is garbage, and must not be interned first) and
/// by `PerFiring`, at every thread count.
#[test]
fn unsafe_quotient_fails_alike_under_both_canonicalisers() {
    let (net, sym) = unsafe_pair_with_swap();
    let canon = MarkingCanonicalizer::new(&sym.place_perm).unwrap();
    let rowrot = RowRotation::new(&net, &sym, canon.order() as usize);
    for threads in [1usize, 2, 4] {
        let opts = MarkingOptions {
            threads,
            ..Default::default()
        };
        for err in [
            QuotientGraph::explore(&net, opts, &rowrot).unwrap_err(),
            QuotientGraph::explore(&net, opts, &PerFiring(&canon)).unwrap_err(),
            QuotientGraph::build(&net, &sym, opts).unwrap_err(),
        ] {
            assert_eq!(err, MarkingError::NotSafe { place: 1 }, "threads {threads}");
        }
    }
}

/// A capacity-bounded quotient holds token counts above one, so it
/// is built on byte rows (`PerFiring`) — and still equals
/// full-then-lump bit for bit.
#[test]
fn capacity_bounded_quotient_equals_full_then_lump() {
    let (net, sym) = unsafe_pair_with_swap();
    let opts = MarkingOptions {
        capacity: Some(2),
        ..Default::default()
    };
    let full = MarkingGraph::build(&net, opts).unwrap();
    let seed = full.orbit_partition(&sym).expect("orbit seed applies");
    let (lumped, lift) = full.ctmc_with_trans_rates(&net.rates).quotient(&seed);
    let qg = QuotientGraph::build(&net, &sym, opts).unwrap();
    assert!(qg.n_states() < full.n_states());
    assert!(
        qg.recorded.iter().any(|m| m.contains(&2)),
        "never above one"
    );
    assert_same_chain(&qg.ctmc_with_trans_rates(&net.rates), &lumped, "capacity 2");
    assert_eq!(qg.full_states(), full.n_states());
    for b in 0..qg.n_states() {
        assert_eq!(qg.orbit_sizes()[b] as usize, lift.block_size(b), "{b}");
    }
}

/// The contract on markings covers the first one: more than one
/// token under `capacity: None` is `NotSafe` before any state is
/// built, a count that does not fit a marking byte is
/// `CapacityTooLarge` under any capacity — an error, not a panic —
/// and a start above a `Some(c)` bound stays legal: the place drains.
/// Both builders, every thread count.
#[test]
fn initial_marking_is_validated_before_the_search() {
    let cycle = |tokens| EventNet::new(vec![2.0, 3.0], vec![(0, 1, tokens), (1, 0, 0)]);
    // The tandem of `unsafe_net_detected`, its buffer pre-filled.
    let tandem = |tokens| {
        let places = vec![(0, 0, 1), (0, 1, tokens), (1, 1, 1)];
        EventNet::new(vec![1.0, 1.0], places)
    };
    let both = |net: &EventNet, capacity, threads| {
        let identity = NetSymmetry {
            trans_perm: (0..net.n_transitions()).collect(),
            place_perm: (0..net.n_places()).collect(),
        };
        let opts = MarkingOptions {
            capacity,
            threads,
            ..Default::default()
        };
        let full = MarkingGraph::build(net, opts).map(|g| g.n_states());
        let quotient = QuotientGraph::build(net, &identity, opts).map(|g| g.n_states());
        assert_eq!(full, quotient);
        full
    };
    for threads in [0usize, 1, 2, 4] {
        assert_eq!(
            both(&cycle(2), None, threads),
            Err(MarkingError::NotSafe { place: 0 })
        );
        for capacity in [None, Some(1), Some(255)] {
            assert_eq!(
                both(&cycle(300), capacity, threads),
                Err(MarkingError::CapacityTooLarge(300))
            );
        }
        // The buffer drains from 5 before the bound 2 ever gates it.
        assert_eq!(both(&tandem(5), Some(2), threads), Ok(6));
        assert_eq!(both(&tandem(255), Some(255), threads), Ok(256));
    }
}

/// A sharded build must be bitwise identical to the default build:
/// the same states, chain bits and enabled sets — only the storage
/// accounting differs.
#[test]
fn sharded_build_is_bitwise_identical() {
    let net = comm_pattern(2, 3, |i, j| 1.0 + (i + 2 * j) as f64);
    let reference = MarkingGraph::build(
        &net,
        MarkingOptions {
            interner_shards: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let sharded = MarkingGraph::build(
        &net,
        MarkingOptions {
            interner_shards: 16,
            ..Default::default()
        },
    )
    .unwrap();
    assert_same_graph(&sharded, &reference, &net, "sharded");
}

/// Safe pattern nets must reproduce the Theorem 3 state count.
#[test]
fn arena_pattern_states_match_closed_form() {
    let net = comm_pattern(2, 3, |_, _| 1.0);
    let mg = MarkingGraph::build(&net, MarkingOptions::default()).unwrap();
    assert_eq!(mg.n_states(), 12); // S(2,3) = C(4,1)·3
    assert_eq!(mg.recorded.width(), net.n_places());
    // Every stored marking is 0/1 (safe net).
    for m in mg.recorded.iter() {
        assert!(m.iter().all(|&b| b <= 1));
    }
}

/// The Strict TPN of `teams` under homogeneous rates, with its row
/// rotation.
fn hom_strict(teams: &[usize]) -> (Tpn, EventNet, NetSymmetry) {
    let shape = MappingShape::new(teams.to_vec());
    let tpn = Tpn::build(&shape, ExecModel::Strict);
    let rates = ResourceTable::from_fns(&shape, |_, _| 0.5, |_, _, _| 2.0);
    let (net, sym) = EventNet::from_tpn_with_symmetry(&tpn, &rates);
    (
        tpn,
        net,
        sym.expect("homogeneous table keeps the row rotation"),
    )
}

fn opts(threads: usize, shards: usize) -> MarkingOptions {
    MarkingOptions {
        max_states: 1 << 22,
        capacity: None,
        threads,
        interner_shards: shards,
        ..Default::default()
    }
}

/// Quotient builds on {1, 2, 4} threads against the sequential reference.
#[test]
fn quotient_matrix_is_bitwise_deterministic() {
    let (_, net, sym) = hom_strict(&[3, 4]);
    let reference = QuotientGraph::build(&net, &sym, opts(1, 0)).unwrap();
    for threads in [1usize, 2, 4] {
        let what = format!("threads {threads}");
        let qg = QuotientGraph::build(&net, &sym, opts(threads, 0)).unwrap();
        assert_same_graph(&qg, &reference, &net, &what);
        assert_eq!(qg.orbit_sizes(), reference.orbit_sizes(), "{what}");
    }
}

/// The plain (non-lumped) marking graph across the same thread counts.
#[test]
fn full_graph_matrix_is_bitwise_deterministic() {
    let (_, net, _) = hom_strict(&[3, 4]);
    let reference = MarkingGraph::build(&net, opts(1, 0)).unwrap();
    for threads in [1usize, 2, 4] {
        let what = format!("threads {threads}");
        let mg = MarkingGraph::build(&net, opts(threads, 0)).unwrap();
        assert_same_graph(&mg, &reference, &net, &what);
    }
}

/// The full shards × threads matrix on the 4×5 quotient against the
/// sequential single-shard reference.
#[test]
fn quotient_shard_spill_matrix_4x5_is_bitwise_identical() {
    let (_, net, sym) = hom_strict(&[4, 5]);
    let reference = QuotientGraph::build(&net, &sym, opts(1, 1)).unwrap();
    for shards in [1usize, 4, 16] {
        for threads in [1usize, 2, 4] {
            let what = format!("shards {shards} threads {threads}");
            let qg = QuotientGraph::build(&net, &sym, opts(threads, shards)).unwrap();
            assert_same_graph(&qg, &reference, &net, &what);
            assert_eq!(qg.orbit_sizes(), reference.orbit_sizes(), "{what}");
        }
    }
}

/// A reduced sweep on the larger 5×6 quotient (debug builds are slow):
/// max shards, sequential and 2-thread BFS.
#[test]
fn quotient_shard_spill_5x6_is_bitwise_identical() {
    let (_, net, sym) = hom_strict(&[5, 6]);
    let reference = QuotientGraph::build(&net, &sym, opts(1, 1)).unwrap();
    for threads in [1usize, 2] {
        let what = format!("5x6 shards 16 threads {threads}");
        let qg = QuotientGraph::build(&net, &sym, opts(threads, 16)).unwrap();
        assert_same_graph(&qg, &reference, &net, &what);
        assert_eq!(qg.orbit_sizes(), reference.orbit_sizes(), "{what}");
    }
}

/// The plain (non-lumped) marking graph across the same knobs on 4×5.
#[test]
fn full_graph_shard_spill_is_bitwise_identical() {
    let (_, net, _) = hom_strict(&[4, 5]);
    let reference = MarkingGraph::build(&net, opts(1, 1)).unwrap();
    for shards in [4usize, 16] {
        for threads in [1usize, 4] {
            let what = format!("full shards {shards} threads {threads}");
            let mg = MarkingGraph::build(&net, opts(threads, shards)).unwrap();
            assert_same_graph(&mg, &reference, &net, &what);
        }
    }
}

/// `m = 1` (no replication): the rotation is the identity, every orbit is
/// a singleton, and the quotient BFS degenerates to the plain marking BFS
/// bit for bit.
#[test]
fn m1_degenerates_to_the_plain_bfs_bitwise() {
    let (_, net, sym) = hom_strict(&[1, 1, 1]);
    let opts = MarkingOptions::default();
    let mg = MarkingGraph::build(&net, opts).unwrap();
    let qg = QuotientGraph::build(&net, &sym, opts).unwrap();
    assert_same_graph(&qg, &mg, &net, "teams [1,1,1]");
    assert!(qg.orbit_sizes().iter().all(|&k| k == 1));
}

/// The chunk-parallel frontier BFS of the quotient build is **bitwise
/// identical** to the sequential scan for every thread count: chain
/// (targets and rate bits), representatives, enabled sets, orbit sizes,
/// the edge→transitions refill map, and the solved throughput.
#[test]
fn parallel_quotient_build_is_bitwise_sequential() {
    for teams in [vec![2usize, 3], vec![3, 4], vec![2, 3, 4]] {
        let (tpn, net, sym) = hom_strict(&teams);
        let build = |threads| QuotientGraph::build(&net, &sym, opts(threads, 0)).unwrap();
        let seq = build(1);
        for threads in [2usize, 4, 8] {
            let par = build(threads);
            let ctx = format!("teams {teams:?} threads {threads}");
            assert_same_graph(&par, &seq, &net, &ctx);
            let last = tpn.last_column();
            let rho = |g: &QuotientGraph| g.throughput_of(&net, &last).to_bits();
            assert_eq!(rho(&par), rho(&seq), "{ctx}");
            assert_eq!(par.orbit_sizes(), seq.orbit_sizes(), "{ctx}");
        }
    }
}

/// The same contract for the plain marking BFS (the `m = 1` degenerate of
/// the quotient): states, enabled sets and chain agree bit for bit at
/// every thread count, and budget errors fire identically.
#[test]
fn parallel_plain_bfs_is_bitwise_sequential() {
    for teams in [vec![2usize, 3], vec![1, 2, 2]] {
        let (tpn, net, _) = hom_strict(&teams);
        let build = |threads| MarkingGraph::build(&net, opts(threads, 0)).unwrap();
        let seq = build(1);
        for threads in [2usize, 4, 8] {
            let par = build(threads);
            let ctx = format!("teams {teams:?} threads {threads}");
            assert_same_graph(&par, &seq, &net, &ctx);
            let last = tpn.last_column();
            let rho = |g: &MarkingGraph| g.throughput_of(&net, &last).to_bits();
            assert_eq!(rho(&par), rho(&seq), "{ctx}");
            // A budget below the reachable count errors identically.
            let tight = MarkingOptions {
                max_states: seq.n_states() - 1,
                threads,
                ..Default::default()
            };
            let err = MarkingGraph::build(&net, tight).unwrap_err();
            assert_eq!(
                err,
                MarkingError::TooManyStates(seq.n_states() - 1),
                "{ctx}"
            );
        }
    }
}

/// The row queue's peak is a function of the chain alone: the two widest
/// adjacent BFS levels, `max_k (|L_k| + |L_{k+1}|)` rows of
/// `⌈places/64⌉` words, the levels taken from the chain's forward
/// targets — at every thread and shard count, on a quotient and on a
/// full chain.
#[test]
fn row_queue_peaks_at_the_two_widest_adjacent_levels() {
    fn two_widest_levels<K>(g: &Graph<K>) -> usize {
        let (ptr, targets) = (g.chain.row_ptr(), g.chain.forward_targets());
        let mut level = vec![usize::MAX; g.n_states()];
        let mut widths = vec![1usize];
        level[0] = 0;
        let mut queue = std::collections::VecDeque::from([0usize]);
        while let Some(s) = queue.pop_front() {
            for &t in &targets[ptr[s] as usize..ptr[s + 1] as usize] {
                if level[t as usize] == usize::MAX {
                    level[t as usize] = level[s] + 1;
                    if widths.len() == level[s] + 1 {
                        widths.push(0);
                    }
                    widths[level[s] + 1] += 1;
                    queue.push_back(t as usize);
                }
            }
        }
        assert!(level.iter().all(|&l| l != usize::MAX), "unreached states");
        widths.push(0);
        widths.windows(2).map(|w| w[0] + w[1]).max().unwrap()
    }

    let (_, hom, sym) = hom_strict(&[4, 5]);
    let shape = MappingShape::new(vec![3, 4]);
    let het_rates = ResourceTable::from_fns(&shape, |_, s| 0.5 + s as f64, |_, _, _| 2.0);
    let het = EventNet::from_tpn(&Tpn::build(&shape, ExecModel::Strict), &het_rates);
    let quotient = |o| {
        let g = QuotientGraph::build(&hom, &sym, o).unwrap();
        (g.arena_stats(), two_widest_levels(&g))
    };
    let full = |o| {
        let g = MarkingGraph::build(&het, o).unwrap();
        (g.arena_stats(), two_widest_levels(&g))
    };
    type Build<'a> = &'a dyn Fn(MarkingOptions) -> (ArenaStats, usize);
    let cases: [(&str, usize, Build<'_>); 2] = [
        ("hom(4x5) quotient", hom.n_places(), &quotient),
        ("het(3x4) full", het.n_places(), &full),
    ];
    for (label, places, build) in cases {
        let row = places.div_ceil(64) * 8;
        let mut peaks = Vec::new();
        for threads in [1usize, 2, 4] {
            for shards in [1usize, 16] {
                let what = format!("{label} threads {threads} shards {shards}");
                let (stats, rows) = build(opts(threads, shards));
                assert_eq!(stats.reps_bytes, rows * row, "{what}");
                assert_eq!(stats.spill_bytes, 0, "{what}");
                peaks.push(stats.reps_bytes);
            }
        }
        assert!(peaks.iter().all(|&p| p == peaks[0]), "{label}: {peaks:?}");
    }

    // Auto threads stage only levels of ≥ 256 states per core, and
    // hom(5×6) has levels on both sides of that: a level still goes
    // whole down one path, so the peak is the sequential one.
    let (_, net, sym) = hom_strict(&[5, 6]);
    let row = net.n_places().div_ceil(64) * 8;
    for threads in [0usize, 1] {
        let qg = QuotientGraph::build(&net, &sym, opts(threads, 0)).unwrap();
        let rows = two_widest_levels(&qg);
        assert_eq!(
            qg.arena_stats().reps_bytes,
            rows * row,
            "5x6 threads {threads}"
        );
    }
}
