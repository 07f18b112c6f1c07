//! Cross-solver property tests: GTH, uniformized power iteration,
//! Gauss–Seidel, restarted GMRES and SOR must agree on random
//! irreducible chains, including sizes that bracket the auto-selection
//! thresholds of `Ctmc::stationary` (GTH below ~32 states, Gauss–Seidel
//! with a power fallback above), and on the real Theorem 2 quotient
//! chains the top-end plan exists for.

use proptest::prelude::*;
use repstream_markov::ctmc::{Ctmc, Precond, Solver, SolverChoice};
use repstream_markov::krylov::SOR_OMEGA;
use repstream_markov::marking::{MarkingOptions, QuotientGraph};
use repstream_markov::net::EventNet;
use repstream_petri::shape::{ExecModel, MappingShape, ResourceTable};
use repstream_petri::tpn::Tpn;

/// A random irreducible CTMC: a ring `i → i+1` guarantees strong
/// connectivity, plus `extra` random chords per state with rates drawn
/// from the seeded generator in `[0.05, 1.05]`.
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

fn assert_agree(a: &[f64], b: &[f64], tol: f64, what: &str) {
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert!(
            (x - y).abs() < tol,
            "{what}: state {i}: {x} vs {y} (diff {})",
            (x - y).abs()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// All three solvers agree to 1e-8 and reach residual < 1e-10 on
    /// chains spanning the GTH↔Gauss–Seidel threshold (32 states).
    #[test]
    fn solvers_agree_across_threshold(
        n in 4usize..260,
        extra in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let c = random_irreducible(n, extra, seed);
        let gth = c.stationary_gth();
        let power = c.stationary_power(1e-14, 500_000);
        let gs = c.stationary_gauss_seidel(1e-15, 50_000);
        let auto = c.stationary();
        for (i, pi) in [("gth", &gth), ("power", &power), ("gs", &gs), ("auto", &auto)] {
            let r = c.stationarity_residual(pi);
            prop_assert!(r < 1e-10, "{} residual {:e} at n={}", i, r, n);
        }
        for i in 0..n {
            prop_assert!((gth[i] - power[i]).abs() < 1e-8,
                "gth vs power at {}: {} vs {}", i, gth[i], power[i]);
            prop_assert!((gth[i] - gs[i]).abs() < 1e-8,
                "gth vs gs at {}: {} vs {}", i, gth[i], gs[i]);
            prop_assert!((gth[i] - auto[i]).abs() < 1e-8,
                "gth vs auto at {}: {} vs {}", i, gth[i], auto[i]);
        }
    }
}

/// The large-chain regime (~2 000 states, past every GTH threshold):
/// Gauss–Seidel, power, restarted GMRES, SOR and the auto-selected
/// solver agree to 1e-8 with residuals below 1e-10.  GTH is `O(n³)` and
/// checked separately at one size as the exactness anchor.
#[test]
fn large_sparse_chains_agree() {
    for (n, extra, seed) in [(1000, 2, 7u64), (2000, 2, 11), (2000, 3, 13)] {
        let c = random_irreducible(n, extra, seed);
        let gs = c.stationary_gauss_seidel(1e-15, 50_000);
        let power = c.stationary_power(1e-14, 500_000);
        let gmres = c.stationary_gmres(1e-12, 20_000);
        let sor = c.stationary_sor(SOR_OMEGA, 1e-15, 50_000);
        let auto = c.stationary();
        for (name, pi) in [
            ("gs", &gs),
            ("power", &power),
            ("gmres", &gmres),
            ("sor", &sor),
            ("auto", &auto),
        ] {
            assert!(
                c.stationarity_residual(pi) < 1e-10,
                "{name} residual at n={n}"
            );
        }
        assert_agree(&gs, &power, 1e-8, &format!("gs vs power n={n}"));
        assert_agree(&gs, &gmres, 1e-8, &format!("gs vs gmres n={n}"));
        assert_agree(&gs, &sor, 1e-8, &format!("gs vs sor n={n}"));
        assert_agree(&gs, &auto, 1e-8, &format!("gs vs auto n={n}"));
    }
}

/// The Krylov stack on the chains it was built for: the direct Theorem 2
/// quotient CTMCs of homogeneous Strict TPNs.  Forced GMRES and SOR must
/// reproduce the automatic plan's stationary vector to 1e-8 (and its
/// throughput to 1e-8 relative) with residuals below 1e-10.
#[test]
fn krylov_agrees_on_real_quotient_chains() {
    for teams in [vec![4usize, 5], vec![5, 6]] {
        let shape = MappingShape::new(teams.clone());
        let tpn = Tpn::build(&shape, ExecModel::Strict);
        let rates = ResourceTable::from_fns(&shape, |_, _| 0.5, |_, _, _| 2.0);
        let (net, sym) = EventNet::from_tpn_with_symmetry(&tpn, &rates);
        let sym = sym.expect("homogeneous table keeps the row rotation");
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
        let c = &qg.ctmc_with_trans_rates(&net.rates);
        let n = c.n_states();
        let last = tpn.last_column();
        let (rho_auto, auto) = qg.throughput_solve(c, &net.rates, &last, SolverChoice::Auto);
        assert!(
            c.stationarity_residual(&auto.pi) < 1e-10,
            "auto residual {:?} n={n}",
            teams
        );
        for solver in [Solver::Gmres, Solver::GmresPlain, Solver::Sor] {
            let (rho, rep) = qg.throughput_solve(c, &net.rates, &last, SolverChoice::Force(solver));
            assert_eq!(rep.solver, solver, "force must run what was forced");
            let expect_pc = if solver == Solver::Gmres {
                Precond::Jacobi
            } else {
                Precond::None
            };
            assert_eq!(
                rep.precond,
                expect_pc,
                "provenance must name the scaling {} ran under",
                solver.label()
            );
            assert!(
                c.stationarity_residual(&rep.pi) < 1e-10,
                "{} residual {:.3e} on {:?} (n={n})",
                solver.label(),
                rep.residual,
                teams
            );
            assert_agree(
                &auto.pi,
                &rep.pi,
                1e-8,
                &format!("auto vs {} on {teams:?}", solver.label()),
            );
            assert!(
                (rho - rho_auto).abs() <= 1e-8 * rho_auto.abs(),
                "{} throughput {rho} vs auto {rho_auto} on {:?}",
                solver.label(),
                teams
            );
        }
    }
}

/// The Jacobi-scaled GMRES against its unpreconditioned baseline and the
/// uniformized power iteration on a real Theorem 2 quotient chain with a
/// *stiff* rate table (compute and link rates two decades apart — the
/// column-scale spread the scaling exists for).  All three stationary
/// vectors must agree to 1e-8 and meet the 1e-10 residual contract; the
/// preconditioned run must not spend more matvecs than the plain one.
#[test]
fn jacobi_gmres_pins_plain_and_power_on_quotient_chain() {
    let shape = MappingShape::new(vec![4usize, 5]);
    let tpn = Tpn::build(&shape, ExecModel::Strict);
    let rates = ResourceTable::from_fns(&shape, |_, _| 0.04, |_, _, _| 6.0);
    let (net, sym) = EventNet::from_tpn_with_symmetry(&tpn, &rates);
    let sym = sym.expect("homogeneous table keeps the row rotation");
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
    let c = &qg.ctmc_with_trans_rates(&net.rates);
    let pc = c.stationary_solve(SolverChoice::Force(Solver::Gmres));
    let plain = c.stationary_solve(SolverChoice::Force(Solver::GmresPlain));
    let power = c.stationary_solve(SolverChoice::Force(Solver::Power));
    assert_eq!(pc.precond, Precond::Jacobi);
    assert_eq!(plain.precond, Precond::None);
    for (name, rep) in [("jacobi", &pc), ("plain", &plain), ("power", &power)] {
        assert!(
            c.stationarity_residual(&rep.pi) < 1e-10,
            "{name} residual {:.3e}",
            rep.residual
        );
    }
    assert_agree(&pc.pi, &plain.pi, 1e-8, "jacobi vs plain gmres");
    assert_agree(&pc.pi, &power.pi, 1e-8, "jacobi gmres vs power");
    assert!(
        pc.iterations <= plain.iterations,
        "jacobi scaling must not cost matvecs on a stiff table: {} vs {}",
        pc.iterations,
        plain.iterations
    );
}

/// GTH exactness anchor at a size where `O(n³)` is still affordable:
/// the iterative solvers must reproduce it.
#[test]
fn gth_anchor_mid_size() {
    let c = random_irreducible(500, 2, 17);
    let gth = c.stationary_gth();
    let gs = c.stationary_gauss_seidel(1e-15, 50_000);
    let power = c.stationary_power(1e-14, 500_000);
    assert!(c.stationarity_residual(&gth) < 1e-12);
    assert_agree(&gth, &gs, 1e-8, "gth vs gs n=500");
    assert_agree(&gth, &power, 1e-8, "gth vs power n=500");
}

/// Dense chains stay on the GTH path of `stationary()` and must match
/// Gauss–Seidel run explicitly.
#[test]
fn dense_chain_auto_matches_gs() {
    // 60 states, ~45 targets each: nnz > n²/4 → the dense GTH branch.
    let n = 60;
    let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    let mut x = 99u64;
    for (i, row) in rows.iter_mut().enumerate() {
        for j in 0..n {
            if i == j {
                continue;
            }
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            if x >> 62 != 0 {
                row.push((j, ((x >> 33) as f64 / (1u64 << 31) as f64) + 0.1));
            }
        }
        if row.is_empty() {
            row.push(((i + 1) % n, 0.5));
        }
    }
    let c = Ctmc::new(rows);
    assert!(
        c.nnz() > n * n / 4,
        "test net must be dense (nnz {})",
        c.nnz()
    );
    let auto = c.stationary();
    let gs = c.stationary_gauss_seidel(1e-15, 50_000);
    assert_agree(&auto, &gs, 1e-8, "auto vs gs dense");
    assert!(c.stationarity_residual(&auto) < 1e-10);
}
