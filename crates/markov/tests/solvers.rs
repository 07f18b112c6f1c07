//! Cross-solver property tests: GTH, uniformized power iteration and
//! Gauss–Seidel must agree on random irreducible chains, including sizes
//! that bracket the auto-selection thresholds of `Ctmc::stationary` (GTH
//! below ~32 states, Gauss–Seidel with a power fallback above), and on
//! real Theorem 2 quotient chains under stiff rate tables.

use proptest::prelude::*;
use repstream_markov::ctmc::{Ctmc, Solver, SolverChoice};
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
/// Gauss–Seidel, power and the auto-selected solver agree to 1e-8 with residuals below 1e-10.  GTH is `O(n³)` and
/// checked separately at one size as the exactness anchor.
#[test]
fn large_sparse_chains_agree() {
    for (n, extra, seed) in [(1000, 2, 7u64), (2000, 2, 11), (2000, 3, 13)] {
        let c = random_irreducible(n, extra, seed);
        let gs = c.stationary_gauss_seidel(1e-15, 50_000);
        let power = c.stationary_power(1e-14, 500_000);
        let auto = c.stationary();
        for (name, pi) in [("gs", &gs), ("power", &power), ("auto", &auto)] {
            assert!(
                c.stationarity_residual(pi) < 1e-10,
                "{name} residual at n={n}"
            );
        }
        assert_agree(&gs, &power, 1e-8, &format!("gs vs power n={n}"));
        assert_agree(&gs, &auto, 1e-8, &format!("gs vs auto n={n}"));
    }
}

/// The automatic plan on a real Theorem 2 quotient chain — the direct
/// quotient of a homogeneous Strict TPN with every compute rate `compute`
/// and every link rate `link`.  The plan must finish on Gauss–Seidel (no
/// power fallback fired), meet the 1e-10 residual contract, and reproduce
/// forced power iteration to 1e-8 per state and 1e-8 relative in
/// throughput.  Its answer must also conserve flow: every data set
/// crosses every TPN column once, so each column's summed firing rate
/// equals the last column's (the throughput) to 1e-12 relative — on a
/// quotient too, since a column is closed under the row rotation.
fn assert_plan_agrees_with_power(cases: &[(&[usize], f64, f64)]) {
    for &(teams, compute, link) in cases {
        let shape = MappingShape::new(teams.to_vec());
        let tpn = Tpn::build(&shape, ExecModel::Strict);
        let rates = ResourceTable::from_fns(&shape, |_, _| compute, |_, _, _| link);
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
        let what = format!("{teams:?} compute {compute} link {link} (n={n})");
        let (rho_auto, auto) = qg.throughput_solve(c, &net.rates, &last, SolverChoice::Auto);
        assert_eq!(auto.solver, Solver::GaussSeidel, "fallback fired on {what}");
        assert!(
            auto.residual < 1e-10,
            "residual {:.3e} on {what}",
            auto.residual
        );
        let fire = qg.firing_rates_with(&net.rates, &auto.pi);
        let column = |col| {
            (0..tpn.rows())
                .map(|r| fire[tpn.trans_id(r, col)])
                .sum::<f64>()
        };
        let out = column(tpn.cols() - 1);
        for col in 0..tpn.cols() {
            let rate = column(col);
            assert!(
                (rate - out).abs() <= 1e-12 * out,
                "column {col} fires at {rate}, the last column at {out}, on {what}"
            );
        }
        let (rho_power, power) =
            qg.throughput_solve(c, &net.rates, &last, SolverChoice::Force(Solver::Power));
        assert_eq!(
            power.solver,
            Solver::Power,
            "force must run what was forced"
        );
        assert_agree(
            &auto.pi,
            &power.pi,
            1e-8,
            &format!("plan vs power on {what}"),
        );
        assert!(
            (rho_auto - rho_power).abs() <= 1e-8 * rho_power.abs(),
            "plan throughput {rho_auto} vs power {rho_power} on {what}"
        );
    }
}

/// Balanced tables (compute 0.5, links 2.0) on the 4×5 and 5×6 quotients.
#[test]
fn plan_agrees_with_power_on_balanced_quotients() {
    assert_plan_agrees_with_power(&[(&[4, 5], 0.5, 2.0), (&[5, 6], 0.5, 2.0)]);
}

/// Stiff tables on the 4×5 and 5×6 quotients: links 150× faster than
/// compute, and links 100× slower.  On 5×6 at 3.0 / 0.03 the column
/// spread of an unconverged iterate under-reads ρ's error by 60–330×, so
/// the tie to forced power is what checks the answer there.
#[test]
fn plan_agrees_with_power_on_stiff_quotients() {
    assert_plan_agrees_with_power(&[
        (&[4, 5], 0.04, 6.0),
        (&[4, 5], 3.0, 0.03),
        (&[5, 6], 0.04, 6.0),
        (&[5, 6], 3.0, 0.03),
    ]);
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
