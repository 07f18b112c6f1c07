//! The replicated-communication *pattern* chain (Theorems 3 and 4).
//!
//! A communication column between teams of sizes `R_i` and `R_{i+1}` splits
//! into `g = gcd` connected components, each consisting of copies of a
//! `u × v` pattern with `u = R_i/g`, `v = R_{i+1}/g` **coprime**.  The
//! pattern is the event net of [`crate::net::comm_pattern`]; its reachable
//! markings are in bijection with pairs of Young-diagram staircases, giving
//! the closed-form state count
//!
//! ```text
//!   S(u, v) = C(u+v−1, u−1) · v
//! ```
//!
//! (proof of Theorem 3).  With homogeneous link rates `λ` the stationary
//! law is uniform and the pattern throughput has the closed form of
//! Theorem 4, `u·v·λ / (u+v−1)`; with heterogeneous rates the chain is
//! solved numerically ([`ChainCache::pattern_throughput`](crate::cache::ChainCache::pattern_throughput)).

use crate::marking::{MarkingError, MarkingGraph, MarkingOptions};
use crate::net::comm_pattern;
use repstream_petri::shape::gcd;
use repstream_stochastic::special::binomial_exact;

/// Closed-form number of reachable pattern markings,
/// `S(u,v) = C(u+v−1, u−1) · v` (requires `gcd(u,v) = 1`).
pub fn state_count(u: usize, v: usize) -> u128 {
    assert!(gcd(u, v) == 1, "pattern dimensions must be coprime");
    binomial_exact((u + v - 1) as u64, (u - 1) as u64) * v as u128
}

/// Theorem 4's closed-form inner throughput of a homogeneous pattern:
/// `u·v·λ/(u+v−1)` data sets per time unit.
pub fn homogeneous_throughput(u: usize, v: usize, lambda: f64) -> f64 {
    assert!(gcd(u, v) == 1, "pattern dimensions must be coprime");
    (u * v) as f64 * lambda / (u + v - 1) as f64
}

/// Enumerated state count (BFS ground truth for [`state_count`]).
pub fn enumerated_state_count(u: usize, v: usize) -> Result<usize, MarkingError> {
    let net = comm_pattern(u, v, |_, _| 1.0);
    let mg = MarkingGraph::build(
        &net,
        MarkingOptions {
            max_states: 1 << 22,
            capacity: None,
            ..Default::default()
        },
    )?;
    Ok(mg.n_states())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ChainCache;

    #[test]
    fn state_count_formula_matches_enumeration() {
        // The heart of Theorem 3's combinatorics.
        for (u, v) in [
            (1, 1),
            (1, 2),
            (2, 1),
            (1, 5),
            (2, 3),
            (3, 2),
            (2, 5),
            (3, 4),
            (4, 3),
            (3, 5),
            (4, 5),
            (5, 4),
        ] {
            let formula = state_count(u, v);
            let bfs = enumerated_state_count(u, v).unwrap() as u128;
            assert_eq!(formula, bfs, "S({u},{v})");
        }
    }

    #[test]
    fn state_count_examples() {
        // S(u,v) = C(u+v−1,u−1)·v.
        assert_eq!(state_count(1, 1), 1);
        assert_eq!(state_count(2, 3), 12); // C(4,1)·3
        assert_eq!(state_count(9, 7), binomial_exact(15, 8) * 7);
    }

    #[test]
    fn homogeneous_stationary_law_is_uniform() {
        // Theorem 4's proof: each state has as many predecessors as
        // successors and all rates are equal, so π is uniform.
        let net = comm_pattern(3, 4, |_, _| 2.0);
        let mg = MarkingGraph::build(&net, MarkingOptions::default()).unwrap();
        let pi = mg.ctmc_with_trans_rates(&net.rates).stationary();
        let expect = 1.0 / mg.n_states() as f64;
        for (s, &p) in pi.iter().enumerate() {
            assert!((p - expect).abs() < 1e-10, "state {s}: {p} vs {expect}");
        }
    }

    #[test]
    fn closed_form_matches_ctmc_solution() {
        for (u, v) in [(1, 1), (1, 3), (2, 3), (3, 4), (2, 5), (4, 5)] {
            for lambda in [0.5, 1.0, 3.0] {
                let rate = vec![vec![lambda; v]; u];
                let solved = ChainCache::new()
                    .pattern_throughput(&rate, 1 << 20)
                    .unwrap();
                let closed = homogeneous_throughput(u, v, lambda);
                assert!(
                    (solved - closed).abs() < 1e-9 * closed,
                    "({u},{v},λ={lambda}): {solved} vs {closed}"
                );
            }
        }
    }

    #[test]
    fn transpose_symmetry() {
        // Swapping senders and receivers cannot change the throughput.
        let rate = vec![vec![1.0, 2.0, 3.0], vec![0.5, 1.5, 2.5]];
        let t: Vec<Vec<f64>> = (0..3)
            .map(|b| (0..2).map(|a| rate[a][b]).collect())
            .collect();
        let a = ChainCache::new()
            .pattern_throughput(&rate, 1 << 20)
            .unwrap();
        let b = ChainCache::new().pattern_throughput(&t, 1 << 20).unwrap();
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn heterogeneous_below_homogeneous_with_max_rate() {
        // Slower links can only hurt: throughput(rate matrix) ≤ closed
        // form at the maximum rate, ≥ at the minimum rate.
        let rate = vec![vec![1.0, 3.0], vec![2.0, 1.0], vec![1.5, 2.0]];
        let rho = ChainCache::new()
            .pattern_throughput(&rate, 1 << 20)
            .unwrap();
        let hi = homogeneous_throughput(3, 2, 3.0);
        let lo = homogeneous_throughput(3, 2, 1.0);
        assert!(
            rho <= hi + 1e-12 && rho >= lo - 1e-12,
            "{lo} ≤ {rho} ≤ {hi}"
        );
    }

    #[test]
    #[should_panic(expected = "coprime")]
    fn non_coprime_rejected() {
        state_count(2, 4);
    }

    #[test]
    fn exponential_halves_deterministic_symmetric_pattern() {
        // §7.5: the det/exp ratio is max(u,v)/(u+v−1); for u = v(=1 after
        // reduction by g)… use (u,v)=(3,4): exp = 12λ/6 = 2λ, det = 3λ.
        let rho = homogeneous_throughput(3, 4, 1.0);
        assert!((rho - 2.0).abs() < 1e-12);
        let det = 3.0; // min(u,v)·λ
        assert!((rho / det - 4.0 / 6.0).abs() < 1e-12); // max(u,v)/(u+v−1)
    }
}
