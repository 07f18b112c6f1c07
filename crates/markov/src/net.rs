//! Minimal event nets for marking analysis.
//!
//! [`EventNet`] keeps exactly what the marking BFS needs: transitions with
//! rates, and places `(src, dst, tokens)` with the event-graph property
//! (single producer, single consumer).  Two constructors cover the paper:
//! [`EventNet::from_tpn`] adapts a full pipeline TPN (Theorem 2), and
//! [`comm_pattern`] builds the `u × v` replicated-communication pattern of
//! Theorem 3.

use repstream_petri::shape::ResourceTable;
use repstream_petri::tpn::Tpn;

/// A **rate-preserving automorphism** of an [`EventNet`]: permutations of
/// the transitions and places that map the net onto itself (each place's
/// endpoints follow the transition permutation) with *exactly* equal
/// firing rates along every transition orbit.  Initial markings need not
/// be invariant: the test oracle's orbit partition of the full marking
/// graph checks that the permuted markings stay inside the reachable set,
/// which is what makes the induced state permutation a CTMC automorphism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetSymmetry {
    /// Image of every transition.
    pub trans_perm: Vec<usize>,
    /// Image of every place.
    pub place_perm: Vec<usize>,
}

/// A timed event net with exponential firing rates.
#[derive(Debug, Clone)]
pub struct EventNet {
    /// Firing rate `λ_t` of every transition.
    pub rates: Vec<f64>,
    /// Places as `(src_transition, dst_transition, initial_tokens)`.
    pub places: Vec<(usize, usize, u32)>,
    in_places: Vec<Vec<usize>>,
    out_places: Vec<Vec<usize>>,
}

impl EventNet {
    /// Build from rates and places.
    ///
    /// # Panics
    /// Panics on dangling transition indices or non-positive rates.
    pub fn new(rates: Vec<f64>, places: Vec<(usize, usize, u32)>) -> Self {
        let nt = rates.len();
        assert!(rates.iter().all(|&r| r > 0.0), "rates must be positive");
        let mut in_places = vec![Vec::new(); nt];
        let mut out_places = vec![Vec::new(); nt];
        for (pid, &(s, d, _)) in places.iter().enumerate() {
            assert!(s < nt && d < nt, "place endpoint out of range");
            out_places[s].push(pid);
            in_places[d].push(pid);
        }
        EventNet {
            rates,
            places,
            in_places,
            out_places,
        }
    }

    /// Number of transitions.
    pub fn n_transitions(&self) -> usize {
        self.rates.len()
    }

    /// Number of places.
    pub fn n_places(&self) -> usize {
        self.places.len()
    }

    /// Places consumed by transition `t`.
    pub fn inputs(&self, t: usize) -> &[usize] {
        &self.in_places[t]
    }

    /// Places produced by transition `t`.
    pub fn outputs(&self, t: usize) -> &[usize] {
        &self.out_places[t]
    }

    /// The initial marking as a byte vector (tokens per place).
    ///
    /// # Panics
    /// Panics if a place starts with more than 255 tokens.  The marking
    /// builders do not go through here: they validate the counts and
    /// return [`crate::marking::MarkingError::CapacityTooLarge`].
    pub fn initial_marking(&self) -> Vec<u8> {
        self.places
            .iter()
            .map(|&(_, _, t)| match u8::try_from(t) {
                Ok(b) => b,
                Err(_) => panic!("initial marking {t} exceeds u8"),
            })
            .collect()
    }

    /// Adapt a pipeline TPN: rates come from the per-resource exponential
    /// rates table (`rate = 1 / mean time`).
    pub fn from_tpn(tpn: &Tpn, rates: &ResourceTable<f64>) -> Self {
        let trans_rates: Vec<f64> = tpn
            .transitions()
            .iter()
            .map(|t| *rates.get(t.resource))
            .collect();
        let places = tpn
            .places()
            .iter()
            .map(|p| (p.src, p.dst, p.tokens))
            .collect();
        EventNet::new(trans_rates, places)
    }

    /// As [`EventNet::from_tpn`], also deriving the row-rotation
    /// [`NetSymmetry`] when it preserves the rates — i.e. in the
    /// homogeneous exponential setting of Theorem 2, where each stage's
    /// team and its links share one rate.  On a heterogeneous table the
    /// hint is refused (`None`) and callers analyse the full chain.
    pub fn from_tpn_with_symmetry(
        tpn: &Tpn,
        rates: &ResourceTable<f64>,
    ) -> (Self, Option<NetSymmetry>) {
        let net = EventNet::from_tpn(tpn, rates);
        let sym = tpn.row_rotation().map(|a| NetSymmetry {
            trans_perm: a.trans_perm,
            place_perm: a.place_perm,
        });
        let sym = sym.filter(|s| net.symmetry_valid(s));
        (net, sym)
    }

    /// Check that `sym` really is a rate-preserving automorphism of this
    /// net: the structural conditions of
    /// [`EventNet::symmetry_structural`] plus rates that are **bitwise
    /// equal** along each transition orbit (the homogeneous tables of
    /// Theorem 2 produce identical `f64`s; anything looser would let the
    /// quotient merge states that are not exactly exchangeable).
    pub fn symmetry_valid(&self, sym: &NetSymmetry) -> bool {
        self.symmetry_structural(sym) && rates_orbit_invariant(&self.rates, &sym.trans_perm)
    }

    /// The rate-free half of [`EventNet::symmetry_valid`]: both maps are
    /// permutations of the right length and every place's endpoints follow
    /// the transition permutation.  Structure caches validate this once
    /// per shape and re-check only the (cheap) rate invariance per
    /// candidate rate table — see [`rates_orbit_invariant`].
    pub fn symmetry_structural(&self, sym: &NetSymmetry) -> bool {
        let nt = self.n_transitions();
        let np = self.n_places();
        if sym.trans_perm.len() != nt || sym.place_perm.len() != np {
            return false;
        }
        let mut seen_t = vec![false; nt];
        for &img in sym.trans_perm.iter() {
            if img >= nt || seen_t[img] {
                return false;
            }
            seen_t[img] = true;
        }
        let mut seen_p = vec![false; np];
        for (p, &img) in sym.place_perm.iter().enumerate() {
            if img >= np || seen_p[img] {
                return false;
            }
            seen_p[img] = true;
            let (s, d, _) = self.places[p];
            let (si, di, _) = self.places[img];
            if si != sym.trans_perm[s] || di != sym.trans_perm[d] {
                return false;
            }
        }
        true
    }
}

/// `true` when `rates` is **bitwise** invariant under the transition
/// permutation `perm` (`rates[t] == rates[perm[t]]` for every `t`) — the
/// rate half of [`EventNet::symmetry_valid`], exposed so chain caches can
/// re-validate a structurally cached symmetry against each candidate's
/// rate table without rebuilding the net.
///
/// # Panics
/// Panics if `perm` indexes outside `rates` (callers validate the
/// structural half first).
pub fn rates_orbit_invariant(rates: &[f64], perm: &[usize]) -> bool {
    rates.len() == perm.len() && (0..rates.len()).all(|t| rates[t] == rates[perm[t]])
}

/// The `u × v` communication pattern of Theorem 3 (`gcd(u, v) = 1`):
/// `u` senders and `v` receivers serving `u·v` pattern rows round-robin.
///
/// Pattern row `k` (`0 ≤ k < u·v`) is the transfer from sender `k mod u`
/// to receiver `k mod v` — by the Chinese remainder theorem every
/// (sender, receiver) pair occurs exactly once.  One-port constraints make
/// row `k` wait for row `k − u` (same sender) and row `k − v` (same
/// receiver); the wrap-around places (into each port's first row) carry
/// the initial tokens.  Note the *true* round-robin pairing is used:
/// sender `a`'s `t`-th send goes to receiver `(a + t·u) mod v`, and rows
/// `0 … min(u,v)−1` can all start in parallel initially — this matters
/// for heterogeneous link rates.
///
/// `rate(a, b)` gives the exponential rate of the link from sender `a` to
/// receiver `b`.  Transition `k` is pattern row `k`.
pub fn comm_pattern(u: usize, v: usize, mut rate: impl FnMut(usize, usize) -> f64) -> EventNet {
    assert!(u >= 1 && v >= 1);
    let n = u * v;
    let rates: Vec<f64> = (0..n).map(|k| rate(k % u, k % v)).collect();
    let mut places = Vec::with_capacity(2 * n);
    // Sender one-port cycles: row k → row k + u (wrap with token).
    for k in 0..n {
        places.push((k, (k + u) % n, u32::from(k + u >= n)));
    }
    // Receiver one-port cycles: row k → row k + v (wrap with token).
    for k in 0..n {
        places.push((k, (k + v) % n, u32::from(k + v >= n)));
    }
    EventNet::new(rates, places)
}

/// The (sender, receiver) pair of each pattern row, in row order.
pub fn pattern_rows(u: usize, v: usize) -> Vec<(usize, usize)> {
    (0..u * v).map(|k| (k % u, k % v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use repstream_petri::shape::{ExecModel, MappingShape};

    #[test]
    fn pattern_dimensions() {
        let net = comm_pattern(3, 4, |_, _| 1.0);
        assert_eq!(net.n_transitions(), 12);
        assert_eq!(net.n_places(), 24);
        // Degenerate 1×1: one transition, two self-loop places with tokens.
        let net = comm_pattern(1, 1, |_, _| 2.0);
        assert_eq!(net.n_transitions(), 1);
        assert_eq!(net.initial_marking(), vec![1, 1]);
    }

    #[test]
    fn pattern_initially_parallel_prefix_enabled() {
        // Rows 0 … min(u,v)−1 involve distinct senders and receivers and
        // can all start at time zero.
        let net = comm_pattern(2, 3, |_, _| 1.0);
        let m = net.initial_marking();
        let enabled: Vec<usize> = (0..net.n_transitions())
            .filter(|&t| net.inputs(t).iter().all(|&p| m[p] > 0))
            .collect();
        assert_eq!(enabled, vec![0, 1], "rows 0 and 1 start in parallel");
    }

    #[test]
    fn pattern_rows_cover_all_pairs() {
        let rows = pattern_rows(3, 5);
        let set: std::collections::HashSet<_> = rows.iter().copied().collect();
        assert_eq!(set.len(), 15, "CRT: every pair occurs exactly once");
        assert_eq!(rows[0], (0, 0));
        assert_eq!(rows[7], (1, 2));
    }

    #[test]
    fn from_tpn_roundtrip() {
        let shape = MappingShape::new(vec![1, 2]);
        let tpn = Tpn::build(&shape, ExecModel::Strict);
        let rates = ResourceTable::from_fns(&shape, |_, _| 0.5, |_, _, _| 2.0);
        let net = EventNet::from_tpn(&tpn, &rates);
        assert_eq!(net.n_transitions(), tpn.transitions().len());
        assert_eq!(net.n_places(), tpn.places().len());
        // Compute transitions carry the processor rate.
        assert_eq!(net.rates[tpn.trans_id(0, 0)], 0.5);
        assert_eq!(net.rates[tpn.trans_id(0, 1)], 2.0);
    }

    #[test]
    #[should_panic(expected = "rates must be positive")]
    fn zero_rate_rejected() {
        EventNet::new(vec![0.0], vec![(0, 0, 1)]);
    }
}
