//! Canonical markings under a place permutation.
//!
//! The row-rotation automorphism of a [`Tpn`](crate::tpn::Tpn) (see
//! [`Tpn::row_rotation`](crate::tpn::Tpn::row_rotation)) generates a
//! cyclic group acting on the markings of the net: marking `M` maps to
//! `σ(M)` with `σ(M)[place_perm[p]] = M[p]`.  Two markings in one orbit
//! are exchangeable — in the homogeneous exponential setting they carry
//! equal stationary probability — so a reachability analysis only needs
//! **one representative per orbit**.
//!
//! [`MarkingCanonicalizer`] computes the canonical form of a marking —
//! the lexicographically smallest member of its orbit — together with the
//! orbit's size (the period of the marking under `σ`).  The canonical
//! form is a pure *interning key*: consumers deduplicate orbits by it
//! without ever materializing the other members.
//!
//! The canonicalization loop applies `σ` repeatedly and stops at the
//! marking's period (the first `a > 0` with `σ^a(M) = M`), so the cost is
//! `O(period · n_places)` — not `O(order · n_places)` — per call.

/// Reusable canonicalization buffers: the canonical-form output plus the
/// two ping-pong scratch vectors of [`MarkingCanonicalizer::
/// canonicalize_marking`], bundled so consumers hold **one scratch per
/// BFS — or one per worker thread of a chunk-parallel BFS** — and the
/// hot path stays allocation-free.  The canonicalizer itself is shared
/// (`&self`); all mutable state lives here.
#[derive(Debug, Clone)]
pub struct CanonScratch {
    out: Vec<u8>,
    a: Vec<u8>,
    b: Vec<u8>,
}

impl CanonScratch {
    /// Buffers for markings of `n_places` places.
    pub fn new(n_places: usize) -> CanonScratch {
        CanonScratch {
            out: vec![0; n_places],
            a: vec![0; n_places],
            b: vec![0; n_places],
        }
    }

    /// The canonical form left by the last
    /// [`MarkingCanonicalizer::canonicalize_into`] call.
    pub fn key(&self) -> &[u8] {
        &self.out
    }
}

/// Canonicalizes markings under the cyclic group generated by one place
/// permutation.  Built from the `place_perm` of a structural automorphism
/// (e.g. [`crate::tpn::TpnAutomorphism::place_perm`]).
#[derive(Debug, Clone)]
pub struct MarkingCanonicalizer {
    /// Image of every place under one application of `σ`.
    perm: Vec<u32>,
    /// Order of `σ` (lcm of its cycle lengths); every orbit period
    /// divides it.
    order: u32,
}

impl MarkingCanonicalizer {
    /// Build from the image vector of a place permutation.  Returns
    /// `None` when `place_perm` is not a permutation of `0..len`.
    pub fn new(place_perm: &[usize]) -> Option<MarkingCanonicalizer> {
        let n = place_perm.len();
        let mut seen = vec![false; n];
        for &img in place_perm {
            if img >= n || seen[img] {
                return None;
            }
            seen[img] = true;
        }
        // Order = lcm of cycle lengths.
        let mut order = 1u64;
        let mut visited = vec![false; n];
        for start in 0..n {
            if visited[start] {
                continue;
            }
            let mut len = 0u64;
            let mut p = start;
            while !visited[p] {
                visited[p] = true;
                p = place_perm[p];
                len += 1;
            }
            order = crate::shape::lcm(order as usize, len as usize) as u64;
        }
        Some(MarkingCanonicalizer {
            perm: place_perm.iter().map(|&p| p as u32).collect(),
            order: u32::try_from(order.max(1)).ok()?,
        })
    }

    /// Number of places the permutation acts on.
    pub fn n_places(&self) -> usize {
        self.perm.len()
    }

    /// Order of the permutation (every orbit period divides it).
    pub fn order(&self) -> u32 {
        self.order
    }

    /// `true` when the permutation is the identity (`m = 1`): every
    /// marking is its own orbit and canonicalization is a no-op.
    pub fn is_identity(&self) -> bool {
        self.order == 1
    }

    /// Canonical form of `marking` into `out`, returning the orbit
    /// period (number of distinct markings in the orbit).  `out` and the
    /// two scratch buffers must each hold `n_places` bytes; the scratch
    /// contents are clobbered.  Allocation-free: callers reuse the
    /// buffers across a BFS.
    ///
    /// # Panics
    /// Panics if any buffer length differs from [`Self::n_places`].
    pub fn canonicalize_marking(
        &self,
        marking: &[u8],
        out: &mut [u8],
        scratch_a: &mut [u8],
        scratch_b: &mut [u8],
    ) -> u32 {
        let n = self.perm.len();
        assert_eq!(marking.len(), n, "marking width mismatch");
        assert_eq!(out.len(), n, "out width mismatch");
        assert_eq!(scratch_a.len(), n, "scratch width mismatch");
        assert_eq!(scratch_b.len(), n, "scratch width mismatch");
        out.copy_from_slice(marking);
        if self.order == 1 {
            return 1;
        }
        // Ping-pong `σ^a(M)` between the scratch buffers, tracking the
        // lexicographic minimum in `out`; stop at the period.
        let (mut cur, mut next) = (scratch_a, scratch_b);
        cur.copy_from_slice(marking);
        let mut period = self.order;
        for a in 1..=self.order {
            for (p, &img) in self.perm.iter().enumerate() {
                next[img as usize] = cur[p];
            }
            if next as &[u8] == marking {
                period = a;
                break;
            }
            if next as &[u8] < out as &[u8] {
                out.copy_from_slice(next);
            }
            std::mem::swap(&mut cur, &mut next);
        }
        period
    }

    /// As [`Self::canonicalize_marking`] with the three buffers bundled
    /// in a [`CanonScratch`] (one per consumer thread): the orbit period
    /// is returned and the canonical key is left in
    /// [`CanonScratch::key`].
    pub fn canonicalize_into(&self, marking: &[u8], scratch: &mut CanonScratch) -> u32 {
        let CanonScratch { out, a, b } = scratch;
        self.canonicalize_marking(marking, out, a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canon_bytes(c: &MarkingCanonicalizer, m: &[u8]) -> (Vec<u8>, u32) {
        let n = c.n_places();
        let mut out = vec![0u8; n];
        let (mut a, mut b) = (vec![0u8; n], vec![0u8; n]);
        let period = c.canonicalize_marking(m, &mut out, &mut a, &mut b);
        (out, period)
    }

    #[test]
    fn rejects_non_permutations() {
        assert!(MarkingCanonicalizer::new(&[0, 0, 1]).is_none());
        assert!(MarkingCanonicalizer::new(&[0, 3]).is_none());
        assert!(MarkingCanonicalizer::new(&[]).is_some());
    }

    #[test]
    fn identity_is_a_no_op() {
        let c = MarkingCanonicalizer::new(&[0, 1, 2]).unwrap();
        assert!(c.is_identity());
        let (out, period) = canon_bytes(&c, &[3, 1, 2]);
        assert_eq!(out, vec![3, 1, 2]);
        assert_eq!(period, 1);
    }

    #[test]
    fn rotation_elects_lexicographic_minimum() {
        // σ = cyclic shift of 4 places: orbit of [1,0,0,2] is its four
        // rotations; the lexicographically smallest is [0,0,2,1].
        let c = MarkingCanonicalizer::new(&[1, 2, 3, 0]).unwrap();
        assert_eq!(c.order(), 4);
        let (out, period) = canon_bytes(&c, &[1, 0, 0, 2]);
        assert_eq!(out, vec![0, 0, 2, 1]);
        assert_eq!(period, 4);
        // Every orbit member canonicalizes to the same form.
        for m in [[0, 0, 2, 1], [0, 2, 1, 0], [2, 1, 0, 0]] {
            assert_eq!(canon_bytes(&c, &m).0, vec![0, 0, 2, 1]);
        }
    }

    #[test]
    fn period_divides_order() {
        // [1,0,1,0] has period 2 under the 4-cycle.
        let c = MarkingCanonicalizer::new(&[1, 2, 3, 0]).unwrap();
        let (out, period) = canon_bytes(&c, &[1, 0, 1, 0]);
        assert_eq!(period, 2);
        assert_eq!(out, vec![0, 1, 0, 1]);
        // The fully symmetric marking is a fixed point.
        assert_eq!(canon_bytes(&c, &[1, 1, 1, 1]), (vec![1, 1, 1, 1], 1));
    }

    #[test]
    fn order_is_lcm_of_cycles() {
        // A 2-cycle and a 3-cycle: order 6.
        let c = MarkingCanonicalizer::new(&[1, 0, 3, 4, 2]).unwrap();
        assert_eq!(c.order(), 6);
        let (_, period) = canon_bytes(&c, &[1, 0, 1, 0, 0]);
        assert_eq!(period, 6);
    }
}
