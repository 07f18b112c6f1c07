//! Exact ordinary lumping (symmetry reduction) of CTMCs.
//!
//! The Theorem 2 chain is built on the marking graph of a TPN whose row
//! count is `m = lcm(R_1, …, R_N)`, so the state space explodes
//! combinatorially long before any solver becomes the bottleneck.  When the
//! mapping is *homogeneous* (every slot of a team runs at one rate and
//! every link of a file at one rate), the TPN's row-rotation automorphism
//! induces a rate-preserving permutation of the reachable markings, and the
//! chain can be collapsed **exactly** onto its symmetry classes before
//! solving.
//!
//! # Lumpability criterion
//!
//! A partition `P = {B_1, …, B_k}` of the states is **ordinarily lumpable**
//! when for every pair of blocks `B ≠ C` the total rate into `C` is the
//! same from every state of `B`:
//!
//! ```text
//!   ∀ B, C ∈ P, B ≠ C, ∀ s, s' ∈ B:   Σ_{j ∈ C} q(s, j) = Σ_{j ∈ C} q(s', j)
//! ```
//!
//! The aggregated process over the blocks is then itself a CTMC with
//! `q̂(B, C)` equal to that common value, and its stationary vector
//! aggregates the full one: `π̂(B) = Σ_{s ∈ B} π(s)` (Kemeny–Snell;
//! Buchholz 1994 for the CTMC form).
//!
//! # The algorithm
//!
//! [`coarsest_refinement`] computes the **coarsest ordinarily lumpable
//! partition that refines a seed partition** by splitter-based partition
//! refinement in the style of Derisavi, Hermanns & Sanders ("Optimal
//! state-space lumping in Markov chains", IPL 2003): a worklist of
//! splitter blocks; for each splitter `C`, every block is split by the
//! per-state rate into `C` (computed through the incoming adjacency of
//! `C`'s members, so one splitter costs `O(in-degree of C)`).  Whenever a
//! block's membership changes, all of its fragments are re-enqueued, which
//! makes the termination state stable against *every* final block.
//!
//! # Seed-partition contract and lift semantics
//!
//! The quotient/aggregation identity above holds for any lumpable
//! partition, but recovering the **per-state** stationary probabilities
//! needs more: [`Lift::lift`] spreads each block's mass uniformly,
//! `π(s) = π̂(B(s)) / |B(s)|`, which is exact precisely when every block is
//! contained in one orbit of a rate-preserving automorphism group of the
//! chain (states related by an automorphism have equal stationary
//! probability, and refinement only ever *splits* the seed blocks, so
//! orbit-seeded refinements keep every block inside an orbit).  Callers
//! that seed from anything other than automorphism orbits must use
//! [`Lift::aggregate`]-level quantities only — per-block sums are always
//! exact, uniform per-state spreading is not.
//!
//! The canonical producer of orbit seeds is
//! [`crate::marking::MarkingGraph::orbit_partition`], fed by the TPN
//! row-rotation automorphism of `repstream_petri::tpn::Tpn::row_rotation`.
//!
//! # Full-then-lump vs direct construction
//!
//! This module is the *full-then-lump* pipeline: build the full chain,
//! propagate the orbit seed, refine, quotient.  When the automorphism is
//! known **up front** (the validated row-rotation of a homogeneous Strict
//! TPN), [`crate::marking::QuotientGraph`] builds the very same quotient
//! chain directly — one canonical representative per orbit, never
//! materializing the full graph — and [`Ctmc::quotient`] is deliberately
//! arranged (first-member rows, first-hit edge order) so the two paths
//! agree bit for bit.  Full-then-lump remains the fallback for hints that
//! cannot be pre-validated and the oracle the property tests compare
//! against.

use crate::ctmc::{unlimited, CsrBuilder, Ctmc, SolveReport, SolverChoice};
use crate::govern::{Budget, Interrupt};

/// A partition of `0..n` states into contiguous-numbered blocks.
///
/// Blocks are numbered `0..n_blocks` in order of first appearance by state
/// index, so two `Partition`s over the same state set compare equal iff
/// they group the states identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Block id of every state.
    block_of: Vec<u32>,
    /// Number of blocks.
    n_blocks: usize,
}

impl Partition {
    /// The coarsest partition: every state in one block.
    pub fn trivial(n: usize) -> Self {
        assert!(n > 0, "partition of an empty state set");
        Partition {
            block_of: vec![0; n],
            n_blocks: 1,
        }
    }

    /// Build from arbitrary per-state labels (normalized to dense block
    /// ids in order of first appearance).
    pub fn from_labels(labels: &[u32]) -> Self {
        assert!(!labels.is_empty(), "partition of an empty state set");
        let max = labels.iter().max().map_or(0, |&m| m as usize);
        // Dense remap when the label range is comparable to the state
        // count (always the case for the refinement's internal block
        // ids); a hash map only for pathological sparse label sets.
        if max < labels.len().saturating_mul(4).max(1024) {
            let mut remap = vec![u32::MAX; max + 1];
            let mut n_blocks = 0u32;
            let block_of = labels
                .iter()
                .map(|&l| {
                    let slot = &mut remap[l as usize];
                    if *slot == u32::MAX {
                        *slot = n_blocks;
                        n_blocks += 1;
                    }
                    *slot
                })
                .collect();
            return Partition {
                block_of,
                n_blocks: n_blocks as usize,
            };
        }
        let mut remap: std::collections::HashMap<u32, u32> = Default::default();
        let mut block_of = Vec::with_capacity(labels.len());
        for &l in labels {
            let next = remap.len() as u32;
            block_of.push(*remap.entry(l).or_insert(next));
        }
        let n_blocks = remap.len();
        Partition { block_of, n_blocks }
    }

    /// Orbits of a permutation `perm` of `0..n` (each cycle of the
    /// permutation becomes one block).  This is the orbit partition of the
    /// cyclic group generated by `perm`, i.e. a valid automorphism-orbit
    /// seed whenever `perm` is a rate-preserving automorphism of the chain.
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..n`.
    pub fn from_permutation_orbits(perm: &[u32]) -> Self {
        let n = perm.len();
        assert!(n > 0, "partition of an empty state set");
        let mut block_of = vec![u32::MAX; n];
        let mut n_blocks = 0u32;
        for start in 0..n {
            if block_of[start] != u32::MAX {
                continue;
            }
            let mut s = start;
            loop {
                assert!(
                    block_of[s] == u32::MAX,
                    "perm is not a permutation (state {s} reached twice)"
                );
                block_of[s] = n_blocks;
                s = perm[s] as usize;
                assert!(s < n, "perm maps outside 0..{n}");
                if s == start {
                    break;
                }
            }
            n_blocks += 1;
        }
        Partition {
            block_of,
            n_blocks: n_blocks as usize,
        }
    }

    /// Number of states partitioned.
    pub fn n_states(&self) -> usize {
        self.block_of.len()
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.n_blocks
    }

    /// Block id of state `s`.
    #[inline]
    pub fn block_of(&self, s: usize) -> usize {
        self.block_of[s] as usize
    }

    /// `true` when every state is its own block (no reduction).
    pub fn is_discrete(&self) -> bool {
        self.n_blocks == self.block_of.len()
    }

    /// `true` when `self` refines `other` (every block of `self` is
    /// contained in a block of `other`; both over the same state count).
    pub fn refines(&self, other: &Partition) -> bool {
        if self.n_states() != other.n_states() {
            return false;
        }
        // Two states in one self-block must share their other-block.
        let mut rep = vec![u32::MAX; self.n_blocks];
        for s in 0..self.n_states() {
            let b = self.block_of[s] as usize;
            if rep[b] == u32::MAX {
                rep[b] = other.block_of[s];
            } else if rep[b] != other.block_of[s] {
                return false;
            }
        }
        true
    }

    /// Member lists per block, in state order.
    pub fn blocks(&self) -> Vec<Vec<u32>> {
        let mut blocks = vec![Vec::new(); self.n_blocks];
        for (s, &b) in self.block_of.iter().enumerate() {
            blocks[b as usize].push(s as u32);
        }
        blocks
    }
}

/// Relative tolerance used to group per-state splitter rates: two rates
/// `a ≤ b` land in one group when `b − a ≤ RATE_RTOL · max(|a|, |b|)`.
/// Symmetric chains produce bitwise-identical sums, so this only absorbs
/// benign summation-order noise; it is far below the 1e-8 agreement the
/// property tests demand.
const RATE_RTOL: f64 = 1e-12;

/// The coarsest ordinarily lumpable partition of `c` refining `seed`
/// (splitter-based partition refinement; see the module docs).
///
/// # Panics
/// Panics if `seed` does not cover exactly the states of `c`.
pub fn coarsest_refinement(c: &Ctmc, seed: &Partition) -> Partition {
    let n = c.n_states();
    assert_eq!(seed.n_states(), n, "seed partition size mismatch");

    // Mutable partition state: member lists + block id per state.
    let mut members: Vec<Vec<u32>> = seed.blocks();
    let mut block_of: Vec<u32> = seed.block_of.clone();

    let mut worklist: std::collections::VecDeque<u32> = (0..members.len() as u32).collect();
    let mut queued = vec![true; members.len()];

    // Scratch: per-state rate into the current splitter + touched states.
    let mut w = vec![0.0f64; n];
    let mut touched: Vec<u32> = Vec::new();
    // Scratch for block-bucket grouping of the touched states (replaces a
    // per-splitter sort; indexed by block id, grown on splits).
    let mut bucket: Vec<Vec<u32>> = vec![Vec::new(); members.len()];
    let mut touched_blocks: Vec<u32> = Vec::new();
    // Scratch for the grouping step: (weight, state) pairs of one block.
    let mut pairs: Vec<(f64, u32)> = Vec::new();

    while let Some(splitter) = worklist.pop_front() {
        queued[splitter as usize] = false;
        // Rate of every predecessor state into the splitter block.
        touched.clear();
        for &member in &members[splitter as usize] {
            for (i, r) in c.in_edges(member as usize) {
                if w[i] == 0.0 {
                    touched.push(i as u32);
                }
                w[i] += r;
            }
        }
        if touched.is_empty() {
            continue;
        }

        // Group the touched states by their block (bucket scatter: O(t)).
        touched_blocks.clear();
        for &s in &touched {
            let b = block_of[s as usize];
            if bucket[b as usize].is_empty() {
                touched_blocks.push(b);
            }
            bucket[b as usize].push(s);
        }
        for &b in &touched_blocks {
            let in_block = std::mem::take(&mut bucket[b as usize]);
            // Ordinary lumpability only constrains rates *across* blocks:
            // the splitter's own members may disagree on their internal
            // rate into it, so the splitter never splits itself.
            if b == splitter {
                bucket[b as usize] = in_block; // return the allocation
                bucket[b as usize].clear();
                continue;
            }
            let block_len = members[b as usize].len();
            // A block splits when its members disagree on the rate into
            // the splitter.  Untouched members have rate 0.
            let untouched = block_len - in_block.len();
            pairs.clear();
            pairs.extend(in_block.iter().map(|&s| (w[s as usize], s)));
            {
                let mut recycled = in_block;
                recycled.clear();
                bucket[b as usize] = recycled;
            }
            pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            // Adjacent grouping over the sorted rates; the untouched
            // members form one extra (rate-0) group.
            let gap = |a: f64, b: f64| b - a > RATE_RTOL * a.abs().max(b.abs());
            let n_groups = usize::from(untouched > 0)
                + 1
                + pairs.windows(2).filter(|p| gap(p[0].0, p[1].0)).count();
            if n_groups <= 1 {
                continue;
            }

            // Split: the rate-0 (untouched) group keeps the old block id,
            // every other group gets a fresh id.  When there is no
            // untouched group the first sorted group keeps the old id.
            let mut changed: Vec<u32> = vec![b];
            if untouched > 0 {
                // Remove the touched members from the old block.
                members[b as usize].retain(|&s| w[s as usize] == 0.0);
            }
            let mut idx = 0;
            let mut first_group = untouched == 0;
            while idx < pairs.len() {
                let mut end = idx + 1;
                while end < pairs.len() && !gap(pairs[end - 1].0, pairs[end].0) {
                    end += 1;
                }
                if first_group {
                    // Keep the old id for this group.
                    members[b as usize] = pairs[idx..end].iter().map(|&(_, s)| s).collect();
                    first_group = false;
                } else {
                    let nb = members.len() as u32;
                    members.push(pairs[idx..end].iter().map(|&(_, s)| s).collect());
                    queued.push(false);
                    bucket.push(Vec::new());
                    for &(_, s) in &pairs[idx..end] {
                        block_of[s as usize] = nb;
                    }
                    changed.push(nb);
                }
                idx = end;
            }
            // Re-enqueue every fragment of the split block: the partition
            // is stable against a block only once it has been processed as
            // a splitter *after* its last membership change.
            for &cb in &changed {
                if !queued[cb as usize] {
                    queued[cb as usize] = true;
                    worklist.push_back(cb);
                }
            }
        }

        // Reset scratch for the next splitter.
        for &s in &touched {
            w[s as usize] = 0.0;
        }
    }

    // Renumber blocks densely in order of first appearance.
    Partition::from_labels(&block_of)
}

/// Verify ordinary lumpability of `p` for `c` directly from the
/// definition (test oracle; `O(n_blocks · nnz)` worst case).  `rtol` is
/// the relative tolerance on the per-block rate agreement.
pub fn is_ordinarily_lumpable(c: &Ctmc, p: &Partition, rtol: f64) -> bool {
    let n = c.n_states();
    assert_eq!(p.n_states(), n);
    let k = p.n_blocks();
    // Rate of each state into each block, block-major comparison via a
    // scratch row per state.
    let mut row = vec![0.0f64; k];
    let mut first = vec![0.0f64; k];
    let blocks = p.blocks();
    for block in &blocks {
        for (pos, &s) in block.iter().enumerate() {
            let sb = p.block_of(s as usize);
            for v in row.iter_mut() {
                *v = 0.0;
            }
            for (j, r) in c.row(s as usize) {
                let jb = p.block_of(j);
                if jb != sb {
                    row[jb] += r;
                }
            }
            if pos == 0 {
                first.copy_from_slice(&row);
            } else {
                for (a, b) in row.iter().zip(first.iter()) {
                    if (a - b).abs() > rtol * a.abs().max(b.abs()).max(1e-300) {
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// Map from a quotient chain's stationary vector back to the full chain.
///
/// [`Lift::aggregate`] (full → blocks) is exact for every ordinarily
/// lumpable partition; [`Lift::lift`] (blocks → full, uniform within each
/// block) is exact only for automorphism-orbit-seeded partitions — see the
/// module docs for the contract.
///
/// A `Lift` built by [`Ctmc::quotient`] carries the full state → block
/// map; one built by [`Lift::from_block_sizes`] (the direct-quotient path
/// of `crate::marking::QuotientGraph`, where the full chain is never
/// materialized) carries **block sizes only** — the per-member uniform
/// probability [`Lift::member_probability`] and the full state count stay
/// available, but the positional [`Lift::lift`]/[`Lift::aggregate`] maps
/// do not ([`Lift::has_state_map`] tells the two apart).
#[derive(Debug, Clone)]
pub struct Lift {
    /// Block of every full state; empty when only sizes are known.
    block_of: Vec<u32>,
    block_size: Vec<u32>,
    /// `Σ block_size` (equals `block_of.len()` when the map is present).
    full_states: usize,
}

impl Lift {
    /// A size-only lift: block `b` has `block_size[b]` full states behind
    /// it, with no record of *which* ones.  This is what a direct
    /// quotient construction can know — the orbit sizes fall out of
    /// marking canonicalization while the full state space is never
    /// enumerated.
    pub fn from_block_sizes(block_size: Vec<u32>) -> Lift {
        let full_states = block_size.iter().map(|&k| k as usize).sum();
        Lift {
            block_of: Vec::new(),
            block_size,
            full_states,
        }
    }

    /// Number of full states.
    pub fn n_states(&self) -> usize {
        self.full_states
    }

    /// Number of quotient states (blocks).
    pub fn n_blocks(&self) -> usize {
        self.block_size.len()
    }

    /// Number of full states behind block `b`.
    pub fn block_size(&self, b: usize) -> usize {
        self.block_size[b] as usize
    }

    /// `true` when the full state → block map is available (full-chain
    /// lifts); `false` for size-only lifts from
    /// [`Lift::from_block_sizes`].
    pub fn has_state_map(&self) -> bool {
        !self.block_of.is_empty() || self.full_states == 0
    }

    /// Uniform per-member probability of block `b`:
    /// `π(s) = π̂(b) / |b|` for every member `s` (exact under the
    /// automorphism-orbit contract).  Available on size-only lifts.
    pub fn member_probability(&self, pi_quotient: &[f64], b: usize) -> f64 {
        assert_eq!(pi_quotient.len(), self.n_blocks());
        pi_quotient[b] / f64::from(self.block_size[b])
    }

    /// Spread a quotient stationary vector uniformly over each block:
    /// `π(s) = π̂(B(s)) / |B(s)|`.
    ///
    /// # Panics
    /// Panics on a size-only lift (see [`Lift::has_state_map`]).
    pub fn lift(&self, pi_quotient: &[f64]) -> Vec<f64> {
        assert_eq!(pi_quotient.len(), self.n_blocks());
        assert!(
            self.has_state_map(),
            "size-only lift: the full state map was never materialized"
        );
        self.block_of
            .iter()
            .map(|&b| pi_quotient[b as usize] / f64::from(self.block_size[b as usize]))
            .collect()
    }

    /// Aggregate a full-chain vector onto the blocks:
    /// `π̂(B) = Σ_{s ∈ B} π(s)`.
    ///
    /// # Panics
    /// Panics on a size-only lift (see [`Lift::has_state_map`]).
    pub fn aggregate(&self, pi_full: &[f64]) -> Vec<f64> {
        assert_eq!(pi_full.len(), self.n_states());
        assert!(
            self.has_state_map(),
            "size-only lift: the full state map was never materialized"
        );
        let mut out = vec![0.0f64; self.n_blocks()];
        for (&b, &p) in self.block_of.iter().zip(pi_full.iter()) {
            out[b as usize] += p;
        }
        out
    }
}

/// Result of [`Ctmc::stationary_lumped`]: the lifted stationary vector
/// plus the size bookkeeping of the reduction.
#[derive(Debug, Clone)]
pub struct LumpedStationary {
    /// Stationary distribution lifted back to the full states.
    pub pi: Vec<f64>,
    /// States of the quotient chain actually solved.
    pub lumped_states: usize,
    /// States of the full chain.
    pub full_states: usize,
}

impl Ctmc {
    /// Quotient chain of an ordinarily lumpable partition, plus the
    /// [`Lift`] mapping its stationary vector back to the full states.
    ///
    /// The quotient rate `q̂(B, C)` is `Σ_{j ∈ C} q(s₀, j)` read off the
    /// **first member** `s₀` of `B` (lowest state index) — for a lumpable
    /// partition every member agrees, so the first member's value *is*
    /// the common value.  Rates accumulate in `s₀`'s CSR row order and a
    /// row's targets are emitted in first-hit order of that scan: both
    /// choices mirror the direct quotient BFS of
    /// [`crate::marking::QuotientGraph`], which is what makes
    /// full-then-lump and direct construction **bitwise identical** (the
    /// BFS's representative is exactly the block's first member; the
    /// property tests pin this).  Intra-block transitions vanish (they do
    /// not change the block, i.e. they are the quotient's self-loops).
    ///
    /// # Panics
    /// Panics if `p` does not cover exactly this chain's states.
    pub fn quotient(&self, p: &Partition) -> (Ctmc, Lift) {
        let n = self.n_states();
        assert_eq!(p.n_states(), n, "partition size mismatch");
        let k = p.n_blocks();
        let blocks = p.blocks();

        let mut builder = CsrBuilder::with_capacity(k, self.nnz().min(k * 8));
        // Scratch accumulator over target blocks.
        let mut acc = vec![0.0f64; k];
        let mut hit: Vec<u32> = Vec::new();
        for (b, block) in blocks.iter().enumerate() {
            let first = block[0];
            for (j, r) in self.row(first as usize) {
                let c = p.block_of(j);
                if c == b {
                    continue;
                }
                if acc[c] == 0.0 {
                    hit.push(c as u32);
                }
                acc[c] += r;
            }
            for &c in &hit {
                builder.push(c as usize, acc[c as usize]);
                acc[c as usize] = 0.0;
            }
            hit.clear();
            builder.end_row();
        }

        let lift = Lift {
            block_of: p.block_of.clone(),
            block_size: blocks.iter().map(|b| b.len() as u32).collect(),
            full_states: n,
        };
        (builder.finish(), lift)
    }

    /// Lump-first stationary solve: refine `seed` to the coarsest
    /// ordinarily lumpable partition, solve the quotient chain, and lift
    /// the result back to the full states (uniform within each block —
    /// exact for automorphism-orbit seeds, see the module docs).
    ///
    /// Returns `None` when the refinement **degenerates** (every state
    /// ends up its own block), in which case callers should fall back to
    /// the full-chain [`Ctmc::stationary`].
    ///
    /// **Contract:** the seed must be an automorphism-orbit partition.
    /// Cross-block stability never constrains the states *within* a
    /// block, so an over-coarse seed (e.g. [`Partition::trivial`], whose
    /// single block is vacuously lumpable) yields a quotient whose
    /// uniform lift is wrong unless the chain really is symmetric.
    pub fn stationary_lumped(&self, seed: &Partition) -> Option<LumpedStationary> {
        unlimited(|b| self.stationary_lumped_solve(seed, SolverChoice::Auto, b))
            .map(|(lumped, _)| lumped)
    }

    /// As [`Ctmc::stationary_lumped`], but with an explicit
    /// [`SolverChoice`] for the quotient solve — which checks `budget`
    /// at its checkpoints — and the quotient's [`SolveReport`] returned
    /// alongside for provenance (which solver ran, at what residual).
    /// The report's `pi` is the *quotient* stationary vector the lift
    /// was computed from, not the lifted one.
    ///
    /// `stationary_lumped` delegates here with [`SolverChoice::Auto`]
    /// and no limit, so the two are bitwise identical on the lifted
    /// vector.
    pub fn stationary_lumped_solve(
        &self,
        seed: &Partition,
        choice: SolverChoice,
        budget: &Budget,
    ) -> Result<Option<(LumpedStationary, SolveReport)>, Interrupt> {
        let refined = coarsest_refinement(self, seed);
        if refined.is_discrete() {
            return Ok(None);
        }
        let (quotient, lift) = self.quotient(&refined);
        let report = quotient.stationary_solve_governed(choice, budget)?;
        let lumped = LumpedStationary {
            pi: lift.lift(&report.pi),
            lumped_states: quotient.n_states(),
            full_states: self.n_states(),
        };
        Ok(Some((lumped, report)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctmc::Solver;
    use crate::govern::{InterruptReason, Phase};
    use std::sync::atomic::AtomicBool;

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
        let p = Partition::trivial(4);
        assert_eq!(p.n_blocks(), 1);
        assert!(!p.is_discrete());
        let q = Partition::from_labels(&[7, 3, 7, 9]);
        assert_eq!(q.n_blocks(), 3);
        assert_eq!(q.block_of(0), q.block_of(2));
        assert_ne!(q.block_of(0), q.block_of(1));
        assert!(q.refines(&p));
        assert!(!p.refines(&q));
        // Orbits of the permutation (0 1)(2)(3 4 …): cycles become blocks.
        let perm = vec![1u32, 0, 2, 4, 3];
        let o = Partition::from_permutation_orbits(&perm);
        assert_eq!(o.n_blocks(), 3);
        assert_eq!(o.block_of(3), o.block_of(4));
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
        let refined = coarsest_refinement(&c, &seed);
        assert!(refined.refines(&seed));
        assert!(is_ordinarily_lumpable(&c, &refined, 1e-12));
        assert_eq!(refined.n_blocks(), 3, "{refined:?}");

        let sol = c.stationary_lumped(&seed).expect("reduction exists");
        assert_eq!(sol.lumped_states, 3);
        assert_eq!(sol.full_states, 5);
        let full = c.stationary_gth();
        for (s, (&a, &b)) in sol.pi.iter().zip(full.iter()).enumerate() {
            assert!((a - b).abs() < 1e-12, "state {s}: {a} vs {b}");
        }
    }

    #[test]
    fn discrete_seed_degenerates() {
        // The identity automorphism (m = 1 row rotations) seeds singleton
        // orbits; refinement keeps them and the lump-first solve refuses.
        let c = Ctmc::new(vec![vec![(1, 1.0)], vec![(2, 2.0)], vec![(0, 3.0)]]);
        let seed = Partition::from_permutation_orbits(&[0, 1, 2]);
        assert!(seed.is_discrete());
        let refined = coarsest_refinement(&c, &seed);
        assert!(refined.is_discrete());
        assert!(c.stationary_lumped(&seed).is_none());
    }

    #[test]
    fn asymmetric_chain_splits_down_to_states() {
        // Distinct rates break every grouping: a seed that wrongly pairs
        // states must be split apart by the refinement (reaching the
        // discrete partition), not silently accepted.
        let c = Ctmc::new(vec![
            vec![(1, 1.0)],
            vec![(2, 2.0)],
            vec![(3, 3.0)],
            vec![(0, 4.0)],
        ]);
        let refined = coarsest_refinement(&c, &Partition::from_labels(&[0, 0, 1, 1]));
        assert!(refined.is_discrete(), "{refined:?}");
    }

    #[test]
    fn uniform_ring_lumps_to_one_state() {
        // The rotation automorphism of a uniform ring has a single orbit,
        // so the orbit seed is the trivial partition and the quotient is
        // one state.
        let n = 12;
        let rows: Vec<Vec<(usize, f64)>> = (0..n).map(|i| vec![((i + 1) % n, 2.5)]).collect();
        let c = Ctmc::new(rows);
        let rot: Vec<u32> = (0..n as u32).map(|i| (i + 1) % n as u32).collect();
        let seed = Partition::from_permutation_orbits(&rot);
        assert_eq!(seed, Partition::trivial(n));
        let sol = c.stationary_lumped(&seed).expect("ring collapses");
        assert_eq!(sol.lumped_states, 1);
        for &p in &sol.pi {
            assert!((p - 1.0 / n as f64).abs() < 1e-15);
        }
    }

    #[test]
    fn lumped_solve_honours_the_budget() {
        // A two-way ring of 80 states whose rates repeat with period 40:
        // the half-turn is an automorphism and the quotient is a 40-state
        // ring — past GTH's 32, so the plan relaxes it with Gauss–Seidel,
        // which has checkpoints.
        let (n, k) = (80usize, 40usize);
        let rows = (0..n)
            .map(|i| {
                let r = (i % k) as f64;
                vec![((i + 1) % n, 1.0 + r), ((i + n - 1) % n, 0.5 + 0.25 * r)]
            })
            .collect();
        let c = Ctmc::new(rows);
        let half_turn: Vec<u32> = (0..n).map(|i| ((i + k) % n) as u32).collect();
        let seed = Partition::from_permutation_orbits(&half_turn);
        let solve = |budget: &Budget| c.stationary_lumped_solve(&seed, SolverChoice::Auto, budget);

        let (sol, report) = solve(&Budget::UNLIMITED)
            .unwrap()
            .expect("reduction exists");
        assert_eq!(sol.lumped_states, k);
        assert_eq!(report.solver, Solver::GaussSeidel);
        assert!(report.iterations >= 8, "reaches the first checkpoint");

        static RAISED: AtomicBool = AtomicBool::new(true);
        let err = solve(&Budget::UNLIMITED.cancelled_by(&RAISED)).unwrap_err();
        assert_eq!(err.reason, InterruptReason::Cancelled);
        assert_eq!(err.progress.phase, Phase::Solve);
    }

    #[test]
    fn quotient_aggregates_stationary() {
        // A seed that is not an orbit partition ({0} | {1,2,3,4}) still
        // refines to the mirror symmetry classes, and the *block sums* of
        // the stationary vectors agree (aggregation is exact for every
        // ordinarily lumpable partition, orbit-seeded or not).
        let c = mirrored_chain();
        let refined = coarsest_refinement(&c, &Partition::from_labels(&[0, 1, 1, 1, 1]));
        assert!(is_ordinarily_lumpable(&c, &refined, 1e-12));
        assert_eq!(
            refined,
            Partition::from_labels(&[0, 1, 2, 1, 2]),
            "refinement rediscovers the mirror orbits"
        );
        let (q, lift) = c.quotient(&refined);
        let pi_q = q.stationary_gth();
        let agg = lift.aggregate(&c.stationary_gth());
        for (b, (&x, &y)) in pi_q.iter().zip(agg.iter()).enumerate() {
            assert!((x - y).abs() < 1e-12, "block {b}: {x} vs {y}");
        }
    }

    #[test]
    fn single_state_chain() {
        let c = Ctmc::new(vec![Vec::new()]);
        let p = Partition::trivial(1);
        let refined = coarsest_refinement(&c, &p);
        assert_eq!(refined.n_blocks(), 1);
        // One state is already its own block: degenerate, callers fall
        // back (the full solve is trivial anyway).
        assert!(c.stationary_lumped(&p).is_none());
        let (q, lift) = c.quotient(&p);
        assert_eq!(q.n_states(), 1);
        assert_eq!(lift.lift(&[1.0]), vec![1.0]);
    }
}
