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
//! # Seed-partition contract and lift semantics
//!
//! The quotient/aggregation identity above holds for any lumpable
//! partition, but recovering the **per-state** stationary probabilities
//! needs more: [`Lift::lift`] spreads each block's mass uniformly,
//! `π(s) = π̂(B(s)) / |B(s)|`, which is exact precisely when every block is
//! one orbit of a rate-preserving automorphism group of the chain (states
//! related by an automorphism have equal stationary probability).  Such an
//! orbit partition is always ordinarily lumpable, so it is the only kind
//! of partition this module is given, and nothing refines it.
//!
//! The canonical producer of orbit seeds is
//! [`crate::marking::MarkingGraph::orbit_partition`], fed by the TPN
//! row-rotation automorphism of `repstream_petri::tpn::Tpn::row_rotation`;
//! [`Partition::from_permutation_orbits`] builds one from any state
//! permutation.
//!
//! # The test oracle of the direct quotient
//!
//! Production never lumps a built chain: when the automorphism survives
//! the rates (the validated row-rotation of a homogeneous Strict TPN),
//! [`crate::marking::QuotientGraph`] builds the quotient chain directly —
//! one canonical representative per orbit, never materializing the full
//! graph — and otherwise the full chain is solved as it is.  This module
//! is the reference that construction is held to: build the full chain,
//! take its orbit partition, and [`Ctmc::quotient`] it.
//! [`Ctmc::quotient`] is deliberately arranged (first-member rows,
//! first-hit edge order) so the two agree bit for bit; the tests below
//! and `marking::tests` compare them, and [`is_ordinarily_lumpable`]
//! checks the criterion above from its definition.  The module is
//! compiled into test builds only: nothing the library ships reads it.

use crate::ctmc::{ChainStructure, Ctmc};
use std::sync::Arc;

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

    /// Member lists per block, in state order.
    pub fn blocks(&self) -> Vec<Vec<u32>> {
        let mut blocks = vec![Vec::new(); self.n_blocks];
        for (s, &b) in self.block_of.iter().enumerate() {
            blocks[b as usize].push(s as u32);
        }
        blocks
    }
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
    let rows = forward_rows(c);
    for block in &blocks {
        for (pos, &s) in block.iter().enumerate() {
            let sb = p.block_of(s as usize);
            for v in row.iter_mut() {
                *v = 0.0;
            }
            for &(j, r) in &rows[s as usize] {
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
/// [`Lift::lift`] (blocks → full, uniform within each block) is exact for
/// automorphism-orbit partitions — see the module docs for the contract.
///
/// A `Lift` built by [`Ctmc::quotient`] carries the full state → block
/// map; one built by [`Lift::from_block_sizes`] (the direct-quotient path
/// of `crate::marking::QuotientGraph`, where the full chain is never
/// materialized) carries **block sizes only** — the per-member uniform
/// probability [`Lift::member_probability`] and the full state count stay
/// available, but the positional [`Lift::lift`] map does not
/// ([`Lift::has_state_map`] tells the two apart).
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
}

/// The forward rows of `c` as `(target, rate)` lists, in CSR order: the
/// targets are [`crate::ctmc::ChainStructure::forward_targets`], exact on
/// marking chains, whose rows carry each label once.
pub(crate) fn forward_rows(c: &Ctmc) -> Vec<Vec<(usize, f64)>> {
    let mut targets = c.structure().forward_targets().into_iter();
    (0..c.n_states())
        .map(|s| {
            let row = c.row_rates(s);
            row.map(|r| (targets.next().unwrap() as usize, r)).collect()
        })
        .collect()
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
    /// [`crate::marking::QuotientGraph`], which is what makes this
    /// reference and the direct construction **bitwise identical** (the
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

        // One label per edge, so the labels within a row are distinct and
        // the derived forward targets keep the first-hit order (a chain
        // labelled by rate could not order a row's equal-rate edges).
        let (mut row_ptr, mut col, mut rate) = (vec![0u32], Vec::new(), Vec::new());
        // Scratch accumulator over target blocks.
        let mut acc = vec![0.0f64; k];
        let mut hit: Vec<u32> = Vec::new();
        let rows = forward_rows(self);
        for (b, block) in blocks.iter().enumerate() {
            let first = block[0];
            for &(j, r) in &rows[first as usize] {
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
                col.push(c);
                rate.push(acc[c as usize]);
                acc[c as usize] = 0.0;
            }
            hit.clear();
            row_ptr.push(col.len() as u32);
        }
        let label = (0..col.len() as u32).collect();
        let chain =
            Ctmc::with_label_rates(Arc::new(ChainStructure::new(row_ptr, col, label)), rate);

        let lift = Lift {
            block_of: p.block_of.clone(),
            block_size: blocks.iter().map(|b| b.len() as u32).collect(),
            full_states: n,
        };
        (chain, lift)
    }
}

mod tests;
