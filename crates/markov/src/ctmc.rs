//! Continuous-time Markov chains and stationary solvers.
//!
//! # Storage: a shared labelled CSR and a rate per label
//!
//! A [`Ctmc`] is two parts.  The **structure** ([`ChainStructure`],
//! behind an `Arc`) is the chain's edges in **compressed sparse row**
//! form, each edge carrying a *label* instead of a rate:
//!
//! ```text
//!   row_ptr  : [u32; n+1]   row s occupies entries row_ptr[s]..row_ptr[s+1]
//!   label    : [u32; nnz]   which rate each edge fires at (read by the
//!                           exit sums, and the enabled sets of a graph)
//!   in_ptr   : [u32; n+1]   the transpose: for each state, the sources
//!   in_src   : [u32; nnz]   and labels of its in-transitions, which the
//!   in_label : [uw;  nnz]   relaxation, residual, power sweep and GTH gather
//! ```
//!
//! The forward targets are not kept: the transpose is built from them
//! (no self-loops; the diagonal of the generator is implied) and no
//! solver reads them, so tests and tools that want them derive them
//! ([`ChainStructure::forward_targets`]).  `in_label` is stored at the
//! narrowest of two widths `w` that holds the largest label — one byte
//! up to 256 labels (every marking chain measured: 126 transitions at
//! hom(6×7), 168 labels at hom(7×8)), four beyond, which only a
//! [`Ctmc::from_csr`] chain with that many distinct rates needs.  Each
//! reader matches on the width once per call and runs one loop compiled
//! per width, so no loop branches on it.  The forward labels stay `u32`:
//! a graph's enabled sets are them (`Graph::enabled` returns `&[u32]`).
//!
//! The **rates** are a small table, `label_rate[l]`, one entry per label.
//! On a Theorem 2 marking chain a label is the transition (or list of
//! transitions) an edge fires, so a rate table of a few dozen entries
//! rates millions of edges, and one structure — built once, at the end of
//! the marking BFS — serves every rate table of its shape: re-rating a
//! chain allocates nothing per edge.
//!
//! Construction caches, per rate table, what every solver would
//! otherwise recompute per call:
//!
//! * `exit[s]` — total exit rate of each state, summed along the forward
//!   row (one pass, reused by uniformization, Gauss–Seidel and the
//!   residual check);
//! * `lambda` — the uniformization constant `Λ = 1.1 · max_s exit[s]`;
//! * `max_rate` — the largest rate of a label that occurs (the residual
//!   contract's scale).
//!
//! That is the whole chain: `8 + w` bytes per edge (9 on the marking
//! chains measured), 16 per state and the label table
//! ([`Ctmc::heap_bytes`]).  The hot loops read `label_rate[in_label[e]]`
//! — an L1-resident table — where a rated CSR would read an `f64` per
//! edge; labels are validated against the table once, at construction.
//!
//! The incoming layout turns the power sweep from a *scatter*
//! (`next[target] += …`, which would need atomics or replication to
//! parallelize) into a *gather* (`next[j] = Σ …`), so rows of `next` can be
//! computed independently: the sweep is chunked across threads with each
//! thread owning a disjoint slice of the output.  The reduction order
//! within each entry is fixed by the CSR layout, so results are **bitwise
//! deterministic for any thread count** (the build environment has no
//! `rayon`, so the chunked loop runs on `std::thread::scope`; with one
//! available core it degrades to the plain sequential loop).
//!
//! # Solvers
//!
//! * [`Ctmc::stationary_gth`] — Grassmann–Taksar–Heyman elimination on the
//!   uniformized chain.  Subtraction-free, hence numerically stable;
//!   `O(n³)` time, `O(n²)` space.  The elimination is right-looking
//!   (rank-1 updates trailing the eliminated state) with the divisor
//!   applied once per pivot row (`s_inv`) instead of once per column
//!   entry.  Its dense matrix is filled from the incoming CSR, whose
//!   stable order gives every cell the additions of a forward fill;
//! * [`Ctmc::stationary_power`] — uniformized power iteration over the
//!   incoming CSR: cache-linear, parallelizable, `O(iters · nnz)`, with
//!   periodic renormalization and a safeguarded reduced-rank (vector
//!   Aitken Δ²) extrapolation burst every [`RRE_PERIOD`] sweeps;
//! * [`Ctmc::stationary_gauss_seidel`] — Gauss–Seidel relaxation of the
//!   balance equations `π_j · exit_j = Σ_{i→j} π_i r_ij` using the latest
//!   values in place.  On the sparse, shallow marking chains of this
//!   repository it converges in tens of sweeps at every size measured
//!   (30–45 from 4×5 to the 1 081 344-state 6×7 quotient, stiff rate
//!   tables included; ≈ 20 on full chains), so its `O(sweeps · nnz)`
//!   beats GTH's `O(n³)` by orders of magnitude from a few hundred states
//!   up.  A sweep is one dependent add chain per column and a divide by
//!   `exit_j`; around them it reads the validated structure without
//!   bounds checks, accumulates the normalisation sum as it stores each
//!   entry (the additions of a separate `pi.iter().sum()`, in the same
//!   order) and, until one entry has moved, divides for the stop test
//!   only where an entry's change reaches half the threshold — an exact
//!   pre-filter.  On a quotient most sweeps of plain relaxation shrink
//!   one isolated real error mode, so every 8 sweeps from sweep 16 on
//!   the loop measures that mode's ratio from two successive iterate
//!   differences and, when they line up, adds its remaining sum at once
//!   (Aitken extrapolation): about half the sweeps, for one extra
//!   `n`-vector.  Where the gate never opens (the large full chains
//!   measured), and on every chain that converges within 16 sweeps, the
//!   iterate, the sweep count and every bit are those of the plain loop.
//!
//! # Selection policy ([`Ctmc::stationary`])
//!
//! The automatic choice is an explicit, documented [`SolverPlan`]
//! computed by [`Ctmc::solver_plan`] from the chain's size and density
//! (crossovers measured when the CSR engine was introduced — see
//! `CHANGES.md` and the solver-inventory table in `ARCHITECTURE.md`):
//!
//! * `n ≤ 32` — GTH: the dense elimination is at its fastest and exact to
//!   rounding; the measured GTH↔Gauss–Seidel crossover sits near 30
//!   states for marking-graph densities;
//! * dense chains (`nnz > n²/4`) up to 1 500 states — GTH: elimination
//!   cost is amortized by the dense rows, and relaxation loses its
//!   `nnz ≪ n²` advantage;
//! * everything else, at every size — Gauss–Seidel, verified against the
//!   stationarity residual; if it has not converged to `GS_RESIDUAL_TOL`
//!   the solver falls back to the (slower, unconditionally convergent)
//!   power iteration, polishing the relaxation iterate.  The plan depends
//!   on the chain alone, never on the machine's core count, so the solver
//!   choice — and the result bits — stay machine-independent.
//!
//! [`Ctmc::stationary_solve`] runs the plan (or a forced
//! [`SolverChoice`]) and returns a [`SolveReport`] recording which solver
//! actually produced the result, its final stationarity residual and its
//! iteration count — the provenance the CLI reports print.

use crate::fxhash::FxHashMap;
use crate::govern::{Budget, Interrupt, Phase, Progress};
use std::sync::Arc;

/// An incoming label as stored: `u8` where the structure's largest
/// label fits a byte, `u32` otherwise.
trait Label: Copy {
    /// `l` at this width; the caller chose a width that holds it.
    fn narrow(l: u32) -> Self;
    /// The label as a rate-table index.
    fn index(self) -> usize;
}

macro_rules! impl_label {
    ($($t:ty),*) => {$(
        impl Label for $t {
            #[inline(always)]
            fn narrow(l: u32) -> Self {
                l as $t
            }
            #[inline(always)]
            fn index(self) -> usize {
                self as usize
            }
        }
    )*};
}
impl_label!(u8, u32);

/// The incoming labels at their stored width.
#[derive(Debug, PartialEq)]
enum InLabels {
    U8(Vec<u8>),
    U32(Vec<u32>),
}

/// `$body` with `$l` bound to the incoming labels at their stored width:
/// one match per call, and the body compiled once per width, so no loop
/// inside it branches on the width.
macro_rules! by_width {
    ($labels:expr, |$l:ident| $body:expr) => {
        match $labels {
            InLabels::U8($l) => $body,
            InLabels::U32($l) => $body,
        }
    };
}

/// One of two iterators over the same items: the one read through the
/// narrow incoming labels, or the one read through the wide ones.
enum Either<N, W> {
    Narrow(N),
    Wide(W),
}

impl<N: Iterator, W: Iterator<Item = N::Item>> Iterator for Either<N, W> {
    type Item = N::Item;

    #[inline]
    fn next(&mut self) -> Option<N::Item> {
        match self {
            Either::Narrow(it) => it.next(),
            Either::Wide(it) => it.next(),
        }
    }
}

/// The edges of a chain, rate-free: a forward CSR of labels and an
/// incoming CSR of sources and labels (see the module docs).  Built once
/// — by the marking BFS, or by [`Ctmc::from_csr`] — and shared behind an
/// `Arc` by every [`Ctmc`] rated over it.
#[derive(Debug)]
pub struct ChainStructure {
    /// Forward CSR: row `s` is `label[row_ptr[s]..row_ptr[s+1]]`.  Its
    /// targets are not kept: the transpose consumed them.
    row_ptr: Vec<u32>,
    label: Vec<u32>,
    /// Incoming CSR (the stable transpose): the sources of column `j`
    /// ascending, each with its edge's label.
    in_ptr: Vec<u32>,
    in_src: Vec<u32>,
    in_label: InLabels,
    /// The labels that occur, ascending.
    used: Vec<u32>,
}

impl ChainStructure {
    /// Validate a forward CSR and build its transpose, storing the
    /// incoming labels at the narrowest width that holds the largest
    /// label.  The forward targets are consumed: no solver reads them.
    ///
    /// # Panics
    /// Panics on a malformed `row_ptr`, a dangling target, a diagonal
    /// edge (a self-loop), or a `label` array of the wrong length.
    pub(crate) fn new(row_ptr: Vec<u32>, col: Vec<u32>, label: Vec<u32>) -> Self {
        assert!(!row_ptr.is_empty(), "row_ptr needs a leading 0");
        assert_eq!(row_ptr[0], 0, "row_ptr must start at 0");
        let n = row_ptr.len() - 1;
        let nnz = col.len();
        assert_eq!(label.len(), nnz, "one label per edge");
        assert_eq!(row_ptr[n] as usize, nnz, "row_ptr must end at nnz");
        assert!(n < u32::MAX as usize, "state count overflows u32");
        for w in row_ptr.windows(2) {
            assert!(w[0] <= w[1], "row_ptr must be non-decreasing");
        }
        let mut occurs: Vec<bool> = Vec::new();
        for (&j, &l) in col.iter().zip(&label) {
            assert!((j as usize) < n, "dangling transition target");
            let l = l as usize;
            if l >= occurs.len() {
                occurs.resize(l + 1, false);
            }
            occurs[l] = true;
        }
        let used: Vec<u32> = (0..occurs.len() as u32)
            .filter(|&l| occurs[l as usize])
            .collect();

        // Incoming CSR by counting sort over targets (stable: sources
        // appear in ascending order within each row of the transpose).
        let mut in_ptr = vec![0u32; n + 1];
        for &j in &col {
            in_ptr[j as usize + 1] += 1;
        }
        for j in 0..n {
            in_ptr[j + 1] += in_ptr[j];
        }
        let top = used.last().copied().unwrap_or(0);
        let (in_src, in_label) = if top <= u32::from(u8::MAX) {
            let (src, label) = transpose(&row_ptr, &col, &label, &in_ptr);
            (src, InLabels::U8(label))
        } else {
            let (src, label) = transpose(&row_ptr, &col, &label, &in_ptr);
            (src, InLabels::U32(label))
        };
        ChainStructure {
            row_ptr,
            label,
            in_ptr,
            in_src,
            in_label,
            used,
        }
    }

    /// Number of states.
    pub fn n_states(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of edges.
    pub fn nnz(&self) -> usize {
        self.in_src.len()
    }

    /// The labels some edge carries, ascending.
    pub fn labels_used(&self) -> &[u32] {
        &self.used
    }

    /// Bytes per stored incoming label: 1 where the largest label fits a
    /// byte, 4 otherwise.
    pub fn in_label_bytes(&self) -> usize {
        match self.in_label {
            InLabels::U8(_) => 1,
            InLabels::U32(_) => 4,
        }
    }

    /// Heap bytes of the structure's arrays, from their lengths:
    /// `(8 + w) · nnz + 8 · n + 8 + 4 · labels_used().len()`, with `w`
    /// [`Self::in_label_bytes`].
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of_val;
        let in_label = by_width!(&self.in_label, |l| size_of_val(&l[..]));
        size_of_val(&self.row_ptr[..])
            + size_of_val(&self.label[..])
            + size_of_val(&self.in_ptr[..])
            + size_of_val(&self.in_src[..])
            + in_label
            + size_of_val(&self.used[..])
    }

    /// Every edge's target, in forward order, derived from the incoming
    /// CSR and the forward labels — the structure stores no forward
    /// targets.  Column `j`'s edges from state `i` take, in turn, the
    /// first free slot of row `i` that carries their label, so the
    /// derivation is exact wherever the labels within a row are
    /// distinct, as on every marking chain; where a row of a
    /// [`Ctmc::from_csr`] chain repeats a label, the targets among those
    /// repeats come out ascending.  It allocates `4 · nnz` bytes and
    /// scans a row once per edge out of it: for checks and tools, not
    /// for solvers, which read no forward target.
    pub fn forward_targets(&self) -> Vec<u32> {
        let mut col = vec![u32::MAX; self.nnz()];
        by_width!(&self.in_label, |in_label| {
            for j in 0..self.n_states() {
                for e in self.in_range(j) {
                    let (i, l) = (self.in_src[e] as usize, in_label[e].index());
                    let mut row = self.row_range(i);
                    let Some(slot) =
                        row.find(|&f| col[f] == u32::MAX && self.label[f] as usize == l)
                    else {
                        unreachable!("the transpose lists each forward edge once")
                    };
                    col[slot] = j as u32;
                }
            }
        });
        col
    }

    /// The forward row pointer (`n + 1` entries).
    pub(crate) fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// Every edge's label, in forward order.
    pub(crate) fn labels(&self) -> &[u32] {
        &self.label
    }

    /// Forward edge range of row `s`.
    #[inline]
    fn row_range(&self, s: usize) -> std::ops::Range<usize> {
        self.row_ptr[s] as usize..self.row_ptr[s + 1] as usize
    }

    /// Incoming edge range of column `j`.
    #[inline]
    fn in_range(&self, j: usize) -> std::ops::Range<usize> {
        self.in_ptr[j] as usize..self.in_ptr[j + 1] as usize
    }
}

/// The stable transpose of a validated forward CSR: the sources and
/// labels of column `j` at `in_ptr[j]..in_ptr[j+1]`, in forward order
/// (so sources ascend), the labels at width `L`.
///
/// # Panics
/// Panics on a self-loop.
fn transpose<L: Label>(
    row_ptr: &[u32],
    col: &[u32],
    label: &[u32],
    in_ptr: &[u32],
) -> (Vec<u32>, Vec<L>) {
    let mut next = in_ptr.to_vec();
    let mut in_src = vec![0u32; col.len()];
    let mut in_label = vec![L::narrow(0); col.len()];
    for (s, w) in row_ptr.windows(2).enumerate() {
        for e in w[0] as usize..w[1] as usize {
            let j = col[e] as usize;
            assert!(j != s, "self-loop at state {s}");
            let slot = next[j] as usize;
            next[j] += 1;
            in_src[slot] = s as u32;
            in_label[slot] = L::narrow(label[e]);
        }
    }
    (in_src, in_label)
}

/// A CTMC: a shared [`ChainStructure`] rated by a table with one rate per
/// label.  Nothing in it is per edge.
#[derive(Debug, Clone)]
pub struct Ctmc {
    chain: Arc<ChainStructure>,
    /// Rate of every label; only the labels that occur are validated.
    label_rate: Vec<f64>,
    /// Cached per-state exit rates (sum of outgoing rates).
    exit: Vec<f64>,
    /// Uniformization constant `Λ` (max exit rate, padded 10%).
    lambda: f64,
    /// Largest rate of a label that occurs.
    max_rate: f64,
}

/// States per thread below which the parallel sweep is not worth
/// spawning.  The gate only shifts *when* chunked spawning kicks in, never
/// the result bits (the per-entry reduction order is the CSR order for any
/// thread count).
const PAR_MIN_ROWS: usize = 4096;

/// Sweeps between renormalizations of the power iterate (FP drift guard).
const NORM_PERIOD: usize = 32;

/// Sweeps between convergence checks of the power iteration (the L1
/// change is a separate sequential pass, done only on checking
/// iterations so the hot path stays one sweep per iteration).
const CHECK_PERIOD: usize = 8;

/// Iterates per reduced-rank-extrapolation burst (window size).
pub const RRE_WINDOW: usize = 6;

/// Sweeps between extrapolation bursts of the power iteration.
pub const RRE_PERIOD: usize = 24;

/// Gauss–Seidel sweeps per one-mode extrapolation: from the second
/// period on, sweep `s ≡ K − 1` (mod K) records its iterate difference
/// d₀, and sweep `s ≡ 0` measures the next and may jump along it
/// ([`extrapolate`]).  The first jump can come after sweep 2K only, so a
/// chain that converges within 2K sweeps — the small full chains the
/// server answers — keeps plain relaxation's bits and sweep count.
const EXTRAPOLATION_PERIOD: usize = 8;

/// GTH is used below this state count regardless of density.  Measured
/// on pattern chains when the CSR engine landed (`CHANGES.md`): GTH wins
/// at 12 states (0.5 µs vs 0.8 µs Gauss–Seidel) and loses from 60 states
/// up (7.2 µs vs 3.1 µs), so the crossover sits near 30.
const GTH_SMALL_N: usize = 32;

/// GTH is used up to this state count when the chain is dense.
const GTH_DENSE_N: usize = 1500;

/// Residual (max-norm, rate-relative) an iterative solver must reach
/// before its result is trusted by [`Ctmc::stationary_solve`].
const GS_RESIDUAL_TOL: f64 = 1e-10;

/// One cooperative checkpoint of the iterative solvers: the
/// `solver-stall` fault hook's firing point, then the budget check.
/// Runs once every [`CHECK_PERIOD`] Gauss–Seidel or power sweeps — far
/// off the per-entry hot path, and it only decides *whether* to
/// continue, so no budget can perturb output bits.
pub(crate) fn solver_checkpoint(
    budget: &Budget,
    states: usize,
    iterations: usize,
) -> Result<(), Interrupt> {
    let progress = Progress {
        phase: Phase::Solve,
        states,
        levels: 0,
        iterations,
        arena_bytes: 0,
    };
    #[cfg(feature = "fault-inject")]
    if crate::fault::solver_stall_fault() {
        return Err(Interrupt {
            reason: crate::govern::InterruptReason::SolverStall,
            progress,
        });
    }
    budget.check(progress)
}

/// Run `solve` under [`Budget::UNLIMITED`] — the body of every infallible
/// public name (`stationary*`, `throughput_of/with/solve`), kept for tests,
/// examples and benchmarks.  No limit is set, so no check can fail; only
/// an armed `solver-stall` fault reaches the panic, which is why code that
/// can return an error calls [`Ctmc::stationary_solve_governed`] instead.
pub(crate) fn unlimited<T>(solve: impl FnOnce(&Budget) -> Result<T, Interrupt>) -> T {
    match solve(&Budget::UNLIMITED) {
        Ok(v) => v,
        Err(i) => panic!("solve under Budget::UNLIMITED: {i}"),
    }
}

/// The stationary methods this crate implements — the members of a
/// [`SolverPlan`] and the vocabulary of the CLI's `--solver` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Solver {
    /// Grassmann–Taksar–Heyman elimination (`O(n³)`, exact to rounding).
    Gth,
    /// Gauss–Seidel relaxation of the balance equations.
    GaussSeidel,
    /// Uniformized power iteration with safeguarded RRE extrapolation.
    Power,
}

impl Solver {
    /// Short lowercase name, as printed by reports and accepted by the
    /// CLI (`gth`, `gs`, `power`).
    pub fn label(self) -> &'static str {
        match self {
            Solver::Gth => "gth",
            Solver::GaussSeidel => "gs",
            Solver::Power => "power",
        }
    }
}

/// A stationary-solver request: the measured automatic policy, or one
/// forced method (the CLI's `--solver` flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SolverChoice {
    /// Follow [`Ctmc::solver_plan`] (size/density crossovers plus
    /// residual-verified fallbacks).
    #[default]
    Auto,
    /// Run exactly this solver with its standard budget; no fallback.
    /// The [`SolveReport`] still records the achieved residual, so a
    /// forced solver that failed to converge is visible to the caller.
    Force(Solver),
}

impl SolverChoice {
    /// Parse a CLI spelling: `auto`, `gth`, `gs` (or `gauss-seidel`),
    /// `power`.  Returns `None` for anything else.
    pub fn parse(s: &str) -> Option<SolverChoice> {
        Some(match s {
            "auto" => SolverChoice::Auto,
            "gth" => SolverChoice::Force(Solver::Gth),
            "gs" | "gauss-seidel" => SolverChoice::Force(Solver::GaussSeidel),
            "power" => SolverChoice::Force(Solver::Power),
            _ => return None,
        })
    }

    /// The label of the forced solver, or `"auto"`.
    pub fn label(self) -> &'static str {
        match self {
            SolverChoice::Auto => "auto",
            SolverChoice::Force(s) => s.label(),
        }
    }
}

/// The explicit outcome of the automatic solver selection for one chain:
/// which method runs first, which residual-verified fallback follows,
/// and why — the policy [`Ctmc::stationary`] used to bury in its body.
/// There are two plans: GTH alone, or Gauss–Seidel with a power fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverPlan {
    /// The method tried first.
    pub primary: Solver,
    /// Fallbacks tried in order when the previous method misses the
    /// rate-relative `1e-10` residual contract (`[Power]` after
    /// Gauss–Seidel, none after GTH).
    pub fallbacks: &'static [Solver],
    /// One-line rationale (the measured crossover that fired).
    pub reason: &'static str,
}

/// A solved stationary system plus the provenance reports print:
/// which solver actually produced `pi`, the final max-norm stationarity
/// residual, and how many iterations (sweeps for Gauss–Seidel and
/// power, `n` for GTH's eliminations) it took.
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// The stationary distribution (unit sum).
    pub pi: Vec<f64>,
    /// The solver that produced `pi` (after any fallbacks).
    pub solver: Solver,
    /// Final max-norm stationarity residual `‖πQ‖_∞` of `pi`.
    pub residual: f64,
    /// Iterations the winning solver spent.
    pub iterations: usize,
}

/// Incremental builder of [`Ctmc::new`] (and of the test oracle's lumped
/// quotient): rows are appended in state order straight into the flat
/// arrays, no nested `Vec`s.
#[derive(Debug)]
pub(crate) struct CsrBuilder {
    row_ptr: Vec<u32>,
    col: Vec<u32>,
    rate: Vec<f64>,
}

impl CsrBuilder {
    /// Builder with capacity hints (states, transitions).
    pub fn with_capacity(states: usize, entries: usize) -> Self {
        let mut row_ptr = Vec::with_capacity(states + 1);
        row_ptr.push(0);
        CsrBuilder {
            row_ptr,
            col: Vec::with_capacity(entries),
            rate: Vec::with_capacity(entries),
        }
    }

    /// Append one transition to the row currently being built; a
    /// self-rate (`target` is that row) is dropped.
    #[inline]
    pub fn push(&mut self, target: usize, rate: f64) {
        debug_assert!(rate > 0.0 && rate.is_finite(), "rates must be positive");
        if target == self.row_ptr.len() - 1 {
            return;
        }
        self.col.push(target as u32);
        self.rate.push(rate);
    }

    /// Close the current row.
    #[inline]
    pub fn end_row(&mut self) {
        let Ok(nnz) = u32::try_from(self.col.len()) else {
            panic!("nnz overflows u32")
        };
        self.row_ptr.push(nnz);
    }

    /// Finish into a [`Ctmc`], validating targets against the final state
    /// count.
    pub fn finish(self) -> Ctmc {
        Ctmc::from_csr(self.row_ptr, self.col, self.rate)
    }
}

impl Ctmc {
    /// Build from sparse rows.  Self-rates are dropped (a CTMC has no
    /// self-transitions; diagonal entries of the generator are implied),
    /// so they reach neither the exit rates, `Λ` nor the residual scale:
    /// the chain is the one built from the same rows without them.
    pub fn new(trans: Vec<Vec<(usize, f64)>>) -> Self {
        let n = trans.len();
        let nnz: usize = trans.iter().map(Vec::len).sum();
        let mut b = CsrBuilder::with_capacity(n, nnz);
        for row in &trans {
            for &(j, r) in row {
                b.push(j, r);
            }
            b.end_row();
        }
        b.finish()
    }

    /// Build from raw CSR arrays (`row_ptr.len() == n + 1`).  Edges are
    /// labelled by distinct rate bits, in order of first appearance.
    ///
    /// # Panics
    /// Panics on malformed `row_ptr`, dangling targets, a self-loop, or
    /// non-positive rates.
    pub fn from_csr(row_ptr: Vec<u32>, col: Vec<u32>, rate: Vec<f64>) -> Self {
        assert_eq!(rate.len(), col.len());
        let mut ids: FxHashMap<u64, u32> = FxHashMap::default();
        let mut label_rate = Vec::new();
        let label = rate
            .iter()
            .map(|&r| {
                *ids.entry(r.to_bits()).or_insert_with(|| {
                    label_rate.push(r);
                    (label_rate.len() - 1) as u32
                })
            })
            .collect();
        drop(rate);
        Ctmc::with_label_rates(
            Arc::new(ChainStructure::new(row_ptr, col, label)),
            label_rate,
        )
    }

    /// Rate a shared structure: edge `e` fires at `label_rate[label[e]]`.
    /// Labels are checked against the table here, once, so the solvers
    /// can read it unchecked; labels that occur on no edge may carry any
    /// value and never reach `exit`, `Λ` or the residual scale.
    ///
    /// # Panics
    /// Panics if a label that occurs is outside `label_rate` or rated
    /// non-positive (or non-finite).
    pub(crate) fn with_label_rates(chain: Arc<ChainStructure>, label_rate: Vec<f64>) -> Self {
        let mut max_rate = 0.0f64;
        for &l in &chain.used {
            let Some(&r) = label_rate.get(l as usize) else {
                panic!("label {l} outside the rate table ({})", label_rate.len())
            };
            assert!(r > 0.0 && r.is_finite(), "rates must be positive");
            max_rate = max_rate.max(r);
        }
        // Cached exit rates and uniformization constant: one pass, each
        // row summed in forward order.
        let exit: Vec<f64> = (0..chain.n_states())
            .map(|s| {
                chain.label[chain.row_range(s)]
                    .iter()
                    .map(|&l| label_rate[l as usize])
                    .sum()
            })
            .collect();
        let lambda = (exit.iter().fold(0.0f64, |m, &e| m.max(e)) * 1.1).max(1e-300);
        Ctmc {
            chain,
            label_rate,
            exit,
            lambda,
            max_rate,
        }
    }

    /// Number of states.
    pub fn n_states(&self) -> usize {
        self.exit.len()
    }

    /// Heap bytes the solvers read, from the arrays' lengths (not their
    /// capacities, so the figure is deterministic): the shared
    /// [`ChainStructure`] — the forward labels, the incoming CSR and the
    /// used labels — plus the label table and the exit rates,
    /// `(8 + w) · nnz + 16 · n + 8 + 8 · label_rates().len() + 4 ·
    /// labels_used`, with `w` the incoming labels' width
    /// ([`ChainStructure::in_label_bytes`]).  The structure is counted in
    /// full although every chain rated over it shares it.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of_val;
        self.chain.heap_bytes() + size_of_val(&self.label_rate[..]) + size_of_val(&self.exit[..])
    }

    /// Number of non-zero rate entries.
    pub fn nnz(&self) -> usize {
        self.chain.nnz()
    }

    /// The shared edge structure this chain is rated over.
    pub fn structure(&self) -> &Arc<ChainStructure> {
        &self.chain
    }

    /// The rate of every label (index = label).
    pub fn label_rates(&self) -> &[f64] {
        &self.label_rate
    }

    /// Rates of the outgoing transitions of state `s`, in forward order
    /// (the order of the exit-rate sum; the targets are
    /// [`ChainStructure::forward_targets`]).
    #[inline]
    pub fn row_rates(&self, s: usize) -> impl Iterator<Item = f64> + '_ {
        self.chain.label[self.chain.row_range(s)]
            .iter()
            .map(|&l| self.label_rate[l as usize])
    }

    /// Incoming transitions of state `j` as `(source, rate)` pairs,
    /// sources ascending — the gather of Gauss–Seidel and the residual,
    /// in the order they sum it.  Allocation-free; each step branches on
    /// the stored label width, which the solvers' own loops do not.
    pub fn incoming(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        match &self.chain.in_label {
            InLabels::U8(l) => Either::Narrow(self.incoming_in(l, j)),
            InLabels::U32(l) => Either::Wide(self.incoming_in(l, j)),
        }
    }

    /// [`Ctmc::incoming`] over the incoming labels at their stored width.
    #[inline]
    fn incoming_in<'a, L: Label>(
        &'a self,
        in_label: &'a [L],
        j: usize,
    ) -> impl Iterator<Item = (usize, f64)> + 'a {
        let range = self.chain.in_range(j);
        self.chain.in_src[range.clone()]
            .iter()
            .zip(&in_label[range])
            // SAFETY: every incoming label occurs in the structure, and
            // `with_label_rates` checked each against the table.
            .map(|(&i, &l)| (i as usize, unsafe { *self.rate_of(l.index()) }))
    }

    /// Total exit rate of state `s` (cached at construction).
    #[inline]
    pub fn exit_rate(&self, s: usize) -> f64 {
        self.exit[s]
    }

    /// Uniformization constant `Λ = 1.1 · max_s exit_rate(s)`, computed
    /// once at construction from the cached exit rates (the seed
    /// recomputed every exit rate — a full extra pass over the nnz — on
    /// each call).
    #[inline]
    pub fn uniformization(&self) -> f64 {
        self.lambda
    }

    /// Stationary distribution by GTH elimination (subtraction-free).
    ///
    /// Works on the uniformized DTMC `P = I + Q/Λ`, which has the same
    /// stationary vector.  `O(n³)` time, `O(n²)` space.  Right-looking:
    /// eliminating state `k` rank-1-updates the leading `k × k` block;
    /// the departure mass `S_k` is divided into the pivot row once
    /// (`s_inv`) rather than into each of the `k` column entries, and the
    /// back-substitution applies the same factor symbolically.
    pub fn stationary_gth(&self) -> Vec<f64> {
        let n = self.n_states();
        assert!(n > 0);
        if n == 1 {
            return vec![1.0];
        }
        let inv_lambda = 1.0 / self.lambda;
        // Dense uniformized chain, filled column by column from the
        // incoming CSR.  Its stable transpose lists the parallel edges
        // `i → j` in forward order, so each cell sums the same rates in
        // the same order as a forward fill; the diagonal comes last.
        let mut p = vec![0.0f64; n * n];
        by_width!(&self.chain.in_label, |in_label| {
            for j in 0..n {
                for (i, r) in self.incoming_in(in_label, j) {
                    p[i * n + j] += r * inv_lambda;
                }
            }
        });
        for s in 0..n {
            p[s * n + s] += 1.0 - self.exit[s] * inv_lambda;
        }
        // GTH elimination: for k = n−1 … 1, redistribute state k's
        // probability flow over the remaining states using only additions
        // and divisions (Grassmann–Taksar–Heyman).  The pivot row is
        // scaled by 1/S_k once; the raw column entries p[i][k] stay in
        // place and the factor is re-applied during back-substitution.
        let mut s_inv = vec![0.0f64; n];
        for k in (1..n).rev() {
            let (top, pivot) = p.split_at_mut(k * n);
            let pivot = &mut pivot[..k];
            let s: f64 = pivot.iter().sum();
            debug_assert!(s > 0.0, "reducible chain during GTH at state {k}");
            let inv = 1.0 / s;
            s_inv[k] = inv;
            for v in pivot.iter_mut() {
                *v *= inv;
            }
            // Rank-1 update of the leading k × k block: row i gains
            // p[i][k] · pivot.  Skip rows with no mass on column k (sparse
            // chains stay sparse through the early eliminations).
            for i in 0..k {
                let pik = top[i * n + k];
                if pik > 0.0 {
                    let row = &mut top[i * n..i * n + k];
                    for (v, &pk) in row.iter_mut().zip(pivot.iter()) {
                        *v += pik * pk;
                    }
                }
            }
        }
        // Back-substitution: pi[k] = S_k⁻¹ · Σ_{i<k} pi[i] p[i][k].
        let mut pi = vec![0.0f64; n];
        pi[0] = 1.0;
        for k in 1..n {
            let mut acc = 0.0;
            for i in 0..k {
                acc += pi[i] * p[i * n + k];
            }
            pi[k] = acc * s_inv[k];
        }
        let total: f64 = pi.iter().sum();
        let inv_total = 1.0 / total;
        for v in &mut pi {
            *v *= inv_total;
        }
        pi
    }

    /// One uniformized power sweep over the incoming CSR:
    /// `next[j] = Σ_{i→j} pi[i]·(r·(1/Λ)) + pi[j]·stay[j]` — a gather, so
    /// disjoint chunks of `next` are independent.  Every entry of `next`
    /// is reduced in CSR order regardless of chunking, so the output is
    /// bitwise deterministic for any thread count (convergence is judged
    /// by a separate sequential pass in the caller for the same reason:
    /// a chunk-grouped partial sum would make the stopping scalar depend
    /// on the core count).
    fn power_sweep(&self, pi: &[f64], next: &mut [f64], stay: &[f64]) {
        let threads = sweep_threads(self.n_states());
        if threads <= 1 {
            self.power_sweep_range(pi, next, stay, 0);
            return;
        }
        let chunk = self.n_states().div_ceil(threads);
        std::thread::scope(|scope| {
            for (c, out) in next.chunks_mut(chunk).enumerate() {
                let start = c * chunk;
                scope.spawn(move || {
                    self.power_sweep_range(pi, out, stay, start);
                });
            }
        });
    }

    /// Sequential kernel of [`Ctmc::power_sweep`] for rows
    /// `start..start + out.len()` (deterministic: the per-entry reduction
    /// order is the CSR order, independent of chunking).
    #[inline]
    fn power_sweep_range(&self, pi: &[f64], out: &mut [f64], stay: &[f64], start: usize) {
        // SAFETY of the `get_unchecked` below: `ChainStructure::new`
        // validated that `in_ptr` is non-decreasing with `in_ptr[n] ==
        // nnz`, the length of `in_src` and of the incoming labels, and
        // every `in_src` entry is `< n`; `with_label_rates` checked every
        // label that occurs against `label_rate`; `pi`/`stay` have length
        // `n` (asserted by the callers); `start + out.len() ≤ n` holds for
        // every chunk `power_sweep` creates.
        let inv_lambda = 1.0 / self.lambda;
        let c = &*self.chain;
        by_width!(&c.in_label, |in_label| {
            for (dj, v) in out.iter_mut().enumerate() {
                let j = start + dj;
                unsafe {
                    let lo = *c.in_ptr.get_unchecked(j) as usize;
                    let hi = *c.in_ptr.get_unchecked(j + 1) as usize;
                    let mut acc = *pi.get_unchecked(j) * *stay.get_unchecked(j);
                    for e in lo..hi {
                        let i = *c.in_src.get_unchecked(e) as usize;
                        let r = *self.rate_of(in_label.get_unchecked(e).index());
                        acc += *pi.get_unchecked(i) * (r * inv_lambda);
                    }
                    *v = acc;
                }
            }
        })
    }

    /// Stationary distribution by uniformized power iteration.
    ///
    /// Converges geometrically for the (aperiodic, irreducible) uniformized
    /// chains of marking graphs; iteration stops when the L1 change drops
    /// below `tol` or after `max_iters` sweeps.  The iterate is
    /// renormalized every `NORM_PERIOD` sweeps, and every [`RRE_PERIOD`]
    /// sweeps a reduced-rank (vector Aitken Δ²) extrapolation of a
    /// [`RRE_WINDOW`]-iterate burst is attempted, kept only when it does
    /// not degrade the stationarity residual.
    pub fn stationary_power(&self, tol: f64, max_iters: usize) -> Vec<f64> {
        assert!(self.n_states() > 0);
        let pi0 = vec![1.0 / self.n_states() as f64; self.n_states()];
        unlimited(|b| self.power(pi0, tol, max_iters, b)).0
    }

    /// The power sweep loop, started from `pi` (the plan's fallback
    /// passes the relaxation iterate, so a near-converged vector is
    /// polished instead of thrown away).  Returns the iterate and the
    /// sweeps spent; `budget` is checked at each 1-in-[`CHECK_PERIOD`]
    /// stopping check.
    fn power(
        &self,
        mut pi: Vec<f64>,
        tol: f64,
        max_iters: usize,
        budget: &Budget,
    ) -> Result<(Vec<f64>, usize), Interrupt> {
        let n = self.n_states();
        assert_eq!(pi.len(), n);
        // Hoisted out of the sweep: stay[j] = 1 − exit[j]/Λ.  The sweep
        // forms each incoming probability as r·(1/Λ), a multiply, so the
        // hot path has no division.
        let inv_lambda = 1.0 / self.lambda;
        let stay: Vec<f64> = self.exit.iter().map(|&e| 1.0 - e * inv_lambda).collect();
        let mut next = vec![0.0f64; n];
        // RRE burst state: every RRE_PERIOD sweeps, the next RRE_WINDOW
        // iterates are recorded and extrapolated through their minimal
        // polynomial (the vector generalization of Aitken Δ²: Δ² handles
        // one real error mode, RRE kills up to RRE_WINDOW − 2 modes at
        // once, which is what the complex-spectrum marking chains need).
        let mut burst: Vec<Vec<f64>> = Vec::with_capacity(RRE_WINDOW);
        let mut sweeps = 0usize;
        for it in 0..max_iters {
            sweeps = it + 1;
            self.power_sweep(&pi, &mut next, &stay);
            // The L1 change is only needed on the sweeps that may stop;
            // computing it 1-in-CHECK_PERIOD keeps the hot path to the
            // sweep alone, and doing it sequentially keeps the stopping
            // decision independent of the thread count.
            let check = it % CHECK_PERIOD == CHECK_PERIOD - 1;
            if check {
                solver_checkpoint(budget, n, sweeps)?;
            }
            let diff = if check {
                pi.iter().zip(next.iter()).map(|(a, b)| (a - b).abs()).sum()
            } else {
                f64::INFINITY
            };
            std::mem::swap(&mut pi, &mut next);
            if check && diff < tol {
                break;
            }
            if it % NORM_PERIOD == NORM_PERIOD - 1 {
                normalize(&mut pi);
            }
            if !burst.is_empty() || it % RRE_PERIOD == RRE_PERIOD - 1 {
                burst.push(pi.clone());
                if burst.len() == RRE_WINDOW {
                    if let Some(ext) = rre_extrapolate(&burst) {
                        self.accept_if_better(ext, &mut pi);
                    }
                    burst.clear();
                }
            }
        }
        normalize(&mut pi);
        Ok((pi, sweeps))
    }

    /// Replace `pi` by `candidate` when the candidate is a proper
    /// distribution with a smaller stationarity residual.
    fn accept_if_better(&self, mut candidate: Vec<f64>, pi: &mut Vec<f64>) {
        for v in candidate.iter_mut() {
            if !v.is_finite() || *v < 0.0 {
                return;
            }
        }
        let total: f64 = candidate.iter().sum();
        if !(total.is_finite() && total > 0.0) {
            return;
        }
        let inv = 1.0 / total;
        for v in &mut candidate {
            *v *= inv;
        }
        let mut cur = pi.clone();
        normalize(&mut cur);
        if self.stationarity_residual(&candidate) < self.stationarity_residual(&cur) {
            *pi = candidate;
        }
    }

    /// Stationary distribution by Gauss–Seidel relaxation of the balance
    /// equations, sweeping states in index order and using updated values
    /// immediately:
    ///
    /// ```text
    ///   π_j ← ( Σ_{i → j} π_i · r_ij ) / exit_j
    /// ```
    ///
    /// Stops after the first sweep in which no entry moved by `tol` or
    /// more relative to the larger of its old and new magnitudes, or
    /// after `max_sweeps`; a `tol` that is not positive never stops
    /// early.  After each sweep the iterate is scaled to unit sum, by a
    /// sum the sweep accumulates as it stores each entry — the additions,
    /// in the order, of `pi.iter().sum()`.  Every 8 sweeps from sweep 16
    /// on, when the last two iterate differences line up, it jumps along
    /// that one slow error mode (Aitken extrapolation).
    /// `O(sweeps · nnz)` time; one extra `n`-vector (the last iterate
    /// difference), allocated from sweep 15 on.
    /// Convergence is not guaranteed for every irreducible chain (unlike
    /// the uniformized power method), so callers that cannot tolerate a
    /// miss should check [`Ctmc::stationarity_residual`] and fall back —
    /// [`Ctmc::stationary`] does exactly that.
    pub fn stationary_gauss_seidel(&self, tol: f64, max_sweeps: usize) -> Vec<f64> {
        unlimited(|b| self.gauss_seidel(tol, max_sweeps, b)).0
    }

    /// The Gauss–Seidel sweep loop: the iterate and the sweeps spent;
    /// `budget` is checked every [`CHECK_PERIOD`] sweeps.
    fn gauss_seidel(
        &self,
        tol: f64,
        max_sweeps: usize,
        budget: &Budget,
    ) -> Result<(Vec<f64>, usize), Interrupt> {
        let n = self.n_states();
        assert!(n > 0);
        if n == 1 {
            return Ok((vec![1.0], 0));
        }
        let mut pi = vec![1.0 / n as f64; n];
        // The one extra vector: d₀ = π_s − π_{s−1} after a sweep
        // `s ≡ K − 1`, then the entries' changes δ during the sweep after.
        let mut d = Vec::new();
        let mut d0_sq = 0.0f64;
        let mut sweeps = 0usize;
        by_width!(&self.chain.in_label, |in_label| {
            for it in 0..max_sweeps {
                sweeps = it + 1;
                if it % CHECK_PERIOD == CHECK_PERIOD - 1 {
                    solver_checkpoint(budget, n, sweeps)?;
                }
                // No window in the first period, so a chain that converges
                // within two periods runs plain relaxation, bit for bit.
                let phase = sweeps % EXTRAPOLATION_PERIOD;
                let record = sweeps > EXTRAPOLATION_PERIOD && phase == EXTRAPOLATION_PERIOD - 1;
                let measure = sweeps > EXTRAPOLATION_PERIOD && phase == 0;
                if record {
                    d.clear();
                    d.extend_from_slice(&pi);
                }
                // SAFETY: `pi` has length `n`, and `d` too whenever the
                // sweep reads it: it was refilled at the previous sweep.
                let sweep = unsafe {
                    if measure {
                        self.relax::<_, true>(in_label, &mut pi, &mut d, tol)
                    } else {
                        self.relax::<_, false>(in_label, &mut pi, &mut d, tol)
                    }
                };
                scale_to_unit(&mut pi, sweep.total);
                if !sweep.moved {
                    break;
                }
                if record {
                    d0_sq = -0.0;
                    for (dj, &p) in d.iter_mut().zip(&pi) {
                        *dj = p - *dj;
                        d0_sq += *dj * *dj;
                    }
                } else if measure {
                    extrapolate(&mut pi, &d, d0_sq, &sweep);
                }
            }
        });
        Ok((pi, sweeps))
    }

    /// One Gauss–Seidel sweep over `pi`, in place and unscaled: its sum
    /// (the additions, in the order, of `pi.iter().sum()`) and whether an
    /// entry moved by `tol` (see [`moved_by`]).  With `WINDOW` it also
    /// reads `d` as d₀, stores each entry's change `δ_j = new_j − old_j`
    /// over it and accumulates the inner products [`extrapolate`] needs.
    ///
    /// # Safety
    /// `pi.len() == n`, and `d.len() == n` when `WINDOW`.
    #[inline(always)]
    unsafe fn relax<L: Label, const WINDOW: bool>(
        &self,
        in_label: &[L],
        pi: &mut [f64],
        d: &mut [f64],
        tol: f64,
    ) -> Sweep {
        let exit = &self.exit[..pi.len()];
        let half_tol = 0.5 * tol;
        // A `tol` that is not positive counts every sweep as moved, so the
        // stop test never runs and the loop never stops.
        let may_stop = tol > 0.0;
        // `Sum for f64` starts from −0.0, so `total` is `pi.iter().sum()`.
        let mut s = Sweep {
            total: -0.0,
            moved: !may_stop,
            dots: [-0.0; 5],
        };
        for j in 0..pi.len() {
            let new = self.gather(in_label, j, pi, 0.0) / *exit.get_unchecked(j);
            let old = std::mem::replace(pi.get_unchecked_mut(j), new);
            s.total += new;
            if !s.moved {
                s.moved = moved_by(old, new, tol, half_tol);
            }
            if WINDOW {
                let dj = d.get_unchecked_mut(j);
                let (delta, d0) = (new - old, *dj);
                s.dots[0] += delta * d0;
                s.dots[1] += new * d0;
                s.dots[2] += delta * delta;
                s.dots[3] += delta * new;
                s.dots[4] += new * new;
                *dj = delta;
            }
        }
        s
    }

    /// The explicit [`SolverPlan`] the automatic selection follows for
    /// this chain — the measured size/density crossovers of the module
    /// docs and `ARCHITECTURE.md`.
    pub fn solver_plan(&self) -> SolverPlan {
        let n = self.n_states();
        if n <= GTH_SMALL_N {
            return SolverPlan {
                primary: Solver::Gth,
                fallbacks: &[],
                reason: "n <= 32: GTH elimination is fastest and exact to rounding",
            };
        }
        let dense = self.nnz() as f64 > (n as f64) * (n as f64) * 0.25;
        if dense && n <= GTH_DENSE_N {
            return SolverPlan {
                primary: Solver::Gth,
                fallbacks: &[],
                reason: "dense (nnz > n^2/4) and n <= 1500: elimination beats relaxation",
            };
        }
        SolverPlan {
            primary: Solver::GaussSeidel,
            fallbacks: &[Solver::Power],
            reason: "sparse: Gauss-Seidel converges in tens of sweeps at every size",
        }
    }

    /// Stationary distribution with automatic solver selection — a thin
    /// wrapper over [`Ctmc::stationary_solve`] with [`SolverChoice::Auto`]
    /// for callers that do not need the provenance.
    pub fn stationary(&self) -> Vec<f64> {
        self.stationary_solve(SolverChoice::Auto).pi
    }

    /// [`Ctmc::stationary_solve_governed`] with no limit, for callers
    /// that cannot return an [`Interrupt`].
    pub fn stationary_solve(&self, choice: SolverChoice) -> SolveReport {
        unlimited(|b| self.stationary_solve_governed(choice, b))
    }

    /// Solve for the stationary distribution following `choice` and
    /// report which solver produced the result, its final max-norm
    /// stationarity residual, and its iteration count.  Every stationary
    /// solve of this crate runs through here.
    ///
    /// With [`SolverChoice::Auto`] this executes [`Ctmc::solver_plan`]:
    /// the primary method runs first and each fallback only fires when
    /// the previous result misses the rate-relative `1e-10` residual
    /// contract (or is non-finite).  With [`SolverChoice::Force`] exactly
    /// that solver runs, with its standard budget and no fallback — the
    /// reported residual is then the caller's only convergence signal.
    ///
    /// The iterative solvers check `budget` at their sweep
    /// checkpoints and surface an overrun as an [`Interrupt`] instead of
    /// running to completion ([`Solver::Gth`] has no checkpoint).  A
    /// check only decides *whether* to continue, never what to compute,
    /// so the result bits do not depend on the budget;
    /// [`Budget::UNLIMITED`] is the no-limit case.
    pub fn stationary_solve_governed(
        &self,
        choice: SolverChoice,
        budget: &Budget,
    ) -> Result<SolveReport, Interrupt> {
        match choice {
            SolverChoice::Force(s) => self.run_forced(s, budget),
            SolverChoice::Auto => self.run_plan(self.solver_plan(), budget),
        }
    }

    /// Run one solver with its standard budget and report the outcome.
    fn run_forced(&self, solver: Solver, budget: &Budget) -> Result<SolveReport, Interrupt> {
        let (pi, iterations) = match solver {
            Solver::Gth => (self.stationary_gth(), self.n_states()),
            Solver::GaussSeidel => self.gauss_seidel(1e-14, 10_000, budget)?,
            Solver::Power => self.power(
                vec![1.0 / self.n_states() as f64; self.n_states()],
                1e-13,
                200_000,
                budget,
            )?,
        };
        let residual = self.stationarity_residual(&pi);
        Ok(SolveReport {
            pi,
            solver,
            residual,
            iterations,
        })
    }

    /// Execute a [`SolverPlan`]: GTH runs alone; Gauss–Seidel is
    /// residual-verified and, when it misses the contract, its iterate is
    /// polished by the power fallback (matching the historical
    /// `stationary()` bit for bit).
    fn run_plan(&self, plan: SolverPlan, budget: &Budget) -> Result<SolveReport, Interrupt> {
        if plan.primary != Solver::GaussSeidel {
            return self.run_forced(plan.primary, budget);
        }
        let n = self.n_states();
        let tol = GS_RESIDUAL_TOL * self.max_rate().max(1e-300);
        let gs = self.run_forced(Solver::GaussSeidel, budget)?;
        // Acceptance requires finiteness explicitly: a zero-exit state
        // makes relaxation divide by zero, and `f64::max` in the residual
        // ignores the resulting NaNs rather than propagating them.
        let finite = gs.pi.iter().all(|v| v.is_finite());
        if finite && gs.residual <= tol {
            return Ok(gs);
        }
        // Fallback: polish the (partially converged) Gauss–Seidel iterate
        // with the unconditionally convergent power method rather than
        // restarting from the uniform vector — unless relaxation produced
        // non-finite entries, which would poison every later sweep.
        let pi0 = if finite {
            gs.pi
        } else {
            vec![1.0 / n as f64; n]
        };
        let (pi, iterations) = self.power(pi0, 1e-13, 200_000, budget)?;
        let residual = self.stationarity_residual(&pi);
        Ok(SolveReport {
            pi,
            solver: Solver::Power,
            residual,
            iterations,
        })
    }

    /// Largest single transition rate — the residual contract's scale.
    /// Taken over the labels that occur only, so a rate-table entry no
    /// edge carries never loosens the acceptance.
    pub fn max_rate(&self) -> f64 {
        self.max_rate
    }

    /// `init + Σ_{i→j} pi[i] · r_ij`, summed in incoming-CSR order (sources
    /// ascending) with no bounds check — the gather of Gauss–Seidel and
    /// of the residual, over the incoming labels at their stored width.
    ///
    /// # Safety
    /// `j < n`, `pi.len() >= n`, and `in_label` is this chain's incoming
    /// labels.  The rest is the structure's: `ChainStructure::new` built
    /// `in_ptr` as the prefix sums of the in-degrees (`n + 1` entries,
    /// non-decreasing, ending at `nnz`, the length of `in_src` and of the
    /// incoming labels) and every `in_src` entry as a row index `< n`,
    /// and [`Ctmc::with_label_rates`] checked every label that occurs
    /// against the rate table.
    #[inline(always)]
    unsafe fn gather<L: Label>(&self, in_label: &[L], j: usize, pi: &[f64], init: f64) -> f64 {
        let c = &*self.chain;
        let lo = *c.in_ptr.get_unchecked(j) as usize;
        let hi = *c.in_ptr.get_unchecked(j + 1) as usize;
        let mut acc = init;
        for e in lo..hi {
            let i = *c.in_src.get_unchecked(e) as usize;
            acc += *pi.get_unchecked(i) * *self.rate_of(in_label.get_unchecked(e).index());
        }
        acc
    }

    /// The rate of label `l`, unchecked.
    ///
    /// # Safety
    /// `l` must be a label of this chain's structure:
    /// [`Ctmc::with_label_rates`] checked every one against the table.
    #[inline(always)]
    unsafe fn rate_of(&self, l: usize) -> &f64 {
        debug_assert!(l < self.label_rate.len());
        self.label_rate.get_unchecked(l)
    }

    /// Verify `π Q = 0` (stationarity residual, max-norm) — used by tests
    /// and by the Gauss–Seidel acceptance check.
    pub fn stationarity_residual(&self, pi: &[f64]) -> f64 {
        let n = self.n_states();
        let (pi, exit) = (&pi[..n], &self.exit[..n]);
        let mut worst = 0.0f64;
        by_width!(&self.chain.in_label, |in_label| {
            for j in 0..n {
                // SAFETY: `j < n`, and `pi` and `exit` were sliced to
                // length `n` above.
                let acc = unsafe {
                    let init = -*pi.get_unchecked(j) * *exit.get_unchecked(j);
                    self.gather(in_label, j, pi, init)
                };
                worst = worst.max(acc.abs());
            }
        });
        worst
    }
}

/// Reduced-rank extrapolation of a window of consecutive fixed-point
/// iterates `xs = [x_0 … x_{w−1}]` — the vector generalization of Aitken
/// Δ².  With differences `u_i = x_{i+1} − x_i`, it returns
/// `x* = Σ γ_i x_i` where `γ` minimizes `‖Σ γ_i u_i‖₂` subject to
/// `Σ γ_i = 1` (solved through the normal equations `(UᵀU) c = 1`,
/// `γ = c / Σc` — a `(w−1)×(w−1)` system).  For an iterate whose error is
/// a combination of up to `w − 2` geometric modes — real *or complex* —
/// this annihilates them all at once, which is why it accelerates the
/// nonreversible marking chains where scalar Aitken's one-real-mode model
/// fails.  Returns `None` when the little system is numerically singular
/// (iterates already coincide, or modes are not separated yet).
fn rre_extrapolate(xs: &[Vec<f64>]) -> Option<Vec<f64>> {
    let w = xs.len();
    if w < 3 {
        return None;
    }
    let k = w - 1; // number of difference vectors
    let n = xs[0].len();
    // Gram matrix of the differences.
    let mut m = vec![0.0f64; k * k];
    for a in 0..k {
        for b in a..k {
            let mut dot = 0.0;
            for (((xa1, xa), xb1), xb) in xs[a + 1].iter().zip(&xs[a]).zip(&xs[b + 1]).zip(&xs[b]) {
                dot += (xa1 - xa) * (xb1 - xb);
            }
            m[a * k + b] = dot;
            m[b * k + a] = dot;
        }
    }
    // Solve M c = 1 by Gaussian elimination with partial pivoting.
    let mut c = vec![1.0f64; k];
    for col in 0..k {
        let pivot = (col..k)
            .max_by(|&a, &b| m[a * k + col].abs().total_cmp(&m[b * k + col].abs()))
            .unwrap_or(col);
        if m[pivot * k + col].abs() < 1e-300 {
            return None;
        }
        if pivot != col {
            for j in 0..k {
                m.swap(col * k + j, pivot * k + j);
            }
            c.swap(col, pivot);
        }
        let inv = 1.0 / m[col * k + col];
        for r in col + 1..k {
            let f = m[r * k + col] * inv;
            if f != 0.0 {
                for j in col..k {
                    m[r * k + j] -= f * m[col * k + j];
                }
                c[r] -= f * c[col];
            }
        }
    }
    for col in (0..k).rev() {
        let mut acc = c[col];
        for j in col + 1..k {
            acc -= m[col * k + j] * c[j];
        }
        let d = m[col * k + col];
        if d.abs() < 1e-300 {
            return None;
        }
        c[col] = acc / d;
    }
    let total: f64 = c.iter().sum();
    if !(total.is_finite() && total.abs() > 1e-300) {
        return None;
    }
    // x* = Σ γ_i x_i over the first k iterates.
    let mut ext = vec![0.0f64; n];
    for (gamma, x) in c.iter().zip(xs.iter()) {
        let g = gamma / total;
        for (o, &v) in ext.iter_mut().zip(x.iter()) {
            *o += g * v;
        }
    }
    if ext.iter().any(|v| !v.is_finite()) {
        return None;
    }
    // Small negative components are extrapolation overshoot; clamp and let
    // the caller's residual safeguard decide.
    for v in ext.iter_mut() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
    Some(ext)
}

/// Whether a Gauss–Seidel update `old → new` moved by `tol` or more
/// relative to `scale = max(|old|, |new|)`: exactly
/// `scale > 0 && |new − old| / scale >= tol`, with the divide only where
/// `|new − old| >= half_tol · scale` (`half_tol` is `0.5 · tol`, hoisted
/// by the caller).  Where that pre-filter fails the quotient is below
/// `tol` as well: the rounded product overshoots the exact one by at
/// most a factor `1 + 2⁻⁵³`, or by half a subnormal step when it
/// underflows (a product rounded to zero passes the filter), so the
/// quotient stays within a rounding of `tol / 2`.  A zero, infinite or
/// NaN `scale` makes the quotient NaN, which compares false, as the
/// unfiltered test did.
#[inline(always)]
fn moved_by(old: f64, new: f64, tol: f64, half_tol: f64) -> bool {
    let d = (new - old).abs();
    let scale = old.abs().max(new.abs());
    d >= half_tol * scale && d / scale >= tol
}

/// What one Gauss–Seidel sweep ([`Ctmc::relax`]) hands back: the
/// unscaled sum `T` of the new iterate, whether an entry moved, and on a
/// sweep `s ≡ 0` (mod [`EXTRAPOLATION_PERIOD`]) the sums `Σ δ·d₀`,
/// `Σ new·d₀`, `Σ δ²`, `Σ δ·new` and `Σ new²` over its entries.
struct Sweep {
    total: f64,
    moved: bool,
    dots: [f64; 5],
}

/// The one-mode (Aitken) jump of Gauss–Seidel, after the sweep `s ≡ 0`
/// has been scaled to unit sum.  `d` holds that sweep's changes `δ`, so
/// its iterate difference is `d₁ = δ + π·(1 − T)` exactly, and with
/// `c = (1 − T)/T` the sweep's sums give `⟨d₁,d₀⟩ = Σδd₀ + c·Σ new·d₀`
/// and `⟨d₁,d₁⟩ = Σδ² + 2c·Σδ·new + c²·Σ new²` with no second copy of
/// the iterate.  When the two differences line up (`cos > 0.999`) and
/// shrink by `0 < λ = ⟨d₁,d₀⟩/⟨d₀,d₀⟩ < 0.99`, one real error mode
/// dominates, and its sum `λ/(1 − λ)·d₁` is added at once, clamped at 0
/// and renormalised.  A NaN anywhere fails the gate.
fn extrapolate(pi: &mut [f64], d: &[f64], d0_sq: f64, sweep: &Sweep) {
    let [dd0, nd0, dd, dn, nn] = sweep.dots;
    let one_minus_t = 1.0 - sweep.total;
    let c = one_minus_t / sweep.total;
    let d1_d0 = dd0 + c * nd0;
    let d1_sq = dd + 2.0 * c * dn + c * c * nn;
    let lambda = d1_d0 / d0_sq;
    let cos = d1_d0 / (d0_sq * d1_sq).sqrt();
    if !(lambda > 0.0 && lambda < 0.99 && cos > 0.999) {
        return;
    }
    let step = lambda / (1.0 - lambda);
    let mut total = -0.0f64;
    for (p, &delta) in pi.iter_mut().zip(d) {
        *p = (*p + step * (delta + *p * one_minus_t)).max(0.0);
        total += *p;
    }
    scale_to_unit(pi, total);
}

/// Normalize to unit sum (in place).
pub(crate) fn normalize(pi: &mut [f64]) {
    scale_to_unit(pi, pi.iter().sum());
}

/// Scale `pi` by `1 / total`, its sum — unless that sum is not positive
/// and finite, when `pi` is left as it is.
fn scale_to_unit(pi: &mut [f64], total: f64) {
    if total > 0.0 && total.is_finite() {
        let inv = 1.0 / total;
        for v in pi.iter_mut() {
            *v *= inv;
        }
    }
}

/// Core count, probed once per process (`available_parallelism` is a
/// syscall; calling it per sweep dominated small chains).  Shared by the
/// pull sweep here and the chunk-parallel marking BFS in
/// [`crate::marking`].
pub(crate) fn num_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Threads the pull-sweep should use for an `n`-state chain.
fn sweep_threads(n: usize) -> usize {
    num_cores().min(n / PAR_MIN_ROWS).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two-state birth–death chain: π = (μ, λ)/(λ+μ).
    fn two_state(lam: f64, mu: f64) -> Ctmc {
        Ctmc::new(vec![vec![(1, lam)], vec![(0, mu)]])
    }

    #[test]
    fn two_state_closed_form() {
        let c = two_state(2.0, 3.0);
        let pi = c.stationary_gth();
        assert!((pi[0] - 0.6).abs() < 1e-12);
        assert!((pi[1] - 0.4).abs() < 1e-12);
        let pw = c.stationary_power(1e-14, 100_000);
        assert!((pw[0] - 0.6).abs() < 1e-9);
        let gs = c.stationary_gauss_seidel(1e-14, 10_000);
        assert!((gs[0] - 0.6).abs() < 1e-10, "{gs:?}");
    }

    #[test]
    fn mm1k_queue_closed_form() {
        // M/M/1/K birth–death: π_i ∝ ρ^i.
        let (lam, mu, k) = (1.5, 2.0, 6usize);
        let mut rows = vec![Vec::new(); k + 1];
        for i in 0..k {
            rows[i].push((i + 1, lam));
            rows[i + 1].push((i, mu));
        }
        let c = Ctmc::new(rows);
        let pi = c.stationary();
        let rho: f64 = lam / mu;
        let z: f64 = (0..=k).map(|i| rho.powi(i as i32)).sum();
        for (i, &p) in pi.iter().enumerate() {
            assert!(
                (p - rho.powi(i as i32) / z).abs() < 1e-10,
                "state {i}: {p} vs {}",
                rho.powi(i as i32) / z
            );
        }
        assert!(c.stationarity_residual(&pi) < 1e-10);
    }

    #[test]
    fn csr_layout_roundtrip() {
        let c = Ctmc::new(vec![
            vec![(1, 2.0), (2, 1.0)],
            vec![(2, 3.0)],
            vec![(0, 0.5)],
        ]);
        assert_eq!(c.n_states(), 3);
        assert_eq!(c.nnz(), 4);
        assert_eq!(c.structure().forward_targets(), vec![1, 2, 2, 0]);
        assert_eq!(c.row_rates(0).collect::<Vec<_>>(), vec![2.0, 1.0]);
        assert_eq!(c.row_rates(1).collect::<Vec<_>>(), vec![3.0]);
        assert_eq!(c.incoming(2).collect::<Vec<_>>(), vec![(0, 1.0), (1, 3.0)]);
        assert!((c.exit_rate(0) - 3.0).abs() < 1e-15);
        assert!((c.exit_rate(2) - 0.5).abs() < 1e-15);
        assert!((c.uniformization() - 3.3).abs() < 1e-12);
    }

    #[test]
    fn builder_matches_new() {
        let rows = vec![vec![(1, 2.0)], vec![(0, 3.0), (1, 1.0)]];
        let a = Ctmc::new(rows);
        let mut b = CsrBuilder::with_capacity(2, 3);
        b.push(1, 2.0);
        b.end_row();
        b.push(0, 3.0);
        b.push(1, 1.0);
        b.end_row();
        let b = b.finish();
        let targets = |c: &Ctmc| c.structure().forward_targets();
        assert_eq!(targets(&a), targets(&b));
        assert!(a.row_rates(1).eq(b.row_rates(1)));
    }

    /// A self-rate is no transition: given one on every state — each the
    /// largest rate of its chain — `Ctmc::new` builds, bit for bit, the
    /// chain of the same rows without them: edges, exit rates, `Λ`, the
    /// residual scale, and the π, residual and iterations of the plan
    /// (Gauss–Seidel at 60 states), forced Gauss–Seidel and GTH.
    #[test]
    fn self_rates_are_dropped() {
        let n = 60;
        let rate = |i: usize| 0.1 + (i * 37 % 101) as f64 / 25.0;
        let rows: Vec<Vec<(usize, f64)>> = (0..n)
            .map(|i| vec![((i + 1) % n, rate(i)), ((i * 7 + 3) % n, rate(i + n))])
            .collect();
        let looped: Vec<Vec<(usize, f64)>> = rows
            .iter()
            .enumerate()
            .map(|(i, row)| vec![row[0], (i, 9.5), row[1]])
            .collect();
        let (plain, looped) = (Ctmc::new(rows), Ctmc::new(looped));
        assert_eq!(looped.nnz(), plain.nnz());
        let targets = |c: &Ctmc| c.structure().forward_targets();
        assert_eq!(targets(&looped), targets(&plain));
        for s in 0..n {
            assert!(looped.row_rates(s).eq(plain.row_rates(s)), "row {s}");
            let exit = (looped.exit_rate(s).to_bits(), plain.exit_rate(s).to_bits());
            assert_eq!(exit.0, exit.1, "exit {s}");
        }
        let bits = |x: f64| x.to_bits();
        assert_eq!(bits(looped.uniformization()), bits(plain.uniformization()));
        assert_eq!(bits(looped.max_rate()), bits(plain.max_rate()));
        for choice in [
            SolverChoice::Auto,
            SolverChoice::Force(Solver::GaussSeidel),
            SolverChoice::Force(Solver::Gth),
        ] {
            let (a, b) = (
                looped.stationary_solve(choice),
                plain.stationary_solve(choice),
            );
            let what = choice.label();
            let pi = |r: &SolveReport| r.pi.iter().map(|&p| bits(p)).collect::<Vec<_>>();
            assert_eq!(pi(&a), pi(&b), "{what}: π");
            assert_eq!(bits(a.residual), bits(b.residual), "{what}");
            assert_eq!((a.solver, a.iterations), (b.solver, b.iterations), "{what}");
        }
    }

    /// A structure has no diagonal: a raw CSR with a self-loop is
    /// refused, as a dangling target is.
    #[test]
    #[should_panic(expected = "self-loop at state 1")]
    fn from_csr_refuses_a_self_loop() {
        Ctmc::from_csr(vec![0, 1, 3], vec![1, 0, 1], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn gth_matches_power_on_random_chain() {
        // Deterministic pseudo-random strongly connected chain.
        let n = 40;
        let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let mut x = 12345u64;
        let mut rnd = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((x >> 33) as f64) / (u32::MAX as f64) + 0.05
        };
        for (i, row) in rows.iter_mut().enumerate() {
            row.push(((i + 1) % n, rnd())); // ring keeps it irreducible
            row.push(((i * 7 + 3) % n, rnd()));
        }
        let c = Ctmc::new(rows);
        let a = c.stationary_gth();
        let b = c.stationary_power(1e-14, 500_000);
        let g = c.stationary_gauss_seidel(1e-14, 50_000);
        for i in 0..n {
            assert!(
                (a[i] - b[i]).abs() < 1e-8,
                "state {i}: {} vs {}",
                a[i],
                b[i]
            );
            assert!(
                (a[i] - g[i]).abs() < 1e-8,
                "state {i}: {} vs {}",
                a[i],
                g[i]
            );
        }
        assert!(c.stationarity_residual(&a) < 1e-12);
    }

    #[test]
    fn uniform_ring_is_uniform() {
        let n = 17;
        let rows: Vec<Vec<(usize, f64)>> = (0..n).map(|i| vec![((i + 1) % n, 3.0)]).collect();
        let pi = Ctmc::new(rows).stationary();
        for &p in &pi {
            assert!((p - 1.0 / n as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn large_sparse_ring_uses_gauss_seidel_path() {
        // Big enough to route past GTH; the ring's stationary law is
        // uniform, which pins the Gauss–Seidel/fallback result exactly.
        let n = 500;
        let rows: Vec<Vec<(usize, f64)>> = (0..n)
            .map(|i| vec![((i + 1) % n, 2.0), ((i + 7) % n, 1.0)])
            .collect();
        let c = Ctmc::new(rows);
        let pi = c.stationary();
        for &p in &pi {
            assert!((p - 1.0 / n as f64).abs() < 1e-10);
        }
        assert!(c.stationarity_residual(&pi) < 1e-10);
    }

    #[test]
    fn single_state() {
        let c = Ctmc::new(vec![Vec::new()]);
        assert_eq!(c.stationary(), vec![1.0]);
        assert_eq!(c.stationary_gauss_seidel(1e-12, 10), vec![1.0]);
    }

    /// FNV-1a over a stream of words.
    fn words_digest(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
            (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// FNV-1a over the bit patterns of a vector.
    fn bits_digest(v: &[f64]) -> u64 {
        words_digest(v.iter().map(|x| x.to_bits()))
    }

    /// The homogeneous Strict quotient of `teams` at one compute and one
    /// link rate.
    fn hom_quotient(teams: &[usize], compute: f64, link: f64) -> Ctmc {
        use crate::marking::{MarkingOptions, QuotientGraph};
        use crate::net::EventNet;
        use repstream_petri::shape::{ExecModel, MappingShape, ResourceTable};
        use repstream_petri::tpn::Tpn;

        let shape = MappingShape::new(teams.to_vec());
        let tpn = Tpn::build(&shape, ExecModel::Strict);
        let rates = ResourceTable::from_fns(&shape, |_, _| compute, |_, _, _| link);
        let (net, sym) = EventNet::from_tpn_with_symmetry(&tpn, &rates);
        let qg = QuotientGraph::build(&net, &sym.unwrap(), MarkingOptions::default()).unwrap();
        qg.ctmc_with_trans_rates(&net.rates)
    }

    /// A seeded `n`-state chain: a ring edge out of every state (which
    /// keeps it irreducible), then `draws` random targets, a draw that
    /// lands on the state itself skipped.  Targets may repeat: parallel
    /// edges.
    fn seeded_chain(n: usize, draws: usize, seed: u64) -> Ctmc {
        let mut x = seed;
        let mut rnd = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        let rows = (0..n)
            .map(|i| {
                let mut row = vec![((i + 1) % n, 0.1 + (rnd() % 1000) as f64 / 250.0)];
                for _ in 0..draws {
                    let j = rnd() as usize % n;
                    if j != i {
                        row.push((j, 0.1 + (rnd() % 1000) as f64 / 250.0));
                    }
                }
                row
            })
            .collect();
        Ctmc::new(rows)
    }

    /// The full Strict chain of `teams` on a heterogeneous platform:
    /// every processor and every link at its own rate.
    fn het_full(teams: &[usize]) -> Ctmc {
        use crate::marking::{MarkingGraph, MarkingOptions};
        use crate::net::EventNet;
        use repstream_petri::shape::{ExecModel, MappingShape, ResourceTable};
        use repstream_petri::tpn::Tpn;

        let shape = MappingShape::new(teams.to_vec());
        let tpn = Tpn::build(&shape, ExecModel::Strict);
        let rates = ResourceTable::from_fns(
            &shape,
            |c, s| 0.3 + 0.7 * c as f64 + 0.1 * s as f64,
            |f, a, b| 1.1 + 0.2 * f as f64 + 0.3 * (a + 2 * b) as f64,
        );
        let net = EventNet::from_tpn(&tpn, &rates);
        let mg = MarkingGraph::build(&net, MarkingOptions::default()).unwrap();
        mg.ctmc_with_trans_rates(&net.rates)
    }

    /// A seeded `n`-state chain through [`Ctmc::from_csr`]: a ring edge
    /// out of every state, then `draws` random targets (a draw of the
    /// state itself skipped, repeats kept as parallel edges).  Edge `e`
    /// is rated `1 + (e mod distinct) · 10⁻⁵`, so the chain has
    /// `min(distinct, nnz)` labels.
    fn distinct_rate_chain(n: usize, draws: usize, seed: u64, distinct: usize) -> Ctmc {
        let mut x = seed;
        let mut rnd = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as usize
        };
        let (mut row_ptr, mut col, mut rate) = (vec![0u32], Vec::new(), Vec::new());
        for i in 0..n {
            let draws: Vec<usize> = (0..draws).map(|_| rnd() % n).collect();
            for j in std::iter::once((i + 1) % n).chain(draws) {
                if j != i {
                    rate.push(1.0 + (col.len() % distinct) as f64 * 1e-5);
                    col.push(j as u32);
                }
            }
            row_ptr.push(col.len() as u32);
        }
        Ctmc::from_csr(row_ptr, col, rate)
    }

    /// Two dense `from_csr` chains whose labels outgrow a byte: 300
    /// distinct rates on a 40-state chain, and one distinct rate per edge
    /// on a 300-state chain with more than 65 536 edges.
    fn wide_label_chains() -> [(&'static str, Ctmc); 2] {
        let wide = [
            ("300 labels", distinct_rate_chain(40, 16, 0x1616, 300)),
            (
                "one label per edge",
                distinct_rate_chain(300, 240, 0x3232, usize::MAX),
            ),
        ];
        assert_eq!(wide[0].1.label_rates().len(), 300);
        assert!(wide[1].1.label_rates().len() > 1 << 16);
        wide
    }

    /// The homogeneous Strict 2×3 quotient (64 orbits) and a seeded
    /// 300-state sparse chain.
    fn pinned_chains() -> [(&'static str, Ctmc); 2] {
        [
            ("hom(2x3) quotient", hom_quotient(&[2, 3], 0.5, 2.0)),
            ("seeded sparse", seeded_chain(300, 2, 0x5eed)),
        ]
    }

    /// A path `0 → 1 → … → n−1` whose last state is absorbing.
    fn absorbing_chain(n: usize) -> Ctmc {
        let rows: Vec<Vec<(usize, f64)>> = (0..n)
            .map(|i| {
                if i + 1 < n {
                    vec![(i + 1, 1.0)]
                } else {
                    Vec::new()
                }
            })
            .collect();
        Ctmc::new(rows)
    }

    /// The power sweep's bits, pinned: a forced [`Solver::Power`] solve,
    /// and the plan's Gauss–Seidel → power polish (the relaxation cut
    /// short at three sweeps so the polish has work to do), on the two
    /// pinned chains and the two wide-label ones.  The first two were
    /// recorded when the sweep still read a precomputed `rate / Λ` array,
    /// the wide-label ones when every label was stored as `u32`.
    #[test]
    fn power_sweep_bits_are_pinned() {
        let expected = [
            (
                "hom(2x3) quotient",
                (0xd2d3_e881_c468_b195, 136),
                (0x8bff_dcc1_d458_c657, 128),
            ),
            (
                "seeded sparse",
                (0xc19f_a282_5c01_84fb, 112),
                (0x2e9b_be88_2e1d_255d, 104),
            ),
            (
                "300 labels",
                (0xdd4d_bd1a_b368_f891, 24),
                (0xd285_8c6a_593b_8ed4, 24),
            ),
            (
                "one label per edge",
                (0xdf98_341d_9f06_7cdd, 32),
                (0xc092_6c66_f0a8_81ad, 32),
            ),
        ];
        let chains: Vec<_> = pinned_chains()
            .into_iter()
            .chain(wide_label_chains())
            .collect();
        assert_eq!(chains.len(), expected.len());
        for ((label, c), (want_label, forced, polish)) in chains.into_iter().zip(expected) {
            assert_eq!(label, want_label);
            let rep = c.stationary_solve(SolverChoice::Force(Solver::Power));
            let got_forced = (bits_digest(&rep.pi), rep.iterations);
            let (gs, _) = c.gauss_seidel(1e-14, 3, &Budget::UNLIMITED).unwrap();
            let (pi, sweeps) = c.power(gs, 1e-13, 200_000, &Budget::UNLIMITED).unwrap();
            let got_polish = (bits_digest(&pi), sweeps);
            assert_eq!(got_forced, forced, "{label}: forced power");
            assert_eq!(got_polish, polish, "{label}: GS -> power polish");
        }
    }

    /// The Gauss–Seidel sweep's bits, pinned: π's digest, the sweeps and
    /// the residual's bits of a forced [`Solver::GaussSeidel`] solve on
    /// the two pinned chains, the absorbing chain (the relaxation
    /// divides by its zero exit rate and stops on a NaN entry) and a
    /// stiff hom(4×5) quotient, recorded when the sweep still summed the
    /// iterate in a separate normalisation pass and divided for every
    /// column's stop test; and the two wide-label chains, recorded when
    /// every label was stored as `u32`.  The one-mode extrapolation
    /// jumps only on the stiff quotient, whose entry was re-recorded
    /// with it (44 sweeps before, 30 after); on the other five its gate
    /// never opens, so their bits are the plain relaxation's.
    #[test]
    fn gauss_seidel_bits_are_pinned() {
        let expected = [
            (
                "hom(2x3) quotient",
                (0x1bb6_f7c9_784a_6b04, 20, 0x3c85_0000_0000_0000),
            ),
            (
                "seeded sparse",
                (0x898d_166c_d4e6_1f45, 39, 0x3c90_0000_0000_0000),
            ),
            ("absorbing", (0x73be_9e0c_f0f6_5c45, 2, 0)),
            (
                "stiff hom(4x5) quotient",
                (0xd17b_3470_5fb3_e122, 30, 0x3c1e_8000_0000_0000),
            ),
            (
                "300 labels",
                (0x33a2_3b7a_ba15_0812, 16, 0x3cb6_8000_0000_0000),
            ),
            (
                "one label per edge",
                (0x7b35_f807_63ba_2ecb, 16, 0x3ce2_7e00_0000_0000),
            ),
        ];
        let chains: Vec<_> = pinned_chains()
            .into_iter()
            .chain([
                ("absorbing", absorbing_chain(40)),
                ("stiff hom(4x5) quotient", hom_quotient(&[4, 5], 0.04, 6.0)),
            ])
            .chain(wide_label_chains())
            .collect();
        assert_eq!(chains.len(), expected.len());
        for ((label, c), (want_label, want)) in chains.into_iter().zip(expected) {
            assert_eq!(label, want_label);
            let rep = c.stationary_solve(SolverChoice::Force(Solver::GaussSeidel));
            let got = (bits_digest(&rep.pi), rep.iterations, rep.residual.to_bits());
            assert_eq!(got, want, "{label}");
        }
    }

    /// The extrapolation reaches the quotients it is for: on the plan's
    /// Gauss–Seidel, hom(4×5) at compute 0.5 / link 2.0 and hom(5×6) at
    /// 1/3 / 1/12 (the benchmark's warm op 0) converge in at most 0.7×
    /// the 47 and 64 sweeps plain relaxation takes, so an edit that
    /// shuts the gate fails here.
    #[test]
    fn extrapolation_cuts_quotient_sweeps() {
        for (teams, compute, link, plain) in [
            (&[4usize, 5][..], 0.5, 2.0, 47usize),
            (&[5, 6], 1.0 / 3.0, 1.0 / 12.0, 64),
        ] {
            let rep = hom_quotient(teams, compute, link).stationary_solve(SolverChoice::Auto);
            assert_eq!(rep.solver, Solver::GaussSeidel, "{teams:?}");
            assert!(
                10 * rep.iterations <= 7 * plain,
                "{teams:?}: {} sweeps, plain relaxation {plain}",
                rep.iterations
            );
        }
    }

    /// GTH's bits, pinned: π's digest and the residual's bits of a forced
    /// [`Solver::Gth`] solve on a 30-state sparse chain and a dense
    /// (`nnz > n²/4`) 40-state one, recorded when the dense matrix was
    /// still filled from the forward CSR, and on the two (dense)
    /// wide-label chains, recorded when every label was stored as `u32`;
    /// each chain has parallel edges.
    #[test]
    fn gth_bits_are_pinned() {
        let expected = [
            ("sparse 30", (0x2b1a_6524_da33_bdf1, 0x3cb1_b800_0000_0000)),
            ("dense 40", (0x81f9_842a_582c_5378, 0x3cc2_8000_0000_0000)),
            ("300 labels", (0x7c12_dacf_3e46_c144, 0x3cb7_8000_0000_0000)),
            (
                "one label per edge",
                (0x0d10_e007_4eb7_49b3, 0x3ce6_8e00_0000_0000),
            ),
        ];
        let chains: Vec<_> = [
            ("sparse 30", seeded_chain(30, 3, 0x6717)),
            ("dense 40", seeded_chain(40, 16, 0xde45e)),
        ]
        .into_iter()
        .chain(wide_label_chains())
        .collect();
        assert_eq!(chains.len(), expected.len());
        for ((label, c), (want_label, want)) in chains.into_iter().zip(expected) {
            assert_eq!(label, want_label);
            let n = c.n_states();
            // Parallel edges are repeated sources within a column.
            let parallel = (0..n).any(|j| {
                let src: Vec<usize> = c.incoming(j).map(|(i, _)| i).collect();
                src.windows(2).any(|w| w[0] == w[1])
            });
            assert!(parallel, "{label}: no parallel edge");
            if n > GTH_SMALL_N {
                assert!(4 * c.nnz() > n * n, "{label}: not dense");
            }
            let rep = c.stationary_solve(SolverChoice::Force(Solver::Gth));
            let got = (bits_digest(&rep.pi), rep.residual.to_bits());
            assert_eq!(got, want, "{label}");
        }
    }

    /// The structure's bits, pinned: per chain, its state and edge
    /// counts and digests of the forward labels row by row, of
    /// `incoming(j)` as (source, rate bits) for every `j`, and of the
    /// exit rates' bits — on a quotient, a full chain and the two
    /// `from_csr` chains whose labels outgrow a byte.  Recorded when the
    /// structure still stored forward targets and every label as `u32`.
    #[test]
    fn structure_bits_are_pinned() {
        let expected = [
            (
                "hom(4x5) quotient",
                (
                    7168,
                    36736,
                    0x20c6_e827_7dcf_5ad3,
                    0xeb53_c66b_ab07_b47e,
                    0xa4fa_6292_9cf2_5efb,
                ),
            ),
            (
                "het(3x4) full",
                (
                    7680,
                    30720,
                    0x620e_9d0f_ff15_527b,
                    0xcc24_48cd_36c6_031e,
                    0x840b_100b_bd30_a059,
                ),
            ),
            (
                "300 labels",
                (
                    40,
                    668,
                    0x4088_6e94_9dd7_008d,
                    0xc945_526c_c651_874c,
                    0x7269_e2cc_4119_6ab6,
                ),
            ),
            (
                "one label per edge",
                (
                    300,
                    72041,
                    0xe366_390b_372c_f5dc,
                    0xb696_5bff_7eb2_8112,
                    0xf440_eaa8_1a7a_0c92,
                ),
            ),
        ];
        let chains: Vec<_> = [
            ("hom(4x5) quotient", hom_quotient(&[4, 5], 0.3, 1.7)),
            ("het(3x4) full", het_full(&[3, 4])),
        ]
        .into_iter()
        .chain(wide_label_chains())
        .collect();
        assert_eq!(chains.len(), expected.len());
        for ((label, c), (want_label, want)) in chains.into_iter().zip(expected) {
            assert_eq!(label, want_label);
            let (n, chain) = (c.n_states(), c.structure());
            let ptr = chain.row_ptr();
            let forward = words_digest((0..n).flat_map(|s| {
                let row = &chain.labels()[ptr[s] as usize..ptr[s + 1] as usize];
                std::iter::once(row.len() as u64).chain(row.iter().map(|&l| u64::from(l)))
            }));
            let incoming = words_digest((0..n).flat_map(|j| {
                let edges: Vec<_> = c.incoming(j).collect();
                std::iter::once(edges.len() as u64)
                    .chain(edges.into_iter().flat_map(|(i, r)| [i as u64, r.to_bits()]))
            }));
            let exit = words_digest((0..n).map(|s| c.exit_rate(s).to_bits()));
            let got = (n, c.nnz(), forward, incoming, exit);
            assert_eq!(got, want, "{label}");
        }
    }

    /// The stop test's pre-filter changes no verdict: on a grid of zero,
    /// subnormal, extreme, infinite and NaN values, and on seeded pairs
    /// whose change straddles `tol · scale` and `tol / 2 · scale` by up
    /// to two ulps, [`moved_by`] agrees with the unfiltered
    /// `scale > 0 && |new − old| / scale >= tol`.
    #[test]
    fn moved_by_is_the_unfiltered_test() {
        let unfiltered = |old: f64, new: f64, tol: f64| {
            let scale = old.abs().max(new.abs());
            scale > 0.0 && (new - old).abs() / scale >= tol
        };
        let grid = [
            0.0,
            -0.0,
            f64::from_bits(1),
            1e-310,
            1e-300,
            1.0,
            1e300,
            f64::INFINITY,
            f64::NAN,
        ];
        let mut x = 0x5709_u64;
        let mut unit = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut verdicts = [0usize; 2];
        for tol in [1e-14, 1e-10] {
            let mut check = |old: f64, new: f64| {
                let want = unfiltered(old, new, tol);
                let got = moved_by(old, new, tol, 0.5 * tol);
                assert_eq!(got, want, "old {old:e}, new {new:e}, tol {tol:e}");
                verdicts[want as usize] += 1;
            };
            for old in grid {
                for new in grid {
                    check(old, new);
                }
            }
            for _ in 0..2000 {
                let old = 10f64.powf(unit() * 630.0 - 322.0);
                for f in [tol, 0.5 * tol] {
                    // |new − old| = f · scale: scale is `new` above `old`
                    // and `old` below it.
                    for edge in [old / (1.0 - f), old * (1.0 - f)] {
                        for k in -2i64..=2 {
                            check(old, f64::from_bits(edge.to_bits().wrapping_add_signed(k)));
                        }
                    }
                }
            }
        }
        assert!(verdicts.iter().all(|&v| v > 1000), "{verdicts:?}");
    }

    /// The chain's layout: `8 + w` bytes per edge (a source and a
    /// forward label of 4 bytes each, and the incoming label at its
    /// width `w`: 1, 4, 4 and 4 bytes on the chains below), 16 per state
    /// (the exit rate and two row pointers), 8 for the two closing row
    /// pointers, and the label table — 8 bytes per rate, 4 per label that
    /// occurs.  No array is per edge *and* per rate table: a refill
    /// shares the structure.
    #[test]
    fn heap_bytes_is_the_layout_formula() {
        let widths = [1, 4, 4, 4];
        let chains: Vec<_> = pinned_chains()
            .into_iter()
            .chain(wide_label_chains())
            .collect();
        assert_eq!(chains.len(), widths.len());
        for ((label, c), w) in chains.into_iter().zip(widths) {
            assert_eq!(c.structure().in_label_bytes(), w, "{label}");
            let table = 8 * c.label_rates().len() + 4 * c.structure().labels_used().len();
            let want = (8 + w) * c.nnz() + 16 * c.n_states() + 8 + table;
            assert_eq!(c.heap_bytes(), want, "{label}");
            assert_eq!(c.structure().nnz(), c.nnz(), "{label}");
            assert_eq!(c.structure().n_states(), c.n_states(), "{label}");
        }
    }

    /// The incoming labels take the narrower of the two widths that holds
    /// the largest label: 255 fits a byte, 256 and beyond take four.
    #[test]
    fn label_width_follows_the_largest_label() {
        for (top, w) in [(0u32, 1), (255, 1), (256, 4), (65_535, 4), (65_536, 4)] {
            let chain = ChainStructure::new(vec![0, 1, 2], vec![1, 0], vec![top, 0]);
            assert_eq!(chain.in_label_bytes(), w, "largest label {top}");
            assert_eq!(chain.labels_used().last(), Some(&top));
        }
    }

    /// The derived forward view inverts the transpose: transposed again,
    /// it gives back the incoming CSR, and it is the one preimage where
    /// the labels within a row are distinct — on a quotient, a full chain
    /// and a chain with one label per edge.  Where a row repeats a label,
    /// the targets among the repeats come out ascending.
    #[test]
    fn forward_targets_invert_the_transpose() {
        let chains = [
            ("hom(4x5) quotient", hom_quotient(&[4, 5], 0.3, 1.7)),
            ("het(3x4) full", het_full(&[3, 4])),
            ("one label per edge", wide_label_chains()[1].1.clone()),
        ];
        for (label, c) in chains {
            let s = c.structure();
            let distinct = (0..c.n_states()).all(|r| {
                let row = &s.labels()[s.row_range(r)];
                (1..row.len()).all(|k| !row[..k].contains(&row[k]))
            });
            assert!(distinct, "{label}: a row repeats a label");
            let again = ChainStructure::new(
                s.row_ptr().to_vec(),
                s.forward_targets(),
                s.labels().to_vec(),
            );
            assert_eq!(again.in_ptr, s.in_ptr, "{label}");
            assert_eq!(again.in_src, s.in_src, "{label}");
            assert_eq!(again.in_label, s.in_label, "{label}");
        }
        // Row 0 fires rate 2 at 3 and then at 1, and rate 1 at 2.
        let c = Ctmc::from_csr(
            vec![0, 3, 4, 5, 6],
            vec![3, 2, 1, 0, 0, 0],
            vec![2.0, 1.0, 2.0, 1.0, 1.0, 1.0],
        );
        assert_eq!(c.structure().forward_targets(), vec![1, 2, 3, 0, 0, 0]);
    }

    #[test]
    fn absorbing_state_falls_back_to_power() {
        // A chain with a zero-exit (absorbing) state big enough to route
        // past GTH: Gauss–Seidel divides by exit = 0 and produces NaN, so
        // `stationary()` must discard that iterate and restart the power
        // fallback from the uniform vector, converging to the point mass.
        let n = 40;
        let c = absorbing_chain(n);
        let pi = c.stationary();
        assert!(pi.iter().all(|v| v.is_finite()), "{pi:?}");
        assert!(
            (pi[n - 1] - 1.0).abs() < 1e-9,
            "mass {} at absorber",
            pi[n - 1]
        );
    }
}
