//! Reachable-marking enumeration: event net → CTMC (Theorem 2).
//!
//! BFS over markings.  For *safe* nets (the Strict TPNs; resource cycles
//! are invariant-bounded to one token) markings stay 0/1 and the chain is
//! the paper's construction verbatim.  For nets with unbounded places (the
//! forward places of Overlap TPNs taken globally) a finite **capacity**
//! must be supplied: a transition is then blocked while one of its output
//! places is at capacity.  Capping adds back-pressure, so the computed
//! throughput under-estimates the infinite-buffer value and increases to it
//! as the capacity grows — the validation experiments sweep the capacity.
//!
//! # One kernel, one sink, one graph type
//!
//! Every build is the same frontier BFS (`bfs.rs`: one level loop, one row
//! scanner, one staging/merge pair, one set of budget checkpoints and error
//! points), monomorphised over a **canonicaliser**, which turns a fired
//! successor into its interning key, a fixed number of packed `u64`
//! words: `RowRotation` (safe nets, so **bit rows**: the m rotations of a
//! row's marking are packed once per row, one bit per place and
//! big-endian, so that word order is byte-row order and the elected member
//! is unchanged; a firing is then one fused pass that XORs each rotation
//! with the tabulated flip mask of the rotated transition and compares,
//! and the winner's words are the key — of order 1 over the identity
//! permutation it is the safe full chain's canonicaliser), and on byte
//! rows, packed eight places per word, `Identity` (key = marking: the
//! capacity-bounded full chain) and `PerFiring` (a full
//! [`MarkingCanonicalizer`] call per firing: the oracle `RowRotation` is
//! tested against, and what builds the quotients bits cannot hold — a
//! capacity bound above one token — or whose tables would pass the 64 MiB
//! cap).  Bit rows rest on every packed marking being 0/1: the kernel
//! validates the initial marking before the search and raises `NotSafe`
//! before an unsafe successor's key is interned.
//!
//! The scanned rows go into **one row sink**, and out comes one type,
//! [`Graph`]: the full chain is the quotient under the identity (order
//! 1), so [`MarkingGraph`] and [`QuotientGraph`] are its two aliases,
//! differing only in their `build` and in the governor phase they report.
//! The sink writes one edge per firing, labelled by the fired transition;
//! a firing into its own state takes no edge (an intra-orbit firing — at
//! order 1, a self-loop), and firings into one target merge into one edge
//! labelled by an interned list of their transitions.  Until a row drops
//! or merges a firing, the enabled sets *are* the chain's forward row
//! pointer and labels; no `Tpn::build` net ever drops or merges one.
//!
//! The BFS allocates nothing per firing:
//!
//! * **row queue** (`arena.rs`) — the marking each state's row is scanned
//!   from (the full chain's markings, the quotient's representatives)
//!   lives in one queue of fixed-width rows, `W` words each, packed the
//!   way its canonicaliser packs keys (bit rows on every safe build, eight
//!   places per word on the capacity-bounded ones); the BFS decodes a row
//!   once, when it expands the state, and never reads it to deduplicate,
//!   so a row lives from its discovery to its level boundary, where the
//!   expanded level's rows are released.  The queue peaks at the two
//!   widest adjacent levels, `max_k (|L_k| + |L_{k+1}|) · W · 8` bytes,
//!   and no row outlives the build;
//! * **word-keyed interner** (`interner.rs`) — the interner owns the
//!   keys, `W` words per state at `id · W`, and finds them through
//!   open-addressing tables of tagged slots (a 32-bit hash tag beside
//!   each id, so a probe reads key words only on a tag match, and a
//!   rehash moves slots without reading a key); sharded by the top hash
//!   bits ([`MarkingOptions::interner_shards`]), each shard doubling from
//!   64 slots as states arrive;
//! * **scratch successor** — each firing writes the successor into the
//!   canonicaliser's reused per-thread scratch; its key and packed row are
//!   copied into the interner and the row queue only when the key turns
//!   out to be new;
//! * **flat CSR structure** — the chain's edges are built directly in
//!   compressed sparse row form, with a label and no rate per edge, and
//!   double as the per-state enabled-transition sets (a separate table is
//!   kept only from the first dropped or merged firing on).  Once the
//!   interner is freed at the end of the BFS, the edges become a shared
//!   [`ChainStructure`] (forward and incoming CSR); `ctmc_with_trans_rates`
//!   then rates a chain per solve from a table of one rate per label,
//!   allocating nothing per edge.
//!
//! Storage and scheduling never reach the output: the chain is **bitwise
//! identical** for every thread count and shard count.
//!
//! # Direct quotient construction
//!
//! When the net carries a validated rate-preserving automorphism (the TPN
//! row-rotation in the homogeneous setting of Theorem 2),
//! [`QuotientGraph::build`] explores the state space **directly in the
//! quotient**: every successor marking is canonicalized under the
//! automorphism's cyclic group before interning, so the interner and the
//! row queue only ever hold one key and one representative per orbit —
//! the peak interned-state count is `full / m` on free orbits — and the
//! CSR is emitted orbit-aggregated.  The rated chain is **bitwise
//! identical** to building the full chain, taking its orbit partition
//! and lumping it (Kemeny–Snell) — the test oracle the crate's unit tests
//! hold it to — without ever materializing the full graph or running the
//! orbit pass.
//! See the [`Graph`] docs for why the state numbering and rate
//! arithmetic coincide exactly.
//!
//! # Chunk-parallel levels
//!
//! The kernel walks the states in id order, level by level: the
//! discovered-but-unexplored states form a batch whose rows can be
//! scanned independently.  [`MarkingOptions::threads`] splits each large
//! enough level into one contiguous chunk per `std::thread::scope`
//! worker; smaller levels are scanned in place, each level whole on one
//! path.  Both run the same row scanner and differ only in how a
//! successor is resolved:
//!
//! * **direct** — interned on the spot and emitted into the sink;
//! * **staged** — workers probe a **level-frozen** interner; a miss is
//!   deduplicated into a chunk-local key list and each firing is staged
//!   as `(transition, target-or-local-key)`.  A sequential merge then
//!   replays the stages in chunk order (= state order), interning each
//!   local key at its first use.
//!
//! The replay order is the direct scan order, so new states receive the
//! same ids, rows come out in the same first-hit order, every edge records
//! its transitions in the same sequence, and `TooManyStates` /
//! `NotSafe` / `Deadlock` surface at the same point — for every
//! canonicaliser, since there is only the one kernel.

mod arena;
mod bfs;
mod interner;

use crate::ctmc::{unlimited, ChainStructure, Ctmc, SolveReport, SolverChoice};
use crate::fxhash::FxHashMap;
use crate::govern::{Budget, Interrupt, Phase};
use crate::net::{EventNet, NetSymmetry};
use bfs::{Canonicalizer, Identity, PerFiring, RowRotation, RowSink, ROT_BUFFER_CAP};
use repstream_petri::canon::MarkingCanonicalizer;
use std::marker::PhantomData;
use std::sync::Arc;

/// Options for marking-graph construction.
#[derive(Debug, Clone, Copy)]
pub struct MarkingOptions {
    /// Hard cap on the number of states (construction fails beyond it).
    pub max_states: usize,
    /// Per-place token capacity, at most 255 (a capacity-bounded build
    /// stores one byte per place; more is
    /// [`MarkingError::CapacityTooLarge`]).  `None` requires the net to be
    /// safe — its rows are one bit per place: the builder fails if any
    /// place would exceed one token.  The initial marking is held to the
    /// same contract, before
    /// the search starts: under `None` a place that starts with more than
    /// one token is [`MarkingError::NotSafe`], and under any capacity a
    /// start above 255 is [`MarkingError::CapacityTooLarge`]; a start
    /// above a `Some(c)` bound (≤ 255) is accepted — the place can only
    /// drain.
    pub capacity: Option<u32>,
    /// Worker threads of the chunk-parallel frontier BFS (see the module
    /// docs).  `0` (the default) auto-sizes to the machine's core count,
    /// engaging only on levels large enough to amortize the spawns; an
    /// explicit count is honored on any level with at least that many
    /// pending states (`1` forces the sequential scan).  Every choice
    /// produces **bitwise-identical** output.
    pub threads: usize,
    /// Shard count of the two-level interner (rounded up to a power of
    /// two, capped at [`MAX_INTERNER_SHARDS`]).  `0` (the default) means
    /// 16 shards for budgets of 2^18 states and above and a single shard
    /// below.  Each shard starts at 64 slots and doubles as states
    /// arrive; the `max_states` budget does not size it.  Sharding
    /// reorganizes only the hash table — ids are still assigned in
    /// sequential scan/merge order and dedup is exact key equality, so
    /// output is **bitwise identical** for any shard count.
    pub interner_shards: usize,
    /// Cooperative resource limits ([`Budget`]), checked at every BFS
    /// level and chunk boundary and every 4096 states in between.  The
    /// default [`Budget::UNLIMITED`] never fires; output is
    /// bitwise identical for any budget, as long as no limit fires —
    /// the checks only decide *whether to abort*, never what to emit.
    pub budget: Budget,
}

impl Default for MarkingOptions {
    fn default() -> Self {
        MarkingOptions {
            max_states: 1 << 20,
            capacity: None,
            threads: 0,
            interner_shards: 0,
            budget: Budget::UNLIMITED,
        }
    }
}

impl MarkingOptions {
    /// Resolved shard count of the two-level interner (see
    /// [`Self::interner_shards`]).
    fn resolved_interner_shards(&self) -> usize {
        match self.interner_shards {
            0 if self.max_states >= (1 << 18) => 16,
            0 => 1,
            n => n.next_power_of_two().min(MAX_INTERNER_SHARDS),
        }
    }
}

/// Upper bound on [`MarkingOptions::capacity`]: a place's token count is
/// one byte of a byte row.
const MAX_CAPACITY: u32 = u8::MAX as u32;

/// Upper bound on [`MarkingOptions::interner_shards`].  256 shards keep
/// the per-shard budget ≥ 2^15 states even at the 2^31 id ceiling; more
/// shards would only add top-bit collisions without spreading work.
pub const MAX_INTERNER_SHARDS: usize = 256;

/// Failure modes of the marking BFS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MarkingError {
    /// The reachable set exceeded `max_states`.
    TooManyStates(usize),
    /// A place exceeded one token while `capacity` was `None` — in the
    /// initial marking or by a firing.
    NotSafe {
        /// The offending place.
        place: usize,
    },
    /// No transition is enabled in some reachable marking.
    Deadlock,
    /// The requested per-place capacity, or a place's initial token
    /// count, does not fit a marking byte (rejected before the BFS
    /// starts).
    CapacityTooLarge(u32),
    /// The resource governor fired (deadline, cancellation, memory cap
    /// — see [`Interrupt`]).
    Interrupted(Interrupt),
}

impl MarkingError {
    /// The governor interrupt behind this error, when that is what it
    /// is — callers that degrade to bounds match on this.
    pub fn interrupt(&self) -> Option<Interrupt> {
        match self {
            MarkingError::Interrupted(i) => Some(*i),
            _ => None,
        }
    }
}

impl From<Interrupt> for MarkingError {
    fn from(i: Interrupt) -> Self {
        MarkingError::Interrupted(i)
    }
}

impl std::fmt::Display for MarkingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MarkingError::TooManyStates(n) => write!(f, "marking graph exceeds {n} states"),
            MarkingError::NotSafe { place } => {
                write!(
                    f,
                    "net is not safe: place {place} exceeds one token (supply a capacity)"
                )
            }
            MarkingError::Deadlock => write!(f, "reachable deadlock marking"),
            MarkingError::CapacityTooLarge(c) => {
                write!(
                    f,
                    "{c} tokens per place (capacity or initial marking) exceed the supported {MAX_CAPACITY}"
                )
            }
            MarkingError::Interrupted(i) => write!(f, "{i}"),
        }
    }
}

impl std::error::Error for MarkingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MarkingError::Interrupted(i) => Some(i),
            _ => None,
        }
    }
}

/// Byte accounting of a build's marking storage, captured when the BFS
/// finishes: each field is its store's peak (keys and tables only grow;
/// the row queue peaks at its two widest adjacent levels).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Packed interning keys, on every build: `⌈places/64⌉` words
    /// per state on bit rows, `⌈places/8⌉` on byte rows.
    pub keys_bytes: usize,
    /// The row queue's peak: the most markings of a [`MarkingGraph`], or
    /// representatives of a [`QuotientGraph`], resident at once — as
    /// many words per row as a key, `max_k (|L_k| + |L_{k+1}|)` rows
    /// over the BFS levels `L_k`, whatever the thread or shard count.
    pub reps_bytes: usize,
    /// Interner bytes: open-addressing slots summed over every shard.
    pub interner_bytes: usize,
    /// Always 0: no row leaves memory.  Kept while readers of this
    /// struct still name it.
    pub spill_bytes: usize,
}

impl ArenaStats {
    /// Total resident bytes at the stores' peaks: keys, row queue and
    /// slots.
    pub fn total(&self) -> usize {
        self.keys_bytes + self.reps_bytes + self.interner_bytes
    }
}

/// Per-state enabled-transition sets in CSR form — state `s` owns
/// `idx[ptr[s]..ptr[s+1]]`, ascending — as a build appends them.
#[derive(Debug, Clone)]
struct EnabledSets {
    ptr: Vec<u32>,
    idx: Vec<u32>,
}

impl EnabledSets {
    /// Close the current row; `Err(Deadlock)` when nothing was enabled.
    #[inline]
    fn end_row(&mut self) -> Result<(), MarkingError> {
        let Ok(end) = u32::try_from(self.idx.len()) else {
            panic!("nnz overflows u32")
        };
        if self.ptr.last() == Some(&end) {
            return Err(MarkingError::Deadlock);
        }
        self.ptr.push(end);
        Ok(())
    }
}

/// What a [`Graph`] is a graph of — its BFS differs only in the
/// governor [`Phase`] it reports.
pub trait Kind {
    /// The phase a build of this kind reports to its [`Budget`].
    const PHASE: Phase;
}

/// Every reachable marking is a state ([`MarkingGraph`]).
#[derive(Debug, Clone, Copy)]
pub enum Full {}

/// Every orbit of reachable markings under a net symmetry is a state
/// ([`QuotientGraph`]).
#[derive(Debug, Clone, Copy)]
pub enum Orbits {}

impl Kind for Full {
    const PHASE: Phase = Phase::MarkingBfs;
}

impl Kind for Orbits {
    const PHASE: Phase = Phase::QuotientBfs;
}

/// The reachability graph of an [`EventNet`] with exponential races.
pub type MarkingGraph = Graph<Full>;

/// The symmetry-reduced reachability graph of an [`EventNet`]: one state
/// per orbit of the reachable markings under a rate-preserving
/// automorphism, built **without materializing the full graph**.
pub type QuotientGraph = Graph<Orbits>;

/// A reachability graph: one state per orbit of the reachable markings
/// under a net symmetry — the full graph ([`MarkingGraph`]) being the
/// quotient under the identity, whose orbits are single markings.
///
/// The chain has one edge per target state in first-hit order.  A firing
/// into its own state changes no state and emits no edge (the quotient's
/// intra-orbit firings; a self-loop at order 1), and firings of several
/// transitions into one target merge into one edge.  Each edge is
/// labelled by its transition — or, when it merges several, by an
/// interned list of them ([`Self::edge_transitions`]).  While no firing
/// was dropped or merged, the chain's forward rows *are* the enabled
/// sets and are stored once; no `Tpn::build` net drops or merges one.
///
/// # Why the quotient equals full-then-lump bit for bit
///
/// The BFS interns every successor marking by its **canonical form** (the
/// lexicographically smallest member of its orbit) but stores the
/// **first-discovered** member as the orbit's representative, and it is
/// that representative's row that is explored.  Three facts make the
/// output coincide exactly with the full-then-lump oracle — the full
/// chain's orbit partition, each block's row read off its first member:
///
/// 1. **Numbering.** In the full BFS, a non-first member `σᵃ(x)` of an
///    orbit can never discover an orbit its first member `x` did not: its
///    row is the `σᵃ`-image of `x`'s row, hitting the same orbits, and
///    `x` is processed first.  So new orbits are first discovered only
///    from first members, in ascending transition order of their rows —
///    exactly the order this BFS visits (its representative *is* that
///    first member, by induction along the discovery sequence).  Orbit
///    ids here therefore equal the block ids of the full chain's orbit
///    partition (first appearance by full state index).
/// 2. **Rates.** The oracle reads each block's row off its first
///    member (every member agrees — that is lumpability), accumulating
///    edge rates per target block in CSR row order, which for the full
///    BFS is ascending enabled-transition order — the scan order in which
///    each edge records its transitions here, so
///    [`Self::ctmc_with_trans_rates`] performs the same `f64` additions,
///    once per label.
/// 3. **Edges.** Both emit a block's targets in first-hit order of that
///    scan and drop intra-orbit edges (the quotient's self-loops).
///
/// # What the quotient preserves
///
/// Per-state quantities are only available per orbit: [`Self::enabled`]
/// lists the enabled transitions of the *representative*, and
/// [`Self::firing_rates_with`] returns orbit-aggregated totals — sums
/// over a transition set are the true full-chain sums **iff the set is
/// closed under the automorphism** (e.g. a whole TPN column, like the
/// last-column throughput set: the rotation permutes rows within a
/// column).  A per-state probability is its orbit's probability spread
/// evenly over the orbit's [`QuotientGraph::orbit_sizes`] members.
#[derive(Debug, Clone)]
pub struct Graph<K> {
    /// The marking each state's row was scanned from, recorded for the
    /// tests: every reachable marking of a [`MarkingGraph`], the
    /// first-discovered member of each orbit of a [`QuotientGraph`]
    /// (whose enabled set [`Self::enabled`] reports).
    #[cfg(test)]
    pub(crate) recorded: arena::MarkingStore,
    /// The chain's edges (see the type docs).
    chain: Arc<ChainStructure>,
    /// The enabled sets when they are not the chain's forward rows.
    enabled: Option<EnabledSets>,
    /// What the labels `≥ n_transitions` stand for.
    lists: LabelLists,
    /// Orbit size (number of distinct markings) per state; empty on a
    /// [`MarkingGraph`], whose orbits are single markings.
    orbit_size: Vec<u32>,
    /// Storage accounting captured at the end of the build.
    arena_stats: ArenaStats,
    kind: PhantomData<K>,
}

/// The label table of a [`Graph`]: an edge fired by one transition `t`
/// is labelled `t`; an edge that merges several transitions is labelled
/// `n_trans + k`, list `k` holding them in firing order.  No benchmark
/// shape merges, so the lists are usually empty.
#[derive(Debug, Clone)]
struct LabelLists {
    n_trans: usize,
    ptr: Vec<u32>,
    trans: Vec<u32>,
}

impl LabelLists {
    /// The rate of every label: `trans_rates` itself for the singletons,
    /// then each list summed in firing order — the additions a per-edge
    /// sum over the same transitions performs.
    fn rates(&self, trans_rates: &[f64]) -> Vec<f64> {
        let mut rates = trans_rates[..self.n_trans].to_vec();
        rates.extend(self.ptr.windows(2).map(|w| {
            self.trans[w[0] as usize..w[1] as usize]
                .iter()
                .map(|&t| trans_rates[t as usize])
                .sum::<f64>()
        }));
        rates
    }
}

/// The row sink of every build: the chain's forward CSR, written edge by
/// edge as the BFS fires, and the label table.
struct Sink<K> {
    row_ptr: Vec<u32>,
    col: Vec<u32>,
    label: Vec<u32>,
    /// The enabled sets, from the first row that drops or merges a
    /// firing on; until then they are `row_ptr` and `label`.
    enabled: Option<EnabledSets>,
    lists: LabelLists,
    /// Label of every list in `lists`, consulted only for edges that
    /// merge firings.
    list_ids: FxHashMap<Vec<u32>, u32>,
    /// The transitions of one merged edge.
    merged: Vec<u32>,
    kind: PhantomData<K>,
}

impl<K: Kind> RowSink for Sink<K> {
    const PHASE: Phase = K::PHASE;

    /// Emit the firing of `t` into `target` as an edge labelled `t` —
    /// unless it stays in state `s`, which takes no edge — and record `t`
    /// as enabled.
    #[inline]
    fn fire(&mut self, s: u32, t: usize, target: u32) {
        if target == s {
            self.split_enabled();
        } else {
            self.col.push(target);
            self.label.push(t as u32);
        }
        if let Some(enabled) = &mut self.enabled {
            enabled.idx.push(t as u32);
        }
    }

    /// Close the current row, first merging its edges into one per
    /// target when some target repeats.
    fn end_row(&mut self) -> Result<(), MarkingError> {
        let lo = self.row_ptr[self.row_ptr.len() - 1] as usize;
        let row = &self.col[lo..];
        if (1..row.len()).any(|i| row[..i].contains(&row[i])) {
            self.merge_row(lo);
        }
        match &mut self.enabled {
            Some(enabled) => enabled.end_row()?,
            None if self.col.len() == lo => return Err(MarkingError::Deadlock),
            None => {}
        }
        let Ok(end) = u32::try_from(self.col.len()) else {
            panic!("nnz overflows u32")
        };
        self.row_ptr.push(end);
        Ok(())
    }
}

impl<K> Sink<K> {
    /// Stop sharing the forward rows as the enabled sets: copy the rows
    /// so far, the current one's edges included, into a table of their
    /// own.  Every edge is then still one firing labelled by its
    /// transition.
    fn split_enabled(&mut self) {
        if self.enabled.is_none() {
            self.enabled = Some(EnabledSets {
                ptr: self.row_ptr.clone(),
                idx: self.label.clone(),
            });
        }
    }

    /// Rewrite the current row, edges `lo..`: one edge per target in
    /// first-hit order, labelled by its transition — or, when it merges
    /// several, by the interned list of them in firing order.
    fn merge_row(&mut self, lo: usize) {
        self.split_enabled();
        let row: Vec<(u32, u32)> = self.col.drain(lo..).zip(self.label.drain(lo..)).collect();
        for (i, &(c, t)) in row.iter().enumerate() {
            if row[..i].iter().any(|&(d, _)| d == c) {
                continue;
            }
            let label = if row[i + 1..].iter().any(|&(d, _)| d == c) {
                self.merged.clear();
                let fired = row[i..].iter().filter(|&&(d, _)| d == c);
                self.merged.extend(fired.map(|&(_, t)| t));
                self.intern_merged()
            } else {
                t
            };
            self.col.push(c);
            self.label.push(label);
        }
    }

    /// The label of the list in `merged`, appended to the table on first
    /// sight.
    fn intern_merged(&mut self) -> u32 {
        if let Some(&label) = self.list_ids.get(&self.merged) {
            return label;
        }
        let lists = &mut self.lists;
        let Ok(label) = u32::try_from(lists.n_trans + lists.ptr.len() - 1) else {
            panic!("label count overflows u32")
        };
        lists.trans.extend_from_slice(&self.merged);
        lists.ptr.push(lists.trans.len() as u32);
        self.list_ids.insert(self.merged.clone(), label);
        label
    }
}

impl<K: Kind> Graph<K> {
    /// Explore `net` with the canonicaliser chosen by the caller.
    fn explore<C: Canonicalizer>(
        net: &EventNet,
        opts: MarkingOptions,
        canon: &C,
    ) -> Result<Self, MarkingError> {
        let mut out = Sink::<K> {
            row_ptr: vec![0],
            col: Vec::new(),
            label: Vec::new(),
            enabled: None,
            lists: LabelLists {
                n_trans: net.n_transitions(),
                ptr: vec![0],
                trans: Vec::new(),
            },
            list_ids: FxHashMap::default(),
            merged: Vec::new(),
            kind: PhantomData,
        };
        let frontier = bfs::explore(net, opts, canon, &mut out)?;
        #[cfg(test)]
        let recorded = frontier.recorded.clone();
        let (orbit_size, arena_stats) = frontier.finish();
        let chain = ChainStructure::new(out.row_ptr, out.col, out.label);
        Ok(Graph {
            #[cfg(test)]
            recorded,
            chain: Arc::new(chain),
            enabled: out.enabled,
            lists: out.lists,
            orbit_size,
            arena_stats,
            kind: PhantomData,
        })
    }
}

impl<K> Graph<K> {
    /// Number of chain states: reachable markings, or orbits on a
    /// [`QuotientGraph`].
    pub fn n_states(&self) -> usize {
        self.chain.n_states()
    }

    /// Number of full-chain states represented: `Σ orbit sizes` on a
    /// [`QuotientGraph`] — the full reachable count whenever the
    /// automorphism maps the reachable set onto itself (always the case
    /// when the test oracle's orbit partition accepts the same hint) —
    /// and [`Self::n_states`] on a [`MarkingGraph`].
    pub fn full_states(&self) -> usize {
        if self.orbit_size.is_empty() {
            self.n_states()
        } else {
            self.orbit_size.iter().map(|&k| k as usize).sum()
        }
    }

    /// Transitions fireable in state `s` — in the representative of
    /// orbit `s` on a [`QuotientGraph`] — ascending.
    pub fn enabled(&self, s: usize) -> &[u32] {
        let (ptr, idx) = match &self.enabled {
            Some(enabled) => (&enabled.ptr[..], &enabled.idx[..]),
            None => (self.chain.row_ptr(), self.chain.labels()),
        };
        &idx[ptr[s] as usize..ptr[s + 1] as usize]
    }

    /// Byte accounting of the build's marking storage, each store at its
    /// peak ([`ArenaStats`]).
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena_stats
    }

    /// The transitions chain edge `e` aggregates, in the order the BFS
    /// fired them — one on every benchmark shape; several where firings
    /// of different transitions reach the same state.  Edge `e` is rated
    /// `Σ trans_rates[t]` over them, summed in this order.
    pub fn edge_transitions(&self, e: usize) -> &[u32] {
        let label = &self.chain.labels()[e];
        match (*label as usize).checked_sub(self.lists.n_trans) {
            None => std::slice::from_ref(label),
            Some(k) => {
                let (lo, hi) = (self.lists.ptr[k] as usize, self.lists.ptr[k + 1] as usize);
                &self.lists.trans[lo..hi]
            }
        }
    }

    /// The chain rated from per-transition rates: edge `e` gets
    /// `Σ trans_rates[t]` over [`Self::edge_transitions`]`(e)`, summed in
    /// the order the BFS fired them — on a [`QuotientGraph`], bitwise
    /// identical to lumping the full chain of a net with those rates, as
    /// the test oracle does (the rates must themselves be orbit-invariant,
    /// the caller's gate).
    /// The graph stores no rate: the chain shares the graph's edge
    /// structure and rates it by label, one sum per label, so this is
    /// how every chain is made, with no allocation per edge — only the
    /// `O(n)` exit rates are computed.
    ///
    /// # Panics
    /// Panics if `trans_rates` is shorter than the net's transition count
    /// or a label some edge carries sums to a non-positive rate.
    pub fn ctmc_with_trans_rates(&self, trans_rates: &[f64]) -> Ctmc {
        Ctmc::with_label_rates(Arc::clone(&self.chain), self.lists.rates(trans_rates))
    }

    /// Stationary firing rate of every transition from a bare
    /// per-transition rate slice: `rate(t) = Σ_s π(s) λ_t [t enabled in
    /// s]`.  On a [`QuotientGraph`] `s` ranges over orbit
    /// representatives, so entry `t` is **not** the full chain's
    /// per-transition rate (mass concentrates on the representatives'
    /// transitions), but the sum over any automorphism-closed transition
    /// set — a whole TPN column, the last-column throughput set — equals
    /// the full chain's sum exactly.
    pub fn firing_rates_with(&self, trans_rates: &[f64], pi: &[f64]) -> Vec<f64> {
        assert_eq!(pi.len(), self.n_states());
        let mut rates = vec![0.0f64; trans_rates.len()];
        for (s, &p) in pi.iter().enumerate() {
            for &t in self.enabled(s) {
                rates[t as usize] += p * trans_rates[t as usize];
            }
        }
        rates
    }

    /// Convenience: the chain rated at `net.rates`, its stationary
    /// distribution, then the summed firing rate of a set of transitions
    /// (e.g. the TPN's last column → throughput; automorphism-closed on a
    /// [`QuotientGraph`]).
    pub fn throughput_of(&self, net: &EventNet, transitions: &[usize]) -> f64 {
        let ctmc = self.ctmc_with_trans_rates(&net.rates);
        self.throughput_solve(&ctmc, &net.rates, transitions, SolverChoice::Auto)
            .0
    }

    /// [`Self::throughput_solve_governed`] with no limit, for callers
    /// that cannot return an [`Interrupt`].
    pub fn throughput_solve(
        &self,
        ctmc: &Ctmc,
        trans_rates: &[f64],
        transitions: &[usize],
        choice: SolverChoice,
    ) -> (f64, SolveReport) {
        unlimited(|b| self.throughput_solve_governed(ctmc, trans_rates, transitions, choice, b))
    }

    /// Solve a chain rated from this graph's structure with an explicit
    /// [`SolverChoice`], and return the summed stationary firing rate of
    /// `transitions` with the [`SolveReport`] (which solver ran, its
    /// residual and iteration count).  Every caller of one rate table
    /// gets the same bits.  The stationary solve checks `budget` at its
    /// checkpoints and surfaces an overrun as an [`Interrupt`].
    pub fn throughput_solve_governed(
        &self,
        ctmc: &Ctmc,
        trans_rates: &[f64],
        transitions: &[usize],
        choice: SolverChoice,
        budget: &Budget,
    ) -> Result<(f64, SolveReport), Interrupt> {
        let report = ctmc.stationary_solve_governed(choice, budget)?;
        let rates = self.firing_rates_with(trans_rates, &report.pi);
        Ok((transitions.iter().map(|&t| rates[t]).sum(), report))
    }
}

impl MarkingGraph {
    /// Explore the reachable markings of `net`: the quotient under the
    /// identity.
    pub fn build(net: &EventNet, opts: MarkingOptions) -> Result<Self, MarkingError> {
        // A safe net's markings are bit rows; token counts above one stay
        // on bytes.
        let graph = if opts.capacity.is_none() && RowRotation::footprint(net, 1) <= ROT_BUFFER_CAP {
            Self::explore(net, opts, &RowRotation::identity(net))
        } else {
            Self::explore(net, opts, &Identity)
        }?;
        Ok(Graph {
            orbit_size: Vec::new(),
            ..graph
        })
    }
}

/// The full-then-lump oracle's hooks into the graphs (`crate::lump`),
/// compiled into test builds only.
#[cfg(test)]
impl MarkingGraph {
    /// Orbit seed partition of the reachable markings under a net
    /// symmetry: state `s` maps to the state holding the place-permuted
    /// marking, and the cycles of that state permutation become blocks.
    ///
    /// The caller should have validated `sym` with
    /// [`EventNet::symmetry_valid`]; this method adds the *reachability*
    /// check the net-level validation cannot do: a net automorphism that
    /// does not fix the initial marking still induces a CTMC automorphism
    /// **iff** the permuted markings are all reachable (the reachability
    /// graph of these live event nets is strongly connected, so one
    /// escaped image means the hint does not apply).  Returns `None` in
    /// that case — callers fall back to the full chain — and on a chain
    /// with merged edges.
    ///
    /// The resulting partition satisfies the automorphism-orbit contract
    /// of `crate::lump`, so `Ctmc::quotient` and `Lift::lift` recover
    /// per-state marginals from it — the reference the direct
    /// [`QuotientGraph`] is tested against.
    pub(crate) fn orbit_partition(&self, sym: &NetSymmetry) -> Option<crate::lump::Partition> {
        let n = self.n_states();
        let width = self.recorded.width();
        if sym.place_perm.len() != width {
            return None;
        }
        // The induced state map σ is propagated *structurally* instead of
        // hashing every permuted marking: once σ(s₀) is known, firing
        // transition `t` from `s` corresponds to firing `trans_perm[t]`
        // from σ(s) (that is what being a net automorphism means), and the
        // marking BFS reaches every state from s₀ — so one marking lookup
        // seeds a pure-integer BFS over the chain's rows, whose labels
        // are the fired transitions, ascending.  Every propagation step
        // doubles as a validity check: a missing permuted transition (a
        // merged label names none), a σ conflict, or a non-injective
        // image proves the hint does not apply and returns `None`.
        let image0: Option<Vec<u8>> = {
            let mut buf = Vec::new();
            let m0 = self.recorded.read_into(0, &mut buf);
            let mut img = vec![0u8; width];
            let mut ok = true;
            for (p, &tokens) in m0.iter().enumerate() {
                let dst = sym.place_perm[p];
                if dst >= width {
                    ok = false;
                    break;
                }
                img[dst] = tokens;
            }
            ok.then_some(img)
        };
        let image0 = image0?;
        let s0_img = (0..n).find(|&s| self.recorded.matches(s, &image0))? as u32;

        let (ptr, targets) = (self.chain.row_ptr(), self.chain.forward_targets());
        let row = |s: usize| {
            let edges = ptr[s] as usize..ptr[s + 1] as usize;
            (&self.chain.labels()[edges.clone()], &targets[edges])
        };
        let mut sigma = vec![u32::MAX; n];
        let mut taken = vec![false; n];
        sigma[0] = s0_img;
        taken[s0_img as usize] = true;
        let mut stack: Vec<u32> = vec![0];
        let mut visited = 1usize;
        while let Some(s) = stack.pop() {
            let s = s as usize;
            let si = sigma[s] as usize;
            let (fired_s, row_s) = row(s);
            let (fired_si, row_si) = row(si);
            if fired_s.len() != fired_si.len() {
                return None;
            }
            for (k, &t) in fired_s.iter().enumerate() {
                let tp = *sym.trans_perm.get(t as usize)? as u32;
                let pos = fired_si.binary_search(&tp).ok()?;
                let target = row_s[k] as usize;
                let target_img = row_si[pos];
                if sigma[target] == u32::MAX {
                    if taken[target_img as usize] {
                        return None; // not injective: bogus hint
                    }
                    sigma[target] = target_img;
                    taken[target_img as usize] = true;
                    visited += 1;
                    stack.push(target as u32);
                } else if sigma[target] != target_img {
                    return None; // inconsistent propagation: bogus hint
                }
            }
        }
        if visited != n {
            return None;
        }
        Some(crate::lump::Partition::from_permutation_orbits(&sigma))
    }
}

impl QuotientGraph {
    /// Explore the reachable orbits of `net` under `sym` directly in the
    /// quotient.  `opts.max_states` bounds the **interned
    /// representatives** (the full chain is `Σ orbit sizes`, up to `m`
    /// times larger), so shapes whose full chain busts the budget can
    /// still be analysed.
    ///
    /// # Panics
    /// Panics unless `sym` is a rate-preserving automorphism of `net`
    /// ([`EventNet::symmetry_valid`]) — aggregated rates are only exact
    /// under that contract, so callers must gate on it (heterogeneous
    /// rate tables take the full-chain path instead).
    pub fn build(
        net: &EventNet,
        sym: &NetSymmetry,
        opts: MarkingOptions,
    ) -> Result<Self, MarkingError> {
        assert!(
            net.symmetry_valid(sym),
            "QuotientGraph::build needs a validated rate-preserving automorphism"
        );
        let Some(canon) = MarkingCanonicalizer::new(&sym.place_perm) else {
            unreachable!("symmetry_valid guarantees a permutation");
        };
        let order = canon.order() as usize;
        // Bit rows need a safe net; token counts above one stay on bytes.
        if opts.capacity.is_none() && RowRotation::footprint(net, order) <= ROT_BUFFER_CAP {
            Self::explore(net, opts, &RowRotation::new(net, sym, order))
        } else {
            Self::explore(net, opts, &PerFiring(&canon))
        }
    }

    /// Orbit size of every quotient state.
    pub fn orbit_sizes(&self) -> &[u32] {
        &self.orbit_size
    }
}

#[cfg(test)]
impl QuotientGraph {
    /// The uniform lift of this quotient: block sizes only (per-block
    /// member probability `π̂(B)/|B|`), no full-state map — see
    /// `Lift::from_block_sizes`.
    pub(crate) fn lift(&self) -> crate::lump::Lift {
        crate::lump::Lift::from_block_sizes(self.orbit_size.clone())
    }
}

#[cfg(test)]
mod tests;
