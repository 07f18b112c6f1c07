//! Structure-keyed reuse of marking-graph chains.
//!
//! Candidate mappings explored by a search differ in *rates* far more
//! often than in *structure*: every mapping whose shape (replication
//! vector) matches a previously scored one induces the **same** reachable
//! marking graph — only the CSR rate payload changes.  The expensive parts
//! of a Theorem 2/3 evaluation are exactly the structural ones: the
//! marking BFS + interner, the orbit propagation of the row-rotation
//! symmetry, and (for patterns) the reachability enumeration.
//!
//! [`ChainCache`] keys those structures canonically — [`TpnSignature`]
//! for the global Strict chain, the coprime `(u′, v′)` dimensions for
//! Theorem 3 pattern chains — and **refills** the cached structure on a
//! hit ([`Graph::ctmc_with_trans_rates`]: one rate per transition label
//! and the `O(n)` exit rates over the shared edge structure, no
//! allocation per edge), skipping the BFS entirely.  Strict chains cache
//! **two** structures per signature, both a [`Graph`], each built lazily
//! by the first candidate that needs it: the direct symmetry-reduced
//! quotient ([`QuotientGraph`], served to every orbit-invariant candidate
//! — the full graph is never materialized for those) and the full
//! marking graph ([`MarkingGraph`]: heterogeneous candidates, or
//! `m = 1`); one solve tail serves both.  This is the one place the
//! quotient-or-full choice of Theorem 2 is made, and the one place a
//! Theorem 2 or Theorem 3 chain is solved: a cold solve is a fresh
//! cache's first miss.  Cached results are **bitwise identical** to cold
//! solves: the refilled chain has byte-for-byte the rates a fresh build
//! would produce, and every solver is deterministic in its inputs.  The
//! equivalence property tests of `repstream-engine` pin this contract.
//!
//! Budget semantics: [`RunConfig::max_states`] bounds the *structure
//! build* on a miss.  A hit reuses the cached structure without
//! re-checking it against the (possibly smaller) budget of the current
//! call — budgets are per deployment, not per candidate.

use crate::ctmc::{Solver, SolverChoice};
use crate::fxhash::{FxHashMap, FxHasher};
use crate::govern::{Budget, RunConfig};
use crate::marking::{
    ArenaStats, Graph, MarkingError, MarkingGraph, MarkingOptions, QuotientGraph,
};
use crate::net::{comm_pattern, rates_orbit_invariant, EventNet, NetSymmetry};
use repstream_petri::shape::{gcd, ExecModel, MappingShape, ResourceTable};
use repstream_petri::tpn::{Tpn, TpnSignature};
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

/// Hit/miss counters of a [`ChainCache`] (reported by search drivers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Pattern-chain solves served from a cached structure.
    pub pattern_hits: usize,
    /// Pattern-chain structures built cold.
    pub pattern_misses: usize,
    /// Strict-chain solves served from a cached structure.
    pub strict_hits: usize,
    /// Strict-chain structures built cold.
    pub strict_misses: usize,
}

impl CacheStats {
    /// Total solves that skipped a marking BFS.
    pub fn hits(&self) -> usize {
        self.pattern_hits + self.strict_hits
    }

    /// Total cold structure builds.
    pub fn misses(&self) -> usize {
        self.pattern_misses + self.strict_misses
    }
}

/// Cached structure of one `u × v` pattern chain.
#[derive(Debug, Clone)]
struct PatternEntry {
    mg: MarkingGraph,
}

/// Cached structure of one Strict-TPN chain.  The two reachability
/// structures are built **lazily**, each on the first candidate that
/// needs it: orbit-invariant candidates only ever build (and share) the
/// direct quotient — the full graph, `m` times larger, is never
/// materialized for them — while heterogeneous candidates build the full
/// graph.
#[derive(Debug, Clone)]
struct StrictEntry {
    tpn: Tpn,
    /// Structural row-rotation symmetry (rate invariance is re-checked
    /// against every candidate's rate table).
    sym: Option<NetSymmetry>,
    /// Direct quotient structure (first orbit-invariant candidate).
    quotient: Option<QuotientGraph>,
    /// Full marking graph (first candidate that cannot lump).
    full: Option<MarkingGraph>,
}

/// Result of a cached Strict-chain solve.
#[derive(Debug, Clone)]
pub struct StrictSolve {
    /// System throughput (summed stationary firing rate of the last
    /// column).
    pub throughput: f64,
    /// States of the full marking chain (for a direct-quotient solve this
    /// is `Σ orbit sizes` — the full graph itself was never built).
    pub full_states: usize,
    /// States of the quotient actually solved (`None` ⇒ full solve).
    pub lumped_states: Option<usize>,
    /// `true` when the quotient was constructed (or reused) directly via
    /// canonical markings, without materializing the full chain.
    pub quotient_direct: bool,
    /// `true` when the structure came from the cache (no BFS ran).
    pub cache_hit: bool,
    /// The stationary method that actually ran (the plan's pick under
    /// [`SolverChoice::Auto`]).
    pub solver: Solver,
    /// Final max-norm stationarity residual of the solved vector.
    pub residual: f64,
    /// Iterations the winning solver spent (sweeps for Gauss–Seidel and
    /// power, `n` for GTH).
    pub iterations: usize,
    /// Storage accounting of the structure that served this solve.  On a
    /// warm hit these are the peaks of the **cached** structure's build,
    /// not of any per-request allocation.
    pub arena: ArenaStats,
}

/// A cache of marking-graph structures keyed by chain shape.
///
/// See the module docs for the reuse contract.  One cache serves one
/// search (or one worker thread of a parallel search); it is deliberately
/// not synchronized.
///
/// # Warm reuse
///
/// ```
/// use repstream_markov::cache::ChainCache;
/// use repstream_markov::govern::RunConfig;
/// use repstream_petri::shape::{MappingShape, ResourceTable};
///
/// let shape = MappingShape::new(vec![2, 3]);
/// let opts = RunConfig {
///     max_states: 1 << 20,
///     ..Default::default()
/// };
/// let mut cache = ChainCache::new();
///
/// // The first candidate of a shape pays for the BFS…
/// let rates = ResourceTable::from_fns(&shape, |_, _| 0.5, |_, _, _| 2.0);
/// let cold = cache.strict_throughput(&shape, &rates, opts).unwrap();
/// assert!(!cold.cache_hit);
///
/// // …every later candidate over the same shape re-rates the cached
/// // structure — no BFS, no per-edge copy — and gets bitwise the value a
/// // cold solve would produce.
/// let faster = ResourceTable::from_fns(&shape, |_, _| 1.0, |_, _, _| 4.0);
/// let warm = cache.strict_throughput(&shape, &faster, opts).unwrap();
/// assert!(warm.cache_hit);
/// assert_eq!(cache.stats().strict_hits, 1);
/// let fresh = ChainCache::new()
///     .strict_throughput(&shape, &faster, opts)
///     .unwrap();
/// assert_eq!(warm.throughput.to_bits(), fresh.throughput.to_bits());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ChainCache {
    patterns: FxHashMap<(usize, usize), PatternEntry>,
    strict: FxHashMap<TpnSignature, StrictEntry>,
    stats: CacheStats,
}

impl ChainCache {
    /// An empty cache.
    pub fn new() -> ChainCache {
        ChainCache::default()
    }

    /// Hit/miss counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Exact inner throughput of a pattern with per-link exponential
    /// rates `rate[a][b]` (sender `a` → receiver `b`), by solving the
    /// pattern CTMC of [`crate::pattern`].  A fresh cache's miss is the
    /// cold solve; a hit re-rates the cached structure, bitwise identical
    /// to it.  Cost grows with `S(u,v)`; errors out
    /// (`MarkingError::TooManyStates`) beyond `max_states`.
    ///
    /// # Panics
    /// Panics on a ragged rate matrix or non-coprime dimensions.
    pub fn pattern_throughput(
        &mut self,
        rate: &[Vec<f64>],
        max_states: usize,
    ) -> Result<f64, MarkingError> {
        let u = rate.len();
        let v = rate[0].len();
        assert!(rate.iter().all(|r| r.len() == v), "ragged rate matrix");
        assert!(gcd(u, v) == 1, "pattern dimensions must be coprime");
        let n = u * v;
        if self.patterns.contains_key(&(u, v)) {
            self.stats.pattern_hits += 1;
        } else {
            self.stats.pattern_misses += 1;
            let net = comm_pattern(u, v, |a, b| rate[a][b]);
            let opts = MarkingOptions {
                max_states,
                capacity: None,
                ..Default::default()
            };
            let mg = MarkingGraph::build(&net, opts)?;
            self.patterns.insert((u, v), PatternEntry { mg });
        }
        let mg = &self.patterns[&(u, v)].mg;
        // Hit or miss, the solved chain is the cached structure refilled
        // (as in `strict_throughput`).  Transition k is pattern row k:
        // sender k mod u → receiver k mod v (the comm_pattern convention).
        let trans_rates: Vec<f64> = (0..n).map(|k| rate[k % u][k % v]).collect();
        let ctmc = mg.ctmc_with_trans_rates(&trans_rates);
        let all: Vec<usize> = (0..n).collect();
        let (rho, _) = mg.throughput_solve_governed(
            &ctmc,
            &trans_rates,
            &all,
            SolverChoice::Auto,
            &Budget::UNLIMITED,
        )?;
        Ok(rho)
    }

    /// Exact Strict-model throughput through the global marking chain:
    /// the Theorem 2 evaluation.  `repstream-core`'s `throughput_strict`
    /// is this method on a fresh cache, so a warm hit is bitwise
    /// identical to a cold solve with the same rate table.
    ///
    /// On a miss the TPN and its structural row-rotation symmetry are
    /// built and stored under the shape's [`TpnSignature`]; the
    /// reachability structure itself is built lazily by the first
    /// candidate that needs it.  Candidates whose rates keep the
    /// symmetry run on the **direct quotient** ([`QuotientGraph`]) — the
    /// full chain is never materialized for them — every other candidate
    /// on the full marking graph.  On a hit
    /// only the per-candidate work runs: the orbit-invariance check, a
    /// refill (a rate per label and the `O(n)` exit rates over the shared
    /// structure), and the stationary solve.
    pub fn strict_throughput(
        &mut self,
        shape: &MappingShape,
        rates: &ResourceTable<f64>,
        opts: RunConfig,
    ) -> Result<StrictSolve, MarkingError> {
        let key = TpnSignature::of(shape, ExecModel::Strict);
        if !self.strict.contains_key(&key) {
            let tpn = Tpn::build(shape, ExecModel::Strict);
            // Validate the rotation *structurally* once per signature
            // (rate-independent, so any candidate's net serves): a hint
            // that is not a net automorphism is dropped here and every
            // candidate takes the graceful full-chain path instead of
            // tripping the quotient builder's contract assert.
            let net = EventNet::from_tpn(&tpn, rates);
            let sym = tpn
                .row_rotation()
                .map(|a| NetSymmetry {
                    trans_perm: a.trans_perm,
                    place_perm: a.place_perm,
                })
                .filter(|s| net.symmetry_structural(s));
            self.strict.insert(
                key.clone(),
                StrictEntry {
                    tpn,
                    sym,
                    quotient: None,
                    full: None,
                },
            );
        }
        let Some(entry) = self.strict.get_mut(&key) else {
            unreachable!("entry inserted above when absent")
        };
        let trans_rates: Vec<f64> = entry
            .tpn
            .transitions()
            .iter()
            .map(|t| *rates.get(t.resource))
            .collect();
        let last = entry.tpn.last_column();
        let marking_opts = opts.marking(None);

        // Direct-quotient path: the rotation is non-trivial and bitwise
        // rate-invariant.  (`m = 1` keeps the plain chain: the quotient
        // would be the identical graph with canonicalization overhead.)
        let direct_sym = entry.sym.as_ref().filter(|s| {
            entry.tpn.rows() > 1
                && s.trans_perm.len() == trans_rates.len()
                && rates_orbit_invariant(&trans_rates, &s.trans_perm)
        });
        let tail = Tail {
            stats: &mut self.stats,
            trans_rates: &trans_rates,
            last: &last,
            opts: &opts,
        };
        let net = || EventNet::from_tpn(&entry.tpn, rates);
        match direct_sym {
            Some(sym) => tail.solve(&mut entry.quotient, true, || {
                QuotientGraph::build(&net(), sym, marking_opts)
            }),
            // Full-chain path (heterogeneous rates, or m = 1).
            None => tail.solve(&mut entry.full, false, || {
                MarkingGraph::build(&net(), marking_opts)
            }),
        }
    }
}

/// The per-candidate tail of a Strict solve, shared by both cached
/// structures.
struct Tail<'a> {
    stats: &'a mut CacheStats,
    trans_rates: &'a [f64],
    last: &'a [usize],
    opts: &'a RunConfig,
}

impl Tail<'_> {
    /// Solve on the structure in `slot` — a direct quotient when
    /// `quotient` — calling `build` on a miss: refill it from the
    /// candidate's rates, solve, and read the last column's throughput
    /// off the stationary vector.
    fn solve<K>(
        self,
        slot: &mut Option<Graph<K>>,
        quotient: bool,
        build: impl FnOnce() -> Result<Graph<K>, MarkingError>,
    ) -> Result<StrictSolve, MarkingError> {
        let cache_hit = slot.is_some();
        let graph = match slot {
            Some(graph) => {
                self.stats.strict_hits += 1;
                graph
            }
            None => {
                self.stats.strict_misses += 1;
                slot.insert(build()?)
            }
        };
        let ctmc = graph.ctmc_with_trans_rates(self.trans_rates);
        let (throughput, report) = graph.throughput_solve_governed(
            &ctmc,
            self.trans_rates,
            self.last,
            self.opts.solver,
            &self.opts.budget,
        )?;
        Ok(StrictSolve {
            throughput,
            full_states: graph.full_states(),
            lumped_states: quotient.then(|| graph.n_states()),
            quotient_direct: quotient,
            cache_hit,
            solver: report.solver,
            residual: report.residual,
            iterations: report.iterations,
            arena: graph.arena_stats(),
        })
    }
}

/// A concurrency-safe, sharded [`ChainCache`] for the serving layer.
///
/// One `SharedChainCache` serves every worker of a `repstream serve`
/// daemon: requests over the **same** chain shape share one structure
/// build, requests over different shapes proceed in parallel.
///
/// # Sharding contract
///
/// The cache is `shards` independent [`ChainCache`]s, each behind its own
/// [`Mutex`].  A solve locks exactly **one** shard — picked by the Fx
/// hash of its structural key ([`TpnSignature`] for Strict chains, the
/// coprime `(u′, v′)` pair for pattern chains) — for the whole solve
/// (cold build included).  Consequences, stated honestly:
///
/// - Two requests whose keys land on **different** shards never contend.
/// - Two requests over the **same** shape serialize: the second waits for
///   the first's build and then gets a warm hit instead of a duplicate
///   BFS.  That is the design — one BFS per shape, ever.
/// - Two requests over **different** shapes that *collide* on a shard
///   also serialize.  With the default 16 shards and the handful of hot
///   shapes a deployment sees, collisions are rare; raise `shards` if a
///   profile shows otherwise.
///
/// # Poisoning
///
/// A worker that panics mid-build poisons only its shard's mutex, and
/// the shard is still **consistent**: [`ChainCache`] installs a
/// structure entry only after its build fully succeeds, so a poisoned
/// shard never holds a partial chain.  Locks therefore recover from
/// poisoning (`PoisonError::into_inner`) instead of propagating the
/// panic — the entry the panicking request was building is simply absent
/// and the next request rebuilds it.
///
/// # Bitwise contract
///
/// Same as [`ChainCache`]: every value served — warm or cold, whichever
/// thread asks — is bitwise identical to a cold sequential solve of the
/// same inputs.  `repstream`'s `shared_cache` stress tests pin this
/// under 8-way concurrency.
#[derive(Debug, Default)]
pub struct SharedChainCache {
    shards: Vec<Mutex<ChainCache>>,
}

impl SharedChainCache {
    /// Default shard count of [`SharedChainCache::new`].
    pub const DEFAULT_SHARDS: usize = 16;

    /// A shared cache with [`Self::DEFAULT_SHARDS`] shards.
    pub fn new() -> SharedChainCache {
        SharedChainCache::with_shards(SharedChainCache::DEFAULT_SHARDS)
    }

    /// A shared cache with `shards` shards (rounded up to a power of two,
    /// minimum 1, so the shard pick is a mask).
    pub fn with_shards(shards: usize) -> SharedChainCache {
        let n = shards.max(1).next_power_of_two();
        SharedChainCache {
            shards: (0..n).map(|_| Mutex::new(ChainCache::new())).collect(),
        }
    }

    /// Number of shards (a power of two).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Lock the shard owning `key`, recovering from poisoning (see the
    /// type docs for why that is sound).
    fn shard_for<K: Hash>(&self, key: &K) -> std::sync::MutexGuard<'_, ChainCache> {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        let idx = (h.finish() as usize) & (self.shards.len() - 1);
        self.shards[idx]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Concurrent equivalent of [`ChainCache::pattern_throughput`]:
    /// bitwise identical to a cold solve, one shard locked for the call.
    ///
    /// # Panics
    /// Panics on a ragged rate matrix or non-coprime dimensions.
    pub fn pattern_throughput(
        &self,
        rate: &[Vec<f64>],
        max_states: usize,
    ) -> Result<f64, MarkingError> {
        let key = (rate.len(), rate.first().map_or(0, Vec::len));
        self.shard_for(&key).pattern_throughput(rate, max_states)
    }

    /// Concurrent equivalent of [`ChainCache::strict_throughput`]:
    /// bitwise identical to a cold solve, one shard locked for the call.
    pub fn strict_throughput(
        &self,
        shape: &MappingShape,
        rates: &ResourceTable<f64>,
        opts: RunConfig,
    ) -> Result<StrictSolve, MarkingError> {
        let key = TpnSignature::of(shape, ExecModel::Strict);
        self.shard_for(&key).strict_throughput(shape, rates, opts)
    }

    /// Hit/miss counters summed over every shard.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let s = shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .stats();
            total.pattern_hits += s.pattern_hits;
            total.pattern_misses += s.pattern_misses;
            total.strict_hits += s.strict_hits;
            total.strict_misses += s.strict_misses;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn het_matrix(u: usize, v: usize, bump: f64) -> Vec<Vec<f64>> {
        (0..u)
            .map(|a| {
                (0..v)
                    .map(|b| 0.4 + ((3 * a + b) % 5) as f64 * bump)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn pattern_hit_is_bitwise_cold() {
        let mut cache = ChainCache::new();
        for bump in [0.25, 0.125, 0.5] {
            let m = het_matrix(3, 4, bump);
            let cold = ChainCache::new().pattern_throughput(&m, 1 << 20).unwrap();
            let cached = cache.pattern_throughput(&m, 1 << 20).unwrap();
            assert_eq!(cold.to_bits(), cached.to_bits(), "bump {bump}");
        }
        assert_eq!(cache.stats().pattern_misses, 1);
        assert_eq!(cache.stats().pattern_hits, 2);
    }

    #[test]
    fn pattern_distinct_shapes_get_distinct_entries() {
        let mut cache = ChainCache::new();
        cache
            .pattern_throughput(&het_matrix(2, 3, 0.2), 1 << 20)
            .unwrap();
        cache
            .pattern_throughput(&het_matrix(3, 2, 0.2), 1 << 20)
            .unwrap();
        cache
            .pattern_throughput(&het_matrix(2, 3, 0.3), 1 << 20)
            .unwrap();
        assert_eq!(cache.stats().pattern_misses, 2);
        assert_eq!(cache.stats().pattern_hits, 1);
    }

    #[test]
    fn strict_hit_is_bitwise_cold_homogeneous() {
        // Homogeneous rates → the lumped path engages on both cold and
        // cached solves and must agree bit for bit.
        let shape = MappingShape::new(vec![2, 3]);
        let opts = RunConfig {
            max_states: 1 << 20,
            ..Default::default()
        };
        let mut warm = ChainCache::new();
        for lam in [0.5, 0.25, 2.0] {
            let rates = ResourceTable::from_fns(&shape, |_, _| lam, |_, _, _| 2.0 * lam);
            let mut cold = ChainCache::new();
            let a = cold.strict_throughput(&shape, &rates, opts).unwrap();
            let b = warm.strict_throughput(&shape, &rates, opts).unwrap();
            assert!(!a.cache_hit);
            assert_eq!(a.throughput.to_bits(), b.throughput.to_bits(), "λ {lam}");
            assert_eq!(a.lumped_states, b.lumped_states);
            assert!(a.lumped_states.is_some(), "homogeneous rates must lump");
        }
        assert_eq!(warm.stats().strict_misses, 1);
        assert_eq!(warm.stats().strict_hits, 2);
    }

    #[test]
    fn strict_parallel_build_warm_refill_is_bitwise_cold() {
        // The chunk-parallel BFS builds the identical structure, so a
        // warm refill under the parallel path must agree bit for bit with
        // cold parallel *and* cold sequential solves.
        let shape = MappingShape::new(vec![2, 3]);
        let par = RunConfig {
            max_states: 1 << 20,
            threads: 4,
            ..Default::default()
        };
        let seq = RunConfig { threads: 1, ..par };
        let mut warm = ChainCache::new();
        for lam in [0.5, 0.25, 2.0] {
            let rates = ResourceTable::from_fns(&shape, |_, _| lam, |_, _, _| 2.0 * lam);
            let cold_par = ChainCache::new()
                .strict_throughput(&shape, &rates, par)
                .unwrap();
            let cold_seq = ChainCache::new()
                .strict_throughput(&shape, &rates, seq)
                .unwrap();
            let warmed = warm.strict_throughput(&shape, &rates, par).unwrap();
            assert_eq!(
                cold_par.throughput.to_bits(),
                cold_seq.throughput.to_bits(),
                "λ {lam}: parallel vs sequential cold"
            );
            assert_eq!(
                warmed.throughput.to_bits(),
                cold_seq.throughput.to_bits(),
                "λ {lam}: warm refill vs cold"
            );
            assert_eq!(warmed.lumped_states, cold_seq.lumped_states);
        }
        assert_eq!(warm.stats().strict_hits, 2);
        assert_eq!(warm.stats().strict_misses, 1);
    }

    #[test]
    fn strict_heterogeneous_rates_fall_back_to_full_chain() {
        let shape = MappingShape::new(vec![2, 2]);
        let opts = RunConfig {
            max_states: 1 << 20,
            ..Default::default()
        };
        let mut cache = ChainCache::new();
        // Warm with homogeneous rates: only the direct quotient is built.
        let hom = ResourceTable::from_fns(&shape, |_, _| 1.0, |_, _, _| 1.0);
        let a = cache.strict_throughput(&shape, &hom, opts).unwrap();
        assert!(a.quotient_direct && a.lumped_states.is_some(), "{a:?}");
        assert!(!a.cache_hit);
        // A heterogeneous candidate on the same signature refuses the
        // quotient and lazily builds the full chain (a structural miss)…
        let het = ResourceTable::from_fns(&shape, |_, s| 1.0 + s as f64, |_, _, _| 1.0);
        let b = cache.strict_throughput(&shape, &het, opts).unwrap();
        assert!(!b.cache_hit);
        assert!(!b.quotient_direct && b.lumped_states.is_none(), "{b:?}");
        assert!(b.throughput > 0.0);
        // …which later heterogeneous candidates reuse, as homogeneous
        // ones reuse the quotient.
        let het2 = ResourceTable::from_fns(&shape, |_, s| 2.0 + s as f64, |_, _, _| 1.0);
        assert!(
            cache
                .strict_throughput(&shape, &het2, opts)
                .unwrap()
                .cache_hit
        );
        assert!(
            cache
                .strict_throughput(&shape, &hom, opts)
                .unwrap()
                .cache_hit
        );
    }
}
