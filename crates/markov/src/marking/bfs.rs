//! The reachability kernel: **one** frontier BFS, monomorphised over a
//! [`Canonicalizer`] (how a fired successor becomes an interning key) and
//! a [`RowSink`] (what a scanned row is emitted as) — the only place
//! where a successor is fired, canonicalised and interned.  The parent
//! module docs state the contract.

use super::arena::{byte_words, pack_bytes, packed_words, place_bit, MarkingStore};
use super::interner::Interner;
use super::{ArenaStats, MarkingError, MarkingOptions, MAX_CAPACITY};
use crate::govern::{Phase, Progress};
use crate::net::{EventNet, NetSymmetry};
use repstream_petri::canon::{CanonScratch, MarkingCanonicalizer};

/// A marking as its canonicaliser elected it (borrowed from the
/// canonicaliser's scratch, or from a [`ChunkStage`] during the merge).
pub(super) struct Successor<'a> {
    /// Interning key: the canonical member of the marking's orbit,
    /// packed into [`Canonicalizer::key_words`] words.
    pub(super) key: &'a [u64],
    /// The marking itself, packed like the key — stored as the orbit's
    /// representative (the row the state is explored from) when the key
    /// is new.
    rep: &'a [u64],
    /// Number of distinct markings in the orbit.
    period: u32,
}

/// How a marking becomes an interning key.  All mutable state lives in a
/// per-thread [`Self::Scratch`] holding the row's marking, transiently
/// mutated to a successor around each firing — so one canonicaliser is
/// shared by every worker of a level.
pub(super) trait Canonicalizer: Sync {
    /// Per-thread working buffers.
    type Scratch;

    /// Keys and representatives are bit rows (one bit per place, see
    /// [`place_bit`]), not byte rows (eight places per word).
    const BIT_ROWS: bool;

    /// Fresh buffers for markings of `net`.
    fn scratch(&self, net: &EventNet) -> Self::Scratch;

    /// Words per key of a marking of `net`.
    fn key_words(&self, net: &EventNet) -> usize;

    /// Start the row of marking `cur`.
    fn load_row(&self, cur: &[u8], scratch: &mut Self::Scratch);

    /// Turn the loaded row into its successor by `t` (enabled in it)…
    fn fire(&self, net: &EventNet, t: usize, scratch: &mut Self::Scratch);

    /// …and back.
    fn unfire(&self, net: &EventNet, t: usize, scratch: &mut Self::Scratch);

    /// Key, packed representative and orbit size of the marking in
    /// `scratch`.
    fn elect<'s>(&self, scratch: &'s mut Self::Scratch) -> Successor<'s>;
}

/// `m := m − •t + t•`.
#[inline]
fn fire(net: &EventNet, t: usize, m: &mut [u8]) {
    for &p in net.inputs(t) {
        m[p] -= 1;
    }
    for &p in net.outputs(t) {
        m[p] += 1;
    }
}

/// Undo [`fire`].
#[inline]
fn unfire(net: &EventNet, t: usize, m: &mut [u8]) {
    for &p in net.outputs(t) {
        m[p] -= 1;
    }
    for &p in net.inputs(t) {
        m[p] += 1;
    }
}

/// No symmetry, byte rows: the key is the marking packed eight places per
/// word — the [`MarkingGraph`](super::MarkingGraph) BFS of a
/// capacity-bounded net, whose token counts bits cannot hold.
pub(super) struct Identity;

impl Canonicalizer for Identity {
    /// The marking and its packed key.
    type Scratch = (Vec<u8>, Vec<u64>);

    const BIT_ROWS: bool = false;

    fn scratch(&self, net: &EventNet) -> Self::Scratch {
        let np = net.n_places();
        (vec![0; np], vec![0; byte_words(np)])
    }

    fn key_words(&self, net: &EventNet) -> usize {
        byte_words(net.n_places())
    }

    #[inline]
    fn load_row(&self, cur: &[u8], (m, _): &mut Self::Scratch) {
        m.copy_from_slice(cur);
    }

    #[inline]
    fn fire(&self, net: &EventNet, t: usize, (m, _): &mut Self::Scratch) {
        fire(net, t, m);
    }

    #[inline]
    fn unfire(&self, net: &EventNet, t: usize, (m, _): &mut Self::Scratch) {
        unfire(net, t, m);
    }

    #[inline]
    fn elect<'s>(&self, (m, key): &'s mut Self::Scratch) -> Successor<'s> {
        pack_bytes(m, key);
        let key = &key[..];
        Successor {
            key,
            rep: key,
            period: 1,
        }
    }
}

/// One full [`MarkingCanonicalizer::canonicalize_into`] per firing, on
/// byte rows: the oracle [`RowRotation`] is tested against, and the
/// strategy wherever bit rows cannot be used — a capacity-bounded
/// quotient (token counts above one) or tables past [`ROT_BUFFER_CAP`].
pub(super) struct PerFiring<'a>(pub &'a MarkingCanonicalizer);

impl Canonicalizer for PerFiring<'_> {
    /// The marking, the canonicalization buffers, the packed key and the
    /// packed marking.
    type Scratch = (Vec<u8>, CanonScratch, Vec<u64>, Vec<u64>);

    const BIT_ROWS: bool = false;

    fn scratch(&self, net: &EventNet) -> Self::Scratch {
        let np = net.n_places();
        let words = byte_words(np);
        (
            vec![0; np],
            CanonScratch::new(np),
            vec![0; words],
            vec![0; words],
        )
    }

    fn key_words(&self, net: &EventNet) -> usize {
        byte_words(net.n_places())
    }

    #[inline]
    fn load_row(&self, cur: &[u8], (m, ..): &mut Self::Scratch) {
        m.copy_from_slice(cur);
    }

    #[inline]
    fn fire(&self, net: &EventNet, t: usize, (m, ..): &mut Self::Scratch) {
        fire(net, t, m);
    }

    #[inline]
    fn unfire(&self, net: &EventNet, t: usize, (m, ..): &mut Self::Scratch) {
        unfire(net, t, m);
    }

    #[inline]
    fn elect<'s>(&self, (m, canon, key, rep): &'s mut Self::Scratch) -> Successor<'s> {
        let period = self.0.canonicalize_into(m, canon);
        pack_bytes(canon.key(), key);
        pack_bytes(m, rep);
        Successor { key, rep, period }
    }
}

/// Byte budget of [`RowRotation`]'s tables plus one thread's scratch:
/// above it `PerFiring` runs instead.  State budgets rule such shapes out
/// anyway — this guard only bounds what is allocated up front, before the
/// budget can fire (the Theorem 2 ladder needs 59 KB at 5×6, 355 KB at
/// 7×8).
pub(super) const ROT_BUFFER_CAP: usize = 1 << 26;

/// The m rotations of a **row** packed once into bit rows, the election
/// of every **firing** one XOR-and-compare pass over them.
///
/// A safe marking is one bit per place.  [`Self::load_row`] packs the
/// rotations `σᵃ(cur)` of the row's marking into `⌈places/64⌉` words
/// each; by the automorphism identity
/// `σᵃ(cur − •t + t•) = σᵃ(cur) − •σᵃ(t) + σᵃ(t)•` a successor's rotation
/// `a` is that row XOR a **flip mask** — the places of `•σᵃ(t)` and
/// `σᵃ(t)•`, a self-loop place netting out — tabulated once per build.
/// So a firing neither mutates nor undoes any rotation: [`Self::elect`]
/// XORs, compares with the successor's rotation 0 (equal ⇒ `a` is the
/// period, stop) and with the smallest so far, and hands the winner's
/// words over as the key and rotation 0's as the representative.  The
/// big-endian packing ([`place_bit`]) makes the word order the byte-row
/// order, so the member elected — and with it every id and chain bit — is
/// the one [`MarkingCanonicalizer`] elects.
/// Of order 1 over the identity permutation ([`Self::identity`]) this is
/// the safe full chain's canonicaliser: one rotation, the marking's bits.
///
/// **Invariant: every marking packed here is 0/1.**  The initial marking
/// is, because [`explore`] validates it under `capacity: None`; a
/// successor is, because [`Scan::row`] raises `NotSafe` from the row's
/// bytes *before* an unsafe transition is fired; and a
/// `capacity: Some(_)` build never uses this canonicaliser (the graph
/// builders route it to [`PerFiring`] or [`Identity`]).
pub(super) struct RowRotation {
    /// Powers of the place permutation: `place_pow[p·order + a] = σᵃ(p)`.
    place_pow: Vec<u32>,
    /// Flip masks, `words` each: entry `t·order + a` is that of `σᵃ(t)`;
    /// row `t = nt` is all zero — "nothing fired", what electing a
    /// freshly loaded row needs.
    flip: Vec<u64>,
    /// Order of σ (number of rotations held).
    order: usize,
    /// Words per packed marking.
    words: usize,
    nt: usize,
}

/// Per-thread buffers of [`RowRotation`].
pub(super) struct RotationScratch {
    /// `rot[a·words..][..words]`: `σᵃ` of the **row's** marking, packed.
    rot: Vec<u64>,
    /// The elected key: the winning rotation's words.
    key: Vec<u64>,
    /// The successor itself: its rotation 0.
    rep: Vec<u64>,
    /// The successor's rotations, XORed out — only past four words,
    /// where [`elect_fused`] has no instance.
    wide: Vec<u64>,
    /// The transition fired into the row; `nt` for none.
    fired: usize,
}

impl RowRotation {
    /// The rotation strategy for the validated automorphism `sym` of
    /// `net`, whose place permutation has the given `order`.
    pub(super) fn new(net: &EventNet, sym: &NetSymmetry, order: usize) -> Self {
        let (nt, np) = (net.n_transitions(), net.n_places());
        let words = packed_words(np);
        let mut place_pow = vec![0u32; np * order];
        for (p, pow) in place_pow.chunks_exact_mut(order).enumerate() {
            let mut q = p;
            for slot in pow {
                *slot = q as u32;
                q = sym.place_perm[q];
            }
        }
        let mut flip = vec![0u64; (nt + 1) * order * words];
        for t in 0..nt {
            let mut ta = t;
            for mask in flip[t * order * words..][..order * words].chunks_exact_mut(words) {
                for &p in net.inputs(ta).iter().chain(net.outputs(ta)) {
                    mask[p / 64] ^= place_bit(p);
                }
                ta = sym.trans_perm[ta];
            }
        }
        RowRotation {
            place_pow,
            flip,
            order,
            words,
            nt,
        }
    }

    /// Bit rows without a symmetry: order 1 over the identity permutation.
    pub(super) fn identity(net: &EventNet) -> Self {
        let sym = NetSymmetry {
            trans_perm: (0..net.n_transitions()).collect(),
            place_perm: (0..net.n_places()).collect(),
        };
        Self::new(net, &sym, 1)
    }

    /// Bytes [`Self::new`] and one [`Canonicalizer::scratch`] allocate
    /// (what [`ROT_BUFFER_CAP`] bounds).
    pub(super) fn footprint(net: &EventNet, order: usize) -> usize {
        let (nt, np) = (net.n_transitions(), net.n_places());
        let row = packed_words(np) * std::mem::size_of::<u64>();
        order.saturating_mul(np * std::mem::size_of::<u32>() + (nt + 2) * row)
    }
}

/// The election over a marking's packed rotations, in rotation order:
/// index of the smallest (ties keep the smallest index) and the period —
/// the first `a > 0` whose row repeats rotation 0, where the scan stops
/// because later rotations repeat.
#[inline(always)]
fn elect_min<T: Ord + Copy>(rows: impl IntoIterator<Item = T>) -> (usize, u32) {
    let mut rows = rows.into_iter();
    let Some(first) = rows.next() else {
        unreachable!("a permutation's order is at least one");
    };
    let (mut best, mut min, mut a) = (0, first, 1);
    for row in rows {
        if row == first {
            break;
        }
        if row < min {
            (best, min) = (a, row);
        }
        a += 1;
    }
    (best, a as u32)
}

/// [`elect_min`] fused with the XOR that makes the rows: rotation `a` of
/// the successor is `rot[a] ^ flip[a]`, `W` words held in registers.
#[inline]
fn elect_fused<const W: usize>(rot: &[u64], flip: &[u64]) -> (usize, u32) {
    let (rot, flip) = (rot.as_chunks::<W>().0, flip.as_chunks::<W>().0);
    elect_min(
        rot.iter()
            .zip(flip)
            .map(|(r, f)| -> [u64; W] { std::array::from_fn(|k| r[k] ^ f[k]) }),
    )
}

impl Canonicalizer for RowRotation {
    type Scratch = RotationScratch;

    const BIT_ROWS: bool = true;

    fn scratch(&self, _: &EventNet) -> RotationScratch {
        RotationScratch {
            rot: vec![0; self.order * self.words],
            key: vec![0; self.words],
            rep: vec![0; self.words],
            wide: Vec::new(),
            fired: self.nt,
        }
    }

    fn key_words(&self, _: &EventNet) -> usize {
        self.words
    }

    /// Pack the rotations of `cur` (0/1 — see the type's invariant): only
    /// marked places are visited.
    #[inline]
    fn load_row(&self, cur: &[u8], s: &mut RotationScratch) {
        s.fired = self.nt;
        s.rot.fill(0);
        for (pow, _) in self
            .place_pow
            .chunks_exact(self.order)
            .zip(cur)
            .filter(|(_, &tokens)| tokens != 0)
        {
            for (row, &q) in s.rot.chunks_exact_mut(self.words).zip(pow) {
                row[q as usize / 64] |= place_bit(q as usize);
            }
        }
    }

    /// Nothing moves: the rotations stay those of the row, and the
    /// election XORs in `t`'s flip masks.
    #[inline]
    fn fire(&self, _: &EventNet, t: usize, s: &mut RotationScratch) {
        s.fired = t;
    }

    #[inline]
    fn unfire(&self, _: &EventNet, _: usize, s: &mut RotationScratch) {
        s.fired = self.nt;
    }

    #[inline]
    fn elect<'s>(&self, s: &'s mut RotationScratch) -> Successor<'s> {
        let w = self.words;
        let flip = &self.flip[s.fired * s.rot.len()..][..s.rot.len()];
        let (best, period) = match w {
            1 => elect_fused::<1>(&s.rot, flip),
            2 => elect_fused::<2>(&s.rot, flip),
            3 => elect_fused::<3>(&s.rot, flip),
            4 => elect_fused::<4>(&s.rot, flip),
            _ => {
                s.wide.clear();
                s.wide.extend(s.rot.iter().zip(flip).map(|(r, f)| r ^ f));
                elect_min(s.wide.chunks_exact(w))
            }
        };
        let rotation = |a: usize| s.rot[a * w..][..w].iter().zip(&flip[a * w..]);
        for (key, (r, f)) in s.key.iter_mut().zip(rotation(best)) {
            *key = r ^ f;
        }
        for (rep, (r, f)) in s.rep.iter_mut().zip(rotation(0)) {
            *rep = r ^ f;
        }
        Successor {
            key: &s.key,
            rep: &s.rep,
            period,
        }
    }
}

/// What a scanned row is emitted as — the [`Graph`](super::Graph) sink.
pub(super) trait RowSink {
    /// The governor phase builds into this sink report.
    const PHASE: Phase;

    /// Transition `t`, enabled in state `s`, fires into state `target`.
    fn fire(&mut self, s: u32, t: usize, target: u32);

    /// Close the current row; `Err(Deadlock)` when nothing was enabled.
    fn end_row(&mut self) -> Result<(), MarkingError>;
}

/// Everything the BFS has interned: the interner (which owns the keys),
/// the row queue — the marking each discovered state's row is scanned
/// from, the first-found representative of the orbit or the marking
/// itself on a full chain, kept until its level is expanded — and every
/// state's orbit size.
pub(super) struct Frontier {
    rows: MarkingStore,
    orbit_size: Vec<u32>,
    interner: Interner,
    /// Every interned row, never released: what the tests read markings
    /// from after the build.  Apart from the queue, so test builds
    /// release rows as shipped builds do.
    #[cfg(test)]
    pub(super) recorded: MarkingStore,
}

impl Frontier {
    fn new<C: Canonicalizer>(net: &EventNet, canon: &C, opts: &MarkingOptions) -> Self {
        let words = canon.key_words(net);
        Frontier {
            rows: MarkingStore::new(net.n_places(), words, C::BIT_ROWS),
            orbit_size: Vec::new(),
            interner: Interner::new(words, opts.resolved_interner_shards()),
            #[cfg(test)]
            recorded: MarkingStore::new(net.n_places(), words, C::BIT_ROWS),
        }
    }

    /// States interned so far.
    fn len(&self) -> usize {
        self.rows.len()
    }

    /// Cooperative checkpoint: one governor check.  Never on the
    /// per-firing hot path, so checks cannot perturb output bits.
    fn checkpoint(
        &self,
        opts: &MarkingOptions,
        phase: Phase,
        levels: usize,
    ) -> Result<(), MarkingError> {
        opts.budget.check(Progress {
            phase,
            states: self.len(),
            levels,
            iterations: 0,
            arena_bytes: self.stats().total(),
        })?;
        Ok(())
    }

    /// `succ`'s state id, interning it (key, representative, orbit size)
    /// as the next id when its key is new.
    #[inline]
    fn intern(&mut self, succ: Successor<'_>, max_states: usize) -> Result<u32, MarkingError> {
        let (id, is_new) = self.interner.intern(succ.key);
        if is_new {
            if id as usize >= max_states {
                return Err(MarkingError::TooManyStates(max_states));
            }
            self.rows.push(succ.rep);
            #[cfg(test)]
            self.recorded.push(succ.rep);
            self.orbit_size.push(succ.period);
        }
        Ok(id)
    }

    /// The orbit sizes and storage accounting of a finished build; the
    /// interner (keys and slots) and the row queue are freed here, before
    /// the graph builds its chain structure.
    pub(super) fn finish(self) -> (Vec<u32>, ArenaStats) {
        let stats = self.stats();
        (self.orbit_size, stats)
    }

    /// Byte accounting of the build so far.
    fn stats(&self) -> ArenaStats {
        ArenaStats {
            keys_bytes: self.interner.keys_bytes(),
            reps_bytes: self.rows.peak_bytes(),
            interner_bytes: self.interner.table_bytes(),
            spill_bytes: 0,
        }
    }
}

/// Coded-target flag of the staging: targets carrying this bit index a
/// chunk-local new-key list instead of naming a global state id (ids
/// therefore live in 31 bits — `max_states` is clamped below it).
const NEW_BIT: u32 = 1 << 31;

/// Pending states each auto-sized worker must get before a level is
/// chunked (spawning a scope thread costs tens of microseconds; a
/// smaller slice of BFS work cannot amortize it).
const MIN_STATES_PER_WORKER: usize = 256;

/// Worker count for a BFS level with `pending` unexplored states: an
/// explicit request is honored (clamped to one state per worker), `0`
/// auto-sizes to the core count ([`crate::ctmc::num_cores`], shared with
/// the power sweep) gated by [`MIN_STATES_PER_WORKER`].
fn bfs_threads(requested: usize, pending: usize) -> usize {
    match requested {
        0 => crate::ctmc::num_cores()
            .min(pending / MIN_STATES_PER_WORKER)
            .max(1),
        t => t.min(pending).max(1),
    }
}

/// The row scanner's fixed inputs.
struct Scan<'a, C> {
    net: &'a EventNet,
    canon: &'a C,
    /// Per-place token bound; `None` requires the net to be safe.
    capacity: Option<u8>,
}

impl<C: Canonicalizer> Scan<'_, C> {
    /// Scan the row of marking `cur`: for every transition in ascending
    /// order, enabledness → capacity gate or safety check → fire, handing
    /// each successor to `resolve`.
    #[inline]
    fn row(
        &self,
        cur: &[u8],
        scratch: &mut C::Scratch,
        mut resolve: impl FnMut(usize, Successor<'_>) -> Result<(), MarkingError>,
    ) -> Result<(), MarkingError> {
        let net = self.net;
        self.canon.load_row(cur, scratch);
        'trans: for t in 0..net.n_transitions() {
            // Enabled: all inputs marked…
            for &p in net.inputs(t) {
                if cur[p] == 0 {
                    continue 'trans;
                }
            }
            // …and, under a capacity bound, all outputs below it.
            // Self-loop places (input and output of t) net out to zero,
            // so they never block.  Without a capacity, an output that
            // is already marked would get a second token: unsafety is
            // reported as an error instead.
            for &p in net.outputs(t) {
                if net.places[p].0 == net.places[p].1 {
                    continue;
                }
                match self.capacity {
                    Some(cap) if cur[p] >= cap => continue 'trans,
                    None if cur[p] != 0 => return Err(MarkingError::NotSafe { place: p }),
                    _ => {}
                }
            }
            self.canon.fire(net, t, scratch);
            resolve(t, self.canon.elect(scratch))?;
            self.canon.unfire(net, t, scratch);
        }
        Ok(())
    }
}

/// Staged exploration of one chunk of a parallel level: every firing is
/// recorded with its target either resolved against the level-frozen
/// interner or deduplicated into the chunk-local new-key list, for
/// [`merge_chunk`] to replay in chunk order.
struct ChunkStage {
    /// `(transition, coded target)` per firing, in scan order; targets
    /// carrying [`NEW_BIT`] index the new-key list.
    firings: Vec<(u32, u32)>,
    /// Exclusive end in `firings` of each explored state's row.
    row_ends: Vec<u32>,
    /// Chunk-local unique keys, in first-appearance order.
    new_keys: Interner,
    /// First-discovered representative per new key, as many words each
    /// as a key.
    new_reps: Vec<u64>,
    /// Orbit period per new key.
    new_periods: Vec<u32>,
    /// Error that cut the scan short (the last staged row is then
    /// partial and the merge re-raises the error at that point).
    error: Option<MarkingError>,
}

impl ChunkStage {
    /// The `li`-th chunk-local new state, as the worker elected it.
    fn successor(&self, li: usize) -> Successor<'_> {
        let key = self.new_keys.key(li);
        Successor {
            key,
            rep: &self.new_reps[li * key.len()..][..key.len()],
            period: self.new_periods[li],
        }
    }
}

/// Worker of a parallel level: scan the rows of `states` (one chunk)
/// exactly like the direct scan, with per-thread scratch, staging each
/// firing instead of interning it.
fn explore_chunk<C: Canonicalizer>(
    scan: &Scan<'_, C>,
    store: &Frontier,
    states: std::ops::Range<usize>,
) -> ChunkStage {
    let mut stage = ChunkStage {
        firings: Vec::new(),
        row_ends: Vec::new(),
        new_keys: Interner::new(scan.canon.key_words(scan.net), 1),
        new_reps: Vec::new(),
        new_periods: Vec::new(),
        error: None,
    };
    let mut scratch = scan.canon.scratch(scan.net);
    let mut cur = vec![0u8; scan.net.n_places()];
    for s in states {
        store.rows.copy_to(s, &mut cur);
        let scanned = scan.row(&cur, &mut scratch, |t, succ| {
            let code = match store.interner.find(succ.key) {
                Some(id) => id,
                None => {
                    let (li, fresh) = stage.new_keys.intern(succ.key);
                    if fresh {
                        stage.new_reps.extend_from_slice(succ.rep);
                        stage.new_periods.push(succ.period);
                    }
                    NEW_BIT | li
                }
            };
            stage.firings.push((t as u32, code));
            Ok(())
        });
        stage.row_ends.push(stage.firings.len() as u32);
        if let Err(e) = scanned {
            stage.error = Some(e);
            break;
        }
    }
    stage
}

/// Merge one staged chunk (rows of states `base..`) into the build:
/// replay the firings sequentially through the sink, interning each
/// chunk-local key at its first use — the same intern sequence, row
/// order and error points as the direct scan.
fn merge_chunk<S: RowSink>(
    stage: &ChunkStage,
    base: u32,
    store: &mut Frontier,
    max_states: usize,
    sink: &mut S,
) -> Result<(), MarkingError> {
    const UNSEEN: u32 = u32::MAX;
    let mut local_ids = vec![UNSEEN; stage.new_keys.len()];
    let mut f = 0usize;
    for (row, &end) in stage.row_ends.iter().enumerate() {
        for &(t, code) in &stage.firings[f..end as usize] {
            let id = if code & NEW_BIT == 0 {
                code
            } else {
                let li = (code & !NEW_BIT) as usize;
                if local_ids[li] == UNSEEN {
                    let succ = stage.successor(li);
                    local_ids[li] = store.intern(succ, max_states)?;
                }
                local_ids[li]
            };
            sink.fire(base + row as u32, t as usize, id);
        }
        f = end as usize;
        if row + 1 == stage.row_ends.len() {
            if let Some(e) = &stage.error {
                return Err(e.clone());
            }
        }
        sink.end_row()?;
    }
    Ok(())
}

/// Explore the markings reachable in `net`, deduplicated by `canon`,
/// emitting every row into `sink`; returns what was interned.
pub(super) fn explore<C: Canonicalizer, S: RowSink>(
    net: &EventNet,
    opts: MarkingOptions,
    canon: &C,
    sink: &mut S,
) -> Result<Frontier, MarkingError> {
    // Rows are scanned one byte per place, so token counts must fit: the
    // capacity bound (or the safeness bound 1) keeps them ≤ 255.
    let capacity = match opts.capacity {
        Some(c) if c > MAX_CAPACITY => return Err(MarkingError::CapacityTooLarge(c)),
        c => c.map(|c| c.max(1) as u8),
    };
    // State ids are u32 in the interner and the CSR, and the staging
    // codes them in 31 bits; clamp the budget so the id-space bound
    // fires as `TooManyStates` before any id could wrap.
    let opts = MarkingOptions {
        max_states: opts.max_states.min(NEW_BIT as usize - 1),
        ..opts
    };
    let scan = Scan {
        net,
        canon,
        capacity,
    };
    // The initial marking obeys the same storage and safety contract as
    // every marking fired into: one byte per place, and 0/1 without a
    // capacity (which is what lets `RowRotation` pack it into bits).
    // Counts above a `Some(c)` bound are accepted: the place can only
    // drain.
    let width = net.n_places();
    let mut init = Vec::with_capacity(width);
    for (place, &(_, _, tokens)) in net.places.iter().enumerate() {
        let Ok(byte) = u8::try_from(tokens) else {
            return Err(MarkingError::CapacityTooLarge(tokens));
        };
        if capacity.is_none() && byte > 1 {
            return Err(MarkingError::NotSafe { place });
        }
        init.push(byte);
    }

    let mut scratch = canon.scratch(net);
    let mut store = Frontier::new(net, canon, &opts);
    // The initial marking is interned whatever the budget.
    canon.load_row(&init, &mut scratch);
    store.intern(canon.elect(&mut scratch), usize::MAX)?;

    let mut cur = vec![0u8; width];
    let mut frontier = 0usize;
    // Exclusive end of the BFS level being explored: crossing it starts
    // the next level.
    let mut level_end = 0usize;
    let mut levels = 0usize;

    while frontier < store.len() {
        if frontier >= level_end {
            store.checkpoint(&opts, S::PHASE, levels)?;
            // The level below `frontier` is expanded: its rows are never
            // read again.
            store.rows.release_below(frontier);
            levels += 1;
            level_end = store.len();
        }
        // A level is scanned whole on one path, so the queue holds the
        // same rows at each boundary whatever the thread count.
        let threads = bfs_threads(opts.threads, level_end - frontier);
        if threads > 1 {
            // Parallel level: freeze the store over the level, stage one
            // chunk per worker, merge in chunk order.
            let hi = level_end;
            let chunk = (hi - frontier).div_ceil(threads);
            let stages: Vec<ChunkStage> = std::thread::scope(|scope| {
                let (scan, store) = (&scan, &store);
                let handles: Vec<_> = (frontier..hi)
                    .step_by(chunk)
                    .map(|lo| {
                        scope.spawn(move || explore_chunk(scan, store, lo..(lo + chunk).min(hi)))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| match h.join() {
                        Ok(stage) => stage,
                        Err(p) => std::panic::resume_unwind(p),
                    })
                    .collect()
            });
            let mut base = frontier as u32;
            for stage in &stages {
                // Chunk-boundary checkpoint: bounds the coast past a
                // deadline to one chunk's replay on parallel levels.
                store.checkpoint(&opts, S::PHASE, levels)?;
                merge_chunk(stage, base, &mut store, opts.max_states, sink)?;
                base += stage.row_ends.len() as u32;
            }
            frontier = hi;
            continue;
        }

        let s = frontier;
        frontier += 1;
        // Mid-level checkpoint: big levels (millions of states) take
        // seconds, so the per-level cadence alone cannot honor a
        // deadline-plus-grace contract.  Strided so the hot path stays
        // one branch per state.
        if s & 0xfff == 0xfff {
            store.checkpoint(&opts, S::PHASE, levels)?;
        }
        store.rows.copy_to(s, &mut cur);
        scan.row(&cur, &mut scratch, |t, succ| {
            let id = store.intern(succ, opts.max_states)?;
            sink.fire(s as u32, t, id);
            Ok(())
        })?;
        sink.end_row()?;
    }
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 0/1 byte row as big-endian bit words.
    fn pack_bits(row: &[u8]) -> Vec<u64> {
        let mut words = vec![0; packed_words(row.len())];
        for (q, _) in row.iter().enumerate().filter(|(_, &tokens)| tokens != 0) {
            words[q / 64] |= place_bit(q);
        }
        words
    }

    /// `RowRotation` against `petri::canon` at the election level, on
    /// random safe markings of nets built around a random permutation:
    /// `k` place cycles of one length `c` (so the order is `c`) plus
    /// fixed places, one cycle of `c` transitions plus a fixed one.  Both
    /// a freshly loaded row and a row with a transition fired into it
    /// must elect the oracle's key (as bit words) and period.  Rows of
    /// period below the order are there by construction: every third row
    /// repeats a pattern of a proper divisor's length along each cycle,
    /// and the all-zero and all-one rows are fixed points.
    #[test]
    fn row_rotation_elects_what_the_canonicalizer_elects() {
        let mut x = 0xda3e39cb94b95bdbu64;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for width in [1usize, 63, 64, 65, 127, 128, 129, 257] {
            for c in [1usize, 2, 3, 4, 6, 12, 30]
                .into_iter()
                .filter(|&c| c <= width)
            {
                // cycles[j][i] is the place σⁱ maps cycles[j][0] to.
                let mut shuffled: Vec<usize> = (0..width).collect();
                for i in (1..width).rev() {
                    shuffled.swap(i, step() as usize % (i + 1));
                }
                let cycles: Vec<&[usize]> = shuffled.chunks_exact(c).collect();
                let mut place_perm: Vec<usize> = (0..width).collect();
                // Place cycles[j][i] runs from transition i + from[j] to
                // transition i + to[j] (mod c), which the shift respects;
                // fixed places loop on the fixed transition c.
                let mut places = vec![(c, c, 0u32); width];
                for cycle in &cycles {
                    let (from, to) = (step() as usize % c, step() as usize % c);
                    for (i, &p) in cycle.iter().enumerate() {
                        place_perm[p] = cycle[(i + 1) % c];
                        places[p] = ((i + from) % c, (i + to) % c, 0);
                    }
                }
                let net = EventNet::new(vec![1.0; c + 1], places);
                let sym = NetSymmetry {
                    trans_perm: (0..c).map(|t| (t + 1) % c).chain([c]).collect(),
                    place_perm,
                };
                assert!(net.symmetry_valid(&sym), "width {width} cycles of {c}");
                let oracle = MarkingCanonicalizer::new(&sym.place_perm).unwrap();
                assert_eq!(oracle.order() as usize, c);
                let rowrot = RowRotation::new(&net, &sym, c);
                let mut scratch = rowrot.scratch(&net);
                let mut expect = CanonScratch::new(width);

                for sample in 0..40 {
                    let mut row: Vec<u8> = (0..width).map(|_| (step() & 1) as u8).collect();
                    match sample {
                        0 => row.fill(0),
                        1 => row.fill(1),
                        s if s % 3 == 2 => {
                            let d = (1..c).filter(|d| c % d == 0).nth(s / 3 % 3).unwrap_or(1);
                            for cycle in &cycles {
                                for i in d..c {
                                    row[cycle[i]] = row[cycle[i - d]];
                                }
                            }
                        }
                        _ => {}
                    }
                    let mut check = |m: &[u8], succ: Successor<'_>, what: &str| {
                        let period = oracle.canonicalize_into(m, &mut expect);
                        let at = format!("width {width} cycles of {c} sample {sample} {what}");
                        assert_eq!(succ.rep, pack_bits(m), "{at}");
                        assert_eq!(succ.key, pack_bits(expect.key()), "{at}");
                        assert_eq!(succ.period, period, "{at}");
                    };
                    rowrot.load_row(&row, &mut scratch);
                    check(&row, rowrot.elect(&mut scratch), "loaded");

                    // Enable t safely: inputs marked, pure outputs empty.
                    let t = step() as usize % (c + 1);
                    for &p in net.outputs(t) {
                        row[p] = 0;
                    }
                    for &p in net.inputs(t) {
                        row[p] = 1;
                    }
                    let mut fired = row.clone();
                    fire(&net, t, &mut fired);
                    rowrot.load_row(&row, &mut scratch);
                    rowrot.fire(&net, t, &mut scratch);
                    check(&fired, rowrot.elect(&mut scratch), "fired");
                    rowrot.unfire(&net, t, &mut scratch);
                    check(&row, rowrot.elect(&mut scratch), "unfired");
                }
            }
        }
    }
}
