//! Deduplication table of the BFS kernel: the [`Interner`] owns every
//! interned key — `words` packed `u64`s at `id · words` — and finds one
//! through `2^k` open-addressing shards of tagged slots.

use super::MAX_INTERNER_SHARDS;
use crate::fxhash::FxHasher;
use std::hash::Hasher;

/// Vacant-slot marker (ids stay below 2^31, so no occupied slot is all
/// ones).
const EMPTY: u64 = u64::MAX;

/// Slots a shard starts with; it doubles as states arrive.
const INIT_SLOTS: usize = 64;

/// Fx hash of a packed key; its low half becomes tag and slot position
/// ([`FxHasher::finish`] folds the high half in, so zero padding in the
/// last word does not cluster the slots).
#[inline]
fn hash_key(key: &[u64]) -> u64 {
    let mut h = FxHasher::default();
    for &word in key {
        h.write_u64(word);
    }
    h.finish()
}

/// Append `slot` to the probe run of its tag (the caller knows its key
/// is absent).
#[inline]
fn place(slots: &mut [u64], slot: u64) {
    let mask = slots.len() - 1;
    let mut i = (slot >> 32) as usize & mask;
    while slots[i] != EMPTY {
        i = (i + 1) & mask;
    }
    slots[i] = slot;
}

/// One open-addressing table: a slot is `tag << 32 | id` (the tag is the
/// low half of the folded hash, whose low bits are also the home slot),
/// or [`EMPTY`].
struct Shard {
    slots: Vec<u64>,
    len: usize,
}

impl Shard {
    /// The id under `tag` whose key words equal `key`, or `None` at the
    /// first vacant slot.  Only a tag match reads key words.
    #[inline]
    fn find(&self, keys: &[u64], tag: u32, key: &[u64]) -> Option<u32> {
        let w = key.len();
        let mask = self.slots.len() - 1;
        let mut i = tag as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot == EMPTY {
                return None;
            }
            let id = slot as u32;
            if (slot >> 32) as u32 == tag && keys[id as usize * w..][..w] == *key {
                return Some(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Record a new id under `tag`, doubling first past a 7/8 load: the
    /// tagged slots move as they are, no key is read.
    fn insert(&mut self, tag: u32, id: u32) {
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            let mut slots = vec![EMPTY; self.slots.len() * 2];
            for &slot in self.slots.iter().filter(|&&s| s != EMPTY) {
                place(&mut slots, slot);
            }
            self.slots = slots;
        }
        place(&mut self.slots, u64::from(tag) << 32 | u64::from(id));
        self.len += 1;
    }
}

/// The kernel's key store and dedup table.  Ids are assigned in call
/// order — the caller's scan/merge order, never the hash's — and a key is
/// matched by exact word equality, so the ids are **identical for any
/// shard count**.  Shards are picked by the top hash bits (slot positions
/// use the low ones, so the two levels are independent) and grow
/// independently from [`INIT_SLOTS`]: a table is sized from the states it
/// has seen, never from the `max_states` budget.
pub(super) struct Interner {
    shards: Vec<Shard>,
    /// `hash >> shard_shift` picks the shard; `64` means a single shard.
    shard_shift: u32,
    /// Words per key.
    words: usize,
    /// Key of state `id` at `id · words`.
    keys: Vec<u64>,
}

impl Interner {
    /// An empty interner of `words`-word keys over `n_shards` tables
    /// (rounded to a power of two, capped at [`MAX_INTERNER_SHARDS`]).
    pub(super) fn new(words: usize, n_shards: usize) -> Self {
        let n = n_shards.clamp(1, MAX_INTERNER_SHARDS).next_power_of_two();
        Interner {
            shards: (0..n)
                .map(|_| Shard {
                    slots: vec![EMPTY; INIT_SLOTS],
                    len: 0,
                })
                .collect(),
            shard_shift: 64 - n.trailing_zeros(),
            words,
            keys: Vec::new(),
        }
    }

    /// Keys interned so far.
    pub(super) fn len(&self) -> usize {
        self.keys.len() / self.words
    }

    /// The key of state `id`.
    pub(super) fn key(&self, id: usize) -> &[u64] {
        &self.keys[id * self.words..][..self.words]
    }

    #[inline]
    fn shard_of(&self, h: u64) -> usize {
        h.checked_shr(self.shard_shift).unwrap_or(0) as usize
    }

    /// `key`'s state id, interning it as the next id when it is new (the
    /// flag).
    #[inline]
    pub(super) fn intern(&mut self, key: &[u64]) -> (u32, bool) {
        self.intern_hashed(hash_key(key), key)
    }

    /// [`Self::intern`] with the folded hash supplied by the caller.
    #[inline]
    fn intern_hashed(&mut self, h: u64, key: &[u64]) -> (u32, bool) {
        debug_assert_eq!(key.len(), self.words);
        let shard = self.shard_of(h);
        if let Some(id) = self.shards[shard].find(&self.keys, h as u32, key) {
            return (id, false);
        }
        let id = self.len() as u32;
        self.shards[shard].insert(h as u32, id);
        self.keys.extend_from_slice(key);
        (id, true)
    }

    /// Read-only probe: `key`'s state id if it is interned.  This is the
    /// **level-frozen** lookup of the parallel BFS workers — the interner
    /// is shared immutably while a level is explored, so states found
    /// *within* the level miss here and are deduplicated chunk-locally.
    #[inline]
    pub(super) fn find(&self, key: &[u64]) -> Option<u32> {
        let h = hash_key(key);
        self.shards[self.shard_of(h)].find(&self.keys, h as u32, key)
    }

    /// Bytes of the packed keys.
    pub(super) fn keys_bytes(&self) -> usize {
        self.keys.len() * std::mem::size_of::<u64>()
    }

    /// Bytes of the slot tables summed over every shard.
    pub(super) fn table_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.slots.len() * std::mem::size_of::<u64>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::marking::bfs::{Canonicalizer, RowRotation};
    use crate::marking::{MarkingOptions, QuotientGraph};
    use crate::net::EventNet;
    use repstream_petri::canon::MarkingCanonicalizer;
    use repstream_petri::shape::{ExecModel, MappingShape, ResourceTable};
    use repstream_petri::tpn::Tpn;
    use std::collections::HashMap;

    /// Mean slots a successful lookup inspects, over every interned key.
    fn mean_probe_len(interner: &Interner) -> f64 {
        let mut total = 0usize;
        for id in 0..interner.len() {
            let key = interner.key(id);
            let h = hash_key(key);
            let shard = &interner.shards[interner.shard_of(h)];
            let mask = shard.slots.len() - 1;
            let mut i = h as u32 as usize & mask;
            total += 1;
            while shard.slots[i] as u32 != id as u32 {
                i = (i + 1) & mask;
                total += 1;
            }
        }
        total as f64 / interner.len() as f64
    }

    /// The interner against a `HashMap` oracle on every canonical key of
    /// the hom(5×6) quotient (two-word bit rows, 120 places, eight
    /// padding bits), fed twice, through 1 and 16 shards and every
    /// doubling from 64 slots: the same `(id, is_new)` sequence.  Two
    /// keys forced onto one hash still get distinct ids, and the mean
    /// probe length stays under 2 — which the hash fold is what keeps.
    #[test]
    fn interner_matches_hashmap_oracle() {
        let shape = MappingShape::new(vec![5, 6]);
        let tpn = Tpn::build(&shape, ExecModel::Strict);
        let rates = ResourceTable::from_fns(&shape, |_, _| 0.5, |_, _, _| 2.0);
        let (net, sym) = EventNet::from_tpn_with_symmetry(&tpn, &rates);
        let sym = sym.unwrap();
        let qg = QuotientGraph::build(&net, &sym, MarkingOptions::default()).unwrap();
        let order = MarkingCanonicalizer::new(&sym.place_perm).unwrap().order();
        let rowrot = RowRotation::new(&net, &sym, order as usize);
        let mut scratch = rowrot.scratch(&net);
        let mut buf = Vec::new();
        let keys: Vec<Vec<u64>> = (0..qg.n_states())
            .map(|s| {
                rowrot.load_row(qg.recorded.read_into(s, &mut buf), &mut scratch);
                rowrot.elect(&mut scratch).key.to_vec()
            })
            .collect();
        let words = keys[0].len();
        assert_eq!((net.n_places(), words, keys.len()), (120, 2, 86_016));

        for n_shards in [1usize, 16] {
            let mut oracle: HashMap<Vec<u64>, u32> = HashMap::new();
            let mut interner = Interner::new(words, n_shards);
            for pass in 0..2 {
                for (id, key) in keys.iter().enumerate() {
                    let next = oracle.len() as u32;
                    let known = *oracle.entry(key.clone()).or_insert(next);
                    let got = interner.intern(key);
                    let at = format!("{n_shards} shards, pass {pass}, key {id}");
                    assert_eq!(got, (known, known == next), "{at}");
                }
            }
            assert_eq!(interner.len(), keys.len());
            assert!(
                interner.table_bytes() < 4 * keys.len() * 8,
                "sized from the states seen"
            );
            let mean = mean_probe_len(&interner);
            assert!(mean < 2.0, "{n_shards} shards: mean probe length {mean}");
        }

        // Distinct keys under one hash: the tag matches, the words do not.
        let mut interner = Interner::new(words, 1);
        let h = hash_key(&keys[0]);
        for (id, key) in keys.iter().take(100).enumerate() {
            assert_eq!(interner.intern_hashed(h, key), (id as u32, true));
        }
        assert_eq!(interner.intern_hashed(h, &keys[42]), (42, false));
    }
}
