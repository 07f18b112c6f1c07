//! Deduplication tables of the BFS kernel: the open-addressing
//! [`OffsetInterner`] keyed by arena offsets and the two-level
//! [`ShardedInterner`] built from it.

use super::arena::{hash_marking, MarkingStore};
use super::{MarkingOptions, MAX_INTERNER_SHARDS};

/// Open-addressing interner whose keys are offsets into the marking
/// arena — probing compares slices read back from the arena, so no owned
/// key is ever allocated.
pub(super) struct OffsetInterner {
    /// State id per slot, or `EMPTY`.
    table: Vec<u32>,
    mask: usize,
    len: usize,
}

/// Vacant-slot marker (state ids therefore stay below it).
pub(super) const EMPTY: u32 = u32::MAX;

impl OffsetInterner {
    pub(super) fn with_capacity(states: usize) -> Self {
        Self::with_slots((states.max(8) * 2).next_power_of_two())
    }

    /// A table of exactly `slots` slots (rounded up to a power of two).
    fn with_slots(slots: usize) -> Self {
        let cap = slots.max(16).next_power_of_two();
        OffsetInterner {
            table: vec![EMPTY; cap],
            mask: cap - 1,
            len: 0,
        }
    }

    /// Find `probe`'s state id, or intern it as `new_id` (the caller must
    /// then append `probe` to the arena to keep ids in sync).
    #[inline]
    pub(super) fn intern(
        &mut self,
        arena: &MarkingStore,
        probe: &[u8],
        new_id: u32,
    ) -> (u32, bool) {
        self.intern_hashed(arena, hash_marking(probe), probe, new_id, 0)
    }

    /// [`Self::intern`] with the hash supplied by the caller (the sharded
    /// interner hashes once to pick the shard).  `budget_slots` is the
    /// first-growth jump target: a full table grows to
    /// `max(2·slots, budget_slots)`, so a budget-presized shard pays at
    /// most one cheap early rehash instead of a doubling storm (`0`
    /// keeps plain doubling — the legacy growth schedule).
    #[inline]
    fn intern_hashed(
        &mut self,
        arena: &MarkingStore,
        h: u64,
        probe: &[u8],
        new_id: u32,
        budget_slots: usize,
    ) -> (u32, bool) {
        if (self.len + 1) * 8 > self.table.len() * 7 {
            self.grow(arena, (self.table.len() * 2).max(budget_slots));
        }
        let mut slot = h as usize & self.mask;
        loop {
            let id = self.table[slot];
            if id == EMPTY {
                self.table[slot] = new_id;
                self.len += 1;
                return (new_id, true);
            }
            if arena.matches(id as usize, probe) {
                return (id, false);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Read-only probe with the hash supplied by the caller: `probe`'s
    /// state id if it is interned, else `None`.  This is the
    /// **level-frozen** lookup of the parallel BFS workers — the table is
    /// shared immutably across threads while a level is being explored,
    /// so states discovered *within* the level miss here and are
    /// deduplicated chunk-locally instead.
    #[inline]
    fn find_hashed(&self, arena: &MarkingStore, h: u64, probe: &[u8]) -> Option<u32> {
        let mut slot = h as usize & self.mask;
        loop {
            let id = self.table[slot];
            if id == EMPTY {
                return None;
            }
            if arena.matches(id as usize, probe) {
                return Some(id);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    #[cold]
    fn grow(&mut self, arena: &MarkingStore, target_slots: usize) {
        let cap = target_slots.max(self.table.len() * 2).next_power_of_two();
        let mut table = vec![EMPTY; cap];
        let mask = cap - 1;
        let mut scratch = Vec::new();
        for &id in self.table.iter().filter(|&&id| id != EMPTY) {
            let mut slot = arena.hash_entry(id as usize, &mut scratch) as usize & mask;
            while table[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            table[slot] = id;
        }
        self.table = table;
        self.mask = mask;
    }

    /// Bytes of the open-addressing slot table.
    fn table_bytes(&self) -> usize {
        self.table.len() * std::mem::size_of::<u32>()
    }
}

/// Two-level interner of the arena BFS paths: `2^k` [`OffsetInterner`]
/// shards keyed by the **top** `k` bits of the marking hash (slot
/// probing uses the low bits, so the two levels are independent).
///
/// Sharding reorganizes only the hash table: ids are still assigned by
/// the caller in sequential scan/merge order and deduplication is exact
/// byte equality, so the chain is **bitwise identical for any shard
/// count** — the same contract the chunk-parallel BFS honors.  What
/// sharding buys at 10M+ states is allocation granularity: each shard's
/// table grows (and rehashes) independently at ~1/2^k the size, and the
/// first growth of a shard jumps straight to its slice of the
/// `max_states` budget (`budget_slots`) — at most one cheap early rehash
/// per shard instead of the ~13 full-table doubling rehashes a 6×7 build
/// paid under the old fixed 1024-slot start.
pub(super) struct ShardedInterner {
    shards: Vec<OffsetInterner>,
    /// `hash >> shard_shift` picks the shard; `64` means a single shard.
    shard_shift: u32,
    /// Per-shard first-growth target: slots holding `max_states / 2^k`
    /// entries below the 7/8 load bound (`0` = plain doubling).
    budget_slots: usize,
}

impl ShardedInterner {
    /// `n_shards` tables (rounded to a power of two) presized for a
    /// `max_states` interning budget.  Shards start at ≤ 2048 slots so
    /// the many small pattern-chain builds of the engine never pay a
    /// budget-sized allocation; builds that do scale pay one early
    /// rehash per shard when they jump to `budget_slots`.
    fn new(n_shards: usize, max_states: usize) -> Self {
        let n = n_shards.clamp(1, MAX_INTERNER_SHARDS).next_power_of_two();
        let budget_slots = if max_states == 0 {
            0
        } else {
            (max_states / n * 8 / 7 + 1).next_power_of_two()
        };
        let init = budget_slots.clamp(16, 2048);
        ShardedInterner {
            shards: (0..n).map(|_| OffsetInterner::with_slots(init)).collect(),
            shard_shift: 64 - n.trailing_zeros(),
            budget_slots,
        }
    }

    /// The [`MarkingOptions`]-resolved interner of the big build paths.
    pub(super) fn for_opts(opts: &MarkingOptions) -> Self {
        Self::new(opts.resolved_interner_shards(), opts.max_states)
    }

    #[inline]
    fn shard_of(&self, h: u64) -> usize {
        if self.shard_shift >= 64 {
            0
        } else {
            (h >> self.shard_shift) as usize
        }
    }

    /// Find `probe`'s state id, or intern it as `new_id` (see
    /// [`OffsetInterner::intern`]).
    #[inline]
    pub(super) fn intern(
        &mut self,
        arena: &MarkingStore,
        probe: &[u8],
        new_id: u32,
    ) -> (u32, bool) {
        let h = hash_marking(probe);
        let budget = self.budget_slots;
        let shard = self.shard_of(h);
        self.shards[shard].intern_hashed(arena, h, probe, new_id, budget)
    }

    /// Level-frozen read-only probe (see [`OffsetInterner::find_hashed`]).
    #[inline]
    pub(super) fn find(&self, arena: &MarkingStore, probe: &[u8]) -> Option<u32> {
        let h = hash_marking(probe);
        self.shards[self.shard_of(h)].find_hashed(arena, h, probe)
    }

    /// Bytes of the slot tables summed over every shard.
    pub(super) fn table_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.table_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::marking::{ArenaCompression, MarkingGraph};
    use crate::net::comm_pattern;

    /// Chain-bit equality of the interning decisions across table
    /// layouts: the budget-presized sharded interner and the legacy
    /// fixed-1024-slot doubling table must return the identical
    /// `(id, is_new)` sequence for the same probe sequence — the id
    /// assignment is the caller's scan order, never the table's.
    #[test]
    fn sharded_interner_matches_legacy_growth_path() {
        let net = comm_pattern(3, 4, |i, j| 1.0 + (i + 3 * j) as f64);
        let mg = MarkingGraph::build(&net, MarkingOptions::default()).unwrap();
        let width = mg.states.width();

        // Replay every stored marking (plus every marking again, to get
        // hit-paths) against three interner layouts over one arena.
        let mut arena = MarkingStore::with_spill(width, ArenaCompression::Off, usize::MAX);
        // Legacy: single shard, no budget jump (plain doubling from the
        // historical 2048-slot start).
        let mut legacy = OffsetInterner::with_capacity(1024);
        let mut sharded = ShardedInterner::new(16, mg.n_states());
        let mut single = ShardedInterner::new(1, 1 << 20);
        let mut n = 0u32;
        let mut probe = Vec::new();
        for pass in 0..2 {
            for s in 0..mg.n_states() {
                probe.clear();
                probe.extend_from_slice(mg.states.get(s));
                let h = hash_marking(&probe);
                let a = legacy.intern_hashed(&arena, h, &probe, n, 0);
                let b = sharded.intern(&arena, &probe, n);
                let c = single.intern(&arena, &probe, n);
                assert_eq!(a, b, "pass {pass} state {s}");
                assert_eq!(a, c, "pass {pass} state {s}");
                if a.1 {
                    arena.push(&probe);
                    n += 1;
                }
            }
        }
        assert_eq!(n as usize, mg.n_states());
    }
}
