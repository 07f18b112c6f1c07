//! Row storage of the BFS kernel: the two row formats keys and rows are
//! packed in, and the [`MarkingStore`] queue of fixed-width packed rows.

/// Words per bit row of `n_places` places (one even for none, so the
/// rotations of an empty marking still compare — all equal).
pub(super) fn packed_words(n_places: usize) -> usize {
    n_places.div_ceil(64).max(1)
}

/// The bit of place `q` in its word `q / 64` of a bit row: places are
/// packed **big-endian** (place 0 is the top bit of word 0), so comparing
/// packed rows word by word is comparing the 0/1 byte rows
/// lexicographically.
#[inline]
pub(super) fn place_bit(q: usize) -> u64 {
    1 << (63 - q % 64)
}

/// Words per byte row: eight places each (one even for none, so the
/// empty marking still has a key).
pub(super) fn byte_words(n_places: usize) -> usize {
    n_places.div_ceil(8).max(1)
}

/// Pack a byte row eight places per word, place `q` in little-endian byte
/// `q % 8` of word `q / 8`; the last word is zero-padded.
#[inline]
pub(super) fn pack_bytes(m: &[u8], row: &mut [u64]) {
    let (eights, tail) = m.as_chunks::<8>();
    for (word, eight) in row.iter_mut().zip(eights) {
        *word = u64::from_le_bytes(*eight);
    }
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        row[eights.len()] = u64::from_le_bytes(last);
    }
}

/// The row queue: the markings a build has discovered but not yet
/// finished expanding, in state order, as `words` packed `u64`s each —
/// packed the way the build's canonicaliser packs its keys (read-only
/// outside this module):
///
/// * **bit rows** (every safe build): one bit per place, big-endian —
///   place `q` is bit `63 − q % 64` of word `q / 64`;
/// * **byte rows** (the capacity-bounded builds, whose token counts bits
///   cannot hold): eight places per word, place `q` in little-endian byte
///   `q % 8` of word `q / 8`.
///
/// Rows are appended as states are interned and released from the front
/// by [`Self::release_below`], which the BFS calls at each level
/// boundary: row `s` lives from its discovery to the end of its level's
/// expansion.  Reads decode a row into one byte per place.
#[derive(Debug, Clone)]
pub(crate) struct MarkingStore {
    /// Places per marking.
    width: usize,
    /// Words per row.
    words: usize,
    /// Bit rows (`true`) or byte rows.
    bits: bool,
    /// Id of the first resident row; the rows below it were released.
    base: usize,
    /// The resident rows: row `s` at `(s − base) · words`.
    rows: Vec<u64>,
    /// Most words resident at once so far.
    peak: usize,
}

impl MarkingStore {
    /// An empty queue of `words`-word rows of `width` places — bit rows
    /// or byte rows.
    pub(super) fn new(width: usize, words: usize, bits: bool) -> Self {
        MarkingStore {
            width,
            words,
            bits,
            base: 0,
            rows: Vec::new(),
            peak: 0,
        }
    }

    /// Number of markings appended so far, released ones included.
    pub(super) fn len(&self) -> usize {
        self.base + self.rows.len() / self.words
    }

    /// Append a packed row (its id is the current [`Self::len`]).
    pub(super) fn push(&mut self, row: &[u64]) {
        debug_assert_eq!(row.len(), self.words);
        self.rows.extend_from_slice(row);
    }

    /// Release the rows below `s`: they are never read again.
    pub(super) fn release_below(&mut self, s: usize) {
        self.peak = self.peak.max(self.rows.len());
        self.rows.drain(..(s - self.base) * self.words);
        self.base = s;
    }

    /// Decode marking `s` (not yet released) into `out` (exactly `width`
    /// bytes, one per place).
    pub(super) fn copy_to(&self, s: usize, out: &mut [u8]) {
        debug_assert_eq!(out.len(), self.width);
        let row = &self.rows[(s - self.base) * self.words..][..self.words];
        if self.bits {
            out.fill(0);
            for (i, &word) in row.iter().enumerate() {
                let mut rest = word;
                while rest != 0 {
                    let k = rest.leading_zeros() as usize;
                    out[i * 64 + k] = 1;
                    rest ^= 1 << (63 - k);
                }
            }
        } else {
            for (eight, word) in out.chunks_mut(8).zip(row) {
                eight.copy_from_slice(&word.to_le_bytes()[..eight.len()]);
            }
        }
    }

    /// The most row bytes resident at once so far — the queue's peak.
    pub(super) fn peak_bytes(&self) -> usize {
        self.peak.max(self.rows.len()) * std::mem::size_of::<u64>()
    }
}

/// The test builds' reads of a store that releases nothing: the recorder
/// of every interned row (see `bfs::Frontier`).
#[cfg(test)]
impl MarkingStore {
    /// Places per marking.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Tokens per place of marking `s`.
    pub(crate) fn get(&self, s: usize) -> Vec<u8> {
        let mut m = vec![0; self.width];
        self.copy_to(s, &mut m);
        m
    }

    /// All resident markings in state order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Vec<u8>> + '_ {
        (self.base..self.len()).map(move |s| self.get(s))
    }

    /// Tokens per place of marking `s`, decoded into `buf`.
    pub(crate) fn read_into<'a>(&'a self, s: usize, buf: &'a mut Vec<u8>) -> &'a [u8] {
        buf.resize(self.width, 0);
        self.copy_to(s, buf);
        buf
    }

    /// Does marking `s` equal `probe`?
    pub(crate) fn matches(&self, s: usize, probe: &[u8]) -> bool {
        self.get(s) == probe
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pack a marking the way the canonicalisers do.
    fn pack(m: &[u8], bits: bool, words: usize) -> Vec<u64> {
        let mut row = vec![0u64; words];
        if bits {
            for (q, _) in m.iter().enumerate().filter(|(_, &tokens)| tokens != 0) {
                row[q / 64] |= place_bit(q);
            }
        } else {
            pack_bytes(m, &mut row);
        }
        row
    }

    /// Every layout round-trips: bit rows at widths below, at and across
    /// word boundaries, and byte rows with counts up to 255.  Every
    /// accessor agrees with the pushed markings, a probe one place off
    /// never matches, and the queue holds exactly `len · words · 8`
    /// bytes.  Releasing the front keeps the later rows readable at their
    /// ids, and the peak is what was held before the release.
    #[test]
    fn marking_arena_roundtrip() {
        let mut x = 0x2545f4914f6cdd1du64;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let bit_rows = [1usize, 63, 64, 65, 120, 168].map(|w| (w, true));
        let byte_rows = [1usize, 7, 8, 9, 80].map(|w| (w, false));
        for (width, bits) in bit_rows.into_iter().chain(byte_rows) {
            let (max, words) = match bits {
                true => (1, packed_words(width)),
                false => (255, byte_words(width)),
            };
            // The empty and the full marking, then random ones.
            let mut markings = vec![vec![0u8; width], vec![max; width]];
            markings.extend((0..48).map(|_| {
                (0..width)
                    .map(|_| (step() % (u64::from(max) + 1)) as u8)
                    .collect()
            }));
            let record = words * 8;
            let at = format!("width {width} bits {bits}");
            let mut store = MarkingStore::new(width, words, bits);
            for m in &markings {
                store.push(&pack(m, bits, words));
            }
            assert_eq!(store.len(), markings.len(), "{at}");
            assert_eq!(store.peak_bytes(), markings.len() * record, "{at}");
            let mut buf = Vec::new();
            for (s, m) in markings.iter().enumerate() {
                assert_eq!(store.read_into(s, &mut buf), &m[..], "{at}: state {s}");
                assert_eq!(&store.get(s), m, "{at}: state {s}");
                assert!(store.matches(s, m), "{at}: state {s}");
                let mut off = m.clone();
                off[s % width] ^= 1;
                assert!(!store.matches(s, &off), "{at}: state {s}");
            }
            assert!(store.iter().eq(markings.iter().cloned()), "{at}");

            store.release_below(30);
            store.push(&pack(&markings[0], bits, words));
            assert_eq!(store.len(), markings.len() + 1, "{at}");
            assert_eq!(store.peak_bytes(), markings.len() * record, "{at}");
            assert!(store
                .iter()
                .eq(markings[30..].iter().chain(&markings[..1]).cloned()));
            assert_eq!(store.get(markings.len()), markings[0], "{at}");
        }
    }
}
