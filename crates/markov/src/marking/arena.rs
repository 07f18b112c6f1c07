//! Row storage of the BFS kernel: the two row formats keys and rows are
//! packed in, and the append-only [`MarkingStore`] of fixed-width packed
//! rows, optionally spilled to an unlinked temp file.

use super::{MarkingError, SpillIoError, SpillOp};

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

/// The row arena: every marking a build interned, in state order, as
/// `words` packed `u64`s at `s · words` — packed the way the build's
/// canonicaliser packs its keys (read-only outside this module):
///
/// * **bit rows** (every safe build): one bit per place, big-endian —
///   place `q` is bit `63 − q % 64` of word `q / 64`;
/// * **byte rows** (the capacity-bounded builds, whose token counts bits
///   cannot hold): eight places per word, place `q` in little-endian byte
///   `q % 8` of word `q / 8`.
///
/// Reads decode a row into one byte per place.  Under
/// [`super::MarkingOptions::interner_spill`] the resident rows move to a
/// spill file once they reach the spill limit, as fixed-width records —
/// row `s` at byte `s · words · 8` — so a spilled row is one `pread`.
#[derive(Debug, Clone)]
pub struct MarkingStore {
    /// Places per marking.
    width: usize,
    /// Words per row.
    words: usize,
    /// Bit rows (`true`) or byte rows.
    bits: bool,
    len: usize,
    /// The rows not in the spill file: row `s` at
    /// `(s − spilled rows) · words`.
    resident: Vec<u64>,
    /// Resident bytes kept before flushing to the spill file;
    /// `usize::MAX` disables spilling (see
    /// [`super::MarkingOptions::interner_spill`]).
    spill_limit: usize,
    /// Lazily-created spill region (first flush).
    spill: Option<SpillFile>,
    /// First spill I/O failure.  The `&self` read paths are shared
    /// immutably by the parallel BFS workers and stay infallible: on a
    /// read error they record it here and read a zero-filled row; the BFS
    /// drivers drain the slot at level boundaries into
    /// [`MarkingError::SpillIo`], discarding the garbage level.
    poison: std::sync::OnceLock<SpillIoError>,
}

/// Temp-file-backed spill region of one arena: the first `rows` rows sit
/// in an **unlinked** temp file — space is reclaimed by the OS when the
/// last handle drops.  Reads go through positioned I/O (`pread`), so the
/// parallel workers of a level can read spilled rows concurrently.
/// Clones share the file; that is sound because graphs are only cloned
/// after their build finishes (the rows are append-only and frozen by
/// then).
#[derive(Debug, Clone)]
struct SpillFile {
    file: std::sync::Arc<std::fs::File>,
    rows: usize,
    /// Retained only when the immediate unlink failed (the normal case
    /// deletes the directory entry at creation): the last clone removes
    /// the file on drop, so no temp file leaks on any path — error
    /// paths included.
    _cleanup: Option<std::sync::Arc<CleanupPath>>,
}

/// Deletes the named file when dropped (the unlink-failed fallback of
/// `SpillFile::create`).
#[derive(Debug)]
struct CleanupPath(std::path::PathBuf);

impl Drop for CleanupPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

impl SpillFile {
    /// Open an unlinked temp file under `REPSTREAM_SPILL_DIR` (default:
    /// the system temp dir).  `None` when creation fails or the target
    /// has no positioned-I/O support — the arena then stays in memory.
    fn create() -> Option<Self> {
        #[cfg(unix)]
        {
            use std::sync::atomic::{AtomicU64, Ordering};
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::var_os("REPSTREAM_SPILL_DIR")
                .map(std::path::PathBuf::from)
                .unwrap_or_else(std::env::temp_dir);
            let n = SEQ.fetch_add(1, Ordering::Relaxed);
            let path = dir.join(format!("repstream-spill-{}-{n}.bin", std::process::id()));
            let file = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create_new(true)
                .open(&path)
                .ok()?;
            let cleanup = match std::fs::remove_file(&path) {
                Ok(()) => None,
                Err(_) => Some(std::sync::Arc::new(CleanupPath(path))),
            };
            Some(SpillFile {
                file: std::sync::Arc::new(file),
                rows: 0,
                _cleanup: cleanup,
            })
        }
        #[cfg(not(unix))]
        {
            None
        }
    }

    fn read_exact_at(&self, buf: &mut [u8], off: u64) -> std::io::Result<()> {
        #[cfg(feature = "fault-inject")]
        if let Some(e) = crate::fault::spill_read_fault() {
            return Err(e);
        }
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_exact_at(buf, off)
        }
        #[cfg(not(unix))]
        {
            let _ = (buf, off);
            unreachable!("spill files are never created off-Unix");
        }
    }

    fn write_all_at(&self, buf: &[u8], off: u64) -> std::io::Result<()> {
        #[cfg(feature = "fault-inject")]
        if let Some(e) = crate::fault::spill_write_fault() {
            return Err(e);
        }
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.write_all_at(buf, off)
        }
        #[cfg(not(unix))]
        {
            let _ = (buf, off);
            unreachable!("spill files are never created off-Unix");
        }
    }
}

thread_local! {
    /// Scratch pair (record bytes, row words) for reads of spilled rows —
    /// per thread so the row reads of the parallel BFS workers stay
    /// allocation-free after warm-up.
    static SPILL_SCRATCH: std::cell::RefCell<(Vec<u8>, Vec<u64>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

impl MarkingStore {
    /// An empty arena of `words`-word rows of `width` places — bit rows
    /// or byte rows — that flushes its resident rows to the spill file
    /// once they reach `spill_limit` bytes (`usize::MAX` = never).
    pub(super) fn new(width: usize, words: usize, bits: bool, spill_limit: usize) -> Self {
        MarkingStore {
            width,
            words,
            bits,
            len: 0,
            resident: Vec::new(),
            spill_limit,
            spill: None,
            poison: std::sync::OnceLock::new(),
        }
    }

    /// Number of stored markings.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no marking is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Places per marking.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Append a packed row (its id is the current [`Self::len`]).
    pub(super) fn push(&mut self, row: &[u64]) {
        debug_assert_eq!(row.len(), self.words);
        self.resident.extend_from_slice(row);
        self.len += 1;
        if self.resident.len() * 8 >= self.spill_limit {
            self.flush_spill();
        }
    }

    /// Rows already flushed to the spill file.
    fn spilled_rows(&self) -> usize {
        self.spill.as_ref().map_or(0, |f| f.rows)
    }

    /// Flush the resident rows to the spill file (creating it on first
    /// use; when creation fails the arena silently stays resident).
    #[cold]
    fn flush_spill(&mut self) {
        if self.spill.is_none() {
            self.spill = SpillFile::create();
        }
        let Some(sp) = self.spill.as_mut() else {
            self.spill_limit = usize::MAX;
            return;
        };
        let off = (sp.rows * self.words * 8) as u64;
        let bytes: Vec<u8> = self.resident.iter().flat_map(|w| w.to_le_bytes()).collect();
        match sp.write_all_at(&bytes, off) {
            Ok(()) => {
                sp.rows += self.resident.len() / self.words;
                self.resident.clear();
            }
            Err(e) => {
                // Keep the unwritten rows resident, stop spilling, and
                // record the failure for the level-boundary drain.
                self.spill_limit = usize::MAX;
                let _ = self.poison.set(SpillIoError {
                    op: SpillOp::Write,
                    offset: off,
                    source: std::sync::Arc::new(e),
                });
            }
        }
    }

    /// The first spill I/O failure as a build error — the BFS drivers
    /// drain this at level boundaries (and once more after the loop).
    pub(super) fn take_poison(&self) -> Option<MarkingError> {
        self.poison.get().map(|p| MarkingError::SpillIo(p.clone()))
    }

    /// `f` applied to the words of row `s`: resident, or one record read
    /// back from the spill file (zero-filled, with the failure recorded,
    /// when that read fails).
    fn with_row<R>(&self, s: usize, f: impl FnOnce(&[u64]) -> R) -> R {
        let w = self.words;
        match &self.spill {
            Some(file) if s < file.rows => SPILL_SCRATCH.with(|c| {
                let (bytes, row) = &mut *c.borrow_mut();
                bytes.resize(w * 8, 0);
                row.resize(w, 0);
                let off = (s * w * 8) as u64;
                match file.read_exact_at(bytes, off) {
                    Ok(()) => {
                        for (word, le) in row.iter_mut().zip(bytes.as_chunks::<8>().0) {
                            *word = u64::from_le_bytes(*le);
                        }
                    }
                    Err(e) => {
                        let _ = self.poison.set(SpillIoError {
                            op: SpillOp::Read,
                            offset: off,
                            source: std::sync::Arc::new(e),
                        });
                        row.fill(0);
                    }
                }
                f(row)
            }),
            _ => f(&self.resident[(s - self.spilled_rows()) * w..][..w]),
        }
    }

    /// Decode marking `s` into `out` (exactly `width` bytes, one per
    /// place).
    pub(super) fn copy_to(&self, s: usize, out: &mut [u8]) {
        debug_assert_eq!(out.len(), self.width);
        self.with_row(s, |row| {
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
        });
    }

    /// Tokens per place of marking `s`.
    pub fn get(&self, s: usize) -> Vec<u8> {
        let mut m = vec![0; self.width];
        self.copy_to(s, &mut m);
        m
    }

    /// All markings in state order.
    pub fn iter(&self) -> impl Iterator<Item = Vec<u8>> + '_ {
        (0..self.len).map(move |s| self.get(s))
    }

    /// Tokens per place of marking `s`, decoded into `buf`.
    pub fn read_into<'a>(&'a self, s: usize, buf: &'a mut Vec<u8>) -> &'a [u8] {
        buf.resize(self.width, 0);
        self.copy_to(s, buf);
        buf
    }

    /// Does marking `s` equal `probe`?  (Read by the test oracle's orbit
    /// partition only.)
    #[cfg(test)]
    pub(crate) fn matches(&self, s: usize, probe: &[u8]) -> bool {
        self.get(s) == probe
    }

    /// Resident row bytes (the spilled rows are accounted by
    /// [`Self::spill_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        self.resident.len() * std::mem::size_of::<u64>()
    }

    /// Row bytes parked in the spill file
    /// ([`super::MarkingOptions::interner_spill`]); `0` when nothing
    /// spilled.
    pub fn spill_bytes(&self) -> usize {
        self.spilled_rows() * self.words * std::mem::size_of::<u64>()
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
    /// word boundaries, and byte rows with counts up to 255, resident or
    /// (`spilled`) at a spill limit that is not a multiple of a record
    /// (each flush writes whole records, so rows end up on both sides of
    /// the file/memory boundary).  Every accessor agrees with the pushed
    /// markings, a probe one place off never matches, and the arena holds
    /// exactly `len · words · 8` bytes across memory and file.
    fn assert_rows_roundtrip(spilled: bool) {
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
            let spill_limit = if spilled { 3 * record + 5 } else { usize::MAX };
            let at = format!("width {width} bits {bits} spill limit {spill_limit}");
            let mut store = MarkingStore::new(width, words, bits, spill_limit);
            for m in &markings {
                store.push(&pack(m, bits, words));
            }
            assert_eq!(store.len(), markings.len(), "{at}");
            assert_eq!(store.spill_bytes() > 0, spilled, "{at}");
            assert!(store.heap_bytes() > 0, "{at}");
            assert_eq!(
                store.heap_bytes() + store.spill_bytes(),
                markings.len() * record,
                "{at}"
            );
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
            assert!(store.take_poison().is_none(), "{at}");
        }
    }

    /// Resident fixed-width rows round-trip.
    #[test]
    fn marking_arena_roundtrip() {
        assert_rows_roundtrip(false);
    }

    /// Fixed-width rows split between the spill file and memory
    /// round-trip.
    #[test]
    fn spilled_arena_roundtrip() {
        assert_rows_roundtrip(true);
    }
}
