//! Marking storage of the BFS kernel: the append-only [`MarkingStore`]
//! (flat or delta-compressed, optionally spilled to an unlinked temp
//! file) and its read-only public face, [`MarkingStore`].

use super::{ArenaCompression, MarkingError, SpillIoError, SpillOp, ARENA_COMPRESS_THRESHOLD};

/// LEB128-encode `v` (7 payload bits per byte, high bit = continue).
#[inline]
fn push_varint(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

/// Encoded byte length of `v` under [`push_varint`].
#[inline]
fn varint_len(v: u32) -> usize {
    match v {
        0..=0x7f => 1,
        0x80..=0x3fff => 2,
        0x4000..=0x1f_ffff => 3,
        0x20_0000..=0xfff_ffff => 4,
        _ => 5,
    }
}

/// Decode one varint at `off`, returning `(value, next offset)`.
#[inline]
fn read_varint(buf: &[u8], mut off: usize) -> (u32, usize) {
    let mut v = 0u32;
    let mut shift = 0u32;
    loop {
        let b = buf[off];
        off += 1;
        v |= u32::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return (v, off);
        }
        shift += 7;
    }
}

/// `f(p, a[p])` for every position `p` where `a` and `b` (equal lengths)
/// differ, ascending.  A marking differs from its level base in a handful
/// of places, so rows are XORed eight bytes at a time and only the
/// non-zero words are looked into.
#[inline]
fn for_each_diff(a: &[u8], b: &[u8], mut f: impl FnMut(usize, u8)) {
    let ((a_words, a_tail), (b_words, b_tail)) = (a.as_chunks::<8>(), b.as_chunks::<8>());
    for (i, (x, y)) in a_words.iter().zip(b_words).enumerate() {
        let mut diff = u64::from_le_bytes(*x) ^ u64::from_le_bytes(*y);
        while diff != 0 {
            let k = diff.trailing_zeros() as usize / 8;
            f(i * 8 + k, x[k]);
            diff &= !(0xff << (k * 8));
        }
    }
    for (k, (x, y)) in a_tail.iter().zip(b_tail).enumerate() {
        if x != y {
            f(a_words.len() * 8 + k, *x);
        }
    }
}

/// The marking arena: append-only storage of fixed-width byte markings,
/// flat or **delta-compressed** — every marking a build interned, in
/// state order (read-only outside this module).
///
/// # Flat layout
///
/// Marking `s` is the `width`-byte slice at offset `s · width` of one
/// `Vec<u8>` — the historical layout, zero-cost to read.
///
/// # Delta layout
///
/// Markings of one BFS level differ in few places (each successor is its
/// parent ± the fired transition's places, and parents within a level are
/// themselves close), so each entry is encoded against a **base** marking
/// of its level:
///
/// * a base is stored verbatim: varint header `0`, then `width` bytes;
/// * any other entry stores header `ndiffs + 1` followed by `ndiffs`
///   `(varint position gap, new byte)` pairs against its base;
/// * an entry whose delta would not beat half the verbatim cost is itself
///   stored verbatim and **becomes the new base** — bases refresh as a
///   level drifts, bounding every entry below `1 + width/2` bytes plus
///   the 8-byte offset/base bookkeeping while keeping decode depth at
///   one (a delta never chains through another delta).
///
/// `begin_level` marks level boundaries (the next push starts a fresh
/// base); under [`ArenaCompression::Auto`] the arena
/// starts flat and converts in place when it crosses
/// [`ARENA_COMPRESS_THRESHOLD`] — base bookkeeping is maintained while
/// flat so the conversion re-encodes exactly what a compressed-from-birth
/// arena would hold.  Compression affects storage only: ids, push order
/// and every read are identical in all modes.
#[derive(Debug, Clone)]
pub struct MarkingStore {
    width: usize,
    len: usize,
    /// Verbatim payload (flat mode): marking `s` at `s · width`.
    flat: Vec<u8>,
    /// Encoded payload (compressed mode).
    enc: Vec<u8>,
    /// Start offset in `enc` of each entry (compressed mode).
    entry_ptr: Vec<u32>,
    /// Base state of each entry (maintained while flat too — unless the
    /// threshold is infinite — so a mid-build conversion knows every
    /// entry's level base).
    base_of: Vec<u32>,
    compressed: bool,
    /// Flat bytes above which the arena converts; `usize::MAX` = never.
    threshold: usize,
    /// Current base state (always stored verbatim).
    cur_base: u32,
    /// Set by [`Self::begin_level`]: the next push starts a new base.
    new_level: bool,
    /// Verbatim bytes of the current base (compressed mode): the delta
    /// coster/encoder reads the base from here instead of `enc`, so base
    /// bytes never have to be re-read from a spilled payload.
    base_cache: Vec<u8>,
    /// Resident payload bytes kept before flushing to the spill file;
    /// `usize::MAX` disables spilling (see
    /// [`super::MarkingOptions::interner_spill`]).
    spill_limit: usize,
    /// Lazily-created spill region (first flush).
    spill: Option<SpillFile>,
    /// First spill I/O failure.  The `&self` decode paths (`copy_to`,
    /// `matches`) are shared immutably by the parallel BFS workers and
    /// stay infallible: on a read error they record it
    /// here and return deterministic zero-filled bytes; the BFS drivers
    /// drain the slot at level boundaries into
    /// [`MarkingError::SpillIo`], discarding the garbage level.
    poison: std::sync::OnceLock<SpillIoError>,
}

/// Temp-file-backed spill region of one arena: the first `spilled` bytes
/// of the active payload (flat or delta-encoded, whichever layout is
/// live) sit in an **unlinked** temp file — space is reclaimed by the OS
/// when the last handle drops — and the payload `Vec` holds only the
/// tail.  Reads go through positioned I/O (`pread`), so the parallel
/// workers of a level can read spilled rows concurrently.  Clones
/// share the file; that is sound because graphs are only cloned after
/// their build finishes (the payload is append-only and frozen by then).
#[derive(Debug, Clone)]
struct SpillFile {
    file: std::sync::Arc<std::fs::File>,
    spilled: usize,
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
                spilled: 0,
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
    /// Scratch pair (entry bytes, base bytes) for reads that touch a
    /// spilled payload — per thread so the row reads of the parallel BFS
    /// workers stay allocation-free after warm-up.
    static SPILL_SCRATCH: std::cell::RefCell<(Vec<u8>, Vec<u8>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

impl MarkingStore {
    /// An empty arena with a resident-payload bound: once the active
    /// payload `Vec` reaches `spill_limit` bytes it is flushed to the
    /// spill file (`usize::MAX` = never).
    pub(super) fn with_spill(
        width: usize,
        compression: ArenaCompression,
        spill_limit: usize,
    ) -> Self {
        let (compressed, threshold) = match compression {
            ArenaCompression::Off => (false, usize::MAX),
            ArenaCompression::Auto => (false, ARENA_COMPRESS_THRESHOLD),
            ArenaCompression::On => (true, 0),
        };
        MarkingStore {
            width,
            len: 0,
            flat: Vec::new(),
            enc: Vec::new(),
            entry_ptr: Vec::new(),
            base_of: Vec::new(),
            compressed,
            threshold,
            cur_base: 0,
            new_level: false,
            base_cache: Vec::new(),
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

    /// `true` when markings are stored delta-compressed.
    pub fn is_compressed(&self) -> bool {
        self.compressed
    }

    /// Mark a BFS level boundary: the next pushed marking becomes the
    /// base its level's entries are encoded against.
    pub(super) fn begin_level(&mut self) {
        self.new_level = true;
    }

    /// Append a marking (its id is the current [`Self::len`]).
    pub(super) fn push(&mut self, m: &[u8]) {
        debug_assert_eq!(m.len(), self.width);
        let id = self.len;
        self.len = id + 1;
        if self.compressed {
            self.push_encoded(m, id);
        } else {
            if self.threshold != usize::MAX {
                let base = if self.new_level || id == 0 {
                    id as u32
                } else {
                    self.cur_base
                };
                self.new_level = false;
                self.cur_base = base;
                self.base_of.push(base);
            }
            self.flat.extend_from_slice(m);
            if self.flat.len() + self.spilled() > self.threshold {
                self.convert();
            }
        }
        if self.payload_vec().len() >= self.spill_limit {
            self.flush_spill();
        }
    }

    /// Encode one entry (compressed mode): delta against the current base
    /// when that wins, verbatim-as-new-base otherwise (see the type docs).
    /// The base bytes come from [`Self::base_cache`], so encoding never
    /// reads back through the (possibly spilled) payload.
    fn push_encoded(&mut self, m: &[u8], id: usize) {
        self.entry_ptr.push(self.payload_len() as u32);
        let start_base = self.new_level || id == 0;
        self.new_level = false;
        if !start_base {
            // Cost the delta first: gap varints plus one value byte each.
            let mut ndiffs = 0u32;
            let mut cost = 0usize;
            let mut prev = 0usize;
            for_each_diff(m, &self.base_cache, |p, _| {
                cost += varint_len((p - prev) as u32) + 1;
                prev = p;
                ndiffs += 1;
            });
            cost += varint_len(ndiffs + 1);
            if cost < 1 + self.width / 2 {
                self.base_of.push(self.cur_base);
                push_varint(&mut self.enc, ndiffs + 1);
                let mut prev = 0usize;
                let enc = &mut self.enc;
                for_each_diff(m, &self.base_cache, |p, v| {
                    push_varint(enc, (p - prev) as u32);
                    enc.push(v);
                    prev = p;
                });
                return;
            }
        }
        self.base_of.push(id as u32);
        self.cur_base = id as u32;
        self.enc.push(0);
        self.enc.extend_from_slice(m);
        self.base_cache.clear();
        self.base_cache.extend_from_slice(m);
    }

    /// Flat → delta conversion when [`ArenaCompression::Auto`] crosses
    /// the threshold: re-encode every stored marking against its recorded
    /// level base.  Storage-only — ids and reads are unaffected.  A
    /// spilled flat payload is read back first; the spill file is then
    /// reused from offset 0 for the encoded payload.
    #[cold]
    fn convert(&mut self) {
        let mut flat = std::mem::take(&mut self.flat);
        let mut read_err = None;
        if let Some(sp) = &mut self.spill {
            if sp.spilled > 0 {
                let mut full = vec![0u8; sp.spilled + flat.len()];
                let (head, tail) = full.split_at_mut(sp.spilled);
                if let Err(e) = sp.read_exact_at(head, 0) {
                    // Re-encode zeroes; the poison drain at the next
                    // level boundary discards everything anyway.
                    read_err = Some(e);
                }
                tail.copy_from_slice(&flat);
                flat = full;
                sp.spilled = 0;
            }
        }
        if let Some(e) = read_err {
            self.poison_read(0, e);
        }
        let bases = std::mem::take(&mut self.base_of);
        let w = self.width.max(1);
        self.compressed = true;
        self.enc = Vec::with_capacity(flat.len() / 4);
        self.entry_ptr = Vec::with_capacity(self.len);
        let pending_level = self.new_level;
        for (s, &b) in bases.iter().enumerate() {
            self.new_level = b as usize == s;
            self.push_encoded(&flat[s * w..(s + 1) * w], s);
        }
        self.new_level = pending_level;
    }

    /// Payload bytes already flushed to the spill file.
    #[inline]
    fn spilled(&self) -> usize {
        self.spill.as_ref().map_or(0, |s| s.spilled)
    }

    /// The in-memory tail of the active payload layout.
    #[inline]
    fn payload_vec(&self) -> &Vec<u8> {
        if self.compressed {
            &self.enc
        } else {
            &self.flat
        }
    }

    /// Total payload length, spilled prefix included.
    #[inline]
    fn payload_len(&self) -> usize {
        self.spilled() + self.payload_vec().len()
    }

    /// Flush the resident payload tail to the spill file (creating it on
    /// first use; when creation fails the arena silently stays resident).
    #[cold]
    fn flush_spill(&mut self) {
        if self.spill.is_none() {
            match SpillFile::create() {
                Some(f) => self.spill = Some(f),
                None => {
                    self.spill_limit = usize::MAX;
                    return;
                }
            }
        }
        let Some(sp) = self.spill.as_mut() else {
            return;
        };
        let buf = if self.compressed {
            &mut self.enc
        } else {
            &mut self.flat
        };
        let off = sp.spilled as u64;
        match sp.write_all_at(buf, off) {
            Ok(()) => {
                sp.spilled += buf.len();
                buf.clear();
            }
            Err(e) => {
                // Keep the unwritten tail resident, stop spilling, and
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

    /// Record a failed spill read observed through a `&self` decode
    /// path (first failure wins; see the `poison` field docs).
    #[cold]
    fn poison_read(&self, offset: u64, e: std::io::Error) {
        let _ = self.poison.set(SpillIoError {
            op: SpillOp::Read,
            offset,
            source: std::sync::Arc::new(e),
        });
    }

    /// `true` once any spill I/O on this arena has failed.
    #[inline]
    fn is_poisoned(&self) -> bool {
        self.poison.get().is_some()
    }

    /// The first spill I/O failure as a build error — the BFS drivers
    /// drain this at level boundaries (and once more after the loop).
    pub(super) fn take_poison(&self) -> Option<MarkingError> {
        self.poison.get().map(|p| MarkingError::SpillIo(p.clone()))
    }

    /// Read payload bytes `[off, off + out.len())` into `out`, straddling
    /// the spilled prefix and the resident tail as needed.
    fn payload_read_into(&self, off: usize, out: &mut [u8]) {
        let sp = self.spilled();
        let vec = self.payload_vec();
        if off >= sp {
            out.copy_from_slice(&vec[off - sp..off - sp + out.len()]);
            return;
        }
        let file_part = out.len().min(sp - off);
        match self.spill.as_ref() {
            Some(spill) => {
                if let Err(e) = spill.read_exact_at(&mut out[..file_part], off as u64) {
                    self.poison_read(off as u64, e);
                    out[..file_part].fill(0);
                }
            }
            // Unreachable (`spilled() > 0` implies a file); degrade to
            // zero-fill rather than panic under the no-expect policy.
            None => out[..file_part].fill(0),
        }
        if file_part < out.len() {
            let rest = out.len() - file_part;
            out[file_part..].copy_from_slice(&vec[..rest]);
        }
    }

    /// Byte range of compressed entry `s` (exclusive end): `entry_ptr`
    /// bounds it exactly, the last entry running to the payload end.
    #[inline]
    fn enc_entry_range(&self, s: usize) -> (usize, usize) {
        let off = self.entry_ptr[s] as usize;
        let end = self
            .entry_ptr
            .get(s + 1)
            .map_or_else(|| self.payload_len(), |&e| e as usize);
        (off, end)
    }

    /// Tokens per place of marking `s`, in flat mode.
    ///
    /// # Panics
    /// Panics once the store is compressed ([`Self::is_compressed`]) or
    /// spilled — use [`Self::read_into`] or [`Self::matches`] there.
    pub fn get(&self, s: usize) -> &[u8] {
        assert!(
            !self.compressed && self.spilled() == 0,
            "marking arena is delta-compressed or spilled; use read_into/matches"
        );
        &self.flat[s * self.width..(s + 1) * self.width]
    }

    /// Decode marking `s` into `out` (exactly `width` bytes).
    pub(super) fn copy_to(&self, s: usize, out: &mut [u8]) {
        debug_assert_eq!(out.len(), self.width);
        if self.spilled() > 0 {
            SPILL_SCRATCH.with(|c| {
                let mut scratch = c.borrow_mut();
                self.copy_to_spilled(s, out, &mut scratch.0);
            });
            return;
        }
        if !self.compressed {
            out.copy_from_slice(&self.flat[s * self.width..(s + 1) * self.width]);
            return;
        }
        let (h, mut off) = read_varint(&self.enc, self.entry_ptr[s] as usize);
        if h == 0 {
            out.copy_from_slice(&self.enc[off..off + self.width]);
            return;
        }
        let boff = self.entry_ptr[self.base_of[s] as usize] as usize + 1;
        out.copy_from_slice(&self.enc[boff..boff + self.width]);
        let mut pos = 0usize;
        for _ in 1..h {
            let (gap, next) = read_varint(&self.enc, off);
            pos += gap as usize;
            out[pos] = self.enc[next];
            off = next + 1;
        }
    }

    /// [`Self::copy_to`] when part of the payload lives in the spill
    /// file: entry bytes are materialized through `entry` scratch (the
    /// delta layout bounds every entry, so the read is one `pread` of at
    /// most `1 + width/2` + header bytes; flat entries read exactly
    /// `width`).
    fn copy_to_spilled(&self, s: usize, out: &mut [u8], entry: &mut Vec<u8>) {
        if !self.compressed {
            self.payload_read_into(s * self.width, out);
            return;
        }
        let (off, end) = self.enc_entry_range(s);
        entry.resize(end - off, 0);
        self.payload_read_into(off, entry);
        if self.is_poisoned() {
            // The entry bytes may be zero-filled garbage; emit a
            // deterministic zero marking until the level-boundary drain
            // aborts the build.
            out.fill(0);
            return;
        }
        let (h, mut eo) = read_varint(entry, 0);
        if h == 0 {
            out.copy_from_slice(&entry[eo..eo + self.width]);
            return;
        }
        // Base entries are verbatim: header byte `0`, then `width` bytes.
        let boff = self.entry_ptr[self.base_of[s] as usize] as usize + 1;
        self.payload_read_into(boff, out);
        let mut pos = 0usize;
        for _ in 1..h {
            let (gap, next) = read_varint(entry, eo);
            pos += gap as usize;
            out[pos] = entry[next];
            eo = next + 1;
        }
    }

    /// All markings in state order.
    ///
    /// # Panics
    /// As [`Self::get`] — iterate with [`Self::read_into`] there.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.len).map(move |s| self.get(s))
    }

    /// Tokens per place of marking `s`, decoded into `buf` when the
    /// store is compressed or spilled (zero-copy otherwise).
    pub fn read_into<'a>(&'a self, s: usize, buf: &'a mut Vec<u8>) -> &'a [u8] {
        buf.resize(self.width, 0);
        self.read_at(s, buf)
    }

    /// [`Self::read_into`] for a caller-sized buffer.
    pub(super) fn read_at<'a>(&'a self, s: usize, buf: &'a mut [u8]) -> &'a [u8] {
        if !self.compressed && self.spilled() == 0 {
            &self.flat[s * self.width..(s + 1) * self.width]
        } else {
            self.copy_to(s, buf);
            buf
        }
    }

    /// Does marking `s` equal `probe` (in either layout)?  Compressed
    /// entries compare without materializing: the base segments between
    /// diffs are compared directly.
    pub fn matches(&self, s: usize, probe: &[u8]) -> bool {
        debug_assert_eq!(probe.len(), self.width);
        if self.spilled() > 0 {
            return SPILL_SCRATCH.with(|c| {
                let mut scratch = c.borrow_mut();
                let (entry, base) = &mut *scratch;
                self.matches_spilled(s, probe, entry, base)
            });
        }
        if !self.compressed {
            return &self.flat[s * self.width..(s + 1) * self.width] == probe;
        }
        let (h, mut off) = read_varint(&self.enc, self.entry_ptr[s] as usize);
        if h == 0 {
            return &self.enc[off..off + self.width] == probe;
        }
        let boff = self.entry_ptr[self.base_of[s] as usize] as usize + 1;
        let base = &self.enc[boff..boff + self.width];
        let mut pos = 0usize;
        let mut seg = 0usize;
        for _ in 1..h {
            let (gap, next) = read_varint(&self.enc, off);
            pos += gap as usize;
            if probe[seg..pos] != base[seg..pos] || probe[pos] != self.enc[next] {
                return false;
            }
            seg = pos + 1;
            off = next + 1;
        }
        probe[seg..] == base[seg..]
    }

    /// [`Self::matches`] when part of the payload lives in the spill
    /// file — same comparison, entry and base bytes materialized through
    /// the per-thread scratch.
    fn matches_spilled(
        &self,
        s: usize,
        probe: &[u8],
        entry: &mut Vec<u8>,
        base: &mut Vec<u8>,
    ) -> bool {
        if !self.compressed {
            entry.resize(self.width, 0);
            self.payload_read_into(s * self.width, entry);
            return &entry[..] == probe;
        }
        let (off, end) = self.enc_entry_range(s);
        entry.resize(end - off, 0);
        self.payload_read_into(off, entry);
        if self.is_poisoned() {
            // Deterministic miss; the duplicate it may cause is
            // discarded with the rest of the level at the drain.
            return false;
        }
        let (h, mut eo) = read_varint(entry, 0);
        if h == 0 {
            return &entry[eo..eo + self.width] == probe;
        }
        let boff = self.entry_ptr[self.base_of[s] as usize] as usize + 1;
        base.resize(self.width, 0);
        self.payload_read_into(boff, base);
        let mut pos = 0usize;
        let mut seg = 0usize;
        for _ in 1..h {
            let (gap, next) = read_varint(entry, eo);
            pos += gap as usize;
            if probe[seg..pos] != base[seg..pos] || probe[pos] != entry[next] {
                return false;
            }
            seg = pos + 1;
            eo = next + 1;
        }
        probe[seg..] == base[seg..]
    }

    /// Resident payload bytes (either layout, including the compressed
    /// layout's per-entry offset/base bookkeeping; the spilled prefix is
    /// accounted by [`Self::spill_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        self.flat.len()
            + self.enc.len()
            + self.entry_ptr.len() * std::mem::size_of::<u32>()
            + self.base_of.len() * std::mem::size_of::<u32>()
    }

    /// Payload bytes parked in the spill file
    /// ([`super::MarkingOptions::interner_spill`]); `0` when nothing
    /// spilled.
    pub fn spill_bytes(&self) -> usize {
        self.spilled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tests' deterministic generator.
    fn xorshift(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    /// Push deterministic pseudo-random markings with level structure
    /// (xorshift from `seed`, level bases drifting by `drift`) into an
    /// arena of every compression mode with the given resident bound, and
    /// read each back through every accessor.
    fn roundtrip(seed: u64, drift: usize, spill_limit: usize) {
        let width = 24usize;
        let mut step = xorshift(seed);
        let mut markings: Vec<Vec<u8>> = Vec::new();
        let mut level_starts = vec![0usize];
        let mut base = vec![0u8; width];
        for level in 0..6 {
            for (p, b) in base.iter_mut().enumerate() {
                *b = ((level * drift + p) % 3) as u8;
            }
            let n = 1 + (step() % 40) as usize;
            for _ in 0..n {
                let mut m = base.clone();
                // A few random place edits — the within-level delta.
                for _ in 0..(step() % 5) {
                    let p = (step() as usize) % width;
                    m[p] = (step() % 4) as u8;
                }
                if !markings.contains(&m) {
                    markings.push(m);
                }
            }
            level_starts.push(markings.len());
        }

        for compression in [
            ArenaCompression::Off,
            ArenaCompression::On,
            ArenaCompression::Auto,
        ] {
            let mut arena = MarkingStore::with_spill(width, compression, spill_limit);
            // Force the Auto conversion mid-build by shrinking the
            // threshold below the total payload.
            if compression == ArenaCompression::Auto {
                arena.threshold = markings.len() * width / 2;
            }
            let mut next_level = 0usize;
            for (s, m) in markings.iter().enumerate() {
                if level_starts[next_level] == s {
                    arena.begin_level();
                    next_level += 1;
                }
                arena.push(m);
            }
            assert_eq!(arena.len(), markings.len());
            assert_eq!(
                arena.is_compressed(),
                compression != ArenaCompression::Off,
                "{compression:?}"
            );
            assert_eq!(
                arena.spill_bytes() > 0,
                spill_limit != usize::MAX,
                "{compression:?}"
            );
            let mut buf = vec![0u8; width];
            for (s, m) in markings.iter().enumerate() {
                arena.copy_to(s, &mut buf);
                assert_eq!(&buf, m, "{compression:?} state {s}");
                assert_eq!(arena.read_at(s, &mut buf), &m[..]);
                assert!(arena.matches(s, m), "{compression:?} state {s}");
                // A probe differing in one byte must not match.
                let mut probe = m.clone();
                probe[s % width] ^= 0x40;
                assert!(!arena.matches(s, &probe), "{compression:?} state {s}");
            }
        }
    }

    /// The word-wise differ visits exactly what a byte-by-byte walk does,
    /// in the same order — on rows shorter than, equal to and straddling
    /// the eight-byte words, differing nowhere, sparsely and everywhere.
    #[test]
    fn word_diff_agrees_with_byte_diff() {
        let mut step = xorshift(0x853c49e6748fea9b);
        for width in [1usize, 7, 8, 9, 63, 64, 65, 120, 168] {
            for density in [0u64, 1, 8, 64] {
                let base: Vec<u8> = (0..width).map(|_| (step() % 3) as u8).collect();
                let mut m = base.clone();
                for v in &mut m {
                    if step() % 64 < density {
                        *v = (step() % 256) as u8;
                    }
                }
                let bytewise: Vec<(usize, u8)> = (0..width)
                    .filter(|&p| m[p] != base[p])
                    .map(|p| (p, m[p]))
                    .collect();
                let mut wordwise = Vec::new();
                for_each_diff(&m, &base, |p, v| wordwise.push((p, v)));
                assert_eq!(wordwise, bytewise, "width {width} density {density}/64");
            }
        }
    }

    /// Delta-arena roundtrip: every pushed marking reads back exactly,
    /// `matches` agrees with equality, and the Auto conversion mid-build
    /// changes nothing a reader can observe.
    #[test]
    fn marking_arena_roundtrip() {
        roundtrip(0x9e3779b97f4a7c15, 7, usize::MAX);
    }

    /// Spilled-arena roundtrip: with the resident bound forced tiny,
    /// every pushed marking still reads back exactly, `matches` agrees
    /// with equality, and the payload really does
    /// land in the spill file — in every compression mode, including an
    /// Auto conversion that has to read its flat payload back from disk.
    #[test]
    fn spilled_arena_roundtrip() {
        // A ~3-marking resident bound forces many flush cycles, and
        // entries straddle the file/memory boundary mid-marking.
        roundtrip(0x2545f4914f6cdd1d, 5, 24 * 3 + 1);
    }
}
