//! HILTI's `bytes` type: an appendable, freezable byte string with
//! position-stable iterators (§3.2 "Rich Data Types").
//!
//! `bytes` is the input type of every HILTI-based parser. Its distinguishing
//! feature is *incremental* growth: a host application appends chunks of
//! payload as they arrive on the wire, and parsing code holds iterators into
//! the string that remain valid across appends. Reading past the currently
//! available data yields [`RtError::would_block`] while the string is still
//! open — which is the signal that makes a BinPAC++ parser suspend its fiber
//! — and `Hilti::IndexError` once the string has been frozen (no more data
//! will ever arrive).
//!
//! Iterators address *logical* offsets from the beginning of the stream, so
//! they stay meaningful even after `trim()` has released already-parsed data,
//! which is what bounds parser memory on long-lived connections.
//!
//! # Chunked, arena-borrowing representation
//!
//! Internally the string is a list of contiguous *chunks*. A chunk either
//! owns its bytes (`Vec<u8>`, the classic path) or *borrows* them from a
//! [`SharedArena`] — a reference-counted backing store such as the packet
//! trace buffer. [`Bytes::append_shared`] records an `(arena, off, len)`
//! slice without copying, so the hot delivery path from capture to parse
//! performs zero payload memcpys; [`Bytes::trim`] drops whole chunks (and
//! narrows a partially-consumed one) as parsing advances. All read paths
//! operate on logical offsets and behave identically regardless of how the
//! bytes are chunked; operations that need a contiguous view of data that
//! straddles a chunk boundary (regexp matching, `find`) coalesce the
//! retained region into a single owned chunk first — a one-time internal
//! copy that only happens when a value genuinely spans deliveries.
//!
//! Budget accounting is *logical*: an attached [`AllocBudget`] is charged
//! for appended bytes whether they are owned or borrowed (a borrowed chunk
//! pins its arena, so the flow is accountable for the bytes either way),
//! and credited on trim and drop. This keeps charge/credit pairing exact —
//! a torn-down flow returns precisely what it charged — and makes governed
//! behavior independent of the physical representation.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use crate::error::{RtError, RtResult};
use crate::limits::AllocBudget;

/// A shared, immutable backing store that [`Bytes`] chunks can borrow from.
///
/// Any `Arc` of a byte-slice-like value coerces: `Arc<Vec<u8>>`, an
/// `Arc`-ed trace buffer, a memory-mapped file wrapper. The arena must not
/// change the bytes a live slice refers to.
pub type SharedArena = Arc<dyn AsRef<[u8]> + Send + Sync>;

/// A checked `(arena, offset, len)` window into a [`SharedArena`].
///
/// Holding an `ArenaSlice` keeps the arena alive; the slice itself is
/// immutable (narrowing happens only through [`Bytes::trim`]).
#[derive(Clone)]
pub struct ArenaSlice {
    arena: SharedArena,
    off: usize,
    len: usize,
}

impl ArenaSlice {
    /// Creates a slice over `arena[off..off+len]`.
    ///
    /// # Panics
    /// If the range is out of the arena's bounds — slices are constructed
    /// by hosts from trusted frame metadata, so a violation is a host bug,
    /// not hostile input.
    pub fn new(arena: SharedArena, off: usize, len: usize) -> ArenaSlice {
        let total = (*arena).as_ref().len();
        assert!(
            off.checked_add(len).is_some_and(|end| end <= total),
            "arena slice {off}+{len} out of bounds (arena holds {total} bytes)"
        );
        ArenaSlice { arena, off, len }
    }

    /// The borrowed bytes.
    pub fn as_slice(&self) -> &[u8] {
        &(*self.arena).as_ref()[self.off..self.off + self.len]
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The window `[from, to)` of this slice, over the same arena.
    fn sub(&self, from: usize, to: usize) -> ArenaSlice {
        debug_assert!(from <= to && to <= self.len);
        ArenaSlice::new(Arc::clone(&self.arena), self.off + from, to - from)
    }

    /// Narrows the slice from the front (trim support).
    fn advance(&mut self, n: usize) {
        debug_assert!(n <= self.len);
        self.off += n;
        self.len -= n;
    }
}

impl fmt::Debug for ArenaSlice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ArenaSlice {{ off: {}, len: {} }}", self.off, self.len)
    }
}

/// One delivery's worth of payload on its way into a parser: either a
/// transient slice that must be copied to outlive the call, or an arena
/// slice the parser's [`Bytes`] can hold on to without copying.
///
/// This is the boundary type pipelines hand to the binpac feed path; it lets
/// a single feed API serve both the zero-copy arena case and reassembled
/// (owned) segments.
#[derive(Debug)]
pub enum FeedChunk<'a> {
    /// Bytes that only live for the duration of the call; appending copies.
    Copy(&'a [u8]),
    /// Bytes backed by a shared arena; appending borrows.
    Borrow(ArenaSlice),
}

impl FeedChunk<'_> {
    pub fn len(&self) -> usize {
        match self {
            FeedChunk::Copy(s) => s.len(),
            FeedChunk::Borrow(a) => a.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Physical storage of one chunk.
#[derive(Debug)]
enum ChunkData {
    Owned(Vec<u8>),
    Borrowed(ArenaSlice),
}

/// A contiguous run of the string: bytes for logical offsets
/// `[start, start + len)`.
#[derive(Debug)]
struct Chunk {
    start: u64,
    data: ChunkData,
}

impl Chunk {
    fn len(&self) -> usize {
        match &self.data {
            ChunkData::Owned(v) => v.len(),
            ChunkData::Borrowed(s) => s.len(),
        }
    }

    fn as_slice(&self) -> &[u8] {
        match &self.data {
            ChunkData::Owned(v) => v,
            ChunkData::Borrowed(s) => s.as_slice(),
        }
    }

    /// Logical offset one past this chunk's last byte.
    fn end(&self) -> u64 {
        self.start + self.len() as u64
    }
}

#[derive(Debug)]
struct Inner {
    /// Contiguous chunks covering logical offsets `[base, end)`; never
    /// empty chunks, `chunks[0].start == base`, each chunk starts where
    /// the previous one ends.
    chunks: Vec<Chunk>,
    /// Logical offset of the first retained byte.
    base: u64,
    /// Logical offset one past the last available byte (the frontier).
    end: u64,
    /// Once frozen, no further appends; reads past the end raise IndexError
    /// instead of WouldBlock.
    frozen: bool,
    /// Optional shared byte budget: appends charge it (owned and borrowed
    /// alike — logical accounting), trims credit it, and dropping the
    /// string credits the retained bytes back — so a torn-down flow
    /// returns exactly what it charged.
    budget: Option<AllocBudget>,
}

impl Inner {
    /// Retained length in bytes.
    fn len(&self) -> usize {
        (self.end - self.base) as usize
    }

    /// Index of the chunk containing `offset`; requires
    /// `base <= offset < end`.
    fn chunk_containing(&self, offset: u64) -> usize {
        debug_assert!(offset >= self.base && offset < self.end);
        self.chunks.partition_point(|c| c.end() <= offset)
    }

    /// Byte at a logical offset; requires `base <= offset < end`.
    fn byte_at(&self, offset: u64) -> u8 {
        let c = &self.chunks[self.chunk_containing(offset)];
        c.as_slice()[(offset - c.start) as usize]
    }

    /// Whether `[from, to)` can be read: a well-formed range inside the
    /// retained, available data. Past the frontier is WouldBlock while the
    /// string is open and IndexError once frozen.
    fn check_range(&self, from: u64, to: u64) -> RtResult<()> {
        if to < from {
            return Err(RtError::value(format!("bad range {from}..{to}")));
        }
        if from < self.base {
            return Err(RtError::index("range begins before trimmed base"));
        }
        if to > self.end {
            return if self.frozen {
                Err(RtError::index("range extends past frozen end"))
            } else {
                Err(RtError::would_block())
            };
        }
        Ok(())
    }

    /// Why the byte at `offset` cannot be read: it was trimmed, or it lies
    /// past the frontier (WouldBlock while open, IndexError once frozen).
    fn unavailable(&self, offset: u64) -> RtError {
        if offset < self.base {
            RtError::index(format!("offset {offset} before trimmed base {}", self.base))
        } else if self.frozen {
            RtError::index(format!("offset {offset} past frozen end {}", self.end))
        } else {
            RtError::would_block()
        }
    }

    /// The bytes of a range [`Inner::check_range`] accepted, concatenated.
    fn copy_range(&self, from: u64, to: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity((to - from) as usize);
        if to > from {
            let mut i = self.chunk_containing(from);
            let mut pos = from;
            while pos < to {
                let c = &self.chunks[i];
                let s = c.as_slice();
                let a = (pos - c.start) as usize;
                let b = (((to - c.start) as usize).min(s.len())).max(a);
                out.extend_from_slice(&s[a..b]);
                pos = c.start + b as u64;
                i += 1;
            }
        }
        out
    }

    /// All retained bytes, concatenated.
    fn flatten_to_vec(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.len());
        for c in &self.chunks {
            v.extend_from_slice(c.as_slice());
        }
        v
    }

    /// Collapses the retained region into a single owned chunk, so callers
    /// that need a contiguous `&[u8]` across chunk boundaries can have one.
    /// Logical content, offsets, and budget accounting are unchanged.
    fn make_contiguous(&mut self) {
        if self.chunks.len() <= 1 {
            return;
        }
        let v = self.flatten_to_vec();
        let start = self.base;
        self.chunks.clear();
        self.chunks.push(Chunk {
            start,
            data: ChunkData::Owned(v),
        });
    }

    /// Appends owned bytes, extending the tail chunk when possible so that
    /// byte-at-a-time feeds don't degenerate into one chunk per byte.
    fn push_owned(&mut self, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        match self.chunks.last_mut() {
            Some(Chunk {
                data: ChunkData::Owned(v),
                ..
            }) => v.extend_from_slice(data),
            _ => self.chunks.push(Chunk {
                start: self.end,
                data: ChunkData::Owned(data.to_vec()),
            }),
        }
        self.end += data.len() as u64;
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        if let Some(b) = &self.budget {
            b.credit(self.end - self.base);
        }
    }
}

/// An appendable, freezable byte string with stable logical offsets.
///
/// Cloning a `Bytes` yields a second handle to the *same* underlying string
/// (reference semantics, like HILTI's `ref<bytes>`). Use [`Bytes::deep_copy`]
/// for value-semantics copies, e.g. when sending across a channel.
#[derive(Clone)]
pub struct Bytes {
    inner: Rc<RefCell<Inner>>,
}

/// A position within a [`Bytes`] string: the logical offset plus a handle to
/// the string, so iterators survive appends and trims.
#[derive(Clone)]
pub struct BytesIter {
    bytes: Bytes,
    offset: u64,
}

impl Bytes {
    /// Creates an empty, open (appendable) byte string.
    pub fn new() -> Self {
        Bytes {
            inner: Rc::new(RefCell::new(Inner {
                chunks: Vec::new(),
                base: 0,
                end: 0,
                frozen: false,
                budget: None,
            })),
        }
    }

    /// Creates a byte string from existing data, still open for appends.
    pub fn from_slice(data: &[u8]) -> Self {
        let b = Bytes::new();
        b.append(data).expect("fresh Bytes cannot be frozen");
        b
    }

    /// Creates a frozen byte string from existing data (a complete PDU).
    pub fn frozen_from_slice(data: &[u8]) -> Self {
        let b = Bytes::from_slice(data);
        b.freeze();
        b
    }

    /// Creates an open byte string whose first chunk borrows from a shared
    /// arena (no copy).
    pub fn from_arena(slice: ArenaSlice) -> Self {
        let b = Bytes::new();
        b.append_shared(slice)
            .expect("fresh Bytes cannot be frozen");
        b
    }

    /// Creates a frozen byte string borrowing a complete PDU from a shared
    /// arena — the zero-copy datagram path.
    pub fn frozen_from_arena(slice: ArenaSlice) -> Self {
        let b = Bytes::from_arena(slice);
        b.freeze();
        b
    }

    /// Appends a chunk of data. Fails if the string has been frozen, or if
    /// an attached budget cannot cover the growth (the string is unchanged
    /// in that case, so a caught `Hilti::ResourceExhausted` leaves it
    /// consistent).
    pub fn append(&self, data: &[u8]) -> RtResult<()> {
        let mut inner = self.inner.borrow_mut();
        if inner.frozen {
            return Err(RtError::frozen("append to frozen bytes"));
        }
        if let Some(b) = &inner.budget {
            b.charge(data.len() as u64)?;
        }
        inner.push_owned(data);
        Ok(())
    }

    /// Appends bytes *borrowed* from a shared arena, without copying. Same
    /// freeze and budget semantics as [`Bytes::append`]: the budget is
    /// charged for the logical length (the chunk pins its arena, so the
    /// flow is accountable for those bytes either way).
    pub fn append_shared(&self, slice: ArenaSlice) -> RtResult<()> {
        let mut inner = self.inner.borrow_mut();
        if inner.frozen {
            return Err(RtError::frozen("append to frozen bytes"));
        }
        if let Some(b) = &inner.budget {
            b.charge(slice.len() as u64)?;
        }
        if slice.is_empty() {
            return Ok(());
        }
        let start = inner.end;
        inner.end += slice.len() as u64;
        inner.chunks.push(Chunk {
            start,
            data: ChunkData::Borrowed(slice),
        });
        Ok(())
    }

    /// Appends one delivery, copying or borrowing per the chunk kind.
    pub fn append_chunk(&self, chunk: FeedChunk<'_>) -> RtResult<()> {
        match chunk {
            FeedChunk::Copy(s) => self.append(s),
            FeedChunk::Borrow(a) => self.append_shared(a),
        }
    }

    /// Number of storage chunks currently backing the string (diagnostic;
    /// 0 or 1 means the data is already contiguous).
    pub fn chunk_count(&self) -> usize {
        self.inner.borrow().chunks.len()
    }

    /// Bytes currently backed by borrowed arena chunks (diagnostic).
    pub fn borrowed_len(&self) -> usize {
        self.inner
            .borrow()
            .chunks
            .iter()
            .filter(|c| matches!(c.data, ChunkData::Borrowed(_)))
            .map(Chunk::len)
            .sum()
    }

    /// Attaches a shared byte budget. The bytes already retained are
    /// charged (without enforcement) so accounting stays consistent.
    pub fn set_budget(&self, budget: AllocBudget) {
        let mut inner = self.inner.borrow_mut();
        let retained = inner.end - inner.base;
        if let Some(old) = inner.budget.take() {
            old.credit(retained);
        }
        budget.charge_unchecked(retained);
        inner.budget = Some(budget);
    }

    /// The attached budget, if any.
    pub fn budget(&self) -> Option<AllocBudget> {
        self.inner.borrow().budget.clone()
    }

    /// Marks the string complete: no further data will arrive.
    pub fn freeze(&self) {
        self.inner.borrow_mut().frozen = true;
    }

    /// Reopens a frozen string (used by tests and by hosts that recycle
    /// buffers; HILTI exposes this as `bytes.unfreeze`).
    pub fn unfreeze(&self) {
        self.inner.borrow_mut().frozen = false;
    }

    pub fn is_frozen(&self) -> bool {
        self.inner.borrow().frozen
    }

    /// Number of bytes currently available (excluding trimmed data).
    pub fn len(&self) -> usize {
        self.inner.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical offset one past the last available byte.
    pub fn end_offset(&self) -> u64 {
        self.inner.borrow().end
    }

    /// Logical offset of the first retained byte.
    pub fn begin_offset(&self) -> u64 {
        self.inner.borrow().base
    }

    /// Iterator at the first retained byte.
    pub fn begin(&self) -> BytesIter {
        BytesIter {
            bytes: self.clone(),
            offset: self.begin_offset(),
        }
    }

    /// Iterator one past the currently available data. Note that for an
    /// open string this position *moves* as data is appended; HILTI parsing
    /// code treats it as "the frontier", not a fixed end.
    pub fn end(&self) -> BytesIter {
        BytesIter {
            bytes: self.clone(),
            offset: self.end_offset(),
        }
    }

    /// Iterator at an absolute logical offset (no bounds check; checking
    /// happens on dereference, as HILTI's iterator semantics prescribe).
    pub fn iter_at(&self, offset: u64) -> BytesIter {
        BytesIter {
            bytes: self.clone(),
            offset,
        }
    }

    /// Reads one byte at a logical offset.
    pub fn at(&self, offset: u64) -> RtResult<u8> {
        let inner = self.inner.borrow();
        if offset < inner.base || offset >= inner.end {
            return Err(inner.unavailable(offset));
        }
        Ok(inner.byte_at(offset))
    }

    /// Fills `out` with the bytes from `offset` on: what that many [`at`]
    /// calls in a row read, raising what the first of them to miss would.
    ///
    /// [`at`]: Bytes::at
    pub fn read_into(&self, offset: u64, out: &mut [u8]) -> RtResult<()> {
        let inner = self.inner.borrow();
        let to = offset.saturating_add(out.len() as u64);
        if out.is_empty() {
            return Ok(());
        }
        if offset < inner.base || to > inner.end {
            let first_missing = if offset < inner.base {
                offset
            } else {
                offset.max(inner.end)
            };
            return Err(inner.unavailable(first_missing));
        }
        let mut i = inner.chunk_containing(offset);
        let (mut pos, mut done) = (offset, 0);
        while done < out.len() {
            let c = &inner.chunks[i];
            let s = &c.as_slice()[(pos - c.start) as usize..];
            let n = s.len().min(out.len() - done);
            out[done..done + n].copy_from_slice(&s[..n]);
            (done, pos, i) = (done + n, pos + n as u64, i + 1);
        }
        Ok(())
    }

    /// Copies out `[from, to)` as a `Vec<u8>`. All requested data must be
    /// available; otherwise WouldBlock/IndexError as for [`Bytes::at`].
    pub fn extract(&self, from: u64, to: u64) -> RtResult<Vec<u8>> {
        let inner = self.inner.borrow();
        inner.check_range(from, to)?;
        Ok(inner.copy_range(from, to))
    }

    /// `[from, to)` as a frozen byte string of its own (offsets from 0) —
    /// what a parser stores for a field. A range inside one arena-borrowed
    /// chunk shares the arena instead of copying; anything else is copied
    /// once. Availability is checked as for [`Bytes::extract`].
    pub fn sub(&self, from: u64, to: u64) -> RtResult<Bytes> {
        let inner = self.inner.borrow();
        inner.check_range(from, to)?;
        let data = if from == to {
            None
        } else {
            let c = &inner.chunks[inner.chunk_containing(from)];
            match &c.data {
                ChunkData::Borrowed(s) if to <= c.end() => Some(ChunkData::Borrowed(
                    s.sub((from - c.start) as usize, (to - c.start) as usize),
                )),
                _ => Some(ChunkData::Owned(inner.copy_range(from, to))),
            }
        };
        Ok(Bytes {
            inner: Rc::new(RefCell::new(Inner {
                chunks: data
                    .map(|data| vec![Chunk { start: 0, data }])
                    .unwrap_or_default(),
                base: 0,
                end: to - from,
                frozen: true,
                budget: None,
            })),
        })
    }

    /// Calls `f` with the bytes of `[from, to)`, availability checked as for
    /// [`Bytes::extract`]: borrowed in place when the range lies in one
    /// chunk, copied once when it straddles two. Decoding a field this way
    /// builds no [`Bytes`] of its own, as [`Bytes::sub`] does.
    pub fn with_range<R>(&self, from: u64, to: u64, f: impl FnOnce(&[u8]) -> R) -> RtResult<R> {
        let inner = self.inner.borrow();
        inner.check_range(from, to)?;
        if from == to {
            return Ok(f(&[]));
        }
        let c = &inner.chunks[inner.chunk_containing(from)];
        if to <= c.end() {
            Ok(f(
                &c.as_slice()[(from - c.start) as usize..(to - c.start) as usize]
            ))
        } else {
            Ok(f(&inner.copy_range(from, to)))
        }
    }

    /// Calls `f` with the contiguous slice of available data starting at
    /// `from` (empty if `from` is at/past the frontier). This is the
    /// zero-copy path used by the regexp engine and unpack primitives.
    /// When the available data straddles a chunk boundary it is coalesced
    /// into one owned chunk first (a one-time internal copy).
    pub fn with_available<R>(&self, from: u64, f: impl FnOnce(&[u8]) -> R) -> RtResult<R> {
        let mut inner = self.inner.borrow_mut();
        if from < inner.base {
            return Err(RtError::index("offset before trimmed base"));
        }
        let from = from.min(inner.end);
        if from == inner.end {
            return Ok(f(&[]));
        }
        if inner.chunk_containing(from) + 1 != inner.chunks.len() {
            inner.make_contiguous();
        }
        let c = inner.chunks.last().expect("nonempty retained region");
        let rel = (from - c.start) as usize;
        Ok(f(&c.as_slice()[rel..]))
    }

    /// Releases all data before `offset`, keeping logical offsets stable.
    /// Iterators pointing before `offset` become invalid (dereferencing
    /// them raises `Hilti::IndexError`). Whole chunks before the cut are
    /// dropped (releasing their arena pins); a partially-consumed chunk is
    /// narrowed in place.
    pub fn trim(&self, offset: u64) -> RtResult<()> {
        let mut inner = self.inner.borrow_mut();
        if offset <= inner.base {
            return Ok(());
        }
        if offset > inner.end {
            return Err(RtError::index("trim past end of data"));
        }
        let n = offset - inner.base;
        let whole = inner.chunks.partition_point(|c| c.end() <= offset);
        inner.chunks.drain(..whole);
        if let Some(first) = inner.chunks.first_mut() {
            if offset > first.start {
                let k = (offset - first.start) as usize;
                match &mut first.data {
                    ChunkData::Owned(v) => {
                        v.drain(..k);
                    }
                    ChunkData::Borrowed(s) => s.advance(k),
                }
                first.start = offset;
            }
        }
        inner.base = offset;
        if let Some(b) = &inner.budget {
            b.credit(n);
        }
        Ok(())
    }

    /// Finds the first occurrence of `needle` at or after `from`, returning
    /// the logical offset of its first byte. `Ok(None)` means "not found in
    /// the frozen remainder"; WouldBlock means "not found *yet*" (an open
    /// string where a later append could still complete a match).
    pub fn find(&self, from: u64, needle: &[u8]) -> RtResult<Option<u64>> {
        if needle.is_empty() {
            return Ok(Some(from));
        }
        let mut inner = self.inner.borrow_mut();
        if from < inner.base {
            return Err(RtError::index("search start before trimmed base"));
        }
        let from_c = from.min(inner.end);
        if from_c < inner.end {
            if inner.chunk_containing(from_c) + 1 != inner.chunks.len() {
                inner.make_contiguous();
            }
            let c = inner.chunks.last().expect("nonempty retained region");
            let rel = (from_c - c.start) as usize;
            let hay = &c.as_slice()[rel..];
            if let Some(pos) = hay.windows(needle.len()).position(|w| w == needle) {
                return Ok(Some(from_c + pos as u64));
            }
        }
        if inner.frozen {
            Ok(None)
        } else {
            Err(RtError::would_block())
        }
    }

    /// Full contents currently retained, as a fresh vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.inner.borrow().flatten_to_vec()
    }

    /// A value-semantics copy (used when crossing thread boundaries). The
    /// copy is flattened into one owned chunk. If the source has a budget
    /// attached, the copy shares it and is charged for its own retained
    /// bytes — two live copies of a governed flow's data cost the pool
    /// twice, and each credits its share back when dropped.
    pub fn deep_copy(&self) -> Bytes {
        let inner = self.inner.borrow();
        let b = Bytes::new();
        {
            let mut bi = b.inner.borrow_mut();
            let data = inner.flatten_to_vec();
            bi.base = inner.base;
            bi.end = inner.end;
            bi.frozen = inner.frozen;
            if !data.is_empty() {
                bi.chunks.push(Chunk {
                    start: inner.base,
                    data: ChunkData::Owned(data),
                });
            }
            if let Some(budget) = &inner.budget {
                budget.charge_unchecked(inner.end - inner.base);
                bi.budget = Some(budget.clone());
            }
        }
        b
    }

    /// A frozen copy of the retained content in one owned chunk, at offset
    /// 0 and with no budget: how a container keeps a `bytes` key, and how
    /// it hands one back out, so no caller holds the container's own.
    pub fn frozen_copy(&self) -> Bytes {
        let data = self.to_vec();
        let b = Bytes::new();
        {
            let mut i = b.inner.borrow_mut();
            (i.end, i.frozen) = (data.len() as u64, true);
            if !data.is_empty() {
                i.chunks.push(Chunk {
                    start: 0,
                    data: ChunkData::Owned(data),
                });
            }
        }
        b
    }

    /// Identity comparison: do two handles refer to the same string?
    pub fn same(&self, other: &Bytes) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

/// Streaming content comparison across two (differently) chunked strings.
fn content_eq(x: &Inner, y: &Inner) -> bool {
    if x.len() != y.len() {
        return false;
    }
    let mut xs = x.chunks.iter().map(Chunk::as_slice);
    let mut ys = y.chunks.iter().map(Chunk::as_slice);
    let (mut a, mut b): (&[u8], &[u8]) = (&[], &[]);
    loop {
        if a.is_empty() {
            a = match xs.next() {
                Some(s) => s,
                None => return true, // equal lengths: y is exhausted too
            };
        }
        if b.is_empty() {
            b = match ys.next() {
                Some(s) => s,
                None => return true,
            };
        }
        let n = a.len().min(b.len());
        if a[..n] != b[..n] {
            return false;
        }
        a = &a[n..];
        b = &b[n..];
    }
}

impl PartialEq for Bytes {
    /// Content equality over the retained data, like HILTI's `bytes` equal.
    /// Chunk layout is irrelevant: a borrowed-chunk string equals an owned
    /// flat string with the same logical content.
    fn eq(&self, other: &Self) -> bool {
        self.same(other) || content_eq(&self.inner.borrow(), &other.inner.borrow())
    }
}

impl Eq for Bytes {}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        let total = inner.len();
        write!(f, "b\"")?;
        let mut shown = 0usize;
        'outer: for c in &inner.chunks {
            for &b in c.as_slice() {
                if shown == 64 {
                    break 'outer;
                }
                if (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\' {
                    write!(f, "{}", b as char)?;
                } else {
                    write!(f, "\\x{b:02x}")?;
                }
                shown += 1;
            }
        }
        if total > 64 {
            write!(f, "...({total} bytes)")?;
        }
        write!(f, "\"")?;
        if inner.frozen {
            write!(f, " (frozen)")?;
        }
        Ok(())
    }
}

impl BytesIter {
    /// The logical offset this iterator addresses.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// The underlying string.
    pub fn bytes(&self) -> &Bytes {
        &self.bytes
    }

    /// Dereferences the iterator, raising WouldBlock/IndexError as for
    /// [`Bytes::at`].
    pub fn deref(&self) -> RtResult<u8> {
        self.bytes.at(self.offset)
    }

    /// True once the iterator sits at the frontier of a *frozen* string —
    /// i.e. there is definitively no more data.
    pub fn at_frozen_end(&self) -> bool {
        self.bytes.is_frozen() && self.offset >= self.bytes.end_offset()
    }

    /// True if dereferencing would currently block (open string, no data yet).
    pub fn would_block(&self) -> bool {
        !self.bytes.is_frozen() && self.offset >= self.bytes.end_offset()
    }

    /// Advances this iterator by `n` positions in place (no bounds check
    /// until dereference).
    pub fn advance_by(&mut self, n: u64) {
        self.offset += n;
    }

    /// A copy of this iterator advanced by `n` positions.
    pub fn advance(&self, n: u64) -> BytesIter {
        let mut next = self.clone();
        next.advance_by(n);
        next
    }

    /// Distance to another iterator over the same string.
    pub fn distance(&self, other: &BytesIter) -> RtResult<u64> {
        if !self.bytes.same(&other.bytes) {
            return Err(RtError::new(
                crate::error::ExceptionKind::InvalidIterator,
                "iterators over different bytes objects",
            ));
        }
        other
            .offset
            .checked_sub(self.offset)
            .ok_or_else(|| RtError::value("negative iterator distance"))
    }
}

impl fmt::Debug for BytesIter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesIter@{}", self.offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ExceptionKind;

    fn arena(data: &[u8]) -> SharedArena {
        Arc::new(data.to_vec())
    }

    #[test]
    fn append_and_read() {
        let b = Bytes::new();
        b.append(b"hello").unwrap();
        assert_eq!(b.len(), 5);
        assert_eq!(b.at(0).unwrap(), b'h');
        assert_eq!(b.at(4).unwrap(), b'o');
    }

    #[test]
    fn read_past_open_end_would_block() {
        let b = Bytes::from_slice(b"ab");
        assert_eq!(b.at(2).unwrap_err().kind, ExceptionKind::WouldBlock);
        b.append(b"c").unwrap();
        assert_eq!(b.at(2).unwrap(), b'c');
    }

    #[test]
    fn read_past_frozen_end_is_index_error() {
        let b = Bytes::frozen_from_slice(b"ab");
        assert_eq!(b.at(2).unwrap_err().kind, ExceptionKind::IndexError);
    }

    #[test]
    fn append_after_freeze_fails() {
        let b = Bytes::frozen_from_slice(b"x");
        assert_eq!(b.append(b"y").unwrap_err().kind, ExceptionKind::Frozen);
        b.unfreeze();
        b.append(b"y").unwrap();
        assert_eq!(b.to_vec(), b"xy");
    }

    #[test]
    fn iterators_survive_appends() {
        let b = Bytes::from_slice(b"GET ");
        let it = b.begin().advance(4);
        assert!(it.would_block());
        b.append(b"/index.html").unwrap();
        assert_eq!(it.deref().unwrap(), b'/');
        assert!(!it.would_block());
    }

    #[test]
    fn trim_keeps_logical_offsets() {
        let b = Bytes::from_slice(b"0123456789");
        b.trim(4).unwrap();
        assert_eq!(b.len(), 6);
        assert_eq!(b.at(4).unwrap(), b'4');
        assert_eq!(b.at(3).unwrap_err().kind, ExceptionKind::IndexError);
        assert_eq!(b.begin_offset(), 4);
        // Extraction across the retained region still works.
        assert_eq!(b.extract(5, 8).unwrap(), b"567");
    }

    #[test]
    fn read_into_fails_where_a_byte_loop_would() {
        // Three chunks: owned, borrowed, owned.
        let b = Bytes::from_slice(b"ab");
        b.append_shared(ArenaSlice::new(arena(b"xcdx"), 1, 2))
            .unwrap();
        b.append(b"ef").unwrap();
        b.trim(1).unwrap();
        let mut out = [0u8; 5];
        b.read_into(1, &mut out).unwrap();
        assert_eq!(&out, b"bcdef");
        b.read_into(9, &mut []).unwrap();
        // For every window, the error is the first failing `at`'s.
        b.freeze();
        for open in [false, true] {
            if open {
                b.unfreeze();
            }
            for from in 0..8u64 {
                for n in 1..4u64 {
                    let mut buf = vec![0u8; n as usize];
                    let want = (from..from + n).map(|o| b.at(o)).find_map(Result::err);
                    match (b.read_into(from, &mut buf), want) {
                        (Ok(()), None) => assert_eq!(buf, b.extract(from, from + n).unwrap()),
                        (Err(got), Some(want)) => {
                            assert_eq!((got.kind, got.message), (want.kind, want.message))
                        }
                        (got, want) => panic!("{from}+{n}: {got:?} vs {want:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn with_range_sees_what_sub_copies() {
        let b = Bytes::from_slice(b"own:");
        b.append_shared(ArenaSlice::new(arena(b"..GET /x.."), 2, 6))
            .unwrap();
        b.append(b":tail").unwrap();
        for (from, to) in [(0, 0), (4, 7), (0, 10), (2, 15), (8, 15)] {
            let seen = b.with_range(from, to, <[u8]>::to_vec).unwrap();
            assert_eq!(seen, b.sub(from, to).unwrap().to_vec(), "{from}..{to}");
        }
        for (from, to) in [(3, 2), (0, 16)] {
            let got = b.with_range(from, to, |_| ()).unwrap_err();
            let want = b.sub(from, to).unwrap_err();
            assert_eq!((got.kind, got.message), (want.kind, want.message));
        }
    }

    #[test]
    fn sub_shares_a_borrowed_chunk_and_copies_anything_else() {
        let a = arena(b"....GET /index.html....");
        let b = Bytes::from_slice(b"own:");
        b.append_shared(ArenaSlice::new(a.clone(), 4, 15)).unwrap();
        b.append(b":tail").unwrap();

        // Inside the borrowed chunk: a window onto the same arena.
        let uri = b.sub(8, 19).unwrap();
        assert_eq!(uri.to_vec(), b"/index.html");
        assert_eq!(uri.borrowed_len(), 11);
        assert!(uri.is_frozen());
        assert_eq!((uri.begin_offset(), uri.end_offset()), (0, 11));
        // Owned source, or a range across chunks: one copy.
        assert_eq!(b.sub(0, 3).unwrap().borrowed_len(), 0);
        let across = b.sub(2, 21).unwrap();
        assert_eq!(across.to_vec(), b"n:GET /index.html:t");
        assert_eq!(across.borrowed_len(), 0);
        // Same content as the copying extraction, for every range.
        for from in 0..=b.end_offset() {
            for to in from..=b.end_offset() {
                assert_eq!(
                    b.sub(from, to).unwrap().to_vec(),
                    b.extract(from, to).unwrap()
                );
            }
        }
        assert!(b.sub(5, 5).unwrap().is_empty());
        // And the same availability rules.
        assert_eq!(b.sub(3, 2).unwrap_err().kind, ExceptionKind::ValueError);
        assert_eq!(b.sub(0, 99).unwrap_err().kind, ExceptionKind::WouldBlock);
        b.freeze();
        assert_eq!(b.sub(0, 99).unwrap_err().kind, ExceptionKind::IndexError);
        b.trim(6).unwrap();
        assert_eq!(b.sub(5, 8).unwrap_err().kind, ExceptionKind::IndexError);
        assert_eq!(b.sub(8, 19).unwrap().to_vec(), b"/index.html");
    }

    #[test]
    fn trim_is_idempotent_backwards() {
        let b = Bytes::from_slice(b"abcdef");
        b.trim(3).unwrap();
        b.trim(2).unwrap(); // no-op, already trimmed past
        assert_eq!(b.begin_offset(), 3);
        assert!(b.trim(100).is_err());
    }

    #[test]
    fn extract_range_checks() {
        let b = Bytes::from_slice(b"abcdef");
        assert_eq!(b.extract(1, 4).unwrap(), b"bcd");
        assert_eq!(b.extract(4, 9).unwrap_err().kind, ExceptionKind::WouldBlock);
        b.freeze();
        assert_eq!(b.extract(4, 9).unwrap_err().kind, ExceptionKind::IndexError);
        assert!(b.extract(4, 2).is_err());
    }

    #[test]
    fn find_semantics() {
        let b = Bytes::from_slice(b"abc\r\ndef");
        assert_eq!(b.find(0, b"\r\n").unwrap(), Some(3));
        assert_eq!(
            b.find(4, b"\r\n").unwrap_err().kind,
            ExceptionKind::WouldBlock
        );
        b.freeze();
        assert_eq!(b.find(4, b"\r\n").unwrap(), None);
        assert_eq!(b.find(0, b"").unwrap(), Some(0));
    }

    #[test]
    fn find_after_trim() {
        let b = Bytes::from_slice(b"xxxxneedle");
        b.trim(2).unwrap();
        assert_eq!(b.find(2, b"needle").unwrap(), Some(4));
        assert!(b.find(0, b"n").is_err());
    }

    #[test]
    fn deep_copy_is_independent() {
        let a = Bytes::from_slice(b"abc");
        let b = a.deep_copy();
        assert_eq!(a, b);
        assert!(!a.same(&b));
        b.append(b"d").unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn clone_is_shared() {
        let a = Bytes::from_slice(b"abc");
        let b = a.clone();
        assert!(a.same(&b));
        b.append(b"d").unwrap();
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn iter_distance() {
        let b = Bytes::from_slice(b"hello world");
        let i = b.begin();
        let j = i.advance(5);
        assert_eq!(i.distance(&j).unwrap(), 5);
        assert!(j.distance(&i).is_err());
        let other = Bytes::from_slice(b"x");
        assert!(i.distance(&other.begin()).is_err());
    }

    #[test]
    fn advance_by_steps_in_place() {
        let b = Bytes::from_slice(b"hello");
        let mut it = b.begin();
        it.advance_by(1);
        assert_eq!(it.deref().unwrap(), b'e');
        assert_eq!(it.offset(), b.begin().advance(1).offset());
        it.advance_by(0);
        assert_eq!(it.offset(), 1);
        assert!(it.bytes().same(&b));
    }

    #[test]
    fn with_available_window() {
        let b = Bytes::from_slice(b"0123456789");
        b.trim(2).unwrap();
        let got = b.with_available(5, |s| s.to_vec()).unwrap();
        assert_eq!(got, b"56789");
        let empty = b.with_available(99, |s| s.len()).unwrap();
        assert_eq!(empty, 0);
    }

    #[test]
    fn budget_charged_on_append_credited_on_trim_and_drop() {
        use crate::limits::AllocBudget;
        let budget = AllocBudget::with_limit(10);
        let b = Bytes::new();
        b.set_budget(budget.clone());
        b.append(b"12345678").unwrap();
        assert_eq!(budget.used(), 8);
        // Over-budget append fails without mutating the string.
        let e = b.append(b"9abc").unwrap_err();
        assert_eq!(e.kind, ExceptionKind::ResourceExhausted);
        assert_eq!(b.len(), 8);
        assert_eq!(budget.used(), 8);
        // Trimming parsed data returns bytes to the pool.
        b.trim(5).unwrap();
        assert_eq!(budget.used(), 3);
        b.append(b"9abc").unwrap();
        assert_eq!(budget.used(), 7);
        assert_eq!(budget.peak(), 8);
        drop(b);
        assert_eq!(budget.used(), 0, "drop credits retained bytes");
    }

    #[test]
    fn set_budget_adopts_existing_bytes() {
        use crate::limits::AllocBudget;
        let b = Bytes::from_slice(b"hello");
        let budget = AllocBudget::with_limit(3);
        b.set_budget(budget.clone());
        assert_eq!(budget.used(), 5, "pre-existing bytes are accounted");
        assert!(b.append(b"x").is_err(), "already over the cap");
    }

    #[test]
    fn frontier_end_iterator_moves() {
        let b = Bytes::from_slice(b"ab");
        let end = b.end();
        assert_eq!(end.offset(), 2);
        b.append(b"cd").unwrap();
        // A freshly taken end reflects growth; the old iterator now points
        // at valid data (the frontier moved past it).
        assert_eq!(b.end().offset(), 4);
        assert_eq!(end.deref().unwrap(), b'c');
    }

    // --- chunked / arena-borrowing representation ---

    #[test]
    fn append_shared_borrows_without_copy() {
        let ar = arena(b"xxGET / HTTP/1.1yy");
        let b = Bytes::new();
        b.append_shared(ArenaSlice::new(ar.clone(), 2, 14)).unwrap();
        assert_eq!(b.len(), 14);
        assert_eq!(b.borrowed_len(), 14);
        assert_eq!(b.chunk_count(), 1);
        assert_eq!(b.to_vec(), b"GET / HTTP/1.1");
        assert_eq!(b.at(0).unwrap(), b'G');
        assert_eq!(b.at(13).unwrap(), b'1');
    }

    #[test]
    fn reads_straddle_chunk_boundaries() {
        // owned + borrowed + owned chunks; every read path must see one
        // logical string.
        let ar = arena(b"##middle##");
        let b = Bytes::from_slice(b"head-");
        b.append_shared(ArenaSlice::new(ar.clone(), 2, 6)).unwrap();
        b.append(b"-tail").unwrap();
        assert!(b.chunk_count() >= 3);
        assert_eq!(b.to_vec(), b"head-middle-tail");
        // at() across each boundary
        assert_eq!(b.at(4).unwrap(), b'-');
        assert_eq!(b.at(5).unwrap(), b'm');
        assert_eq!(b.at(10).unwrap(), b'e');
        assert_eq!(b.at(11).unwrap(), b'-');
        // extract() spanning all three chunks
        assert_eq!(b.extract(3, 13).unwrap(), b"d-middle-t");
        // find() of a needle that straddles a boundary
        assert_eq!(b.find(0, b"d-m").unwrap(), Some(3));
        assert_eq!(b.find(0, b"le-ta").unwrap(), Some(9));
        // with_available() must hand back the full contiguous window
        let w = b.with_available(2, |s| s.to_vec()).unwrap();
        assert_eq!(w, b"ad-middle-tail");
    }

    #[test]
    fn iterators_walk_across_chunks() {
        let ar = arena(b"wxyz");
        let b = Bytes::from_slice(b"ab");
        b.append_shared(ArenaSlice::new(ar.clone(), 1, 2)).unwrap();
        let mut it = b.begin();
        let mut got = Vec::new();
        while let Ok(byte) = it.deref() {
            got.push(byte);
            it = it.advance(1);
        }
        assert_eq!(got, b"abxy");
        assert_eq!(b.begin().distance(&it).unwrap(), 4);
    }

    #[test]
    fn trim_drops_whole_chunks_and_narrows_partial_ones() {
        let ar = arena(b"0123456789");
        let b = Bytes::new();
        b.append_shared(ArenaSlice::new(ar.clone(), 0, 4)).unwrap();
        b.append_shared(ArenaSlice::new(ar.clone(), 4, 4)).unwrap();
        b.append(b"pq").unwrap();
        assert_eq!(b.chunk_count(), 3);
        // Trim into the middle of the second borrowed chunk.
        b.trim(6).unwrap();
        assert_eq!(b.chunk_count(), 2);
        assert_eq!(b.begin_offset(), 6);
        assert_eq!(b.to_vec(), b"67pq");
        assert_eq!(b.at(6).unwrap(), b'6');
        assert_eq!(b.at(5).unwrap_err().kind, ExceptionKind::IndexError);
        // Trim to the frontier empties the string but keeps offsets.
        b.trim(10).unwrap();
        assert_eq!(b.len(), 0);
        assert_eq!(b.chunk_count(), 0);
        assert_eq!(b.end_offset(), 10);
        b.append(b"z").unwrap();
        assert_eq!(b.at(10).unwrap(), b'z');
    }

    #[test]
    fn eq_ignores_chunk_layout() {
        let ar = arena(b"hello world");
        let chunked = Bytes::new();
        chunked
            .append_shared(ArenaSlice::new(ar.clone(), 0, 6))
            .unwrap();
        chunked.append(b"world").unwrap();
        let flat = Bytes::from_slice(b"hello world");
        assert_eq!(chunked, flat);
        assert_eq!(flat, chunked);
        let different = Bytes::from_slice(b"hello worlD");
        assert_ne!(chunked, different);
        let shorter = Bytes::from_slice(b"hello");
        assert_ne!(chunked, shorter);
    }

    #[test]
    fn frozen_copy_is_detached() {
        let b = Bytes::from_slice(b"ab");
        b.trim(1).unwrap();
        let copy = b.frozen_copy();
        b.append(b"c").unwrap();
        assert!(copy.is_frozen());
        assert_eq!(copy.begin_offset(), 0);
        assert_eq!(copy.to_vec(), b"b");
    }

    #[test]
    fn debug_renders_across_chunks() {
        let ar = arena(b"bc");
        let b = Bytes::from_slice(b"a");
        b.append_shared(ArenaSlice::new(ar.clone(), 0, 2)).unwrap();
        b.freeze();
        assert_eq!(format!("{b:?}"), "b\"abc\" (frozen)");
    }

    #[test]
    fn frozen_from_arena_is_a_complete_pdu() {
        let ar = arena(b"..DNSMSG..");
        let b = Bytes::frozen_from_arena(ArenaSlice::new(ar.clone(), 2, 6));
        assert!(b.is_frozen());
        assert_eq!(b.to_vec(), b"DNSMSG");
        assert_eq!(b.at(6).unwrap_err().kind, ExceptionKind::IndexError);
        assert_eq!(b.borrowed_len(), 6);
    }

    #[test]
    fn budget_counts_borrowed_bytes_logically() {
        use crate::limits::AllocBudget;
        let ar = arena(b"0123456789");
        let budget = AllocBudget::with_limit(8);
        let b = Bytes::new();
        b.set_budget(budget.clone());
        b.append_shared(ArenaSlice::new(ar.clone(), 0, 6)).unwrap();
        assert_eq!(budget.used(), 6);
        // Borrowed growth is governed exactly like owned growth.
        let e = b
            .append_shared(ArenaSlice::new(ar.clone(), 6, 4))
            .unwrap_err();
        assert_eq!(e.kind, ExceptionKind::ResourceExhausted);
        assert_eq!(b.len(), 6);
        b.trim(4).unwrap();
        assert_eq!(budget.used(), 2);
        drop(b);
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn deep_copy_carries_budget_and_credits_on_drop() {
        use crate::limits::AllocBudget;
        let budget = AllocBudget::unlimited();
        let b = Bytes::from_slice(b"governed");
        b.set_budget(budget.clone());
        assert_eq!(budget.used(), 8);
        let copy = b.deep_copy();
        assert_eq!(budget.used(), 16, "the copy is charged for its bytes");
        assert!(copy.budget().is_some_and(|cb| cb.same(&budget)));
        drop(copy);
        assert_eq!(budget.used(), 8, "dropping the copy credits its share");
        drop(b);
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn coalescing_preserves_budget_accounting() {
        use crate::limits::AllocBudget;
        let ar = arena(b"abcdef");
        let budget = AllocBudget::unlimited();
        let b = Bytes::new();
        b.set_budget(budget.clone());
        b.append_shared(ArenaSlice::new(ar.clone(), 0, 3)).unwrap();
        b.append_shared(ArenaSlice::new(ar.clone(), 3, 3)).unwrap();
        assert_eq!(budget.used(), 6);
        // A straddling find() coalesces internally; accounting is logical,
        // so usage must not change.
        assert_eq!(b.find(0, b"cd").unwrap(), Some(2));
        assert_eq!(b.chunk_count(), 1, "coalesced");
        assert_eq!(budget.used(), 6);
        drop(b);
        assert_eq!(budget.used(), 0);
    }

    /// Budget conservation over random op sequences: whatever mixture of
    /// append/append_shared/trim/freeze/unfreeze/deep_copy/clone/extract
    /// runs, the budget's `used()` always equals the summed retained length
    /// of live distinct strings, and returns to zero once they all drop.
    #[test]
    fn budget_conservation_property() {
        use crate::limits::AllocBudget;
        let mut rng = crate::rng::Rng::new(0x853c_49e6_748f_ea9b);
        let ar: SharedArena = Arc::new((0u8..=255).collect::<Vec<u8>>());
        for _round in 0..50 {
            let budget = AllocBudget::unlimited();
            let root = Bytes::new();
            root.set_budget(budget.clone());
            // Distinct strings (deep copies share the budget); clones are
            // handles and are tracked separately so drops don't double-free.
            let mut objects: Vec<Bytes> = vec![root];
            let mut handles: Vec<Bytes> = Vec::new();
            for _step in 0..200 {
                let pick = rng.below(objects.len() as u64) as usize;
                let b = objects[pick].clone();
                match rng.below(10) {
                    0..=2 => {
                        let mut data = vec![0; rng.below(32) as usize];
                        rng.fill(&mut data);
                        let _ = b.append(&data);
                    }
                    3 | 4 => {
                        let off = rng.below(200) as usize;
                        let len = rng.below(50) as usize;
                        let _ =
                            b.append_shared(ArenaSlice::new(ar.clone(), off, len.min(256 - off)));
                    }
                    5 => {
                        let span = b.end_offset() - b.begin_offset();
                        if span > 0 {
                            let cut = b.begin_offset() + rng.below(span + 1);
                            let _ = b.trim(cut);
                        }
                    }
                    6 => b.freeze(),
                    7 => b.unfreeze(),
                    8 => {
                        if objects.len() < 8 {
                            objects.push(b.deep_copy());
                        }
                    }
                    _ => {
                        if handles.len() < 8 {
                            handles.push(b.clone());
                        } else {
                            let from = b.begin_offset();
                            let _ = b.extract(from, b.end_offset());
                        }
                    }
                }
                let expected: u64 = objects.iter().map(|o| o.len() as u64).sum();
                assert_eq!(budget.used(), expected, "live accounting drifted");
            }
            drop(handles);
            drop(objects);
            assert_eq!(budget.used(), 0, "all charges credited back on drop");
        }
    }
}
