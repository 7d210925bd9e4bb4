//! Where completed landmark trees live after the build: an in-memory
//! table of shared [`ErrorReportingTree`]s indexed by center id, or a
//! file of wire records read back at route time.
//!
//! A tree has one layout: its 64-byte node rows plus its flat arenas
//! ([`ErrorReportingTree::to_wire`]). A resident tree owns the rows
//! (64-byte aligned, one cache line per node); a record on disk holds
//! the same rows as little-endian bytes, and resident loading is a row
//! copy.
//!
//! The spill path exists for constructions whose Õ(n^{1+1/k}) total
//! tree state exceeds RAM: the fused per-center pipeline serializes
//! each tree the moment it is finished and drops it. Routing never
//! decodes a record: a fetch preads it into a per-thread buffer,
//! validates it in place ([`ErtView::validate`], with a permutation
//! bitset kept beside the buffer), and searches the rows through an
//! [`ErtView`] — the same search code the resident trees run, so the
//! two stores route the same paths (asserted by
//! `tests/spill_parity.rs`). The same record format and the same
//! reader serve scheme snapshots: [`SpillStore::from_file_index`]
//! points the store at a snapshot's center-trees section.

use std::cell::RefCell;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use graphkit::wire;
use treeroute::labeled::ROW_BYTES;
use treeroute::laing::{ErrorReportingTree, ErtView};

/// Backing storage for the per-center trees.
pub(crate) enum CenterStore {
    /// Every tree resident, shared behind `Arc` (the default): slot
    /// `c` holds center `c`'s tree, `None` for a node that is no center.
    Memory(Vec<Option<Arc<ErrorReportingTree>>>),
    /// Trees on disk as wire records, read in place at route time.
    Spilled(SpillStore),
}

/// A center tree as routing sees it: decoded and resident, or a
/// validated record read in place.
pub(crate) enum CenterRef<'a> {
    Resident(&'a ErrorReportingTree),
    Record(&'a ErtView<'a>),
}

impl CenterStore {
    /// A resident store over `n` host nodes holding `trees`.
    pub fn resident(
        n: usize,
        trees: impl IntoIterator<Item = (u32, Arc<ErrorReportingTree>)>,
    ) -> CenterStore {
        let mut slots = vec![None; n];
        for (c, tree) in trees {
            if let Some(slot) = slots.get_mut(c as usize) {
                *slot = Some(tree);
            }
        }
        CenterStore::Memory(slots)
    }

    /// The resident tree of center `c`.
    fn slot(slots: &[Option<Arc<ErrorReportingTree>>], c: u32) -> Option<&Arc<ErrorReportingTree>> {
        slots.get(c as usize).and_then(Option::as_ref)
    }

    /// Run `visit` on the tree of center `c`. Routing only ever asks
    /// for centers the plans recorded, so a miss — or, on the spilled
    /// store, an unreadable/corrupt record — is `None` for the caller
    /// to degrade on (a route falls through to its next level) rather
    /// than a panicked serving process. Nothing here allocates, not
    /// even on failure.
    pub fn with_center<R>(&self, c: u32, visit: impl FnOnce(CenterRef<'_>) -> R) -> Option<R> {
        match self {
            CenterStore::Memory(m) => Self::slot(m, c).map(|t| visit(CenterRef::Resident(t))),
            CenterStore::Spilled(s) => s.with_record(c, |view| visit(CenterRef::Record(view))),
        }
    }

    /// The fully decoded tree of center `c`, for a repair that reuses
    /// it. Spilled records are decoded with
    /// [`ErrorReportingTree::from_wire`]; routing never comes here.
    pub fn decoded(&self, c: u32) -> io::Result<Arc<ErrorReportingTree>> {
        match self {
            CenterStore::Memory(m) => {
                Self::slot(m, c).map(Arc::clone).ok_or_else(|| wire::invalid("unknown center"))
            }
            CenterStore::Spilled(_) => {
                let payload = self.payload(c)?;
                Ok(Arc::new(ErrorReportingTree::from_wire(&mut wire::Reader::new(&payload))?))
            }
        }
    }

    /// Every center with a tree, ascending (snapshot save iterates
    /// these so section payloads are byte-deterministic).
    pub fn centers(&self) -> Vec<u32> {
        match self {
            CenterStore::Memory(m) => {
                m.iter().enumerate().filter(|(_, t)| t.is_some()).map(|(c, _)| c as u32).collect()
            }
            CenterStore::Spilled(s) => s.index.iter().map(|&(c, _, _)| c).collect(),
        }
    }

    /// The wire payload of center `c`'s tree. Resident trees are
    /// encoded on the fly; spilled records are copied verbatim — the
    /// spill file and the snapshot's center-trees section share the
    /// same per-record format, so no decode/re-encode round trip.
    pub fn payload(&self, c: u32) -> io::Result<Vec<u8>> {
        match self {
            CenterStore::Memory(m) => {
                let tree = Self::slot(m, c).ok_or_else(|| wire::invalid("unknown center"))?;
                let mut w = wire::Writer::new();
                tree.to_wire(&mut w);
                Ok(w.into_bytes())
            }
            CenterStore::Spilled(s) => {
                let (off, len) =
                    s.extent(c).ok_or_else(|| wire::invalid("center missing from spill index"))?;
                let mut buf = vec![0u8; len];
                s.file.read_exact_at(&mut buf, off)?;
                Ok(buf)
            }
        }
    }
}

/// Concurrent writer for the spill file. Workers of the fused
/// per-center pipeline call [`SpillWriter::write`] as trees complete;
/// the mutex serializes appends, and the in-memory index records where
/// each center's payload landed.
pub(crate) struct SpillWriter {
    inner: Mutex<WriterState>,
}

struct WriterState {
    file: File,
    offset: u64,
    /// `(center, payload offset, payload byte length)`, in write order.
    index: Vec<(u32, u64, u32)>,
}

/// Process-wide sequence for unique spill-file names.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

impl SpillWriter {
    /// Create the backing file in the system temp directory and unlink
    /// it immediately — the kernel reclaims the space when the last
    /// handle drops, so no cleanup path is needed.
    pub fn create() -> io::Result<SpillWriter> {
        let mut last_err = None;
        for _ in 0..16 {
            let seq = SPILL_SEQ.fetch_add(1, Ordering::SeqCst);
            let path = std::env::temp_dir().join(format!(
                "agm-center-spill-{}-{}.bin",
                std::process::id(),
                seq
            ));
            match OpenOptions::new().read(true).write(true).create_new(true).open(&path) {
                Ok(file) => {
                    let _ = std::fs::remove_file(&path);
                    return Ok(SpillWriter {
                        inner: Mutex::new(WriterState { file, offset: 0, index: Vec::new() }),
                    });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| io::Error::other("spill file creation failed")))
    }

    /// Append one record: `[u32 center][u32 len][payload]`, little
    /// endian. Called from build workers; a failed write is fatal (the
    /// scheme under construction would be unroutable).
    pub fn write(&self, center: u32, payload: &[u8]) {
        let mut record = Vec::with_capacity(8 + payload.len());
        record.extend_from_slice(&center.to_le_bytes());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(payload);
        let mut st = self.inner.lock().unwrap();
        let at = st.offset;
        st.file.write_all_at(&record, at).expect("spill write failed");
        st.index.push((center, at + 8, payload.len() as u32));
        st.offset += record.len() as u64;
    }

    /// Finish writing and flip to the read side, with the index sorted
    /// by center (each center is written once).
    pub fn finish(self) -> SpillStore {
        let mut st = self.inner.into_inner().unwrap();
        st.file.flush().expect("spill flush failed");
        st.index.sort_unstable_by_key(|&(c, _, _)| c);
        SpillStore::from_file_index(st.file, st.index)
    }
}

/// Read side of a record file: a sorted index of record extents and
/// positional reads into the calling thread's fetch buffer.
pub(crate) struct SpillStore {
    file: File,
    /// `(center, absolute offset, byte length)`, ascending by center.
    index: Vec<(u32, u64, u32)>,
    /// Largest record in the index: the size every thread's fetch
    /// buffer is grown to on its first fetch, so fetches never allocate.
    max_len: usize,
    /// Process-unique store id: a thread's buffer only serves a record
    /// back to the store that fetched it.
    id: u64,
}

/// Process-wide sequence for [`SpillStore::id`]. Only uniqueness
/// matters — the id publishes no other data — so `Relaxed` suffices.
static STORE_SEQ: AtomicU64 = AtomicU64::new(0);

/// One thread's fetch buffer and the record it holds.
struct FetchBuf {
    bytes: Vec<u8>,
    /// Scratch of the record's permutation checks: one bit per node.
    seen: Vec<u64>,
    /// `(store id, center)` of the validated record at the front of
    /// `bytes`, if any.
    held: Option<(u64, u32)>,
}

thread_local! {
    static FETCH: RefCell<FetchBuf> =
        const { RefCell::new(FetchBuf { bytes: Vec::new(), seen: Vec::new(), held: None }) };
}

impl SpillStore {
    /// Point a store at records living inside an existing file. `index`
    /// holds `(center, absolute offset, byte length)` sorted ascending
    /// by center — the snapshot loader's lazy mode hands over the
    /// snapshot file itself with extents into its center-trees
    /// section. This is the spill/snapshot unification: route-time
    /// reads go through exactly the same fetch path whether the
    /// records came from a build spill or a saved scheme.
    pub fn from_file_index(file: File, index: Vec<(u32, u64, u32)>) -> SpillStore {
        debug_assert!(
            index.windows(2).all(|p| p[0].0 < p[1].0),
            "index must be strictly ascending by center"
        );
        let max_len = index.iter().map(|&(_, _, len)| len as usize).max().unwrap_or(0);
        let id = STORE_SEQ.fetch_add(1, Ordering::Relaxed);
        SpillStore { file, index, max_len, id }
    }

    /// `(absolute offset, byte length)` of center `c`'s record.
    fn extent(&self, c: u32) -> Option<(u64, usize)> {
        let i = self.index.binary_search_by_key(&c, |&(id, _, _)| id).ok()?;
        self.index.get(i).map(|&(_, off, len)| (off, len as usize))
    }

    /// Run `visit` on center `c`'s record, read in place. The record is
    /// pread into this thread's buffer and validated every time it is
    /// fetched — the bytes come from a file and are not trusted — but
    /// an immediate repeat of the same `(store, center)` reuses the
    /// buffer as it stands. An index miss, short read, or corrupt
    /// record is `None`; the route path treats it as "destination not
    /// found at this level".
    fn with_record<R>(&self, c: u32, visit: impl FnOnce(&ErtView<'_>) -> R) -> Option<R> {
        let (off, len) = self.extent(c)?;
        let key = Some((self.id, c));
        FETCH
            .try_with(|cell| {
                let mut guard = cell.try_borrow_mut().ok()?;
                let buf = &mut *guard;
                if buf.bytes.len() < self.max_len {
                    buf.bytes.resize(self.max_len, 0);
                    // A record of `len` bytes has fewer than `len / 64`
                    // rows, so the bitset never grows past this.
                    buf.seen.reserve(self.max_len / ROW_BYTES / 64 + 1);
                }
                if buf.held != key {
                    buf.held = None;
                    let rec = buf.bytes.get_mut(..len)?;
                    self.file.read_exact_at(rec, off).ok()?;
                    ErtView::new(rec).and_then(|v| v.validate(&mut buf.seen)).ok()?;
                    buf.held = key;
                }
                let view = ErtView::new(buf.bytes.get(..len)?).ok()?;
                Some(visit(&view))
            })
            .ok()
            .flatten()
    }
}
