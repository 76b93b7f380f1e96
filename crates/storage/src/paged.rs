//! On-page layout of a frozen trie, and a [`TrieView`] over it.
//!
//! Sections (all records fixed-width little-endian, densely packed, never
//! straddling a page boundary):
//!
//! ```text
//! page 0            header: magic, counts, section start pages
//! nodes_start…      node records    (path, parent, serial, max, flags) 20 B
//! dir_start…        link directory  (path, entry_start, entry_len)     12 B, sorted by path
//! entries_start…    link entries    (serial, max, node)                12 B
//! ends_start…       end-node records (serial, node, doc_off, doc_len)  16 B, sorted by serial
//! docs_start…       document ids    (u32)
//! ```
//!
//! A frozen trie is in preorder, so a node's id *is* its serial: record `i`
//! of the node section carries serial `i`, and the `node` word of link
//! entries and end-node records repeats the serial.  Readers ignore those
//! two words; they stay on the page so the layout (`XSEQPG01`) and every
//! page count derived from it are unchanged.
//!
//! The link *directory* (the path dictionary) is loaded into memory at open
//! time — it plays the role of a catalog and is small; node records, link
//! entries, end nodes and document lists are fetched through the buffer
//! pool, so the pool's miss counter measures exactly the page-touch pattern
//! of the matching algorithms ("# disk accesses", Table 7; "I/O cost",
//! Figure 16).
//!
//! I/O errors in this layer are treated as fatal (panic): the store is a
//! local page file this library itself wrote, and threading `Result`
//! through the infallible [`TrieView`] API would tax every probe of the hot
//! search loop for a can't-happen case.

use crate::page::{get_u32, get_u64, locate, new_page, put_u32, put_u64, PageId, PAGE_SIZE};
use crate::pool::BufferPool;
use crate::store::PageStore;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::io;
use std::sync::Mutex;
use xseq_index::{LinkEntry, PathLink, SequenceTrie, TrieNodeId, TrieView};
use xseq_xml::{DocId, PathId, PathIdHasher};

const MAGIC: u64 = 0x3130_4750_5145_5358; // "XSEQPG01" LE

const NODE_REC: usize = 20;
#[expect(clippy::integer_division_remainder_used, reason = "a zero divisor fails const evaluation")]
const NODES_PER_PAGE: usize = PAGE_SIZE / NODE_REC;
const DIR_REC: usize = 12;
#[expect(clippy::integer_division_remainder_used, reason = "a zero divisor fails const evaluation")]
const DIR_PER_PAGE: usize = PAGE_SIZE / DIR_REC;
const ENTRY_REC: usize = 12;
#[expect(clippy::integer_division_remainder_used, reason = "a zero divisor fails const evaluation")]
const ENTRIES_PER_PAGE: usize = PAGE_SIZE / ENTRY_REC;
const END_REC: usize = 16;
#[expect(clippy::integer_division_remainder_used, reason = "a zero divisor fails const evaluation")]
const ENDS_PER_PAGE: usize = PAGE_SIZE / END_REC;
#[expect(clippy::integer_division_remainder_used, reason = "a zero divisor fails const evaluation")]
const DOCS_PER_PAGE: usize = PAGE_SIZE / 4;

/// Serializes a frozen [`SequenceTrie`] into `store`.
///
/// Takes exactly one trie — callers serializing an `XmlIndex` pass its
/// **frozen segment** (`index.trie()`), so the in-memory delta overlay and
/// tombstones (DESIGN.md §11) are deliberately excluded from the paged
/// layout: the overlay is transient by design, and compaction folds it into
/// the frozen trie before anything durable is written.
///
/// Returns the number of pages written.
#[expect(clippy::indexing_slicing, reason = "keys index links; n < node_count = table lengths")]
pub fn write_paged_trie<S: PageStore>(trie: &SequenceTrie, store: &mut S) -> io::Result<PageId> {
    let frozen = trie.frozen();
    let node_count = trie.node_count() + 1; // + virtual root

    // ---- gather sections ----
    // directory sorted by path id for binary search / deterministic layout
    let mut dir: Vec<(PathId, u32, u32)> = Vec::with_capacity(frozen.links.len());
    let mut entries: Vec<LinkEntry> = Vec::new();
    {
        let mut paths: Vec<PathId> = frozen.links.keys().copied().collect();
        paths.sort();
        for p in paths {
            let link = &frozen.links[&p];
            dir.push((p, entries.len() as u32, link.len() as u32));
            entries.extend_from_slice(link);
        }
    }
    let mut ends: Vec<(TrieNodeId, u32, u32)> = Vec::with_capacity(frozen.end_nodes.len());
    let mut docs: Vec<DocId> = Vec::new();
    for &node in &frozen.end_nodes {
        let list = trie.docs_at(node);
        ends.push((node, docs.len() as u32, list.len() as u32));
        docs.extend_from_slice(list);
    }

    // ---- layout ----
    let nodes_pages = node_count.div_ceil(NODES_PER_PAGE) as PageId;
    let dir_pages = dir.len().div_ceil(DIR_PER_PAGE).max(1) as PageId;
    let entry_pages = entries.len().div_ceil(ENTRIES_PER_PAGE).max(1) as PageId;
    let end_pages = ends.len().div_ceil(ENDS_PER_PAGE).max(1) as PageId;
    let doc_pages = docs.len().div_ceil(DOCS_PER_PAGE).max(1) as PageId;
    let nodes_start: PageId = 1;
    let dir_start = nodes_start + nodes_pages;
    let entries_start = dir_start + dir_pages;
    let ends_start = entries_start + entry_pages;
    let docs_start = ends_start + end_pages;
    let total = docs_start + doc_pages;

    // ---- header ----
    let mut page = new_page();
    put_u64(&mut page, 0, MAGIC);
    put_u32(&mut page, 8, node_count as u32);
    put_u32(&mut page, 12, dir.len() as u32);
    put_u32(&mut page, 16, entries.len() as u32);
    put_u32(&mut page, 20, ends.len() as u32);
    put_u32(&mut page, 24, docs.len() as u32);
    put_u32(&mut page, 28, nodes_start);
    put_u32(&mut page, 32, dir_start);
    put_u32(&mut page, 36, entries_start);
    put_u32(&mut page, 40, ends_start);
    put_u32(&mut page, 44, docs_start);
    store.write_page(0, &page)?;

    // ---- node records ----
    let mut writer = SectionWriter::new(store, nodes_start);
    for n in 0..node_count as TrieNodeId {
        let flags = u32::from(trie.embeds_identical(n));
        writer.record(NODE_REC, NODES_PER_PAGE, |page, off| {
            put_u32(page, off, trie.path(n).0);
            put_u32(page, off + 4, trie.parent(n));
            put_u32(page, off + 8, n);
            put_u32(page, off + 12, frozen.max_desc[n as usize]);
            put_u32(page, off + 16, flags);
        })?;
    }
    writer.flush()?;

    let mut writer = SectionWriter::new(store, dir_start);
    for &(p, start, len) in &dir {
        writer.record(DIR_REC, DIR_PER_PAGE, |page, off| {
            put_u32(page, off, p.0);
            put_u32(page, off + 4, start);
            put_u32(page, off + 8, len);
        })?;
    }
    writer.flush()?;

    let mut writer = SectionWriter::new(store, entries_start);
    for e in &entries {
        writer.record(ENTRY_REC, ENTRIES_PER_PAGE, |page, off| {
            put_u32(page, off, e.serial);
            put_u32(page, off + 4, e.max_desc);
            put_u32(page, off + 8, e.serial);
        })?;
    }
    writer.flush()?;

    let mut writer = SectionWriter::new(store, ends_start);
    for &(node, doc_off, doc_len) in &ends {
        writer.record(END_REC, ENDS_PER_PAGE, |page, off| {
            put_u32(page, off, node);
            put_u32(page, off + 4, node);
            put_u32(page, off + 8, doc_off);
            put_u32(page, off + 12, doc_len);
        })?;
    }
    writer.flush()?;

    let mut writer = SectionWriter::new(store, docs_start);
    for &d in &docs {
        writer.record(4, DOCS_PER_PAGE, |page, off| {
            put_u32(page, off, d);
        })?;
    }
    writer.flush()?;

    Ok(total)
}

/// Buffered sequential writer for one section.
struct SectionWriter<'a, S: PageStore> {
    store: &'a mut S,
    page: crate::page::Page,
    page_id: PageId,
    in_page: usize,
    dirty: bool,
}

impl<'a, S: PageStore> SectionWriter<'a, S> {
    fn new(store: &'a mut S, start: PageId) -> Self {
        SectionWriter {
            store,
            page: new_page(),
            page_id: start,
            in_page: 0,
            dirty: true, // always materialize at least one page per section
        }
    }

    fn record(
        &mut self,
        rec: usize,
        per_page: usize,
        fill: impl FnOnce(&mut [u8; PAGE_SIZE], usize),
    ) -> io::Result<()> {
        if self.in_page == per_page {
            self.store.write_page(self.page_id, &self.page)?;
            self.page = new_page();
            self.page_id += 1;
            self.in_page = 0;
        }
        fill(&mut self.page, self.in_page * rec);
        self.in_page += 1;
        self.dirty = true;
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.dirty {
            self.store.write_page(self.page_id, &self.page)?;
            self.dirty = false;
        }
        Ok(())
    }
}

/// A disk-resident trie: [`TrieView`] over a page file through a buffer
/// pool.
///
/// The pool sits behind a [`Mutex`], so a `PagedTrie` over a `Send` store
/// is `Sync`: concurrent readers share one page cache (and its counters),
/// serializing only the page fetch itself.
#[derive(Debug)]
pub struct PagedTrie<S: PageStore> {
    pool: Mutex<BufferPool<S>>,
    node_count: u32,
    end_count: u32,
    nodes_start: PageId,
    entries_start: PageId,
    ends_start: PageId,
    docs_start: PageId,
    /// In-memory link directory (the catalog): path → (entry start, len).
    /// Probed on every link entry a search reads, so keyed with the
    /// multiplicative [`PathIdHasher`].
    dir: HashMap<PathId, (u32, u32), BuildHasherDefault<PathIdHasher>>,
}

impl<S: PageStore> PagedTrie<S> {
    /// Opens a paged trie, loading the header and link directory.
    ///
    /// The header is untrusted input: a wrong magic, a trie without its
    /// root, section starts that are not ascending inside the store, a
    /// record count that does not fit its section, or a directory entry
    /// reaching outside the entries section is `InvalidData` — so no count
    /// read from the file sizes an allocation or a page lookup unchecked.
    #[expect(clippy::indexing_slicing, reason = "h has ten words; sec < 5 = PER_PAGE.len()")]
    pub fn open(store: S, pool_capacity: usize) -> io::Result<Self> {
        const PER_PAGE: [usize; 5] = [
            NODES_PER_PAGE,
            DIR_PER_PAGE,
            ENTRIES_PER_PAGE,
            ENDS_PER_PAGE,
            DOCS_PER_PAGE,
        ];
        let invalid = |what| Err(io::Error::new(io::ErrorKind::InvalidData, what));
        let mut pool = BufferPool::new(store, pool_capacity);
        // Words 0..5: node, directory, entry, end and doc counts; 5..10:
        // the start pages of their sections.
        let (magic, h): (u64, [u32; 10]) = pool.with_page(0, |p| {
            (
                get_u64(p, 0),
                std::array::from_fn(|i| get_u32(p, 8 + 4 * i)),
            )
        })?;
        if magic != MAGIC {
            return invalid("bad magic");
        }
        if h[0] == 0 {
            return invalid("paged trie without a root node");
        }
        for sec in 0..5 {
            let start = h[5 + sec];
            let next = if sec < 4 {
                h[6 + sec]
            } else {
                pool.store().page_count()
            };
            let pages = (h[sec] as usize).div_ceil(PER_PAGE[sec]);
            if start == 0 || start >= next || pages > (next - start) as usize {
                return invalid("paged trie section outside the store");
            }
        }
        let mut dir = HashMap::with_capacity_and_hasher(h[1] as usize, Default::default());
        for i in 0..h[1] as usize {
            let (pg, off) = locate(h[6], i, DIR_REC, DIR_PER_PAGE);
            let (p, s, l) = pool.with_page(pg, |page| {
                (
                    get_u32(page, off),
                    get_u32(page, off + 4),
                    get_u32(page, off + 8),
                )
            })?;
            if s.checked_add(l).is_none_or(|end| end > h[2]) {
                return invalid("link directory entry outside the entries section");
            }
            dir.insert(PathId(p), (s, l));
        }
        // catalog loading is setup cost, not query cost
        pool.clear();
        Ok(PagedTrie {
            pool: Mutex::new(pool),
            node_count: h[0],
            end_count: h[3],
            nodes_start: h[5],
            entries_start: h[7],
            ends_start: h[8],
            docs_start: h[9],
            dir,
        })
    }

    /// Buffer-pool counters (misses = disk accesses).
    #[expect(clippy::expect_used, reason = "the pool mutex poisons only on a holder's panic")]
    pub fn pool_stats(&self) -> crate::pool::PoolStats {
        self.pool.lock().expect("pool mutex poisoned").stats()
    }

    /// Mirrors this trie's page traffic into `storage.pool.*` counters.
    #[expect(clippy::expect_used, reason = "the pool mutex poisons only on a holder's panic")]
    pub fn attach_pool_telemetry(&self, telemetry: crate::pool::PoolTelemetry) {
        self.pool
            .lock()
            .expect("pool mutex poisoned")
            .attach_telemetry(telemetry);
    }

    /// Cold-starts the pool and zeroes the counters.
    #[expect(clippy::expect_used, reason = "the pool mutex poisons only on a holder's panic")]
    pub fn reset_pool(&self) {
        self.pool.lock().expect("pool mutex poisoned").clear();
    }

    /// Number of trie nodes (excluding the virtual root).
    pub fn node_count(&self) -> usize {
        self.node_count as usize - 1
    }

    /// Reads record `idx` of the section at `start` through the pool:
    /// `read` gets the record's page and byte offset.
    // The pool mutex poisons only if a holder panicked (the process is already
    // unwinding); with_page fails only on store I/O errors, which the storage
    // layer treats as fatal by design.
    #[expect(clippy::expect_used, reason = "store I/O errors are fatal by design (module docs)")]
    fn record<R>(
        &self,
        (start, rec, per_page): (PageId, usize, usize),
        idx: usize,
        read: impl FnOnce(&[u8; PAGE_SIZE], usize) -> R,
    ) -> R {
        let (pg, off) = locate(start, idx, rec, per_page);
        let mut pool = self.pool.lock().expect("pool mutex poisoned");
        pool.with_page(pg, |p| read(p, off))
            .expect("paged trie I/O")
    }

    fn node_field(&self, n: TrieNodeId, field: usize) -> u32 {
        let nodes = (self.nodes_start, NODE_REC, NODES_PER_PAGE);
        self.record(nodes, n as usize, |p, off| get_u32(p, off + field))
    }

    /// End record `i` as `(serial, doc_off, doc_len)`.
    fn end_record(&self, i: usize) -> (u32, u32, u32) {
        let ends = (self.ends_start, END_REC, ENDS_PER_PAGE);
        self.record(ends, i, |p, off| {
            (get_u32(p, off), get_u32(p, off + 8), get_u32(p, off + 12))
        })
    }
}

/// A link of a [`PagedTrie`], resolved through its directory once: the
/// trie, the link's first entry and its length.  Entries are read through
/// the buffer pool.
#[derive(Debug)]
pub struct PagedLink<'a, S: PageStore>(&'a PagedTrie<S>, u32, u32);

impl<S: PageStore> PathLink for PagedLink<'_, S> {
    fn len(&self) -> usize {
        self.2 as usize
    }

    fn entry(&self, idx: usize) -> LinkEntry {
        let entries = (self.0.entries_start, ENTRY_REC, ENTRIES_PER_PAGE);
        self.0
            .record(entries, self.1 as usize + idx, |p, off| LinkEntry {
                serial: get_u32(p, off),
                max_desc: get_u32(p, off + 4),
            })
    }
}

impl<S: PageStore> TrieView for PagedTrie<S> {
    fn root(&self) -> TrieNodeId {
        0
    }

    fn label(&self, n: TrieNodeId) -> (u32, u32) {
        let nodes = (self.nodes_start, NODE_REC, NODES_PER_PAGE);
        self.record(nodes, n as usize, |p, off| {
            (get_u32(p, off + 8), get_u32(p, off + 12))
        })
    }

    fn path(&self, n: TrieNodeId) -> PathId {
        PathId(self.node_field(n, 0))
    }

    fn parent(&self, n: TrieNodeId) -> TrieNodeId {
        self.node_field(n, 4)
    }

    fn embeds_identical(&self, n: TrieNodeId) -> bool {
        self.node_field(n, 16) != 0
    }

    type Link<'a>
        = PagedLink<'a, S>
    where
        S: 'a;

    fn link(&self, path: PathId) -> PagedLink<'_, S> {
        let (start, len) = self.dir.get(&path).copied().unwrap_or_default();
        PagedLink(self, start, len)
    }

    #[expect(clippy::integer_division_remainder_used, reason = "the divisor is the literal 2")]
    fn collect_docs_in_range(&self, lo: u32, hi: u32, out: &mut Vec<DocId>) {
        // binary search the first end record with serial >= lo
        let n = self.end_count as usize;
        let mut a = 0usize;
        let mut b = n;
        while a < b {
            let mid = (a + b) / 2;
            if self.end_record(mid).0 < lo {
                a = mid + 1;
            } else {
                b = mid;
            }
        }
        let mut i = a;
        while i < n {
            let (serial, doc_off, doc_len) = self.end_record(i);
            if serial > hi {
                break;
            }
            let docs = (self.docs_start, 4, DOCS_PER_PAGE);
            for k in 0..doc_len as usize {
                out.push(self.record(docs, doc_off as usize + k, get_u32));
            }
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{FileStore, MemStore};
    use xseq_baselines::constraint_search;
    use xseq_index::{tree_search, QuerySequence};
    use xseq_sequence::Sequence;
    use xseq_xml::{PathTable, Symbol, SymbolTable, ValueMode};

    struct Fx {
        st: SymbolTable,
        pt: PathTable,
        trie: SequenceTrie,
    }

    impl Fx {
        fn new() -> Self {
            Fx {
                st: SymbolTable::with_value_mode(ValueMode::Intern),
                pt: PathTable::new(),
                trie: SequenceTrie::new(),
            }
        }
        fn seq(&mut self, specs: &[&str]) -> Sequence {
            Sequence(
                specs
                    .iter()
                    .map(|s| {
                        let syms: Vec<Symbol> = s.split('.').map(|x| self.st.elem(x)).collect();
                        self.pt.intern(&syms)
                    })
                    .collect(),
            )
        }
        fn load(&mut self) {
            let data = vec![
                (vec!["P", "P.A", "P.A.X"], 0),
                (vec!["P", "P.A", "P.A.Y"], 1),
                (vec!["P", "P.B"], 2),
                (vec!["P", "P.L", "P.L.S", "P.L", "P.L.B"], 3),
                (vec!["P", "P.L", "P.L.S", "P.L.B"], 4),
            ];
            for (specs, id) in data {
                let s = self.seq(&specs);
                self.trie.insert(&s, id);
            }
            self.trie.freeze();
        }
    }

    fn paged(fx: &Fx, capacity: usize) -> PagedTrie<MemStore> {
        let mut store = MemStore::new();
        write_paged_trie(&fx.trie, &mut store).unwrap();
        PagedTrie::open(store, capacity).unwrap()
    }

    #[test]
    fn paged_serialization_excludes_the_delta_overlay() {
        use xseq_index::{PlanOptions, XmlIndex};
        use xseq_xml::parse_document;
        let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
        let docs = vec![
            parse_document("<a><b/></a>", &mut st).expect("valid xml"),
            parse_document("<a><c/></a>", &mut st).expect("valid xml"),
        ];
        let mut pt = PathTable::new();
        let mut index = XmlIndex::build(
            &docs,
            &mut pt,
            xseq_sequence::Strategy::DepthFirst,
            PlanOptions::default(),
        );
        let frozen_nodes = index.trie().node_count();
        let delta_doc = parse_document("<a><z/></a>", &mut st).expect("valid xml");
        index.insert_delta(&delta_doc, 2, &mut pt);
        index.remove_doc(0);
        assert!(index.delta().node_count() > 0);
        // Serializing the index's frozen segment writes the frozen trie
        // only: the delta overlay and tombstones never reach the pages.
        let mut store = MemStore::new();
        write_paged_trie(index.trie(), &mut store).expect("serialize");
        let paged = PagedTrie::open(store, 16).expect("open");
        assert_eq!(paged.node_count(), frozen_nodes);
        assert!(
            paged.node_count() < frozen_nodes + index.delta().node_count(),
            "delta nodes must not be serialized"
        );
        let mut docs_on_disk = Vec::new();
        let (lo, hi) = {
            let root = TrieView::root(&paged);
            let (l, h) = TrieView::label(&paged, root);
            (l, h)
        };
        paged.collect_docs_in_range(lo, hi, &mut docs_on_disk);
        docs_on_disk.sort_unstable();
        docs_on_disk.dedup();
        assert_eq!(
            docs_on_disk,
            vec![0, 1],
            "pages hold the frozen docs verbatim: no delta doc, no tombstone filtering"
        );
    }

    #[test]
    fn paged_view_mirrors_memory_view() {
        let mut fx = Fx::new();
        fx.load();
        let pv = paged(&fx, 64);
        assert_eq!(pv.node_count(), fx.trie.node_count());
        for n in 0..=fx.trie.node_count() as TrieNodeId {
            assert_eq!(TrieView::label(&pv, n), fx.trie.label(n));
            assert_eq!(TrieView::path(&pv, n), fx.trie.path(n));
            assert_eq!(TrieView::parent(&pv, n), fx.trie.parent(n));
            assert_eq!(
                TrieView::embeds_identical(&pv, n),
                fx.trie.embeds_identical(n)
            );
        }
        // links agree
        for (path, link) in &fx.trie.frozen().links {
            assert_eq!(pv.link_len(*path), link.len());
            for (i, e) in link.iter().enumerate() {
                assert_eq!(pv.link_entry(*path, i), *e);
            }
        }
    }

    #[test]
    fn same_answers_from_disk_and_memory() {
        let mut fx = Fx::new();
        fx.load();
        let pv = paged(&fx, 8);
        for qspec in [
            vec!["P"],
            vec!["P", "P.A"],
            vec!["P", "P.L", "P.L.S", "P.L.B"],
            vec!["P", "P.L", "P.L.S", "P.L", "P.L.B"],
            vec!["P", "P.Z"],
        ] {
            let s = fx.seq(&qspec);
            let q = QuerySequence::from_sequence(&s, &fx.pt);
            let (mem, _) = tree_search(&fx.trie, &q);
            let (disk, _) = tree_search(&pv, &q);
            assert_eq!(mem, disk, "{qspec:?}");
            let (mem_o, _) = constraint_search(&fx.trie, &q);
            let (disk_o, _) = constraint_search(&pv, &q);
            assert_eq!(mem_o, disk_o, "{qspec:?} ordered");
        }
    }

    #[test]
    fn disk_access_counting() {
        let mut fx = Fx::new();
        fx.load();
        let pv = paged(&fx, 64);
        pv.reset_pool();
        let s = fx.seq(&["P", "P.A", "P.A.X"]);
        let q = QuerySequence::from_sequence(&s, &fx.pt);
        let (docs, _) = tree_search(&pv, &q);
        assert_eq!(docs, vec![0]);
        let stats = pv.pool_stats();
        assert!(stats.misses > 0, "a cold query must touch disk");
        // warm repeat: all hits
        pv.reset_pool();
        let _ = tree_search(&pv, &q);
        let cold = pv.pool_stats().misses;
        let _ = tree_search(&pv, &q);
        let warm = pv.pool_stats();
        assert_eq!(warm.misses, cold, "second run fully cached");
    }

    #[test]
    fn file_backed_roundtrip() {
        let mut fx = Fx::new();
        fx.load();
        let dir = std::env::temp_dir().join(format!("xseq-paged-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.pages");
        {
            let mut store = FileStore::create(&path).unwrap();
            write_paged_trie(&fx.trie, &mut store).unwrap();
        }
        let store = FileStore::open(&path).unwrap();
        let pv = PagedTrie::open(store, 16).unwrap();
        let s = fx.seq(&["P", "P.L", "P.L.S", "P.L.B"]);
        let q = QuerySequence::from_sequence(&s, &fx.pt);
        let (docs, _) = tree_search(&pv, &q);
        assert_eq!(docs, vec![4]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_rejects_garbage() {
        let mut store = MemStore::new();
        store.write_page(0, &new_page()).unwrap();
        assert!(PagedTrie::open(store, 4).is_err());
    }

    /// The fixture's page file, page by page, for the corruption tests.
    fn pages_of(fx: &Fx) -> Vec<crate::page::Page> {
        let mut store = MemStore::new();
        let total = write_paged_trie(&fx.trie, &mut store).unwrap();
        let mut pages = vec![new_page(); total as usize];
        for (id, page) in pages.iter_mut().enumerate() {
            store.read_page(id as PageId, page).unwrap();
        }
        pages
    }

    fn open_pages(pages: &[crate::page::Page]) -> io::Result<PagedTrie<MemStore>> {
        let mut store = MemStore::new();
        for (id, page) in pages.iter().enumerate() {
            store.write_page(id as PageId, page).unwrap();
        }
        PagedTrie::open(store, 4)
    }

    #[test]
    fn open_rejects_corrupt_or_truncated_files() {
        let mut fx = Fx::new();
        fx.load();
        let good = pages_of(&fx);
        assert!(open_pages(&good).is_ok());
        let dir_start = get_u32(&good[0], 32) as usize;
        // Each edit is (page, byte offset, new word).
        let corrupt = |edits: &[(usize, usize, u32)]| {
            let mut bad = good.clone();
            for &(page, off, v) in edits {
                put_u32(&mut bad[page], off, v);
            }
            bad
        };
        let zeroed_counts = [(0, 8, 0), (0, 12, 0), (0, 16, 0), (0, 20, 0), (0, 24, 0)];
        let cases = [
            ("node_count = 0", corrupt(&[(0, 8, 0)])),
            ("every count zeroed", corrupt(&zeroed_counts)),
            ("dir_count = u32::MAX", corrupt(&[(0, 12, u32::MAX)])),
            (
                "doc_count past the last page",
                corrupt(&[(0, 24, u32::MAX)]),
            ),
            ("nodes_start = 0", corrupt(&[(0, 28, 0)])),
            (
                "entries_start past ends_start",
                corrupt(&[(0, 36, 1 << 20)]),
            ),
            (
                "directory entry past the entries",
                corrupt(&[(dir_start, 8, u32::MAX)]),
            ),
            (
                "store truncated by one page",
                good[..good.len() - 1].to_vec(),
            ),
        ];
        for (what, bad) in cases {
            let err = open_pages(&bad).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
        }
    }

    #[test]
    fn shared_paged_trie_serves_concurrent_readers() {
        let mut fx = Fx::new();
        fx.load();
        let pv = paged(&fx, 8);
        let queries: Vec<(Sequence, Vec<DocId>)> = [
            (vec!["P", "P.A"], vec![0, 1]),
            (vec!["P", "P.B"], vec![2]),
            (vec!["P", "P.L", "P.L.S", "P.L.B"], vec![4]),
            (vec!["P", "P.Z"], vec![]),
        ]
        .into_iter()
        .map(|(specs, want)| (fx.seq(&specs), want))
        .collect();
        let pt = &fx.pt;
        let pv = &pv;
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for (seq, want) in &queries {
                        let q = QuerySequence::from_sequence(seq, pt);
                        let (docs, _) = tree_search(pv, &q);
                        assert_eq!(&docs, want);
                    }
                });
            }
        });
        let st = pv.pool_stats();
        assert!(st.hits + st.misses > 0, "readers went through the pool");
    }

    #[test]
    fn tiny_pool_still_correct() {
        let mut fx = Fx::new();
        fx.load();
        let pv = paged(&fx, 1);
        let s = fx.seq(&["P", "P.L", "P.L.S", "P.L", "P.L.B"]);
        let q = QuerySequence::from_sequence(&s, &fx.pt);
        let (docs, _) = tree_search(&pv, &q);
        assert_eq!(docs, vec![3]);
        assert!(pv.pool_stats().evictions > 0);
    }
}
