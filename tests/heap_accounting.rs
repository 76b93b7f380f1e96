//! Validates the `HeapSize` memory model against the allocator itself.
//!
//! The `memory.*` gauges ([`Database::stats`]) report *modelled* bytes —
//! capacity-based accounting over every component.  This binary swaps in a
//! counting global allocator and checks that the model agrees with the
//! live-byte delta of actually building a corpus and index, within 5%.
//!
//! It is a separate integration-test binary on purpose: a process-wide
//! allocator counter cannot tolerate unrelated tests allocating in
//! parallel, and the workspace lint table denies `unsafe_code` (the
//! counter needs two `unsafe impl` trampolines around `System`, allowed
//! for this target alone).  The tests here take one lock for their whole
//! run, so they do not count each other either.
//!
//! The same counter also bounds what one warm query allocates, in bytes
//! and in allocations, and a built database is checked to hold its corpus at
//! the size of its contents.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use xseq::datagen::dblp::DblpGenerator;
use xseq::datagen::xmark::{XmarkGenerator, XmarkOptions};
use xseq::xml::{write_document, Designator, ValueId};
use xseq::{
    Corpus, Database, DatabaseBuilder, DocId, Document, HeapSize, PlanOptions, Strategy,
    SymbolTable, ValueMode, XmlIndex,
};

/// Bytes currently live (allocated minus deallocated).
static LIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Bytes this thread has been handed, freed since or not (a `realloc`
    /// counts its new size).
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    /// Allocations this thread has asked for, `realloc`s included.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Adds `bytes` to this thread's [`ALLOCATED`] and one to its
/// [`ALLOCATIONS`] (not at all while the thread is being torn down).
fn handed_out(bytes: usize) {
    let _ = ALLOCATED.try_with(|n| n.set(n.get() + bytes));
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// One test of this binary at a time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct CountingAlloc;

// SAFETY: every method delegates straight to `System` and only adjusts a
// counter, so the allocator contract (layout fidelity, uniqueness of
// returned pointers) is exactly `System`'s.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; caller upholds the layout contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
            handed_out(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded verbatim; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; caller upholds the layout contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
            handed_out(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator and
        // the caller upholds the resize contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            handed_out(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Builds the same corpus + index the model will be asked to attribute.
fn build(docs: usize, seed: u64) -> (Corpus, XmlIndex) {
    let mut corpus = Corpus::new(ValueMode::Intern);
    let mut generator = DblpGenerator::new(seed);
    corpus.docs = generator.generate(docs, &mut corpus.symbols);
    let index = XmlIndex::build(
        &corpus.docs,
        &mut corpus.paths,
        Strategy::DepthFirst,
        PlanOptions::default(),
    );
    (corpus, index)
}

/// Sequences `docs` fresh documents into the update overlay (the documents
/// themselves are not kept, so the overlay is most of what grows): memtable
/// cut every 16, merges drained at ratio 4 after every insert, and no query
/// — so the memtable is left dirty.
fn insert_through_overlay(corpus: &mut Corpus, index: &mut XmlIndex, docs: usize, seed: u64) {
    index.configure_delta(16, 4);
    let mut generator = DblpGenerator::new(seed);
    let first_id = index.doc_count();
    for (i, doc) in generator
        .generate(docs, &mut corpus.symbols)
        .iter()
        .enumerate()
    {
        index.insert_delta(doc, (first_id + i) as u32, &mut corpus.paths);
        while index.maybe_merge().is_some() {}
    }
}

fn assert_within_5_percent(what: &str, modelled: usize, measured: usize) {
    let ratio = modelled as f64 / measured as f64;
    assert!(
        (0.95..=1.05).contains(&ratio),
        "{what}: model {modelled} B vs allocator {measured} B (ratio {ratio:.4})"
    );
}

#[test]
fn modelled_bytes_match_the_allocator_within_5_percent() {
    let _serial = serial();
    // Warm up once so lazy one-time allocations (thread-locals, rng
    // tables) are live before the measured window opens.
    let (mut corpus, mut index) = build(8, 1);
    insert_through_overlay(&mut corpus, &mut index, 40, 2);
    drop((corpus, index));

    let before = live();
    let (mut corpus, mut index) = build(300, 42);
    let measured = live() - before;
    let modelled = corpus.heap_bytes() + index.heap_bytes();

    // keep the structures alive across the second reading
    assert!(corpus.len() == 300 && index.trie().node_count() > 0);
    assert_within_5_percent("frozen build", modelled, measured);

    // The overlay on its own window (with the symbols, paths and
    // dictionary entries it brings): 229 inserts = 14 cuts + 5 left in the
    // memtable; at ratio 4 twelve of the cuts have merged into three tier-1
    // runs and two wait in tier 0.
    let before = live();
    insert_through_overlay(&mut corpus, &mut index, 229, 43);
    let measured = live() - before;
    let grown = corpus.heap_bytes() + index.heap_bytes() - modelled;
    assert_eq!(index.delta().run_count(), 5);
    assert_eq!(index.delta().sequence_count(), 229);
    assert_within_5_percent("overlay inserts", grown, measured);
}

/// Bytes of an interner's id index over `keys` keys: 4 B a slot, the
/// smallest power-of-two slot count from 8 up that keeps it at most 7/8 full.
fn id_index_bytes(keys: usize) -> usize {
    if keys == 0 {
        return 0;
    }
    let mut slots = 8;
    while 8 * keys > 7 * slots {
        slots *= 2;
    }
    4 * slots
}

/// Bytes of an arena of `strings` strings and `text` bytes of text with
/// its `u32` offsets and its id index, every part at its length.
fn exact_strings_bytes(strings: usize, text: usize) -> usize {
    text + 4 * (strings + 1) + id_index_bytes(strings)
}

/// After a build from XML the corpus is at the size of its contents: no
/// document list, the documents' path column at its length (4 B per node
/// and 4 B per document), the name and value arenas and offsets at their
/// lengths beside an id index ([`id_index_bytes`]), and the path dictionary
/// within a fixed number of bytes per path.  The allocator sees what the
/// model says, within 5 %.
#[test]
fn a_built_corpus_is_held_at_the_size_of_its_contents() {
    let _serial = serial();
    let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
    let xmark = XmarkGenerator::new(5, XmarkOptions::default()).generate(2000, &mut st);
    let dblp = DblpGenerator::new(5).generate(2000, &mut st);
    let text = |docs: &[Document]| -> Vec<String> {
        docs.iter().map(|d| write_document(d, &st)).collect()
    };
    // (corpus, XML, most bytes per path: 37 and 42 measured; with a
    // `HashMap` from `(parent, last)` beside the entries the table took 59
    // and 67 B per path on 20 000-record corpora of the same generators)
    for (name, xml, per_path) in [("xmark", text(&xmark), 40), ("dblp", text(&dblp), 45)] {
        let before = live();
        let db = DatabaseBuilder::new()
            .build_from_xml(xml.iter().map(String::as_str))
            .expect("generated XML indexes");
        let measured = live() - before;
        assert_within_5_percent(name, db.stats().memory.total_bytes(), measured);
        assert_at_the_size_of_its_contents(name, &db, per_path);
    }
}

/// The same after an update history: 2 000 records built, 600 inserted,
/// every third one removed, and `compact()` — the compacted corpus is at
/// the size of its contents too, and the allocator still sees the model,
/// at one shard and at several.
#[test]
fn a_compacted_corpus_is_held_at_the_size_of_its_contents() {
    let _serial = serial();
    let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
    let xml: Vec<String> = (XmarkGenerator::new(7, XmarkOptions::default())
        .generate(2600, &mut st))
    .iter()
    .map(|d| write_document(d, &st))
    .collect();
    for shards in [1, 2, 3] {
        let name = format!("compacted at {shards} shard(s)");
        let before = live();
        let mut db = DatabaseBuilder::new()
            .shards(shards)
            .build_from_xml(xml[..2000].iter().map(String::as_str))
            .expect("generated XML indexes");
        for doc in &xml[2000..] {
            db.insert_document(doc).expect("generated XML indexes");
        }
        for id in (0..2600).step_by(3) {
            assert!(db.remove_document(id));
        }
        let report = db.compact();
        let measured = live() - before;
        assert_eq!(report.docs_after, 2600 - 867);
        assert_within_5_percent(&name, db.stats().memory.total_bytes(), measured);
        assert_at_the_size_of_its_contents(&name, &db, 40);
    }
}

/// The exact sizes [`a_built_corpus_is_held_at_the_size_of_its_contents`]
/// states, on shard 0 (globals 0, n, 2n, … of `n` shards).
fn assert_at_the_size_of_its_contents(name: &str, db: &Database, per_path: usize) {
    let corpus = db.corpus();
    assert_eq!(
        corpus.docs.capacity(),
        0,
        "{name}: the document list is dropped"
    );
    // The shard's corpus bytes are its tables' and its path column's.
    let shard0 = &db.stats().shards[0];
    let column = shard0.memory.corpus_bytes - corpus.heap_bytes();
    let nodes: usize = (0..db.len() as DocId)
        .step_by(db.shard_count())
        .map(|g| db.document(g).expect("no document is removed").len())
        .sum();
    assert_eq!(
        column,
        4 * nodes + 4 * (shard0.docs + 1),
        "{name}: path column"
    );
    let values = &corpus.symbols.values;
    let value_text: usize = (0..values.len() as u32)
        .map(|v| values.resolve(ValueId(v)).map_or(0, str::len))
        .sum();
    let exact = exact_strings_bytes(values.len(), value_text);
    assert_eq!(
        values.heap_bytes(),
        exact,
        "{name}: value arena, offsets and index"
    );
    assert!(
        values.heap_bytes() - value_text <= 16 * values.len(),
        "{name}: at most 16 B per value beside its text"
    );
    let names = corpus.symbols.designator_count();
    let name_text: usize = (0..names as u32)
        .map(|d| corpus.symbols.name(Designator(d)).len())
        .sum();
    assert_eq!(
        corpus.symbols.heap_bytes() - values.heap_bytes(),
        exact_strings_bytes(names, name_text),
        "{name}: name arena, offsets and index"
    );
    let paths = corpus.paths.len();
    let path_bytes = corpus.paths.heap_bytes();
    assert!(
        path_bytes <= per_path * paths,
        "{name}: {path_bytes} B for {paths} paths (at most {per_path} B each)"
    );
}

/// A warm single query allocates its answer and little else: 4 B per id it
/// returns, plus at most 4 KiB for the parse, the plan, the step record and
/// the search's own small buffers.  A dense answer is read out of the
/// thread's scratch once, into a vector of exactly its length — no
/// answer-sized buffer is allocated beside it.
#[test]
fn a_warm_dense_query_allocates_its_answer_and_4_kib() {
    let _serial = serial();
    let mut corpus = Corpus::new(ValueMode::Intern);
    corpus.docs = DblpGenerator::new(1).generate(3000, &mut corpus.symbols);
    let db = DatabaseBuilder::new()
        .build_from_corpus(corpus)
        .expect("a generated corpus indexes");
    for expr in ["/inproceedings/title", "/article/author"] {
        let cold = db.query_xpath(expr).expect("the query parses");
        let before = ALLOCATED.with(Cell::get);
        let warm = db.query_xpath(expr).expect("the query parses");
        let allocated = ALLOCATED.with(Cell::get) - before;
        assert_eq!(warm, cold, "{expr}");
        let ids = warm.len();
        assert!(
            ids >= 64 && 3000usize.div_ceil(64) <= 4 * ids,
            "{expr}: dense"
        );
        let bound = 4 * ids + 4096;
        assert!(
            allocated <= bound,
            "{expr}: {allocated} B allocated for {ids} ids (bound {bound} B)"
        );
    }
}

/// A warm single query allocates for its parse, its plan, its step record
/// and its answer, however many ids it reads.  The search order, the
/// alignment stacks, the collected ranges and the spans they read come from
/// the thread's scratch, and a search resolves the links of a pattern of up
/// to eight nodes on the stack.
#[test]
fn a_warm_query_allocates_a_bounded_number_of_times() {
    let _serial = serial();
    let mut corpus = Corpus::new(ValueMode::Intern);
    corpus.docs = DblpGenerator::new(1).generate(3000, &mut corpus.symbols);
    let db = DatabaseBuilder::new()
        .build_from_corpus(corpus)
        .expect("a generated corpus indexes");
    // 22 each before the search order came from the scratch, 18 before the
    // links of a pattern of up to eight nodes were resolved on the stack;
    // `//author` searches two assignments.
    let pins = [
        ("/inproceedings/title", 17),
        ("/article/author", 17),
        ("//author", 18),
    ];
    for (expr, most) in pins {
        let _ = db.query_xpath(expr).expect("the query parses");
        let before = ALLOCATIONS.with(Cell::get);
        let warm = db.query_xpath(expr).expect("the query parses");
        let allocations = ALLOCATIONS.with(Cell::get) - before;
        assert!(warm.len() >= 64, "{expr}: a dense answer");
        assert!(
            allocations <= most,
            "{expr}: {allocations} allocations (at most {most})"
        );
    }
}
