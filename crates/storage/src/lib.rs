//! # xseq-storage — paged storage for the constraint-sequence index
//!
//! The paper evaluates a *disk-based* index ("the size of the final
//! disk-based index comes to `4n + cN` bytes"; Table 7 reports "# disk
//! accesses"; Figure 16(c)/(d) report "I/O cost" in pages).  This crate
//! provides the substrate that makes those numbers measurable on any
//! machine:
//!
//! * [`page`] — 4 KiB pages and fixed-width little-endian codecs (the page
//!   layout *is* part of the system under study, so it is explicit, not
//!   derived from a serialization library);
//! * [`store`] — page files, in memory or on disk;
//! * [`pool`] — an LRU buffer pool with hit/miss/eviction counters: the
//!   miss count of a cold query is the paper's "# disk accesses";
//! * [`paged`] — the on-page layout of a frozen trie (node records, path
//!   link directory + entries, end-node registry, document id lists) and
//!   [`paged::PagedTrie`], which implements `xseq_index::TrieView` so the
//!   *same* matching code runs over memory and disk.

// Panic-freedom, checked by clippy (DESIGN.md §14): every suppression is an
// `#[expect(…, reason = "…")]` carrying its proof.
#![deny(
    clippy::indexing_slicing,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::integer_division_remainder_used
)]

pub mod page;
pub mod paged;
pub mod pool;
pub mod store;

pub use page::{Page, PageId, PAGE_SIZE};
pub use paged::{write_paged_trie, PagedTrie};
pub use pool::{BufferPool, PoolStats, PoolTelemetry};
pub use store::{FileStore, MemStore, PageStore};
