//! Dep-free heap-size attribution: the [`HeapSize`] trait and the
//! allocation model for `std`'s hashbrown-backed tables.
//!
//! `HeapSize::heap_bytes` reports the bytes a value owns *outside* its own
//! `size_of` — the transitively owned allocations.  The accounting is a
//! model, not an allocator hook: it mirrors what `Vec`, `String`, and
//! hashbrown actually request, and the core crate's `heap_accounting`
//! integration test pins the model to a counting allocator within 5%.
//!
//! Rules (documented in DESIGN.md §12):
//!
//! * `Vec<T>`/`String`: `capacity * size_of::<T>()` plus the elements'
//!   own heap bytes.
//! * `HashMap`/`HashSet`: the hashbrown table layout — `buckets` slots of
//!   the entry type plus one control byte per slot plus one trailing SIMD
//!   group — where `buckets` is recovered from `capacity()` (see
//!   [`hash_table_alloc_bytes`]).
//! * Plain `Copy` scalars own nothing.
//!
//! Implementations for domain types (paths, tries, pools) live next to
//! those types in their own crates; this module only defines the trait,
//! the std impls, and the table model.

use std::collections::{HashMap, HashSet, VecDeque};
use std::mem::size_of;

/// Transitively owned heap bytes, excluding `size_of::<Self>()` itself.
pub trait HeapSize {
    /// Bytes of heap memory owned by `self` (its allocations plus the
    /// heap bytes of everything stored in them).
    fn heap_bytes(&self) -> usize;

    /// `size_of::<Self>() + heap_bytes()`: the full footprint of an owned
    /// value, the number `memory.*` gauges report.
    fn total_bytes(&self) -> usize
    where
        Self: Sized,
    {
        size_of::<Self>() + self.heap_bytes()
    }
}

macro_rules! zero_heap {
    ($($t:ty),* $(,)?) => {
        $(impl HeapSize for $t {
            #[inline]
            fn heap_bytes(&self) -> usize { 0 }
        })*
    };
}

zero_heap!(
    u8,
    u16,
    u32,
    u64,
    u128,
    usize,
    i8,
    i16,
    i32,
    i64,
    i128,
    isize,
    f32,
    f64,
    bool,
    char,
    ()
);

impl<A: HeapSize, B: HeapSize> HeapSize for (A, B) {
    #[inline]
    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes() + self.1.heap_bytes()
    }
}

impl<A: HeapSize, B: HeapSize, C: HeapSize> HeapSize for (A, B, C) {
    #[inline]
    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes() + self.1.heap_bytes() + self.2.heap_bytes()
    }
}

impl<T: HeapSize> HeapSize for Option<T> {
    fn heap_bytes(&self) -> usize {
        self.as_ref().map_or(0, HeapSize::heap_bytes)
    }
}

impl<T: HeapSize> HeapSize for Box<T> {
    fn heap_bytes(&self) -> usize {
        size_of::<T>() + (**self).heap_bytes()
    }
}

impl HeapSize for String {
    fn heap_bytes(&self) -> usize {
        self.capacity()
    }
}

impl<T: HeapSize> HeapSize for Vec<T> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * size_of::<T>() + self.iter().map(HeapSize::heap_bytes).sum::<usize>()
    }
}

impl<T: HeapSize> HeapSize for VecDeque<T> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * size_of::<T>() + self.iter().map(HeapSize::heap_bytes).sum::<usize>()
    }
}

impl<T: HeapSize, const N: usize> HeapSize for [T; N] {
    fn heap_bytes(&self) -> usize {
        self.iter().map(HeapSize::heap_bytes).sum()
    }
}

impl<K: HeapSize, V: HeapSize, S> HeapSize for HashMap<K, V, S> {
    fn heap_bytes(&self) -> usize {
        hash_table_alloc_bytes(self.capacity(), size_of::<(K, V)>())
            + self
                .iter()
                .map(|(k, v)| k.heap_bytes() + v.heap_bytes())
                .sum::<usize>()
    }
}

impl<K: HeapSize, S> HeapSize for HashSet<K, S> {
    fn heap_bytes(&self) -> usize {
        hash_table_alloc_bytes(self.capacity(), size_of::<K>())
            + self.iter().map(HeapSize::heap_bytes).sum::<usize>()
    }
}

/// The number of usable slots hashbrown exposes for a table of `buckets`
/// slots: all but one below 8 buckets, 7/8 of them at 8 and above.
#[expect(clippy::integer_division_remainder_used, reason = "the divisor is the literal 8")]
fn usable_of(buckets: usize) -> usize {
    if buckets < 8 {
        buckets - 1
    } else {
        buckets / 8 * 7
    }
}

/// SIMD group width of the control-byte probe (16 on x86-64 SSE2; also a
/// safe over-estimate on the generic fallback, and well under the 5%
/// accounting tolerance either way).
const GROUP_WIDTH: usize = 16;

/// Bytes hashbrown allocates for a table whose `capacity()` reports
/// `capacity` usable slots of `entry_size`-byte entries.
///
/// The table rounds the requested capacity up to the smallest power-of-two
/// bucket count (≥ 4) whose usable fraction covers it, then allocates one
/// entry slot plus one control byte per bucket, plus one trailing control
/// group so probes never wrap mid-group.  `capacity()` returns exactly the
/// usable count of the allocated table, so the bucket count is recoverable.
pub fn hash_table_alloc_bytes(capacity: usize, entry_size: usize) -> usize {
    if capacity == 0 {
        return 0;
    }
    let mut buckets = 4usize;
    while usable_of(buckets) < capacity {
        buckets *= 2;
    }
    buckets * entry_size + buckets + GROUP_WIDTH
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_own_nothing() {
        assert_eq!(7u64.heap_bytes(), 0);
        assert_eq!(true.heap_bytes(), 0);
        assert_eq!((1u32, 2u64).heap_bytes(), 0);
        assert_eq!(7u64.total_bytes(), 8);
    }

    #[test]
    fn vec_and_string_follow_capacity() {
        let mut v: Vec<u32> = Vec::with_capacity(10);
        v.extend([1, 2, 3]);
        assert_eq!(v.heap_bytes(), 40);
        let s = String::from("hello");
        assert_eq!(s.heap_bytes(), s.capacity());
        // nested: the vec owns its strings' buffers too
        let vs = vec![String::from("ab"), String::from("cdef")];
        let expect = vs.capacity() * size_of::<String>() + vs[0].capacity() + vs[1].capacity();
        assert_eq!(vs.heap_bytes(), expect);
    }

    #[test]
    fn empty_collections_own_nothing() {
        assert_eq!(Vec::<u64>::new().heap_bytes(), 0);
        assert_eq!(String::new().heap_bytes(), 0);
        assert_eq!(HashMap::<u32, u32>::new().heap_bytes(), 0);
        assert_eq!(hash_table_alloc_bytes(0, 8), 0);
    }

    #[test]
    #[expect(clippy::integer_division_remainder_used, reason = "the divisor is a size plus one")]
    fn hash_model_matches_reported_capacity() {
        // Whatever capacity the map reports, the model's recovered bucket
        // count must be the one whose usable fraction equals it.
        let mut m: HashMap<u64, u64> = HashMap::new();
        for i in 0..1000u64 {
            m.insert(i, i);
            let cap = m.capacity();
            let bytes = hash_table_alloc_bytes(cap, size_of::<(u64, u64)>());
            // recover buckets from the model output
            let buckets = (bytes - GROUP_WIDTH) / (size_of::<(u64, u64)>() + 1);
            assert!(buckets.is_power_of_two(), "buckets {buckets} at cap {cap}");
            assert_eq!(usable_of(buckets), cap, "usable slots at cap {cap}");
        }
    }

    #[test]
    fn hash_model_is_monotone() {
        let mut last = 0;
        for cap in 0..10_000 {
            let b = hash_table_alloc_bytes(cap, 16);
            assert!(b >= last, "model shrank at capacity {cap}");
            last = b;
        }
    }
}
