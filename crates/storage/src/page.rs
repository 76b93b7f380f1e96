//! Fixed-size pages and field codecs.

/// Page size in bytes (a common database default).
pub const PAGE_SIZE: usize = 4096;

/// Identifier of a page within a page store.
pub type PageId = u32;

/// One page worth of bytes.
pub type Page = Box<[u8; PAGE_SIZE]>;

/// Allocates a zeroed page.
#[expect(clippy::expect_used, reason = "the vector holds exactly PAGE_SIZE bytes")]
pub fn new_page() -> Page {
    vec![0u8; PAGE_SIZE]
        .into_boxed_slice()
        .try_into()
        .expect("exact size")
}

/// Reads a little-endian `u32` at byte offset `off`.
///
/// # Panics
/// Panics if `off + 4` exceeds [`PAGE_SIZE`].
#[inline]
#[expect(clippy::indexing_slicing, reason = "callers pass field offsets inside the page")]
#[expect(clippy::expect_used, reason = "the range is exactly as long as the array")]
pub fn get_u32(page: &[u8; PAGE_SIZE], off: usize) -> u32 {
    u32::from_le_bytes(page[off..off + 4].try_into().expect("in bounds"))
}

/// Writes a little-endian `u32` at byte offset `off`.
///
/// # Panics
/// Panics if `off + 4` exceeds [`PAGE_SIZE`].
#[inline]
#[expect(clippy::indexing_slicing, reason = "callers pass field offsets inside the page")]
pub fn put_u32(page: &mut [u8; PAGE_SIZE], off: usize, v: u32) {
    page[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

/// Reads a little-endian `u64` at byte offset `off`.
///
/// # Panics
/// Panics if `off + 8` exceeds [`PAGE_SIZE`].
#[inline]
#[expect(clippy::indexing_slicing, reason = "callers pass field offsets inside the page")]
#[expect(clippy::expect_used, reason = "the range is exactly as long as the array")]
pub fn get_u64(page: &[u8; PAGE_SIZE], off: usize) -> u64 {
    u64::from_le_bytes(page[off..off + 8].try_into().expect("in bounds"))
}

/// Writes a little-endian `u64` at byte offset `off`.
///
/// # Panics
/// Panics if `off + 8` exceeds [`PAGE_SIZE`].
#[inline]
#[expect(clippy::indexing_slicing, reason = "callers pass field offsets inside the page")]
pub fn put_u64(page: &mut [u8; PAGE_SIZE], off: usize, v: u64) {
    page[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

/// Addressing helper: which page and offset hold record `idx` of a section
/// starting at page `base`, with `rec` bytes per record and `per` records
/// per page.
#[inline]
#[expect(clippy::integer_division_remainder_used, reason = "per is a nonzero *_PER_PAGE constant")]
pub fn locate(base: PageId, idx: usize, rec: usize, per: usize) -> (PageId, usize) {
    (base + (idx / per) as PageId, (idx % per) * rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_roundtrip() {
        let mut p = new_page();
        put_u32(&mut p, 100, 0xdead_beef);
        assert_eq!(get_u32(&p, 100), 0xdead_beef);
        // neighbours untouched
        assert_eq!(get_u32(&p, 96), 0);
        assert_eq!(get_u32(&p, 104), 0);
    }

    #[test]
    fn u64_roundtrip() {
        let mut p = new_page();
        put_u64(&mut p, 8, u64::MAX - 5);
        assert_eq!(get_u64(&p, 8), u64::MAX - 5);
    }

    #[test]
    fn locate_math() {
        // 20-byte records, 204 per page, base page 3
        assert_eq!(locate(3, 0, 20, 204), (3, 0));
        assert_eq!(locate(3, 203, 20, 204), (3, 203 * 20));
        assert_eq!(locate(3, 204, 20, 204), (4, 0));
        assert_eq!(locate(3, 205, 20, 204), (4, 20));
    }
}
