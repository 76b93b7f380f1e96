//! Lint fixture: `unsafe` with no SAFETY: comment.  Must fail `no-unsafe`
//! and `safety-comment`.

pub fn peek(v: &[u8]) -> u8 {
    unsafe { *v.get_unchecked(0) }
}
