//! Open-addressed id indexes for the dictionaries.
//!
//! Every interner in this crate — paths, element names, values — keeps each
//! key once, in its own arena, and finds it through an [`IdIndex`]: a
//! power-of-two `Vec<u32>` that stores nothing but the ids.  A probe starts
//! at the high bits of the key's hash, steps triangularly (`+1, +2, +3, …`,
//! which visits every slot of a power-of-two table) and compares the key
//! against the arena entry each id names.  The table grows by doubling
//! before it would pass 7/8 full — the load at which `std`'s tables grow, so
//! a table of a given size rehashes where a `HashMap` of it would — and an
//! index costs 4.6–9.1 bytes per key.
//!
//! [`Strings`] is that arena for strings: the text of every string once, in
//! one `String`, with where each ends.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use xseq_telemetry::HeapSize;

/// The marker of a slot that holds no id.
const EMPTY: u32 = u32::MAX;

/// An open-addressed hash index over ids whose keys live elsewhere.
#[derive(Debug, Clone, Default)]
pub(crate) struct IdIndex {
    slots: Vec<u32>,
    len: usize,
}

/// Where a probe ended: at the id whose key matched, or at the empty slot
/// where one with that hash goes.
pub(crate) enum Probe {
    /// The matching id and its slot.
    Found { slot: usize, id: u32 },
    /// The first empty slot of the probe sequence.
    Vacant(usize),
}

impl IdIndex {
    /// Probes for the id whose key `is` accepts.  The table is never full,
    /// so a probe ends at the latest when its steps have visited every slot.
    pub(crate) fn probe(&self, hash: u64, is: impl Fn(u32) -> bool) -> Probe {
        let mask = self.slots.len().wrapping_sub(1);
        // the high bits: a multiplicative hash mixes every key bit into them
        let mut at = hash
            .checked_shr(64 - self.slots.len().trailing_zeros())
            .unwrap_or(0) as usize;
        for step in 1..=self.slots.len() {
            match self.slots.get(at) {
                Some(&id) if id != EMPTY && !is(id) => at = (at + step) & mask,
                Some(&id) if id != EMPTY => return Probe::Found { slot: at, id },
                _ => break,
            }
        }
        Probe::Vacant(at)
    }

    /// The id whose key `is` accepts, if one is stored.
    pub(crate) fn find(&self, hash: u64, is: impl Fn(u32) -> bool) -> Option<u32> {
        match self.probe(hash, is) {
            Probe::Found { id, .. } => Some(id),
            Probe::Vacant(_) => None,
        }
    }

    /// Puts `id` in `slot`, the slot a probe found it or its key in.
    pub(crate) fn replace(&mut self, slot: usize, id: u32) {
        if let Some(s) = self.slots.get_mut(slot) {
            *s = id;
        }
    }

    /// Stores `id` under `hash` in `vacant`, the slot [`IdIndex::probe`]
    /// returned for it.  When the table would pass 7/8 full it first doubles,
    /// re-placing every stored id under `rehash(id)`, the hash of its key.
    pub(crate) fn insert(
        &mut self,
        vacant: usize,
        hash: u64,
        id: u32,
        rehash: impl Fn(u32) -> u64,
    ) {
        let mut slot = vacant;
        if 8 * (self.len + 1) > 7 * self.slots.len() {
            let grown = vec![EMPTY; (2 * self.slots.len()).max(8)];
            let old = std::mem::replace(&mut self.slots, grown);
            for old_id in old.into_iter().filter(|&i| i != EMPTY) {
                let at = self.vacant(rehash(old_id));
                self.replace(at, old_id);
            }
            slot = self.vacant(hash);
        }
        self.replace(slot, id);
        self.len += 1;
    }

    /// The first empty slot of `hash`'s probe sequence.
    fn vacant(&self, hash: u64) -> usize {
        match self.probe(hash, |_| false) {
            Probe::Vacant(slot) | Probe::Found { slot, .. } => slot,
        }
    }
}

/// The slot array, at its power-of-two length.
impl HeapSize for IdIndex {
    fn heap_bytes(&self) -> usize {
        self.slots.heap_bytes()
    }
}

/// Strings interned once each, with ids in first-occurrence order: string
/// `i` is `arena[offs[i]..offs[i + 1]]`, found through an [`IdIndex`] keyed
/// by a [`RandomState`] hash — the strings are chosen by the input.
#[derive(Debug, Clone)]
pub(crate) struct Strings {
    arena: String,
    /// Where each string starts in `arena`, then where the last one ends.
    offs: Vec<u32>,
    index: IdIndex,
    hasher: RandomState,
}

impl Default for Strings {
    fn default() -> Self {
        Strings {
            arena: String::new(),
            offs: vec![0],
            index: IdIndex::default(),
            hasher: RandomState::new(),
        }
    }
}

/// String `id` of an arena and its offsets.
fn slice<'a>(arena: &'a str, offs: &[u32], id: u32) -> Option<&'a str> {
    let i = id as usize;
    arena.get(*offs.get(i)? as usize..*offs.get(i + 1)? as usize)
}

impl Strings {
    /// The string behind `id`.
    pub(crate) fn get(&self, id: u32) -> Option<&str> {
        slice(&self.arena, &self.offs, id)
    }

    /// The id of `s`, if it was interned.
    pub(crate) fn find(&self, s: &str) -> Option<u32> {
        self.index
            .find(self.hasher.hash_one(s), |id| self.get(id) == Some(s))
    }

    /// The id of `s`, minting the next one if it is new.
    ///
    /// # Panics
    /// When the text would pass 4 GiB: the arena is addressed by `u32`
    /// offsets, and a wrapped offset would resolve ids to the wrong text.
    #[expect(clippy::expect_used, reason = "documented: a table holds at most 4 GiB of text")]
    pub(crate) fn intern(&mut self, s: &str) -> u32 {
        let hash = self.hasher.hash_one(s);
        let vacant = match self.index.probe(hash, |id| self.get(id) == Some(s)) {
            Probe::Found { id, .. } => return id,
            Probe::Vacant(slot) => slot,
        };
        let id = self.len() as u32;
        self.arena.push_str(s);
        let end = u32::try_from(self.arena.len()).expect("a table holds at most 4 GiB of text");
        self.offs.push(end);
        let (arena, offs, hasher) = (&self.arena, &self.offs, &self.hasher);
        self.index.insert(vacant, hash, id, |i| {
            hasher.hash_one(slice(arena, offs, i).unwrap_or_default())
        });
        id
    }

    /// Number of interned strings.
    pub(crate) fn len(&self) -> usize {
        self.offs.len() - 1
    }

    /// Frees the arena's and the offsets' spare capacity.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.arena.shrink_to_fit();
        self.offs.shrink_to_fit();
    }
}

/// The text, the offsets and the index — every string once.
impl HeapSize for Strings {
    fn heap_bytes(&self) -> usize {
        self.arena.heap_bytes() + self.offs.heap_bytes() + self.index.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_mint_in_first_occurrence_order_across_growth() {
        let mut s = Strings::default();
        // 700 new strings, then 300 of them again
        for i in (0..700).chain(0..300) {
            let word = format!("w{i}");
            let id = s.intern(&word);
            assert_eq!(id, i);
            assert_eq!(s.get(id), Some(word.as_str()));
        }
        assert_eq!(s.len(), 700);
        assert_eq!(s.find("w699"), Some(699));
        assert_eq!(s.find("w700"), None);
        assert_eq!(s.index.slots.len(), 1024, "700 keys fit under 7/8 of 1024");
    }

    #[test]
    fn colliding_hashes_still_separate_keys() {
        // Every key under one hash: the probe sequence alone separates them.
        let keys: Vec<u32> = (0..100).collect();
        let mut index = IdIndex::default();
        for &k in &keys {
            let Probe::Vacant(slot) = index.probe(7, |id| id == k) else {
                panic!("key {k} was not stored yet");
            };
            index.insert(slot, 7, k, |_| 7);
        }
        for &k in &keys {
            assert_eq!(index.find(7, |id| id == k), Some(k));
        }
        assert_eq!(index.find(7, |id| id == 100), None);
    }

    #[test]
    fn an_empty_index_finds_nothing() {
        let index = IdIndex::default();
        assert_eq!(index.find(0, |_| true), None);
        assert_eq!(index.heap_bytes(), 0);
    }
}
