//! Dense index containers for the IRC engine.
//!
//! The worklist loop pops the *lowest-numbered* node or move at every
//! step (that order is part of the allocator's determinism contract, see
//! DESIGN.md §8), so a plain swap-remove vector cannot replace the old
//! `BTreeSet` worklists. [`OrderedIndexSet`] keeps the ascending pop
//! order while making `insert`/`remove`/`contains` O(1): it is a bitset
//! with a word cursor that only moves forward past cleared prefixes and
//! is pulled back on lower inserts, so `peek_min` is amortized O(1) over
//! a simplify/coalesce/freeze run.
//!
//! [`ColorSet`] is the matching replacement for the select stage's
//! `BTreeSet<u8>` of legal colors: a 256-bit mask whose iteration order
//! is ascending, like the set it replaces.

/// An ordered set of small integer indices with O(1) membership updates
/// and ascending (lowest-first) iteration and min queries.
pub struct OrderedIndexSet {
    words: Vec<u64>,
    len: usize,
    /// Lowest word index that may contain a set bit. Invariant: every
    /// word below `cursor` is zero.
    cursor: usize,
}

impl OrderedIndexSet {
    /// An empty set able to hold indices `0..capacity`.
    pub fn new(capacity: usize) -> OrderedIndexSet {
        OrderedIndexSet {
            words: vec![0; capacity.div_ceil(64)],
            len: 0,
            cursor: 0,
        }
    }

    /// Re-initialize in place to an empty set over `0..capacity`, reusing
    /// the word buffer (the scratch-arena primitive, like
    /// [`dra_ir::BitSet::reset`]).
    pub fn reset(&mut self, capacity: usize) {
        self.words.clear();
        self.words.resize(capacity.div_ceil(64), 0);
        self.len = 0;
        self.cursor = 0;
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Is `i` a member?
    pub fn contains(&self, i: u32) -> bool {
        let i = i as usize;
        self.words[i / 64] >> (i % 64) & 1 != 0
    }

    /// Add `i`; returns whether it was newly inserted.
    pub fn insert(&mut self, i: u32) -> bool {
        let idx = i as usize;
        let w = idx / 64;
        let bit = 1u64 << (idx % 64);
        if self.words[w] & bit != 0 {
            return false;
        }
        self.words[w] |= bit;
        self.len += 1;
        if w < self.cursor {
            self.cursor = w;
        }
        true
    }

    /// Remove `i`; returns whether it was present.
    pub fn remove(&mut self, i: u32) -> bool {
        let idx = i as usize;
        let w = idx / 64;
        let bit = 1u64 << (idx % 64);
        if self.words[w] & bit == 0 {
            return false;
        }
        self.words[w] &= !bit;
        self.len -= 1;
        true
    }

    /// The lowest member, advancing the word cursor past cleared
    /// prefixes. `&mut` because the cursor advance is a (behaviorally
    /// invisible) structural update.
    pub fn peek_min(&mut self) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        loop {
            let w = self.words[self.cursor];
            if w != 0 {
                return Some((self.cursor * 64 + w.trailing_zeros() as usize) as u32);
            }
            self.cursor += 1;
        }
    }

    /// Remove and return the lowest member.
    pub fn pop_min(&mut self) -> Option<u32> {
        let m = self.peek_min()?;
        self.remove(m);
        Some(m)
    }

    /// Ascending iteration over the members.
    pub fn iter(&self) -> OrderedIndexIter<'_> {
        OrderedIndexIter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// Ascending iterator over an [`OrderedIndexSet`].
pub struct OrderedIndexIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for OrderedIndexIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some((self.word_idx * 64 + bit) as u32)
    }
}

/// A set of colors (`u8`), iterated in ascending order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ColorSet {
    words: [u64; 4],
}

impl ColorSet {
    /// The set `{0, 1, .., n-1}` — the legal-color universe for `k`
    /// allocatable registers (callers pass `k as u8`, matching the
    /// `0..k as u8` range the set-based select stage used).
    pub fn below(n: u8) -> ColorSet {
        let mut s = ColorSet { words: [0; 4] };
        for c in 0..n {
            s.insert(c);
        }
        s
    }

    /// Is `c` a member?
    pub fn contains(&self, c: u8) -> bool {
        self.words[c as usize / 64] >> (c % 64) & 1 != 0
    }

    /// Add `c`.
    pub fn insert(&mut self, c: u8) {
        self.words[c as usize / 64] |= 1u64 << (c % 64);
    }

    /// Remove `c`.
    pub fn remove(&mut self, c: u8) {
        self.words[c as usize / 64] &= !(1u64 << (c % 64));
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The lowest member.
    pub fn first(&self) -> Option<u8> {
        self.iter().next()
    }

    /// Ascending iteration.
    pub fn iter(&self) -> ColorIter {
        ColorIter {
            words: self.words,
            word_idx: 0,
            current: self.words[0],
        }
    }
}

/// Ascending iterator over a [`ColorSet`].
pub struct ColorIter {
    words: [u64; 4],
    word_idx: usize,
    current: u64,
}

impl Iterator for ColorIter {
    type Item = u8;

    fn next(&mut self) -> Option<u8> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= 4 {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some((self.word_idx * 64 + bit) as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn insert_remove_contains() {
        let mut s = OrderedIndexSet::new(200);
        assert!(s.is_empty());
        assert!(s.insert(7));
        assert!(!s.insert(7), "double insert reports absent");
        assert!(s.insert(130));
        assert!(s.contains(7));
        assert!(s.contains(130));
        assert!(!s.contains(8));
        assert_eq!(s.len(), 2);
        assert!(s.remove(7));
        assert!(!s.remove(7), "double remove reports absent");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn pop_order_is_ascending() {
        let mut s = OrderedIndexSet::new(300);
        for i in [250u32, 3, 64, 65, 0, 199] {
            s.insert(i);
        }
        let mut got = Vec::new();
        while let Some(m) = s.pop_min() {
            got.push(m);
        }
        assert_eq!(got, vec![0, 3, 64, 65, 199, 250]);
    }

    #[test]
    fn cursor_pulls_back_on_lower_insert() {
        let mut s = OrderedIndexSet::new(300);
        s.insert(280);
        assert_eq!(s.pop_min(), Some(280)); // cursor now at the top
        s.insert(5);
        assert_eq!(s.peek_min(), Some(5));
        s.insert(1);
        assert_eq!(s.pop_min(), Some(1));
        assert_eq!(s.pop_min(), Some(5));
        assert_eq!(s.pop_min(), None);
    }

    #[test]
    fn matches_btreeset_under_random_ops() {
        // Deterministic LCG-driven fuzz against the structure this
        // replaces.
        let mut x = 0x2545F4914F6CDD1Du64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut dense = OrderedIndexSet::new(512);
        let mut model: BTreeSet<u32> = BTreeSet::new();
        for _ in 0..10_000 {
            let i = (rng() % 512) as u32;
            match rng() % 4 {
                0 => assert_eq!(dense.insert(i), model.insert(i)),
                1 => assert_eq!(dense.remove(i), model.remove(&i)),
                2 => assert_eq!(dense.peek_min(), model.iter().next().copied()),
                _ => assert_eq!(dense.contains(i), model.contains(&i)),
            }
            assert_eq!(dense.len(), model.len());
        }
        let all: Vec<u32> = dense.iter().collect();
        let want: Vec<u32> = model.iter().copied().collect();
        assert_eq!(all, want, "iteration is ascending and complete");
    }

    #[test]
    fn color_set_matches_btreeset() {
        let mut dense = ColorSet::below(96);
        let mut model: BTreeSet<u8> = (0..96).collect();
        for c in [3u8, 90, 0, 95, 64, 63] {
            dense.remove(c);
            model.remove(&c);
        }
        dense.insert(90);
        model.insert(90);
        assert_eq!(dense.first(), model.iter().next().copied());
        let got: Vec<u8> = dense.iter().collect();
        let want: Vec<u8> = model.iter().copied().collect();
        assert_eq!(got, want);
        assert!(ColorSet::below(0).iter().next().is_none());
        assert!(ColorSet::below(0).is_empty());
    }
}
