//! Per-thread scratch arenas for the allocation-heavy analyses.
//!
//! Corpus-scale batch compilation (10k+ functions per run) spends a
//! measurable fraction of its time in the allocator: every compile builds
//! fresh liveness bitset vectors, interference adjacency, IRC worklist
//! arrays, and remap incidence indexes, then drops them. The pools here
//! let those buffers be *recycled* across compiles on the same worker
//! thread, so steady-state compiles allocate O(1) instead of
//! O(per-function).
//!
//! Ownership rules (also documented in DESIGN.md §13):
//!
//! - Pools are **thread-local**: a batch worker only ever sees buffers it
//!   recycled itself, so there is no cross-thread state and determinism
//!   is untouched.
//! - Every buffer taken from a pool is **fully re-initialized** before
//!   use ([`crate::BitSet::reset`], `clear` + `resize`), so a pooled
//!   buffer is observationally identical to a fresh allocation, whatever
//!   capacity or contents an earlier compile on the thread left behind.
//! - Recycling is **opt-in at the call site**: an analysis result that
//!   escapes to a caller (e.g. [`crate::Liveness`]) is only returned to
//!   the pool through an explicit `recycle()` once the caller is done.
//!   Dropping it instead is always safe, merely slower.
//! - Pools are **capped** per kind, so one outlier function cannot pin
//!   unbounded memory; a buffer returned to a full pool is dropped.

use crate::bitset::BitSet;
use std::cell::RefCell;

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
}

/// Pool caps: keep at most this many carcasses of each kind per thread so
/// one outlier function cannot pin unbounded memory.
const MAX_SETS: usize = 256;
const MAX_SET_VECS: usize = 16;

#[derive(Default)]
struct Pool {
    /// Individual bitset carcasses (any capacity; `reset` on take).
    sets: Vec<BitSet>,
    /// Emptied `Vec<BitSet>` carcasses (spines for per-block vectors).
    set_vecs: Vec<Vec<BitSet>>,
}

/// Take an empty bitset of exactly `capacity` from the thread pool.
pub fn take_set(capacity: usize) -> BitSet {
    POOL.with(|p| match p.borrow_mut().sets.pop() {
        Some(mut s) => {
            s.reset(capacity);
            s
        }
        None => BitSet::new(capacity),
    })
}

/// Return a bitset to the thread pool (dropped when the pool is full).
pub fn put_set(s: BitSet) {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.sets.len() < MAX_SETS {
            p.sets.push(s);
        }
    });
}

/// Take an empty `Vec<BitSet>` spine with capacity for at least `n`.
pub fn take_set_vec(n: usize) -> Vec<BitSet> {
    POOL.with(|p| match p.borrow_mut().set_vecs.pop() {
        Some(mut v) => {
            debug_assert!(v.is_empty());
            v.reserve(n);
            v
        }
        None => Vec::with_capacity(n),
    })
}

/// Return a `Vec<BitSet>` to the pool: its elements go back as individual
/// set carcasses and the emptied spine is kept for reuse.
pub fn put_set_vec(mut v: Vec<BitSet>) {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        for s in v.drain(..) {
            if p.sets.len() < MAX_SETS {
                p.sets.push(s);
            }
        }
        if p.set_vecs.len() < MAX_SET_VECS {
            p.set_vecs.push(v);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_set_is_fresh() {
        let mut s = take_set(70);
        s.insert(3);
        s.insert(69);
        put_set(s);
        let t = take_set(100);
        assert_eq!(t.capacity(), 100);
        assert!(t.is_empty(), "recycled set must come back empty");
        assert!(!t.contains(3));
    }

    #[test]
    fn pooled_vec_round_trip() {
        let mut v = take_set_vec(4);
        for _ in 0..4 {
            v.push(take_set(10));
        }
        put_set_vec(v);
        let w = take_set_vec(2);
        assert!(w.is_empty());
    }
}
