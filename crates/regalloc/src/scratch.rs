//! Per-thread buffer pools for the allocator's hot structures.
//!
//! The interference graph and the dense IRC engine rebuild large indexed
//! arrays (bit-matrix, adjacency lists, degree/weight vectors, CSR move
//! lists) for every function — and again for every spill round. At corpus
//! scale that allocation churn dominates; these pools recycle the buffers
//! across compiles on the same worker thread.
//!
//! Ownership rules are the same as in `dra_ir::scratch` (and DESIGN.md
//! §13): pools are thread-local and capped, and every taken buffer is
//! fully re-initialized, so a pooled buffer is indistinguishable from a
//! fresh one.

use crate::interference::MoveRef;
use dra_ir::bitset::BitMatrix;
use std::cell::RefCell;

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
}

// Per-kind carcass caps: generous enough that one batch worker's steady
// state never drops a buffer, small enough that an outlier function
// cannot pin unbounded memory.
const CAP_SMALL: usize = 8;
const CAP_VECS: usize = 32;

#[derive(Default)]
struct Pool {
    matrices: Vec<BitMatrix>,
    adjs: Vec<Vec<Vec<u32>>>,
    u32s: Vec<Vec<u32>>,
    f64s: Vec<Vec<f64>>,
    moves: Vec<Vec<MoveRef>>,
}

fn with_pool<T>(f: impl FnOnce(&mut Pool) -> T) -> T {
    POOL.with(|p| f(&mut p.borrow_mut()))
}

/// Take an empty triangular bit-matrix over `0..n`.
pub fn take_matrix(n: usize) -> BitMatrix {
    with_pool(|p| match p.matrices.pop() {
        Some(mut m) => {
            m.reset(n);
            m
        }
        None => BitMatrix::new(n),
    })
}

/// Return a bit-matrix to the pool.
pub fn put_matrix(m: BitMatrix) {
    with_pool(|p| {
        if p.matrices.len() < CAP_SMALL {
            p.matrices.push(m);
        }
    });
}

/// Take an adjacency-list spine of exactly `n` empty rows; recycled rows
/// keep their capacity, which is where most of the win comes from.
pub fn take_adj(n: usize) -> Vec<Vec<u32>> {
    with_pool(|p| match p.adjs.pop() {
        Some(mut a) => {
            a.truncate(n);
            for row in a.iter_mut() {
                row.clear();
            }
            a.resize_with(n, Vec::new);
            a
        }
        None => vec![Vec::new(); n],
    })
}

/// Return an adjacency-list spine to the pool.
pub fn put_adj(a: Vec<Vec<u32>>) {
    with_pool(|p| {
        if p.adjs.len() < CAP_SMALL {
            p.adjs.push(a);
        }
    });
}

/// Take an empty `Vec<u32>`.
pub fn take_u32() -> Vec<u32> {
    with_pool(|p| p.u32s.pop().unwrap_or_default())
}

/// Take a `Vec<u32>` of `n` zeros.
pub fn take_u32_zeroed(n: usize) -> Vec<u32> {
    let mut v = take_u32();
    v.clear();
    v.resize(n, 0);
    v
}

/// Return a `Vec<u32>` to the pool (cleared on take, not here).
pub fn put_u32(mut v: Vec<u32>) {
    v.clear();
    with_pool(|p| {
        if p.u32s.len() < CAP_VECS {
            p.u32s.push(v);
        }
    });
}

/// Take a `Vec<f64>` of `n` zeros.
pub fn take_f64_zeroed(n: usize) -> Vec<f64> {
    let mut v = with_pool(|p| p.f64s.pop().unwrap_or_default());
    v.clear();
    v.resize(n, 0.0);
    v
}

/// Return a `Vec<f64>` to the pool.
pub fn put_f64(mut v: Vec<f64>) {
    v.clear();
    with_pool(|p| {
        if p.f64s.len() < CAP_SMALL {
            p.f64s.push(v);
        }
    });
}

/// Take an empty move list.
pub fn take_moves() -> Vec<MoveRef> {
    with_pool(|p| p.moves.pop().unwrap_or_default())
}

/// Return a move list to the pool.
pub fn put_moves(mut v: Vec<MoveRef>) {
    v.clear();
    with_pool(|p| {
        if p.moves.len() < CAP_SMALL {
            p.moves.push(v);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycled_buffers_come_back_fresh() {
        let mut m = take_matrix(10);
        m.set(1, 2);
        put_matrix(m);
        let m2 = take_matrix(20);
        assert_eq!(m2.dim(), 20);
        assert!(m2.is_empty());

        let mut a = take_adj(3);
        a[0].push(7);
        put_adj(a);
        let a2 = take_adj(5);
        assert_eq!(a2.len(), 5);
        assert!(a2.iter().all(|r| r.is_empty()));

        put_u32(vec![1, 2, 3]);
        assert!(take_u32().is_empty());
        assert_eq!(take_u32_zeroed(4), vec![0; 4]);
        assert_eq!(take_f64_zeroed(2), vec![0.0; 2]);
    }
}
