//! Differential-encoding parameters and the modulo arithmetic of Section 2.

/// The `(RegN, DiffN)` pair governing a differential encoding.
///
/// * `reg_n` — number of architected registers addressable through the
///   scheme (the decoder's modulus).
/// * `diff_n` — number of distinct differences the operand field can hold;
///   `diff_w = ceil(log2(diff_n))` bits. When `diff_n == reg_n` the scheme
///   degenerates to direct encoding (every difference fits).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DiffParams {
    reg_n: u16,
    diff_n: u16,
}

impl DiffParams {
    /// Create parameters.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < diff_n <= reg_n <= 256` — encoding more
    /// differences than registers is meaningless, `diff_n == 0` cannot
    /// encode anything at all, and register numbers are `u8`
    /// ([`dra_ir::PReg`]), so no register at or above 256 can exist.
    pub fn new(reg_n: u16, diff_n: u16) -> Self {
        assert!(diff_n > 0, "DiffN must be positive");
        assert!(
            reg_n <= 256,
            "RegN ({reg_n}) must not exceed 256: register numbers are u8"
        );
        assert!(
            diff_n <= reg_n,
            "DiffN ({diff_n}) must not exceed RegN ({reg_n})"
        );
        DiffParams { reg_n, diff_n }
    }

    /// Direct encoding of `reg_n` registers (`DiffN == RegN`).
    pub fn direct(reg_n: u16) -> Self {
        DiffParams::new(reg_n, reg_n)
    }

    /// The paper's low-end configuration: `RegN = 12`, `DiffN = 8`
    /// (3-bit fields, as in the Section 10.1 evaluation).
    pub fn lowend_12_8() -> Self {
        DiffParams::new(12, 8)
    }

    /// `RegN`.
    #[inline]
    pub fn reg_n(self) -> u16 {
        self.reg_n
    }

    /// `DiffN`.
    #[inline]
    pub fn diff_n(self) -> u16 {
        self.diff_n
    }

    /// `RegW = ceil(log2 RegN)` — bits a direct encoding would need.
    pub fn reg_w(self) -> u32 {
        ceil_log2(self.reg_n as u32)
    }

    /// `DiffW = ceil(log2 DiffN)` — bits the differential field needs.
    pub fn diff_w(self) -> u32 {
        ceil_log2(self.diff_n as u32)
    }

    /// True when the scheme is plain direct encoding.
    pub fn is_direct(self) -> bool {
        self.diff_n == self.reg_n
    }

    /// Equation (1): the encoded difference from register `prev` to `cur`.
    ///
    /// # Panics
    ///
    /// Panics if either register number is `>= RegN`.
    #[inline]
    pub fn encode(self, prev: u8, cur: u8) -> u16 {
        assert!((prev as u16) < self.reg_n, "register {prev} out of RegN");
        assert!((cur as u16) < self.reg_n, "register {cur} out of RegN");
        self.wrap(cur as i32 - prev as i32) as u16
    }

    /// `d mod RegN` for a raw difference `d = cur − prev` of two register
    /// numbers below `RegN`: `d` lies in `(−RegN, RegN)`, so one
    /// conditional add of `RegN` is the Euclidean remainder, with no
    /// division. Does not check the numbers against `RegN`; callers other
    /// than [`Self::encode`] must have done so (the remap kernels check
    /// each register vector once, in `AdjacencyIndex::perm_cost`).
    #[inline]
    pub(crate) fn wrap(self, d: i32) -> i32 {
        let reg_n = self.reg_n as i32;
        debug_assert!(-reg_n < d && d < reg_n, "difference {d} out of RegN");
        if d < 0 {
            d + reg_n
        } else {
            d
        }
    }

    /// Negated condition (3) on a raw difference `cur − prev` (see
    /// [`Self::wrap`]): does the transition need a `set_last_reg` repair?
    #[inline]
    pub(crate) fn violates(self, d: i32) -> bool {
        self.wrap(d) >= self.diff_n as i32
    }

    /// Equation (2): decode a difference given the previous register.
    ///
    /// # Panics
    ///
    /// Panics if `prev >= RegN` or `diff >= RegN`.
    #[inline]
    pub fn decode(self, prev: u8, diff: u16) -> u8 {
        assert!((prev as u16) < self.reg_n, "register {prev} out of RegN");
        assert!(diff < self.reg_n, "difference {diff} out of RegN");
        ((prev as u16 + diff) % self.reg_n) as u8
    }

    /// Condition (3): is the `prev -> cur` transition encodable without a
    /// `set_last_reg` repair?
    #[inline]
    pub fn in_range(self, prev: u8, cur: u8) -> bool {
        self.encode(prev, cur) < self.diff_n
    }

    /// Encoding-space saving of the differential scheme over direct
    /// encoding, in bits per register field (`RegW - DiffW`).
    pub fn bits_saved_per_field(self) -> u32 {
        self.reg_w().saturating_sub(self.diff_w())
    }
}

fn ceil_log2(n: u32) -> u32 {
    assert!(n > 0);
    32 - (n - 1).leading_zeros().min(32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_section2_example() {
        // "access registers R1, R3, and R8 in that order, the encoded
        //  differences are then 2 (from R1 to R3) and 5 (from R3 to R8)."
        let p = DiffParams::new(16, 8);
        assert_eq!(p.encode(1, 3), 2);
        assert_eq!(p.encode(3, 8), 5);
    }

    #[test]
    fn figure1_wraparound() {
        // Figure 1: differences are clockwise hop counts on the circle.
        let p = DiffParams::new(8, 4);
        assert_eq!(p.encode(6, 1), 3, "wraps past 0");
        assert_eq!(p.decode(6, 3), 1);
        assert_eq!(p.encode(1, 1), 0, "same register is difference 0");
    }

    #[test]
    fn modulo_definition_examples() {
        // Definition 1's examples: 4 mod 3 = 1, -1 mod 3 = 2.
        let p = DiffParams::direct(3);
        assert_eq!(p.encode(0, 1), 1); // 4 mod 3 conceptually
        assert_eq!(p.encode(1, 0), 2); // -1 mod 3 = 2
    }

    #[test]
    fn encode_decode_roundtrip_exhaustive() {
        for reg_n in [2u16, 3, 4, 8, 12, 16, 32, 64] {
            let p = DiffParams::direct(reg_n);
            for prev in 0..reg_n as u8 {
                for cur in 0..reg_n as u8 {
                    let d = p.encode(prev, cur);
                    assert!(d < reg_n);
                    assert_eq!(p.decode(prev, d), cur, "RegN={reg_n} {prev}->{cur}");
                }
            }
        }
    }

    #[test]
    fn widths() {
        let p = DiffParams::new(12, 8);
        assert_eq!(p.reg_w(), 4, "12 registers need 4 bits directly");
        assert_eq!(p.diff_w(), 3, "8 differences need 3 bits");
        assert_eq!(p.bits_saved_per_field(), 1);

        // Figure 2's example: 4 registers, 2 differences => 50% saving.
        let p = DiffParams::new(4, 2);
        assert_eq!(p.reg_w(), 2);
        assert_eq!(p.diff_w(), 1);
        assert_eq!(p.bits_saved_per_field(), 1);
    }

    #[test]
    fn direct_encoding_never_out_of_range() {
        let p = DiffParams::direct(8);
        assert!(p.is_direct());
        for a in 0..8 {
            for b in 0..8 {
                assert!(p.in_range(a, b));
            }
        }
    }

    #[test]
    fn in_range_matches_condition_3() {
        let p = DiffParams::lowend_12_8();
        assert!(!p.is_direct());
        for a in 0..12u8 {
            for b in 0..12u8 {
                let d = (b as i32 - a as i32).rem_euclid(12);
                assert_eq!(p.in_range(a, b), d < 8, "{a}->{b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "must not exceed RegN")]
    fn diff_n_larger_than_reg_n_rejected() {
        let _ = DiffParams::new(8, 9);
    }

    #[test]
    fn encode_equals_rem_euclid_exhaustive() {
        for reg_n in 1..=256u16 {
            let p = DiffParams::direct(reg_n);
            for prev in 0..reg_n {
                for cur in 0..reg_n {
                    let want = (cur as i32 - prev as i32).rem_euclid(reg_n as i32) as u16;
                    assert_eq!(
                        p.encode(prev as u8, cur as u8),
                        want,
                        "RegN={reg_n} {prev}->{cur}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "must not exceed 256")]
    fn reg_n_above_256_rejected() {
        let _ = DiffParams::new(257, 8);
    }

    #[test]
    #[should_panic(expected = "out of RegN")]
    fn encode_rejects_oversized_register() {
        DiffParams::new(8, 4).encode(8, 0);
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
        assert_eq!(ceil_log2(128), 7);
    }
}
