//! Instructions of the three-address IR.
//!
//! The instruction set mirrors a small RISC machine (the paper evaluates on
//! an ARM/THUMB-like model): three-address ALU operations, register and
//! immediate moves, loads/stores, spill accesses against abstract spill
//! slots, branches, calls, returns, and the paper's `set_last_reg`
//! decode-stage pseudo-instruction (Section 2.3).

use crate::block::BlockId;
use crate::reg::{Reg, RegClass};
use std::fmt;

/// Binary ALU operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Division; division by zero yields zero (simulator convention).
    Div,
    /// Remainder; remainder by zero yields the dividend.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift (by amount masked to 31 bits).
    Shl,
    /// Arithmetic right shift (by amount masked to 31 bits).
    Shr,
}

impl BinOp {
    /// All binary operations, for exhaustive test sweeps.
    pub const ALL: [BinOp; 10] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
    ];

    /// Evaluate the operation on two values with the simulator's wrapping
    /// semantics.
    pub fn eval(self, a: i64, b: i64) -> i64 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            BinOp::Rem => {
                if b == 0 {
                    a
                } else {
                    a.wrapping_rem(b)
                }
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl((b & 31) as u32),
            BinOp::Shr => a.wrapping_shr((b & 31) as u32),
        }
    }
}

impl BinOp {
    /// The mnemonic, as printed and parsed.
    pub fn name(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Branch conditions for [`Inst::CondBr`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less than.
    Lt,
    /// Signed less than or equal.
    Le,
    /// Signed greater than.
    Gt,
    /// Signed greater than or equal.
    Ge,
}

impl Cond {
    /// All conditions, for exhaustive test sweeps.
    pub const ALL: [Cond; 6] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge];

    /// Evaluate the condition on two signed values.
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => a < b,
            Cond::Le => a <= b,
            Cond::Gt => a > b,
            Cond::Ge => a >= b,
        }
    }
}

impl Cond {
    /// The mnemonic suffix, as printed and parsed.
    pub fn name(self) -> &'static str {
        match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Le => "le",
            Cond::Gt => "gt",
            Cond::Ge => "ge",
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The nominal register access order within one instruction (Section 2:
/// "Access order must be agreed upon beforehand to make the encoding and
/// decoding work consistently"; Section 9.4 floats per-opcode orders as
/// future work — the `DstThenSrcs` alternative here is the ablation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum AccessOrder {
    /// The paper's order: `src1, src2, …, dst`.
    #[default]
    SrcsThenDst,
    /// The alternative: `dst, src1, src2, …`.
    DstThenSrcs,
}

/// An abstract spill slot in the function's frame, assigned by the spiller.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpillSlot(pub u32);

impl SpillSlot {
    /// Dense index of the slot.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for SpillSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot{}", self.0)
    }
}

impl fmt::Display for SpillSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// One IR instruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Inst {
    /// `dst = op(lhs, rhs)`.
    Bin {
        /// The operation.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// First source operand.
        lhs: Reg,
        /// Second source operand.
        rhs: Reg,
    },
    /// `dst = op(src, imm)`.
    BinImm {
        /// The operation.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Reg,
        /// Immediate operand.
        imm: i32,
    },
    /// `dst = src` (register move; the coalescers hunt these).
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst = imm`.
    MovImm {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        imm: i32,
    },
    /// Materialize the `index`-th function argument: `dst = arg[index]`.
    ///
    /// Emitted in the entry block for each formal parameter so parameters
    /// have ordinary defs (and are therefore spillable like any value).
    GetParam {
        /// Destination register.
        dst: Reg,
        /// Zero-based argument index.
        index: u8,
    },
    /// `dst = mem[base + offset]`.
    Load {
        /// Destination register.
        dst: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        offset: i32,
    },
    /// `mem[base + offset] = src`.
    Store {
        /// Value to store.
        src: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        offset: i32,
    },
    /// Reload from a spill slot: `dst = frame[slot]`.
    SpillLoad {
        /// Destination register.
        dst: Reg,
        /// Spill slot.
        slot: SpillSlot,
    },
    /// Spill to a slot: `frame[slot] = src`.
    SpillStore {
        /// Value to spill.
        src: Reg,
        /// Spill slot.
        slot: SpillSlot,
    },
    /// Unconditional branch.
    Br {
        /// Branch target.
        target: BlockId,
    },
    /// Conditional branch: `if cond(lhs, rhs) goto then_bb else goto else_bb`.
    CondBr {
        /// Comparison performed.
        cond: Cond,
        /// First comparison operand.
        lhs: Reg,
        /// Second comparison operand.
        rhs: Reg,
        /// Taken target.
        then_bb: BlockId,
        /// Fall-through target.
        else_bb: BlockId,
    },
    /// Direct call. Arguments are read, the return value (if any) written.
    Call {
        /// Index of the callee within the [`crate::Program`].
        callee: u32,
        /// Argument registers, read in order.
        args: Vec<Reg>,
        /// Return-value register, if the callee produces one.
        ret: Option<Reg>,
    },
    /// Return from the function.
    Ret {
        /// Returned value, if any.
        value: Option<Reg>,
    },
    /// The paper's `set_last_reg(value, delay)` pseudo-instruction
    /// (Section 2.3). Consumed at decode; never enters the execute stage.
    SetLastReg {
        /// Register class whose `last_reg` decoder state is set.
        class: RegClass,
        /// New `last_reg` value.
        value: u8,
        /// Number of register fields decoded before the assignment takes
        /// effect (0 = immediately).
        delay: u8,
    },
    /// No operation.
    Nop,
}

impl Inst {
    /// Registers read by this instruction, in the paper's nominal access
    /// order `src1, src2, …` (Section 2).
    pub fn uses(&self) -> Vec<Reg> {
        match self {
            Inst::Bin { lhs, rhs, .. } => vec![*lhs, *rhs],
            Inst::BinImm { src, .. } => vec![*src],
            Inst::Mov { src, .. } => vec![*src],
            Inst::MovImm { .. } | Inst::GetParam { .. } => vec![],
            Inst::Load { base, .. } => vec![*base],
            Inst::Store { src, base, .. } => vec![*src, *base],
            Inst::SpillLoad { .. } => vec![],
            Inst::SpillStore { src, .. } => vec![*src],
            Inst::Br { .. } => vec![],
            Inst::CondBr { lhs, rhs, .. } => vec![*lhs, *rhs],
            Inst::Call { args, .. } => args.clone(),
            Inst::Ret { value } => value.iter().copied().collect(),
            Inst::SetLastReg { .. } | Inst::Nop => vec![],
        }
    }

    /// Registers written by this instruction (the `dst` access, last in the
    /// nominal access order).
    pub fn defs(&self) -> Vec<Reg> {
        match self {
            Inst::Bin { dst, .. }
            | Inst::BinImm { dst, .. }
            | Inst::Mov { dst, .. }
            | Inst::MovImm { dst, .. }
            | Inst::GetParam { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::SpillLoad { dst, .. } => vec![*dst],
            Inst::Call { ret, .. } => ret.iter().copied().collect(),
            _ => vec![],
        }
    }

    /// The full register access sequence of this instruction under the
    /// paper's access order: sources first (in operand order), then the
    /// destination.
    pub fn accesses(&self) -> Vec<Reg> {
        self.accesses_in(AccessOrder::SrcsThenDst)
    }

    /// The access sequence under an explicit [`AccessOrder`].
    pub fn accesses_in(&self, order: AccessOrder) -> Vec<Reg> {
        match order {
            AccessOrder::SrcsThenDst => {
                let mut v = self.uses();
                v.extend(self.defs());
                v
            }
            AccessOrder::DstThenSrcs => {
                let mut v = self.defs();
                v.extend(self.uses());
                v
            }
        }
    }

    /// Rewrite every register operand through `f` (used by allocators to
    /// substitute assignments and by spill rewriting).
    pub fn map_regs(&mut self, mut f: impl FnMut(Reg) -> Reg) {
        match self {
            Inst::Bin { dst, lhs, rhs, .. } => {
                *lhs = f(*lhs);
                *rhs = f(*rhs);
                *dst = f(*dst);
            }
            Inst::BinImm { dst, src, .. } => {
                *src = f(*src);
                *dst = f(*dst);
            }
            Inst::Mov { dst, src } => {
                *src = f(*src);
                *dst = f(*dst);
            }
            Inst::MovImm { dst, .. } | Inst::GetParam { dst, .. } => *dst = f(*dst),
            Inst::Load { dst, base, .. } => {
                *base = f(*base);
                *dst = f(*dst);
            }
            Inst::Store { src, base, .. } => {
                *src = f(*src);
                *base = f(*base);
            }
            Inst::SpillLoad { dst, .. } => *dst = f(*dst),
            Inst::SpillStore { src, .. } => *src = f(*src),
            Inst::CondBr { lhs, rhs, .. } => {
                *lhs = f(*lhs);
                *rhs = f(*rhs);
            }
            Inst::Call { args, ret, .. } => {
                for a in args.iter_mut() {
                    *a = f(*a);
                }
                if let Some(r) = ret {
                    *r = f(*r);
                }
            }
            Inst::Ret { value } => {
                if let Some(r) = value {
                    *r = f(*r);
                }
            }
            Inst::Br { .. } | Inst::SetLastReg { .. } | Inst::Nop => {}
        }
    }

    /// True for control-transfer instructions that must terminate a block.
    pub fn is_terminator(&self) -> bool {
        matches!(self, Inst::Br { .. } | Inst::CondBr { .. } | Inst::Ret { .. })
    }

    /// True for a register-to-register move (a coalescing candidate).
    pub fn is_move(&self) -> bool {
        matches!(self, Inst::Mov { .. })
    }

    /// True for spill traffic (the quantity Figure 11 counts).
    pub fn is_spill(&self) -> bool {
        matches!(self, Inst::SpillLoad { .. } | Inst::SpillStore { .. })
    }

    /// True for `set_last_reg` (the encoding cost Figure 12 counts).
    pub fn is_set_last_reg(&self) -> bool {
        matches!(self, Inst::SetLastReg { .. })
    }

    /// Successor blocks named by this instruction, if it is a terminator.
    pub fn branch_targets(&self) -> Vec<BlockId> {
        match self {
            Inst::Br { target } => vec![*target],
            Inst::CondBr {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
            _ => vec![],
        }
    }

    /// True when the instruction touches memory (spill or program data);
    /// used by the schedulers to model memory-port contention.
    pub fn is_memory(&self) -> bool {
        matches!(
            self,
            Inst::Load { .. }
                | Inst::Store { .. }
                | Inst::SpillLoad { .. }
                | Inst::SpillStore { .. }
        )
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::Bin { op, dst, lhs, rhs } => write!(f, "{dst} = {op} {lhs}, {rhs}"),
            Inst::BinImm { op, dst, src, imm } => write!(f, "{dst} = {op} {src}, #{imm}"),
            Inst::Mov { dst, src } => write!(f, "{dst} = mov {src}"),
            Inst::MovImm { dst, imm } => write!(f, "{dst} = mov #{imm}"),
            Inst::GetParam { dst, index } => write!(f, "{dst} = param {index}"),
            Inst::Load { dst, base, offset } => write!(f, "{dst} = load [{base}+{offset}]"),
            Inst::Store { src, base, offset } => write!(f, "store {src}, [{base}+{offset}]"),
            Inst::SpillLoad { dst, slot } => write!(f, "{dst} = reload {slot}"),
            Inst::SpillStore { src, slot } => write!(f, "spill {src}, {slot}"),
            Inst::Br { target } => write!(f, "br {target}"),
            Inst::CondBr {
                cond,
                lhs,
                rhs,
                then_bb,
                else_bb,
            } => write!(f, "br.{cond} {lhs}, {rhs} -> {then_bb}, {else_bb}"),
            Inst::Call { callee, args, ret } => {
                if let Some(r) = ret {
                    write!(f, "{r} = call f{callee}(")?;
                } else {
                    write!(f, "call f{callee}(")?;
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Inst::Ret { value } => match value {
                Some(v) => write!(f, "ret {v}"),
                None => write!(f, "ret"),
            },
            Inst::SetLastReg {
                class,
                value,
                delay,
            } => write!(f, "set_last_reg.{class}({value}, {delay})"),
            Inst::Nop => write!(f, "nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{PReg, VReg};

    fn v(n: u32) -> Reg {
        Reg::Virt(VReg(n))
    }

    #[test]
    fn binop_eval_basics() {
        assert_eq!(BinOp::Add.eval(2, 3), 5);
        assert_eq!(BinOp::Sub.eval(2, 3), -1);
        assert_eq!(BinOp::Mul.eval(4, 3), 12);
        assert_eq!(BinOp::Div.eval(7, 2), 3);
        assert_eq!(BinOp::Div.eval(7, 0), 0, "division by zero yields zero");
        assert_eq!(BinOp::Rem.eval(7, 3), 1);
        assert_eq!(BinOp::Rem.eval(7, 0), 7, "remainder by zero yields lhs");
        assert_eq!(BinOp::And.eval(0b1100, 0b1010), 0b1000);
        assert_eq!(BinOp::Or.eval(0b1100, 0b1010), 0b1110);
        assert_eq!(BinOp::Xor.eval(0b1100, 0b1010), 0b0110);
        assert_eq!(BinOp::Shl.eval(1, 4), 16);
        assert_eq!(BinOp::Shr.eval(-16, 2), -4);
    }

    #[test]
    fn binop_eval_never_panics_on_extremes() {
        for op in BinOp::ALL {
            for a in [i64::MIN, -1, 0, 1, i64::MAX] {
                for b in [i64::MIN, -1, 0, 1, i64::MAX] {
                    let _ = op.eval(a, b);
                }
            }
        }
    }

    #[test]
    fn cond_eval() {
        assert!(Cond::Eq.eval(1, 1));
        assert!(Cond::Ne.eval(1, 2));
        assert!(Cond::Lt.eval(-1, 0));
        assert!(Cond::Le.eval(0, 0));
        assert!(Cond::Gt.eval(1, 0));
        assert!(Cond::Ge.eval(1, 1));
        assert!(!Cond::Lt.eval(0, 0));
    }

    #[test]
    fn access_order_is_sources_then_dest() {
        let i = Inst::Bin {
            op: BinOp::Add,
            dst: v(0),
            lhs: v(1),
            rhs: v(2),
        };
        assert_eq!(i.accesses(), vec![v(1), v(2), v(0)]);
        assert_eq!(i.uses(), vec![v(1), v(2)]);
        assert_eq!(i.defs(), vec![v(0)]);
    }

    #[test]
    fn store_uses_both_value_and_base() {
        let i = Inst::Store {
            src: v(5),
            base: v(6),
            offset: 8,
        };
        assert_eq!(i.uses(), vec![v(5), v(6)]);
        assert!(i.defs().is_empty());
        assert!(i.is_memory());
    }

    #[test]
    fn map_regs_rewrites_all_operands() {
        let mut i = Inst::Bin {
            op: BinOp::Add,
            dst: v(0),
            lhs: v(1),
            rhs: v(2),
        };
        i.map_regs(|_| Reg::Phys(PReg(9)));
        assert_eq!(
            i.accesses(),
            vec![Reg::Phys(PReg(9)), Reg::Phys(PReg(9)), Reg::Phys(PReg(9))]
        );
    }

    #[test]
    fn map_regs_covers_every_variant_with_regs() {
        let insts = vec![
            Inst::BinImm {
                op: BinOp::Add,
                dst: v(0),
                src: v(1),
                imm: 3,
            },
            Inst::Mov { dst: v(0), src: v(1) },
            Inst::MovImm { dst: v(0), imm: 1 },
            Inst::Load {
                dst: v(0),
                base: v(1),
                offset: 0,
            },
            Inst::Store {
                src: v(0),
                base: v(1),
                offset: 0,
            },
            Inst::SpillLoad {
                dst: v(0),
                slot: SpillSlot(0),
            },
            Inst::SpillStore {
                src: v(0),
                slot: SpillSlot(0),
            },
            Inst::CondBr {
                cond: Cond::Eq,
                lhs: v(0),
                rhs: v(1),
                then_bb: BlockId(0),
                else_bb: BlockId(1),
            },
            Inst::Call {
                callee: 0,
                args: vec![v(0), v(1)],
                ret: Some(v(2)),
            },
            Inst::Ret { value: Some(v(0)) },
        ];
        for mut i in insts {
            let before = i.accesses().len();
            assert!(before > 0, "{i} should access registers");
            i.map_regs(|_| Reg::Phys(PReg(1)));
            for r in i.accesses() {
                assert_eq!(r, Reg::Phys(PReg(1)), "unmapped operand in {i}");
            }
        }
    }

    #[test]
    fn terminator_classification() {
        assert!(Inst::Br { target: BlockId(0) }.is_terminator());
        assert!(Inst::Ret { value: None }.is_terminator());
        assert!(!Inst::Nop.is_terminator());
        assert!(Inst::Mov { dst: v(0), src: v(1) }.is_move());
        assert!(Inst::SpillLoad {
            dst: v(0),
            slot: SpillSlot(1)
        }
        .is_spill());
        assert!(Inst::SetLastReg {
            class: RegClass::Int,
            value: 3,
            delay: 0
        }
        .is_set_last_reg());
    }

    #[test]
    fn branch_targets() {
        let i = Inst::CondBr {
            cond: Cond::Lt,
            lhs: v(0),
            rhs: v(1),
            then_bb: BlockId(4),
            else_bb: BlockId(5),
        };
        assert_eq!(i.branch_targets(), vec![BlockId(4), BlockId(5)]);
        assert!(Inst::Nop.branch_targets().is_empty());
    }

    #[test]
    fn display_formats() {
        let i = Inst::Bin {
            op: BinOp::Add,
            dst: v(0),
            lhs: v(1),
            rhs: v(2),
        };
        assert_eq!(format!("{i}"), "v0 = add v1, v2");
        let s = Inst::SetLastReg {
            class: RegClass::Int,
            value: 5,
            delay: 1,
        };
        assert_eq!(format!("{s}"), "set_last_reg.int(5, 1)");
    }
}
