//! The functional + timing executor for the low-end machine.
//!
//! Executes fully-allocated [`Program`]s instruction by instruction,
//! maintaining architectural state (register files, memory, a call stack)
//! while charging cycles per the 5-stage in-order model:
//!
//! * every instruction word fetched goes through the I-cache;
//! * loads/stores (including spill traffic) go through the D-cache;
//! * `set_last_reg` occupies a fetch/decode slot (1 cycle + I-cache) but
//!   never executes — the paper's "removed after decoding";
//! * taken branches, calls, returns, multiplies and divides pay their
//!   configured penalties; a load feeding the next instruction pays the
//!   load-use interlock.
//!
//! Each activation gets a fresh register file and a private spill-slot
//! frame (see DESIGN.md §4 — calling-convention pressure is modeled through
//! the allocator's `call_clobbers` instead of architectural clobbering).
//!
//! [`simulate`] lowers the program once into a flat array of decoded ops
//! (operands resolved to register numbers, I-cache address and word count,
//! the mask of registers read, branch targets as global block ids), one
//! run per block followed by a "fell off the end" sentinel, and then runs
//! that array in a single loop. An instruction naming a virtual register
//! lowers to a fault op that fails only when executed, with the error of
//! the tree-walking interpreter kept in [`mod@reference`], so a malformed
//! instruction on a path never taken costs nothing. Where that interpreter
//! panics, the executor returns [`SimError::ControlError`] at the same
//! point: for a register numbered 64 or higher or a call to a missing
//! function when the instruction executes; for a branch to a missing block
//! when control arrives there (a placeholder block whose one op fails
//! after the step-limit check, before fetch), so the valid side of a
//! half-bad conditional branch runs normally.

pub mod reference;

use crate::cache::Cache;
use crate::lowend::LowEndConfig;
use dra_ir::{BinOp, BlockId, Cond, Inst, Program, Reg};
use dra_isa::words_for_inst;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Simulation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The step cap was exceeded (runaway program).
    StepLimit {
        /// The configured cap.
        max_steps: u64,
    },
    /// An instruction referenced a virtual register.
    VirtualRegister {
        /// Function index.
        func: u32,
    },
    /// Return from the entry activation with a pending call stack
    /// underflow or malformed control transfer.
    ControlError {
        /// Description.
        what: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::StepLimit { max_steps } => {
                write!(f, "exceeded {max_steps} simulated instructions")
            }
            SimError::VirtualRegister { func } => {
                write!(f, "unallocated virtual register in f{func}")
            }
            SimError::ControlError { what } => write!(f, "control error: {what}"),
        }
    }
}

impl Error for SimError {}

/// Measured outcome of one simulation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimResult {
    /// Total cycles.
    pub cycles: u64,
    /// Instructions fetched (including `set_last_reg`).
    pub insts_fetched: u64,
    /// Instructions executed (excluding `set_last_reg`).
    pub insts_executed: u64,
    /// Dynamic spill loads + stores.
    pub spill_accesses: u64,
    /// Dynamic `set_last_reg` count.
    pub set_last_regs: u64,
    /// I-cache misses.
    pub icache_misses: u64,
    /// D-cache misses.
    pub dcache_misses: u64,
    /// Value returned by the entry function (if any).
    pub ret_value: Option<i64>,
    /// Dynamic block trace of the entry function's outermost activation
    /// (capped; used by encoding round-trip tests).
    pub entry_trace: Vec<BlockId>,
    /// Execution count per `(function, block)` — the profile that
    /// Section 4's "profile information could be incorporated" feeds back
    /// into the adjacency-graph weights.
    pub block_counts: HashMap<(u32, u32), u64>,
}

impl SimResult {
    /// The deterministic scalar measurements as `(name, value)` pairs,
    /// named for the telemetry registry (`sim.*`). The simulator is fully
    /// deterministic, so these are pure functions of the simulated
    /// program and machine configuration.
    pub fn counters(&self) -> [(&'static str, u64); 7] {
        [
            ("sim.cycles", self.cycles),
            ("sim.insts_fetched", self.insts_fetched),
            ("sim.insts_executed", self.insts_executed),
            ("sim.spill_accesses", self.spill_accesses),
            ("sim.set_last_regs", self.set_last_regs),
            ("sim.icache_misses", self.icache_misses),
            ("sim.dcache_misses", self.dcache_misses),
        ]
    }
}

const TRACE_CAP: usize = 4096;
/// Each activation's spill frame is this many bytes apart on the stack.
const FRAME_BYTES: u64 = 1 << 12;
/// Stack area base address (grows upward, frames never freed-and-reused
/// within one simulation for address stability).
const STACK_BASE: u64 = 0x4000_0000;
/// Registers in one activation's register file.
const REGS: usize = 64;
/// "No register" in an op's optional register operand.
const NO_REG: u8 = u8::MAX;
/// "No branch" in the executor's next-block slot.
const NO_BLOCK: u32 = u32::MAX;

/// What a decoded op does.
#[derive(Clone, Copy, Debug)]
enum Kind {
    SetLastReg,
    Bin(BinOp),
    BinImm(BinOp),
    Mov,
    MovImm,
    GetParam,
    Load,
    Store,
    SpillLoad,
    SpillStore,
    Br,
    CondBr(Cond),
    Call,
    Ret,
    Nop,
    /// Executing this op fails with `faults[imm]`.
    Fault,
    /// Control reached the end of block `t2` of function `t1` without a
    /// terminator. Checked before fetch; occupies no code address.
    FellOff,
    /// Control reached block `t2` of function `t1`, which does not exist:
    /// the one op of a placeholder block that a branch to a missing block
    /// targets. Checked before fetch; occupies no code address.
    NoBlock,
}

/// One pre-decoded instruction. Register operands are numbers below
/// [`REGS`] (anything else lowered to [`Kind::Fault`]); the meaning of
/// `dst`, `a`, `b`, `imm`, `t1` and `t2` depends on `kind`.
#[derive(Clone, Copy, Debug)]
struct Op {
    kind: Kind,
    /// Destination register (`Call`: the return-value register or
    /// [`NO_REG`]).
    dst: u8,
    /// First source register (`Ret`: the returned register or [`NO_REG`]).
    a: u8,
    /// Second source register.
    b: u8,
    /// Instruction words fetched through the I-cache.
    words: u32,
    /// Fixed execute cycles beyond the base CPI.
    extra: u64,
    /// Bit `r` set when the op reads register `r` (load-use interlock).
    uses: u64,
    /// Byte address of the first instruction word.
    addr: u64,
    /// Immediate, memory offset, `slot * 8`, parameter index, the start of
    /// a call's argument registers in `call_args`, or the fault index.
    imm: i64,
    /// Branch target / callee entry as a global block id (`FellOff`,
    /// `NoBlock`: the function index).
    t1: u32,
    /// Fall-through target as a global block id (`Call`: the argument
    /// count; `FellOff`, `NoBlock`: the block index).
    t2: u32,
}

impl Op {
    fn new(kind: Kind) -> Op {
        Op {
            kind,
            dst: NO_REG,
            a: NO_REG,
            b: NO_REG,
            words: 0,
            extra: 0,
            uses: 0,
            addr: 0,
            imm: 0,
            t1: 0,
            t2: 0,
        }
    }
}

/// A program lowered for execution.
struct Lowered {
    ops: Vec<Op>,
    /// Per global block id: index of its first op.
    block_start: Vec<u32>,
    /// Per global block id: `(function, block)` in the source program.
    block_name: Vec<(u32, u32)>,
    /// Argument registers of every call, concatenated.
    call_args: Vec<u8>,
    /// The errors [`Kind::Fault`] ops raise.
    faults: Vec<SimError>,
    /// Global id of the entry function's entry block.
    entry: u32,
}

/// Global block ids: blocks numbered in function, then block order, then
/// one placeholder per branch to a missing block.
struct BlockIds<'a> {
    p: &'a Program,
    first: Vec<u32>,
    /// Number of blocks in `p`.
    blocks: u32,
    /// `(function, block)` of each placeholder, in id order.
    missing: Vec<(u32, u32)>,
}

impl BlockIds<'_> {
    /// Global id of block `block` of function `func`, if both exist.
    fn of(&self, func: u32, block: BlockId) -> Option<u32> {
        let f = self.p.funcs.get(func as usize)?;
        (block.index() < f.blocks.len()).then(|| self.first[func as usize] + block.0)
    }

    /// Global id of branch target `block` in function `func`: the block's
    /// own id, or a fresh placeholder that fails on arrival.
    fn target(&mut self, func: u32, block: BlockId) -> u32 {
        self.of(func, block).unwrap_or_else(|| {
            self.missing.push((func, block.0));
            self.blocks + self.missing.len() as u32 - 1
        })
    }

    /// Global id of function `func`'s entry block, if it exists.
    fn entry(&self, func: u32) -> Option<u32> {
        self.of(func, self.p.funcs.get(func as usize)?.entry)
    }
}

/// Lower `p` into a flat op array, laying code out in function, block and
/// instruction order (the address map the I-cache sees).
fn lower(p: &Program, cfg: &LowEndConfig) -> Result<Lowered, SimError> {
    let mut ids = BlockIds {
        p,
        first: Vec::with_capacity(p.funcs.len()),
        blocks: 0,
        missing: Vec::new(),
    };
    for f in &p.funcs {
        ids.first.push(ids.blocks);
        ids.blocks += f.blocks.len() as u32;
    }
    let n_blocks = ids.blocks;
    let mut l = Lowered {
        ops: Vec::with_capacity(p.num_insts() + n_blocks as usize),
        block_start: Vec::with_capacity(n_blocks as usize),
        block_name: Vec::with_capacity(n_blocks as usize),
        call_args: Vec::new(),
        faults: Vec::new(),
        entry: ids.entry(p.entry).ok_or_else(|| SimError::ControlError {
            what: format!("missing entry function f{}", p.entry),
        })?,
    };
    let word_bytes = (cfg.geometry.word_bits / 8) as u64;
    let mut addr = 0u64;
    for (fi, f) in p.funcs.iter().enumerate() {
        let fi = fi as u32;
        for (bi, b) in f.blocks.iter().enumerate() {
            l.block_start.push(l.ops.len() as u32);
            l.block_name.push((fi, bi as u32));
            for inst in &b.insts {
                let words = words_for_inst(inst, &cfg.geometry);
                let mut op = decode(inst, fi, cfg, &mut ids, &mut l.call_args).unwrap_or_else(|e| {
                    let mut op = Op::new(Kind::Fault);
                    op.imm = l.faults.len() as i64;
                    l.faults.push(e);
                    op
                });
                op.words = words;
                op.addr = addr;
                addr += words as u64 * word_bytes;
                l.ops.push(op);
            }
            let mut end = Op::new(Kind::FellOff);
            (end.t1, end.t2) = (fi, bi as u32);
            l.ops.push(end);
        }
    }
    for &(fi, bi) in &ids.missing {
        l.block_start.push(l.ops.len() as u32);
        l.block_name.push((fi, bi));
        let mut arrive = Op::new(Kind::NoBlock);
        (arrive.t1, arrive.t2) = (fi, bi);
        l.ops.push(arrive);
    }
    Ok(l)
}

/// Decode one instruction of function `func`, or the error executing it
/// must raise.
fn decode(
    inst: &Inst,
    func: u32,
    cfg: &LowEndConfig,
    ids: &mut BlockIds<'_>,
    call_args: &mut Vec<u8>,
) -> Result<Op, SimError> {
    let reg = |r: Reg| -> Result<u8, SimError> {
        match r {
            Reg::Phys(pr) if pr.index() < REGS => Ok(pr.number()),
            Reg::Phys(pr) => Err(SimError::ControlError {
                what: format!("register {pr} out of range in f{func}"),
            }),
            Reg::Virt(_) => Err(SimError::VirtualRegister { func }),
        }
    };
    // The registers read, for the load-use interlock.
    let mut uses = 0u64;
    for r in inst.uses() {
        uses |= 1 << reg(r)?;
    }
    let mut op = match *inst {
        Inst::SetLastReg { .. } => Op::new(Kind::SetLastReg),
        Inst::Bin { op, dst, lhs, rhs } => Op {
            dst: reg(dst)?,
            a: reg(lhs)?,
            b: reg(rhs)?,
            extra: op_latency(cfg, op),
            ..Op::new(Kind::Bin(op))
        },
        Inst::BinImm { op, dst, src, imm } => Op {
            dst: reg(dst)?,
            a: reg(src)?,
            imm: imm as i64,
            extra: op_latency(cfg, op),
            ..Op::new(Kind::BinImm(op))
        },
        Inst::Mov { dst, src } => Op {
            dst: reg(dst)?,
            a: reg(src)?,
            ..Op::new(Kind::Mov)
        },
        Inst::MovImm { dst, imm } => Op {
            dst: reg(dst)?,
            imm: imm as i64,
            ..Op::new(Kind::MovImm)
        },
        Inst::GetParam { dst, index } => Op {
            dst: reg(dst)?,
            imm: index as i64,
            ..Op::new(Kind::GetParam)
        },
        Inst::Load { dst, base, offset } => Op {
            dst: reg(dst)?,
            a: reg(base)?,
            imm: offset as i64,
            extra: cfg.load_extra,
            ..Op::new(Kind::Load)
        },
        Inst::Store { src, base, offset } => Op {
            a: reg(src)?,
            b: reg(base)?,
            imm: offset as i64,
            extra: cfg.store_extra,
            ..Op::new(Kind::Store)
        },
        Inst::SpillLoad { dst, slot } => Op {
            dst: reg(dst)?,
            imm: slot.0 as i64 * 8,
            extra: cfg.load_extra,
            ..Op::new(Kind::SpillLoad)
        },
        Inst::SpillStore { src, slot } => Op {
            a: reg(src)?,
            imm: slot.0 as i64 * 8,
            extra: cfg.store_extra,
            ..Op::new(Kind::SpillStore)
        },
        Inst::Br { target: t } => Op {
            t1: ids.target(func, t),
            extra: cfg.taken_branch_penalty.saturating_sub(1),
            ..Op::new(Kind::Br)
        },
        Inst::CondBr {
            cond,
            lhs,
            rhs,
            then_bb,
            else_bb,
        } => Op {
            a: reg(lhs)?,
            b: reg(rhs)?,
            t1: ids.target(func, then_bb),
            t2: ids.target(func, else_bb),
            ..Op::new(Kind::CondBr(cond))
        },
        Inst::Call {
            callee,
            ref args,
            ret,
        } => {
            let start = call_args.len();
            for &r in args {
                call_args.push(reg(r)?);
            }
            let dst = ret.map_or(Ok(NO_REG), reg)?;
            let entry = ids.entry(callee).ok_or_else(|| SimError::ControlError {
                what: format!("call to missing function f{callee} in f{func}"),
            })?;
            Op {
                dst,
                imm: start as i64,
                t1: entry,
                t2: args.len() as u32,
                extra: cfg.call_penalty,
                ..Op::new(Kind::Call)
            }
        }
        Inst::Ret { value } => Op {
            a: value.map_or(Ok(NO_REG), reg)?,
            extra: cfg.call_penalty,
            ..Op::new(Kind::Ret)
        },
        Inst::Nop => Op::new(Kind::Nop),
    };
    op.uses = uses;
    Ok(op)
}

/// Execute `p` from its entry function with `args`.
///
/// # Errors
///
/// See [`SimError`].
pub fn simulate(p: &Program, cfg: &LowEndConfig, args: &[i64]) -> Result<SimResult, SimError> {
    let l = lower(p, cfg)?;
    let word_bytes = (cfg.geometry.word_bits / 8) as u64;
    let mut icache = Cache::new(cfg.icache);
    let mut dcache = Cache::new(cfg.dcache);
    let mut mem: HashMap<u64, i64> = HashMap::new();
    let mut res = SimResult::default();
    let mut counts = vec![0u64; l.block_start.len()];

    // The current activation: its register file is `regs[base..base + REGS]`
    // and its arguments `arg_stack[args_start..args_start + args_len]`.
    let mut regs = vec![0i64; REGS];
    let mut base = 0usize;
    let mut arg_stack = args.to_vec();
    let (mut args_start, mut args_len) = (0usize, args.len());
    let mut frame_base = STACK_BASE;
    let mut next_frame = STACK_BASE + FRAME_BYTES;
    let mut callers: Vec<Caller> = Vec::new();
    let mut pc = l.block_start[l.entry as usize] as usize;
    counts[l.entry as usize] += 1;
    res.entry_trace.push(BlockId(l.block_name[l.entry as usize].1));

    // Load-use interlock: bit `r` set when the previous op loaded `r`.
    let mut pending_load: u64 = 0;
    // Fractional accounting for decode-removed set_last_reg slots.
    let mut slr_budget: u64 = 0;

    loop {
        if res.insts_fetched >= cfg.max_steps {
            return Err(SimError::StepLimit {
                max_steps: cfg.max_steps,
            });
        }
        let op = l.ops[pc];
        match op.kind {
            Kind::FellOff => {
                let f = &p.funcs[op.t1 as usize];
                return Err(SimError::ControlError {
                    what: format!("fell off the end of {} {}", f.name, BlockId(op.t2)),
                });
            }
            Kind::NoBlock => {
                return Err(SimError::ControlError {
                    what: format!("branch to missing block {} in f{}", BlockId(op.t2), op.t1),
                });
            }
            _ => {}
        }
        pc += 1;

        // Fetch: every word of the instruction goes through the I-cache.
        let mut cycles = 1 + op.extra; // base CPI of the in-order scalar
        for w in 0..op.words as u64 {
            cycles += icache.access_cost(op.addr + w * word_bytes);
        }
        res.insts_fetched += 1;
        if op.uses & pending_load != 0 {
            cycles += cfg.load_use_penalty;
        }
        pending_load = 0;

        let r = |n: u8| regs[base + n as usize];
        let mut next = NO_BLOCK;
        match op.kind {
            Kind::SetLastReg => {
                // Consumed at decode; no execute, no architectural effect.
                // The front end absorbs `slr_per_cycle` of these per
                // fetch-decode cycle, so only every n-th one stalls.
                res.set_last_regs += 1;
                slr_budget += 1;
                let occupancy = if slr_budget >= cfg.slr_per_cycle.max(1) {
                    slr_budget = 0;
                    1
                } else {
                    0
                };
                res.cycles += cycles - 1 + occupancy;
                continue;
            }
            Kind::Bin(o) => regs[base + op.dst as usize] = o.eval(r(op.a), r(op.b)),
            Kind::BinImm(o) => regs[base + op.dst as usize] = o.eval(r(op.a), op.imm),
            Kind::Mov => regs[base + op.dst as usize] = r(op.a),
            Kind::MovImm => regs[base + op.dst as usize] = op.imm,
            Kind::GetParam => {
                let i = op.imm as usize;
                regs[base + op.dst as usize] = if i < args_len {
                    arg_stack[args_start + i]
                } else {
                    0
                };
            }
            Kind::Load | Kind::SpillLoad => {
                let a = if let Kind::Load = op.kind {
                    // Word-aligned memory.
                    (r(op.a) as u64).wrapping_add(op.imm as u64) & !7
                } else {
                    res.spill_accesses += 1;
                    frame_base + op.imm as u64
                };
                cycles += dcache.access_cost(a);
                regs[base + op.dst as usize] = mem.get(&a).copied().unwrap_or(0);
                pending_load = 1 << op.dst;
            }
            Kind::Store => {
                let a = (r(op.b) as u64).wrapping_add(op.imm as u64) & !7;
                cycles += dcache.access_cost(a);
                mem.insert(a, r(op.a));
            }
            Kind::SpillStore => {
                let a = frame_base + op.imm as u64;
                cycles += dcache.access_cost(a);
                mem.insert(a, r(op.a));
                res.spill_accesses += 1;
            }
            Kind::Br => next = op.t1,
            Kind::CondBr(c) => {
                next = if c.eval(r(op.a), r(op.b)) {
                    cycles += cfg.taken_branch_penalty;
                    op.t1
                } else {
                    op.t2
                };
            }
            Kind::Call => {
                let start = arg_stack.len();
                let first = op.imm as usize;
                for &a in &l.call_args[first..first + op.t2 as usize] {
                    arg_stack.push(regs[base + a as usize]);
                }
                callers.push(Caller {
                    pc,
                    frame_base,
                    args_start,
                    args_len,
                    ret_to: op.dst,
                });
                base += REGS;
                if regs.len() < base + REGS {
                    regs.resize(base + REGS, 0);
                } else {
                    regs[base..base + REGS].fill(0);
                }
                (args_start, args_len) = (start, op.t2 as usize);
                frame_base = next_frame;
                next_frame += FRAME_BYTES;
                pc = l.block_start[op.t1 as usize] as usize;
                counts[op.t1 as usize] += 1;
            }
            Kind::Ret => {
                let v = (op.a != NO_REG).then(|| r(op.a));
                let Some(c) = callers.pop() else {
                    res.insts_executed += 1;
                    res.cycles += cycles;
                    res.ret_value = v;
                    res.icache_misses = icache.misses();
                    res.dcache_misses = dcache.misses();
                    res.block_counts = block_counts(&l, &counts);
                    return Ok(res);
                };
                arg_stack.truncate(args_start);
                base -= REGS;
                (pc, frame_base, args_start, args_len) =
                    (c.pc, c.frame_base, c.args_start, c.args_len);
                if let (Some(v), true) = (v, c.ret_to != NO_REG) {
                    regs[base + c.ret_to as usize] = v;
                }
            }
            Kind::Nop => {}
            Kind::Fault => return Err(l.faults[op.imm as usize].clone()),
            Kind::FellOff | Kind::NoBlock => unreachable!("checked before fetch"),
        }

        res.insts_executed += 1;
        res.cycles += cycles;
        if next != NO_BLOCK {
            pc = l.block_start[next as usize] as usize;
            counts[next as usize] += 1;
            if callers.is_empty() && res.entry_trace.len() < TRACE_CAP {
                res.entry_trace.push(BlockId(l.block_name[next as usize].1));
            }
        }
    }
}

/// A suspended caller: where it resumes and what it had in flight.
struct Caller {
    pc: usize,
    frame_base: u64,
    args_start: usize,
    args_len: usize,
    /// Register receiving the callee's return value ([`NO_REG`]: none).
    ret_to: u8,
}

/// The dense per-block counts as the `(function, block)` map of
/// [`SimResult::block_counts`], holding every block entered at least once.
fn block_counts(l: &Lowered, counts: &[u64]) -> HashMap<(u32, u32), u64> {
    l.block_name
        .iter()
        .zip(counts)
        .filter(|&(_, &n)| n > 0)
        .map(|(&name, &n)| (name, n))
        .collect()
}

fn op_latency(cfg: &LowEndConfig, op: BinOp) -> u64 {
    match op {
        BinOp::Mul => cfg.mul_latency,
        BinOp::Div | BinOp::Rem => cfg.div_latency,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dra_ir::{Cond, FunctionBuilder, PReg};

    fn phys(n: u8) -> Reg {
        Reg::Phys(PReg(n))
    }

    /// Build a tiny physical-register program: returns 6*7.
    fn mul_prog() -> Program {
        let mut b = FunctionBuilder::new("main");
        b.push(Inst::MovImm { dst: phys(0), imm: 6 });
        b.push(Inst::MovImm { dst: phys(1), imm: 7 });
        b.push(Inst::Bin {
            op: BinOp::Mul,
            dst: phys(2),
            lhs: phys(0),
            rhs: phys(1),
        });
        b.ret(Some(phys(2)));
        Program::single(b.finish())
    }

    #[test]
    fn computes_correct_result() {
        let r = simulate(&mul_prog(), &LowEndConfig::default(), &[]).unwrap();
        assert_eq!(r.ret_value, Some(42));
        assert_eq!(r.insts_executed, 4);
        assert!(r.cycles >= 4);
    }

    #[test]
    fn multiply_costs_extra_cycles() {
        let cfg = LowEndConfig::default();
        let with_mul = simulate(&mul_prog(), &cfg, &[]).unwrap();

        let mut b = FunctionBuilder::new("main");
        b.push(Inst::MovImm { dst: phys(0), imm: 6 });
        b.push(Inst::MovImm { dst: phys(1), imm: 7 });
        b.push(Inst::Bin {
            op: BinOp::Add,
            dst: phys(2),
            lhs: phys(0),
            rhs: phys(1),
        });
        b.ret(Some(phys(2)));
        let with_add = simulate(&Program::single(b.finish()), &cfg, &[]).unwrap();
        assert_eq!(
            with_mul.cycles - with_add.cycles,
            cfg.mul_latency,
            "identical programs except the ALU op"
        );
    }

    #[test]
    fn loop_executes_correct_iteration_count() {
        // acc = sum(0..10) via a counted loop.
        let mut b = FunctionBuilder::new("main");
        b.push(Inst::MovImm { dst: phys(0), imm: 0 }); // i
        b.push(Inst::MovImm { dst: phys(1), imm: 0 }); // acc
        b.push(Inst::MovImm { dst: phys(2), imm: 10 }); // n
        let h = b.new_block();
        let body = b.new_block();
        let ex = b.new_block();
        b.br(h);
        b.switch_to(h);
        b.push(Inst::CondBr {
            cond: Cond::Lt,
            lhs: phys(0),
            rhs: phys(2),
            then_bb: body,
            else_bb: ex,
        });
        b.switch_to(body);
        b.push(Inst::Bin {
            op: BinOp::Add,
            dst: phys(1),
            lhs: phys(1),
            rhs: phys(0),
        });
        b.push(Inst::BinImm {
            op: BinOp::Add,
            dst: phys(0),
            src: phys(0),
            imm: 1,
        });
        b.br(h);
        b.switch_to(ex);
        b.ret(Some(phys(1)));
        let p = Program::single(b.finish());
        let r = simulate(&p, &LowEndConfig::default(), &[]).unwrap();
        assert_eq!(r.ret_value, Some(45));
        // Trace follows the loop: entry, then (h, body)*10, h, exit.
        assert_eq!(r.entry_trace.first(), Some(&BlockId(0)));
        assert_eq!(r.entry_trace.iter().filter(|&&b| b == body).count(), 10);
    }

    #[test]
    fn memory_roundtrip_through_dcache() {
        let mut b = FunctionBuilder::new("main");
        b.push(Inst::MovImm {
            dst: phys(0),
            imm: 0x100,
        });
        b.push(Inst::MovImm { dst: phys(1), imm: 99 });
        b.push(Inst::Store {
            src: phys(1),
            base: phys(0),
            offset: 8,
        });
        b.push(Inst::Load {
            dst: phys(2),
            base: phys(0),
            offset: 8,
        });
        b.ret(Some(phys(2)));
        let r = simulate(&Program::single(b.finish()), &LowEndConfig::default(), &[]).unwrap();
        assert_eq!(r.ret_value, Some(99));
        assert_eq!(r.dcache_misses, 1, "cold miss on the store, hit on the load");
    }

    #[test]
    fn spill_accesses_counted_and_roundtrip() {
        let mut b = FunctionBuilder::new("main");
        b.push(Inst::MovImm { dst: phys(0), imm: 7 });
        b.push(Inst::SpillStore {
            src: phys(0),
            slot: dra_ir::SpillSlot(0),
        });
        b.push(Inst::MovImm { dst: phys(0), imm: 0 });
        b.push(Inst::SpillLoad {
            dst: phys(1),
            slot: dra_ir::SpillSlot(0),
        });
        b.ret(Some(phys(1)));
        let r = simulate(&Program::single(b.finish()), &LowEndConfig::default(), &[]).unwrap();
        assert_eq!(r.ret_value, Some(7));
        assert_eq!(r.spill_accesses, 2);
    }

    #[test]
    fn set_last_reg_fetches_but_does_not_execute() {
        let mut b = FunctionBuilder::new("main");
        b.push(Inst::SetLastReg {
            class: dra_ir::RegClass::Int,
            value: 0,
            delay: 0,
        });
        b.push(Inst::MovImm { dst: phys(0), imm: 1 });
        b.ret(Some(phys(0)));
        let r = simulate(&Program::single(b.finish()), &LowEndConfig::default(), &[]).unwrap();
        assert_eq!(r.set_last_regs, 1);
        assert_eq!(r.insts_fetched, 3);
        assert_eq!(r.insts_executed, 2);
        assert_eq!(r.ret_value, Some(1));
    }

    #[test]
    fn calls_pass_args_and_return_values() {
        // main: r0 = 20; r1 = call add3(r0); ret r1
        let mut m = FunctionBuilder::new("main");
        m.push(Inst::MovImm { dst: phys(0), imm: 20 });
        m.push(Inst::Call {
            callee: 1,
            args: vec![phys(0)],
            ret: Some(phys(1)),
        });
        m.ret(Some(phys(1)));
        // add3(x) = x + 3, with params via GetParam.
        let mut c = FunctionBuilder::new("add3");
        c.push(Inst::GetParam { dst: phys(0), index: 0 });
        c.push(Inst::BinImm {
            op: BinOp::Add,
            dst: phys(1),
            src: phys(0),
            imm: 3,
        });
        c.ret(Some(phys(1)));
        let p = Program {
            funcs: vec![m.finish(), c.finish()],
            entry: 0,
        };
        let r = simulate(&p, &LowEndConfig::default(), &[]).unwrap();
        assert_eq!(r.ret_value, Some(23));
    }

    #[test]
    fn entry_args_via_getparam() {
        let mut b = FunctionBuilder::new("main");
        b.push(Inst::GetParam { dst: phys(0), index: 0 });
        b.ret(Some(phys(0)));
        let r = simulate(
            &Program::single(b.finish()),
            &LowEndConfig::default(),
            &[1234],
        )
        .unwrap();
        assert_eq!(r.ret_value, Some(1234));
    }

    #[test]
    fn runaway_program_hits_step_limit() {
        let mut b = FunctionBuilder::new("main");
        let l = b.new_block();
        b.br(l);
        b.switch_to(l);
        b.br(l);
        let cfg = LowEndConfig {
            max_steps: 1000,
            ..LowEndConfig::default()
        };
        let r = simulate(&Program::single(b.finish()), &cfg, &[]);
        assert!(matches!(r, Err(SimError::StepLimit { .. })));
    }

    #[test]
    fn virtual_register_rejected() {
        let mut b = FunctionBuilder::new("main");
        let v = b.new_vreg();
        b.mov_imm(v, 1);
        b.ret(Some(v.into()));
        let r = simulate(&Program::single(b.finish()), &LowEndConfig::default(), &[]);
        assert!(matches!(r, Err(SimError::VirtualRegister { .. })));
    }

    #[test]
    fn virtual_register_destination_reports_its_function() {
        // main calls f2, which writes a vreg; f1 never runs.
        let mut m = FunctionBuilder::new("main");
        m.push(Inst::Call {
            callee: 2,
            args: vec![],
            ret: None,
        });
        m.ret(None);
        let mut idle = FunctionBuilder::new("idle");
        idle.ret(None);
        let mut c = FunctionBuilder::new("callee");
        let v = c.new_vreg();
        c.mov_imm(v, 1);
        c.ret(None);
        let p = Program {
            funcs: vec![m.finish(), idle.finish(), c.finish()],
            entry: 0,
        };
        let cfg = LowEndConfig::default();
        let want = Err(SimError::VirtualRegister { func: 2 });
        assert_eq!(simulate(&p, &cfg, &[]), want);
        assert_eq!(reference::simulate(&p, &cfg, &[]), want);
    }

    #[test]
    fn out_of_range_physical_register_is_an_error() {
        for n in [64u8, 100, 255] {
            let mut b = FunctionBuilder::new("main");
            b.push(Inst::MovImm { dst: phys(n), imm: 1 });
            b.ret(Some(phys(0)));
            let r = simulate(&Program::single(b.finish()), &LowEndConfig::default(), &[]);
            assert!(
                matches!(&r, Err(SimError::ControlError { what }) if what.contains(&format!("r{n}"))),
                "r{n}: {r:?}"
            );
        }
    }

    #[test]
    fn load_use_interlock_charged() {
        let cfg = LowEndConfig::default();
        // Load immediately used.
        let mut b = FunctionBuilder::new("main");
        b.push(Inst::MovImm { dst: phys(0), imm: 64 });
        b.push(Inst::Load {
            dst: phys(1),
            base: phys(0),
            offset: 0,
        });
        b.push(Inst::BinImm {
            op: BinOp::Add,
            dst: phys(2),
            src: phys(1),
            imm: 1,
        });
        b.ret(Some(phys(2)));
        let tight = simulate(&Program::single(b.finish()), &cfg, &[]).unwrap();

        // Same, but with a nop between load and use.
        let mut b = FunctionBuilder::new("main");
        b.push(Inst::MovImm { dst: phys(0), imm: 64 });
        b.push(Inst::Load {
            dst: phys(1),
            base: phys(0),
            offset: 0,
        });
        b.push(Inst::Nop);
        b.push(Inst::BinImm {
            op: BinOp::Add,
            dst: phys(2),
            src: phys(1),
            imm: 1,
        });
        b.ret(Some(phys(2)));
        let relaxed = simulate(&Program::single(b.finish()), &cfg, &[]).unwrap();
        // The nop costs 1 fetch cycle but saves the interlock bubble:
        // net equal cycles.
        assert_eq!(tight.cycles + 1, relaxed.cycles + cfg.load_use_penalty);
    }
}

#[cfg(test)]
mod profile_tests {
    use super::*;
    use dra_ir::{Cond, FunctionBuilder, PReg};

    fn phys(n: u8) -> Reg {
        Reg::Phys(PReg(n))
    }

    #[test]
    fn block_counts_record_loop_iterations() {
        let mut b = FunctionBuilder::new("main");
        b.push(Inst::MovImm { dst: phys(0), imm: 0 });
        b.push(Inst::MovImm { dst: phys(1), imm: 7 });
        let h = b.new_block();
        let body = b.new_block();
        let ex = b.new_block();
        b.br(h);
        b.switch_to(h);
        b.push(Inst::CondBr {
            cond: Cond::Lt,
            lhs: phys(0),
            rhs: phys(1),
            then_bb: body,
            else_bb: ex,
        });
        b.switch_to(body);
        b.push(Inst::BinImm {
            op: BinOp::Add,
            dst: phys(0),
            src: phys(0),
            imm: 1,
        });
        b.br(h);
        b.switch_to(ex);
        b.ret(None);
        let p = Program::single(b.finish());
        let r = simulate(&p, &LowEndConfig::default(), &[]).unwrap();
        assert_eq!(r.block_counts[&(0, h.0)], 8, "7 taken + 1 exit test");
        assert_eq!(r.block_counts[&(0, body.0)], 7);
        assert_eq!(r.block_counts[&(0, ex.0)], 1);
        assert_eq!(r.block_counts[&(0, 0)], 1, "entry executed once");
    }

    #[test]
    fn slr_pairs_share_fetch_cycles() {
        // With slr_per_cycle = 2, back-to-back set_last_regs cost one
        // cycle per pair.
        let build = |n: usize| {
            let mut b = FunctionBuilder::new("main");
            for _ in 0..n {
                b.push(Inst::SetLastReg {
                    class: dra_ir::RegClass::Int,
                    value: 0,
                    delay: 0,
                });
            }
            b.push(Inst::MovImm { dst: phys(0), imm: 1 });
            b.ret(Some(phys(0)));
            Program::single(b.finish())
        };
        let cfg = LowEndConfig::default();
        let none = simulate(&build(0), &cfg, &[]).unwrap();
        let four = simulate(&build(4), &cfg, &[]).unwrap();
        assert_eq!(
            four.cycles - none.cycles,
            2,
            "4 decode-removed instructions absorb into 2 cycles"
        );
        assert_eq!(four.set_last_regs, 4);
    }

    #[test]
    fn slr_full_cost_when_front_end_narrow() {
        let mut b = FunctionBuilder::new("main");
        for _ in 0..4 {
            b.push(Inst::SetLastReg {
                class: dra_ir::RegClass::Int,
                value: 0,
                delay: 0,
            });
        }
        b.push(Inst::MovImm { dst: phys(0), imm: 1 });
        b.ret(Some(phys(0)));
        let p = Program::single(b.finish());
        let narrow_cfg = LowEndConfig {
            slr_per_cycle: 1, // single-issue fetch: every slr stalls
            ..LowEndConfig::default()
        };
        let narrow = simulate(&p, &narrow_cfg, &[]).unwrap();
        let wide_cfg = LowEndConfig {
            slr_per_cycle: 2,
            ..LowEndConfig::default()
        };
        let wide = simulate(&p, &wide_cfg, &[]).unwrap();
        assert_eq!(narrow.cycles - wide.cycles, 2);
    }
}
