//! The functional + timing executor for the low-end machine.
//!
//! Executes fully-allocated [`Program`]s, maintaining architectural state
//! (register files, memory, a call stack) while charging cycles per the
//! 5-stage in-order model:
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
//! [`simulate`] lowers the program once into *segments*: straight-line
//! runs that start at a block start or right after a call and end at the
//! first branch, call or return (or at a fault, a block without a
//! terminator, or a missing block). Everything about a segment that does
//! not depend on data is summed at lowering: instructions fetched and
//! executed, `set_last_reg`s, spill accesses, base and extra cycles, the
//! load-use interlocks inside it (none carries across a segment start,
//! since the op before one is never a load) and its I-cache lines in fetch
//! order with consecutive repeats collapsed (a repeat of the last line is
//! a hit that changes no cache state). Execution then charges a segment's
//! sums at once and runs only its data ops (operands resolved to register
//! numbers; `set_last_reg` and `nop` dropped), its D-cache accesses and its
//! exit.
//!
//! Every error discards all state, so a segment is judged at entry against
//! the room left under `max_steps`: one that would fetch past the cap
//! fails with [`SimError::StepLimit`], and one that ends in a failure
//! fails with that error if the failing op is reached inside the cap —
//! exactly the outcome of checking the cap before every fetch. An
//! instruction naming a virtual register lowers to a fault that fails only
//! when reached, with the error of the tree-walking interpreter kept in
//! [`mod@reference`], so a malformed instruction on a path never taken
//! costs nothing. Where that interpreter panics, the executor returns
//! [`SimError::ControlError`] at the same point: for a register numbered 64
//! or higher or a call to a missing function when the instruction is
//! reached; for a branch to a missing block when control arrives there (a
//! placeholder block whose segment fails before it fetches anything), so
//! the valid side of a half-bad conditional branch runs normally.

pub mod reference;

use crate::cache::Cache;
use crate::lowend::LowEndConfig;
use dra_ir::{BinOp, BlockId, Cond, Inst, Program, Reg};
use dra_isa::words_for_inst;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::hash::{BuildHasher, Hasher, RandomState};

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

/// What a data op does.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Bin(BinOp),
    BinImm(BinOp),
    Mov,
    MovImm,
    GetParam,
    Load,
    Store,
    SpillLoad,
    SpillStore,
}

/// One pre-decoded instruction with a data effect. Register operands are
/// numbers below [`REGS`] (anything else lowered to [`Exit::Fault`]); the
/// meaning of `dst`, `a`, `b` and `imm` depends on `kind`.
#[derive(Clone, Copy, Debug)]
struct Op {
    kind: Kind,
    dst: u8,
    /// First source register.
    a: u8,
    /// Second source register.
    b: u8,
    /// Immediate, memory offset, `slot * 8` or parameter index.
    imm: i64,
}

impl Op {
    fn new(kind: Kind) -> Op {
        Op {
            kind,
            dst: NO_REG,
            a: NO_REG,
            b: NO_REG,
            imm: 0,
        }
    }
}

/// How a segment ends. Block operands are global block ids.
#[derive(Clone, Copy, Debug)]
enum Exit {
    Br(u32),
    CondBr {
        cond: Cond,
        a: u8,
        b: u8,
        then_bb: u32,
        else_bb: u32,
    },
    /// A call to the function whose entry block is `entry`, passing
    /// `call_args[args..args + n_args]`; the return value goes to `ret_to`
    /// ([`NO_REG`]: nowhere). The caller resumes at the next segment.
    Call {
        entry: u32,
        args: u32,
        n_args: u32,
        ret_to: u8,
    },
    /// Return the register (or [`NO_REG`]: no value).
    Ret(u8),
    /// The next instruction fails with `faults[i]`.
    Fault(u32),
    /// Control reaches the end of block `block` of function `func` without
    /// a terminator.
    FellOff {
        func: u32,
        block: u32,
    },
    /// Control arrives at block `block` of function `func`, which does not
    /// exist: the one segment of the placeholder block a branch to it
    /// targets.
    NoBlock {
        func: u32,
        block: u32,
    },
}

impl Exit {
    /// Whether the segment fails once its fetched instructions are in.
    fn fails(&self) -> bool {
        matches!(
            self,
            Exit::Fault(_) | Exit::FellOff { .. } | Exit::NoBlock { .. }
        )
    }
}

/// The data-independent work of a straight-line run, summed at lowering.
#[derive(Clone, Copy, Debug, Default)]
struct Sums {
    /// Instructions fetched (`set_last_reg` included).
    fetched: u64,
    /// Instructions executed (`set_last_reg` excluded).
    executed: u64,
    set_last_regs: u64,
    spill_accesses: u64,
    /// Base CPI and fixed extra cycles of every executed instruction, plus
    /// the load-use interlocks inside the run.
    cycles: u64,
}

/// A straight-line run. For a failing exit, the sums cover the
/// instructions before the failing one.
#[derive(Clone, Copy, Debug)]
struct Segment {
    /// Its data ops, `ops[ops.0..ops.1]`.
    ops: (u32, u32),
    /// Its I-cache lines in fetch order with consecutive repeats collapsed,
    /// `lines[lines.0..lines.1]`.
    lines: (u32, u32),
    sums: Sums,
    exit: Exit,
}

/// The segment [`lower`] is reading.
struct OpenSegment {
    ops_start: u32,
    lines_start: u32,
    sums: Sums,
    /// Bit `r` set when the previous instruction loaded `r`: 0 at a segment
    /// start, since the instruction before one is a branch, call or return.
    pending_load: u64,
}

/// A program lowered for execution.
struct Lowered {
    ops: Vec<Op>,
    lines: Vec<u64>,
    segs: Vec<Segment>,
    /// Per global block id: its first segment.
    block_seg: Vec<u32>,
    /// Per global block id: `(function, block)` in the source program.
    block_name: Vec<(u32, u32)>,
    /// Argument registers of every call, concatenated.
    call_args: Vec<u8>,
    /// The errors [`Exit::Fault`] raises.
    faults: Vec<SimError>,
    /// Global id of the entry function's entry block.
    entry: u32,
}

impl Lowered {
    /// Start a segment at the next op and line.
    fn open(&self) -> OpenSegment {
        OpenSegment {
            ops_start: self.ops.len() as u32,
            lines_start: self.lines.len() as u32,
            sums: Sums::default(),
            pending_load: 0,
        }
    }

    /// End segment `s` with `exit`.
    fn close(&mut self, s: OpenSegment, exit: Exit) {
        self.segs.push(Segment {
            ops: (s.ops_start, self.ops.len() as u32),
            lines: (s.lines_start, self.lines.len() as u32),
            sums: s.sums,
            exit,
        });
    }

    /// Fetch the `words` instruction words at byte `addr` into segment `s`:
    /// each I-cache line they touch, unless it repeats the segment's last.
    fn fetch(&mut self, s: &mut OpenSegment, addr: u64, words: u64, cfg: &LowEndConfig) {
        let word_bytes = (cfg.geometry.word_bits / 8) as u64;
        let line_shift = cfg.icache.line_bytes.trailing_zeros();
        for w in 0..words {
            let line = (addr + w * word_bytes) >> line_shift;
            if self.lines[s.lines_start as usize..].last() != Some(&line) {
                self.lines.push(line);
            }
        }
        s.sums.fetched += 1;
    }
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

/// One decoded instruction: what it does, its fixed execute cycles beyond
/// the base CPI, and the mask of the registers it reads (bit `r` for
/// register `r`, for the load-use interlock).
struct Decoded {
    step: Step,
    extra: u64,
    uses: u64,
}

enum Step {
    SetLastReg,
    Nop,
    Data(Op),
    Exit(Exit),
}

/// Lower `p` into segments, laying code out in function, block and
/// instruction order (the address map the I-cache sees). Instructions
/// after a block's branch, return or fault are never reached; they take
/// code addresses and nothing else.
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
    let n_blocks = ids.blocks as usize;
    let mut l = Lowered {
        ops: Vec::with_capacity(p.num_insts()),
        lines: Vec::with_capacity(p.num_insts()),
        segs: Vec::with_capacity(n_blocks),
        block_seg: Vec::with_capacity(n_blocks),
        block_name: Vec::with_capacity(n_blocks),
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
            l.block_seg.push(l.segs.len() as u32);
            l.block_name.push((fi, bi as u32));
            let mut open = Some(l.open());
            for inst in &b.insts {
                let words = words_for_inst(inst, &cfg.geometry) as u64;
                let at = addr;
                addr += words * word_bytes;
                let Some(mut s) = open.take() else {
                    continue;
                };
                let d = match decode(inst, fi, cfg, &mut ids, &mut l.call_args) {
                    Ok(d) => d,
                    Err(e) => {
                        l.faults.push(e);
                        l.close(s, Exit::Fault(l.faults.len() as u32 - 1));
                        continue;
                    }
                };
                l.fetch(&mut s, at, words, cfg);
                if d.uses & s.pending_load != 0 {
                    s.sums.cycles += cfg.load_use_penalty;
                }
                s.pending_load = 0;
                if let Step::SetLastReg = d.step {
                    // Consumed at decode: no execute, and its fetch-decode
                    // slot is charged at execution (`slr_per_cycle` a cycle).
                    s.sums.set_last_regs += 1;
                } else {
                    s.sums.executed += 1;
                    s.sums.cycles += 1 + d.extra;
                }
                match d.step {
                    Step::SetLastReg | Step::Nop => open = Some(s),
                    Step::Data(op) => {
                        if let Kind::Load | Kind::SpillLoad = op.kind {
                            s.pending_load = 1 << op.dst;
                        }
                        if let Kind::SpillLoad | Kind::SpillStore = op.kind {
                            s.sums.spill_accesses += 1;
                        }
                        l.ops.push(op);
                        open = Some(s);
                    }
                    Step::Exit(exit) => {
                        l.close(s, exit);
                        if let Exit::Call { .. } = exit {
                            open = Some(l.open());
                        }
                    }
                }
            }
            if let Some(s) = open {
                let block = bi as u32;
                l.close(s, Exit::FellOff { func: fi, block });
            }
        }
    }
    for &(func, block) in &ids.missing {
        l.block_seg.push(l.segs.len() as u32);
        l.block_name.push((func, block));
        let s = l.open();
        l.close(s, Exit::NoBlock { func, block });
    }
    Ok(l)
}

/// Decode one instruction of function `func`, or the error reaching it
/// must raise.
fn decode(
    inst: &Inst,
    func: u32,
    cfg: &LowEndConfig,
    ids: &mut BlockIds<'_>,
    call_args: &mut Vec<u8>,
) -> Result<Decoded, SimError> {
    let reg = |r: Reg| -> Result<u8, SimError> {
        match r {
            Reg::Phys(pr) if pr.index() < REGS => Ok(pr.number()),
            Reg::Phys(pr) => Err(SimError::ControlError {
                what: format!("register {pr} out of range in f{func}"),
            }),
            Reg::Virt(_) => Err(SimError::VirtualRegister { func }),
        }
    };
    let mut uses = 0u64;
    for r in inst.uses() {
        uses |= 1 << reg(r)?;
    }
    let data = |op: Op, extra: u64| (Step::Data(op), extra);
    let (step, extra) = match *inst {
        Inst::SetLastReg { .. } => (Step::SetLastReg, 0),
        Inst::Bin { op, dst, lhs, rhs } => data(
            Op {
                dst: reg(dst)?,
                a: reg(lhs)?,
                b: reg(rhs)?,
                ..Op::new(Kind::Bin(op))
            },
            op_latency(cfg, op),
        ),
        Inst::BinImm { op, dst, src, imm } => data(
            Op {
                dst: reg(dst)?,
                a: reg(src)?,
                imm: imm as i64,
                ..Op::new(Kind::BinImm(op))
            },
            op_latency(cfg, op),
        ),
        Inst::Mov { dst, src } => data(
            Op {
                dst: reg(dst)?,
                a: reg(src)?,
                ..Op::new(Kind::Mov)
            },
            0,
        ),
        Inst::MovImm { dst, imm } => data(
            Op {
                dst: reg(dst)?,
                imm: imm as i64,
                ..Op::new(Kind::MovImm)
            },
            0,
        ),
        Inst::GetParam { dst, index } => data(
            Op {
                dst: reg(dst)?,
                imm: index as i64,
                ..Op::new(Kind::GetParam)
            },
            0,
        ),
        Inst::Load { dst, base, offset } => data(
            Op {
                dst: reg(dst)?,
                a: reg(base)?,
                imm: offset as i64,
                ..Op::new(Kind::Load)
            },
            cfg.load_extra,
        ),
        Inst::Store { src, base, offset } => data(
            Op {
                a: reg(src)?,
                b: reg(base)?,
                imm: offset as i64,
                ..Op::new(Kind::Store)
            },
            cfg.store_extra,
        ),
        Inst::SpillLoad { dst, slot } => data(
            Op {
                dst: reg(dst)?,
                imm: slot.0 as i64 * 8,
                ..Op::new(Kind::SpillLoad)
            },
            cfg.load_extra,
        ),
        Inst::SpillStore { src, slot } => data(
            Op {
                a: reg(src)?,
                imm: slot.0 as i64 * 8,
                ..Op::new(Kind::SpillStore)
            },
            cfg.store_extra,
        ),
        Inst::Br { target } => (
            Step::Exit(Exit::Br(ids.target(func, target))),
            cfg.taken_branch_penalty.saturating_sub(1),
        ),
        Inst::CondBr {
            cond,
            lhs,
            rhs,
            then_bb,
            else_bb,
        } => (
            Step::Exit(Exit::CondBr {
                cond,
                a: reg(lhs)?,
                b: reg(rhs)?,
                then_bb: ids.target(func, then_bb),
                else_bb: ids.target(func, else_bb),
            }),
            0,
        ),
        Inst::Call {
            callee,
            ref args,
            ret,
        } => {
            let start = call_args.len() as u32;
            for &r in args {
                call_args.push(reg(r)?);
            }
            let ret_to = ret.map_or(Ok(NO_REG), reg)?;
            let entry = ids.entry(callee).ok_or_else(|| SimError::ControlError {
                what: format!("call to missing function f{callee} in f{func}"),
            })?;
            let exit = Exit::Call {
                entry,
                args: start,
                n_args: args.len() as u32,
                ret_to,
            };
            (Step::Exit(exit), cfg.call_penalty)
        }
        Inst::Ret { value } => (
            Step::Exit(Exit::Ret(value.map_or(Ok(NO_REG), reg)?)),
            cfg.call_penalty,
        ),
        Inst::Nop => (Step::Nop, 0),
    };
    Ok(Decoded { step, extra, uses })
}

/// Execute `p` from its entry function with `args`.
///
/// # Errors
///
/// See [`SimError`].
pub fn simulate(p: &Program, cfg: &LowEndConfig, args: &[i64]) -> Result<SimResult, SimError> {
    let l = lower(p, cfg)?;
    let mut icache = Cache::new(cfg.icache);
    let mut dcache = Cache::new(cfg.dcache);
    let mut mem = HashMap::with_hasher(WordHash::new());
    let mut res = SimResult::default();
    let mut counts = vec![0u64; l.block_seg.len()];

    // The current activation: its register file is `regs[base..base + REGS]`
    // and its arguments `arg_stack[args_start..args_start + args_len]`.
    let mut regs = vec![0i64; REGS];
    let mut base = 0usize;
    let mut arg_stack = args.to_vec();
    let (mut args_start, mut args_len) = (0usize, args.len());
    let mut frame_base = STACK_BASE;
    let mut next_frame = STACK_BASE + FRAME_BYTES;
    let mut callers: Vec<Caller> = Vec::new();
    let mut seg = l.block_seg[l.entry as usize] as usize;
    counts[l.entry as usize] += 1;
    res.entry_trace.push(BlockId(l.block_name[l.entry as usize].1));

    // Decode-removed set_last_reg slots: the front end absorbs
    // `slr_per_cycle` of them per fetch-decode cycle, so only every n-th
    // one stalls; `slr_budget` counts those since the last stall.
    let slr_per_cycle = cfg.slr_per_cycle.max(1);
    let mut slr_budget: u64 = 0;

    loop {
        let s = &l.segs[seg];
        let sums = s.sums;
        // The cap is checked before every fetch. A segment that fetches
        // past it fails there, and one that fails fails only if its failing
        // instruction is reached first; either way all state is discarded.
        let room = cfg.max_steps - res.insts_fetched;
        if sums.fetched >= room && (sums.fetched > room || s.exit.fails()) {
            return Err(SimError::StepLimit {
                max_steps: cfg.max_steps,
            });
        }
        res.insts_fetched += sums.fetched;
        res.insts_executed += sums.executed;
        res.set_last_regs += sums.set_last_regs;
        res.spill_accesses += sums.spill_accesses;
        let mut cycles = sums.cycles;
        if sums.set_last_regs > 0 {
            slr_budget += sums.set_last_regs;
            cycles += slr_budget / slr_per_cycle;
            slr_budget %= slr_per_cycle;
        }
        for &line in &l.lines[s.lines.0 as usize..s.lines.1 as usize] {
            if !icache.access_line(line) {
                cycles += cfg.icache.miss_penalty;
            }
        }

        let act = &mut regs[base..base + REGS];
        for op in &l.ops[s.ops.0 as usize..s.ops.1 as usize] {
            let (dst, a, b) = (op.dst as usize, op.a as usize, op.b as usize);
            match op.kind {
                Kind::Bin(o) => act[dst] = o.eval(act[a], act[b]),
                Kind::BinImm(o) => act[dst] = o.eval(act[a], op.imm),
                Kind::Mov => act[dst] = act[a],
                Kind::MovImm => act[dst] = op.imm,
                Kind::GetParam => {
                    let i = op.imm as usize;
                    act[dst] = if i < args_len {
                        arg_stack[args_start + i]
                    } else {
                        0
                    };
                }
                Kind::Load | Kind::SpillLoad => {
                    let addr = if let Kind::Load = op.kind {
                        // Word-aligned memory.
                        (act[a] as u64).wrapping_add(op.imm as u64) & !7
                    } else {
                        frame_base + op.imm as u64
                    };
                    cycles += dcache.access_cost(addr);
                    act[dst] = mem.get(&addr).copied().unwrap_or(0);
                }
                Kind::Store | Kind::SpillStore => {
                    let addr = if let Kind::Store = op.kind {
                        (act[b] as u64).wrapping_add(op.imm as u64) & !7
                    } else {
                        frame_base + op.imm as u64
                    };
                    cycles += dcache.access_cost(addr);
                    mem.insert(addr, act[a]);
                }
            }
        }

        let r = |n: u8| regs[base + n as usize];
        let next = match s.exit {
            Exit::Br(t) => t,
            Exit::CondBr {
                cond,
                a,
                b,
                then_bb,
                else_bb,
            } => {
                if cond.eval(r(a), r(b)) {
                    cycles += cfg.taken_branch_penalty;
                    then_bb
                } else {
                    else_bb
                }
            }
            Exit::Call {
                entry,
                args,
                n_args,
                ret_to,
            } => {
                let start = arg_stack.len();
                for &a in &l.call_args[args as usize..(args + n_args) as usize] {
                    arg_stack.push(regs[base + a as usize]);
                }
                callers.push(Caller {
                    resume: seg + 1,
                    frame_base,
                    args_start,
                    args_len,
                    ret_to,
                });
                base += REGS;
                if regs.len() < base + REGS {
                    regs.resize(base + REGS, 0);
                } else {
                    regs[base..base + REGS].fill(0);
                }
                (args_start, args_len) = (start, n_args as usize);
                frame_base = next_frame;
                next_frame += FRAME_BYTES;
                res.cycles += cycles;
                seg = l.block_seg[entry as usize] as usize;
                counts[entry as usize] += 1;
                continue;
            }
            Exit::Ret(value) => {
                let v = (value != NO_REG).then(|| r(value));
                res.cycles += cycles;
                let Some(c) = callers.pop() else {
                    res.ret_value = v;
                    res.icache_misses = icache.misses();
                    res.dcache_misses = dcache.misses();
                    res.block_counts = block_counts(&l, &counts);
                    return Ok(res);
                };
                arg_stack.truncate(args_start);
                base -= REGS;
                (seg, frame_base, args_start, args_len) =
                    (c.resume, c.frame_base, c.args_start, c.args_len);
                if let (Some(v), true) = (v, c.ret_to != NO_REG) {
                    regs[base + c.ret_to as usize] = v;
                }
                continue;
            }
            Exit::Fault(i) => return Err(l.faults[i as usize].clone()),
            Exit::FellOff { func, block } => {
                let f = &p.funcs[func as usize];
                return Err(SimError::ControlError {
                    what: format!("fell off the end of {} {}", f.name, BlockId(block)),
                });
            }
            Exit::NoBlock { func, block } => {
                return Err(SimError::ControlError {
                    what: format!("branch to missing block {} in f{func}", BlockId(block)),
                });
            }
        };
        res.cycles += cycles;
        seg = l.block_seg[next as usize] as usize;
        counts[next as usize] += 1;
        if callers.is_empty() && res.entry_trace.len() < TRACE_CAP {
            res.entry_trace.push(BlockId(l.block_name[next as usize].1));
        }
    }
}

/// A suspended caller: where it resumes and what it had in flight.
struct Caller {
    /// The segment after its call.
    resume: usize,
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

/// Builds the memory map's [`WordHasher`]s under one random key per
/// simulation, so a program cannot pick addresses that all collide.
#[derive(Clone, Copy)]
struct WordHash(u64);

impl WordHash {
    fn new() -> WordHash {
        WordHash(RandomState::new().hash_one(STACK_BASE))
    }
}

impl BuildHasher for WordHash {
    type Hasher = WordHasher;

    fn build_hasher(&self) -> WordHasher {
        WordHasher(self.0)
    }
}

/// Hashes a word address with one folded multiply of it and the key: the
/// high and low halves of the 128-bit product, xored.
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, x: u64) {
        let m = (self.0 ^ x) as u128 * 0x9e37_79b9_7f4a_7c15;
        self.0 = m as u64 ^ (m >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
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
