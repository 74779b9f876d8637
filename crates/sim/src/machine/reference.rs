//! The tree-walking interpreter the lower-once executor in the parent
//! module replaced, kept as the testing oracle (like
//! `dra_regalloc::interference::reference` and `dra_regalloc::irc::reference`).
//!
//! It walks the `Program` directly: a hashed layout lookup and
//! [`words_for_inst`] on every fetch, `Inst::uses()` after every load, a
//! `block_counts` map update on every block transition, and the nested-`Vec`
//! LRU cache below. `tests/sim_equiv.rs` pins the parent module's
//! [`super::simulate`] to it on the whole [`SimResult`], and the cache
//! property test pins [`crate::Cache`] to [`Cache`]. Nothing outside tests
//! calls it; it stays frozen unless the simulation contract itself changes.

use super::{SimError, SimResult, FRAME_BYTES, STACK_BASE, TRACE_CAP};
use crate::cache::CacheConfig;
use crate::lowend::LowEndConfig;
use dra_ir::{BinOp, BlockId, Function, Inst, Program, Reg};
use dra_isa::words_for_inst;
use std::collections::HashMap;

/// The set-associative true-LRU cache [`crate::Cache`] replaced: per-set
/// tag and recency vectors, with a rotate on every hit.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// `sets[s][w]` = tag; `u64::MAX` = invalid.
    sets: Vec<Vec<u64>>,
    /// LRU order per set: front = most recent.
    lru: Vec<Vec<u32>>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// An empty (cold) cache.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.line_bytes.is_power_of_two(), "line size not a power of two");
        assert!(cfg.assoc >= 1);
        let sets = cfg.num_sets().max(1);
        Cache {
            cfg,
            sets: vec![vec![u64::MAX; cfg.assoc as usize]; sets as usize],
            lru: (0..sets).map(|_| (0..cfg.assoc).collect()).collect(),
            hits: 0,
            misses: 0,
        }
    }

    /// Access `addr`; returns true on hit. Misses allocate.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.cfg.line_bytes as u64;
        let set = (line % self.sets.len() as u64) as usize;
        let tag = line / self.sets.len() as u64;
        let ways = &mut self.sets[set];
        if let Some(w) = ways.iter().position(|&t| t == tag) {
            self.hits += 1;
            promote(&mut self.lru[set], w as u32);
            true
        } else {
            self.misses += 1;
            let victim = *self.lru[set].last().expect("nonempty LRU") as usize;
            ways[victim] = tag;
            promote(&mut self.lru[set], victim as u32);
            false
        }
    }

    /// Cycles an access costs beyond the pipeline's base latency.
    pub fn access_cost(&mut self, addr: u64) -> u64 {
        if self.access(addr) {
            0
        } else {
            self.cfg.miss_penalty
        }
    }

    /// Hit count so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

fn promote(order: &mut [u32], way: u32) {
    let pos = order.iter().position(|&w| w == way).expect("way in order");
    order[..=pos].rotate_right(1);
}

struct Activation {
    func: u32,
    block: usize,
    inst: usize,
    regs: [i64; 64],
    frame_base: u64,
    args: Vec<i64>,
    /// Register receiving the callee's return value.
    ret_to: Option<u8>,
}

/// Execute `p` from its entry function with `args`: the same contract as
/// [`super::simulate`], by walking the IR tree instruction by instruction.
///
/// # Errors
///
/// See [`SimError`].
///
/// # Panics
///
/// On a physical register numbered 64 or higher, a branch to a missing
/// block or a call to a missing function (the production executor
/// reports these as [`SimError::ControlError`]).
pub fn simulate(p: &Program, cfg: &LowEndConfig, args: &[i64]) -> Result<SimResult, SimError> {
    // Static layout: instruction addresses for I-cache simulation.
    let layout = layout_code(p, cfg);

    let mut icache = Cache::new(cfg.icache);
    let mut dcache = Cache::new(cfg.dcache);
    let mut mem: HashMap<u64, i64> = HashMap::new();
    let mut res = SimResult::default();

    let mut next_frame = STACK_BASE;
    let mut stack: Vec<Activation> = vec![Activation {
        func: p.entry,
        block: p.entry_func().entry.index(),
        inst: 0,
        regs: [0; 64],
        frame_base: next_frame,
        args: args.to_vec(),
        ret_to: None,
    }];
    next_frame += FRAME_BYTES;
    res.entry_trace.push(p.entry_func().entry);
    *res
        .block_counts
        .entry((p.entry, p.entry_func().entry.0))
        .or_insert(0) += 1;

    // Load-use interlock state: destination of the previous instruction if
    // it was a load.
    let mut pending_load_dst: Option<u8> = None;
    // Fractional accounting for decode-removed set_last_reg slots.
    let mut slr_budget: u64 = 0;

    while let Some(act) = stack.last_mut() {
        if res.insts_fetched >= cfg.max_steps {
            return Err(SimError::StepLimit {
                max_steps: cfg.max_steps,
            });
        }
        let f: &Function = &p.funcs[act.func as usize];
        let blk = &f.blocks[act.block];
        let Some(inst) = blk.insts.get(act.inst) else {
            return Err(SimError::ControlError {
                what: format!("fell off the end of {} {}", f.name, BlockId(act.block as u32)),
            });
        };

        // Fetch: every word of the instruction goes through the I-cache.
        let addr = layout[&(act.func, act.block, act.inst)];
        let words = words_for_inst(inst, &cfg.geometry) as u64;
        let word_bytes = (cfg.geometry.word_bits / 8) as u64;
        let mut cycles = 1; // base CPI of the in-order scalar
        for w in 0..words {
            cycles += icache.access_cost(addr + w * word_bytes);
        }
        res.insts_fetched += 1;

        // Load-use interlock check.
        if let Some(dst) = pending_load_dst.take() {
            let uses_loaded = inst
                .uses()
                .iter()
                .any(|r| matches!(r, Reg::Phys(pr) if pr.number() == dst));
            if uses_loaded {
                cycles += cfg.load_use_penalty;
            }
        }

        let read = |act: &Activation, r: Reg| -> Result<i64, SimError> {
            match r {
                Reg::Phys(pr) => Ok(act.regs[pr.index()]),
                Reg::Virt(_) => Err(SimError::VirtualRegister { func: act.func }),
            }
        };
        let func = act.func;
        let reg_no = |r: Reg| -> Result<u8, SimError> {
            match r {
                Reg::Phys(pr) => Ok(pr.number()),
                Reg::Virt(_) => Err(SimError::VirtualRegister { func }),
            }
        };

        let mut next: Option<usize> = None; // branch target (block index)
        match inst {
            Inst::SetLastReg { .. } => {
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
                act.inst += 1;
                continue;
            }
            Inst::Bin { op, dst, lhs, rhs } => {
                let v = op.eval(read(act, *lhs)?, read(act, *rhs)?);
                act.regs[reg_no(*dst)? as usize] = v;
                cycles += op_latency(cfg, *op);
            }
            Inst::BinImm { op, dst, src, imm } => {
                let v = op.eval(read(act, *src)?, *imm as i64);
                act.regs[reg_no(*dst)? as usize] = v;
                cycles += op_latency(cfg, *op);
            }
            Inst::Mov { dst, src } => {
                act.regs[reg_no(*dst)? as usize] = read(act, *src)?;
            }
            Inst::MovImm { dst, imm } => {
                act.regs[reg_no(*dst)? as usize] = *imm as i64;
            }
            Inst::GetParam { dst, index } => {
                let v = act.args.get(*index as usize).copied().unwrap_or(0);
                act.regs[reg_no(*dst)? as usize] = v;
            }
            Inst::Load { dst, base, offset } => {
                let a = (read(act, *base)? as u64).wrapping_add(*offset as i64 as u64);
                let a = a & !7; // word-aligned memory
                cycles += cfg.load_extra + dcache.access_cost(a);
                let v = mem.get(&a).copied().unwrap_or(0);
                let d = reg_no(*dst)?;
                act.regs[d as usize] = v;
                pending_load_dst = Some(d);
            }
            Inst::Store { src, base, offset } => {
                let a = (read(act, *base)? as u64).wrapping_add(*offset as i64 as u64);
                let a = a & !7;
                cycles += cfg.store_extra + dcache.access_cost(a);
                mem.insert(a, read(act, *src)?);
            }
            Inst::SpillLoad { dst, slot } => {
                let a = act.frame_base + slot.0 as u64 * 8;
                cycles += cfg.load_extra + dcache.access_cost(a);
                let v = mem.get(&a).copied().unwrap_or(0);
                let d = reg_no(*dst)?;
                act.regs[d as usize] = v;
                pending_load_dst = Some(d);
                res.spill_accesses += 1;
            }
            Inst::SpillStore { src, slot } => {
                let a = act.frame_base + slot.0 as u64 * 8;
                cycles += cfg.store_extra + dcache.access_cost(a);
                mem.insert(a, read(act, *src)?);
                res.spill_accesses += 1;
            }
            Inst::Br { target } => {
                cycles += cfg.taken_branch_penalty.saturating_sub(1);
                next = Some(target.index());
            }
            Inst::CondBr {
                cond,
                lhs,
                rhs,
                then_bb,
                else_bb,
            } => {
                let taken = cond.eval(read(act, *lhs)?, read(act, *rhs)?);
                let t = if taken { then_bb } else { else_bb };
                if taken {
                    cycles += cfg.taken_branch_penalty;
                }
                next = Some(t.index());
            }
            Inst::Call { callee, args, ret } => {
                cycles += cfg.call_penalty;
                let vals: Result<Vec<i64>, SimError> =
                    args.iter().map(|&a| read(act, a)).collect();
                let vals = vals?;
                let ret_to = match ret {
                    Some(r) => Some(reg_no(*r)?),
                    None => None,
                };
                act.inst += 1; // resume after the call
                let callee_fn = &p.funcs[*callee as usize];
                let new_act = Activation {
                    func: *callee,
                    block: callee_fn.entry.index(),
                    inst: 0,
                    regs: [0; 64],
                    frame_base: next_frame,
                    args: vals,
                    ret_to,
                };
                next_frame += FRAME_BYTES;
                res.insts_executed += 1;
                res.cycles += cycles;
                *res
                    .block_counts
                    .entry((new_act.func, new_act.block as u32))
                    .or_insert(0) += 1;
                stack.push(new_act);
                pending_load_dst = None;
                continue;
            }
            Inst::Ret { value } => {
                cycles += cfg.call_penalty;
                let v = match value {
                    Some(r) => Some(read(act, *r)?),
                    None => None,
                };
                let ret_to = act.ret_to;
                res.insts_executed += 1;
                res.cycles += cycles;
                stack.pop();
                pending_load_dst = None;
                match stack.last_mut() {
                    Some(caller) => {
                        if let (Some(dst), Some(v)) = (ret_to, v) {
                            caller.regs[dst as usize] = v;
                        }
                    }
                    None => {
                        res.ret_value = v;
                        res.icache_misses = icache.misses();
                        res.dcache_misses = dcache.misses();
                        return Ok(res);
                    }
                }
                continue;
            }
            Inst::Nop => {}
        }

        res.insts_executed += 1;
        res.cycles += cycles;
        match next {
            Some(b) => {
                act.block = b;
                act.inst = 0;
                *res
                    .block_counts
                    .entry((act.func, b as u32))
                    .or_insert(0) += 1;
                if act.func == p.entry
                    && stack.len() == 1
                    && res.entry_trace.len() < TRACE_CAP
                {
                    res.entry_trace.push(BlockId(b as u32));
                }
            }
            None => act.inst += 1,
        }
    }
    Err(SimError::ControlError {
        what: "empty call stack".into(),
    })
}

fn op_latency(cfg: &LowEndConfig, op: BinOp) -> u64 {
    match op {
        BinOp::Mul => cfg.mul_latency,
        BinOp::Div | BinOp::Rem => cfg.div_latency,
        _ => 0,
    }
}

/// Assign a static byte address to every instruction (functions and blocks
/// laid out in order).
fn layout_code(
    p: &Program,
    cfg: &LowEndConfig,
) -> HashMap<(u32, usize, usize), u64> {
    let mut layout = HashMap::new();
    let word_bytes = (cfg.geometry.word_bits / 8) as u64;
    let mut addr = 0u64;
    for (fi, f) in p.funcs.iter().enumerate() {
        for (bi, b) in f.blocks.iter().enumerate() {
            for (ii, inst) in b.insts.iter().enumerate() {
                layout.insert((fi as u32, bi, ii), addr);
                addr += words_for_inst(inst, &cfg.geometry) as u64 * word_bytes;
            }
        }
    }
    layout
}
