//! Symbolic allocation checker (DESIGN.md §12).
//!
//! Validates allocator output *statically*, the way regalloc2's checker
//! validates its own: abstract-interpret the allocated function, tracking
//! for every storage location (physical register or spill slot) the set of
//! virtual registers whose current value the location **provably** holds,
//! and reject any use whose location cannot be proven to hold the expected
//! vreg on every path. Unlike the execution-trace simulator this covers
//! *all* CFG paths at once, so it catches bugs the simulator's single
//! dynamic path can miss (e.g. a value remapped into a call-clobbered
//! register on a path the trace never takes).
//!
//! Two entry points:
//!
//! * [`check_allocation`] — the substitution check. Aligns the allocated
//!   function against the [`AllocationRecord`] snapshot captured inside
//!   the engine (symbolic function + vreg → color assignment), re-derives
//!   which moves became trivial and were deleted, then runs the location
//!   dataflow. Alignment is *remap-invariant*: class operands are paired
//!   positionally (symbolic vreg ↔ allocated preg) without comparing the
//!   numbers against the assignment, so the same record validates the
//!   function before and after register remapping — the dataflow itself
//!   enforces that every vreg is used from one consistent register.
//!
//! * [`check_function_encoding`] / [`check_encoded_fields`] — the
//!   differential-encoding check. Replays the emitted field stream through
//!   the *real* decoder ([`dra_encoding::decode_field`], not a
//!   reimplementation and not the simulator) under a per-block fixpoint
//!   over the decoder-state lattice, and rejects any field that decodes to
//!   the wrong register — or cannot be decoded at all — on some path. The
//!   stream-shape handling is total: truncated or misaligned streams are
//!   violations, never panics, so the fault-injection harness can use the
//!   checker as a second adjudicator on corrupted streams.
//!
//! # Lattice
//!
//! Location values form the must-hold lattice `VSet`: ⊤ (unanalyzed —
//! could hold anything), or a finite set of vregs the location is known to
//! hold. The meet at CFG joins is set intersection with ⊤ as identity;
//! block entry states start at ⊤ (except the entry block, which starts
//! all-∅: on function entry no location provably holds any vreg) and only
//! descend, so the fixpoint terminates. A use check `v ∈ state[p]` against
//! ⊤ succeeds vacuously, but every reachable block's entry state is
//! concrete after the fixpoint, so violations in reachable code are real.

use crate::allocator::AllocationRecord;
use dra_encoding::{
    decode_field, encode_fields, DecodeError, DecodeState, EncodingConfig, InstFields, LastReg,
};
use dra_ir::{BlockId, Function, Inst, PReg, Reg, SpillSlot, VReg};
use std::collections::BTreeSet;
use std::fmt;

/// Work counters of a successful check (telemetry: `checker.*`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Instructions checked (paired symbolic/allocated instructions, or
    /// replayed instructions for the encoding check).
    pub insts: usize,
    /// Trivial moves whose deletion the alignment re-derived.
    pub deleted_moves: usize,
    /// Register fields replayed through the decoder.
    pub fields_replayed: usize,
}

impl CheckStats {
    /// Fold another check's counters into this one.
    pub fn merge(&mut self, other: &CheckStats) {
        self.insts += other.insts;
        self.deleted_moves += other.deleted_moves;
        self.fields_replayed += other.fields_replayed;
    }
}

/// One rejected program point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Block containing the violation.
    pub block: BlockId,
    /// Instruction index within the block (allocated function).
    pub inst: usize,
    /// What went wrong.
    pub kind: ViolationKind,
}

/// The ways a program point can fail the checker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// A use reads a register that cannot be proven to hold the vreg.
    WrongValue {
        /// Register the allocated code reads.
        preg: PReg,
        /// Virtual register the symbolic code expects there.
        vreg: VReg,
    },
    /// A spill-slot use cannot be proven to hold the vreg (reserved for
    /// future slot-content checks; the current dataflow justifies reloads
    /// by construction).
    SlotWrongValue {
        /// The slot read.
        slot: SpillSlot,
        /// Expected vreg.
        vreg: VReg,
    },
    /// A field was reached with an unknown or corrupt decoder state, or
    /// carries an undecodable code.
    DecodeInconsistent {
        /// Field index within the instruction.
        field: usize,
    },
    /// A field decoded to a different register than the operand names.
    DecodeMismatch {
        /// Field index within the instruction.
        field: usize,
        /// What the decoder produced.
        decoded: u8,
        /// What the instruction names.
        expected: u8,
    },
    /// The field stream's shape disagrees with the instruction's accesses
    /// (dropped, duplicated, or truncated entries).
    StreamShape {
        /// Fields the accesses require.
        expected: usize,
        /// Fields the stream supplied.
        got: usize,
    },
    /// A class operand is still virtual where physical code is required.
    UnallocatedOperand,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: ", self.block, self.inst)?;
        match &self.kind {
            ViolationKind::WrongValue { preg, vreg } => {
                write!(f, "use of {vreg} from {preg} not provable")
            }
            ViolationKind::SlotWrongValue { slot, vreg } => {
                write!(f, "use of {vreg} from {slot} not provable")
            }
            ViolationKind::DecodeInconsistent { field } => {
                write!(f, "field {field} undecodable (unknown or corrupt last_reg)")
            }
            ViolationKind::DecodeMismatch {
                field,
                decoded,
                expected,
            } => write!(
                f,
                "field {field} decodes to r{decoded}, operand names r{expected}"
            ),
            ViolationKind::StreamShape { expected, got } => {
                write!(f, "stream shape: {got} codes for {expected} accesses")
            }
            ViolationKind::UnallocatedOperand => write!(f, "class operand still virtual"),
        }
    }
}

/// A failed check.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckError {
    /// Symbolic and allocated functions have different block counts — the
    /// record does not describe this function.
    BlockCount {
        /// Blocks in the symbolic snapshot.
        symbolic: usize,
        /// Blocks in the allocated function.
        allocated: usize,
    },
    /// A referenced class vreg has no color in the record's assignment.
    UnassignedVReg {
        /// The colorless vreg.
        vreg: VReg,
    },
    /// An allocated class operand's register number is `>= k`.
    RegOutOfRange {
        /// Block containing the operand.
        block: BlockId,
        /// Instruction index within the block.
        inst: usize,
        /// The out-of-range register.
        preg: PReg,
        /// The configured color count.
        k: u16,
    },
    /// Instruction streams do not align (shape, opcode, immediate, or
    /// non-class operand mismatch).
    InstMismatch {
        /// Block where alignment broke.
        block: BlockId,
        /// Symbolic instruction index at the break.
        inst: usize,
        /// Human-readable detail.
        detail: String,
    },
    /// The dataflow rejected one or more program points.
    Violations(Vec<Violation>),
    /// The clean static encode failed — the function was never validly
    /// repaired, so there is no stream to check.
    Encode(DecodeError),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::BlockCount {
                symbolic,
                allocated,
            } => write!(
                f,
                "block count mismatch: symbolic {symbolic}, allocated {allocated}"
            ),
            CheckError::UnassignedVReg { vreg } => {
                write!(f, "referenced {vreg} has no color in the record")
            }
            CheckError::RegOutOfRange {
                block,
                inst,
                preg,
                k,
            } => write!(f, "{block}:{inst}: {preg} out of range (k = {k})"),
            CheckError::InstMismatch {
                block,
                inst,
                detail,
            } => write!(f, "{block}:{inst}: instruction streams diverge: {detail}"),
            CheckError::Violations(vs) => {
                write!(f, "{} violation(s)", vs.len())?;
                for v in vs.iter().take(4) {
                    write!(f, "; {v}")?;
                }
                if vs.len() > 4 {
                    write!(f, "; …")?;
                }
                Ok(())
            }
            CheckError::Encode(e) => write!(f, "static encode failed: {e}"),
        }
    }
}

impl std::error::Error for CheckError {}

// ---------------------------------------------------------------------------
// The location-value lattice.
// ---------------------------------------------------------------------------

/// Set of vregs a location provably holds: ⊤ (unanalyzed) or a finite set.
#[derive(Clone, Debug, PartialEq, Eq)]
enum VSet {
    /// Unanalyzed — identity of the meet. Never observed at use checks in
    /// reachable code after the fixpoint.
    Univ,
    /// The location is known to hold the current value of exactly these
    /// vregs (empty = provably none).
    Set(BTreeSet<u32>),
}

impl VSet {
    fn empty() -> VSet {
        VSet::Set(BTreeSet::new())
    }

    fn contains(&self, v: u32) -> bool {
        match self {
            VSet::Univ => true,
            VSet::Set(s) => s.contains(&v),
        }
    }

    fn insert(&mut self, v: u32) {
        if let VSet::Set(s) = self {
            s.insert(v);
        }
    }

    fn remove(&mut self, v: u32) {
        if let VSet::Set(s) = self {
            s.remove(&v);
        }
    }

    fn meet(&self, other: &VSet) -> VSet {
        match (self, other) {
            (VSet::Univ, x) | (x, VSet::Univ) => x.clone(),
            (VSet::Set(a), VSet::Set(b)) => VSet::Set(a.intersection(b).copied().collect()),
        }
    }
}

/// Abstract machine state: one [`VSet`] per physical register and spill
/// slot.
#[derive(Clone, Debug, PartialEq, Eq)]
struct AbsState {
    regs: Vec<VSet>,
    slots: Vec<VSet>,
}

impl AbsState {
    fn entry(n_regs: usize, n_slots: usize) -> AbsState {
        AbsState {
            regs: vec![VSet::empty(); n_regs],
            slots: vec![VSet::empty(); n_slots],
        }
    }

    fn meet(&self, other: &AbsState) -> AbsState {
        AbsState {
            regs: self
                .regs
                .iter()
                .zip(&other.regs)
                .map(|(a, b)| a.meet(b))
                .collect(),
            slots: self
                .slots
                .iter()
                .zip(&other.slots)
                .map(|(a, b)| a.meet(b))
                .collect(),
        }
    }

    /// Redefinition of `v`: its old value is stale everywhere.
    fn kill(&mut self, v: u32) {
        for s in self.regs.iter_mut().chain(self.slots.iter_mut()) {
            s.remove(v);
        }
    }
}

// ---------------------------------------------------------------------------
// Alignment: symbolic snapshot vs allocated function.
// ---------------------------------------------------------------------------

/// One aligned step of a block: a symbolic instruction that was deleted as
/// a trivial move, or a symbolic/allocated instruction pair.
#[derive(Clone, Copy, Debug)]
enum Event {
    Deleted { sym: usize },
    Pair { sym: usize, alloc: usize },
}

/// Replace every register operand so instruction equality compares only
/// opcode and non-register payload.
fn strip_regs(i: &Inst) -> Inst {
    let mut c = i.clone();
    c.map_regs(|_| Reg::Phys(PReg(u8::MAX)));
    c
}

struct Aligner<'a> {
    allocated: &'a Function,
    rec: &'a AllocationRecord,
}

impl<'a> Aligner<'a> {
    /// The color the record gives operand `r`, as a physical register —
    /// identity on everything that is not a class vreg.
    fn resolve(&self, r: Reg) -> Result<Reg, CheckError> {
        match r {
            Reg::Virt(v) if self.rec.symbolic.vreg_class(v) == self.rec.class => {
                let c = self
                    .rec
                    .assignment
                    .get(v.index())
                    .copied()
                    .flatten()
                    .ok_or(CheckError::UnassignedVReg { vreg: v })?;
                Ok(Reg::Phys(PReg(c)))
            }
            other => Ok(other),
        }
    }

    fn is_class_vreg(&self, r: Reg) -> Option<VReg> {
        r.as_virt()
            .filter(|&v| self.rec.symbolic.vreg_class(v) == self.rec.class)
    }

    /// Pair one block's instruction streams. `set_last_reg` instructions
    /// are skipped independently on each side (the repair pass inserts
    /// them into the allocated stream only); a symbolic move whose two
    /// resolved operands coincide must have been deleted by the engine's
    /// substitution pass.
    fn align_block(&self, b: BlockId) -> Result<Vec<Event>, CheckError> {
        let sym_insts = &self.rec.symbolic.block(b).insts;
        let alloc_insts = &self.allocated.block(b).insts;
        let mut events = Vec::with_capacity(sym_insts.len());
        let mut ai = 0usize;
        for (si, sym) in sym_insts.iter().enumerate() {
            if sym.is_set_last_reg() {
                continue;
            }
            if let Inst::Mov { dst, src } = sym {
                if self.resolve(*dst)? == self.resolve(*src)? {
                    events.push(Event::Deleted { sym: si });
                    continue;
                }
            }
            while alloc_insts.get(ai).is_some_and(Inst::is_set_last_reg) {
                ai += 1;
            }
            let Some(alloc) = alloc_insts.get(ai) else {
                return Err(CheckError::InstMismatch {
                    block: b,
                    inst: si,
                    detail: format!("allocated stream ends before `{sym}`"),
                });
            };
            self.match_pair(b, si, sym, alloc)?;
            events.push(Event::Pair { sym: si, alloc: ai });
            ai += 1;
        }
        while alloc_insts.get(ai).is_some_and(Inst::is_set_last_reg) {
            ai += 1;
        }
        if ai != alloc_insts.len() {
            return Err(CheckError::InstMismatch {
                block: b,
                inst: sym_insts.len(),
                detail: format!(
                    "allocated stream has {} unmatched trailing instruction(s)",
                    alloc_insts.len() - ai
                ),
            });
        }
        Ok(events)
    }

    /// Check a symbolic/allocated instruction pair matches structurally:
    /// identical opcode and non-register payload, class vregs paired with
    /// in-range physical registers, everything else operand-for-operand
    /// equal. Register *numbers* of class operands are deliberately not
    /// compared against the assignment — remapping permutes them; the
    /// dataflow enforces consistency instead.
    fn match_pair(
        &self,
        b: BlockId,
        si: usize,
        sym: &Inst,
        alloc: &Inst,
    ) -> Result<(), CheckError> {
        if strip_regs(sym) != strip_regs(alloc) {
            return Err(CheckError::InstMismatch {
                block: b,
                inst: si,
                detail: format!("`{sym}` vs `{alloc}`"),
            });
        }
        let sym_ops: Vec<Reg> = sym.accesses();
        let alloc_ops: Vec<Reg> = alloc.accesses();
        debug_assert_eq!(sym_ops.len(), alloc_ops.len());
        for (&s, &a) in sym_ops.iter().zip(&alloc_ops) {
            if let Some(v) = self.is_class_vreg(s) {
                // Resolvability is part of the contract even though the
                // number is not compared (remap-invariance).
                self.resolve(s)?;
                match a.as_phys() {
                    Some(p) if u16::from(p.number()) < self.rec.k => {}
                    Some(p) => {
                        return Err(CheckError::RegOutOfRange {
                            block: b,
                            inst: si,
                            preg: p,
                            k: self.rec.k,
                        })
                    }
                    None => {
                        return Err(CheckError::InstMismatch {
                            block: b,
                            inst: si,
                            detail: format!("{v} paired with virtual operand {a:?}"),
                        })
                    }
                }
            } else if s != a {
                return Err(CheckError::InstMismatch {
                    block: b,
                    inst: si,
                    detail: format!("non-class operand {s:?} became {a:?}"),
                });
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The substitution check.
// ---------------------------------------------------------------------------

/// Verify that `allocated` is a consistent realization of the record's
/// symbolic function under *some* per-vreg register assignment — the
/// engine's own, or any remapping of it.
///
/// # Errors
///
/// Alignment failures ([`CheckError::InstMismatch`] and friends) mean the
/// record does not describe this function; [`CheckError::Violations`]
/// means the allocation itself is wrong (a use reads a register that does
/// not hold the expected value on every path).
pub fn check_allocation(
    allocated: &Function,
    rec: &AllocationRecord,
) -> Result<CheckStats, CheckError> {
    if rec.symbolic.num_blocks() != allocated.num_blocks() {
        return Err(CheckError::BlockCount {
            symbolic: rec.symbolic.num_blocks(),
            allocated: allocated.num_blocks(),
        });
    }
    let aligner = Aligner { allocated, rec };
    let nb = allocated.num_blocks();
    let mut events = Vec::with_capacity(nb);
    for bi in 0..nb {
        events.push(aligner.align_block(BlockId(bi as u32))?);
    }

    // Location space: every class color plus any physical number the code
    // mentions (call clobbers included), and the function's spill slots.
    let mut n_regs = rec.k as usize;
    for i in allocated.iter_insts() {
        for r in i.accesses() {
            if let Some(p) = r.as_phys() {
                n_regs = n_regs.max(p.index() + 1);
            }
        }
    }
    for p in &rec.call_clobbers {
        n_regs = n_regs.max(p.index() + 1);
    }
    let n_slots = rec
        .symbolic
        .spill_slots
        .max(allocated.spill_slots) as usize;

    let mut stats = CheckStats::default();
    for evs in &events {
        for e in evs {
            match e {
                Event::Deleted { .. } => stats.deleted_moves += 1,
                Event::Pair { .. } => stats.insts += 1,
            }
        }
    }

    // Fixpoint over block entry states (worklist in reverse postorder).
    let rpo = allocated.reverse_postorder();
    let mut entry: Vec<Option<AbsState>> = vec![None; nb];
    entry[allocated.entry.index()] = Some(AbsState::entry(n_regs, n_slots));
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &rpo {
            let Some(inp) = entry[b.index()].clone() else {
                continue;
            };
            let out = run_block(&aligner, b, &events[b.index()], inp, None);
            for &s in &allocated.block(b).succs {
                let next = match &entry[s.index()] {
                    Some(cur) => cur.meet(&out),
                    None => out.clone(),
                };
                if entry[s.index()].as_ref() != Some(&next) {
                    entry[s.index()] = Some(next);
                    changed = true;
                }
            }
        }
    }

    // Violation pass over reachable blocks with the fixpoint entry states.
    let mut violations = Vec::new();
    for &b in &rpo {
        if let Some(inp) = entry[b.index()].clone() {
            run_block(&aligner, b, &events[b.index()], inp, Some(&mut violations));
        }
    }
    if violations.is_empty() {
        Ok(stats)
    } else {
        Err(CheckError::Violations(violations))
    }
}

/// Run one block's events over an entry state; returns the exit state,
/// recording violations when a sink is supplied.
fn run_block(
    aligner: &Aligner<'_>,
    b: BlockId,
    events: &[Event],
    mut st: AbsState,
    mut violations: Option<&mut Vec<Violation>>,
) -> AbsState {
    let sym_insts = &aligner.rec.symbolic.block(b).insts;
    let alloc_insts = &aligner.allocated.block(b).insts;
    for e in events {
        match *e {
            Event::Deleted { sym } => {
                let Inst::Mov { dst, src } = &sym_insts[sym] else {
                    unreachable!("deleted events are moves by construction");
                };
                step_deleted_move(aligner, &mut st, *dst, *src);
            }
            Event::Pair { sym, alloc } => {
                step_pair(
                    aligner,
                    &mut st,
                    &sym_insts[sym],
                    &alloc_insts[alloc],
                    b,
                    alloc,
                    violations.as_deref_mut(),
                );
            }
        }
    }
    st
}

/// Transfer of a deleted trivial move `dst = src`: `dst` now shares
/// whatever storage holds `src`.
fn step_deleted_move(aligner: &Aligner<'_>, st: &mut AbsState, dst: Reg, src: Reg) {
    let Some(vd) = aligner.is_class_vreg(dst) else {
        return; // e.g. a float-class `mov v, v` — outside this analysis
    };
    st.kill(vd.0);
    match (aligner.is_class_vreg(src), src.as_phys()) {
        (Some(vs), _) => {
            for s in st.regs.iter_mut().chain(st.slots.iter_mut()) {
                if s.contains(vs.0) && *s != VSet::Univ {
                    s.insert(vd.0);
                }
            }
        }
        (None, Some(p)) if p.index() < st.regs.len() => {
            st.regs[p.index()].insert(vd.0);
        }
        _ => {}
    }
}

/// Transfer (and use-check) of a paired instruction.
fn step_pair(
    aligner: &Aligner<'_>,
    st: &mut AbsState,
    sym: &Inst,
    alloc: &Inst,
    b: BlockId,
    ai: usize,
    mut violations: Option<&mut Vec<Violation>>,
) {
    // Use checks against the pre-state: every class-vreg use must read a
    // register that provably holds it.
    let sym_uses = sym.uses();
    let alloc_uses = alloc.uses();
    for (s, a) in sym_uses.iter().zip(&alloc_uses) {
        if let (Some(v), Some(p)) = (aligner.is_class_vreg(*s), a.as_phys()) {
            if !st.regs[p.index()].contains(v.0) {
                if let Some(sink) = violations.as_deref_mut() {
                    sink.push(Violation {
                        block: b,
                        inst: ai,
                        kind: ViolationKind::WrongValue { preg: p, vreg: v },
                    });
                }
            }
        }
    }

    // Instruction-specific state transfer.
    match (sym, alloc) {
        (Inst::SpillLoad { dst, slot }, Inst::SpillLoad { dst: adst, .. }) => {
            // The reload defines `dst` as the slot's contents: the target
            // register now holds `dst` (by definition) plus every vreg the
            // slot provably held — their values coincide from here on.
            if let (Some(v), Some(p)) = (aligner.is_class_vreg(*dst), adst.as_phys()) {
                st.kill(v.0);
                let mut set = st.slots[slot.index()].clone();
                set.insert(v.0);
                st.regs[p.index()] = set;
            }
            return;
        }
        (Inst::SpillStore { src, slot }, Inst::SpillStore { src: asrc, .. }) => {
            // The slot now holds exactly what the stored register holds.
            if let Some(p) = asrc.as_phys() {
                let _ = src;
                st.slots[slot.index()] = st.regs[p.index()].clone();
            }
            return;
        }
        (Inst::Call { .. }, Inst::Call { .. }) => {
            for p in &aligner.rec.call_clobbers {
                st.regs[p.index()] = VSet::empty();
            }
            // Fall through to the generic defs (the return value, defined
            // after the clobber).
        }
        _ => {}
    }

    // Generic defs: a class-vreg def lands its value in exactly one
    // register; a physical def makes that register's contents untracked.
    let sym_defs = sym.defs();
    let alloc_defs = alloc.defs();
    for (s, a) in sym_defs.iter().zip(&alloc_defs) {
        match (aligner.is_class_vreg(*s), a.as_phys()) {
            (Some(v), Some(p)) => {
                st.kill(v.0);
                st.regs[p.index()] = VSet::Set(BTreeSet::from([v.0]));
            }
            (None, Some(p)) if s.as_phys().is_some() => {
                st.regs[p.index()] = VSet::empty();
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// The differential-encoding check.
// ---------------------------------------------------------------------------

/// Statically verify that `f`'s differential field stream decodes to the
/// operands it names on *every* CFG path, by replaying the encoder's own
/// output through the real decoder under a per-block fixpoint.
///
/// # Errors
///
/// [`CheckError::Encode`] if the clean encode itself fails (unrepaired
/// function); [`CheckError::Violations`] if replay decodes any field to
/// the wrong register on some path.
pub fn check_function_encoding(
    f: &Function,
    cfg: &EncodingConfig,
) -> Result<CheckStats, CheckError> {
    let encoded = encode_fields(f, cfg).map_err(CheckError::Encode)?;
    check_encoded_fields(f, cfg, &encoded, None)
}

/// [`check_function_encoding`] over an untrusted field stream and an
/// explicit entry decoder state — the fault-adjudication entry point.
/// Corrupt codes, dropped or duplicated entries, truncated streams, and
/// flipped entry states are all reported as violations, never panics.
///
/// `entry` is the decoder's power-on state for the entry block; `None`
/// models the hardware's unknown power-on (`last_reg` unknown).
///
/// # Errors
///
/// [`CheckError::Violations`] listing every rejected field.
pub fn check_encoded_fields(
    f: &Function,
    cfg: &EncodingConfig,
    encoded: &[Vec<InstFields>],
    entry: Option<&LastReg>,
) -> Result<CheckStats, CheckError> {
    let nb = f.num_blocks();
    let entry_state = match entry.and_then(LastReg::current) {
        Some(v) => DecodeState::Known(v),
        None => DecodeState::Top,
    };
    let mut in_st = vec![DecodeState::Bot; nb];
    in_st[f.entry.index()] = entry_state;

    let rpo = f.reverse_postorder();
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &rpo {
            if in_st[b.index()] == DecodeState::Bot {
                continue;
            }
            let (out, _, _) = replay_block(f, cfg, encoded, b, in_st[b.index()], false);
            for &s in &f.block(b).succs {
                let next = in_st[s.index()].meet(out);
                if next != in_st[s.index()] {
                    in_st[s.index()] = next;
                    changed = true;
                }
            }
        }
    }

    let mut stats = CheckStats::default();
    let mut violations = Vec::new();
    for &b in &rpo {
        if in_st[b.index()] == DecodeState::Bot {
            continue;
        }
        let (_, s, mut vs) = replay_block(f, cfg, encoded, b, in_st[b.index()], true);
        stats.merge(&s);
        violations.append(&mut vs);
    }
    if violations.is_empty() {
        Ok(stats)
    } else {
        Err(CheckError::Violations(violations))
    }
}

/// Replay one block's field stream through the decoder from an abstract
/// entry state. Returns the abstract exit state, the work counters, and —
/// when `collect` is set — the violations found.
fn replay_block(
    f: &Function,
    cfg: &EncodingConfig,
    encoded: &[Vec<InstFields>],
    b: BlockId,
    inp: DecodeState,
    collect: bool,
) -> (DecodeState, CheckStats, Vec<Violation>) {
    let mut last = match inp {
        DecodeState::Known(v) => LastReg::known(v),
        _ => LastReg::default(),
    };
    let mut stats = CheckStats::default();
    let mut violations = Vec::new();
    let bail = |vs: &mut Vec<Violation>, v: Violation| {
        if collect {
            vs.push(v);
        }
    };
    let stream = encoded.get(b.index());
    for (ii, inst) in f.block(b).insts.iter().enumerate() {
        if let Inst::SetLastReg {
            class,
            value,
            delay,
        } = inst
        {
            if *class == cfg.class {
                last.set(*value, *delay);
            }
            continue;
        }
        stats.insts += 1;
        // Non-panicking `class_accesses_ordered`: a virtual class operand
        // here means unallocated code reached the encoder — a violation,
        // not a crash.
        let mut actual = Vec::new();
        let mut has_virt = false;
        for r in inst.accesses_in(cfg.order) {
            if f.class_of(r) != cfg.class {
                continue;
            }
            match r.as_phys() {
                Some(p) => actual.push(p.number()),
                None => has_virt = true,
            }
        }
        if has_virt {
            bail(
                &mut violations,
                Violation {
                    block: b,
                    inst: ii,
                    kind: ViolationKind::UnallocatedOperand,
                },
            );
            last.clobber();
            continue;
        }
        let codes = stream.and_then(|s| s.get(ii));
        let Some(codes) = codes else {
            bail(
                &mut violations,
                Violation {
                    block: b,
                    inst: ii,
                    kind: ViolationKind::StreamShape {
                        expected: actual.len(),
                        got: 0,
                    },
                },
            );
            last.clobber();
            continue;
        };
        if codes.len() != actual.len() {
            bail(
                &mut violations,
                Violation {
                    block: b,
                    inst: ii,
                    kind: ViolationKind::StreamShape {
                        expected: actual.len(),
                        got: codes.len(),
                    },
                },
            );
            last.clobber();
            continue;
        }
        for (k, &code) in codes.iter().enumerate() {
            stats.fields_replayed += 1;
            match decode_field(cfg, &mut last, code) {
                Some(r) if r == actual[k] => {}
                Some(r) => bail(
                    &mut violations,
                    Violation {
                        block: b,
                        inst: ii,
                        kind: ViolationKind::DecodeMismatch {
                            field: k,
                            decoded: r,
                            expected: actual[k],
                        },
                    },
                ),
                None => bail(
                    &mut violations,
                    Violation {
                        block: b,
                        inst: ii,
                        kind: ViolationKind::DecodeInconsistent { field: k },
                    },
                ),
            }
        }
        if matches!(inst, Inst::Call { .. }) {
            last.clobber();
        }
    }
    let out = if last.has_pending() {
        DecodeState::Top
    } else {
        match last.current() {
            Some(v) => DecodeState::Known(v),
            None => DecodeState::Top,
        }
    };
    (out, stats, violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::{Allocator, Coalescing, DenseIrc, Ospill, ReferenceIrc};
    use crate::irc::AllocConfig;
    use dra_adjgraph::DiffParams;
    use dra_encoding::insert_set_last_reg;
    use dra_ir::{BinOp, Cond, FunctionBuilder};

    fn diamond(width: usize) -> Function {
        let mut b = FunctionBuilder::new("diamond");
        let vs: Vec<_> = (0..width).map(|_| b.new_vreg()).collect();
        for (i, &v) in vs.iter().enumerate() {
            b.mov_imm(v, i as i32);
        }
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.cond_br(Cond::Lt, vs[0].into(), vs[1].into(), t, e);
        b.switch_to(t);
        b.bin(BinOp::Add, vs[0], vs[0].into(), vs[1].into());
        b.br(j);
        b.switch_to(e);
        b.bin(BinOp::Sub, vs[0], vs[0].into(), vs[2].into());
        b.br(j);
        b.switch_to(j);
        let s = b.new_vreg();
        b.mov_imm(s, 0);
        for &v in &vs {
            b.bin(BinOp::Add, s, s.into(), v.into());
        }
        b.ret(Some(s.into()));
        b.finish()
    }

    fn engines() -> Vec<Box<dyn Allocator>> {
        vec![
            Box::new(DenseIrc),
            Box::new(ReferenceIrc),
            Box::new(Ospill),
            Box::new(Coalescing),
        ]
    }

    #[test]
    fn accepts_every_engine_on_a_diamond() {
        let f = diamond(6);
        let cfg = AllocConfig::differential(DiffParams::new(8, 4));
        for eng in engines() {
            let a = eng.allocate(&f, &cfg).unwrap();
            let stats = check_allocation(&a.func, &a.record)
                .unwrap_or_else(|e| panic!("{} rejected: {e}", eng.name()));
            assert!(stats.insts > 0, "{}", eng.name());
        }
    }

    #[test]
    fn accepts_spilling_allocations() {
        let f = diamond(10);
        let cfg = AllocConfig::baseline(4);
        for eng in engines() {
            let a = eng.allocate(&f, &cfg).unwrap();
            check_allocation(&a.func, &a.record)
                .unwrap_or_else(|e| panic!("{} rejected: {e}", eng.name()));
        }
    }

    #[test]
    fn rejects_corrupted_use_register() {
        // Redirect one use to a different (in-range) register: the
        // location no longer holds the expected vreg on any path.
        let f = diamond(6);
        let cfg = AllocConfig::baseline(8);
        let a = DenseIrc.allocate(&f, &cfg).unwrap();
        let mut broken = a.func.clone();
        let mut done = false;
        'outer: for blk in &mut broken.blocks {
            for inst in &mut blk.insts {
                if let Inst::Bin { lhs, .. } = inst {
                    let p = lhs.expect_phys();
                    *lhs = Reg::Phys(PReg((p.number() + 1) % 8));
                    done = true;
                    break 'outer;
                }
            }
        }
        assert!(done, "no Bin instruction found to corrupt");
        match check_allocation(&broken, &a.record) {
            Err(CheckError::Violations(vs)) => {
                assert!(vs
                    .iter()
                    .any(|v| matches!(v.kind, ViolationKind::WrongValue { .. })));
            }
            other => panic!("corrupt use not rejected: {other:?}"),
        }
    }

    #[test]
    fn rejects_corrupted_def_register() {
        // Moving a def to another register strands every later use.
        let f = diamond(6);
        let cfg = AllocConfig::baseline(8);
        let a = DenseIrc.allocate(&f, &cfg).unwrap();
        let mut broken = a.func.clone();
        let mut done = false;
        for inst in &mut broken.blocks[0].insts {
            if let Inst::MovImm { dst, .. } = inst {
                let p = dst.expect_phys();
                *dst = Reg::Phys(PReg((p.number() + 1) % 8));
                done = true;
                break;
            }
        }
        assert!(done);
        assert!(matches!(
            check_allocation(&broken, &a.record),
            Err(CheckError::Violations(_))
        ));
    }

    #[test]
    fn rejects_out_of_range_register() {
        let f = diamond(4);
        let cfg = AllocConfig::baseline(8);
        let a = DenseIrc.allocate(&f, &cfg).unwrap();
        let mut broken = a.func.clone();
        if let Inst::MovImm { dst, .. } = &mut broken.blocks[0].insts[0] {
            *dst = Reg::Phys(PReg(200));
        } else {
            panic!("unexpected first instruction");
        }
        assert!(matches!(
            check_allocation(&broken, &a.record),
            Err(CheckError::RegOutOfRange { .. })
        ));
    }

    #[test]
    fn remapped_allocation_still_accepted() {
        // A global register permutation is exactly what remapping does;
        // the checker's alignment is number-agnostic and the dataflow
        // stays consistent.
        let f = diamond(6);
        let cfg = AllocConfig::baseline(8);
        let a = DenseIrc.allocate(&f, &cfg).unwrap();
        let mut remapped = a.func.clone();
        remapped.map_all_regs(|r| match r.as_phys() {
            Some(p) => Reg::Phys(PReg((p.number() + 3) % 8)),
            None => r,
        });
        check_allocation(&remapped, &a.record).unwrap();
    }

    #[test]
    fn inconsistent_remap_rejected() {
        // Permuting only SOME occurrences (def stays, use moves) is the
        // bug class remapping could introduce; the dataflow catches it
        // even though each number is individually in range.
        let f = diamond(6);
        let cfg = AllocConfig::baseline(8);
        let a = DenseIrc.allocate(&f, &cfg).unwrap();
        let mut broken = a.func.clone();
        let last = broken.blocks.len() - 1;
        let mut done = false;
        for inst in &mut broken.blocks[last].insts {
            if let Inst::Bin { rhs, .. } = inst {
                let p = rhs.expect_phys();
                *rhs = Reg::Phys(PReg((p.number() + 1) % 8));
                done = true;
                break;
            }
        }
        assert!(done);
        assert!(matches!(
            check_allocation(&broken, &a.record),
            Err(CheckError::Violations(_))
        ));
    }

    #[test]
    fn encoding_replay_accepts_repaired_function() {
        let f = diamond(6);
        let acfg = AllocConfig::differential(DiffParams::new(8, 4));
        let a = DenseIrc.allocate(&f, &acfg).unwrap();
        let mut func = a.func;
        let ecfg = EncodingConfig::new(DiffParams::new(8, 4));
        insert_set_last_reg(&mut func, &ecfg);
        let stats = check_function_encoding(&func, &ecfg).unwrap();
        assert!(stats.fields_replayed > 0);
    }

    #[test]
    fn encoding_replay_rejects_corrupt_field() {
        let f = diamond(6);
        let acfg = AllocConfig::differential(DiffParams::new(8, 4));
        let a = DenseIrc.allocate(&f, &acfg).unwrap();
        let mut func = a.func;
        let ecfg = EncodingConfig::new(DiffParams::new(8, 4));
        insert_set_last_reg(&mut func, &ecfg);
        let mut encoded = encode_fields(&func, &ecfg).unwrap();
        let mut done = false;
        'outer: for blk in &mut encoded {
            for codes in blk.iter_mut() {
                if let Some(c) = codes.first_mut() {
                    *c = (*c + 1) % 4;
                    done = true;
                    break 'outer;
                }
            }
        }
        assert!(done);
        assert!(matches!(
            check_encoded_fields(&func, &ecfg, &encoded, None),
            Err(CheckError::Violations(_))
        ));
    }

    #[test]
    fn encoding_replay_rejects_truncated_stream() {
        let f = diamond(4);
        let acfg = AllocConfig::differential(DiffParams::new(8, 4));
        let a = DenseIrc.allocate(&f, &acfg).unwrap();
        let mut func = a.func;
        let ecfg = EncodingConfig::new(DiffParams::new(8, 4));
        insert_set_last_reg(&mut func, &ecfg);
        let mut encoded = encode_fields(&func, &ecfg).unwrap();
        encoded[0].truncate(1);
        match check_encoded_fields(&func, &ecfg, &encoded, None) {
            Err(CheckError::Violations(vs)) => {
                assert!(vs
                    .iter()
                    .any(|v| matches!(v.kind, ViolationKind::StreamShape { .. })));
            }
            other => panic!("truncation not rejected: {other:?}"),
        }
    }
}
