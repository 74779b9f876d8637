//! Parsing the textual IR form back into [`Function`]s.
//!
//! The grammar is exactly what [`Function`]'s `Display` emits, so
//! `parse_function(&f.to_string())` round-trips. Handy for writing tests
//! and reduced repros by hand, and for diffing compiler stages as text.
//!
//! ```
//! use dra_ir::parse::parse_function;
//!
//! let f = parse_function(
//!     "fn double([v0]):\n\
//!      bb0:\n\
//!          v0 = param 0\n\
//!          v1 = add v0, v0\n\
//!          ret v1\n",
//! )?;
//! assert_eq!(f.name, "double");
//! assert_eq!(f.num_insts(), 3);
//! # Ok::<(), dra_ir::parse::ParseError>(())
//! ```

use crate::block::{BasicBlock, BlockId};
use crate::function::Function;
use crate::inst::{BinOp, Cond, Inst, SpillSlot};
use crate::reg::{PReg, Reg, VReg};
use std::error::Error;
use std::fmt;

/// A parse failure with its line number (1-based).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending text.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

/// Cap on parsed entity ids (`bbN`, `vN`, `slotN`). Ids name slots in
/// dense arrays — `blocks`, `vreg_classes`, spill frames — so hostile text
/// like `br bb4000000000` must be rejected here, not answered with a
/// multi-gigabyte allocation (or an index overflow) downstream.
const MAX_ID: u32 = 1 << 20;

fn parse_id(s: &str) -> Option<u32> {
    let n: u32 = s.parse().ok()?;
    (n <= MAX_ID).then_some(n)
}

/// Parse one function from its textual form.
///
/// # Errors
///
/// [`ParseError`] with the offending line on any syntax problem. The
/// parsed function is CFG-recomputed but not otherwise validated; run
/// [`crate::validate::validate_function`] for structural checks.
pub fn parse_function(text: &str) -> Result<Function, ParseError> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l))
        // Leading blank/comment lines (e.g. `Program`'s `; fN` separators)
        // precede the header.
        .skip_while(|(_, l)| {
            let t = l.trim();
            t.is_empty() || t.starts_with(';')
        });

    // Header: `fn name([v0, v1]):` (register classes are not part of the
    // textual form; every register parses as the integer class).
    let (hline, header) = lines.next().ok_or(ParseError {
        line: 0,
        message: "empty input".into(),
    })?;
    let header = header.trim();
    let rest = header
        .strip_prefix("fn ")
        .ok_or(ParseError {
            line: hline,
            message: "expected `fn name([params]):`".into(),
        })?;
    let open = rest.find('(').ok_or(ParseError {
        line: hline,
        message: "missing parameter list".into(),
    })?;
    let name = rest[..open].trim().to_string();
    let close = rest.rfind(')').ok_or(ParseError {
        line: hline,
        message: "missing `)`".into(),
    })?;
    if close < open + 1 {
        // `)` before `(`, as in `fn f)(:` — slicing would panic.
        return err(hline, "`)` precedes `(` in the parameter list");
    }
    let params_src = rest[open + 1..close].trim_matches(['[', ']']);
    let mut f = Function::new(name);
    let mut max_vreg: i64 = -1;
    for p in params_src.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let v = parse_vreg(p, hline)?;
        f.params.push(v);
        max_vreg = max_vreg.max(v.0 as i64);
    }

    let mut current: Option<usize> = None;
    let mut blocks: Vec<BasicBlock> = Vec::new();
    let mut branch_refs: Vec<(usize, BlockId)> = Vec::new();

    for (ln, raw) in lines {
        // The code before the first `;` and the comment up to the next.
        let mut parts = raw.split(';');
        let trimmed = parts.next().unwrap_or("").trim();
        let comment = parts.next();
        if trimmed.is_empty() {
            // Block annotations may live entirely in the comment.
            if let (Some(bi), Some(comment)) = (current, comment) {
                if let Some(freq) = parse_freq(comment) {
                    blocks[bi].freq = freq;
                }
            }
            continue;
        }
        if let Some(label) = trimmed.strip_suffix(':') {
            let id = parse_block(label, ln)?;
            while blocks.len() <= id.index() {
                blocks.push(BasicBlock::new());
            }
            current = Some(id.index());
            if let Some(freq) = comment.and_then(parse_freq) {
                blocks[id.index()].freq = freq;
            }
            continue;
        }
        let Some(bi) = current else {
            return err(ln, "instruction before any block label");
        };
        let inst = parse_inst(trimmed, ln)?;
        for t in inst.branch_targets() {
            branch_refs.push((ln, t));
        }
        for r in inst.accesses() {
            if let Reg::Virt(v) = r {
                max_vreg = max_vreg.max(v.0 as i64);
            }
        }
        if let Inst::SpillLoad { slot, .. } | Inst::SpillStore { slot, .. } = &inst {
            f.spill_slots = f.spill_slots.max(slot.0 + 1);
        }
        blocks[bi].insts.push(inst);
    }

    if blocks.is_empty() {
        blocks.push(BasicBlock::new());
    }
    // Every branch must land on a declared label: `recompute_cfg` indexes
    // `preds`/`succs` by target, so a dangling `br bb99` would panic there
    // instead of erroring here.
    for (ln, t) in branch_refs {
        if t.index() >= blocks.len() {
            return err(
                ln,
                format!("branch target {t} does not exist ({} blocks)", blocks.len()),
            );
        }
    }
    f.blocks = blocks;
    f.vreg_count = (max_vreg + 1) as u32;
    f.vreg_classes = vec![crate::reg::RegClass::Int; f.vreg_count as usize];
    f.recompute_cfg();
    Ok(f)
}

fn parse_freq(comment: &str) -> Option<f64> {
    let idx = comment.find("freq=")?;
    let tail = &comment[idx + 5..];
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

fn parse_vreg(s: &str, line: usize) -> Result<VReg, ParseError> {
    match s.strip_prefix('v').and_then(parse_id) {
        Some(n) => Ok(VReg(n)),
        None => err(line, format!("expected virtual register, got `{s}`")),
    }
}

fn parse_reg(s: &str, line: usize) -> Result<Reg, ParseError> {
    let s = s.trim();
    if let Some(n) = s.strip_prefix('v').and_then(parse_id) {
        return Ok(Reg::Virt(VReg(n)));
    }
    if let Some(n) = s.strip_prefix('r').and_then(|n| n.parse().ok()) {
        return Ok(Reg::Phys(PReg(n)));
    }
    err(line, format!("expected register, got `{s}`"))
}

fn parse_block(s: &str, line: usize) -> Result<BlockId, ParseError> {
    match s.trim().strip_prefix("bb").and_then(parse_id) {
        Some(n) => Ok(BlockId(n)),
        None => err(line, format!("expected block label, got `{s}`")),
    }
}

fn parse_imm(s: &str, line: usize) -> Result<i32, ParseError> {
    match s.trim().strip_prefix('#').and_then(|n| n.parse().ok()) {
        Some(n) => Ok(n),
        None => err(line, format!("expected `#imm`, got `{s}`")),
    }
}

fn parse_binop(s: &str) -> Option<BinOp> {
    BinOp::ALL.into_iter().find(|op| op.name() == s)
}

fn parse_cond(s: &str) -> Option<Cond> {
    Cond::ALL.into_iter().find(|c| c.name() == s)
}

fn parse_mem_operand(s: &str, line: usize) -> Result<(Reg, i32), ParseError> {
    // `[base+offset]` where offset may be negative (`[v1+-8]`).
    let inner = s
        .trim()
        .strip_prefix('[')
        .and_then(|x| x.strip_suffix(']'))
        .ok_or(ParseError {
            line,
            message: format!("expected `[base+offset]`, got `{s}`"),
        })?;
    let plus = inner.find('+').ok_or(ParseError {
        line,
        message: format!("expected `base+offset` in `{s}`"),
    })?;
    let base = parse_reg(&inner[..plus], line)?;
    let off: i32 = inner[plus + 1..].trim().parse().map_err(|_| ParseError {
        line,
        message: format!("bad offset in `{s}`"),
    })?;
    Ok((base, off))
}

fn parse_slot(s: &str, line: usize) -> Result<SpillSlot, ParseError> {
    match s.trim().strip_prefix("slot").and_then(parse_id) {
        Some(n) => Ok(SpillSlot(n)),
        None => err(line, format!("expected `slotN`, got `{s}`")),
    }
}

fn parse_inst(s: &str, ln: usize) -> Result<Inst, ParseError> {
    // Forms without `=` first.
    if s == "nop" {
        return Ok(Inst::Nop);
    }
    if s == "ret" {
        return Ok(Inst::Ret { value: None });
    }
    if let Some(v) = s.strip_prefix("ret ") {
        return Ok(Inst::Ret {
            value: Some(parse_reg(v, ln)?),
        });
    }
    if let Some(rest) = s.strip_prefix("store ") {
        let (src, mem) = rest.split_once(',').ok_or(ParseError {
            line: ln,
            message: "store needs `src, [base+off]`".into(),
        })?;
        let (base, offset) = parse_mem_operand(mem, ln)?;
        return Ok(Inst::Store {
            src: parse_reg(src, ln)?,
            base,
            offset,
        });
    }
    if let Some(rest) = s.strip_prefix("spill ") {
        let (src, slot) = rest.split_once(',').ok_or(ParseError {
            line: ln,
            message: "spill needs `src, slotN`".into(),
        })?;
        return Ok(Inst::SpillStore {
            src: parse_reg(src, ln)?,
            slot: parse_slot(slot, ln)?,
        });
    }
    if let Some(rest) = s.strip_prefix("set_last_reg.") {
        // `set_last_reg.int(5, 1)`
        let open = rest.find('(').ok_or(ParseError {
            line: ln,
            message: "set_last_reg needs `(value, delay)`".into(),
        })?;
        let class = match &rest[..open] {
            "int" => crate::reg::RegClass::Int,
            "float" => crate::reg::RegClass::Float,
            other => return err(ln, format!("unknown register class `{other}`")),
        };
        let args = rest[open + 1..].trim_end_matches(')');
        let (v, d) = args.split_once(',').ok_or(ParseError {
            line: ln,
            message: "set_last_reg needs two arguments".into(),
        })?;
        let value = v.trim().parse().map_err(|_| ParseError {
            line: ln,
            message: "bad set_last_reg value".into(),
        })?;
        let delay = d.trim().parse().map_err(|_| ParseError {
            line: ln,
            message: "bad set_last_reg delay".into(),
        })?;
        return Ok(Inst::SetLastReg { class, value, delay });
    }
    if let Some(rest) = s.strip_prefix("br.") {
        // `br.lt v0, v1 -> bb1, bb2`
        let (cond_s, rest) = rest.split_once(' ').ok_or(ParseError {
            line: ln,
            message: "conditional branch needs operands".into(),
        })?;
        let cond = parse_cond(cond_s).ok_or(ParseError {
            line: ln,
            message: format!("unknown condition `{cond_s}`"),
        })?;
        let (ops, targets) = rest.split_once("->").ok_or(ParseError {
            line: ln,
            message: "conditional branch needs `-> bbT, bbE`".into(),
        })?;
        let (l, r) = ops.split_once(',').ok_or(ParseError {
            line: ln,
            message: "conditional branch needs two operands".into(),
        })?;
        let (tb, eb) = targets.split_once(',').ok_or(ParseError {
            line: ln,
            message: "conditional branch needs two targets".into(),
        })?;
        return Ok(Inst::CondBr {
            cond,
            lhs: parse_reg(l, ln)?,
            rhs: parse_reg(r, ln)?,
            then_bb: parse_block(tb, ln)?,
            else_bb: parse_block(eb, ln)?,
        });
    }
    if let Some(t) = s.strip_prefix("br ") {
        return Ok(Inst::Br {
            target: parse_block(t, ln)?,
        });
    }
    if let Some(rest) = s.strip_prefix("call f") {
        return parse_call(rest, None, ln);
    }

    // `dst = …` forms.
    let (dst_s, rhs) = s.split_once('=').ok_or(ParseError {
        line: ln,
        message: format!("unrecognized instruction `{s}`"),
    })?;
    let dst = parse_reg(dst_s, ln)?;
    let rhs = rhs.trim();

    if let Some(rest) = rhs.strip_prefix("call f") {
        return parse_call(rest, Some(dst), ln);
    }
    if let Some(rest) = rhs.strip_prefix("mov ") {
        let rest = rest.trim();
        return Ok(if rest.starts_with('#') {
            Inst::MovImm {
                dst,
                imm: parse_imm(rest, ln)?,
            }
        } else {
            Inst::Mov {
                dst,
                src: parse_reg(rest, ln)?,
            }
        });
    }
    if let Some(rest) = rhs.strip_prefix("param ") {
        let index = rest.trim().parse().map_err(|_| ParseError {
            line: ln,
            message: "bad parameter index".into(),
        })?;
        return Ok(Inst::GetParam { dst, index });
    }
    if let Some(rest) = rhs.strip_prefix("load ") {
        let (base, offset) = parse_mem_operand(rest, ln)?;
        return Ok(Inst::Load { dst, base, offset });
    }
    if let Some(rest) = rhs.strip_prefix("reload ") {
        return Ok(Inst::SpillLoad {
            dst,
            slot: parse_slot(rest, ln)?,
        });
    }
    // `dst = op a, b` or `dst = op a, #imm`.
    let (op_s, args) = rhs.split_once(' ').ok_or(ParseError {
        line: ln,
        message: format!("unrecognized instruction `{s}`"),
    })?;
    let op = parse_binop(op_s).ok_or(ParseError {
        line: ln,
        message: format!("unknown operation `{op_s}`"),
    })?;
    let (a, b) = args.split_once(',').ok_or(ParseError {
        line: ln,
        message: "binary operation needs two operands".into(),
    })?;
    let lhs = parse_reg(a, ln)?;
    let b = b.trim();
    Ok(if b.starts_with('#') {
        Inst::BinImm {
            op,
            dst,
            src: lhs,
            imm: parse_imm(b, ln)?,
        }
    } else {
        Inst::Bin {
            op,
            dst,
            lhs,
            rhs: parse_reg(b, ln)?,
        }
    })
}

fn parse_call(rest: &str, ret: Option<Reg>, ln: usize) -> Result<Inst, ParseError> {
    // rest = `3(v1, v2)` (after the `call f` prefix).
    let open = rest.find('(').ok_or(ParseError {
        line: ln,
        message: "call needs an argument list".into(),
    })?;
    let callee = rest[..open].parse().map_err(|_| ParseError {
        line: ln,
        message: "bad callee index".into(),
    })?;
    let args_src = rest[open + 1..].trim_end_matches(')');
    let mut args = Vec::new();
    for a in args_src.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        args.push(parse_reg(a, ln)?);
    }
    Ok(Inst::Call { callee, args, ret })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::validate::validate_function;

    #[test]
    fn parses_the_doc_example() {
        let f = parse_function(
            "fn double([v0]):\nbb0:\n    v0 = param 0\n    v1 = add v0, v0\n    ret v1\n",
        )
        .unwrap();
        assert_eq!(f.name, "double");
        assert_eq!(f.params, vec![VReg(0)]);
        assert_eq!(f.vreg_count, 2);
        validate_function(&f).unwrap();
    }

    #[test]
    fn roundtrips_display_output() {
        let mut b = FunctionBuilder::new("rt");
        let p = b.new_param();
        let x = b.new_vreg();
        let base = b.new_vreg();
        b.mov_imm(base, 4096);
        b.bin_imm(BinOp::Mul, x, p.into(), 3);
        b.store(x.into(), base.into(), 8);
        b.load(x, base.into(), 8);
        b.spill_store(x.into(), SpillSlot(0));
        b.spill_load(x, SpillSlot(0));
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.cond_br(Cond::Ge, x.into(), p.into(), t, e);
        b.switch_to(t);
        b.push(Inst::SetLastReg {
            class: crate::reg::RegClass::Int,
            value: 7,
            delay: 2,
        });
        b.br(j);
        b.switch_to(e);
        b.push(Inst::Nop);
        b.br(j);
        b.switch_to(j);
        b.call(2, vec![x.into(), p.into()], Some(x));
        b.ret(Some(x.into()));
        let mut f = b.finish();
        f.spill_slots = 1;
        f.blocks[1].freq = 12.5;

        let text = f.to_string();
        let g = parse_function(&text).unwrap();
        assert_eq!(f, g, "display -> parse is the identity:\n{text}");
    }

    #[test]
    fn roundtrips_physical_registers() {
        let mut b = FunctionBuilder::new("phys");
        b.push(Inst::Bin {
            op: BinOp::Xor,
            dst: PReg(3).into(),
            lhs: PReg(0).into(),
            rhs: PReg(11).into(),
        });
        b.ret(None);
        let f = b.finish();
        let g = parse_function(&f.to_string()).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn block_frequency_comment_is_read() {
        let f = parse_function("fn f([]):\nbb0:  ; freq=99.5 preds=[]\n    ret\n").unwrap();
        assert_eq!(f.blocks[0].freq, 99.5);
    }

    #[test]
    fn reports_line_numbers() {
        let e = parse_function("fn f([]):\nbb0:\n    v0 = frobnicate v1, v2\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("frobnicate"));
    }

    #[test]
    fn rejects_instruction_before_label() {
        let e = parse_function("fn f([]):\n    ret\n").unwrap_err();
        assert!(e.message.contains("before any block"));
    }

    #[test]
    fn negative_offsets_and_immediates() {
        let f = parse_function(
            "fn f([]):\nbb0:\n    v0 = mov #-42\n    v1 = load [v0+-8]\n    ret v1\n",
        )
        .unwrap();
        match &f.blocks[0].insts[0] {
            Inst::MovImm { imm, .. } => assert_eq!(*imm, -42),
            other => panic!("{other}"),
        }
        match &f.blocks[0].insts[1] {
            Inst::Load { offset, .. } => assert_eq!(*offset, -8),
            other => panic!("{other}"),
        }
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(parse_function("").is_err());
        assert!(parse_function("not a function").is_err());
    }

    #[test]
    fn reversed_parens_in_header_are_an_error() {
        // `rfind(')') < find('(')` used to slice out of order and panic.
        let e = parse_function("fn f)(:\nbb0:\n    ret\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("precedes"), "{}", e.message);
    }

    #[test]
    fn oversized_ids_are_rejected_not_allocated() {
        // A block id names a slot in a dense vector; parsing `bb4000000000`
        // must fail instead of allocating four billion blocks.
        assert!(parse_function("fn f([]):\nbb4000000000:\n    ret\n").is_err());
        assert!(parse_function("fn f([]):\nbb0:\n    v4294967295 = mov #1\n    ret\n").is_err());
        assert!(parse_function("fn f([v4294967295]):\nbb0:\n    ret\n").is_err());
        assert!(parse_function("fn f([]):\nbb0:\n    spill r0, slot4294967295\n    ret\n").is_err());
        // The cap itself is inclusive.
        assert!(parse_function(&format!("fn f([]):\nbb0:\n    v{MAX_ID} = mov #1\n    ret\n")).is_ok());
    }

    #[test]
    fn dangling_branch_targets_are_errors_not_cfg_panics() {
        let e = parse_function("fn f([]):\nbb0:\n    br bb7\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("bb7"), "{}", e.message);
        let e =
            parse_function("fn f([]):\nbb0:\n    br.lt r0, r1 -> bb1, bb9\nbb1:\n    ret\n")
                .unwrap_err();
        assert!(e.message.contains("bb9"), "{}", e.message);
    }
}

/// Parse a whole program from the textual form `Program`'s `Display`
/// emits: functions separated by `; fN` comment headers.
///
/// # Errors
///
/// [`ParseError`] from the first malformed function.
pub fn parse_program(text: &str) -> Result<crate::function::Program, ParseError> {
    let mut funcs = Vec::new();
    let mut chunk = String::new();
    let mut offset = 0usize;
    let mut chunk_start = 0usize;
    let flush = |chunk: &str, start: usize, funcs: &mut Vec<Function>| -> Result<(), ParseError> {
        let only_comments = chunk
            .lines()
            .all(|l| l.trim().is_empty() || l.trim().starts_with(';'));
        if only_comments {
            return Ok(());
        }
        match parse_function(chunk) {
            Ok(f) => {
                funcs.push(f);
                Ok(())
            }
            Err(e) => Err(ParseError {
                line: start + e.line,
                message: e.message,
            }),
        }
    };
    for line in text.lines() {
        offset += 1;
        if line.trim_start().starts_with("fn ") && !chunk.trim().is_empty() {
            flush(&chunk, chunk_start, &mut funcs)?;
            chunk.clear();
            chunk_start = offset - 1;
        }
        // The `; fN` separators carry no information beyond ordering.
        chunk.push_str(line);
        chunk.push('\n');
    }
    flush(&chunk, chunk_start, &mut funcs)?;
    Ok(crate::function::Program { funcs, entry: 0 })
}

#[cfg(test)]
mod program_tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::Program;

    #[test]
    fn program_roundtrip() {
        let mk = |name: &str, imm: i32| {
            let mut b = FunctionBuilder::new(name);
            let x = b.new_vreg();
            b.mov_imm(x, imm);
            b.ret(Some(x.into()));
            b.finish()
        };
        let p = Program {
            funcs: vec![mk("a", 1), mk("b", 2)],
            entry: 0,
        };
        let q = parse_program(&p.to_string()).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn program_parse_error_carries_global_line() {
        let text = "fn a([]):\nbb0:\n    ret\nfn b([]):\nbb0:\n    v0 = bogus v1, v2\n";
        let e = parse_program(text).unwrap_err();
        assert_eq!(e.line, 6, "line number is global, not per-chunk");
    }
}
