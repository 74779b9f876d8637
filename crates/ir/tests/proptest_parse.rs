//! Parser totality: `parse_function`/`parse_program` must return
//! `Ok`/`Err` on *any* input — hostile text reaching a batch pipeline
//! (e.g. through `CompileSession::compile_source`) may never panic a
//! worker.
//!
//! Three attack surfaces, escalating in structure:
//!
//! 1. arbitrary character soup;
//! 2. token soup assembled from the grammar's own vocabulary, which gets
//!    much deeper into the instruction parsers than random bytes do;
//! 3. mutations of a *valid* function's text — truncations, line swaps,
//!    and single-character edits — which exercise the error paths right
//!    at the boundary of well-formedness.

use dra_ir::parse::{parse_function, parse_program};
use dra_ir::{BinOp, FunctionBuilder, Inst, PReg};
use proptest::prelude::*;

fn valid_text() -> String {
    let mut b = FunctionBuilder::new("seed");
    let x = b.new_vreg();
    let y = b.new_vreg();
    b.mov_imm(x, 7);
    b.bin_imm(BinOp::Mul, y, x.into(), 3);
    let t = b.new_block();
    let e = b.new_block();
    let j = b.new_block();
    b.cond_br(dra_ir::Cond::Lt, x.into(), y.into(), t, e);
    b.switch_to(t);
    b.push(Inst::Mov {
        dst: PReg(0).into(),
        src: PReg(1).into(),
    });
    b.br(j);
    b.switch_to(e);
    b.br(j);
    b.switch_to(j);
    b.ret(Some(y.into()));
    b.finish().to_string()
}

/// ASCII soup including the grammar's structural characters, newlines,
/// and a few non-ASCII code points (slice boundaries!).
fn arb_text() -> impl Strategy<Value = String> {
    const PALETTE: &[char] = &[
        'f', 'n', ' ', '(', ')', '[', ']', ',', ':', ';', '#', '=', '-', '>', '.', '\n', '\t',
        'v', 'r', 'b', '0', '1', '9', 'a', 'z', '+', 'é', '→', '\u{0}',
    ];
    proptest::collection::vec(0usize..PALETTE.len(), 0..200)
        .prop_map(|ix| ix.into_iter().map(|i| PALETTE[i]).collect())
}

/// Fragments of the grammar's own vocabulary, recombined at random.
fn arb_token_soup() -> impl Strategy<Value = String> {
    const TOKENS: &[&str] = &[
        "fn ", "bb0:", "bb1:", "bb4000000000:", "v0", "v1", "v4294967295", "r0", "r300",
        "slot99999999", " = ", "mov", "add", "br", "br.lt", "->", "bb7", "ret", "call f",
        "call f99", "(", ")", "[", "]", ",", "#", "#-42", "set_last_reg.int", "spill", "reload",
        "param", "; freq=1e308", "\n", "    ",
    ];
    proptest::collection::vec(0usize..TOKENS.len(), 0..40)
        .prop_map(|ix| ix.into_iter().map(|i| TOKENS[i]).collect())
}

proptest! {
    #[test]
    fn parse_is_total_on_arbitrary_text(s in arb_text()) {
        let _ = parse_function(&s);
        let _ = parse_program(&s);
    }

    #[test]
    fn parse_is_total_on_token_soup(s in arb_token_soup()) {
        let _ = parse_function(&s);
        let _ = parse_program(&s);
    }

    #[test]
    fn parse_is_total_on_mutated_valid_text(
        cut in 0usize..2000,
        flip_at in 0usize..2000,
        flip_to in 32u8..127,
        drop_line in 0usize..40,
    ) {
        let text = valid_text();

        // Truncation (at a char boundary; the seed text is ASCII).
        let cut = cut.min(text.len());
        let _ = parse_function(&text[..cut]);

        // Single-character substitution.
        let mut chars: Vec<char> = text.chars().collect();
        if !chars.is_empty() {
            let at = flip_at % chars.len();
            chars[at] = flip_to as char;
            let mutated: String = chars.into_iter().collect();
            let _ = parse_function(&mutated);
            let _ = parse_program(&mutated);
        }

        // Whole-line deletion.
        let lines: Vec<&str> = text.lines().collect();
        if !lines.is_empty() {
            let at = drop_line % lines.len();
            let mutated: String = lines
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != at)
                .map(|(_, l)| format!("{l}\n"))
                .collect();
            let _ = parse_function(&mutated);
        }
    }
}

#[test]
fn parser_round_trips_the_seed() {
    let text = valid_text();
    let f = parse_function(&text).unwrap();
    assert_eq!(f.to_string(), text);
}
