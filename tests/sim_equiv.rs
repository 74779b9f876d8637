//! The segment executor (`dra_sim::simulate`) against the tree-walking
//! interpreter (`dra_sim::machine::reference::simulate`, which also keeps
//! the nested-`Vec` cache model): the whole `SimResult` — cycles, every
//! counter, `ret_value`, `entry_trace` and `block_counts` — or the whole
//! `SimError` must be identical.
//!
//! Inputs: the mibench suite compiled under every approach (and under
//! `Select` on a 6-set I-cache), generated corpus programs from each
//! builtin profile compiled under a rotating approach, hand-built programs
//! for each way a simulation fails, and hand-built programs that put
//! calls, loads, `set_last_reg` runs, faults and line-crossing fetches at
//! segment boundaries under every step cap.

use dra_core::corpus::corpus_setup;
use dra_core::lowend::Approach;
use dra_core::{CompileSession, Telemetry};
use dra_ir::{BinOp, BlockId, Cond, FunctionBuilder, Inst, PReg, Program, Reg};
use dra_sim::machine::reference;
use dra_sim::{simulate, LowEndConfig, SimError};
use dra_workloads::{benchmark_names, builtin_profiles, generate_from_profile};

/// Every approach, `Adaptive` included.
fn approaches() -> Vec<Approach> {
    let mut all = Approach::ALL.to_vec();
    all.push(Approach::Adaptive);
    all
}

/// Simulate `p` on both executors and require identical outcomes.
fn assert_same(p: &Program, cfg: &LowEndConfig, args: &[i64], what: &str) {
    let got = simulate(p, cfg, args);
    let want = reference::simulate(p, cfg, args);
    assert_eq!(got, want, "{what}: executors disagree");
}

#[test]
fn mibench_under_every_approach_is_bit_identical() {
    // The corpus setup's 24 remap restarts, not the paper's 1000: the
    // executors are compared on whatever code the pipeline emits.
    let session = CompileSession::new(corpus_setup());
    let setup = session.setup();
    for name in benchmark_names() {
        for a in approaches() {
            let (run, _) = session
                .compile_bench(name, a)
                .unwrap_or_else(|e| panic!("{name}/{}: {e}", a.label()));
            assert_same(
                &run.program,
                &setup.machine,
                &setup.args,
                &format!("{name}/{}", a.label()),
            );
        }
    }
}

/// Functions generated per builtin profile.
const FUNCS_PER_PROFILE: usize = 150;

#[test]
fn generated_corpora_are_bit_identical() {
    let session = CompileSession::new(corpus_setup());
    let setup = session.setup();
    let approaches = approaches();
    let mut compared = 0;
    for profile in builtin_profiles() {
        let programs = generate_from_profile(&profile, 7, FUNCS_PER_PROFILE)
            .expect("builtin profiles always generate");
        for (i, mut p) in programs.into_iter().enumerate() {
            let a = approaches[i % approaches.len()];
            session
                .compile_program(&mut p, a, &mut Telemetry::new())
                .unwrap_or_else(|e| panic!("{}#{i}/{}: {e}", profile.name, a.label()));
            assert_same(
                &p,
                &setup.machine,
                &setup.args,
                &format!("{}#{i}", profile.name),
            );
            compared += p.funcs.len();
        }
    }
    assert_eq!(compared, 4 * FUNCS_PER_PROFILE);
}

fn phys(n: u8) -> Reg {
    Reg::Phys(PReg(n))
}

/// `main` loops `n` times, calling `f1` (which spills and reloads its
/// argument through memory) on each trip.
fn looping_caller(n: i32) -> Program {
    let mut m = FunctionBuilder::new("main");
    m.push(Inst::MovImm {
        dst: phys(0),
        imm: 0,
    });
    m.push(Inst::MovImm {
        dst: phys(1),
        imm: n,
    });
    let head = m.new_block();
    let body = m.new_block();
    let exit = m.new_block();
    m.br(head);
    m.switch_to(head);
    m.push(Inst::CondBr {
        cond: Cond::Lt,
        lhs: phys(0),
        rhs: phys(1),
        then_bb: body,
        else_bb: exit,
    });
    m.switch_to(body);
    m.push(Inst::Call {
        callee: 1,
        args: vec![phys(0)],
        ret: Some(phys(2)),
    });
    m.push(Inst::BinImm {
        op: BinOp::Add,
        dst: phys(0),
        src: phys(0),
        imm: 1,
    });
    m.br(head);
    m.switch_to(exit);
    m.ret(Some(phys(2)));

    let mut f = FunctionBuilder::new("f1");
    f.push(Inst::GetParam {
        dst: phys(0),
        index: 0,
    });
    f.push(Inst::SpillStore {
        src: phys(0),
        slot: dra_ir::SpillSlot(1),
    });
    f.push(Inst::SpillLoad {
        dst: phys(3),
        slot: dra_ir::SpillSlot(1),
    });
    f.push(Inst::Bin {
        op: BinOp::Mul,
        dst: phys(4),
        lhs: phys(3),
        rhs: phys(3),
    });
    f.ret(Some(phys(4)));
    Program {
        funcs: vec![m.finish(), f.finish()],
        entry: 0,
    }
}

#[test]
fn step_limit_fails_identically() {
    let p = looping_caller(1000);
    let full = simulate(&p, &LowEndConfig::default(), &[]).expect("runs to completion");
    assert_eq!(full.ret_value, Some(999 * 999));
    // Caps on both sides of every instruction boundary near the end, and
    // one far from it.
    for max_steps in [
        1,
        17,
        full.insts_fetched - 1,
        full.insts_fetched,
        full.insts_fetched + 1,
    ] {
        let cfg = LowEndConfig {
            max_steps,
            ..LowEndConfig::default()
        };
        assert_same(&p, &cfg, &[], &format!("max_steps {max_steps}"));
        let expect_limit = max_steps < full.insts_fetched;
        assert_eq!(
            matches!(simulate(&p, &cfg, &[]), Err(SimError::StepLimit { .. })),
            expect_limit,
            "max_steps {max_steps}"
        );
    }
}

/// `main` calls `f1(sel)`; `f1` writes a virtual register on the branch
/// taken when `sel` is nonzero.
fn vreg_behind_branch() -> Program {
    let mut m = FunctionBuilder::new("main");
    m.push(Inst::GetParam {
        dst: phys(0),
        index: 0,
    });
    m.push(Inst::Call {
        callee: 1,
        args: vec![phys(0)],
        ret: Some(phys(1)),
    });
    m.ret(Some(phys(1)));

    let mut f = FunctionBuilder::new("f1");
    let v = f.new_vreg();
    f.push(Inst::GetParam {
        dst: phys(0),
        index: 0,
    });
    f.push(Inst::MovImm {
        dst: phys(1),
        imm: 0,
    });
    let bad = f.new_block();
    let good = f.new_block();
    f.push(Inst::CondBr {
        cond: Cond::Ne,
        lhs: phys(0),
        rhs: phys(1),
        then_bb: bad,
        else_bb: good,
    });
    f.switch_to(bad);
    f.mov_imm(v, 5);
    f.ret(Some(phys(1)));
    f.switch_to(good);
    f.push(Inst::MovImm {
        dst: phys(2),
        imm: 9,
    });
    f.ret(Some(phys(2)));
    Program {
        funcs: vec![m.finish(), f.finish()],
        entry: 0,
    }
}

#[test]
fn virtual_registers_fail_only_when_executed() {
    let p = vreg_behind_branch();
    let cfg = LowEndConfig::default();
    assert_same(&p, &cfg, &[0], "vreg never executed");
    assert_eq!(
        simulate(&p, &cfg, &[0]).expect("vreg skipped").ret_value,
        Some(9)
    );
    assert_same(&p, &cfg, &[1], "vreg executed");
    assert_eq!(
        simulate(&p, &cfg, &[1]),
        Err(SimError::VirtualRegister { func: 1 })
    );
}

#[test]
fn falling_off_a_block_fails_identically() {
    let mut b = FunctionBuilder::new("main");
    b.push(Inst::MovImm {
        dst: phys(0),
        imm: 1,
    });
    let open = b.new_block();
    b.br(open);
    b.switch_to(open);
    b.push(Inst::MovImm {
        dst: phys(1),
        imm: 2,
    });
    let p = Program::single(b.finish_unchecked());
    let cfg = LowEndConfig::default();
    assert_same(&p, &cfg, &[], "block without terminator");
    assert!(matches!(
        simulate(&p, &cfg, &[]),
        Err(SimError::ControlError { what }) if what.contains("fell off the end of main bb1")
    ));
    // Under a cap the fall-off point reaches exactly, the step limit wins.
    let capped = LowEndConfig {
        max_steps: 3,
        ..cfg
    };
    assert_same(&p, &capped, &[], "cap at the fall-off point");
    assert!(matches!(
        simulate(&p, &capped, &[]),
        Err(SimError::StepLimit { .. })
    ));
}

/// `main(sel)`: branches on `sel != 0` to a block returning 4, otherwise
/// to `bb9`, which does not exist.
fn half_bad_branch() -> Program {
    let mut b = FunctionBuilder::new("main");
    b.push(Inst::GetParam {
        dst: phys(0),
        index: 0,
    });
    b.push(Inst::MovImm {
        dst: phys(1),
        imm: 0,
    });
    let good = b.new_block();
    b.push(Inst::CondBr {
        cond: Cond::Ne,
        lhs: phys(0),
        rhs: phys(1),
        then_bb: good,
        else_bb: good,
    });
    b.switch_to(good);
    b.push(Inst::MovImm {
        dst: phys(2),
        imm: 4,
    });
    b.ret(Some(phys(2)));
    let mut p = Program::single(b.finish());
    // The builder's CFG would index the missing block; break the edge
    // after it ran.
    match p.funcs[0].blocks[0].insts.last_mut() {
        Some(Inst::CondBr { else_bb, .. }) => *else_bb = BlockId(9),
        other => panic!("expected the conditional branch, got {other:?}"),
    }
    p
}

#[test]
fn a_branch_to_a_missing_block_fails_only_when_taken() {
    let p = half_bad_branch();
    let cfg = LowEndConfig::default();
    // The valid side runs normally, as in the interpreter.
    assert_same(&p, &cfg, &[1], "valid side of a half-bad branch");
    assert_eq!(simulate(&p, &cfg, &[1]).expect("runs").ret_value, Some(4));
    // The interpreter panics on arriving at the missing block; the
    // executor reports it.
    assert!(matches!(
        simulate(&p, &cfg, &[0]),
        Err(SimError::ControlError { what }) if what.contains("missing block bb9 in f0")
    ));
    // A cap reached by the branch itself wins over the arrival, as the
    // step limit is checked first in both executors.
    let capped = LowEndConfig {
        max_steps: 3,
        ..cfg
    };
    assert_same(&p, &capped, &[0], "cap at the missing block");
    assert!(matches!(
        simulate(&p, &capped, &[0]),
        Err(SimError::StepLimit { .. })
    ));
}

#[test]
fn a_virtual_return_register_wins_over_a_missing_callee() {
    // The interpreter reads the call's arguments and return register
    // before it looks the callee up.
    let mut b = FunctionBuilder::new("main");
    let v = b.new_vreg();
    b.push(Inst::Call {
        callee: 5,
        args: vec![phys(0)],
        ret: Some(Reg::Virt(v)),
    });
    b.ret(None);
    let p = Program::single(b.finish());
    let cfg = LowEndConfig::default();
    assert_same(&p, &cfg, &[], "vreg return of a missing callee");
    assert_eq!(
        simulate(&p, &cfg, &[]),
        Err(SimError::VirtualRegister { func: 0 })
    );
}

// Segment boundaries. The executor sums each straight-line run (from a
// block start or a call's return point to the next branch, call or
// return) once at lowering and judges the step cap and any failure at
// the run's entry; these programs put calls, loads, `set_last_reg` runs,
// faults and line-crossing fetches at those boundaries, and every cap from
// 0 to one past the run's length must give the interpreter's outcome.

/// Compare the executors under every `max_steps` from 0 until the first
/// cap the program completes or fails within, and one past it.
fn sweep_max_steps(p: &Program, cfg: &LowEndConfig, args: &[i64], what: &str) {
    let mut max_steps = 0;
    loop {
        let capped = LowEndConfig {
            max_steps,
            ..cfg.clone()
        };
        assert_same(p, &capped, args, &format!("{what}, max_steps {max_steps}"));
        if !matches!(
            reference::simulate(p, &capped, args),
            Err(SimError::StepLimit { .. })
        ) {
            let past = LowEndConfig {
                max_steps: max_steps + 1,
                ..cfg.clone()
            };
            assert_same(
                p,
                &past,
                args,
                &format!("{what}, max_steps {}", max_steps + 1),
            );
            return;
        }
        max_steps += 1;
    }
}

fn slr() -> Inst {
    Inst::SetLastReg {
        class: dra_ir::RegClass::Int,
        value: 0,
        delay: 0,
    }
}

/// `f1(x) = 2x`.
fn doubler() -> dra_ir::Function {
    let mut f = FunctionBuilder::new("double");
    f.push(Inst::GetParam {
        dst: phys(0),
        index: 0,
    });
    f.push(Inst::BinImm {
        op: BinOp::Mul,
        dst: phys(1),
        src: phys(0),
        imm: 2,
    });
    f.ret(Some(phys(1)));
    f.finish()
}

#[test]
fn a_call_in_the_middle_of_a_block_under_every_cap() {
    // main: sum = Σ double(i) for i in 1..=3, the call between two ALU ops
    // of the loop body.
    let mut m = FunctionBuilder::new("main");
    m.push(Inst::MovImm {
        dst: phys(0),
        imm: 3,
    });
    m.push(Inst::MovImm {
        dst: phys(3),
        imm: 0,
    });
    let head = m.new_block();
    let body = m.new_block();
    let exit = m.new_block();
    m.br(head);
    m.switch_to(head);
    m.push(Inst::CondBr {
        cond: Cond::Lt,
        lhs: phys(3),
        rhs: phys(0),
        then_bb: body,
        else_bb: exit,
    });
    m.switch_to(body);
    m.push(Inst::BinImm {
        op: BinOp::Add,
        dst: phys(3),
        src: phys(3),
        imm: 1,
    });
    m.push(Inst::Call {
        callee: 1,
        args: vec![phys(3)],
        ret: Some(phys(1)),
    });
    m.push(Inst::Bin {
        op: BinOp::Add,
        dst: phys(4),
        lhs: phys(4),
        rhs: phys(1),
    });
    m.br(head);
    m.switch_to(exit);
    m.ret(Some(phys(4)));
    let p = Program {
        funcs: vec![m.finish(), doubler()],
        entry: 0,
    };
    let cfg = LowEndConfig::default();
    assert_eq!(simulate(&p, &cfg, &[]).expect("runs").ret_value, Some(12));
    sweep_max_steps(&p, &cfg, &[], "call mid-block");
}

#[test]
fn a_load_feeding_a_call_branch_or_return_under_every_cap() {
    // main stores 64 at address 64, loads it back and passes it straight
    // to a call (the interlock lands on the segment's exit). The callee
    // loads it again and branches on it at once, then loads and returns
    // it at once.
    let mut m = FunctionBuilder::new("main");
    m.push(Inst::MovImm {
        dst: phys(0),
        imm: 64,
    });
    m.push(Inst::Store {
        src: phys(0),
        base: phys(0),
        offset: 0,
    });
    m.push(Inst::Load {
        dst: phys(1),
        base: phys(0),
        offset: 0,
    });
    m.push(Inst::Call {
        callee: 1,
        args: vec![phys(1)],
        ret: Some(phys(2)),
    });
    m.ret(Some(phys(2)));

    let mut f = FunctionBuilder::new("reload");
    f.push(Inst::GetParam {
        dst: phys(0),
        index: 0,
    });
    f.push(Inst::Load {
        dst: phys(1),
        base: phys(0),
        offset: 0,
    });
    let hit = f.new_block();
    let miss = f.new_block();
    f.push(Inst::CondBr {
        cond: Cond::Eq,
        lhs: phys(1),
        rhs: phys(0),
        then_bb: hit,
        else_bb: miss,
    });
    f.switch_to(hit);
    f.push(Inst::SpillStore {
        src: phys(1),
        slot: dra_ir::SpillSlot(0),
    });
    f.push(Inst::SpillLoad {
        dst: phys(2),
        slot: dra_ir::SpillSlot(0),
    });
    f.ret(Some(phys(2)));
    f.switch_to(miss);
    f.ret(None);
    let p = Program {
        funcs: vec![m.finish(), f.finish()],
        entry: 0,
    };
    let cfg = LowEndConfig::default();
    let full = simulate(&p, &cfg, &[]).expect("runs");
    assert_eq!(full.ret_value, Some(64));
    // Three back-to-back load uses: the call, the branch and the return.
    let spaced = LowEndConfig {
        load_use_penalty: 0,
        ..cfg.clone()
    };
    assert_eq!(
        full.cycles - simulate(&p, &spaced, &[]).expect("runs").cycles,
        3 * cfg.load_use_penalty
    );
    sweep_max_steps(&p, &cfg, &[], "load feeding an exit");
}

#[test]
fn set_last_reg_runs_across_blocks_and_calls_under_every_cap() {
    // Runs of `set_last_reg` end blocks, start blocks, sit on both sides
    // of a call and open the callee, so the front end's fractional budget
    // carries across every kind of segment boundary.
    let mut m = FunctionBuilder::new("main");
    m.push(Inst::MovImm {
        dst: phys(0),
        imm: 0,
    });
    m.push(Inst::MovImm {
        dst: phys(1),
        imm: 3,
    });
    m.push(slr());
    m.push(slr());
    let head = m.new_block();
    let body = m.new_block();
    let exit = m.new_block();
    m.br(head);
    m.switch_to(head);
    m.push(slr());
    m.push(Inst::CondBr {
        cond: Cond::Lt,
        lhs: phys(0),
        rhs: phys(1),
        then_bb: body,
        else_bb: exit,
    });
    m.switch_to(body);
    for _ in 0..3 {
        m.push(slr());
    }
    m.push(Inst::Call {
        callee: 1,
        args: vec![phys(0)],
        ret: Some(phys(2)),
    });
    m.push(slr());
    m.push(Inst::BinImm {
        op: BinOp::Add,
        dst: phys(0),
        src: phys(0),
        imm: 1,
    });
    m.push(slr());
    m.br(head);
    m.switch_to(exit);
    m.push(slr());
    m.ret(Some(phys(2)));

    let mut f = FunctionBuilder::new("leaf");
    f.push(slr());
    f.push(slr());
    f.push(Inst::GetParam {
        dst: phys(0),
        index: 0,
    });
    f.push(slr());
    f.ret(Some(phys(0)));
    let p = Program {
        funcs: vec![m.finish(), f.finish()],
        entry: 0,
    };
    for slr_per_cycle in 1..=3 {
        let cfg = LowEndConfig {
            slr_per_cycle,
            ..LowEndConfig::default()
        };
        let full = simulate(&p, &cfg, &[]).expect("runs");
        assert_eq!(full.ret_value, Some(2));
        // Entry 2, head 4 × 1, body 3 × (5 + callee 3), exit 1.
        assert_eq!(full.set_last_regs, 2 + 4 + 3 * (5 + 3) + 1);
        sweep_max_steps(&p, &cfg, &[], &format!("slr_per_cycle {slr_per_cycle}"));
    }
}

#[test]
fn a_fault_after_a_call_in_the_same_block_under_every_cap() {
    // main calls double(5), adds 1, then writes a virtual register; the
    // fault sits in the segment that starts at the call's return point.
    let mut m = FunctionBuilder::new("main");
    let v = m.new_vreg();
    m.push(Inst::MovImm {
        dst: phys(0),
        imm: 5,
    });
    m.push(Inst::Call {
        callee: 1,
        args: vec![phys(0)],
        ret: Some(phys(1)),
    });
    m.push(slr());
    m.push(Inst::BinImm {
        op: BinOp::Add,
        dst: phys(1),
        src: phys(1),
        imm: 1,
    });
    m.mov_imm(v, 7);
    m.ret(Some(phys(1)));
    let p = Program {
        funcs: vec![m.finish(), doubler()],
        entry: 0,
    };
    let cfg = LowEndConfig::default();
    assert_eq!(
        simulate(&p, &cfg, &[]),
        Err(SimError::VirtualRegister { func: 0 })
    );
    sweep_max_steps(&p, &cfg, &[], "fault after a call");
}

#[test]
fn a_two_word_op_across_a_line_boundary_under_every_cap() {
    let cfg = LowEndConfig::default();
    let geometry = cfg.geometry;
    let words = |i: &Inst| dra_isa::words_for_inst(i, &geometry);
    let words_per_line = cfg.icache.line_bytes / (geometry.word_bits / 8);
    // A loop body run twice (the second pass hits every line) in which a
    // call (two words: opcode and fields, then the callee) and a three-word
    // add of a wide immediate each start on a line's last word.
    let call = Inst::Call {
        callee: 1,
        args: vec![phys(0)],
        ret: Some(phys(3)),
    };
    let wide = Inst::BinImm {
        op: BinOp::Add,
        dst: phys(1),
        src: phys(3),
        imm: 1 << 20,
    };
    assert_eq!((words(&call), words(&wide), words(&Inst::Nop)), (2, 3, 1));
    let mut m = FunctionBuilder::new("main");
    let body = m.new_block();
    let exit = m.new_block();
    let entry = [
        Inst::MovImm {
            dst: phys(0),
            imm: 0,
        },
        Inst::Br { target: body },
    ];
    let mut code: Vec<Inst> = Vec::new();
    let at = |code: &[Inst]| entry.iter().chain(code).map(words).sum::<u32>();
    for op in [call, wide] {
        while at(&code) % words_per_line != words_per_line - 1 {
            code.push(Inst::Nop);
        }
        code.push(op);
    }
    code.extend([
        Inst::BinImm {
            op: BinOp::Add,
            dst: phys(0),
            src: phys(0),
            imm: 1,
        },
        Inst::MovImm {
            dst: phys(2),
            imm: 2,
        },
        Inst::CondBr {
            cond: Cond::Lt,
            lhs: phys(0),
            rhs: phys(2),
            then_bb: body,
            else_bb: exit,
        },
    ]);
    for i in entry {
        m.push(i);
    }
    m.switch_to(body);
    for i in code {
        m.push(i);
    }
    m.switch_to(exit);
    m.ret(Some(phys(1)));
    let p = Program {
        funcs: vec![m.finish(), doubler()],
        entry: 0,
    };
    let full = simulate(&p, &cfg, &[]).expect("runs");
    assert_eq!(full.ret_value, Some(2 + (1 << 20)));
    sweep_max_steps(&p, &cfg, &[], "multi-word ops across lines");
}

#[test]
fn mibench_on_a_non_power_of_two_icache_is_bit_identical() {
    // 6 sets of 2 ways: set and tag by `%` and `/`, not mask and shift.
    let session = CompileSession::new(corpus_setup());
    let setup = session.setup();
    let mut machine = setup.machine.clone();
    machine.icache.size_bytes = 6 * machine.icache.line_bytes * machine.icache.assoc;
    assert_eq!(machine.icache.num_sets(), 6);
    for name in benchmark_names() {
        let (run, _) = session
            .compile_bench(name, Approach::Select)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_same(
            &run.program,
            &machine,
            &setup.args,
            &format!("{name}, 6-set I-cache"),
        );
    }
}
