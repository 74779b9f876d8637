//! The lower-once executor (`dra_sim::simulate`) against the tree-walking
//! interpreter it replaced (`dra_sim::machine::reference::simulate`, which
//! also keeps the nested-`Vec` cache model): the whole `SimResult` —
//! cycles, every counter, `ret_value`, `entry_trace` and `block_counts` —
//! or the whole `SimError` must be identical.
//!
//! Inputs: the mibench suite compiled under every approach, generated
//! corpus programs from each builtin profile compiled under a rotating
//! approach, and hand-built programs for each way a simulation fails.

use dra_core::corpus::corpus_setup;
use dra_core::lowend::{compile_and_run, compile_program_telemetry, Approach};
use dra_core::Telemetry;
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
    let setup = corpus_setup();
    for name in benchmark_names() {
        for a in approaches() {
            let run = compile_and_run(name, a, &setup)
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
    let setup = corpus_setup();
    let approaches = approaches();
    let mut compared = 0;
    for profile in builtin_profiles() {
        let programs = generate_from_profile(&profile, 7, FUNCS_PER_PROFILE)
            .expect("builtin profiles always generate");
        for (i, mut p) in programs.into_iter().enumerate() {
            let a = approaches[i % approaches.len()];
            let mut t = Telemetry::new();
            compile_program_telemetry(&mut p, a, &setup, None, &mut t)
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
