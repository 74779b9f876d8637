//! Property tests of the register allocators.
//!
//! The strongest invariant available without a virtual-register
//! interpreter: a generated program compiled under *different allocators*
//! (and different register counts) must compute the same result on the
//! machine simulator. Any interference mistake, unsound coalesce, or
//! broken spill rewrite shows up as divergent output.

use dra_adjgraph::DiffParams;
use dra_core::lowend::{compile_program_telemetry, Approach, LowEndSetup, PipelineError};
use dra_core::Telemetry;
use dra_encoding::{insert_set_last_reg, EncodingConfig};
use dra_ir::{BinOp, Function, FunctionBuilder, PReg, Reg, VReg};
use dra_regalloc::{
    check_allocation, check_function_encoding, irc_allocate, AllocConfig, Allocator, Coalescing,
    DenseIrc, Ospill, ReferenceIrc, SelectStrategy, SpillMetric,
};
use dra_sim::{simulate, LowEndConfig};
use dra_workloads::mibench::{generate, BenchSpec};
use proptest::prelude::*;

/// Compile `p` in place under `approach`, discarding the telemetry.
fn compile_program(
    p: &mut dra_ir::Program,
    approach: Approach,
    setup: &LowEndSetup,
) -> Result<(), PipelineError> {
    compile_program_telemetry(p, approach, setup, None, &mut Telemetry::new()).map(drop)
}

/// A bounded random benchmark spec (all knobs in safe ranges).
fn arb_spec() -> impl Strategy<Value = BenchSpec> {
    (
        any::<u64>(),        // seed
        1usize..=3,          // funcs
        4usize..=13,         // pressure
        4usize..=12,         // block_len
        1usize..=2,          // loops per func
        1u32..=2,            // depth
        0.0f64..0.35,        // mem ratio
        0.0f64..0.15,        // call ratio
        0.0f64..0.5,         // branch ratio
        0.0f64..0.2,         // muldiv
    )
        .prop_map(
            |(seed, funcs, pressure, block_len, loops, depth, mem, call, branch, muldiv)| {
                BenchSpec {
                    name: "prop",
                    seed,
                    funcs,
                    pressure,
                    block_len,
                    loops_per_func: loops,
                    max_depth: depth,
                    mem_ratio: mem,
                    call_ratio: call,
                    branch_ratio: branch,
                    trip_range: (2, 6),
                    muldiv_ratio: muldiv,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        if cfg!(debug_assertions) { 6 } else { 24 }
    ))]

    /// All five approaches produce the same program result.
    #[test]
    fn approaches_agree_on_random_programs(spec in arb_spec()) {
        let setup = LowEndSetup::default();
        let machine = LowEndConfig::default();
        let mut expected: Option<Option<i64>> = None;
        for a in Approach::ALL {
            let mut p = generate(&spec);
            compile_program(&mut p, a, &setup)
                .unwrap_or_else(|e| panic!("{}: {e}", a.label()));
            let r = simulate(&p, &machine, &[]).unwrap_or_else(|e| panic!("{}: {e}", a.label()));
            match &expected {
                None => expected = Some(r.ret_value),
                Some(want) => prop_assert_eq!(
                    &r.ret_value, want,
                    "{} diverged on seed {:#x}", a.label(), spec.seed
                ),
            }
        }
    }

    /// More registers never increase the IRC spill count, and the result
    /// stays the same across register counts.
    #[test]
    fn more_registers_never_hurt(spec in arb_spec()) {
        let machine = LowEndConfig::default();
        let mut last_spills = usize::MAX;
        let mut expected: Option<Option<i64>> = None;
        for k in [6u16, 8, 12, 16] {
            let mut p = generate(&spec);
            let mut total_spills = 0usize;
            for f in &mut p.funcs {
                let cfg = AllocConfig::baseline(k);
                irc_allocate(f, &cfg).unwrap();
                total_spills += f.count_insts(|i| i.is_spill());
            }
            prop_assert!(
                total_spills <= last_spills,
                "k={k}: spills {} > {} with fewer registers",
                total_spills,
                last_spills
            );
            last_spills = total_spills;
            let r = simulate(&p, &machine, &[]).unwrap();
            match &expected {
                None => expected = Some(r.ret_value),
                Some(want) => prop_assert_eq!(&r.ret_value, want, "k={} diverged", k),
            }
        }
    }

    /// Every `Allocator` engine's output passes the symbolic checker on
    /// the shrinking-friendly op-list generator, under all four pipeline
    /// `AllocConfig`s. For the differential configs the property follows
    /// the full low-end tail: a (pinned-respecting) register permutation,
    /// the repair pass, and the decoder replay.
    #[test]
    fn allocator_outputs_pass_checker(ops in arb_ops()) {
        let f = build_ops(&ops);
        for eng in engines() {
            for cfg in configs() {
                let a = eng
                    .allocate(&f, &cfg)
                    .unwrap_or_else(|e| panic!("{} failed under {:?}: {e}", eng.name(), cfg.strategy));
                if let Err(e) = check_allocation(&a.func, &a.record) {
                    prop_assert!(
                        false,
                        "{} rejected by checker under {:?}: {e}",
                        eng.name(), cfg.strategy
                    );
                }
                if cfg.strategy == SelectStrategy::Differential {
                    let mut fd = a.func.clone();
                    fd.map_all_regs(|r| rotate_unpinned(r, cfg.k, &cfg.call_clobbers));
                    let enc = EncodingConfig::new(cfg.params);
                    insert_set_last_reg(&mut fd, &enc);
                    if let Err(e) = check_allocation(&fd, &a.record) {
                        prop_assert!(
                            false,
                            "{} remapped+repaired output rejected: {e}",
                            eng.name()
                        );
                    }
                    if let Err(e) = check_function_encoding(&fd, &enc) {
                        prop_assert!(false, "{} replay rejected: {e}", eng.name());
                    }
                }
            }
        }
    }

    /// Differential allocation at tight DiffN still verifies and agrees.
    #[test]
    fn tight_diffn_still_correct(spec in arb_spec()) {
        let setup = LowEndSetup {
            diff: DiffParams::new(12, 4), // much tighter than the eval's 8
            ..LowEndSetup::default()
        };
        let machine = LowEndConfig::default();

        let mut base = generate(&spec);
        compile_program(&mut base, Approach::Baseline, &setup).unwrap();
        let want = simulate(&base, &machine, &[]).unwrap().ret_value;

        let mut p = generate(&spec);
        compile_program(&mut p, Approach::Select, &setup).unwrap();
        let got = simulate(&p, &machine, &[]).unwrap().ret_value;
        prop_assert_eq!(got, want);
    }
}

/// One step of the shrinking-friendly straight-line generator (the op-list
/// form from `proptest_irc_equiv`, extended with calls so the clobber
/// transfer in the checker's dataflow is exercised). Indices are taken
/// modulo the live pool, so *any* byte sequence is a valid program and
/// proptest can shrink freely without invalidating it.
#[derive(Clone, Debug)]
enum Op {
    /// Define a fresh value.
    New(i8),
    /// Copy an existing pool value into a fresh vreg (coalesce fodder).
    Mov(u8),
    /// Combine two pool values into a fresh vreg.
    Add(u8, u8),
    /// Call a function on a pool value (clobber pressure across the call).
    Call(u8),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            any::<i8>().prop_map(Op::New),
            any::<u8>().prop_map(Op::Mov),
            (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::Add(a, b)),
            any::<u8>().prop_map(Op::Call),
        ],
        1..40,
    )
}

/// Materialize an op list as a straight-line function whose final sum
/// keeps every defined value live — long op lists force pressure well past
/// any small `k` (spill + freeze transitions), `Mov` supplies coalescible
/// copies, and `Call` puts live ranges across clobber points.
fn build_ops(ops: &[Op]) -> Function {
    let mut b = FunctionBuilder::new("prop-ops");
    let mut pool: Vec<VReg> = Vec::new();
    let first = b.new_vreg();
    b.mov_imm(first, 1);
    pool.push(first);
    for op in ops {
        let d = b.new_vreg();
        match *op {
            Op::New(i) => b.mov_imm(d, i as i32),
            Op::Mov(s) => {
                let src = pool[s as usize % pool.len()];
                b.mov(d, src.into());
            }
            Op::Add(x, y) => {
                let l = pool[x as usize % pool.len()];
                let r = pool[y as usize % pool.len()];
                b.bin(BinOp::Add, d, l.into(), r.into());
            }
            Op::Call(s) => {
                let arg = pool[s as usize % pool.len()];
                b.call(0, vec![arg.into()], Some(d));
            }
        }
        pool.push(d);
    }
    let s = b.new_vreg();
    b.mov_imm(s, 0);
    for &v in &pool {
        b.bin(BinOp::Add, s, s.into(), v.into());
    }
    b.ret(Some(s.into()));
    b.finish()
}

/// The allocator configurations the pipeline exercises: plain baseline
/// under heavy pressure, biased select, differential select, and the
/// global-coverage spill metric with call clobbers.
fn configs() -> Vec<AllocConfig> {
    let mut biased = AllocConfig::baseline(8);
    biased.strategy = SelectStrategy::Biased;
    let mut coverage = AllocConfig::differential(DiffParams::lowend_12_8());
    coverage.spill_metric = SpillMetric::GlobalCoverage;
    coverage.call_clobbers = vec![PReg(0), PReg(1)];
    vec![
        AllocConfig::baseline(4),
        biased,
        AllocConfig::differential(DiffParams::new(12, 4)),
        coverage,
    ]
}

/// Every engine behind the [`Allocator`] trait.
fn engines() -> Vec<Box<dyn Allocator>> {
    vec![
        Box::new(DenseIrc),
        Box::new(ReferenceIrc),
        Box::new(Ospill),
        Box::new(Coalescing),
    ]
}

/// Rotate every non-pinned color one step (cyclically, within `k`) while
/// keeping the pinned registers fixed — the shape of permutation a
/// clobber-aware remap is allowed to produce.
fn rotate_unpinned(r: Reg, k: u16, pinned: &[PReg]) -> Reg {
    let Some(p) = r.as_phys() else { return r };
    if pinned.contains(&p) {
        return r;
    }
    let free: Vec<u8> = (0..k as u8).filter(|&n| !pinned.contains(&PReg(n))).collect();
    let i = free
        .iter()
        .position(|&n| n == p.number())
        .expect("allocated register within k");
    Reg::Phys(PReg(free[(i + 1) % free.len()]))
}
