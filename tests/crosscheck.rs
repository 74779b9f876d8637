//! Cross-validation between independent subsystems: quantities that two
//! different crates compute by different means must agree.

use dra_adjgraph::{build_preg_adjacency, DiffParams};
use dra_encoding::{insert_set_last_reg, EncodingConfig};
use dra_ir::{FunctionBuilder, Inst, PReg, RegClass};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// For straight-line code with unit block frequency and a pinned entry
/// state, the adjacency graph's assignment cost (dra-adjgraph's world)
/// equals the number of out-of-range repairs the encoder inserts
/// (dra-encoding's world): a repair neutralizes exactly one violating
/// adjacent pair and leaves the chain state unchanged.
#[test]
fn adjacency_cost_equals_out_of_range_repairs_on_straight_line() {
    let params = DiffParams::new(12, 8);
    let mut rng = SmallRng::seed_from_u64(99);
    for case in 0..50 {
        let mut b = FunctionBuilder::new("x");
        b.push(Inst::SetLastReg {
            class: RegClass::Int,
            value: 0,
            delay: 0,
        });
        let n = rng.gen_range(3..30);
        for _ in 0..n {
            let dst = rng.gen_range(0..12u8);
            let src = rng.gen_range(0..12u8);
            b.push(Inst::Mov {
                dst: PReg(dst).into(),
                src: PReg(src).into(),
            });
        }
        b.ret(None);
        let mut f = b.finish();

        // Adjacency-graph prediction. The graph drops self-pairs and
        // carries no entry edge; the pinned entry state (last = 0) adds
        // the 0 -> first-access pair, which the graph cannot see, so
        // account for it separately.
        let g = build_preg_adjacency(&f, RegClass::Int, 12);
        let predicted = g.assignment_cost(|r| Some(r as u8), params);
        let first = f.blocks[0]
            .insts
            .iter()
            .flat_map(|i| i.accesses())
            .next()
            .unwrap()
            .expect_phys()
            .number();
        let entry_pair_violation = !params.in_range(0, first);

        let cfg = EncodingConfig::new(params);
        let stats = insert_set_last_reg(&mut f, &cfg);
        assert_eq!(stats.inconsistency, 0, "case {case}: entry was pinned");
        let expected = predicted + f64::from(entry_pair_violation);
        assert_eq!(
            stats.out_of_range as f64, expected,
            "case {case}: encoder repairs vs adjacency prediction"
        );
    }
}

/// The analytic VLIW loop-cycle model and the cycle-level schedule
/// executor agree (within the drain-phase rounding) across a spread of
/// generated loops.
#[test]
fn analytic_and_executed_loop_cycles_agree() {
    use dra_sim::{loop_cycles, VliwConfig};
    use dra_swp::{execute_schedule, modulo_schedule};
    use dra_workloads::{generate_loop_suite, LoopSuiteConfig};

    let m = VliwConfig::default();
    let suite = generate_loop_suite(&LoopSuiteConfig {
        n_loops: 30,
        hungry_fraction: 0.11,
        seed: 5,
    });
    for l in &suite {
        let s = modulo_schedule(&l.ddg, &m, 512).expect("schedulable");
        let iters = 25u64;
        let t = execute_schedule(&l.ddg, &s, &m, iters).expect("dynamically legal");
        let analytic = loop_cycles(&m, s.ii, s.stages(), iters, 0);
        let slack = (s.ii * s.stages()) as u64 + 1;
        assert!(
            t.makespan <= analytic + slack && analytic <= t.makespan + slack,
            "loop {}: measured {} vs analytic {analytic}",
            l.index,
            t.makespan
        );
    }
}

/// Code size: the abstract accounting (`dra-isa::function_size_bits`) and
/// the real assembler agree on every compiled benchmark function.
#[test]
fn size_model_matches_assembler_on_compiled_benchmarks() {
    use dra_core::lowend::{Approach, LowEndSetup};
    use dra_core::{CompileSession, Telemetry};
    let session = CompileSession::new(LowEndSetup::default());
    let geom = dra_isa::IsaGeometry::leaf16(3);
    let enc = EncodingConfig::new(session.setup().diff);
    for name in ["crc32", "qsort"] {
        let mut p = dra_workloads::benchmark(name);
        session
            .compile_program(&mut p, Approach::Select, &mut Telemetry::new())
            .unwrap();
        for f in &p.funcs {
            let image = dra_encoding::assemble_function(f, &enc, &geom)
                .unwrap_or_else(|e| panic!("{name}/{}: {e}", f.name));
            assert_eq!(
                image.size_bits(),
                dra_isa::function_size_bits(f, &geom),
                "{name}/{}",
                f.name
            );
        }
    }
}

/// The simulator's dynamic `set_last_reg` count matches the sum over the
/// dynamic block trace of each block's static repair count — fetch
/// accounting is consistent with the static placement.
#[test]
fn dynamic_slr_count_is_consistent_with_trace() {
    use dra_core::lowend::{Approach, LowEndSetup};
    use dra_core::CompileSession;
    let session = CompileSession::new(LowEndSetup::default());
    let (r, _) = session.compile_bench("crc32", Approach::Select).unwrap();
    // Per-block static counts of the whole program, weighted by the
    // measured block execution counts.
    let mut expected = 0u64;
    for (fi, f) in r.program.funcs.iter().enumerate() {
        for (bi, blk) in f.blocks.iter().enumerate() {
            let statics = blk.insts.iter().filter(|i| i.is_set_last_reg()).count() as u64;
            let execs = r
                .block_counts
                .get(&(fi as u32, bi as u32))
                .copied()
                .unwrap_or(0);
            expected += statics * execs;
        }
    }
    assert_eq!(r.dynamic_set_last_regs, expected);
}
