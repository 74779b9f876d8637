//! Minimized regressions from the checker-driven sweep (DESIGN.md §12).
//!
//! The symbolic checker was run over the full benchmark × approach matrix
//! (`drac check`); each defect it surfaced is pinned here in its smallest
//! reproducing form, together with the seeded-corruption cases that prove
//! the checker itself has teeth end to end.

use dra_core::lowend::{Approach, LowEndSetup};
use dra_core::telemetry::Telemetry;
use dra_core::CompileSession;
use dra_ir::{BinOp, FunctionBuilder, PReg, Reg};
use dra_regalloc::{check_allocation, AllocConfig, Allocator, CheckError, DenseIrc};
use dra_sim::{simulate, LowEndConfig};
use dra_workloads::mibench::{generate, BenchSpec};

/// A value defined before a call and used after it: the clobber hazard in
/// its smallest form.
fn live_across_call() -> dra_ir::Function {
    let mut b = FunctionBuilder::new("live-across-call");
    let x = b.new_vreg();
    let r = b.new_vreg();
    let s = b.new_vreg();
    b.mov_imm(x, 7);
    b.call(0, vec![], Some(r));
    b.bin(BinOp::Add, s, x.into(), r.into());
    b.ret(Some(s.into()));
    b.finish()
}

/// Regression for the unpinned-remap clobber bug: `LowEndSetup` used to
/// remap with nothing pinned, so the permutation search could move a value
/// that is live across a call into a call-clobbered register. The checker's
/// call transfer (which clears the clobbers) rejects exactly that shape —
/// reproduced here by applying such a permutation by hand.
#[test]
fn clobber_swapping_permutation_is_rejected() {
    let f = live_across_call();
    let mut cfg = AllocConfig::baseline(8);
    cfg.call_clobbers = vec![PReg(0), PReg(1)];
    let a = DenseIrc.allocate(&f, &cfg).unwrap();
    check_allocation(&a.func, &a.record).expect("clean allocation must pass");

    // Find the register holding the live-across-call value; it must be
    // outside the clobber set, or the allocation itself would be wrong.
    let safe = a.func.blocks[0].insts[0].accesses()[0].expect_phys();
    assert!(safe.number() >= 2, "allocator must avoid the clobbers");

    // An unpinned remap is free to swap `safe` with a clobbered register.
    let mut swapped = a.func.clone();
    swapped.map_all_regs(|r| match r.as_phys() {
        Some(p) if p == safe => Reg::Phys(PReg(0)),
        Some(PReg(0)) => Reg::Phys(safe),
        _ => r,
    });
    let err = check_allocation(&swapped, &a.record)
        .expect_err("value live across the call now sits in a clobber");
    assert!(matches!(err, CheckError::Violations(_)), "got {err}");
}

/// The fix: the low-end pipeline pins the calling-convention clobbers, so
/// the remap search can never produce the permutation above.
#[test]
fn lowend_remap_pins_the_call_clobbers() {
    let setup = LowEndSetup::default();
    let rcfg = setup.remap_config();
    assert_eq!(
        rcfg.pinned, setup.call_clobbers,
        "remap must keep the clobber registers fixed"
    );
    assert!(!rcfg.pinned.is_empty(), "default setup has clobbers to pin");
}

/// Seeded corruption: take a really-compiled benchmark function, flip one
/// register field, and require the checker to reject it. This is the
/// "checker has teeth" acceptance case on real pipeline output.
#[test]
fn seeded_corrupt_allocation_is_rejected() {
    let spec = BenchSpec {
        name: "corrupt",
        seed: 0xDEC0DE,
        funcs: 1,
        pressure: 10,
        block_len: 8,
        loops_per_func: 1,
        max_depth: 1,
        mem_ratio: 0.2,
        call_ratio: 0.0,
        branch_ratio: 0.3,
        trip_range: (2, 5),
        muldiv_ratio: 0.1,
    };
    let p = generate(&spec);
    let cfg = AllocConfig::baseline(6);
    let a = DenseIrc.allocate(&p.funcs[0], &cfg).unwrap();
    check_allocation(&a.func, &a.record).expect("clean allocation must pass");

    let mut rejected = 0usize;
    let mut tried = 0usize;
    for bi in 0..a.func.blocks.len() {
        for ii in 0..a.func.blocks[bi].insts.len() {
            for (ri, r) in a.func.blocks[bi].insts[ii].accesses().into_iter().enumerate() {
                let Some(p) = r.as_phys() else { continue };
                let mut broken = a.func.clone();
                let flipped = Reg::Phys(PReg((p.number() + 1) % 6));
                let mut k = 0usize;
                broken.blocks[bi].insts[ii].map_regs(|r| {
                    let out = if k == ri { flipped } else { r };
                    k += 1;
                    out
                });
                tried += 1;
                if check_allocation(&broken, &a.record).is_err() {
                    rejected += 1;
                }
            }
        }
    }
    // Not every single-field flip is observable (a flipped *def* of a
    // dead-after value isn't), but the overwhelming majority must be.
    assert!(tried > 20, "corruption sweep too small: {tried}");
    assert!(
        rejected * 10 >= tried * 9,
        "checker caught only {rejected}/{tried} single-register corruptions"
    );
}

/// Full-pipeline spot check: a benchmark program compiled under every
/// approach with the checker enabled still compiles, and the checked
/// output is bit-identical to the unchecked compile (the checker is a
/// pure observer).
#[test]
fn checked_compile_matches_unchecked() {
    let spec = BenchSpec {
        name: "spot",
        seed: 41,
        funcs: 2,
        pressure: 12,
        block_len: 8,
        loops_per_func: 2,
        max_depth: 2,
        mem_ratio: 0.2,
        call_ratio: 0.1,
        branch_ratio: 0.3,
        trip_range: (2, 5),
        muldiv_ratio: 0.1,
    };
    let machine = LowEndConfig::default();
    let plain_session = CompileSession::new(LowEndSetup::default());
    let checked_session = CompileSession::new(LowEndSetup {
        check: true,
        ..LowEndSetup::default()
    });
    for approach in [
        Approach::Baseline,
        Approach::Remapping,
        Approach::Select,
        Approach::OSpill,
        Approach::Coalesce,
        Approach::Adaptive,
    ] {
        let mut plain = generate(&spec);
        plain_session
            .compile_program(&mut plain, approach, &mut Telemetry::new())
            .unwrap();

        let mut checked = generate(&spec);
        let mut t = Telemetry::new();
        checked_session
            .compile_program(&mut checked, approach, &mut t)
            .unwrap_or_else(|e| panic!("{}: {e}", approach.label()));
        assert_eq!(
            plain, checked,
            "{}: checker changed the compiled program",
            approach.label()
        );
        assert!(
            t.counter("checker.functions") >= checked.funcs.len() as u64,
            "{}: checker did not run on every function",
            approach.label()
        );
        assert_eq!(t.counter("checker.violations"), 0, "{}", approach.label());
        let r = simulate(&checked, &machine, &[]).unwrap();
        let want = simulate(&plain, &machine, &[]).unwrap();
        assert_eq!(r.ret_value, want.ret_value, "{}", approach.label());
    }
}

/// `drac check`'s matrix through one session: every mibench benchmark
/// under all six approaches, checker on and degradation off. The session
/// answers the 37 repeated searches of its 125 from its search cache, and
/// every cell's program and non-span counters equal a one-shot session's.
#[test]
fn one_check_session_replays_repeated_searches_exactly() {
    let setup = LowEndSetup {
        check: true,
        degrade: false,
        ..LowEndSetup::default()
    };
    let session = CompileSession::new(setup.clone());
    let mut approaches = Approach::ALL.to_vec();
    approaches.push(Approach::Adaptive);
    for name in dra_workloads::benchmark_names() {
        for &a in &approaches {
            let cell = format!("{name} × {}", a.label());
            let compile = |session: &CompileSession| {
                let mut p = dra_workloads::benchmark(name);
                let mut t = Telemetry::new();
                session
                    .compile_program(&mut p, a, &mut t)
                    .unwrap_or_else(|e| panic!("{cell}: {e}"));
                t.clear_spans();
                (p.to_string(), t)
            };
            let shared = compile(&session);
            let fresh = compile(&CompileSession::new(setup.clone()));
            assert!(shared == fresh, "{cell}: the shared session changed the compile");
        }
    }
    let mut t = Telemetry::new();
    session.record_remap_counters(&mut t);
    assert_eq!(t.counter("remap_cache.lookups"), 125);
    assert_eq!(t.counter("remap_cache.hits"), 37);
    assert_eq!(t.counter("remap_cache.evictions"), 0);
}
