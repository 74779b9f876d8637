//! Fault-injection campaigns against the full pipeline.
//!
//! Three layers of the containment story:
//!
//! * **Stream faults** — seeded corruption of real benchmarks' encoded
//!   field streams must always be *detected* (a structured `DecodeError`
//!   naming the site) or *provably benign* (decode bit-equal to the clean
//!   one); silent divergence is asserted to be zero. This is the paper's
//!   safety property run in reverse: the verifier that proves repaired
//!   programs decode correctly must also refuse everything else.
//! * **Decoder totality** — `decode_trace_fields` over arbitrary garbage
//!   streams, traces, and power-on states returns `Ok`/`Err`, never
//!   panics.
//! * **Pipeline degradation** — injected per-function alloc/verify
//!   failures and simulation failures degrade to direct encoding (same
//!   program answer, `degrade.*` telemetry, `RemapStats::degraded`
//!   markers) instead of failing the run, and `degrade = false` restores
//!   the hard error.
//! * **Seeded chaos matrix** — every benchmark under every approach with
//!   a seeded fault plan, plus a stream campaign per benchmark: injected
//!   panics fail only their own cells, and the totals are pinned.

use dra_core::batch::run_lowend_matrix_with_telemetry;
use dra_core::faults::{run_fault_campaign, FaultOutcome, PipelineFaults, SplitMix64};
use dra_core::lowend::{Approach, LowEndRun, LowEndSetup, PipelineError};
use dra_core::CompileSession;
use dra_encoding::{decode_trace_fields, encode_fields, EncodingConfig, LastReg};
use dra_ir::{BlockId, FunctionBuilder, Inst, PReg};
use proptest::prelude::*;
use std::sync::Arc;

fn quick_setup() -> LowEndSetup {
    LowEndSetup {
        remap_starts: 50,
        remap_threads: 1,
        batch_threads: 1,
        ..LowEndSetup::default()
    }
}

/// `name` under `approach` in `session`.
fn compile(
    session: &CompileSession,
    name: &str,
    approach: Approach,
) -> Result<Arc<LowEndRun>, PipelineError> {
    session.compile_bench(name, approach).map(|(run, _)| run)
}

/// Program `text` under `approach` in `session`.
fn compile_text(
    session: &CompileSession,
    text: &str,
    approach: Approach,
) -> Result<Arc<LowEndRun>, PipelineError> {
    session.compile_source(text, approach).map(|(run, _)| run)
}

/// Stream-fault campaigns over real compiled benchmarks: every injected
/// fault adjudicated, detections present, zero divergence.
#[test]
fn campaigns_on_compiled_benchmarks_fully_adjudicate() {
    let session = CompileSession::new(quick_setup());
    let cfg = EncodingConfig::new(session.setup().diff);
    for (name, seed) in [("crc32", 11u64), ("bitcount", 22), ("sha", 33)] {
        let run = compile(&session, name, Approach::Select).unwrap();
        let f = &run.program.funcs[run.program.entry as usize];
        let report = run_fault_campaign(f, &cfg, &run.entry_trace, seed, 128)
            .unwrap_or_else(|e| panic!("{name}: clean decode failed: {e}"));
        assert_eq!(report.injected, 128, "{name}");
        assert_eq!(
            report.diverged, 0,
            "{name}: a fault decoded to different registers silently"
        );
        assert!(
            report.fully_adjudicated(),
            "{name}: {} faults unaccounted",
            report.injected - report.detected - report.benign
        );
        assert!(report.detected > 0, "{name}: campaign detected nothing");
        assert!(
            report.benign > 0,
            "{name}: campaign should also hit never-consumed state"
        );
        // Detected outcomes carry precise diagnostics (site naming).
        for (fault, outcome) in &report.outcomes {
            if let FaultOutcome::Detected(e) = outcome {
                let text = format!("{e}");
                assert!(
                    text.contains("bb") || text.contains("trace"),
                    "fault `{fault}` detected without a site: {text}"
                );
            }
        }
    }
}

/// The campaign is a pure function of its seed.
#[test]
fn campaigns_are_deterministic() {
    let session = CompileSession::new(quick_setup());
    let cfg = EncodingConfig::new(session.setup().diff);
    let run = compile(&session, "crc32", Approach::Select).unwrap();
    let f = &run.program.funcs[run.program.entry as usize];
    let a = run_fault_campaign(f, &cfg, &run.entry_trace, 7, 48).unwrap();
    let b = run_fault_campaign(f, &cfg, &run.entry_trace, 7, 48).unwrap();
    assert_eq!(a, b);
    let c = run_fault_campaign(f, &cfg, &run.entry_trace, 8, 48).unwrap();
    assert_ne!(a.outcomes, c.outcomes, "different seed, different faults");
}

/// A tiny fixed function for decoder-totality fuzzing.
fn totality_function() -> dra_ir::Function {
    let mut b = FunctionBuilder::new("tot");
    b.push(Inst::Mov {
        dst: PReg(1).into(),
        src: PReg(0).into(),
    });
    let t = b.new_block();
    let e = b.new_block();
    b.cond_br(dra_ir::Cond::Lt, PReg(0).into(), PReg(1).into(), t, e);
    b.switch_to(t);
    b.push(Inst::Mov {
        dst: PReg(5).into(),
        src: PReg(1).into(),
    });
    b.ret(None);
    b.switch_to(e);
    b.push(Inst::Mov {
        dst: PReg(11).into(),
        src: PReg(5).into(),
    });
    b.ret(None);
    b.finish()
}

proptest! {
    /// Decoder totality: arbitrary stream shapes, arbitrary codes,
    /// arbitrary traces, arbitrary power-on state — `Ok` or `Err`, never
    /// a panic, never an out-of-bounds index.
    #[test]
    fn decoder_is_total_on_arbitrary_streams(
        blocks in proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec(0u16..64, 0..4),
                0..6,
            ),
            0..5,
        ),
        trace in proptest::collection::vec(0u32..8, 0..12),
        init in 0u8..32,
        known in any::<bool>(),
    ) {
        let f = totality_function();
        let cfg = EncodingConfig::new(dra_adjgraph::DiffParams::new(12, 8));
        let trace: Vec<BlockId> = trace.into_iter().map(BlockId).collect();
        let init = if known { LastReg::known(init) } else { LastReg::default() };
        let _ = decode_trace_fields(&f, &cfg, &blocks, &trace, init);
    }

    /// Totality also over *shape-correct* streams with corrupt codes: the
    /// stream matches a real compiled function's block/instruction
    /// structure, so the decoder gets past the shape checks and into the
    /// arithmetic — and walks a real execution trace while at it.
    #[test]
    fn decoder_is_total_on_shape_correct_garbage(
        seed in any::<u64>(),
        init in 0u8..32,
    ) {
        let (f, clean, trace, cfg) = shape_correct_seed();
        let mut encoded = clean.clone();
        let mut rng = SplitMix64::new(seed);
        for block in &mut encoded {
            for fields in block {
                for code in fields {
                    *code = rng.below(64) as u16;
                }
            }
        }
        let _ = decode_trace_fields(f, cfg, &encoded, trace, LastReg::known(init));
    }
}

type ShapeSeed = (
    dra_ir::Function,
    Vec<Vec<Vec<u16>>>,
    Vec<BlockId>,
    EncodingConfig,
);

/// A repaired, encodable function plus its clean stream and a real trace —
/// compiled once, corrupted per proptest case.
fn shape_correct_seed() -> &'static ShapeSeed {
    static SEED: std::sync::OnceLock<ShapeSeed> = std::sync::OnceLock::new();
    SEED.get_or_init(|| {
        let session = CompileSession::new(quick_setup());
        let cfg = EncodingConfig::new(session.setup().diff);
        let run = compile(&session, "bitcount", Approach::Select).unwrap();
        let f = run.program.funcs[run.program.entry as usize].clone();
        let encoded = encode_fields(&f, &cfg).unwrap();
        (f, encoded, run.entry_trace.clone(), cfg)
    })
}

/// An injected allocation failure degrades exactly that function to
/// direct encoding; the program still runs and computes the clean answer.
#[test]
fn injected_alloc_failure_degrades_function_not_program() {
    let clean = compile(&CompileSession::new(quick_setup()), "crc32", Approach::Select).unwrap();

    let mut faulty = quick_setup();
    faulty.faults.fail_alloc_funcs.insert(0);
    let run = compile(&CompileSession::new(faulty), "crc32", Approach::Select)
        .expect("degradation should contain the injected failure");
    assert_eq!(run.ret_value, clean.ret_value, "degraded run still correct");
    assert_eq!(run.telemetry.counter("degrade.programs"), 1);
    assert!(run.telemetry.counter("degrade.functions") >= 1);
    assert_eq!(
        run.telemetry.counter("degrade.injected"),
        run.telemetry.counter("degrade.functions"),
        "every degraded function traces back to the injection"
    );
    let degraded: Vec<_> = run.remap.iter().filter(|s| s.degraded).collect();
    assert_eq!(degraded.len(), 1, "exactly one function marked degraded");
    assert!(
        degraded.iter().all(|s| s.evaluations == 0 && s.starts_run == 0),
        "markers are inert"
    );
}

#[test]
fn injected_verify_failure_degrades_too() {
    let mut faulty = quick_setup();
    faulty.faults.fail_verify_funcs.insert(0);
    let (clean, faulty) = (CompileSession::new(quick_setup()), CompileSession::new(faulty));
    for approach in [Approach::Remapping, Approach::Select, Approach::Coalesce] {
        let clean = compile(&clean, "bitcount", approach).unwrap();
        let run = compile(&faulty, "bitcount", approach)
            .unwrap_or_else(|e| panic!("{}: {e}", approach.label()));
        assert_eq!(run.ret_value, clean.ret_value, "{}", approach.label());
        assert!(run.telemetry.counter("degrade.functions") >= 1);
        assert!(run.remap.iter().any(|s| s.degraded));
    }
}

/// A degraded run does each function's differential work once: the
/// failing function's attempt is remapped and repaired before its
/// injected verify failure, and the direct recompile adds no remap or
/// repair work, so the remap and repair counters match the clean run's.
#[test]
fn degraded_runs_do_not_repeat_differential_work() {
    let clean = compile(&CompileSession::new(quick_setup()), "crc32", Approach::Select).unwrap();
    let mut faulty = quick_setup();
    faulty.faults.fail_verify_funcs.insert(0);
    let run = compile(&CompileSession::new(faulty), "crc32", Approach::Select).unwrap();
    assert_eq!(run.telemetry.counter("degrade.functions"), 1);
    for key in ["remap.functions", "remap.evaluations", "repair.inserted"] {
        assert_eq!(
            run.telemetry.counter(key),
            clean.telemetry.counter(key),
            "{key}"
        );
    }
}

#[test]
fn injected_sim_failure_degrades_whole_program() {
    let session = CompileSession::new(quick_setup());
    let clean = compile(&session, "crc32", Approach::Select).unwrap();
    let direct = compile(&session, "crc32", Approach::Baseline).unwrap();

    let mut faulty = quick_setup();
    faulty.faults.fail_sim = true;
    let run = compile(&CompileSession::new(faulty), "crc32", Approach::Select).unwrap();
    assert_eq!(run.ret_value, clean.ret_value);
    assert_eq!(run.telemetry.counter("degrade.sim"), 1);
    assert!(run.remap.iter().all(|s| s.degraded), "every slot marked");
    // The degraded artifact is the direct compile: repair-free.
    assert_eq!(run.set_last_regs, 0);
    assert_eq!(run.spill_insts, direct.spill_insts);
}

#[test]
fn degradation_off_restores_the_hard_error() {
    let mut faulty = quick_setup();
    faulty.degrade = false;
    faulty.faults.fail_alloc_funcs.insert(0);
    match compile(&CompileSession::new(faulty.clone()), "crc32", Approach::Select) {
        Err(PipelineError::Injected { stage: "alloc", .. }) => {}
        other => panic!("expected the injected error, got {other:?}"),
    }
    faulty.faults.fail_alloc_funcs.clear();
    faulty.faults.fail_sim = true;
    match compile(&CompileSession::new(faulty), "crc32", Approach::Select) {
        Err(PipelineError::Injected {
            stage: "simulate", ..
        }) => {}
        other => panic!("expected the injected sim error, got {other:?}"),
    }
}

#[test]
fn direct_approaches_ignore_differential_faults() {
    let mut faulty = quick_setup();
    faulty.faults.fail_alloc_funcs.insert(0);
    faulty.faults.fail_verify_funcs.insert(0);
    faulty.faults.fail_sim = true;
    let (clean, faulty) = (CompileSession::new(quick_setup()), CompileSession::new(faulty));
    for approach in [Approach::Baseline, Approach::OSpill] {
        let clean = compile(&clean, "crc32", approach).unwrap();
        let run = compile(&faulty, "crc32", approach).unwrap();
        assert_eq!(run.ret_value, clean.ret_value, "{}", approach.label());
        assert_eq!(run.telemetry.counter("degrade.programs"), 0);
    }
}

#[test]
fn clean_runs_are_untouched_by_the_lattice() {
    // The degradation machinery must be invisible when nothing fails:
    // bit-identical results with degrade on and off.
    let on = CompileSession::new(quick_setup());
    let off = CompileSession::new(LowEndSetup {
        degrade: false,
        ..quick_setup()
    });
    for approach in [Approach::Select, Approach::Adaptive] {
        let a = compile(&on, "crc32", approach).unwrap();
        let b = compile(&off, "crc32", approach).unwrap();
        assert_eq!(a.program, b.program, "{}", approach.label());
        assert_eq!(a.ret_value, b.ret_value);
        assert_eq!(a.telemetry.counter("degrade.programs"), 0);
    }
}

#[test]
fn hostile_source_text_is_an_error_not_a_panic() {
    let session = CompileSession::new(quick_setup());
    for text in [
        "",
        "fn f)(:\nbb0:\n    ret\n",
        "fn f([]):\nbb0:\n    br bb4000000000\n",
        "fn f([]):\nbb0:\n    v0 = frobnicate v1, v2\n",
        "fn f([]):\nbb0:\n    nop\n", // missing terminator
        "fn f([]):\nbb0:\n    call f99()\n    ret\n", // callee out of range
    ] {
        match compile_text(&session, text, Approach::Select) {
            Err(PipelineError::Parse(_) | PipelineError::Validate { .. }) => {}
            other => panic!("hostile text {text:?} produced {other:?}"),
        }
    }
    // And well-formed text compiles end to end.
    let run = compile_text(
        &session,
        "fn main([]):\nbb0:\n    v0 = mov #21\n    v1 = add v0, v0\n    ret v1\n",
        Approach::Select,
    )
    .unwrap();
    assert_eq!(run.ret_value, Some(42));
}

#[test]
fn precoloured_registers_outside_the_register_file_are_rejected() {
    let session = CompileSession::new(quick_setup());
    let mut approaches = Approach::ALL.to_vec();
    approaches.push(Approach::Adaptive);
    // r20 and r63 exceed every low-end register file (8 direct, 12
    // differential); r64 and up exceed what liveness and the simulator's
    // register file can index at all.
    for r in [20, 63, 64, 255] {
        let text = format!("fn main([]):\nbb0:\n    r{r} = mov #1\n    ret r{r}\n");
        for &a in &approaches {
            match compile_text(&session, &text, a) {
                Err(PipelineError::Validate { func: 0, message }) => {
                    assert!(message.contains(&format!("r{r}")), "{message}");
                }
                other => panic!("r{r} under {}: {other:?}", a.label()),
            }
        }
    }
    // A pre-coloured register inside the file still compiles.
    for &a in &approaches {
        let run = compile_text(&session, "fn main([]):\nbb0:\n    r3 = mov #5\n    ret r3\n", a)
            .unwrap_or_else(|e| panic!("r3 under {}: {e}", a.label()));
        assert_eq!(run.ret_value, Some(5), "{}", a.label());
    }
}

#[test]
fn degrading_to_the_direct_file_rechecks_precoloured_registers() {
    // r9 fits the 12-register differential file but not the 8-register
    // direct file that a failed differential compile (or simulation)
    // degrades to.
    let text = "fn main([]):\nbb0:\n    r9 = mov #1\n    ret r9\n";
    let mut alloc_fails = quick_setup();
    alloc_fails.faults.fail_alloc_funcs.insert(0);
    let mut sim_fails = quick_setup();
    sim_fails.faults.fail_sim = true;
    for setup in [alloc_fails, sim_fails] {
        match compile_text(&CompileSession::new(setup), text, Approach::Select) {
            Err(PipelineError::Validate { func: 0, message }) => {
                assert!(message.contains("r9"), "{message}");
            }
            other => panic!("r9 degraded to the direct file: {other:?}"),
        }
    }
    // Undegraded, r9 stays legal under the differential file.
    let run = compile_text(&CompileSession::new(quick_setup()), text, Approach::Select).unwrap();
    assert_eq!(run.ret_value, Some(1));
}

#[test]
fn pipeline_fault_plans_are_seeded_and_deterministic() {
    let a = PipelineFaults::from_seed(3, 30, 4);
    let b = PipelineFaults::from_seed(3, 30, 4);
    assert_eq!(a, b);
    assert!(!a.is_clean());
    assert!(PipelineFaults::from_seed(0, 30, 4).is_clean());
    // Seed 27 draws cell 34 twice over 60 cells; the plan still holds
    // two distinct panic cells.
    assert_eq!(PipelineFaults::from_seed(27, 60, 4).panic_cells.len(), 2);
}

/// The full benchmark x approach matrix at the paper setup under the
/// seed-3 fault plan (two panicking cells, one alloc-failing and one
/// verify-failing function), then a 96-fault stream campaign on each
/// benchmark. Every injected panic fails exactly its own cell, every
/// other cell compiles, no corrupted stream diverges, and the seed-3
/// totals are pinned.
#[test]
fn seeded_chaos_matrix_is_contained() {
    let seed = 3u64;
    let names = dra_workloads::benchmark_names();
    let mut approaches = Approach::ALL.to_vec();
    approaches.push(Approach::Adaptive);
    let cells = names.len() * approaches.len();
    let setup = LowEndSetup {
        faults: PipelineFaults::from_seed(seed, cells, 4),
        ..LowEndSetup::default()
    };
    assert_eq!(setup.faults.panic_cells.len(), 2);

    let (matrix, telemetry) = run_lowend_matrix_with_telemetry(&names, &approaches, &setup);
    for (bi, row) in matrix.iter().enumerate() {
        for (ai, cell) in row.iter().enumerate() {
            let ci = bi * approaches.len() + ai;
            let at = format!("cell {ci} ({}, {})", names[bi], approaches[ai].label());
            match cell {
                Err(PipelineError::Panic { message, .. }) if setup.faults.panic_cells.contains(&ci) => {
                    assert!(message.contains("injected cell fault"), "{at}: {message}");
                }
                Ok(_) => assert!(!setup.faults.panic_cells.contains(&ci), "{at}: no panic"),
                Err(e) => panic!("{at}: uncontained: {e}"),
            }
        }
    }
    assert_eq!(telemetry.counter("cells.failed"), 2);
    assert_eq!(telemetry.counter("cells.ok"), 58);
    assert_eq!(telemetry.counter("degrade.functions"), 51);

    let clean = CompileSession::new(LowEndSetup::default());
    let cfg = EncodingConfig::new(clean.setup().diff);
    let (mut injected, mut detected, mut detected_static, mut benign) = (0, 0, 0, 0);
    for (i, name) in names.iter().enumerate() {
        let run = compile(&clean, name, Approach::Select).unwrap();
        let f = &run.program.funcs[run.program.entry as usize];
        let campaign_seed = seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let report = run_fault_campaign(f, &cfg, &run.entry_trace, campaign_seed, 96)
            .unwrap_or_else(|e| panic!("{name}: clean stream failed to decode: {e}"));
        assert!(report.fully_adjudicated(), "{name}: unadjudicated faults");
        assert_eq!(report.diverged, 0, "{name}");
        injected += report.injected;
        detected += report.detected;
        detected_static += report.detected_static;
        benign += report.benign;
    }
    assert_eq!((injected, detected, detected_static, benign), (960, 624, 27, 336));
}
