//! The batch driver's determinism contract: the same inputs produce the
//! same outputs at any worker count (1, 2, 8), for both the low-end
//! benchmark matrix and the high-end loop sweep.
//!
//! The only field excluded is the remap search's wall-clock measurement
//! (`search_nanos`) and, for the same reason, telemetry spans. The remap
//! *work* counters (`evaluations`, `starts_run`) are part of the
//! contract: the greedy multistart splits its evaluation budget
//! deterministically across restarts and never exits early based on
//! another restart's result, so they are pure functions of the input at
//! any thread count.

use dra_core::batch::{run_batch, run_lowend_matrix_with_telemetry};
use dra_core::highend::run_highend_sweep_with_telemetry;
use dra_core::lowend::{Approach, LowEndRun, LowEndSetup, PipelineError};
use dra_workloads::{generate_loop_suite, LoopSuiteConfig};

/// Zero the wall-clock remap field and drop wall-clock telemetry spans;
/// everything else — work counters included — must match bit-for-bit.
fn normalized(mut r: LowEndRun) -> LowEndRun {
    for st in &mut r.remap {
        st.search_nanos = 0;
    }
    r.telemetry.clear_spans();
    r
}

#[test]
fn lowend_matrix_identical_across_thread_counts() {
    let names = ["crc32", "bitcount", "sha"];
    let approaches = [
        Approach::Baseline,
        Approach::Remapping,
        Approach::Select,
        Approach::Adaptive,
    ];
    // Few remap starts keep the test quick; determinism must hold at any
    // configuration.
    let mut setup = LowEndSetup {
        remap_starts: 50,
        ..LowEndSetup::default()
    };

    let mut reference: Option<Vec<Vec<LowEndRun>>> = None;
    for threads in [1usize, 2, 8] {
        setup.batch_threads = threads;
        let (matrix, _) = run_lowend_matrix_with_telemetry(&names, &approaches, &setup);
        let matrix: Vec<Vec<LowEndRun>> = matrix
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|r| normalized(r.expect("cell compiles")))
                    .collect()
            })
            .collect();
        match &reference {
            None => reference = Some(matrix),
            Some(want) => assert_eq!(
                want, &matrix,
                "matrix diverged at batch_threads = {threads}"
            ),
        }
    }
}

#[test]
fn telemetry_counter_aggregates_identical_across_thread_counts() {
    let names = ["crc32", "bitcount", "sha"];
    let approaches = [
        Approach::Baseline,
        Approach::Remapping,
        Approach::Select,
        Approach::Adaptive,
    ];
    // The remap work counters are schedule-invariant at any remap thread
    // count (the multistart pre-splits its budget), so the *entire*
    // aggregated counter map must be bit-identical at any batch width —
    // even with the parallel remap search left at its default.
    let mut setup = LowEndSetup {
        remap_starts: 50,
        ..LowEndSetup::default()
    };

    let mut reference = None;
    for threads in [1usize, 2, 8] {
        setup.batch_threads = threads;
        let (_, mut telemetry) = run_lowend_matrix_with_telemetry(&names, &approaches, &setup);
        telemetry.clear_spans();
        // The dense IRC engine's per-stage work counters ride along in the
        // whole-map comparison below; make their presence explicit so the
        // pinning can't silently pass if they stop being emitted. (Freeze
        // may legitimately be 0 on these workloads, so only its key is
        // required.)
        for key in ["irc.simplify", "irc.coalesce", "irc.freeze", "irc.spill"] {
            assert!(
                telemetry.counters().contains_key(key),
                "counter {key} missing at batch_threads = {threads}"
            );
        }
        assert!(telemetry.counter("irc.simplify") > 0, "no simplify steps recorded");
        match &reference {
            None => reference = Some(telemetry),
            Some(want) => assert_eq!(
                want, &telemetry,
                "telemetry counters diverged at batch_threads = {threads}"
            ),
        }
    }
}

/// The remapping searches the low-end matrix runs over `names` under
/// `approaches`, counted without the search cache: every differentially
/// compiled function is allocated the way the pipeline allocates it, and
/// its preg adjacency edges are the search input (all searches share one
/// `RemapConfig`). Returns (searches, distinct inputs).
fn census_searches(names: &[&str], approaches: &[Approach], setup: &LowEndSetup) -> (u64, usize) {
    use dra_adjgraph::build_preg_adjacency;
    use dra_ir::RegClass;
    use dra_regalloc::{AllocConfig, Allocator, Coalescing, DenseIrc};
    let mut searches = 0;
    let mut inputs = std::collections::HashSet::new();
    for name in names {
        let program = dra_workloads::benchmark(name);
        for &approach in approaches {
            for f in &program.funcs {
                let pressured = dra_ir::liveness::max_pressure_of(f) > setup.direct_regs as usize;
                let (engine, mut cfg): (&dyn Allocator, AllocConfig) = match approach {
                    Approach::Remapping => (&DenseIrc, AllocConfig::baseline(setup.diff.reg_n())),
                    Approach::Select => (&DenseIrc, AllocConfig::differential(setup.diff)),
                    Approach::Adaptive if pressured => {
                        (&DenseIrc, AllocConfig::differential(setup.diff))
                    }
                    Approach::Coalesce => (&Coalescing, AllocConfig::differential(setup.diff)),
                    _ => continue,
                };
                cfg.call_clobbers = setup.call_clobbers.clone();
                let mut allocated = f.clone();
                engine
                    .allocate_fn(&mut allocated, &cfg, setup.check)
                    .expect("allocates");
                let g = build_preg_adjacency(&allocated, RegClass::Int, setup.diff.reg_n());
                let edges: Vec<(u32, u32, u64)> = g
                    .iter_edges()
                    .map(|(a, b, w)| (a, b, w.to_bits()))
                    .collect();
                searches += 1;
                inputs.insert(edges);
            }
        }
    }
    (searches, inputs.len())
}

/// The session's remapping search cache on the whole mibench matrix:
/// every counter, `remap_cache.*` included, is identical at any batch
/// width, and the cache hits exactly the repeated searches.
#[test]
fn remap_cache_hits_exactly_the_repeated_searches() {
    let names = dra_workloads::benchmark_names();
    let approaches = [
        Approach::Baseline,
        Approach::Remapping,
        Approach::Select,
        Approach::OSpill,
        Approach::Coalesce,
        Approach::Adaptive,
    ];
    // The repeats are structural (equal allocations), so fewer restarts
    // keep the test quick without changing which searches repeat.
    let mut setup = LowEndSetup {
        remap_starts: 50,
        ..LowEndSetup::default()
    };
    let (searches, distinct) = census_searches(&names, &approaches, &setup);

    let mut reference = None;
    for threads in [1usize, 2, 8] {
        setup.batch_threads = threads;
        let (_, mut telemetry) = run_lowend_matrix_with_telemetry(&names, &approaches, &setup);
        telemetry.clear_spans();
        assert_eq!(telemetry.counter("remap_cache.lookups"), searches);
        assert_eq!(telemetry.counter("remap.functions"), searches);
        assert_eq!(
            telemetry.counter("remap_cache.hits"),
            searches - distinct as u64,
            "hits must be lookups minus distinct searches at batch_threads = {threads}"
        );
        assert!(
            telemetry.counter("remap_cache.hits") > 0,
            "the matrix repeats searches"
        );
        assert_eq!(telemetry.counter("remap_cache.evictions"), 0);
        match &reference {
            None => reference = Some(telemetry),
            Some(want) => assert_eq!(
                want, &telemetry,
                "telemetry counters diverged at batch_threads = {threads}"
            ),
        }
    }
}

/// Panic isolation extends the determinism contract to faulty matrices:
/// an injected worker panic fails exactly its own cell, and every
/// *surviving* cell is bit-identical to the clean run — at any width.
#[test]
fn injected_panic_fails_one_cell_and_preserves_the_rest() {
    let names = ["crc32", "bitcount", "sha"];
    let approaches = [
        Approach::Baseline,
        Approach::Remapping,
        Approach::Select,
        Approach::Adaptive,
    ];
    let mut setup = LowEndSetup {
        remap_starts: 50,
        remap_threads: 1,
        ..LowEndSetup::default()
    };

    let (clean, _) = run_lowend_matrix_with_telemetry(&names, &approaches, &setup);

    // Cell 5 = (bitcount, Remapping) in row-major (benchmark, approach)
    // order.
    setup.faults.panic_cells.insert(5);
    for threads in [1usize, 2, 8] {
        setup.batch_threads = threads;
        let (matrix, telemetry) = run_lowend_matrix_with_telemetry(&names, &approaches, &setup);
        for (bi, row) in matrix.iter().enumerate() {
            for (ai, cell) in row.iter().enumerate() {
                if bi * approaches.len() + ai == 5 {
                    match cell {
                        Err(PipelineError::Panic { message, .. }) => assert!(
                            message.contains("injected cell fault"),
                            "threads {threads}: wrong panic payload: {message}"
                        ),
                        other => panic!(
                            "threads {threads}: faulted cell produced {other:?}"
                        ),
                    }
                } else {
                    let want = normalized(clean[bi][ai].as_ref().unwrap().clone());
                    let got = normalized(cell.as_ref().unwrap().clone());
                    assert_eq!(
                        want, got,
                        "threads {threads}: survivor ({bi},{ai}) diverged"
                    );
                }
            }
        }
        assert_eq!(telemetry.counter("cells.failed"), 1, "threads {threads}");
        // Default `cell_retries = 1`: one re-attempt before giving up.
        assert_eq!(telemetry.counter("cells.retried"), 1, "threads {threads}");
        assert_eq!(telemetry.counter("cells.err"), 1, "threads {threads}");
        assert_eq!(
            telemetry.counter("cells.ok"),
            (names.len() * approaches.len() - 1) as u64,
            "threads {threads}"
        );
    }
}

/// A stale pressure table is the caller's bug, not the differential
/// path's: it must surface as `PressureMismatch` for every approach, and
/// must not be swallowed by degradation.
#[test]
fn pressure_mismatch_is_reported_not_degraded() {
    use dra_core::lowend::compile_program_telemetry;
    use dra_core::telemetry::Telemetry;

    let setup = LowEndSetup::default();
    for approach in [Approach::Baseline, Approach::Select, Approach::Adaptive] {
        let mut p = dra_workloads::benchmark("crc32");
        let funcs = p.funcs.len();
        let stale = vec![7usize; funcs + 2];
        let mut t = Telemetry::new();
        match compile_program_telemetry(&mut p, approach, &setup, Some(&stale), &mut t) {
            Err(PipelineError::PressureMismatch { funcs: f, pressures }) => {
                assert_eq!((f, pressures), (funcs, funcs + 2), "{}", approach.label());
            }
            other => panic!("{}: expected PressureMismatch, got {other:?}", approach.label()),
        }
        assert_eq!(t.counter("degrade.programs"), 0, "{}", approach.label());
    }
}

#[test]
fn highend_sweep_identical_across_thread_counts() {
    let suite = generate_loop_suite(&LoopSuiteConfig {
        n_loops: 60,
        hungry_fraction: 0.2,
        seed: 11,
    });
    let reg_ns = [32u16, 48, 64];
    let want = run_highend_sweep_with_telemetry(&suite, &reg_ns, 1).0;
    for threads in [2usize, 8] {
        let got = run_highend_sweep_with_telemetry(&suite, &reg_ns, threads).0;
        assert_eq!(want, got, "sweep diverged at {threads} threads");
    }
}

#[test]
fn run_batch_output_is_in_item_order_at_any_width() {
    // Uneven per-item cost exercises the work-stealing claim order.
    let items: Vec<u64> = (0..64).collect();
    let expensive = |_, &x: &u64| {
        let mut acc = x;
        for i in 0..(x % 7) * 10_000 {
            acc = acc.wrapping_mul(31).wrapping_add(i);
        }
        (x, acc)
    };
    let want = run_batch(&items, 1, expensive);
    for threads in [2usize, 3, 8, 16] {
        assert_eq!(
            want,
            run_batch(&items, threads, expensive),
            "diverged at {threads} threads"
        );
    }
}
