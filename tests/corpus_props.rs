//! Properties of the profile-driven corpus generator (DESIGN.md §13).
//!
//! Everything `generate_from_profile` emits must be a first-class
//! pipeline citizen: its rendered text parses back, the program
//! validates, every function allocates cleanly under every `Allocator`
//! engine and passes the symbolic checker, and the whole corpus compiles
//! to identical artifacts at any batch thread count and whatever an
//! earlier compile left in the thread's scratch arenas. These are the
//! load-bearing guarantees behind `drac corpus` and the corpus
//! throughput benchmark: a corpus that occasionally emits an invalid
//! program would poison every throughput number downstream.

use dra_adjgraph::DiffParams;
use dra_core::batch::run_batch;
use dra_core::corpus::corpus_setup;
use dra_core::lowend::Approach;
use dra_core::session::CompileSession;
use dra_regalloc::{
    check_allocation, AllocConfig, Allocator, Coalescing, DenseIrc, Ospill, ReferenceIrc,
};
use dra_workloads::{builtin_profile, builtin_profiles, generate_from_profile};
use proptest::prelude::*;

/// Every engine behind the [`Allocator`] trait.
fn engines() -> Vec<Box<dyn Allocator>> {
    vec![
        Box::new(DenseIrc),
        Box::new(ReferenceIrc),
        Box::new(Ospill),
        Box::new(Coalescing),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        if cfg!(debug_assertions) { 4 } else { 12 }
    ))]

    /// Any (builtin profile, seed, count) corpus: exact function count,
    /// parse round-trip, structural validity, and a checker-clean
    /// allocation from all four engines.
    #[test]
    fn generated_corpora_are_parse_valid_and_checker_clean(
        which in 0usize..4,
        seed in any::<u64>(),
        count in 1usize..=10,
    ) {
        let profile = builtin_profiles().swap_remove(which);
        let corpus = generate_from_profile(&profile, seed, count)
            .expect("builtin profiles always generate");
        let total: usize = corpus.iter().map(|p| p.funcs.len()).sum();
        prop_assert_eq!(total, count, "{} functions requested", count);

        let cfg = AllocConfig::differential(DiffParams::lowend_12_8());
        for (pi, p) in corpus.iter().enumerate() {
            let text = p.to_string();
            let back = dra_ir::parse::parse_program(&text)
                .unwrap_or_else(|e| panic!("program {pi}: generated text fails to parse: {e}"));
            prop_assert_eq!(back.funcs.len(), p.funcs.len());
            prop_assert_eq!(back.num_insts(), p.num_insts());
            dra_ir::validate::validate_program(p)
                .unwrap_or_else(|e| panic!("program {pi}: generated program invalid: {e:?}"));

            for f in &p.funcs {
                for eng in engines() {
                    let a = eng.allocate(f, &cfg).unwrap_or_else(|e| {
                        panic!("program {pi}: {} failed on {}: {e}", eng.name(), f.name)
                    });
                    if let Err(e) = check_allocation(&a.func, &a.record) {
                        prop_assert!(
                            false,
                            "program {}: {} rejected by checker on {}: {e}",
                            pi, eng.name(), f.name
                        );
                    }
                }
            }
        }
    }
}

/// What one compile produced, in full: the measured quantities plus the
/// compiled program's rendered text (byte-level equality).
fn compile_fingerprints(texts: &[String], threads: usize) -> Vec<(u64, u64, usize, String)> {
    let session = CompileSession::new(corpus_setup());
    run_batch(texts, threads, |_, text| {
        let (run, _) = session
            .compile_source(text, Approach::Adaptive)
            .expect("corpus programs compile");
        (
            run.cycles,
            run.code_bits,
            run.total_insts,
            run.program.to_string(),
        )
    })
}

/// `(profile, seed, count)` is the whole identity of a corpus: two
/// generations are byte-identical, and the compiled artifacts are
/// byte-identical at 1, 2, and 8 batch threads.
#[test]
fn corpus_is_byte_identical_at_any_thread_count() {
    let profile = builtin_profile("deep-cfg").unwrap();
    let corpus = generate_from_profile(&profile, 42, 48).unwrap();
    let again = generate_from_profile(&profile, 42, 48).unwrap();
    let texts: Vec<String> = corpus.iter().map(|p| p.to_string()).collect();
    let texts_again: Vec<String> = again.iter().map(|p| p.to_string()).collect();
    assert_eq!(texts, texts_again, "generation must be reproducible");

    let baseline = compile_fingerprints(&texts, 1);
    for threads in [2, 8] {
        assert_eq!(
            compile_fingerprints(&texts, threads),
            baseline,
            "{threads}-thread compile diverged from single-threaded"
        );
    }
}

/// The scratch arenas are a pure allocation optimization: every buffer
/// taken from a pool is fully re-initialized, so what an earlier compile
/// left in the pools cannot reach the output. The same corpus compiled
/// on a fresh thread (cold pools) and on a thread that first compiled a
/// different corpus (pools holding other capacities and contents) is
/// bit-identical.
#[test]
fn scratch_arenas_do_not_change_compiled_output() {
    let corpus_texts = |name: &str, seed: u64| -> Vec<String> {
        let profile = builtin_profile(name).unwrap();
        let corpus = generate_from_profile(&profile, seed, 24).unwrap();
        corpus.iter().map(|p| p.to_string()).collect()
    };
    let texts = corpus_texts("embedded-dsp", 7);
    let other = corpus_texts("call-heavy", 11);

    let cold = std::thread::scope(|s| s.spawn(|| compile_fingerprints(&texts, 1)).join().unwrap());
    let dirty = std::thread::scope(|s| {
        s.spawn(|| {
            compile_fingerprints(&other, 1);
            compile_fingerprints(&texts, 1)
        })
        .join()
        .unwrap()
    });
    assert_eq!(cold, dirty, "pooled buffers must not change any artifact");
}
