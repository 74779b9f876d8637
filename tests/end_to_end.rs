//! End-to-end integration: every allocator approach, on every benchmark,
//! must produce a decodable program that computes the same answer on the
//! simulated machine — and dynamic hardware decoding of the executed trace
//! must reconstruct every register operand.

use dra_core::lowend::{compile_and_run, Approach, LowEndSetup};
use dra_encoding::{decode_trace, EncodingConfig};
use dra_workloads::benchmark_names;

/// Benchmarks small enough to run under every approach in test time.
const FAST: &[&str] = &["crc32", "adpcm", "stringsearch", "bitcount", "qsort"];

#[test]
fn all_approaches_agree_on_fast_benchmarks() {
    let setup = LowEndSetup::default();
    for name in FAST {
        let mut results = Vec::new();
        for a in Approach::ALL {
            let r = compile_and_run(name, a, &setup)
                .unwrap_or_else(|e| panic!("{name}/{}: {e}", a.label()));
            results.push((a, r.ret_value));
        }
        let expected = results[0].1;
        for (a, got) in results {
            assert_eq!(got, expected, "{name}/{} diverged", a.label());
        }
    }
}

#[test]
fn differential_programs_decode_along_executed_traces() {
    let setup = LowEndSetup::default();
    let enc = EncodingConfig::new(setup.diff);
    for name in FAST {
        for a in [Approach::Remapping, Approach::Select, Approach::Coalesce] {
            let r = compile_and_run(name, a, &setup)
                .unwrap_or_else(|e| panic!("{name}/{}: {e}", a.label()));
            // The simulator records the entry activation's block trace;
            // hardware decoding along that exact dynamic path must agree
            // with the static code on every operand.
            let f = &r.program.funcs[r.program.entry as usize];
            decode_trace(f, &enc, &r.entry_trace)
                .unwrap_or_else(|e| panic!("{name}/{}: {e}", a.label()));
        }
    }
}

#[test]
fn differential_reduces_spills_without_changing_results() {
    let setup = LowEndSetup::default();
    let mut total_base = 0usize;
    let mut total_diff = 0usize;
    for name in benchmark_names() {
        if !FAST.contains(&name) {
            continue;
        }
        let base = compile_and_run(name, Approach::Baseline, &setup).unwrap();
        let sel = compile_and_run(name, Approach::Select, &setup).unwrap();
        assert_eq!(base.ret_value, sel.ret_value, "{name}");
        total_base += base.spill_insts;
        total_diff += sel.spill_insts;
    }
    assert!(
        total_diff < total_base,
        "12 differential registers must reduce spills overall: {total_diff} vs {total_base}"
    );
}

#[test]
fn baseline_has_no_set_last_regs_and_uses_only_eight_registers() {
    let setup = LowEndSetup::default();
    for name in FAST {
        let r = compile_and_run(name, Approach::Baseline, &setup).unwrap();
        assert_eq!(r.set_last_regs, 0, "{name}");
        for f in &r.program.funcs {
            for i in f.iter_insts() {
                for reg in i.accesses() {
                    assert!(
                        reg.expect_phys().number() < 8,
                        "{name}: baseline uses {reg:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn differential_uses_extended_registers() {
    // The whole point: registers 8..12 must actually get used.
    let setup = LowEndSetup::default();
    let r = compile_and_run("sha", Approach::Select, &setup).unwrap();
    let mut high = 0;
    for f in &r.program.funcs {
        for i in f.iter_insts() {
            for reg in i.accesses() {
                if reg.expect_phys().number() >= 8 {
                    high += 1;
                }
            }
        }
    }
    assert!(high > 0, "no extended-register accesses found");
}

#[test]
fn compiled_benchmark_assembles_and_bit_decodes() {
    // The deepest loop closure: compile with differential coalesce,
    // assemble the entry function to actual LEAF16 words, execute on the
    // cycle simulator, then reconstruct every register operand of the
    // executed trace FROM THE BITS and check it against the IR.
    let setup = LowEndSetup::default();
    let geom = dra_isa::IsaGeometry::leaf16(3);
    let enc = EncodingConfig::new(setup.diff);
    for name in ["crc32", "bitcount"] {
        let r = compile_and_run(name, Approach::Coalesce, &setup).unwrap();
        let f = &r.program.funcs[r.program.entry as usize];
        let image = dra_encoding::assemble_function(f, &enc, &geom)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            image.size_bits(),
            dra_isa::function_size_bits(f, &geom),
            "{name}: size model vs assembler"
        );
        let decoded = dra_encoding::disassemble_trace(&image, f, &enc, &geom, &r.entry_trace)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!decoded.is_empty());
    }
}

#[test]
fn baseline_assembles_directly_in_three_bits() {
    // Direct encoding with 8 registers fits 3-bit fields with no repairs.
    let setup = LowEndSetup::default();
    let geom = dra_isa::IsaGeometry::leaf16(3);
    let enc = EncodingConfig::new(dra_adjgraph::DiffParams::direct(8));
    let r = compile_and_run("crc32", Approach::Baseline, &setup).unwrap();
    let f = &r.program.funcs[r.program.entry as usize];
    // Direct encoding still needs the entry repair under our decoder
    // model; insert and assemble.
    let mut f2 = f.clone();
    dra_encoding::insert_set_last_reg(&mut f2, &enc);
    dra_encoding::assemble_function(&f2, &enc, &geom).unwrap();
}

#[test]
fn adaptive_mode_agrees_and_pays_less() {
    let setup = LowEndSetup::default();
    for name in FAST {
        let base = compile_and_run(name, Approach::Baseline, &setup).unwrap();
        let select = compile_and_run(name, Approach::Select, &setup).unwrap();
        let adaptive = compile_and_run(name, Approach::Adaptive, &setup).unwrap();
        assert_eq!(base.ret_value, adaptive.ret_value, "{name}");
        assert!(
            adaptive.set_last_regs <= select.set_last_regs,
            "{name}: adaptive repairs {} > select {}",
            adaptive.set_last_regs,
            select.set_last_regs
        );
    }
}

/// `drac report` prints integer counters above 2^53 exactly and accepts
/// `u64::MAX`: telemetry counters are `u64` end to end.
#[test]
fn drac_report_keeps_u64_counters_exact() {
    let dir = std::env::temp_dir().join(format!("dra-report-u64-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("big.json");
    std::fs::write(
        &path,
        "{\"schema\": \"dra-telemetry-v1\", \"binary\": \"big\", \"counters\": \
         {\"remap.evaluations\": 9007199254740993, \"remap.functions\": 18446744073709551615}, \
         \"spans_ns\": {}}",
    )
    .unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_drac"))
        .arg("report")
        .arg(&path)
        .output()
        .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "drac report rejected the frame: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("9007199254740993"), "{stdout}");
    assert!(stdout.contains("18446744073709551615"), "{stdout}");
}
