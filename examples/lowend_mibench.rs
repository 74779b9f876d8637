//! The low-end experiment on one benchmark: all five setups side by side.
//!
//! This is Figure 11–14 in miniature for a single program — pick the
//! benchmark with the first CLI argument (default `sha`, the highest-
//! pressure kernel).
//!
//! Run with: `cargo run -p dra-core --example lowend_mibench [--release] [name]`

use dra_core::lowend::{Approach, LowEndSetup};
use dra_core::CompileSession;
use dra_workloads::benchmark_names;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "sha".to_string());
    assert!(
        benchmark_names().contains(&name.as_str()),
        "unknown benchmark `{name}`; available: {:?}",
        benchmark_names()
    );

    let session = CompileSession::new(LowEndSetup::default());
    let setup = session.setup();
    println!(
        "benchmark `{name}`: direct setups use {} registers, differential use RegN={} DiffN={}\n",
        setup.direct_regs,
        setup.diff.reg_n(),
        setup.diff.diff_n()
    );
    println!(
        "{:<11} {:>7} {:>8} {:>7} {:>10} {:>10} {:>9}",
        "approach", "spill%", "slr%", "insts", "code(bits)", "cycles", "result"
    );

    let mut baseline_cycles = None;
    for a in Approach::ALL {
        let (r, _) = session
            .compile_bench(&name, a)
            .unwrap_or_else(|e| panic!("{}: {e}", a.label()));
        if a == Approach::Baseline {
            baseline_cycles = Some(r.cycles);
        }
        println!(
            "{:<11} {:>6.2}% {:>7.2}% {:>7} {:>10} {:>10} {:>9}",
            a.label(),
            r.spill_percent(),
            r.cost_percent(),
            r.total_insts,
            r.code_bits,
            r.cycles,
            r.ret_value.unwrap_or(0)
        );
    }

    if let Some(base) = baseline_cycles {
        println!("\nspeedups over baseline:");
        for a in [Approach::Remapping, Approach::Select, Approach::OSpill, Approach::Coalesce] {
            let (r, _) = session.compile_bench(&name, a).unwrap();
            let s = 100.0 * (base as f64 - r.cycles as f64) / r.cycles as f64;
            println!("  {:<11} {s:+.2}%", a.label());
        }
    }
}
