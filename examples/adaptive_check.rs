//! Quick comparison of the Section 8.2 adaptive mode against the paper's
//! five setups on one benchmark.
//!
//! Run with: `cargo run -p dra-core --example adaptive_check --release [name]`

use dra_core::lowend::{Approach, LowEndSetup};
use dra_core::CompileSession;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "sha".to_string());
    let session = CompileSession::new(LowEndSetup::default());
    println!("{:<11} {:>7} {:>7} {:>10}", "approach", "spill%", "slr%", "cycles");
    let mut approaches = Approach::ALL.to_vec();
    approaches.push(Approach::Adaptive);
    for a in approaches {
        let (r, _) = session.compile_bench(&name, a).unwrap();
        println!(
            "{:<11} {:>6.2}% {:>6.2}% {:>10}",
            a.label(),
            r.spill_percent(),
            r.cost_percent(),
            r.cycles
        );
    }
}
