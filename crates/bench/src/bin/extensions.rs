//! Beyond the paper's five setups: the Section 8.2 **adaptive** mode
//! (differential encoding only where pressure warrants it) and
//! **profile-guided** weights (Section 4's suggestion), compared against
//! the best in-paper approaches.

use dra_bench::{average, render_table};
use dra_core::lowend::{Approach, LowEndSetup};
use dra_core::CompileSession;
use dra_workloads::benchmark_names;

fn main() {
    let session = CompileSession::new(LowEndSetup::default());
    let run = |name: &str, a: Approach| {
        let (run, _) = session
            .compile_bench(name, a)
            .unwrap_or_else(|e| panic!("{name}/{}: {e}", a.label()));
        run
    };
    let mut rows = Vec::new();
    let mut speedups: Vec<Vec<f64>> = vec![Vec::new(); 4];

    for name in benchmark_names() {
        let base = run(name, Approach::Baseline);
        let spd = |cycles: u64| 100.0 * (base.cycles as f64 - cycles as f64) / cycles as f64;

        let select = run(name, Approach::Select);
        let coalesce = run(name, Approach::Coalesce);
        let adaptive = run(name, Approach::Adaptive);
        let profiled = session.compile_profiled(name, Approach::Adaptive).unwrap();
        for r in [&*select, &*coalesce, &*adaptive, &profiled] {
            assert_eq!(r.ret_value, base.ret_value, "{name}: result diverged");
        }

        let vals = [
            spd(select.cycles),
            spd(coalesce.cycles),
            spd(adaptive.cycles),
            spd(profiled.cycles),
        ];
        for (i, v) in vals.iter().enumerate() {
            speedups[i].push(*v);
        }
        rows.push(vec![
            name.to_string(),
            format!("{:+.2}%", vals[0]),
            format!("{:+.2}%", vals[1]),
            format!("{:+.2}%", vals[2]),
            format!("{:+.2}%", vals[3]),
        ]);
    }
    let mut avg = vec!["AVERAGE".to_string()];
    for col in &speedups {
        avg.push(format!("{:+.2}%", average(col)));
    }
    rows.push(avg);

    print!(
        "{}",
        render_table(
            "Extensions: speedup over baseline",
            &[
                "benchmark".to_string(),
                "select".to_string(),
                "coalesce".to_string(),
                "adaptive (8.2)".to_string(),
                "adaptive+profile".to_string(),
            ],
            &rows
        )
    );
    println!("\nadaptive = differential encoding only in functions whose pressure exceeds");
    println!("the direct registers; profile = simulator block counts as edge weights.");
}
