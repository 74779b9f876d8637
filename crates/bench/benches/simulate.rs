//! The low-end simulator: the segment executor (`dra_sim::simulate`) vs
//! the tree-walking interpreter it replaced
//! (`dra_sim::machine::reference::simulate`), on a fixed compiled set.
//!
//! Two sets, each compiled once at the corpus setup (24 remap restarts):
//!
//! * `mibench` — the 10 mibench benchmarks under `Select`;
//! * `corpus` — 16 seeded `generate_from_profile` programs from each
//!   builtin profile, under `Select`.
//!
//! Each criterion body simulates the whole set once. After the criterion
//! sweep (skipped under `--test`), a headline reports each executor's
//! nanoseconds per fetched instruction, best of 7 passes, and the ratio.
//! Every pass first requires both executors to return the same result.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dra_core::corpus::corpus_setup;
use dra_core::lowend::Approach;
use dra_core::{CompileSession, Telemetry};
use dra_ir::Program;
use dra_sim::machine::reference;
use dra_sim::{simulate, LowEndConfig, SimError, SimResult};
use dra_workloads::{benchmark_names, builtin_profiles, generate_from_profile};
use std::hint::black_box;
use std::time::Instant;

/// Functions generated per builtin profile for the `corpus` set.
const FUNCS_PER_PROFILE: usize = 16;
/// The generator seed of the `corpus` set.
const SEED: u64 = 1;

type Executor = fn(&Program, &LowEndConfig, &[i64]) -> Result<SimResult, SimError>;

/// A compiled set and what it simulates under.
struct Set {
    name: &'static str,
    programs: Vec<Program>,
    machine: LowEndConfig,
    args: Vec<i64>,
}

impl Set {
    /// Simulate every program once; returns the instructions fetched.
    fn run(&self, exec: Executor) -> u64 {
        self.programs
            .iter()
            .map(|p| {
                exec(black_box(p), &self.machine, &self.args)
                    .expect("compiled programs simulate")
                    .insts_fetched
            })
            .sum()
    }
}

fn sets() -> Vec<Set> {
    let session = CompileSession::new(corpus_setup());
    let setup = session.setup();
    let mibench = benchmark_names()
        .iter()
        .map(|name| {
            let (run, _) = session
                .compile_bench(name, Approach::Select)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            run.program.clone()
        })
        .collect();
    let mut corpus = Vec::new();
    for profile in builtin_profiles() {
        for mut p in generate_from_profile(&profile, SEED, FUNCS_PER_PROFILE)
            .expect("builtin profiles always generate")
        {
            session
                .compile_program(&mut p, Approach::Select, &mut Telemetry::new())
                .unwrap_or_else(|e| panic!("{}: {e}", profile.name));
            corpus.push(p);
        }
    }
    [("mibench", mibench), ("corpus", corpus)]
        .into_iter()
        .map(|(name, programs)| Set {
            name,
            programs,
            machine: setup.machine.clone(),
            args: setup.args.clone(),
        })
        .collect()
}

fn bench_simulate(c: &mut Criterion) {
    let sets = sets();
    for set in &sets {
        for p in &set.programs {
            assert_eq!(
                simulate(p, &set.machine, &set.args),
                reference::simulate(p, &set.machine, &set.args),
                "{}: executors disagree",
                set.name
            );
        }
    }

    let mut group = c.benchmark_group("simulate");
    group.sample_size(10);
    for set in &sets {
        group.bench_with_input(BenchmarkId::new("segment", set.name), set, |b, set| {
            b.iter(|| set.run(simulate))
        });
        group.bench_with_input(BenchmarkId::new("reference", set.name), set, |b, set| {
            b.iter(|| set.run(reference::simulate))
        });
    }
    group.finish();

    if std::env::args().any(|a| a == "--test") {
        return;
    }
    eprintln!("\nsimulate headline (ns per fetched instruction, best of 7 passes):");
    for set in &sets {
        let ns_per_fetched = |exec: Executor| {
            (0..7)
                .map(|_| {
                    let t = Instant::now();
                    let fetched = set.run(exec);
                    t.elapsed().as_nanos() as f64 / fetched as f64
                })
                .fold(f64::INFINITY, f64::min)
        };
        let segment = ns_per_fetched(simulate);
        let interp = ns_per_fetched(reference::simulate);
        eprintln!(
            "  {:<8} {} programs, {} fetched: segment {segment:.2} ns, reference {interp:.2} ns, {:.1}x",
            set.name,
            set.programs.len(),
            set.run(simulate),
            interp / segment
        );
    }
}

criterion_group!(benches, bench_simulate);
criterion_main!(benches);
