//! corpus-mix: batch compile of generated programs, equal function
//! counts from each builtin profile, every program compiled once per
//! pass through a fresh session (the `drac corpus` path).

use crate::common::{for_window, ms_since, repeat_setup, Ctx, Outcome};
use crate::lowend::{report_work, total_counts, traced_compile, LayerAcc, ProgResult, Quality};
use crate::stats::evenly;
use crate::trace::Tracer;
use dra_core::corpus::corpus_setup;
use dra_core::{run_batch, Approach, CompileSession, LowEndSetup, Telemetry};
use std::time::Instant;

/// Batches an untraced run compiles at least: enough for the p90 tail.
const MIN_BATCHES: usize = 100;

/// The four builtin profiles, interleaved in every batch.
pub const PROFILES: [&str; 4] = ["embedded-dsp", "pointer-chasing", "deep-cfg", "call-heavy"];
/// Functions generated per profile: more than one window compiles, so
/// a run never repeats a program.
const FUNCS_PER_PROFILE: usize = 1024;
/// Programs per batch (one `run_batch` call, one fresh session).
const BATCH_PROGRAMS: usize = 8;
/// At most this many batch latencies, spread evenly over the window,
/// make `p50_ms` and `tail_ms`: any count from 100 to 199 puts the tail
/// at p90, with 10 to 19 samples beyond it.
const LATENCY_SAMPLES: usize = 199;
/// Programs of the first batch recompiled on one worker.
const CHECK_PROGRAMS: usize = 6;

/// One program to compile.
pub struct Job {
    /// Program text.
    pub text: String,
    /// Functions in it.
    pub funcs: u64,
}

impl Job {
    fn of(p: &dra_ir::Program) -> Job {
        Job {
            text: p.to_string(),
            funcs: p.funcs.len() as u64,
        }
    }
}

/// Generate and render the seeded pool. The profiles pack different
/// numbers of functions into a program, so they are interleaved by
/// function count: the next program comes from the profile with the
/// fewest functions in the pool so far, and the pool ends when a profile
/// runs out. Every stretch of the pool then holds about equal function
/// counts from each profile. Returns the pool and the generation time in
/// ms.
fn build_pool(seed: u64) -> (Vec<Job>, f64) {
    let t0 = Instant::now();
    let mut per_profile: Vec<(u64, std::vec::IntoIter<Job>)> = PROFILES
        .iter()
        .map(|name| {
            let profile = dra_workloads::builtin_profile(name).expect("builtin profile");
            let jobs: Vec<Job> =
                dra_workloads::generate_from_profile(&profile, seed, FUNCS_PER_PROFILE)
                    .expect("builtin profiles validate")
                    .iter()
                    .map(Job::of)
                    .collect();
            (0, jobs.into_iter())
        })
        .collect();
    let mut pool = Vec::new();
    loop {
        let (funcs, jobs) = per_profile
            .iter_mut()
            .min_by_key(|(funcs, _)| *funcs)
            .expect("four profiles");
        let Some(job) = jobs.next() else { break };
        *funcs += job.funcs;
        pool.push(job);
    }
    (pool, ms_since(t0))
}

/// The fixed reference set: the 10 mibench benchmarks, as text.
pub fn reference_jobs() -> Vec<Job> {
    dra_workloads::benchmark_names()
        .into_iter()
        .map(|name| Job::of(&dra_workloads::benchmark(name)))
        .collect()
}

fn corpus_mix_setup() -> LowEndSetup {
    let mut setup = corpus_setup();
    setup.check = true;
    setup
}

/// One batch's results, in program order.
struct Batch {
    results: Vec<Result<ProgResult, String>>,
    wall_ns: u64,
    caches: Telemetry,
}

fn compile_batch(jobs: &[Job], setup: &LowEndSetup, threads: usize) -> Batch {
    let session = CompileSession::new(setup.clone());
    let t0 = Instant::now();
    let results = run_batch(jobs, threads, |_, job| {
        session
            .compile_source(&job.text, Approach::Adaptive)
            .map(|(run, _)| ProgResult::of_run(&run))
            .map_err(|e| e.to_string())
    });
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let mut caches = Telemetry::new();
    session.record_counters(&mut caches);
    Batch {
        results,
        wall_ns,
        caches,
    }
}

fn traced_batch(
    jobs: &[Job],
    first_job: u64,
    setup: &LowEndSetup,
    threads: usize,
    tracer: &Tracer,
) -> (Vec<Result<ProgResult, String>>, LayerAcc, u64) {
    let t0 = Instant::now();
    let cells = run_batch(jobs, threads, |i, job| {
        traced_compile(
            tracer,
            first_job + i as u64,
            &job.text,
            Approach::Adaptive,
            setup,
        )
    });
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let mut acc = LayerAcc::default();
    let results = cells
        .into_iter()
        .map(|c| {
            c.map(|(r, a)| {
                acc.merge(&a);
                r
            })
        })
        .collect();
    (results, acc, wall_ns)
}

/// Charge errors and checker violations; returns the functions compiled.
fn tally(
    out: &mut Outcome,
    what: &str,
    jobs: &[Job],
    results: &[Result<ProgResult, String>],
) -> u64 {
    let mut funcs = 0;
    for (job, r) in jobs.iter().zip(results) {
        out.attempted += 1;
        match r {
            Ok(r) => {
                funcs += job.funcs;
                out.failures.violations += r.violations;
                if r.violations > 0 {
                    out.problem(format!("{what}: {} checker violations", r.violations));
                }
            }
            Err(e) => {
                out.failures.errors += 1;
                out.problem(format!("{what}: {e}"));
            }
        }
    }
    funcs
}

fn oks(results: Vec<Result<ProgResult, String>>) -> Vec<ProgResult> {
    results.into_iter().flatten().collect()
}

/// Run corpus-mix.
pub fn run(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (pool, setup) = repeat_setup(|| build_pool(ctx.seed));
    out.setup(&setup);
    let setup = corpus_mix_setup();
    let batches: Vec<&[Job]> = pool.chunks(BATCH_PROGRAMS).collect();
    let (window, min_steps) = ctx.untraced_window(MIN_BATCHES);

    let (mut funcs, mut wall_ns) = (0u64, 0u64);
    let mut batch_walls = Vec::new();
    let mut first: Vec<ProgResult> = Vec::new();
    let mut caches = Telemetry::new();
    let steps = for_window(window, min_steps, |i| {
        let jobs = batches[i % batches.len()];
        let b = compile_batch(jobs, &setup, ctx.threads);
        funcs += tally(&mut out, "corpus", jobs, &b.results);
        wall_ns += b.wall_ns;
        batch_walls.push(b.wall_ns);
        caches.merge(&b.caches);
        if i == 0 {
            first = oks(b.results);
        }
    });
    out.notes.push(format!(
        "corpus: {steps} batches of {BATCH_PROGRAMS} programs from a pool of {}{}",
        pool.len(),
        if steps > batches.len() { " (wrapped)" } else { "" }
    ));
    out.e2e
        .insert("work_per_s", funcs as f64 / (wall_ns as f64 / 1e9));
    let batch_ms: Vec<f64> = batch_walls.iter().map(|&ns| ns as f64 / 1e6).collect();
    let latencies = evenly(&batch_ms, LATENCY_SAMPLES);
    out.latency(&latencies);
    out.caches(&caches);
    let seeded = total_counts("batch0", &first);
    for (k, v) in &seeded {
        out.count(k.clone(), *v);
    }

    // The same programs on one worker must compile to the same counts.
    let n = CHECK_PROGRAMS.min(first.len());
    if oks(compile_batch(&batches[0][..n], &setup, 1).results)[..] != first[..n] {
        out.problem("corpus: 1-worker compile differs from the nproc compile");
    }

    let reference = reference_jobs();
    let refs = compile_batch(&reference, &setup, ctx.threads);
    tally(&mut out, "reference", &reference, &refs.results);
    let refs = oks(refs.results);
    let mut quality = Quality::default();
    refs.iter().for_each(|r| quality.add(&r.quality));
    quality.report(&mut out);
    let ref_counts = total_counts("ref", &refs);
    for (k, v) in &ref_counts {
        out.count(k.clone(), *v);
    }

    if ctx.trace {
        let mut acc = LayerAcc::default();
        let mut traced_walls = Vec::new();
        let mut job = 0u64;
        for_window(ctx.half_window(), 1, |i| {
            let jobs = batches[i % batches.len()];
            let (results, a, wall) = traced_batch(jobs, job, &setup, ctx.threads, tracer);
            job += jobs.len() as u64;
            tally(&mut out, "traced corpus", jobs, &results);
            if i == 0 {
                let traced = total_counts("batch0", &oks(results));
                out.same_counts("corpus traced vs untraced", &seeded, &traced);
                report_work(&mut out, &a.telemetry);
            }
            acc.merge(&a);
            traced_walls.push(wall);
        });
        let (traced_refs, _, _) = traced_batch(&reference, job, &setup, ctx.threads, tracer);
        let traced_refs = total_counts("ref", &oks(traced_refs));
        out.same_counts("reference traced vs untraced", &ref_counts, &traced_refs);
        let busy_ns = ctx.threads as f64 * traced_walls.iter().sum::<u64>() as f64;
        acc.report(&mut out, busy_ns);
        out.overhead(&batch_walls, &traced_walls);
    }
    out
}
