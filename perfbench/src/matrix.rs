//! paper-matrix: the 10 mibench benchmarks × 6 approaches at the paper
//! setup (1000 greedy restarts), one fresh session per repetition — the
//! grid behind Figs 11–13.

use crate::common::{for_window, ms_since, repeat_setup, Ctx, Outcome};
use crate::lowend::{report_work, total_counts, traced_compile, LayerAcc, ProgResult, Quality};
use crate::trace::Tracer;
use dra_core::{run_batch, run_lowend_matrix_with_telemetry, Approach, LowEndSetup, PipelineError};
use std::time::Instant;

/// Repetitions an untraced run makes at least.
const MIN_REPS: usize = 3;

/// The five paper setups plus Section 8.2's selective enabling.
pub const APPROACHES: [Approach; 6] = [
    Approach::Baseline,
    Approach::Remapping,
    Approach::Select,
    Approach::OSpill,
    Approach::Coalesce,
    Approach::Adaptive,
];

fn matrix_setup(threads: usize) -> LowEndSetup {
    LowEndSetup {
        batch_threads: threads,
        // The batch driver is the parallelism; nested remap threads would
        // exceed the thread budget without changing any result.
        remap_threads: 1,
        ..LowEndSetup::default()
    }
}

/// Cell results in (benchmark, approach) order.
type Cells = Vec<Result<ProgResult, String>>;

/// Charge failures and disagreements; returns the functions compiled.
fn tally(out: &mut Outcome, what: &str, cells: &Cells, funcs_per_bench: &[u64]) -> u64 {
    let mut funcs = 0;
    for (bi, row) in cells.chunks(APPROACHES.len()).enumerate() {
        let expected = row.iter().flatten().next().map(|r| r.ret);
        for (ai, cell) in row.iter().enumerate() {
            out.attempted += 1;
            match cell {
                Ok(r) => {
                    funcs += funcs_per_bench[bi];
                    out.failures.violations += r.violations;
                    if Some(r.ret) != expected {
                        out.failures.disagreements += 1;
                        out.problem(format!(
                            "{what}: benchmark {bi} {} returned {:?}, expected {:?}",
                            APPROACHES[ai].label(),
                            r.ret,
                            expected.flatten()
                        ));
                    }
                }
                Err(e) => {
                    if e.starts_with("cell panicked") {
                        out.failures.panics += 1;
                    } else {
                        out.failures.errors += 1;
                    }
                    out.problem(format!("{what}: {e}"));
                }
            }
        }
    }
    funcs
}

fn untraced(names: &[&str], setup: &LowEndSetup) -> (Cells, dra_core::Telemetry, u64) {
    let t0 = Instant::now();
    let (matrix, telemetry) = run_lowend_matrix_with_telemetry(names, &APPROACHES, setup);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let cells = matrix
        .into_iter()
        .flatten()
        .map(|cell| {
            cell.map(|run| ProgResult::of_run(&run))
                .map_err(|e: PipelineError| e.to_string())
        })
        .collect();
    (cells, telemetry, wall_ns)
}

fn oks(cells: &Cells) -> Vec<ProgResult> {
    cells.iter().flatten().cloned().collect()
}

/// Run paper-matrix.
pub fn run(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let names = dra_workloads::benchmark_names();
    // Set-up builds the suite's programs and renders the text the traced
    // run parses.
    let ((texts, funcs_per_bench), setup) = repeat_setup(|| {
        let t0 = Instant::now();
        let programs: Vec<dra_ir::Program> =
            names.iter().map(|n| dra_workloads::benchmark(n)).collect();
        let texts: Vec<String> = programs.iter().map(ToString::to_string).collect();
        let funcs: Vec<u64> = programs.iter().map(|p| p.funcs.len() as u64).collect();
        ((texts, funcs), ms_since(t0))
    });
    out.setup(&setup);
    let setup = matrix_setup(ctx.threads);
    let (window, min_steps) = ctx.untraced_window(MIN_REPS);

    let (mut funcs, mut wall_ns) = (0u64, 0u64);
    let mut rep_ms = Vec::new();
    let mut rep_walls = Vec::new();
    let mut first: Cells = Vec::new();
    let mut caches = dra_core::Telemetry::new();
    for_window(window, min_steps, |i| {
        let (cells, telemetry, wall) = untraced(&names, &setup);
        funcs += tally(&mut out, "matrix", &cells, &funcs_per_bench);
        for (k, v) in total_counts("matrix", &oks(&cells)) {
            out.count(k, v);
        }
        wall_ns += wall;
        rep_walls.push(wall);
        rep_ms.push(wall as f64 / 1e6);
        if i == 0 {
            first = cells;
            caches = telemetry;
        }
    });
    out.e2e
        .insert("work_per_s", funcs as f64 / (wall_ns as f64 / 1e9));
    out.latency(&rep_ms);
    out.caches(&caches);
    let mut quality = Quality::default();
    oks(&first).iter().for_each(|r| quality.add(&r.quality));
    quality.report(&mut out);

    // One benchmark's row (rotating with the seed) on one worker.
    let bi = (ctx.seed % names.len() as u64) as usize;
    let (row, _, _) = untraced(&names[bi..=bi], &matrix_setup(1));
    let span = bi * APPROACHES.len()..(bi + 1) * APPROACHES.len();
    if row != first[span] {
        out.problem(format!(
            "matrix: {} on 1 worker differs from nproc",
            names[bi]
        ));
    }

    if ctx.trace {
        let cells: Vec<(usize, usize)> = (0..names.len())
            .flat_map(|b| (0..APPROACHES.len()).map(move |a| (b, a)))
            .collect();
        let mut acc = LayerAcc::default();
        let mut traced_walls = Vec::new();
        for_window(ctx.half_window(), 1, |i| {
            let t0 = Instant::now();
            let results = run_batch(&cells, ctx.threads, |ci, &(b, a)| {
                let job = (i * cells.len() + ci) as u64;
                traced_compile(tracer, job, &texts[b], APPROACHES[a], &setup)
            });
            traced_walls.push(t0.elapsed().as_nanos() as u64);
            let mut rep_acc = LayerAcc::default();
            let traced: Cells = results
                .into_iter()
                .map(|r| {
                    r.map(|(p, a)| {
                        rep_acc.merge(&a);
                        p
                    })
                })
                .collect();
            tally(&mut out, "traced matrix", &traced, &funcs_per_bench);
            if i == 0 {
                out.same_counts(
                    "matrix traced vs untraced",
                    &total_counts("matrix", &oks(&first)),
                    &total_counts("matrix", &oks(&traced)),
                );
                report_work(&mut out, &rep_acc.telemetry);
            }
            acc.merge(&rep_acc);
        });
        let busy_ns = ctx.threads as f64 * traced_walls.iter().sum::<u64>() as f64;
        acc.report(&mut out, busy_ns);
        out.overhead(&rep_walls, &traced_walls);
    }
    out
}
