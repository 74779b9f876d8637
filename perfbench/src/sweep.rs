//! loop-sweep: the seeded loop suite software-pipelined at every RegN of
//! Tables 2–3 and Fig 14, through `run_highend_sweep_with_telemetry`.

use crate::common::{for_window, ms_since, repeat_setup, Ctx, Outcome};
use crate::lowend::Quality;
use crate::stats::ratio;
use crate::trace::Tracer;
use dra_core::{run_batch_isolated, run_highend_sweep_with_telemetry, CellOutcome, Telemetry};
use dra_swp::{pipeline_loop, PipelineConfig, PipelinedLoop};
use dra_workloads::{generate_loop_suite, LoopSuiteConfig, SuiteLoop};
use std::ops::Range;
use std::time::Instant;

/// Workers of each sweep call. Every `pipeline_loop` runs its remap
/// search on one thread per CPU (`PipelineConfig::highend`), so one
/// worker keeps the sweep within `available_parallelism` threads.
const SWEEP_WORKERS: usize = 1;
/// Sweep calls an untraced run makes at least (enough for the p90 tail).
const MIN_CALLS: usize = 100;

/// The paper's RegN sweep.
pub const REG_NS: [u16; 5] = [32, 40, 48, 56, 64];
/// Loops in the seeded suite (the paper studies 1928).
const SUITE_LOOPS: usize = 1928;
/// At most this many sweep-call latencies (the first ones) make `p50_ms`
/// and `tail_ms`: any count from 100 to 199 puts the tail at p90, with
/// up to 19 samples beyond it.
const LATENCY_SAMPLES: usize = 199;
/// Loops of the paper-default suite in the fixed reference set.
const REFERENCE_LOOPS: usize = 64;
/// Bits per VLIW instruction word (LEAF32).
const INST_BITS: u64 = 32;

/// The `swp.*` counters the sweep reports, all pure functions of the
/// loops.
const SWP_COUNTERS: [&str; 6] = [
    "swp.loops_total",
    "swp.loops_optimized",
    "swp.set_last_regs",
    "swp.spills_optimized",
    "swp.code_insts",
    "swp.cycles",
];

fn counts(prefix: &str, t: &Telemetry) -> Vec<(String, u64)> {
    SWP_COUNTERS
        .iter()
        .map(|k| (format!("{prefix}.{k}"), t.counter(k)))
        .collect()
}

/// A sweep's counters as the paper's code-quality counts.
fn quality(t: &Telemetry) -> Quality {
    Quality {
        sim_cycles: t.counter("swp.cycles"),
        code_bits: t.counter("swp.code_insts") * INST_BITS,
        dyn_set_last_regs: t.counter("swp.set_last_regs"),
        dyn_spills: t.counter("swp.spills_optimized"),
    }
}

/// Charge contained panics; returns the (loop, RegN) cells attempted.
fn tally(out: &mut Outcome, what: &str, loops: usize, t: &Telemetry) -> u64 {
    let cells = (loops * REG_NS.len()) as u64;
    out.attempted += cells;
    let panics = t.counter("swp.cell_panics");
    if panics > 0 {
        out.failures.panics += panics;
        out.problem(format!("{what}: {panics} contained cell panics"));
    }
    cells
}

/// The sweep composed from `pipeline_loop` calls on `workers` workers
/// with `remap_threads` each, one span per cell, aggregated over the
/// loops that pipeline at every point exactly as the sweep does. Returns
/// its `swp.*` counters, the summed cell time and the DDG operations
/// those cells scheduled.
fn traced_sweep(
    loops: &[SuiteLoop],
    workers: usize,
    remap_threads: usize,
    tracer: &Tracer,
    first_job: u64,
) -> (Telemetry, u64, u64) {
    let cells: Vec<(usize, usize)> = (0..REG_NS.len())
        .flat_map(|p| (0..loops.len()).map(move |l| (p, l)))
        .collect();
    let (outcomes, stats) = run_batch_isolated(&cells, workers, 0, |ci, &(p, l)| {
        let cfg = PipelineConfig {
            remap_threads,
            ..PipelineConfig::highend(REG_NS[p])
        };
        let (r, ns) = tracer.span("pipeline_loop", None, first_job + ci as u64, || {
            pipeline_loop(&loops[l].ddg, &cfg).ok()
        });
        (r, ns, loops[l].ddg.len() as u64)
    });
    let (mut cell_ns, mut ops) = (0u64, 0u64);
    let results: Vec<Option<PipelinedLoop>> = outcomes
        .into_iter()
        .map(|o| match o {
            CellOutcome::Ok((r, ns, n)) => {
                cell_ns += ns;
                ops += n;
                r
            }
            _ => None,
        })
        .collect();
    let at = |p: usize, l: usize| results[p * loops.len() + l].as_ref();
    let mut t = Telemetry::new();
    t.count("swp.cell_panics", stats.failed);
    for p in 0..REG_NS.len() {
        for l in (0..loops.len()).filter(|&l| (0..REG_NS.len()).all(|q| at(q, l).is_some())) {
            let r = at(p, l).expect("common loop");
            t.count("swp.loops_total", 1);
            t.count("swp.cycles", r.cycles);
            t.count("swp.code_insts", (r.kernel_ops + r.set_last_regs) as u64);
            t.count("swp.set_last_regs", r.set_last_regs as u64);
            if r.max_live_initial > 32 {
                t.count("swp.loops_optimized", 1);
                t.count("swp.spills_optimized", r.spill_ops as u64);
            }
        }
    }
    for k in SWP_COUNTERS {
        t.count(k, 0);
    }
    (t, cell_ns, ops)
}

/// Reorder the suite so that each sweep call gets one register-hungry
/// loop and its share of the common ones (the suite's own mix): calls are
/// alike, so their latencies compare. Left-over common loops form the
/// last calls. Returns the reordered suite and each call's range.
fn stratify(suite: Vec<SuiteLoop>) -> (Vec<SuiteLoop>, Vec<Range<usize>>) {
    let (hungry, common): (Vec<SuiteLoop>, Vec<SuiteLoop>) =
        suite.into_iter().partition(|l| l.hungry);
    let per_call = common.len() / hungry.len().max(1);
    let mut common = common.into_iter();
    let mut ordered = Vec::new();
    let mut calls = Vec::new();
    for h in hungry {
        let start = ordered.len();
        ordered.push(h);
        ordered.extend(common.by_ref().take(per_call));
        calls.push(start..ordered.len());
    }
    let rest: Vec<SuiteLoop> = common.collect();
    for c in rest.chunks(per_call + 1) {
        calls.push(ordered.len()..ordered.len() + c.len());
        ordered.extend_from_slice(c);
    }
    (ordered, calls)
}

/// Run loop-sweep.
pub fn run(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let ((suite, calls), setup) = repeat_setup(|| {
        let t0 = Instant::now();
        let suite = generate_loop_suite(&LoopSuiteConfig {
            n_loops: SUITE_LOOPS,
            seed: ctx.seed,
            ..LoopSuiteConfig::default()
        });
        (stratify(suite), ms_since(t0))
    });
    out.setup(&setup);
    let chunks: Vec<&[SuiteLoop]> = calls.into_iter().map(|r| &suite[r]).collect();
    let (window, min_steps) = ctx.untraced_window(MIN_CALLS);

    let (mut cells, mut wall_ns) = (0u64, 0u64);
    let mut call_ms = Vec::new();
    let mut chunk_walls = Vec::new();
    let mut first = Vec::new();
    for_window(window, min_steps, |i| {
        let chunk = chunks[i % chunks.len()];
        let t0 = Instant::now();
        let (_, t) = run_highend_sweep_with_telemetry(chunk, &REG_NS, SWEEP_WORKERS);
        let wall = t0.elapsed().as_nanos() as u64;
        cells += tally(&mut out, "sweep", chunk.len(), &t);
        wall_ns += wall;
        chunk_walls.push(wall);
        call_ms.push(wall as f64 / 1e6);
        for (k, v) in counts(&format!("chunk{}", i % chunks.len()), &t) {
            out.count(k, v);
        }
        if i == 0 {
            first = counts("chunk0", &t);
        }
    });
    out.e2e
        .insert("work_per_s", cells as f64 / (wall_ns as f64 / 1e9));
    let call_ms = &call_ms[..LATENCY_SAMPLES.min(call_ms.len())];
    out.latency(call_ms);

    // The same loops on nproc workers with one remap thread each.
    let (wide, _, _) = traced_sweep(chunks[0], ctx.threads, 1, &Tracer::new(), 0);
    if counts("chunk0", &wide) != first {
        out.problem("sweep: nproc-worker sweep differs from the 1-worker sweep");
    }

    let mut reference = generate_loop_suite(&LoopSuiteConfig::default());
    reference.truncate(REFERENCE_LOOPS);
    let (_, rt) = run_highend_sweep_with_telemetry(&reference, &REG_NS, SWEEP_WORKERS);
    tally(&mut out, "reference sweep", reference.len(), &rt);
    quality(&rt).report(&mut out);

    if ctx.trace {
        let (mut cell_ns, mut ops) = (0u64, 0u64);
        let mut traced_walls = Vec::new();
        let mut job = 0u64;
        for_window(ctx.half_window(), 1, |i| {
            let chunk = chunks[i % chunks.len()];
            let t0 = Instant::now();
            let (t, ns, n) = traced_sweep(chunk, SWEEP_WORKERS, 0, tracer, job);
            traced_walls.push(t0.elapsed().as_nanos() as u64);
            job += (chunk.len() * REG_NS.len()) as u64;
            tally(&mut out, "traced sweep", chunk.len(), &t);
            cell_ns += ns;
            ops += n;
            if i == 0 {
                if counts("chunk0", &t) != first {
                    out.problem("sweep: traced counts differ from untraced");
                }
                out.layers.insert(
                    "swp.spills_optimized",
                    t.counter("swp.spills_optimized") as f64,
                );
                out.layers
                    .insert("swp.set_last_regs", t.counter("swp.set_last_regs") as f64);
            }
        });
        let (rt2, _, _) = traced_sweep(&reference, SWEEP_WORKERS, 0, tracer, job);
        if quality(&rt2) != quality(&rt) {
            out.problem("sweep: traced reference differs from untraced");
        }
        out.layers
            .insert("swp.ns_per_op", ratio(cell_ns as f64, ops as f64));
        let busy_ns = SWEEP_WORKERS as f64 * traced_walls.iter().sum::<u64>() as f64;
        out.layers
            .insert("batch.busy_share", ratio(cell_ns as f64, busy_ns));
        out.overhead(&chunk_walls, &traced_walls);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_call_carries_one_hungry_loop() {
        let suite = generate_loop_suite(&LoopSuiteConfig {
            n_loops: 300,
            seed: 5,
            ..LoopSuiteConfig::default()
        });
        let hungry = suite.iter().filter(|l| l.hungry).count();
        assert!(hungry > 0);
        let (ordered, calls) = stratify(suite);
        let mut ids: Vec<usize> = ordered.iter().map(|l| l.index).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..300).collect::<Vec<_>>(), "every loop exactly once");
        let covered: Vec<usize> = calls.iter().flat_map(Clone::clone).collect();
        assert_eq!(
            covered,
            (0..300).collect::<Vec<_>>(),
            "calls tile the suite"
        );
        let hungry_in = |r: &Range<usize>| ordered[r.clone()].iter().filter(|l| l.hungry).count();
        assert!(calls[..hungry].iter().all(|r| hungry_in(r) == 1));
        assert!(calls[hungry..].iter().all(|r| hungry_in(r) == 0));
    }
}
