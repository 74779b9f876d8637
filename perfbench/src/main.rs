//! The pipeline benchmark: one command that runs a workload (or all of
//! them), checks the outputs, and prints every declared metric with its
//! unit, ending with one JSON line:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload corpus-mix --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs an
//! untraced half and a traced half and reports the per-layer metrics.
//! See `perfbench/README.md` for what each workload and metric means.

mod common;
mod corpus;
mod lowend;
mod matrix;
mod serve;
mod spec;
mod stats;
mod sweep;
mod trace;

use common::{Ctx, Outcome};
use dra_core::telemetry::{parse_json, Json};
use spec::Spec;
use stats::fail_share;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;
use trace::Tracer;

/// The seed runs use when none is given.
const DEFAULT_SEED: u64 = 1;
/// Where sockets, spans, results and the count ledger go, relative to
/// the checkout root the benchmark runs from.
const OUT_DIR: &str = ".perfbench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        seed: DEFAULT_SEED,
        seconds: 20,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn run_workload(name: &str, ctx: &Ctx, tracer: &Tracer) -> Result<Outcome, String> {
    match name {
        "corpus-mix" => Ok(corpus::run(ctx, tracer)),
        "paper-matrix" => Ok(matrix::run(ctx, tracer)),
        "serve-open" => serve::run(ctx, tracer).map_err(|e| format!("serve-open: {e}")),
        "loop-sweep" => Ok(sweep::run(ctx, tracer)),
        _ => Err(format!("unknown workload {name}")),
    }
}

/// A key for the build under test: FNV-1a over the running executable's
/// bytes. Counts are compared only between runs of the same build, so a
/// change that alters the emitted code starts a ledger of its own.
fn build_key() -> std::io::Result<String> {
    let bytes = std::fs::read(std::env::current_exe()?)?;
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    Ok(format!("{hash:016x}"))
}

/// The count-ledger file for one workload and seed, under one build.
fn ledger_path(out_dir: &Path, workload: &str, seed: u64, build: &str) -> PathBuf {
    out_dir
        .join("counts")
        .join(format!("{workload}-seed{seed}-{build}.txt"))
}

/// Compare `counts` with the ledger from earlier runs of the same build,
/// workload and seed (traced or not), then add any new keys to it.
fn check_ledger(path: &Path, counts: &BTreeMap<String, u64>) -> Result<Vec<String>, String> {
    let old: BTreeMap<String, u64> = std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let (k, v) = l.split_once(' ')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect();
    let problems = counts
        .iter()
        .filter_map(|(k, v)| match old.get(k) {
            Some(o) if o != v => Some(format!("count {k} is {v}, an earlier run had {o}")),
            _ => None,
        })
        .collect();
    let mut merged = old;
    for (k, v) in counts {
        merged.entry(k.clone()).or_insert(*v);
    }
    let text: String = merged.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    std::fs::create_dir_all(path.parent().expect("ledger dir")).map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| e.to_string())?;
    Ok(problems)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The members of a `metrics` object: `"name": {"value": …, "unit": …}`.
fn metrics_json(metrics: &[(String, f64, String)]) -> String {
    let members: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    members.join(", ")
}

/// Run one workload and report it. Returns the final-line pieces.
fn report(
    name: &str,
    args: &Args,
    spec: &Spec,
    out_dir: &Path,
    build: &str,
) -> Result<Final, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        trace: args.trace,
        threads,
        out_dir: out_dir.to_path_buf(),
    };
    let tracer = Tracer::new();
    let mut out = run_workload(name, &ctx, &tracer)?;
    let rss = dra_core::corpus::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0);
    out.e2e.insert("peak_rss_mib", rss);

    let ledger = ledger_path(out_dir, name, args.seed, build);
    for p in check_ledger(&ledger, &out.counts)? {
        out.problem(p);
    }
    let declared = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut metrics = Vec::new();
    for m in declared {
        let value = if args.trace {
            out.layers.get(m.name.as_str()).copied().unwrap_or(0.0)
        } else {
            match out.e2e.get(m.name.as_str()) {
                Some(v) => *v,
                None => {
                    out.problem(format!("{} was not measured", m.name));
                    0.0
                }
            }
        };
        if !value.is_finite() {
            out.problem(format!("{} is not a number", m.name));
        }
        metrics.push((m.name.clone(), value, m.unit.clone()));
    }
    let undeclared: Vec<String> = out
        .e2e
        .keys()
        .chain(out.layers.keys())
        .filter(|k| spec.unit(k).is_none())
        .map(|k| format!("{k} is measured but not declared"))
        .collect();
    out.problems.extend(undeclared);

    let failed = out.failures.total();
    let attempted = out.attempted.max(1);
    let correct = out.problems.is_empty() && failed == 0;
    let (rustc, git) = (env!("PERFBENCH_RUSTC"), env!("PERFBENCH_GIT"));
    println!(
        "# workload={name} seed={} traced={} available_parallelism={threads} rustc=\"{rustc}\" git={git} build={build}",
        args.seed, args.trace
    );
    if args.trace {
        println!("# end-to-end (untraced half of this run; take them from --trace 0):");
        for m in &spec.end_to_end {
            let v = out.e2e.get(m.name.as_str()).copied().unwrap_or(0.0);
            println!("#   {} = {} {}", m.name, json_number(v), m.unit);
        }
    }
    for (n, v, u) in &metrics {
        println!("{name} {n} = {} {u}", json_number(*v));
    }
    println!(
        "{name} fail_share = {} ({failed} failed / {attempted} attempted)",
        fail_share(&out.failures, attempted)
    );
    for note in &out.notes {
        println!("# {note}");
    }
    for p in out.problems.iter().take(20) {
        eprintln!("FAIL {name}: {p}");
    }

    let doc = format!(
        "{{\"workload\": \"{name}\", \"seed\": {}, \"traced\": {}, \"available_parallelism\": {threads}, \"rustc\": \"{rustc}\", \"git\": \"{git}\", \"build\": \"{build}\", \"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}\n",
        args.seed,
        args.trace,
        metrics_json(&metrics),
    );
    let stem = format!("{name}-seed{}-trace{}", args.seed, u8::from(args.trace));
    let results = out_dir.join("results").join(format!("{stem}.json"));
    std::fs::create_dir_all(results.parent().expect("results dir")).map_err(|e| e.to_string())?;
    std::fs::write(&results, doc).map_err(|e| e.to_string())?;
    if args.trace {
        tracer
            .write(&out_dir.join("spans").join(format!("{stem}.json")))
            .map_err(|e| e.to_string())?;
    }
    Ok((correct, attempted, failed, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: --workload <name|all> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::load();
    if let Err(e) = spec.validate() {
        eprintln!("BENCHMARK.json: {e}");
        return ExitCode::from(2);
    }
    let names: Vec<String> = if args.workload == "all" {
        spec.workloads.clone()
    } else if spec.workloads.contains(&args.workload) {
        vec![args.workload.clone()]
    } else {
        eprintln!(
            "unknown workload {} (have: {})",
            args.workload,
            spec.workloads.join(", ")
        );
        return ExitCode::from(2);
    };
    if names.len() > 1 {
        return run_all(&args, &names);
    }
    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("{}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let build = match build_key() {
        Ok(key) => key,
        Err(e) => {
            eprintln!("reading the benchmark executable for its build key: {e}");
            return ExitCode::FAILURE;
        }
    };
    let name = &names[0];
    match report(name, &args, &spec, &out_dir, &build) {
        Ok((correct, attempted, failed, metrics)) => {
            println!("{}", final_line(correct, attempted, failed, &metrics));
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("FAIL {name}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--workload all`: every workload in a child process of its own, so
/// each reports its own peak RSS. Each child's report passes through;
/// their final lines merge into one, metrics prefixed with the workload.
fn run_all(args: &Args, names: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("current executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for name in names {
        let (seed, seconds) = (args.seed.to_string(), args.seconds.to_string());
        let trace = if args.trace { "1" } else { "0" };
        let child = Command::new(&exe)
            .args(["--workload", name, "--seed", &seed])
            .args(["--seconds", &seconds, "--trace", trace])
            .stderr(Stdio::inherit())
            .output();
        let child = match child {
            Ok(c) => c,
            Err(e) => {
                eprintln!("FAIL {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&child.stdout);
        let stdout = stdout.trim_end();
        let (body, last) = stdout.rsplit_once('\n').unwrap_or(("", stdout));
        if !body.is_empty() {
            println!("{body}");
        }
        let Some((c, a, f, m)) = parse_final_line(last) else {
            eprintln!("FAIL {name}: no result line");
            return ExitCode::FAILURE;
        };
        correct &= c && child.status.success();
        attempted += a;
        failed += f;
        metrics.extend(m.into_iter().map(|(n, v, u)| (format!("{name}.{n}"), v, u)));
    }
    println!("{}", final_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The last line of standard output.
fn final_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics_json(metrics)
    )
}

/// A result line: `(correct, attempted, failed, metrics)`.
type Final = (bool, u64, u64, Vec<(String, f64, String)>);

/// Parse what [`final_line`] printed.
fn parse_final_line(line: &str) -> Option<Final> {
    let doc = parse_json(line).ok()?;
    let o = doc.as_obj()?;
    let metrics = o
        .get("metrics")?
        .as_obj()?
        .iter()
        .map(|(name, m)| {
            let m = m.as_obj()?;
            let Json::Num(value) = m.get("value")? else {
                return None;
            };
            Some((name.clone(), *value, m.get("unit")?.as_str()?.to_string()))
        })
        .collect::<Option<Vec<_>>>()?;
    Some((
        matches!(o.get("correct"), Some(Json::Bool(true))),
        o.get("attempted")?.as_u64()?,
        o.get("failed")?.as_u64()?,
        metrics,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_compares_only_runs_of_the_same_build() {
        let dir = std::env::temp_dir().join(format!("perfbench-ledger-{}", std::process::id()));
        let counts = |v: u64| BTreeMap::from([("ref.sim_cycles".to_string(), v)]);
        let old = ledger_path(&dir, "corpus-mix", 1, "aaaa");
        assert!(check_ledger(&old, &counts(100)).unwrap().is_empty());
        // Another build that emits different code starts a ledger of its own.
        let new = ledger_path(&dir, "corpus-mix", 1, "bbbb");
        assert_ne!(old, new);
        assert!(check_ledger(&new, &counts(90)).unwrap().is_empty());
        assert!(check_ledger(&new, &counts(90)).unwrap().is_empty());
        // The same build must repeat its counts.
        assert_eq!(check_ledger(&old, &counts(101)).unwrap().len(), 1);
        assert_eq!(check_ledger(&new, &counts(91)).unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn final_line_round_trips() {
        let metrics = vec![
            ("setup_s".to_string(), 0.8127, "s".to_string()),
            ("sim_cycles".to_string(), 110_553.0, "count".to_string()),
        ];
        let line = final_line(true, 1000, 2, &metrics);
        let (correct, attempted, failed, mut parsed) = parse_final_line(&line).unwrap();
        assert_eq!((correct, attempted, failed), (true, 1000, 2));
        parsed.sort_by(|a, b| a.0.cmp(&b.0));
        let mut expected = metrics;
        expected.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(parsed, expected);
        assert!(!parse_final_line(&final_line(false, 1, 0, &[])).unwrap().0);
        assert!(parse_final_line("# not a result").is_none());
    }
}
