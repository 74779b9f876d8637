//! Corpus-scale workloads: profile artifacts on disk and the
//! profile-driven corpus compile.
//!
//! The mibench substitutes are ten programs; the paper's high-end suite
//! is 1928 loops. Neither says anything about how the pipeline behaves
//! at *corpus* scale — tens of thousands of distinct functions through
//! one resident [`CompileSession`]. This module closes the loop:
//!
//! * **`dra-profile-v1`** — a [`WorkloadProfile`] serialized by the
//!   workspace's one JSON writer ([`crate::telemetry::JsonWriter`]), so a
//!   profile extracted from any run can be checked in, diffed, and
//!   fed back to the generator ([`profile_to_json`] /
//!   [`profile_from_json`], both gated by
//!   [`dra_workloads::validate_profile`]).
//! * [`run_corpus_compile`] — `drac corpus`: generate a corpus from a
//!   profile and push every program through the session-backed batch
//!   driver with the symbolic checker on; any checker rejection is a
//!   hard failure.
//!
//! Corpus throughput is measured outside the crate, by perfbench's
//! `corpus-mix` workload, which builds on [`corpus_setup`] and
//! [`peak_rss_bytes`].
//!
//! Determinism: the corpus itself is a pure function of
//! `(profile, seed, count)` at any thread count (see
//! [`dra_workloads::generate_from_profile`]).

use crate::batch::run_batch;
use crate::lowend::{Approach, LowEndSetup};
use crate::session::CompileSession;
use crate::telemetry::{parse_json, Json, JsonWriter, Telemetry};
use dra_workloads::profile::{
    InstMix, WorkloadProfile, DEPTH_BUCKETS, PRESSURE_BUCKETS, PROFILE_SCHEMA,
};
use dra_workloads::{generate_from_profile, validate_profile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

// ---------------------------------------------------------------------------
// dra-profile-v1 serialization
// ---------------------------------------------------------------------------

/// Serialize a profile as a `dra-profile-v1` JSON document (validated
/// first — a malformed profile must not reach disk).
///
/// # Errors
///
/// Whatever [`validate_profile`] rejects.
pub fn profile_to_json(p: &WorkloadProfile) -> Result<String, String> {
    validate_profile(p)?;
    let (m, c) = (&p.inst_mix, &p.cfg_shape);
    let mut w = JsonWriter::pretty();
    w.obj().key("schema").str(PROFILE_SCHEMA).key("name").str(&p.name);
    let mix = [
        ("alu", m.alu),
        ("muldiv", m.muldiv),
        ("mem", m.mem),
        ("mov", m.mov),
        ("call", m.call),
        ("branch", m.branch),
    ];
    let shape = [
        ("avg_blocks", c.avg_blocks),
        ("avg_block_len", c.avg_block_len),
        ("branch_density", c.branch_density),
        ("avg_funcs", c.avg_funcs),
    ];
    w.key("inst_mix").obj();
    for (k, v) in mix {
        w.key(k).f64(v);
    }
    w.end();
    for (k, hist) in [
        ("pressure_hist", &p.pressure_hist[..]),
        ("loop_depth_hist", &p.loop_depth_hist[..]),
    ] {
        w.key(k).arr();
        for &v in hist {
            w.f64(v);
        }
        w.end();
    }
    w.key("cfg_shape").obj();
    for (k, v) in shape {
        w.key(k).f64(v);
    }
    w.end();
    w.key("call_density").f64(p.call_density).end();
    Ok(w.finish())
}

fn get<'a>(obj: &'a BTreeMap<String, Json>, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing key {key:?}"))
}

fn get_f64(obj: &BTreeMap<String, Json>, key: &str) -> Result<f64, String> {
    let value = get(obj, key)?;
    value
        .as_f64()
        .ok_or_else(|| format!("{key:?} is not a number: {value:?}"))
}

fn get_hist<const N: usize>(obj: &BTreeMap<String, Json>, key: &str) -> Result<[f64; N], String> {
    let Json::Arr(items) = get(obj, key)? else {
        return Err(format!("{key:?} is not an array"));
    };
    if items.len() != N {
        return Err(format!("{key:?} has {} entries, expected {N}", items.len()));
    }
    let mut out = [0.0; N];
    for (i, item) in items.iter().enumerate() {
        out[i] = item
            .as_f64()
            .ok_or_else(|| format!("{key:?}[{i}] is not a number: {item:?}"))?;
    }
    Ok(out)
}

/// Parse and validate a `dra-profile-v1` JSON document.
///
/// # Errors
///
/// Malformed JSON, a wrong/missing `schema`, missing or mistyped keys,
/// or a profile [`validate_profile`] rejects.
pub fn profile_from_json(src: &str) -> Result<WorkloadProfile, String> {
    let doc = parse_json(src)?;
    let obj = doc.as_obj().ok_or("profile document is not an object")?;
    match get(obj, "schema")?.as_str() {
        Some(PROFILE_SCHEMA) => {}
        Some(other) => return Err(format!("schema {other:?}, expected {PROFILE_SCHEMA:?}")),
        None => return Err("schema is not a string".to_string()),
    }
    let name = get(obj, "name")?
        .as_str()
        .ok_or("name is not a string")?
        .to_string();
    let mix = get(obj, "inst_mix")?
        .as_obj()
        .ok_or("inst_mix is not an object")?;
    let shape = get(obj, "cfg_shape")?
        .as_obj()
        .ok_or("cfg_shape is not an object")?;
    let profile = WorkloadProfile {
        name,
        inst_mix: InstMix {
            alu: get_f64(mix, "alu")?,
            muldiv: get_f64(mix, "muldiv")?,
            mem: get_f64(mix, "mem")?,
            mov: get_f64(mix, "mov")?,
            call: get_f64(mix, "call")?,
            branch: get_f64(mix, "branch")?,
        },
        pressure_hist: get_hist::<PRESSURE_BUCKETS>(obj, "pressure_hist")?,
        loop_depth_hist: get_hist::<DEPTH_BUCKETS>(obj, "loop_depth_hist")?,
        cfg_shape: dra_workloads::profile::CfgShape {
            avg_blocks: get_f64(shape, "avg_blocks")?,
            avg_block_len: get_f64(shape, "avg_block_len")?,
            branch_density: get_f64(shape, "branch_density")?,
            avg_funcs: get_f64(shape, "avg_funcs")?,
        },
        call_density: get_f64(obj, "call_density")?,
    };
    validate_profile(&profile)?;
    Ok(profile)
}

/// Write `profile` to `<root>/results/profiles/<name>.json`, creating
/// the directory as needed, and return the path.
///
/// # Errors
///
/// Serialization failures (invalid profile) as `String`, I/O failures
/// stringified with the path they concern.
pub fn write_profile(root: &Path, profile: &WorkloadProfile) -> Result<PathBuf, String> {
    let json = profile_to_json(profile)?;
    let dir = root.join("results").join("profiles");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}.json", profile.name));
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Resolve a profile spec: a builtin name (`embedded-dsp`,
/// `pointer-chasing`, `deep-cfg`, `call-heavy`) or a path to a
/// `dra-profile-v1` JSON file.
///
/// # Errors
///
/// An unknown name that is not a readable file, or an invalid document.
pub fn resolve_profile(spec: &str) -> Result<WorkloadProfile, String> {
    if let Some(p) = dra_workloads::builtin_profile(spec) {
        return Ok(p);
    }
    let path = Path::new(spec);
    if !path.is_file() {
        let names: Vec<String> = dra_workloads::builtin_profiles()
            .into_iter()
            .map(|p| p.name)
            .collect();
        return Err(format!(
            "{spec:?} is neither a builtin profile ({}) nor a profile JSON file",
            names.join(", ")
        ));
    }
    let src = std::fs::read_to_string(path).map_err(|e| format!("{spec}: {e}"))?;
    profile_from_json(&src).map_err(|e| format!("{spec}: {e}"))
}

// ---------------------------------------------------------------------------
// Corpus compilation (drac corpus)
// ---------------------------------------------------------------------------

/// The setup corpus runs compile under: single-threaded remap with a
/// reduced restart budget (the batch driver is the parallelism, and a
/// thousand restarts per generated function would measure the search,
/// not the pipeline).
pub fn corpus_setup() -> LowEndSetup {
    let mut setup = LowEndSetup::default();
    setup.remap_starts = 24;
    setup.remap_threads = 1;
    setup
}

/// What one corpus compile+check run observed.
pub struct CorpusReport {
    /// Programs pushed through the session.
    pub programs: usize,
    /// Functions across those programs (the requested `--count`).
    pub functions: usize,
    /// Compiles that errored (checker rejections included).
    pub errors: u64,
    /// Symbolic-checker violations (from the merged `checker.*` counters).
    pub violations: u64,
    /// Merged per-cell telemetry plus the `corpus.*` counters.
    pub telemetry: Telemetry,
}

/// Generate `count` functions from `profile` and compile every program
/// through a fresh [`CompileSession`] with the symbolic checker on, on
/// `setup.batch_threads` workers.
/// Degradation stays enabled (matching production corpus compiles), so
/// a violation surfaces in `checker.violations` rather than as an
/// error; both are reported.
///
/// # Errors
///
/// Generation failures (invalid profile) as `String`.
pub fn run_corpus_compile(
    profile: &WorkloadProfile,
    count: usize,
    seed: u64,
    setup: &LowEndSetup,
) -> Result<CorpusReport, String> {
    let mut setup = setup.clone();
    setup.check = true;
    let programs = generate_from_profile(profile, seed, count)?;
    let texts: Vec<String> = programs.iter().map(|p| p.to_string()).collect();
    drop(programs);

    let session = CompileSession::new(setup);
    let mut telemetry = Telemetry::new();
    let t0 = Instant::now();
    let cells = run_batch(&texts, session.setup().batch_threads, |_, text| {
        session
            .compile_source(text, Approach::Adaptive)
            .map(|(run, _)| run.telemetry.clone())
    });
    let elapsed = t0.elapsed().as_nanos() as u64;

    let mut errors = 0u64;
    for cell in &cells {
        match cell {
            Ok(t) => telemetry.merge(t),
            Err(_) => errors += 1,
        }
    }
    session.record_counters(&mut telemetry);
    telemetry.count("corpus.programs", texts.len() as u64);
    telemetry.count("corpus.functions", count as u64);
    telemetry.count("corpus.errors", errors);
    telemetry.span_ns("corpus", elapsed);
    Ok(CorpusReport {
        programs: texts.len(),
        functions: count,
        errors,
        violations: telemetry.counter("checker.violations"),
        telemetry,
    })
}

/// `VmHWM` (peak resident set) from `/proc/self/status`, in bytes.
/// `None` where proc is unavailable, so a caller can report the figure
/// as absent rather than fake one.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_round_trip_through_json() {
        for profile in dra_workloads::builtin_profiles() {
            let json = profile_to_json(&profile).unwrap();
            let back = profile_from_json(&json).unwrap();
            assert_eq!(profile, back, "{}", profile.name);
        }
    }

    #[test]
    fn malformed_profile_documents_are_rejected() {
        let good = profile_to_json(&dra_workloads::builtin_profile("deep-cfg").unwrap()).unwrap();
        for (label, doc) in [
            ("garbage", "not json".to_string()),
            ("array", "[1,2,3]".to_string()),
            ("schema", good.replace("dra-profile-v1", "dra-profile-v0")),
            ("missing", good.replace("\"call_density\"", "\"call_densities\"")),
            ("histogram", good.replace("\"pressure_hist\": [", "\"pressure_hist\": [0.5,")),
        ] {
            assert!(profile_from_json(&doc).is_err(), "{label} must be rejected");
        }
        // Structurally valid JSON carrying an invalid profile (negative
        // mass) must fail the validate gate, not just the parser.
        let negative = good.replace("\"call_density\": 0", "\"call_density\": -1");
        assert!(profile_from_json(&negative).is_err());
    }

    #[test]
    fn write_profile_emits_a_readable_artifact() {
        let dir = std::env::temp_dir().join(format!("dra-profile-test-{}", std::process::id()));
        let profile = dra_workloads::builtin_profile("call-heavy").unwrap();
        let path = write_profile(&dir, &profile).unwrap();
        assert!(path.ends_with("results/profiles/call-heavy.json"));
        let back = profile_from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(profile, back);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resolve_prefers_builtins_and_reports_unknowns() {
        assert_eq!(resolve_profile("deep-cfg").unwrap().name, "deep-cfg");
        let err = resolve_profile("no-such-profile").unwrap_err();
        assert!(err.contains("embedded-dsp"), "error lists builtins: {err}");
    }

    #[test]
    fn corpus_compiles_clean_under_the_checker() {
        let profile = dra_workloads::builtin_profile("embedded-dsp").unwrap();
        let mut setup = corpus_setup();
        setup.batch_threads = 2;
        let report = run_corpus_compile(&profile, 40, 7, &setup).unwrap();
        assert_eq!(report.functions, 40);
        assert!(report.programs > 0 && report.programs <= 40);
        assert_eq!(report.errors, 0, "corpus compiles must not error");
        assert_eq!(report.violations, 0, "checker must accept the corpus");
        assert!(report.telemetry.counter("checker.functions") >= 40);
    }
}
