//! # dra-bench — shared harness utilities for the experiment binaries
//!
//! One binary per table/figure of the paper's evaluation:
//!
//! | Binary   | Reproduces |
//! |----------|------------|
//! | `table1` | Table 1 — low-end machine configuration |
//! | `fig11`  | Figure 11 — static spill percentage per benchmark |
//! | `fig12`  | Figure 12 — `set_last_reg` cost percentage |
//! | `fig13`  | Figure 13 — code size normalized to the baseline |
//! | `fig14`  | Figure 14 — speedup over the baseline |
//! | `table2` | Table 2 — loop speedups across the `RegN` sweep |
//! | `table3` | Table 3 — loop spills and code growth across the sweep |
//! | `extensions` | beyond the paper: Section 8.2 adaptive mode + profile-guided weights |
//!
//! Run with `cargo run -p dra-bench --release --bin <name>`. The loop-suite
//! binaries honor `DRA_LOOPS=<n>` to shrink the 1928-loop suite for quick
//! runs, and every binary honors `DRA_THREADS=<n>` to pin the batch
//! driver's worker count (`0`/unset = one per CPU); results are identical
//! at any thread count. Both knobs parse strictly — garbage aborts (see
//! `dra_core::knob`).

use std::fmt::Write as _;

/// Arithmetic mean of the values (0 for none): the AVERAGE row of the
/// figure tables.
pub fn average(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Render an aligned text table: a header row plus data rows.
pub fn render_table(title: &str, header: &[String], rows: &[Vec<String>]) -> String {
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let fmt_row = |row: &[String], widths: &[usize]| {
        let mut line = String::new();
        for (i, cell) in row.iter().enumerate() {
            if i == 0 {
                let _ = write!(line, "{:<w$}", cell, w = widths[i]);
            } else {
                let _ = write!(line, "  {:>w$}", cell, w = widths[i]);
            }
        }
        line
    };
    let _ = writeln!(out, "{}", fmt_row(header, &widths));
    let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
    let _ = writeln!(out, "{}", "-".repeat(total));
    for row in rows {
        let _ = writeln!(out, "{}", fmt_row(row, &widths));
    }
    out
}

// Strict knob parsing lives in dra-core (`drac` needs it too, and core
// cannot depend on the bench harness); re-exported here so the figure
// binaries and existing callers keep their import path.
pub use dra_core::knob::{env_knob, parse_knob};

/// Loop-suite size: `DRA_LOOPS` env override, defaulting to the paper's
/// 1928.
///
/// # Panics
///
/// On an unparseable `DRA_LOOPS` value.
pub fn suite_size() -> usize {
    env_knob("DRA_LOOPS", 1928)
}

/// Batch-driver worker count: `DRA_THREADS` env override, defaulting to
/// `0` (one worker per CPU).
///
/// # Panics
///
/// On an unparseable `DRA_THREADS` value.
pub fn batch_threads() -> usize {
    env_knob("DRA_THREADS", 0)
}

/// The paper's low-end setup on [`batch_threads`] workers: what the
/// Figure 11–14 binaries compile under.
pub fn matrix_setup() -> dra_core::LowEndSetup {
    dra_core::LowEndSetup {
        batch_threads: batch_threads(),
        ..dra_core::LowEndSetup::default()
    }
}

/// Write `telemetry` to `results/telemetry/<binary>.json` (relative to
/// the working directory, like every other `results/` artifact), logging
/// the outcome to stderr. Emission failure is reported but non-fatal: a
/// missing `results/` directory should not kill a figure run.
pub fn emit_telemetry(telemetry: &dra_core::Telemetry, binary: &str) {
    match telemetry.write_results(std::path::Path::new("."), binary) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write results/telemetry/{binary}.json: {e}"),
    }
}

/// Format a percentage with sign, e.g. `+1.13%` / `-4.00%`.
pub fn pct(v: f64) -> String {
    format!("{v:+.2}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_of_values() {
        assert_eq!(average(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(average(&[]), 0.0);
    }

    #[test]
    fn table_is_aligned() {
        let t = render_table(
            "T",
            &["name".into(), "x".into()],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "22".into()],
            ],
        );
        assert!(t.contains("== T =="));
        assert!(t.contains("long-name"));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn pct_formats_sign() {
        assert_eq!(pct(1.5), "+1.50%");
        assert_eq!(pct(-2.0), "-2.00%");
    }

    #[test]
    fn knob_parses_valid_values() {
        assert_eq!(parse_knob("DRA_LOOPS", "64", 1928), 64);
        assert_eq!(parse_knob("DRA_THREADS", " 8 ", 0), 8);
        assert_eq!(parse_knob("DRA_THREADS", "0", 4), 0);
    }

    #[test]
    fn knob_empty_means_default() {
        assert_eq!(parse_knob("DRA_LOOPS", "", 1928), 1928);
        assert_eq!(parse_knob("DRA_THREADS", "  ", 0), 0);
    }

    #[test]
    fn knob_rejects_garbage_loudly() {
        for bad in ["abc", "-3", "1.5", "8 threads"] {
            let err = std::panic::catch_unwind(|| parse_knob("DRA_THREADS", bad, 0))
                .expect_err("garbage must panic, not fall back to the default");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(
                msg.contains("DRA_THREADS") && msg.contains(bad),
                "panic must name the knob and the offending value: {msg:?}"
            );
        }
    }

    #[test]
    fn env_knobs_read_the_environment() {
        // This is the only test touching these env vars, so there is no
        // parallel-test race on the process-global environment.
        std::env::set_var("DRA_LOOPS", "123");
        assert_eq!(suite_size(), 123);
        std::env::remove_var("DRA_LOOPS");
        assert_eq!(suite_size(), 1928);
        std::env::set_var("DRA_THREADS", "junk");
        let err = std::panic::catch_unwind(batch_threads);
        std::env::remove_var("DRA_THREADS");
        assert!(err.is_err(), "unparseable DRA_THREADS must panic");
        assert_eq!(batch_threads(), 0);
    }
}
