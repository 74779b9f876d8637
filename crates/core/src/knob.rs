//! Strict environment knobs shared by every experiment entry point.
//!
//! The figure and table binaries read `DRA_THREADS` and `DRA_LOOPS`
//! through these. The rule everywhere: empty means default, a valid
//! number is taken as-is, and garbage aborts loudly. A typo'd
//! `DRA_THREADS=abc` must kill the experiment, not silently run it with
//! the default.

/// Strictly parse one knob value: empty/whitespace means `default`, a
/// valid number is taken as-is, and anything else panics naming the knob
/// and the offending value.
///
/// Separated from the environment read so both paths are testable without
/// racing on process-global env state.
///
/// # Panics
///
/// On any non-empty value that does not parse as an unsigned integer.
pub fn parse_knob(name: &str, raw: &str, default: usize) -> usize {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return default;
    }
    trimmed.parse().unwrap_or_else(|_| {
        panic!("{name}={raw:?} is not an unsigned integer (unset it or pass a number)")
    })
}

/// Read an environment knob through [`parse_knob`].
///
/// # Panics
///
/// As [`parse_knob`]; also on a value that is not valid unicode.
pub fn env_knob(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Err(std::env::VarError::NotPresent) => default,
        Err(e) => panic!("{name}: {e}"),
        Ok(raw) => parse_knob(name, &raw, default),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_parses_valid_values() {
        assert_eq!(parse_knob("DRA_THREADS", "64", 512), 64);
        assert_eq!(parse_knob("DRA_THREADS", " 8 ", 0), 8);
        assert_eq!(parse_knob("DRA_THREADS", "0", 4), 0);
    }

    #[test]
    fn knob_empty_means_default() {
        assert_eq!(parse_knob("DRA_THREADS", "", 512), 512);
        assert_eq!(parse_knob("DRA_THREADS", "  ", 256), 256);
    }

    #[test]
    fn knob_rejects_garbage_loudly() {
        for bad in ["abc", "-3", "1.5", "8 entries"] {
            let err = std::panic::catch_unwind(|| parse_knob("DRA_THREADS", bad, 0))
                .expect_err("garbage must panic, not fall back to the default");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains("DRA_THREADS") && msg.contains(bad),
                "panic must name the knob and the offending value: {msg:?}"
            );
        }
    }
}
