//! The benchmark's own arithmetic: order statistics, the tail-percentile
//! rule, open-loop timing, failure shares and metric-name validity.

use std::time::Duration;

/// Percentiles the tail is chosen from, ascending.
pub const TAIL_LADDER: [f64; 7] = [50.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9];

/// Samples that must lie beyond a percentile for it to count as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank `p` percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// Nearest-rank percentile of ascending `sorted` samples (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Median of unsorted samples: the mean of the two middle values for an
/// even count (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// At most `k` of `samples`, spaced evenly over the whole sequence (all of
/// them when there are no more than `k`), so a capped sample still spans
/// the whole window it was taken in.
pub fn evenly(samples: &[f64], k: usize) -> Vec<f64> {
    let n = samples.len();
    if n <= k {
        return samples.to_vec();
    }
    (0..k).map(|i| samples[i * n / k]).collect()
}

/// A latency tail: which percentile it is, its value, and the sample
/// count it was taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The chosen percentile (100 = the maximum).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples in the distribution.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it. With too few samples for even
/// the median to qualify, the tail is the maximum (percentile 100).
pub fn tail(samples: &[f64]) -> Tail {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let chosen = TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= TAIL_MIN_BEYOND);
    match chosen {
        Some(p) => Tail {
            percentile: p,
            value: percentile(&v, p),
            samples: n,
        },
        None => Tail {
            percentile: 100.0,
            value: v.last().copied().unwrap_or(0.0),
            samples: n,
        },
    }
}

/// When request `i` of a fixed-rate open-loop schedule is due, as an
/// offset from the schedule's start.
pub fn due_offset(i: u64, rate_per_s: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate_per_s)
}

/// Open-loop latency: from when the request was *due* to when its
/// response arrived, so a stall that delays later sends is charged to
/// the requests it delayed.
pub fn open_loop_latency(due: Duration, done: Duration) -> Duration {
    done.saturating_sub(due)
}

/// How late the generator sent a request (zero when on time).
pub fn lateness(due: Duration, sent: Duration) -> Duration {
    sent.saturating_sub(due)
}

/// Everything that counts as a failed operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Failures {
    /// Pipeline errors.
    pub errors: u64,
    /// Symbolic-checker violations.
    pub violations: u64,
    /// Contained panics.
    pub panics: u64,
    /// Requests shed by admission control.
    pub sheds: u64,
    /// Requests that missed their deadline.
    pub deadline_misses: u64,
    /// Items whose approaches disagreed on the program's result.
    pub disagreements: u64,
}

impl Failures {
    /// Every failure, summed.
    pub fn total(&self) -> u64 {
        self.errors
            + self.violations
            + self.panics
            + self.sheds
            + self.deadline_misses
            + self.disagreements
    }
}

/// Failed ÷ attempted (0 for nothing attempted).
pub fn fail_share(f: &Failures, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        f.total() as f64 / attempted as f64
    }
}

/// A metric name: 1 to 64 of `[A-Za-z0-9_.-]`, starting with a letter or
/// a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// `a / b`, or 0 when `b` is 0 (a layer that did no work).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 600 samples: p99 leaves 6 beyond, p98 leaves 12.
        let v: Vec<f64> = (1..=600).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.percentile, 98.0);
        assert_eq!(t.value, 588.0);
        assert_eq!(t.samples, 600);
        assert!(beyond(600, 99.0) < TAIL_MIN_BEYOND);
        // 1000 samples: p99 leaves exactly 10 beyond, p99.5 only 5.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v).percentile, 99.0);
        assert_eq!(tail(&v).value, 990.0);
        // 20 samples: the median leaves exactly 10 beyond.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v).percentile, 50.0);
    }

    #[test]
    fn tail_of_a_short_run_is_the_maximum() {
        let v = [3.0, 1.0, 2.0];
        assert_eq!(
            tail(&v),
            Tail {
                percentile: 100.0,
                value: 3.0,
                samples: 3
            }
        );
        assert_eq!(tail(&[]).value, 0.0);
    }

    #[test]
    fn tail_ignores_sample_order() {
        let mut v: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let a = tail(&v);
        v.sort_by(f64::total_cmp);
        assert_eq!(a, tail(&v));
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
    }

    #[test]
    fn evenly_spans_the_whole_sequence() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let picked = evenly(&v, 499);
        assert_eq!(picked.len(), 499);
        assert_eq!(picked[0], 0.0);
        assert!(picked[498] >= 997.0, "reaches the end: {}", picked[498]);
        assert!(picked.windows(2).all(|w| w[1] - w[0] >= 2.0), "no repeats");
        assert_eq!(tail(&picked).percentile, 95.0);
        // Short sequences are kept whole.
        assert_eq!(evenly(&v[..300], 499), v[..300].to_vec());
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // 10 req/s: request 3 is due at 300 ms. The generator stalled and
        // sent it at 450 ms; the response came back at 470 ms.
        let due = due_offset(3, 10.0);
        assert_eq!(due, ms(300));
        let (sent, done) = (ms(450), ms(470));
        assert_eq!(open_loop_latency(due, done), ms(170), "stall is charged");
        assert_eq!(lateness(due, sent), ms(150));
        // Sent early (never happens, but must not underflow).
        assert_eq!(lateness(due, ms(250)), Duration::ZERO);
        assert_eq!(open_loop_latency(due, ms(200)), Duration::ZERO);
    }

    #[test]
    fn due_times_are_evenly_spaced() {
        let gaps: Vec<Duration> = (1..50)
            .map(|i| due_offset(i, 40.0) - due_offset(i - 1, 40.0))
            .collect();
        for g in gaps {
            assert!((g.as_secs_f64() - 0.025).abs() < 1e-9, "{g:?}");
        }
    }

    #[test]
    fn fail_share_sums_every_kind_over_attempts() {
        let f = Failures {
            errors: 1,
            violations: 2,
            panics: 1,
            sheds: 3,
            deadline_misses: 2,
            disagreements: 1,
        };
        assert_eq!(f.total(), 10);
        assert_eq!(fail_share(&f, 200), 0.05);
        assert_eq!(fail_share(&Failures::default(), 200), 0.0);
        assert_eq!(fail_share(&f, 0), 0.0);
    }

    #[test]
    fn disagreement_is_charged_per_attempted_cell() {
        // One benchmark whose six approaches disagree fails one of the
        // sixty matrix cells it was attempted in, not one of ten rows.
        let f = Failures {
            disagreements: 1,
            ..Failures::default()
        };
        assert!((fail_share(&f, 60) - 1.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn metric_names() {
        for good in [
            "setup_s",
            "remap.ns_per_eval",
            "alloc.build.ns_per_inst",
            "p50_ms",
            "9a-b",
        ] {
            assert!(valid_metric_name(good), "{good}");
        }
        for bad in [
            "",
            ".lead",
            "-lead",
            "has space",
            "slash/y",
            "ünï",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn ratio_of_idle_layer_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }
}
