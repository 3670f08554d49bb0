//! Percentiles, open-loop pacing and small timing helpers.

use std::time::{Duration, Instant};

/// Nanoseconds from `a` to `b` (0 when `b` is earlier).
pub fn ns(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

/// Nearest-rank percentile `q` (0..=1) of an unsorted sample, or `None`
/// when the sample is empty.
pub fn percentile(values: &mut [u64], q: f64) -> Option<u64> {
    if values.is_empty() {
        return None;
    }
    values.sort_unstable();
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    Some(values[rank - 1])
}

/// Nearest-rank percentile of a sample of signed values.
pub fn percentile_signed(values: &mut [i64], q: f64) -> Option<i64> {
    if values.is_empty() {
        return None;
    }
    values.sort_unstable();
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    Some(values[rank - 1])
}

/// Percentile `q` of a nanosecond sample, in microseconds.
pub fn pct_us(values: &mut [u64], q: f64) -> Result<f64, String> {
    percentile(values, q)
        .map(|v| v as f64 / 1e3)
        .ok_or_else(|| "no latency samples were recorded".to_string())
}

/// Median of a sample of floats (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quantile `q` (0..=1) of a sample, interpolating linearly between the
/// order statistics; NaN for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A run's latency figure from its rounds' figures: the lower quartile.
/// Interference from other tenants of the machine only ever slows a
/// round, so the better quartile follows the program and not its
/// neighbours, while a change that slows every round still moves it.
pub fn latency_of_rounds(values: &[f64]) -> f64 {
    quantile(values, 0.25)
}

/// A run's throughput figure from its rounds' figures: the upper quartile
/// (see [`latency_of_rounds`]).
pub fn rate_of_rounds(values: &[f64]) -> f64 {
    quantile(values, 0.75)
}

/// Waits until `t`: sleeps while far away, then spins for the last stretch
/// so that an open-loop schedule is kept to within a few microseconds
/// (a plain sleep overshoots by the kernel's timer slack).
pub fn wait_until(t: Instant) {
    const SPIN: Duration = Duration::from_micros(20);
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > SPIN + Duration::from_micros(5) {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Spins until `t`. For an in-process open loop, where the caller's own
/// thread does the work: a thread that never sleeps measures the call, not
/// the machine's wake-up latency.
pub fn spin_until(t: Instant) {
    while Instant::now() < t {
        std::hint::spin_loop();
    }
}

/// Makes this thread's sleeps wake on time: the kernel's default timer
/// slack (50 us) would otherwise have open-loop pacing spin to keep its
/// schedule, taking a core from the system under test.
pub fn precise_sleeps() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: prctl(PR_SET_TIMERSLACK, n) sets the calling thread's timer
    // slack to n nanoseconds; it takes no pointers and touches no memory
    // of this process. A failure leaves the default slack, which is
    // harmless.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// Open-loop sender lateness: how far behind its schedule the generator
/// started each request.
#[derive(Debug, Default)]
pub struct Lateness {
    late_ns: Vec<u64>,
}

impl Lateness {
    /// Records one send that was due at `due` and started at `started`.
    pub fn record(&mut self, due: Instant, started: Instant) {
        self.late_ns.push(ns(due, started));
    }

    /// p50, p90 and p99 lateness in microseconds, for the log.
    pub fn summary(&mut self) -> String {
        let mut p = |q| percentile(&mut self.late_ns, q).unwrap_or(0) as f64 / 1e3;
        format!(
            "p50 {:.1} us, p90 {:.1} us, p99 {:.1} us",
            p(0.5),
            p(0.9),
            p(0.99)
        )
    }

    /// p99 and max lateness in microseconds.
    pub fn p99_max_us(&mut self) -> (f64, f64) {
        let p99 = percentile(&mut self.late_ns, 0.99).unwrap_or(0) as f64 / 1e3;
        let max = self.late_ns.iter().copied().max().unwrap_or(0) as f64 / 1e3;
        (p99, max)
    }

    /// Why the run is invalid, if the generator fell behind its schedule
    /// by more than the guard allows.
    pub fn verdict(&mut self) -> Option<String> {
        let p50 = percentile(&mut self.late_ns, 0.5).unwrap_or(0) as f64 / 1e3;
        let p99 = percentile(&mut self.late_ns, 0.99).unwrap_or(0) as f64 / 1e3;
        (p50 > LATE_P50_LIMIT_US || p99 > LATE_P99_LIMIT_US).then(|| {
            format!(
                "open-loop generator fell behind its schedule: lateness p50 {p50:.0} us \
                 (limit {LATE_P50_LIMIT_US}), p99 {p99:.0} us (limit {LATE_P99_LIMIT_US})"
            )
        })
    }
}

/// The coordinated-omission guard. Latencies are timed from each
/// request's due time, so a stall of the whole machine is charged to the
/// system, as it should be; but a generator that cannot keep its schedule
/// measures itself. A run whose median send started more than
/// [`LATE_P50_LIMIT_US`] late, or whose p99 send more than
/// [`LATE_P99_LIMIT_US`] late, is refused and reports no numbers.
pub const LATE_P50_LIMIT_US: f64 = 50.0;
/// See [`LATE_P50_LIMIT_US`].
pub const LATE_P99_LIMIT_US: f64 = 20_000.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&mut v, 0.5), Some(50));
        assert_eq!(percentile(&mut v, 0.99), Some(99));
        assert_eq!(percentile(&mut v, 1.0), Some(100));
        assert_eq!(percentile(&mut [], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
