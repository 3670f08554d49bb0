//! The metric catalogue, a run's report, and how it is printed.
//!
//! Every workload reports every end-to-end metric in [`E2E`] (each
//! workload defines the metric on its own path; see the README table) and,
//! in the traced run, every per-layer metric in [`LAYERS`]. The last line
//! of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rss_mb", "MiB"),
    ("events_per_s", "1/s"),
    ("cpu_us_per_event", "us"),
    ("publish_p50_us", "us"),
    ("notify_p50_us", "us"),
    ("write_p50_us", "us"),
];

/// Per-layer metrics: `(name, unit, the end-to-end metric it should move,
/// and on which workload)`.
pub const LAYERS: &[(&str, &str, &str)] = &[
    (
        "index.phase1_us",
        "us",
        "events_per_s, publish_p50_us (match)",
    ),
    ("core.phase2_us", "us", "events_per_s (match)"),
    ("core.checks_per_event", "count", "events_per_s (match)"),
    ("core.match_us", "us", "publish_p50_us (match)"),
    ("core.heap_mb", "MiB", "rss_mb (match)"),
    ("core.tables_created", "count", "events_per_s (match)"),
    (
        "broker.publish_p50_us",
        "us",
        "publish_p50_us, events_per_s (match)",
    ),
    ("broker.publish_p99_us", "us", "tail.publish_p99_us (match)"),
    ("broker.read_overhead", "ratio", "events_per_s (match)"),
    (
        "broker.resolve_us",
        "us",
        "publish_p50_us, events_per_s (notify)",
    ),
    (
        "broker.subscribe_p50_us",
        "us",
        "setup_s (all), write_p50_us (match)",
    ),
    ("broker.subscribe_p99_us", "us", "tail.write_p99_us (match)"),
    (
        "broker.unsubscribe_p99_us",
        "us",
        "tail.write_p99_us (churn)",
    ),
    (
        "broker.subscribe_durable_p50_us",
        "us",
        "write_p50_us (churn)",
    ),
    (
        "broker.subscribe_durable_p99_us",
        "us",
        "tail.write_p99_us (churn)",
    ),
    (
        "broker.unsubscribe_durable_p99_us",
        "us",
        "tail.write_p99_us (churn)",
    ),
    (
        "broker.flips_per_write",
        "ratio",
        "tail.write_p99_us, setup_s (churn)",
    ),
    ("durability.append_us", "us", "write_p50_us (churn)"),
    ("durability.sync_us", "us", "tail.write_p99_us (churn)"),
    ("durability.bytes_per_op", "bytes", "recover_s (churn)"),
    ("durability.replay_s", "s", "recover_s (churn)"),
    ("durability.recover_s", "s", "recover_s (churn)"),
    ("net.ping_rtt_p50_us", "us", "publish_p50_us (notify)"),
    ("net.ping_rtt_p99_us", "us", "tail.publish_p99_us (notify)"),
    (
        "net.publish_rtt_p50_us",
        "us",
        "publish_p50_us, events_per_s (notify)",
    ),
    (
        "net.publish_rtt_p99_us",
        "us",
        "tail.publish_p99_us (notify)",
    ),
    ("net.server_us", "us", "publish_p50_us (notify)"),
    ("net.encode_ns", "ns", "events_per_s (notify)"),
    ("net.decode_ns", "ns", "events_per_s (notify)"),
    ("net.publish_frame_bytes", "bytes", "notify_p50_us (notify)"),
    ("net.notify_frame_bytes", "bytes", "notify_p50_us (notify)"),
    ("net.ids_per_notify", "count", "notify_p50_us (notify)"),
    (
        "net.notify_after_ack_p50_us",
        "us",
        "notify_p50_us (notify)",
    ),
    (
        "net.notify_after_ack_p99_us",
        "us",
        "tail.notify_p99_us (notify)",
    ),
    (
        "proc.cpu_frac",
        "ratio",
        "events_per_s: CPU-bound or not (notify, match)",
    ),
    ("proc.ctxsw_per_op", "count", "publish_p50_us (notify)"),
    ("proc.threads", "count", "none (context)"),
    (
        "gen.late_p99_us",
        "us",
        "validity of the open-loop latencies",
    ),
    (
        "gen.late_max_us",
        "us",
        "validity of the open-loop latencies",
    ),
    ("trace.overhead_frac", "ratio", "none (context)"),
    (
        "tail.publish_p99_us",
        "us",
        "end-to-end tail of publish_p50_us, too noisy here to gate (all)",
    ),
    (
        "tail.notify_p99_us",
        "us",
        "end-to-end tail of notify_p50_us, too noisy here to gate (all)",
    ),
    (
        "tail.write_p99_us",
        "us",
        "end-to-end tail of write_p50_us, too noisy here to gate (all)",
    ),
];

/// What one run measured and checked.
#[derive(Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Digest of the generated inputs.
    pub digest: u64,
    /// Operations attempted (requests sent, calls made, oracle checks).
    pub attempted: u64,
    /// Errors, refusals, timeouts and oracle mismatches.
    pub failed: u64,
    /// The first few failures, for the log.
    pub errors: Vec<String>,
    /// Catalogue metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The workload's own names for its end-to-end figures, printed for
    /// people: `(name, unit, value)`.
    pub named: Vec<(&'static str, &'static str, f64)>,
    /// Set when the open-loop generator fell behind its schedule.
    pub invalid: Option<String>,
    /// Free-form lines for the log (set-up samples, trace summary).
    pub notes: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new(workload: &'static str, digest: u64) -> Self {
        Self {
            workload,
            digest,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            metrics: BTreeMap::new(),
            named: Vec::new(),
            invalid: None,
            notes: Vec::new(),
        }
    }

    /// Counts `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failure.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg.into());
        }
    }

    /// Counts one checked operation, failing it unless `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(msg());
        }
    }

    /// Sets a catalogue metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a workload-named figure for the log.
    pub fn name(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.named.push((name, unit, value));
    }

    /// `failed / attempted`.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Prints the human-readable report, then the JSON result line.
    /// Returns an error (and prints no JSON) when a metric of the selected
    /// catalogue is missing or not a finite number.
    pub fn print(&self, traced: bool) -> Result<(), String> {
        println!("-- {} end-to-end --", self.workload);
        for (name, unit) in E2E {
            if let Some(v) = self.metrics.get(name) {
                println!("  {name:<34} {v:>14.3} {unit}");
            }
        }
        println!("-- {} as named by this workload --", self.workload);
        for (name, unit, v) in &self.named {
            println!("  {name:<34} {v:>14.3} {unit}");
        }
        println!(
            "  {:<34} {:>14.6} ratio ({} of {})",
            "failed_frac",
            self.failed_frac(),
            self.failed,
            self.attempted
        );
        if traced {
            println!(
                "-- {} per layer (layer metric -> what it should move) --",
                self.workload
            );
            for (name, unit, moves) in LAYERS {
                if let Some(v) = self.metrics.get(name) {
                    println!("  {name:<34} {v:>14.3} {unit:<6} -> {moves}");
                }
            }
        }
        for note in &self.notes {
            println!("  {note}");
        }
        for e in &self.errors {
            println!("  FAILED: {e}");
        }
        let catalogue: Vec<(&str, &str)> = if traced {
            LAYERS.iter().map(|(n, u, _)| (*n, *u)).collect()
        } else {
            E2E.to_vec()
        };
        let mut fields = Vec::with_capacity(catalogue.len());
        for (name, unit) in catalogue {
            let v = self
                .metrics
                .get(name)
                .copied()
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not a finite number ({v})"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        );
        Ok(())
    }
}
