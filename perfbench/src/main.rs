//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <match|notify|churn|all> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Runs one workload against the broker as users drive it, checks every
//! output against a brute-force oracle, and prints its metrics; the last
//! line of standard output is one JSON object (`correct`, `attempted`,
//! `failed`, `metrics`). `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer ones. `--tiny` shrinks every input for a
//! quick self-test. `--workload all` runs the three workloads one after
//! another, each in its own process. See README.md.

mod inputs;
mod layers;
mod load;
mod report;
mod stats;
mod sys;
mod system;
mod trace;
mod wire;
mod wl_churn;
mod wl_match;
mod wl_notify;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::TraceLog;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["match", "notify", "churn"];

/// Settings shared by every workload.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Workload seed; equal seeds give identical inputs.
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Shrunken inputs for the self-test.
    pub tiny: bool,
    /// Generator threads and connections allowed (the core count).
    pub nproc: usize,
    /// Time origin of every span.
    pub epoch: Instant,
}

struct Args {
    workload: String,
    cfg: RunCfg,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut tiny = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--tiny" => tiny = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (match|notify|churn|all)"
        ));
    }
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    Ok(Args {
        workload,
        cfg: RunCfg {
            seed,
            seconds,
            trace,
            tiny,
            nproc,
            epoch: Instant::now(),
        },
    })
}

/// Runs each workload in a child process of this binary, so that each
/// gets a fresh heap and its own peak-RSS figure.
fn run_all(cfg: &RunCfg) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut all_ok = true;
    for w in WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &cfg.seed.to_string()]);
        cmd.args(["--seconds", &cfg.seconds.to_string()]);
        cmd.args(["--trace", if cfg.trace { "1" } else { "0" }]);
        if cfg.tiny {
            cmd.arg("--tiny");
        }
        let status = cmd.status().map_err(|e| format!("running {w}: {e}"))?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

fn run_one(workload: &str, cfg: &RunCfg) -> Result<(Report, TraceLog), String> {
    match workload {
        "match" => wl_match::run(cfg),
        "notify" => wl_notify::run(cfg),
        "churn" => wl_churn::run(cfg),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Writes the spans out and adds a per-name summary to the report.
fn finish_trace(workload: &str, cfg: &RunCfg, rep: &mut Report, log: &TraceLog) {
    let path = PathBuf::from(".perfbench").join(format!("trace-{workload}-seed{}.csv", cfg.seed));
    match log.write_csv(&path) {
        Ok(()) => rep.notes.push(format!(
            "trace: {} spans ({} dropped) written to {}",
            log.len(),
            log.dropped(),
            path.display()
        )),
        Err(e) => rep
            .notes
            .push(format!("trace: could not write {}: {e}", path.display())),
    }
    let mut rows: Vec<_> = log.summary().into_iter().collect();
    rows.sort_by_key(|(_, s)| std::cmp::Reverse(s.total_ns));
    rep.notes.push(format!(
        "{:<32} {:>9} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    ));
    for (name, s) in rows.into_iter().take(24) {
        rep.notes.push(format!(
            "{name:<32} {:>9} {:>12.3} {:>12.3}",
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6
        ));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = &args.cfg;
    if args.workload == "all" {
        return match run_all(cfg) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    println!(
        "perfbench workload={} seed={} seconds={} trace={} tiny={} nproc={}",
        args.workload, cfg.seed, cfg.seconds, cfg.trace as u8, cfg.tiny, cfg.nproc
    );
    // Every open-loop generator runs on this thread.
    stats::precise_sleeps();
    let (mut rep, log) = match run_one(&args.workload, cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    println!("inputs_digest=0x{:016x}", rep.digest);
    if cfg.trace {
        finish_trace(&args.workload, cfg, &mut rep, &log);
    }
    if let Some(why) = &rep.invalid {
        eprintln!("perfbench: run invalid, no numbers reported: {why}");
        return ExitCode::from(3);
    }
    match rep.print(cfg.trace) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
