//! `match`: in-process `SharedBroker` loaded with the paper's W0 preset,
//! fed W0 events — no sockets, no WAL.
//!
//! * Set-up: empty broker → every subscription loaded; the first set-up
//!   is measured, two more are only timed, after the measurement.
//! * Each round (about one per second): a closed loop of `nproc` publisher
//!   threads calling `publish_into` back to back for 0.6 of the round →
//!   `events_per_s`, `publish_p50/p99_us` (per call); then one thread
//!   publishing on a fixed schedule → `notify_p50/p99_us`, from each
//!   event's due time to the matched ids in the caller's hands (the
//!   in-process subscriber). Latencies are the lower quartile of the
//!   rounds' p50s, throughput the upper quartile.
//! * `write_p50_us`: the set-ups' `subscribe` calls (each set-up a round).

use crate::inputs::{self, Digest, Oracle};
use crate::layers::{self, ProbeInput};
use crate::load;
use crate::report::Report;
use crate::stats::{latency_of_rounds, median, ns, pct_us, rate_of_rounds, spin_until, Lateness};
use crate::sys::{self, ProcSample, ScratchDir};
use crate::system;
use crate::trace::{TraceLog, Tracer, NO_PARENT};
use crate::RunCfg;
use pubsub_broker::SharedBroker;
use pubsub_types::{AttrId, Event, Subscription, SubscriptionId, Validity};
use std::time::{Duration, Instant};

const SETUPS: usize = 3;
/// Offered rate of the open-loop phase, events per second: about a
/// quarter of one thread's capacity when the benchmark was written (25–35
/// us per call).
const OPEN_RATE: f64 = 8_000.0;
/// Requests per block in the traced run's alternation of traced and
/// untraced blocks.
const TRACE_BLOCK: usize = 256;

struct ClosedOut {
    lat_ns: Vec<u64>,
    end: Instant,
    checked: u64,
    mismatches: Vec<String>,
    tracer: Tracer,
}

fn same_ids(got: &[SubscriptionId], want: &[u32]) -> bool {
    got.iter().map(|s| s.0).eq(want.iter().copied())
}

#[allow(clippy::too_many_arguments)]
fn closed_loop(
    thread_no: usize,
    threads: usize,
    broker: &SharedBroker,
    events: &[Event],
    expected: &[Vec<u32>],
    deadline: Instant,
    mut tracer: Tracer,
) -> ClosedOut {
    let mut out = Vec::with_capacity(256);
    let mut lat_ns = Vec::with_capacity(1 << 20);
    let mut checked = 0;
    let mut mismatches = Vec::new();
    let mut i = thread_no * events.len() / threads;
    loop {
        let k = i % events.len();
        out.clear();
        let t0 = Instant::now();
        if t0 >= deadline {
            break;
        }
        broker.publish_into(&events[k], &mut out);
        let t1 = Instant::now();
        lat_ns.push(ns(t0, t1));
        tracer.record("broker.publish_into", i as u64, NO_PARENT, t0, t1);
        if let Some(want) = expected.get(k) {
            checked += 1;
            if !same_ids(&out, want) && mismatches.len() < 4 {
                mismatches.push(format!(
                    "event {k}: got {} ids, want {}",
                    out.len(),
                    want.len()
                ));
            }
        }
        i += 1;
    }
    ClosedOut {
        lat_ns,
        end: Instant::now(),
        checked,
        mismatches,
        tracer,
    }
}

/// Loads every subscription into a fresh broker, timing each call.
fn set_up(
    subs: &[Subscription],
    n_t: usize,
    write_ns: &mut Vec<u64>,
    tr: &mut Tracer,
) -> Result<(SharedBroker, Vec<u32>), String> {
    let broker = system::broker(None)?;
    for a in 0..n_t {
        broker.attr(&inputs::attr_name(AttrId(a as u32)));
    }
    let mut ids = Vec::with_capacity(subs.len());
    for (i, sub) in subs.iter().enumerate() {
        let sub = sub.clone();
        let t0 = Instant::now();
        let id = broker.subscribe(sub, Validity::forever());
        let t1 = Instant::now();
        write_ns.push(ns(t0, t1));
        tr.record("broker.subscribe", i as u64, NO_PARENT, t0, t1);
        ids.push(id.0);
    }
    Ok((broker, ids))
}

/// Runs the `match` workload.
pub fn run(cfg: &RunCfg) -> Result<(Report, TraceLog), String> {
    let (n_subs, pool, sample) = if cfg.tiny {
        (2_000, 512, 64)
    } else {
        (50_000, 4_096, 256)
    };
    let spec = inputs::w0_spec(n_subs, cfg.seed);
    let n_t = spec.n_t;
    let (subs, events) = inputs::generate(spec, n_subs, pool);
    let rounds = load::rounds(cfg.seconds);
    let seg = cfg.seconds / rounds as f64;
    let per_round = ((OPEN_RATE * 0.4 * seg) as usize).max(1);
    let mut digest = Digest::default();
    for p in [n_subs, pool, sample, rounds, per_round] {
        digest.param(p as u64);
    }
    digest.subs(&subs);
    digest.events(&events);
    let mut rep = Report::new("match", digest.get());
    let mut log = TraceLog::default();
    let mut tr = Tracer::new(cfg.trace, cfg.epoch, 0);

    let oracle = Oracle::new(&subs, 0..subs.len());
    let expected_idx: Vec<Vec<usize>> =
        events[..sample].iter().map(|e| oracle.matches(e)).collect();
    drop(oracle);

    // The first set-up is the one measured; two more are timed after.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut write_rounds: Vec<Vec<u64>> = (0..SETUPS).map(|_| Vec::with_capacity(n_subs)).collect();
    let start = Instant::now();
    let (broker, ids) = set_up(&subs, n_t, &mut write_rounds[0], &mut tr)?;
    setup_s.push(start.elapsed().as_secs_f64());
    rep.attempt(n_subs as u64);
    let expected: Vec<Vec<u32>> = expected_idx
        .iter()
        .map(|m| inputs::to_ids(m, &ids))
        .collect();

    // Rounds: a closed loop from `nproc` publisher threads, then an open
    // loop on one thread.
    let proc0 = ProcSample::now();
    let threads = cfg.nproc.max(1);
    let mut threads_seen = 0;
    let mut late = Lateness::default();
    let (mut round_eps, mut closed_p50, mut closed_p99) = (Vec::new(), Vec::new(), Vec::new());
    let (mut open_p50, mut open_p99) = (Vec::new(), Vec::new());
    let (mut traced_lat, mut plain_lat) = (Vec::new(), Vec::new());
    let (mut closed_events, mut open_events) = (0, 0);
    let mut closed_cpu = 0.0;
    let mut out = Vec::with_capacity(256);
    for _ in 0..rounds {
        let cpu0 = sys::cpu_seconds();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(0.6 * seg);
        let outs = std::thread::scope(|sc| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let (broker, events, expected) = (&broker, &events, &expected);
                    let tracer = Tracer::new(cfg.trace, cfg.epoch, 1 + t as u64);
                    sc.spawn(move || {
                        closed_loop(t, threads, broker, events, expected, deadline, tracer)
                    })
                })
                .collect();
            threads_seen = threads_seen.max(sys::threads());
            handles
                .into_iter()
                .map(|h| h.join().expect("publisher thread panicked"))
                .collect::<Vec<ClosedOut>>()
        });
        let mut lat = Vec::new();
        let mut end = start;
        for o in outs {
            lat.extend_from_slice(&o.lat_ns);
            end = end.max(o.end);
            rep.attempt(o.lat_ns.len() as u64 + o.checked);
            for m in o.mismatches {
                rep.fail(m);
            }
            log.absorb(o.tracer);
        }
        closed_cpu += sys::cpu_seconds() - cpu0;
        closed_events += lat.len();
        round_eps.push(lat.len() as f64 / ns(start, end).max(1) as f64 * 1e9);
        closed_p50.push(pct_us(&mut lat, 0.5)?);
        closed_p99.push(pct_us(&mut lat, 0.99)?);

        let mut lat = Vec::with_capacity(per_round);
        let t0 = Instant::now() + Duration::from_millis(1);
        for j in 0..per_round {
            let due = t0 + Duration::from_secs_f64(j as f64 / OPEN_RATE);
            spin_until(due);
            let started = Instant::now();
            late.record(due, started);
            let traced_block = cfg.trace && (j / TRACE_BLOCK) % 2 == 1;
            tr.set_on(traced_block);
            out.clear();
            broker.publish_into(&events[(open_events + j) % pool], &mut out);
            let done = Instant::now();
            tr.record("broker.publish_into", j as u64, NO_PARENT, started, done);
            let l = ns(due, done);
            lat.push(l);
            if traced_block {
                traced_lat.push(l);
            } else {
                plain_lat.push(l);
            }
        }
        tr.set_on(cfg.trace);
        open_events += per_round;
        open_p50.push(pct_us(&mut lat, 0.5)?);
        open_p99.push(pct_us(&mut lat, 0.99)?);
    }
    rep.attempt(open_events as u64);
    let (cpu_frac, ctxsw) = proc0.since();
    let rss = sys::peak_rss_mib();

    // Oracle: the fixed sample, outside the timed loops.
    for (k, want) in expected.iter().enumerate() {
        let got = broker.publish(&events[k]);
        rep.check(same_ids(&got, want), || {
            format!(
                "sample event {k}: got {} ids, want {}",
                got.len(),
                want.len()
            )
        });
    }

    let eps = rate_of_rounds(&round_eps);
    rep.notes.push(format!(
        "per round: closed-loop {round_eps:.0?} events/s, p50 {closed_p50:.1?} us; open-loop p50 {open_p50:.1?} us"
    ));
    rep.set("rss_mb", rss);
    rep.set("events_per_s", eps);
    rep.set(
        "cpu_us_per_event",
        closed_cpu * 1e6 / closed_events.max(1) as f64,
    );
    rep.set("publish_p50_us", latency_of_rounds(&closed_p50));
    rep.set("tail.publish_p99_us", median(&closed_p99));
    rep.set("notify_p50_us", latency_of_rounds(&open_p50));
    rep.set("tail.notify_p99_us", median(&open_p99));
    rep.name("match_eps", "1/s", eps);
    rep.name("match_p50_us", "us", rep.metrics["publish_p50_us"]);
    rep.name("match_p99_us", "us", rep.metrics["tail.publish_p99_us"]);
    let (late_p99, late_max) = late.p99_max_us();
    rep.notes.push(format!(
        "generator lateness: {}, max {late_max:.1} us",
        late.summary()
    ));
    rep.invalid = late.verdict();
    rep.set("proc.cpu_frac", cpu_frac);
    rep.set(
        "proc.ctxsw_per_op",
        ctxsw as f64 / (closed_events + open_events).max(1) as f64,
    );
    rep.set("proc.threads", threads_seen as f64);
    rep.set("gen.late_p99_us", late_p99);
    rep.set("gen.late_max_us", late_max);
    if cfg.trace {
        let overhead = match (pct_us(&mut traced_lat, 0.5), pct_us(&mut plain_lat, 0.5)) {
            (Ok(t), Ok(p)) => t / p - 1.0,
            _ => 0.0,
        };
        rep.set("trace.overhead_frac", overhead);
        let dir = ScratchDir::new("match")?;
        let inp = ProbeInput {
            subs: &subs,
            events: &events,
            broker: &broker,
            dir: dir.path(),
        };
        layers::probe(cfg, &inp, &mut rep, &mut log)?;
    }
    drop(broker);

    for write_ns in &mut write_rounds[1..] {
        let start = Instant::now();
        let loaded = set_up(&subs, n_t, write_ns, &mut tr)?;
        setup_s.push(start.elapsed().as_secs_f64());
        drop(loaded);
        rep.attempt(n_subs as u64);
    }
    let (write_p50, write_p99, _) = load::latency_figures(write_rounds.into_iter())?;
    rep.set("setup_s", median(&setup_s));
    rep.set("write_p50_us", write_p50);
    rep.set("tail.write_p99_us", write_p99);
    rep.notes.push(format!(
        "set-ups (s): {setup_s:?}; {rounds} rounds; closed-loop events {closed_events} on {threads} threads; open-loop events {open_events} at {OPEN_RATE}/s"
    ));
    log.absorb(tr);
    Ok((rep, log))
}
