//! `notify`: a loopback server (not durable) with one publisher connection
//! and one subscriber session holding a few thousand small subscriptions,
//! so nearly every event matches and each `Notify` carries tens of ids.
//!
//! * Set-up: empty broker and server → every subscription acked (through
//!   the synchronous `Client`); the first set-up is measured, eight more
//!   are only timed, after the measurement.
//! * Each round (see [`crate::load`]): publishes at a fixed offered rate
//!   → `publish_p50/p99_us` (due time → ack) and `notify_p50/p99_us` (due
//!   time → the matching `Notify` at the subscriber); then a fixed number
//!   of publishes in flight → `events_per_s`. Latencies are the lower
//!   quartile of the rounds' p50s, throughput the upper quartile.
//! * `write_p50_us`: the set-ups' subscribe round trips (each set-up a
//!   round).
//!
//! Every ack's `matched` count and every `Notify`'s ids are checked
//! against the brute-force oracle; with `Block` delivery a missing or extra
//! id, or a sequence gap, is a failure.

use crate::inputs::{self, Digest, Oracle};
use crate::layers::{self, ProbeInput};
use crate::load::{self, at_ns, AckSink, LoadGen, Plan, DELIVERY, PUBLISH};
use crate::report::Report;
use crate::stats::{median, ns, rate_of_rounds};
use crate::sys::{self, ProcSample, ScratchDir};
use crate::system;
use crate::trace::{root_id, TraceLog, Tracer, NO_PARENT};
use crate::wire::{Link, Sink};
use crate::RunCfg;
use pubsub_broker::SharedBroker;
use pubsub_net::{Frame, Server, WireEvent, WirePredicate};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run. Each takes a fraction of a second, so several are
/// needed for a steady median.
const SETUPS: usize = 9;
/// Offered publish rate of the open-loop segments, per second.
const OPEN_RATE: f64 = 5_000.0;
/// Publishes in flight during the window segments.
const WINDOW: u64 = 64;

struct Setup {
    broker: Arc<SharedBroker>,
    server: Server,
    sub: Link,
    publ: Link,
    ids: Vec<u32>,
}

/// The subscriber connection's frames: notifies, checked as they arrive.
struct NotifySink {
    plan: Plan,
    cfg: RunCfg,
    expected: Arc<Vec<Vec<u32>>>,
    next_seq: u64,
    /// Receipt time of each open-loop publish's notify, by id - 1.
    at: Vec<u64>,
    ids: u64,
    count: Arc<AtomicU64>,
    errors: Vec<String>,
    tracer: Tracer,
}

impl Sink for NotifySink {
    fn frame(&mut self, frame: Frame, at: Instant, d0: Instant, d1: Instant) {
        let Frame::Notify { seq, ids, event } = frame else {
            self.errors
                .push(format!("unexpected frame at the subscriber: {frame:?}"));
            return;
        };
        if seq != self.next_seq {
            self.errors
                .push(format!("notify seq {seq}, want {}", self.next_seq));
        }
        self.next_seq = seq + 1;
        let Some(id) = inputs::seq_of(&event) else {
            self.errors
                .push(format!("notify {seq} carries no sequence attribute"));
            return;
        };
        let want = &self.expected[(id as usize) % self.expected.len()];
        if ids != *want {
            self.errors
                .push(format!("publish {id}: notify ids {ids:?}, oracle {want:?}"));
        }
        if let Some(slot) = self.at.get_mut(id as usize - 1) {
            *slot = at_ns(&self.cfg, at);
        }
        if self.plan.traced(self.cfg.trace, id) {
            self.tracer
                .record("net.frame.next_frame", id, root_id(DELIVERY, id), d0, d1);
        }
        self.ids += ids.len() as u64;
        self.count.fetch_add(1, Ordering::SeqCst);
    }
}

/// Empty broker and server → the subscriber's subscriptions all acked.
fn set_up(
    wire_subs: &[Vec<WirePredicate>],
    write_ns: &mut Vec<u64>,
    tr: &mut Tracer,
) -> Result<Setup, String> {
    let broker = Arc::new(system::broker(None)?);
    let server = system::serve(Arc::clone(&broker))?;
    let mut sub = Link::connect(server.local_addr())?;
    let err = |e: pubsub_net::ClientError| format!("set-up subscribe: {e}");
    sub.client()
        .subscribe(inputs::seq_interning_preds())
        .map_err(err)?;
    let mut ids = Vec::with_capacity(wire_subs.len());
    for (i, preds) in wire_subs.iter().enumerate() {
        let preds = preds.clone();
        let t0 = Instant::now();
        let id = sub.client().subscribe(preds).map_err(err)?;
        let t1 = Instant::now();
        write_ns.push(ns(t0, t1));
        tr.record("net.client.subscribe", i as u64, NO_PARENT, t0, t1);
        ids.push(id);
    }
    let publ = Link::connect(server.local_addr())?;
    Ok(Setup {
        broker,
        server,
        sub,
        publ,
        ids,
    })
}

/// Runs the `notify` workload.
pub fn run(cfg: &RunCfg) -> Result<(Report, TraceLog), String> {
    let (n_subs, pool) = if cfg.tiny { (300, 512) } else { (2_500, 4_096) };
    let (subs, events) = inputs::generate(inputs::notify_spec(n_subs, cfg.seed), n_subs, pool);
    let plan = Plan::new(cfg, OPEN_RATE, WINDOW);
    let mut digest = Digest::default();
    for p in [
        n_subs,
        pool,
        plan.rounds,
        plan.per_round as usize,
        WINDOW as usize,
    ] {
        digest.param(p as u64);
    }
    digest.subs(&subs);
    digest.events(&events);
    let mut rep = Report::new("notify", digest.get());
    let mut log = TraceLog::default();
    let mut tr = Tracer::new(cfg.trace, cfg.epoch, 3);

    let oracle = Oracle::new(&subs, 0..subs.len());
    let expected_idx: Vec<Vec<usize>> = events.iter().map(|e| oracle.matches(e)).collect();
    drop(oracle);
    let wire_subs: Vec<_> = subs.iter().map(inputs::wire_preds).collect();
    let base_wire: Vec<WireEvent> = events.iter().map(|e| inputs::wire_event(e, 0)).collect();

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut write_rounds = vec![Vec::new(); SETUPS];
    let start = Instant::now();
    let Setup {
        broker,
        server,
        sub,
        mut publ,
        ids,
    } = set_up(&wire_subs, &mut write_rounds[0], &mut tr)?;
    setup_s.push(start.elapsed().as_secs_f64());
    rep.attempt(n_subs as u64 + 1);
    let expected: Arc<Vec<Vec<u32>>> = Arc::new(
        expected_idx
            .iter()
            .map(|m| inputs::to_ids(m, &ids))
            .collect(),
    );

    let acked = Arc::new(AtomicU64::new(0));
    let notified = Arc::new(AtomicU64::new(0));
    let ack_reader = publ.reader(AckSink::new(plan, cfg, &acked))?;
    let notify_reader = sub.reader(NotifySink {
        plan,
        cfg: cfg.clone(),
        expected: Arc::clone(&expected),
        next_seq: 1,
        at: vec![0; plan.n_open() as usize],
        ids: 0,
        count: Arc::clone(&notified),
        errors: Vec::new(),
        tracer: Tracer::new(cfg.trace, cfg.epoch, 2),
    })?;

    let proc0 = ProcSample::now();
    let notifies = |id: u64| !expected[(id as usize) % pool].is_empty();
    let mut drv = LoadGen::new(cfg, plan, &mut publ, &base_wire, &notifies, acked, notified);
    let threads_seen = sys::threads();
    drv.run()?;
    let (cpu_frac, ctxsw) = proc0.since();
    let LoadGen {
        sent,
        expect_notifies,
        due,
        round_eps,
        window_cpu,
        mut late,
        timeouts,
        errors: gen_errors,
        tracer: gen_tracer,
        ..
    } = drv;
    publ.close();
    sub.close();
    let acks = ack_reader
        .join()
        .map_err(|_| "publisher reader panicked".to_string())??;
    let notes = notify_reader
        .join()
        .map_err(|_| "subscriber reader panicked".to_string())??;
    let rss = sys::peak_rss_mib();

    // Checks: every ack against the oracle, every notify as it arrived.
    let notify_count = notes.count.load(Ordering::SeqCst);
    rep.attempt(sent + notify_count);
    for e in gen_errors.iter().chain(&acks.errors).chain(&notes.errors) {
        rep.fail(e.clone());
    }
    for _ in 0..timeouts {
        rep.fail("replies still outstanding after the drain limit");
    }
    let mut acked_count = 0u64;
    for (i, &matched) in acks.matched.iter().enumerate() {
        if matched == u32::MAX {
            continue;
        }
        acked_count += 1;
        let want = expected[(i + 1) % pool].len() as u32;
        rep.check(matched == want, || {
            format!("publish {}: ack matched {matched}, oracle {want}", i + 1)
        });
    }
    for _ in acked_count..sent {
        rep.fail("a publish ack never arrived");
    }
    for _ in notify_count..expect_notifies {
        rep.fail("a notify never arrived");
    }

    // Figures over rounds.
    let rounds = 0..plan.rounds;
    let (publish_p50, publish_p99, p50s) = load::latency_figures(
        rounds
            .clone()
            .map(|r| load::open_latencies(cfg, &plan, &due, &acks.at, r)),
    )?;
    let (notify_p50, notify_p99, _) = load::latency_figures(
        rounds.map(|r| load::open_latencies(cfg, &plan, &due, &notes.at, r)),
    )?;
    let eps = rate_of_rounds(&round_eps);
    rep.notes.push(format!(
        "per round: publish p50 {p50s:.0?} us; window {round_eps:.0?} events/s"
    ));
    rep.set("rss_mb", rss);
    rep.set("events_per_s", eps);
    rep.set(
        "cpu_us_per_event",
        window_cpu.0 * 1e6 / window_cpu.1.max(1) as f64,
    );
    rep.set("publish_p50_us", publish_p50);
    rep.set("tail.publish_p99_us", publish_p99);
    rep.set("notify_p50_us", notify_p50);
    rep.set("tail.notify_p99_us", notify_p99);
    rep.name("peak_eps", "1/s", eps);
    rep.name(
        "ids_per_notify",
        "count",
        notes.ids as f64 / notify_count.max(1) as f64,
    );
    let (late_p99, late_max) = late.p99_max_us();
    rep.notes.push(format!(
        "generator lateness: {}, max {late_max:.1} us",
        late.summary()
    ));
    rep.invalid = late.verdict();
    rep.set("proc.cpu_frac", cpu_frac);
    rep.set("proc.ctxsw_per_op", ctxsw as f64 / sent.max(1) as f64);
    rep.set("proc.threads", threads_seen as f64);
    rep.set("gen.late_p99_us", late_p99);
    rep.set("gen.late_max_us", late_max);
    log.absorb(gen_tracer);
    log.absorb(acks.tracer);
    log.absorb(notes.tracer);
    if cfg.trace {
        let overhead = load::roots_and_overhead(
            cfg,
            &plan,
            &due,
            &acks.at,
            PUBLISH,
            "publish.request",
            &mut tr,
        );
        load::roots_and_overhead(
            cfg,
            &plan,
            &due,
            &notes.at,
            DELIVERY,
            "notify.delivery",
            &mut tr,
        );
        rep.set("trace.overhead_frac", overhead);
        let dir = ScratchDir::new("notify")?;
        let inp = ProbeInput {
            subs: &subs,
            events: &events,
            broker: &broker,
            dir: dir.path(),
        };
        layers::probe(cfg, &inp, &mut rep, &mut log)?;
    }
    server.shutdown();
    drop(server);
    drop(broker);

    // The remaining set-ups, timed only.
    for write_ns in &mut write_rounds[1..] {
        let start = Instant::now();
        let s = set_up(&wire_subs, write_ns, &mut tr)?;
        setup_s.push(start.elapsed().as_secs_f64());
        s.server.shutdown();
        rep.attempt(n_subs as u64 + 1);
    }
    let (write_p50, write_p99, _) = load::latency_figures(write_rounds.into_iter())?;
    rep.set("setup_s", median(&setup_s));
    rep.set("write_p50_us", write_p50);
    rep.set("tail.write_p99_us", write_p99);
    rep.notes.push(format!(
        "set-ups (s): {setup_s:?}; {} rounds of {} open-loop publishes at {OPEN_RATE}/s and {:.2} s with {WINDOW} in flight; {sent} publishes",
        plan.rounds, plan.per_round, plan.window_secs
    ));
    log.absorb(tr);
    Ok((rep, log))
}
