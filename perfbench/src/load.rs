//! The open-loop load generator of the network workloads.
//!
//! A run is a number of rounds ([`Plan`]); each round publishes on a
//! fixed schedule (the open-loop segment), drains, keeps a fixed number of
//! publishes in flight (the window segment), and drains again. Reporting
//! the median over rounds keeps one stall of the shared machine from
//! moving a run's figures. Subscription writes (the `churn` workload) run
//! on their own fixed schedule through every segment.
//!
//! Request ids: the open-loop publishes of round `r` are `r*m+1 ..= (r+1)*m`
//! for `m` per round; window publishes take ids from `n_open + 1` upward.
//! Every publish carries its id as the sequence attribute and is built
//! from base event `id % pool`.

use crate::inputs;
use crate::stats::{latency_of_rounds, median, pct_us, wait_until, Lateness};
use crate::sys;
use crate::trace::{root_id, Tracer};
use crate::wire::{Link, Sink};
use crate::RunCfg;
use pubsub_net::{Ack, Frame, WireEvent, WirePredicate, WireValue};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Requests per block in the traced run's alternation of traced and
/// untraced open-loop blocks.
const TRACE_BLOCK: u64 = 256;
/// Root-span kinds.
pub const PUBLISH: u8 = 1;
/// Root-span kind of a notify delivery.
pub const DELIVERY: u8 = 2;
/// Root-span kind of a subscription write.
pub const WRITE: u8 = 3;
/// Write requests are numbered from here, clear of publish ids and of the
/// synchronous client's set-up requests.
pub const WRITE_REQ_BASE: u32 = 1 << 30;
/// How long a drain waits for outstanding replies before counting a
/// timeout.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);

/// Rounds in a run of `seconds`: about one per second, at least two.
pub fn rounds(seconds: f64) -> usize {
    (seconds.round() as usize).clamp(2, 60)
}

/// Nanoseconds from the run epoch to `t`.
pub fn at_ns(cfg: &RunCfg, t: Instant) -> u64 {
    t.saturating_duration_since(cfg.epoch).as_nanos() as u64
}

/// The shape of a run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Rounds.
    pub rounds: usize,
    /// Open-loop publishes per round.
    pub per_round: u64,
    /// Offered open-loop rate, per second.
    pub rate: f64,
    /// Length of each window segment.
    pub window_secs: f64,
    /// Publishes kept in flight in the window segments.
    pub window: u64,
}

impl Plan {
    /// Splits `cfg.seconds` into rounds: 0.6 of each open loop at `rate`,
    /// 0.4 with `window` publishes in flight.
    pub fn new(cfg: &RunCfg, rate: f64, window: u64) -> Self {
        let rounds = rounds(cfg.seconds);
        let seg = cfg.seconds / rounds as f64;
        Self {
            rounds,
            per_round: ((rate * 0.6 * seg) as u64).max(1),
            rate,
            window_secs: 0.4 * seg,
            window,
        }
    }

    /// Open-loop publishes in the whole run.
    pub fn n_open(&self) -> u64 {
        self.rounds as u64 * self.per_round
    }

    /// Whether publish `id` is traced in a traced run: every window
    /// publish, and every other block of open-loop publishes (the blocks
    /// between measure the tracing overhead).
    pub fn traced(&self, trace: bool, id: u64) -> bool {
        trace && (id > self.n_open() || ((id - 1) / TRACE_BLOCK) % 2 == 1)
    }
}

/// Grows `v` to hold index `i` (new slots hold `fill`) and stores `x`.
fn put<T: Copy>(v: &mut Vec<T>, i: usize, x: T, fill: T) {
    if v.len() <= i {
        v.resize(i + 1, fill);
    }
    v[i] = x;
}

/// The publisher connection's frames: publish acks.
pub struct AckSink {
    plan: Plan,
    cfg: RunCfg,
    /// Receipt time (ns since the epoch) of each open-loop publish's ack,
    /// by id - 1; 0 when none arrived.
    pub at: Vec<u64>,
    /// `matched` of each publish's ack, by id - 1; `u32::MAX` when none.
    pub matched: Vec<u32>,
    acked: Arc<AtomicU64>,
    waker: Thread,
    /// Unexpected frames.
    pub errors: Vec<String>,
    /// Spans of the decodes.
    pub tracer: Tracer,
}

impl AckSink {
    /// A sink counting acks into `acked` and waking the calling thread
    /// (the generator) on each.
    pub fn new(plan: Plan, cfg: &RunCfg, acked: &Arc<AtomicU64>) -> Self {
        Self {
            plan,
            cfg: cfg.clone(),
            at: vec![0; plan.n_open() as usize],
            matched: Vec::new(),
            acked: Arc::clone(acked),
            waker: std::thread::current(),
            errors: Vec::new(),
            tracer: Tracer::new(cfg.trace, cfg.epoch, 1),
        }
    }
}

impl Sink for AckSink {
    fn frame(&mut self, frame: Frame, at: Instant, d0: Instant, d1: Instant) {
        let Frame::Ack(Ack::Publish { req, matched }) = frame else {
            self.errors
                .push(format!("unexpected frame at the publisher: {frame:?}"));
            return;
        };
        let id = u64::from(req);
        if let Some(slot) = self.at.get_mut(id as usize - 1) {
            *slot = at_ns(&self.cfg, at);
        }
        put(&mut self.matched, id as usize - 1, matched, u32::MAX);
        if self.plan.traced(self.cfg.trace, id) {
            self.tracer
                .record("net.frame.next_frame", id, root_id(PUBLISH, id), d0, d1);
        }
        self.acked.fetch_add(1, Ordering::SeqCst);
        self.waker.unpark();
    }
}

/// What write `w` was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOp {
    /// A subscribe of the next churn subscription.
    Subscribe,
    /// An unsubscribe of an acked id.
    Unsubscribe,
    /// Nothing was acked and live to unsubscribe (counted as a failure).
    Skipped,
}

/// Subscription writes on their own schedule: subscribes of fresh
/// subscriptions alternating with unsubscribes of the oldest acked id.
pub struct Writes<'a> {
    /// The subscriber connection.
    pub sub: &'a mut Link,
    /// The subscriptions to subscribe, in order.
    pub preds: &'a [Vec<WirePredicate>],
    /// Acked, live, churnable ids, oldest first.
    pub live: Arc<Mutex<VecDeque<u32>>>,
    /// Offered writes per second.
    pub rate: f64,
    /// Due time of each write sent.
    pub due: Vec<Instant>,
    /// What each write was.
    pub ops: Vec<WriteOp>,
    /// Acked writes, counted by the subscriber's sink.
    pub acked: Arc<AtomicU64>,
    start: Option<Instant>,
}

impl<'a> Writes<'a> {
    /// Writes on `sub` at `rate` per second.
    pub fn new(
        sub: &'a mut Link,
        preds: &'a [Vec<WirePredicate>],
        live: Arc<Mutex<VecDeque<u32>>>,
        rate: f64,
        acked: Arc<AtomicU64>,
    ) -> Self {
        Self {
            sub,
            preds,
            live,
            rate,
            due: Vec::new(),
            ops: Vec::new(),
            acked,
            start: None,
        }
    }

    fn next_due(&self) -> Option<Instant> {
        self.start
            .map(|s| s + Duration::from_secs_f64(self.due.len() as f64 / self.rate))
    }

    /// Writes sent (skips excluded).
    pub fn sent(&self) -> u64 {
        self.ops
            .iter()
            .filter(|op| **op != WriteOp::Skipped)
            .count() as u64
    }
}

/// Drives one run's publishes (and writes) and records what it sent.
pub struct LoadGen<'a> {
    /// The run's shape.
    pub plan: Plan,
    cfg: &'a RunCfg,
    publ: &'a mut Link,
    base: &'a [WireEvent],
    /// Whether publish `id` is expected to produce a `Notify`.
    notifies: &'a dyn Fn(u64) -> bool,
    acked: Arc<AtomicU64>,
    notified: Arc<AtomicU64>,
    /// Scheduled writes, if the workload has any.
    pub writes: Option<Writes<'a>>,
    /// Publishes sent.
    pub sent: u64,
    next_window_id: u64,
    /// Publishes that should have produced a notify.
    pub expect_notifies: u64,
    /// Due time of each open-loop publish, by id - 1.
    pub due: Vec<Instant>,
    /// Start and end of each round's open-loop segment.
    pub open_spans: Vec<(Instant, Instant)>,
    /// Acked publishes per second in each round's window segment.
    pub round_eps: Vec<f64>,
    /// Process CPU seconds spent in the window segments, and the publishes
    /// acked in them.
    pub window_cpu: (f64, u64),
    /// Sender lateness against the schedules.
    pub late: Lateness,
    /// Drains that gave up waiting.
    pub timeouts: u64,
    /// Problems the generator met (counted as failures).
    pub errors: Vec<String>,
    /// Spans of the sends.
    pub tracer: Tracer,
}

impl<'a> LoadGen<'a> {
    /// A generator publishing `base` events on `publ`; `acked` and `notified`
    /// are counted by the connections' sinks.
    pub fn new(
        cfg: &'a RunCfg,
        plan: Plan,
        publ: &'a mut Link,
        base: &'a [WireEvent],
        notifies: &'a dyn Fn(u64) -> bool,
        acked: Arc<AtomicU64>,
        notified: Arc<AtomicU64>,
    ) -> Self {
        Self {
            plan,
            cfg,
            publ,
            base,
            notifies,
            acked,
            notified,
            writes: None,
            sent: 0,
            next_window_id: plan.n_open() + 1,
            expect_notifies: 0,
            due: Vec::with_capacity(plan.n_open() as usize),
            open_spans: Vec::with_capacity(plan.rounds),
            round_eps: Vec::with_capacity(plan.rounds),
            window_cpu: (0.0, 0),
            late: Lateness::default(),
            timeouts: 0,
            errors: Vec::new(),
            tracer: Tracer::new(cfg.trace, cfg.epoch, 0),
        }
    }

    /// Runs every round, then waits for every outstanding reply.
    pub fn run(&mut self) -> Result<(), String> {
        let plan = self.plan;
        let first = Instant::now() + Duration::from_millis(1);
        if let Some(w) = self.writes.as_mut() {
            w.start = Some(first);
        }
        for r in 0..plan.rounds as u64 {
            let start = Instant::now().max(first) + Duration::from_millis(1);
            for j in 0..plan.per_round {
                let due = start + Duration::from_secs_f64(j as f64 / plan.rate);
                self.wait(due)?;
                self.late.record(due, Instant::now());
                self.due.push(due);
                self.publish(r * plan.per_round + j + 1)?;
            }
            self.open_spans.push((start, Instant::now()));
            self.drain()?;
            let cpu0 = sys::cpu_seconds();
            let t0 = Instant::now();
            let a0 = self.acked.load(Ordering::SeqCst);
            let end = t0 + Duration::from_secs_f64(plan.window_secs);
            loop {
                let now = Instant::now();
                if now >= end {
                    break;
                }
                let write_due = self.next_write_due();
                if write_due.is_some_and(|d| d <= now) {
                    self.send_write()?;
                } else if self.sent - self.acked.load(Ordering::SeqCst) < plan.window {
                    let id = self.next_window_id;
                    self.next_window_id += 1;
                    self.publish(id)?;
                } else {
                    let limit = write_due.map_or(end, |d| d.min(end));
                    let nap = limit.saturating_duration_since(now);
                    std::thread::park_timeout(nap.min(Duration::from_millis(1)));
                }
            }
            let t1 = Instant::now();
            let a1 = self.acked.load(Ordering::SeqCst);
            self.window_cpu.0 += sys::cpu_seconds() - cpu0;
            self.window_cpu.1 += a1 - a0;
            self.round_eps
                .push((a1 - a0) as f64 / t1.duration_since(t0).as_secs_f64());
            self.drain()?;
        }
        // Stop writing; wait for the last write acks.
        if let Some(w) = self.writes.as_mut() {
            w.start = None;
            let sent = w.sent();
            let deadline = Instant::now() + DRAIN_LIMIT;
            while w.acked.load(Ordering::SeqCst) < sent && Instant::now() < deadline {
                std::thread::sleep(Duration::from_micros(200));
            }
            if w.acked.load(Ordering::SeqCst) < sent {
                self.timeouts += 1;
            }
        }
        Ok(())
    }

    fn publish(&mut self, id: u64) -> Result<(), String> {
        let mut event = self.base[(id as usize) % self.base.len()].clone();
        if let Some(last) = event.pairs.last_mut() {
            last.1 = WireValue::Int(id as i64);
        }
        debug_assert_eq!(inputs::seq_of(&event), Some(id));
        let frame = Frame::Publish {
            req: id as u32,
            event,
        };
        self.tracer.set_on(self.plan.traced(self.cfg.trace, id));
        let t0 = Instant::now();
        self.publ.send(&frame)?;
        self.tracer
            .record("net.send", id, root_id(PUBLISH, id), t0, Instant::now());
        self.sent += 1;
        if (self.notifies)(id) {
            self.expect_notifies += 1;
        }
        Ok(())
    }

    fn next_write_due(&self) -> Option<Instant> {
        self.writes.as_ref().and_then(Writes::next_due)
    }

    /// Sends the next write (due now or earlier).
    fn send_write(&mut self) -> Result<(), String> {
        let Some(w) = self.writes.as_mut() else {
            return Ok(());
        };
        let Some(due) = w.next_due() else {
            return Ok(());
        };
        wait_until(due);
        self.late.record(due, Instant::now());
        let n = w.due.len();
        let req = WRITE_REQ_BASE + n as u32;
        w.due.push(due);
        let frame = if n % 2 == 0 {
            let preds = w
                .preds
                .get(n / 2)
                .ok_or("ran out of generated churn subscriptions")?
                .clone();
            w.ops.push(WriteOp::Subscribe);
            Frame::Subscribe { req, preds }
        } else {
            let Some(id) = w.live.lock().expect("live-id lock").pop_front() else {
                w.ops.push(WriteOp::Skipped);
                self.errors
                    .push(format!("write {n}: no acked subscription to unsubscribe"));
                return Ok(());
            };
            w.ops.push(WriteOp::Unsubscribe);
            Frame::Unsubscribe { req, id }
        };
        self.tracer.set_on(self.cfg.trace);
        let t0 = Instant::now();
        w.sub.send(&frame)?;
        self.tracer.record(
            "net.send",
            n as u64,
            root_id(WRITE, n as u64),
            t0,
            Instant::now(),
        );
        Ok(())
    }

    /// Waits until `until`, sending the writes that fall due meanwhile.
    fn wait(&mut self, until: Instant) -> Result<(), String> {
        while self.next_write_due().is_some_and(|d| d <= until) {
            self.send_write()?;
        }
        wait_until(until);
        Ok(())
    }

    /// Waits until every publish is acked and notified, writing on
    /// schedule meanwhile.
    fn drain(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + DRAIN_LIMIT;
        loop {
            if self.acked.load(Ordering::SeqCst) >= self.sent
                && self.notified.load(Ordering::SeqCst) >= self.expect_notifies
            {
                return Ok(());
            }
            let now = Instant::now();
            if now >= deadline {
                self.timeouts += 1;
                return Ok(());
            }
            match self.next_write_due() {
                Some(d) if d <= now => self.send_write()?,
                Some(d) => std::thread::park_timeout(
                    d.saturating_duration_since(now)
                        .min(Duration::from_millis(1)),
                ),
                None => std::thread::park_timeout(Duration::from_millis(1)),
            }
        }
    }
}

/// Latencies (ns) from due time to `done` (ns since the epoch; 0 = never)
/// of the open-loop publishes of round `r`.
pub fn open_latencies(
    cfg: &RunCfg,
    plan: &Plan,
    due: &[Instant],
    done: &[u64],
    r: usize,
) -> Vec<u64> {
    let m = plan.per_round as usize;
    (r * m..(r + 1) * m)
        .filter(|&i| i < due.len() && done.get(i).is_some_and(|&d| d != 0))
        .map(|i| done[i].saturating_sub(at_ns(cfg, due[i])))
        .collect()
}

/// A latency's figures over rounds: the run's p50 figure (the lower
/// quartile of the rounds' p50s), its p99 (the median of the rounds' p99s)
/// and each round's p50, in microseconds.
pub fn latency_figures(
    rounds: impl Iterator<Item = Vec<u64>>,
) -> Result<(f64, f64, Vec<f64>), String> {
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    for mut s in rounds.filter(|s| !s.is_empty()) {
        p50s.push(pct_us(&mut s, 0.5)?);
        p99s.push(pct_us(&mut s, 0.99)?);
    }
    if p50s.is_empty() {
        return Err("no latency samples were recorded".into());
    }
    Ok((latency_of_rounds(&p50s), median(&p99s), p50s))
}

/// Records each traced open-loop publish's root span, from its due time to
/// `done`, and returns the tracing overhead: the p50 latency of traced
/// blocks over that of untraced blocks, minus one.
pub fn roots_and_overhead(
    cfg: &RunCfg,
    plan: &Plan,
    due: &[Instant],
    done: &[u64],
    kind: u8,
    name: &'static str,
    tr: &mut Tracer,
) -> f64 {
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    for (i, &d) in due.iter().enumerate() {
        let Some(&end) = done.get(i).filter(|&&e| e != 0) else {
            continue;
        };
        let id = i as u64 + 1;
        let lat = end.saturating_sub(at_ns(cfg, d));
        if plan.traced(cfg.trace, id) {
            traced.push(lat);
            tr.set_on(true);
            tr.record_root(kind, name, id, d, d + Duration::from_nanos(lat));
        } else {
            plain.push(lat);
        }
    }
    match (pct_us(&mut traced, 0.5), pct_us(&mut plain, 0.5)) {
        (Ok(t), Ok(p)) => t / p - 1.0,
        _ => 0.0,
    }
}
