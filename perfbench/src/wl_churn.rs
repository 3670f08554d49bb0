//! `churn`: a loopback server over a durable broker, preloaded with W0
//! subscriptions through the subscriber connection; subscribes and
//! unsubscribes run beside publishes on the same broker.
//!
//! * Set-up: empty durable broker (fresh WAL directory) and server → every
//!   preload subscription acked; the first set-up is measured, two more
//!   are only timed, after the measurement.
//! * Each round (see [`crate::load`]): publishes at a fixed offered rate
//!   → `publish_*` and `notify_*`, then a fixed number of publishes in
//!   flight → `events_per_s`; throughout, subscribes alternate with
//!   unsubscribes on their own fixed schedule on the subscriber
//!   connection → `write_*` (due time → ack). Latencies are the lower
//!   quartile of the rounds' p50s, throughput the upper quartile.
//! * Then everything is dropped, the WAL directory is reopened, and the
//!   recovered subscriptions and session rows must equal the acked set; a
//!   verification batch of publishes is checked against brute force.
//!
//! Events are W0 events with one preloaded subscription's predicates
//! imposed, so every publish notifies. Unsubscribes take the oldest
//! acked-and-live subscription of the churned set (the preload's last
//! subscriptions first), so the rest of the preload stays stable and its
//! matches can be checked exactly on every `Notify`.

use crate::inputs::{self, Digest, Oracle, SplitMix};
use crate::layers::{self, ProbeInput};
use crate::load::{self, at_ns, AckSink, LoadGen, Plan, WriteOp, Writes, DELIVERY, PUBLISH};
use crate::load::{WRITE, WRITE_REQ_BASE};
use crate::report::Report;
use crate::stats::{median, rate_of_rounds};
use crate::sys::{self, ProcSample, ScratchDir};
use crate::system;
use crate::trace::{root_id, TraceLog, Tracer};
use crate::wire::{Link, Sink};
use crate::RunCfg;
use pubsub_broker::SharedBroker;
use pubsub_net::{Ack, Client, Frame, Server, WireEvent, WirePredicate};
use pubsub_types::{Event, Subscription};
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SETUPS: usize = 3;
/// Offered publish rate of the open-loop segments, per second.
const PUBLISH_RATE: f64 = 2_000.0;
/// Offered write rate (subscribes and unsubscribes alternate), per second.
const WRITE_RATE: f64 = 200.0;
/// Publishes in flight during the window segments.
const WINDOW: u64 = 64;

struct Setup {
    dir: PathBuf,
    broker: Arc<SharedBroker>,
    server: Server,
    sub: Link,
    publ: Link,
    /// Ids of the preload, by subscription index.
    ids: Vec<u32>,
    /// Id of the sequence-interning subscription.
    seq_id: u32,
}

/// The subscriber connection's frames: write acks and notifies.
struct SubSink {
    plan: Plan,
    cfg: RunCfg,
    /// Stable-subscription ids each pool event matches (sorted).
    stable_expected: Arc<Vec<Vec<u32>>>,
    /// Acked, live, churnable ids, oldest first; the generator takes
    /// unsubscribe targets from the front.
    live: Arc<Mutex<VecDeque<u32>>>,
    written: Arc<AtomicU64>,
    notified: Arc<AtomicU64>,
    next_seq: u64,
    /// Receipt time of each open-loop publish's notify, by id - 1.
    at: Vec<u64>,
    /// Ids carried by each publish's notify, by id - 1 (`u32::MAX`: none).
    ids_len: Vec<u32>,
    /// `(write, receipt ns)` of every write ack.
    write_acks: Vec<(usize, u64)>,
    /// Id acked for the `k`-th churn subscribe.
    new_ids: HashMap<usize, u32>,
    /// Ids beyond the stable matches, per publish, checked at the end.
    extras: Vec<(u64, Vec<u32>)>,
    errors: Vec<String>,
    tracer: Tracer,
}

impl SubSink {
    fn notify(&mut self, seq: u64, ids: Vec<u32>, id: u64, at: Instant, d0: Instant, d1: Instant) {
        if seq != self.next_seq {
            self.errors
                .push(format!("notify seq {seq}, want {}", self.next_seq));
        }
        self.next_seq = seq + 1;
        let want = &self.stable_expected[(id as usize) % self.stable_expected.len()];
        // `ids` = the stable matches plus any churned subscription that was
        // live and matched; both lists are sorted.
        let mut extra = Vec::new();
        let mut w = want.iter().peekable();
        for &x in &ids {
            if w.peek() == Some(&&x) {
                w.next();
            } else {
                extra.push(x);
            }
        }
        if w.next().is_some() {
            self.errors.push(format!(
                "publish {id}: notify ids {ids:?} miss stable matches {want:?}"
            ));
        }
        if !extra.is_empty() {
            self.extras.push((id, extra));
        }
        if let Some(slot) = self.at.get_mut(id as usize - 1) {
            *slot = at_ns(&self.cfg, at);
        }
        let i = id as usize - 1;
        if self.ids_len.len() <= i {
            self.ids_len.resize(i + 1, u32::MAX);
        }
        self.ids_len[i] = ids.len() as u32;
        if self.plan.traced(self.cfg.trace, id) {
            self.tracer
                .record("net.frame.next_frame", id, root_id(DELIVERY, id), d0, d1);
        }
        self.notified.fetch_add(1, Ordering::SeqCst);
    }
}

impl Sink for SubSink {
    fn frame(&mut self, frame: Frame, at: Instant, d0: Instant, d1: Instant) {
        match frame {
            Frame::Ack(Ack::Subscribe { req, id }) => {
                let w = (req - WRITE_REQ_BASE) as usize;
                self.new_ids.insert(w / 2, id);
                self.live.lock().expect("live-id lock").push_back(id);
                self.write_acks.push((w, at_ns(&self.cfg, at)));
                self.written.fetch_add(1, Ordering::SeqCst);
            }
            Frame::Ack(Ack::Unsubscribe { req, existed }) => {
                let w = (req - WRITE_REQ_BASE) as usize;
                if !existed {
                    self.errors.push(format!(
                        "write {w}: unsubscribe of an acked id found nothing"
                    ));
                }
                self.write_acks.push((w, at_ns(&self.cfg, at)));
                self.written.fetch_add(1, Ordering::SeqCst);
            }
            Frame::Notify { seq, ids, event } => match inputs::seq_of(&event) {
                Some(id) => self.notify(seq, ids, id, at, d0, d1),
                None => self
                    .errors
                    .push(format!("notify {seq} carries no sequence attribute")),
            },
            other => self
                .errors
                .push(format!("unexpected frame at the subscriber: {other:?}")),
        }
    }
}

/// Empty durable broker and server → the preload acked.
fn set_up(dir: &Path, preload: &[Vec<WirePredicate>]) -> Result<Setup, String> {
    let broker = Arc::new(system::broker(Some(dir))?);
    let server = system::serve(Arc::clone(&broker))?;
    let mut sub = Link::connect(server.local_addr())?;
    let err = |e: pubsub_net::ClientError| format!("set-up subscribe: {e}");
    let seq_id = sub
        .client()
        .subscribe(inputs::seq_interning_preds())
        .map_err(err)?;
    let mut ids = Vec::with_capacity(preload.len());
    for preds in preload {
        ids.push(sub.client().subscribe(preds.clone()).map_err(err)?);
    }
    let publ = Link::connect(server.local_addr())?;
    Ok(Setup {
        dir: dir.to_path_buf(),
        broker,
        server,
        sub,
        publ,
        ids,
        seq_id,
    })
}

/// Runs the `churn` workload.
pub fn run(cfg: &RunCfg) -> Result<(Report, TraceLog), String> {
    let (n_stable, n_pool, pool) = if cfg.tiny {
        (900, 100, 256)
    } else {
        (19_000, 1_000, 2_048)
    };
    let n_preload = n_stable + n_pool;
    // Writes run for the whole run plus its drains; half are subscribes.
    let n_new = (WRITE_RATE * cfg.seconds) as usize + 64;
    let n_all = n_preload + n_new;
    let (subs, base) = inputs::generate(inputs::w0_spec(n_all, cfg.seed), n_all, pool);
    let mut rng = SplitMix::new(cfg.seed);
    let events: Vec<Event> = base
        .iter()
        .map(|e| inputs::targeted(e, &subs[rng.below(n_stable)]))
        .collect();
    let plan = Plan::new(cfg, PUBLISH_RATE, WINDOW);
    let mut digest = Digest::default();
    for p in [
        n_stable,
        n_pool,
        n_new,
        pool,
        plan.rounds,
        plan.per_round as usize,
    ] {
        digest.param(p as u64);
    }
    digest.param(WRITE_RATE as u64);
    digest.subs(&subs);
    digest.events(&events);
    let mut rep = Report::new("churn", digest.get());
    let mut log = TraceLog::default();
    let mut tr = Tracer::new(cfg.trace, cfg.epoch, 3);

    let oracle = Oracle::new(&subs, 0..n_stable);
    let stable_idx: Vec<Vec<usize>> = events.iter().map(|e| oracle.matches(e)).collect();
    drop(oracle);
    let wire_preload: Vec<_> = subs[..n_preload].iter().map(inputs::wire_preds).collect();
    let wire_new: Vec<_> = subs[n_preload..].iter().map(inputs::wire_preds).collect();
    let base_wire: Vec<WireEvent> = events.iter().map(|e| inputs::wire_event(e, 0)).collect();

    let scratch = ScratchDir::new("churn")?;
    let mut setup_s = Vec::with_capacity(SETUPS);
    let start = Instant::now();
    let Setup {
        dir,
        broker,
        server,
        mut sub,
        mut publ,
        ids,
        seq_id,
    } = set_up(&scratch.path().join("wal-0"), &wire_preload)?;
    setup_s.push(start.elapsed().as_secs_f64());
    rep.attempt(n_preload as u64 + 1);
    let token = sub.token();
    let stable_expected: Arc<Vec<Vec<u32>>> =
        Arc::new(stable_idx.iter().map(|m| inputs::to_ids(m, &ids)).collect());

    let live: Arc<Mutex<VecDeque<u32>>> =
        Arc::new(Mutex::new(ids[n_stable..].iter().copied().collect()));
    let acked = Arc::new(AtomicU64::new(0));
    let written = Arc::new(AtomicU64::new(0));
    let notified = Arc::new(AtomicU64::new(0));
    let ack_reader = publ.reader(AckSink::new(plan, cfg, &acked))?;
    let sub_reader = sub.reader(SubSink {
        plan,
        cfg: cfg.clone(),
        stable_expected: Arc::clone(&stable_expected),
        live: Arc::clone(&live),
        written: Arc::clone(&written),
        notified: Arc::clone(&notified),
        next_seq: 1,
        at: vec![0; plan.n_open() as usize],
        ids_len: Vec::new(),
        write_acks: Vec::new(),
        new_ids: HashMap::new(),
        extras: Vec::new(),
        errors: Vec::new(),
        tracer: Tracer::new(cfg.trace, cfg.epoch, 2),
    })?;

    let proc0 = ProcSample::now();
    let notifies = |_: u64| true;
    let mut drv = LoadGen::new(cfg, plan, &mut publ, &base_wire, &notifies, acked, notified);
    drv.writes = Some(Writes::new(
        &mut sub,
        &wire_new,
        Arc::clone(&live),
        WRITE_RATE,
        written,
    ));
    let threads_seen = sys::threads();
    drv.run()?;
    let (cpu_frac, ctxsw) = proc0.since();
    let writes = drv.writes.take().expect("writes were set");
    let writes_sent = writes.sent();
    let (write_due, write_ops) = (writes.due, writes.ops);
    let LoadGen {
        sent,
        due,
        open_spans,
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
    let seen = sub_reader
        .join()
        .map_err(|_| "subscriber reader panicked".to_string())??;
    let rss = sys::peak_rss_mib();

    // Checks during the run.
    let notify_count = seen.notified.load(Ordering::SeqCst);
    rep.attempt(sent + writes_sent + notify_count);
    for e in gen_errors.iter().chain(&acks.errors).chain(&seen.errors) {
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
        let stable = stable_expected[(i + 1) % pool].len();
        let carried = seen.ids_len.get(i).copied().unwrap_or(u32::MAX);
        rep.check(matched as usize >= stable && matched == carried, || {
            format!(
                "publish {}: ack matched {matched}, notify carried {carried}, stable oracle {stable}",
                i + 1
            )
        });
    }
    for _ in acked_count..sent {
        rep.fail("a publish ack never arrived");
    }
    for _ in notify_count..sent {
        rep.fail("a notify never arrived");
    }
    for _ in seen.write_acks.len() as u64..writes_sent {
        rep.fail("a write ack never arrived");
    }
    // Extra ids must be churned subscriptions that match the event.
    let mut index_of: HashMap<u32, usize> =
        ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    for (&k, &id) in &seen.new_ids {
        index_of.insert(id, n_preload + k);
    }
    for (id, extra) in &seen.extras {
        let event = &events[(*id as usize) % pool];
        for x in extra {
            let ok = index_of
                .get(x)
                .is_some_and(|&s| s >= n_stable && subs[s].matches_event(event));
            rep.check(ok, || {
                format!("publish {id}: notify carried id {x}, which does not match")
            });
        }
    }

    // Figures over rounds.
    let rounds = 0..plan.rounds;
    let (publish_p50, publish_p99, p50s) = load::latency_figures(
        rounds
            .clone()
            .map(|r| load::open_latencies(cfg, &plan, &due, &acks.at, r)),
    )?;
    let (notify_p50, notify_p99, _) = load::latency_figures(
        rounds
            .clone()
            .map(|r| load::open_latencies(cfg, &plan, &due, &seen.at, r)),
    )?;
    // Write latency counts the writes due in the open-loop segments; in
    // the window segments they queue behind a saturated publisher.
    let round_of = |t: Instant| open_spans.iter().position(|&(s, e)| s <= t && t <= e);
    let mut by_round: Vec<Vec<u64>> = vec![Vec::new(); plan.rounds];
    let (mut sub_lat, mut unsub_lat) = (Vec::new(), Vec::new());
    for &(w, at) in &seen.write_acks {
        let lat = at.saturating_sub(at_ns(cfg, write_due[w]));
        if let Some(r) = round_of(write_due[w]) {
            by_round[r].push(lat);
        }
        match write_ops[w] {
            WriteOp::Subscribe => sub_lat.push(lat),
            _ => unsub_lat.push(lat),
        }
        if cfg.trace {
            tr.set_on(true);
            tr.record_root(
                WRITE,
                "write.request",
                w as u64,
                write_due[w],
                write_due[w] + Duration::from_nanos(lat),
            );
        }
    }
    let (write_p50, write_p99, write_p50s) = load::latency_figures(by_round.into_iter())?;
    let eps = rate_of_rounds(&round_eps);
    rep.notes.push(format!(
        "per round: publish p50 {p50s:.0?} us; write p50 {write_p50s:.0?} us; window {round_eps:.0?} events/s"
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
    rep.set("write_p50_us", write_p50);
    rep.set("tail.write_p99_us", write_p99);
    rep.name("peak_eps", "1/s", eps);
    let pct = |v: &mut Vec<u64>, q| crate::stats::pct_us(v, q);
    rep.name("subscribe_p50_us", "us", pct(&mut sub_lat, 0.5)?);
    rep.name("subscribe_p99_us", "us", pct(&mut sub_lat, 0.99)?);
    rep.name("unsubscribe_p50_us", "us", pct(&mut unsub_lat, 0.5)?);
    rep.name("unsubscribe_p99_us", "us", pct(&mut unsub_lat, 0.99)?);
    let (late_p99, late_max) = late.p99_max_us();
    rep.notes.push(format!(
        "generator lateness: {}, max {late_max:.1} us",
        late.summary()
    ));
    rep.invalid = late.verdict();
    rep.set("proc.cpu_frac", cpu_frac);
    rep.set(
        "proc.ctxsw_per_op",
        ctxsw as f64 / (sent + writes_sent).max(1) as f64,
    );
    rep.set("proc.threads", threads_seen as f64);
    rep.set("gen.late_p99_us", late_p99);
    rep.set("gen.late_max_us", late_max);
    log.absorb(gen_tracer);
    log.absorb(acks.tracer);
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
            &seen.at,
            DELIVERY,
            "notify.delivery",
            &mut tr,
        );
        rep.set("trace.overhead_frac", overhead);
        let inp = ProbeInput {
            subs: &subs[..n_preload],
            events: &events,
            broker: &broker,
            dir: scratch.path(),
        };
        layers::probe(cfg, &inp, &mut rep, &mut log)?;
    }
    server.shutdown();
    drop(server);
    drop(broker);

    // The acked set: the stable preload, the sequence subscription, and
    // every acked churnable id not since unsubscribed.
    let mut acked_set: Vec<u32> = ids[..n_stable].to_vec();
    acked_set.push(seq_id);
    acked_set.extend(live.lock().expect("live-id lock").iter().copied());
    acked_set.sort_unstable();
    let recover_s = recover_and_verify(
        cfg, &dir, token, &acked_set, &index_of, &subs, &base, &mut rep,
    )?;
    rep.name("recover_s", "s", recover_s);
    log.absorb(seen.tracer);

    // The remaining set-ups, timed only.
    for round in 1..SETUPS {
        let dir = scratch.path().join(format!("wal-{round}"));
        let start = Instant::now();
        let s = set_up(&dir, &wire_preload)?;
        setup_s.push(start.elapsed().as_secs_f64());
        s.server.shutdown();
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
        rep.attempt(n_preload as u64 + 1);
    }
    rep.set("setup_s", median(&setup_s));
    rep.notes.push(format!(
        "set-ups (s): {setup_s:?}; {} rounds of {} open-loop publishes at {PUBLISH_RATE}/s and {:.2} s with {WINDOW} in flight; {sent} publishes; {writes_sent} writes at {WRITE_RATE}/s; acked set {}",
        plan.rounds, plan.per_round, plan.window_secs, acked_set.len()
    ));
    log.absorb(tr);
    Ok((rep, log))
}

/// Reopens the WAL directory and serves it again; the recovered
/// subscriptions and session rows must equal `acked` (sorted ids), and a
/// verification batch of publishes must match brute force over them.
/// Returns the seconds from reopening to a resumed session.
#[allow(clippy::too_many_arguments)]
fn recover_and_verify(
    cfg: &RunCfg,
    dir: &Path,
    token: u64,
    acked: &[u32],
    index_of: &HashMap<u32, usize>,
    subs: &[Subscription],
    base: &[Event],
    rep: &mut Report,
) -> Result<f64, String> {
    let start = Instant::now();
    let broker = Arc::new(system::broker(Some(dir))?);
    let server = system::serve(Arc::clone(&broker))?;
    let client_err = |e: pubsub_net::ClientError| format!("after recovery: {e}");
    let mut resumed = Client::resume(server.local_addr(), token).map_err(client_err)?;
    let recover_s = start.elapsed().as_secs_f64();

    rep.check(resumed.resumed() == acked, || {
        format!(
            "resume re-attached {} ids, {} were acked",
            resumed.resumed().len(),
            acked.len()
        )
    });
    let rows = broker.session_rows();
    let mine: Vec<u32> = rows
        .iter()
        .find(|(t, _)| *t == token)
        .map(|(_, ids)| ids.iter().map(|id| id.0).collect())
        .unwrap_or_default();
    rep.check(mine == acked, || {
        format!(
            "session row holds {} ids, {} were acked",
            mine.len(),
            acked.len()
        )
    });
    rep.check(
        rows.iter().all(|(t, ids)| *t == token || ids.is_empty()),
        || "another session owns subscriptions after recovery".into(),
    );
    rep.check(broker.subscription_count() == acked.len(), || {
        format!(
            "recovered {} subscriptions, {} were acked",
            broker.subscription_count(),
            acked.len()
        )
    });

    // Verification batch: brute force over the acked set.
    let members: Vec<usize> = acked
        .iter()
        .filter_map(|id| index_of.get(id).copied())
        .collect();
    let oracle = Oracle::new(subs, members.iter().copied());
    let id_of: HashMap<usize, u32> = index_of.iter().map(|(&id, &i)| (i, id)).collect();
    let mut rng = SplitMix::new(cfg.seed ^ 0x7e51);
    let batch = if cfg.tiny { 32 } else { 256 };
    let mut publisher = Client::connect(server.local_addr()).map_err(client_err)?;
    for v in 0..batch {
        let target = &subs[members[rng.below(members.len())]];
        let event = inputs::targeted(&base[v % base.len()], target);
        let want: Vec<u32> = {
            let mut w: Vec<u32> = oracle.matches(&event).iter().map(|i| id_of[i]).collect();
            w.sort_unstable();
            w
        };
        let seq = 1_000_000 + v as u64;
        let matched = publisher
            .publish(inputs::wire_event(&event, seq))
            .map_err(client_err)?;
        rep.check(matched as usize == want.len(), || {
            format!(
                "verification publish {v}: matched {matched}, oracle {}",
                want.len()
            )
        });
        let got = resumed
            .next_notify(Duration::from_secs(5))
            .map_err(client_err)?;
        rep.check(
            got.as_ref()
                .is_some_and(|n| n.ids == want && inputs::seq_of(&n.event) == Some(seq)),
            || format!("verification publish {v}: notify differs from the oracle {want:?}"),
        );
    }
    drop(publisher);
    drop(resumed);
    server.shutdown();
    Ok(recover_s)
}
