//! The traced run's per-layer probes.
//!
//! Server-internal stages cannot be wrapped from outside the program, so
//! after a workload's measured phase the traced run replays the workload's
//! own inputs through each layer's public functions, with a span around
//! every call, and reads the statistics the program already keeps
//! (`SharedBroker::rcu_stats`, `rcu_status`). Every workload runs every
//! probe on its own subscriptions and events, so every traced run reports
//! the whole per-layer catalogue.

use crate::inputs::{self, SplitMix};
use crate::report::Report;
use crate::stats::{ns, pct_us, percentile, percentile_signed};
use crate::sys;
use crate::system;
use crate::trace::{root_id, TraceLog, Tracer};
use crate::wire::{Link, Sink};
use crate::RunCfg;
use pubsub_broker::SharedBroker;
use pubsub_core::{EngineKind, MatchEngine};
use pubsub_durability::{DurabilityConfig, FsyncPolicy, Wal, WalOp};
use pubsub_net::{Client, Frame, FrameReader};
use pubsub_types::{Event, Subscription, SubscriptionId, Validity};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Span kind of a probe section's root span.
const PROBE_KIND: u8 = 0x70;

/// What the probes run on.
pub struct ProbeInput<'a> {
    /// The workload's subscriptions.
    pub subs: &'a [Subscription],
    /// The workload's event pool.
    pub events: &'a [Event],
    /// The broker the workload measured, after its measured phase.
    pub broker: &'a SharedBroker,
    /// A scratch directory for the durable probes.
    pub dir: &'a Path,
}

struct Sizes {
    events: usize,
    durable_subs: usize,
    unsubs: usize,
    net_subs: usize,
    pings: usize,
    publishes: usize,
    codec_reps: usize,
}

impl Sizes {
    fn new(tiny: bool, subs: usize) -> Self {
        let d = if tiny { 10 } else { 1 };
        Self {
            events: 2_000 / d,
            durable_subs: subs.min(20_000),
            unsubs: (subs / 4).min(2_000),
            net_subs: subs.min(2_000),
            pings: 1_000 / d,
            publishes: 2_000 / d,
            codec_reps: 200 / d,
        }
    }
}

/// Runs every probe, adding the per-layer metrics to `rep` and the spans
/// to `log`.
pub fn probe(
    cfg: &RunCfg,
    inp: &ProbeInput,
    rep: &mut Report,
    log: &mut TraceLog,
) -> Result<(), String> {
    let sizes = Sizes::new(cfg.tiny, inp.subs.len());
    let mut tr = Tracer::new(true, cfg.epoch, 90);
    let mut rng = SplitMix::new(cfg.seed ^ 0x1a7e);

    read_path(inp, rep);
    let broker_p50 = broker_publish(inp, &sizes, rep, &mut tr)?;
    engine(inp, &sizes, rep, &mut tr);
    resolve(inp, &sizes, rep, &mut tr);
    broker_writes(inp, &sizes, &mut rng, rep, &mut tr)?;
    wal(inp, &sizes, rep, &mut tr)?;
    net(inp, &sizes, &mut rng, broker_p50, rep, &mut tr)?;
    log.absorb(tr);
    Ok(())
}

/// The server's own read-path statistics, accumulated by the workload.
fn read_path(inp: &ProbeInput, rep: &mut Report) {
    let st = inp.broker.rcu_stats();
    let events = st.events.max(1) as f64;
    rep.set("index.phase1_us", st.phase1_nanos as f64 / events / 1e3);
    rep.set("core.phase2_us", st.phase2_nanos as f64 / events / 1e3);
    rep.set("core.checks_per_event", st.checks_per_event());
    rep.set("core.tables_created", st.tables_created as f64);
}

/// `SharedBroker::publish_into` from one thread, no compaction. Returns
/// the p50 in microseconds.
fn broker_publish(
    inp: &ProbeInput,
    sizes: &Sizes,
    rep: &mut Report,
    tr: &mut Tracer,
) -> Result<f64, String> {
    let parent = root_id(PROBE_KIND, 1);
    let start = Instant::now();
    let mut out = Vec::with_capacity(256);
    for k in 0..sizes.events {
        let e = &inp.events[k % inp.events.len()];
        out.clear();
        tr.span("broker.publish_into", k as u64, parent, || {
            inp.broker.publish_into(e, &mut out)
        });
        black_box(&out);
    }
    tr.record_root(PROBE_KIND, "probe.broker_publish", 1, start, Instant::now());
    let mut d = tr.durations("broker.publish_into");
    let p50 = pct_us(&mut d, 0.5)?;
    rep.set("broker.publish_p50_us", p50);
    rep.set("broker.publish_p99_us", pct_us(&mut d, 0.99)?);
    Ok(p50)
}

/// A plain `dynamic` engine holding the same subscriptions: the floor
/// under the broker's publish.
fn engine(inp: &ProbeInput, sizes: &Sizes, rep: &mut Report, tr: &mut Tracer) {
    let parent = root_id(PROBE_KIND, 2);
    let start = Instant::now();
    let mut engine = EngineKind::Dynamic.build();
    for (i, s) in inp.subs.iter().enumerate() {
        engine.insert(SubscriptionId(i as u32), s);
    }
    engine.finalize();
    let mut out = Vec::with_capacity(256);
    for e in inp.events.iter().take(sizes.events / 4) {
        out.clear();
        engine.match_event(e, &mut out);
    }
    engine.reset_stats();
    for k in 0..sizes.events {
        let e = &inp.events[k % inp.events.len()];
        out.clear();
        tr.span("core.match_event", k as u64, parent, || {
            engine.match_event(e, &mut out)
        });
        black_box(&out);
    }
    tr.record_root(PROBE_KIND, "probe.engine", 2, start, Instant::now());
    let mut d = tr.durations("core.match_event");
    let p50 = percentile(&mut d, 0.5).unwrap_or(0) as f64 / 1e3;
    rep.set("core.match_us", p50);
    rep.set(
        "core.heap_mb",
        engine.heap_bytes() as f64 / (1024.0 * 1024.0),
    );
    let publish_p50 = rep
        .metrics
        .get("broker.publish_p50_us")
        .copied()
        .unwrap_or(0.0);
    rep.set("broker.read_overhead", publish_p50 / p50.max(1e-3));
}

/// The per-publish name resolution the server performs.
fn resolve(inp: &ProbeInput, sizes: &Sizes, rep: &mut Report, tr: &mut Tracer) {
    let parent = root_id(PROBE_KIND, 3);
    let start = Instant::now();
    let names: Vec<Vec<String>> = inp
        .events
        .iter()
        .take(256)
        .enumerate()
        .map(|(k, e)| {
            inputs::wire_event(e, k as u64)
                .pairs
                .into_iter()
                .map(|(n, _)| n)
                .collect()
        })
        .collect();
    for k in 0..sizes.events {
        let event_names = &names[k % names.len()];
        tr.span("broker.lookup_attr", k as u64, parent, || {
            for n in event_names {
                black_box(inp.broker.lookup_attr(n));
            }
        });
    }
    tr.record_root(PROBE_KIND, "probe.resolve", 3, start, Instant::now());
    let mut d = tr.durations("broker.lookup_attr");
    rep.set(
        "broker.resolve_us",
        percentile(&mut d, 0.5).unwrap_or(0) as f64 / 1e3,
    );
}

/// Loads the subscriptions into `broker`, then removes `unsubs` of them
/// at random, spanning each call. Returns the writes made.
fn load_and_churn(
    broker: &SharedBroker,
    subs: &[Subscription],
    unsubs: usize,
    rng: &mut SplitMix,
    names: (&'static str, &'static str),
    parent: u64,
    tr: &mut Tracer,
) -> usize {
    let mut ids = Vec::with_capacity(subs.len());
    for (i, s) in subs.iter().enumerate() {
        let s = s.clone();
        ids.push(tr.span(names.0, i as u64, parent, || {
            broker.subscribe(s, Validity::forever())
        }));
    }
    for k in 0..unsubs {
        let j = rng.below(ids.len());
        let id = ids.swap_remove(j);
        tr.span(names.1, k as u64, parent, || broker.unsubscribe(id));
    }
    subs.len() + unsubs
}

/// Subscribe and unsubscribe on an in-memory and on a durable broker.
fn broker_writes(
    inp: &ProbeInput,
    sizes: &Sizes,
    rng: &mut SplitMix,
    rep: &mut Report,
    tr: &mut Tracer,
) -> Result<(), String> {
    let parent = root_id(PROBE_KIND, 4);
    let start = Instant::now();
    let mem = system::broker(None)?;
    load_and_churn(
        &mem,
        inp.subs,
        sizes.unsubs,
        rng,
        ("broker.subscribe", "broker.unsubscribe"),
        parent,
        tr,
    );
    drop(mem);
    tr.record_root(PROBE_KIND, "probe.broker_writes", 4, start, Instant::now());
    let mut d = tr.durations("broker.subscribe");
    rep.set("broker.subscribe_p50_us", pct_us(&mut d, 0.5)?);
    rep.set("broker.subscribe_p99_us", pct_us(&mut d, 0.99)?);
    let mut d = tr.durations("broker.unsubscribe");
    rep.set("broker.unsubscribe_p99_us", pct_us(&mut d, 0.99)?);

    let parent = root_id(PROBE_KIND, 5);
    let start = Instant::now();
    let dir = inp.dir.join("probe-broker");
    let durable = system::broker(Some(&dir))?;
    let flips0 = durable.rcu_status().flips;
    let writes = load_and_churn(
        &durable,
        &inp.subs[..sizes.durable_subs],
        sizes.unsubs,
        rng,
        ("broker.subscribe_durable", "broker.unsubscribe_durable"),
        parent,
        tr,
    );
    let flips = durable.rcu_status().flips - flips0;
    drop(durable);
    let reopened = tr.span("broker.open_durable", 0, parent, || {
        system::broker(Some(&dir))
    });
    let reopened = reopened?;
    rep.check(
        reopened.subscription_count() == sizes.durable_subs - sizes.unsubs,
        || "the reopened probe broker lost subscriptions".into(),
    );
    drop(reopened);
    tr.record_root(PROBE_KIND, "probe.durable_writes", 5, start, Instant::now());
    rep.set(
        "broker.flips_per_write",
        flips as f64 / writes.max(1) as f64,
    );
    let mut d = tr.durations("broker.subscribe_durable");
    rep.set("broker.subscribe_durable_p50_us", pct_us(&mut d, 0.5)?);
    rep.set("broker.subscribe_durable_p99_us", pct_us(&mut d, 0.99)?);
    let mut d = tr.durations("broker.unsubscribe_durable");
    rep.set("broker.unsubscribe_durable_p99_us", pct_us(&mut d, 0.99)?);
    let d = tr.durations("broker.open_durable");
    rep.set("durability.recover_s", d[0] as f64 / 1e9);
    Ok(())
}

/// `Wal::append` and `Wal::sync` on a subscribe/unsubscribe mix, with an
/// explicit sync every 64 appends (the default `EveryN(64)` cadence), then
/// `Wal::open` alone on the result.
fn wal(inp: &ProbeInput, sizes: &Sizes, rep: &mut Report, tr: &mut Tracer) -> Result<(), String> {
    let parent = root_id(PROBE_KIND, 6);
    let start = Instant::now();
    let dir = inp.dir.join("probe-wal");
    let manual = DurabilityConfig {
        fsync: FsyncPolicy::OsManaged,
        ..DurabilityConfig::default()
    };
    let (mut wal, _) = Wal::open(&dir, manual).map_err(|e| format!("opening the WAL: {e}"))?;
    let mut ops = 0u64;
    for (i, sub) in inp.subs[..sizes.durable_subs].iter().enumerate() {
        let mut batch = vec![WalOp::Subscribe {
            id: SubscriptionId(i as u32),
            sub: sub.clone(),
            validity: Validity::forever(),
        }];
        if i % 2 == 1 {
            batch.push(WalOp::Unsubscribe(SubscriptionId(i as u32 - 1)));
        }
        for op in &batch {
            tr.span("durability.append", ops, parent, || wal.append(op))
                .map_err(|e| format!("WAL append: {e}"))?;
            ops += 1;
            if ops.is_multiple_of(64) {
                tr.span("durability.sync", ops, parent, || wal.sync())
                    .map_err(|e| format!("WAL sync: {e}"))?;
            }
        }
    }
    wal.sync().map_err(|e| format!("WAL sync: {e}"))?;
    drop(wal);
    rep.set(
        "durability.bytes_per_op",
        sys::dir_bytes(&dir) as f64 / ops.max(1) as f64,
    );
    let reopened = tr.span("durability.wal_open", 0, parent, || {
        Wal::open(&dir, DurabilityConfig::default())
    });
    let (_, recovered) = reopened.map_err(|e| format!("reopening the WAL: {e}"))?;
    rep.check(recovered.ops.len() as u64 == ops, || {
        format!("WAL replay returned {} of {ops} ops", recovered.ops.len())
    });
    tr.record_root(PROBE_KIND, "probe.wal", 6, start, Instant::now());
    let mut d = tr.durations("durability.append");
    rep.set("durability.append_us", pct_us(&mut d, 0.5)?);
    let mut d = tr.durations("durability.sync");
    rep.set("durability.sync_us", pct_us(&mut d, 0.5)?);
    rep.set(
        "durability.replay_s",
        tr.durations("durability.wal_open")[0] as f64 / 1e9,
    );
    Ok(())
}

/// Receipt time, id count and re-encoded size of every `Notify`.
struct ProbeSink {
    seen: HashMap<u64, (Instant, usize)>,
    frames: Vec<Frame>,
    frame_bytes: u64,
    count: Arc<AtomicU64>,
}

impl Sink for ProbeSink {
    fn frame(&mut self, frame: Frame, at: Instant, _: Instant, _: Instant) {
        if let Frame::Notify { ids, event, .. } = &frame {
            if let Some(seq) = inputs::seq_of(event) {
                self.seen.insert(seq, (at, ids.len()));
            }
            self.frame_bytes += frame.to_bytes().len() as u64;
            if self.frames.len() < 64 {
                self.frames.push(frame);
            }
            self.count.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Loopback round trips on a fresh server: `Client::ping` (the transport
/// floor), closed-loop `Client::publish`, the notify that trails each ack,
/// and the frame codec on the frames seen.
fn net(
    inp: &ProbeInput,
    sizes: &Sizes,
    rng: &mut SplitMix,
    broker_p50: f64,
    rep: &mut Report,
    tr: &mut Tracer,
) -> Result<(), String> {
    let parent = root_id(PROBE_KIND, 7);
    let start = Instant::now();
    let broker = Arc::new(system::broker(None)?);
    let server = system::serve(Arc::clone(&broker))?;
    let addr = server.local_addr();
    let mut sub = Link::connect(addr)?;
    let client_err = |e: pubsub_net::ClientError| format!("probe client: {e}");
    sub.client()
        .subscribe(inputs::seq_interning_preds())
        .map_err(client_err)?;
    let subs = &inp.subs[..sizes.net_subs];
    for s in subs {
        sub.client()
            .subscribe(inputs::wire_preds(s))
            .map_err(client_err)?;
    }
    let count = Arc::new(AtomicU64::new(0));
    let reader = sub.reader(ProbeSink {
        seen: HashMap::new(),
        frames: Vec::new(),
        frame_bytes: 0,
        count: Arc::clone(&count),
    })?;
    let mut publisher = Client::connect(addr).map_err(client_err)?;
    for k in 0..sizes.pings {
        tr.span("net.client.ping", k as u64, parent, || publisher.ping())
            .map_err(client_err)?;
    }
    let mut publish_frames = Vec::with_capacity(64);
    let mut publish_bytes = 0u64;
    let mut acked_at = Vec::with_capacity(sizes.publishes);
    for k in 0..sizes.publishes {
        let target = &subs[rng.below(subs.len())];
        let event = inputs::targeted(&inp.events[k % inp.events.len()], target);
        let wire = inputs::wire_event(&event, k as u64);
        let frame = Frame::Publish {
            req: k as u32 + 1,
            event: wire.clone(),
        };
        publish_bytes += frame.to_bytes().len() as u64;
        if publish_frames.len() < 64 {
            publish_frames.push(frame);
        }
        let t0 = Instant::now();
        let matched = publisher.publish(wire).map_err(client_err)?;
        let t1 = Instant::now();
        tr.record("net.client.publish", k as u64, parent, t0, t1);
        rep.check(matched >= 1, || {
            format!("probe publish {k} targeted a subscription but matched none")
        });
        acked_at.push(t1);
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while count.load(Ordering::SeqCst) < sizes.publishes as u64 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    sub.close();
    let sink = reader
        .join()
        .map_err(|_| "probe reader panicked".to_string())??;
    drop(publisher);
    server.shutdown();
    tr.record_root(PROBE_KIND, "probe.net", 7, start, Instant::now());

    let mut after_ack = Vec::with_capacity(sizes.publishes);
    let mut ids = 0usize;
    for (k, ack) in acked_at.iter().enumerate() {
        match sink.seen.get(&(k as u64)) {
            Some(&(at, n)) => {
                ids += n;
                let d = if at >= *ack {
                    ns(*ack, at) as i64
                } else {
                    -(ns(at, *ack) as i64)
                };
                after_ack.push(d);
            }
            None => rep.fail(format!("probe publish {k}: no notify arrived")),
        }
    }
    rep.attempt(sizes.publishes as u64);
    let notifies = sink.seen.len().max(1) as f64;
    rep.set("net.ids_per_notify", ids as f64 / notifies);
    rep.set("net.notify_frame_bytes", sink.frame_bytes as f64 / notifies);
    rep.set(
        "net.publish_frame_bytes",
        publish_bytes as f64 / sizes.publishes.max(1) as f64,
    );
    let p = |v: &mut Vec<i64>, q| percentile_signed(v, q).unwrap_or(0) as f64 / 1e3;
    rep.set("net.notify_after_ack_p50_us", p(&mut after_ack, 0.5));
    rep.set("net.notify_after_ack_p99_us", p(&mut after_ack, 0.99));
    let mut d = tr.durations("net.client.ping");
    let ping_p50 = pct_us(&mut d, 0.5)?;
    rep.set("net.ping_rtt_p50_us", ping_p50);
    rep.set("net.ping_rtt_p99_us", pct_us(&mut d, 0.99)?);
    let mut d = tr.durations("net.client.publish");
    let publish_p50 = pct_us(&mut d, 0.5)?;
    rep.set("net.publish_rtt_p50_us", publish_p50);
    rep.set("net.publish_rtt_p99_us", pct_us(&mut d, 0.99)?);
    rep.set("net.server_us", publish_p50 - ping_p50 - broker_p50);

    let frames: Vec<Frame> = publish_frames.into_iter().chain(sink.frames).collect();
    codec(&frames, sizes.codec_reps, rep, tr)
}

/// `Frame::write_to` and `FrameReader::next_frame` over `frames`, timed in
/// batches; reports the median per frame.
fn codec(frames: &[Frame], reps: usize, rep: &mut Report, tr: &mut Tracer) -> Result<(), String> {
    if frames.is_empty() {
        return Err("the net probe saw no frames to time".into());
    }
    let parent = root_id(PROBE_KIND, 8);
    let start = Instant::now();
    let mut buf = Vec::with_capacity(64 * 1024);
    for k in 0..reps {
        buf.clear();
        tr.span("net.frame.write_to", k as u64, parent, || {
            for f in frames {
                f.write_to(&mut buf);
            }
        });
        let mut reader = FrameReader::new();
        reader.extend(&buf);
        let decoded = tr.span("net.frame.next_frame", k as u64, parent, || {
            let mut n = 0;
            while let Ok(Some(f)) = reader.next_frame() {
                black_box(&f);
                n += 1;
            }
            n
        });
        if decoded != frames.len() {
            return Err(format!("decoded {decoded} of {} frames", frames.len()));
        }
    }
    tr.record_root(PROBE_KIND, "probe.codec", 8, start, Instant::now());
    let per_frame = |name| {
        let mut d = tr.durations(name);
        percentile(&mut d, 0.5).unwrap_or(0) as f64 / frames.len() as f64
    };
    rep.set("net.encode_ns", per_frame("net.frame.write_to"));
    rep.set("net.decode_ns", per_frame("net.frame.next_frame"));
    Ok(())
}
