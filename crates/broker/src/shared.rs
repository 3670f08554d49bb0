//! A thread-safe broker handle with a lock-free read-mostly publish path.
//!
//! The matching engines are single-writer structures. `SharedBroker` splits
//! the subscription set across `N` shards, each a complete [`Broker`]
//! behind its own `parking_lot::Mutex`. Ids are striped (`shard = id mod N`
//! via [`Broker::with_id_lane`]), so `subscribe`/`unsubscribe` lock only the
//! owning shard and run fully in parallel across shards.
//!
//! **Publishes take no locks at all** in the default
//! [`PublishMode::Rcu`]: every mutation publishes an immutable
//! [`crate::rcu::BrokerSnapshot`] through an epoch-protected
//! [`pubsub_core::RcuCell`], and publishers pin the current snapshot, match
//! it with per-thread scratch ([`pubsub_core::MatchView`]) and unpin — zero
//! contention between concurrent publishers, and between publishers and
//! mutators. Mutators serialize on a small writer mutex, layer the change
//! as a delta/tombstone on the frozen per-shard base engines (merging the
//! delta back once it outgrows a threshold), and flip the snapshot pointer;
//! old snapshots are reclaimed once every reader epoch has passed. See
//! DESIGN.md §12 for the full protocol. [`PublishMode::Locked`] keeps the
//! historical lock-the-shards publish path for comparison benchmarks and
//! for the lock-contention backpressure policies.
//!
//! Clock advancement is the one whole-broker operation: it acquires every
//! shard lock in ascending index order and advances all shards atomically
//! with respect to subscribes; the resulting expiries land in the same
//! single snapshot flip, so publishers see them atomically too.
//!
//! Consequences of shard-local state, documented rather than hidden:
//!
//! * Under RCU, a publish observes one immutable snapshot — it never sees a
//!   torn cut of a concurrent mutation. Mutations become visible in their
//!   serialization order, one flip each.
//! * Each shard's engine keeps shard-local optimizer statistics (the
//!   dynamic algorithm clusters each partition independently).
//! * Attribute/string interning lives in one shared [`Vocabulary`] so ids
//!   mean the same thing on every shard.
//!
//! This handle is the one way to parallelise matching: concurrent
//! publishers each match a whole event on their own thread against the same
//! snapshot.

use crate::broker::Broker;
use crate::durable::{BrokerError, DurabilityStatus};
use crate::rcu::{BrokerSnapshot, PublishMode, RcuStatus, ShardSnap};
use crate::time::{LogicalTime, Validity};
use parking_lot::{Mutex, MutexGuard};
use pubsub_core::{Backpressure, EngineKind, EngineStats, RcuCell, ViewScratch};
use pubsub_durability::{
    replication, DurabilityConfig, Lsn, Recovered, RecoveryReport, SnapshotState, Wal, WalError,
    WalOp,
};
use pubsub_types::metrics::Counter;
use pubsub_types::{
    AttrId, Event, ShardError, Subscription, SubscriptionId, Symbol, Value, Vocabulary,
};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Shards skipped by a publish because their lock was contended
/// ([`PublishMode::Locked`] with `Shed`/downgraded-`ErrorFast` only).
static SHED_SHARDS: Counter = Counter::new("broker.shared.shed_shards");
/// Snapshot pointer flips performed by the RCU writer path.
static SNAPSHOT_FLIPS: Counter = Counter::new("broker.shared.snapshot_flips");

/// Per-thread scratch for the publish paths: the [`ViewScratch`] the RCU
/// read path matches with, plus recycled per-shard result buffers for the
/// batch paths. Thread-local (not a shared pool), so concurrent publishers
/// never serialize on scratch acquisition.
#[derive(Default)]
struct PublishScratch {
    view: ViewScratch,
    shard_results: Vec<Vec<SubscriptionId>>,
}

thread_local! {
    static PUBLISH_SCRATCH: RefCell<PublishScratch> = RefCell::new(PublishScratch::default());
}

/// Relaxed aggregate of the per-thread [`ViewScratch`] engine stats folded
/// in after each RCU publish — the broker-level replacement for the
/// per-shard engine counters the locked path accumulates.
#[derive(Default)]
struct RcuStatsAgg {
    events: AtomicU64,
    phase1_nanos: AtomicU64,
    phase2_nanos: AtomicU64,
    checked: AtomicU64,
    matches: AtomicU64,
}

impl RcuStatsAgg {
    fn fold(&self, s: EngineStats) {
        if s.events == 0 {
            return;
        }
        self.events.fetch_add(s.events, Ordering::Relaxed);
        self.phase1_nanos
            .fetch_add(s.phase1_nanos, Ordering::Relaxed);
        self.phase2_nanos
            .fetch_add(s.phase2_nanos, Ordering::Relaxed);
        self.checked
            .fetch_add(s.subscriptions_checked, Ordering::Relaxed);
        self.matches.fetch_add(s.matches, Ordering::Relaxed);
    }

    fn load(&self) -> EngineStats {
        EngineStats {
            events: self.events.load(Ordering::Relaxed),
            phase1_nanos: self.phase1_nanos.load(Ordering::Relaxed),
            phase2_nanos: self.phase2_nanos.load(Ordering::Relaxed),
            subscriptions_checked: self.checked.load(Ordering::Relaxed),
            matches: self.matches.load(Ordering::Relaxed),
            ..EngineStats::default()
        }
    }
}

/// The durability attachment of a [`SharedBroker`].
///
/// Lock ordering across the whole handle is `writer < vocab < sessions <
/// shards (ascending) < wal`; every multi-lock path acquires in that order, so
/// adding the WAL mutex keeps the broker deadlock-free. Mutations append to
/// the WAL *before* applying in memory (write-ahead discipline): an op that
/// fails to log is never applied, so recovery can only ever observe a
/// prefix of the acknowledged history. The RCU snapshot flip happens *after*
/// the in-memory apply, still under the writer lock — so a publish can
/// trail the WAL (a logged subscription not yet visible to matching) but
/// never lead it.
struct DurableState {
    wal: Mutex<Wal>,
    /// Sticky read-only flag, set by the first failed durability write.
    degraded: AtomicBool,
    /// The error that caused degradation (first one wins).
    cause: Mutex<Option<WalError>>,
    /// What recovery did when this broker was opened.
    recovery: RecoveryReport,
}

impl DurableState {
    /// Refuses mutations once degraded.
    fn check(&self) -> Result<(), BrokerError> {
        if self.degraded.load(Ordering::Acquire) {
            let cause = self.cause.lock().clone().unwrap_or(WalError::Poisoned);
            Err(BrokerError::Degraded(cause))
        } else {
            Ok(())
        }
    }

    /// Flips the broker into read-only degraded mode, recording the first
    /// cause, and returns the error to surface to the caller.
    fn degrade(&self, e: WalError) -> BrokerError {
        let mut cause = self.cause.lock();
        if cause.is_none() {
            *cause = Some(e.clone());
        }
        drop(cause);
        self.degraded.store(true, Ordering::Release);
        BrokerError::Degraded(e)
    }
}

/// The durable token → subscription owner map.
///
/// Sessions exist so a network client can crash, reconnect (possibly to a
/// restarted server or a promoted replica) and find its subscriptions
/// intact. The table is broker state, not server state: every change is
/// logged through the WAL on durable brokers (and therefore replicates),
/// and in-memory brokers keep the same table without the log, so the
/// server's registry behaves identically in both modes.
///
/// The `owner` reverse map serves two jobs: O(1) ownership checks, and
/// **steal semantics** on bind replay — a leader crash between a
/// `SessionBind` and its paired `Subscribe` leaves the peeked id unconsumed,
/// so a later run may reissue it to another session; replaying both binds
/// must leave the id owned by the later (winning) session only.
#[derive(Debug, Clone)]
struct SessionTable {
    /// One past the largest token ever issued. Tokens start at 1: 0 is the
    /// wire protocol's "new session, please" sentinel.
    next_token: u64,
    sessions: HashMap<u64, BTreeSet<u32>>,
    /// Reverse map: subscription id → owning token.
    owner: HashMap<u32, u64>,
}

impl SessionTable {
    fn new() -> Self {
        SessionTable {
            next_token: 1,
            sessions: HashMap::new(),
            owner: HashMap::new(),
        }
    }

    /// Registers `token`, bumping the high-water so it is never reissued.
    /// Idempotent under replay of a log that was recovered with skips.
    fn create(&mut self, token: u64) {
        self.sessions.entry(token).or_default();
        self.next_token = self.next_token.max(token + 1);
    }

    fn contains(&self, token: u64) -> bool {
        self.sessions.contains_key(&token)
    }

    /// Binds `id` to `token`, stealing it from any prior owner. A bind to a
    /// token the table does not hold is dropped (only reachable through a
    /// log recovered under the skip policy, where the `SessionCreate` may
    /// have been lost).
    fn bind(&mut self, token: u64, id: u32) {
        if !self.sessions.contains_key(&token) {
            return;
        }
        if let Some(prev) = self.owner.insert(id, token) {
            if prev != token {
                if let Some(set) = self.sessions.get_mut(&prev) {
                    set.remove(&id);
                }
            }
        }
        self.sessions.entry(token).or_default().insert(id);
    }

    /// Unbinds `id` from `token` (no-op if not bound there).
    fn release(&mut self, token: u64, id: u32) {
        if let Some(set) = self.sessions.get_mut(&token) {
            if set.remove(&id) {
                self.owner.remove(&id);
            }
        }
    }

    /// Removes `token`'s session, returning its bound ids (sorted).
    fn reap(&mut self, token: u64) -> Vec<u32> {
        let Some(set) = self.sessions.remove(&token) else {
            return Vec::new();
        };
        for id in &set {
            self.owner.remove(id);
        }
        set.into_iter().collect()
    }

    /// The token the next [`SessionTable::create`] should use.
    fn peek_next_token(&self) -> u64 {
        self.next_token
    }

    /// The session owning `id`, if any.
    fn owner_of(&self, id: u32) -> Option<u64> {
        self.owner.get(&id).copied()
    }

    /// Drops bindings whose subscription is not alive in `is_live`. This is
    /// the one deterministic repair recovery needs: a crash between a
    /// `SessionBind` and its `Subscribe` (or between an `Unsubscribe` and
    /// its `SessionRelease`) leaves a binding pointing at a dead id — never
    /// the reverse, because binds are logged before subscribes and
    /// unsubscribes before releases. Run **only** on a writable broker
    /// (leader open, promotion): a follower's dangling binding may simply
    /// be a `Subscribe` the stream has not delivered yet.
    fn prune_dangling(&mut self, mut is_live: impl FnMut(u32) -> bool) -> usize {
        let dangling: Vec<(u32, u64)> = self
            .owner
            .iter()
            .filter(|(id, _)| !is_live(**id))
            .map(|(id, token)| (*id, *token))
            .collect();
        for (id, token) in &dangling {
            self.owner.remove(id);
            if let Some(set) = self.sessions.get_mut(token) {
                set.remove(id);
            }
        }
        dangling.len()
    }

    /// The table as sorted `(token, ids)` rows (snapshot encoding order).
    fn to_rows(&self) -> Vec<(u64, Vec<u32>)> {
        let mut rows: Vec<(u64, Vec<u32>)> = self
            .sessions
            .iter()
            .map(|(token, ids)| (*token, ids.iter().copied().collect()))
            .collect();
        rows.sort_by_key(|(token, _)| *token);
        rows
    }

    fn from_snapshot(next_token: u64, rows: Vec<(u64, Vec<u32>)>) -> Self {
        let mut table = SessionTable::new();
        table.next_token = next_token.max(1);
        for (token, ids) in rows {
            table.create(token);
            for id in ids {
                table.bind(token, id);
            }
        }
        table
    }
}

struct Inner {
    shards: Vec<Mutex<Broker>>,
    vocab: Mutex<Vocabulary>,
    /// Round-robin cursor distributing new subscriptions over shards.
    next_shard: AtomicUsize,
    /// Overload policy of the publish paths (subscribe/unsubscribe/clock
    /// operations always block: they must not lose data). Only meaningful
    /// in [`PublishMode::Locked`]; RCU publishes never contend.
    backpressure: Backpressure,
    /// Write-ahead log plus degraded-mode state; `None` for the in-memory
    /// broker of [`SharedBroker::new`].
    durable: Option<DurableState>,
    /// `true` while this broker is a replication follower: its log is a
    /// replica of a remote leader's, so local mutations are refused (they
    /// would fork the history) and state changes arrive only through
    /// [`SharedBroker::apply_replicated`]. Cleared by
    /// [`SharedBroker::promote`].
    follower: AtomicBool,
    /// Engine kind, needed to build fresh frozen bases at merge time.
    kind: EngineKind,
    /// How publishes execute (RCU snapshots vs. per-shard locks).
    mode: PublishMode,
    /// The durable session table (token → owned subscription ids). Kept on
    /// every broker — in-memory brokers just skip the logging — so the net
    /// server's registry has one source of truth in all modes. Sits between
    /// `vocab` and the shard locks in the global lock order:
    /// `writer < vocab < sessions < shards < wal`.
    sessions: Mutex<SessionTable>,
    /// The writer-side authoritative next snapshot (first in the lock
    /// order: `writer < vocab < sessions < shards < wal`). Mutators update
    /// it in place and publish a clone through `published`.
    writer: Mutex<Vec<ShardSnap>>,
    /// The epoch-protected snapshot the RCU publish path reads.
    published: RcuCell<BrokerSnapshot>,
    /// Snapshot flips, mirrored outside the metrics feature so `stats` can
    /// always report it.
    flips: AtomicU64,
    /// Aggregated read-path engine stats (RCU publishes bypass the shard
    /// engines, so their counters live here instead).
    rcu_stats: RcuStatsAgg,
}

/// Captures the full broker state for a point-in-time snapshot. Caller
/// holds the vocabulary lock, the session lock and every shard lock, so the
/// state is a consistent cut.
fn build_snapshot_state(
    vocab: &Vocabulary,
    sessions: &SessionTable,
    shards: &[MutexGuard<'_, Broker>],
) -> SnapshotState {
    // Interners assign dense sequential ids; storing names in id order makes
    // re-interning them in order reproduce identical ids at recovery.
    let mut attrs: Vec<(AttrId, &str)> = vocab.attrs.iter().collect();
    attrs.sort_by_key(|(id, _)| id.0);
    let mut strings: Vec<(Symbol, &str)> = vocab.strings.iter().collect();
    strings.sort_by_key(|(sym, _)| sym.0);
    let mut subs: Vec<(SubscriptionId, Subscription, Validity)> = Vec::new();
    for shard in shards {
        subs.extend(
            shard
                .live_subscriptions()
                .map(|(id, sub, validity)| (id, sub.clone(), validity)),
        );
    }
    subs.sort_by_key(|(id, _, _)| id.0);
    SnapshotState {
        now: shards[0].now(),
        high_water_id: shards
            .iter()
            .map(|shard| shard.assigned_id_high_water())
            .max()
            .unwrap_or(0),
        attrs: attrs
            .into_iter()
            .map(|(_, name)| name.to_string())
            .collect(),
        strings: strings.into_iter().map(|(_, s)| s.to_string()).collect(),
        subs,
        next_token: sessions.peek_next_token(),
        sessions: sessions.to_rows(),
    }
}

/// Rebuilds the in-memory state (vocabulary + shard brokers) that a
/// recovered snapshot-plus-log-tail describes. Shared by durable open,
/// follower open, and mid-run snapshot installation on a follower.
fn rebuild_state(
    kind: EngineKind,
    n: usize,
    snapshot: Option<SnapshotState>,
    ops: Vec<(Lsn, WalOp)>,
) -> (Vocabulary, Vec<Broker>, SessionTable) {
    let mut vocab = Vocabulary::new();
    let mut sessions = SessionTable::new();
    let mut brokers: Vec<Broker> = (0..n)
        .map(|i| {
            Broker::new(kind)
                .with_id_lane(i as u32, n as u32)
                .without_event_store()
        })
        .collect();

    if let Some(snap) = snapshot {
        // Re-interning in stored (id) order reproduces identical ids,
        // so AttrId/Symbol references inside subscriptions stay valid.
        for name in &snap.attrs {
            vocab.attr(name);
        }
        for s in &snap.strings {
            vocab.string(s);
        }
        let mut per_shard: Vec<Vec<(SubscriptionId, Subscription, Validity)>> =
            (0..n).map(|_| Vec::new()).collect();
        for (id, sub, validity) in snap.subs {
            per_shard[id.0 as usize % n].push((id, sub, validity));
        }
        for (broker, entries) in brokers.iter_mut().zip(per_shard) {
            broker.restore(entries, snap.now);
        }
        for broker in &mut brokers {
            // Ids assigned before the snapshot but already retired are
            // absent from it; never reissue them to new subscribers.
            broker.reserve_ids_below(snap.high_water_id);
        }
        sessions = SessionTable::from_snapshot(snap.next_token, snap.sessions);
    }

    // Replay the WAL tail. Per-shard op order matches the original apply
    // order because live mutations append under the owning shard's lock
    // (clock advances under all of them).
    for (_lsn, op) in ops {
        match op {
            WalOp::InternAttr(name) => {
                vocab.attr(&name);
            }
            WalOp::InternString(s) => {
                vocab.string(&s);
            }
            WalOp::Subscribe { id, sub, validity } => {
                brokers[id.0 as usize % n].restore_subscription(id, sub, validity);
            }
            WalOp::Unsubscribe(id) => {
                brokers[id.0 as usize % n].unsubscribe(id);
            }
            WalOp::AdvanceTo(t) => {
                for broker in brokers.iter_mut() {
                    // `t == now` advances are real (they expire stale
                    // validities); the `<` guard only tolerates logs
                    // recovered under the skip policy, where a surviving
                    // op may predate the clock.
                    if t >= broker.now() {
                        broker.advance_to(t);
                    }
                }
            }
            WalOp::SessionCreate { token } => sessions.create(token),
            WalOp::SessionBind { token, id } => sessions.bind(token, id.0),
            WalOp::SessionRelease { token, id } => sessions.release(token, id.0),
            WalOp::SessionReap { token } => {
                // The reaped session's unsubscribes are re-derived from the
                // table, mirroring how AdvanceTo re-derives expiries.
                for id in sessions.reap(token) {
                    brokers[id as usize % n].unsubscribe(SubscriptionId(id));
                }
            }
        }
    }
    (vocab, brokers, sessions)
}

/// A cloneable, thread-safe broker handle with per-shard locking.
#[derive(Clone)]
pub struct SharedBroker {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for SharedBroker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedBroker")
            .field("shards", &self.shard_count())
            .field("subscriptions", &self.subscription_count())
            .finish()
    }
}

impl SharedBroker {
    /// Creates a broker partitioned over `shards` independent engines of the
    /// given kind (clamped to at least 1). Shard brokers run without an
    /// event store: this handle is the fire-and-forget publish surface.
    pub fn new(kind: EngineKind, shards: usize) -> Self {
        Self::with_backpressure(kind, shards, Backpressure::Block)
    }

    /// Like [`SharedBroker::new`] with an explicit overload policy for the
    /// publish paths: `Block` waits for each shard lock (lossless), `Shed`
    /// skips shards whose lock is contended (bounded latency, possibly
    /// missing matches), and `ErrorFast` makes
    /// [`SharedBroker::try_publish_into`] fail with
    /// [`ShardError::Overloaded`] on the first contended shard. The
    /// infallible publish methods degrade `ErrorFast` to `Shed`.
    ///
    /// The policy only distinguishes behaviour in [`PublishMode::Locked`]:
    /// the default RCU mode never takes a lock on the publish path, so
    /// every policy behaves like `Block` minus the blocking — publishes
    /// always see every shard and never shed, error, or wait.
    pub fn with_backpressure(kind: EngineKind, shards: usize, backpressure: Backpressure) -> Self {
        Self::with_publish_mode(kind, shards, backpressure, PublishMode::default())
    }

    /// [`SharedBroker::with_backpressure`] with an explicit [`PublishMode`]
    /// — `Locked` restores the historical lock-the-shards publish path
    /// (required for the lock-contention semantics of `Shed`/`ErrorFast`,
    /// and used by the contention benchmarks as the baseline).
    pub fn with_publish_mode(
        kind: EngineKind,
        shards: usize,
        backpressure: Backpressure,
        mode: PublishMode,
    ) -> Self {
        let n = shards.max(1);
        let shards: Vec<Mutex<Broker>> = (0..n)
            .map(|i| {
                Mutex::new(
                    Broker::new(kind)
                        .with_id_lane(i as u32, n as u32)
                        .without_event_store(),
                )
            })
            .collect();
        let snaps: Vec<ShardSnap> = (0..n).map(|_| ShardSnap::empty(kind)).collect();
        Self {
            inner: Arc::new(Inner {
                shards,
                vocab: Mutex::new(Vocabulary::new()),
                sessions: Mutex::new(SessionTable::new()),
                next_shard: AtomicUsize::new(0),
                backpressure,
                durable: None,
                follower: AtomicBool::new(false),
                kind,
                mode,
                published: RcuCell::new(Arc::new(BrokerSnapshot {
                    shards: snaps.clone(),
                })),
                writer: Mutex::new(snaps),
                flips: AtomicU64::new(0),
                rcu_stats: RcuStatsAgg::default(),
            }),
        }
    }

    /// Opens (or creates) a durable broker backed by a segmented WAL in
    /// `dir`, with the default [`DurabilityConfig`]. Recovers any state a
    /// previous process logged there: the newest decodable snapshot plus the
    /// surviving WAL tail, with a torn final record truncated away. Returns
    /// the broker and a [`RecoveryReport`] describing what recovery did.
    pub fn open_durable(
        kind: EngineKind,
        shards: usize,
        dir: impl AsRef<Path>,
    ) -> Result<(Self, RecoveryReport), BrokerError> {
        Self::open_durable_with(
            kind,
            shards,
            Backpressure::Block,
            dir,
            DurabilityConfig::default(),
        )
    }

    /// [`SharedBroker::open_durable`] with an explicit overload policy and
    /// durability configuration (segment size, fsync cadence, corruption
    /// policy, automatic snapshot threshold).
    ///
    /// The shard count may differ from the one the log was written under:
    /// ids carry their own identity (`shard = id mod N`), so recovery
    /// re-partitions the subscription set over the new shard count.
    pub fn open_durable_with(
        kind: EngineKind,
        shards: usize,
        backpressure: Backpressure,
        dir: impl AsRef<Path>,
        config: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport), BrokerError> {
        Self::open_durable_inner(kind, shards, backpressure, dir, config, true)
    }

    /// The shared open path. `prune_sessions` runs the dangling-binding
    /// repair (a binding whose subscription is dead, left by a crash
    /// between the two records of a bound subscribe/unsubscribe pair).
    /// Leaders prune; followers must not — their dangling binding may be a
    /// `Subscribe` the replication stream has not delivered yet, and
    /// pruning it would orphan the subscription when it arrives. Promotion
    /// runs the same repair once the stream is sealed.
    fn open_durable_inner(
        kind: EngineKind,
        shards: usize,
        backpressure: Backpressure,
        dir: impl AsRef<Path>,
        config: DurabilityConfig,
        prune_sessions: bool,
    ) -> Result<(Self, RecoveryReport), BrokerError> {
        let n = shards.max(1);
        let (wal, recovered) = Wal::open(dir, config).map_err(BrokerError::Recovery)?;
        let Recovered {
            snapshot,
            ops,
            report,
        } = recovered;
        let (vocab, brokers, mut sessions) = rebuild_state(kind, n, snapshot, ops);
        if prune_sessions {
            sessions.prune_dangling(|id| brokers[id as usize % n].contains(SubscriptionId(id)));
        }

        // Freeze the recovered state as the first published snapshot, so
        // lock-free publishes see the pre-crash subscription set from the
        // first event onward.
        let snaps: Vec<ShardSnap> = brokers
            .iter()
            .map(|b| {
                let mut snap = ShardSnap::empty(kind);
                snap.rebuild_from(b, kind);
                snap
            })
            .collect();
        let broker = Self {
            inner: Arc::new(Inner {
                shards: brokers.into_iter().map(Mutex::new).collect(),
                vocab: Mutex::new(vocab),
                sessions: Mutex::new(sessions),
                next_shard: AtomicUsize::new(0),
                backpressure,
                durable: Some(DurableState {
                    wal: Mutex::new(wal),
                    degraded: AtomicBool::new(false),
                    cause: Mutex::new(None),
                    recovery: report,
                }),
                follower: AtomicBool::new(false),
                kind,
                mode: PublishMode::default(),
                published: RcuCell::new(Arc::new(BrokerSnapshot {
                    shards: snaps.clone(),
                })),
                writer: Mutex::new(snaps),
                flips: AtomicU64::new(0),
                rcu_stats: RcuStatsAgg::default(),
            }),
        };
        Ok((broker, report))
    }

    /// Opens a **replication follower**: a durable broker whose WAL
    /// directory replicates a remote leader's log. The broker serves
    /// matching (publishes are read-only) but refuses every local mutation
    /// with [`BrokerError::Follower`]; state changes arrive exclusively via
    /// [`SharedBroker::apply_replicated`] /
    /// [`SharedBroker::install_replicated_snapshot`], and
    /// [`SharedBroker::promote`] turns it into a writable leader.
    ///
    /// The directory is branded with a follower marker file. A directory
    /// holding durable history written by a *non*-follower is refused
    /// ([`BrokerError::ForeignHistory`]): tailing a leader into it would
    /// interleave two unrelated logs.
    pub fn open_follower(
        kind: EngineKind,
        shards: usize,
        dir: impl AsRef<Path>,
        config: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport), BrokerError> {
        let dir = dir.as_ref();
        if replication::dir_has_history(dir).map_err(BrokerError::Recovery)?
            && !replication::is_follower_dir(dir)
        {
            return Err(BrokerError::ForeignHistory(dir.to_path_buf()));
        }
        replication::mark_follower(dir).map_err(BrokerError::Replication)?;
        // `prune_sessions: false` — see `open_durable_inner`.
        let (broker, report) =
            Self::open_durable_inner(kind, shards, Backpressure::Block, dir, config, false)?;
        broker.inner.follower.store(true, Ordering::Release);
        Ok((broker, report))
    }

    /// The configured overload policy.
    pub fn backpressure(&self) -> Backpressure {
        self.inner.backpressure
    }

    /// Warns when this broker's publish-mode/backpressure pairing is
    /// inert — `Shed`/`ErrorFast` under the default [`PublishMode::Rcu`]
    /// silently never fire, because lock-free publishes have no contention
    /// to police (see [`crate::rcu::publish_config_warning`]). Callers
    /// constructing a broker from user configuration should surface this.
    pub fn config_warning(&self) -> Option<&'static str> {
        crate::rcu::publish_config_warning(self.inner.mode, self.inner.backpressure)
    }

    /// Creates a broker with one shard per available hardware thread.
    pub fn with_default_shards(kind: EngineKind) -> Self {
        Self::new(kind, pubsub_core::default_shards())
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The shard owning `id` (ids are striped across shards).
    fn shard_of(&self, id: SubscriptionId) -> usize {
        id.0 as usize % self.inner.shards.len()
    }

    // ---- RCU snapshot plumbing -------------------------------------------

    /// Takes the writer lock when running in RCU mode (`None` in locked
    /// mode, where publishes read the shard brokers directly). First lock in
    /// the global order `writer < vocab < shards < wal`.
    fn writer_lock(&self) -> Option<MutexGuard<'_, Vec<ShardSnap>>> {
        (self.inner.mode == PublishMode::Rcu).then(|| self.inner.writer.lock())
    }

    /// Publishes the writer state as a new immutable snapshot. Caller holds
    /// the writer lock, which serializes flips.
    fn flip(&self, snaps: &[ShardSnap]) {
        self.inner.published.publish(Arc::new(BrokerSnapshot {
            shards: snaps.to_vec(),
        }));
        self.inner.flips.fetch_add(1, Ordering::Relaxed);
        SNAPSHOT_FLIPS.inc();
    }

    /// Folds a read's scratch stats into the broker-level aggregate.
    fn fold_stats(&self, view: &mut ViewScratch) {
        self.inner.rcu_stats.fold(view.stats);
        view.stats.reset();
    }

    /// The configured publish mode.
    pub fn publish_mode(&self) -> PublishMode {
        self.inner.mode
    }

    /// Point-in-time view of the RCU machinery: flips, epoch, deferred
    /// reclamation and pinned readers.
    pub fn rcu_status(&self) -> RcuStatus {
        RcuStatus {
            mode: self.inner.mode,
            flips: self.inner.flips.load(Ordering::Relaxed),
            epoch: self.inner.published.epoch(),
            retired: self.inner.published.retired_len(),
            active_readers: self.inner.published.active_readers(),
        }
    }

    /// Aggregated engine stats of the RCU publish path. The lock-free reads
    /// bypass the shard engines (their own counters only see writer-side
    /// traffic), so per-event counts and phase timings are folded in here
    /// from every publishing thread's scratch.
    pub fn rcu_stats(&self) -> EngineStats {
        self.inner.rcu_stats.load()
    }

    /// Merges every shard's pending delta/tombstones into fresh frozen
    /// bases and drains reclaimable snapshot garbage. Publishes stay
    /// lock-free throughout. No-op in locked mode. Useful before latency
    /// measurements (a merged snapshot has no brute-forced delta) and in
    /// quiet periods.
    pub fn compact(&self) {
        let Some(mut writer) = self.writer_lock() else {
            return;
        };
        let mut changed = false;
        for (i, snap) in writer.iter_mut().enumerate() {
            if snap.has_pending() {
                let broker = self.inner.shards[i].lock();
                snap.rebuild_from(&broker, self.inner.kind);
                changed = true;
            }
        }
        if changed {
            self.flip(&writer);
        }
        drop(writer);
        self.inner.published.reclaim();
    }

    // ---- vocabulary (shared across shards) -------------------------------

    /// Interns an attribute name in the shared vocabulary.
    ///
    /// On a durable broker a *new* name is logged before being interned, so
    /// recovery reassigns the same [`AttrId`]. Interning stays infallible:
    /// if the log write fails the broker degrades (mutations start refusing)
    /// but the id is still returned — safe because a degraded broker never
    /// logs another op that could reference the unlogged id.
    pub fn attr(&self, name: &str) -> AttrId {
        let mut vocab = self.inner.vocab.lock();
        if let Some(id) = vocab.attrs.get(name) {
            return id;
        }
        assert!(
            !self.is_follower(),
            "interning a new name on a replication follower would fork its \
             vocabulary from the leader's; use lookup_attr / read_vocab"
        );
        self.log_intern(|| WalOp::InternAttr(name.to_string()));
        vocab.attr(name)
    }

    /// Interns a string value in the shared vocabulary (durable brokers log
    /// new strings first — see [`SharedBroker::attr`]).
    pub fn string(&self, s: &str) -> Value {
        let mut vocab = self.inner.vocab.lock();
        if let Some(sym) = vocab.strings.get(s) {
            return Value::Str(sym);
        }
        assert!(
            !self.is_follower(),
            "interning a new string on a replication follower would fork its \
             vocabulary from the leader's; use lookup_string / read_vocab"
        );
        self.log_intern(|| WalOp::InternString(s.to_string()));
        vocab.string(s)
    }

    /// Resolves an attribute name without interning — the publish-side
    /// lookup a replication follower must use: a name the leader never
    /// interned cannot appear in any subscription, so an event pair naming
    /// it can simply be dropped (it can match nothing).
    pub fn lookup_attr(&self, name: &str) -> Option<AttrId> {
        self.inner.vocab.lock().attrs.get(name)
    }

    /// Resolves a string value without interning (see
    /// [`SharedBroker::lookup_attr`] for why followers need this).
    pub fn lookup_string(&self, s: &str) -> Option<Value> {
        self.inner.vocab.lock().strings.get(s).map(Value::Str)
    }

    /// Runs `f` with read-only access to the shared vocabulary. Safe on
    /// followers (cannot intern, so cannot fork the replicated history).
    pub fn read_vocab<R>(&self, f: impl FnOnce(&Vocabulary) -> R) -> R {
        f(&self.inner.vocab.lock())
    }

    /// Logs an interning op on durable brokers, degrading silently on
    /// failure. Caller holds the vocabulary lock (lock order: vocab < wal).
    fn log_intern(&self, op: impl FnOnce() -> WalOp) {
        if let Some(durable) = &self.inner.durable {
            if !durable.degraded.load(Ordering::Acquire) {
                if let Err(e) = durable.wal.lock().append(&op()) {
                    let _ = durable.degrade(e);
                }
            }
        }
    }

    /// Runs `f` with mutable access to the shared vocabulary — the escape
    /// hatch for parsers that intern whole expressions at once. On durable
    /// brokers every interner entry `f` adds is logged afterwards (interner
    /// ids are dense and sequential, so the additions are exactly the id
    /// range grown during the call), with the same silent-degrade contract
    /// as [`SharedBroker::attr`].
    pub fn with_vocab<R>(&self, f: impl FnOnce(&mut Vocabulary) -> R) -> R {
        let mut vocab = self.inner.vocab.lock();
        let attrs_before = vocab.attrs.universe();
        let strings_before = vocab.strings.len();
        let out = f(&mut vocab);
        assert!(
            !self.is_follower()
                || (vocab.attrs.universe() == attrs_before
                    && vocab.strings.len() == strings_before),
            "interning new entries on a replication follower would fork its \
             vocabulary from the leader's; use read_vocab"
        );
        for raw in attrs_before..vocab.attrs.universe() {
            let name = vocab.attrs.name(AttrId(raw as u32)).to_string();
            self.log_intern(move || WalOp::InternAttr(name));
        }
        for raw in strings_before..vocab.strings.len() {
            let s = vocab.strings.resolve(Symbol(raw as u32)).to_string();
            self.log_intern(move || WalOp::InternString(s));
        }
        out
    }

    // ---- subscriptions (lock one shard) ----------------------------------

    /// Registers a subscription, locking only the shard that receives it
    /// (round-robin assignment keeps shards balanced).
    ///
    /// # Panics
    /// Panics if this is a durable broker in degraded mode; use
    /// [`SharedBroker::try_subscribe`] to handle degradation gracefully.
    pub fn subscribe(&self, sub: Subscription, validity: Validity) -> SubscriptionId {
        self.try_subscribe(sub, validity)
            .expect("subscribe failed: durable broker is degraded")
    }

    /// Registers a subscription, logging it to the WAL first on durable
    /// brokers. Fails with [`BrokerError::Degraded`] when the broker has
    /// degraded to read-only mode (a previous durability write failed), or
    /// degrades it now if this op's log write fails — in which case the
    /// subscription is *not* registered.
    pub fn try_subscribe(
        &self,
        sub: Subscription,
        validity: Validity,
    ) -> Result<SubscriptionId, BrokerError> {
        self.check_writable()?;
        let mut writer = self.writer_lock();
        let shard = self.inner.next_shard.fetch_add(1, Ordering::Relaxed) % self.shard_count();
        let mut broker = self.inner.shards[shard].lock();
        if let Some(durable) = &self.inner.durable {
            durable.check()?;
            // Log under the shard lock so this shard's WAL order equals its
            // apply order; the id is peeked (not consumed) so a failed
            // append leaves no gap.
            let id = broker.peek_next_id();
            let op = WalOp::Subscribe {
                id,
                sub: sub.clone(),
                validity,
            };
            if let Err(e) = durable.wal.lock().append(&op) {
                return Err(durable.degrade(e));
            }
        }
        let snap_sub = writer.is_some().then(|| Arc::new(sub.clone()));
        let id = broker.subscribe(sub, validity);
        if let Some(snaps) = writer.as_deref_mut() {
            snaps[shard].note_insert(id, snap_sub.expect("built above"), &broker, self.inner.kind);
            drop(broker);
            self.flip(snaps);
        }
        Ok(id)
    }

    /// Removes a subscription, locking only its owning shard.
    ///
    /// # Panics
    /// Panics if this is a durable broker in degraded mode; use
    /// [`SharedBroker::try_unsubscribe`] to handle degradation gracefully.
    pub fn unsubscribe(&self, id: SubscriptionId) -> bool {
        self.try_unsubscribe(id)
            .expect("unsubscribe failed: durable broker is degraded")
    }

    /// Removes a subscription, logging the removal first on durable brokers.
    /// A miss (unknown or already-removed id) returns `Ok(false)` without
    /// logging anything.
    pub fn try_unsubscribe(&self, id: SubscriptionId) -> Result<bool, BrokerError> {
        self.check_writable()?;
        let mut writer = self.writer_lock();
        let shard = self.shard_of(id);
        let mut broker = self.inner.shards[shard].lock();
        if let Some(durable) = &self.inner.durable {
            durable.check()?;
            if !broker.contains(id) {
                return Ok(false);
            }
            if let Err(e) = durable.wal.lock().append(&WalOp::Unsubscribe(id)) {
                return Err(durable.degrade(e));
            }
        }
        let removed = broker.unsubscribe(id);
        if removed {
            if let Some(snaps) = writer.as_deref_mut() {
                snaps[shard].note_remove(id, &broker, self.inner.kind);
                drop(broker);
                self.flip(snaps);
            }
        }
        Ok(removed)
    }

    /// Number of live subscriptions across all shards.
    pub fn subscription_count(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.lock().subscription_count())
            .sum()
    }

    /// Live subscriptions per shard.
    pub fn shard_subscription_counts(&self) -> Vec<usize> {
        self.inner
            .shards
            .iter()
            .map(|s| s.lock().subscription_count())
            .collect()
    }

    // ---- durable sessions ------------------------------------------------

    /// Creates a session, returning its resume token (tokens start at 1; 0
    /// is the wire protocol's "new session" sentinel and is never issued).
    /// On durable brokers the `SessionCreate` record is logged before the
    /// table changes, so a restarted — or promoted — broker reissues
    /// neither this token nor any before it.
    pub fn try_session_create(&self) -> Result<u64, BrokerError> {
        self.check_writable()?;
        let mut sessions = self.inner.sessions.lock();
        let token = sessions.peek_next_token();
        if let Some(durable) = &self.inner.durable {
            durable.check()?;
            if let Err(e) = durable.wal.lock().append(&WalOp::SessionCreate { token }) {
                return Err(durable.degrade(e));
            }
        }
        sessions.create(token);
        Ok(token)
    }

    /// Registers a subscription owned by session `token`
    /// ([`BrokerError::UnknownSession`] if the token was never issued or
    /// its session was reaped). On durable brokers the pair is logged as
    /// `SessionBind` *then* `Subscribe` under one WAL hold: a crash between
    /// the two leaves a dangling binding (repaired at the next writable
    /// open), never an ownerless live subscription.
    pub fn try_subscribe_bound(
        &self,
        token: u64,
        sub: Subscription,
        validity: Validity,
    ) -> Result<SubscriptionId, BrokerError> {
        self.check_writable()?;
        let mut writer = self.writer_lock();
        let mut sessions = self.inner.sessions.lock();
        if !sessions.contains(token) {
            return Err(BrokerError::UnknownSession(token));
        }
        let shard = self.inner.next_shard.fetch_add(1, Ordering::Relaxed) % self.shard_count();
        let mut broker = self.inner.shards[shard].lock();
        if let Some(durable) = &self.inner.durable {
            durable.check()?;
            let id = broker.peek_next_id();
            let mut wal = durable.wal.lock();
            if let Err(e) = wal.append(&WalOp::SessionBind { token, id }) {
                return Err(durable.degrade(e));
            }
            let op = WalOp::Subscribe {
                id,
                sub: sub.clone(),
                validity,
            };
            if let Err(e) = wal.append(&op) {
                // The bind made it to disk alone; recovery's prune repairs
                // it. Nothing was applied in memory.
                return Err(durable.degrade(e));
            }
        }
        let snap_sub = writer.is_some().then(|| Arc::new(sub.clone()));
        let id = broker.subscribe(sub, validity);
        sessions.bind(token, id.0);
        if let Some(snaps) = writer.as_deref_mut() {
            snaps[shard].note_insert(id, snap_sub.expect("built above"), &broker, self.inner.kind);
            drop(broker);
            self.flip(snaps);
        }
        Ok(id)
    }

    /// Removes a subscription owned by session `token`. Returns `Ok(false)`
    /// without logging when `id` is not currently bound to that session
    /// (idempotent, mirroring [`SharedBroker::try_unsubscribe`]); fails
    /// with [`BrokerError::UnknownSession`] when the session itself is
    /// gone. On durable brokers the pair is logged `Unsubscribe` *then*
    /// `SessionRelease` — the crash window again leaves only a dangling
    /// binding.
    pub fn try_unsubscribe_bound(
        &self,
        token: u64,
        id: SubscriptionId,
    ) -> Result<bool, BrokerError> {
        self.check_writable()?;
        let mut writer = self.writer_lock();
        let mut sessions = self.inner.sessions.lock();
        if !sessions.contains(token) {
            return Err(BrokerError::UnknownSession(token));
        }
        if sessions.owner_of(id.0) != Some(token) {
            return Ok(false);
        }
        let shard = self.shard_of(id);
        let mut broker = self.inner.shards[shard].lock();
        if let Some(durable) = &self.inner.durable {
            durable.check()?;
            if !broker.contains(id) {
                // A binding to a dead id cannot arise at runtime (only from
                // a torn log, repaired at open); drop it defensively.
                sessions.release(token, id.0);
                return Ok(false);
            }
            let mut wal = durable.wal.lock();
            if let Err(e) = wal.append(&WalOp::Unsubscribe(id)) {
                return Err(durable.degrade(e));
            }
            if let Err(e) = wal.append(&WalOp::SessionRelease { token, id }) {
                return Err(durable.degrade(e));
            }
        }
        let removed = broker.unsubscribe(id);
        sessions.release(token, id.0);
        if removed {
            if let Some(snaps) = writer.as_deref_mut() {
                snaps[shard].note_remove(id, &broker, self.inner.kind);
                drop(broker);
                self.flip(snaps);
            }
        }
        Ok(removed)
    }

    /// Reaps a session: logs **one** `SessionReap` record, removes the
    /// session from the table, and unsubscribes every subscription it
    /// owned (returned sorted). The per-subscription unsubscribes are not
    /// logged — replay re-derives them from the table, exactly as
    /// `AdvanceTo` re-derives expiries — so reaping a thousand-subscription
    /// session costs one record. All removals land in a single RCU flip.
    pub fn try_session_reap(&self, token: u64) -> Result<Vec<SubscriptionId>, BrokerError> {
        self.check_writable()?;
        let mut writer = self.writer_lock();
        let mut sessions = self.inner.sessions.lock();
        if !sessions.contains(token) {
            return Err(BrokerError::UnknownSession(token));
        }
        if let Some(durable) = &self.inner.durable {
            durable.check()?;
            if let Err(e) = durable.wal.lock().append(&WalOp::SessionReap { token }) {
                return Err(durable.degrade(e));
            }
        }
        let ids: Vec<SubscriptionId> = sessions
            .reap(token)
            .into_iter()
            .map(SubscriptionId)
            .collect();
        for &id in &ids {
            let shard = self.shard_of(id);
            let mut broker = self.inner.shards[shard].lock();
            if broker.unsubscribe(id) {
                if let Some(snaps) = writer.as_deref_mut() {
                    snaps[shard].note_remove(id, &broker, self.inner.kind);
                }
            }
        }
        if !ids.is_empty() {
            if let Some(snaps) = writer.as_deref() {
                self.flip(snaps);
            }
        }
        Ok(ids)
    }

    /// The subscription ids bound to session `token` (sorted), or `None`
    /// for an unknown/reaped token. Works on followers — this is how a
    /// server hydrates its registry from replicated session state.
    pub fn session_subscriptions(&self, token: u64) -> Option<Vec<SubscriptionId>> {
        let sessions = self.inner.sessions.lock();
        sessions
            .sessions
            .get(&token)
            .map(|set| set.iter().map(|&id| SubscriptionId(id)).collect())
    }

    /// Every durable session as sorted `(token, subscription ids)` rows —
    /// the server's startup hydration source.
    pub fn session_rows(&self) -> Vec<(u64, Vec<SubscriptionId>)> {
        self.inner
            .sessions
            .lock()
            .to_rows()
            .into_iter()
            .map(|(token, ids)| (token, ids.into_iter().map(SubscriptionId).collect()))
            .collect()
    }

    /// Number of live sessions in the table.
    pub fn session_count(&self) -> usize {
        self.inner.sessions.lock().sessions.len()
    }

    // ---- events (lock one shard at a time) -------------------------------

    /// Publishes an event, returning the matched subscriptions sorted by id.
    pub fn publish(&self, event: &Event) -> Vec<SubscriptionId> {
        let mut out = Vec::new();
        self.publish_into(event, &mut out);
        out
    }

    /// Publishes an event, appending the matched ids to `out` (sorted by id
    /// within this publish). Locks one shard at a time and allocates nothing
    /// beyond what `out` needs.
    ///
    /// Infallible: under [`Backpressure::Shed`] (or `ErrorFast`, which this
    /// path degrades to `Shed`) contended shards are skipped and counted,
    /// and the result may be missing their matches.
    pub fn publish_into(&self, event: &Event, out: &mut Vec<SubscriptionId>) {
        let _ = self.publish_policed(event, out, false);
    }

    /// Publishes an event honouring the full [`Backpressure`] policy.
    ///
    /// Returns the number of shards skipped because their lock was contended
    /// (always 0 under [`Backpressure::Block`]). Under
    /// [`Backpressure::ErrorFast`] the first contended shard aborts the
    /// publish with [`ShardError::Overloaded`] and `out` is left truncated
    /// to its original length.
    ///
    /// In the default [`PublishMode::Rcu`] there are no shard locks to
    /// contend on: this never sheds and never errors, reporting 0 skipped
    /// shards for every policy.
    pub fn try_publish_into(
        &self,
        event: &Event,
        out: &mut Vec<SubscriptionId>,
    ) -> Result<usize, ShardError> {
        self.publish_policed(event, out, true)
    }

    /// Lock-free publish: pin the current snapshot, match every shard's
    /// view with this thread's scratch, unpin, sort. Nothing here blocks or
    /// contends — the pin is two atomic writes to a thread-owned slot.
    fn publish_rcu(&self, event: &Event, out: &mut Vec<SubscriptionId>) {
        crate::broker::PUBLISHES.inc();
        let start = out.len();
        let snap = self.inner.published.pin();
        PUBLISH_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            for shard in &snap.shards {
                shard.match_into(event, &mut scratch.view, out);
            }
            // Every shard view recorded the event; the aggregate counts it
            // once, matching the locked path's max-across-shards convention.
            scratch.view.stats.events = 1;
            self.fold_stats(&mut scratch.view);
        });
        drop(snap);
        out[start..].sort_unstable();
    }

    fn publish_policed(
        &self,
        event: &Event,
        out: &mut Vec<SubscriptionId>,
        error_fast: bool,
    ) -> Result<usize, ShardError> {
        if self.inner.mode == PublishMode::Rcu {
            self.publish_rcu(event, out);
            return Ok(0);
        }
        let start = out.len();
        let block = self.inner.backpressure == Backpressure::Block;
        let error_fast = error_fast && self.inner.backpressure == Backpressure::ErrorFast;
        let mut skipped = 0usize;
        for (i, shard) in self.inner.shards.iter().enumerate() {
            if block {
                shard.lock().publish_into(event, out);
                continue;
            }
            match shard.try_lock() {
                Some(mut broker) => broker.publish_into(event, out),
                None if error_fast => {
                    out.truncate(start);
                    return Err(ShardError::Overloaded { shard: i });
                }
                None => {
                    skipped += 1;
                    SHED_SHARDS.inc();
                }
            }
        }
        out[start..].sort_unstable();
        Ok(skipped)
    }

    /// Publishes a batch, returning one sorted match set per event. Each
    /// shard is visited once for the whole batch, amortising locking over
    /// `events.len()` events.
    pub fn publish_batch(&self, events: &[Event]) -> Vec<Vec<SubscriptionId>> {
        let mut out = Vec::new();
        self.publish_batch_into(events, &mut out);
        out
    }

    /// Batched publish into a caller-owned buffer (one inner vector per
    /// event, reused across calls). Per-shard scratch buffers are
    /// thread-local, so concurrent batch publishers never serialize on
    /// scratch acquisition and the steady state allocates nothing.
    pub fn publish_batch_into(&self, events: &[Event], out: &mut Vec<Vec<SubscriptionId>>) {
        out.resize_with(events.len(), Vec::new);
        out.truncate(events.len());
        for dst in out.iter_mut() {
            dst.clear();
        }
        if events.is_empty() {
            return;
        }
        if self.inner.mode == PublishMode::Rcu {
            return self.publish_batch_rcu(events, out);
        }
        let block = self.inner.backpressure == Backpressure::Block;
        PUBLISH_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            for shard in &self.inner.shards {
                // Batch publishes degrade ErrorFast to Shed, like
                // `publish_into`.
                let mut guard = if block {
                    shard.lock()
                } else {
                    match shard.try_lock() {
                        Some(guard) => guard,
                        None => {
                            SHED_SHARDS.inc();
                            continue;
                        }
                    }
                };
                guard.publish_batch_into(events, &mut scratch.shard_results);
                drop(guard);
                for (dst, src) in out.iter_mut().zip(&scratch.shard_results) {
                    dst.extend_from_slice(src);
                }
            }
        });
        for dst in out.iter_mut() {
            dst.sort_unstable();
        }
    }

    /// Lock-free batched publish: one snapshot pin covers the whole batch,
    /// so every event in it matches against the same consistent cut.
    fn publish_batch_rcu(&self, events: &[Event], out: &mut [Vec<SubscriptionId>]) {
        crate::broker::PUBLISHES.add(events.len() as u64);
        let snap = self.inner.published.pin();
        PUBLISH_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            for shard in &snap.shards {
                shard.match_batch_into(events, &mut scratch.view, &mut scratch.shard_results);
                for (dst, src) in out.iter_mut().zip(&scratch.shard_results) {
                    dst.extend_from_slice(src);
                }
            }
            // Count each published event once, not once per shard view.
            scratch.view.stats.events = events.len() as u64;
            self.fold_stats(&mut scratch.view);
        });
        drop(snap);
        for dst in out.iter_mut() {
            dst.sort_unstable();
        }
    }

    // ---- clock (lock all shards in fixed order) --------------------------

    /// Current logical time (all shards tick together).
    pub fn now(&self) -> LogicalTime {
        self.inner.shards[0].lock().now()
    }

    /// Advances every shard's clock to `t`, expiring subscriptions whose
    /// validity ended. Acquires all shard locks in ascending index order
    /// (plus the vocabulary and WAL locks on durable brokers, respecting
    /// the global `vocab < shards < wal` order), so lock ordering is total
    /// and deadlock-free. Returns the number of expired subscriptions.
    ///
    /// # Panics
    /// Panics if this is a durable broker in degraded mode; use
    /// [`SharedBroker::try_advance_to`] to handle degradation gracefully.
    pub fn advance_to(&self, t: LogicalTime) -> usize {
        self.try_advance_to(t)
            .expect("advance_to failed: durable broker is degraded")
    }

    /// Advances the clock by one tick. Returns expired subscriptions.
    ///
    /// # Panics
    /// Panics if this is a durable broker in degraded mode; use
    /// [`SharedBroker::try_tick`] to handle degradation gracefully.
    pub fn tick(&self) -> usize {
        self.try_tick()
            .expect("tick failed: durable broker is degraded")
    }

    /// Advances every shard's clock to `t`, logging the advance first on
    /// durable brokers. Expired subscriptions are *not* logged individually:
    /// expiry is deterministic given the validities already in the log, so
    /// recovery re-derives it by replaying the clock.
    pub fn try_advance_to(&self, t: LogicalTime) -> Result<usize, BrokerError> {
        self.advance_locked(Some(t))
    }

    /// Advances the clock by one tick, logging it first on durable brokers.
    /// Returns expired subscriptions.
    pub fn try_tick(&self) -> Result<usize, BrokerError> {
        self.advance_locked(None)
    }

    /// The clock path shared by [`SharedBroker::try_advance_to`] (explicit
    /// target) and [`SharedBroker::try_tick`] (`now + 1`, computed under the
    /// locks). Also the automatic-snapshot trigger point: with every lock
    /// already held, a due snapshot costs no extra synchronisation.
    fn advance_locked(&self, t: Option<LogicalTime>) -> Result<usize, BrokerError> {
        self.check_writable()?;
        let mut writer = self.writer_lock();
        // The vocabulary and session locks are only needed for a potential
        // auto-snapshot, but the global lock order (writer < vocab <
        // sessions < shards < wal) requires taking them before the shard
        // locks — durable brokers pay that cost.
        let vocab = self.inner.durable.as_ref().map(|_| self.inner.vocab.lock());
        let sessions = self
            .inner
            .durable
            .as_ref()
            .map(|_| self.inner.sessions.lock());
        let mut guards: Vec<_> = self.inner.shards.iter().map(|s| s.lock()).collect();
        let t = t.unwrap_or_else(|| guards[0].now().plus(1));
        if let Some(durable) = &self.inner.durable {
            durable.check()?;
            // Validate before logging so a bad target never reaches the log.
            // Even `t == now` is logged: it can expire subscriptions whose
            // validity was already stale when they were registered, and
            // recovery must reproduce that.
            assert!(t >= guards[0].now(), "clock cannot go backwards");
            if let Err(e) = durable.wal.lock().append(&WalOp::AdvanceTo(t)) {
                return Err(durable.degrade(e));
            }
        }
        let expired = if let Some(snaps) = writer.as_deref_mut() {
            // Tombstone every expiry into the snapshot state; all shards'
            // expiries land in the single flip below, so publishers observe
            // the clock advance atomically.
            let mut expired_ids = Vec::new();
            let mut total = 0usize;
            for (snap, b) in snaps.iter_mut().zip(guards.iter_mut()) {
                expired_ids.clear();
                let (n, _) = b.advance_to_collect(t, Some(&mut expired_ids));
                total += n;
                for &id in &expired_ids {
                    snap.note_remove(id, b, self.inner.kind);
                }
            }
            total
        } else {
            guards.iter_mut().map(|b| b.advance_to(t).0).sum()
        };
        if let Some(snaps) = writer.as_deref() {
            self.flip(snaps);
        }
        if let Some(durable) = &self.inner.durable {
            let mut wal = durable.wal.lock();
            if wal.wants_snapshot() {
                let state = build_snapshot_state(
                    vocab.as_ref().expect("durable holds vocab"),
                    sessions.as_ref().expect("durable holds sessions"),
                    &guards,
                );
                if let Err(e) = wal.snapshot(&state) {
                    // The advance itself is already durable; a failed
                    // snapshot only degrades the broker if it poisoned the
                    // WAL (torn append during the pre-snapshot sync path).
                    if wal.is_poisoned() {
                        drop(wal);
                        return Err(durable.degrade(e));
                    }
                }
            }
        }
        Ok(expired)
    }

    // ---- durability ------------------------------------------------------

    /// Whether this broker was opened with [`SharedBroker::open_durable`].
    pub fn is_durable(&self) -> bool {
        self.inner.durable.is_some()
    }

    /// Whether this broker is a replication follower (read-only replica of
    /// a remote leader; see [`SharedBroker::open_follower`]).
    pub fn is_follower(&self) -> bool {
        self.inner.follower.load(Ordering::Acquire)
    }

    /// Refuses local mutations on a replication follower.
    fn check_writable(&self) -> Result<(), BrokerError> {
        if self.is_follower() {
            Err(BrokerError::Follower)
        } else {
            Ok(())
        }
    }

    /// Whether a durability write has failed, flipping the broker into
    /// read-only degraded mode (always `false` for in-memory brokers).
    pub fn is_degraded(&self) -> bool {
        self.inner
            .durable
            .as_ref()
            .is_some_and(|d| d.degraded.load(Ordering::Acquire))
    }

    /// The durability failure that degraded this broker, if any.
    pub fn degraded_cause(&self) -> Option<WalError> {
        self.inner
            .durable
            .as_ref()
            .and_then(|d| d.cause.lock().clone())
    }

    /// What recovery did when this durable broker was opened (`None` for
    /// in-memory brokers).
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.inner.durable.as_ref().map(|d| d.recovery)
    }

    /// Point-in-time durability status (`None` for in-memory brokers).
    pub fn durability(&self) -> Option<DurabilityStatus> {
        self.inner.durable.as_ref().map(|d| {
            let wal = d.wal.lock();
            DurabilityStatus {
                dir: wal.dir().to_path_buf(),
                next_lsn: wal.next_lsn(),
                ops_since_snapshot: wal.ops_since_snapshot(),
                degraded: d.degraded.load(Ordering::Acquire),
                follower: self.is_follower(),
                degraded_cause: d.cause.lock().clone(),
                recovery: d.recovery,
            }
        })
    }

    /// Writes a point-in-time snapshot of the full broker state (clock,
    /// vocabulary, live subscriptions with validities), then compacts WAL
    /// segments the snapshot supersedes. Takes every lock, so it is a
    /// stop-the-world operation — size snapshots via
    /// [`DurabilityConfig::snapshot_every_ops`] or call this in quiet
    /// periods. Returns the snapshot file path.
    pub fn snapshot(&self) -> Result<PathBuf, BrokerError> {
        self.check_writable()?;
        let durable = self.inner.durable.as_ref().ok_or(BrokerError::NotDurable)?;
        durable.check()?;
        let vocab = self.inner.vocab.lock();
        let sessions = self.inner.sessions.lock();
        let guards: Vec<_> = self.inner.shards.iter().map(|s| s.lock()).collect();
        let mut wal = durable.wal.lock();
        let state = build_snapshot_state(&vocab, &sessions, &guards);
        match wal.snapshot(&state) {
            Ok(path) => Ok(path),
            Err(e) => {
                if wal.is_poisoned() {
                    drop(wal);
                    Err(durable.degrade(e))
                } else {
                    Err(BrokerError::Snapshot(e))
                }
            }
        }
    }

    // ---- replication (follower side) -------------------------------------

    /// Applies a batch of replicated record payloads: each is decoded,
    /// appended to the local WAL (write-ahead, exactly like a local
    /// mutation), applied in memory, and the whole batch becomes visible to
    /// publishers in **one** RCU snapshot flip. Returns the LSN the next
    /// batch must start at.
    ///
    /// The batch must start exactly at the local log's append position:
    /// anything else means the stream and the replica have diverged
    /// ([`BrokerError::ReplicationGap`] — nothing is applied). A payload
    /// that fails to decode refuses the whole remainder
    /// ([`BrokerError::Replication`]); payloads already appended stay
    /// applied, and the returned error leaves the log at a record boundary.
    pub fn apply_replicated(
        &self,
        first_lsn: Lsn,
        payloads: &[Vec<u8>],
    ) -> Result<Lsn, BrokerError> {
        let durable = self.inner.durable.as_ref().ok_or(BrokerError::NotDurable)?;
        if !self.is_follower() {
            return Err(BrokerError::NotFollower);
        }
        let mut writer = self.writer_lock();
        let mut vocab = self.inner.vocab.lock();
        let mut sessions = self.inner.sessions.lock();
        let mut guards: Vec<_> = self.inner.shards.iter().map(|s| s.lock()).collect();
        durable.check()?;
        let mut wal = durable.wal.lock();
        let expected = wal.next_lsn();
        if first_lsn != expected {
            return Err(BrokerError::ReplicationGap {
                expected,
                got: first_lsn,
            });
        }
        let n = guards.len();
        let kind = self.inner.kind;
        for (i, payload) in payloads.iter().enumerate() {
            let lsn = first_lsn + i as u64;
            let op = WalOp::decode(payload).map_err(|e| {
                BrokerError::Replication(WalError::Corrupt {
                    segment: lsn,
                    offset: 0,
                    detail: format!("undecodable replicated record: {e}"),
                })
            })?;
            // Write-ahead, same as a local mutation: an op that fails to
            // log is never applied, so the replica stays a prefix of the
            // leader's acknowledged history.
            if let Err(e) = wal.append(&op) {
                return Err(durable.degrade(e));
            }
            match op {
                WalOp::InternAttr(name) => {
                    vocab.attr(&name);
                }
                WalOp::InternString(s) => {
                    vocab.string(&s);
                }
                WalOp::Subscribe { id, sub, validity } => {
                    let shard = id.0 as usize % n;
                    let arc = writer.is_some().then(|| Arc::new(sub.clone()));
                    let broker = &mut *guards[shard];
                    broker.restore_subscription(id, sub, validity);
                    if let Some(snaps) = writer.as_deref_mut() {
                        snaps[shard].note_insert(id, arc.expect("built above"), broker, kind);
                    }
                }
                WalOp::Unsubscribe(id) => {
                    let shard = id.0 as usize % n;
                    let broker = &mut *guards[shard];
                    if broker.unsubscribe(id) {
                        if let Some(snaps) = writer.as_deref_mut() {
                            snaps[shard].note_remove(id, broker, kind);
                        }
                    }
                }
                WalOp::AdvanceTo(t) => {
                    let mut expired = Vec::new();
                    for (shard, broker) in guards.iter_mut().enumerate() {
                        if t >= broker.now() {
                            expired.clear();
                            broker.advance_to_collect(t, Some(&mut expired));
                            if let Some(snaps) = writer.as_deref_mut() {
                                for &eid in &expired {
                                    snaps[shard].note_remove(eid, broker, kind);
                                }
                            }
                        }
                    }
                }
                WalOp::SessionCreate { token } => sessions.create(token),
                WalOp::SessionBind { token, id } => sessions.bind(token, id.0),
                WalOp::SessionRelease { token, id } => sessions.release(token, id.0),
                WalOp::SessionReap { token } => {
                    // One record, many removals — re-derived here exactly as
                    // at local replay.
                    for raw in sessions.reap(token) {
                        let id = SubscriptionId(raw);
                        let shard = raw as usize % n;
                        let broker = &mut *guards[shard];
                        if broker.unsubscribe(id) {
                            if let Some(snaps) = writer.as_deref_mut() {
                                snaps[shard].note_remove(id, broker, kind);
                            }
                        }
                    }
                }
            }
        }
        let next = wal.next_lsn();
        drop(wal);
        drop(guards);
        if !payloads.is_empty() {
            if let Some(snaps) = writer.as_deref() {
                self.flip(snaps);
            }
        }
        Ok(next)
    }

    /// Installs a leader snapshot mid-run (the catch-up path: the
    /// follower's position predates the leader's oldest retained segment).
    /// Validates the raw snapshot-file bytes, installs them atomically into
    /// the WAL directory, reopens the log at `lsn`, and rebuilds the entire
    /// in-memory state — one stop-the-world swap, published to lock-free
    /// readers as a single snapshot flip. Streaming resumes at `lsn`.
    pub fn install_replicated_snapshot(&self, lsn: Lsn, bytes: &[u8]) -> Result<(), BrokerError> {
        let durable = self.inner.durable.as_ref().ok_or(BrokerError::NotDurable)?;
        if !self.is_follower() {
            return Err(BrokerError::NotFollower);
        }
        let mut writer = self.writer_lock();
        let mut vocab = self.inner.vocab.lock();
        let mut sessions = self.inner.sessions.lock();
        let mut guards: Vec<_> = self.inner.shards.iter().map(|s| s.lock()).collect();
        durable.check()?;
        let mut wal = durable.wal.lock();
        let dir = wal.dir().to_path_buf();
        let config = *wal.config();
        replication::install_snapshot(&dir, lsn, bytes).map_err(BrokerError::Replication)?;
        let (new_wal, recovered) = Wal::open(&dir, config).map_err(BrokerError::Recovery)?;
        *wal = new_wal;
        let n = guards.len();
        let (new_vocab, brokers, new_sessions) =
            rebuild_state(self.inner.kind, n, recovered.snapshot, recovered.ops);
        *vocab = new_vocab;
        *sessions = new_sessions;
        for (guard, broker) in guards.iter_mut().zip(brokers) {
            **guard = broker;
        }
        if let Some(snaps) = writer.as_deref_mut() {
            for (snap, guard) in snaps.iter_mut().zip(guards.iter()) {
                snap.rebuild_from(guard, self.inner.kind);
            }
            drop(wal);
            drop(guards);
            self.flip(snaps);
        }
        Ok(())
    }

    /// Promotes this follower to a writable leader (failover): seals the
    /// replicated tail (fsync), clears the directory's follower marker, and
    /// flips the role. The id high-water survives — every id the old leader
    /// ever issued (and that replicated here) is reserved, so a dead id is
    /// never reissued to a new subscriber. Returns the LSN the first
    /// post-promotion mutation will receive.
    pub fn promote(&self) -> Result<Lsn, BrokerError> {
        let durable = self.inner.durable.as_ref().ok_or(BrokerError::NotDurable)?;
        if !self.is_follower() {
            return Err(BrokerError::NotFollower);
        }
        let _writer = self.writer_lock();
        let _vocab = self.inner.vocab.lock();
        let mut sessions = self.inner.sessions.lock();
        let guards: Vec<_> = self.inner.shards.iter().map(|s| s.lock()).collect();
        durable.check()?;
        let mut wal = durable.wal.lock();
        if let Err(e) = wal.sync() {
            drop(wal);
            return Err(durable.degrade(e));
        }
        replication::clear_follower_mark(wal.dir()).map_err(BrokerError::Replication)?;
        let next = wal.next_lsn();
        drop(wal);
        // The broker becomes writable here, so this is the moment the
        // leader-only repair runs: a binding whose `Subscribe` the stream
        // never delivered (the old leader died inside the pair) is now
        // definitively dangling, not merely in flight.
        let n = guards.len();
        sessions.prune_dangling(|id| guards[id as usize % n].contains(SubscriptionId(id)));
        drop(guards);
        drop(sessions);
        self.inner.follower.store(false, Ordering::Release);
        Ok(next)
    }

    // ---- escape hatch ----------------------------------------------------

    /// Runs `f` with exclusive access to one shard broker (statistics,
    /// engine introspection). Prefer the typed methods for normal use.
    pub fn with_shard<R>(&self, shard: usize, f: impl FnOnce(&mut Broker) -> R) -> R {
        f(&mut self.inner.shards[shard].lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_core::EngineKind;

    #[test]
    fn concurrent_publishers_and_subscribers() {
        let broker = SharedBroker::new(EngineKind::Dynamic, 4);
        let attr = broker.attr("k");

        let mut handles = Vec::new();
        for t in 0..4i64 {
            let broker = broker.clone();
            handles.push(std::thread::spawn(move || {
                let sub = Subscription::builder().eq(attr, t).build().unwrap();
                let id = broker.subscribe(sub, Validity::forever());
                let event = Event::builder().pair(attr, t).build().unwrap();
                let mut hits = 0;
                for _ in 0..100 {
                    if broker.publish(&event).contains(&id) {
                        hits += 1;
                    }
                }
                hits
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 100, "own subscription always matches");
        }
        assert_eq!(broker.subscription_count(), 4);
    }

    #[test]
    fn clone_shares_state() {
        let broker = SharedBroker::new(EngineKind::Counting, 2);
        let b2 = broker.clone();
        let attr = broker.attr("x");
        let sub = Subscription::builder().eq(attr, 1i64).build().unwrap();
        b2.subscribe(sub, Validity::forever());
        assert_eq!(broker.subscription_count(), 1);
    }

    #[test]
    fn ids_stripe_across_shards() {
        let broker = SharedBroker::new(EngineKind::Counting, 3);
        let attr = broker.attr("a");
        let mut ids = Vec::new();
        for i in 0..9i64 {
            let sub = Subscription::builder().eq(attr, i).build().unwrap();
            ids.push(broker.subscribe(sub, Validity::forever()));
        }
        let counts = broker.shard_subscription_counts();
        assert_eq!(counts, vec![3, 3, 3], "round-robin keeps shards balanced");
        for id in &ids {
            assert!(broker.unsubscribe(*id));
        }
        assert_eq!(broker.subscription_count(), 0);
    }

    #[test]
    fn publish_batch_matches_individual_publishes() {
        let broker = SharedBroker::new(EngineKind::Dynamic, 3);
        let attr = broker.attr("v");
        for i in 0..30i64 {
            let sub = Subscription::builder().eq(attr, i % 5).build().unwrap();
            broker.subscribe(sub, Validity::forever());
        }
        let events: Vec<Event> = (0..10i64)
            .map(|i| Event::builder().pair(attr, i % 5).build().unwrap())
            .collect();
        let batched = broker.publish_batch(&events);
        for (event, batch_result) in events.iter().zip(&batched) {
            assert_eq!(&broker.publish(event), batch_result);
        }
    }

    #[test]
    fn expiry_ticks_all_shards() {
        let broker = SharedBroker::new(EngineKind::Counting, 4);
        let attr = broker.attr("e");
        for i in 0..8i64 {
            let sub = Subscription::builder().eq(attr, i).build().unwrap();
            broker.subscribe(sub, Validity::until(LogicalTime(5)));
        }
        assert_eq!(broker.subscription_count(), 8);
        let expired = broker.advance_to(LogicalTime(5));
        assert_eq!(expired, 8);
        assert_eq!(broker.subscription_count(), 0);
        assert_eq!(broker.now(), LogicalTime(5));
    }

    /// Holds shard 0's lock on this thread while `f` publishes from another
    /// thread, so the non-blocking policies see real contention.
    fn with_shard0_contended<R: Send + 'static>(
        broker: &SharedBroker,
        f: impl FnOnce(SharedBroker) -> R + Send + 'static,
    ) -> R {
        broker.with_shard(0, |_locked| {
            let clone = broker.clone();
            std::thread::spawn(move || f(clone)).join().unwrap()
        })
    }

    /// Backpressure policies act on shard-lock contention, so these tests
    /// pin the locked publish path; under RCU publishes never contend.
    fn two_shard_broker(policy: Backpressure) -> (SharedBroker, Event, Vec<SubscriptionId>) {
        let broker =
            SharedBroker::with_publish_mode(EngineKind::Counting, 2, policy, PublishMode::Locked);
        let attr = broker.attr("bp");
        let mut ids = Vec::new();
        for _ in 0..2 {
            let sub = Subscription::builder().eq(attr, 1i64).build().unwrap();
            ids.push(broker.subscribe(sub, Validity::forever()));
        }
        let event = Event::builder().pair(attr, 1i64).build().unwrap();
        (broker, event, ids)
    }

    #[test]
    fn block_policy_waits_for_every_shard() {
        let (broker, event, ids) = two_shard_broker(Backpressure::Block);
        let mut out = Vec::new();
        let skipped = broker.try_publish_into(&event, &mut out).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(out, ids);
    }

    #[test]
    fn shed_policy_skips_contended_shard() {
        let (broker, event, ids) = two_shard_broker(Backpressure::Shed);
        let (skipped, out) = with_shard0_contended(&broker, move |b| {
            let mut out = Vec::new();
            let skipped = b.try_publish_into(&event, &mut out).unwrap();
            (skipped, out)
        });
        assert_eq!(skipped, 1, "shard 0 was locked");
        assert_eq!(out, vec![ids[1]], "shard 1 still answered");
    }

    #[test]
    fn error_fast_policy_reports_overload() {
        let (broker, event, ids) = two_shard_broker(Backpressure::ErrorFast);
        let ev = event.clone();
        let (err, out) = with_shard0_contended(&broker, move |b| {
            let mut out = Vec::new();
            let err = b.try_publish_into(&ev, &mut out).unwrap_err();
            (err, out)
        });
        assert_eq!(err, ShardError::Overloaded { shard: 0 });
        assert!(out.is_empty(), "aborted publish reports no matches");
        // The infallible path degrades ErrorFast to Shed under contention…
        let ev = event.clone();
        let degraded = with_shard0_contended(&broker, move |b| b.publish(&ev));
        assert_eq!(degraded, vec![ids[1]]);
        // …and is exact once the contention clears.
        assert_eq!(broker.publish(&event), ids);
    }

    /// The ISSUE's stress shape: concurrent subscribers, publishers and a
    /// ticker; must not deadlock and counts must stay consistent.
    #[test]
    fn stress_subscribe_publish_tick() {
        let broker = SharedBroker::new(EngineKind::Dynamic, 4);
        let attr = broker.attr("s");
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let mut handles = Vec::new();
        // Subscriber threads: half forever, half expiring.
        for t in 0..3i64 {
            let broker = broker.clone();
            handles.push(std::thread::spawn(move || {
                let mut kept = 0usize;
                for i in 0..200i64 {
                    let sub = Subscription::builder().eq(attr, i % 7).build().unwrap();
                    if i % 2 == 0 {
                        broker.subscribe(sub, Validity::forever());
                        kept += 1;
                    } else {
                        let id = broker.subscribe(sub, Validity::forever());
                        assert!(broker.unsubscribe(id));
                    }
                    let _ = t;
                }
                kept
            }));
        }
        // Publisher threads.
        let mut publishers = Vec::new();
        for _ in 0..2 {
            let broker = broker.clone();
            let stop = stop.clone();
            publishers.push(std::thread::spawn(move || {
                let mut out = Vec::new();
                let mut events = Vec::new();
                for i in 0..4i64 {
                    events.push(Event::builder().pair(attr, i % 7).build().unwrap());
                }
                let mut batches = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    out.clear();
                    broker.publish_into(&events[0], &mut out);
                    assert!(out.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
                    broker.publish_batch_into(&events, &mut batches);
                }
            }));
        }
        // Ticker thread: a fixed tick count so progress is deterministic.
        let ticker = {
            let broker = broker.clone();
            std::thread::spawn(move || {
                for _ in 0..100 {
                    broker.tick();
                }
                broker.now()
            })
        };

        let kept: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        stop.store(true, Ordering::Relaxed);
        for p in publishers {
            p.join().unwrap();
        }
        let end = ticker.join().unwrap();
        assert_eq!(end, LogicalTime(100), "every tick advanced every shard");
        assert_eq!(broker.subscription_count(), kept);
        let counts = broker.shard_subscription_counts();
        assert_eq!(counts.iter().sum::<usize>(), kept);
    }
}
