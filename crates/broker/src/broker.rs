//! The publish/subscribe broker: subscription lifecycle, event publication,
//! validity handling, batching and notification delivery — the system of
//! paper §1 wrapped around a pluggable matching engine.

use crate::store::{EventId, EventStore};
use crate::time::{LogicalTime, Validity};
use pubsub_core::{EngineKind, EngineStats, MatchEngine};
use pubsub_types::metrics::Counter;
use pubsub_types::{AttrId, Event, Subscription, SubscriptionId, TypeError, Value, Vocabulary};

/// Events published through a broker (single events; batched events count
/// each event in the batch). `pub(crate)` so the RCU publish path of
/// [`crate::shared::SharedBroker`], which bypasses the shard brokers, still
/// counts its publishes here.
pub(crate) static PUBLISHES: Counter = Counter::new("broker.publishes");
/// Subscriptions registered.
static SUBSCRIBES: Counter = Counter::new("broker.subscribes");
/// Successful unsubscribes.
static UNSUBSCRIBES: Counter = Counter::new("broker.unsubscribes");
/// Unsubscribe calls for unknown/expired ids (rejected, not fatal).
static UNSUBSCRIBE_MISSES: Counter = Counter::new("broker.unsubscribe_misses");
/// Subscriptions dropped by validity expiry.
static SUBS_EXPIRED: Counter = Counter::new("broker.subs_expired");
/// Stored events evicted by validity expiry.
static EVENTS_EVICTED: Counter = Counter::new("broker.events_evicted");
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A notification: one published event matched these subscriptions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Notification {
    /// Id of the stored event (when the broker stores events) or `None` for
    /// fire-and-forget publication.
    pub event: Option<EventId>,
    /// The matched subscriptions.
    pub matched: Vec<SubscriptionId>,
}

#[derive(Debug)]
struct SubRecord {
    sub: Subscription,
    validity: Validity,
}

/// The broker.
///
/// Owns a [`Vocabulary`] (attribute/string interning), a matching engine,
/// the subscription registry with validity-driven expiry, and the
/// valid-event store used to answer *new-subscription-against-stored-events*
/// queries.
pub struct Broker {
    vocab: Vocabulary,
    engine: Box<dyn MatchEngine + Send>,
    subs: Vec<Option<SubRecord>>,
    /// Count of ids assigned so far; the next id is
    /// `id_base + next_id * id_step`.
    next_id: u32,
    /// First id of this broker's id lane (see [`Broker::with_id_lane`]).
    id_base: u32,
    /// Stride of this broker's id lane.
    id_step: u32,
    live: usize,
    sub_expiry: BinaryHeap<Reverse<(LogicalTime, SubscriptionId)>>,
    events: EventStore,
    now: LogicalTime,
    /// Store published events (enables subscription replay) — on by default;
    /// benchmarks turn it off to isolate matching.
    store_events: bool,
}

impl std::fmt::Debug for Broker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Broker")
            .field("engine", &self.engine.name())
            .field("subscriptions", &self.live)
            .field("stored_events", &self.events.len())
            .field("now", &self.now)
            .finish()
    }
}

impl Broker {
    /// Creates a broker with a fresh engine of the given kind.
    pub fn new(kind: EngineKind) -> Self {
        Self::with_engine(kind.build())
    }

    /// Creates a broker around a caller-built engine.
    pub fn with_engine(engine: Box<dyn MatchEngine + Send>) -> Self {
        Self {
            vocab: Vocabulary::new(),
            engine,
            subs: Vec::new(),
            next_id: 0,
            id_base: 0,
            id_step: 1,
            live: 0,
            sub_expiry: BinaryHeap::new(),
            events: EventStore::new(),
            now: LogicalTime::ZERO,
            store_events: true,
        }
    }

    /// Disables the valid-event store (fire-and-forget publication).
    pub fn without_event_store(mut self) -> Self {
        self.store_events = false;
        self
    }

    /// Restricts id assignment to the lane `base, base + step, base + 2·step,
    /// …`. Brokers on disjoint lanes assign globally unique ids with no
    /// coordination — this is how [`crate::shared::SharedBroker`] gives each
    /// shard its own id space (`shard = id mod shards`) while keeping each
    /// shard's subscription table dense.
    ///
    /// # Panics
    /// Panics if `step == 0`, `base >= step`, or a subscription was already
    /// registered.
    pub fn with_id_lane(mut self, base: u32, step: u32) -> Self {
        assert!(step >= 1, "id lane stride must be at least 1");
        assert!(base < step, "id lane base must be below the stride");
        assert_eq!(self.next_id, 0, "id lane must be set before subscribing");
        self.id_base = base;
        self.id_step = step;
        self
    }

    /// The dense storage slot of `id`, or `None` if `id` lies outside this
    /// broker's id lane.
    fn slot_of(&self, id: SubscriptionId) -> Option<usize> {
        let raw = id.0.checked_sub(self.id_base)?;
        if raw % self.id_step != 0 {
            return None;
        }
        Some((raw / self.id_step) as usize)
    }

    // ---- vocabulary ------------------------------------------------------

    /// Interns an attribute name.
    pub fn attr(&mut self, name: &str) -> AttrId {
        self.vocab.attr(name)
    }

    /// Interns a string value.
    pub fn string(&mut self, s: &str) -> Value {
        self.vocab.string(s)
    }

    /// The broker's vocabulary (for display).
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Mutable access to the vocabulary (for parsers that intern whole
    /// expressions).
    pub fn vocabulary_mut(&mut self) -> &mut Vocabulary {
        &mut self.vocab
    }

    // ---- clock -----------------------------------------------------------

    /// Current logical time.
    pub fn now(&self) -> LogicalTime {
        self.now
    }

    /// Advances the clock, expiring subscriptions and events whose validity
    /// ended. Returns `(subscriptions expired, events evicted)`.
    pub fn advance_to(&mut self, t: LogicalTime) -> (usize, usize) {
        self.advance_to_collect(t, None)
    }

    /// [`Broker::advance_to`] that additionally appends the ids of expired
    /// subscriptions to `expired` — the RCU snapshot writer needs them to
    /// tombstone the published shard snapshots.
    pub fn advance_to_collect(
        &mut self,
        t: LogicalTime,
        mut expired: Option<&mut Vec<SubscriptionId>>,
    ) -> (usize, usize) {
        assert!(t >= self.now, "clock cannot go backwards");
        self.now = t;
        let mut subs_expired = 0;
        while let Some(&Reverse((until, id))) = self.sub_expiry.peek() {
            if until > t {
                break;
            }
            self.sub_expiry.pop();
            let slot = self.slot_of(id).expect("expiry heap only holds own ids");
            // The record may already be gone (explicit unsubscribe).
            if let Some(rec) = &self.subs[slot] {
                if rec.validity.until == Some(until) {
                    self.engine.remove(id);
                    self.subs[slot] = None;
                    self.live -= 1;
                    subs_expired += 1;
                    if let Some(ids) = expired.as_deref_mut() {
                        ids.push(id);
                    }
                }
            }
        }
        let events_evicted = self.events.evict_expired(t);
        SUBS_EXPIRED.add(subs_expired as u64);
        EVENTS_EVICTED.add(events_evicted as u64);
        (subs_expired, events_evicted)
    }

    /// Advances the clock by one tick.
    pub fn tick(&mut self) -> (usize, usize) {
        self.advance_to(self.now.plus(1))
    }

    // ---- subscriptions -----------------------------------------------------

    /// Registers a subscription; returns its id (drawn from this broker's id
    /// lane, see [`Broker::with_id_lane`]).
    pub fn subscribe(&mut self, sub: Subscription, validity: Validity) -> SubscriptionId {
        SUBSCRIBES.inc();
        let slot = self.next_id as usize;
        let id = SubscriptionId(self.id_base + self.next_id * self.id_step);
        self.next_id += 1;
        if self.subs.len() <= slot {
            self.subs.resize_with(slot + 1, || None);
        }
        self.engine.insert(id, &sub);
        if let Some(until) = validity.until {
            self.sub_expiry.push(Reverse((until, id)));
        }
        self.subs[slot] = Some(SubRecord { sub, validity });
        self.live += 1;
        id
    }

    /// Whether `id` refers to a live subscription of this broker.
    pub fn contains(&self, id: SubscriptionId) -> bool {
        self.slot_of(id)
            .is_some_and(|slot| self.subs.get(slot).is_some_and(Option::is_some))
    }

    /// The id the next [`Broker::subscribe`] call will assign. The durable
    /// broker logs the subscribe record (under this broker's lock) *before*
    /// applying it, so the id must be observable without consuming it.
    pub fn peek_next_id(&self) -> SubscriptionId {
        SubscriptionId(self.id_base + self.next_id * self.id_step)
    }

    /// One past the largest raw id this broker has assigned (0 when none) —
    /// the per-shard contribution to a durability snapshot's id high-water
    /// mark.
    pub fn assigned_id_high_water(&self) -> u32 {
        if self.next_id == 0 {
            0
        } else {
            self.id_base + (self.next_id - 1) * self.id_step + 1
        }
    }

    /// Forbids assigning any id whose raw value is below `high_water` —
    /// applied when restoring from a durability snapshot, so ids retired
    /// before the snapshot (and therefore absent from it) are never reissued
    /// to new subscribers after recovery.
    pub fn reserve_ids_below(&mut self, high_water: u32) {
        if high_water > self.id_base {
            // Lane ids strictly below `high_water`: ceil((hw - base) / step).
            let reserved = (high_water - self.id_base).div_ceil(self.id_step);
            self.next_id = self.next_id.max(reserved);
        }
    }

    /// Re-registers a subscription under the id it held before a crash
    /// (replay of a WAL `Subscribe` record). The id must belong to this
    /// broker's lane. Replayed ids need not arrive in order — concurrent
    /// subscribers could have reached the log out of id order — so the
    /// assignment cursor only ever moves forward.
    ///
    /// # Panics
    /// Panics if `id` is outside this broker's id lane.
    pub fn restore_subscription(
        &mut self,
        id: SubscriptionId,
        sub: Subscription,
        validity: Validity,
    ) {
        let slot = self
            .slot_of(id)
            .expect("restored id must belong to this broker's lane");
        if self.subs.len() <= slot {
            self.subs.resize_with(slot + 1, || None);
        }
        if self.subs[slot].take().is_some() {
            // A duplicate id can only come out of a damaged log recovered
            // under the skip policy; last write wins, like a re-subscribe.
            self.engine.remove(id);
            self.live -= 1;
        }
        self.next_id = self.next_id.max(slot as u32 + 1);
        self.engine.insert(id, &sub);
        if let Some(until) = validity.until {
            self.sub_expiry.push(Reverse((until, id)));
        }
        self.subs[slot] = Some(SubRecord { sub, validity });
        self.live += 1;
    }

    /// Bulk-restores a snapshot's subscription set into this (empty) broker
    /// and sets its clock, feeding the engine through
    /// [`MatchEngine::rebuild`] so engines with bulk-load optimisations
    /// (e.g. the static engine's one-shot clustering) use them.
    ///
    /// # Panics
    /// Panics if the broker already holds subscriptions, if the clock has
    /// already advanced, or if an id is outside this broker's lane.
    pub fn restore(
        &mut self,
        entries: Vec<(SubscriptionId, Subscription, Validity)>,
        now: LogicalTime,
    ) {
        assert_eq!(self.live, 0, "restore requires an empty broker");
        assert_eq!(
            self.now,
            LogicalTime::ZERO,
            "restore requires a fresh clock"
        );
        self.now = now;
        let mut max_slot = None;
        for (id, sub, validity) in entries {
            let slot = self
                .slot_of(id)
                .expect("restored id must belong to this broker's lane");
            if self.subs.len() <= slot {
                self.subs.resize_with(slot + 1, || None);
            }
            assert!(self.subs[slot].is_none(), "snapshot ids are unique");
            if let Some(until) = validity.until {
                self.sub_expiry.push(Reverse((until, id)));
            }
            self.subs[slot] = Some(SubRecord { sub, validity });
            self.live += 1;
            max_slot = max_slot.max(Some(slot));
        }
        if let Some(max_slot) = max_slot {
            self.next_id = self.next_id.max(max_slot as u32 + 1);
        }
        let base = self.id_base;
        let step = self.id_step;
        let mut iter = self.subs.iter().enumerate().filter_map(|(slot, rec)| {
            rec.as_ref()
                .map(|r| (SubscriptionId(base + slot as u32 * step), &r.sub))
        });
        self.engine.rebuild(&mut iter);
    }

    /// Iterates over the live subscriptions with their ids and validities,
    /// in id order — the payload of a durability snapshot.
    pub fn live_subscriptions(
        &self,
    ) -> impl Iterator<Item = (SubscriptionId, &Subscription, Validity)> {
        let base = self.id_base;
        let step = self.id_step;
        self.subs.iter().enumerate().filter_map(move |(slot, rec)| {
            rec.as_ref().map(|r| {
                (
                    SubscriptionId(base + slot as u32 * step),
                    &r.sub,
                    r.validity,
                )
            })
        })
    }

    /// Registers a subscription and immediately evaluates it against the
    /// stored valid events — the complementary functionality of §1. Returns
    /// the id and the stored events it already matches.
    pub fn subscribe_with_replay(
        &mut self,
        sub: Subscription,
        validity: Validity,
    ) -> (SubscriptionId, Vec<EventId>) {
        let replay = self.events.matches_for(&sub, self.now);
        let id = self.subscribe(sub, validity);
        (id, replay)
    }

    /// Registers a whole batch (`n_Sb` of Table 1); returns the ids.
    pub fn subscribe_batch(
        &mut self,
        subs: impl IntoIterator<Item = Subscription>,
        validity: Validity,
    ) -> Vec<SubscriptionId> {
        subs.into_iter()
            .map(|s| self.subscribe(s, validity))
            .collect()
    }

    /// Removes a subscription. Returns `false` if the id was unknown or
    /// already expired.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        let Some(slot) = self.slot_of(id) else {
            UNSUBSCRIBE_MISSES.inc();
            return false;
        };
        match self.subs.get_mut(slot).and_then(Option::take) {
            Some(_) => {
                self.engine.remove(id);
                self.live -= 1;
                UNSUBSCRIBES.inc();
                true
            }
            None => {
                UNSUBSCRIBE_MISSES.inc();
                false
            }
        }
    }

    /// The subscription behind an id, if still registered.
    pub fn subscription(&self, id: SubscriptionId) -> Option<&Subscription> {
        self.subs.get(self.slot_of(id)?)?.as_ref().map(|r| &r.sub)
    }

    /// Number of live subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.live
    }

    // ---- events -------------------------------------------------------------

    /// Publishes an event valid only at this instant: matches it and returns
    /// the matched subscription ids (the notification set).
    pub fn publish(&mut self, event: &Event) -> Vec<SubscriptionId> {
        PUBLISHES.inc();
        let mut matched = Vec::new();
        self.engine.match_event(event, &mut matched);
        matched
    }

    /// Publishes an event, appending matches to a caller-owned buffer
    /// (zero-allocation hot path for benchmarks).
    pub fn publish_into(&mut self, event: &Event, out: &mut Vec<SubscriptionId>) {
        PUBLISHES.inc();
        self.engine.match_event(event, out);
    }

    /// Publishes an event with a validity interval: matches it, stores it
    /// (if the store is enabled) for future subscription replay, and returns
    /// the notification.
    pub fn publish_with_validity(&mut self, event: Event, validity: Validity) -> Notification {
        PUBLISHES.inc();
        let mut matched = Vec::new();
        self.engine.match_event(&event, &mut matched);
        let event_id = if self.store_events && !validity.expired_at(self.now) {
            Some(self.events.insert(event, validity))
        } else {
            None
        };
        Notification {
            event: event_id,
            matched,
        }
    }

    /// Publishes a batch (`n_Eb` of Table 1); returns one notification per
    /// event. Routed through [`MatchEngine::match_batch_into`], so engines
    /// with a batched predicate phase run it once for the whole batch.
    pub fn publish_batch(&mut self, events: &[Event]) -> Vec<Notification> {
        PUBLISHES.add(events.len() as u64);
        let mut matched = Vec::new();
        self.engine.match_batch_into(events, &mut matched);
        matched
            .into_iter()
            .map(|m| Notification {
                event: None,
                matched: m,
            })
            .collect()
    }

    /// Publishes a batch into a caller-owned buffer of per-event result
    /// vectors (zero-allocation steady state; inner vectors are reused).
    pub fn publish_batch_into(&mut self, events: &[Event], out: &mut Vec<Vec<SubscriptionId>>) {
        PUBLISHES.add(events.len() as u64);
        self.engine.match_batch_into(events, out);
    }

    /// Number of stored valid events.
    pub fn stored_event_count(&self) -> usize {
        self.events.len()
    }

    /// Looks up a stored event.
    pub fn stored_event(&self, id: EventId) -> Option<&Event> {
        self.events.get(id)
    }

    // ---- engine pass-through -------------------------------------------------

    /// Runs the engine's one-time optimization hook (static clustering).
    pub fn finalize(&mut self) {
        self.engine.finalize();
    }

    /// The engine's performance counters.
    pub fn engine_stats(&self) -> &EngineStats {
        self.engine.stats()
    }

    /// The engine's name.
    pub fn engine_name(&self) -> &'static str {
        self.engine.name()
    }

    /// Convenience: builds an event from `(attr, value)` pairs.
    pub fn event(&self, pairs: Vec<(AttrId, Value)>) -> Result<Event, TypeError> {
        Event::from_pairs(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_types::Operator;

    fn demo_broker(kind: EngineKind) -> (Broker, AttrId, AttrId) {
        let mut b = Broker::new(kind);
        let movie = b.attr("movie");
        let price = b.attr("price");
        (b, movie, price)
    }

    #[test]
    fn paper_quickstart_flow() {
        for kind in EngineKind::PAPER_ENGINES {
            let (mut b, movie, price) = demo_broker(kind);
            let title = b.string("groundhog day");
            let sub = Subscription::builder()
                .eq(movie, title)
                .with(price, Operator::Le, 10i64)
                .build()
                .unwrap();
            let id = b.subscribe(sub, Validity::forever());
            let event = Event::builder()
                .pair(movie, title)
                .pair(price, 8i64)
                .build()
                .unwrap();
            let matched = b.publish(&event);
            assert_eq!(matched, vec![id], "engine {}", b.engine_name());
        }
    }

    #[test]
    fn subscription_expiry_on_clock_advance() {
        let (mut b, movie, _) = demo_broker(EngineKind::Dynamic);
        let title = b.string("up");
        let sub = Subscription::builder().eq(movie, title).build().unwrap();
        let id = b.subscribe(sub.clone(), Validity::until(LogicalTime(10)));
        let keep = b.subscribe(sub, Validity::forever());
        assert_eq!(b.subscription_count(), 2);

        let event = Event::builder().pair(movie, title).build().unwrap();
        assert_eq!(b.publish(&event).len(), 2);

        let (expired, _) = b.advance_to(LogicalTime(10));
        assert_eq!(expired, 1);
        assert_eq!(b.subscription_count(), 1);
        assert!(b.subscription(id).is_none());
        assert!(b.subscription(keep).is_some());
        assert_eq!(b.publish(&event), vec![keep]);
    }

    #[test]
    fn unsubscribe_then_expiry_is_harmless() {
        let (mut b, movie, _) = demo_broker(EngineKind::Counting);
        let title = b.string("x");
        let sub = Subscription::builder().eq(movie, title).build().unwrap();
        let id = b.subscribe(sub, Validity::until(LogicalTime(5)));
        assert!(b.unsubscribe(id));
        assert!(!b.unsubscribe(id), "double unsubscribe is reported");
        // The stale expiry entry must not panic or double-remove.
        let (expired, _) = b.advance_to(LogicalTime(10));
        assert_eq!(expired, 0);
    }

    #[test]
    fn new_subscription_replays_stored_events() {
        let (mut b, movie, price) = demo_broker(EngineKind::Dynamic);
        let title = b.string("brazil");
        let e1 = Event::builder()
            .pair(movie, title)
            .pair(price, 8i64)
            .build()
            .unwrap();
        let e2 = Event::builder()
            .pair(movie, title)
            .pair(price, 15i64)
            .build()
            .unwrap();
        let n1 = b.publish_with_validity(e1, Validity::until(LogicalTime(100)));
        let _n2 = b.publish_with_validity(e2, Validity::until(LogicalTime(100)));
        assert!(n1.matched.is_empty());
        assert_eq!(b.stored_event_count(), 2);

        let sub = Subscription::builder()
            .eq(movie, title)
            .with(price, Operator::Le, 10i64)
            .build()
            .unwrap();
        let (_, replay) = b.subscribe_with_replay(sub, Validity::forever());
        assert_eq!(replay, vec![n1.event.unwrap()], "only the cheap screening");
    }

    #[test]
    fn batch_apis() {
        let (mut b, movie, _) = demo_broker(EngineKind::PropagationPrefetch);
        let t1 = b.string("a");
        let t2 = b.string("b");
        let subs = vec![
            Subscription::builder().eq(movie, t1).build().unwrap(),
            Subscription::builder().eq(movie, t2).build().unwrap(),
        ];
        let ids = b.subscribe_batch(subs, Validity::forever());
        assert_eq!(ids.len(), 2);

        let events = vec![
            Event::builder().pair(movie, t1).build().unwrap(),
            Event::builder().pair(movie, t2).build().unwrap(),
        ];
        let notes = b.publish_batch(&events);
        assert_eq!(notes[0].matched, vec![ids[0]]);
        assert_eq!(notes[1].matched, vec![ids[1]]);
        assert_eq!(b.engine_stats().events, 2);
    }

    #[test]
    fn event_store_can_be_disabled() {
        let mut b = Broker::new(EngineKind::Dynamic).without_event_store();
        let movie = b.attr("movie");
        let t = b.string("y");
        let e = Event::builder().pair(movie, t).build().unwrap();
        let n = b.publish_with_validity(e, Validity::forever());
        assert!(n.event.is_none());
        assert_eq!(b.stored_event_count(), 0);
    }
}
