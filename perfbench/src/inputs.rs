//! Workload inputs: the specs, their deterministic generation from the run
//! seed, the wire form of subscriptions and events, a digest that shows
//! equal seeds gave equal inputs, and the brute-force oracle.

use pubsub_net::{WireEvent, WirePredicate, WireValue};
use pubsub_types::{AttrId, Event, Operator, Subscription, Value};
use pubsub_workload::{
    presets, EventSpec, FixedPredicateSpec, SubscriptionSpec, ValueDomain, WorkloadGen,
    WorkloadSpec,
};
use std::collections::HashMap;

/// Attribute carrying the publish sequence number on network workloads.
pub const SEQ_ATTR: &str = "seq";

/// The paper's W0 preset with `n` subscriptions, seeded from the run seed.
pub fn w0_spec(n: usize, seed: u64) -> WorkloadSpec {
    let mut spec = presets::w0(n);
    spec.seed = seed;
    spec
}

/// The `notify` workload's spec: four attributes, two equality predicates
/// per subscription over domains of eight values, so an event matches about
/// one subscription in 64 — tens of ids per `Notify` at a few thousand
/// subscriptions — and nearly every event matches something.
pub fn notify_spec(n: usize, seed: u64) -> WorkloadSpec {
    let domain = ValueDomain::new(1, 8);
    let eq = |attr| FixedPredicateSpec {
        attr,
        op: Operator::Eq,
        domain,
    };
    WorkloadSpec {
        n_t: 4,
        subs: SubscriptionSpec {
            count: n,
            batch: n.max(1),
            fixed: vec![eq(0), eq(1)],
            free_count: 0,
            free_op: Operator::Eq,
            free_domain: domain,
            free_pool: (2, 4),
        },
        events: EventSpec {
            batch: 100,
            n_a: 4,
            domain,
            overrides: Vec::new(),
        },
        seed,
    }
}

/// Draws `subs` subscriptions, then `events` events, from `spec`.
pub fn generate(spec: WorkloadSpec, subs: usize, events: usize) -> (Vec<Subscription>, Vec<Event>) {
    let mut gen = WorkloadGen::new(spec);
    let s = (0..subs).map(|_| gen.subscription()).collect();
    let e = (0..events).map(|_| gen.event()).collect();
    (s, e)
}

/// `base` with every equality predicate of `sub` imposed, so the event
/// matches `sub` (the generated workloads use equality predicates only).
pub fn targeted(base: &Event, sub: &Subscription) -> Event {
    let mut pairs = base.pairs().to_vec();
    for p in sub.equality_predicates() {
        match pairs.iter_mut().find(|(a, _)| *a == p.attr) {
            Some(pair) => pair.1 = p.value,
            None => pairs.push((p.attr, p.value)),
        }
    }
    let event = Event::from_pairs(pairs).expect("targeted event has distinct attributes");
    debug_assert!(sub.matches_event(&event));
    event
}

/// A small deterministic generator for choices the workload spec does not
/// cover (which subscription an event targets, which ids the traced run
/// samples).
pub struct SplitMix(u64);

impl SplitMix {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The wire name of a generated attribute.
pub fn attr_name(a: AttrId) -> String {
    format!("a{}", a.0)
}

fn wire_value(v: Value) -> WireValue {
    WireValue::Int(v.as_int().expect("generated workloads use integer values"))
}

/// A subscription as the client sends it.
pub fn wire_preds(sub: &Subscription) -> Vec<WirePredicate> {
    sub.predicates()
        .iter()
        .map(|p| WirePredicate {
            attr: attr_name(p.attr),
            op: p.op,
            value: wire_value(p.value),
        })
        .collect()
}

/// A subscription on [`SEQ_ATTR`] that no publish matches (sequence numbers
/// are never negative). Registering it interns the attribute at set-up, so
/// publishes never carry a name the broker has not seen.
pub fn seq_interning_preds() -> Vec<WirePredicate> {
    vec![WirePredicate {
        attr: SEQ_ATTR.into(),
        op: Operator::Eq,
        value: WireValue::Int(-1),
    }]
}

/// An event as the client publishes it, tagged with sequence number `seq`.
pub fn wire_event(event: &Event, seq: u64) -> WireEvent {
    let mut pairs: Vec<(String, WireValue)> = event
        .pairs()
        .iter()
        .map(|&(a, v)| (attr_name(a), wire_value(v)))
        .collect();
    pairs.push((SEQ_ATTR.into(), WireValue::Int(seq as i64)));
    WireEvent { pairs }
}

/// The sequence number a published event carries, if any.
pub fn seq_of(event: &WireEvent) -> Option<u64> {
    event.pairs.iter().rev().find_map(|(name, v)| match v {
        WireValue::Int(i) if name == SEQ_ATTR => u64::try_from(*i).ok(),
        _ => None,
    })
}

/// FNV-1a digest of a workload's generated inputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn value(&mut self, v: Value) {
        match v {
            Value::Int(i) => self.word(i as u64),
            Value::Str(s) => self.word(u64::from(s.0) | (1 << 63)),
        }
    }

    /// Folds in a parameter of the run (sizes, rates).
    pub fn param(&mut self, p: u64) {
        self.word(p);
    }

    /// Folds in subscriptions.
    pub fn subs(&mut self, subs: &[Subscription]) {
        for s in subs {
            self.word(s.size() as u64);
            for p in s.predicates() {
                self.word(u64::from(p.attr.0));
                self.word(p.op as u64);
                self.value(p.value);
            }
        }
    }

    /// Folds in events.
    pub fn events(&mut self, events: &[Event]) {
        for e in events {
            self.word(e.len() as u64);
            for &(a, v) in e.pairs() {
                self.word(u64::from(a.0));
                self.value(v);
            }
        }
    }

    /// The digest value.
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// The brute-force oracle: `Subscription::matches_event` over every member
/// subscription. Members are bucketed by the value of their first equality
/// predicate, and an event is checked only against the bucket its own
/// value selects (plus members without an equality predicate); a member
/// outside that bucket fails that predicate, so the answer is exactly the
/// brute-force one.
pub struct Oracle<'a> {
    subs: &'a [Subscription],
    buckets: HashMap<(AttrId, Value), Vec<u32>>,
    attrs: Vec<AttrId>,
    scan: Vec<u32>,
}

impl<'a> Oracle<'a> {
    /// An oracle over `subs[i]` for every `i` in `members`.
    pub fn new(subs: &'a [Subscription], members: impl IntoIterator<Item = usize>) -> Self {
        let mut buckets: HashMap<(AttrId, Value), Vec<u32>> = HashMap::new();
        let mut scan = Vec::new();
        for i in members {
            match subs[i].equality_predicates().first() {
                Some(p) => buckets.entry((p.attr, p.value)).or_default().push(i as u32),
                None => scan.push(i as u32),
            }
        }
        let mut attrs: Vec<AttrId> = buckets.keys().map(|(a, _)| *a).collect();
        attrs.sort_unstable();
        attrs.dedup();
        Self {
            subs,
            buckets,
            attrs,
            scan,
        }
    }

    /// Indices of the member subscriptions `event` matches, sorted.
    pub fn matches(&self, event: &Event) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::new();
        let mut check = |i: u32| {
            if self.subs[i as usize].matches_event(event) {
                out.push(i as usize);
            }
        };
        for &a in &self.attrs {
            if let Some(v) = event.value(a) {
                if let Some(bucket) = self.buckets.get(&(a, v)) {
                    bucket.iter().copied().for_each(&mut check);
                }
            }
        }
        self.scan.iter().copied().for_each(&mut check);
        out.sort_unstable();
        out
    }
}

/// Maps sorted subscription indices to the sorted ids the broker assigned.
pub fn to_ids(indices: &[usize], ids: &[u32]) -> Vec<u32> {
    let mut out: Vec<u32> = indices.iter().map(|&i| ids[i]).collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_equals_plain_brute_force() {
        let (subs, events) = generate(notify_spec(500, 3), 500, 50);
        let oracle = Oracle::new(&subs, 0..subs.len());
        for e in &events {
            let plain: Vec<usize> = (0..subs.len())
                .filter(|&i| subs[i].matches_event(e))
                .collect();
            assert_eq!(oracle.matches(e), plain);
        }
    }

    #[test]
    fn targeted_events_match_their_target() {
        let (subs, events) = generate(w0_spec(100, 9), 100, 10);
        for (i, e) in events.iter().enumerate() {
            assert!(subs[i].matches_event(&targeted(e, &subs[i])));
        }
    }

    #[test]
    fn equal_seeds_give_equal_digests() {
        let digest = |seed| {
            let (s, e) = generate(w0_spec(200, seed), 200, 20);
            let mut d = Digest::default();
            d.subs(&s);
            d.events(&e);
            d.get()
        };
        assert_eq!(digest(1), digest(1));
        assert_ne!(digest(1), digest(2));
    }

    #[test]
    fn seq_round_trips() {
        let (_, events) = generate(notify_spec(10, 1), 10, 1);
        assert_eq!(seq_of(&wire_event(&events[0], 42)), Some(42));
    }
}
