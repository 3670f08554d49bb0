//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span holds a name, a start and an end (nanoseconds since the run's
//! epoch), the request id it belongs to and the id of the span that caused
//! it. Each thread records into its own [`Tracer`]; the run merges them
//! into a [`TraceLog`] and writes the log out once, when it ends. A
//! request's root span has a deterministic id ([`root_id`]), so spans
//! recorded on other threads (the frame encode on the sender, the decode
//! on a receiver) can name it as their parent before it exists.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent of a span that nothing else caused.
pub const NO_PARENT: u64 = 0;

/// Spans one tracer keeps before it starts dropping (and counting) them.
const MAX_SPANS: usize = 1 << 20;

/// The id of the root span of request `req` of request kind `kind`.
pub fn root_id(kind: u8, req: u64) -> u64 {
    (1 << 63) | (u64::from(kind) << 48) | (req & ((1 << 48) - 1))
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id (tracer number in the high bits, sequence in the low).
    pub id: u64,
    /// The span that caused this one, or [`NO_PARENT`].
    pub parent: u64,
    /// The request this span belongs to (0 for none).
    pub req: u64,
    /// `layer.call` name.
    pub name: &'static str,
    /// Start, nanoseconds since the run epoch.
    pub start: u64,
    /// End, nanoseconds since the run epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A per-thread span recorder; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    no: u64,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A tracer numbered `no` (distinct per thread), timing from `epoch`.
    pub fn new(on: bool, epoch: Instant, no: u64) -> Self {
        Self {
            on,
            epoch,
            no,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Turns recording on or off (the traced run alternates blocks of
    /// requests to measure the tracing overhead).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span timed by the caller and returns its id (0 when
    /// tracing is off or the buffer is full).
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        self.record_with_id(None, name, req, parent, start, end)
    }

    /// Records a request's root span under its deterministic id.
    pub fn record_root(
        &mut self,
        kind: u8,
        name: &'static str,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        self.record_with_id(Some(root_id(kind, req)), name, req, NO_PARENT, start, end);
    }

    fn record_with_id(
        &mut self,
        id: Option<u64>,
        name: &'static str,
        req: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return 0;
        }
        let id = id.unwrap_or((self.no << 40) | (self.spans.len() as u64 + 1));
        let (start, end) = (self.offset(start), self.offset(end));
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start,
            end,
        });
        id
    }

    /// Times `f` as a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, req, parent, start, end);
        out
    }

    /// Durations (ns) of this tracer's spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }
}

/// Per-name totals of a merged trace.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanSummary {
    /// Spans recorded.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times (duration minus the part child spans cover), ns.
    pub self_ns: u64,
}

/// Every thread's spans, merged at the end of a run.
#[derive(Debug, Default)]
pub struct TraceLog {
    spans: Vec<Span>,
    dropped: u64,
}

impl TraceLog {
    /// Adds one thread's spans.
    pub fn absorb(&mut self, tracer: Tracer) {
        self.spans.extend(tracer.spans);
        self.dropped += tracer.dropped;
    }

    /// Spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Spans dropped because a tracer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Count, total and self time per span name. Children are clipped to
    /// their parent's interval, and overlapping children are merged, so
    /// self time is never negative.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanSummary> {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                children.entry(s.parent).or_default().push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, SpanSummary> = BTreeMap::new();
        for s in &self.spans {
            let covered = children
                .get_mut(&s.id)
                .map(|kids| covered_ns(kids, s.start, s.end))
                .unwrap_or(0);
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.dur();
            e.self_ns += s.dur().saturating_sub(covered);
        }
        out
    }

    /// Writes every span as one CSV line: `id,parent,req,name,start_ns,end_ns`.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,parent,req,name,start_ns,end_ns")?;
        for s in &self.spans {
            writeln!(
                w,
                "{},{},{},{},{},{}",
                s.id, s.parent, s.req, s.name, s.start, s.end
            )?;
        }
        w.flush()
    }
}

/// Nanoseconds of `[lo, hi)` covered by the union of `intervals`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let mut t = Tracer::new(true, epoch, 1);
        t.record_root(1, "req", 7, at(0), at(100));
        t.record("child", 7, root_id(1, 7), at(10), at(40));
        t.record("child", 7, root_id(1, 7), at(30), at(50));
        let mut log = TraceLog::default();
        log.absorb(t);
        let s = log.summary();
        assert_eq!(s["req"].total_ns, 100_000);
        assert_eq!(s["req"].self_ns, 60_000);
        assert_eq!(s["child"].count, 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 1);
        assert_eq!(t.span("x", 1, NO_PARENT, || 5), 5);
        assert!(t.durations("x").is_empty());
    }
}
