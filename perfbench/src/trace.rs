//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer's public function: its name
//! (the per-layer metric it feeds), the operation it belongs to (one
//! set-up, join, request or stage pass), its parent span, and its start
//! and end. Spans stay in memory until the run ends, then export as
//! Chrome trace-event JSON (the format `stj join --trace` writes, which
//! Perfetto opens). A disabled recorder records nothing, so untraced
//! runs pay one branch per call site.

use std::collections::BTreeMap;
use std::time::Instant;
use stj_obs::Json;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A handle returned by [`Tracer::begin`]; pass it back to
/// [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Starts a new operation (one set-up, join, request or pass); the
    /// spans that follow belong to it.
    pub fn next_op(&mut self) -> u32 {
        self.op += 1;
        self.op
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end = self.now_ns();
        assert_eq!(self.stack.pop(), Some(idx), "spans must nest");
        self.spans[idx].end_ns = end;
    }

    /// Records a span measured elsewhere (by a client thread or another
    /// process) in the current operation, under the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
        });
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Self time per span: its duration minus the time its children
    /// cover (children of one span never overlap: spans nest).
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Per-layer time: for each span name, the self time summed within
    /// each operation, then the median over the operations that
    /// recorded that name, in milliseconds.
    pub fn layer_ms(&self) -> BTreeMap<&'static str, f64> {
        let own = self.self_ns();
        let mut per_op: BTreeMap<(&'static str, u32), u64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            *per_op.entry((s.name, s.op)).or_default() += ns;
        }
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), ns) in per_op {
            by_name.entry(name).or_default().push(ns as f64 / 1e6);
        }
        by_name
            .into_iter()
            .map(|(name, mut v)| (name, crate::stats::median(&mut v)))
            .collect()
    }

    /// Chrome trace-event JSON: one complete (`"X"`) event per span on
    /// the operation's own track, with the span's parent index.
    pub fn to_chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = Json::object([("span", Json::U64(i as u64))]);
                if let Some(p) = s.parent {
                    args.push("parent", Json::U64(p as u64));
                }
                Json::object([
                    ("name", Json::str(s.name)),
                    ("cat", Json::str(s.name.split('.').next().unwrap_or(s.name))),
                    ("ph", Json::str("X")),
                    ("ts", Json::F64(s.start_ns as f64 / 1e3)),
                    ("dur", Json::F64((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::U64(1)),
                    ("tid", Json::U64(u64::from(s.op))),
                    ("args", args),
                ])
            })
            .collect();
        Json::object([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.next_op();
        let outer = t.begin("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        t.end(outer);
        let ms = t.layer_ms();
        assert!(ms["inner"] >= 20.0);
        assert!(ms["outer"] < 5.0, "outer self time {}", ms["outer"]);
        let doc = t.to_chrome_json().render();
        assert!(doc.contains("\"parent\": 0"), "{doc}");

        let mut off = Tracer::new(false);
        off.span("x", || ());
        assert!(off.layer_ms().is_empty());
    }
}
