//! In-memory spans recorded around calls into the program's layers.
//!
//! A span has a name, a parent, the fleet lane it belongs to (its trace
//! id), the thread it ran on and its start and end on one monotonic clock.
//! Spans are kept in memory and written out as JSON lines when the run
//! ends, so recording costs a lock and a push.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use uniloc_stats::json::Json;

/// Trace id of spans that belong to no lane (set-up, artifacts, ...).
pub const NO_LANE: u64 = u64::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    pub name: &'static str,
    pub lane: u64,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("id".into(), Json::Int(self.id as i64)),
            ("parent".into(), Json::Int(self.parent as i64)),
            ("name".into(), Json::Str(self.name.to_owned())),
            (
                "lane".into(),
                if self.lane == NO_LANE {
                    Json::Null
                } else {
                    Json::Int(self.lane as i64)
                },
            ),
            ("thread".into(), Json::Int(self.thread as i64)),
            ("start_ns".into(), Json::Int(self.start_ns as i64)),
            ("end_ns".into(), Json::Int(self.end_ns as i64)),
        ])
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

/// A small stable number for the calling thread.
fn thread_index() -> u64 {
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Collects spans from any thread.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// A span that has started; [`Tracer::close`] records it.
pub struct Open {
    pub id: u64,
    parent: u64,
    name: &'static str,
    lane: u64,
    start_ns: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&self, name: &'static str, lane: u64, parent: u64) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Open {
            id,
            parent,
            name,
            lane,
            start_ns: self.now_ns(),
        }
    }

    pub fn close(&self, open: Open) {
        let end_ns = self.now_ns();
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            lane: open.lane,
            thread: thread_index(),
            start_ns: open.start_ns,
            end_ns,
        };
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking span")
            .push(span);
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, lane: u64, parent: u64, f: impl FnOnce() -> T) -> T {
        let open = self.open(name, lane, parent);
        let out = f();
        self.close(open);
        out
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span buffer poisoned by a panicking span")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Writes spans as JSON lines.
///
/// # Errors
///
/// Propagates the write error.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut text = String::new();
    for s in spans {
        text.push_str(&s.to_json().to_string());
        text.push('\n');
    }
    std::fs::write(path, text)
}

/// Total nanoseconds covered by a set of intervals, overlaps counted once.
fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Each span's self time: its duration minus the union of its children's
/// intervals, clipped to the span. Keyed by span id.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut clipped: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            (s.id, s.duration_ns() - union_ns(&mut clipped))
        })
        .collect()
}

/// Count, total and self time of every span name, sorted by name.
pub fn totals(spans: &[Span]) -> Vec<crate::report::SpanTotal> {
    let self_ns = self_times(spans);
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = by_name.entry(s.name).or_default();
        *e = (e.0 + 1, e.1 + s.duration_ns(), e.2 + self_ns[&s.id]);
    }
    by_name
        .into_iter()
        .map(|(name, (count, total, own))| crate::report::SpanTotal {
            name: name.to_owned(),
            count,
            total_ms: total as f64 / 1e6,
            self_ms: own as f64 / 1e6,
        })
        .collect()
}

/// Sum of the durations of every span called `name`, and how many there were.
pub fn total_ns(spans: &[Span], name: &str) -> (u64, usize) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(sum, n), s| (sum + s.duration_ns(), n + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            lane: 0,
            thread: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span(1, 0, 0, 100),
            // Two overlapping children cover 10..50 (40 ns), a third 60..70,
            // and a fourth runs past the parent's end and is clipped at 100.
            span(2, 1, 10, 40),
            span(3, 1, 30, 50),
            span(4, 1, 60, 70),
            span(5, 1, 95, 130),
            // A grandchild does not count against the root.
            span(6, 2, 12, 20),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 40 - 10 - 5);
        assert_eq!(st[&2], 30 - 8);
        assert_eq!(st[&6], 8);
    }

    #[test]
    fn union_merges_touching_and_nested_intervals() {
        assert_eq!(union_ns(&mut [(0, 10), (10, 20), (2, 5), (30, 31)]), 21);
        assert_eq!(union_ns(&mut []), 0);
    }

    #[test]
    fn tracer_records_nesting_and_threads() {
        let t = Tracer::new();
        let root = t.open("root", 7, 0);
        let v = t.time("child", 7, root.id, || 41 + 1);
        let root_id = root.id;
        t.close(root);
        std::thread::scope(|s| {
            s.spawn(|| t.time("other", NO_LANE, 0, || ()));
        });
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(child.parent, root_id);
        let other = spans.iter().find(|s| s.name == "other").unwrap();
        assert_ne!(other.thread, child.thread);
        assert_eq!(total_ns(&spans, "child").1, 1);
    }
}
