//! The metrics registry: named counters, gauges and fixed-bucket
//! histograms with cheap atomic updates.
//!
//! Design points:
//!
//! * **Hot-path cost is one atomic op** — counters and gauges are single
//!   atomics; a histogram record is one bucket increment plus a CAS-loop
//!   float add for the running sum. Handles ([`Counter`], [`Gauge`],
//!   [`Histogram`]) are `Arc`s so instrument sites can cache them.
//! * **Snapshots are deterministic in content ordering** — every
//!   [`MetricsSnapshot`] lists metrics sorted by name (the registry keys
//!   live in `BTreeMap`s), so two snapshots of identical state serialize
//!   to identical bytes via `uniloc_stats::json`.
//! * **Fixed buckets** — histogram bucket bounds are chosen at creation
//!   and never move, which makes merges associative and snapshots
//!   mergeable across runs (see [`HistogramSnapshot::merge`]).
//!
//! Values recorded into histograms must be finite; non-finite values are
//! dropped (and counted in the snapshot's `dropped` field) rather than
//! poisoning the sum.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use uniloc_stats::impl_json_struct;
use uniloc_stats::json::{field, FromJson, Json, JsonError, ToJson};

/// Bucket upper bounds for span-duration histograms, in nanoseconds
/// (1 us .. 5 s, roughly logarithmic; the last implicit bucket catches
/// everything slower).
pub const DURATION_BUCKETS_NS: &[f64] = &[
    1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5, 2.5e5, 5e5, 1e6, 2.5e6, 5e6, 1e7, 2.5e7, 5e7, 1e8,
    2.5e8, 5e8, 1e9, 5e9,
];

/// Bucket upper bounds for predicted-minus-actual error residuals, in
/// meters (symmetric around zero; residuals beyond ±30 m land in the edge
/// buckets).
pub const RESIDUAL_BUCKETS_M: &[f64] = &[
    -30.0, -20.0, -15.0, -10.0, -7.0, -5.0, -3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0,
    5.0, 7.0, 10.0, 15.0, 20.0, 30.0,
];

/// A monotone event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value-wins float gauge.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge { bits: AtomicU64::new(0f64.to_bits()) }
    }
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Lock-free float accumulation via a CAS loop on the bit pattern.
fn atomic_f64_add(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

/// A fixed-bucket histogram.
///
/// `bounds` are strictly ascending finite upper bounds; a value `v` lands
/// in the first bucket with `v <= bound`, or in the implicit overflow
/// bucket past the last bound. `counts` therefore has `bounds.len() + 1`
/// entries.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>,
    sum_bits: AtomicU64,
    dropped: AtomicU64,
}

impl Histogram {
    /// Creates a histogram over the given upper bounds.
    ///
    /// # Panics
    ///
    /// Panics when `bounds` is empty, non-finite or not strictly
    /// ascending.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Records one value. Non-finite values are dropped (tallied
    /// separately), never summed.
    pub fn record(&self, v: f64) {
        if !v.is_finite() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let idx = self.bounds.partition_point(|b| v > *b);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        atomic_f64_add(&self.sum_bits, v);
    }

    /// Records a duration in nanoseconds (convenience for span timings).
    pub fn record_ns(&self, ns: u64) {
        self.record(ns as f64);
    }

    /// A consistent-enough point-in-time copy (individual atomics are read
    /// independently; concurrent writers may skew sum vs. counts by the
    /// in-flight records, which is acceptable for telemetry).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }
}

/// An immutable, serializable histogram state.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (ascending, finite).
    pub bounds: Vec<f64>,
    /// Per-bucket counts; `counts[bounds.len()]` is the overflow bucket.
    pub counts: Vec<u64>,
    /// Sum of all recorded (finite) values.
    pub sum: f64,
    /// Number of non-finite values that were rejected.
    pub dropped: u64,
}

impl_json_struct!(HistogramSnapshot { bounds, counts, sum, dropped });

impl HistogramSnapshot {
    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean of recorded values, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            None
        } else {
            Some(self.sum / n as f64)
        }
    }

    /// Lower edge of bucket `i` (the bucket below extends one bucket-width
    /// past the first bound; good enough for percentile interpolation).
    fn lo_edge(&self, i: usize) -> f64 {
        if i == 0 {
            if self.bounds.len() > 1 {
                self.bounds[0] - (self.bounds[1] - self.bounds[0])
            } else {
                self.bounds[0] - 1.0
            }
        } else {
            self.bounds[i - 1]
        }
    }

    /// Estimated `p`-th percentile (0..=100) by linear interpolation
    /// within the containing bucket; values in the overflow bucket clamp
    /// to the last bound. `None` when the histogram is empty or `p` is
    /// out of range.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 || !(0.0..=100.0).contains(&p) {
            return None;
        }
        let target = (p / 100.0) * n as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let prev = cum as f64;
            cum += c;
            if (cum as f64) >= target {
                if i >= self.bounds.len() {
                    // Overflow bucket: no upper edge to interpolate toward.
                    return Some(*self.bounds.last().expect("non-empty bounds"));
                }
                let lo = self.lo_edge(i);
                let hi = self.bounds[i];
                let frac = ((target - prev) / c as f64).clamp(0.0, 1.0);
                return Some(lo + (hi - lo) * frac);
            }
        }
        Some(*self.bounds.last().expect("non-empty bounds"))
    }

    /// The `(p50, p90, p99)` summary.
    pub fn summary(&self) -> Option<(f64, f64, f64)> {
        Some((self.percentile(50.0)?, self.percentile(90.0)?, self.percentile(99.0)?))
    }

    /// Merges two snapshots with identical bounds (bucket-wise count
    /// addition — associative and commutative by construction).
    pub fn merge(&self, other: &HistogramSnapshot) -> Result<HistogramSnapshot, String> {
        if self.bounds != other.bounds {
            return Err("cannot merge histograms with different bucket bounds".to_owned());
        }
        Ok(HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .zip(&other.counts)
                .map(|(a, b)| a + b)
                .collect(),
            sum: self.sum + other.sum,
            dropped: self.dropped + other.dropped,
        })
    }
}

/// A deterministic point-in-time copy of a [`MetricsRegistry`]: every
/// section is sorted by metric name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, count)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, f64)>,
    /// `(name, state)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl_json_struct!(MetricsSnapshot { counters, gauges, histograms });

impl MetricsSnapshot {
    /// One compact JSON line per metric, tagged by kind — the JSONL
    /// sidecar format `uniloc run --metrics` appends after the trace
    /// events.
    pub fn jsonl_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for (name, v) in &self.counters {
            lines.push(
                Json::Obj(vec![
                    ("kind".into(), Json::Str("counter".into())),
                    ("name".into(), Json::Str(name.clone())),
                    ("value".into(), v.to_json()),
                ])
                .to_string(),
            );
        }
        for (name, v) in &self.gauges {
            lines.push(
                Json::Obj(vec![
                    ("kind".into(), Json::Str("gauge".into())),
                    ("name".into(), Json::Str(name.clone())),
                    ("value".into(), v.to_json()),
                ])
                .to_string(),
            );
        }
        for (name, h) in &self.histograms {
            let mut pairs = vec![
                ("kind".into(), Json::Str("histogram".into())),
                ("name".into(), Json::Str(name.clone())),
            ];
            pairs.extend(uniloc_stats::json::flattened(h));
            lines.push(Json::Obj(pairs).to_string());
        }
        lines
    }

    /// Merges two snapshots deterministically, `self` being the earlier
    /// operand in canonical job order: counters add, gauges are
    /// last-writer-wins (`later` overrides where both set a gauge),
    /// histograms bucket-merge. Names are unioned and the result stays
    /// sorted. Errors when two histograms of the same name disagree on
    /// bucket bounds.
    pub fn merge(&self, later: &MetricsSnapshot) -> Result<MetricsSnapshot, String> {
        let mut counters: std::collections::BTreeMap<String, u64> =
            self.counters.iter().cloned().collect();
        for (name, v) in &later.counters {
            *counters.entry(name.clone()).or_insert(0) += v;
        }
        let mut gauges: std::collections::BTreeMap<String, f64> =
            self.gauges.iter().cloned().collect();
        for (name, v) in &later.gauges {
            gauges.insert(name.clone(), *v);
        }
        let mut histograms: std::collections::BTreeMap<String, HistogramSnapshot> =
            self.histograms.iter().cloned().collect();
        for (name, h) in &later.histograms {
            match histograms.get(name) {
                Some(existing) => {
                    let merged = existing
                        .merge(h)
                        .map_err(|e| format!("histogram `{name}`: {e}"))?;
                    histograms.insert(name.clone(), merged);
                }
                None => {
                    histograms.insert(name.clone(), h.clone());
                }
            }
        }
        Ok(MetricsSnapshot {
            counters: counters.into_iter().collect(),
            gauges: gauges.into_iter().collect(),
            histograms: histograms.into_iter().collect(),
        })
    }

    /// Folds one parsed metric JSONL line back into the snapshot; lines of
    /// other kinds (spans, log events) are ignored. Returns whether the
    /// line was a metric.
    pub fn absorb_jsonl(&mut self, line: &Json) -> Result<bool, JsonError> {
        let Some(kind) = line.get("kind").and_then(Json::as_str) else {
            return Ok(false);
        };
        match kind {
            "counter" => {
                let name: String = field(line, "name")?;
                let value: u64 = field(line, "value")?;
                self.counters.push((name, value));
            }
            "gauge" => {
                let name: String = field(line, "name")?;
                let value: f64 = field(line, "value")?;
                self.gauges.push((name, value));
            }
            "histogram" => {
                let name: String = field(line, "name")?;
                let snap = HistogramSnapshot::from_json(&line.without(&["kind", "name"]))?;
                self.histograms.push((name, snap));
            }
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// A thread-safe registry of named metrics.
///
/// Lookup takes a mutex; instrument sites that care should cache the
/// returned `Arc` handle and pay only the atomic update per event.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    /// Sink mode: lookups hand out shared scratch handles that are never
    /// registered, and snapshots come back empty. The obs-stub fleet mode
    /// uses this to measure the layer's cost with the same call sites.
    sink: AtomicBool,
    scratch_counter: OnceLock<Arc<Counter>>,
    scratch_gauge: OnceLock<Arc<Gauge>>,
    scratch_histogram: OnceLock<Arc<Histogram>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Creates a sink registry: updates land in shared scratch atomics
    /// (kept out of every snapshot), so instrument sites run unchanged
    /// while the registry remembers nothing.
    pub fn sink() -> Self {
        let reg = MetricsRegistry::default();
        reg.sink.store(true, Ordering::Relaxed);
        reg
    }

    /// Whether this is a [`sink`](Self::sink) registry. Spans under a
    /// session whose registry is a sink are not timed at all.
    pub(crate) fn is_sink(&self) -> bool {
        self.sink.load(Ordering::Relaxed)
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if self.is_sink() {
            return Arc::clone(self.scratch_counter.get_or_init(Default::default));
        }
        let mut map = self.counters.lock().expect("metrics mutex");
        match map.get(name) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(Counter::default());
                map.insert(name.to_owned(), Arc::clone(&c));
                c
            }
        }
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if self.is_sink() {
            return Arc::clone(self.scratch_gauge.get_or_init(Default::default));
        }
        let mut map = self.gauges.lock().expect("metrics mutex");
        match map.get(name) {
            Some(g) => Arc::clone(g),
            None => {
                let g = Arc::new(Gauge::default());
                map.insert(name.to_owned(), Arc::clone(&g));
                g
            }
        }
    }

    /// The histogram named `name`, created with `bounds` on first use
    /// (later callers share the original buckets regardless of their
    /// `bounds` argument, keeping merges well-defined).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        if self.is_sink() {
            // The first caller's bounds serve every scratch record; the
            // values are never read back, so the bucketing is irrelevant.
            return Arc::clone(
                self.scratch_histogram.get_or_init(|| Arc::new(Histogram::new(bounds))),
            );
        }
        let mut map = self.histograms.lock().expect("metrics mutex");
        match map.get(name) {
            Some(h) => Arc::clone(h),
            None => {
                let h = Arc::new(Histogram::new(bounds));
                map.insert(name.to_owned(), Arc::clone(&h));
                h
            }
        }
    }

    /// A deterministic snapshot: metrics sorted by name within each kind.
    /// A sink registry snapshots empty.
    pub fn snapshot(&self) -> MetricsSnapshot {
        if self.is_sink() {
            return MetricsSnapshot::default();
        }
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .expect("metrics mutex")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("metrics mutex")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("metrics mutex")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Drops every registered metric (test isolation; cached handles keep
    /// their atomics but detach from future snapshots).
    pub fn reset(&self) {
        self.counters.lock().expect("metrics mutex").clear();
        self.gauges.lock().expect("metrics mutex").clear();
        self.histograms.lock().expect("metrics mutex").clear();
    }
}

/// The registry the instrumentation writes to: the current thread's
/// [`ObsSession`](crate::session::ObsSession) when one is installed,
/// otherwise the process-wide registry.
pub fn global_metrics() -> Arc<MetricsRegistry> {
    if let Some(session) = crate::session::current() {
        return Arc::clone(&session.metrics);
    }
    process_metrics()
}

/// The process-wide registry, bypassing any installed session.
pub fn process_metrics() -> Arc<MetricsRegistry> {
    static GLOBAL: OnceLock<Arc<MetricsRegistry>> = OnceLock::new();
    Arc::clone(GLOBAL.get_or_init(|| Arc::new(MetricsRegistry::new())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniloc_stats::json::{from_str, to_string};

    #[test]
    fn counters_and_gauges_update() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("epochs");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name, same handle.
        assert_eq!(reg.counter("epochs").get(), 5);

        let g = reg.gauge("ess");
        g.set(123.5);
        assert_eq!(reg.gauge("ess").get(), 123.5);
    }

    #[test]
    fn histogram_buckets_values() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        for v in [0.5, 1.0, 1.5, 3.0, 100.0] {
            h.record(v);
        }
        let s = h.snapshot();
        // 0.5 and 1.0 in bucket 0 (v <= 1.0), 1.5 in bucket 1, 3.0 in
        // bucket 2, 100.0 in overflow.
        assert_eq!(s.counts, vec![2, 1, 1, 1]);
        assert_eq!(s.count(), 5);
        assert!((s.sum - 106.0).abs() < 1e-12);
        assert_eq!(s.dropped, 0);
    }

    #[test]
    fn histogram_drops_non_finite() {
        let h = Histogram::new(&[1.0]);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(0.5);
        let s = h.snapshot();
        assert_eq!(s.count(), 1);
        assert_eq!(s.dropped, 2);
        assert!(s.sum.is_finite());
    }

    #[test]
    fn percentiles_are_sane() {
        let h = Histogram::new(&[10.0, 20.0, 30.0, 40.0]);
        for i in 0..100 {
            h.record(f64::from(i) * 0.4); // uniform 0..40
        }
        let s = h.snapshot();
        let (p50, p90, p99) = s.summary().unwrap();
        assert!((p50 - 20.0).abs() < 5.0, "p50 {p50}");
        assert!((p90 - 36.0).abs() < 5.0, "p90 {p90}");
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        assert!((s.mean().unwrap() - 19.8).abs() < 1e-9);
    }

    #[test]
    fn percentile_edge_cases() {
        let h = Histogram::new(&[1.0]);
        assert_eq!(h.snapshot().percentile(50.0), None, "empty histogram");
        h.record(5.0); // overflow bucket
        let s = h.snapshot();
        assert_eq!(s.percentile(50.0), Some(1.0), "overflow clamps to last bound");
        assert_eq!(s.percentile(101.0), None);
    }

    #[test]
    fn merge_requires_matching_bounds() {
        let a = Histogram::new(&[1.0, 2.0]).snapshot();
        let b = Histogram::new(&[1.0, 3.0]).snapshot();
        assert!(a.merge(&b).is_err());

        let h1 = Histogram::new(&[1.0, 2.0]);
        h1.record(0.5);
        let h2 = Histogram::new(&[1.0, 2.0]);
        h2.record(1.5);
        let merged = h1.snapshot().merge(&h2.snapshot()).unwrap();
        assert_eq!(merged.counts, vec![1, 1, 0]);
        assert_eq!(merged.sum, 2.0);
    }

    #[test]
    fn snapshot_ordering_is_deterministic() {
        let reg = MetricsRegistry::new();
        reg.counter("zebra").inc();
        reg.counter("alpha").inc();
        reg.gauge("mid").set(1.0);
        let s1 = reg.snapshot();
        let s2 = reg.snapshot();
        assert_eq!(s1, s2);
        assert_eq!(s1.counters[0].0, "alpha");
        assert_eq!(s1.counters[1].0, "zebra");
        assert_eq!(to_string(&s1), to_string(&s2));
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let reg = MetricsRegistry::new();
        reg.counter("a").add(3);
        reg.gauge("b").set(-1.5);
        reg.histogram("c", &[1.0, 2.0]).record(1.5);
        let snap = reg.snapshot();
        let back: MetricsSnapshot = from_str(&to_string(&snap)).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn jsonl_lines_absorb_back() {
        let reg = MetricsRegistry::new();
        reg.counter("fusion.mode.bma").add(7);
        reg.gauge("pdr.ess").set(250.0);
        reg.histogram("residual", RESIDUAL_BUCKETS_M).record(0.25);
        let snap = reg.snapshot();

        let mut back = MetricsSnapshot::default();
        for line in snap.jsonl_lines() {
            let parsed = Json::parse(&line).unwrap();
            assert!(back.absorb_jsonl(&parsed).unwrap());
        }
        assert_eq!(back, snap);
        // Non-metric lines are skipped, not errors.
        let span = Json::parse(r#"{"kind":"span","name":"x"}"#).unwrap();
        assert!(!back.absorb_jsonl(&span).unwrap());
    }

    #[test]
    fn snapshot_merge_adds_counters_and_overrides_gauges() {
        let a = MetricsRegistry::new();
        a.counter("epochs").add(3);
        a.counter("only_a").inc();
        a.gauge("tau").set(0.25);
        a.gauge("only_a_gauge").set(1.0);
        a.histogram("lat", &[1.0, 2.0]).record(0.5);
        let b = MetricsRegistry::new();
        b.counter("epochs").add(4);
        b.gauge("tau").set(0.75);
        b.histogram("lat", &[1.0, 2.0]).record(1.5);
        b.histogram("only_b", &[1.0]).record(0.5);

        let merged = a.snapshot().merge(&b.snapshot()).unwrap();
        assert!(merged.counters.contains(&("epochs".to_owned(), 7)));
        assert!(merged.counters.contains(&("only_a".to_owned(), 1)));
        assert!(merged.gauges.contains(&("tau".to_owned(), 0.75)), "later writer wins");
        assert!(merged.gauges.contains(&("only_a_gauge".to_owned(), 1.0)));
        let lat = &merged.histograms.iter().find(|(n, _)| n == "lat").unwrap().1;
        assert_eq!(lat.counts, vec![1, 1, 0]);
        assert!(merged.histograms.iter().any(|(n, _)| n == "only_b"));
        // Sorted output, and mismatched bounds are an error.
        let names: Vec<&String> = merged.counters.iter().map(|(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        let c = MetricsRegistry::new();
        c.histogram("lat", &[9.0]).record(0.5);
        assert!(a.snapshot().merge(&c.snapshot()).is_err());
    }

    #[test]
    fn registry_reset_clears() {
        let reg = MetricsRegistry::new();
        reg.counter("x").inc();
        reg.reset();
        assert!(reg.snapshot().counters.is_empty());
    }
}
