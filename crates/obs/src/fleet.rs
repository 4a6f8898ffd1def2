//! The fleet observatory: sharded telemetry aggregation over per-session
//! captures, a deterministic span-count profiler, and an SLO health plane.
//!
//! A fleet run retires thousands of isolated
//! [`ObsSession`](crate::session::ObsSession) captures in lane order. This
//! module folds them into one [`FleetSnapshot`] through a fixed number of
//! *shards* (a retired session folds into shard `lane % shards`, and the
//! final snapshot merges the shards): the shard merge is the same algebra
//! as the per-shard fold, so the result is independent of shard count and
//! of which worker retired which session — the property
//! `tests/fleet_proptests.rs` holds.
//!
//! # Merge algebra
//!
//! Every aggregated quantity is chosen so the merge is **associative and
//! commutative, exactly**:
//!
//! * counters and bucket counts are `u64` sums;
//! * value sums are *fixed-point micro-units* in `i128`
//!   ([`micro`]) — float addition is not associative, integer addition is;
//! * gone are last-writer-wins gauges: the fleet level keeps only
//!   mergeable shapes (counts, sparse histograms, top-K exemplars);
//! * the worst-session exemplar list is a top-K selection under a total
//!   order (mean error descending, lane ascending), and top-K selection
//!   under a total order commutes with merging.
//!
//! # Profiler determinism
//!
//! Fleet sessions run under a per-session
//! [`VirtualClock`](crate::clock::VirtualClock) synced once per epoch, so
//! every intra-epoch span has *zero duration* — deterministic but useless
//! as a timing. The profiler therefore accounts **invocation counts**, not
//! nanoseconds: the `span.*` histogram counts are exact integers, byte
//! identical at any worker count. The collapsed-stack output
//! (`PROF_fleet.folded`) and stage tree (`PROF_fleet.json`) are flamegraph
//! shaped with call counts as values.

use std::collections::BTreeMap;

use crate::alloc::span_parent;
use crate::session::SessionCapture;
use uniloc_stats::json::{decimal, flattened, float, object, FromJson, Json, JsonError, ToJson};

/// Bucket upper bounds for per-session mean localization error, meters.
pub const ERROR_BUCKETS_M: &[f64] =
    &[0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 7.0, 10.0, 15.0, 20.0, 30.0, 50.0];

/// Default shard count for [`FleetAggregator::new`].
pub const DEFAULT_SHARDS: usize = 8;

/// Default worst-session exemplar count kept per snapshot (and per
/// shard); override per snapshot with [`FleetSnapshot::with_exemplar_cap`]
/// (a library fleet's `FleetConfig::top_k`).
pub const EXEMPLAR_CAP: usize = 8;

/// A finite value in fixed-point micro-units (`v * 1e6`, rounded). Integer
/// micro-units make fleet-level sums associative where `f64` sums are not.
pub fn micro(v: f64) -> i64 {
    (v * 1e6).round() as i64
}

/// A sparse fixed-point histogram over a caller-supplied bound table:
/// only touched buckets are stored, the value sum is integer micro-units,
/// and the merge is exact bucket-wise addition.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SparseHist {
    /// Bucket index → count. Index `i < bounds.len()` covers
    /// `v <= bounds[i]` (first match); index `bounds.len()` is overflow.
    pub counts: BTreeMap<usize, u64>,
    /// Sum of recorded values in micro-units.
    pub sum_micro: i128,
    /// Non-finite values rejected.
    pub dropped: u64,
}

impl SparseHist {
    /// Records one value against `bounds` (ascending upper bounds, the
    /// same table every merge partner must use).
    pub fn record(&mut self, bounds: &[f64], v: f64) {
        if !v.is_finite() {
            self.dropped += 1;
            return;
        }
        let idx = bounds.partition_point(|b| v > *b);
        *self.counts.entry(idx).or_insert(0) += 1;
        self.sum_micro += micro(v) as i128;
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Exact merge: bucket-wise `u64` addition plus integer sum addition —
    /// associative and commutative by construction.
    pub fn merge(&self, other: &SparseHist) -> SparseHist {
        let mut counts = self.counts.clone();
        for (&i, &c) in &other.counts {
            *counts.entry(i).or_insert(0) += c;
        }
        SparseHist {
            counts,
            sum_micro: self.sum_micro + other.sum_micro,
            dropped: self.dropped + other.dropped,
        }
    }

    /// Densifies against `bounds` for serialization:
    /// `(dense counts, mean value)`.
    pub fn dense(&self, bounds: &[f64]) -> (Vec<u64>, Option<f64>) {
        let mut dense = vec![0u64; bounds.len() + 1];
        for (&i, &c) in &self.counts {
            if let Some(slot) = dense.get_mut(i) {
                *slot = c;
            }
        }
        let n = self.count();
        let mean = (n > 0).then(|| self.sum_micro as f64 / 1e6 / n as f64);
        (dense, mean)
    }
}

/// One retired session's identity and summary facts, as the aggregator
/// needs them. The caller (the fleet load generator) builds this from its
/// [`SessionSpec`]-equivalent plus the record summary.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionMeta {
    /// Unique fleet lane.
    pub lane: u64,
    /// Display name.
    pub name: String,
    /// Walker persona (cohort axis 1).
    pub persona: String,
    /// Device profile (cohort axis 2).
    pub device: String,
    /// Venue / scenario name (cohort axis 3).
    pub venue: String,
    /// Whether the session walked under a fault plan.
    pub faulted: bool,
    /// Epochs recorded.
    pub epochs: u64,
    /// Mean fused localization error over the walk, meters.
    pub mean_error_m: Option<f64>,
    /// Non-finite fused estimates observed.
    pub nonfinite: u64,
    /// Schemes the session ever quarantined.
    pub quarantined: Vec<String>,
}

impl SessionMeta {
    /// The session's cohort key: `persona/device/venue`.
    pub fn cohort(&self) -> String {
        format!("{}/{}/{}", self.persona, self.device, self.venue)
    }
}

/// Per-cohort (persona × device × venue) aggregate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CohortStats {
    /// Sessions retired in the cohort.
    pub sessions: u64,
    /// Epochs recorded across them.
    pub epochs: u64,
    /// Sessions under a fault plan.
    pub faulted: u64,
    /// Sessions that quarantined at least one scheme.
    pub quarantined: u64,
    /// Calibration drift alarms raised.
    pub drift_alarms: u64,
    /// Flight-recorder postmortems dumped.
    pub flight_dumps: u64,
    /// Non-finite fused estimates.
    pub nonfinite: u64,
    /// Per-session mean error distribution ([`ERROR_BUCKETS_M`]).
    pub error_hist: SparseHist,
}

impl CohortStats {
    fn merge(&self, other: &CohortStats) -> CohortStats {
        CohortStats {
            sessions: self.sessions + other.sessions,
            epochs: self.epochs + other.epochs,
            faulted: self.faulted + other.faulted,
            quarantined: self.quarantined + other.quarantined,
            drift_alarms: self.drift_alarms + other.drift_alarms,
            flight_dumps: self.flight_dumps + other.flight_dumps,
            nonfinite: self.nonfinite + other.nonfinite,
            error_hist: self.error_hist.merge(&other.error_hist),
        }
    }
}

/// One worst-session exemplar: enough identity to find the session's row
/// (and its flight-recorder postmortems) in `FLEET.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exemplar {
    /// Fleet lane (links to the `FLEET.json` row of the same lane).
    pub lane: u64,
    /// Session display name.
    pub name: String,
    /// Mean fused error in micro-meters (the ranking key; fixed point so
    /// the top-K order is total).
    pub mean_error_micro: i64,
    /// Epochs recorded.
    pub epochs: u64,
    /// Flight-recorder postmortem lines the session captured — the link
    /// target: `uniloc inspect` over the session's sidecar shows
    /// exactly these.
    pub flight_postmortems: u64,
    /// Schemes the session quarantined.
    pub quarantined: Vec<String>,
}

/// The exemplar total order: worst (largest mean error) first, ties by
/// lane ascending. Total because the key is integer.
fn exemplar_key(e: &Exemplar) -> (i64, u64) {
    (-e.mean_error_micro, e.lane)
}

/// Top-K under the total order; associative/commutative as a merge.
fn top_k(mut all: Vec<Exemplar>, k: usize) -> Vec<Exemplar> {
    all.sort_by_key(exemplar_key);
    all.dedup_by_key(|e| e.lane);
    all.truncate(k);
    all
}

/// One fleet-wide (or one shard's) aggregate. The merge of two snapshots
/// is field-wise and exact — see the module docs for the algebra.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSnapshot {
    /// Worst-session exemplars kept (the configurable top-K; merging
    /// takes the larger partner's cap so a widened cap survives folds).
    pub exemplar_cap: usize,
    /// Sessions folded in.
    pub sessions: u64,
    /// Epochs recorded across them.
    pub epochs: u64,
    /// Sessions under a fault plan.
    pub faulted: u64,
    /// Sessions that quarantined at least one scheme.
    pub quarantined_sessions: u64,
    /// Non-finite fused estimates.
    pub nonfinite: u64,
    /// Every session counter, summed by name (`pipeline.epochs`,
    /// `engine.scheme.available.<id>`, `quarantine.tripped.<id>`,
    /// `calib.drift_alarms`, `flight.dumps`, ...).
    pub counters: BTreeMap<String, u64>,
    /// `span.<name>` invocation counts from the session captures.
    pub span_counts: BTreeMap<String, u64>,
    /// Per-session mean error distribution ([`ERROR_BUCKETS_M`]).
    pub error_hist: SparseHist,
    /// Per-cohort breakdown, keyed `persona/device/venue`.
    pub cohorts: BTreeMap<String, CohortStats>,
    /// The [`EXEMPLAR_CAP`] worst sessions by mean error.
    pub exemplars: Vec<Exemplar>,
}

impl Default for FleetSnapshot {
    fn default() -> Self {
        FleetSnapshot {
            exemplar_cap: EXEMPLAR_CAP,
            sessions: 0,
            epochs: 0,
            faulted: 0,
            quarantined_sessions: 0,
            nonfinite: 0,
            counters: BTreeMap::new(),
            span_counts: BTreeMap::new(),
            error_hist: SparseHist::default(),
            cohorts: BTreeMap::new(),
            exemplars: Vec::new(),
        }
    }
}

impl FleetSnapshot {
    /// An empty snapshot keeping the worst `cap` exemplars (`0` keeps
    /// [`EXEMPLAR_CAP`]).
    pub fn with_exemplar_cap(cap: usize) -> FleetSnapshot {
        FleetSnapshot {
            exemplar_cap: if cap == 0 { EXEMPLAR_CAP } else { cap },
            ..FleetSnapshot::default()
        }
    }

    /// Folds one retired session into this snapshot.
    pub fn observe(&mut self, meta: &SessionMeta, capture: &SessionCapture) {
        self.sessions += 1;
        self.epochs += meta.epochs;
        self.faulted += u64::from(meta.faulted);
        self.quarantined_sessions += u64::from(!meta.quarantined.is_empty());
        self.nonfinite += meta.nonfinite;
        for (name, v) in &capture.metrics.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, h) in &capture.metrics.histograms {
            if let Some(span) = name.strip_prefix("span.") {
                *self.span_counts.entry(span.to_owned()).or_insert(0) += h.count();
            }
        }
        if let Some(err) = meta.mean_error_m {
            self.error_hist.record(ERROR_BUCKETS_M, err);
        }

        let counter = |name: &str| {
            capture.metrics.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
        };
        let cohort = self.cohorts.entry(meta.cohort()).or_default();
        cohort.sessions += 1;
        cohort.epochs += meta.epochs;
        cohort.faulted += u64::from(meta.faulted);
        cohort.quarantined += u64::from(!meta.quarantined.is_empty());
        cohort.drift_alarms += counter("calib.drift_alarms");
        cohort.flight_dumps += counter("flight.dumps");
        cohort.nonfinite += meta.nonfinite;
        if let Some(err) = meta.mean_error_m {
            cohort.error_hist.record(ERROR_BUCKETS_M, err);
        }

        if let Some(err) = meta.mean_error_m.filter(|e| e.is_finite()) {
            let mut pool = std::mem::take(&mut self.exemplars);
            pool.push(Exemplar {
                lane: meta.lane,
                name: meta.name.clone(),
                mean_error_micro: micro(err),
                epochs: meta.epochs,
                flight_postmortems: capture.flight_lines.len() as u64,
                quarantined: meta.quarantined.clone(),
            });
            self.exemplars = top_k(pool, self.exemplar_cap);
        }
    }

    /// Exact field-wise merge (associative and commutative; property
    /// tested).
    pub fn merge(&self, other: &FleetSnapshot) -> FleetSnapshot {
        let mut counters = self.counters.clone();
        for (name, v) in &other.counters {
            *counters.entry(name.clone()).or_insert(0) += v;
        }
        let mut span_counts = self.span_counts.clone();
        for (name, v) in &other.span_counts {
            *span_counts.entry(name.clone()).or_insert(0) += v;
        }
        let mut cohorts = self.cohorts.clone();
        for (key, stats) in &other.cohorts {
            let merged = match cohorts.get(key) {
                Some(mine) => mine.merge(stats),
                None => stats.clone(),
            };
            cohorts.insert(key.clone(), merged);
        }
        let mut exemplars = self.exemplars.clone();
        exemplars.extend(other.exemplars.iter().cloned());
        let exemplar_cap = self.exemplar_cap.max(other.exemplar_cap);
        FleetSnapshot {
            exemplar_cap,
            sessions: self.sessions + other.sessions,
            epochs: self.epochs + other.epochs,
            faulted: self.faulted + other.faulted,
            quarantined_sessions: self.quarantined_sessions + other.quarantined_sessions,
            nonfinite: self.nonfinite + other.nonfinite,
            counters,
            span_counts,
            error_hist: self.error_hist.merge(&other.error_hist),
            cohorts,
            exemplars: top_k(exemplars, exemplar_cap),
        }
    }

    /// The summed value of one counter (0 when never seen).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Steady-state heap allocations per epoch: the exact integer ratio
    /// `alloc.steady.allocs / alloc.steady_epochs` from the allocation
    /// observatory (`uniloc_obs::alloc`); 0 when no steady epochs were
    /// tracked. Both operands are plain summed counters, so the meter
    /// merges across sessions and shards exactly.
    pub fn allocs_per_epoch(&self) -> f64 {
        let epochs = self.counter("alloc.steady_epochs");
        if epochs == 0 {
            return 0.0;
        }
        self.counter("alloc.steady.allocs") as f64 / epochs as f64
    }

    /// Per-scheme availability: scheme →
    /// `(available epochs, availability fraction)` from the
    /// `engine.scheme.available.<id>` counters over `pipeline.epochs`.
    pub fn availability(&self) -> BTreeMap<String, (u64, f64)> {
        let denom = self.counter("pipeline.epochs").max(self.epochs);
        let mut out = BTreeMap::new();
        for (name, v) in &self.counters {
            if let Some(id) = name.strip_prefix("engine.scheme.available.") {
                let frac = if denom > 0 { *v as f64 / denom as f64 } else { 0.0 };
                out.insert(id.to_owned(), (*v, frac));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Snapshot serialization — the checkpoint-resident form
// ---------------------------------------------------------------------------
//
// A fleet checkpoint must carry the aggregate of every *retired* session,
// because resume only replays the *resident* ones. These forms are exact:
// every count survives as an integer (`sum_micro` travels as a decimal
// string — i128 overflows `Json::Int`), so
// `restore(checkpoint).merge(post_resume)` equals the uninterrupted fold
// byte for byte. Round-trip fidelity is property-tested in
// `tests/fleet_properties.rs`.

/// [`SparseHist::counts`] as `[index, count]` pairs in index order.
mod buckets {
    use super::{BTreeMap, FromJson, Json, JsonError, ToJson};

    pub fn to_json(counts: &BTreeMap<usize, u64>) -> Json {
        counts.to_json()
    }

    /// The writer emits each bucket once, in index order. A repeat would
    /// silently keep only its last count.
    pub fn from_json(json: &Json) -> Result<BTreeMap<usize, u64>, JsonError> {
        let pairs: Vec<(usize, u64)> = FromJson::from_json(json)?;
        match pairs.windows(2).find(|w| w[1].0 <= w[0].0) {
            Some(w) => Err(JsonError::new(format!(
                "sparse histogram bucket index {} repeats or is out of order",
                w[1].0
            ))),
            None => Ok(pairs.into_iter().collect()),
        }
    }
}

/// An `error_hist` field: a [`SparseHist`] over [`ERROR_BUCKETS_M`]. An
/// index past the overflow bucket would count in `count()` yet drop out
/// of `dense`, so the health plane would print a mean over sessions its
/// bucket counts do not show.
mod error_buckets {
    use super::{FromJson, Json, JsonError, SparseHist, ToJson, ERROR_BUCKETS_M};

    pub fn to_json(hist: &SparseHist) -> Json {
        hist.to_json()
    }

    pub fn from_json(json: &Json) -> Result<SparseHist, JsonError> {
        let hist = SparseHist::from_json(json)?;
        match hist.counts.keys().next_back() {
            Some(&i) if i > ERROR_BUCKETS_M.len() => Err(JsonError::new(format!(
                "bucket index {i} is past the overflow bucket {}",
                ERROR_BUCKETS_M.len()
            ))),
            _ => Ok(hist),
        }
    }
}

uniloc_stats::impl_json_struct!(SparseHist { counts with buckets, sum_micro with decimal, dropped });

uniloc_stats::impl_json_struct!(CohortStats {
    sessions,
    epochs,
    faulted,
    quarantined,
    drift_alarms,
    flight_dumps,
    nonfinite,
    error_hist with error_buckets,
});

uniloc_stats::impl_json_struct!(Exemplar {
    lane,
    name,
    mean_error_micro,
    epochs,
    flight_postmortems,
    quarantined,
});

uniloc_stats::impl_json_struct!(FleetSnapshot {
    exemplar_cap,
    sessions,
    epochs,
    faulted,
    quarantined_sessions,
    nonfinite,
    counters with object,
    span_counts with object,
    error_hist with error_buckets,
    cohorts with object,
    exemplars,
});

/// The sharded fold: sessions route to shard `lane % shards`, and
/// [`FleetAggregator::snapshot`] merges the shards. Because the merge is
/// associative and commutative, the snapshot is invariant in the shard
/// count and in the fold order within a shard's lane set.
#[derive(Debug)]
pub struct FleetAggregator {
    shards: Vec<FleetSnapshot>,
}

impl FleetAggregator {
    /// An aggregator with `shards` shards (`0` picks [`DEFAULT_SHARDS`])
    /// keeping the default [`EXEMPLAR_CAP`] worst exemplars.
    pub fn new(shards: usize) -> FleetAggregator {
        FleetAggregator::with_exemplar_cap(shards, EXEMPLAR_CAP)
    }

    /// [`new`](Self::new) with a configurable worst-K exemplar count
    /// (`0` keeps [`EXEMPLAR_CAP`]).
    pub fn with_exemplar_cap(shards: usize, cap: usize) -> FleetAggregator {
        let n = if shards == 0 { DEFAULT_SHARDS } else { shards };
        FleetAggregator { shards: vec![FleetSnapshot::with_exemplar_cap(cap); n] }
    }

    /// Folds one retired session into its lane's shard.
    pub fn observe(&mut self, meta: &SessionMeta, capture: &SessionCapture) {
        let shard = (meta.lane % self.shards.len() as u64) as usize;
        self.shards[shard].observe(meta, capture);
    }

    /// Merges every shard into the fleet snapshot. Folds from the first
    /// shard (not an empty default) so a sub-default exemplar cap is not
    /// widened back to [`EXEMPLAR_CAP`] by the merge's max-cap rule.
    pub fn snapshot(&self) -> FleetSnapshot {
        let mut iter = self.shards.iter();
        let first = iter.next().cloned().unwrap_or_default();
        iter.fold(first, |acc, s| acc.merge(s))
    }
}

// ---------------------------------------------------------------------------
// SLO health plane
// ---------------------------------------------------------------------------

/// Declared fleet SLO targets. `min_availability` rows are lower bounds on
/// a scheme's available-epoch fraction; the `max_*` rows are budgets.
#[derive(Debug, Clone, PartialEq)]
pub struct SloTargets {
    /// Scheme → minimum available-epoch fraction.
    pub min_availability: Vec<(String, f64)>,
    /// Maximum fraction of sessions that quarantine any scheme.
    pub max_quarantined_frac: f64,
    /// Maximum calibration drift alarms per 1000 epochs.
    pub max_drift_alarms_per_kepoch: f64,
    /// Maximum fraction of flight postmortems lost to the dump cap
    /// (`flight.dropped / (flight.dumps + flight.dropped)`).
    pub max_flight_drop_frac: f64,
    /// Maximum non-finite fused estimates (the defense stack's contract
    /// is zero).
    pub max_nonfinite: u64,
    /// Maximum steady-state heap allocations per epoch
    /// ([`FleetSnapshot::allocs_per_epoch`]) — the budget the zero-alloc
    /// roadmap work ratchets down.
    pub max_allocs_per_epoch: f64,
}

impl Default for SloTargets {
    fn default() -> Self {
        SloTargets {
            // GPS is legitimately dark indoors; the indoor schemes carry.
            min_availability: vec![
                ("cellular".to_owned(), 0.75),
                ("fusion".to_owned(), 0.75),
                ("gps".to_owned(), 0.05),
                ("motion".to_owned(), 0.85),
                ("wifi".to_owned(), 0.75),
            ],
            max_quarantined_frac: 0.25,
            max_drift_alarms_per_kepoch: 50.0,
            max_flight_drop_frac: 0.5,
            max_nonfinite: 0,
            // The epoch loop is allocation-free once warm (indexed
            // matching + scratch reuse; see core/tests/zero_alloc.rs), so
            // steady state is ~0.07 allocs/epoch — all chaos-driven rare
            // paths. The SLO holds a small ceiling above that (CI pins the
            // tight line via `--alloc-budget 0.5`): one real per-epoch
            // allocation adds >= 1/epoch and trips both.
            max_allocs_per_epoch: 2.0,
        }
    }
}

/// One evaluated SLO row.
#[derive(Debug, Clone, PartialEq)]
pub struct SloRow {
    /// SLO name (`availability.wifi`, `quarantined_sessions`, ...).
    pub name: String,
    /// `"min"` (observed must stay above target) or `"max"` (budget).
    pub kind: String,
    /// Declared target.
    pub target: f64,
    /// Observed value.
    pub observed: f64,
    /// Budget burn: fraction of the error budget consumed (`> 1` means
    /// violated). For `min` rows the budget is `1 - target`.
    pub burn: f64,
    /// Whether the SLO holds.
    pub ok: bool,
}

uniloc_stats::impl_json_struct!(SloRow { name, kind, target, observed, burn, ok });

fn max_row(name: &str, target: f64, observed: f64) -> SloRow {
    let burn = if target > 0.0 { observed / target } else { observed };
    SloRow {
        name: name.to_owned(),
        kind: "max".to_owned(),
        target,
        observed,
        burn,
        ok: observed <= target,
    }
}

/// Evaluates the snapshot against the targets. Every observed value is a
/// ratio of integers from the snapshot, so the rows are deterministic at
/// any worker/shard count.
pub fn evaluate_slos(snap: &FleetSnapshot, targets: &SloTargets) -> Vec<SloRow> {
    let mut rows = Vec::new();
    let avail = snap.availability();
    for (scheme, target) in &targets.min_availability {
        let observed = avail.get(scheme).map_or(0.0, |(_, f)| *f);
        let budget = 1.0 - target;
        let burn = if budget > 0.0 { (1.0 - observed) / budget } else { 1.0 - observed };
        rows.push(SloRow {
            name: format!("availability.{scheme}"),
            kind: "min".to_owned(),
            target: *target,
            observed,
            burn,
            ok: observed >= *target,
        });
    }
    let sessions = snap.sessions.max(1) as f64;
    rows.push(max_row(
        "quarantined_sessions",
        targets.max_quarantined_frac,
        snap.quarantined_sessions as f64 / sessions,
    ));
    let kepochs = snap.epochs.max(1) as f64 / 1000.0;
    rows.push(max_row(
        "drift_alarms_per_kepoch",
        targets.max_drift_alarms_per_kepoch,
        snap.counter("calib.drift_alarms") as f64 / kepochs,
    ));
    let dumps = snap.counter("flight.dumps");
    let dropped = snap.counter("flight.dropped");
    let drop_frac =
        if dumps + dropped > 0 { dropped as f64 / (dumps + dropped) as f64 } else { 0.0 };
    rows.push(max_row("flight_drop_frac", targets.max_flight_drop_frac, drop_frac));
    rows.push(max_row(
        "nonfinite_fused",
        targets.max_nonfinite as f64,
        snap.nonfinite as f64,
    ));
    rows.push(max_row(
        "allocs_per_epoch",
        targets.max_allocs_per_epoch,
        snap.allocs_per_epoch(),
    ));
    rows
}

/// Assembles the canonical `FLEET_HEALTH.json` document: SLO rows,
/// per-scheme availability/quarantine, cohort breakdown, error
/// distribution, exemplars and flight/calibration totals. Deliberately
/// excludes every wall-clock number — byte-identical at any
/// `--jobs`/`--resident`/shard value (wall-clock latency is measured by
/// the fleet benchmark in `benchmark/`).
pub fn health_report(snap: &FleetSnapshot, targets: &SloTargets) -> Json {
    let slo_rows = evaluate_slos(snap, targets).to_json();
    let schemes: Vec<(String, Json)> = snap
        .availability()
        .iter()
        .map(|(id, (epochs, frac))| {
            (
                id.clone(),
                Json::Obj(vec![
                    ("available_epochs".into(), epochs.to_json()),
                    ("availability".into(), Json::Num(*frac)),
                    (
                        "quarantine_tripped".into(),
                        snap.counter(&format!("quarantine.tripped.{id}")).to_json(),
                    ),
                    (
                        "quarantine_readmitted".into(),
                        snap.counter(&format!("quarantine.readmitted.{id}")).to_json(),
                    ),
                ]),
            )
        })
        .collect();
    // The cohort and exemplar views are the records' own forms with the
    // fixed-point error fields rendered in meters.
    let cohorts: Vec<(String, Json)> = snap
        .cohorts
        .iter()
        .map(|(key, c)| {
            let (counts, mean) = c.error_hist.dense(ERROR_BUCKETS_M);
            let mut pairs = flattened(c);
            pairs.retain(|(k, _)| k != "error_hist");
            pairs.push(("mean_error_m".into(), float::to_json(&mean)));
            pairs.push(("error_counts".into(), counts.to_json()));
            (key.clone(), Json::Obj(pairs))
        })
        .collect();
    let exemplars: Vec<Json> = snap
        .exemplars
        .iter()
        .map(|e| {
            let mut pairs = flattened(e);
            pairs.retain(|(k, _)| k != "mean_error_micro");
            pairs.push(("mean_error_m".into(), Json::Num(e.mean_error_micro as f64 / 1e6)));
            Json::Obj(pairs)
        })
        .collect();
    let (error_counts, mean_error) = snap.error_hist.dense(ERROR_BUCKETS_M);
    Json::Obj(vec![
        ("health".into(), Json::Str("uniloc-fleet".into())),
        ("sessions".into(), snap.sessions.to_json()),
        ("epochs".into(), snap.epochs.to_json()),
        ("faulted_sessions".into(), snap.faulted.to_json()),
        ("quarantined_sessions".into(), snap.quarantined_sessions.to_json()),
        ("nonfinite_fused".into(), snap.nonfinite.to_json()),
        ("slo".into(), slo_rows),
        ("schemes".into(), Json::Obj(schemes)),
        ("cohorts".into(), Json::Obj(cohorts)),
        (
            "error_hist".into(),
            Json::Obj(vec![
                ("bounds_m".into(), ERROR_BUCKETS_M.to_vec().to_json()),
                ("counts".into(), error_counts.to_json()),
                ("mean_error_m".into(), float::to_json(&mean_error)),
                ("dropped".into(), snap.error_hist.dropped.to_json()),
            ]),
        ),
        ("exemplars".into(), Json::Arr(exemplars)),
        (
            "flight".into(),
            Json::Obj(vec![
                ("dumps".into(), snap.counter("flight.dumps").to_json()),
                ("dropped".into(), snap.counter("flight.dropped").to_json()),
                (
                    "suppressed".into(),
                    snap.counter("flight.dumps_suppressed").to_json(),
                ),
            ]),
        ),
        (
            "calib".into(),
            Json::Obj(vec![(
                "drift_alarms".into(),
                snap.counter("calib.drift_alarms").to_json(),
            )]),
        ),
        (
            "alloc".into(),
            Json::Obj(vec![
                ("allocs_per_epoch".into(), Json::Num(snap.allocs_per_epoch())),
                (
                    "steady_allocs".into(),
                    snap.counter("alloc.steady.allocs").to_json(),
                ),
                (
                    "steady_epochs".into(),
                    snap.counter("alloc.steady_epochs").to_json(),
                ),
            ]),
        ),
    ])
    .canonical()
}

// ---------------------------------------------------------------------------
// Stage profiles: the call-count profiler and the allocation observatory
// ---------------------------------------------------------------------------

/// Columns of the call-count profile (`PROF_fleet.*`).
const CALL_COLUMNS: &[&str] = &["count"];

/// Columns of the heap profile (`PROF_alloc.*`), named like the
/// `alloc.<column>.<stage>` counters they come from.
const ALLOC_COLUMNS: &[&str] = &["allocs", "bytes", "deallocs", "reallocs"];

/// One node of a stage profile tree: the stage's *own* values, one per
/// profile column. In `PROF_fleet.*` the one column is the span's
/// invocation count (see the module docs for why counts, not durations).
/// In `PROF_alloc.*` the columns are allocs, bytes (including realloc
/// growth), deallocs and reallocs, each *exclusive*: a stage flushes only
/// the heap operations made while it was the innermost open span
/// (`uniloc_obs::alloc`). Every figure is an exact merged integer,
/// byte-identical at any `--jobs`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfNode {
    /// Stage (span) name; the root is named `fleet`.
    pub name: String,
    /// The stage's own values in column order; zeros for a stage that
    /// only hangs others.
    pub values: Vec<u64>,
    /// Child stages, sorted by name.
    pub children: Vec<ProfNode>,
}

impl ProfNode {
    fn to_json(&self, columns: &[&str]) -> Json {
        let mut pairs = vec![("name".to_owned(), Json::Str(self.name.clone()))];
        pairs.extend(columns.iter().zip(&self.values).map(|(c, v)| ((*c).to_owned(), v.to_json())));
        let children = self.children.iter().map(|c| c.to_json(columns)).collect();
        pairs.push(("children".to_owned(), Json::Arr(children)));
        Json::Obj(pairs)
    }
}

/// Hangs `(stage, values)` rows under their [`span_parent`]s below a
/// `fleet` root carrying `root`. An ancestor with no row of its own still
/// becomes a node, with zero values, so every row shows in the tree.
/// Siblings sort by name.
fn stage_tree(root: Vec<u64>, mut rows: BTreeMap<&str, Vec<u64>>) -> ProfNode {
    // An empty name (only a hand-made snapshot has one) is the root's own
    // key: it would hang under itself.
    rows.remove("");
    let names: Vec<&str> = rows.keys().copied().collect();
    for name in names {
        let mut parent = span_parent(name);
        while !parent.is_empty() {
            rows.entry(parent).or_insert_with(|| vec![0; root.len()]);
            parent = span_parent(parent);
        }
    }
    let mut by_parent: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for &name in rows.keys() {
        by_parent.entry(span_parent(name)).or_default().push(name);
    }
    fn build(
        name: &str,
        values: Vec<u64>,
        rows: &BTreeMap<&str, Vec<u64>>,
        by_parent: &BTreeMap<&str, Vec<&str>>,
    ) -> ProfNode {
        let kids = by_parent.get(name).map_or(&[][..], Vec::as_slice);
        ProfNode {
            name: name.to_owned(),
            values,
            children: kids.iter().map(|k| build(k, rows[k].clone(), rows, by_parent)).collect(),
        }
    }
    ProfNode { name: "fleet".to_owned(), ..build("", root, &rows, &by_parent) }
}

/// The span-accounting tree from the snapshot's merged `span.*` counts;
/// the root carries the fleet's epoch total.
pub fn profile_tree(snap: &FleetSnapshot) -> ProfNode {
    let rows = snap.span_counts.iter().map(|(name, &count)| (name.as_str(), vec![count]));
    stage_tree(vec![snap.epochs], rows.collect())
}

/// The heap-profile tree from the snapshot's merged
/// `alloc.{allocs,bytes,deallocs,reallocs}.<stage>` counters; the root
/// carries the sums over every stage. Meter counters (`alloc.steady.*`,
/// `alloc.steady_epochs`) are not stages and never appear in the tree.
pub fn alloc_tree(snap: &FleetSnapshot) -> ProfNode {
    let mut rows: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for (name, &v) in &snap.counters {
        let Some(rest) = name.strip_prefix("alloc.") else { continue };
        let Some((column, stage)) = ALLOC_COLUMNS
            .iter()
            .enumerate()
            .find_map(|(i, c)| rest.strip_prefix(c)?.strip_prefix('.').map(|stage| (i, stage)))
            .filter(|(_, stage)| !stage.is_empty())
        else {
            continue;
        };
        rows.entry(stage).or_insert_with(|| vec![0; ALLOC_COLUMNS.len()])[column] += v;
    }
    let mut total = vec![0; ALLOC_COLUMNS.len()];
    for values in rows.values() {
        for (t, v) in total.iter_mut().zip(values) {
            *t += v;
        }
    }
    stage_tree(total, rows)
}

/// A profile tree as flamegraph collapsed-stack lines: one
/// `fleet;parent;child VALUE` line per node, depth-first with siblings in
/// name order. The value is the first column: invocation counts in
/// `PROF_fleet.folded`, exclusive allocation counts in
/// `PROF_alloc.folded`. Values are counts, not time.
pub fn folded_lines(root: &ProfNode) -> String {
    fn walk(node: &ProfNode, prefix: &str, out: &mut String) {
        let path =
            if prefix.is_empty() { node.name.clone() } else { format!("{prefix};{}", node.name) };
        out.push_str(&format!("{path} {}\n", node.values[0]));
        for child in &node.children {
            walk(child, &path, out);
        }
    }
    let mut out = String::new();
    walk(root, "", &mut out);
    out
}

/// The heap profile's folded lines: the same writer as [`folded_lines`].
pub use self::folded_lines as alloc_folded_lines;

/// The call-count tree as the canonical `PROF_fleet.json` document.
pub fn profile_report(root: &ProfNode) -> Json {
    Json::Obj(vec![
        ("prof".into(), Json::Str("fleet".into())),
        ("unit".into(), Json::Str("calls".into())),
        ("clock".into(), Json::Str("virtual".into())),
        ("root".into(), root.to_json(CALL_COLUMNS)),
    ])
    .canonical()
}

/// The heap profile as the canonical `PROF_alloc.json` document:
/// the stage tree plus the steady-state meter, all exact integers (the
/// per-epoch ratio is the one derived float, computed from them).
pub fn alloc_report(snap: &FleetSnapshot, root: &ProfNode) -> Json {
    Json::Obj(vec![
        ("prof".into(), Json::Str("alloc".into())),
        ("unit".into(), Json::Str("allocs".into())),
        ("allocs_per_epoch".into(), Json::Num(snap.allocs_per_epoch())),
        (
            "steady".into(),
            Json::Obj(vec![
                ("allocs".into(), snap.counter("alloc.steady.allocs").to_json()),
                ("epochs".into(), snap.counter("alloc.steady_epochs").to_json()),
            ]),
        ),
        ("root".into(), root.to_json(ALLOC_COLUMNS)),
    ])
    .canonical()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsSnapshot;

    #[allow(clippy::field_reassign_with_default)] // clearer built field by field
    fn capture(counters: &[(&str, u64)], spans: &[(&str, u64)]) -> SessionCapture {
        let mut ms = MetricsSnapshot::default();
        ms.counters = counters.iter().map(|(n, v)| (n.to_string(), *v)).collect();
        ms.histograms = spans
            .iter()
            .map(|(n, c)| {
                let mut h = crate::metrics::HistogramSnapshot {
                    bounds: vec![1.0],
                    counts: vec![0, 0],
                    sum: 0.0,
                    dropped: 0,
                };
                h.counts[0] = *c;
                (format!("span.{n}"), h)
            })
            .collect();
        SessionCapture { metrics: ms, ..SessionCapture::default() }
    }

    fn meta(lane: u64, err: f64) -> SessionMeta {
        SessionMeta {
            lane,
            name: format!("s{lane:05}"),
            persona: "m-30s".to_owned(),
            device: "nexus5x".to_owned(),
            venue: "office".to_owned(),
            faulted: lane.is_multiple_of(3),
            epochs: 10,
            mean_error_m: Some(err),
            nonfinite: 0,
            quarantined: if lane.is_multiple_of(4) { vec!["gps".to_owned()] } else { vec![] },
        }
    }

    #[test]
    fn sparse_hist_records_and_merges_exactly() {
        let bounds = [1.0, 2.0, 4.0];
        let mut a = SparseHist::default();
        a.record(&bounds, 0.5);
        a.record(&bounds, 3.0);
        a.record(&bounds, f64::NAN);
        let mut b = SparseHist::default();
        b.record(&bounds, 100.0);
        let m = a.merge(&b);
        assert_eq!(m.count(), 3);
        assert_eq!(m.dropped, 1);
        assert_eq!(m.sum_micro, micro(0.5) as i128 + micro(3.0) as i128 + micro(100.0) as i128);
        let (dense, mean) = m.dense(&bounds);
        assert_eq!(dense, vec![1, 0, 1, 1]);
        assert!((mean.unwrap() - (103.5 / 3.0)).abs() < 1e-9);
        assert_eq!(a.merge(&b), b.merge(&a), "merge commutes");
    }

    #[test]
    fn snapshot_round_trips_through_json_exactly() {
        let mut snap = FleetSnapshot::with_exemplar_cap(3);
        for lane in 0..6u64 {
            snap.observe(
                &meta(lane, 0.4 + lane as f64),
                &capture(
                    &[("pipeline.epochs", 10), ("alloc.steady.allocs", 123)],
                    &[("engine.update", 10), ("engine.fuse", 10)],
                ),
            );
        }
        // Push sum_micro past i64 to prove the decimal-string path.
        snap.error_hist.sum_micro += i64::MAX as i128 * 3;
        let text = snap.to_json().canonical().to_string();
        let back: FleetSnapshot = uniloc_stats::json::from_str(&text).expect("parse snapshot");
        assert_eq!(back, snap, "snapshot JSON round-trip must be exact");
        assert_eq!(back.to_json().canonical().to_string(), text, "canonical stability");
        // The restored snapshot must keep merging exactly: fold-then-split
        // equals split-then-fold.
        let mut more = FleetSnapshot::with_exemplar_cap(3);
        more.observe(&meta(7, 9.5), &capture(&[("pipeline.epochs", 10)], &[]));
        assert_eq!(back.merge(&more), snap.merge(&more));
    }

    #[test]
    fn aggregator_is_shard_count_invariant() {
        let sessions: Vec<(SessionMeta, SessionCapture)> = (0..17)
            .map(|lane| {
                (
                    meta(lane, 1.0 + lane as f64 * 0.37),
                    capture(
                        &[("pipeline.epochs", 10), ("engine.scheme.available.wifi", 8)],
                        &[("engine.update", 10)],
                    ),
                )
            })
            .collect();
        let mut snaps = Vec::new();
        for shards in [1usize, 2, 5, 8] {
            let mut agg = FleetAggregator::new(shards);
            for (m, c) in &sessions {
                agg.observe(m, c);
            }
            snaps.push(agg.snapshot());
        }
        for s in &snaps[1..] {
            assert_eq!(s, &snaps[0]);
        }
        assert_eq!(snaps[0].sessions, 17);
        assert_eq!(snaps[0].counter("pipeline.epochs"), 170);
        assert_eq!(snaps[0].span_counts.get("engine.update"), Some(&170));
    }

    #[test]
    fn exemplars_are_worst_first_and_capped() {
        let mut snap = FleetSnapshot::default();
        for lane in 0..20 {
            snap.observe(&meta(lane, lane as f64), &capture(&[], &[]));
        }
        assert_eq!(snap.exemplars.len(), EXEMPLAR_CAP);
        assert_eq!(snap.exemplars[0].lane, 19, "worst error first");
        assert!(snap
            .exemplars
            .windows(2)
            .all(|w| w[0].mean_error_micro >= w[1].mean_error_micro));
    }

    #[test]
    fn availability_and_slos_read_counters() {
        let mut snap = FleetSnapshot::default();
        for lane in 0..4 {
            snap.observe(
                &meta(lane, 2.0),
                &capture(
                    &[
                        ("pipeline.epochs", 10),
                        ("engine.scheme.available.wifi", 9),
                        ("engine.scheme.available.gps", 1),
                    ],
                    &[],
                ),
            );
        }
        let avail = snap.availability();
        assert_eq!(avail["wifi"].0, 36);
        assert!((avail["wifi"].1 - 0.9).abs() < 1e-12);
        let rows = evaluate_slos(&snap, &SloTargets::default());
        let wifi = rows.iter().find(|r| r.name == "availability.wifi").unwrap();
        assert!(wifi.ok && wifi.kind == "min");
        let nf = rows.iter().find(|r| r.name == "nonfinite_fused").unwrap();
        assert!(nf.ok && nf.observed == 0.0);
    }

    #[test]
    fn profile_tree_nests_spans_under_declared_parents() {
        let snap = FleetSnapshot {
            epochs: 10,
            span_counts: [
                ("engine.update", 10u64),
                ("engine.predict", 10),
                ("engine.fuse", 10),
                ("scheme.estimate.wifi", 9),
                ("pipeline.build_context", 1),
            ]
            .iter()
            .map(|(n, c)| (n.to_string(), *c))
            .collect(),
            ..FleetSnapshot::default()
        };
        let root = profile_tree(&snap);
        assert_eq!(root.name, "fleet");
        assert_eq!(root.values, [10]);
        let update = root.children.iter().find(|c| c.name == "engine.update").unwrap();
        let kids: Vec<&str> = update.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(kids, ["engine.fuse", "engine.predict", "scheme.estimate.wifi"]);
        let folded = folded_lines(&root);
        assert!(folded.contains("fleet;engine.update;engine.predict 10\n"));
        assert!(folded.contains("fleet;pipeline.build_context 1\n"));
        let doc = profile_report(&root);
        assert_eq!(doc.get("unit").unwrap().as_str().unwrap(), "calls");
    }

    #[test]
    fn exemplar_cap_is_configurable_and_survives_merge() {
        let mut a = FleetSnapshot::with_exemplar_cap(3);
        let mut b = FleetSnapshot::with_exemplar_cap(3);
        for lane in 0..10 {
            a.observe(&meta(lane, lane as f64), &capture(&[], &[]));
            b.observe(&meta(lane + 10, (lane + 10) as f64), &capture(&[], &[]));
        }
        assert_eq!(a.exemplars.len(), 3);
        let merged = a.merge(&b);
        assert_eq!(merged.exemplar_cap, 3);
        assert_eq!(merged.exemplars.len(), 3);
        assert_eq!(merged.exemplars[0].lane, 19, "worst across both inputs");
        // Merging with a wider-capped snapshot takes the max cap.
        let wide = FleetSnapshot::default();
        assert_eq!(a.merge(&wide).exemplar_cap, EXEMPLAR_CAP);
        // Zero falls back to the default.
        assert_eq!(FleetSnapshot::with_exemplar_cap(0).exemplar_cap, EXEMPLAR_CAP);
    }

    #[test]
    fn aggregator_honors_sub_default_cap_across_shards() {
        let mut agg = FleetAggregator::with_exemplar_cap(4, 2);
        for lane in 0..12 {
            agg.observe(&meta(lane, lane as f64), &capture(&[], &[]));
        }
        let snap = agg.snapshot();
        assert_eq!(snap.exemplar_cap, 2);
        assert_eq!(snap.exemplars.len(), 2, "fold must not widen a sub-default cap");
        assert_eq!(snap.exemplars[0].lane, 11);
    }

    #[test]
    fn alloc_tree_nests_stages_and_reports_meter() {
        let mut snap = FleetSnapshot::default();
        snap.observe(
            &meta(0, 2.0),
            &capture(
                &[
                    ("alloc.allocs.engine.update", 40),
                    ("alloc.bytes.engine.update", 4096),
                    ("alloc.deallocs.engine.update", 38),
                    ("alloc.reallocs.engine.update", 2),
                    ("alloc.allocs.scheme.estimate.wifi", 9),
                    ("alloc.bytes.scheme.estimate.wifi", 512),
                    ("alloc.allocs.pipeline.build_context", 100),
                    ("alloc.bytes.pipeline.build_context", 65536),
                    ("alloc.steady.allocs", 30),
                    ("alloc.steady_epochs", 6),
                ],
                &[],
            ),
        );
        let root = alloc_tree(&snap);
        assert_eq!(root.name, "fleet");
        assert_eq!(root.values[0], 149, "root carries the stage totals");
        assert_eq!(root.values[1], 4096 + 512 + 65536);
        let names: Vec<&str> = root.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            ["engine.update", "pipeline.build_context"],
            "meter counters must not become stages"
        );
        let update = &root.children[0];
        assert_eq!(update.values[0], 40, "counts are exclusive, not rolled up");
        assert_eq!(update.values[3], 2);
        let wifi = update.children.iter().find(|c| c.name == "scheme.estimate.wifi").unwrap();
        assert_eq!(wifi.values[..3], [9, 512, 0]);

        let folded = alloc_folded_lines(&root);
        assert!(folded.starts_with("fleet 149\n"));
        assert!(folded.contains("fleet;engine.update;scheme.estimate.wifi 9\n"));
        assert!(folded.contains("fleet;pipeline.build_context 100\n"));

        let doc = alloc_report(&snap, &root);
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap().canonical().to_string(), text);
        assert_eq!(doc.get("prof").unwrap().as_str().unwrap(), "alloc");
        assert_eq!(doc.get("unit").unwrap().as_str().unwrap(), "allocs");
        assert_eq!(
            doc.get("steady").unwrap().get("allocs").unwrap().as_i64().unwrap(),
            30
        );
        assert!((snap.allocs_per_epoch() - 5.0).abs() < 1e-12);
        assert!(
            (doc.get("allocs_per_epoch").unwrap().as_f64().unwrap() - 5.0).abs() < 1e-12
        );
        // The SLO plane sees the meter too — and 5 allocs/epoch breaches
        // the zero-alloc era's 2.0 ceiling.
        let rows = evaluate_slos(&snap, &SloTargets::default());
        let row = rows.iter().find(|r| r.name == "allocs_per_epoch").unwrap();
        assert!(!row.ok && row.kind == "max" && (row.observed - 5.0).abs() < 1e-12);
    }

    #[test]
    fn orphan_stages_keep_their_missing_ancestors() {
        // Only a child stage allocated: its parent has no row of its own.
        let snap = FleetSnapshot {
            counters: [("alloc.allocs.engine.fuse".to_owned(), 5)].into_iter().collect(),
            ..FleetSnapshot::default()
        };
        let heap = alloc_tree(&snap);
        assert_eq!(
            alloc_folded_lines(&heap),
            "fleet 5\nfleet;engine.update 0\nfleet;engine.update;engine.fuse 5\n"
        );
        let update = &heap.children[0];
        assert_eq!((update.name.as_str(), &update.values[..]), ("engine.update", &[0; 4][..]));

        // The call-count tree hangs orphans the same way.
        let snap = FleetSnapshot {
            epochs: 3,
            span_counts: [("scheme.estimate.gps".to_owned(), 3)].into_iter().collect(),
            ..FleetSnapshot::default()
        };
        assert_eq!(
            folded_lines(&profile_tree(&snap)),
            "fleet 3\nfleet;engine.update 0\nfleet;engine.update;scheme.estimate.gps 3\n"
        );
    }

    fn hist_json(counts: &str) -> Json {
        Json::parse(&format!(r#"{{"counts":{counts},"sum_micro":"0","dropped":0}}"#)).unwrap()
    }

    #[test]
    fn sparse_hist_rejects_a_repeated_bucket_index() {
        let err = SparseHist::from_json(&hist_json("[[3,5],[3,7]]")).unwrap_err();
        assert!(err.to_string().contains("index 3 repeats"), "{err}");
        assert!(SparseHist::from_json(&hist_json("[[4,1],[3,1]]")).is_err(), "out of order");
        let ok = SparseHist::from_json(&hist_json("[[3,5],[4,7]]")).unwrap();
        assert_eq!(ok.count(), 12);
    }

    /// `doc` with its `error_hist` field replaced by one holding `counts`.
    fn with_error_hist(doc: &Json, counts: &str) -> Json {
        let Json::Obj(fields) = doc else { panic!("object expected") };
        let swap = |(k, v): &(String, Json)| {
            (k.clone(), if k == "error_hist" { hist_json(counts) } else { v.clone() })
        };
        Json::Obj(fields.iter().map(swap).collect())
    }

    #[test]
    fn error_hist_past_the_overflow_bucket_is_rejected() {
        let mut snap = FleetSnapshot::default();
        snap.observe(&meta(0, 2.0), &capture(&[], &[]));
        let doc = snap.to_json();
        let cohort = snap.cohorts["m-30s/nexus5x/office"].to_json();
        // The overflow bucket itself is a real bucket.
        let overflow = format!("[[{}, 1]]", ERROR_BUCKETS_M.len());
        let back = FleetSnapshot::from_json(&with_error_hist(&doc, &overflow)).unwrap();
        let (dense, _) = back.error_hist.dense(ERROR_BUCKETS_M);
        assert_eq!(dense.iter().sum::<u64>(), back.error_hist.count());
        assert!(CohortStats::from_json(&with_error_hist(&cohort, &overflow)).is_ok());
        // One past it would count in `count()` but drop out of `dense`.
        let past = "[[2,4],[99,1]]";
        let err = FleetSnapshot::from_json(&with_error_hist(&doc, past)).unwrap_err();
        assert!(err.to_string().contains("past the overflow bucket"), "{err}");
        let err = CohortStats::from_json(&with_error_hist(&cohort, past)).unwrap_err();
        assert!(err.to_string().contains("past the overflow bucket"), "{err}");
    }

    #[test]
    fn health_report_is_canonical_and_complete() {
        let mut snap = FleetSnapshot::default();
        for lane in 0..6 {
            snap.observe(
                &meta(lane, 1.5 + lane as f64),
                &capture(
                    &[
                        ("pipeline.epochs", 10),
                        ("engine.scheme.available.wifi", 8),
                        ("calib.drift_alarms", 1),
                        ("flight.dumps", 2),
                    ],
                    &[("engine.update", 10)],
                ),
            );
        }
        let doc = health_report(&snap, &SloTargets::default());
        let text = doc.to_string();
        let reparsed = Json::parse(&text).unwrap();
        assert_eq!(reparsed.canonical().to_string(), text, "already canonical");
        assert_eq!(doc.get("sessions").unwrap().as_i64().unwrap(), 6);
        assert!(doc.get("slo").unwrap().as_arr().unwrap().len() >= 9);
        assert!(doc.get("cohorts").unwrap().get("m-30s/nexus5x/office").is_some());
        assert_eq!(
            doc.get("flight").unwrap().get("dumps").unwrap().as_i64().unwrap(),
            12
        );
    }
}
