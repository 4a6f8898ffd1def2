//! Property-based tests for the fleet observatory's merge algebra
//! (`DESIGN.md` §10), on the in-repo [`uniloc_rng::check`] harness. The
//! sharded aggregation is only deterministic because the snapshot merge is
//! an exact, associative, commutative fold — these tests pin that algebra
//! directly, over randomized session populations, so the `--jobs` and
//! shard-count byte-identity gates in `tests/fleet_differential.rs` rest on
//! a proven primitive rather than a sampled one.

use uniloc_obs::fleet::{FleetAggregator, FleetSnapshot, SessionMeta, SparseHist, EXEMPLAR_CAP};
use uniloc_obs::{HistogramSnapshot, MetricsSnapshot, SessionCapture};
use uniloc_rng::check::Checker;
use uniloc_rng::require;

const REGRESSIONS: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fleet_proptests.regressions");

fn checker(name: &str) -> Checker {
    Checker::new(name).cases(96).regressions(REGRESSIONS)
}

const BOUNDS: &[f64] = &[0.5, 1.0, 2.0, 5.0, 10.0];

/// A value stream mixing in-range, overflow and non-finite samples.
fn gen_values(rng: &mut uniloc_rng::Rng, scale: f64) -> Vec<f64> {
    let n = rng.gen_range(0..60usize);
    (0..n)
        .map(|_| match rng.gen_range(0..8u32) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            _ => rng.gen_range(-2.0..30.0 * scale.max(0.05)),
        })
        .collect()
}

fn hist_of(values: &[f64]) -> SparseHist {
    let mut h = SparseHist::default();
    for &v in values {
        h.record(BOUNDS, v);
    }
    h
}

/// One randomized retired session: identity axes drawn from small pools
/// (so cohorts collide across sessions, exercising the cohort merge) plus
/// a synthetic capture carrying counters and one span histogram.
fn gen_session(rng: &mut uniloc_rng::Rng, lane: u64, scale: f64) -> (SessionMeta, SessionCapture) {
    const PERSONAS: [&str; 3] = ["m-30s", "f-20s", "m-60s"];
    const DEVICES: [&str; 2] = ["nexus5x", "s7"];
    const VENUES: [&str; 2] = ["office", "open-space"];
    let epochs = rng.gen_range(1..40u64);
    let quarantined = if rng.gen_range(0..4u32) == 0 { vec!["wifi".to_owned()] } else { vec![] };
    let mean_error_m = match rng.gen_range(0..6u32) {
        0 => None,
        1 => Some(f64::NAN), // must be dropped, never panicked on
        _ => Some(rng.gen_range(0.0..40.0 * scale.max(0.05))),
    };
    let meta = SessionMeta {
        lane,
        name: format!("s{lane:05}"),
        persona: PERSONAS[rng.gen_range(0..PERSONAS.len())].to_owned(),
        device: DEVICES[rng.gen_range(0..DEVICES.len())].to_owned(),
        venue: VENUES[rng.gen_range(0..VENUES.len())].to_owned(),
        faulted: rng.gen_range(0..3u32) == 0,
        epochs,
        mean_error_m,
        nonfinite: rng.gen_range(0..2u64),
        quarantined,
    };
    let counters = vec![
        ("calib.drift_alarms".to_owned(), rng.gen_range(0..3u64)),
        ("engine.scheme.available.wifi".to_owned(), rng.gen_range(0..epochs + 1)),
        ("flight.dumps".to_owned(), rng.gen_range(0..2u64)),
        ("pipeline.epochs".to_owned(), epochs),
    ];
    let span = HistogramSnapshot {
        bounds: vec![1.0],
        counts: vec![epochs, 0],
        sum: 0.0,
        dropped: 0,
    };
    let capture = SessionCapture {
        metrics: MetricsSnapshot {
            counters,
            gauges: vec![],
            histograms: vec![("span.engine.update".to_owned(), span)],
        },
        ..SessionCapture::default()
    };
    (meta, capture)
}

fn gen_fleet(
    rng: &mut uniloc_rng::Rng,
    scale: f64,
) -> Vec<(SessionMeta, SessionCapture)> {
    let n = rng.gen_range(0..(40.0 * scale.max(0.1)) as u64 + 3);
    (0..n).map(|lane| gen_session(rng, lane, scale)).collect()
}

fn fold(sessions: &[(SessionMeta, SessionCapture)]) -> FleetSnapshot {
    let mut snap = FleetSnapshot::default();
    for (meta, capture) in sessions {
        snap.observe(meta, capture);
    }
    snap
}

/// `SparseHist` merge is associative, commutative and lossless — exact
/// equality, not tolerance: the sums are integer micro-units.
#[test]
fn sparse_hist_merge_is_exact_assoc_comm() {
    checker("sparse_hist_merge_is_exact_assoc_comm").run(
        |rng, scale| {
            (gen_values(rng, scale), gen_values(rng, scale), gen_values(rng, scale))
        },
        |(a, b, c)| {
            let (ha, hb, hc) = (hist_of(a), hist_of(b), hist_of(c));
            require!(ha.merge(&hb) == hb.merge(&ha));
            require!(ha.merge(&hb).merge(&hc) == ha.merge(&hb.merge(&hc)));
            let all: Vec<f64> =
                a.iter().chain(b).chain(c).copied().collect();
            require!(ha.merge(&hb).merge(&hc) == hist_of(&all));
            Ok(())
        },
    );
}

/// `FleetSnapshot` merge is associative and commutative over randomized
/// session populations — counters, cohorts, error histograms and the
/// exemplar top-K all included (exact equality via `PartialEq`).
#[test]
fn fleet_snapshot_merge_is_assoc_comm() {
    checker("fleet_snapshot_merge_is_assoc_comm").run(
        |rng, scale| {
            (gen_fleet(rng, scale), gen_fleet(rng, scale), gen_fleet(rng, scale))
        },
        |(a, b, c)| {
            // Disjoint lanes per population, as in a real fleet.
            let relane = |s: &[(SessionMeta, SessionCapture)], base: u64| {
                s.iter()
                    .cloned()
                    .map(|(mut m, cap)| {
                        m.lane += base;
                        (m, cap)
                    })
                    .collect::<Vec<_>>()
            };
            let (sa, sb, sc) =
                (fold(a), fold(&relane(b, 10_000)), fold(&relane(c, 20_000)));
            require!(sa.merge(&sb) == sb.merge(&sa));
            require!(sa.merge(&sb).merge(&sc) == sa.merge(&sb.merge(&sc)));
            require!(sa.merge(&FleetSnapshot::default()) == sa);
            Ok(())
        },
    );
}

/// The aggregator's snapshot is invariant in the shard count and in the
/// order sessions are folded — the exact property the `--jobs 1/2/4/8`
/// byte-identity gate depends on.
#[test]
fn aggregator_is_shard_count_and_order_invariant() {
    checker("aggregator_is_shard_count_and_order_invariant").run(
        |rng, scale| {
            let sessions = gen_fleet(rng, scale);
            let mut order: Vec<usize> = (0..sessions.len()).collect();
            // Deterministic shuffle from the case's rng.
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..i + 1));
            }
            (sessions, order)
        },
        |(sessions, order)| {
            let snap_with = |shards: usize, idx: &[usize]| {
                let mut agg = FleetAggregator::new(shards);
                for &i in idx {
                    let (meta, capture) = &sessions[i];
                    agg.observe(meta, capture);
                }
                agg.snapshot()
            };
            let in_order: Vec<usize> = (0..sessions.len()).collect();
            let baseline = snap_with(1, &in_order);
            for shards in [2, 3, 5, 8, 16] {
                require!(snap_with(shards, &in_order) == baseline);
            }
            require!(snap_with(4, order) == baseline);
            require!(baseline == fold(sessions));
            Ok(())
        },
    );
}

/// The exemplar list is the true top-K: the K worst finite mean errors
/// across the whole population, worst first, regardless of sharding.
#[test]
fn exemplars_are_the_global_worst_k() {
    checker("exemplars_are_the_global_worst_k").run(
        gen_fleet,
        |sessions| {
            let snap = fold(sessions);
            let mut expected: Vec<(i64, u64)> = sessions
                .iter()
                .filter_map(|(m, _)| {
                    m.mean_error_m
                        .filter(|e| e.is_finite())
                        .map(|e| (uniloc_obs::fleet::micro(e), m.lane))
                })
                .collect();
            expected.sort_by_key(|&(err, lane)| (-err, lane));
            expected.truncate(EXEMPLAR_CAP);
            let got: Vec<(i64, u64)> =
                snap.exemplars.iter().map(|e| (e.mean_error_micro, e.lane)).collect();
            require!(got == expected);
            Ok(())
        },
    );
}
