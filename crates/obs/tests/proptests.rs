//! Property-based tests for the observability layer, on the in-repo
//! [`uniloc_rng::check`] harness: histogram bucket invariants and virtual
//! clock monotonicity.

use uniloc_obs::{Clock, Histogram, RingCollector, Subscriber, TraceEvent, TraceLevel, VirtualClock};
use uniloc_rng::check::Checker;
use uniloc_rng::require;

const REGRESSIONS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/proptests.regressions");

fn checker(name: &str) -> Checker {
    Checker::new(name).cases(128).regressions(REGRESSIONS)
}

/// Strictly ascending finite bucket bounds.
fn gen_bounds(rng: &mut uniloc_rng::Rng, scale: f64) -> Vec<f64> {
    let n = rng.gen_range(1..12usize);
    let mut b = Vec::with_capacity(n);
    let mut x = rng.gen_range(-50.0 * scale..50.0 * scale.max(0.01));
    for _ in 0..n {
        b.push(x);
        x += rng.gen_range(0.1..10.0 * scale.max(0.02));
    }
    b
}

/// A value stream mixing in-range, overflow and non-finite samples.
fn gen_values(rng: &mut uniloc_rng::Rng, scale: f64) -> Vec<f64> {
    let n = rng.gen_range(0..200usize);
    (0..n)
        .map(|_| match rng.gen_range(0..10u32) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            _ => rng.gen_range(-120.0 * scale..120.0 * scale.max(0.01)),
        })
        .collect()
}

/// Every finite sample lands in exactly one bucket: the counts sum to the
/// finite-sample count and `dropped` to the non-finite count.
#[test]
fn histogram_counts_sum_to_recorded() {
    checker("histogram_counts_sum_to_recorded").run(
        |rng, scale| (gen_bounds(rng, scale), gen_values(rng, scale)),
        |(bounds, values)| {
            let h = Histogram::new(bounds);
            for &v in values {
                h.record(v);
            }
            let snap = h.snapshot();
            let finite = values.iter().filter(|v| v.is_finite()).count() as u64;
            let non_finite = values.len() as u64 - finite;
            require!(snap.counts.len() == bounds.len() + 1);
            require!(snap.count() == finite);
            require!(snap.dropped == non_finite);
            Ok(())
        },
    );
}

/// The CDF implied by the buckets is monotone: cumulative counts never
/// decrease and percentile estimates never decrease in `p`.
#[test]
fn histogram_cdf_is_monotone() {
    checker("histogram_cdf_is_monotone").run(
        |rng, scale| (gen_bounds(rng, scale), gen_values(rng, scale)),
        |(bounds, values)| {
            let h = Histogram::new(bounds);
            for &v in values {
                h.record(v);
            }
            let snap = h.snapshot();
            let mut cum = 0u64;
            for &c in &snap.counts {
                let next = cum.checked_add(c).expect("no overflow");
                require!(next >= cum);
                cum = next;
            }
            if snap.count() > 0 {
                let mut prev = f64::NEG_INFINITY;
                for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
                    let q = snap.percentile(p).expect("non-empty histogram");
                    require!(q >= prev);
                    prev = q;
                }
            } else {
                require!(snap.percentile(50.0).is_none());
            }
            Ok(())
        },
    );
}

/// Merging snapshots is associative (and losslessly additive in counts).
#[test]
fn histogram_merge_is_associative() {
    checker("histogram_merge_is_associative").run(
        |rng, scale| {
            let bounds = gen_bounds(rng, scale);
            let a = gen_values(rng, scale);
            let b = gen_values(rng, scale);
            let c = gen_values(rng, scale);
            (bounds, a, b, c)
        },
        |(bounds, a, b, c)| {
            let snap = |values: &[f64]| {
                let h = Histogram::new(bounds);
                for &v in values {
                    h.record(v);
                }
                h.snapshot()
            };
            let (sa, sb, sc) = (snap(a), snap(b), snap(c));
            let left = sa.merge(&sb).expect("same bounds").merge(&sc).expect("same bounds");
            let right = sa.merge(&sb.merge(&sc).expect("same bounds")).expect("same bounds");
            require!(left.counts == right.counts);
            require!(left.dropped == right.dropped);
            require!((left.sum - right.sum).abs() <= 1e-9 * (1.0 + left.sum.abs()));
            require!(left.count() == sa.count() + sb.count() + sc.count());
            Ok(())
        },
    );
}

/// Merging snapshots is commutative: `a.merge(b)` and `b.merge(a)` agree
/// bucket-for-bucket.
#[test]
fn histogram_merge_is_commutative() {
    checker("histogram_merge_is_commutative").run(
        |rng, scale| {
            let bounds = gen_bounds(rng, scale);
            let a = gen_values(rng, scale);
            let b = gen_values(rng, scale);
            (bounds, a, b)
        },
        |(bounds, a, b)| {
            let snap = |values: &[f64]| {
                let h = Histogram::new(bounds);
                for &v in values {
                    h.record(v);
                }
                h.snapshot()
            };
            let (sa, sb) = (snap(a), snap(b));
            let ab = sa.merge(&sb).expect("same bounds");
            let ba = sb.merge(&sa).expect("same bounds");
            require!(ab.counts == ba.counts);
            require!(ab.dropped == ba.dropped);
            require!((ab.sum - ba.sum).abs() <= 1e-9 * (1.0 + ab.sum.abs()));
            Ok(())
        },
    );
}

/// Merging snapshots with different bucket layouts returns an error — it
/// never panics and never silently mixes incompatible buckets.
#[test]
fn histogram_merge_bucket_mismatch_errors() {
    checker("histogram_merge_bucket_mismatch_errors").run(
        |rng, scale| {
            let a = gen_bounds(rng, scale);
            let mut b = gen_bounds(rng, scale * 1.7 + 0.3);
            if b == a {
                // Force a layout difference when the generators collide.
                let last = *b.last().expect("non-empty bounds");
                b.push(last + 1.0);
            }
            (a, b, gen_values(rng, scale), gen_values(rng, scale))
        },
        |(bounds_a, bounds_b, va, vb)| {
            let snap = |bounds: &[f64], values: &[f64]| {
                let h = Histogram::new(bounds);
                for &v in values {
                    h.record(v);
                }
                h.snapshot()
            };
            let sa = snap(bounds_a, va);
            let sb = snap(bounds_b, vb);
            require!(sa.merge(&sb).is_err());
            require!(sb.merge(&sa).is_err());
            // Mismatch must not corrupt either side: self-merge still works.
            require!(sa.merge(&sa).is_ok());
            require!(sb.merge(&sb).is_ok());
            Ok(())
        },
    );
}

/// The ring keeps exactly the last `capacity` events in arrival order and
/// accounts for every eviction: for `n` pushes into a ring of capacity `c`
/// the buffer holds events `max(0, n-c)..n` oldest-first and reports
/// `max(0, n-c)` dropped.
#[test]
fn ring_collector_evicts_oldest_in_order() {
    checker("ring_collector_evicts_oldest_in_order").run(
        |rng, scale| {
            let capacity = rng.gen_range(1..32usize);
            let pushes = rng.gen_range(0..(96.0 * scale.max(0.05)) as usize + 2);
            (capacity, pushes)
        },
        |&(capacity, pushes)| {
            let ring = RingCollector::new(capacity);
            for i in 0..pushes {
                ring.event(&TraceEvent {
                    level: TraceLevel::Info,
                    name: format!("e{i}"),
                    t_ns: i as u64,
                    duration_ns: None,
                    fields: Vec::new(),
                });
            }
            let events = ring.events();
            let expect_dropped = pushes.saturating_sub(capacity);
            require!(events.len() == pushes.min(capacity));
            require!(ring.dropped() == expect_dropped as u64);
            for (offset, e) in events.iter().enumerate() {
                let i = expect_dropped + offset;
                require!(e.name == format!("e{i}"));
                require!(e.t_ns == i as u64);
            }
            Ok(())
        },
    );
}

/// The virtual clock never runs backwards under any interleaving of
/// `set_ns` / `set_seconds` (including stale and bogus inputs, which it
/// must ignore rather than rewind on).
#[test]
fn virtual_clock_is_monotone() {
    #[derive(Debug)]
    enum Op {
        Set(u64),
        Seconds(f64),
    }
    checker("virtual_clock_is_monotone").run(
        |rng, scale| {
            let n = rng.gen_range(1..100usize);
            (0..n)
                .map(|_| match rng.gen_range(0..3u32) {
                    0 => Op::Set(rng.gen_range(0..(2e9 * scale.max(0.01)) as u64 + 1)),
                    1 => Op::Seconds(rng.gen_range(-1.0..2.0 * scale.max(0.01))),
                    _ => Op::Seconds(f64::NAN),
                })
                .collect::<Vec<Op>>()
        },
        |ops| {
            let clock = VirtualClock::new();
            let mut prev = 0u64;
            for op in ops {
                match *op {
                    Op::Set(t) => clock.set_ns(t),
                    Op::Seconds(t) => clock.set_seconds(t),
                }
                let now = clock.now_ns();
                require!(now >= prev);
                prev = now;
            }
            Ok(())
        },
    );
}
