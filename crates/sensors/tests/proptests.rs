//! Property-based tests for the sensor layer, on the in-repo
//! [`uniloc_rng::check`] harness.

use std::collections::BTreeMap;
use uniloc_env::ApId;
use uniloc_rng::check::Checker;
use uniloc_rng::{require, require_eq, Rng};
use uniloc_sensors::{DeviceProfile, RssiCalibration, WifiScan};

const REGRESSIONS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/proptests.regressions");

fn checker(name: &str) -> Checker {
    Checker::new(name).cases(128).regressions(REGRESSIONS)
}

fn gen_readings(rng: &mut Rng) -> BTreeMap<u32, f64> {
    let n = rng.gen_range(1..6usize);
    (0..n)
        .map(|_| (rng.gen_range(0..8u32), rng.gen_range(-90.0..-30.0)))
        .collect()
}

/// The RSSI calibration inverts any affine device transfer exactly when
/// learned from noise-free pairs.
#[test]
fn calibration_inverts_affine_transfer() {
    checker("calibration_inverts_affine_transfer").run(
        |rng, scale| {
            (
                1.0 + (rng.gen_range(0.8..1.2) - 1.0) * scale, // alpha
                rng.gen_range(-10.0 * scale..10.0 * scale),    // delta
            )
        },
        |&(alpha, delta)| {
            let pairs: Vec<(f64, f64)> = (0..24)
                .map(|i| {
                    let truth = -35.0 - i as f64 * 2.3;
                    (alpha * truth + delta, truth)
                })
                .collect();
            let cal = RssiCalibration::learn(&pairs).unwrap();
            for truth in [-40.0, -63.7, -88.0] {
                let recovered = cal.apply(alpha * truth + delta);
                require!((recovered - truth).abs() < 1e-6);
            }
            Ok(())
        },
    );
}

/// Scan distance is a semi-metric on common-AP scans: symmetric,
/// non-negative, zero on identity.
#[test]
fn scan_distance_semimetric() {
    checker("scan_distance_semimetric").run(
        |rng, _scale| (gen_readings(rng), gen_readings(rng)),
        |(a, b)| {
            let sa = WifiScan {
                readings: a.iter().map(|(&i, &r)| (ApId(i), r)).collect(),
            };
            let sb = WifiScan {
                readings: b.iter().map(|(&i, &r)| (ApId(i), r)).collect(),
            };
            require_eq!(sa.distance(&sa, 12.0), Some(0.0));
            match (sa.distance(&sb, 12.0), sb.distance(&sa, 12.0)) {
                (Some(x), Some(y)) => {
                    require!((x - y).abs() < 1e-12, "asymmetric: {x} vs {y}");
                    require!(x >= 0.0);
                }
                (None, None) => {}
                other => require!(false, "asymmetric availability {other:?}"),
            }
            Ok(())
        },
    );
}

/// Device RSSI transfer is strictly monotone: stronger physical signals
/// never read weaker.
#[test]
fn device_transfer_monotone() {
    checker("device_transfer_monotone").run(
        |rng, scale| {
            (
                rng.gen_range(-95.0..-20.0),
                rng.gen_range(0.1..0.1 + 29.9 * scale),
            )
        },
        |&(r1, gap)| {
            for device in [
                DeviceProfile::nexus_5x(),
                DeviceProfile::lg_g3(),
                DeviceProfile::galaxy_s2(),
            ] {
                require!(device.measure_rssi(r1 + gap) > device.measure_rssi(r1));
            }
            Ok(())
        },
    );
}
