//! Quickstart: train UniLoc's error models once, then localize along the
//! paper's daily campus path and compare every scheme against UniLoc1,
//! UniLoc2 and the oracle.
//!
//! Run with: `cargo run --release --example quickstart`

use uniloc::core::error_model::train;
use uniloc::core::pipeline::{self, PipelineConfig};
use uniloc::env::{campus, venues};
use uniloc::schemes::SchemeId;

fn main() {
    // Step 1: collect training data in the two training venues (Section
    // III-B of the paper: an office and an open space, ~300 locations
    // each), then fit the per-scheme error models.
    let cfg = PipelineConfig::default();
    println!("collecting training data ...");
    let mut samples = pipeline::collect_training(&venues::training_office(1), &cfg, 10);
    samples.extend(pipeline::collect_training(&venues::training_open_space(2), &cfg, 11));
    println!("  {} training samples", samples.len());
    let models = train(&samples).expect("training venues produce enough samples");

    // Step 2: walk the 320 m daily path — a place the models never saw —
    // and let UniLoc fuse the five schemes.
    let scenario = campus::daily_path(3);
    println!("walking {} ({} m) ...", scenario.name, scenario.route.length());
    let records = pipeline::run_walk(&scenario, &models, &cfg, 12);

    println!("\nmean localization error over {} epochs:", records.len());
    for id in SchemeId::BUILTIN {
        let err = pipeline::scheme_mean_error(&records, id);
        let avail = records.iter().filter(|r| r.scheme_error(id).is_some()).count() as f64
            / records.len() as f64;
        match err {
            Some(e) => println!("  {id:<10} {e:6.2} m   (available {:5.1}%)", avail * 100.0),
            None => println!("  {id:<10}   n/a"),
        }
    }
    let show = |name: &str, v: Option<f64>| match v {
        Some(e) => println!("  {name:<10} {e:6.2} m"),
        None => println!("  {name:<10}   n/a"),
    };
    show("oracle", pipeline::mean_defined(records.iter().map(|r| r.oracle_error)));
    show("uniloc1", pipeline::mean_defined(records.iter().map(|r| r.uniloc1_error)));
    show("uniloc2", pipeline::mean_defined(records.iter().map(|r| r.uniloc2_error)));

    let duty = records.iter().filter(|r| r.gps_enabled).count() as f64 / records.len() as f64;
    println!("\nGPS receiver duty cycle: {:.1}%", duty * 100.0);

    // Per-segment breakdown: where does each scheme win?
    println!("\nmean error by segment kind:");
    let kinds: Vec<_> = scenario.segments.iter().map(|s| s.kind).collect();
    print!("  {:<18}", "segment");
    for id in SchemeId::BUILTIN {
        print!("{:>9}", id.to_string());
    }
    println!("{:>9}{:>9}{:>9}", "oracle", "uniloc1", "uniloc2");
    for kind in kinds {
        let seg: Vec<_> = records
            .iter()
            .filter(|r| scenario.kind_at_station(r.station) == kind)
            .collect();
        if seg.is_empty() {
            continue;
        }
        print!("  {:<18}", kind.to_string());
        for id in SchemeId::BUILTIN {
            let err = pipeline::mean_defined(seg.iter().map(|r| r.scheme_error(id)));
            match err {
                Some(e) => print!("{e:>9.2}"),
                None => print!("{:>9}", "-"),
            }
        }
        let o = pipeline::mean_defined(seg.iter().map(|r| r.oracle_error)).unwrap_or(f64::NAN);
        let u1 = pipeline::mean_defined(seg.iter().map(|r| r.uniloc1_error)).unwrap_or(f64::NAN);
        let u2 = pipeline::mean_defined(seg.iter().map(|r| r.uniloc2_error)).unwrap_or(f64::NAN);
        println!("{o:>9.2}{u1:>9.2}{u2:>9.2}");
        // Mean BMA weight per scheme in this segment.
        print!("    weights        ");
        for id in SchemeId::BUILTIN {
            let w = pipeline::mean_defined(seg.iter().map(|r| r.weight(id))).unwrap_or(0.0);
            print!("{w:>9.3}");
        }
        println!();
        // Mean predicted error per scheme in this segment.
        print!("    predicted      ");
        for id in SchemeId::BUILTIN {
            let p = pipeline::mean_defined(seg.iter().map(|r| r.prediction(id).map(|p| p.mean)));
            match p {
                Some(v) => print!("{v:>9.2}"),
                None => print!("{:>9}", "-"),
            }
        }
        println!();
    }
}
