//! Golden-trace regression tests: one committed end-to-end localization
//! trace per UniLoc variant. The pipeline must reproduce each trace
//! byte-for-byte; any diff means the simulation substrate, the RNG stream
//! layout, or the estimation code changed observable behavior and the
//! goldens need a deliberate re-bless.
//!
//! To re-bless after an intentional change:
//!
//! ```text
//! UNILOC_BLESS=1 cargo test --test golden_trace
//! ```

use std::sync::OnceLock;
use uniloc::core::pipeline::{self, EpochRecord, PipelineConfig};
use uniloc::env::venues;
use uniloc::stats::json::ToJson;
use uniloc::stats::Json;

/// Fixed seeds: goldens are only meaningful for one exact pipeline input.
const TRAIN_SEED: u64 = 41;
const WALK_SEED: u64 = 141;

fn walk_records() -> &'static [EpochRecord] {
    static RECORDS: OnceLock<Vec<EpochRecord>> = OnceLock::new();
    RECORDS.get_or_init(|| {
        let cfg = PipelineConfig::default();
        let models = pipeline::train_standard_models(TRAIN_SEED)
            .expect("training venues produce enough samples");
        // A small office keeps the committed trace compact while still
        // exercising survey, IO detection, per-scheme estimation and both
        // UniLoc variants end to end.
        let venue = venues::office("golden-office", TRAIN_SEED + 2, 36.0, 14.0);
        pipeline::run_walk(&venue, &models, &cfg, WALK_SEED)
    })
}

/// Projects the walk onto the fields a variant's golden pins, one compact
/// object per epoch.
fn variant_trace(project: impl Fn(&EpochRecord) -> Json) -> String {
    let epochs: Vec<Json> = walk_records().iter().map(project).collect();
    let mut text = Json::Arr(epochs).to_string_pretty();
    text.push('\n');
    text
}

fn check_golden(name: &str, produced: &str) {
    let path = format!("{}/tests/golden/{name}.json", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UNILOC_BLESS").is_some() {
        std::fs::write(&path, produced).expect("write golden");
        return;
    }
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path}: {e} (run with UNILOC_BLESS=1)"));
    assert!(
        produced == committed,
        "pipeline no longer reproduces tests/golden/{name}.json \
         ({} generated vs {} committed bytes); if the change is intentional, \
         re-bless with UNILOC_BLESS=1",
        produced.len(),
        committed.len(),
    );
}

#[test]
fn uniloc1_trace_is_reproduced_exactly() {
    let trace = variant_trace(|r| {
        Json::Obj(vec![
            ("t".to_owned(), r.t.to_json()),
            ("station".to_owned(), r.station.to_json()),
            ("io".to_owned(), r.io_detected.to_json()),
            ("choice".to_owned(), r.uniloc1_choice.to_json()),
            ("error".to_owned(), r.uniloc1_error.to_json()),
        ])
    });
    check_golden("uniloc1", &trace);
}

#[test]
fn uniloc2_trace_is_reproduced_exactly() {
    let trace = variant_trace(|r| {
        Json::Obj(vec![
            ("t".to_owned(), r.t.to_json()),
            ("station".to_owned(), r.station.to_json()),
            ("tau".to_owned(), r.tau.to_json()),
            ("weights".to_owned(), r.weights.to_json()),
            ("error".to_owned(), r.uniloc2_error.to_json()),
            ("mixture_error".to_owned(), r.uniloc2_mixture_error.to_json()),
        ])
    });
    check_golden("uniloc2", &trace);
}
