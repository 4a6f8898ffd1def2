//! Fig. 4 — the eight daily campus paths: 2.78 km total, ~0.8 km outdoor
//! and ~1.98 km indoor.
//!
//! Run with: `cargo run --release -p uniloc-bench --bin fig4_paths`

use uniloc_bench::print_table;
use uniloc_env::campus;

fn main() {
    uniloc_bench::init_obs();
    println!("Fig. 4 — the eight daily paths");
    let paths = campus::all_paths(3);
    let mut rows = Vec::new();
    let mut total = 0.0;
    let mut outdoor = 0.0;
    for p in &paths {
        let len = p.route.length();
        let out = p.outdoor_length();
        total += len;
        outdoor += out;
        let segs: Vec<String> = p
            .segments
            .iter()
            .map(|s| format!("{}({:.0}m)", s.kind, s.end_station - s.start_station))
            .collect();
        rows.push(vec![
            p.name.clone(),
            format!("{len:.0}"),
            format!("{out:.0}"),
            format!("{:.0}", len - out),
            segs.join(" "),
        ]);
    }
    rows.push(vec![
        "total".to_owned(),
        format!("{total:.0}"),
        format!("{outdoor:.0}"),
        format!("{:.0}", total - outdoor),
        String::new(),
    ]);
    print_table(
        "path inventory",
        &["path", "length", "outdoor", "indoor", "segments"],
        &rows,
    );
    println!("\npaper: 2.78 km total = 0.80 km outdoor + 1.98 km indoor");
    println!(
        "ours:  {:.2} km total = {:.2} km outdoor + {:.2} km indoor",
        total / 1000.0,
        outdoor / 1000.0,
        (total - outdoor) / 1000.0
    );
}
