#!/usr/bin/env bash
# Tier-1 verification with the hermetic-build policy enforced.
#
# 1. Every dependency named in a workspace Cargo.toml must be an in-repo
#    `uniloc-*` path crate.
# 2. The workspace must build and test fully offline, with the registry
#    untouched.
#
# Run from anywhere inside the repository.

set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# --- 1. dependency audit -------------------------------------------------
# Walk every manifest's dependency tables and flag anything that is not a
# uniloc-* crate.
echo "==> auditing workspace manifests for external dependencies"
for manifest in Cargo.toml crates/*/Cargo.toml benchmark/Cargo.toml; do
    bad=$(awk '
        # Table-header form: [dependencies.foo] / [dev-dependencies.foo]
        /^\[(workspace\.)?(dev-|build-)?dependencies\./ {
            dep = $0
            sub(/^\[(workspace\.)?(dev-|build-)?dependencies\./, "", dep)
            sub(/\].*/, "", dep)
            if (dep !~ /^uniloc-/) print dep
            in_deps = 0
            next
        }
        /^\[/ {
            in_deps = ($0 ~ /^\[(workspace\.)?(dev-|build-)?dependencies\]/)
            next
        }
        in_deps && /^[a-zA-Z0-9_-]+[ \t]*=/ {
            dep = $1
            sub(/[ \t]*=.*/, "", dep)
            if (dep !~ /^uniloc-/) print dep
        }
    ' "$manifest")
    if [ -n "$bad" ]; then
        echo "ERROR: $manifest names non-uniloc dependencies:" >&2
        echo "$bad" | sed 's/^/    /' >&2
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    echo "hermetic-build policy violated (see DESIGN.md)" >&2
    exit 1
fi
echo "    ok: all dependencies are in-repo uniloc-* crates"

# --- 2. tier-1 verify, fully offline ------------------------------------
export CARGO_NET_OFFLINE=true
echo "==> cargo build --release --workspace (offline)"
cargo build --release --workspace
echo "==> cargo test -q --workspace (offline)"
cargo test -q --workspace
echo "==> cargo clippy --workspace --all-targets (offline, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

# The examples are the public API's only in-repo callers outside the
# tests, and `cargo test` builds them without running them.
echo "==> examples (each run once, release)"
for example in examples/*.rs; do
    name=$(basename "$example" .rs)
    if ! cargo run --release --offline --quiet --example "$name" > /dev/null; then
        echo "ERROR: example $name exited non-zero" >&2
        exit 1
    fi
done
echo "    ok: every example ran to completion"

# --- 3. metrics smoke ----------------------------------------------------
# Run a short scenario with the observability sidecar enabled, then assert
# the JSONL parses with the in-repo reader (via `uniloc inspect`) and
# carries the expected metric names.
echo "==> metrics smoke (uniloc run --metrics)"
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
target/release/uniloc train --seed 1 --out "$smoke/models.json" --quiet
target/release/uniloc run --models "$smoke/models.json" --scenario office \
    --seed 3 --metrics "$smoke/metrics.jsonl" --virtual-clock --quiet >/dev/null
target/release/uniloc inspect --file "$smoke/metrics.jsonl" > "$smoke/summary.txt"
for name in pipeline.epochs engine.fusion.mode.bma engine.scheme.available.wifi \
            engine.tau error_model.residual.wifi span.engine.update \
            span.scheme.estimate.fusion; do
    if ! grep -q "$name" "$smoke/summary.txt"; then
        echo "ERROR: metrics sidecar is missing \`$name\`" >&2
        exit 1
    fi
done
echo "    ok: sidecar parses and carries the expected metrics"

# The same inspection carries the sidecar's calibration and flight
# sections: per-scheme reliability bins with coverage summaries, and the
# GPS-indoors scheme_unavailable postmortem the office walk always trips.
for needle in "reliability bins (PIT 0..1)" "coverage (nominal->observed)" "drift: cusum"; do
    if ! grep -qF "$needle" "$smoke/summary.txt"; then
        echo "ERROR: inspect output is missing the calibration section's \`$needle\`" >&2
        exit 1
    fi
done
if ! grep -q "scheme_unavailable" "$smoke/summary.txt"; then
    echo "ERROR: inspect shows no scheme_unavailable postmortem" >&2
    exit 1
fi
echo "    ok: calibration cells and flight postmortems inspect cleanly"

# Each command accepts only its own flags and the global ones: a typo or
# a retired flag must exit non-zero and name the flag, never run with a
# silent default (`--out` keeps a run that wrongly starts out of results/).
# The crash-recovery smoke below adds the resume case: a flag the
# checkpoint pins is an error too.
echo "==> unknown-flag smoke (uniloc fleet --sesions, uniloc scenarios --bogus)"
expect_rejected() {
    local needle=$1
    shift
    if target/release/uniloc "$@" > /dev/null 2> "$smoke/flag.err"; then
        echo "ERROR: \`uniloc $*\` succeeded; it must fail with: $needle" >&2
        exit 1
    fi
    if ! grep -qF -- "$needle" "$smoke/flag.err"; then
        echo "ERROR: \`uniloc $*\` failed without: $needle" >&2
        cat "$smoke/flag.err" >&2
        exit 1
    fi
}
expect_rejected "unknown flag \`--sesions\`" fleet --sessions 2 --max-epochs 2 --sesions 9 \
    --out "$smoke/typo" --quiet
expect_rejected "unknown flag \`--bogus\`" scenarios --bogus 7
echo "    ok: unknown flags exit non-zero and are named"

# --- 4. chaos smoke -------------------------------------------------------
# Sweep the small fault-plan set over one scenario, strict: a terminal
# `lost` ladder state, any non-finite fused estimate, or a quarantine that
# never lifts after its fault window fails CI. Runs the sweep at both
# --jobs 1 (the inline sequential path) and --jobs 4 (the worker pool) and
# requires byte-identical artifacts — the parallel engine's determinism
# contract. Reuses the models trained for the metrics smoke; stays fully
# offline.
echo "==> chaos smoke (uniloc chaos --strict, --jobs 1 vs --jobs 4)"
target/release/uniloc chaos --models "$smoke/models.json" --scenarios office \
    --plans smoke --seed 11 --out "$smoke/chaos" --strict --quiet --jobs 1
target/release/uniloc chaos --models "$smoke/models.json" --scenarios office \
    --plans smoke --seed 11 --out "$smoke/chaos4" --strict --quiet --jobs 4
if ! ls "$smoke/chaos"/CHAOS_*.json >/dev/null 2>&1; then
    echo "ERROR: chaos sweep wrote no CHAOS_*.json report" >&2
    exit 1
fi
if ! diff -r "$smoke/chaos" "$smoke/chaos4" >/dev/null; then
    echo "ERROR: chaos artifacts differ between --jobs 1 and --jobs 4" >&2
    diff -r "$smoke/chaos" "$smoke/chaos4" >&2 || true
    exit 1
fi
for needle in '"worst_ladder"' '"nonfinite_fused": 0' '"recovered": true'; do
    if ! grep -qF "$needle" "$smoke/chaos"/CHAOS_*.json; then
        echo "ERROR: chaos report is missing \`$needle\`" >&2
        exit 1
    fi
done
echo "    ok: fault sweep stayed finite, recovered, and is --jobs invariant"

# --- 5. fleet smoke -------------------------------------------------------
# Serve a 200-walker fleet (two venues, every 10th walker under a fault
# plan) through the session scheduler at --jobs 1 and --jobs 4 with
# different resident caps, strict: any non-finite fused estimate fails
# CI, and any quarantined clean walker is spot-checked against a solo
# legacy replay (divergence = isolation breach = fail). The FLEET.json
# report carries per-session record digests and no wall-clock numbers, so
# byte-identical artifacts across worker counts prove the fleet engine's
# determinism contract end to end (DESIGN.md §9).
echo "==> fleet smoke (uniloc fleet --strict, --jobs 1 vs --jobs 4)"
# --alloc-budget pins the allocation observatory's steady-state meter: the
# epoch loop is allocation-free once warm (tests/zero_alloc.rs), so the
# smoke fleet's steady state is ~0.07 alloc(s)/epoch today — all of it
# chaos-driven rare paths (frame scrubs, quarantine trips, postmortem
# events). A breach of 0.5 means a per-epoch allocation landed on the hot
# path (any real one adds >= 1/epoch). Re-bless by measuring the new
# steady state (`uniloc fleet ... --out` then `uniloc inspect --file
# .../PROF_alloc.json`) and
# raising the budget in the same change that justifies it.
target/release/uniloc fleet --models "$smoke/models.json" --sessions 200 \
    --scenarios office,open-space --max-epochs 12 --chaos-every 10 --seed 17 \
    --out "$smoke/fleet" --strict --quiet --jobs 1 --resident 64 \
    --alloc-budget 0.5
target/release/uniloc fleet --models "$smoke/models.json" --sessions 200 \
    --scenarios office,open-space --max-epochs 12 --chaos-every 10 --seed 17 \
    --out "$smoke/fleet4" --strict --quiet --jobs 4 --resident 9 \
    --alloc-budget 0.5
if ! diff -r "$smoke/fleet" "$smoke/fleet4" >/dev/null; then
    echo "ERROR: fleet artifacts differ between --jobs 1 and --jobs 4" >&2
    diff -r "$smoke/fleet" "$smoke/fleet4" >&2 || true
    exit 1
fi
for needle in '"sessions": 200' '"fleet_digest"' '"quarantined_sessions"'; do
    if ! grep -qF "$needle" "$smoke/fleet/FLEET.json"; then
        echo "ERROR: fleet report is missing \`$needle\`" >&2
        exit 1
    fi
done
echo "    ok: 200-session fleet is clean and --jobs/--resident invariant"

# Campus short walks. The fleets above serve office and open space for 12
# epochs, so they never reach the campus paths' outdoor segments (the
# 22 m shadowing field, the GPS sky view) or a 4-frame served prefix.
# Serve 48 mall/path1/path2 walkers for 4 epochs each at two worker
# counts and resident caps, strict, and require byte-identical artifacts.
echo "==> campus short-walk smoke (uniloc fleet --max-epochs 4, --jobs 1 vs --jobs 4)"
target/release/uniloc fleet --models "$smoke/models.json" --sessions 48 \
    --scenarios mall,path1,path2 --max-epochs 4 --seed 17 \
    --out "$smoke/campus" --strict --quiet --jobs 1 --resident 64
target/release/uniloc fleet --models "$smoke/models.json" --sessions 48 \
    --scenarios mall,path1,path2 --max-epochs 4 --seed 17 \
    --out "$smoke/campus4" --strict --quiet --jobs 4 --resident 9
if ! diff -r "$smoke/campus" "$smoke/campus4" >/dev/null; then
    echo "ERROR: campus short-walk artifacts differ between --jobs 1 and --jobs 4" >&2
    diff -r "$smoke/campus" "$smoke/campus4" >&2 || true
    exit 1
fi
echo "    ok: 48-session campus short-walk fleet is clean and --jobs/--resident invariant"

# The fleet observatory artifacts ride the same determinism gate (the
# diff -r above already proved them byte-identical across worker counts);
# here assert they exist and that the health table renders from them.
for artifact in FLEET_HEALTH.json PROF_fleet.folded PROF_fleet.json \
                PROF_alloc.folded PROF_alloc.json; do
    if [ ! -s "$smoke/fleet/$artifact" ]; then
        echo "ERROR: fleet run wrote no $artifact" >&2
        exit 1
    fi
done
if ! grep -q '^fleet;engine.update;' "$smoke/fleet/PROF_fleet.folded"; then
    echo "ERROR: PROF_fleet.folded carries no engine.update stack" >&2
    exit 1
fi
if ! grep -q '^fleet;engine.update;' "$smoke/fleet/PROF_alloc.folded"; then
    echo "ERROR: PROF_alloc.folded carries no engine.update stack" >&2
    exit 1
fi
# The renderers run on the fresh artifacts and on the committed ones, so a
# renderer change that breaks either shows here.
for dir in "$smoke/fleet" results; do
    name=$(basename "$dir")
    target/release/uniloc inspect --file "$dir/FLEET_HEALTH.json" > "$smoke/health-$name.txt"
    for needle in "fleet health — " "availability.motion" "worst sessions" \
                  "alloc observatory:"; do
        if ! grep -qF "$needle" "$smoke/health-$name.txt"; then
            echo "ERROR: inspect of $dir/FLEET_HEALTH.json is missing \`$needle\`" >&2
            exit 1
        fi
    done
    target/release/uniloc inspect --file "$dir/PROF_alloc.json" > "$smoke/alloc-$name.txt"
    for needle in "heap profile —" "engine.update" "steady alloc(s)/epoch"; do
        if ! grep -qF "$needle" "$smoke/alloc-$name.txt"; then
            echo "ERROR: inspect of $dir/PROF_alloc.json is missing \`$needle\`" >&2
            exit 1
        fi
    done
done
if ! grep -qF "fleet health — 200 session(s)" "$smoke/health-fleet.txt"; then
    echo "ERROR: inspect does not count the smoke fleet's 200 sessions" >&2
    exit 1
fi
# The machine-readable views must stay canonical JSON the in-repo reader
# accepts: --json round-trips each document through the inspector itself.
target/release/uniloc inspect --file "$smoke/fleet/FLEET_HEALTH.json" \
    --json > "$smoke/fleet-health.json"
if ! grep -qF '"allocs_per_epoch"' "$smoke/fleet-health.json"; then
    echo "ERROR: inspect --json of FLEET_HEALTH.json carries no allocs_per_epoch" >&2
    exit 1
fi
target/release/uniloc inspect --file "$smoke/fleet/PROF_alloc.json" \
    --json > "$smoke/fleet-alloc.json"
if ! grep -qF '"prof":"alloc"' "$smoke/fleet-alloc.json"; then
    echo "ERROR: inspect --json of PROF_alloc.json is not the canonical alloc profile" >&2
    exit 1
fi
# A document with none of the known tags is an error that names them.
if target/release/uniloc inspect --file results/CHAOS_path1.json \
        > /dev/null 2> "$smoke/inspect-chaos.err"; then
    echo "ERROR: inspect accepted results/CHAOS_path1.json, which has no known tag" >&2
    exit 1
fi
for needle in '`health`' '`prof: "alloc"`' '`models`' '`kind`'; do
    if ! grep -qF "$needle" "$smoke/inspect-chaos.err"; then
        echo "ERROR: inspect's unknown-document error does not name \`$needle\`" >&2
        exit 1
    fi
done
echo "    ok: observatory artifacts written and the inspector renders them"

# Crash recovery: the same smoke fleet is killed (simulated kill -9
# between scheduler rounds) after cutting durable checkpoints, then
# resumed under a different worker count. A crashed run must leave only
# the checkpoint behind, and the resumed run's artifacts must be
# byte-identical to the uninterrupted fleet above — an operator cannot
# tell a recovered fleet from one that never died (DESIGN.md §12).
echo "==> crash-recovery smoke (uniloc fleet --crash-after-rounds / --resume)"
target/release/uniloc fleet --models "$smoke/models.json" --sessions 200 \
    --scenarios office,open-space --max-epochs 12 --chaos-every 10 --seed 17 \
    --out "$smoke/fleet-crash" --strict --quiet --jobs 4 --resident 9 \
    --checkpoint-every 2 --crash-after-rounds 5
if [ ! -s "$smoke/fleet-crash/FLEET.ckpt.json" ]; then
    echo "ERROR: crashed fleet left no FLEET.ckpt.json checkpoint" >&2
    exit 1
fi
if [ -e "$smoke/fleet-crash/FLEET.json" ]; then
    echo "ERROR: crashed fleet wrote FLEET.json (artifacts must only come" >&2
    echo "       from completed runs)" >&2
    exit 1
fi
# The checkpoint pins the fleet's shape: a resume that sets a pinned flag
# fails naming it instead of serving the checkpoint's fleet.
expect_rejected "--sessions cannot change a resumed fleet" fleet \
    --resume "$smoke/fleet-crash/FLEET.ckpt.json" --sessions 9 \
    --models "$smoke/models.json" --out "$smoke/resume-flag" --quiet
target/release/uniloc fleet --resume "$smoke/fleet-crash/FLEET.ckpt.json" \
    --models "$smoke/models.json" --out "$smoke/fleet-crash" --strict --quiet \
    --jobs 2 --resident 16
if ! diff -r --exclude=FLEET.ckpt.json "$smoke/fleet" "$smoke/fleet-crash" >/dev/null; then
    echo "ERROR: resumed fleet artifacts differ from the uninterrupted run" >&2
    diff -r --exclude=FLEET.ckpt.json "$smoke/fleet" "$smoke/fleet-crash" >&2 || true
    exit 1
fi
echo "    ok: killed fleet resumed byte-identical to the uninterrupted run"

# Poison isolation: arm a process-level panic fault in one lane. The
# supervisor must retry it, give up, quarantine just that session, and
# let the other 199 finish — the fleet completes (exit 0 under --strict)
# and the report counts exactly one poisoned session.
echo "==> poison smoke (uniloc fleet --panic-lane)"
# stderr is captured: the injected panic legitimately prints its panic
# message three times (one per strike) before the supervisor poisons it.
if ! target/release/uniloc fleet --models "$smoke/models.json" --sessions 200 \
    --scenarios office,open-space --max-epochs 12 --chaos-every 10 --seed 17 \
    --out "$smoke/fleet-poison" --strict --quiet --jobs 4 --resident 9 \
    --panic-lane 7 --panic-epoch 3 2> "$smoke/fleet-poison.stderr"; then
    echo "ERROR: the poison fleet failed instead of completing:" >&2
    cat "$smoke/fleet-poison.stderr" >&2
    exit 1
fi
if ! grep -qF '"poisoned_sessions": 1' "$smoke/fleet-poison/FLEET.json"; then
    echo "ERROR: poison fleet did not report exactly one poisoned session" >&2
    exit 1
fi
echo "    ok: one panicking session poisoned itself; the fleet completed"

# --- 6. fleet benchmark ---------------------------------------------------
# benchmark/ (described by BENCHMARK.json) is its own Cargo package outside
# the root workspace, so the builds above never compile it. Its test suite
# builds it against the current crates and runs a correctness-checked
# --smoke of every workload, traced and untraced: an API change that
# breaks the benchmark fails here, not the next time someone measures.
echo "==> fleet benchmark (cargo test --manifest-path benchmark/Cargo.toml)"
cargo test --offline --manifest-path benchmark/Cargo.toml
echo "    ok: the benchmark builds and every workload's smoke run is correct"

# `compare` skips a result file it cannot read, so a record reader that
# rejected committed results would go unnoticed. Compare the committed
# baseline with itself: every workload in BENCHMARK.json needs a row, over
# as many pairs as the baseline has untraced runs of it, and the workloads
# checked must be exactly the baseline's untraced result names.
echo "==> benchmark compare (benchmark/baseline against itself)"
cargo run --quiet --offline --manifest-path benchmark/Cargo.toml -- \
    compare benchmark/baseline benchmark/baseline > "$smoke/compare.txt"
checked=0
for w in $(grep -o '{"name": "[a-z-]*", "why"' BENCHMARK.json | cut -d'"' -f4); do
    n=$(find benchmark/baseline -name "$w.json" | wc -l)
    if [ "$n" -eq 0 ] || ! grep -qE "^$w +epochs_per_s .* $n pairs\)$" "$smoke/compare.txt" \
            || ! grep -qE "^$w +=> " "$smoke/compare.txt"; then
        echo "ERROR: compare shows no $n-pair row for workload $w:" >&2
        cat "$smoke/compare.txt" >&2
        exit 1
    fi
    checked=$((checked + 1))
done
names=$(find benchmark/baseline -name '*.json' ! -name '*.trace.json' -exec basename {} \; \
    | sort -u | wc -l)
if [ "$checked" -eq 0 ] || [ "$checked" -ne "$names" ]; then
    echo "ERROR: checked $checked workloads from BENCHMARK.json;" \
        "benchmark/baseline holds $names" >&2
    exit 1
fi
echo "    ok: compare reads every committed baseline result ($checked workloads)"

# --- 7. obs-overhead gate -------------------------------------------------
# Observability must stay cheap as well as inert: run the same smoke
# fleet with live and stubbed obs (paired, best-of-2, identical fleet
# digests required) and fail if the epochs/s cost exceeds 5%. It runs
# last so that a failing gate (EXPERIMENTS.md, "Run-to-run spread") still
# lets every check above run; `set -e` still fails the script on it.
echo "==> obs-overhead gate (uniloc fleet --obs-overhead)"
target/release/uniloc fleet --models "$smoke/models.json" --sessions 200 \
    --scenarios office,open-space --max-epochs 12 --chaos-every 10 --seed 17 \
    --quiet --jobs 4 --obs-overhead --overhead-budget 0.05
echo "    ok: observability overhead within the 5% epochs/s budget"
echo "==> ci.sh: all checks passed"
