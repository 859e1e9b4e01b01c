#!/usr/bin/env bash
# The full local gate: everything CI runs, in the same order.
# Usage: scripts/check.sh [--quick]
#   --quick  skip the release build, bench compilation, the TSDB and
#            inflow report smokes, examples smoke, perfbench smoke runs,
#            and loom models (perfbench still
#            compiles: a moved signature it calls is the cheapest way to
#            break the benchmark)
set -euo pipefail
cd "$(dirname "$0")/.."

# Every workspace step resolves from the repository alone: no registry,
# and Cargo.lock must already be up to date.
CARGO_FLAGS=(--offline --locked)

quick=0
if [[ "${1:-}" == "--quick" ]]; then
    quick=1
fi

# Run one gate step with wall-clock accounting; the per-step summary at
# the end tells you where a slow `check.sh` actually spent its time.
declare -a step_names=()
declare -a step_secs=()
step() {
    local name="$1"
    shift
    echo "==> $name"
    local started=$SECONDS
    "$@"
    step_names+=("$name")
    step_secs+=($((SECONDS - started)))
}

loom_models() {
    RUSTFLAGS="--cfg loom" LOOM_MAX_PREEMPTIONS="${LOOM_MAX_PREEMPTIONS:-2}" \
        cargo test "${CARGO_FLAGS[@]}" --release -p ruru-loom -p ruru-nic -p ruru-mq -p ruru-telemetry
}

# Scaled-down bench report run, as CI's "TSDB smoke" and "Inflow smoke":
# the reporter must finish and write valid JSON holding every
# `section.key` named after the binary.
report_smoke() {
    local bin=$1 out="${TMPDIR:-/tmp}/BENCH_${1%_report}_smoke.json"
    shift
    cargo run "${CARGO_FLAGS[@]}" --release -p ruru-bench --bin "$bin" -- --smoke --out "$out"
    python3 - "$out" "$@" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
for path in sys.argv[2:]:
    section, key = path.split(".")
    assert key in report[section], f"{sys.argv[1]} has no {path}"
PY
}

step "cargo test -q --workspace" cargo test "${CARGO_FLAGS[@]}" -q --workspace
step "cargo clippy --workspace --all-targets -- -D warnings" \
    cargo clippy "${CARGO_FLAGS[@]}" --workspace --all-targets -- -D warnings
# One entry point for all four static gates (lint, panic-check,
# hotpath-check, account-check) — same step CI's static-analysis job runs;
# check-all prints its own per-analyzer timing.
step "cargo xtask check-all" cargo "${CARGO_FLAGS[@]}" xtask check-all
# perfbench/ is a workspace of its own, so nothing above builds it;
# this is what catches a moved tracker, Enricher or SelfMetrics API.
# Not --locked: perfbench/Cargo.lock still lists two stand-ins the
# workspace no longer names, so cargo rewrites it on every build.
step "perfbench compiles" \
    cargo build --release --offline --manifest-path perfbench/Cargo.toml

if [[ "$quick" -eq 0 ]]; then
    step "loom models (RUSTFLAGS=--cfg loom)" loom_models
    step "cargo build --release --workspace" cargo build "${CARGO_FLAGS[@]}" --release --workspace
    step "cargo bench --no-run --workspace" cargo bench "${CARGO_FLAGS[@]}" --no-run --workspace
    step "TSDB smoke" report_smoke tsdb_report storage.latency_row_bytes
    step "Inflow smoke" report_smoke inflow_report
    # Examples smoke, as in CI: the live map, drawn from the PUB feed
    # while the pipeline runs.
    step "serve_map --self-test" cargo run "${CARGO_FLAGS[@]}" --release --example serve_map -- --self-test
    step "perfbench smoke" scripts/perfbench_smoke.sh
fi

echo
echo "step timings:"
for i in "${!step_names[@]}"; do
    printf '  %4ss  %s\n' "${step_secs[$i]}" "${step_names[$i]}"
done
echo "OK"
