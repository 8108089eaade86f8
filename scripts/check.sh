#!/usr/bin/env bash
# The repo's one gate. Run before pushing.
#
# Plain `scripts/check.sh` (= `all`) runs fmt, clippy, test, deps and doc.
# The slower fuzz, vivisect, perf and serve gates run only when named.
# CI runs every gate below as its own job (fmt, clippy, deps, test, doc,
# fuzz, vivisect, serve, perf).
#
#   scripts/check.sh            # fmt + clippy + test + deps + doc
#   scripts/check.sh fmt        # just the formatting check
#   scripts/check.sh clippy     # just the lints
#   scripts/check.sh test       # just the tests
#   scripts/check.sh deps       # zero-external-dependency audit
#   scripts/check.sh fuzz       # oracle self-test + corpus replay + 200-case fuzz
#   scripts/check.sh vivisect   # ho_vivisect smoke (span/counter reconciliation, 1 vs 4 threads)
#   scripts/check.sh perf       # gating perf: tick_bench + fleet_bench vs BENCH_*.json (±15%)
#   scripts/check.sh serve      # serve smoke: UDS server + serve_load replay vs BENCH_serve.json
#   scripts/check.sh doc        # cargo doc --no-deps with warnings as errors
#
# The workspace has no crates.io dependencies, so every step works offline.
set -euo pipefail

cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

step="${1:-all}"

run_fmt() {
    echo "== cargo fmt --check"
    cargo fmt --all -- --check
}

run_clippy() {
    echo "== cargo clippy (warnings are errors)"
    cargo clippy --workspace --all-targets -- -D warnings
}

run_test() {
    echo "== cargo test"
    cargo test -q --workspace
}

# The workspace builds from its own sources only: every dependency entry in
# every manifest must be a path dependency, or a `.workspace = true` entry
# (the [workspace.dependencies] table is scanned too). A pure text scan, so
# it needs no toolchain and no network.
run_deps() {
    echo "== dependency audit (path dependencies only)"
    local bad
    bad="$(awk '
        /^\[/ {
            in_deps = ($0 ~ /dependencies\]$/)
            if ($0 ~ /dependencies\.[^]]+\]$/) print FILENAME ": " $0 " (use an inline { path = ... } entry)"
            next
        }
        in_deps && /^[A-Za-z0-9_-]+/ && !/\.workspace *= *true/ && !/path *=/ { print FILENAME ": " $0 }
    ' Cargo.toml crates/*/Cargo.toml)"
    if [ -n "$bad" ]; then
        echo "$bad" | sed 's/^/  NOT A PATH DEPENDENCY: /' >&2
        echo "dependency audit failed: the workspace takes no external dependencies" >&2
        return 1
    fi
    echo "  every dependency is a path dependency"
}

# The fuzz smoke gate: the oracle's mutation self-test, the committed
# repro corpus, and a bounded fixed-seed campaign (200 cases under the
# invariant oracle, each radio-trajectory-checked and run through an
# event-driven fleet differential), byte-compared across thread counts.
run_fuzz() {
    echo "== scenario fuzz gate (self-test, corpus, 200 cases, 1 vs 4 threads)"
    cargo build -q --release -p fiveg-bench --bin scenario_fuzz
    local bin=target/release/scenario_fuzz
    local t1 t4
    t1="$(mktemp)" && t4="$(mktemp)"
    trap 'rm -f "$t1" "$t4"' RETURN
    "$bin" --cases 200 --seed 1 --threads 1 --out "$t1"
    "$bin" --cases 200 --seed 1 --threads 4 --no-selftest --out "$t4"
    if ! cmp -s "$t1" "$t4"; then
        echo "fuzz report differs across thread counts:" >&2
        diff "$t1" "$t4" >&2 || true
        return 1
    fi
    echo "  reports are byte-identical"
}

# The vivisection gate: assemble causal HO spans across the pinned smoke
# matrix, reconcile them exactly against the engine's telemetry counters,
# byte-compare the report across thread counts, and exercise the
# flight-recorder crash path with a forced oracle violation. CI uploads
# BENCH_vivisect.json and the dumps as artifacts.
run_vivisect() {
    echo "== vivisect gate (span reconciliation, 1 vs 4 threads, forced violation)"
    cargo build -q --release -p fiveg-bench --bin ho_vivisect
    local bin=target/release/ho_vivisect
    local t4 dumps
    t4="$(mktemp)" && dumps="$(mktemp -d)"
    trap 'rm -f "$t4"; rm -rf "$dumps"' RETURN
    "$bin" --smoke --threads 1 --out BENCH_vivisect.json --dump-dir vivisect_dumps --force-violation
    "$bin" --smoke --threads 4 --out "$t4" --dump-dir "$dumps"
    if ! cmp -s BENCH_vivisect.json "$t4"; then
        echo "vivisect report differs across thread counts:" >&2
        diff BENCH_vivisect.json "$t4" >&2 || true
        return 1
    fi
    grep -q '"schema":"fiveg-flightrec/v1"' vivisect_dumps/forced_oracle_violation.jsonl || {
        echo "forced violation did not produce a fiveg-flightrec/v1 dump" >&2
        return 1
    }
    echo "  reports are byte-identical; flight-recorder dump carries the span timeline"
}

# Gating perf job: rerun both benchmarks and gate their rows against the
# committed BENCH_*.json baselines; what is gated, and why no gate reads a
# stopwatch, is documented once in the fiveg_bench::perfgate module docs.
# tick_bench runs the full scenario set and fleet_bench the smoke sizes at
# the baseline's pinned --threads 1 --shards 16 config (a baseline of
# another config is refused). --verify-shards first proves 1x1 == 2x4
# threads x shards, referee == event-driven byte identity and
# never-sleeping == event-driven control planes.
# Wall-clock goes to stdout only; CI keeps it as a log artifact.
run_perf() {
    echo "== perf gate (tick_bench + fleet_bench vs committed baselines, tol 15%)"
    cargo build -q --release -p fiveg-bench --bin tick_bench --bin fleet_bench
    target/release/tick_bench --out BENCH_tick_ci.json --baseline BENCH_tick.json
    target/release/fleet_bench --smoke --threads 1 --shards 16 --verify-shards \
        --out BENCH_fleet_ci.json --baseline BENCH_fleet.json
    python3 -m json.tool BENCH_tick_ci.json >/dev/null
    python3 -m json.tool BENCH_fleet_ci.json >/dev/null
    echo "  both reports parse; no gated metric regressed beyond tolerance"
}

# The serving gate, end to end on the real binaries: a `serve` server on a
# Unix socket and `serve_load` replaying the pinned fleet workload at
# 8-session fan-out. serve_load exits 2 when a wire PROGNOSIS differs from
# the offline Prognos replay, and gates its counts and the equivalence
# digest against BENCH_serve.json (see the fiveg_bench::perfgate docs).
run_serve() {
    echo "== serve gate (UDS server + serve_load replay vs committed baseline, tol 15%)"
    cargo build -q --release -p fiveg-serve --bin serve --bin serve_load
    local dir srv
    dir="$(mktemp -d)"
    target/release/serve --uds "$dir/serve.sock" --workers 2 --duration-s 300 \
        >"$dir/serve.log" 2>&1 &
    srv=$!
    # shellcheck disable=SC2064 — expand $srv/$dir now, at trap-set time
    trap "kill $srv 2>/dev/null || true; rm -rf '$dir'" RETURN
    local i=0
    while [ ! -S "$dir/serve.sock" ]; do
        i=$((i + 1))
        [ "$i" -lt 100 ] || { echo "serve did not create its socket" >&2; cat "$dir/serve.log" >&2; return 1; }
        sleep 0.1
    done
    target/release/serve_load --pinned --uds "$dir/serve.sock" --sessions 8 \
        --out BENCH_serve_ci.json --baseline BENCH_serve.json
    kill "$srv" 2>/dev/null || true
    wait "$srv" 2>/dev/null || true
    python3 -m json.tool BENCH_serve_ci.json >/dev/null
    echo "  wire predictions match offline Prognos; no gated metric regressed"
}

# The doc gate: rustdoc warnings (broken intra-doc links above all) are
# errors, matching what docs.rs would surface.
run_doc() {
    echo "== cargo doc --no-deps (warnings are errors)"
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
}

case "$step" in
    all)
        run_fmt
        run_clippy
        run_test
        run_deps
        run_doc
        ;;
    fmt) run_fmt ;;
    clippy) run_clippy ;;
    test) run_test ;;
    deps) run_deps ;;
    fuzz) run_fuzz ;;
    vivisect) run_vivisect ;;
    perf) run_perf ;;
    serve) run_serve ;;
    doc) run_doc ;;
    *)
        echo "usage: scripts/check.sh [all|fmt|clippy|test|deps|fuzz|vivisect|perf|serve|doc]" >&2
        exit 2
        ;;
esac

echo "OK"
