#!/usr/bin/env bash
# The whole CI gate; .github/workflows/ci.yml runs it and uploads the
# artifacts it leaves. Run it before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (whole workspace via default-members, REIN_THREADS=1)"
REIN_THREADS=1 cargo test -q

echo "==> cargo test -q (whole workspace via default-members, REIN_THREADS=4)"
REIN_THREADS=4 cargo test -q

echo "==> cargo test -q --release on the detection kernels (reference proptests in the optimized build the benchmark measures)"
cargo test -q --release -p rein-constraints -p rein-detect -p rein-ml

echo "==> benchmark package tests (its own workspace: a kernel change must not break its build)"
cargo test -q --offline --manifest-path benchmark/Cargo.toml --bins

echo "==> benchmark at its default seed (each workload's cell digest and count must match)"
# The package tests above run at a tiny scale, where no digest is
# compared. This run checks every workload's cells against the digests
# recorded in benchmark/src/bin/rein_benchmark/workload.rs and exits 1
# when any workload is incorrect.
bash benchmark/run.sh --all --seconds 1

echo "==> traced benchmark at its real scale (layer coverage, one-thread and full-pool cells)"
# The package tests above run the traced binary only at tiny scales, on
# seed 3, in a debug build. This runs it on every workload at its real
# scale in a release build: it exits 1 when the layers cover less than
# 0.95 of the serial wall time or when a full-pool or one-thread cell
# map differs from the set-up's.
bash benchmark/run.sh --all --seconds 1 --trace 1

echo "==> cargo run -p rein-audit (call-graph determinism & integrity rules + SARIF, stale suppressions blocking)"
cargo run -q -p rein-audit -- --quiet --sarif artifacts/audit/report.sarif

echo "==> grid smoke --mode chaos: one rule over many cells, then REIN_THREADS=1 and 4 (exit 3 = degraded-as-injected)"
# Chaos mode exits 3 by design: the injected cells *did* degrade and the
# manifest records them. 4 = a non-injected cell diverged, 5 = wrong
# failure set, anything else = crash or bad environment. An unscoped
# repair rule degrades that repairer's cell in every mask group, and a
# shared cell records one failure per detector it serves, so the first
# run checks the failure set per rule and per trace. It runs before the
# pinned runs because every chaos run rewrites the chaos_smoke-29
# manifest that the trace step exports.
set +e
REIN_SCALE=0.05 REIN_CHAOS='repair:impute_mean_mode=stall' \
  cargo run -q --release -p rein-bench --bin grid_smoke -- --mode chaos
multi_exit=$?
set -e
if [ "$multi_exit" -ne 3 ]; then
  echo "grid_smoke --mode chaos under one unscoped repair rule exited $multi_exit (expected 3)"
  exit 1
fi
# Running the default spec at two pool widths and hashing the fault-free
# cell dumps proves the grid is worker-count invariant in the
# serial/parallel dimension too.
for threads in 1 4; do
  set +e
  REIN_SCALE=0.05 REIN_THREADS=$threads cargo run -q --release -p rein-bench --bin grid_smoke -- \
    --mode chaos --dump-cells "artifacts/chaos/cells-t$threads.txt"
  chaos_exit=$?
  set -e
  if [ "$chaos_exit" -ne 3 ]; then
    echo "grid_smoke --mode chaos (REIN_THREADS=$threads) exited $chaos_exit (expected 3: degraded run with recorded failures)"
    exit 1
  fi
done
serial_sum=$(sha256sum artifacts/chaos/cells-t1.txt | cut -d' ' -f1)
parallel_sum=$(sha256sum artifacts/chaos/cells-t4.txt | cut -d' ' -f1)
if [ "$serial_sum" != "$parallel_sum" ]; then
  echo "grid cell dumps differ between REIN_THREADS=1 ($serial_sum) and REIN_THREADS=4 ($parallel_sum)"
  exit 1
fi
echo "grid dumps byte-identical across REIN_THREADS=1/4 (sha256 $serial_sum)"
# The bytes are also pinned across commits: a kernel change that moves
# them alike at every width fails here. A change that moves them on
# purpose updates CHAOS_CELLS_SHA256 / PARALLEL_CELLS_SHA256 and says why
# in CHANGES.md.
CHAOS_CELLS_SHA256=710580a8a13e5b31ec3e79bf38643ea845d0f6d8123a593a6b4d7431d83991e6
PARALLEL_CELLS_SHA256=dd666767fcdbf19a942616b2a01b8c194bd9348f6f34fc0ce0e9e7c577eb5c5a
if [ "$serial_sum" != "$CHAOS_CELLS_SHA256" ]; then
  echo "chaos grid dump sha256 $serial_sum, pinned $CHAOS_CELLS_SHA256"
  exit 1
fi

echo "==> grid smoke --mode crash at REIN_THREADS=1 and 4 (kill-resume byte-identity, quarantine recovery, warm-store hit rate)"
# Crash mode is self-asserting: it kills a store-backed grid at every
# REIN_CRASH commit point, resumes from the journal, flips a journal
# byte to force quarantine recovery, and requires the warm store to
# serve >=90% of cells — every dump byte-compared against a store-less
# reference. Exit 0 is the only pass; set -e gates the rest.
for threads in 1 4; do
  REIN_SCALE=0.05 REIN_THREADS=$threads cargo run -q --release -p rein-bench --bin grid_smoke -- --mode crash
done

echo "==> grid smoke --mode parallel at the paper's size (REIN_SCALE=1: no fault-free cell may degrade)"
# Exit 5 = a degraded cell. Guard budgets catch runaways and are sized
# from each cell's input table, so a fault-free grid at the paper's size
# must finish without one. It runs before the x0.05 smoke, which
# rewrites the same parallel_smoke-31 manifest the trace step exports.
REIN_SCALE=1 cargo run -q --release -p rein-bench --bin grid_smoke -- --mode parallel

echo "==> grid smoke --mode parallel (S1-S5 grid byte-identity at 1/4/N threads, in-process; bytes pinned)"
REIN_SCALE=0.05 cargo run -q --release -p rein-bench --bin grid_smoke -- --mode parallel \
  --dump-cells artifacts/chaos/cells-parallel.txt
parallel_cells_sum=$(sha256sum artifacts/chaos/cells-parallel.txt | cut -d' ' -f1)
if [ "$parallel_cells_sum" != "$PARALLEL_CELLS_SHA256" ]; then
  echo "parallel grid dump sha256 $parallel_cells_sum, pinned $PARALLEL_CELLS_SHA256"
  exit 1
fi
echo "parallel grid dump matches its pinned sha256"

echo "==> trace exports from the smoke manifests (double run must be byte-identical)"
# The smoke runs above rewrote their manifests; render the causal trace
# exports (Chrome trace JSON, flamegraph SVG, per-cell cost table) of
# every manifest that carries cell traces, twice, and hash-compare — the
# exports are pure functions of the manifest bytes, so any drift is
# nondeterminism. rein_trace exits 4 on orphan spans (an incomplete
# causal tree).
cargo run -q --release -p rein-ledger --bin rein_trace
first_trace=$(sha256sum artifacts/trace/*)
cargo run -q --release -p rein-ledger --bin rein_trace
second_trace=$(sha256sum artifacts/trace/*)
if [ "$first_trace" != "$second_trace" ]; then
  echo "trace exports changed between two identical runs:"
  echo "$first_trace"
  echo "$second_trace"
  exit 1
fi
echo "trace exports byte-identical across a double run"

echo "==> ledger report (built from this run's manifests; two runs must be byte-identical)"
# Runs after the smokes, so the report covers the manifests this run
# just wrote.
cargo run -q --release -p rein-ledger --bin rein_report -- --out artifacts/ledger \
  --diff artifacts/telemetry/chaos_smoke-29.json artifacts/telemetry/fig5_repair_numerical-61.json
first_sum=$(sha256sum artifacts/ledger/report.md artifacts/ledger/report.html)
cargo run -q --release -p rein-ledger --bin rein_report -- --out artifacts/ledger \
  --diff artifacts/telemetry/chaos_smoke-29.json artifacts/telemetry/fig5_repair_numerical-61.json
second_sum=$(sha256sum artifacts/ledger/report.md artifacts/ledger/report.html)
if [ "$first_sum" != "$second_sum" ]; then
  echo "ledger outputs changed between two identical runs:"
  echo "$first_sum"
  echo "$second_sum"
  exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings (also the per-site determinism rules: wall clock, env reads, raw writes, hash containers, prints, panics, discarded results, stale #[expect]s)"
# [workspace.lints.clippy] in Cargo.toml and crates/clippy.toml carry the
# per-site determinism rules (DESIGN.md §6b); the audit above keeps only
# the call-graph rules. A suppression is an #[expect] with a reason, and
# one that stops matching fails here as unfulfilled_lint_expectations.
cargo clippy --all-targets -- -D warnings

echo "==> cargo clippy on the benchmark package -- -D warnings (its own workspace: the workspace lints and crates/clippy.toml do not reach it)"
cargo clippy --offline --manifest-path benchmark/Cargo.toml --bins --tests -- -D warnings

echo "CI checks passed."
