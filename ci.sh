#!/bin/sh
# Tier-1 gate: build, test, and format-check the entire workspace,
# fully offline (every dependency is a workspace path crate — see
# Cargo.toml [workspace.dependencies]).
#
#   ./ci.sh
#
# Warnings are errors here; the workspace-wide lint expectations live
# in [workspace.lints] in the root Cargo.toml.
set -eu

export CARGO_NET_OFFLINE=true
export RUSTFLAGS="${RUSTFLAGS:--D warnings}"

echo "== build (release, -D warnings) =="
cargo build --release --workspace

echo "== test =="
cargo test -q --workspace

echo "== benchmark smoke (the repo benchmark still builds against this tree and passes) =="
# benchmark/ is a package of its own that pins part of the public API
# (facade builder, fabric::rel, frames, the TCP mesh, node_main). Build
# it into the workspace's target dir and run every workload once, so
# an API break fails here rather than in the benchmark run. `--locked`:
# a change that would rewrite benchmark/Cargo.lock (a new internal
# dependency edge) fails here too, not only in the run that uses the
# BENCHMARK.json command verbatim.
cargo run --release --quiet --locked --manifest-path benchmark/Cargo.toml \
  --target-dir target -- --smoke >/dev/null

echo "== benchmark unit tests (statistics, catalogue == BENCHMARK.json == emitted names) =="
# benchmark/ is its own workspace, so `cargo test --workspace` above
# never runs these.
cargo test -q --locked --manifest-path benchmark/Cargo.toml --target-dir target

echo "== codec kernel gate (optimized onebit/TBQ encode >= 3x, DGC encode >= 40x their OSS baselines) =="
# SS4.4 as a same-process wall-clock ratio: the byte-at-a-time
# quantizer kernels must stay well ahead of the per-bit reference
# encoders, and DGC's sampled-threshold selector ahead of the full
# sort (the bench asserts both, and the simulated pass counts).
cargo bench -q -p hipress-bench --bench sec44_speedups >/dev/null

echo "== fabric frame-path gate (loopback mesh <= 4.6x a bare TcpStream for the same bytes) =="
# The TCP fabric's software overhead as a same-process ratio: a burst
# of 2 MiB messages through a 2-rank loopback mesh against a bare
# write_all/read_exact of the same bytes (the bench asserts it). A
# frame path that assembles, deep-clones or zero-fills payloads again
# lands near 6x and fails.
cargo bench -q -p hipress-bench --bench fabric_frame_path >/dev/null

echo "== lint (plan verifier + CompLL dataflow, full matrix) =="
# Runs hipress-lint over every strategy x algorithm x cluster-size
# task graph plus all shipped CompLL programs; any diagnostic fails.
cargo run --release -q --bin hipress -- lint

echo "== verify (bounded model checking of the wire/FT protocol) =="
# Exhaust the small-scope scenario matrix over the runtime's real
# protocol state machines: every scenario must terminate violation
# free (the CLI exits non-zero otherwise and prints per-scenario
# exploration stats, including the sleep-set reduction's pruning).
# Then a seeded protocol defect must be refuted with a counterexample
# trace — the mutant run exiting non-zero proves the checker has
# teeth, not just green lights.
cargo run --release -q --bin hipress -- verify
VERIFY_ERR=$(mktemp)
if cargo run --release -q --bin hipress -- verify --mutant skip-dedup \
    >/dev/null 2>"$VERIFY_ERR"; then
  echo "seeded protocol defect went undetected" >&2
  rm -f "$VERIFY_ERR"
  exit 1
fi
if ! grep -q "refute" "$VERIFY_ERR"; then
  echo "mutant run failed for the wrong reason:" >&2
  cat "$VERIFY_ERR" >&2
  rm -f "$VERIFY_ERR"
  exit 1
fi
# Same teeth for the elastic epoch-transition matrix: a seeded
# stale-epoch acceptance defect must be refuted with a counterexample.
if cargo run --release -q --bin hipress -- verify --mutant accept-stale-epoch \
    >/dev/null 2>"$VERIFY_ERR"; then
  echo "seeded elastic-protocol defect went undetected" >&2
  rm -f "$VERIFY_ERR"
  exit 1
fi
if ! grep -q "refute" "$VERIFY_ERR"; then
  echo "elastic mutant run failed for the wrong reason:" >&2
  cat "$VERIFY_ERR" >&2
  rm -f "$VERIFY_ERR"
  exit 1
fi
rm -f "$VERIFY_ERR"

echo "== trace smoke (sim + runtime export, read back by the crate's own parser) =="
# Both engines must export a Chrome trace that validates (every
# registered track non-empty) and survives the crate's import; the
# CLI itself enforces both and exits non-zero otherwise. trace-diff
# must then load the pair.
cargo run --release -q --bin hipress -- sim --model ResNet50 --nodes 4 \
  --trace /tmp/hipress-ci-sim.json >/dev/null
cargo run --release -q --bin hipress -- run --nodes 3 --algorithm onebit \
  --trace /tmp/hipress-ci-rt.json >/dev/null
cargo run --release -q --bin hipress -- trace-diff \
  /tmp/hipress-ci-sim.json /tmp/hipress-ci-rt.json >/dev/null
rm -f /tmp/hipress-ci-sim.json /tmp/hipress-ci-rt.json

echo "== chaos smoke (recoverable plan reproduces, crash plan fails structurally) =="
# A fixed-seed recoverable fault plan must complete bit-identical to
# the fault-free run (the CLI itself enforces the bitstream match and
# exits non-zero otherwise). A fixed-seed unrecoverable plan (victim
# crash) must exit non-zero with a structured error naming a node.
cargo run --release -q --bin hipress -- chaos --single --plan recoverable \
  --seed 7 >/dev/null
CHAOS_ERR=$(mktemp)
if cargo run --release -q --bin hipress -- chaos --single --plan crash \
    --victim 1 --deadline-ms 1500 >/dev/null 2>"$CHAOS_ERR"; then
  echo "chaos crash plan unexpectedly succeeded" >&2
  rm -f "$CHAOS_ERR"
  exit 1
fi
if ! grep -q "node" "$CHAOS_ERR"; then
  echo "chaos crash error did not name a node:" >&2
  cat "$CHAOS_ERR" >&2
  rm -f "$CHAOS_ERR"
  exit 1
fi
rm -f "$CHAOS_ERR"

echo "== multi-process smoke (loopback TCP reproduces the thread bitstream) =="
# Three real OS processes over a loopback TCP mesh must install bytes
# identical to the in-process thread engine (the CLI enforces the
# cross-check and exits non-zero otherwise). Then a run with an
# injected worker kill must fail with a structured error naming the
# dead node — never hang.
cargo run --release -q --bin hipress -- run --nodes 3 --algorithm onebit \
  --backend processes --iters 3 --window 2 --cross-check >/dev/null
PROC_ERR=$(mktemp)
if cargo run --release -q --bin hipress -- run --nodes 3 --algorithm onebit \
    --backend processes --kill-node 1 >/dev/null 2>"$PROC_ERR"; then
  echo "killed-worker run unexpectedly succeeded" >&2
  rm -f "$PROC_ERR"
  exit 1
fi
if ! grep -q "node 1" "$PROC_ERR"; then
  echo "killed-worker error did not name node 1:" >&2
  cat "$PROC_ERR" >&2
  rm -f "$PROC_ERR"
  exit 1
fi
rm -f "$PROC_ERR"

echo "== elastic smoke (survive rank loss, re-admit the restarted worker) =="
# Four processes, rank 2 killed at iteration 2: the run must finish
# every iteration on the survivors, bump the membership epoch, name
# the evicted rank, and exit 0 — with the continuation bit-identical
# to a fixed-membership run over the survivor set (the CLI enforces
# the cross-check and exits non-zero otherwise).
EL_OUT=$(mktemp)
cargo run --release -q --bin hipress -- run --elastic --backend processes \
  --nodes 4 --iters 6 --window 2 --kill-rank 2 --kill-iter 2 \
  --cross-check >"$EL_OUT"
grep -q "elastic: 4 worker(s), 2 epoch(s)" "$EL_OUT"
grep -q "evicted rank 2" "$EL_OUT"
grep -q "cross-check OK" "$EL_OUT"
# With --rejoin-after, the victim is restarted (`node --join`) and
# re-admitted at the next epoch boundary: final membership is back to
# 4 workers and the flows match a run that never crashed at all.
cargo run --release -q --bin hipress -- run --elastic --backend processes \
  --nodes 4 --iters 6 --window 2 --kill-rank 2 --kill-iter 2 \
  --rejoin-after 4 --cross-check >"$EL_OUT"
grep -q "final membership 4 node(s)" "$EL_OUT"
grep -q "cross-check OK" "$EL_OUT"
rm -f "$EL_OUT"

echo "== distributed trace smoke (per-rank traces stitch into one aligned timeline) =="
# A traced 4-process run must merge every rank's shipped trace into a
# single clock-aligned Chrome trace: the CLI validates cross-rank
# send->recv causality and trace->report parity itself (exiting
# non-zero otherwise), and trace-diff must re-import the merged file.
PROC_OUT=$(mktemp)
cargo run --release -q --bin hipress -- run --nodes 4 --algorithm onebit \
  --backend processes --iters 2 --window 2 \
  --trace /tmp/hipress-ci-proc.json >"$PROC_OUT"
grep -q "clock alignment OK" "$PROC_OUT"
rm -f "$PROC_OUT"
test -s /tmp/hipress-ci-proc.json
cargo run --release -q --bin hipress -- trace-diff \
  /tmp/hipress-ci-proc.json /tmp/hipress-ci-proc.json >/dev/null
rm -f /tmp/hipress-ci-proc.json

echo "== postmortem smoke (flight recorder survives a worker crash) =="
# Kill a worker mid-protocol with the flight dump armed: the run must
# fail, the surviving ranks' recorder rings must land in the dump, and
# `hipress postmortem` must render a cross-rank timeline whose root
# cause names the dead rank.
PM_DUMP=$(mktemp)
if cargo run --release -q --bin hipress -- run --nodes 3 --algorithm onebit \
    --backend processes --kill-node 1 \
    --flight-dump "$PM_DUMP" >/dev/null 2>&1; then
  echo "killed-worker run with --flight-dump unexpectedly succeeded" >&2
  rm -f "$PM_DUMP"
  exit 1
fi
if ! cargo run --release -q --bin hipress -- postmortem "$PM_DUMP" \
    | grep -q "root cause: node 1"; then
  echo "postmortem did not name node 1 as root cause" >&2
  rm -f "$PM_DUMP"
  exit 1
fi
rm -f "$PM_DUMP"

echo "== pipelining gate (pipelined must beat serial over the real fabric) =="
# Four processes, uncompressed ring, latency-bound shape: a window-16
# pipelined run must finish faster than the same work serialized
# (median of five interleaved pairs; the CLI exits non-zero if the
# pipeline loses).
cargo run --release -q --bin hipress -- bench --require-overlap

echo "== bench snapshot + perf gate =="
# Emit a machine-readable benchmark snapshot, re-read it with the
# crate's own parser (report --json), and run the --baseline gate as a
# self-compare at 0% tolerance — deterministic regardless of host
# speed. The second gate run injects a synthetic 50% slowdown and must
# trip, proving the gate can actually fail.
BENCH_DIR=$(mktemp -d)
cargo run --release -q --bin hipress -- bench --nodes 3 --dir "$BENCH_DIR" >/dev/null
cargo run --release -q --bin hipress -- report "$BENCH_DIR/BENCH_runtime.json" --json >/dev/null
cargo run --release -q --bin hipress -- bench --snapshot "$BENCH_DIR/BENCH_runtime.json" \
  --baseline "$BENCH_DIR/BENCH_runtime.json" --tolerance 0
if HIPRESS_BENCH_SLOWDOWN_PCT=50 cargo run --release -q --bin hipress -- bench \
    --snapshot "$BENCH_DIR/BENCH_runtime.json" \
    --baseline "$BENCH_DIR/BENCH_runtime.json" >/dev/null 2>&1; then
  echo "perf gate failed to trip on an injected 50% slowdown" >&2
  exit 1
fi
rm -rf "$BENCH_DIR"

echo "== telemetry smoke (live scrape/stream server + SLO watchdog) =="
# A fault-free process run with the embedded telemetry server attached
# must serve /healthz, Prometheus /metrics, and at least one /events
# NDJSON progress record while it lingers — and raise no watchdog
# alerts. A second run with an injected per-iteration slowdown
# (HIPRESS_TELEMETRY_SLOWDOWN_MS, the watchdog's analogue of
# HIPRESS_BENCH_SLOWDOWN_PCT) must deterministically raise
# alerts_total{kind="iteration_latency_regression"}. Scrapes use the
# binary's own std-TCP client (`hipress scrape`), no curl needed.
HIPRESS_BIN=target/release/hipress
TELE_OUT=$(mktemp)
"$HIPRESS_BIN" run --nodes 3 --algorithm onebit --backend processes \
  --iters 8 --window 2 --listen 127.0.0.1:0 --linger-ms 5000 >"$TELE_OUT" &
TELE_PID=$!
TELE_ADDR=""
for _ in $(seq 1 100); do
  TELE_ADDR=$(grep "telemetry: listening on" "$TELE_OUT" 2>/dev/null \
    | awk '{print $4}') || true
  [ -n "$TELE_ADDR" ] && break
  sleep 0.1
done
if [ -z "$TELE_ADDR" ]; then
  echo "telemetry server never announced its address" >&2
  exit 1
fi
# Wait for retirement so /metrics holds the folded worker metrics and
# the record count is final (3 ranks x 8 iterations = 24).
for _ in $(seq 1 100); do
  grep -q "replicas consistent: true" "$TELE_OUT" 2>/dev/null && break
  sleep 0.1
done
"$HIPRESS_BIN" scrape "$TELE_ADDR" /healthz | grep -q '"records":24'
"$HIPRESS_BIN" scrape "$TELE_ADDR" /events --lines 1 | grep -q '"iter":'
"$HIPRESS_BIN" scrape "$TELE_ADDR" /report.json | grep -q '"pipeline_window":2'
TELE_METRICS=$(mktemp)
"$HIPRESS_BIN" scrape "$TELE_ADDR" /metrics >"$TELE_METRICS"
grep -q "^bytes_wire" "$TELE_METRICS"
if grep -q "alerts_total" "$TELE_METRICS"; then
  echo "fault-free run raised watchdog alerts:" >&2
  grep "alerts_total" "$TELE_METRICS" >&2
  exit 1
fi
wait "$TELE_PID"
rm -f "$TELE_OUT" "$TELE_METRICS"
TELE_OUT=$(mktemp)
HIPRESS_TELEMETRY_SLOWDOWN_MS=200 "$HIPRESS_BIN" run --nodes 3 \
  --algorithm onebit --backend processes --iters 8 --window 2 \
  --listen 127.0.0.1:0 --linger-ms 5000 >"$TELE_OUT" &
TELE_PID=$!
for _ in $(seq 1 200); do
  grep -q "replicas consistent: true" "$TELE_OUT" 2>/dev/null && break
  sleep 0.1
done
TELE_ADDR=$(grep "telemetry: listening on" "$TELE_OUT" | awk '{print $4}')
TELE_ALERTS=$("$HIPRESS_BIN" scrape "$TELE_ADDR" /metrics \
  | grep 'alerts_total{kind="iteration_latency_regression"}' \
  | awk '{print $NF}') || true
if [ "${TELE_ALERTS:-0}" -le 0 ]; then
  echo "injected slowdown did not raise the latency-regression alert" >&2
  exit 1
fi
wait "$TELE_PID"
rm -f "$TELE_OUT"

echo "== fmt =="
cargo fmt --check

echo "ci.sh: all green"
