#!/usr/bin/env sh
# Tracked perf gate: runs the sim_throughput bench (events/sec on the
# sim_micro workload), the fleet_scale bench (the fleet_1k scenario:
# 1000 tenants / 64 device shards, events/sec plus core-scaling
# efficiency), and the decision_throughput bench (decisions/sec for
# rowwise vs batched allocator calls, plus label-farm labels/sec),
# recording all of them in BENCH_sim.json at the repo
# root. The JSON keeps the first-ever run as the baseline, so every
# later run reports its speedup against the committed starting point.
#
# The JSON also records a "phases" section: per-command time in each
# simulated phase (unit wait, array op, bus wait, transfer, GC exec) as
# mean + log2-bucketed p50/p99, plus the queue-depth distribution, from
# the median run's PhaseReport.
#
# After the run, `ssdtrace diff` compares the fresh numbers against the
# previous contents of the JSON (i.e. the committed state): events/sec
# dropping or a latency mean/percentile growing past the threshold prints
# a warning by default, or fails the script under SSDKEEPER_BENCH_STRICT=1
# — which is how CI holds the perf line.
#
# Env knobs (all optional):
#   SSDKEEPER_BENCH_ITERS      measured iterations  (default 10)
#   SSDKEEPER_BENCH_WARMUP     warmup iterations    (default 2)
#   SSDKEEPER_BENCH_JSON       output path          (default BENCH_sim.json)
#   SSDKEEPER_BENCH_PROBE      =1 also measures the run with an EventRecorder
#                              attached and prints the probe overhead vs the
#                              NullProbe path (the <=2% discipline check)
#   SSDKEEPER_BENCH_STRICT     =1 turns a regression warning into a failure
#   SSDKEEPER_BENCH_THRESHOLD  relative regression threshold (default 0.10)
set -eu

cd "$(dirname "$0")/.."

# Absolute path: cargo runs bench binaries with the package directory as
# cwd, so a relative path would land inside crates/bench/.
json_path="${SSDKEEPER_BENCH_JSON:-$(pwd)/BENCH_sim.json}"

# Snapshot the pre-run report so the post-run diff compares against what
# was committed, not against the file the bench just rewrote.
prev=""
if [ -f "$json_path" ]; then
    mkdir -p target
    prev="$(pwd)/target/bench_prev.json"
    cp "$json_path" "$prev"
fi

SSDKEEPER_BENCH_JSON="$json_path" \
    cargo bench --offline -q -p bench --bench sim_throughput

# The fleet bench splices its fleet_1k entry into the report the
# sim_throughput bench just rewrote; the pre-run snapshot carries the
# committed fleet_1k baseline across that rewrite.
SSDKEEPER_BENCH_JSON="$json_path" SSDKEEPER_BENCH_PREV="$prev" \
    cargo bench --offline -q -p bench --bench fleet_scale

# Decision layer: splices decision_throughput (rowwise vs batched
# decisions/sec) and label_farm (labels/sec at 1 vs N workers) entries. Under SSDKEEPER_BENCH_STRICT=1 the bench itself enforces the
# batching bar (batched >= 3x rowwise, batch >= 64) in-process, and
# the ssdtrace diff below holds the recorded *_per_sec rows to the
# regression threshold like every other rate.
SSDKEEPER_BENCH_JSON="$json_path" SSDKEEPER_BENCH_PREV="$prev" \
    SSDKEEPER_BENCH_STRICT="${SSDKEEPER_BENCH_STRICT:-0}" \
    cargo bench --offline -q -p bench --bench decision_throughput

if [ -n "$prev" ]; then
    echo "==> ssdtrace diff vs previous $json_path"
    cargo build --offline -q --release -p trace-tools
    if ./target/release/ssdtrace diff "$prev" "$json_path" \
        --threshold "${SSDKEEPER_BENCH_THRESHOLD:-0.10}"; then
        :
    else
        if [ "${SSDKEEPER_BENCH_STRICT:-0}" != "0" ]; then
            echo "bench: FAIL - perf regression past threshold (SSDKEEPER_BENCH_STRICT=1)" >&2
            exit 1
        fi
        echo "bench: WARNING - regression vs previous report (warn-only;" \
            "set SSDKEEPER_BENCH_STRICT=1 to fail)" >&2
    fi

    # Tracing-off throughput line: under strict mode, events/sec must
    # also stay within 2% of the committed report — a tighter bar than
    # the general threshold above, specifically so obs instrumentation
    # left accidentally hot (or a broken const-fold of the disabled
    # path) cannot hide inside the default 10% slack. Only
    # *_events_per_sec regressions trip this; latency rows keep the
    # general threshold.
    if [ "${SSDKEEPER_BENCH_STRICT:-0}" != "0" ]; then
        echo "==> strict tracing-off throughput check (2% on events_per_sec)"
        tight="$(pwd)/target/bench_tight_diff.txt"
        ./target/release/ssdtrace diff "$prev" "$json_path" \
            --threshold 0.02 > "$tight" 2>&1 || true
        if grep 'events_per_sec' "$tight" | grep -q 'REGRESSION'; then
            echo "bench: FAIL - events_per_sec regressed past 2% with tracing off" >&2
            grep 'events_per_sec' "$tight" | grep 'REGRESSION' >&2
            exit 1
        fi
        echo "    events_per_sec within 2% of committed baseline"
    fi
fi
