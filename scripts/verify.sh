#!/usr/bin/env sh
# Pre-PR verification gate: the whole workspace must build, test, and
# (when rustfmt is installed) be formatted — all fully offline. This is
# the same sequence CI runs; if it passes here it passes there.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

# Lint gate: the workspace must be clippy-clean at -D warnings, tests,
# benches and examples included (skipped only where the component isn't
# installed).
if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets --offline -- -D warnings
else
    echo "==> cargo clippy not installed; skipping lint gate"
fi

# Rustdoc gate: every library's docs build warning-free, so a doc link to
# an item narrowed to pub(crate) (or deleted) fails here. --lib keeps the
# `fleet` library and `exp`'s `fleet` binary from colliding on one output
# file.
echo "==> cargo doc --no-deps --workspace --lib (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --lib --offline

# Allocation-discipline gate: a counting global allocator asserts the
# steady-state event loop allocates nothing after warmup, that a full
# rebuild+rerun out of a recycled SimArena performs zero heap
# allocations, and that a cold scaled_for_sweeps build allocates per
# plane, not per page (under 1,000 allocations and 2 MiB requested,
# where an eager page table made ~16.7k and 34.6 MB). Runs in the
# workspace pass above too; kept explicit so a failure names the
# memory-discipline contract.
echo "==> zero-warm-allocation check (alloc_discipline)"
cargo test -q --offline -p flash-sim --test alloc_discipline

# Warm-reset equivalence gate: a simulator built out of a recycled
# SimArena must report and capture byte-identically to a fresh build.
# The FTL's reset only clears the blocks the previous run took off each
# plane's free list and regrows page state as the next run takes them
# again, so this suite dirties arenas with runs of very
# different footprints (full-device GC, a few pages, a run that dies on a
# full plane) before each warm run. Runs in the workspace pass above too;
# kept explicit so a failure names the reset contract.
echo "==> warm-reset equivalence suite (arena_reuse)"
cargo test -q --offline -p flash-sim --test arena_reuse

# Arrival-cursor merge gate: serving sorted trace arrivals from a cursor
# merged against the event queue (pop_before + advance_to) must produce
# the exact (time, kind) sequence of a reference that heaps every arrival
# up front — same-tick ties included, where arrivals win and keep trace
# order. Runs as part of the workspace tests above too; kept explicit so
# a failure names the merge rule.
echo "==> arrival-cursor merge rule (event_oracle)"
cargo test -q --offline -p flash-sim --test event_oracle

# Memory-safety gate: every library crate root forbids unsafe code.
# The only unsafe left in the workspace is the counting GlobalAlloc in
# flash-sim's alloc_discipline test crate, which the forbid does not
# reach.
echo "==> #![forbid(unsafe_code)] in every crates/*/src/lib.rs"
for lib in crates/*/src/lib.rs; do
    if ! grep -qx '#!\[forbid(unsafe_code)\]' "$lib"; then
        echo "verify: FAIL - $lib lacks #![forbid(unsafe_code)]" >&2
        exit 1
    fi
done

if cargo fmt --version >/dev/null 2>&1; then
    echo "==> cargo fmt --check"
    cargo fmt --all --check
else
    echo "==> cargo fmt not installed; skipping format check"
fi

# Golden-summary gate: the deterministic miniature capture must
# summarize to byte-identical JSON. Catches unintended changes to the
# simulator's timing, the probe stream, the SSDP codec, or the ssdtrace
# renderers — any intentional change regenerates the golden (see the
# instructions printed on failure).
echo "==> ssdtrace golden-summary check"
golden_dir="$(pwd)/target/ssdtrace_golden"
mkdir -p "$golden_dir"
./target/release/ssdtrace sample "$golden_dir/sample.ssdp"
./target/release/ssdtrace summarize --json "$golden_dir/sample.ssdp" \
    > "$golden_dir/summary.json"
if ! cmp -s "$golden_dir/summary.json" tests/golden/ssdtrace_summary.json; then
    echo "verify: FAIL - ssdtrace summary diverged from tests/golden/ssdtrace_summary.json" >&2
    diff -u tests/golden/ssdtrace_summary.json "$golden_dir/summary.json" >&2 || true
    echo "If this change is intentional, regenerate the golden with:" >&2
    echo "  target/release/ssdtrace sample \$t.ssdp && target/release/ssdtrace summarize --json \$t.ssdp > tests/golden/ssdtrace_summary.json" >&2
    exit 1
fi

# Fleet determinism gate: the merged fleet digest must be a pure
# function of the scenario, never of the worker count. Runs the small
# smoke scenario at 1 worker and at 4 and compares each printed digest
# line byte-for-byte against tests/golden/fleet_smoke_digest.txt (the
# value the fleet crate's digest_is_identical_across_1_4_8_workers test
# pins in-process; this checks it end-to-end through the release
# binary). The digest is FleetSummary::digest, over the run's values.
echo "==> fleet determinism check (1 and 4 workers against the golden digest)"
fleet_want=$(cat tests/golden/fleet_smoke_digest.txt)
for w in 1 4; do
    fleet_got=$(./target/release/fleet --smoke --seed 42 --workers "$w" | grep '^fleet digest:' || true)
    if [ "$fleet_got" != "$fleet_want" ]; then
        echo "verify: FAIL - fleet --smoke --seed 42 --workers $w diverged from tests/golden/fleet_smoke_digest.txt" >&2
        echo "  expected $fleet_want" >&2
        echo "  got      $fleet_got" >&2
        echo "If this change is intentional, regenerate with:" >&2
        echo "  target/release/fleet --smoke --seed 42 | grep '^fleet digest:' > tests/golden/fleet_smoke_digest.txt" >&2
        exit 1
    fi
done
echo "    $fleet_want (matches golden at 1 and 4 workers)"

# Dataset pin: the label sweep simulates each channel-isolated tenant
# group once and merges group statistics into every strategy's row
# (DESIGN.md §6d, "Isolation groups"). The quick dataset must stay
# byte-identical to the one the per-strategy full-trace sweep wrote, at
# one worker and at two (the group runs fan out over the pool).
echo "==> dataset pin (dataset --quick --seed 3, 1 and 2 workers)"
ds_dir="$(pwd)/target/dataset_verify"
mkdir -p "$ds_dir"
ds_want=$(cat tests/golden/dataset_quick.sha256)
for w in 1 2; do
    ./target/release/dataset --quick --seed 3 --workers "$w" \
        --out "$ds_dir/dataset_w$w.txt" > /dev/null 2> "$ds_dir/dataset_w$w.log"
    ds_got=$(sha256sum "$ds_dir/dataset_w$w.txt" | cut -d' ' -f1)
    if [ "$ds_got" != "$ds_want" ]; then
        echo "verify: FAIL - dataset --quick --seed 3 --workers $w diverged from tests/golden/dataset_quick.sha256" >&2
        echo "  expected $ds_want" >&2
        echo "  got      $ds_got" >&2
        exit 1
    fi
done
echo "    sha256 matches golden at 1 and 2 workers ($ds_want)"
sed 's/^/    /' "$ds_dir/dataset_w1.log" | grep 'label sweep:'

# Training pin: fig4 trains the four Table III configurations on the
# committed dataset for 20 epochs and saves the best one. The model file
# writes every weight with `{:e}`, which round-trips an f32 exactly, so
# its sha256 pins the saved configuration's weights end to end (the
# ANN's product kernels, its optimizer, the shuffles and the 7:3 split)
# and the choice of which configuration is best. The other three
# configurations' weights are pinned only by ssdkeeper's
# `trained_weights_are_pinned` (3 epochs).
echo "==> training pin (fig4 --dataset artifacts/dataset.txt --epochs 20)"
fig4_dir="$(pwd)/target/fig4_verify"
mkdir -p "$fig4_dir"
./target/release/fig4 --dataset artifacts/dataset.txt --epochs 20 \
    --model-out "$fig4_dir/model_e20.txt" > "$fig4_dir/fig4.txt" 2>&1
fig4_got=$(sha256sum "$fig4_dir/model_e20.txt" | cut -d' ' -f1)
fig4_want=$(cat tests/golden/fig4_model_e20.sha256)
if [ "$fig4_got" != "$fig4_want" ]; then
    echo "verify: FAIL - fig4 --epochs 20 model diverged from tests/golden/fig4_model_e20.sha256" >&2
    echo "  expected $fig4_want" >&2
    echo "  got      $fig4_got" >&2
    echo "If this change is intentional, regenerate with:" >&2
    echo "  target/release/fig4 --dataset artifacts/dataset.txt --epochs 20 --model-out \$t.txt" >&2
    echo "  sha256sum \$t.txt | cut -d' ' -f1 > tests/golden/fig4_model_e20.sha256" >&2
    exit 1
fi
echo "    model sha256 matches golden ($fig4_got)"

# Keeper capture gate: fig5 --quick re-runs the Mix1 adapt-once session
# with an EventRecorder attached (command lifecycle, bus, GC, realloc and
# decision events) and prints Tables IV/V, Figure 5 and the percentile
# tables, whose SSDKeeper+hybrid rows cover hybrid page allocation. Both
# the SSDP capture and stdout are pinned by sha256, so any change to
# modeled timing, keeper policy or the codec shows here. The capture is
# then summarized and diffed against itself, which must exit 0: the
# summarizer and diff run on a real capture, not only the miniature one.
echo "==> keeper capture check (fig5 --quick --trace-out)"
fig5_dir="$(pwd)/target/fig5_verify"
mkdir -p "$fig5_dir"
./target/release/fig5 --quick --model artifacts/model.txt \
    --trace-out "$fig5_dir/fig5.ssdp" > "$fig5_dir/fig5.txt"
for pin in capture:fig5.ssdp stdout:fig5.txt; do
    what=${pin%%:*}
    got=$(sha256sum "$fig5_dir/${pin#*:}" | cut -d' ' -f1)
    want=$(cat "tests/golden/fig5_quick_$what.sha256")
    if [ "$got" != "$want" ]; then
        echo "verify: FAIL - fig5 --quick $what diverged from tests/golden/fig5_quick_$what.sha256" >&2
        echo "  expected $want" >&2
        echo "  got      $got" >&2
        echo "If this change is intentional, regenerate with:" >&2
        echo "  target/release/fig5 --quick --model artifacts/model.txt --trace-out \$t.ssdp > \$t.txt" >&2
        echo "  sha256sum \$t.ssdp | cut -d' ' -f1 > tests/golden/fig5_quick_capture.sha256" >&2
        echo "  sha256sum \$t.txt | cut -d' ' -f1 > tests/golden/fig5_quick_stdout.sha256" >&2
        exit 1
    fi
    echo "    $what sha256 matches golden ($got)"
done
./target/release/ssdtrace summarize --json "$fig5_dir/fig5.ssdp" > "$fig5_dir/fig5.json"
if ! ./target/release/ssdtrace diff "$fig5_dir/fig5.json" "$fig5_dir/fig5.json" \
    > "$fig5_dir/diff.txt" 2>&1; then
    echo "verify: FAIL - ssdtrace diff of the fig5 capture against itself did not exit 0" >&2
    cat "$fig5_dir/diff.txt" >&2
    exit 1
fi
echo "    ssdtrace summarize + self-diff of the capture exit 0"

# Telemetry gate: rebuild the fleet binary with host tracing compiled
# in (separate target dir so the default target/ fingerprints — and the
# uninstrumented binaries every gate above measures — stay untouched),
# stream a smoke run's counters and spans, and hold the obs layer to
# its contract: every NDJSON line parses (ssdtrace live is strict), the
# final snapshot's fleet.events_observed equals the merged event count
# in the run's own JSON (exact — the counter is summed from the same
# per-shard metrics; --replacements 0 so no shard is re-simulated), and
# the folded spans parse and attribute real time. The span-name golden
# test then pins *which* code paths are instrumented.
echo "==> host-trace telemetry gate (fleet --smoke --telemetry)"
cargo build --release --offline -p exp --features host-trace \
    --target-dir target/host-trace
tel_dir="$(pwd)/target/telemetry_verify"
mkdir -p "$tel_dir"
SSDKEEPER_TELEMETRY_MS=50 ./target/host-trace/release/fleet \
    --smoke --seed 42 --replacements 0 --workers 2 --json \
    --telemetry "$tel_dir/tel.ndjson" --spans "$tel_dir/spans.folded" \
    > "$tel_dir/fleet.json" 2> "$tel_dir/fleet.log"
./target/release/ssdtrace live "$tel_dir/tel.ndjson" > "$tel_dir/live.txt"
sed 's/^/    /' "$tel_dir/live.txt" | head -2
tel_events=$(./target/release/ssdtrace live "$tel_dir/tel.ndjson" \
    --counter fleet.events_observed)
json_events=$(grep -o '"events": *[0-9]*' "$tel_dir/fleet.json" \
    | head -1 | grep -o '[0-9]*$')
if [ -z "$tel_events" ] || [ "$tel_events" != "$json_events" ]; then
    echo "verify: FAIL - telemetry fleet.events_observed ($tel_events) !=" \
        "merged events ($json_events)" >&2
    exit 1
fi
echo "    final fleet.events_observed matches merged events ($tel_events)"
./target/release/ssdtrace flame "$tel_dir/spans.folded" --top 5 \
    | sed 's/^/    /'
echo "==> flame span-name golden + label counters (cargo test -p exp --features host-trace)"
cargo test -q --offline -p exp --features host-trace --test flame_golden \
    --test label_counters --target-dir target/host-trace

# BENCH=1 additionally smokes the probe-overhead path: the sim_throughput
# bench with a recorder attached (SSDKEEPER_BENCH_PROBE=1), a few fast
# iterations, JSON routed to target/ so the tracked BENCH_sim.json keeps
# its committed numbers.
if [ "${BENCH:-0}" != "0" ]; then
    echo "==> probe-overhead bench smoke (SSDKEEPER_BENCH_PROBE=1)"
    SSDKEEPER_BENCH_ITERS="${SSDKEEPER_BENCH_ITERS:-3}" \
        SSDKEEPER_BENCH_PROBE=1 \
        SSDKEEPER_BENCH_JSON="$(pwd)/target/bench_probe_smoke.json" \
        sh scripts/bench.sh
fi

# Opt-in perf smoke pass: SSDKEEPER_BENCH_SMOKE=1 runs the tracked
# sim_throughput bench with a few fast iterations. It exercises the
# whole bench path (and refreshes BENCH_sim.json) without making the
# default verify run depend on machine speed.
if [ "${SSDKEEPER_BENCH_SMOKE:-0}" != "0" ]; then
    echo "==> scripts/bench.sh (smoke: ${SSDKEEPER_BENCH_ITERS:-3} iters)"
    SSDKEEPER_BENCH_ITERS="${SSDKEEPER_BENCH_ITERS:-3}" sh scripts/bench.sh
fi

echo "verify: OK"
