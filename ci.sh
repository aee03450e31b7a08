#!/bin/sh
# Offline CI gate: the workspace has zero external dependencies, so
# everything here runs with --offline and must pass on a machine with no
# registry access.
set -eux

cd "$(dirname "$0")"

cargo build --release --offline --workspace
cargo test -q --offline --workspace
# Bench binaries run in single-iteration smoke mode under `cargo test`
# (no --bench flag), keeping every bench code path compile- and
# run-checked without measuring.
cargo test -q --offline --benches -p simsearch-bench
cargo test -q --offline --bench ablation_lcp_reuse -p simsearch-bench
cargo clippy --offline --workspace --all-targets -- -D warnings
# Rustdoc gate: a dangling or ambiguous intra-doc link (say, to an item
# a refactor deleted) fails the build instead of rendering as dead text.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps
# The served benchmark (perfbench/, a workspace of its own) builds
# against core's and serve's public API; its tests are the step that
# notices when a refactor of those crates breaks it.
cargo test -q --offline --manifest-path perfbench/Cargo.toml

# Planner-parity gate: `--backend auto` (static and calibrated) must be
# byte-identical to the V1 oracle scan under every executor × thread
# count, the plan-decision counters must account for every query, and
# top-k deepening — routed by its own cost curve — must match the
# exhaustive V1 deepening for every count.
cargo test -q --offline --test planner_parity

# Replan-oracle gate: live recalibration across a mid-run distribution
# shift must keep every answer byte-identical to the V1 oracle while
# plan_epoch advances once per converged phase; a restarted daemon must
# boot from persisted calibration (epoch > 0) unless the dataset
# snapshot mismatches, in which case it falls back to the static table.
# The calibration arithmetic's laws (positivity, boundedness, scale
# invariance, pooled fallback) gate separately as properties.
cargo test -q --offline --test replan_oracle
cargo test -q --offline -p simsearch-testkit --test calibration_props

# Shard-equivalence gate: a sharded backend (every shard count ×
# partitioner × executor, static and calibrated, threshold and top-k)
# must be byte-identical to the unsharded V1 oracle, and per-shard
# decision counters must account for every fanned-out query.
cargo test -q --offline --test shard_oracle

# Live-ingest gates: any interleaving of INSERT/DELETE/QUERY/TOPK/
# COMPACT must answer exactly like a fresh V1 scan over the surviving
# records (shrinking to a minimal interleaving on failure), under every
# executor × thread count — for the unsharded engine AND every sharded
# live composite (1/2/4 hash-routed shards); and every compaction step —
# flush, tiered merge, tombstone elision — must be an atomic re-layout
# that queries racing it (including per-shard compactors running
# concurrently) can never observe half-done. The mutation router's laws
# (purity, dense disjoint ids, delete-finds-inserter) gate separately.
cargo test -q --offline --test live_oracle
cargo test -q --offline --test live_compaction
cargo test -q --offline -p simsearch-testkit --test router_props

# V8 bit-parallel gate: the Myers-block sweep (as an engine, as a
# planner arm under static and calibrated routing, and pinned per
# shard) must be byte-identical to the V1 oracle under every executor
# × thread count on both alphabets.
cargo test -q --offline --test v8_oracle

# Partition-join gate: PASS-JOIN and MinJoin must return the nested-loop
# join's pair list pair-for-pair — on shrunk random corpora over both
# alphabets, on fixed city/DNA presets under every executor × thread
# count, and on the degenerate inputs (empty, singleton, all-identical,
# k beyond the longest record).
cargo test -q --offline --test join_oracle

# Canonical benchmark snapshots (published by `cargo bench` via
# testkit's publish_snapshot) must stay committed at the repo root.
for snapshot in BENCH_fig6_city_best.json BENCH_fig7_dna_best.json \
    BENCH_ablation_lcp_reuse_city.json BENCH_ablation_lcp_reuse_dna.json \
    BENCH_ablation_bitparallel_city.json BENCH_ablation_bitparallel_dna.json \
    BENCH_ablation_join_city.json; do
    test -f "$snapshot"
done

# Serving-layer smoke test, fully offline: boot simsearchd on an
# ephemeral loopback port, probe HEALTH, run one query, check that
# STATS parses as JSON (the client's --check-stats-json uses the
# in-house validator — no python/jq needed), then SHUTDOWN and
# require the drain to finish within a timeout.
SIMSEARCH=./target/release/simsearch
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
"$SIMSEARCH" generate --kind city --count 2000 --seed 7 --out "$smoke_dir/city.data"
"$SIMSEARCH" serve --data "$smoke_dir/city.data" --port 0 \
    --port-file "$smoke_dir/port" &
serve_pid=$!
i=0
while [ ! -s "$smoke_dir/port" ] && [ "$i" -lt 100 ]; do
    i=$((i + 1)); sleep 0.1
done
test -s "$smoke_dir/port"
port=$(cat "$smoke_dir/port")
"$SIMSEARCH" client --port "$port" --send 'HEALTH' | grep -qx 'OK healthy'
"$SIMSEARCH" client --port "$port" --send 'QUERY 2 Berlin' | grep -q '^OK '
"$SIMSEARCH" client --port "$port" --check-stats-json --send 'STATS' \
    | grep -q 'simsearch-bench-v2'
# JOIN streams on a frozen daemon: the header advertises the pair
# count, at least one pair chunk follows (seed-7 city data has near
# duplicates at k=1), and STATS carries the join counters.
join_out=$("$SIMSEARCH" client --port "$port" --send 'JOIN 1')
echo "$join_out" | grep -q '^OK join [1-9]'
echo "$join_out" | grep -q '^OK pairs '
"$SIMSEARCH" client --port "$port" --check-stats-json --send 'STATS' \
    | grep -q '"join_pairs_emitted": [1-9]'
"$SIMSEARCH" client --port "$port" --send 'SHUTDOWN' | grep -qx 'OK bye'
i=0
while kill -0 "$serve_pid" 2>/dev/null && [ "$i" -lt 100 ]; do
    i=$((i + 1)); sleep 0.1
done
if kill -0 "$serve_pid" 2>/dev/null; then
    kill "$serve_pid"
    echo "simsearchd failed to drain within 10s" >&2
    exit 1
fi
wait "$serve_pid"

# Auto-backend serve smoke: a planner-driven daemon must route queries,
# report per-backend plan_decisions counters through STATS (still valid
# JSON per the in-house validator), accept a background replan tick
# once the observation grid converges, and persist the calibrated table
# at shutdown.
rm -f "$smoke_dir/port"
"$SIMSEARCH" serve --data "$smoke_dir/city.data" --backend auto --port 0 \
    --replan-interval-ms 50 --calibration "$smoke_dir/calib.idx" \
    --port-file "$smoke_dir/port" &
serve_pid=$!
i=0
while [ ! -s "$smoke_dir/port" ] && [ "$i" -lt 100 ]; do
    i=$((i + 1)); sleep 0.1
done
test -s "$smoke_dir/port"
port=$(cat "$smoke_dir/port")
"$SIMSEARCH" client --port "$port" --send 'QUERY 2 Berlin' | grep -q '^OK '
# Second query: the counters are published after each executed chunk,
# so by the time this reply arrives the first chunk's counts are live.
"$SIMSEARCH" client --port "$port" --send 'QUERY 1 Ulm' | grep -q '^OK '
"$SIMSEARCH" client --port "$port" --check-stats-json --send 'STATS' \
    | grep -q '"plan_decisions": {.*": [1-9]'
# Fill one observation cell past the replan trust threshold, give the
# 50ms tick a beat, and STATS must show an accepted swap.
i=0
while [ "$i" -lt 16 ]; do
    i=$((i + 1))
    "$SIMSEARCH" client --port "$port" --send 'QUERY 2 Berlin' >/dev/null
done
sleep 0.3
stats=$("$SIMSEARCH" client --port "$port" --check-stats-json --send 'STATS')
echo "$stats" | grep -q '"replans": [1-9]'
echo "$stats" | grep -q '"plan_epoch": [1-9]'
"$SIMSEARCH" client --port "$port" --send 'SHUTDOWN' | grep -qx 'OK bye'
i=0
while kill -0 "$serve_pid" 2>/dev/null && [ "$i" -lt 100 ]; do
    i=$((i + 1)); sleep 0.1
done
if kill -0 "$serve_pid" 2>/dev/null; then
    kill "$serve_pid"
    echo "simsearchd (auto) failed to drain within 10s" >&2
    exit 1
fi
wait "$serve_pid"
test -s "$smoke_dir/calib.idx"

# Restarted auto daemon: same dataset + the calibration file just
# persisted — the measured table is restored before the first request,
# so STATS shows plan_epoch > 0 from frame one.
rm -f "$smoke_dir/port"
"$SIMSEARCH" serve --data "$smoke_dir/city.data" --backend auto --port 0 \
    --calibration "$smoke_dir/calib.idx" --port-file "$smoke_dir/port" &
serve_pid=$!
i=0
while [ ! -s "$smoke_dir/port" ] && [ "$i" -lt 100 ]; do
    i=$((i + 1)); sleep 0.1
done
test -s "$smoke_dir/port"
port=$(cat "$smoke_dir/port")
"$SIMSEARCH" client --port "$port" --send 'QUERY 2 Berlin' | grep -q '^OK '
stats=$("$SIMSEARCH" client --port "$port" --check-stats-json --send 'STATS')
echo "$stats" | grep -q '"replans": [1-9]'
echo "$stats" | grep -q '"plan_epoch": [1-9]'
"$SIMSEARCH" client --port "$port" --send 'SHUTDOWN' | grep -qx 'OK bye'
i=0
while kill -0 "$serve_pid" 2>/dev/null && [ "$i" -lt 100 ]; do
    i=$((i + 1)); sleep 0.1
done
if kill -0 "$serve_pid" 2>/dev/null; then
    kill "$serve_pid"
    echo "simsearchd (auto restart) failed to drain within 10s" >&2
    exit 1
fi
wait "$serve_pid"

# Bit-parallel routing smoke: on DNA-length queries at high k the auto
# planner must route to the V8 arm, and STATS must show a nonzero
# scan-bitparallel plan_decisions counter (still valid JSON).
"$SIMSEARCH" generate --kind dna --count 500 --seed 7 --out "$smoke_dir/dna.data"
rm -f "$smoke_dir/port"
"$SIMSEARCH" serve --data "$smoke_dir/dna.data" --backend auto --port 0 \
    --port-file "$smoke_dir/port" &
serve_pid=$!
i=0
while [ ! -s "$smoke_dir/port" ] && [ "$i" -lt 100 ]; do
    i=$((i + 1)); sleep 0.1
done
test -s "$smoke_dir/port"
port=$(cat "$smoke_dir/port")
dna_q=$(head -n 1 "$smoke_dir/dna.data")
"$SIMSEARCH" client --port "$port" --send "QUERY 16 $dna_q" | grep -q '^OK '
"$SIMSEARCH" client --port "$port" --send "QUERY 16 $dna_q" | grep -q '^OK '
"$SIMSEARCH" client --port "$port" --check-stats-json --send 'STATS' \
    | grep -q '"scan-bitparallel": [1-9]'
"$SIMSEARCH" client --port "$port" --send 'SHUTDOWN' | grep -qx 'OK bye'
i=0
while kill -0 "$serve_pid" 2>/dev/null && [ "$i" -lt 100 ]; do
    i=$((i + 1)); sleep 0.1
done
if kill -0 "$serve_pid" 2>/dev/null; then
    kill "$serve_pid"
    echo "simsearchd (dna auto) failed to drain within 10s" >&2
    exit 1
fi
wait "$serve_pid"

# Sharded serve smoke: a --shards 4 daemon calibrates one planner per
# shard and STATS must carry per-shard plan_decisions ("s<i>.<arm>"
# keys) and per-shard match counters, still as valid JSON.
rm -f "$smoke_dir/port"
"$SIMSEARCH" serve --data "$smoke_dir/city.data" --shards 4 --shard-by len \
    --port 0 --port-file "$smoke_dir/port" &
serve_pid=$!
i=0
while [ ! -s "$smoke_dir/port" ] && [ "$i" -lt 100 ]; do
    i=$((i + 1)); sleep 0.1
done
test -s "$smoke_dir/port"
port=$(cat "$smoke_dir/port")
"$SIMSEARCH" client --port "$port" --send 'QUERY 2 Berlin' | grep -q '^OK '
"$SIMSEARCH" client --port "$port" --send 'QUERY 1 Ulm' | grep -q '^OK '
stats=$("$SIMSEARCH" client --port "$port" --check-stats-json --send 'STATS')
echo "$stats" | grep -q '"s0\.'
echo "$stats" | grep -q '"s3\.'
echo "$stats" | grep -q '"shard_matches": {"s0": '
"$SIMSEARCH" client --port "$port" --send 'SHUTDOWN' | grep -qx 'OK bye'
i=0
while kill -0 "$serve_pid" 2>/dev/null && [ "$i" -lt 100 ]; do
    i=$((i + 1)); sleep 0.1
done
if kill -0 "$serve_pid" 2>/dev/null; then
    kill "$serve_pid"
    echo "simsearchd (sharded) failed to drain within 10s" >&2
    exit 1
fi
wait "$serve_pid"

# Live-ingest serve smoke: a --live daemon accepts INSERT/DELETE over
# the wire, the mutations are immediately visible to QUERY, and STATS
# carries the LSM gauges (memtable_len / segments / compactions), still
# as valid JSON.
rm -f "$smoke_dir/port"
"$SIMSEARCH" serve --data "$smoke_dir/city.data" --live --memtable-cap 64 \
    --port 0 --port-file "$smoke_dir/port" &
serve_pid=$!
i=0
while [ ! -s "$smoke_dir/port" ] && [ "$i" -lt 100 ]; do
    i=$((i + 1)); sleep 0.1
done
test -s "$smoke_dir/port"
port=$(cat "$smoke_dir/port")
# The record uses bytes (#, digits) outside the city generator's
# alphabet, so the exact-match query can only ever hit the insert.
"$SIMSEARCH" client --port "$port" --send 'INSERT zz#live-smoke-9' | grep -qx 'OK id=2000'
"$SIMSEARCH" client --port "$port" --send 'QUERY 0 zz#live-smoke-9' | grep -qx 'OK 1 2000:0'
"$SIMSEARCH" client --port "$port" --send 'DELETE 2000' | grep -qx 'OK deleted'
"$SIMSEARCH" client --port "$port" --send 'DELETE 2000' | grep -qx 'OK absent'
"$SIMSEARCH" client --port "$port" --send 'QUERY 0 zz#live-smoke-9' | grep -qx 'OK 0'
stats=$("$SIMSEARCH" client --port "$port" --check-stats-json --send 'STATS')
echo "$stats" | grep -q '"memtable_len"'
echo "$stats" | grep -q '"segments"'
echo "$stats" | grep -q '"compactions"'
"$SIMSEARCH" client --port "$port" --send 'SHUTDOWN' | grep -qx 'OK bye'
i=0
while kill -0 "$serve_pid" 2>/dev/null && [ "$i" -lt 100 ]; do
    i=$((i + 1)); sleep 0.1
done
if kill -0 "$serve_pid" 2>/dev/null; then
    kill "$serve_pid"
    echo "simsearchd (live) failed to drain within 10s" >&2
    exit 1
fi
wait "$serve_pid"

# Sharded-live serve smoke: --live composes with --shards — 4 hash-
# routed LiveEngine shards behind one daemon. INSERT routes to one
# shard and is immediately visible to cross-shard QUERY, DELETE finds
# the inserting shard, and STATS carries per-shard LSM gauges
# ("s<i>.memtable_len" keys) alongside the aggregates, still as valid
# JSON per the in-house validator.
rm -f "$smoke_dir/port"
"$SIMSEARCH" serve --data "$smoke_dir/city.data" --live --shards 4 \
    --memtable-cap 64 --port 0 --port-file "$smoke_dir/port" &
serve_pid=$!
i=0
while [ ! -s "$smoke_dir/port" ] && [ "$i" -lt 100 ]; do
    i=$((i + 1)); sleep 0.1
done
test -s "$smoke_dir/port"
port=$(cat "$smoke_dir/port")
"$SIMSEARCH" client --port "$port" --send 'INSERT zz#live-smoke-9' | grep -qx 'OK id=2000'
"$SIMSEARCH" client --port "$port" --send 'QUERY 0 zz#live-smoke-9' | grep -qx 'OK 1 2000:0'
"$SIMSEARCH" client --port "$port" --send 'DELETE 2000' | grep -qx 'OK deleted'
"$SIMSEARCH" client --port "$port" --send 'DELETE 2000' | grep -qx 'OK absent'
"$SIMSEARCH" client --port "$port" --send 'QUERY 0 zz#live-smoke-9' | grep -qx 'OK 0'
# Churn burst: hammer inserts and queries so the per-shard replan ticks
# run against moving memtables, then require STATS to carry the
# self-tuning counters (present and zero-initialised even when no
# shard's preferred arm flips — the keys are unconditional).
i=0
while [ "$i" -lt 12 ]; do
    i=$((i + 1))
    "$SIMSEARCH" client --port "$port" --send "INSERT zz#churn-$i" >/dev/null
    "$SIMSEARCH" client --port "$port" --send 'QUERY 1 Berlin' >/dev/null
done
sleep 0.2
stats=$("$SIMSEARCH" client --port "$port" --check-stats-json --send 'STATS')
echo "$stats" | grep -q '"s0\.memtable_len"'
echo "$stats" | grep -q '"s3\.memtable_len"'
echo "$stats" | grep -q '"memtable_len"'
echo "$stats" | grep -q '"replans": '
echo "$stats" | grep -q '"plan_epoch": '
"$SIMSEARCH" client --port "$port" --send 'SHUTDOWN' | grep -qx 'OK bye'
i=0
while kill -0 "$serve_pid" 2>/dev/null && [ "$i" -lt 100 ]; do
    i=$((i + 1)); sleep 0.1
done
if kill -0 "$serve_pid" 2>/dev/null; then
    kill "$serve_pid"
    echo "simsearchd (sharded live) failed to drain within 10s" >&2
    exit 1
fi
wait "$serve_pid"

# A len partitioner cannot route live inserts: the daemon must refuse
# to boot, with a message naming the fix, before binding a port.
if "$SIMSEARCH" serve --data "$smoke_dir/city.data" --live --shards 2 \
    --shard-by len --port 0 2>"$smoke_dir/reject.err"; then
    echo "simsearchd accepted --live --shards --shard-by len" >&2
    exit 1
fi
grep -q 'shard-by hash' "$smoke_dir/reject.err"
