#!/usr/bin/env bash
# Builds the daemon and the benchmark from source, then runs one
# benchmark run. Run from the repository root:
#
#   bash perfbench/run.sh --workload city_read --seed 1 --seconds 20 --trace 0
#
# Build outputs go to $CARGO_TARGET_DIR (default .bench_build); the
# generated datasets and span dumps go to its perfbench-work directory.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/cli || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the repository root (Cargo.toml, crates/ and perfbench/ needed)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
case "$CARGO_TARGET_DIR" in
    /*) target="$CARGO_TARGET_DIR" ;;
    *) target="$PWD/$CARGO_TARGET_DIR" ;;
esac

# Build output goes to stderr: stdout's last line is the result.
cargo build --release --offline --quiet -p simsearch-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

exec "$target/release/perfbench" "$@" --daemon "$target/release/simsearch" --work "$target/perfbench-work"
