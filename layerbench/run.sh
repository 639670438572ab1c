#!/usr/bin/env bash
# Builds the `joinopt` server binary and the benchmark driver in release
# mode, then runs one workload:
#
#   bash layerbench/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Build output goes to
# $CARGO_TARGET_DIR (default `.bench_build`); spans of traced runs land
# in `$CARGO_TARGET_DIR/layerbench-out`.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p joinopt-cli >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/layerbench" \
    --joinopt "$target/release/joinopt" \
    --out "$target/layerbench-out" \
    "$@"
