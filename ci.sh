#!/usr/bin/env bash
# Full offline CI gate: formatting, lints, tests.
#
# The workspace has no external dependencies, so everything runs with
# --offline; a network-less container must pass this script unchanged.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc (warnings are errors)"
# Broken, private or redundant intra-doc links fail the build, so a
# rename or removal cannot leave a dangling reference in the docs.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo test"
cargo test --workspace --offline -q

echo "==> layerbench builds and tests against the workspace"
# The benchmark is a package of its own (outside the workspace) that
# calls the service and telemetry APIs by path; compiling it here makes
# an API refactor that breaks it fail CI instead of the benchmark run.
cargo test --release --offline --manifest-path layerbench/Cargo.toml

echo "==> corpus regression replay"
# Also part of the workspace test run above; the explicit gate makes a
# corpus regression fail loudly under its own heading.
cargo test --offline -q --test corpus

echo "==> conformance fuzz smoke (fixed seed; full exact matrix incl. DPconv)"
# The differential oracle runs every exact algorithm — DPsize, DPsub
# (+ variants), DPccp, DPconv, top-down — on each instance, so this
# smoke is also the DPconv-vs-matrix conformance gate.
cargo run --offline -q --release -p joinopt-cli --bin joinopt -- \
    fuzz --seed 42 --iters 200 --max-n 10 --minimize

echo "==> cold/warm plan-cache fuzz (warm hits must be bit-identical)"
cargo run --offline -q --release -p joinopt-cli --bin joinopt -- \
    fuzz --seed 42 --iters 200 --max-n 10 --minimize --cache

echo "==> sustained-load smoke (service + plan cache, gated hit rate)"
# Single worker, so requests execute in arrival order and every repeat
# is a guaranteed cache hit; the gate also fails on any errored request.
cargo run --offline -q --release -p joinopt-cli --bin joinopt -- \
    load --requests 60 --threads 1 --seed 7 --repeat-rate 0.5 --max-n 7 \
         --min-hit-rate 0.25

echo "==> resilience matrix with fault injection (--cfg failpoints)"
# Separate target dir: the flag changes the crate's cfg set, and sharing
# target/ would force a full rebuild on every alternation.
RUSTFLAGS="--cfg failpoints" CARGO_TARGET_DIR=target/failpoints \
    cargo test -p joinopt-core --test resilience --offline -q

echo "==> service resilience matrix: breaker trips and drain completes (--cfg failpoints)"
RUSTFLAGS="--cfg failpoints" CARGO_TARGET_DIR=target/failpoints \
    cargo test -p joinopt-service --test resilience_matrix --offline -q

echo "==> serve smoke: protocol, typed rejections, clean drain (--cfg failpoints)"
# The scripted self-check drives a live server end-to-end: health/ready,
# cold+warm optimize, typed parse/invalid/timeout rejections, an
# injected worker panic the server survives, a cache-poison collision
# that can only miss, then a graceful drain with a non-empty Prometheus
# flush.
RUSTFLAGS="--cfg failpoints" CARGO_TARGET_DIR=target/failpoints \
    cargo run --offline -q -p joinopt-cli --bin joinopt -- \
    serve --smoke --prom /tmp/joinopt-serve-smoke.prom
grep -q joinopt_serve_accepted_total /tmp/joinopt-serve-smoke.prom \
    || { echo "serve smoke flush missing serve counters"; exit 1; }
grep -q joinopt_serve_stage_ /tmp/joinopt-serve-smoke.prom \
    || { echo "serve smoke flush missing windowed stage metrics"; exit 1; }
rm -f /tmp/joinopt-serve-smoke.prom

echo "==> span-timeline golden: traced requests under a manual clock (--cfg failpoints)"
# Replays three requests (cold, warm, retry-after-injected-panic) through
# the traced dispatch path on a manual clock and diffs the resulting
# span-timeline JSON byte-for-byte against the committed golden. The
# retry leg arms failpoints, so this gate only exists in the failpoints
# build. Re-generate with the same command after an intended change.
RUSTFLAGS="--cfg failpoints" CARGO_TARGET_DIR=target/failpoints \
    cargo run --offline -q -p joinopt-cli --bin joinopt -- \
    serve --span-timeline /tmp/joinopt-serve-span.json
diff -u tests/goldens/serve-span-timeline.json /tmp/joinopt-serve-span.json \
    || { echo "span-timeline drifted from the committed golden"; exit 1; }
rm -f /tmp/joinopt-serve-span.json

echo "==> chaos gate: seeded fault burst, zero wrong plans (--cfg failpoints)"
# Warmup / panic burst / recovery against the hardened gateway; gates on
# bounded errors, breaker open+reclose, recovery, and a differential
# re-check of sampled answers against a fresh cache-less service.
RUSTFLAGS="--cfg failpoints" CARGO_TARGET_DIR=target/failpoints \
    cargo run --offline -q -p joinopt-cli --bin joinopt -- \
    load --chaos --requests 200 --seed 7

echo "==> chaos gate test: the bench crate's end-to-end chaos run (--cfg failpoints)"
# The library-level twin of the gate above (its own test process, since
# it arms the process-global failpoint registry): runs the chaos
# scenario on a smaller stream and checks its report and JSON form.
RUSTFLAGS="--cfg failpoints" CARGO_TARGET_DIR=target/failpoints \
    cargo test -p joinopt-bench --test chaos --offline -q

echo "==> injected tie-break inversion is caught and minimized (--cfg failpoints)"
# The test also requires the inverted tie-break to produce a rendered
# explained diff naming the first divergent DP decision. --lib runs the
# crate's unit tests, which must stay clean in a failpoints build; the
# integration test is the only one that arms the (process-global)
# failpoint registry, so the two never race.
RUSTFLAGS="--cfg failpoints" CARGO_TARGET_DIR=target/failpoints \
    cargo test -p joinopt-conformance --lib --test tiebreak --offline -q

echo "==> injected DPconv rank skip is caught and minimized (--cfg failpoints)"
# Arms dpconv-rank-skip (DPconv drops its balanced top-level splits) and
# requires the differential oracle to flag the wrong optimal cost and
# shrink the repro to <= 5 relations.
RUSTFLAGS="--cfg failpoints" CARGO_TARGET_DIR=target/failpoints \
    cargo test -p joinopt-conformance --test rank_skip --offline -q

echo "==> determinism matrix (parallel engine, release)"
cargo test -p joinopt-core --test determinism --release --offline -q

echo "==> star route: IKKBZ vs bushy DPccp on C_out stars (release)"
# 280 stars (n = 3..16 x 20 seeds) plus a key/foreign-key star of 15;
# the n = 15/16 DPccp references are quick in release.
cargo test -p joinopt-core --test star_route --release --offline -q

echo "==> performance baseline check (counters-only, hardware-independent)"
# Replays the matrix pinned in BENCH_joinopt.json and fails on any
# counter, table-size or cost-bit drift. Wall time and arena bytes are
# deliberately not gated here (--counters-only), so the gate passes on
# any hardware; re-pin with `joinopt perf` after an intended change.
cargo run --offline -q --release -p joinopt-cli --bin joinopt -- \
    perf --check BENCH_joinopt.json --counters-only

echo "==> explain golden files (text + JSON, byte-deterministic)"
# `joinopt explain` output is fully deterministic (no clocks, sorted
# sets, hand-built JSON), so it is diffed byte-for-byte against the
# committed goldens in tests/goldens/. Re-generate with the commands
# below after an intended rendering change. The JSON form is
# additionally rendered twice and compared, pinning run-to-run
# determinism independently of the committed files.
JOINOPT="cargo run --offline -q --release -p joinopt-cli --bin joinopt --"
for q in star-5 tie-rich-chain-8; do
    $JOINOPT explain "tests/corpus/$q.query" \
        | diff -u "tests/goldens/explain-$q.txt" - \
        || { echo "explain text drifted for $q"; exit 1; }
    $JOINOPT explain "tests/corpus/$q.query" --format json > /tmp/explain-$q.1.json
    $JOINOPT explain "tests/corpus/$q.query" --format json > /tmp/explain-$q.2.json
    cmp /tmp/explain-$q.1.json /tmp/explain-$q.2.json \
        || { echo "explain JSON nondeterministic for $q"; exit 1; }
    diff -u "tests/goldens/explain-$q.json" /tmp/explain-$q.1.json \
        || { echo "explain JSON drifted for $q"; exit 1; }
    rm -f /tmp/explain-$q.1.json /tmp/explain-$q.2.json
done
$JOINOPT explain tests/corpus/tie-rich-chain-8.query --compare dpsize,goo \
    | diff -u tests/goldens/explain-compare-tie-rich-chain-8.txt - \
    || { echo "explain --compare output drifted"; exit 1; }

echo "==> examples (release)"
cargo build --offline --release --examples
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    echo "--> example: $name"
    cargo run --offline -q --release --example "$name" > /dev/null
done

echo "CI OK"
