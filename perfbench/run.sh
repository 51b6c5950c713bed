#!/usr/bin/env bash
# Builds the program (`mira-mine`, from the repository's own workspace)
# and the benchmark harness into one target directory, then runs the
# harness with this script's arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload archive --seed 1 --seconds 5 --trace 0
set -u
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p bgq-cli --bin mira-mine >&2 || exit 1
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2 || exit 1
"$CARGO_TARGET_DIR/release/perfbench" "$@"
