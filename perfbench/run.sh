#!/usr/bin/env bash
# Builds the benchmark package (and the star-serve daemon it drives) from
# source, then runs it with the given arguments, e.g.
#   bash perfbench/run.sh --workload sim_light --seed 1 --seconds 15 --trace 0
# Run from the repository root.  Build output goes to stderr; the last
# stdout line is the result JSON.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-perfbench/target}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$target/release/perfbench" "$@"
