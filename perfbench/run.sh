#!/usr/bin/env bash
# Builds the benchmark from source and runs one measurement:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. `--trace 0` runs the untraced
# end-to-end binary; `--trace 1` runs the traced binary, the only one
# linked with the counting allocator. The last stdout line is the JSON
# result; build output goes to stderr.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml --bins >&2
bin=perfbench
args=("$@")
for ((i = 0; i + 1 < ${#args[@]}; i++)); do
    if [[ "${args[i]}" == "--trace" && "${args[i + 1]}" == "1" ]]; then
        bin=perfbench_traced
    fi
done
exec "$CARGO_TARGET_DIR/release/$bin" "$@"
