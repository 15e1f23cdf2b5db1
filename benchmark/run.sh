#!/usr/bin/env bash
# The repo's benchmark, one command. Builds the benchmark package and runs it.
#
#   benchmark/run.sh                  every workload, untraced then traced:
#                                     prints every metric, writes
#                                     benchmark/out/results.json and
#                                     benchmark/out/trace-<workload>.json
#   benchmark/run.sh --repeat-check   the untraced benchmark twice; fails when
#                                     the two differ by more than a bound of
#                                     BENCHMARK.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                     one run; the last line of stdout is the
#                                     result object (what BENCHMARK.json's
#                                     command is given)
#
# --seed N (default 1; 2 is the held-out seed) and --seconds S apply to all.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# The paper's claim exists in the AVX2 build only, so that is the build the
# benchmark measures wherever the CPU has it; elsewhere the portable build.
# The instruction set is stamped into every result. AVX-512 stays with the
# CPUID-gated CI lane.
flags="$(grep -m1 '^flags' /proc/cpuinfo 2>/dev/null || true)"
if [[ " $flags " == *" avx2 "* && " $flags " == *" fma "* ]]; then
    export RUSTFLAGS="-C target-feature=+avx2,+fma"
else
    export RUSTFLAGS=""
fi

# A relative CARGO_TARGET_DIR (the driver sets .bench_build) is relative to
# the directory this was called from, as cargo reads it.
target="${CARGO_TARGET_DIR:-$here/target}"
[[ "$target" = /* ]] || target="$PWD/$target"
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: stdout carries results only.
cargo build --release --offline --manifest-path "$here/Cargo.toml" 1>&2

export BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export BENCH_GIT_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"

mode=(--all)
for arg in "$@"; do
    case "$arg" in
        --workload | --repeat-check) mode=() ;;
    esac
done

exec "$target/release/stencil-benchmark" \
    --out "$here/out" --benchmark-json "$root/BENCHMARK.json" ${mode[@]+"${mode[@]}"} "$@"
