#!/usr/bin/env bash
# Reruns every paper bench (bench/bench_*.cc) and writes each one's stdout
# to bench/outputs/<name>.txt. The benches drive the seeded simulation, so
# their stdout is a pure function of the code: a change that claims to
# move no simulated work leaves every file byte-identical, which
#
#   cmake -B build -S . && cmake --build build -j
#   tools/bench_outputs.sh && git diff --exit-code -- bench/outputs
#
# checks. Usage: tools/bench_outputs.sh [build_dir] [out_dir] (defaults:
# build, bench/outputs). JOBS (default 4) benches run at a time; the whole
# set takes about four minutes at four. Exits non-zero if a bench fails.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
# Absolute paths: each bench runs from a scratch directory (below).
build="$(cd "${1:-$root/build}" && pwd)"
mkdir -p "${2:-$root/bench/outputs}"
out="$(cd "${2:-$root/bench/outputs}" && pwd)"
jobs="${JOBS:-4}"

shopt -s nullglob
benches=("$root"/bench/bench_*.cc)
names=()
for src in "${benches[@]}"; do
  name="$(basename "$src" .cc)"
  [[ "$name" == bench_util ]] && continue
  if [[ ! -x "$build/bench/$name" ]]; then
    echo "missing $build/bench/$name (build the tree first)" >&2
    exit 2
  fi
  names+=("$name")
done

# Each bench runs in a scratch directory so files it may write beside
# itself never land in the tree.
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

run_one() {
  local name="$1"
  mkdir -p "$scratch/$name"
  if ! (cd "$scratch/$name" && "$build/bench/$name" > "$out/$name.txt"); then
    echo "FAILED: $name" >&2
    return 1
  fi
  echo "ok: $name" >&2
}
export -f run_one
export build out scratch

printf '%s\n' "${names[@]}" | xargs -P "$jobs" -I{} bash -c 'run_one "$@"' _ {}
