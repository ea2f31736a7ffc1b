#!/usr/bin/env bash
# Regenerates every captured scenario output: results/*.txt and
# BENCH_perf.json. Every number in them is modeled, so at one rayon worker
# the files repeat byte for byte and CI gates on `git diff --exit-code`.
set -euo pipefail
cd "$(dirname "$0")/.."
export RAYON_NUM_THREADS=1
bench() { cargo run --quiet --release -p wd-bench -- "$@"; }
for s in $(bench list); do
  # fig11 cuts n into 256 batches: 2^19 makes a batch 512 words per GPU,
  # past the 256 one group splits alone, so the split is count + scatter
  # as at paper scale
  n=65536
  if [ "$s" = fig11 ]; then n=524288; fi
  out="results/$s.txt"
  if [ "$s" = perf ]; then out=BENCH_perf.json; fi
  echo "capturing $out" >&2
  bench "$s" --n "$n" > "$out"
done
