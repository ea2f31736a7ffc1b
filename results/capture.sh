#!/usr/bin/env bash
# Regenerates every captured harness output in this directory.
set -euo pipefail
cd "$(dirname "$0")/.."
BINS="fig7 fig8 fig9 fig10 fig11 table_speedup table_baselines topo_check \
      ablation_layout ablation_probing ablation_multisplit \
      ablation_distribution ablation_hash ablation_adaptive ablation_sharding"
for b in $BINS; do
  echo "capturing $b"
  # fig11 cuts n into 256 batches: 2^19 makes a batch 512 words per GPU,
  # past the 256 one group splits alone, so the split is count + scatter
  # as at paper scale
  n=65536
  if [ "$b" = fig11 ]; then n=524288; fi
  cargo run --release -p wd-bench --bin "$b" -- --n "$n" > "results/$b.txt"
done
echo "capturing BENCH_perf.json"
cargo run --release -p wd-bench --bin wd-bench -- --out BENCH_perf.json
cargo run --release -p wd-bench --bin wd-bench -- --validate BENCH_perf.json
