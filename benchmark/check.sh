#!/usr/bin/env bash
# Runs every workload twice, in both modes, on one seed, and exits non-zero
# unless the two sets agree: every modeled metric and every count bit for
# bit, every other end-to-end metric within its bound in BENCHMARK.json.
#
#   benchmark/check.sh            seed 42, run_seconds from BENCHMARK.json
#   SEED=7 RUN_SECONDS=6 benchmark/check.sh
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$root/target/benchmark}
seed=${SEED:-42}
seconds=${RUN_SECONDS:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
mapfile -t command < <(python3 -c 'import json; print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')
mapfile -t workloads < <(python3 -c 'import json; print("\n".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
out=benchmark/out/check
mkdir -p "$out"

for set in 1 2; do
    for workload in "${workloads[@]}"; do
        for trace in 0 1; do
            echo "set $set: $workload --trace $trace" >&2
            "${command[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
                | tail -n 1 >"$out/$workload.t$trace.$set.json"
        done
    done
done

python3 - "$out" <<'PY'
import json, sys

out = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
end_to_end = {m["name"]: m for m in spec["end_to_end"]}
failures = []

def host_timed(name):
    """Wall-clock and CPU numbers: advisory, never compared."""
    return name.startswith("host.") or ".host_" in name or name == "workloads.gen_s"

for w in (w["name"] for w in spec["workloads"]):
    for trace in (0, 1):
        first, second = (json.load(open(f"{out}/{w}.t{trace}.{s}.json")) for s in (1, 2))
        for run in (first, second):
            if run["correct"] is not True or run["failed"] != 0:
                failures.append(f"{w} --trace {trace}: correct={run['correct']} failed={run['failed']}")
        for name, a in first["metrics"].items():
            a, b = a["value"], second["metrics"][name]["value"]
            if name.startswith("modeled_") or (trace == 1 and not host_timed(name)):
                if a != b:
                    failures.append(f"{w} {name}: {a!r} then {b!r}, must be identical")
            elif trace == 0:
                m = end_to_end[name]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                if worse > m["bound"]:
                    failures.append(f"{w} {name}: {a!r} then {b!r}, {100 * worse:.2f} % worse, bound {100 * m['bound']:g} %")

for line in failures:
    print("DISAGREE", line)
print(f"check: {len(failures)} disagreement(s) between the two sets")
sys.exit(1 if failures else 0)
PY
