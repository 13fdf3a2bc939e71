#!/usr/bin/env bash
# Captures the repo's performance baseline in one command:
#
#   1. builds bench_micro_kernel + bench_e10_ward_scale (+ mcps);
#   2. runs both with --json and validates each report against the
#      benchio schema via `mcps trace check-bench`;
#   3. merges the reports with the frozen pre-change reference
#      (bench/baselines/micro_kernel_prechange.json) into one
#      BENCH_<n>.json, computing speedup_vs_reference per metric.
#
#   tools/bench_baseline.sh [--quick] [--out FILE] [--pr N]
#
# --pr selects the campaign (default 6, the kernel-speed campaign):
#   --pr 6   bench_micro_kernel + bench_e10_ward_scale vs the frozen
#            pre-calendar-queue kernel -> BENCH_6.json
#   --pr 9   bench_physio_batch (SoA physio stepping + hospital engine)
#            vs the frozen scalar-stepping reference -> BENCH_9.json
#
# --quick shrinks the workloads (smoke mode: validates the flow, the
# numbers are meaningless — the merged file is written to the build tree
# instead of the repo root unless --out says otherwise). Without
# --quick, run on a QUIET machine: the kernel benchmarks are single-core
# and contention suppresses throughput by 30%+.
#
# The checked-in BENCH_6.json / BENCH_9.json at the repo root were
# produced by this script; see the README "Benchmark trajectory"
# section for the convention.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
quick=0
out=""
pr=6
while [[ $# -gt 0 ]]; do
    case "$1" in
        --quick) quick=1; shift ;;
        --out) out="$2"; shift 2 ;;
        --pr) pr="$2"; shift 2 ;;
        *) echo "usage: tools/bench_baseline.sh [--quick] [--out FILE] [--pr N]" >&2
           exit 2 ;;
    esac
done
if [[ "${pr}" != "6" && "${pr}" != "9" ]]; then
    echo "bench_baseline.sh: unknown campaign --pr ${pr} (know 6, 9)" >&2
    exit 2
fi

build="${repo_root}/build"
scratch="${build}/bench_baseline"
if [[ -z "${out}" ]]; then
    if [[ "${quick}" == "1" ]]; then out="${scratch}/BENCH_quick.json"
    else out="${repo_root}/BENCH_${pr}.json"; fi
fi

quick_flag=()
[[ "${quick}" == "1" ]] && quick_flag=(--quick)

if [[ "${pr}" == "9" ]]; then
    reference="${repo_root}/bench/baselines/physio_scalar_pr9_prechange.json"
    echo "==== build bench_physio_batch ===="
    cmake -S "${repo_root}" -B "${build}" >/dev/null
    cmake --build "${build}" -j "${jobs}" \
        --target bench_physio_batch mcps >/dev/null
    mkdir -p "${scratch}"

    echo "==== run bench_physio_batch ===="
    "${build}/bench/bench_physio_batch" "${quick_flag[@]}" \
        --json "${scratch}/physio_batch.json"

    echo "==== validate report ===="
    "${build}/tools/mcps" trace check-bench "${scratch}/physio_batch.json"

    echo "==== merge -> ${out} ===="
    python3 - "${reference}" "${scratch}/physio_batch.json" "${out}" \
        "${quick}" <<'PYEOF'
import json, sys

ref_path, live_path, out_path, quick = sys.argv[1:5]
ref = json.load(open(ref_path))
live = json.load(open(live_path))

def by_name(report):
    return {m["name"]: m["value"] for m in report["metrics"]}

ref_m, live_m = by_name(ref), by_name(live)
# The frozen reference is the scalar (pre-change) stepping rate; the
# campaign's headline is the SoA batch measured against it.
speedup = {}
if ref_m.get("physio.steps_per_sec", 0) > 0:
    pre = ref_m["physio.steps_per_sec"]
    if "physio.batch.steps_per_sec" in live_m:
        speedup["physio.steps_per_sec"] = round(
            live_m["physio.batch.steps_per_sec"] / pre, 3)
    if "physio.scalar.steps_per_sec" in live_m:
        speedup["physio.scalar.sanity_vs_reference"] = round(
            live_m["physio.scalar.steps_per_sec"] / pre, 3)

merged = {
    "bench_set": "physio_batch_campaign",
    "pr": 9,
    "generated_by": "tools/bench_baseline.sh --pr 9"
                    + (" --quick" if quick == "1" else ""),
    "reference": {"path": "bench/baselines/physio_scalar_pr9_prechange.json",
                  **ref},
    "runs": {"physio_batch": live},
    "speedup_vs_reference": speedup,
}
with open(out_path, "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")

for name, ratio in sorted(speedup.items()):
    print(f"  {name:45s} {ratio:6.2f}x")
if quick != "1":
    sane = speedup.get("physio.scalar.sanity_vs_reference", 1.0)
    if not 0.7 <= sane <= 1.3:
        print("WARNING: the scalar path drifted "
              f"{sane}x from the frozen reference — noisy machine or an "
              "accidental scalar-path change; the batch speedup above is "
              "not comparable.", file=sys.stderr)
PYEOF

    echo "baseline written: ${out}"
    exit 0
fi

reference="${repo_root}/bench/baselines/micro_kernel_prechange.json"

echo "==== build benches ===="
cmake -S "${repo_root}" -B "${build}" >/dev/null
cmake --build "${build}" -j "${jobs}" \
    --target bench_micro_kernel bench_e10_ward_scale mcps >/dev/null
mkdir -p "${scratch}"

quick_flag=()
[[ "${quick}" == "1" ]] && quick_flag=(--quick)

echo "==== run bench_micro_kernel ===="
"${build}/bench/bench_micro_kernel" "${quick_flag[@]}" \
    --json "${scratch}/micro_kernel.json"

echo "==== run bench_e10_ward_scale ===="
"${build}/bench/bench_e10_ward_scale" "${quick_flag[@]}" \
    --json "${scratch}/e10_ward_scale.json"

echo "==== validate reports ===="
"${build}/tools/mcps" trace check-bench "${scratch}/micro_kernel.json"
"${build}/tools/mcps" trace check-bench "${scratch}/e10_ward_scale.json"

echo "==== merge -> ${out} ===="
python3 - "${reference}" "${scratch}/micro_kernel.json" \
    "${scratch}/e10_ward_scale.json" "${out}" "${quick}" <<'PYEOF'
import json, sys

ref_path, micro_path, e10_path, out_path, quick = sys.argv[1:6]
ref = json.load(open(ref_path))
micro = json.load(open(micro_path))
e10 = json.load(open(e10_path))

def by_name(report):
    return {m["name"]: m["value"] for m in report["metrics"]}

ref_m, micro_m = by_name(ref), by_name(micro)
speedup = {
    name: round(micro_m[name] / ref_m[name], 3)
    for name in ref_m
    if name in micro_m and ref_m[name] > 0
}

merged = {
    "bench_set": "kernel_speed_campaign",
    "pr": 6,
    "generated_by": "tools/bench_baseline.sh" + (" --quick" if quick == "1" else ""),
    "reference": {"path": "bench/baselines/micro_kernel_prechange.json", **ref},
    "runs": {"micro_kernel": micro, "e10_ward_scale": e10},
    "speedup_vs_reference": speedup,
}
with open(out_path, "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")

for name, ratio in sorted(speedup.items()):
    print(f"  {name:45s} {ratio:6.2f}x")
key = "schedule_dispatch_events_per_sec_core"
if quick != "1" and speedup.get(key, 0.0) < 3.0:
    print(f"WARNING: {key} speedup {speedup.get(key)}x is below the 3x "
          "campaign target — machine contention? Re-run on a quiet host.",
          file=sys.stderr)
PYEOF

echo "baseline written: ${out}"
