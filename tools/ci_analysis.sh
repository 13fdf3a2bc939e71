#!/usr/bin/env bash
# The full analysis gate, in one command:
#
#   1. warning-clean build:  MCPS_WERROR=ON (-Wconversion -Wshadow -Werror)
#   2. model linter:         mcps analyze over shipped models + src/ scan
#                            + scenario registry-bypass scan (ICE1)
#                            + CONC1 lock-discipline scan over src/tools
#                            + TA5 deadline slack table with the
#                            static-vs-observed cross-check, then a SARIF
#                            export validated by the built-in checker
#   3. the whole ctest suite, every label and the unlabeled
#                            mcps_tests binary, among them: per-rule
#                            seeded-defect fixtures (incl. CONC1/TA5/
#                            SARIF + the CFG1 missing-root exit code),
#                            the scenario registry/spec suite, the
#                            calendar-queue/arena differential suite,
#                            the service suite (protocol fuzz,
#                            admission, e2e, `mcps load` smoke, `mcps
#                            serve` SIGTERM drain), the shared-metrics stress
#                            suite, the hospital-population suite
#                            (SoA physio differential, jobs invariance,
#                            alarm storm, hospital fuzz smoke) and the
#                            pipeline suite (artifact cache, graph
#                            scheduling, cold/warm/parallel determinism,
#                            knob-edit invalidation), the golden
#                            traces, ward determinism, the fuzz smokes,
#                            the CLI surface (`ctest -L cli`: every
#                            command x mode x flag from the option
#                            tables, help, usage-error exit codes and
#                            output paths) and the examples (`ctest -L
#                            examples`: every examples/ binary must
#                            exit 0)
#   4. clang-tidy:           tools/run_tidy.sh (SKIPPED if not installed)
#   5. end-to-end smokes:    the hospital preset, an odd-lane hospital
#                            run at jobs=1 and 4, the pipeline
#                            determinism gate, plus 2 s perfbench runs
#                            of every workload (bedside, forensic,
#                            hospital, serve; perfbench is the one
#                            performance record) that must each report
#                            "correct": true, so every workload's
#                            output checks run at Release flags; the
#                            forensic run checks events-on against
#                            events-off fingerprints and the JSONL
#                            round-trip, the hospital run its jobs=1
#                            and jobs=2 fingerprints against each other
#                            (every run checks the preset pins), the
#                            serve run its warm-up responses and cache
#                            misses against direct runs of their specs
#   6. ASan+UBSan:           full test suite under address+undefined
#   7. TSan:                 `mcps` and the test binaries under thread
#                            sanitizer: the ward-engine and fuzz
#                            jobs-invariance tests, the kernel suite
#                            (parallel_map, shard_range),
#                            and the serve, obs, hospital and pipeline
#                            suites (the obs stress test is the dynamic
#                            complement of CONC1; the hospital suite
#                            drives the parallel-over-wards stepping)
#
#   tools/ci_analysis.sh [--fast] [--coverage]
#
# --fast runs stages 1-5 only (the sanitizer stages rebuild the tree
# twice and dominate wall time). --coverage appends a gcovr/llvm-cov
# line-coverage report (MCPS_COVERAGE=ON tree; SKIPPED if the report
# tool is not installed). Build trees are kept under build-ci-* so
# repeat runs are incremental.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
fast=0
coverage=0
for arg in "$@"; do
    case "${arg}" in
        --fast) fast=1 ;;
        --coverage) coverage=1 ;;
        *) echo "usage: tools/ci_analysis.sh [--fast] [--coverage]" >&2
           exit 2 ;;
    esac
done

stage() { echo; echo "==== $* ===="; }

stage "1/7 warning-clean build (MCPS_WERROR=ON)"
cmake -S "${repo_root}" -B "${repo_root}/build-ci-werror" \
    -DCMAKE_BUILD_TYPE=Release -DMCPS_WERROR=ON >/dev/null
cmake --build "${repo_root}/build-ci-werror" -j "${jobs}" >/dev/null
echo "warning-clean: OK"

stage "2/7 model linter (mcps analyze)"
"${repo_root}/build-ci-werror/tools/mcps" analyze \
    --src-root "${repo_root}/src" \
    --scan-scenarios "${repo_root}/src" \
    --scan-scenarios "${repo_root}/bench" \
    --scan-scenarios "${repo_root}/tools" \
    --scan-scenarios "${repo_root}/examples" \
    --scan-conc "${repo_root}/src" \
    --scan-conc "${repo_root}/tools" \
    --cross-check --deadline-table \
    --sarif "${repo_root}/build-ci-werror/analysis.sarif" \
    --matrix
"${repo_root}/build-ci-werror/tools/mcps" analyze \
    --check-sarif "${repo_root}/build-ci-werror/analysis.sarif"

stage "3/7 full ctest suite"
ctest --test-dir "${repo_root}/build-ci-werror" -j "${jobs}" \
    --output-on-failure

stage "4/7 clang-tidy"
"${repo_root}/tools/run_tidy.sh" "${repo_root}/build-ci-werror"

stage "5/7 end-to-end smokes (hospital, pipeline, perfbench)"
# Hospital-population smoke: the preset must run end-to-end on the
# `mcps run` surface (96 patients / 4 wards, 2 simulated minutes).
"${repo_root}/build-ci-werror/tools/mcps" run run \
    --spec "hospital-small minutes=2" >/dev/null
echo "hospital preset smoke: OK"
# Odd-lane smoke: 97 patients in 4 wards give ward ranges of 25 and 24
# lanes starting at lanes 0, 25, 49 and 73, so the batch kernel's
# one-lane tail runs on the `mcps run` surface. The run at jobs=4 must
# print the fingerprint of the run at jobs=1.
hospital_fp() {
    "${repo_root}/build-ci-werror/tools/mcps" run run \
        --spec "hospital-small minutes=2 patients=97 jobs=$1" |
        grep -o 'fingerprint 0x[0-9a-f]*' || true
}
fp_jobs1="$(hospital_fp 1)"
fp_jobs4="$(hospital_fp 4)"
if [ -z "${fp_jobs1}" ] || [ "${fp_jobs1}" != "${fp_jobs4}" ]; then
    echo "hospital odd-lane smoke FAILED: jobs=1 '${fp_jobs1}'," \
        "jobs=4 '${fp_jobs4}'" >&2
    exit 1
fi
echo "hospital odd-lane smoke: OK (${fp_jobs1})"
# Pipeline smoke: the pipeline driver's determinism gate (serial-cold vs
# parallel-cold vs warm-from-cache manifests) over a mixed graph, plus
# a bench-schema timing report validated by the built-in checker.
"${repo_root}/build-ci-werror/tools/mcps" pipeline \
    --spec "pca seed=42 minutes=2" --trace --analysis \
    --ward "seed=7 patients=4 shards=4" --jobs 4 --verify --quiet
"${repo_root}/build-ci-werror/tools/mcps" pipeline \
    --spec "pca seed=42 minutes=2" \
    --json "${repo_root}/build-ci-werror/BENCH_pipeline_smoke.json" \
    --quiet >/dev/null
"${repo_root}/build-ci-werror/tools/mcps" trace check-bench \
    "${repo_root}/build-ci-werror/BENCH_pipeline_smoke.json" >/dev/null
echo "pipeline smoke: OK"
# Repository benchmark smokes: a short run of every perfbench workload
# (its own Release build under .bench_build/) must check every pin and
# invariant. The forensic run checks that a run with the
# event log attached has the fingerprint of the same run without it and
# that its JSONL reads back exactly, so the bus publish path is checked
# with events on at Release flags. The hospital run compares each
# engine's jobs=1 run with its jobs=2 run: the Release-built kernel
# against itself, which shows wards that disturb one another across
# threads, not a Release-only drift from the scalar model; that drift
# shows in the one-minute preset pins every workload checks first. The
# serve run compares the embedded server's warm-up responses and cache
# misses with direct runs of their specs. The last stdout line is the
# result; its "correct" flag is the verdict.
for workload in bedside forensic hospital serve; do
    perfbench_result="$(cd "${repo_root}" && python3 perfbench/run.py \
        --workload "${workload}" --seed 1 --seconds 2 --trace 0 \
        2>/dev/null | tail -n 1 || true)"
    if ! printf '%s\n' "${perfbench_result}" | grep -qF '"correct": true'; then
        echo "perfbench ${workload} smoke FAILED: ${perfbench_result}" >&2
        exit 1
    fi
    echo "perfbench ${workload} smoke: OK"
done

run_coverage() {
    stage "coverage report (MCPS_COVERAGE=ON)"
    if ! command -v gcovr >/dev/null && ! command -v llvm-cov >/dev/null; then
        echo "coverage: SKIPPED (neither gcovr nor llvm-cov installed)"
        return 0
    fi
    cmake -S "${repo_root}" -B "${repo_root}/build-ci-cov" \
        -DCMAKE_BUILD_TYPE=Debug -DMCPS_COVERAGE=ON >/dev/null
    cmake --build "${repo_root}/build-ci-cov" -j "${jobs}" \
        --target mcps_tests >/dev/null
    LLVM_PROFILE_FILE="${repo_root}/build-ci-cov/profiles/%p.profraw" \
        "${repo_root}/build-ci-cov/tests/mcps_tests" \
        --gtest_brief=1
    cmake --build "${repo_root}/build-ci-cov" --target coverage
}

if [[ "${fast}" == "1" ]]; then
    [[ "${coverage}" == "1" ]] && run_coverage
    stage "done (--fast: sanitizer stages skipped)"
    exit 0
fi

stage "6/7 ASan+UBSan test suite"
cmake -S "${repo_root}" -B "${repo_root}/build-ci-asan" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DMCPS_SANITIZE="address;undefined" >/dev/null
cmake --build "${repo_root}/build-ci-asan" -j "${jobs}" >/dev/null
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir "${repo_root}/build-ci-asan" --output-on-failure

stage "7/7 TSan ward + fuzz + kernel + serve + obs + hospital + pipeline suites"
cmake -S "${repo_root}" -B "${repo_root}/build-ci-tsan" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMCPS_SANITIZE=thread >/dev/null
cmake --build "${repo_root}/build-ci-tsan" -j "${jobs}" \
    --target mcps mcps_tests mcps_kernel_tests mcps_serve_tests \
    mcps_obs_tests mcps_hospital_tests mcps_pipeline_tests >/dev/null
# Campaign jobs-invariance: the WardEngine suite, the fuzz loop at jobs 4
# against jobs 1, and the ward_determinism CLI run. mcps_tests' gtests
# carry no ctest label, so they are selected by name.
ctest --test-dir "${repo_root}/build-ci-tsan" \
    -R '^(WardEngine\.|Fuzzer\.JobsFourMatchesJobsOneAcrossWindows$|ward_determinism$)' \
    --output-on-failure
# The kernel suite holds the threaded building block (parallel_map,
# shared by the ward, hospital, fuzz and pipeline loops). The event
# kernel itself is single-threaded by contract, but its tests still run
# under TSan so the non-atomic refcounts
# (SlabRef, MessageRef) are exercised with instrumentation: any future
# cross-thread use of a slab/pool shows up here as a data race, not as
# silent corruption.
ctest --test-dir "${repo_root}/build-ci-tsan" \
    -L kernel --output-on-failure
# The serve layer is the most thread-dense code in the repo (reader
# threads, workers blocked on the admission queue, shared cache/metrics,
# drain handshake): the whole suite runs under TSan.
ctest --test-dir "${repo_root}/build-ci-tsan" \
    -L serve --output-on-failure
# SharedMetrics stress: the dynamic complement of the CONC1 lint —
# CONC1 proves every guarded field is lexically under its mutex, TSan
# proves the mutex actually covers the access patterns under load.
ctest --test-dir "${repo_root}/build-ci-tsan" \
    -L obs --output-on-failure
# Hospital population engine under TSan: the jobs-invariance tests step
# the same hospital with 1/4/16 ward workers and the SoA differential
# suite runs alongside — any cross-ward data race in the batched
# stepping or the mergeable-histogram reduction surfaces here.
ctest --test-dir "${repo_root}/build-ci-tsan" \
    -L hospital --output-on-failure
# Pipeline scheduler under TSan: the executor's dependency counting,
# the shared ArtifactCache and the fan-out/join graphs all run
# instrumented — the dynamic complement of the CONC1 annotations on
# ArtifactCache::mu_ and Executor::mu_.
ctest --test-dir "${repo_root}/build-ci-tsan" \
    -L pipeline --output-on-failure

[[ "${coverage}" == "1" ]] && run_coverage

stage "all analysis gates passed"
