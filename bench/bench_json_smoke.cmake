# Executes every experiment binary in --quick mode with --json and
# validates each report against the benchio schema via `mcps trace
# check-bench`. Driven by the `bench_json_smoke` ctest; fails on the
# first bench that crashes or emits a malformed report.
#
# Expected -D variables: BENCH_DIR (directory holding the bench
# binaries), MCPS (path to the mcps binary), OUT_DIR
# (scratch directory for the JSON reports).

foreach(var BENCH_DIR MCPS OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_json_smoke: missing -D${var}")
  endif()
endforeach()

file(MAKE_DIRECTORY "${OUT_DIR}")

set(benches
  bench_e1_pca_interlock
  bench_e2_network
  bench_e3_smart_alarm
  bench_e4_xray_vent
  bench_e5_verification
  bench_e6_middleware
  bench_e7_physio
  bench_e8_fault_injection
  bench_e9_alarm_fatigue
  bench_e10_ward_scale
)

foreach(bench IN LISTS benches)
  set(report "${OUT_DIR}/${bench}.json")
  message(STATUS "${bench} --quick --json ${report}")
  execute_process(
    COMMAND "${BENCH_DIR}/${bench}" --quick --json "${report}"
    RESULT_VARIABLE run_rc
    OUTPUT_VARIABLE run_out
    ERROR_VARIABLE run_err)
  if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR
      "${bench} exited with ${run_rc}\nstdout:\n${run_out}\nstderr:\n${run_err}")
  endif()
  execute_process(
    COMMAND "${MCPS}" trace check-bench "${report}"
    RESULT_VARIABLE check_rc
    OUTPUT_VARIABLE check_out
    ERROR_VARIABLE check_err)
  if(NOT check_rc EQUAL 0)
    message(FATAL_ERROR
      "${bench}: invalid --json report\n${check_out}${check_err}")
  endif()
endforeach()

list(LENGTH benches bench_count)
message(STATUS "all ${bench_count} bench reports validated")
