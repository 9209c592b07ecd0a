# End-to-end observability smoke test (ctest tier2).
#
# Runs one short simulation with --trace and --stats-json, then
# validates both artifacts with dolos_report --check, diffs the stats
# artifact against itself (which must report zero regressions), and
# checks the --diff stage table: it leads with runCycles, and a BENCH
# artifact, which carries no stage accounts, is not comparable to a
# stats dump (exit 2).
#
# Invoked as:
#   cmake -DSIM=<dolos-sim> -DREPORT=<dolos_report> -DWORKDIR=<dir>
#         -DBENCH_ARTIFACT=<BENCH_*.json> -P trace_smoke.cmake

include(${CMAKE_CURRENT_LIST_DIR}/lane_common.cmake)
lane_require(SIM REPORT WORKDIR BENCH_ARTIFACT)

file(MAKE_DIRECTORY "${WORKDIR}")
set(trace_file "${WORKDIR}/trace.json")
set(stats_file "${WORKDIR}/stats.json")

run_step(simulation
    "${SIM}" --workload hashmap --mode full_wpq --txns 50 --keys 64
    --trace "${trace_file}" --stats-json "${stats_file}")

foreach(artifact "${trace_file}" "${stats_file}")
    run_step("JSON check of ${artifact}" "${REPORT}" --check "${artifact}")
endforeach()

# A self-diff must be regression-free: exercises the compare path.
run_step(self-diff "${REPORT}" "${stats_file}" "${stats_file}")

run_step("stage self-diff" "${REPORT}" --diff "${stats_file}" "${stats_file}")
string(REGEX MATCH "\n([A-Za-z]+) " first_row "${last_out}")
if(NOT CMAKE_MATCH_1 STREQUAL "runCycles")
    message(FATAL_ERROR
        "trace_smoke: --diff must lead with runCycles, got "
        "'${CMAKE_MATCH_1}':\n${last_out}")
endif()
expect_rc(2 "${REPORT}" --diff "${stats_file}" "${BENCH_ARTIFACT}")

message(STATUS "trace_smoke: OK")
