# End-to-end observability smoke test (ctest tier2).
#
# Runs one short simulation with --trace and --stats-json, then
# validates both artifacts with dolos_report --check and diffs the
# stats artifact against itself (which must report zero regressions).
#
# Invoked as:
#   cmake -DSIM=<dolos-sim> -DREPORT=<dolos_report> -DWORKDIR=<dir>
#         -P trace_smoke.cmake

include(${CMAKE_CURRENT_LIST_DIR}/lane_common.cmake)
lane_require(SIM REPORT WORKDIR)

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

message(STATUS "trace_smoke: OK")
