# Self-profiler smoke test (ctest tier2).
#
# Runs `dolos-sim --selfbench` with a tiny transaction count and
# checks it reports a throughput figure; when the self-profiler is
# compiled in (the default), the attribution table must be present
# too. This lane validates the measurement machinery, not the speed —
# the recorded-baseline selfbench gate owns the numbers.
#
# Invoked as:
#   cmake -DSIM=<dolos-sim> -DWORKDIR=<dir> -P selfbench_smoke.cmake

include(${CMAKE_CURRENT_LIST_DIR}/lane_common.cmake)
lane_require(SIM WORKDIR)

file(MAKE_DIRECTORY "${WORKDIR}")

run_step("--selfbench run"
    "${SIM}" --selfbench --workload hashmap --txns 50 --keys 64)

string(FIND "${last_out}" "simulated instructions/sec" has_rate)
if(has_rate EQUAL -1)
    message(FATAL_ERROR
        "selfbench_smoke: no throughput figure in output:\n"
        "${last_out}")
endif()

# Either the attribution table (profiler compiled in) or the explicit
# compiled-out notice must be present — silence means the report path
# is broken.
string(FIND "${last_out}" "host-time attribution" has_attr)
string(FIND "${last_out}" "self-profiler compiled out" has_notice)
if(has_attr EQUAL -1 AND has_notice EQUAL -1)
    message(FATAL_ERROR
        "selfbench_smoke: neither attribution table nor compiled-out "
        "notice in output:\n${last_out}")
endif()

message(STATUS "selfbench_smoke: OK")
