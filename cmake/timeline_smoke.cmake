# Timeline telemetry smoke test (ctest tier2).
#
# Runs one short simulation with --sample-interval/--stats-timeline
# in both JSON and CSV form, validates the JSON artifact with
# dolos_report --check, and renders it with dolos_report --timeline
# in both single-file (sparklines) and two-file (delta table) form.
# The two-file run diffs the artifact against itself, so every shared
# series must come back with a zero delta.
#
# Invoked as:
#   cmake -DSIM=<dolos-sim> -DREPORT=<dolos_report> -DWORKDIR=<dir>
#         -P timeline_smoke.cmake

include(${CMAKE_CURRENT_LIST_DIR}/lane_common.cmake)
lane_require(SIM REPORT WORKDIR)

file(MAKE_DIRECTORY "${WORKDIR}")
set(json_file "${WORKDIR}/timeline.json")
set(csv_file "${WORKDIR}/timeline.csv")

foreach(artifact "${json_file}" "${csv_file}")
    run_step(simulation
        "${SIM}" --workload hashmap --txns 50 --keys 64
        --sample-interval 50000 --stats-timeline "${artifact}")
    if(NOT EXISTS "${artifact}")
        message(FATAL_ERROR
            "timeline_smoke: ${artifact} was not written")
    endif()
endforeach()

# The CSV must have a header plus at least one window row.
file(STRINGS "${csv_file}" csv_lines)
list(LENGTH csv_lines csv_rows)
if(csv_rows LESS 2)
    message(FATAL_ERROR
        "timeline_smoke: CSV has ${csv_rows} line(s), expected a "
        "header plus window rows")
endif()

run_step("JSON check" "${REPORT}" --check "${json_file}")

run_step("--timeline rendering" "${REPORT}" --timeline "${json_file}")
string(FIND "${last_out}" "drainsPerKcycle" has_derived)
if(has_derived EQUAL -1)
    message(FATAL_ERROR
        "timeline_smoke: --timeline output lacks the derived "
        "drainsPerKcycle series:\n${last_out}")
endif()

# Self-compare: shared series, all deltas zero.
run_step("two-file --timeline"
    "${REPORT}" --timeline "${json_file}" "${json_file}")

message(STATUS "timeline_smoke: OK")
