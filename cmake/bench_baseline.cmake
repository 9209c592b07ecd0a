# Recorded-baseline performance gate (ctest tier2).
#
# Re-runs an experiment driver with the exact parameters its committed
# baseline artifact was recorded with, then diffs the fresh artifact
# against the baseline with dolos_report. The simulator is
# deterministic, so any drift is a real modeling change: regressions
# beyond the threshold fail the gate, and an intentional change is
# blessed by re-recording the baseline with the same driver flags,
# e.g.:
#
#   bench/intro_overhead --txns 120 --keys 64 --seed 7 \
#       --json tests/baselines/BENCH_intro_overhead.json
#   bench/fig12_speedup_eager --txns 40 --keys 64 --seed 7 \
#       --json tests/baselines/BENCH_fig12_speedup_eager.json
#   bench/ablation_matrix --txns 40 --keys 64 --seed 7 \
#       --json tests/baselines/BENCH_ablation_matrix.json
#
# Invoked as:
#   cmake -DBENCH=<driver> -DREPORT=<dolos_report>
#         -DBASELINE=<BENCH_*.json> -DWORKDIR=<dir>
#         [-DTXNS=N] [-DKEYS=N] [-DSEED=N] [-DTHRESHOLD=PCT]
#         -P bench_baseline.cmake
#
# THRESHOLD defaults to the deterministic-simulation gate (2%); the
# selfbench gate measures host wall-clock and needs a far looser one.

include(${CMAKE_CURRENT_LIST_DIR}/lane_common.cmake)
lane_require(BENCH REPORT BASELINE WORKDIR)

# Driver parameters default to the original intro_overhead recording;
# each gate overrides what its baseline was recorded with.
if(NOT DEFINED TXNS)
    set(TXNS 120)
endif()
if(NOT DEFINED KEYS)
    set(KEYS 64)
endif()
if(NOT DEFINED SEED)
    set(SEED 7)
endif()
if(NOT DEFINED THRESHOLD)
    set(THRESHOLD 2)
endif()

if(NOT EXISTS "${BASELINE}")
    message(FATAL_ERROR "bench_baseline: baseline ${BASELINE} missing")
endif()

file(MAKE_DIRECTORY "${WORKDIR}")
get_filename_component(artifact "${BASELINE}" NAME)
set(candidate "${WORKDIR}/${artifact}")

# Must match the parameters recorded in the baseline artifact.
run_step(driver
    "${BENCH}" --txns ${TXNS} --keys ${KEYS} --seed ${SEED}
    --json "${candidate}")

run_step("artifact check" "${REPORT}" --check "${candidate}")

execute_process(
    COMMAND "${REPORT}" "${BASELINE}" "${candidate}"
            --threshold ${THRESHOLD}
    RESULT_VARIABLE diff_rc
    OUTPUT_VARIABLE diff_out
    ERROR_VARIABLE diff_err)

if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR
        "bench_baseline: regression vs recorded baseline "
        "(rc=${diff_rc})\n${diff_out}\n${diff_err}\n"
        "If the change is intentional, re-record the baseline (see "
        "header of bench_baseline.cmake).")
endif()

message(STATUS "bench_baseline: OK\n${diff_out}")
