# Per-lever smoke test of the ablation matrix.
#
# Runs bench/ablation_matrix at a tiny transaction count (every run
# verified, so a failed workload check exits 1) and requires each
# named row to print four geomean cycles/tx figures and three
# speedups. With RECOVERY set it also runs sec55_recovery_time, which
# exits 1 unless the recovered tree root verifies, and requires the
# Anubis run to replay shadow entries and the Osiris run to probe.
#
# Invoked as:
#   cmake -DMATRIX=<ablation_matrix> -DROWS=<row>[,<row>...]
#         [-DRECOVERY=<sec55_recovery_time>] -P ablation_rows_smoke.cmake

include(${CMAKE_CURRENT_LIST_DIR}/lane_common.cmake)
lane_require(MATRIX ROWS)

run_step("ablation_matrix run" "${MATRIX}" --txns 3 --keys 64)
string(REPLACE "," ";" rows "${ROWS}")
foreach(row ${rows})
    if(NOT last_out MATCHES
       "\n${row} +[0-9]+ +[0-9]+ +[0-9]+ +[0-9]+ +[0-9.]+x +[0-9.]+x +[0-9.]+x\n")
        message(FATAL_ERROR
            "${lane}: no complete row '${row}' in:\n${last_out}")
    endif()
endforeach()

if(DEFINED RECOVERY)
    run_step("sec55_recovery_time run" "${RECOVERY}" --txns 3 --keys 64)
    if(NOT last_out MATCHES "Anubis +shadowApplied=[1-9][0-9]* osirisProbed=0 "
       OR NOT last_out MATCHES "Osiris +shadowApplied=0 osirisProbed=[1-9]")
        message(FATAL_ERROR
            "${lane}: Anubis/Osiris recovery work missing or "
            "not contrasted:\n${last_out}")
    endif()
endif()

message(STATUS "${lane}: OK (${ROWS})")
