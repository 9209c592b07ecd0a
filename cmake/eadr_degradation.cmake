# eADR graceful-degradation smoke (ctest tier2).
#
# An under-provisioned holdup energy budget must surface as *loud,
# structured* data loss — quarantined lines with cause provenance and
# the documented exit-4 (unrecoverable media) path — never as silent
# corruption or a crash of the tool itself. This script drives the
# contract end to end through both CLI drivers:
#
#   - dolos_torture replay in eadr mode with a 1-cycle budget: the
#     flush admits one line, quarantines the rest, and the run exits
#     4 (quarantine, no oracle violation on surviving blocks).
#   - dolos_sim with the same starved budget writes a --damage-json
#     report naming the eadr_flush_budget_exhausted cause, validated
#     by dolos_report --check.
#   - Negative CLI: --points microstep on a mode without an
#     interruptible persist surface is a usage error (exit 2) that
#     names the supported mode set; a zero --eadr-budget is rejected,
#     not clamped.
#
# Invoked as:
#   cmake -DSIM=<dolos-sim> -DTORTURE=<dolos_torture>
#         -DREPORT=<dolos_report> -DWORKDIR=<dir>
#         -P eadr_degradation.cmake

include(${CMAKE_CURRENT_LIST_DIR}/lane_common.cmake)
lane_require(SIM TORTURE REPORT WORKDIR)

file(MAKE_DIRECTORY "${WORKDIR}")


# A fully provisioned budget: clean exit, nothing quarantined. No
# clwb/fence ops needed — under eADR the store itself is persistent.
expect_rc(0 "${TORTURE}" --mode eadr --replay w:1:7,w:2:8,w:3:9,c)

# Starved budget (1 cycle admits exactly one line): the tail is
# quarantined loudly and the run takes the unrecoverable-media exit.
expect_rc(4 "${TORTURE}" --mode eadr --eadr-budget 1
            --replay w:1:7,w:2:8,w:3:9,w:4:4,c)
if(NOT last_out MATCHES "quarantined=[1-9]")
    message(FATAL_ERROR
        "eadr_degradation: starved flush reported no quarantined "
        "lines:\n${last_out}")
endif()

# Same contract through dolos_sim, with the structured damage report.
set(damage "${WORKDIR}/damage.json")
expect_rc(4 "${SIM}" --workload hashmap --mode eadr --txns 20
            --keys 48 --crash-at 10 --eadr-budget 1
            --damage-json "${damage}")
if(NOT EXISTS "${damage}")
    message(FATAL_ERROR "eadr_degradation: damage report not written")
endif()
expect_rc(0 "${REPORT}" --check "${damage}")
file(READ "${damage}" damage_text)
if(NOT damage_text MATCHES "eadr_flush_budget_exhausted")
    message(FATAL_ERROR
        "eadr_degradation: damage report lacks the flush cause:\n"
        "${damage_text}")
endif()
if(NOT damage_text MATCHES "\"unrecoverableMedia\":true")
    message(FATAL_ERROR
        "eadr_degradation: damage report lacks the quarantine flag:\n"
        "${damage_text}")
endif()

# Negative CLI: microstep sweeps name the supported mode set instead
# of silently running a mode with no interruptible persist surface.
expect_rc(2 "${TORTURE}" --sweep --points microstep --mode baseline
            --budget 2 --txns 2)
if(NOT last_err MATCHES "dolos-full\\|dolos-partial\\|dolos-post")
    message(FATAL_ERROR
        "eadr_degradation: microstep rejection does not name the "
        "supported modes:\n${last_err}")
endif()
if(NOT last_err MATCHES "eadr")
    message(FATAL_ERROR
        "eadr_degradation: microstep rejection does not mention "
        "eadr:\n${last_err}")
endif()

# Reject-not-clamp: a zero energy budget is a usage error everywhere.
expect_rc(2 "${TORTURE}" --mode eadr --eadr-budget 0 --replay w:1:7,c)
expect_rc(2 "${SIM}" --workload hashmap --mode eadr --txns 5
            --eadr-budget 0)

message(STATUS "eadr_degradation: OK")
