# Exit-code contract smoke test (ctest tier2).
#
# The documented dolos_sim / dolos_torture exit codes (see
# src/sim/exit_codes.hh and docs/verification.md):
#
#   0  clean, verified run
#   1  verification / oracle failure
#   2  usage or configuration error
#   3  integrity attack detected
#   4  unrecoverable media fault (quarantine)
#
# This script drives each path end to end and also validates the
# --damage-json artifact with dolos_report --check.
#
# Invoked as:
#   cmake -DSIM=<dolos-sim> -DTORTURE=<dolos_torture>
#         -DFUZZ=<dolos_fuzz> -DREPORT=<dolos_report> -DWORKDIR=<dir>
#         -P exit_codes_smoke.cmake

include(${CMAKE_CURRENT_LIST_DIR}/lane_common.cmake)
lane_require(SIM TORTURE FUZZ REPORT WORKDIR)

file(MAKE_DIRECTORY "${WORKDIR}")


# 0: clean verified run.
expect_rc(0 "${SIM}" --workload hashmap --mode dolos-partial
            --txns 40 --keys 64)

# 2: usage error (unknown mode) — rejected, not defaulted.
expect_rc(2 "${SIM}" --mode not-a-mode)

# 2: invalid configuration (degenerate WPQ) — rejected, not clamped.
expect_rc(2 "${SIM}" --wpq 1 --txns 10)

# 2: --opt-knobs takes all|none only. The retired lever names and
#    the comma grammar are usage errors in every CLI; all and none
#    both run.
foreach(spec bmt-pipeline drain-batch tag-prefetch
        bmt-pipeline,tag-prefetch bmt-window=4 ALL)
    expect_rc(2 "${SIM}" --txns 10 --opt-knobs ${spec})
    expect_rc(2 "${TORTURE}" --replay w:1:7,f:1,s,c --opt-knobs ${spec})
    expect_rc(2 "${FUZZ}" --opt-knobs ${spec})
endforeach()
foreach(spec all none)
    expect_rc(0 "${SIM}" --workload hashmap --mode dolos-partial
                --txns 10 --keys 64 --opt-knobs ${spec})
    expect_rc(0 "${TORTURE}" --replay w:1:7,f:1,s,c --opt-knobs ${spec})
endforeach()

# 2: every CLI rejects a malformed value instead of clamping or
#    defaulting it: misspelled choices, numbers with trailing junk.
foreach(bad "--tree;lazzy;--crash-scheme;osirs" "--tree;lazzy"
        "--crash-scheme;osirs" "--txns;10x")
    expect_rc(2 "${SIM}" ${bad} --txns 10)
endforeach()
# --wpq-watermark takes a whole percentage, 0..100.
foreach(bad "101" "-1" "5x")
    expect_rc(2 "${SIM}" --wpq-watermark ${bad} --txns 10)
    expect_rc(2 "${TORTURE}" --replay w:1:7,f:1,s,c --wpq-watermark ${bad})
endforeach()
foreach(pct 0 100)
    expect_rc(0 "${SIM}" --workload hashmap --mode dolos-partial
                --txns 10 --keys 64 --wpq-watermark ${pct})
    expect_rc(0 "${TORTURE}" --replay w:1:7,f:1,s,c --wpq-watermark ${pct})
endforeach()
foreach(bad "--seed;abc" "--jobs;2x" "--jobs;0")
    expect_rc(2 "${TORTURE}" ${bad} --campaign 2)
endforeach()
foreach(bad "--seed;7q" "--jobs;0" "--workload;not-a-workload")
    expect_rc(2 "${FUZZ}" ${bad})
endforeach()

# 3: injected integrity attack raises the alarm.
expect_rc(3 "${SIM}" --workload hashmap --mode dolos-partial
            --txns 40 --keys 64 --inject-fault data-flip)

# The inject-and-provoke sequence dolos-sim shares with dolos_fuzz:
# a write-fail victim is rewritten until it quarantines (4); MAC and
# tree-node flips are caught by the provoking load (3).
expect_rc(4 "${SIM}" --workload hashmap --mode dolos-partial
            --txns 40 --keys 64 --inject-fault media-write-fail)
foreach(fault mac-flip bmt-flip)
    expect_rc(3 "${SIM}" --workload hashmap --mode dolos-partial
                --txns 40 --keys 64 --inject-fault ${fault})
endforeach()

# 4: unhealable media fault degrades gracefully (quarantine, no
#    abort) and emits a structured damage report.
set(damage "${WORKDIR}/damage.json")
expect_rc(4 "${SIM}" --workload hashmap --mode dolos-partial
            --txns 40 --keys 64 --media-fault stuck
            --damage-json "${damage}")
if(NOT EXISTS "${damage}")
    message(FATAL_ERROR "exit_codes_smoke: damage report not written")
endif()
expect_rc(0 "${REPORT}" --check "${damage}")
file(READ "${damage}" damage_text)
if(NOT damage_text MATCHES "\"unrecoverableMedia\":true")
    message(FATAL_ERROR
        "exit_codes_smoke: damage report lacks the quarantine flag:\n"
        "${damage_text}")
endif()

# 0: a transient fault heals through retry — clean exit, no report.
expect_rc(0 "${SIM}" --workload hashmap --mode dolos-partial
            --txns 40 --keys 64 --media-fault transient)

# Torture driver speaks the same contract.
expect_rc(0 "${TORTURE}" --replay w:1:7,f:1,s,c)
expect_rc(2 "${TORTURE}" --mode not-a-mode)
expect_rc(2 "${TORTURE}" --replay zz:1)
expect_rc(4 "${TORTURE}" --replay w:3:7,x:3:9,f:3,s,c)
expect_rc(1 "${TORTURE}" --mode dolos-partial --plant-bug drop-clwb:0
            --replay w:5:9,f:5,s,c)

message(STATUS "exit_codes_smoke: OK")
