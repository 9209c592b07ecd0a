# ctest `lint_checks_doc`: the check registry compiled into
# dolos_lint (--list-checks) and the check table documented in
# docs/static_analysis.md must agree exactly, both directions — a new
# check without docs, or a documented check the binary lost, fails.
#
# Inputs: -DLINT=<dolos_lint binary> -DSOURCE_DIR=<repo root>

cmake_policy(SET CMP0057 NEW) # IN_LIST (script mode sets no policies)

include(${CMAKE_CURRENT_LIST_DIR}/lane_common.cmake)
lane_require(LINT SOURCE_DIR)

run_step(--list-checks ${LINT} --list-checks)

set(bin_checks "")
string(REPLACE "\n" ";" lines "${last_out}")
foreach(line IN LISTS lines)
    if(line MATCHES "^([a-z][a-z-]*) ")
        list(APPEND bin_checks ${CMAKE_MATCH_1})
    endif()
endforeach()

set(doc_checks "")
file(STRINGS ${SOURCE_DIR}/docs/static_analysis.md doc_lines)
foreach(line IN LISTS doc_lines)
    # Table rows look like: | `check-name` | what it enforces |
    if(line MATCHES "^\\| `([a-z][a-z-]*)` \\|")
        list(APPEND doc_checks ${CMAKE_MATCH_1})
    endif()
endforeach()

list(LENGTH bin_checks n_bin)
list(LENGTH doc_checks n_doc)
if(n_bin EQUAL 0 OR n_doc EQUAL 0)
    message(FATAL_ERROR
        "parsed ${n_bin} checks from --list-checks and ${n_doc} from "
        "docs/static_analysis.md; at least one parse came up empty")
endif()

foreach(c IN LISTS bin_checks)
    if(NOT c IN_LIST doc_checks)
        message(FATAL_ERROR
            "check '${c}' is in dolos_lint --list-checks but has no "
            "row in docs/static_analysis.md's check table")
    endif()
endforeach()
foreach(c IN LISTS doc_checks)
    if(NOT c IN_LIST bin_checks)
        message(FATAL_ERROR
            "check '${c}' is documented in docs/static_analysis.md "
            "but missing from dolos_lint --list-checks")
    endif()
endforeach()

message(STATUS
    "check registry and docs agree on ${n_bin} checks: ${bin_checks}")
