# Helpers shared by the `cmake -P` test scripts in this directory.
#
#   include(${CMAKE_CURRENT_LIST_DIR}/lane_common.cmake)
#   lane_require(SIM WORKDIR)          # each -D variable must be set
#   expect_rc(2 "${SIM}" --mode nope)  # run; the exit code must match
#   run_step(build "${CMAKE_COMMAND}" --build "${dir}")  # must exit 0
#
# Failures are FATAL_ERRORs prefixed with the script's name and carry
# the command's stdout and stderr. expect_rc and run_step leave both
# in last_out / last_err for follow-up checks.

get_filename_component(lane "${CMAKE_SCRIPT_MODE_FILE}" NAME_WE)

function(lane_require)
    foreach(var ${ARGN})
        if(NOT DEFINED ${var})
            message(FATAL_ERROR "${lane}: ${var} not set")
        endif()
    endforeach()
endfunction()

# Runs the command in the calling function and hands its output to
# that function's caller.
macro(_lane_exec)
    execute_process(
        COMMAND ${ARGN}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    set(last_out "${out}" PARENT_SCOPE)
    set(last_err "${err}" PARENT_SCOPE)
endmacro()

function(expect_rc expected)
    _lane_exec(${ARGN})
    if(NOT rc EQUAL ${expected})
        message(FATAL_ERROR
            "${lane}: expected rc=${expected}, got rc=${rc} "
            "for: ${ARGN}\n${out}\n${err}")
    endif()
endfunction()

function(run_step what)
    _lane_exec(${ARGN})
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "${lane}: ${what} failed (rc=${rc})\n${out}\n${err}")
    endif()
endfunction()
