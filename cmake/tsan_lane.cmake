# ThreadSanitizer lane (ctest tier2).
#
# The dynamic half of the thread-shared lint audit: configures a
# separate build tree with -DDOLOS_TSAN=ON and runs the parallel
# (--jobs 4) sweep and campaign paths under
# TSAN_OPTIONS=halt_on_error=1, so any data race — including one
# hiding behind a wrong DOLOS_THREAD_LOCAL_OK claim — aborts the
# binary and fails the expected-exit-code checks below.
#
# Skips gracefully (the ctest SKIP_REGULAR_EXPRESSION matches the
# "ThreadSanitizer not available" message) when the toolchain cannot
# link -fsanitize=thread.
#
# Invoked as:
#   cmake -DSOURCE_DIR=<repo root> -DWORKDIR=<dir> -P tsan_lane.cmake

include(${CMAKE_CURRENT_LIST_DIR}/lane_common.cmake)
lane_require(SOURCE_DIR WORKDIR)

# Probe: can the host compiler build and link a threaded TSan binary?
set(probe_dir "${WORKDIR}/tsan-probe")
file(MAKE_DIRECTORY "${probe_dir}")
file(WRITE "${probe_dir}/probe.cc" "int main() { return 0; }\n")
find_program(CXX NAMES c++ g++ clang++)
if(NOT CXX)
    message(STATUS "tsan_lane: no C++ compiler found — "
                   "ThreadSanitizer not available")
    return()
endif()
execute_process(
    COMMAND "${CXX}" -fsanitize=thread "${probe_dir}/probe.cc"
            -o "${probe_dir}/probe"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(STATUS "tsan_lane: toolchain cannot link "
                   "-fsanitize=thread — ThreadSanitizer not available")
    return()
endif()
execute_process(
    COMMAND "${probe_dir}/probe"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    # e.g. TSan runtime rejects the kernel's ASLR settings.
    message(STATUS "tsan_lane: TSan-instrumented probe cannot run "
                   "here — ThreadSanitizer not available")
    return()
endif()

set(build "${WORKDIR}/tsan-build")
file(MAKE_DIRECTORY "${build}")

run_step(configure
    "${CMAKE_COMMAND}" -S "${SOURCE_DIR}" -B "${build}"
    -DDOLOS_TSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo -DDOLOS_WERROR=ON)

run_step(build
    "${CMAKE_COMMAND}" --build "${build}" -j
    --target dolos_torture_cli dolos_fuzz_cli)

set(torture "${build}/tools/dolos_torture")
set(fuzz "${build}/tools/dolos_fuzz")

# Every run below inherits this: the first race aborts the binary.
set(ENV{TSAN_OPTIONS} halt_on_error=1)


# Parallel microstep sweep slices: 4 workers each running
# self-contained Systems with thread-local crash-point registries —
# the exact configuration the thread-shared audit certifies.
expect_rc(0 "${torture}" --sweep --points microstep --budget 12
            --txns 2 --mode dolos-partial --jobs 4)
expect_rc(0 "${torture}" --sweep --points microstep --budget 12
            --txns 2 --mode eadr --jobs 4)

# Parallel every-op sweep with a mid-recovery crash armed: the
# compound-failure path under contention.
expect_rc(0 "${torture}" --sweep --points every-op --budget 8
            --txns 2 --recovery-crash 2 --jobs 4)

# Parallel randomized torture campaign: episodes race through the
# debug-flag set, campaign monitor, and the per-thread singletons.
expect_rc(0 "${torture}" --campaign 8 --seed 11 --ops 60 --jobs 4)

# Parallel fuzz campaign slice: all modes x workloads with faults.
expect_rc(0 "${fuzz}" --campaign smoke --jobs 4 --heartbeat 3)

message(STATUS "tsan_lane: OK (zero data races)")
