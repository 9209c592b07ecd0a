# Release lane (ctest tier2).
#
# Configures a separate build tree with -DCMAKE_BUILD_TYPE=Release
# (-O3) and -Werror, builds every target, and runs the tier-1 suite
# in it. The default RelWithDebInfo build (-O2) cannot see the
# warnings that only the -O3 inliner raises, nor code whose behaviour
# changes with the optimizer, so "warning-clean and tier-1 green" is
# checked here at the other common build type too.
#
# Invoked as:
#   cmake -DSOURCE_DIR=<repo root> -DWORKDIR=<dir>
#         -P release_lane.cmake

include(${CMAKE_CURRENT_LIST_DIR}/lane_common.cmake)
lane_require(SOURCE_DIR WORKDIR)

set(build "${WORKDIR}/release-build")
file(MAKE_DIRECTORY "${build}")


run_step(configure
    "${CMAKE_COMMAND}" -S "${SOURCE_DIR}" -B "${build}"
    -DCMAKE_BUILD_TYPE=Release -DDOLOS_WERROR=ON)

# Two jobs: the full tree at -O3 is memory-hungry per compiler.
run_step(build "${CMAKE_COMMAND}" --build "${build}" -j 2)

run_step("tier-1 suite"
    "${CMAKE_COMMAND}" -E chdir "${build}"
    "${CMAKE_CTEST_COMMAND}" -L tier1 -j 2 --output-on-failure)

message(STATUS "release_lane: OK")
