# clang-tidy lane (ctest tier2, optional tooling).
#
# Runs clang-tidy with the repository .clang-tidy profile over the
# core simulator sources, using the compile_commands.json the main
# build exports (CMAKE_EXPORT_COMPILE_COMMANDS is always on). If
# clang-tidy is not installed, the lane *skips* rather than failing
# (ctest matches "clang-tidy not found" via SKIP_REGULAR_EXPRESSION):
# the container image is not required to carry LLVM.
#
# Invoked as:
#   cmake -DSOURCE_DIR=<repo root> -DBUILD_DIR=<configured build>
#         -P tidy_lane.cmake

include(${CMAKE_CURRENT_LIST_DIR}/lane_common.cmake)
lane_require(SOURCE_DIR BUILD_DIR)

find_program(CLANG_TIDY NAMES clang-tidy clang-tidy-18 clang-tidy-17
                               clang-tidy-16 clang-tidy-15)
if(NOT CLANG_TIDY)
    # ctest marks the test skipped when this line appears in the
    # output (SKIP_REGULAR_EXPRESSION in tests/CMakeLists.txt).
    message(STATUS "tidy_lane: clang-tidy not found, skipping")
    return()
endif()

if(NOT EXISTS "${BUILD_DIR}/compile_commands.json")
    message(FATAL_ERROR
        "tidy_lane: ${BUILD_DIR}/compile_commands.json missing "
        "(CMAKE_EXPORT_COMPILE_COMMANDS should be on)")
endif()

file(GLOB_RECURSE sources
    "${SOURCE_DIR}/src/*.cc")

run_step(clang-tidy "${CLANG_TIDY}" -p "${BUILD_DIR}" --quiet ${sources})
message(STATUS "tidy_lane: OK")
