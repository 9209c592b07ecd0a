# ASan+UBSan lane (ctest tier2).
#
# Configures a separate build tree with -DDOLOS_SANITIZE=ON, builds
# the two compound-failure drivers, and runs them through the paths
# most likely to hide memory bugs: an arbitrary-cycle crash sweep with
# a mid-recovery crash armed, and a short randomized torture campaign.
# Any ASan/UBSan report aborts the binary (-fno-sanitize-recover),
# which fails the expected-exit-code checks below.
#
# Invoked as:
#   cmake -DSOURCE_DIR=<repo root> -DWORKDIR=<dir>
#         -P sanitize_lane.cmake

include(${CMAKE_CURRENT_LIST_DIR}/lane_common.cmake)
lane_require(SOURCE_DIR WORKDIR)

set(build "${WORKDIR}/asan-build")
file(MAKE_DIRECTORY "${build}")

run_step(configure
    "${CMAKE_COMMAND}" -S "${SOURCE_DIR}" -B "${build}"
    -DDOLOS_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
    -DDOLOS_WERROR=ON)

# Static checks gate the lane: build and run dolos_lint over the real
# tree before spending time on the sanitizer build proper.
run_step("lint build"
    "${CMAKE_COMMAND}" --build "${build}" -j --target dolos_lint)
run_step(dolos_lint
    "${build}/tools/dolos_lint" "${SOURCE_DIR}/src" "${SOURCE_DIR}/tools")

run_step(build
    "${CMAKE_COMMAND}" --build "${build}" -j
    --target dolos_torture_cli dolos_sim_cli)

set(torture "${build}/tools/dolos_torture")
set(sim "${build}/tools/dolos-sim")


# Crash sweep with a mid-recovery crash armed at every point.
expect_rc(0 "${torture}" --sweep --recovery-crash 2 --budget 2
            --txns 2)

# Randomized compound-failure campaign (crashes + media faults).
expect_rc(0 "${torture}" --campaign 4 --seed 11 --ops 60)

# Metadata-fault crash sweep: stuck-at faults on counter / tree / MAC
# frames after every sampled power-off, exercising the repair and
# cascade paths under the sanitizers.
expect_rc(0 "${torture}" --sweep --points every-op --meta-faults
            --budget 2 --txns 2)

# Microstep crash sweep: power failures inside the persist path
# (mid BMT climb, after the stored MAC, at the redo-log clear) — the
# exception-unwound drain plus re-drained recovery is exactly the
# kind of path sanitizers catch lifetime bugs in.
expect_rc(0 "${torture}" --sweep --points microstep --budget 2
            --txns 2 --mode dolos-partial)

# eADR flush-microstep sweep: power dies inside the power-fail
# holdup flush itself — the exception-unwound flush loop, the
# quarantine writer, and the anchored probe/replay machinery all
# juggle captured cache lines whose lifetimes the sanitizers check.
expect_rc(0 "${torture}" --sweep --points microstep --budget 2
            --txns 2 --mode eadr)

# Starved holdup budget through the replay driver: the quarantined
# tail and the unrecoverable-media exit path under ASan.
expect_rc(4 "${torture}" --mode eadr --eadr-budget 1
            --replay w:1:7,w:2:8,w:3:9,c)

# Media quarantine path through the full CLI, including the damage
# report writer.
expect_rc(4 "${sim}" --workload hashmap --mode dolos-partial
            --txns 30 --keys 64 --media-fault stuck
            --damage-json "${WORKDIR}/damage.json")

message(STATUS "sanitize_lane: OK")
