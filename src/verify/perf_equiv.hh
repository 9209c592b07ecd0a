/**
 * @file
 * Timing-vs-state differential harness for the pipelined Ma-SU
 * engine (SecureParams::bmtPipeline).
 *
 * The pipeline is a *timing* optimization: it may overlap or coalesce
 * modeled latency charges, but it must not change what the machine
 * computes, detects, or recovers. This harness proves that claim per
 * (mode, workload) by running the same program twice — once on the
 * serial engine, once on the pipelined one — and requiring:
 *
 *  1. Final state: after a crash-free run, the plaintext contents of
 *     every golden-tracked block, read back through the core, are
 *     byte-identical between the two runs, and both runs pass the
 *     differential oracle. (Ciphertext is *expected* to differ —
 *     timing feeds back into coalescing decisions, so counter values
 *     diverge; the architectural contract is over plaintext.)
 *  2. Detection: the attack-detection counters agree.
 *  3. Recovery: crashing both runs at the same program-order WPQ
 *     boundary and recovering yields the same structural verdict,
 *     the same per-byte persistence classification, and identical
 *     values for every committed byte. (In-flight bytes may resolve
 *     differently — drain progress at the crash point is exactly
 *     what the pipeline changes — but the committed prefix is
 *     sacred.)
 *
 * What the pipeline buys in time is judged end to end, on cycles per
 * transaction, by `bench/ablation_matrix` (rows `default` and
 * `serial`), not here.
 *
 * Exposed through `dolos-sim --verify-perf-equiv`.
 */

#ifndef DOLOS_VERIFY_PERF_EQUIV_HH
#define DOLOS_VERIFY_PERF_EQUIV_HH

#include <string>
#include <vector>

#include "dolos/config.hh"

namespace dolos::verify
{

/** Outcome of one (mode, workload) serial-vs-pipelined differential. */
struct PerfEquivResult
{
    SecurityMode mode = SecurityMode::DolosPartialWpq;
    std::string workload = "hashmap";

    bool finalStateIdentical = false; ///< plaintext load-back equal
    bool oracleCleanBoth = false;     ///< both runs pass the oracle
    bool structureVerifiedBoth = false;
    bool detectionIdentical = false;  ///< attack counters agree
    bool recoveryEquivalent = false;  ///< crash leg (see file header)

    std::uint64_t crashOp = 0;        ///< crash leg's boundary
    std::uint64_t bmtCoalescedUpdates = 0; ///< on-run pipeline activity

    std::vector<std::string> diagnostics;

    bool
    ok() const
    {
        return finalStateIdentical && oracleCleanBoth &&
               structureVerifiedBoth && detectionIdentical &&
               recoveryEquivalent;
    }
};

/** Serial ("off") vs pipelined ("on") Ma-SU on one workload. */
PerfEquivResult verifyPerfEquiv(SecurityMode mode,
                                const std::string &workload,
                                std::uint64_t num_tx,
                                std::uint64_t seed);

/** The CLI sweep: every tier-1 workload in all three Dolos modes. */
std::vector<PerfEquivResult> verifyPerfEquivAll(std::uint64_t seed);

/** One-line human-readable report. */
std::string formatPerfEquivReport(const PerfEquivResult &r);

} // namespace dolos::verify

#endif // DOLOS_VERIFY_PERF_EQUIV_HH
