/**
 * @file
 * Timing-vs-state differential implementation.
 */

#include "verify/perf_equiv.hh"

#include <cstdarg>
#include <cstdio>
#include <map>

#include "verify/campaign.hh"
#include "verify/diff_oracle.hh"
#include "verify/sweep_driver.hh"
#include "workloads/pmem.hh"
#include "workloads/runner.hh"

namespace dolos::verify
{

namespace
{

/**
 * A deliberately small machine: the tiny metadata caches and heap
 * keep runs fast *and* put real pressure on the pipeline (climbs
 * overlap, same-line writes recur, counter blocks evict).
 */
SystemConfig
equivConfig(SecurityMode mode)
{
    auto cfg = smallMachineConfig(mode, 2048);
    cfg.secure.counterCache = {"counterCache", 8 * 1024, 4};
    cfg.secure.mtCache = {"mtCache", 16 * 1024, 8};
    return cfg;
}

/** Everything one leg (off or on) contributes to the comparison. */
struct LegSnapshot
{
    bool verified = false;
    bool oracleClean = false;
    std::uint64_t attacks = 0;
    std::map<Addr, Block> image;
    std::map<Addr, std::array<ByteClass, blockSize>> classes;
    std::uint64_t coalesced = 0;
};

LegSnapshot
runLeg(const SystemConfig &cfg, const std::string &workload,
       const workloads::WorkloadParams &params, std::uint64_t num_tx,
       std::optional<std::uint64_t> crash_op)
{
    System sys(cfg);
    GoldenModel golden;
    sys.core().setObserver(&golden);
    const auto wl = workloads::makeWorkload(workload, params);
    std::optional<workloads::CrashPlan> plan;
    if (crash_op)
        plan = workloads::CrashPlan(*crash_op);
    const auto res = workloads::runWorkload(sys, *wl, num_tx, plan);

    LegSnapshot s;
    s.verified = res.verified;
    s.oracleClean = checkAgainstGolden(sys, golden).clean();
    s.attacks = sys.engine().attacksDetected();

    // Plaintext load-back of every block the reference machine ever
    // saw stored. The oracle sweep above already pinned any bytes a
    // crash left ambiguous, so these loads are deterministic.
    for (const Addr block : golden.trackedBlocks()) {
        Block buf{};
        sys.core().load(block, buf.data(), blockSize);
        s.image[block] = buf;
        auto &cls = s.classes[block];
        for (unsigned i = 0; i < blockSize; ++i)
            cls[i] = golden.classify(block + i);
    }

    s.coalesced = sys.engine().bmtCoalescedUpdates();
    sys.core().setObserver(nullptr);
    return s;
}

void
diag(PerfEquivResult &r, const char *fmt, ...)
{
    char buf[192];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    r.diagnostics.push_back(buf);
}

/**
 * The crash leg's equivalence: identical per-byte persistence
 * classification, and byte-identical values wherever the byte is
 * committed. In-flight bytes legitimately resolve differently — the
 * pipeline changes drain progress — so they are compared only for
 * admissibility (which the per-leg oracle already enforced).
 */
bool
committedEquivalent(PerfEquivResult &r, const LegSnapshot &off,
                    const LegSnapshot &on)
{
    if (off.classes.size() != on.classes.size()) {
        diag(r, "tracked-block sets differ: off=%zu on=%zu",
             off.classes.size(), on.classes.size());
        return false;
    }
    for (const auto &[block, off_cls] : off.classes) {
        const auto on_it = on.classes.find(block);
        if (on_it == on.classes.end()) {
            diag(r, "block 0x%llx tracked only in the off run",
                 (unsigned long long)block);
            return false;
        }
        const auto &on_cls = on_it->second;
        const Block &off_img = off.image.at(block);
        const Block &on_img = on.image.at(block);
        for (unsigned i = 0; i < blockSize; ++i) {
            if (off_cls[i] != on_cls[i]) {
                diag(r,
                     "0x%llx+%u: persistence class diverged "
                     "(off=%d on=%d)",
                     (unsigned long long)block, i, int(off_cls[i]),
                     int(on_cls[i]));
                return false;
            }
            if (off_cls[i] == ByteClass::Committed &&
                off_img[i] != on_img[i]) {
                diag(r,
                     "0x%llx+%u: committed byte diverged "
                     "(off=%02x on=%02x)",
                     (unsigned long long)block, i, off_img[i],
                     on_img[i]);
                return false;
            }
        }
    }
    return true;
}

} // namespace

PerfEquivResult
verifyPerfEquiv(SecurityMode mode, const std::string &workload,
                std::uint64_t num_tx, std::uint64_t seed)
{
    PerfEquivResult r;
    r.mode = mode;
    r.workload = workload;

    const workloads::WorkloadParams params = smallWorkloadParams(seed);
    // The pipeline defaults on, so the "off" leg forces it off: it
    // models the paper's serial Ma-SU, not the build default.
    SystemConfig off_cfg = equivConfig(mode);
    off_cfg.secure.bmtPipeline = false;
    SystemConfig on_cfg = off_cfg;
    on_cfg.secure.bmtPipeline = true;

    // Leg 1: crash-free run, full final-state comparison.
    const LegSnapshot off = runLeg(off_cfg, workload, params, num_tx,
                                   std::nullopt);
    const LegSnapshot on = runLeg(on_cfg, workload, params, num_tx,
                                  std::nullopt);

    r.structureVerifiedBoth = off.verified && on.verified;
    if (!r.structureVerifiedBoth)
        diag(r, "structure verification: off=%d on=%d",
             int(off.verified), int(on.verified));
    r.oracleCleanBoth = off.oracleClean && on.oracleClean;
    if (!r.oracleCleanBoth)
        diag(r, "oracle: off=%d on=%d", int(off.oracleClean),
             int(on.oracleClean));
    r.detectionIdentical = off.attacks == on.attacks;
    if (!r.detectionIdentical)
        diag(r, "attack counters differ: off=%llu on=%llu",
             (unsigned long long)off.attacks,
             (unsigned long long)on.attacks);

    r.finalStateIdentical = off.image == on.image;
    if (!r.finalStateIdentical && off.image.size() != on.image.size())
        diag(r, "final image block counts differ: off=%zu on=%zu",
             off.image.size(), on.image.size());
    else if (!r.finalStateIdentical)
        diag(r, "final plaintext images differ");

    r.bmtCoalescedUpdates = on.coalesced;

    // Leg 2: crash at a program-order WPQ boundary near the middle of
    // the run, recover, and compare recovery outcomes. The boundary
    // is an environment-operation index, so it lands at the same
    // architectural point in both configurations.
    SweepOptions sweep;
    sweep.mode = mode;
    sweep.workload = workload;
    sweep.numTx = num_tx;
    sweep.params = params;
    sweep.base = off_cfg;
    const auto boundaries = enumerateWpqBoundaries(sweep);
    if (boundaries.empty()) {
        diag(r, "no WPQ boundaries: crash leg skipped");
        r.recoveryEquivalent = true;
        return r;
    }
    r.crashOp = boundaries[boundaries.size() / 2];
    const LegSnapshot off_crash =
        runLeg(off_cfg, workload, params, num_tx, r.crashOp);
    const LegSnapshot on_crash =
        runLeg(on_cfg, workload, params, num_tx, r.crashOp);

    r.recoveryEquivalent =
        off_crash.verified && on_crash.verified &&
        off_crash.oracleClean && on_crash.oracleClean &&
        off_crash.attacks == on_crash.attacks &&
        committedEquivalent(r, off_crash, on_crash);
    if (!(off_crash.verified && on_crash.verified))
        diag(r, "crash leg structure: off=%d on=%d",
             int(off_crash.verified), int(on_crash.verified));
    if (!(off_crash.oracleClean && on_crash.oracleClean))
        diag(r, "crash leg oracle: off=%d on=%d",
             int(off_crash.oracleClean), int(on_crash.oracleClean));
    if (off_crash.attacks != on_crash.attacks)
        diag(r, "crash leg attack counters: off=%llu on=%llu",
             (unsigned long long)off_crash.attacks,
             (unsigned long long)on_crash.attacks);
    return r;
}

std::vector<PerfEquivResult>
verifyPerfEquivAll(std::uint64_t seed)
{
    static const SecurityMode modes[] = {SecurityMode::DolosFullWpq,
                                         SecurityMode::DolosPartialWpq,
                                         SecurityMode::DolosPostWpq};
    static const char *workloads_[] = {"hashmap", "btree", "ctree",
                                       "rbtree"};
    std::vector<PerfEquivResult> out;
    for (const SecurityMode mode : modes)
        for (const char *wl : workloads_)
            out.push_back(verifyPerfEquiv(mode, wl, 4, seed));
    return out;
}

std::string
formatPerfEquivReport(const PerfEquivResult &r)
{
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "%-13s %-8s %s  (coalesced=%llu)",
        securityModeName(r.mode), r.workload.c_str(),
        r.ok() ? "OK  " : "FAIL",
        (unsigned long long)r.bmtCoalescedUpdates);
    std::string out = buf;
    for (const auto &d : r.diagnostics) {
        out += "\n    ";
        out += d;
    }
    return out;
}

} // namespace dolos::verify
