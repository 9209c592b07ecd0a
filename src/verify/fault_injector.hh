/**
 * @file
 * Deterministic fault and attack injection.
 *
 * The injector models the failure and adversary classes the Dolos
 * design must survive (paper §4.1, §5):
 *
 *   DataFlip         flip one NVM bit in a protected data block
 *   MacFlip          flip one NVM bit in the block's stored data MAC
 *   CounterRollback  roll an NVM counter block backwards and scrub
 *                    the Anubis shadow region so the stale image
 *                    looks like a clean shutdown
 *   BmtFlip          corrupt (or forge) a stored integrity-tree node
 *                    on a written block's path
 *   TornAdrDump      ADR power dies after K entries of the crash
 *                    dump — the rest of the WPQ flush is torn off
 *   DroppedClwb      a CLWB silently never reaches the controller
 *                    (platform/software flush bug; the class the
 *                    differential oracle exists to catch)
 *
 * Image mutations (the first four) are applied to the NVM backing
 * store at a quiesced point — between crash and recovery for a
 * cold-boot adversary, or after recovery for a bus adversary.
 * Crash-path faults (the last two) are armed ahead of time and fire
 * inside the machine. Victim selection is seeded and deterministic:
 * the same (seed, machine history) always injects the same fault,
 * which is what makes fuzz failures reproducible from one line.
 */

#ifndef DOLOS_VERIFY_FAULT_INJECTOR_HH
#define DOLOS_VERIFY_FAULT_INJECTOR_HH

#include <optional>
#include <string>

#include "dolos/system.hh"
#include "sim/random.hh"

namespace dolos::verify
{

/** The injectable fault classes. */
enum class FaultKind
{
    None,
    DataFlip,
    MacFlip,
    CounterRollback,
    BmtFlip,
    TornAdrDump,
    DroppedClwb,
    MediaTransient, ///< one-shot device read flip (should heal)
    MediaStuck,     ///< stuck-at cell (should quarantine, no alarm)
    MediaWriteFail, ///< dropped write pulses (retry, then quarantine)
};

/** Stable CLI name of a fault kind (and its inverse). */
const char *faultKindName(FaultKind kind);
std::optional<FaultKind> parseFaultKind(const std::string &name);

/** All injectable kinds, in a fixed order (None excluded). */
inline constexpr FaultKind allFaultKinds[] = {
    FaultKind::DataFlip,       FaultKind::MacFlip,
    FaultKind::CounterRollback, FaultKind::BmtFlip,
    FaultKind::TornAdrDump,    FaultKind::DroppedClwb,
    FaultKind::MediaTransient, FaultKind::MediaStuck,
    FaultKind::MediaWriteFail,
};

/** What an injection actually did (repro + assertions). */
struct InjectionRecord
{
    FaultKind kind = FaultKind::None;
    bool injected = false; ///< a concrete target existed
    Addr target = 0;       ///< mutated NVM address (if any)
    Addr victim = 0;       ///< data block whose read provokes the check
    unsigned bit = 0;      ///< flipped bit index (flip kinds)
    NvmRegion region = NvmRegion::Data; ///< region the target falls in
    std::string detail;
};

/**
 * The frame of @p region covering data block @p block: its counter
 * block, the level-1 tree node on its path, its MAC block, or the
 * block itself for Data.
 */
Addr metadataFrameOf(NvmRegion region, Addr block);

/**
 * Stick bit @p bit of the stored block at @p addr at the complement
 * of its stored value, so the very next read sees the fault. Returns
 * the stuck value.
 */
bool stickAtComplement(NvmDevice &nvm, Addr addr, unsigned bit);

class GoldenModel;

/**
 * Seeded fault injector bound to one System.
 */
class FaultInjector
{
  public:
    FaultInjector(System &sys, std::uint64_t seed)
        : sys(sys), seed(seed), rng(seed ^ 0xFA17'1E57ULL)
    {
    }

    /**
     * @{ The fault episode of dolos_fuzz and `dolos-sim
     * --inject-fault` (table in docs/verification.md):
     *
     *   auto armed = inj.armBeforeRun(kind);
     *   ... run the workload ...
     *   auto rec = inj.injectAndProvoke(armed, res.crashed, &golden);
     *
     * armBeforeRun arms the crash-path kinds (TornAdrDump after
     * seed % WPQ-entries entries, DroppedClwb at CLWB seed % 64); other
     * kinds come back not injected. injectAndProvoke power-cycles to a
     * cold machine, injects, and makes the demand access that trips
     * the detector — a load of the victim (hidden from @p golden for a
     * stuck cell, which reads back as quarantined zeros), a rewrite
     * for MediaWriteFail, recovery itself for CounterRollback. A
     * BmtFlip is injected after a second, empty-dump power cycle, so
     * the victim's tree walk starts from cold metadata caches. A
     * media fault aimed at a metadata @p region lands before the power
     * cycle, so recovery must repair it. A TornAdrDump the run never
     * crashed into gets one power cycle. Returns what was injected.
     */
    InjectionRecord armBeforeRun(FaultKind kind);
    InjectionRecord injectAndProvoke(const InjectionRecord &armed,
                                     bool run_crashed,
                                     GoldenModel *golden = nullptr,
                                     NvmRegion region = NvmRegion::Data);
    /** @} */

    /** @{ Crash-path faults: armed now, fire inside the machine. */
    InjectionRecord armTornAdrDump(unsigned surviving_entries);
    InjectionRecord armDroppedClwb(std::uint64_t nth);
    InjectionRecord armRecoveryCrash(unsigned after_steps);
    /** @} */

    /** @{ Media faults: armed on a seeded stored victim data block;
     *  they fire on the device's timed demand paths. For a @p region
     *  other than Data the fault lands on the metadata frame covering
     *  the victim (metadataFrameOf). A stuck cell holds the complement
     *  of its stored bit. */
    InjectionRecord injectMediaTransient(NvmRegion region = NvmRegion::Data);
    InjectionRecord injectMediaStuck(NvmRegion region = NvmRegion::Data);
    InjectionRecord armMediaWriteFail(unsigned failures);
    /** @} */

    /** @{ NVM image mutations (apply at a quiesced point). */
    InjectionRecord injectDataFlip();
    InjectionRecord injectMacFlip();
    InjectionRecord injectCounterRollback();
    InjectionRecord injectBmtFlip();
    /** @} */

    /**
     * Dispatch an image mutation by kind (campaign convenience);
     * crash-path kinds must be armed explicitly and return a
     * not-injected record here.
     */
    InjectionRecord inject(FaultKind kind);

    /**
     * Deterministically pick a victim among the protected-data
     * blocks currently stored in NVM.
     */
    std::optional<Addr> pickVictimDataBlock();

  private:
    /** Flip one seeded bit of the stored block at @p addr. */
    InjectionRecord flipBitAt(FaultKind kind, Addr addr);

    System &sys;
    std::uint64_t seed;
    Random rng;
};

} // namespace dolos::verify

#endif // DOLOS_VERIFY_FAULT_INJECTOR_HH
