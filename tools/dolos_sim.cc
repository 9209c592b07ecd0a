/**
 * @file
 * dolos_sim — command-line front end to the simulator.
 *
 * Runs one workload on one controller configuration and prints the
 * run metrics (and optionally the full statistics tree). Examples:
 *
 *   dolos_sim --workload btree --mode dolos-partial --txns 2000
 *   dolos_sim --workload redis --mode baseline --tx-size 512 --stats
 *   dolos_sim --workload hashmap --mode dolos-post --crash-at 5000
 *   dolos_sim --workload hashmap --mode full_wpq \
 *             --trace t.json --stats-json s.json
 *   dolos_sim --list
 */

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>

#include "sim/exit_codes.hh"
#include "sim/stat_sampler.hh"
#include "sim/trace.hh"
#include "tools/cli.hh"
#include "verify/fault_injector.hh"
#include "verify/manifest_check.hh"
#include "verify/perf_equiv.hh"
#include "workloads/runner.hh"
#include "workloads/selfbench.hh"

using namespace dolos;
using namespace dolos::workloads;

namespace
{

struct Options
{
    std::string workload = "hashmap";
    SecurityMode mode = SecurityMode::DolosPartialWpq;
    std::uint64_t txns = 1000;
    unsigned txSize = 1024;
    std::uint64_t numKeys = 1024;
    std::uint64_t seed = 42;
    Cycles thinkTime = 60000;
    unsigned wpqBudget = 16;
    std::optional<unsigned> wpqWatermark; ///< --wpq-watermark percent
    TreeUpdatePolicy tree = TreeUpdatePolicy::EagerMerkle;
    CrashScheme crashScheme = CrashScheme::Anubis;
    std::optional<std::uint64_t> crashAt;
    bool stats = false;
    bool noCoalescing = false;
    std::string traceFile;     ///< --trace: Chrome trace_event JSON
    std::string statsJsonFile; ///< --stats-json: machine-readable stats
    std::optional<verify::FaultKind> injectFault; ///< --inject-fault
    NvmRegion mediaRegion = NvmRegion::Data; ///< --media-region
    std::string damageJsonFile; ///< --damage-json: media damage report
    std::uint64_t scrubInterval = 0;  ///< --scrub-interval (0 = off)
    std::optional<unsigned> spares;   ///< --spares: NVM spare frames
    std::optional<std::uint64_t> eadrBudget; ///< --eadr-budget cycles
    bool verifyManifest = false; ///< --verify-manifest: crash-state check
    bool verifyPerfEquiv = false; ///< --verify-perf-equiv: serial vs
                                  ///< pipelined state differential
    bool bmtPipeline = true; ///< --opt-knobs: all|none
    std::uint64_t sampleInterval = 0; ///< --sample-interval (0 = off)
    std::string timelineFile; ///< --stats-timeline (.csv => CSV)
    bool selfbench = false;   ///< --selfbench: host-speed self-profile
};

[[noreturn]] void
usage(int code)
{
    std::printf(
        "usage: dolos_sim [options]\n"
        "  --workload NAME     hashmap|ctree|btree|rbtree|nstore-ycsb|"
        "redis (--list)\n"
        "  --mode MODE         ideal|baseline|post-unprotected|"
        "dolos-full|dolos-partial|dolos-post|eadr\n"
        "                      (aliases: full_wpq|partial_wpq|post_wpq)\n"
        "  --eadr-budget N     eADR holdup energy budget in cycles\n"
        "                      (nonzero; an under-provisioned budget\n"
        "                      quarantines the unflushed tail -> exit 4)\n"
        "  --txns N            transactions to run (default 1000)\n"
        "  --tx-size BYTES     payload per transaction (default 1024)\n"
        "  --keys N            key-space size (default 1024)\n"
        "  --think CYCLES      modeled compute per tx (default 60000)\n"
        "  --wpq N             ADR budget entries (default 16)\n"
        "  --wpq-watermark P   drain the WPQ once P%% of its entries\n"
        "                      are undrained (0..100; 0 = eager)\n"
        "  --tree eager|lazy   integrity-tree scheme (default eager)\n"
        "  --crash-scheme anubis|osiris\n"
        "  --crash-at OP       inject a power failure at env op OP\n"
        "  --no-coalescing     disable the WPQ tag-array coalescing\n"
        "  --trace FILE        write a Chrome trace_event JSON of the\n"
        "                      persist critical path (chrome://tracing)\n"
        "  --stats-json FILE   write run metrics + stat tree as JSON\n"
        "  --inject-fault KIND the dolos_fuzz fault episode: arm "
        "torn-adr-dump|\n"
        "                      dropped-clwb before the run; after it, "
        "power-cycle,\n"
        "                      inject data-flip|mac-flip|"
        "counter-rollback|bmt-flip|\n"
        "                      media-transient|media-stuck|"
        "media-write-fail and\n"
        "                      provoke the detector with a demand "
        "access\n"
        "  --media-fault K     alias: transient|stuck|write-fail\n"
        "  --media-region R    data|counter|tree|mac — which region a\n"
        "                      media transient/stuck fault lands in\n"
        "                      (metadata faults inject BEFORE the\n"
        "                      crash so recovery must repair them)\n"
        "  --scrub-interval N  opt-in background metadata scrub every\n"
        "                      N secure writes (0 = off)\n"
        "  --spares N          NVM spare frames for remapping worn\n"
        "                      metadata (0 forces cascade-quarantine)\n"
        "  --damage-json FILE  write the media damage report "
        "('-' = stdout)\n"
        "  --verify-manifest   run the power-loss differential of the\n"
        "                      annotated crash-state model in the three\n"
        "                      Mi-SU modes plus eadr, then exit "
        "(uses --seed)\n"
        "  --verify-perf-equiv run the timing-vs-state differential of\n"
        "                      the serial vs pipelined Ma-SU engine\n"
        "                      over the tier-1 workloads in all three\n"
        "                      Mi-SU modes, then exit\n"
        "  --opt-knobs SPEC    all: pipelined Ma-SU engine with\n"
        "                      shared-ancestor coalescing (default);\n"
        "                      none: the paper's serial Ma-SU\n"
        "  --sample-interval N sample the stat tree every N simulated\n"
        "                      cycles into a windowed timeline\n"
        "  --stats-timeline F  write the timeline to F (JSON, or CSV\n"
        "                      when F ends in .csv); needs\n"
        "                      --sample-interval\n"
        "  --selfbench         benchmark the simulator itself: report\n"
        "                      simulated instructions/sec and, when\n"
        "                      compiled in, per-component host-time\n"
        "                      attribution, then exit\n"
        "  --seed N | --stats | --list | --help\n"
        "Numbers must be whole unsigned values; a malformed value or "
        "unknown name\n"
        "is rejected (exit 2), never clamped.\n"
        "exit codes: 0 ok, 1 verification failure, 2 usage, "
        "3 attack alarm,\n"
        "            4 unrecoverable media fault\n");
    std::exit(code);
}

/** --inject-fault KIND / --media-fault K (K names media-K). */
verify::FaultKind
faultValue(cli::Args &args, const std::string &prefix)
{
    const std::string name = prefix + args.value();
    const auto kind = verify::parseFaultKind(name);
    if (!kind)
        args.fail("unknown fault kind '%s'", name.c_str());
    return *kind;
}

Options
parse(int argc, char **argv)
{
    Options o;
    cli::Args args(argc, argv, usage);
    while (args.next()) {
        if (args.is("--workload"))
            o.workload = args.workload();
        else if (args.is("--mode"))
            o.mode = args.mode();
        else if (args.is("--txns"))
            o.txns = args.number();
        else if (args.is("--tx-size"))
            o.txSize = args.number<unsigned>();
        else if (args.is("--keys"))
            o.numKeys = args.number();
        else if (args.is("--think"))
            o.thinkTime = args.number();
        else if (args.is("--wpq"))
            o.wpqBudget = args.number<unsigned>();
        else if (args.is("--wpq-watermark"))
            o.wpqWatermark = args.percent();
        else if (args.is("--tree"))
            o.tree = TreeUpdatePolicy(args.choice({"eager", "lazy"}));
        else if (args.is("--crash-scheme"))
            o.crashScheme = CrashScheme(args.choice({"anubis", "osiris"}));
        else if (args.is("--crash-at"))
            o.crashAt = args.number();
        else if (args.is("--seed"))
            o.seed = args.number();
        else if (args.is("--stats"))
            o.stats = true;
        else if (args.is("--no-coalescing"))
            o.noCoalescing = true;
        else if (args.is("--trace"))
            o.traceFile = args.value();
        else if (args.is("--stats-json"))
            o.statsJsonFile = args.value();
        else if (args.is("--inject-fault"))
            o.injectFault = faultValue(args, "");
        else if (args.is("--media-fault"))
            o.injectFault = faultValue(args, "media-");
        else if (args.is("--media-region"))
            o.mediaRegion =
                NvmRegion(args.choice({"data", "counter", "mac", "tree"}));
        else if (args.is("--scrub-interval"))
            o.scrubInterval = args.number();
        else if (args.is("--spares"))
            o.spares = args.number<unsigned>();
        else if (args.is("--eadr-budget"))
            o.eadrBudget = args.number();
        else if (args.is("--damage-json"))
            o.damageJsonFile = args.value();
        else if (args.is("--verify-manifest"))
            o.verifyManifest = true;
        else if (args.is("--verify-perf-equiv"))
            o.verifyPerfEquiv = true;
        else if (args.is("--opt-knobs"))
            o.bmtPipeline = args.bmtPipeline();
        else if (args.is("--sample-interval"))
            o.sampleInterval = args.number();
        else if (args.is("--stats-timeline"))
            o.timelineFile = args.value();
        else if (args.is("--selfbench"))
            o.selfbench = true;
        else if (args.is("--list")) {
            for (const auto &n : extendedWorkloadNames())
                std::printf("%s\n", n.c_str());
            std::exit(0);
        } else if (args.is("--help") || args.is("-h"))
            usage(ExitOk);
        else
            args.unknown();
    }
    if (o.mediaRegion != NvmRegion::Data &&
        o.injectFault != verify::FaultKind::MediaTransient &&
        o.injectFault != verify::FaultKind::MediaStuck)
        args.fail("--media-region needs --media-fault transient|stuck");
    if ((o.sampleInterval == 0) != o.timelineFile.empty())
        args.fail("--sample-interval and --stats-timeline must be used "
                  "together");
    return o;
}

/** Write the run metrics + full stat tree as one JSON document. */
void
writeStatsJson(std::ostream &os, const System &sys, const RunResult &res)
{
    os << "{\"run\":{"
       << "\"workload\":\"" << res.workload << "\""
       << ",\"mode\":\"" << securityModeName(res.mode) << "\""
       << ",\"transactions\":" << res.transactions
       << ",\"runCycles\":" << res.runCycles
       << ",\"instructions\":" << res.instructions
       << ",\"cyclesPerTx\":" << res.cyclesPerTx()
       << ",\"cpi\":" << res.cpi
       << ",\"retriesPerKwr\":" << res.retriesPerKwr
       << ",\"retryEvents\":" << res.retryEvents
       << ",\"writeRequests\":" << res.writeRequests
       << ",\"fenceStallCycles\":" << res.fenceStallCycles
       << ",\"wpqReadHits\":" << res.wpqReadHits
       << ",\"coalesces\":" << res.coalesces
       << ",\"crashed\":" << (res.crashed ? "true" : "false")
       << ",\"verified\":" << (res.verified ? "true" : "false")
       << "},\"stats\":";
    sys.dumpStatsJson(os);
    os << "}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);

    if (o.selfbench) {
        SelfbenchOptions sb;
        sb.workload = o.workload;
        sb.txns = o.txns;
        sb.numKeys = o.numKeys;
        sb.seed = o.seed;
        sb.mode = o.mode;
        const auto r = runSelfbench(sb);
        formatSelfbench(r, std::cout);
        return ExitOk;
    }

    if (o.verifyManifest) {
        bool ok = true;
        for (const auto &res :
             verify::verifyCrashManifestAllModes(o.seed)) {
            std::fputs(verify::formatManifestReport(res).c_str(),
                       stdout);
            ok = ok && res.ok();
        }
        std::printf("verify-manifest     : %s\n", ok ? "PASS" : "FAIL");
        return ok ? ExitOk : ExitViolation;
    }

    if (o.verifyPerfEquiv) {
        bool ok = true;
        for (const auto &res : verify::verifyPerfEquivAll(o.seed)) {
            std::printf("%s\n",
                        verify::formatPerfEquivReport(res).c_str());
            ok = ok && res.ok();
        }
        std::printf("verify-perf-equiv   : %s\n", ok ? "PASS" : "FAIL");
        return ok ? ExitOk : ExitViolation;
    }

    if (!o.traceFile.empty()) {
#if DOLOS_TRACING
        trace::Tracer::instance().enable();
#else
        std::fprintf(stderr,
                     "--trace requested but tracing was compiled out "
                     "(rebuild with -DDOLOS_TRACING=ON)\n");
        return 1;
#endif
    }

    auto cfg = SystemConfig::paperDefault();
    cfg.mode = o.mode;
    cfg.secure.treePolicy = o.tree;
    cfg.secure.crashScheme = o.crashScheme;
    cfg.wpq.adrBudgetEntries = o.wpqBudget;
    cfg.wpq.partialEntries = o.wpqBudget * 8 / 9 - 1;
    cfg.wpq.postEntries =
        o.wpqBudget > 6 ? o.wpqBudget * 8 / 9 - 4 : o.wpqBudget / 2;
    cfg.wpq.coalescing = !o.noCoalescing;
    if (o.wpqWatermark)
        cfg.wpq.drainWatermarkPct = *o.wpqWatermark;
    cfg.secure.bmtPipeline = o.bmtPipeline;
    cfg.secure.scrubIntervalWrites = o.scrubInterval;
    if (o.spares)
        cfg.nvm.spareBlocks = *o.spares;
    // A zero budget is rejected by validateConfig below (loudly, via
    // the invalid_argument catch), not clamped.
    if (o.eadrBudget)
        cfg.eadr.energyBudgetCycles = *o.eadrBudget;
    std::optional<System> sys_storage;
    try {
        sys_storage.emplace(cfg);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return ExitUsage;
    }
    System &sys = *sys_storage;

    WorkloadParams params;
    params.txSize = o.txSize;
    params.numKeys = o.numKeys;
    params.seed = o.seed;
    params.thinkTime = o.thinkTime;
    auto wl = makeWorkload(o.workload, params);

    std::optional<CrashPlan> crash;
    if (o.crashAt) {
        crash.emplace();
        crash->atOp = *o.crashAt;
    }

    std::optional<stats::StatSampler> sampler;
    if (o.sampleInterval) {
        sampler.emplace(o.sampleInterval);
        sys.attachStatSampler(&*sampler);
        sampler->begin(sys.core().now());
    }

    // --inject-fault: the fault episode dolos_fuzz runs (see
    // FaultInjector::injectAndProvoke), armed now, provoked after the
    // run's report.
    std::optional<verify::FaultInjector> inj;
    std::optional<verify::InjectionRecord> armed;
    if (o.injectFault) {
        inj.emplace(sys, o.seed);
        armed = inj->armBeforeRun(*o.injectFault);
    }

    const auto res = runWorkload(sys, *wl, o.txns, crash);

    if (sampler) {
        sampler->finish(sys.core().now());
        sys.attachStatSampler(nullptr);
        std::ofstream out(o.timelineFile);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n",
                         o.timelineFile.c_str());
            return 1;
        }
        const bool csv =
            o.timelineFile.size() > 4 &&
            o.timelineFile.compare(o.timelineFile.size() - 4, 4,
                                   ".csv") == 0;
        if (csv)
            sampler->dumpCsv(out);
        else
            sampler->dumpJson(out);
        std::printf("stats timeline      : %s (%zu windows)\n",
                    o.timelineFile.c_str(), sampler->windowCount());
    }

    std::printf("workload            : %s\n", res.workload.c_str());
    std::printf("mode                : %s\n",
                securityModeName(res.mode));
    std::printf("transactions        : %" PRIu64 "%s\n",
                std::uint64_t(res.transactions),
                res.crashed ? " (power failure injected)" : "");
    std::printf("cycles/transaction  : %.0f\n", res.cyclesPerTx());
    std::printf("CPI                 : %.3f\n", res.cpi);
    std::printf("retry events / KWR  : %.2f\n", res.retriesPerKwr);
    std::printf("fence stall cycles  : %" PRIu64 "\n",
                std::uint64_t(res.fenceStallCycles));
    std::printf("WPQ read hits       : %" PRIu64 "\n",
                std::uint64_t(res.wpqReadHits));
    std::printf("coalesced writes    : %" PRIu64 "\n",
                std::uint64_t(res.coalesces));
    std::printf("verified            : %s\n",
                res.verified ? "yes" : "NO");
    if (!res.verified)
        std::printf("  diagnostic: %s\n", res.verifyDiagnostic.c_str());
    std::printf("attacks detected    : %" PRIu64 "\n",
                std::uint64_t(sys.engine().attacksDetected()));

    if (armed) {
        const auto rec =
            inj->injectAndProvoke(*armed, res.crashed, nullptr,
                                  o.mediaRegion);
        std::printf("fault injected      : %s%s (%s)\n",
                    verify::faultKindName(rec.kind),
                    rec.injected ? "" : " [no target found]",
                    rec.detail.c_str());
        std::printf("post-fault alarms   : %" PRIu64 "\n",
                    std::uint64_t(sys.engine().attacksDetected()));
        std::printf("media: retries %llu, healed %llu, quarantined "
                    "%zu blocks\n",
                    (unsigned long long)sys.engine().mediaRetries(),
                    (unsigned long long)sys.engine().mediaHealed(),
                    sys.nvmDevice().quarantineCount());
        std::printf("repairs: ctr %llu, tree %llu, mac %llu, "
                    "cascaded %llu, reanchored %llu\n",
                    (unsigned long long)
                        sys.engine().counterBlocksRebuilt(),
                    (unsigned long long)sys.engine().treeNodesRepaired(),
                    (unsigned long long)sys.engine().macBlocksRebuilt(),
                    (unsigned long long)sys.engine().cascadedBlocks(),
                    (unsigned long long)sys.engine().rootReanchors());
    }

    if (o.scrubInterval) {
        std::printf("scrub: %llu passes, %llu repairs\n",
                    (unsigned long long)sys.engine().scrubPasses(),
                    (unsigned long long)sys.engine().scrubRepairs());
    }

    if (!o.damageJsonFile.empty()) {
        if (o.damageJsonFile == "-") {
            sys.dumpDamageJson(std::cout);
        } else {
            std::ofstream out(o.damageJsonFile);
            if (!out) {
                std::fprintf(stderr, "cannot write %s\n",
                             o.damageJsonFile.c_str());
                return 1;
            }
            sys.dumpDamageJson(out);
            std::printf("damage json         : %s\n",
                        o.damageJsonFile.c_str());
        }
    }

    if (o.stats) {
        std::printf("\n");
        sys.dumpStats(std::cout);
    }

    if (!o.statsJsonFile.empty()) {
        std::ofstream out(o.statsJsonFile);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n",
                         o.statsJsonFile.c_str());
            return 1;
        }
        writeStatsJson(out, sys, res);
        std::printf("stats json          : %s\n",
                    o.statsJsonFile.c_str());
    }

#if DOLOS_TRACING
    if (!o.traceFile.empty()) {
        auto &tracer = trace::Tracer::instance();
        tracer.disable();
        std::ofstream out(o.traceFile);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n",
                         o.traceFile.c_str());
            return 1;
        }
        tracer.dump(out);
        std::printf("trace               : %s (%zu events, %" PRIu64
                    " dropped)\n",
                    o.traceFile.c_str(), tracer.size(),
                    tracer.dropped());
    }
#endif
    return exitCodeFor(res.verified, sys.attackDetected(),
                       sys.unrecoverableMedia());
}
