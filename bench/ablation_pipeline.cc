/**
 * @file
 * Ablation: the memory-backend security engine serializing its tree
 * updates (the paper's model) vs pipelining them across writes with
 * per-level MAC engines and shared-ancestor coalescing (Freij et al.
 * MICRO'20; SecureParams::bmtPipeline, the default machine).
 *
 * Pipelining shrinks the baseline's front-side queueing, so Dolos'
 * advantage contracts — quantifying how much of Dolos' win comes
 * from hiding *serialized* backend latency. The third column tests
 * the paper's "orthogonal integration" claim: pipelined Dolos against
 * the serial baseline. The bench sets the engine per column, so
 * --opt-knobs has no effect here.
 */

#include "bench/common.hh"

using namespace dolos;
using namespace dolos::bench;

namespace
{

workloads::RunResult
runPipelined(const std::string &wl, SecurityMode mode,
             const BenchOptions &opts, bool pipelined)
{
    auto cfg = SystemConfig::paperDefault();
    cfg.mode = mode;
    cfg.secure.bmtPipeline = pipelined;
    System sys(cfg);
    auto w = workloads::makeWorkload(wl, presetFor(wl, opts));
    return workloads::runWorkload(sys, *w, opts.txns);
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = BenchOptions::parse(argc, argv);
    printHeader("Ablation: serialized vs pipelined backend engine",
                "(beyond the paper; paper model = serialized)", opts);

    std::printf("%-12s %16s %16s %18s\n", "benchmark",
                "speedup(serial)", "speedup(piped)",
                "piped-dolos/serial-base");
    std::vector<double> s1, s2, s3;
    for (const auto &wl : workloads::workloadNames()) {
        const auto base_s =
            runPipelined(wl, SecurityMode::PreWpqSecure, opts, false);
        const auto dolos_s = runPipelined(
            wl, SecurityMode::DolosPartialWpq, opts, false);
        const auto base_p =
            runPipelined(wl, SecurityMode::PreWpqSecure, opts, true);
        const auto dolos_p = runPipelined(
            wl, SecurityMode::DolosPartialWpq, opts, true);
        const double serial =
            base_s.cyclesPerTx() / dolos_s.cyclesPerTx();
        const double piped =
            base_p.cyclesPerTx() / dolos_p.cyclesPerTx();
        const double combined =
            base_s.cyclesPerTx() / dolos_p.cyclesPerTx();
        s1.push_back(serial);
        s2.push_back(piped);
        s3.push_back(combined);
        std::printf("%-12s %15.2fx %15.2fx %17.2fx\n", wl.c_str(),
                    serial, piped, combined);
    }
    std::printf("%-12s %15.2fx %15.2fx %17.2fx\n", "average",
                mean(s1), mean(s2), mean(s3));
    return 0;
}
