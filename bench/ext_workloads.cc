/**
 * @file
 * Extension: the echo and vacation workloads (WHISPER applications
 * beyond the paper's six) across the three Mi-SU designs — checking
 * that Dolos' benefit generalizes to multi-key snapshot commits and
 * multi-table reservation transactions.
 */

#include "bench/common.hh"

using namespace dolos;
using namespace dolos::bench;

int
main(int argc, char **argv)
{
    const auto opts = BenchOptions::parse(argc, argv);
    printHeader("Extension: echo + vacation workloads",
                "(beyond the paper's six WHISPER benchmarks)", opts);

    const SecurityMode designs[] = {SecurityMode::DolosFullWpq,
                                    SecurityMode::DolosPartialWpq,
                                    SecurityMode::DolosPostWpq};

    std::printf("%-12s %10s %10s %10s %12s\n", "benchmark", "Full",
                "Partial", "Post", "retries(P)");
    for (const std::string wl : {"echo", "vacation"}) {
        workloads::WorkloadParams p;
        p.txSize = 1024;
        p.numKeys = opts.numKeys;
        p.seed = opts.seed;
        p.thinkTime = 60000;
        p.readsPerTx = 2;

        auto run = [&](SecurityMode mode) {
            return runVerified(benchConfig(mode, opts), wl, p, opts);
        };

        const auto base = run(SecurityMode::PreWpqSecure);
        double speedup[3];
        double retries_partial = 0;
        for (int d = 0; d < 3; ++d) {
            const auto res = run(designs[d]);
            speedup[d] = base.cyclesPerTx() / res.cyclesPerTx();
            if (designs[d] == SecurityMode::DolosPartialWpq)
                retries_partial = res.retriesPerKwr;
        }
        std::printf("%-12s %9.2fx %9.2fx %9.2fx %12.2f\n", wl.c_str(),
                    speedup[0], speedup[1], speedup[2],
                    retries_partial);
    }
    return 0;
}
