/**
 * @file
 * Figure 12: speedup of Dolos (Full/Partial/Post Mi-SU) over the
 * Pre-WPQ-Secure baseline with the eager-update Merkle tree,
 * transaction size 1024B.
 *
 * Paper: average speedups 1.66x (Full), 1.66x (Partial), 1.59x (Post).
 *
 * Every mode drains its WPQ at the same watermark (--wpq-watermark,
 * default WpqParams::drainWatermarkPct). The right-hand columns put
 * the same Dolos runs against a baseline whose WPQ drains eagerly
 * (watermark 0), since a baseline coalesce saves no security work.
 */

#include "bench/common.hh"

using namespace dolos;
using namespace dolos::bench;

int
main(int argc, char **argv)
{
    const auto opts = BenchOptions::parse(argc, argv);
    printHeader("Figure 12: Dolos speedup, eager Merkle tree, 1024B tx",
                "avg speedup Full=1.66x Partial=1.66x Post=1.59x",
                opts);

    const SecurityMode designs[] = {SecurityMode::DolosFullWpq,
                                    SecurityMode::DolosPartialWpq,
                                    SecurityMode::DolosPostWpq};
    const char *labels[] = {"full", "partial", "post"};
    BenchReport report("fig12_speedup_eager", opts);

    auto eager_opts = opts;
    eager_opts.wpqWatermark = 0;

    std::printf("%-12s %10s %10s %10s %10s %10s %10s\n", "benchmark",
                "Full", "Partial", "Post", "Full*", "Partial*", "Post*");
    std::vector<double> avg[3], avg_eager[3];
    for (const auto &wl : workloads::workloadNames()) {
        const auto base =
            runOne(wl, SecurityMode::PreWpqSecure, opts);
        const auto eager_base =
            runOne(wl, SecurityMode::PreWpqSecure, eager_opts);
        double speedup[3], speedup_eager[3];
        for (int d = 0; d < 3; ++d) {
            const auto res = runOne(wl, designs[d], opts);
            speedup[d] = base.cyclesPerTx() / res.cyclesPerTx();
            speedup_eager[d] = eager_base.cyclesPerTx() / res.cyclesPerTx();
            avg[d].push_back(speedup[d]);
            avg_eager[d].push_back(speedup_eager[d]);
            report.add(wl + "." + labels[d] + ".speedup", speedup[d]);
        }
        report.add(wl + ".baseline.cyclesPerTx", base.cyclesPerTx());
        report.add(wl + ".eagerBaseline.cyclesPerTx",
                   eager_base.cyclesPerTx());
        std::printf("%-12s %9.2fx %9.2fx %9.2fx %9.2fx %9.2fx %9.2fx\n",
                    wl.c_str(), speedup[0], speedup[1], speedup[2],
                    speedup_eager[0], speedup_eager[1], speedup_eager[2]);
    }
    std::printf("%-12s %9.2fx %9.2fx %9.2fx %9.2fx %9.2fx %9.2fx\n",
                "average", mean(avg[0]), mean(avg[1]), mean(avg[2]),
                mean(avg_eager[0]), mean(avg_eager[1]),
                mean(avg_eager[2]));
    std::printf("*: over a baseline whose WPQ drains eagerly "
                "(watermark 0)\n");
    for (int d = 0; d < 3; ++d) {
        report.add(std::string("average.") + labels[d] + ".speedup",
                   mean(avg[d]));
        report.add(std::string("average.") + labels[d] +
                       ".speedupVsEagerBaseline",
                   mean(avg_eager[d]));
    }
    report.write();
    return 0;
}
