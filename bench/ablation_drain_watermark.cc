/**
 * @file
 * Ablation: the WPQ drain watermark (WpqParams::drainWatermarkPct).
 * The oldest undrained entry drains once P% of the mode's entries
 * are undrained; P = 0 is the eager queue. A higher watermark leaves
 * entries in the queue for later writes to coalesce into, at the
 * cost of fewer free slots for a burst.
 *
 * For each P the driver runs the six workloads on the baseline and
 * the three Dolos designs, every mode at the same P, and prints the
 * geometric-mean cycles/tx per mode, the geomean over all 24 runs
 * (the figure of merit that picks the default P) and the Figure 12
 * average speedups.
 */

#include "bench/common.hh"

using namespace dolos;
using namespace dolos::bench;

int
main(int argc, char **argv)
{
    const auto cli_opts = BenchOptions::parse(argc, argv);
    printHeader("Ablation: WPQ drain watermark (cycles/tx geomean)",
                "(beyond the paper; the paper does not specify the "
                "drain policy)", cli_opts);
    BenchReport report("ablation_drain_watermark", cli_opts);

    const SecurityMode modes[] = {
        SecurityMode::PreWpqSecure, SecurityMode::DolosFullWpq,
        SecurityMode::DolosPartialWpq, SecurityMode::DolosPostWpq};
    const char *labels[] = {"baseline", "full", "partial", "post"};
    const unsigned percents[] = {0, 25, 50, 75, 100};

    std::printf("%-5s %10s %10s %10s %10s %10s   %7s %7s %7s\n", "P%",
                "baseline", "Full", "Partial", "Post", "all",
                "Full", "Partial", "Post");
    for (const unsigned pct : percents) {
        auto opts = cli_opts;
        opts.wpqWatermark = pct;
        std::vector<double> cycles[4], all, speedup[3];
        for (const auto &wl : workloads::workloadNames()) {
            double base = 0;
            for (int m = 0; m < 4; ++m) {
                const double c = runOne(wl, modes[m], opts).cyclesPerTx();
                cycles[m].push_back(c);
                all.push_back(c);
                if (m == 0)
                    base = c;
                else
                    speedup[m - 1].push_back(base / c);
            }
        }
        const std::string key = "p" + std::to_string(pct);
        std::printf("%-5u", pct);
        for (int m = 0; m < 4; ++m) {
            std::printf(" %10.0f", geomean(cycles[m]));
            report.add(key + "." + labels[m] + ".cyclesPerTx",
                       geomean(cycles[m]));
        }
        std::printf(" %10.0f  ", geomean(all));
        report.add(key + ".all.cyclesPerTx", geomean(all));
        for (int d = 0; d < 3; ++d) {
            std::printf(" %6.2fx", mean(speedup[d]));
            report.add(key + "." + labels[d + 1] + ".speedup",
                       mean(speedup[d]));
        }
        std::printf("\n");
    }
    std::printf("columns 2-6: geomean cycles/tx over the six workloads "
                "(all: the 24 runs);\ncolumns 7-9: Figure 12 average "
                "speedup over the baseline at the same P\n");
    report.write();
    return 0;
}
