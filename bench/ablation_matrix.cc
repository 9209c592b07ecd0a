/**
 * @file
 * Ablation matrix: one lever at a time on the bench machine, judged
 * end to end on cycles per transaction.
 *
 * Each row is a name plus one change to the bench machine
 * (benchConfig: Table 1 with the command line's Ma-SU engine and
 * drain watermark). Every row runs the baseline and the three Dolos
 * designs on the six workloads and reports the geomean cycles/tx per
 * mode and the Figure 12 average speedup over the row's own
 * baseline. A row's lever applies to all four modes; the watermark
 * rows override --wpq-watermark, and the other rows take it.
 *
 * The levers: the pipelined Ma-SU engine (`serial` turns it off), the
 * WPQ drain watermark (0 is the eager queue), WPQ write coalescing,
 * the Mi-SU MAC latency (Table 1: 160 cycles), the NVM bank count
 * (Table 1: 8) and the crash-consistency scheme (Anubis shadow table
 * by default, `osiris` for Osiris ECC probing).
 */

#include <functional>

#include "bench/common.hh"

using namespace dolos;
using namespace dolos::bench;

namespace
{

struct Row
{
    std::string name;
    std::function<void(SystemConfig &)> lever;
};

std::vector<Row>
matrixRows()
{
    std::vector<Row> rows = {
        {"default", [](SystemConfig &) {}},
        {"serial",
         [](SystemConfig &c) { c.secure.bmtPipeline = false; }},
    };
    for (const unsigned pct : {0u, 25u, 50u, 100u})
        rows.push_back({"watermark=" + std::to_string(pct),
                        [pct](SystemConfig &c) {
                            c.wpq.drainWatermarkPct = pct;
                        }});
    rows.push_back({"coalescing=off",
                    [](SystemConfig &c) { c.wpq.coalescing = false; }});
    for (const Cycles mac : {40u, 80u, 320u, 640u})
        rows.push_back({"misuMac=" + std::to_string(mac),
                        [mac](SystemConfig &c) {
                            c.wpq.misuMacLatency = mac;
                        }});
    for (const unsigned banks : {1u, 2u, 4u, 16u})
        rows.push_back({"banks=" + std::to_string(banks),
                        [banks](SystemConfig &c) {
                            c.nvm.numBanks = banks;
                        }});
    rows.push_back({"osiris", [](SystemConfig &c) {
                        c.secure.crashScheme = CrashScheme::Osiris;
                    }});
    return rows;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = BenchOptions::parse(argc, argv);
    printHeader("Ablation matrix: one lever per row (cycles/tx)",
                "(beyond the paper; Figure 12 average 1.66x at the "
                "Table 1 machine)",
                opts);
    BenchReport report("ablation_matrix", opts);

    const SecurityMode modes[] = {
        SecurityMode::PreWpqSecure, SecurityMode::DolosFullWpq,
        SecurityMode::DolosPartialWpq, SecurityMode::DolosPostWpq};
    const char *labels[] = {"baseline", "full", "partial", "post"};

    std::printf("%-15s %10s %10s %10s %10s   %7s %7s %7s\n", "row",
                "baseline", "Full", "Partial", "Post", "Full",
                "Partial", "Post");
    for (const auto &row : matrixRows()) {
        std::vector<double> cycles[4], speedup[3];
        for (const auto &wl : workloads::workloadNames()) {
            double base = 0;
            for (int m = 0; m < 4; ++m) {
                auto cfg = benchConfig(modes[m], opts);
                row.lever(cfg);
                const double c =
                    runVerified(cfg, wl, presetFor(wl, opts), opts)
                        .cyclesPerTx();
                cycles[m].push_back(c);
                report.add(row.name + "." + wl + "." + labels[m] +
                               ".cyclesPerTx",
                           c);
                if (m == 0)
                    base = c;
                else
                    speedup[m - 1].push_back(base / c);
            }
        }
        std::printf("%-15s", row.name.c_str());
        for (int m = 0; m < 4; ++m) {
            std::printf(" %10.0f", geomean(cycles[m]));
            report.add(row.name + "." + labels[m] +
                           ".geomeanCyclesPerTx",
                       geomean(cycles[m]));
        }
        std::printf("  ");
        for (int d = 0; d < 3; ++d) {
            std::printf(" %6.2fx", mean(speedup[d]));
            report.add(row.name + "." + labels[d + 1] + ".speedup",
                       mean(speedup[d]));
        }
        std::printf("\n");
    }
    std::printf("columns 2-5: geomean cycles/tx over the six workloads;"
                "\ncolumns 6-8: Figure 12 average speedup over the "
                "row's own baseline\n");
    report.write();
    return 0;
}
