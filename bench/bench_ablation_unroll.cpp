/**
 * @file
 * Ablation A1: instruction-storage / unrolling sensitivity.
 *
 * Sweeps the per-tile reservation-station count (frame size). More
 * storage lets the scheduler replicate more kernel instances per block
 * (bigger U), amortizing revitalization and register traffic -- the
 * "unrolled as much as possible, as determined by the number of
 * reservation stations" design point of Section 4.3.
 */

#include <iostream>

#include "analysis/experiments.hh"
#include "analysis/report.hh"
#include "arch/configs.hh"
#include "arch/processor.hh"
#include "common/logging.hh"
#include "driver/cli.hh"
#include "kernels/workload.hh"

using namespace dlp;
using namespace dlp::analysis;

namespace {

int
run(int argc, char **argv)
{
    driver::Cli().parse(argc, argv);
    setQuietLogging(true);
    std::cout << "Ablation: frame storage vs throughput (config S-O)\n\n";

    TextTable t;
    t.header({"Kernel", "slots/tile", "unroll-capable insts", "ops/cycle",
              "cycles"});
    for (const char *kernel : {"convert", "fft", "rijndael"}) {
        for (unsigned slots : {4u, 8u, 16u, 32u}) {
            core::MachineParams m = arch::configByName("S-O");
            m.frameSlots = slots;
            auto wl = kernels::makeWorkload(
                kernel, kernels::defaultScale(kernel) / 4, 99);
            arch::TripsProcessor cpu(m);
            auto res = cpu.run(*wl);
            fatal_if(!res.verified, "%s failed: %s", kernel,
                     res.error.c_str());
            t.row({kernel, std::to_string(slots),
                   std::to_string(m.totalSlots() / m.pipelineFrames),
                   fmt(res.opsPerCycle()), std::to_string(res.cycles)});
        }
    }
    t.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain(argc, argv, run);
}
