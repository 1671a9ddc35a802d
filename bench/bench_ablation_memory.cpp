/**
 * @file
 * Ablation A2: memory-system sensitivity.
 *
 * Sweeps (a) the SMC bank / streaming-channel bandwidth and (b) the
 * revitalize broadcast delay on a bandwidth-hungry kernel (fft) and a
 * compute-bound one (vertex-simple), both on the S configuration.
 */

#include <iostream>

#include "analysis/report.hh"
#include "arch/configs.hh"
#include "arch/processor.hh"
#include "common/logging.hh"
#include "driver/cli.hh"
#include "kernels/workload.hh"

using namespace dlp;
using namespace dlp::analysis;

namespace {

double
run(const core::MachineParams &m, const char *kernel)
{
    auto wl = kernels::makeWorkload(kernel,
                                    kernels::defaultScale(kernel) / 4, 99);
    arch::TripsProcessor cpu(m);
    auto res = cpu.run(*wl);
    fatal_if(!res.verified, "%s failed: %s", kernel, res.error.c_str());
    return res.opsPerCycle();
}

int
run(int argc, char **argv)
{
    driver::Cli().parse(argc, argv);
    setQuietLogging(true);

    std::cout << "Ablation: SMC words/cycle (config S)\n\n";
    TextTable bw;
    bw.header({"words/cycle", "fft ops/cyc", "vertex-simple ops/cyc"});
    for (unsigned wpc : {2u, 4u, 8u}) {
        core::MachineParams m = arch::configByName("S");
        m.memParams.smcWordsPerCycle = wpc;
        bw.row({std::to_string(wpc), fmt(run(m, "fft")),
                fmt(run(m, "vertex-simple"))});
    }
    bw.print(std::cout);

    std::cout << "\nAblation: revitalize broadcast delay (config S)\n\n";
    TextTable rv;
    rv.header({"delay (cycles)", "fft ops/cyc", "vertex-simple ops/cyc"});
    for (unsigned d : {1u, 4u, 16u, 64u}) {
        core::MachineParams m = arch::configByName("S");
        m.revitalizeDelay = d;
        rv.row({std::to_string(d), fmt(run(m, "fft")),
                fmt(run(m, "vertex-simple"))});
    }
    rv.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain(argc, argv, run);
}
