/**
 * @file
 * Ablation A3: network hop latency and L0 data-store sensitivity.
 *
 * (a) Hop delay: the paper's 10FO4 clock makes a hop half a cycle;
 *     slower networks hurt the dataflow configurations most.
 * (b) L0 store latency: the gap between S-O and S-O-D on the
 *     table-driven crypto kernels is exactly the L0 mechanism's value.
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

    std::cout << "Ablation: mesh hop delay (config S-O)\n\n";
    TextTable hop;
    hop.header({"hop (ticks)", "convert", "fft", "vertex-simple"});
    for (unsigned h : {1u, 2u, 4u}) {
        core::MachineParams m = arch::configByName("S-O");
        m.hopTicks = h;
        hop.row({std::to_string(h), fmt(run(m, "convert")),
                 fmt(run(m, "fft")), fmt(run(m, "vertex-simple"))});
    }
    hop.print(std::cout);

    std::cout << "\nAblation: indexed-constant mechanism on the crypto "
                 "kernels\n\n";
    TextTable l0;
    l0.header({"Machine", "blowfish ops/cyc", "rijndael ops/cyc"});
    {
        core::MachineParams so = arch::configByName("S-O");
        l0.row({"S-O (tables in L1)", fmt(run(so, "blowfish")),
                fmt(run(so, "rijndael"))});
        core::MachineParams sod = arch::configByName("S-O-D");
        l0.row({"S-O-D (L0, 1 cycle)", fmt(run(sod, "blowfish")),
                fmt(run(sod, "rijndael"))});
        core::MachineParams slow = sod;
        slow.l0Latency = 4;
        l0.row({"S-O-D (L0, 4 cycles)", fmt(run(slow, "blowfish")),
                fmt(run(slow, "rijndael"))});
        core::MachineParams md = arch::configByName("M-D");
        l0.row({"M-D (local PCs + L0)", fmt(run(md, "blowfish")),
                fmt(run(md, "rijndael"))});
    }
    l0.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain(argc, argv, run);
}
