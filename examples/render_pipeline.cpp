/**
 * @file
 * Real-time-graphics example: a two-stage rendering pipeline (vertex
 * lighting followed by textured fragment shading) run end to end on the
 * configurable processor.
 *
 * This is the scenario of Section 4.3's closing discussion: the same
 * homogeneous ALU array executes both pipeline stages -- here
 * sequentially reconfigured between stages; a partitioned-array version
 * is the paper's future-work "dynamic partitioning based on scene
 * attributes".
 */

#include <cinttypes>
#include <cstdio>

#include "arch/configs.hh"
#include "arch/processor.hh"
#include "common/logging.hh"
#include "driver/cli.hh"
#include "kernels/workload.hh"

using namespace dlp;

namespace {

void
runStage(const char *stage, const char *kernel, const char *config,
         uint64_t records, Cycles &totalCycles)
{
    auto wl = kernels::makeWorkload(kernel, records, 404);
    arch::TripsProcessor cpu(arch::configByName(config));
    auto res = cpu.run(*wl);
    fatal_if(!res.verified, "%s failed verification: %s", kernel,
             res.error.c_str());
    totalCycles += res.cycles;
    std::printf("  %-10s %-20s on %-6s: %8" PRIu64 " cycles, %5.2f ops/cycle, "
                "verified\n",
                stage, kernel, config, res.cycles,
                res.opsPerCycle());
}

int
run(int argc, char **argv)
{
    driver::Cli().parse(argc, argv);
    setQuietLogging(true);
    const uint64_t vertices = 2048;
    const uint64_t fragments = 4096;

    std::printf("Two-stage rendering pipeline (%" PRIu64 " vertices, %" PRIu64 " "
                "fragments)\n\n",
                vertices,
                fragments);

    Cycles total = 0;
    // Vertex stage: constant-heavy, regular records -> S-O.
    runStage("vertex", "vertex-simple", "S-O", vertices, total);
    // Fragment stage: irregular texture fetches through the cached L1.
    runStage("fragment", "fragment-simple", "S-O", fragments, total);
    std::printf("\n  frame total: %" PRIu64 " cycles\n\n",
                total);

    std::printf("With skinned characters the vertex stage has "
                "data-dependent bone loops;\nthe flexible machine "
                "switches it to the MIMD configuration instead:\n\n");
    Cycles total2 = 0;
    runStage("vertex", "vertex-skinning", "M-D", vertices, total2);
    runStage("fragment", "fragment-reflection", "S-O", fragments, total2);
    std::printf("\n  frame total: %" PRIu64 " cycles\n",
                total2);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain(argc, argv, run);
}
