/**
 * @file
 * Configuration-exploration example: take any benchmark kernel from the
 * command line, run it across every Table 5 machine configuration, and
 * report which mechanisms pay off -- the "dynamically tailor the
 * architecture to the application" workflow the paper proposes.
 *
 * The per-configuration simulations run on the sweep driver: they
 * share one immutable workload fixture, run concurrently with --jobs N
 * (or DLP_JOBS), and land in the process-wide result cache, so a
 * refinement pass over an overlapping configuration set skips the
 * configurations already measured.
 *
 *   ./build/examples/explore_configs blowfish
 *   ./build/examples/explore_configs vertex-skinning 4096 --jobs 4
 *   ./build/examples/explore_configs md5 --json md5.json
 *
 * `explore_configs --help` lists the arguments and options.
 */

#include <cinttypes>
#include <cstdio>
#include <string>

#include "analysis/export.hh"
#include "arch/configs.hh"
#include "arch/processor.hh"
#include "common/logging.hh"
#include "driver/cli.hh"
#include "driver/sweep.hh"
#include "kernels/catalog.hh"
#include "kernels/workload.hh"

using namespace dlp;

namespace {

int
run(int argc, char **argv)
{
    setQuietLogging(true);
    std::string kernel = "blowfish";
    std::string jsonPath;
    uint64_t scale = 0;
    driver::SweepOptions opts;
    driver::Cli({
        {"kernel", nullptr, "the kernel to explore (default: blowfish)",
         [&](auto name, auto &v) {
             driver::checkName(name, v, kernels::kernelNames());
             kernel = v;
         }},
        {"scale", nullptr, "problem scale (default or 0: the kernel's)",
         driver::setUint(scale)},
        {"--json", "FILE", "write the results as a JSON document",
         driver::setString(jsonPath)},
        driver::jobsOption(opts.jobs),
    }).parse(argc, argv);
    if (!scale)
        scale = kernels::defaultScale(kernel);

    std::printf("exploring machine configurations for '%s' "
                "(scale %" PRIu64 ", %u workers)\n\n",
                kernel.c_str(), scale, driver::effectiveJobs(opts));

    driver::SweepPlan plan;
    for (const auto &config : arch::allConfigNames())
        plan.tasks.push_back({kernel, config, 1, 11, scale});
    auto results = driver::runSweep(plan, opts);

    std::printf("  %-9s %12s %10s %12s %10s\n", "config", "cycles",
                "ops/cyc", "activations", "speedup");
    Cycles base = 0;
    std::string best;
    Cycles bestCycles = ~Cycles(0);
    for (const auto &res : results) {
        if (res.config == "baseline")
            base = res.cycles;
        if (res.cycles < bestCycles) {
            bestCycles = res.cycles;
            best = res.config;
        }
        std::printf("  %-9s %12" PRIu64 " %10.2f %12" PRIu64 " %9.2fx\n",
                    res.config.c_str(), res.cycles, res.opsPerCycle(),
                    res.activations, double(base) / double(res.cycles));
    }
    std::printf("\n  -> best configuration for %s: %s\n", kernel.c_str(),
                best.c_str());

    if (!jsonPath.empty()) {
        json::Value doc = analysis::toJson(results);
        doc.set("kernel", kernel);
        doc.set("scale", scale);
        doc.set("bestConfig", best);
        analysis::writeJsonFile(jsonPath, doc);
        std::printf("  wrote %s\n", jsonPath.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain(argc, argv, run);
}
