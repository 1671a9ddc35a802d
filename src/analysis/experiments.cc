#include "analysis/experiments.hh"

#include <algorithm>

#include "analysis/report.hh"
#include "arch/configs.hh"
#include "common/logging.hh"
#include "kernels/catalog.hh"
#include "kernels/workload.hh"

namespace dlp::analysis {

const std::vector<std::string> &
perfKernels()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v = kernels::kernelNames();
        std::erase(v, "anisotropic-filter");
        return v;
    }();
    return names;
}

const std::vector<std::string> &
figure5Order()
{
    // Figure 5 groups programs by preferred configuration: the
    // S-preferring pair, then the S-O group, then the M-D group.
    static const std::vector<std::string> names = {
        "fft",           "lu",
        "convert",       "dct",
        "highpassfilter","vertex-reflection",
        "fragment-reflection", "fragment-simple",
        "vertex-simple", "md5",
        "blowfish",      "rijndael",
        "vertex-skinning"};
    return names;
}

arch::ExperimentResult
runExperiment(const std::string &kernel, const std::string &config,
              uint64_t scaleDiv, uint64_t seed)
{
    return driver::runTask({kernel, config, scaleDiv, seed});
}

Grid
runGrid(uint64_t scaleDiv, uint64_t seed, const driver::SweepOptions &opts)
{
    driver::SweepPlan plan;
    plan.addGrid(perfKernels(), arch::allConfigNames(), scaleDiv, seed);
    auto results = driver::runSweep(plan, opts);

    Grid grid;
    for (size_t i = 0; i < plan.tasks.size(); ++i)
        grid[plan.tasks[i].kernel][plan.tasks[i].config] =
            std::move(results[i]);
    return grid;
}

double
speedup(const Grid &grid, const std::string &kernel,
        const std::string &config)
{
    const auto &base = grid.at(kernel).at("baseline");
    const auto &cfg = grid.at(kernel).at(config);
    panic_if(cfg.cycles == 0, "zero cycles for %s on %s", kernel.c_str(),
             config.c_str());
    return double(base.cycles) / double(cfg.cycles);
}

std::string
bestConfig(const Grid &grid, const std::string &kernel)
{
    std::string best = "baseline";
    Cycles bestCycles = grid.at(kernel).at("baseline").cycles;
    for (const auto &config : arch::allConfigNames()) {
        Cycles c = grid.at(kernel).at(config).cycles;
        if (c < bestCycles) {
            bestCycles = c;
            best = config;
        }
    }
    return best;
}

double
meanSpeedup(const Grid &grid, const std::string &config)
{
    std::vector<double> speedups;
    for (const auto &kernel : perfKernels()) {
        std::string cfg =
            config == "flexible" ? bestConfig(grid, kernel) : config;
        speedups.push_back(speedup(grid, kernel, cfg));
    }
    return harmonicMean(speedups);
}

} // namespace dlp::analysis
