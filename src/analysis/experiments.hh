/**
 * @file
 * The experiment grid: run every benchmark on every Table 5 machine
 * configuration and derive the paper's headline numbers (Table 4
 * baseline throughput, Figure 5 speedups, the Flexible harmonic means,
 * the per-application best configuration).
 *
 * anisotropic-filter is excluded from the performance grid, exactly as
 * in the paper ("we exclude it from all our performance tables and
 * figures", Section 5.2 footnote); it still appears in Table 2.
 */

#ifndef DLP_ANALYSIS_EXPERIMENTS_HH
#define DLP_ANALYSIS_EXPERIMENTS_HH

#include <map>
#include <string>
#include <vector>

#include "arch/processor.hh"
#include "driver/sweep.hh"

namespace dlp::analysis {

/** Kernel names of the performance suite (Table 4 / Figure 5 order). */
const std::vector<std::string> &perfKernels();

/** Kernel names grouped the way Figure 5 groups them. */
const std::vector<std::string> &figure5Order();

/** Results indexed by [kernel][config]. */
using Grid = std::map<std::string, std::map<std::string, arch::ExperimentResult>>;

/**
 * Run the full grid on the sweep driver.
 *
 * The experiments are independent; with more than one job they run
 * concurrently and the returned Grid is bit-identical to a serial run
 * (each job gets an isolated workload + processor and a fixed output
 * slot).
 *
 * @param scaleDiv divide each kernel's default problem scale by this
 *                 (tests use larger divisors for speed; benches use 1)
 * @param seed     dataset seed
 * @param opts     jobs, store and cache settings of the sweep
 */
Grid runGrid(uint64_t scaleDiv = 1, uint64_t seed = 1234,
             const driver::SweepOptions &opts = {});

/** Run one kernel on one configuration at default/scaled size. */
arch::ExperimentResult runExperiment(const std::string &kernel,
                                     const std::string &config,
                                     uint64_t scaleDiv = 1,
                                     uint64_t seed = 1234);

/** Speedup of config over baseline for one kernel (cycles ratio). */
double speedup(const Grid &grid, const std::string &kernel,
               const std::string &config);

/** The config with the fewest cycles for a kernel (Figure 5 grouping). */
std::string bestConfig(const Grid &grid, const std::string &kernel);

/**
 * Harmonic-mean speedup over baseline of a fixed configuration across
 * the performance suite; pass "flexible" for the per-application best
 * (the paper's Flexible bar).
 */
double meanSpeedup(const Grid &grid, const std::string &config);

} // namespace dlp::analysis

#endif // DLP_ANALYSIS_EXPERIMENTS_HH
