/**
 * @file
 * Regenerates Figure 5 (speedup of each mechanism configuration over the
 * baseline, programs grouped by best configuration, plus the Flexible
 * harmonic-mean comparison) and prints the Table 5 configuration matrix
 * for reference.
 *
 * Paper's qualitative shape (Section 5.3):
 *  - fft/lu prefer S (about 4x over baseline; M slightly degrades),
 *  - seven programs prefer S-O (constant-heavy),
 *  - blowfish/rijndael gain 27%/80% from the L0 store over S-O but are
 *    still beaten by M-D,
 *  - md5/blowfish/rijndael/vertex-skinning prefer M-D,
 *  - Flexible beats fixed S by ~55%, fixed S-O by ~20%, fixed M-D by ~5%.
 *
 * `bench_figure5 --help` lists the options.
 * --quick divides every kernel's scale by 8; --jobs (or DLP_JOBS) runs
 * the grid's cells concurrently on the sweep driver.
 * --audit (or DLP_AUDIT=1) evaluates the conservation invariants on
 * every run; --check (or DLP_CHECK=1) statically verifies every
 * scheduled program before it runs and aborts on Error findings.
 * --store=DIR (or DLP_STORE=DIR) serves warm grid cells from the
 * persistent result store and writes cold ones back, so a second run
 * is near-instant and bit-identical.
 * --trace-out=FILE captures a Chrome-trace/Perfetto timeline of the
 * grid; --timeseries=N samples every stat each N simulated ticks into
 * the per-experiment "timeseries" JSON object (also DLP_TIMELINE /
 * DLP_TIMESERIES).
 * Epoch fast-forwarding (steady-state trace JIT) is on by default and
 * bit-identical to full simulation; --no-fast-forward (or
 * DLP_FASTFORWARD=0) forces event-by-event execution, --fast-forward
 * forces it back on.
 */

#include <chrono>
#include <iostream>

#include "analysis/experiments.hh"
#include "analysis/export.hh"
#include "analysis/report.hh"
#include "arch/configs.hh"
#include "common/logging.hh"
#include "driver/cli.hh"
#include "driver/sweep.hh"
#include "epoch/epoch.hh"
#include "obs/timeline.hh"

using namespace dlp;
using namespace dlp::analysis;

namespace {

int
run(int argc, char **argv)
{
    setQuietLogging(true);
    uint64_t scaleDiv = 1;
    driver::SweepOptions opts;
    driver::Cli cli({
        {"--quick", nullptr, "divide every kernel's scale by 8",
         [&](auto, auto &) { scaleDiv = 8; }},
        {"--fast-forward", nullptr, "fast-forward steady state (the default)",
         [](auto, auto &) { epoch::setFastForwardEnabled(true); }},
        {"--no-fast-forward", nullptr, "simulate every event",
         [](auto, auto &) { epoch::setFastForwardEnabled(false); }},
    });
    cli.add(driver::gridOptions(opts));
    cli.parse(argc, argv);
    unsigned effectiveJobs = driver::effectiveJobs(opts);

    std::cout << "Table 5: machine configurations\n";
    TextTable t5;
    t5.header({"Config", "L0 inst", "L0 data", "Inst revit", "Op revit",
               "Model"});
    t5.row({"S", "N", "N", "Y", "N", "SIMD"});
    t5.row({"S-O", "N", "N", "Y", "Y", "SIMD + scalar constants"});
    t5.row({"S-O-D", "N", "Y", "Y", "Y",
            "SIMD + scalar constants + lookup table"});
    t5.row({"M", "Y", "N", "N", "N", "MIMD"});
    t5.row({"M-D", "Y", "Y", "N", "N", "MIMD + lookup table"});
    t5.print(std::cout);
    std::cout << "\nRunning the experiment grid (13 kernels x 6 configs, "
              << effectiveJobs
              << (effectiveJobs == 1 ? " worker)" : " workers)")
              << (scaleDiv > 1 ? " [quick mode]" : "") << "...\n\n";

    auto t0 = std::chrono::steady_clock::now();
    Grid grid = runGrid(scaleDiv, 1234, opts);
    double wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    std::cout << "Figure 5: speedup over baseline (grouped by best "
                 "config)\n";
    TextTable fig;
    fig.header({"Benchmark", "S", "S-O", "S-O-D", "M", "M-D", "best",
                "base cycles"});
    for (const auto &kernel : figure5Order()) {
        fig.row({kernel, fmt(speedup(grid, kernel, "S")),
                 fmt(speedup(grid, kernel, "S-O")),
                 fmt(speedup(grid, kernel, "S-O-D")),
                 fmt(speedup(grid, kernel, "M")),
                 fmt(speedup(grid, kernel, "M-D")),
                 bestConfig(grid, kernel),
                 std::to_string(grid.at(kernel).at("baseline").cycles)});
    }
    fig.print(std::cout);

    std::cout << "\nFlexible vs fixed configurations (harmonic mean "
                 "speedup over baseline):\n";
    TextTable flex;
    flex.header({"Config", "hmean speedup", "flexible advantage"});
    double flexible = meanSpeedup(grid, "flexible");
    for (const auto &config : {"S", "S-O", "S-O-D", "M", "M-D"}) {
        double s = meanSpeedup(grid, config);
        flex.row({config, fmt(s),
                  fmt((flexible / s - 1.0) * 100.0, 1) + "%"});
    }
    flex.row({"Flexible", fmt(flexible), "-"});
    flex.print(std::cout);

    std::cout << "\nPaper reference: Flexible is +55% over fixed S, +20% "
                 "over fixed S-O, +5% over fixed M-D.\n";

    std::cout << "\nGrid wall clock: " << fmt(wallSeconds, 2) << " s with "
              << effectiveJobs
              << (effectiveJobs == 1 ? " worker\n" : " workers\n");

    // With --audit (or DLP_AUDIT=1) every run in the grid was checked
    // against the conservation invariants; a violation fails the bench.
    size_t auditViolations = 0;
    bool audited = false;
    for (const auto &[kernel, byConfig] : grid) {
        for (const auto &[config, res] : byConfig) {
            if (!res.audited)
                continue;
            audited = true;
            for (const auto &f : res.auditViolations) {
                std::cout << "AUDIT VIOLATION " << kernel << "/" << config
                          << ": " << f.invariant << ": " << f.detail
                          << "\n";
                ++auditViolations;
            }
        }
    }
    if (audited)
        std::cout << "\nAudit: " << auditViolations
                  << " invariant violation(s) across the grid\n";

    json::Value doc = toJson(grid);
    doc.set("figure", "figure5");
    doc.set("scaleDiv", scaleDiv);
    doc.set("wallSeconds", wallSeconds);
    doc.set("jobs", uint64_t(effectiveJobs));
    doc.set("store", driver::storeStatsJson());
    json::Value means = json::Value::object();
    for (const auto &config : {"S", "S-O", "S-O-D", "M", "M-D", "flexible"})
        means.set(config, meanSpeedup(grid, config));
    doc.set("meanSpeedups", std::move(means));
    writeJsonFile("BENCH_figure5.json", doc);
    std::cout << "\nWrote BENCH_figure5.json\n";

    std::string tracePath = obs::finish();
    if (!tracePath.empty())
        std::cout << "Wrote timeline " << tracePath
                  << " (open in Perfetto or chrome://tracing)\n";
    return auditViolations ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain(argc, argv, run);
}
