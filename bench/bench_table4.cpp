/**
 * @file
 * Regenerates Table 4: useful computation operations per cycle on the
 * baseline (ILP-mode) TRIPS processor, next to the paper's numbers.
 *
 * The paper's trend -- DSP kernels sustain the highest throughput and
 * the irregular/control-heavy kernels the lowest -- is the claim under
 * test; absolute values depend on the authors' simulator internals.
 *
 * `bench_table4 --help` lists the options.
 * The 13 baseline simulations are independent; --jobs (or DLP_JOBS)
 * runs them concurrently on the sweep driver. --audit (or DLP_AUDIT=1)
 * checks every run against the conservation invariants and fails the
 * bench on any violation. --check (or DLP_CHECK=1) statically verifies
 * every scheduled program before it runs; Error findings abort.
 * --store=DIR (or DLP_STORE=DIR) serves warm cells from the persistent
 * result store and writes cold ones back.
 * --trace-out=FILE captures a Chrome-trace/Perfetto timeline;
 * --timeseries=N samples every stat each N simulated ticks (also
 * DLP_TIMELINE / DLP_TIMESERIES).
 */

#include <chrono>
#include <iostream>
#include <map>
#include <vector>

#include "analysis/experiments.hh"
#include "analysis/export.hh"
#include "analysis/report.hh"
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

    static const std::map<std::string, double> paper = {
        {"convert", 14.1},          {"dct", 10.4},
        {"highpassfilter", 7.4},    {"fft", 3.7},
        {"lu", 0.7},                {"md5", 2.8},
        {"blowfish", 5.1},          {"rijndael", 7.5},
        {"vertex-simple", 3.6},     {"fragment-simple", 2.6},
        {"vertex-reflection", 5.2}, {"fragment-reflection", 4.0},
        {"vertex-skinning", 5.6},
    };

    driver::SweepPlan plan;
    for (const auto &kernel : perfKernels())
        plan.add(kernel, "baseline", scaleDiv);

    auto t0 = std::chrono::steady_clock::now();
    auto results = driver::runSweep(plan, opts);
    double wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    std::cout << "Table 4: baseline TRIPS useful ops/cycle "
                 "(ours vs. paper)\n\n";
    TextTable t;
    t.header({"Benchmark", "ops/cycle", "paper", "cycles", "records"});
    double dspOurs = 0, otherOurs = 0;
    int dspN = 0, otherN = 0;
    for (const auto &res : results) {
        const std::string &kernel = res.kernel;
        double oc = res.opsPerCycle();
        t.row({kernel, fmt(oc), fmt(paper.at(kernel), 1),
               std::to_string(res.cycles), std::to_string(res.records)});
        bool dsp = kernel == "convert" || kernel == "dct" ||
                   kernel == "highpassfilter";
        (dsp ? dspOurs : otherOurs) += oc;
        (dsp ? dspN : otherN)++;
    }
    t.print(std::cout);
    std::cout << "\nDSP mean " << fmt(dspOurs / dspN)
              << " ops/cycle (paper ~11); non-DSP mean "
              << fmt(otherOurs / otherN) << " (paper ~4).\n";

    size_t auditViolations = 0;
    bool audited = false;
    for (const auto &res : results) {
        if (!res.audited)
            continue;
        audited = true;
        for (const auto &f : res.auditViolations) {
            std::cout << "AUDIT VIOLATION " << res.kernel << "/"
                      << res.config << ": " << f.invariant << ": "
                      << f.detail << "\n";
            ++auditViolations;
        }
    }
    if (audited)
        std::cout << "\nAudit: " << auditViolations
                  << " invariant violation(s) across the sweep\n";

    unsigned jobs = driver::effectiveJobs(opts);
    std::cout << "\nSweep: " << results.size() << " simulations in "
              << fmt(wallSeconds, 2) << " s with " << jobs
              << (jobs == 1 ? " worker\n" : " workers\n");

    json::Value doc = toJson(results);
    doc.set("table", "table4");
    doc.set("scaleDiv", scaleDiv);
    doc.set("wallSeconds", wallSeconds);
    doc.set("jobs", uint64_t(jobs));
    doc.set("store", driver::storeStatsJson());
    json::Value ref = json::Value::object();
    for (const auto &[kernel, oc] : paper)
        ref.set(kernel, oc);
    doc.set("paperOpsPerCycle", std::move(ref));
    writeJsonFile("BENCH_table4.json", doc);
    std::cout << "\nWrote BENCH_table4.json\n";

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
