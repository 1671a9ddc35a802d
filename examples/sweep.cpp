/**
 * @file
 * The sweep CLI: run an arbitrary slice of the experiment space —
 * kernels × configurations × scale divisors × seeds — on the parallel
 * sweep driver, with live progress and the standard JSON export.
 *
 *   ./build/examples/sweep                          # full perf grid
 *   ./build/examples/sweep --kernels fft,lu --jobs 8
 *   ./build/examples/sweep --configs S,S-O,M-D --scale-div 4
 *   ./build/examples/sweep --seeds 1..5 --json seeds.json
 *
 * Every slice takes --audit, --check, --store, --trace-out and
 * --timeseries, as the grid benches do; `sweep --help` lists the
 * options and their defaults. With --store DIR, warm cells load from
 * DIR and cold ones simulate and are written back, so a rerun is
 * near-instant and bit-identical; --audit violations are listed,
 * exported in the JSON, and make the exit code nonzero.
 */

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/experiments.hh"
#include "analysis/export.hh"
#include "arch/configs.hh"
#include "common/logging.hh"
#include "driver/cli.hh"
#include "driver/sweep.hh"
#include "obs/timeline.hh"

using namespace dlp;

namespace {

int
run(int argc, char **argv)
{
    setQuietLogging(true);
    std::vector<std::string> kernels = analysis::perfKernels();
    std::vector<std::string> configs = arch::allConfigNames();
    std::vector<uint64_t> scaleDivs = {1};
    std::vector<uint64_t> seeds = {1234};
    std::string jsonPath = "SWEEP.json";
    bool quiet = false;
    driver::SweepOptions opts;

    driver::Cli cli({
        driver::kernelsOption(kernels, "the Table 4 suite"),
        driver::configsOption(configs, "all, baseline first"),
        {"--scale-div", "n,m,...", "scale divisors (default: 1)",
         driver::setUintList(scaleDivs)},
        {"--seeds", "a,b|a..b", "dataset seeds (default: 1234)",
         driver::setUintList(seeds)},
        {"--json", "FILE", "output path (default: SWEEP.json)",
         driver::setString(jsonPath)},
        {"--no-cache", nullptr, "bypass the process-wide result cache",
         driver::setFlag(opts.useCache, false)},
        {"--quiet", nullptr, "suppress per-task progress lines",
         driver::setFlag(quiet)},
    });
    cli.add(driver::gridOptions(opts));
    cli.parse(argc, argv);

    driver::SweepPlan plan;
    for (uint64_t seed : seeds)
        for (uint64_t div : scaleDivs)
            plan.addGrid(kernels, configs, div, seed);

    unsigned jobs = driver::effectiveJobs(opts);
    std::printf("sweep: %zu simulations (%zu kernels x %zu configs x "
                "%zu scale-divs x %zu seeds) on %u worker%s\n",
                plan.size(), kernels.size(), configs.size(),
                scaleDivs.size(), seeds.size(), jobs,
                jobs == 1 ? "" : "s");

    if (!quiet) {
        opts.progress = [](const driver::SweepProgress &p) {
            std::printf("  [%3zu/%3zu] %s/%s div=%" PRIu64 " seed=%" PRIu64
                        "%s\n",
                        p.done, p.total, p.task->kernel.c_str(),
                        p.task->config.c_str(), p.task->scaleDiv,
                        p.task->seed, p.cached ? " (cached)" : "");
            std::fflush(stdout);
        };
    }

    auto t0 = std::chrono::steady_clock::now();
    auto results = driver::runSweep(plan, opts);
    double wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    std::printf("\nsweep finished in %.2f s (%zu results, cache: %" PRIu64
                " hits, %" PRIu64 " misses)\n",
                wallSeconds, results.size(), driver::resultCacheHits(),
                driver::resultCacheMisses());
    {
        auto st = driver::storeTraffic();
        if (st.hits || st.misses || st.inserts)
            std::printf("store: %" PRIu64 " hits, %" PRIu64 " misses, %"
                        PRIu64 " inserts (%" PRIu64 " entries, %" PRIu64
                        " bytes on disk)\n",
                        st.hits, st.misses, st.inserts, st.entries,
                        st.bytes);
    }

    size_t auditViolations = 0;
    bool audited = false;
    for (const auto &res : results) {
        if (!res.audited)
            continue;
        audited = true;
        for (const auto &f : res.auditViolations) {
            std::printf("AUDIT VIOLATION %s/%s: %s: %s\n",
                        res.kernel.c_str(), res.config.c_str(),
                        f.invariant.c_str(), f.detail.c_str());
            ++auditViolations;
        }
    }
    if (audited)
        std::printf("audit: %zu invariant violation(s) across %zu "
                    "audited runs\n",
                    auditViolations, results.size());

    json::Value doc = analysis::toJson(results);
    doc.set("sweep", "custom");
    doc.set("jobs", uint64_t(jobs));
    doc.set("wallSeconds", wallSeconds);
    doc.set("store", driver::storeStatsJson());
    analysis::writeJsonFile(jsonPath, doc);
    std::printf("wrote %s\n", jsonPath.c_str());

    std::string tracePath = obs::finish();
    if (!tracePath.empty())
        std::printf("wrote timeline %s (open in Perfetto or "
                    "chrome://tracing)\n", tracePath.c_str());
    return auditViolations ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain(argc, argv, run);
}
