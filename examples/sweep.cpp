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
 * Options:
 *   --kernels a,b,...    kernel names, or "all" (default: the Table 4
 *                        performance suite)
 *   --configs a,b,...    Table 5 configuration names, or "all"
 *                        (default: all, baseline first)
 *   --scale-div n,m,...  scale divisors (default: 1)
 *   --seeds a,b or a..b  dataset seeds, list or inclusive range
 *                        (default: 1234)
 *   --jobs N             worker threads (default: DLP_JOBS, else 1;
 *                        0 = one per hardware thread)
 *   --json FILE          output path (default: SWEEP.json)
 *   --no-cache           bypass the process-wide result cache
 *   --store DIR          persistent content-addressed result store:
 *                        warm cells load from DIR, cold cells simulate
 *                        and are written back, so a rerun is
 *                        near-instant and bit-identical (also:
 *                        DLP_STORE=DIR)
 *   --quiet              suppress per-task progress lines
 *   --audit              check every run against the conservation
 *                        invariants (also: DLP_AUDIT=1); violations are
 *                        listed, exported in the JSON, and exit nonzero
 *   --check              statically verify every scheduled program
 *                        before it runs (also: DLP_CHECK=1); a plan
 *                        with Error findings aborts the sweep
 *   --trace-out FILE     capture a timeline of the sweep (simulated
 *                        spans + host-side cells/fixtures/jobs) as
 *                        Chrome trace JSON, loadable in Perfetto
 *                        (also: DLP_TIMELINE=FILE)
 *   --timeseries N       sample every registered stat each N simulated
 *                        ticks into the per-experiment "timeseries"
 *                        JSON object (also: DLP_TIMESERIES=N)
 */

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/experiments.hh"
#include "analysis/export.hh"
#include "arch/configs.hh"
#include "common/logging.hh"
#include "driver/job_pool.hh"
#include "driver/sweep.hh"
#include "kernels/catalog.hh"
#include "kernels/workload.hh"
#include "check/verify.hh"
#include "obs/timeline.hh"
#include "verify/audit.hh"

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

    auto value = [&](int &i) -> const char * {
        usage_error_if(i + 1 >= argc, "%s needs an argument", argv[i]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--kernels") == 0) {
            std::string v = value(i);
            if (v != "all")
                kernels = driver::splitList(v);
        } else if (std::strcmp(argv[i], "--configs") == 0) {
            std::string v = value(i);
            if (v != "all")
                configs = driver::splitList(v);
        } else if (std::strcmp(argv[i], "--scale-div") == 0) {
            scaleDivs = driver::parseUintListFlag("--scale-div", value(i));
        } else if (std::strcmp(argv[i], "--seeds") == 0) {
            seeds = driver::parseUintListFlag("--seeds", value(i));
        } else if (std::strcmp(argv[i], "--jobs") == 0) {
            opts.jobs = driver::JobPool::parseJobsFlag(value(i));
        } else if (std::strcmp(argv[i], "--json") == 0) {
            jsonPath = value(i);
        } else if (std::strncmp(argv[i], "--store=", 8) == 0) {
            opts.storeDir = argv[i] + 8;
        } else if (std::strcmp(argv[i], "--store") == 0) {
            opts.storeDir = value(i);
        } else if (std::strcmp(argv[i], "--no-cache") == 0) {
            opts.useCache = false;
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            quiet = true;
        } else if (std::strcmp(argv[i], "--audit") == 0) {
            verify::setAuditEnabled(true);
        } else if (std::strcmp(argv[i], "--check") == 0) {
            check::setCheckEnabled(true);
        } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
            obs::setOutputPath(argv[i] + 12);
            obs::setRecording(true);
        } else if (std::strcmp(argv[i], "--trace-out") == 0) {
            obs::setOutputPath(value(i));
            obs::setRecording(true);
        } else if (std::strncmp(argv[i], "--timeseries=", 13) == 0) {
            obs::setTimeseriesInterval(
                driver::parseUintFlag("--timeseries", argv[i] + 13));
        } else if (std::strcmp(argv[i], "--timeseries") == 0) {
            obs::setTimeseriesInterval(
                driver::parseUintFlag("--timeseries", value(i)));
        } else {
            usage_error("unknown option '%s' (see the header of "
                        "examples/sweep.cpp)", argv[i]);
        }
    }

    // Validate names up front: a typo should fail before an hour-long
    // sweep, not in the middle of it.
    for (const auto &k : kernels)
        (void)kernels::kernelByName(k);
    for (const auto &c : configs)
        (void)arch::configByName(c);

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
