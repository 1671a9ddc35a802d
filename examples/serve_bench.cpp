/**
 * @file
 * serve_bench: multi-core scale-out serving under open-loop traffic.
 *
 * Serve a seeded request stream (kernel mix drawn from the Table 1
 * catalog) on N grid cores behind the shared L2/SMC, and report
 * sustained throughput, latency percentiles and shared-memory
 * contention per core count:
 *
 *   ./build/examples/serve_bench --cores 4 --rps 2000 \
 *       --mix convert:2,md5,fft
 *   ./build/examples/serve_bench --cores 1,2,4,8 --json SERVE.json
 *
 * `serve_bench --help` lists the options and their defaults. --batch,
 * the records per request, is the per-request problem scale and must
 * be valid for every mix kernel (a power of two for fft).
 *
 * Every run is bit-reproducible from its flags: same seed and
 * parameters give byte-identical JSON, independent of --jobs.
 */

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/export.hh"
#include "arch/configs.hh"
#include "common/logging.hh"
#include "driver/cli.hh"
#include "driver/service.hh"
#include "driver/sweep.hh"
#include "kernels/catalog.hh"
#include "store/key.hh"
#include "store/result_store.hh"
#include "verify/audit.hh"

using namespace dlp;

namespace {

int
run(int argc, char **argv)
{
    setQuietLogging(true);
    std::vector<uint64_t> coreCounts = {1, 2, 4, 8};
    driver::ServiceOptions opts;
    opts.traffic.rps = 2000.0;
    opts.traffic.mix = traffic::parseMix("convert:2,md5,fft");
    std::string jsonPath = "SERVE.json";
    bool quiet = false;

    driver::Cli({
        {"--cores", "a,b,...", "core counts (default: 1,2,4,8)",
         driver::setUintList(coreCounts)},
        {"--rps", "R", "offered requests per second (default: 2000)",
         driver::setReal(opts.traffic.rps)},
        {"--requests", "N", "requests per run (default: 256)",
         driver::setUint(opts.traffic.requests)},
        {"--batch", "N", "records per request (default: 256)",
         driver::setUint(opts.traffic.batch)},
        {"--mix", "spec", "kernel[:weight],... (default: convert:2,md5,fft)",
         [&](auto name, auto &v) {
             opts.traffic.mix = traffic::parseMix(v);
             for (const auto &e : opts.traffic.mix)
                 driver::checkName(name, e.kernel, kernels::kernelNames());
         }},
        {"--config", "NAME", "configuration per core (default: S-O-D)",
         [&](auto name, auto &v) {
             driver::checkName(name, v, arch::allConfigNames());
             opts.config = v;
         }},
        {"--arrival", "a", "uniform (default) or poisson",
         [&](auto name, auto &v) {
             driver::checkName(name, v, {"uniform", "poisson"});
             opts.traffic.arrival = traffic::arrivalByName(v);
         }},
        {"--seed", "S", "schedule + dataset seed (default: 1)",
         driver::setUint(opts.traffic.seed)},
        {"--seed-pool", "P", "dataset seeds per kernel (default: 2)",
         driver::setUint(opts.traffic.seedPool)},
        {"--bandwidth", "W", "shared L2/SMC words per tick (default: 1 core's)",
         driver::setReal(opts.bandwidthWordsPerTick)},
        driver::jobsOption(opts.jobs),
        {"--json", "FILE", "output path (default: SERVE.json)",
         driver::setString(jsonPath)},
        {"--store", "DIR", "persistent result store (also: DLP_STORE=DIR)",
         driver::setString(opts.storeDir)},
        {"--no-cache", nullptr, "bypass the process-wide result cache",
         driver::setFlag(opts.useCache, false)},
        {"--audit", nullptr, "check multi-core laws (also: DLP_AUDIT=1)",
         [](auto, auto &) { verify::setAuditEnabled(true); }},
        {"--timeseries", "N", "sample queue depth each N simulated ticks",
         driver::setUint(opts.timeseriesInterval)},
        {"--quiet", nullptr, "suppress the per-run progress lines",
         driver::setFlag(quiet)},
    }).parse(argc, argv);

    std::string storeDir = driver::storeDirFor(opts.storeDir);
    std::unique_ptr<store::ResultStore> serviceStore;
    if (!storeDir.empty())
        serviceStore = std::make_unique<store::ResultStore>(storeDir);

    std::printf("serve_bench: %s, %" PRIu64 " requests at %.0f rps "
                "(%s arrivals), batch %" PRIu64 ", seed %" PRIu64 "\n",
                opts.config.c_str(), opts.traffic.requests,
                opts.traffic.rps,
                traffic::arrivalName(opts.traffic.arrival),
                opts.traffic.batch, opts.traffic.seed);
    std::printf("%6s %12s %12s %12s %12s %10s %12s\n", "cores",
                "sustained/s", "p50(ticks)", "p95(ticks)", "p99(ticks)",
                "maxQueue", "stallTicks");

    json::Value doc = analysis::document();
    json::Value services = json::Value::array();

    size_t auditViolations = 0;
    for (uint64_t cores : coreCounts) {
        opts.cores = unsigned(cores);
        arch::ServiceResult res = driver::runService(opts);

        const GroupSnapshot &shared = res.group("mem.shared");
        double stall = 0.0;
        if (auto it = shared.scalars.find("stallTicks");
            it != shared.scalars.end())
            stall = it->second;
        std::printf("%6" PRIu64 " %12.1f %12.0f %12.0f %12.0f %10.0f "
                    "%12.0f\n",
                    cores, res.sustainedRps, res.p50, res.p95, res.p99,
                    res.maxQueueDepth, stall);
        std::fflush(stdout);

        for (const auto &f : res.auditViolations) {
            std::printf("AUDIT VIOLATION (%" PRIu64 " cores): %s: %s\n",
                        cores, f.invariant.c_str(), f.detail.c_str());
            ++auditViolations;
        }

        json::Value serviceDoc = analysis::toJson(res);
        if (serviceStore) {
            std::string key = store::serviceKey(
                opts.config, opts.cores, res.bandwidthWordsPerTick,
                opts.traffic);
            serviceStore->insertRaw(key, serviceDoc, "service");
            if (!quiet)
                std::printf("  stored service doc %s\n", key.c_str());
        }
        services.push(std::move(serviceDoc));
    }
    doc.set("services", std::move(services));
    analysis::writeJsonFile(jsonPath, doc);
    std::printf("wrote %s\n", jsonPath.c_str());
    return auditViolations ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain(argc, argv, run);
}
