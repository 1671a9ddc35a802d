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
 * Options:
 *   --cores a,b,...   core counts to serve with (default: 1,2,4,8)
 *   --rps R           offered load, requests per second (default: 2000)
 *   --requests N      requests per run (default: 256)
 *   --batch N         records per request — the per-request problem
 *                     scale; must be valid for every mix kernel, e.g. a
 *                     power of two for fft (default: 256)
 *   --mix spec        comma-separated kernel[:weight] entries
 *                     (default: convert:2,md5,fft)
 *   --config NAME     machine configuration per core (default: S-O-D)
 *   --arrival a       arrival discipline: uniform | poisson
 *                     (default: uniform)
 *   --seed S          schedule + dataset seed (default: 1)
 *   --seed-pool P     distinct dataset seeds cycled per kernel
 *                     (default: 2)
 *   --bandwidth W     shared L2/SMC bandwidth, words per tick
 *                     (default: one core's worth of SMC banks)
 *   --jobs N          worker threads for the profile sweep (default:
 *                     DLP_JOBS, else 1; 0 = one per hardware thread)
 *   --json FILE       output path (default: SERVE.json)
 *   --store DIR       persistent result store: profile runs and the
 *                     service documents land under their
 *                     content-addressed keys (also: DLP_STORE=DIR)
 *   --no-cache        bypass the process-wide result cache
 *   --audit           check the multi-core conservation laws (also:
 *                     DLP_AUDIT=1); violations exit nonzero
 *   --timeseries N    sample queue depth / flows every N simulated
 *                     ticks into the "timeseries" JSON object
 *   --quiet           suppress the per-run progress lines
 *
 * Every run is bit-reproducible from its flags: same seed and
 * parameters give byte-identical JSON, independent of --jobs.
 */

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/export.hh"
#include "arch/configs.hh"
#include "common/logging.hh"
#include "driver/job_pool.hh"
#include "driver/service.hh"
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
    std::string storeDir;
    bool quiet = false;
    if (const char *env = std::getenv("DLP_STORE"); env && *env)
        storeDir = env;

    auto value = [&](int &i) -> const char * {
        usage_error_if(i + 1 >= argc, "%s needs an argument", argv[i]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--cores") == 0) {
            coreCounts = driver::parseUintListFlag("--cores", value(i));
        } else if (std::strcmp(argv[i], "--rps") == 0) {
            opts.traffic.rps = driver::parseRealFlag("--rps", value(i));
        } else if (std::strcmp(argv[i], "--requests") == 0) {
            opts.traffic.requests =
                driver::parseUintFlag("--requests", value(i));
        } else if (std::strcmp(argv[i], "--batch") == 0) {
            opts.traffic.batch = driver::parseUintFlag("--batch", value(i));
        } else if (std::strcmp(argv[i], "--mix") == 0) {
            opts.traffic.mix = traffic::parseMix(value(i));
        } else if (std::strcmp(argv[i], "--config") == 0) {
            opts.config = value(i);
        } else if (std::strcmp(argv[i], "--arrival") == 0) {
            opts.traffic.arrival = traffic::arrivalByName(value(i));
        } else if (std::strcmp(argv[i], "--seed") == 0) {
            opts.traffic.seed = driver::parseUintFlag("--seed", value(i));
        } else if (std::strcmp(argv[i], "--seed-pool") == 0) {
            opts.traffic.seedPool =
                driver::parseUintFlag("--seed-pool", value(i));
        } else if (std::strcmp(argv[i], "--bandwidth") == 0) {
            opts.bandwidthWordsPerTick =
                driver::parseRealFlag("--bandwidth", value(i));
        } else if (std::strcmp(argv[i], "--jobs") == 0) {
            opts.jobs = driver::JobPool::parseJobsFlag(value(i));
        } else if (std::strcmp(argv[i], "--json") == 0) {
            jsonPath = value(i);
        } else if (std::strncmp(argv[i], "--store=", 8) == 0) {
            storeDir = argv[i] + 8;
        } else if (std::strcmp(argv[i], "--store") == 0) {
            storeDir = value(i);
        } else if (std::strcmp(argv[i], "--no-cache") == 0) {
            opts.useCache = false;
        } else if (std::strcmp(argv[i], "--audit") == 0) {
            verify::setAuditEnabled(true);
        } else if (std::strncmp(argv[i], "--timeseries=", 13) == 0) {
            opts.timeseriesInterval =
                driver::parseUintFlag("--timeseries", argv[i] + 13);
        } else if (std::strcmp(argv[i], "--timeseries") == 0) {
            opts.timeseriesInterval =
                driver::parseUintFlag("--timeseries", value(i));
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            quiet = true;
        } else {
            usage_error("unknown option '%s' (see the header of "
                        "examples/serve_bench.cpp)", argv[i]);
        }
    }
    opts.storeDir = storeDir;

    // Validate names up front, before any simulation.
    (void)arch::configByName(opts.config);
    for (const auto &e : opts.traffic.mix)
        (void)kernels::kernelByName(e.kernel);

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

    json::Value doc = json::Value::object();
    doc.set("generator", "dlp-sim");
    doc.set("paper",
            "Universal Mechanisms for Data-Parallel Architectures "
            "(MICRO 2003)");
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
