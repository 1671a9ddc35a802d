/**
 * @file
 * Tests for the multi-core serving stack: the open-loop traffic
 * generator (schedule determinism, the deterministic log, mix
 * parsing), the MultiCoreSystem queueing composition (percentile
 * order, conservation, shared-bandwidth contention scaling) and the
 * service driver (profile bit-identity with the single-core grid,
 * JSON bit-identity across worker counts, audit cleanliness).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/export.hh"
#include "arch/multicore.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "driver/service.hh"
#include "driver/sweep.hh"
#include "traffic/generator.hh"
#include "verify/audit.hh"

using namespace dlp;

namespace {

traffic::TrafficParams
smallParams()
{
    traffic::TrafficParams t;
    t.rps = 20000.0;
    t.requests = 24;
    t.batch = 64;
    t.seed = 7;
    t.seedPool = 2;
    t.mix = traffic::parseMix("convert:2,md5");
    return t;
}

driver::ServiceOptions
smallService()
{
    driver::ServiceOptions o;
    o.config = "S-O-D";
    o.cores = 2;
    o.traffic = smallParams();
    o.jobs = 1;
    return o;
}

std::string
serviceJson(const arch::ServiceResult &r)
{
    return json::write(analysis::toJson(r));
}

} // namespace

// ---------------------------------------------------------------------
// Schedule generation
// ---------------------------------------------------------------------

TEST(Traffic, SameSeedGivesBitIdenticalSchedule)
{
    for (auto arrival : {traffic::Arrival::Uniform,
                         traffic::Arrival::Poisson}) {
        traffic::TrafficParams t = smallParams();
        t.requests = 200;
        t.arrival = arrival;
        std::vector<traffic::Request> a = traffic::generate(t);
        std::vector<traffic::Request> b = traffic::generate(t);
        ASSERT_EQ(a.size(), t.requests);
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].index, i);
            EXPECT_EQ(a[i].arrival, b[i].arrival);
            EXPECT_EQ(a[i].mixIndex, b[i].mixIndex);
            EXPECT_EQ(a[i].seedSlot, b[i].seedSlot);
        }

        t.seed = 8;
        std::vector<traffic::Request> c = traffic::generate(t);
        bool differs = false;
        for (size_t i = 0; i < a.size() && !differs; ++i)
            differs = a[i].arrival != c[i].arrival ||
                      a[i].mixIndex != c[i].mixIndex;
        EXPECT_TRUE(differs) << "seed must perturb the schedule";
    }
}

TEST(Traffic, ArrivalsStrictlyIncreaseAndDrawsStayInRange)
{
    traffic::TrafficParams t = smallParams();
    t.requests = 500;
    t.arrival = traffic::Arrival::Poisson;
    std::vector<traffic::Request> reqs = traffic::generate(t);
    uint64_t draws[2] = {0, 0};
    for (size_t i = 0; i < reqs.size(); ++i) {
        if (i > 0) {
            EXPECT_GT(reqs[i].arrival, reqs[i - 1].arrival);
        }
        ASSERT_LT(reqs[i].mixIndex, t.mix.size());
        ASSERT_LT(reqs[i].seedSlot, t.seedPool);
        ++draws[reqs[i].mixIndex];
    }
    // convert has weight 2, md5 weight 1: the heavier entry must win
    // over 500 draws.
    EXPECT_GT(draws[0], draws[1]);
}

TEST(Traffic, MeanInterarrivalTracksOfferedRps)
{
    traffic::TrafficParams t = smallParams();
    t.requests = 2000;
    t.rps = 10000.0;  // mean gap 1e5 ticks at 1e9 ticks/sec
    for (auto arrival : {traffic::Arrival::Uniform,
                         traffic::Arrival::Poisson}) {
        t.arrival = arrival;
        std::vector<traffic::Request> reqs = traffic::generate(t);
        double span = double(reqs.back().arrival - reqs.front().arrival);
        double meanGap = span / double(reqs.size() - 1);
        EXPECT_NEAR(meanGap, 1e5, 1e4)
            << traffic::arrivalName(arrival);
    }
}

TEST(Traffic, ParseMixAndArrivalNames)
{
    std::vector<traffic::MixEntry> mix =
        traffic::parseMix("convert:4,md5:2,fft");
    ASSERT_EQ(mix.size(), 3u);
    EXPECT_EQ(mix[0].kernel, "convert");
    EXPECT_EQ(mix[0].weight, 4u);
    EXPECT_EQ(mix[1].kernel, "md5");
    EXPECT_EQ(mix[1].weight, 2u);
    EXPECT_EQ(mix[2].kernel, "fft");
    EXPECT_EQ(mix[2].weight, 1u);

    EXPECT_THROW(traffic::parseMix(""), FatalError);
    EXPECT_THROW(traffic::parseMix("fft:0"), FatalError);
    EXPECT_THROW(traffic::parseMix("fft:abc"), FatalError);
    for (const char *bad : {"fft:-1", "fft:2x", "fft:", ":3", "fft:4294967296"})
        EXPECT_THROW(traffic::parseMix(bad), UsageError) << bad;

    EXPECT_EQ(traffic::arrivalByName("uniform"),
              traffic::Arrival::Uniform);
    EXPECT_EQ(traffic::arrivalByName("poisson"),
              traffic::Arrival::Poisson);
    EXPECT_STREQ(traffic::arrivalName(traffic::Arrival::Poisson),
                 "poisson");
    EXPECT_THROW(traffic::arrivalByName("bursty"), FatalError);
}

TEST(Traffic, DetLogMatchesLibmTightly)
{
    // The deterministic log only needs (0, 1] for -ln(U), but the
    // range reduction makes it valid for any positive argument.
    for (double x : {1e-12, 1e-6, 0.1, 0.5, 1.0 - 1e-9, 1.0, 2.0,
                     3.14159, 1e6}) {
        double want = std::log(x);
        double got = traffic::detLog(x);
        double tol = std::max(1e-12, std::fabs(want) * 1e-12);
        EXPECT_NEAR(got, want, tol) << "x = " << x;
    }
    EXPECT_EQ(traffic::detLog(1.0), 0.0);
}

// ---------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------

TEST(Traffic, NearestRankPercentileEdges)
{
    std::vector<double> one = {42.0};
    EXPECT_EQ(arch::nearestRank(one, 50.0), 42.0);
    EXPECT_EQ(arch::nearestRank(one, 99.0), 42.0);

    std::vector<double> four = {1.0, 2.0, 3.0, 4.0};
    EXPECT_EQ(arch::nearestRank(four, 1.0), 1.0);    // ceil(0.04) = 1st
    EXPECT_EQ(arch::nearestRank(four, 50.0), 2.0);   // ceil(2.0) = 2nd
    EXPECT_EQ(arch::nearestRank(four, 75.0), 3.0);
    EXPECT_EQ(arch::nearestRank(four, 100.0), 4.0);  // never past the end
}

TEST(Traffic, NearestRanksBySelectionMatchSortedNearestRank)
{
    // serve's picks (p50, p95, p99, max) and edge ranks, a repeat
    // included; few distinct values so that most samples tie.
    const std::vector<double> pcts = {0.5, 1.0,  25.0, 50.0, 50.0,
                                      95.0, 99.0, 99.9, 100.0};
    Rng rng(2026);
    for (size_t n = 0; n <= 100; ++n) {
        for (int rep = 0; rep < 4; ++rep) {
            std::vector<double> samples(n);
            for (double &x : samples)
                x = double(rng.below(n / 4 + 1)) * 0.5;
            std::vector<double> sorted = samples;
            std::sort(sorted.begin(), sorted.end());
            std::vector<double> got = arch::nearestRanks(samples, pcts);
            ASSERT_EQ(got.size(), pcts.size());
            for (size_t i = 0; i < pcts.size(); ++i)
                EXPECT_EQ(got[i], arch::nearestRank(sorted, pcts[i]))
                    << "n " << n << " rep " << rep << " p" << pcts[i];
        }
    }
}

// ---------------------------------------------------------------------
// Service runs (profiles via the real single-core simulation)
// ---------------------------------------------------------------------

TEST(Service, JsonBitIdenticalSerialVsParallelJobs)
{
    driver::ServiceOptions o = smallService();
    o.jobs = 1;
    std::string serial = serviceJson(driver::runService(o));
    o.jobs = 2;
    std::string parallel = serviceJson(driver::runService(o));
    EXPECT_EQ(serial, parallel);
}

TEST(Service, PercentileOrderAndConservationAcrossLoads)
{
    bool wasEnabled = verify::auditEnabled();
    verify::setAuditEnabled(true);
    for (double rps : {4000.0, 40000.0, 400000.0}) {
        driver::ServiceOptions o = smallService();
        o.traffic.rps = rps;
        o.timeseriesInterval = 50000;
        arch::ServiceResult r = driver::runService(o);

        EXPECT_EQ(r.injected, o.traffic.requests);
        EXPECT_EQ(r.completed, o.traffic.requests);
        EXPECT_EQ(r.inFlightAtDrain, 0u);
        EXPECT_LE(r.p50, r.p95);
        EXPECT_LE(r.p95, r.p99);
        EXPECT_LE(r.p99, r.maxLatency);
        EXPECT_GT(r.sustainedRps, 0.0);
        EXPECT_TRUE(r.timeseries.present());

        EXPECT_TRUE(r.audited);
        for (const auto &f : r.auditViolations)
            ADD_FAILURE() << rps << " rps: " << f.invariant << ": "
                          << f.detail;
    }
    verify::setAuditEnabled(wasEnabled);
}

TEST(Service, SharedContentionGrowsWithCoreCount)
{
    // Fixed high offered load on a deliberately thin shared pool: more
    // cores means more concurrently active demand, so the arbiter must
    // report strictly more stretched (stall) time at 4 cores than 1.
    double stall[2] = {0, 0}, contended[2] = {0, 0};
    unsigned coreCounts[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
        driver::ServiceOptions o = smallService();
        o.cores = coreCounts[i];
        // Far below both kernels' isolated demand (convert ~0.87,
        // md5 ~0.01 words/tick), so even one core contends and each
        // added concurrent core stretches everybody further.
        o.bandwidthWordsPerTick = 0.01;
        o.traffic.rps = 400000.0;
        arch::ServiceResult r = driver::runService(o);
        const GroupSnapshot &shared = r.group("mem.shared");
        stall[i] = shared.scalars.at("stallTicks");
        contended[i] = shared.scalars.at("contendedTicks");
    }
    EXPECT_GT(stall[0], 0.0);  // a thin pool contends even alone
    EXPECT_GT(stall[1], stall[0]);
    // contendedTicks is wall time, and a bandwidth-bound makespan is
    // set by the pool, not the core count — so it may only stay equal.
    EXPECT_GE(contended[1], contended[0]);
    EXPECT_GT(contended[0], 0.0);
}

TEST(Service, ProfilesBitIdenticalToSingleCoreGrid)
{
    // The per-class profile must be derived from exactly the result a
    // standalone single-core run of that cell produces.
    driver::ServiceOptions o = smallService();
    o.traffic.mix = traffic::parseMix("md5");
    o.traffic.seedPool = 1;
    arch::ServiceResult r = driver::runService(o);
    ASSERT_EQ(r.profiles.size(), 1u);

    driver::SweepTask task;
    task.kernel = "md5";
    task.config = o.config;
    task.scaleDiv = 1;
    task.seed = driver::slotSeed(o.traffic, 0);
    task.scale = o.traffic.batch;
    arch::ExperimentResult single = driver::runTask(task);
    arch::RequestProfile direct = driver::profileFromResult(
        single, o.config, o.traffic.batch, task.seed);

    EXPECT_EQ(r.profiles[0].kernel, direct.kernel);
    EXPECT_EQ(r.profiles[0].scale, direct.scale);
    EXPECT_EQ(r.profiles[0].seed, direct.seed);
    EXPECT_EQ(r.profiles[0].isolatedTicks, direct.isolatedTicks);
    EXPECT_EQ(r.profiles[0].demandWordsPerTick, direct.demandWordsPerTick);
    EXPECT_EQ(r.profiles[0].activations, direct.activations);
    EXPECT_EQ(r.profiles[0].usefulOps, direct.usefulOps);
    EXPECT_GT(direct.isolatedTicks, 0.0);
    EXPECT_GT(direct.demandWordsPerTick, 0.0);
}

TEST(Service, ZeroBandwidthResolvesToMemParamsDefault)
{
    driver::ServiceOptions o = smallService();
    o.traffic.requests = 4;
    arch::ServiceResult r = driver::runService(o);
    EXPECT_GT(arch::MultiCoreSystem::defaultBandwidth(), 0.0);
    EXPECT_EQ(r.bandwidthWordsPerTick,
              arch::MultiCoreSystem::defaultBandwidth());
}
