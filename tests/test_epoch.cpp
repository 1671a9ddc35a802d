/**
 * @file
 * Epoch fast-forwarding tests: bit-identity between fully simulated and
 * fast-forwarded runs, epoch/event interleaving under a replay cap,
 * graceful fallback on non-summarizable workloads, the ff conservation
 * law, and the observability surface (epoch spans in the Chrome trace).
 */

#include <gtest/gtest.h>

#include "arch/configs.hh"
#include "arch/processor.hh"
#include "epoch/epoch.hh"
#include "epoch/passes.hh"
#include "kernels/workload.hh"
#include "obs/timeline.hh"
#include "store/codec.hh"
#include "verify/audit.hh"

using namespace dlp;

namespace {

/** Run one (kernel, config) experiment end to end. */
arch::ExperimentResult
runOne(const std::string &kernel, const std::string &config,
       uint64_t scale = 0)
{
    auto wl = kernels::makeWorkload(
        kernel, scale ? scale : kernels::defaultScale(kernel), 1);
    arch::TripsProcessor cpu(arch::configByName(config));
    return cpu.run(*wl);
}

/** RAII save/restore of the per-epoch replay cap. */
struct IterCapGuard
{
    IterCapGuard() : saved(epoch::maxIterationsPerEpoch()) {}
    ~IterCapGuard() { epoch::setMaxIterationsPerEpoch(saved); }
    uint64_t saved;
};

} // namespace

TEST(Epoch, ResidentPlanFastForwardsBitIdentically)
{
    epoch::FastForwardGuard guard;
    epoch::setFastForwardEnabled(false);
    auto off = runOne("convert", "S");
    epoch::setFastForwardEnabled(true);
    auto on = runOne("convert", "S");

    EXPECT_TRUE(off.verified);
    EXPECT_TRUE(on.verified);
    EXPECT_EQ(off.ffEpochs, 0u);
    EXPECT_EQ(off.ffIterations, 0u);
    EXPECT_GT(on.ffEpochs, 0u);
    EXPECT_GT(on.ffIterations, 0u);
    EXPECT_GT(on.ffEventsSaved, 0u);
    EXPECT_LT(on.hostEvents, off.hostEvents);
    EXPECT_EQ(store::simulatedJson(off), store::simulatedJson(on));
}

TEST(Epoch, GroupUnitsFastForwardMultiSegmentPlans)
{
    // md5 maps a fresh block every activation (no revitalized steady
    // state at activation granularity); only whole-group units make it
    // summarizable. dct cycles through three segments per group.
    epoch::FastForwardGuard guard;
    for (const char *kernel : {"md5", "dct"}) {
        epoch::setFastForwardEnabled(false);
        auto off = runOne(kernel, "S");
        epoch::setFastForwardEnabled(true);
        auto on = runOne(kernel, "S");

        EXPECT_GT(on.ffEpochs, 0u) << kernel;
        EXPECT_GT(on.ffIterations, 0u) << kernel;
        EXPECT_EQ(store::simulatedJson(off), store::simulatedJson(on))
            << kernel;
    }
}

TEST(Epoch, CappedEpochsInterleaveWithEventSimulation)
{
    epoch::FastForwardGuard guard;
    IterCapGuard cap;

    epoch::setFastForwardEnabled(false);
    auto off = runOne("convert", "S");

    // A small cap forces the engine to exit each epoch after a few
    // replayed units and re-enter event-level simulation, exercising
    // the epoch exit path (calendar shifts, watermark restores) many
    // times in one run.
    epoch::setFastForwardEnabled(true);
    epoch::setMaxIterationsPerEpoch(3);
    auto capped = runOne("convert", "S");

    EXPECT_GT(capped.ffEpochs, 1u);
    EXPECT_EQ(store::simulatedJson(off), store::simulatedJson(capped));
}

TEST(Epoch, NonSummarizableWorkloadFallsBackCleanly)
{
    // fragment-simple's texture fetches go through the cached hierarchy
    // (data-dependent timing), so its activation signature never
    // repeats and no epoch may be entered -- the run must still verify.
    epoch::FastForwardGuard guard;
    epoch::setFastForwardEnabled(true);
    auto res = runOne("fragment-simple", "S", 256);
    EXPECT_TRUE(res.verified);
    EXPECT_EQ(res.ffIterations, 0u);
    EXPECT_EQ(res.eventActivations, res.activations);
}

TEST(Epoch, ConservationLawHoldsAndAuditIsClean)
{
    epoch::FastForwardGuard guard;
    epoch::setFastForwardEnabled(true);
    for (const char *kernel : {"convert", "md5", "highpassfilter"}) {
        auto res = runOne(kernel, "S");
        EXPECT_EQ(res.eventActivations + res.ffIterations,
                  res.activations)
            << kernel;
        auto findings = verify::auditResult(res);
        EXPECT_TRUE(findings.empty())
            << kernel << ": " << findings.front().detail;
    }
}

TEST(Epoch, PassListIsStable)
{
    // The ordered pass names are part of the documented surface
    // (DESIGN.md and bail-out diagnostics reference them).
    const auto &names = epoch::EpochLower::passNames();
    ASSERT_EQ(names.size(), 6u);
    EXPECT_STREQ(names[0], "ClassifyOps");
    EXPECT_STREQ(names[1], "ScheduleStability");
    EXPECT_STREQ(names[2], "StatDeltaStability");
    EXPECT_STREQ(names[3], "ResourcePeriodicity");
    EXPECT_STREQ(names[4], "CounterLaws");
    EXPECT_STREQ(names[5], "BuildReplay");
}

TEST(Epoch, EpochSpansAppearInChromeTrace)
{
    epoch::FastForwardGuard guard;
    epoch::setFastForwardEnabled(true);
    obs::clearTimeline();
    obs::parseCatList("All");
    obs::setRecording(true);
    auto res = runOne("convert", "S");
    obs::setRecording(false);
    ASSERT_GT(res.ffEpochs, 0u);

    std::string trace = obs::exportChromeJson();
    obs::clearTimeline();
    EXPECT_NE(trace.find("\"epoch\""), std::string::npos);
    EXPECT_NE(trace.find("\"Epoch\""), std::string::npos);
}
