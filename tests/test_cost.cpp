/**
 * @file
 * The static performance oracle under test: the per-segment cost
 * passes on directed plans, the rank-correlation statistic itself,
 * the PERF-* advisory rules on handcrafted reports, the placement
 * ranking hook, the cost block's store round trip -- and the two
 * cross-validation contracts on the real kernel grid: the sound lower
 * bound must hold on every run, and the throughput estimate must rank
 * every kernel's configurations like the simulator does (Spearman
 * >= 0.9, the same floor CI enforces through cost_report --validate).
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "analysis/export.hh"
#include "arch/configs.hh"
#include "arch/processor.hh"
#include "check/report.hh"
#include "common/logging.hh"
#include "cost/cost.hh"
#include "driver/sweep.hh"
#include "kernels/catalog.hh"
#include "sched/rank.hh"
#include "store/codec.hh"
#include "verify/cost_invariants.hh"

using namespace dlp;

namespace {

/** Lower the plan (kernel, config) exactly as the processor would. */
template <class Plan>
Plan
planFor(const std::string &kernel, const std::string &config)
{
    kernels::Kernel k = kernels::kernelByName(kernel);
    return std::get<Plan>(
        arch::lowerFor(k, arch::configByName(config)).plan);
}

sched::SimdPlan
simdPlanFor(const std::string &kernel, const std::string &config)
{
    return planFor<sched::SimdPlan>(kernel, config);
}

sched::MimdPlan
mimdPlanFor(const std::string &kernel, const std::string &config)
{
    return planFor<sched::MimdPlan>(kernel, config);
}

} // namespace

// --- The rank statistic ---------------------------------------------------

TEST(Spearman, PerfectAndReversedOrder)
{
    std::vector<double> a{1, 2, 3, 4, 5};
    std::vector<double> up{10, 20, 30, 40, 50};
    std::vector<double> down{50, 40, 30, 20, 10};
    EXPECT_DOUBLE_EQ(verify::spearman(a, up), 1.0);
    EXPECT_DOUBLE_EQ(verify::spearman(a, down), -1.0);
}

TEST(Spearman, DegenerateInputsAreVacuouslyOrdered)
{
    EXPECT_DOUBLE_EQ(verify::spearman({}, {}), 1.0);
    EXPECT_DOUBLE_EQ(verify::spearman({1.0}, {2.0}), 1.0);
    // A constant sample imposes no order to violate.
    EXPECT_DOUBLE_EQ(verify::spearman({3, 3, 3}, {1, 2, 3}), 1.0);
}

TEST(Spearman, TiesShareAveragedRanks)
{
    // a = {1, 2, 2, 4} ranks to {1, 2.5, 2.5, 4}; a monotone partner
    // with the tie broken either way correlates identically.
    double r1 = verify::spearman({1, 2, 2, 4}, {10, 20, 30, 40});
    double r2 = verify::spearman({1, 2, 2, 4}, {10, 30, 20, 40});
    EXPECT_DOUBLE_EQ(r1, r2);
    EXPECT_GT(r1, 0.9);
    EXPECT_LT(r1, 1.0); // strict ties vs strict order is not perfect
}

TEST(Spearman, ToleranceBandsNoiseLevelDifferencesIntoTies)
{
    // Two simulator runs 0.26% apart are the same speed; a prediction
    // that swaps only that pair must not be penalized once the
    // tolerance band is wider than the gap.
    std::vector<double> sim{5.797, 5.812, 10.0};
    std::vector<double> pred{5.85, 5.80, 10.0};
    EXPECT_LT(verify::spearman(sim, pred), 1.0);
    EXPECT_DOUBLE_EQ(verify::spearman(sim, pred, 0.01), 1.0);
}

TEST(Spearman, ToleranceBandDoesNotChainAcrossAGradient)
{
    // Each neighbour is within 1% of the last, but the band anchors at
    // its group's smallest member, so a real gradient keeps its order.
    std::vector<double> a{100, 100.9, 101.8, 102.7, 103.6};
    std::vector<double> b{1, 2, 3, 4, 5};
    double rho = verify::spearman(a, b, 0.001);
    EXPECT_DOUBLE_EQ(rho, 1.0);
}

// --- SIMD analysis on real lowered plans ----------------------------------

TEST(CostSimd, SegmentInvariantsHoldOnALoweredKernel)
{
    core::MachineParams m = arch::configByName("S");
    sched::SimdPlan plan = simdPlanFor("convert", "S");
    cost::CostReport rep = cost::analyzeSimd(plan, m);

    ASSERT_TRUE(rep.analyzed);
    EXPECT_FALSE(rep.mimd);
    ASSERT_FALSE(rep.segments.empty());

    uint64_t mapMin = UINT64_MAX, boundMin = UINT64_MAX, cpMax = 0;
    for (const auto &sc : rep.segments) {
        // The steady bound is exactly the documented combination.
        EXPECT_EQ(sc.boundTicks,
                  std::max(sc.maxPressureTicks,
                           sc.gapTicks + sc.steadyWritePathTicks))
            << sc.block;
        // The full-graph drain path includes every steady write path.
        EXPECT_GE(sc.writeDrainTicks, sc.steadyWritePathTicks) << sc.block;
        // The critical path ranges over all paths, write paths included.
        EXPECT_GE(sc.criticalPathTicks, sc.writeDrainTicks) << sc.block;
        EXPECT_LE(sc.hopLowerBound, sc.hopMass) << sc.block;
        EXPECT_GT(sc.insts, 0u) << sc.block;
        EXPECT_GE(sc.insts, sc.steadyInsts) << sc.block;
        EXPECT_GT(sc.rsOccupancy, 0.0) << sc.block;
        mapMin = std::min(mapMin, sc.mapTicks);
        boundMin = std::min(boundMin, sc.boundTicks);
        cpMax = std::max(cpMax, sc.criticalPathTicks);
    }
    EXPECT_EQ(rep.mapTicksMin, mapMin);
    EXPECT_EQ(rep.boundTicksPerActivation, boundMin);
    EXPECT_EQ(rep.criticalPathTicks, cpMax);
    EXPECT_GT(rep.predictedTicksPerRecord, 0.0);
}

TEST(CostSimd, RevitalizationShrinksThePacingGap)
{
    // Without instruction revitalization the engine re-maps the block
    // for every activation, so the pacing gap IS the map time; with the
    // mechanism the gap is the (much smaller) revitalize delay.
    cost::CostReport s = cost::analyzeSimd(simdPlanFor("convert", "S"),
                                           arch::configByName("S"));
    cost::CostReport b =
        cost::analyzeSimd(simdPlanFor("convert", "baseline"),
                          arch::configByName("baseline"));
    ASSERT_TRUE(s.analyzed);
    ASSERT_TRUE(b.analyzed);
    EXPECT_FALSE(s.perActivationRemap);
    EXPECT_TRUE(b.perActivationRemap);
    for (const auto &sc : b.segments)
        EXPECT_EQ(sc.gapTicks, sc.mapTicks) << sc.block;
    for (const auto &sc : s.segments)
        EXPECT_LT(sc.gapTicks, sc.mapTicks) << sc.block;
}

TEST(CostSimd, ShortRunsAmortizeWorseThanTheAsymptote)
{
    // fft lowers to a resident single-segment plan on S: the whole run
    // pays one map and one pipeline ramp, so driving few records leaves
    // that overhead poorly amortized. (Non-resident plans re-map every
    // group and are insensitive to the record count by design.)
    core::MachineParams m = arch::configByName("S");
    sched::SimdPlan plan = simdPlanFor("fft", "S");
    ASSERT_TRUE(plan.resident());
    double asym = cost::analyzeSimd(plan, m).predictedTicksPerRecord;
    double shortRun =
        cost::analyzeSimd(plan, m, /*records=*/24).predictedTicksPerRecord;
    double batched = cost::analyzeSimd(plan, m, /*records=*/4096,
                                       /*batches=*/8)
                         .predictedTicksPerRecord;
    double unbatched = cost::analyzeSimd(plan, m, /*records=*/4096)
                           .predictedTicksPerRecord;
    EXPECT_GT(shortRun, asym); // 24 records pay the map almost alone
    EXPECT_GE(batched, unbatched); // every batch repays map and ramp
}

// --- MIMD analysis --------------------------------------------------------

TEST(CostMimd, AnalysisCarriesTheBoundIngredients)
{
    core::MachineParams m = arch::configByName("M");
    sched::MimdPlan plan = mimdPlanFor("convert", "M");
    cost::CostReport rep = cost::analyzeMimd(plan, m);
    ASSERT_TRUE(rep.analyzed);
    EXPECT_TRUE(rep.mimd);
    EXPECT_EQ(rep.tiles, m.tiles());
    EXPECT_EQ(rep.gridCols, m.cols);
    EXPECT_GT(rep.setupTicks, 0u);
    EXPECT_GT(rep.minCycleInsts, 0u); // the record loop re-fires
    EXPECT_GT(rep.predictedTicksPerRecord, 0.0);
}

TEST(CostMimd, L0DataStoreNeverSlowsATableKernelDown)
{
    // The L0 data store turns deep table lookups into one-cycle local
    // reads; the model must preserve that mechanism differential.
    sched::MimdPlan mPlan = mimdPlanFor("blowfish", "M");
    sched::MimdPlan mdPlan = mimdPlanFor("blowfish", "M-D");
    double m = cost::analyzeMimd(mPlan, arch::configByName("M"))
                   .predictedTicksPerRecord;
    double md = cost::analyzeMimd(mdPlan, arch::configByName("M-D"))
                    .predictedTicksPerRecord;
    EXPECT_GE(m, md);
}

// --- PERF-* advisory rules ------------------------------------------------

namespace {

/** A minimal analyzed SIMD report with one calm segment. */
cost::CostReport
calmReport()
{
    cost::CostReport rep;
    rep.analyzed = true;
    rep.mimd = false;
    rep.plan = "test";
    rep.unroll = 1;
    cost::SegmentCost sc;
    sc.block = "b0";
    sc.insts = 8;
    sc.hopMass = 4;
    sc.hopLowerBound = 4;
    sc.gapTicks = 10;
    sc.steadyWritePathTicks = 20;
    sc.maxPressureTicks = 12; // below pacing: not resource-bound
    sc.rsOccupancy = 0.9;
    rep.segments.push_back(sc);
    rep.rsOccupancy = 0.9;
    return rep;
}

} // namespace

TEST(PerfRules, CalmReportRaisesNoAdvisories)
{
    core::MachineParams m = arch::configByName("S");
    check::Report out;
    cost::perfRules(calmReport(), m, out);
    EXPECT_EQ(out.diags.size(), 0u);
}

TEST(PerfRules, HopMassAboveTheFloorFiresPerfHop)
{
    core::MachineParams m = arch::configByName("S");
    cost::CostReport rep = calmReport();
    rep.segments[0].hopMass = 100;
    rep.segments[0].hopLowerBound = 2;
    check::Report out;
    cost::perfRules(rep, m, out);
    EXPECT_TRUE(out.has("PERF-HOP"));
    // Advisories never make a report unclean.
    EXPECT_TRUE(out.clean());
    for (const auto &f : out.diags)
        EXPECT_EQ(f.severity, check::Severity::Advisory) << f.rule;
}

TEST(PerfRules, ResourceBoundSteadyStateFiresPerfCap)
{
    core::MachineParams m = arch::configByName("S");
    cost::CostReport rep = calmReport();
    rep.segments[0].maxPressureTicks = 64; // above gap + write path
    rep.segments[0].bottleneck = "smcBank0";
    check::Report out;
    cost::perfRules(rep, m, out);
    EXPECT_TRUE(out.has("PERF-CAP"));
    EXPECT_TRUE(out.clean());
}

TEST(PerfRules, UnderfilledStationsFirePerfUnroll)
{
    core::MachineParams m = arch::configByName("S");
    cost::CostReport rep = calmReport();
    rep.rsOccupancy = 0.1; // far below half, tiny segment fits twice
    check::Report out;
    cost::perfRules(rep, m, out);
    EXPECT_TRUE(out.has("PERF-UNROLL"));
    EXPECT_TRUE(out.clean());
}

TEST(PerfRules, MimdReportsRaiseNoSimdAdvisories)
{
    core::MachineParams m = arch::configByName("M");
    cost::CostReport rep = calmReport();
    rep.mimd = true;
    rep.segments[0].hopMass = 1000;
    check::Report out;
    cost::perfRules(rep, m, out);
    EXPECT_EQ(out.diags.size(), 0u);
}

// --- Deterministic finding order ------------------------------------------

TEST(FindingOrder, SortIsDeterministicAcrossDiscoveryOrder)
{
    auto build = [](bool reversed) {
        check::Report r;
        std::vector<std::tuple<std::string, std::string, int>> entries = {
            {"PERF-HOP", "beta", 3},
            {"PERF-CAP", "alpha", 1},
            {"PERF-HOP", "alpha", 2},
            {"PERF-HOP", "alpha", 1},
        };
        if (reversed)
            std::reverse(entries.begin(), entries.end());
        for (const auto &[rule, block, inst] : entries)
            r.add(rule, block, inst, 0, "msg");
        r.sortFindings();
        return r.describe();
    };
    EXPECT_EQ(build(false), build(true));
}

// --- Placement ranking hook -----------------------------------------------

TEST(RankPlacements, OrdersByPredictionAndKeepsTiesStable)
{
    core::MachineParams m = arch::configByName("S");
    sched::SimdPlan plan = simdPlanFor("convert", "S");
    std::vector<sched::SimdPlan> candidates{plan, plan, plan};
    auto ranked = sched::rankPlacements(candidates, m);
    ASSERT_EQ(ranked.size(), 3u);
    // Identical candidates tie; ties keep candidate order.
    EXPECT_EQ(ranked[0].index, 0u);
    EXPECT_EQ(ranked[1].index, 1u);
    EXPECT_EQ(ranked[2].index, 2u);
    EXPECT_GT(ranked[0].ticksPerRecord, 0.0);
    EXPECT_DOUBLE_EQ(ranked[0].ticksPerRecord, ranked[2].ticksPerRecord);
}

// --- Store round trip of the cost block -----------------------------------

namespace {

/** Every summary field as "key=value", walked through the field table. */
std::vector<std::string>
fieldTexts(const cost::CostSummary &c)
{
    std::vector<std::string> out;
    cost::visitFields(c, [&](const char *key, const auto &f) {
        out.push_back(std::string(key) + "=" + json::write(json::Value(f)));
    });
    return out;
}

} // namespace

TEST(CostCodec, CostSummarySurvivesTheStoreRoundTrip)
{
    setQuietLogging(true);
    arch::ExperimentResult res =
        driver::runTask({"convert", "S", /*scaleDiv=*/16});
    ASSERT_TRUE(res.cost.analyzed);
    arch::ExperimentResult dec =
        store::resultFromJson(store::resultToJson(res));
    EXPECT_EQ(fieldTexts(dec.cost), fieldTexts(res.cost));
    // The recomputed sound bound agrees bit-for-bit after decoding.
    EXPECT_EQ(verify::costBoundTicks(dec), verify::costBoundTicks(res));

    // A summary whose every field differs from its default (and from
    // every other field) must survive too, so no field can be dropped
    // or swapped by either direction of the codec unnoticed.
    arch::ExperimentResult odd;
    uint64_t n = 0;
    cost::visitFields(odd.cost, [&](const char *key, auto &f) {
        using T = std::decay_t<decltype(f)>;
        ++n;
        if constexpr (std::is_same_v<T, bool>)
            f = true;
        else if constexpr (std::is_same_v<T, std::string>)
            f = key;
        else if constexpr (std::is_same_v<T, double>)
            f = double(n) + 0.25;
        else
            f = T((uint64_t(1) << 31) + n);
    });
    arch::ExperimentResult back =
        store::resultFromJson(store::resultToJson(odd));
    EXPECT_EQ(fieldTexts(back.cost), fieldTexts(odd.cost));
    EXPECT_NE(fieldTexts(back.cost), fieldTexts(cost::CostSummary{}));
}

TEST(CostCodec, ExportedCostKeysKeepTheirOrder)
{
    // The CI golden diff pops "cost", so this is what pins its shape.
    json::Value doc = analysis::toJson(arch::ExperimentResult{});
    std::vector<std::string> keys;
    for (const auto &member : doc.at("cost").members())
        keys.emplace_back(member.key());
    const std::vector<std::string> expected = {
        "analyzed",          "mimd",
        "unroll",            "perActivationRemap",
        "segments",          "mapTicksMin",
        "boundTicksPerActivation", "setupTicks",
        "minCycleInsts",     "minCycleLoadUnits",
        "minCycleStoreUnits", "tiles",
        "gridCols",          "criticalPathTicks",
        "maxPressureTicks",  "bottleneck",
        "hopMass",           "hopLowerBound",
        "smcReadUnits",      "smcWriteUnits",
        "rsOccupancy",       "predictedTicksPerRecord"};
    EXPECT_EQ(keys, expected);
}

// --- The grid-level cross-validation contracts ----------------------------

class CostGrid : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        setQuietLogging(true);
        driver::SweepPlan plan;
        std::vector<std::string> kernels;
        for (const auto &k : kernels::allKernels())
            kernels.push_back(k.name);
        plan.addGrid(kernels, arch::allConfigNames(), /*scaleDiv=*/8,
                     /*seed=*/1234);
        driver::SweepOptions opts;
        opts.jobs = std::max(1u, std::thread::hardware_concurrency() - 1);
        results = new std::vector<arch::ExperimentResult>(
            driver::runSweep(plan, opts));
    }

    static void TearDownTestSuite()
    {
        delete results;
        results = nullptr;
    }

    static std::vector<arch::ExperimentResult> *results;
};

std::vector<arch::ExperimentResult> *CostGrid::results = nullptr;

TEST_F(CostGrid, EveryExperimentCarriesAnAnalyzedCostReport)
{
    ASSERT_EQ(results->size(),
              kernels::allKernels().size() * arch::allConfigNames().size());
    for (const auto &res : *results) {
        EXPECT_TRUE(res.verified) << res.kernel << "/" << res.config;
        EXPECT_TRUE(res.cost.analyzed) << res.kernel << "/" << res.config;
        EXPECT_GT(res.cost.predictedTicksPerRecord, 0.0)
            << res.kernel << "/" << res.config;
    }
}

TEST_F(CostGrid, SoundLowerBoundHoldsOnEveryRun)
{
    for (const auto &res : *results) {
        uint64_t bound = verify::costBoundTicks(res);
        EXPECT_LE(bound, cyclesToTicks(res.cycles))
            << res.kernel << "/" << res.config;
    }
}

TEST_F(CostGrid, EstimateRanksEveryKernelLikeTheSimulator)
{
    // The CI contract: Spearman >= 0.9 for every kernel across the six
    // Table 5 configurations.
    for (const auto &s : verify::costRankStats(*results)) {
        EXPECT_EQ(s.configs, arch::allConfigNames().size()) << s.kernel;
        EXPECT_GE(s.spearman, 0.9) << s.kernel;
    }
    EXPECT_TRUE(verify::costInvariants(*results, 0.9).empty());
}
