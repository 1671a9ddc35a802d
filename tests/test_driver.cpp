/**
 * @file
 * Tests for the parallel sweep driver: JobPool lifecycle, work
 * distribution and exception propagation; the command-line parser;
 * the result cache; and the headline guarantee — a parallel grid is field-for-field identical
 * to the serial grid.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "analysis/experiments.hh"
#include "arch/configs.hh"
#include "common/logging.hh"
#include "core/block_engine.hh"
#include "driver/cli.hh"
#include "driver/job_pool.hh"
#include "driver/sweep.hh"
#include "kernels/catalog.hh"
#include "sched/plan.hh"
#include "store/codec.hh"

using namespace dlp;
using namespace dlp::driver;

// ---------------------------------------------------------------------
// JobPool
// ---------------------------------------------------------------------

TEST(JobPool, StartsAndStopsIdle)
{
    JobPool pool(4);
    EXPECT_EQ(pool.workers(), 4u);
    EXPECT_EQ(pool.pending(), 0u);
    // Destructor joins an idle pool without deadlock.
}

TEST(JobPool, RunsEveryJobExactlyOnce)
{
    constexpr size_t n = 500;
    std::vector<std::atomic<int>> runs(n);
    {
        JobPool pool(8);
        for (size_t i = 0; i < n; ++i)
            pool.submit([&runs, i] { runs[i].fetch_add(1); });
        pool.wait();
    }
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(runs[i].load(), 1) << "job " << i;
}

TEST(JobPool, WaitIsReusableAcrossBatches)
{
    JobPool pool(3);
    std::atomic<int> count{0};
    for (int batch = 0; batch < 4; ++batch) {
        for (int i = 0; i < 10; ++i)
            pool.submit([&count] { count.fetch_add(1); });
        pool.wait();
        EXPECT_EQ(count.load(), (batch + 1) * 10);
        EXPECT_EQ(pool.pending(), 0u);
    }
}

TEST(JobPool, ParallelForCoversRange)
{
    JobPool pool(4);
    std::vector<std::atomic<int>> hits(100);
    parallelFor(pool, hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(JobPool, FirstExceptionPropagatesFromWait)
{
    JobPool pool(4);
    std::atomic<int> survivors{0};
    for (int i = 0; i < 20; ++i) {
        pool.submit([&survivors, i] {
            if (i == 7)
                throw std::runtime_error("job seven failed");
            survivors.fetch_add(1);
        });
    }
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The error is consumed: the pool remains usable and a clean batch
    // waits without throwing.
    EXPECT_EQ(survivors.load(), 19);
    pool.submit([&survivors] { survivors.fetch_add(1); });
    EXPECT_NO_THROW(pool.wait());
    EXPECT_EQ(survivors.load(), 20);
}

TEST(JobPool, SingleWorkerStillCompletes)
{
    JobPool pool(1);
    std::atomic<int> count{0};
    for (int i = 0; i < 25; ++i)
        pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 25);
}

TEST(JobPool, DefaultWorkersReadsEnvironment)
{
    const char *saved = std::getenv("DLP_JOBS");
    std::string savedCopy = saved ? saved : "";

    unsetenv("DLP_JOBS");
    EXPECT_EQ(JobPool::defaultWorkers(), 1u);
    setenv("DLP_JOBS", "6", 1);
    EXPECT_EQ(JobPool::defaultWorkers(), 6u);
    setenv("DLP_JOBS", "0", 1); // one per hardware thread
    EXPECT_GE(JobPool::defaultWorkers(), 1u);
    setenv("DLP_JOBS", "banana", 1);
    EXPECT_EQ(JobPool::defaultWorkers(), 1u);

    if (saved)
        setenv("DLP_JOBS", savedCopy.c_str(), 1);
    else
        unsetenv("DLP_JOBS");
}

TEST(JobPool, ParseWorkersRejectsMalformedAndCapsLarge)
{
    EXPECT_EQ(JobPool::parseWorkers("-3"), std::nullopt);
    EXPECT_EQ(JobPool::parseWorkers("abc"), std::nullopt);
    EXPECT_EQ(JobPool::parseWorkers("4x"), std::nullopt);
    unsigned hw = std::thread::hardware_concurrency();
    EXPECT_EQ(JobPool::parseWorkers("0"), hw ? hw : 1u);
    EXPECT_EQ(JobPool::parseWorkers("1000"), 256u);
    EXPECT_THROW(parseJobsFlag("-3"), FatalError);
}

TEST(Flags, CheckedIntegerParserRejectsMalformedAndNamesTheFlag)
{
    EXPECT_EQ(parseUintFlag("--seed", "0"), 0u);
    EXPECT_EQ(parseUintFlag("--seed", "18446744073709551615"), UINT64_MAX);
    EXPECT_EQ(parseUintFlag("--records", "4294967295", UINT32_MAX),
              UINT32_MAX);
    for (const char *bad : {"", "x", "8x", " 8", "+8", "-1", "1.5",
                            "18446744073709551616"})
        EXPECT_THROW(parseUintFlag("--scale-div", bad), FatalError) << bad;
    EXPECT_THROW(parseUintFlag("--records", "4294967296", UINT32_MAX),
                 FatalError);
    try {
        parseUintFlag("--scale-div", "x");
        FAIL() << "no error";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("--scale-div"),
                  std::string::npos)
            << e.what();
    }

    EXPECT_EQ(parseUintListFlag("--seeds", "3,7..9,,1"),
              (std::vector<uint64_t>{3, 7, 8, 9, 1}));
    EXPECT_EQ(parseUintListFlag("--seeds",
                                "18446744073709551614..18446744073709551615"),
              (std::vector<uint64_t>{UINT64_MAX - 1, UINT64_MAX}));
    for (const char *bad : {"", ",", "1,x", "9..7", "1..-2", "0..5000"})
        EXPECT_THROW(parseUintListFlag("--seeds", bad), FatalError) << bad;

    EXPECT_EQ(parseRealFlag("--rps", "2500.5"), 2500.5);
    for (const char *bad : {"", "x", "1e", "-1", "inf", "nan", "2 "})
        EXPECT_THROW(parseRealFlag("--rps", bad), FatalError) << bad;
    EXPECT_EQ(parseRealFlag("--min-spearman", "-1", -1.0, 1.0), -1.0);
    EXPECT_EQ(parseRealFlag("--min-spearman", "-0.25", -1.0, 1.0), -0.25);
    EXPECT_EQ(parseRealFlag("--min-spearman", "1", -1.0, 1.0), 1.0);
    for (const char *bad : {"-1.5", "1.01", "x", ""})
        EXPECT_THROW(parseRealFlag("--min-spearman", bad, -1.0, 1.0),
                     FatalError)
            << bad;
}

namespace {

/** Cli::parse over a command line given without the program name. */
void
parseArgs(Cli &cli, std::vector<std::string> args)
{
    args.insert(args.begin(), "prog");
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    cli.parse(int(argv.size()), argv.data());
}

/** The UsageError message parseArgs raises ("" when it raises none). */
std::string
usageErrorOf(Cli &cli, std::vector<std::string> args)
{
    try {
        parseArgs(cli, std::move(args));
    } catch (const UsageError &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(Cli, EqualsAndSpaceFormsSetTheSameValue)
{
    for (bool equals : {false, true}) {
        uint64_t seed = 0;
        std::string json;
        bool quick = false;
        SweepOptions opts;
        Cli cli({{"--seed", "N", "seed", setUint(seed)},
                 {"--json", "FILE", "output", setString(json)},
                 {"--quick", nullptr, "quick", setFlag(quick)},
                 jobsOption(opts.jobs)});
        std::vector<std::string> args =
            equals ? std::vector<std::string>{"--seed=42", "--json=a=b.json",
                                              "--quick", "--jobs=3"}
                   : std::vector<std::string>{"--seed", "42", "--json",
                                              "a=b.json", "--quick",
                                              "--jobs", "3"};
        parseArgs(cli, args);
        EXPECT_EQ(seed, 42u) << equals;
        EXPECT_EQ(json, "a=b.json") << equals;
        EXPECT_TRUE(quick) << equals;
        EXPECT_EQ(opts.jobs, 3u) << equals;
    }
}

TEST(Cli, BadCommandLinesAreUsageErrorsNamingTheArgument)
{
    uint64_t seed = 0;
    bool quick = false;
    std::vector<std::string> kernels = {"fft"};
    std::vector<std::string> configs;
    Cli cli({{"--seed", "N", "seed", setUint(seed)},
             {"--quick", nullptr, "quick", setFlag(quick)},
             kernelsOption(kernels, "fft"), configsOption(configs, "all")});

    auto expectError = [&](std::vector<std::string> args,
                           const std::string &needle) {
        std::string msg = usageErrorOf(cli, args);
        EXPECT_NE(msg.find(needle), std::string::npos)
            << args.front() << ": '" << msg << "'";
    };
    expectError({"--seed"}, "--seed needs an argument");
    expectError({"--quick=x"}, "--quick takes no value, got '--quick=x'");
    expectError({"--bogus"}, "unknown option '--bogus' (see --help)");
    expectError({"--bogus=1"}, "unknown option '--bogus'");
    expectError({"stray"}, "unexpected argument 'stray'");
    expectError({"--help=x"}, "--help takes no value");
    expectError({"--seed", "x"}, "--seed expects");
    expectError({"--kernels", "fft,bogus"}, "--kernels: unknown name 'bogus'");
    expectError({"--configs=bogus"}, "--configs: unknown name 'bogus'");

    // Every catalog kernel's own name is accepted.
    for (const auto &k : kernels::allKernels())
        EXPECT_EQ(usageErrorOf(cli, {"--kernels", k.name}), "") << k.name;

    // "all" is every known name, whatever the default; valid names
    // replace the default.
    kernels = {"fft"};
    parseArgs(cli, {"--kernels", "all", "--configs", "S,M-D"});
    EXPECT_EQ(kernels, kernels::kernelNames());
    EXPECT_NE(std::find(kernels.begin(), kernels.end(), "anisotropic-filter"),
              kernels.end());
    EXPECT_EQ(configs, (std::vector<std::string>{"S", "M-D"}));
    parseArgs(cli, {"--configs=all"});
    EXPECT_EQ(configs, arch::allConfigNames());
}

TEST(Cli, PositionalsFillTheTableInOrder)
{
    std::string kernel = "blowfish";
    uint64_t scale = 0;
    Cli cli({{"kernel", nullptr, "kernel", setString(kernel)},
             {"scale", nullptr, "scale", setUint(scale)}});
    parseArgs(cli, {"md5", "64"});
    EXPECT_EQ(kernel, "md5");
    EXPECT_EQ(scale, 64u);
    EXPECT_NE(usageErrorOf(cli, {"md5", "64", "7"})
                  .find("unexpected argument '7'"),
              std::string::npos);
}

TEST(Cli, HelpListsEveryRegisteredOptionOnce)
{
    bool quick = false;
    std::vector<std::string> kernels, configs;
    SweepOptions opts;
    Cli cli({{"--quick", nullptr, "quick", setFlag(quick)},
             kernelsOption(kernels, "all"), configsOption(configs, "all")});
    cli.add(gridOptions(opts));

    std::string out = cli.usage("prog");
    EXPECT_EQ(out.rfind("Usage: prog [options]\n", 0), 0u) << out;
    for (const char *name :
         {"--quick", "--kernels", "--configs", "--jobs", "--audit", "--check",
          "--store", "--trace-out", "--timeseries", "--help"}) {
        std::string row = std::string("\n  ") + name + " ";
        size_t first = out.find(row);
        EXPECT_NE(first, std::string::npos) << name;
        EXPECT_EQ(out.find(row, first + 1), std::string::npos) << name;
    }
    // --help prints it and exits 0 before a later bad option is seen.
    EXPECT_EXIT(parseArgs(cli, {"--quick", "--help", "--bogus"}),
                testing::ExitedWithCode(0), "");
}

// ---------------------------------------------------------------------
// Sweep planning and the result cache
// ---------------------------------------------------------------------

TEST(Sweep, PlanGridIsCrossProductInOrder)
{
    SweepPlan plan;
    plan.addGrid({"fft", "lu"}, {"baseline", "S"}, 4, 9);
    ASSERT_EQ(plan.size(), 4u);
    EXPECT_EQ(plan.tasks[0].kernel, "fft");
    EXPECT_EQ(plan.tasks[0].config, "baseline");
    EXPECT_EQ(plan.tasks[1].kernel, "fft");
    EXPECT_EQ(plan.tasks[1].config, "S");
    EXPECT_EQ(plan.tasks[3].kernel, "lu");
    EXPECT_EQ(plan.tasks[3].config, "S");
    EXPECT_EQ(plan.tasks[2].scaleDiv, 4u);
    EXPECT_EQ(plan.tasks[2].seed, 9u);
}

TEST(Sweep, ScaleForKeepsFftPowerOfTwo)
{
    EXPECT_EQ(scaleFor("fft", 1), 1024u);
    EXPECT_EQ(scaleFor("fft", 8), 128u);
    // Non-power-of-two-sensitive kernels floor at 16.
    EXPECT_EQ(scaleFor("lu", 1000), 16u);
}

TEST(Sweep, CacheHitsOnRepeatAndMissesWhenCold)
{
    clearResultCache();
    SweepPlan plan;
    plan.add("convert", "baseline", 64, 7);
    plan.add("convert", "S", 64, 7);

    SweepOptions opts;
    opts.jobs = 1;
    auto first = runSweep(plan, opts);
    EXPECT_EQ(resultCacheMisses(), 2u);
    EXPECT_EQ(resultCacheHits(), 0u);
    EXPECT_EQ(resultCacheSize(), 2u);

    auto second = runSweep(plan, opts);
    EXPECT_EQ(resultCacheMisses(), 2u);
    EXPECT_EQ(resultCacheHits(), 2u);
    ASSERT_EQ(second.size(), first.size());
    for (size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(second[i].cycles, first[i].cycles);

    // A different seed is a different key: miss.
    SweepPlan other;
    other.add("convert", "baseline", 64, 8);
    runSweep(other, opts);
    EXPECT_EQ(resultCacheMisses(), 3u);
    EXPECT_EQ(resultCacheSize(), 3u);

    // useCache = false bypasses lookup and store entirely.
    clearResultCache();
    SweepOptions noCache;
    noCache.jobs = 1;
    noCache.useCache = false;
    runSweep(plan, noCache);
    EXPECT_EQ(resultCacheSize(), 0u);
    EXPECT_EQ(resultCacheHits(), 0u);
    clearResultCache();
}

TEST(Sweep, CacheCountersConserveCells)
{
    // The conservation law behind the exported "store" object: every
    // cell of every sweep lands in exactly one counter, so across any
    // sequence of sweeps hits + misses == cells swept. Exercise the
    // law over a mix of cold, warm, duplicated and cache-bypassed
    // plans.
    clearResultCache();
    uint64_t cells = 0;
    SweepOptions opts;
    opts.jobs = 1;

    SweepPlan cold;
    cold.add("dct", "baseline", 64, 11);
    cold.add("dct", "S", 64, 11);
    runSweep(cold, opts);
    cells += cold.size();

    runSweep(cold, opts);  // fully warm
    cells += cold.size();

    SweepPlan duplicated;  // same cell twice in one plan, plus a warm one
    duplicated.add("dct", "M", 64, 11);
    duplicated.add("dct", "M", 64, 11);
    duplicated.add("dct", "baseline", 64, 11);
    runSweep(duplicated, opts);
    cells += duplicated.size();

    SweepOptions noCache;
    noCache.jobs = 1;
    noCache.useCache = false;  // bypassed lookups still count as misses
    runSweep(cold, noCache);
    cells += cold.size();

    EXPECT_EQ(resultCacheHits() + resultCacheMisses(), cells);
    clearResultCache();
}

TEST(Sweep, ProgressReportsEveryTaskAndCachedFlag)
{
    clearResultCache();
    SweepPlan plan;
    plan.add("md5", "baseline", 64, 3);
    plan.add("md5", "M", 64, 3);

    size_t calls = 0, cachedCalls = 0, lastDone = 0;
    SweepOptions opts;
    opts.jobs = 2;
    opts.progress = [&](const SweepProgress &p) {
        ++calls;
        if (p.cached)
            ++cachedCalls;
        EXPECT_EQ(p.total, 2u);
        EXPECT_GT(p.done, lastDone);
        lastDone = p.done;
    };
    runSweep(plan, opts);
    EXPECT_EQ(calls, 2u);
    EXPECT_EQ(cachedCalls, 0u);

    calls = cachedCalls = lastDone = 0;
    runSweep(plan, opts);
    EXPECT_EQ(calls, 2u);
    EXPECT_EQ(cachedCalls, 2u);
    clearResultCache();
}

TEST(Sweep, VerificationFailurePropagatesFromWorkers)
{
    clearResultCache();
    SweepPlan plan;
    plan.add("no-such-kernel", "baseline", 64, 1);
    SweepOptions opts;
    opts.jobs = 4;
    EXPECT_THROW(runSweep(plan, opts), FatalError);
    clearResultCache();
}

// ---------------------------------------------------------------------
// Determinism: serial grid == parallel grid, field for field
// ---------------------------------------------------------------------

TEST(Determinism, ParallelGridMatchesSerialFieldForField)
{
    constexpr uint64_t scaleDiv = 16;

    clearResultCache();
    analysis::Grid serial = analysis::runGrid(scaleDiv);

    // Flush the cache so the parallel run actually simulates instead
    // of copying the serial results back out.
    clearResultCache();
    SweepOptions eightJobs;
    eightJobs.jobs = 8;
    analysis::Grid parallel = analysis::runGrid(scaleDiv, 1234, eightJobs);
    clearResultCache();

    // The codec text covers every field of the result (scalars, cost,
    // findings, raw distribution accumulators) but the host ones.
    ASSERT_EQ(serial.size(), parallel.size());
    for (const auto &[kernel, byConfig] : serial) {
        auto pk = parallel.find(kernel);
        ASSERT_NE(pk, parallel.end()) << kernel;
        ASSERT_EQ(byConfig.size(), pk->second.size()) << kernel;
        for (const auto &[config, result] : byConfig) {
            auto pc = pk->second.find(config);
            ASSERT_NE(pc, pk->second.end()) << kernel << "/" << config;
            std::string a = store::simulatedJson(result);
            std::string b = store::simulatedJson(pc->second);
            size_t at = std::mismatch(a.begin(), a.end(), b.begin(), b.end())
                            .first - a.begin();
            EXPECT_TRUE(a == b) << kernel << "/" << config
                                << " differs from byte " << at << ": "
                                << a.substr(at, 80) << " vs "
                                << b.substr(at, 80);
        }
    }
}

// ---------------------------------------------------------------------
// Engine reuse across sweep cells
// ---------------------------------------------------------------------

namespace {

/** A one-block plan: r10 = 7 + 8 per activation (see test_engines). */
sched::SimdPlan
streakPlan(const core::MachineParams &m)
{
    using isa::MappedInst;
    using isa::Op;
    using isa::Target;
    auto inst = [](Op op, unsigned row, unsigned col, unsigned slot) {
        MappedInst mi;
        mi.op = op;
        mi.row = static_cast<uint8_t>(row);
        mi.col = static_cast<uint8_t>(col);
        mi.slot = static_cast<uint8_t>(slot);
        mi.numSrcs = isa::opInfo(op).numSrcs;
        return mi;
    };

    sched::SimdPlan plan;
    plan.name = "streak";
    plan.unroll = 1;
    plan.recBaseReg = 0;
    plan.initialRegs = {{0, 0}};

    sched::Segment seg;
    auto &b = seg.block;
    b.name = "streak#0";
    b.rows = static_cast<uint8_t>(m.rows);
    b.cols = static_cast<uint8_t>(m.cols);
    b.slotsPerTile = static_cast<uint8_t>(m.frameSlots);

    MappedInst a = inst(Op::Movi, 1, 1, 0);
    a.imm = 7;
    a.overhead = true;
    a.targets.push_back(Target{2, 0, 0});
    MappedInst c = inst(Op::Movi, 2, 3, 0);
    c.imm = 8;
    c.overhead = true;
    c.targets.push_back(Target{2, 1, 0});
    MappedInst add = inst(Op::Add, 1, 2, 0);
    add.targets.push_back(Target{3, 0, 0});
    MappedInst wr = inst(Op::Write, 0, 0, 0);
    wr.imm = 10;
    wr.regTile = true;
    wr.overhead = true;
    b.insts = {a, c, add, wr};
    b.validate();
    plan.segments.push_back(std::move(seg));
    return plan;
}

} // namespace

TEST(Determinism, EngineResetsSignatureStreakBetweenRuns)
{
    // Sweep fixtures reuse one engine across runs; a streak (or last
    // signature) leaking from the previous run would let the second
    // run's epoch controller arm early and diverge from a cold engine.
    auto m = arch::configByName("S");
    mem::MemorySystem memory(m.memParams, true);
    core::BlockEngine engine(m, memory);
    auto plan = streakPlan(m);

    engine.run(plan, 24);
    EXPECT_GT(engine.steadySignatureStreak() + engine.ffIterations(), 0u);

    // A zero-record run executes no activations: the streak state must
    // still have been cleared at entry.
    engine.run(plan, 0);
    EXPECT_EQ(engine.activationSignature(), 0u);
    EXPECT_EQ(engine.steadySignatureStreak(), 0u);
}
