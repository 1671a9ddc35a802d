/**
 * @file
 * Tests for the analysis layer: Table 2 attribute extraction and the
 * reporting helpers.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/attributes.hh"
#include "analysis/export.hh"
#include "analysis/report.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "kernels/catalog.hh"

using namespace dlp;
using namespace dlp::analysis;

TEST(Attributes, ConvertMatchesHandCount)
{
    auto a = extractAttributes(kernels::makeConvert());
    // 9 multiplies + 6 adds = 15 compute + nothing else... our builder
    // also counts the 3 loads and 3 stores as instructions (21 total).
    EXPECT_EQ(a.numInsts, 21u);
    EXPECT_EQ(a.recordRead, 3u);
    EXPECT_EQ(a.recordWrite, 3u);
    EXPECT_EQ(a.numConstants, 9u);
    EXPECT_EQ(a.indexedConstants, 0u);
    EXPECT_EQ(a.loopBounds, "-");
    EXPECT_GT(a.ilp, 3.0);
}

TEST(Attributes, FftButterflyIsTiny)
{
    auto a = extractAttributes(kernels::makeFft());
    // 10 flops + 6 loads + 4 stores.
    EXPECT_EQ(a.numInsts, 20u);
    EXPECT_EQ(a.numConstants, 0u);
}

TEST(Attributes, CryptoTablesCounted)
{
    auto bf = extractAttributes(kernels::makeBlowfish());
    EXPECT_EQ(bf.indexedConstants, 16u + 4 * 256);
    EXPECT_EQ(bf.numConstants, 2u);
    EXPECT_EQ(bf.loopBounds, "16");

    auto aes = extractAttributes(kernels::makeRijndael());
    EXPECT_EQ(aes.indexedConstants, 4u * 256 + 256 + 64);
    EXPECT_EQ(aes.loopBounds, "9");
}

TEST(Attributes, VariableLoopsReported)
{
    auto sk = extractAttributes(kernels::makeVertexSkinning());
    EXPECT_EQ(sk.loopBounds, "variable");
    auto an = extractAttributes(kernels::makeAnisotropic());
    EXPECT_EQ(an.loopBounds, "variable");
    EXPECT_GT(an.irregularAccesses, 0u);
    EXPECT_LE(an.irregularAccesses, 50u); // Table 2: <= 50
}

TEST(Attributes, IrregularOnlyOnFragmentKernels)
{
    EXPECT_EQ(extractAttributes(kernels::makeFragmentSimple())
                  .irregularAccesses,
              4u);
    EXPECT_EQ(extractAttributes(kernels::makeFragmentReflection())
                  .irregularAccesses,
              4u);
    EXPECT_EQ(extractAttributes(kernels::makeMd5()).irregularAccesses, 0u);
}

TEST(Attributes, AllFourteenRows)
{
    auto rows = extractAllAttributes();
    EXPECT_EQ(rows.size(), 14u);
    for (const auto &r : rows) {
        EXPECT_GT(r.numInsts, 0u);
        EXPECT_GE(r.ilp, 1.0);
    }
}

TEST(Report, HarmonicMean)
{
    EXPECT_DOUBLE_EQ(harmonicMean({2.0, 2.0}), 2.0);
    EXPECT_NEAR(harmonicMean({1.0, 2.0}), 4.0 / 3.0, 1e-12);
    EXPECT_THROW(harmonicMean({}), PanicError);
    EXPECT_THROW(harmonicMean({1.0, 0.0}), PanicError);
}

TEST(Report, TextTableAligns)
{
    TextTable t;
    t.header({"a", "bbbb"});
    t.row({"xxxxx", "y"});
    std::ostringstream os;
    t.print(os);
    std::string s = os.str();
    EXPECT_NE(s.find("xxxxx"), std::string::npos);
    EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Report, FmtPrecision)
{
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmt(2.0, 0), "2");
}

TEST(Json, ParsesModestNesting)
{
    std::string text = "[[[[[[[[[[[1]]]]]]]]]]]";
    json::Value v = json::parse(text);
    const json::Value *inner = &v;
    for (int depth = 0; depth < 11; ++depth)
        inner = &inner->at(size_t(0));
    EXPECT_EQ(inner->asNumber(), 1.0);
}

TEST(Json, DepthCapRejectsPathologicalNesting)
{
    // A parser recursing once per '[' would overflow the stack on a
    // hostile document; the cap turns that into a clean fatal().
    std::string bomb(100000, '[');
    try {
        json::parse(bomb);
        FAIL() << "expected fatal()";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("nesting"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Json, DepthCapAppliesToObjectsToo)
{
    std::string bomb;
    for (int i = 0; i < 5000; ++i)
        bomb += "{\"a\":";
    EXPECT_THROW(json::parse(bomb), FatalError);
}

TEST(Export, ZeroSampleDistributionOmitsMoments)
{
    // StatGroup::dump and the JSON exporter must agree on the shape of
    // an unsampled histogram: a sample count, never fabricated moments.
    StatGroup g("zs");
    g.distribution("touched", 0.0, 10.0, 4).sample(3.0);
    g.distribution("untouched", 0.0, 10.0, 4);
    GroupSnapshot snap = g.snapshot();

    json::Value v = analysis::toJson(snap);
    const auto &dists = v.at("distributions");
    const auto &touched = dists.at("touched");
    const auto &untouched = dists.at("untouched");
    EXPECT_TRUE(touched.has("mean"));
    EXPECT_TRUE(touched.has("min"));
    EXPECT_FALSE(untouched.has("mean"));
    EXPECT_FALSE(untouched.has("stdev"));
    EXPECT_FALSE(untouched.has("min"));
    EXPECT_FALSE(untouched.has("max"));
    EXPECT_EQ(untouched.at("samples").asNumber(), 0.0);

    std::ostringstream os;
    g.dump(os);
    std::string text = os.str();
    EXPECT_EQ(text.find("untouched::mean") == std::string::npos,
              !untouched.has("mean"));
}
