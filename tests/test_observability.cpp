/**
 * @file
 * Tests for the observability layer: trace flags and the DPRINTF sink,
 * the non-scalar statistics (distributions, vectors, formulas) and their
 * snapshots, warn() rate limiting, the JSON writer/parser round trip,
 * and the experiment-result exporter's document shape.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "analysis/experiments.hh"
#include "analysis/export.hh"
#include "analysis/report.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/trace.hh"

using namespace dlp;

namespace {

/** RAII: leave the global trace state clean for the next test. */
struct TraceReset
{
    TraceReset() { trace::disableAll(); }

    ~TraceReset()
    {
        trace::disableAll();
        trace::setSink(nullptr);
        trace::setCurTick(0);
    }
};

/** A component the way the engines declare one. */
class Widget
{
  public:
    void
    poke(uint64_t when)
    {
        trace::setCurTick(when);
        DPRINTF(Mesh, "poked with %" PRIu64, when);
    }

  private:
    const char *dlpTraceName() const { return "widget"; }
};

} // namespace

TEST(TraceFlags, NamesAndProgrammaticControl)
{
    TraceReset guard;
    EXPECT_FALSE(trace::anyEnabled());
    EXPECT_STREQ(trace::flagName(trace::Flag::Mesh), "Mesh");
    EXPECT_STREQ(trace::flagName(trace::Flag::SMC), "SMC");
    EXPECT_EQ(trace::flagNames().size(), trace::numFlags);

    trace::enable(trace::Flag::Mesh);
    EXPECT_TRUE(trace::enabled(trace::Flag::Mesh));
    EXPECT_FALSE(trace::enabled(trace::Flag::SMC));
    EXPECT_TRUE(trace::anyEnabled());

    trace::disable(trace::Flag::Mesh);
    EXPECT_FALSE(trace::anyEnabled());
}

TEST(TraceFlags, SetByName)
{
    TraceReset guard;
    EXPECT_TRUE(trace::setByName("SMC"));
    EXPECT_TRUE(trace::enabled(trace::Flag::SMC));
    EXPECT_TRUE(trace::setByName("-SMC"));
    EXPECT_FALSE(trace::enabled(trace::Flag::SMC));

    EXPECT_TRUE(trace::setByName("All"));
    for (unsigned i = 0; i < trace::numFlags; ++i)
        EXPECT_TRUE(trace::enabled(static_cast<trace::Flag>(i)));
    EXPECT_TRUE(trace::setByName("-All"));
    EXPECT_FALSE(trace::anyEnabled());

    setQuietLogging(true);
    EXPECT_FALSE(trace::setByName("NoSuchFlag"));
    setQuietLogging(false);
    EXPECT_FALSE(trace::anyEnabled());
}

TEST(TraceFlags, ParseFlagList)
{
    TraceReset guard;
    trace::parseFlagList("Mesh, SMC");
    EXPECT_TRUE(trace::enabled(trace::Flag::Mesh));
    EXPECT_TRUE(trace::enabled(trace::Flag::SMC));
    EXPECT_FALSE(trace::enabled(trace::Flag::EventQ));

    trace::disableAll();
    trace::parseFlagList("All,-Exec");
    EXPECT_TRUE(trace::enabled(trace::Flag::Mesh));
    EXPECT_FALSE(trace::enabled(trace::Flag::Exec));
}

TEST(TraceFlags, InitFromEnv)
{
    TraceReset guard;
    ::setenv("DLP_TRACE", "Mesh,SMC", 1);
    trace::initFromEnv();
    ::unsetenv("DLP_TRACE");
    EXPECT_TRUE(trace::enabled(trace::Flag::Mesh));
    EXPECT_TRUE(trace::enabled(trace::Flag::SMC));
    EXPECT_FALSE(trace::enabled(trace::Flag::Engine));
}

TEST(TraceOutput, TickComponentMessageFormat)
{
    TraceReset guard;
    std::ostringstream lines;
    trace::setSink(&lines);
    trace::enable(trace::Flag::Mesh);

    Widget w;
    w.poke(42);
    DPRINTF(Mesh, "from free scope");
    trace::disable(trace::Flag::Mesh);
    w.poke(99); // flag off: must not print

    EXPECT_EQ(lines.str(),
              "42: widget: poked with 42\n"
              "42: global: from free scope\n");
}

TEST(WarnDeduplication, SuppressesAfterLimit)
{
    resetWarnDeduplication();
    testing::internal::CaptureStderr();
    for (int i = 0; i < 20; ++i)
        warn("repeated observability test message");
    warn("distinct observability test message");
    std::string err = testing::internal::GetCapturedStderr();
    resetWarnDeduplication();

    size_t count = 0;
    for (size_t pos = 0;
         (pos = err.find("repeated observability", pos)) != std::string::npos;
         ++pos)
        ++count;
    EXPECT_EQ(count, warnRepeatLimit);
    EXPECT_NE(err.find("repeated 5 times"), std::string::npos);
    EXPECT_NE(err.find("distinct observability"), std::string::npos);
}

TEST(WarnDeduplication, LruBoundsTableAndPreservesHotMessages)
{
    resetWarnDeduplication();
    // Quiet logging would skip dedup tracking entirely; swallow the
    // output through the capture instead.
    testing::internal::CaptureStderr();

    // Fill the table exactly: the victim first, then warnTableLimit - 1
    // distinct fillers.
    warn("lru eviction victim message");
    for (size_t i = 0; i + 1 < warnTableLimit; ++i)
        warn("lru filler message %zu", i);
    EXPECT_EQ(warnTableSize(), warnTableLimit);
    EXPECT_EQ(warnOccurrences("lru eviction victim message"), 1u);

    // Re-warning the victim refreshes its recency, so the next overflow
    // evicts the least-recently-warned filler instead.
    warn("lru eviction victim message");
    warn("lru filler message overflow");
    EXPECT_EQ(warnTableSize(), warnTableLimit);
    EXPECT_EQ(warnOccurrences("lru eviction victim message"), 2u);
    EXPECT_EQ(warnOccurrences("lru filler message 0"), 0u); // evicted
    EXPECT_EQ(warnOccurrences("lru filler message overflow"), 1u);

    // Push the victim out (it is now the oldest after the fillers run
    // again) and verify an evicted message starts over as new.
    for (size_t i = 0; i < warnTableLimit; ++i)
        warn("lru second wave %zu", i);
    EXPECT_EQ(warnOccurrences("lru eviction victim message"), 0u);
    warn("lru eviction victim message");
    EXPECT_EQ(warnOccurrences("lru eviction victim message"), 1u);

    testing::internal::GetCapturedStderr();
    resetWarnDeduplication();
}

TEST(TraceFlags, UnknownFlagWarnsOncePerName)
{
    TraceReset guard;
    resetWarnDeduplication();
    testing::internal::CaptureStderr();

    // Same unknown name three ways: direct, inside a list, direct again.
    // The return-value contract is unchanged (false every time) but the
    // warning must fire exactly once for the name.
    EXPECT_FALSE(trace::setByName("BogusWarnOnceFlag"));
    trace::parseFlagList("BogusWarnOnceFlag, Mesh");
    EXPECT_FALSE(trace::setByName("BogusWarnOnceFlag"));
    EXPECT_TRUE(trace::enabled(trace::Flag::Mesh)); // rest of list applies

    std::string err = testing::internal::GetCapturedStderr();
    resetWarnDeduplication();

    size_t count = 0;
    for (size_t pos = 0;
         (pos = err.find("unknown trace flag 'BogusWarnOnceFlag'", pos)) !=
         std::string::npos;
         ++pos)
        ++count;
    EXPECT_EQ(count, 1u);
}

TEST(Distribution, BucketsAndMoments)
{
    Distribution d("lat", 0.0, 10.0, 5);
    for (double v : {1.0, 3.0, 3.0, 9.0})
        d.sample(v);
    d.sample(-1.0); // underflow
    d.sample(10.0); // hi is exclusive: overflow
    d.sample(25.0);

    EXPECT_EQ(d.samples(), 7u);
    EXPECT_EQ(d.underflow(), 1u);
    EXPECT_EQ(d.overflow(), 2u);
    EXPECT_EQ(d.bucket(0), 1u); // [0,2): 1.0
    EXPECT_EQ(d.bucket(1), 2u); // [2,4): 3.0 x2
    EXPECT_EQ(d.bucket(4), 1u); // [8,10): 9.0
    EXPECT_DOUBLE_EQ(d.minValue(), -1.0);
    EXPECT_DOUBLE_EQ(d.maxValue(), 25.0);
    EXPECT_DOUBLE_EQ(d.mean(), 50.0 / 7.0);
    EXPECT_DOUBLE_EQ(d.bucketWidth(), 2.0);

    // Unbiased sample stdev of {1,3,3,9,-1,10,25}.
    double m = 50.0 / 7.0;
    double ss = 0;
    for (double v : {1.0, 3.0, 3.0, 9.0, -1.0, 10.0, 25.0})
        ss += (v - m) * (v - m);
    EXPECT_NEAR(d.stdev(), std::sqrt(ss / 6.0), 1e-9);

    d.reset();
    EXPECT_EQ(d.samples(), 0u);
    EXPECT_EQ(d.bucket(1), 0u);
}

TEST(VectorStatTest, LanesAndTotal)
{
    VectorStat v("lanes", 4);
    v.inc(0);
    v.inc(0);
    v.inc(3, 5.0);
    v.set(1, 2.0);
    EXPECT_DOUBLE_EQ(v.at(0), 2.0);
    EXPECT_DOUBLE_EQ(v.at(1), 2.0);
    EXPECT_DOUBLE_EQ(v.at(2), 0.0);
    EXPECT_DOUBLE_EQ(v.total(), 9.0);
    EXPECT_DOUBLE_EQ(v.maxValue(), 5.0);
    EXPECT_EQ(v.size(), 4u);
}

TEST(Formula, EvaluatesAtReadTime)
{
    StatGroup g("test.group");
    Stat &hits = g.scalar("hits");
    Stat &misses = g.scalar("misses");
    g.formula("hitRate", [&] {
        double total = hits.get() + misses.get();
        return total ? hits.get() / total : 0.0;
    });

    hits += 3;
    misses += 1;
    GroupSnapshot snap = g.snapshot();
    EXPECT_DOUBLE_EQ(snap.formulas.at("hitRate"), 0.75);

    // Formulas track later updates (evaluated per snapshot/dump).
    misses += 2;
    EXPECT_DOUBLE_EQ(g.snapshot().formulas.at("hitRate"), 0.5);
}

TEST(StatGroupSnapshot, CarriesAllStatKinds)
{
    StatGroup g("snap.group");
    g.scalar("count") += 7;
    Distribution &d = g.distribution("dist", 0.0, 4.0, 4);
    d.sample(1.0);
    d.sample(3.0);
    g.vector("vec", 3).inc(2, 4.0);
    g.formula("twice", [&] { return g.scalar("count").get() * 2.0; });

    GroupSnapshot snap = g.snapshot();
    EXPECT_EQ(snap.name, "snap.group");
    EXPECT_DOUBLE_EQ(snap.scalars.at("count"), 7.0);
    EXPECT_DOUBLE_EQ(snap.formulas.at("twice"), 14.0);
    EXPECT_EQ(snap.distributions.at("dist").samples(), 2u);
    EXPECT_DOUBLE_EQ(snap.vectors.at("vec").at(2), 4.0);

    // Snapshots are value copies: later samples don't leak in.
    d.sample(2.0);
    EXPECT_EQ(snap.distributions.at("dist").samples(), 2u);
}

TEST(Json, WriteParseRoundTrip)
{
    json::Value doc = json::Value::object();
    doc.set("name", "mesh \"east\" link\n");
    doc.set("count", uint64_t(123456789012345ull));
    doc.set("ratio", 0.3333333333333333);
    doc.set("ok", true);
    doc.set("missing", nullptr);
    json::Value arr = json::Value::array();
    for (int i = 0; i < 4; ++i)
        arr.push(i * 1.5);
    doc.set("buckets", std::move(arr));

    for (unsigned indent : {0u, 2u}) {
        std::string text = json::write(doc, indent);
        json::Value back = json::parse(text);
        EXPECT_EQ(back.at("name").asString(), "mesh \"east\" link\n");
        EXPECT_DOUBLE_EQ(back.at("count").asNumber(), 123456789012345.0);
        EXPECT_DOUBLE_EQ(back.at("ratio").asNumber(), 0.3333333333333333);
        EXPECT_TRUE(back.at("ok").asBool());
        EXPECT_TRUE(back.at("missing").isNull());
        EXPECT_EQ(back.at("buckets").size(), 4u);
        EXPECT_DOUBLE_EQ(back.at("buckets").at(3).asNumber(), 4.5);
    }

    // Integral numbers serialize without a decimal point.
    EXPECT_NE(json::write(doc, 0).find("\"count\":123456789012345"),
              std::string::npos);
}

TEST(Json, ExactSixtyFourBitIntegers)
{
    // Integer-built numbers keep full 64-bit precision through write
    // and parse — no silent narrowing through double above 2^53.
    const uint64_t top = 18446744073709551615ull;   // 2^64 - 1
    const uint64_t odd = (1ull << 53) + 1;          // first non-double
    json::Value doc = json::Value::object();
    doc.set("top", top);
    doc.set("odd", odd);
    doc.set("neg", INT64_MIN);

    std::string text = json::write(doc, 0);
    EXPECT_EQ(text, "{\"top\":18446744073709551615,"
                    "\"odd\":9007199254740993,"
                    "\"neg\":-9223372036854775808}");
    json::Value back = json::parse(text);
    EXPECT_EQ(back.at("top").asUInt64(), top);
    EXPECT_EQ(back.at("odd").asUInt64(), odd);
    EXPECT_EQ(back.at("neg").asInt64(), INT64_MIN);
    EXPECT_EQ(json::write(back, 0), text);  // byte-stable round trip

    // Plain integer literals restore exactly; fractional, exponent
    // and over-wide literals still travel as doubles.
    EXPECT_EQ(json::parse("7").asUInt64(), 7u);
    EXPECT_EQ(json::parse("-3").asInt64(), -3);
    EXPECT_DOUBLE_EQ(json::parse("2.5").asNumber(), 2.5);
    EXPECT_DOUBLE_EQ(json::parse("1e300").asNumber(), 1e300);
    EXPECT_DOUBLE_EQ(json::parse("184467440737095516160").asNumber(),
                     1.8446744073709552e20);

    // The exact accessors convert integral doubles and range-check
    // across signedness instead of wrapping.
    EXPECT_EQ(json::Value(42.0).asUInt64(), 42u);
    EXPECT_THROW(json::Value(-1).asUInt64(), PanicError);
    EXPECT_THROW(json::Value(top).asInt64(), PanicError);
    EXPECT_THROW(json::Value(2.5).asUInt64(), PanicError);
}

TEST(Json, StableKeyOrder)
{
    json::Value doc = json::Value::object();
    doc.set("zebra", 1);
    doc.set("alpha", 2);
    doc.set("zebra", 3); // overwrite keeps first-set position
    std::string text = json::write(doc, 0);
    EXPECT_EQ(text, "{\"zebra\":3,\"alpha\":2}");
}

// A tripwire for the DOM's layout: every exported request, bucket and
// counter is one Value, so its size sets the export's memory traffic.
static_assert(sizeof(json::Value) <= 56, "json::Value grew past 56 bytes");

TEST(Json, WriterByteExact)
{
    // Expected bytes were captured from the writer before its rewrite
    // into a raw buffer; any drift here changes every exported file.
    const double inf = std::numeric_limits<double>::infinity();
    json::Value scalars = json::Value::object();
    scalars.set(std::string("esc\"\\\x01\xc3\xa9", 8), "key");
    scalars.set("ctl", std::string("\"\\/\b\f\n\r\t\x01\x1f\x7f\0", 12));
    scalars.set("utf8", "\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80\x80\xff");
    scalars.set("u64max", std::numeric_limits<uint64_t>::max());
    scalars.set("u64zero", uint64_t(0));
    scalars.set("i64min", std::numeric_limits<int64_t>::min());
    scalars.set("i64max", std::numeric_limits<int64_t>::max());
    scalars.set("negOne", -1);
    scalars.set("negZero", -0.0);
    scalars.set("tenth", 0.1);
    scalars.set("third", 1.0 / 3.0);
    scalars.set("big", 1e300);
    scalars.set("denormal", 5e-324);
    scalars.set("nan", std::nan(""));
    scalars.set("inf", inf);
    scalars.set("negInf", -inf);
    scalars.set("three", 3.0);
    scalars.set("negHalf", -2.5);
    scalars.set("below2p53", 9007199254740991.0);
    scalars.set("at2p53", 9007199254740992.0);
    scalars.set("above2p53", 9007199254740994.0);
    scalars.set("below9e15", 8999999999999999.0);
    scalars.set("at9e15", 9e15);
    scalars.set("above9e15", 9000000000000001.0);
    scalars.set("negBelow9e15", -8999999999999999.0);
    scalars.set("negAt9e15", -9e15);
    scalars.set("t", true);
    scalars.set("f", false);
    scalars.set("n", nullptr);
    EXPECT_EQ(json::write(scalars, 0),
              "{\"esc\\\"\\\\\\u0001\xc3\xa9\":\"key\","
              "\"ctl\":\"\\\"\\\\/\\u0008\\u000c\\n\\r\\t\\u0001\\u001f"
              "\x7f\\u0000\","
              "\"utf8\":\"\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80\x80\xff\","
              "\"u64max\":18446744073709551615,\"u64zero\":0,"
              "\"i64min\":-9223372036854775808,"
              "\"i64max\":9223372036854775807,\"negOne\":-1,"
              "\"negZero\":0,\"tenth\":0.1,\"third\":0.3333333333333333,"
              "\"big\":1e+300,\"denormal\":5e-324,"
              "\"nan\":null,\"inf\":null,\"negInf\":null,"
              "\"three\":3,\"negHalf\":-2.5,"
              "\"below2p53\":9007199254740991,\"at2p53\":9007199254740992,"
              "\"above2p53\":9007199254740994,"
              "\"below9e15\":8999999999999999,\"at9e15\":9e+15,"
              "\"above9e15\":9000000000000001,"
              "\"negBelow9e15\":-8999999999999999,\"negAt9e15\":-9e+15,"
              "\"t\":true,\"f\":false,\"n\":null}");

    json::Value nested = json::Value::object();
    nested.set("emptyArray", json::Value::array());
    nested.set("emptyObject", json::Value::object());
    json::Value items = json::Value::array();
    items.push(1);
    json::Value deeper = json::Value::array();
    deeper.push(json::Value::array());
    deeper.push(json::Value::object());
    deeper.push("s");
    items.push(std::move(deeper));
    json::Value point = json::Value::object();
    point.set("x", 0.5);
    point.set("y", nullptr);
    items.push(std::move(point));
    nested.set("items", std::move(items));
    EXPECT_EQ(json::write(nested, 0),
              "{\"emptyArray\":[],\"emptyObject\":{},"
              "\"items\":[1,[[],{},\"s\"],{\"x\":0.5,\"y\":null}]}");
    EXPECT_EQ(json::write(nested, 2),
              "{\n"
              "  \"emptyArray\": [],\n"
              "  \"emptyObject\": {},\n"
              "  \"items\": [\n"
              "    1,\n"
              "    [\n"
              "      [],\n"
              "      {},\n"
              "      \"s\"\n"
              "    ],\n"
              "    {\n"
              "      \"x\": 0.5,\n"
              "      \"y\": null\n"
              "    }\n"
              "  ]\n"
              "}\n");
    EXPECT_EQ(json::write(nested, 4),
              "{\n"
              "    \"emptyArray\": [],\n"
              "    \"emptyObject\": {},\n"
              "    \"items\": [\n"
              "        1,\n"
              "        [\n"
              "            [],\n"
              "            {},\n"
              "            \"s\"\n"
              "        ],\n"
              "        {\n"
              "            \"x\": 0.5,\n"
              "            \"y\": null\n"
              "        }\n"
              "    ]\n"
              "}\n");

    // Top-level scalars and empty containers.
    EXPECT_EQ(json::write(json::Value(1.5), 2), "1.5\n");
    EXPECT_EQ(json::write(json::Value::array(), 0), "[]");
    EXPECT_EQ(json::write(json::Value::object(), 4), "{}\n");
}

TEST(Json, SurrogatePairDecodesToOneCodePoint)
{
    // U+1F600 arrives as a UTF-16 surrogate pair and must come out as
    // one 4-byte UTF-8 sequence, not two 3-byte halves.
    EXPECT_EQ(json::parse("\"\\ud83d\\ude00\"").asString(),
              "\xf0\x9f\x98\x80");
    EXPECT_EQ(json::parse("\"a\\uD800\\uDC00b\"").asString(),
              "a\xf0\x90\x80\x80" "b");
    EXPECT_EQ(json::parse("\"\\udbff\\udfff\"").asString(),
              "\xf4\x8f\xbf\xbf");
    // BMP escapes around the surrogate range are unchanged.
    EXPECT_EQ(json::parse("\"\\u00e9\\ud7ff\\ue000\"").asString(),
              "\xc3\xa9\xed\x9f\xbf\xee\x80\x80");
}

TEST(Json, LoneSurrogateIsAParseError)
{
    auto message = [](const std::string &text) -> std::string {
        try {
            json::parse(text);
        } catch (const FatalError &e) {
            return e.what();
        }
        return "parsed";
    };
    // A high half with no low half after it, in every way that can
    // happen, and a low half on its own; the error names the offset of
    // the offending escape.
    EXPECT_NE(message("\"x\\ud83d\"").find("offset 2: lone high surrogate"),
              std::string::npos) << message("\"x\\ud83d\"");
    EXPECT_NE(message("\"\\ud83dx\"").find("offset 1: lone high surrogate"),
              std::string::npos);
    EXPECT_NE(message("\"\\ud83d\\u0041\"")
                  .find("offset 1: lone high surrogate"),
              std::string::npos);
    EXPECT_NE(message("\"\\ud83d\\ud83d\"")
                  .find("offset 1: lone high surrogate"),
              std::string::npos);
    EXPECT_NE(message("\"ab\\ude00\"").find("offset 3: lone low surrogate"),
              std::string::npos) << message("\"ab\\ude00\"");
}

TEST(Json, ParseErrors)
{
    EXPECT_THROW(json::parse("{"), FatalError);
    EXPECT_THROW(json::parse("[1,]"), FatalError);
    EXPECT_THROW(json::parse("{\"a\" 1}"), FatalError);
    EXPECT_THROW(json::parse("nul"), FatalError);
    EXPECT_THROW(json::parse("12 34"), FatalError);
    EXPECT_THROW(json::parse("\"unterminated"), FatalError);
    EXPECT_THROW(json::Value::object().at("nope"), PanicError);
}

TEST(Exporter, ExperimentResultDocumentShape)
{
    setQuietLogging(true);
    auto res = analysis::runExperiment("convert", "baseline", 64);
    ASSERT_TRUE(res.verified);

    json::Value doc = analysis::toJson(res);
    EXPECT_EQ(doc.at("kernel").asString(), "convert");
    EXPECT_EQ(doc.at("config").asString(), "baseline");
    EXPECT_GT(doc.at("cycles").asNumber(), 0.0);
    EXPECT_GT(doc.at("opsPerCycle").asNumber(), 0.0);

    // The required non-scalar stats ride along in the snapshots.
    const json::Value &groups = doc.at("statGroups");
    ASSERT_EQ(groups.size(), 4u);
    bool meshUtil = false, smcConflicts = false, operandWait = false;
    for (const auto &g : groups.items()) {
        const std::string &name = g.at("name").asString();
        if (name == "noc.mesh")
            meshUtil = g.at("distributions").has("linkUtilization");
        if (name == "mem.smc")
            smcConflicts = g.at("vectors").has("bankConflicts");
        if (name == "core.simd")
            operandWait = g.at("distributions").has("operandWaitTicks");
    }
    EXPECT_TRUE(meshUtil);
    EXPECT_TRUE(smcConflicts);
    EXPECT_TRUE(operandWait);

    // Round-trips through the parser.
    json::Value back = json::parse(json::write(doc));
    EXPECT_DOUBLE_EQ(back.at("cycles").asNumber(),
                     doc.at("cycles").asNumber());
}

// The report helpers' documented edge cases (kept alongside the exporter
// tests because the JSON means reuse them).
TEST(ReportGaps, HarmonicMeanRejectsDegenerateInput)
{
    EXPECT_THROW(analysis::harmonicMean({}), PanicError);
    EXPECT_THROW(analysis::harmonicMean({1.0, 0.0}), PanicError);
    EXPECT_DOUBLE_EQ(analysis::harmonicMean({4.0, 4.0}), 4.0);
}
