/**
 * @file
 * Tests for the observability layer: DLP_TRACE's flags and text lines,
 * the non-scalar statistics (distributions, vectors, formulas) and their
 * snapshots, warn() rate limiting, the JSON writer/parser round trip,
 * and the experiment-result exporter's document shape.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <vector>

#include "analysis/experiments.hh"
#include "analysis/export.hh"
#include "analysis/report.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "obs/timeline.hh"

using namespace dlp;

namespace {

/** The FatalError message parsing `text` raises, or "parsed". */
std::string
parseError(const std::string &text)
{
    try {
        json::parse(text);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "parsed";
}

/** RAII: leave the text sink off and on std::cout for the next test. */
struct TraceReset
{
    TraceReset() { restore(); }
    ~TraceReset() { restore(); }

    static void
    restore()
    {
        obs::parseCatList("-All", obs::textSink);
        obs::setTextStream(nullptr);
    }
};

bool
traceOn(obs::Cat c)
{
    return obs::sinkEnabled(c, obs::textSink);
}

bool
anyTraceOn()
{
    for (unsigned i = 0; i < obs::numCats; ++i)
        if (traceOn(static_cast<obs::Cat>(i)))
            return true;
    return false;
}

} // namespace

TEST(TraceFlags, NamesAndProgrammaticControl)
{
    TraceReset guard;
    EXPECT_FALSE(anyTraceOn());
    EXPECT_STREQ(obs::catName(obs::Cat::Mesh), "Mesh");
    EXPECT_STREQ(obs::catName(obs::Cat::SMC), "SMC");

    EXPECT_TRUE(obs::setByName("Mesh", obs::textSink));
    EXPECT_TRUE(traceOn(obs::Cat::Mesh));
    EXPECT_FALSE(traceOn(obs::Cat::SMC));
    EXPECT_TRUE(anyTraceOn());
    // The text bit alone opens the site gate.
    EXPECT_TRUE(obs::enabled(obs::Cat::Mesh));

    EXPECT_TRUE(obs::setByName("-Mesh", obs::textSink));
    EXPECT_FALSE(anyTraceOn());
}

TEST(TraceFlags, SetByName)
{
    TraceReset guard;
    EXPECT_TRUE(obs::setByName("SMC", obs::textSink));
    EXPECT_TRUE(traceOn(obs::Cat::SMC));
    EXPECT_TRUE(obs::setByName("-SMC", obs::textSink));
    EXPECT_FALSE(traceOn(obs::Cat::SMC));

    EXPECT_TRUE(obs::setByName("All", obs::textSink));
    for (unsigned i = 0; i < obs::numCats; ++i)
        EXPECT_TRUE(traceOn(static_cast<obs::Cat>(i)));
    EXPECT_TRUE(obs::setByName("-All", obs::textSink));
    EXPECT_FALSE(anyTraceOn());

    setQuietLogging(true);
    EXPECT_FALSE(obs::setByName("NoSuchFlag", obs::textSink));
    setQuietLogging(false);
    EXPECT_FALSE(anyTraceOn());
}

TEST(TraceFlags, ParseFlagList)
{
    TraceReset guard;
    obs::parseCatList("Mesh, SMC", obs::textSink);
    EXPECT_TRUE(traceOn(obs::Cat::Mesh));
    EXPECT_TRUE(traceOn(obs::Cat::SMC));
    EXPECT_FALSE(traceOn(obs::Cat::EventQ));

    obs::parseCatList("All,-Exec", obs::textSink);
    EXPECT_TRUE(traceOn(obs::Cat::Mesh));
    EXPECT_FALSE(traceOn(obs::Cat::Exec));
}

TEST(TraceFlags, InitFromEnv)
{
    TraceReset guard;
    ::setenv("DLP_TRACE", "Mesh,SMC", 1);
    obs::initFromEnv();
    ::unsetenv("DLP_TRACE");
    EXPECT_TRUE(traceOn(obs::Cat::Mesh));
    EXPECT_TRUE(traceOn(obs::Cat::SMC));
    EXPECT_FALSE(traceOn(obs::Cat::Engine));
}

TEST(TraceOutput, TickComponentMessageFormat)
{
    TraceReset guard;
    obs::clearTimeline();
    std::ostringstream lines;
    obs::setTextStream(&lines);
    obs::setByName("Mesh", obs::textSink);

    // Each line is stamped with its event's own tick.
    OBS_SIM_SPAN(Mesh, "poke", 42, 3, 7);
    OBS_SIM_INSTANT(Mesh, "mark", 45, 0);
    OBS_SIM_COUNTER(Mesh, "depth", 46, 2.5);
    obs::recordInstant(obs::Cat::Mesh, obs::internName("bail"),
                       obs::Domain::Sim, 47, 1,
                       obs::internName("Pass: detail"));
    // Host-domain events and other categories print nothing.
    obs::hostInstant(obs::Cat::Mesh, "host.instant");
    OBS_SIM_SPAN(SMC, "burst", 48, 1, 1);
    obs::setByName("-Mesh", obs::textSink);
    OBS_SIM_SPAN(Mesh, "poke", 99, 1, 1); // flag off: must not print

    EXPECT_EQ(lines.str(),
              "42: Mesh: poke dur=3 arg=7\n"
              "45: Mesh: mark\n"
              "46: Mesh: depth value=2.5\n"
              "47: Mesh: bail arg=1 Pass: detail\n");
    // The text sink leaves the ring alone.
    EXPECT_EQ(obs::timelineCounts().recorded, 0u);
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
    EXPECT_FALSE(obs::setByName("BogusWarnOnceFlag", obs::textSink));
    obs::parseCatList("BogusWarnOnceFlag, Mesh", obs::textSink);
    EXPECT_FALSE(obs::setByName("BogusWarnOnceFlag", obs::textSink));
    EXPECT_TRUE(traceOn(obs::Cat::Mesh)); // rest of list applies

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
static_assert(sizeof(json::Value) <= 32, "json::Value grew past 32 bytes");

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

namespace {

template <typename T>
std::string
toChars(T v)
{
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/** What the writer prints for a double: integral values below 9e15 as
 *  an int64, every other finite value in std::to_chars' shortest form. */
std::string
doubleText(double d)
{
    if (std::fabs(d) < 9.0e15 && double(int64_t(d)) == d)
        return toChars(int64_t(d));
    return toChars(d);
}

/**
 * Writes `values` as one compact array and checks each item's text
 * against `expect`, naming the first few mismatches.
 */
template <typename T, typename Expect>
void
expectItemsMatch(const std::vector<T> &values, Expect expect)
{
    json::Value arr = json::Value::array();
    arr.reserve(values.size());
    for (T v : values)
        arr.push(v);
    const std::string text = json::write(arr, 0);
    ASSERT_GE(text.size(), 2u);
    ASSERT_EQ(text.front(), '[');
    ASSERT_EQ(text.back(), ']');
    size_t pos = 1;
    int mismatches = 0;
    for (size_t i = 0; i < values.size(); ++i) {
        size_t end = text.find(i + 1 < values.size() ? ',' : ']', pos);
        ASSERT_NE(end, std::string::npos) << "item " << i << " missing";
        std::string got = text.substr(pos, end - pos);
        std::string want = expect(values[i]);
        if (got != want && ++mismatches <= 5)
            ADD_FAILURE() << "item " << i << ": wrote " << got
                          << ", std::to_chars gives " << want;
        pos = end + 1;
    }
    EXPECT_EQ(pos, text.size());
    EXPECT_EQ(mismatches, 0);
}

} // namespace

TEST(Json, WriterIntegersMatchToChars)
{
    // The writer formats integers itself; its bytes must be exactly
    // std::to_chars', at every digit count and at both ends of each.
    std::vector<uint64_t> u64{0, 1, std::numeric_limits<uint64_t>::max(),
                              std::numeric_limits<uint64_t>::max() - 1};
    std::vector<int64_t> i64{0, -1, 1, std::numeric_limits<int64_t>::min(),
                             std::numeric_limits<int64_t>::min() + 1,
                             std::numeric_limits<int64_t>::max()};
    uint64_t p = 1;
    for (int digits = 1; digits <= 20; ++digits) {
        for (uint64_t v : {p - 1, p, p + 1}) {
            u64.push_back(v);
            if (v <= uint64_t(std::numeric_limits<int64_t>::max())) {
                i64.push_back(int64_t(v));
                i64.push_back(-int64_t(v));
            }
        }
        if (digits < 20)
            p *= 10;
    }
    // Powers of two, where the bit width steps.
    for (int b = 0; b < 64; ++b) {
        u64.push_back(uint64_t(1) << b);
        u64.push_back((uint64_t(1) << b) - 1);
    }

    const double two53 = 9007199254740992.0;
    std::vector<double> dbl{0.0, -0.0, 1.0, -1.0, two53, -two53,
                            two53 - 1, -(two53 - 1), two53 + 2,
                            -(two53 + 2), 9e15, -9e15, 9e15 - 1,
                            -(9e15 - 1), 9e15 + 1, -(9e15 + 1),
                            8999999999999999.0, 1e16, 1e17, 1e300};

    // A million more, seeded: every bit width, both signs.
    std::mt19937_64 rng(24);
    auto randomWidth = [&rng](unsigned maxBits) {
        unsigned shift = unsigned(rng() % maxBits);
        return rng() >> (64 - maxBits + shift);
    };
    for (int i = 0; i < 400000; ++i) {
        u64.push_back(randomWidth(64));
        int64_t s = int64_t(randomWidth(63));
        i64.push_back(rng() & 1 ? s : -s - 1);
        // Integral doubles: exact below 2^53, then sparser, spanning
        // the 9e15 switch to std::to_chars(double).
        double d = double(randomWidth(63));
        dbl.push_back(rng() & 1 ? d : -d);
    }

    expectItemsMatch(u64, [](uint64_t v) { return toChars(v); });
    expectItemsMatch(i64, [](int64_t v) { return toChars(v); });
    expectItemsMatch(dbl, doubleText);
}

namespace {

/**
 * An independent serializer for documents of plain keys, integers,
 * bools and escape-free strings: std::to_string for numbers, an
 * explicit newline and indentation per line.
 */
void
referenceWrite(std::string &out, const json::Value &v, unsigned indent,
               unsigned depth)
{
    auto line = [&](unsigned level) {
        if (indent) {
            out += '\n';
            out.append(size_t(indent) * level, ' ');
        }
    };
    switch (v.kind()) {
      case json::Value::Kind::Number:
        out += v.numRep() == json::Value::NumRep::UInt64
                   ? std::to_string(v.asUInt64())
                   : std::to_string(v.asInt64());
        break;
      case json::Value::Kind::Bool:
        out += v.asBool() ? "true" : "false";
        break;
      case json::Value::Kind::String:
        out += '"';
        out += v.asString();
        out += '"';
        break;
      case json::Value::Kind::Array:
        out += '[';
        for (size_t i = 0; i < v.size(); ++i) {
            if (i)
                out += ',';
            line(depth + 1);
            referenceWrite(out, v.at(i), indent, depth + 1);
        }
        if (v.size())
            line(depth);
        out += ']';
        break;
      case json::Value::Kind::Object: {
        out += '{';
        size_t i = 0;
        for (const json::Member &m : v.members()) {
            if (i++)
                out += ',';
            line(depth + 1);
            out += '"';
            out += m.key();
            out += indent ? "\": " : "\":";
            referenceWrite(out, m.value(), indent, depth + 1);
        }
        if (v.size())
            line(depth);
        out += '}';
        break;
      }
      case json::Value::Kind::Null:
        out += "null";
        break;
    }
}

} // namespace

TEST(Json, WriterSpansManyChunks)
{
    // Several MiB of output cross every output chunk size; the blob is
    // longer than the largest chunk, and the nesting reaches lines both
    // shorter and longer than the writer's one-copy indentation.
    std::mt19937_64 rng(7);
    json::Value doc = json::Value::object();
    json::Value counts = json::Value::array();
    for (int i = 0; i < 200000; ++i) {
        uint64_t v = rng();
        v >>= v % 64;
        if (i % 3 == 0)
            counts.push(-int64_t(v >> 1));
        else
            counts.push(v);
    }
    doc.set("counts", std::move(counts));
    json::Value rows = json::Value::array();
    for (int i = 0; i < 4000; ++i) {
        json::Value row = json::Value::object();
        row.set("id", uint64_t(i));
        row.set("even", i % 2 == 0);
        row.set("empty", i % 5 ? json::Value::array() : json::Value::object());
        json::Value nest = json::Value(uint64_t(rng()));
        for (int level = 0; level < i % 16; ++level) {
            json::Value wrap = level % 2 ? json::Value::array()
                                         : json::Value::object();
            if (level % 2)
                wrap.push(std::move(nest));
            else
                wrap.set("in", std::move(nest));
            nest = std::move(wrap);
        }
        row.set("nest", std::move(nest));
        rows.push(std::move(row));
    }
    doc.set("rows", std::move(rows));
    std::string blob(1536 * 1024 + 7, 'x');
    for (size_t i = 0; i < blob.size(); i += 4093)
        blob[i] = char('a' + i % 26);
    doc.set("blob", blob);
    doc.set("last", -1);

    for (unsigned indent : {0u, 2u, 4u}) {
        std::string expect;
        referenceWrite(expect, doc, indent, 0);
        if (indent)
            expect += '\n';
        const std::string text = json::write(doc, indent);
        EXPECT_GT(text.size(), size_t(3) << 20);
        ASSERT_EQ(text.size(), expect.size()) << "indent " << indent;
        // One comparison, reported by offset rather than by dumping MiB.
        auto diff = std::mismatch(text.begin(), text.end(), expect.begin());
        EXPECT_EQ(diff.first, text.end())
            << "indent " << indent << ": first difference at byte "
            << (diff.first - text.begin());
    }
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
    // A high half with no low half after it, in every way that can
    // happen, and a low half on its own; the error names the offset of
    // the offending escape.
    EXPECT_NE(parseError("\"x\\ud83d\"").find("offset 2: lone high surrogate"),
              std::string::npos) << parseError("\"x\\ud83d\"");
    EXPECT_NE(parseError("\"\\ud83dx\"").find("offset 1: lone high surrogate"),
              std::string::npos);
    EXPECT_NE(parseError("\"\\ud83d\\u0041\"")
                  .find("offset 1: lone high surrogate"),
              std::string::npos);
    EXPECT_NE(parseError("\"\\ud83d\\ud83d\"")
                  .find("offset 1: lone high surrogate"),
              std::string::npos);
    EXPECT_NE(parseError("\"ab\\ude00\"").find("offset 3: lone low surrogate"),
              std::string::npos) << parseError("\"ab\\ude00\"");
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

TEST(Json, LeadingZeroIsAParseError)
{
    // RFC 8259 allows no leading zero; the error names where the
    // number starts.
    EXPECT_NE(parseError("01").find("offset 0: leading zero"),
              std::string::npos) << parseError("01");
    EXPECT_NE(parseError("-007").find("offset 0: leading zero"),
              std::string::npos) << parseError("-007");
    EXPECT_NE(parseError("[00]").find("offset 1: leading zero"),
              std::string::npos) << parseError("[00]");
    // A malformed number reports its start, not where scanning ended.
    EXPECT_NE(parseError("+1").find("offset 0: "), std::string::npos)
        << parseError("+1");
    EXPECT_NE(parseError("1-2").find("offset 0: malformed number"),
              std::string::npos) << parseError("1-2");
    EXPECT_NE(parseError("[1, 2e]").find("offset 4: malformed number"),
              std::string::npos) << parseError("[1, 2e]");
    EXPECT_NE(parseError("1.").find("offset 0: malformed number"),
              std::string::npos) << parseError("1.");
    EXPECT_NE(parseError("-").find("offset 0: malformed number"),
              std::string::npos) << parseError("-");
    // A lone zero, with a sign, fraction or exponent, still parses.
    EXPECT_EQ(json::parse("0").asUInt64(), 0u);
    EXPECT_EQ(json::parse("-0").asInt64(), 0);
    EXPECT_DOUBLE_EQ(json::parse("0.5").asNumber(), 0.5);
    EXPECT_DOUBLE_EQ(json::parse("0e1").asNumber(), 0.0);
    EXPECT_DOUBLE_EQ(json::parse("-0.25E+2").asNumber(), -25.0);
}

TEST(Json, RawControlByteInStringIsAParseError)
{
    EXPECT_NE(parseError("\"a\tb\"").find("offset 2: raw control character"),
              std::string::npos) << parseError("\"a\tb\"");
    EXPECT_NE(parseError("[\"\x01\"]").find("offset 2: raw control character"),
              std::string::npos);
    EXPECT_NE(parseError(std::string("{\"k\0\":1}", 7))
                  .find("offset 3: raw control character"),
              std::string::npos);
    // Escaped, the same bytes are fine; DEL and UTF-8 need no escape.
    EXPECT_EQ(json::parse("\"a\\tb\\u0001\"").asString(), "a\tb\x01");
    EXPECT_EQ(json::parse("\"\x7f\xc3\xa9\"").asString(), "\x7f\xc3\xa9");
}

TEST(Json, StandaloneValuesSpliceIntoTheirParents)
{
    // Children built standalone, each in its own arena, then moved into
    // a parent by push and by set; the parent then moves on into a
    // third document, and every source is gone before the write.
    json::Value third = json::Value::object();
    {
        json::Value parent = json::Value::object();
        json::Value list = json::Value::array();
        json::Value point = json::Value::object();
        point.set("x", 1);
        point.set("label", std::string(100, 'p'));
        list.push(std::move(point));
        list.push("standalone string");
        parent.set("list", std::move(list));
        EXPECT_TRUE(list.isNull());  // a moved-from root is empty

        json::Value nested = json::Value::object();
        json::Value &deep = nested.set("deep", json::Value::array());
        deep.push(-1);
        parent.set("nested", std::move(nested));
        third.set("first", 0);
        third.set("parent", std::move(parent));
        // Splicing moves no storage: the slot is where it was, and it
        // now grows in the third document's arena.
        for (int i = 0; i < 100; ++i)
            deep.push(i);
    }
    json::Value &added = third.set("late", json::Value::object());
    added.set("y", 2.5);
    std::string expect = "{\"first\":0,\"parent\":{\"list\":[{\"x\":1,"
                         "\"label\":\"";
    expect.append(100, 'p');
    expect += "\"},\"standalone string\"],\"nested\":{\"deep\":[-1";
    for (int i = 0; i < 100; ++i) {
        expect += ',';
        expect += std::to_string(i);
    }
    expect += "]}},\"late\":{\"y\":2.5}}";
    EXPECT_EQ(json::write(third, 0), expect);

    // A document cannot be moved into itself.
    json::Value self = json::Value::array();
    json::Value &inner = self.push(json::Value::array());
    EXPECT_THROW(inner.push(std::move(self)), PanicError);
}

TEST(Json, SetOverwriteKeepsFirstPosition)
{
    json::Value doc = json::Value::object();
    doc.set("a", 1);
    doc.set("b", 2);
    // Overwrite through an interned key, through a plain name, and
    // with a container whose arena is spliced in.
    json::Key a = doc.intern("a");
    doc.set(a, 10);
    json::Value inner = json::Value::object();
    inner.set("k", true);
    doc.set("b", std::move(inner));
    doc.set("c", 3);
    EXPECT_EQ(json::write(doc, 0), "{\"a\":10,\"b\":{\"k\":true},\"c\":3}");

    // A member first set in a standalone child's arena, then overwritten
    // by a key of the parent's table, matches by name.
    json::Value parent = json::Value::array();
    json::Value child = json::Value::object();
    child.set("same", 1);
    child.set("other", 2);
    json::Value &slot = parent.push(std::move(child));
    slot.set(parent.intern("same"), 5);
    EXPECT_EQ(slot.size(), 2u);
    EXPECT_EQ(json::write(parent, 0), "[{\"same\":5,\"other\":2}]");

    // A key interned in another document is re-interned, not shared.
    json::Value other = json::Value::object();
    json::Value target = json::Value::object();
    {
        json::Value donor = json::Value::object();
        target.set(donor.intern("from donor"), 1);
        target.set(donor.intern("same"), 2);
    }
    target.set("same", 3);
    EXPECT_EQ(json::write(target, 0), "{\"from donor\":1,\"same\":3}");
}

TEST(Json, CopyOutlivesItsSource)
{
    json::Value copy;
    json::Value slotCopy;
    {
        json::Value source = json::Value::object();
        source.set("name", "mesh \"east\" link");
        json::Value &list = source.set("list", json::Value::array());
        for (int i = 0; i < 5; ++i)
            list.push(i * 0.5);
        copy = source;
        // Moving from a slot copies it: the slot's storage stays with
        // its document.
        slotCopy = std::move(list);
        source.set("name", "changed");
        EXPECT_EQ(source.at("list").size(), 5u);
    }
    EXPECT_EQ(json::write(copy, 0),
              "{\"name\":\"mesh \\\"east\\\" link\",\"list\":[0,0.5,1,1.5,2]}");
    EXPECT_EQ(json::write(slotCopy, 0), "[0,0.5,1,1.5,2]");
    json::Value again(copy);
    copy = json::Value();
    EXPECT_EQ(again.at("name").asString(), "mesh \"east\" link");
}

TEST(Json, ParseWriteReproducesGoldens)
{
    for (const char *name : {"golden_serve_quick.json",
                             "golden_figure5_quick.json"}) {
        std::ifstream in(std::string(DLP_SOURCE_DIR) + "/ci/" + name,
                         std::ios::binary);
        ASSERT_TRUE(in) << name;
        std::stringstream text;
        text << in.rdbuf();
        EXPECT_EQ(json::write(json::parse(text.str())), text.str()) << name;
    }
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
        const std::string_view name = g.at("name").asString();
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
