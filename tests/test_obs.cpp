/**
 * @file
 * Tests for the timeline tracing subsystem (src/obs/): ring-buffer
 * overflow and wrap accounting, span nesting across the two clock
 * domains, round-tripping the exported Chrome trace JSON through the
 * in-repo parser, category filtering, one site feeding both the ring
 * and the text sink, the occupancy-signature hash,
 * the periodic stat sampler's conservation law, and the guarantee that
 * tracing and sampling never perturb simulated results.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/experiments.hh"
#include "analysis/export.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "driver/sweep.hh"
#include "noc/mesh.hh"
#include "obs/sampler.hh"
#include "obs/timeline.hh"

using namespace dlp;

namespace {

/** RAII: leave the global timeline state clean for the next test. */
struct ObsReset
{
    ObsReset() { restore(); }
    ~ObsReset() { restore(); }

    static void
    restore()
    {
        obs::setRecording(false);
        obs::parseCatList("All");
        obs::parseCatList("-All", obs::textSink);
        obs::setTextStream(nullptr);
        obs::setTimeseriesInterval(0);
        obs::setRingCapacity(1 << 16);
        obs::clearTimeline();
    }
};

/** All trace events of one phase with a given name, in export order. */
std::vector<const json::Value *>
eventsNamed(const json::Value &doc, const std::string &name)
{
    std::vector<const json::Value *> out;
    for (const auto &ev : doc.at("traceEvents").items())
        if (ev.at("ph").asString() != "M" && ev.at("name").asString() == name)
            out.push_back(&ev);
    return out;
}

} // namespace

TEST(TimelineCats, MirrorTraceFlagsAndHostExtensions)
{
    // One vocabulary names the categories of both sinks: DLP_TRACE and
    // DLP_TIMELINE_CATS lists, and the "cat" of every exported event.
    const char *const names[] = {
        "EventQ", "Mesh", "SMC", "Cache", "Mem", "Engine", "Revit",
        "Exec", "Epoch", "Driver", "Audit", "Check", "Store",
    };
    ASSERT_EQ(std::size(names), obs::numCats);
    for (unsigned i = 0; i < obs::numCats; ++i)
        EXPECT_STREQ(obs::catName(static_cast<obs::Cat>(i)), names[i]);
}

TEST(TimelineCats, ParseCatListFiltersAndWarnsOnce)
{
    ObsReset guard;
    obs::setRecording(true);

    // A positive list starts from all-off.
    obs::parseCatList("Mesh, SMC");
    EXPECT_TRUE(obs::enabled(obs::Cat::Mesh));
    EXPECT_TRUE(obs::enabled(obs::Cat::SMC));
    EXPECT_FALSE(obs::enabled(obs::Cat::Engine));
    EXPECT_FALSE(obs::enabled(obs::Cat::Driver));

    // "All" plus subtraction.
    obs::parseCatList("All,-Exec");
    EXPECT_TRUE(obs::enabled(obs::Cat::Mesh));
    EXPECT_TRUE(obs::enabled(obs::Cat::Driver));
    EXPECT_FALSE(obs::enabled(obs::Cat::Exec));

    // A pure-subtraction list starts from all-on.
    obs::parseCatList("-Driver");
    EXPECT_TRUE(obs::enabled(obs::Cat::Exec));
    EXPECT_FALSE(obs::enabled(obs::Cat::Driver));

    // Unknown names warn exactly once each, and the master switch still
    // gates everything: recording off means no category is enabled.
    resetWarnDeduplication();
    testing::internal::CaptureStderr();
    obs::parseCatList("NoSuchTimelineCat,Mesh");
    obs::parseCatList("NoSuchTimelineCat,Mesh");
    std::string err = testing::internal::GetCapturedStderr();
    resetWarnDeduplication();
    size_t count = 0;
    for (size_t pos = 0;
         (pos = err.find("unknown timeline category 'NoSuchTimelineCat'",
                         pos)) != std::string::npos;
         ++pos)
        ++count;
    EXPECT_EQ(count, 1u);
    EXPECT_TRUE(obs::enabled(obs::Cat::Mesh));
    obs::setRecording(false);
    EXPECT_FALSE(obs::enabled(obs::Cat::Mesh));
}

TEST(TimelineRing, OverflowWrapsOldestFirstAndCountsDrops)
{
    ObsReset guard;
    obs::setRingCapacity(32);
    obs::clearTimeline();
    obs::setRecording(true);

    const uint32_t name = obs::internName("wrap.ev");
    for (uint64_t i = 0; i < 100; ++i)
        obs::recordInstant(obs::Cat::Engine, name, obs::Domain::Sim, i, i);
    obs::setRecording(false);

    obs::TimelineCounts counts = obs::timelineCounts();
    EXPECT_EQ(counts.recorded, 32u);
    EXPECT_EQ(counts.dropped, 68u);
    EXPECT_GE(counts.threads, 1u);

    // The export walks the ring oldest-surviving-first: the 32 newest
    // instants, in recording order.
    json::Value doc = json::parse(obs::exportChromeJson());
    std::vector<uint64_t> ts;
    for (const json::Value *ev : eventsNamed(doc, "wrap.ev"))
        ts.push_back(static_cast<uint64_t>(ev->at("ts").asNumber()));
    ASSERT_EQ(ts.size(), 32u);
    EXPECT_EQ(ts.front(), 68u);
    EXPECT_EQ(ts.back(), 99u);
    EXPECT_TRUE(std::is_sorted(ts.begin(), ts.end()));

    // clearTimeline drops events and the wrap debt.
    obs::clearTimeline();
    counts = obs::timelineCounts();
    EXPECT_EQ(counts.recorded, 0u);
    EXPECT_EQ(counts.dropped, 0u);
}

TEST(TimelineRing, ExportsDropCountsPerThread)
{
    ObsReset guard;
    obs::setRingCapacity(16);
    obs::clearTimeline();
    obs::setRecording(true);
    const uint32_t name = obs::internName("drop.ev");
    for (uint64_t i = 0; i < 20; ++i)
        obs::recordInstant(obs::Cat::Engine, name, obs::Domain::Sim, i, i);
    obs::setRecording(false);

    // Other tests' threads may own buffers too; this thread's ring is
    // the one that wrapped.
    json::Value doc = json::parse(obs::exportChromeJson());
    unsigned rings = 0, wrapped = 0;
    for (const auto &ev : doc.at("traceEvents").items()) {
        if (ev.at("ph").asString() != "M" ||
            ev.at("name").asString() != "ring")
            continue;
        ++rings;
        const json::Value &args = ev.at("args");
        EXPECT_EQ(args.at("capacity").asNumber(), 16.0);
        if (args.at("written").asNumber() == 20.0) {
            EXPECT_EQ(args.at("dropped").asNumber(), 4.0);
            ++wrapped;
        }
    }
    EXPECT_EQ(rings, obs::timelineCounts().threads);
    EXPECT_EQ(wrapped, 1u);
}

/** This thread's "ring" metadata args: the one whose sim ring wrote
 *  `simWritten` events. */
const json::Value *
ringArgsWithSimWritten(const json::Value &doc, double simWritten)
{
    for (const auto &ev : doc.at("traceEvents").items())
        if (ev.at("ph").asString() == "M" &&
            ev.at("name").asString() == "ring" &&
            ev.at("args").at("written").asNumber() == simWritten)
            return &ev.at("args");
    return nullptr;
}

TEST(TimelineRing, HostEventsKeepTheirOwnRing)
{
    // A flood of simulated instants wraps the simulated-domain ring
    // many times over; the host spans between them all survive.
    ObsReset guard;
    obs::setRingCapacity(16);
    obs::clearTimeline();
    obs::setRecording(true);
    const uint32_t name = obs::internName("flood.ev");
    for (uint64_t i = 0; i < 1000; ++i) {
        obs::recordInstant(obs::Cat::Exec, name, obs::Domain::Sim, i, i);
        if (i % 100 == 0) {
            obs::HostSpan h(obs::Cat::Driver, "kept.host", {}, i);
        }
    }
    obs::setRecording(false);

    json::Value doc = json::parse(obs::exportChromeJson());
    EXPECT_EQ(eventsNamed(doc, "kept.host").size(), 10u);
    EXPECT_EQ(eventsNamed(doc, "flood.ev").size(), 16u);
    const json::Value *args = ringArgsWithSimWritten(doc, 1000.0);
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->at("dropped").asNumber(), 984.0);
    EXPECT_EQ(args->at("host").at("written").asNumber(), 10.0);
    EXPECT_EQ(args->at("host").at("dropped").asNumber(), 0.0);
    EXPECT_GE(args->at("host").at("capacity").asNumber(), 10.0);
}

TEST(TimelineSpans, NestingAcrossClockDomains)
{
    ObsReset guard;
    obs::setRecording(true);

    // Simulated-tick spans through the instrumentation macros (also
    // exercises the per-site name-id caching).
    OBS_SIM_SPAN(Engine, "sim.outer", 100, 50, 7);
    OBS_SIM_SPAN(Exec, "sim.inner", 110, 10, 0);
    OBS_SIM_COUNTER(EventQ, "queue.depth", 120, 3.5);

    // Host-wall-clock spans, nested RAII style.
    {
        obs::HostSpan outer(obs::Cat::Driver, "host.outer",
                            "convert/baseline", 3);
        {
            obs::HostSpan inner(obs::Cat::Audit, "host.inner");
        }
    }
    obs::setRecording(false);

    json::Value doc = json::parse(obs::exportChromeJson());

    auto simOuter = eventsNamed(doc, "sim.outer");
    ASSERT_EQ(simOuter.size(), 1u);
    EXPECT_EQ(simOuter[0]->at("ph").asString(), "X");
    EXPECT_EQ(simOuter[0]->at("pid").asNumber(), 1.0);
    EXPECT_EQ(simOuter[0]->at("cat").asString(), "Engine");
    EXPECT_EQ(simOuter[0]->at("ts").asNumber(), 100.0);
    EXPECT_EQ(simOuter[0]->at("dur").asNumber(), 50.0);
    EXPECT_EQ(simOuter[0]->at("args").at("arg").asNumber(), 7.0);

    auto simInner = eventsNamed(doc, "sim.inner");
    ASSERT_EQ(simInner.size(), 1u);
    double innerTs = simInner[0]->at("ts").asNumber();
    double innerEnd = innerTs + simInner[0]->at("dur").asNumber();
    EXPECT_GE(innerTs, 100.0);
    EXPECT_LE(innerEnd, 150.0);

    auto counter = eventsNamed(doc, "queue.depth");
    ASSERT_EQ(counter.size(), 1u);
    EXPECT_EQ(counter[0]->at("ph").asString(), "C");
    EXPECT_DOUBLE_EQ(counter[0]->at("args").at("value").asNumber(), 3.5);

    auto hostOuter = eventsNamed(doc, "host.outer");
    auto hostInner = eventsNamed(doc, "host.inner");
    ASSERT_EQ(hostOuter.size(), 1u);
    ASSERT_EQ(hostInner.size(), 1u);
    EXPECT_EQ(hostOuter[0]->at("pid").asNumber(), 2.0);
    EXPECT_EQ(hostInner[0]->at("pid").asNumber(), 2.0);
    EXPECT_EQ(hostOuter[0]->at("cat").asString(), "Driver");
    EXPECT_EQ(hostInner[0]->at("cat").asString(), "Audit");
    EXPECT_EQ(hostOuter[0]->at("args").at("label").asString(),
              "convert/baseline");
    EXPECT_EQ(hostOuter[0]->at("args").at("arg").asNumber(), 3.0);

    // The inner span lies within the outer one (µs with ns precision;
    // allow parser rounding slack).
    double oTs = hostOuter[0]->at("ts").asNumber();
    double oEnd = oTs + hostOuter[0]->at("dur").asNumber();
    double iTs = hostInner[0]->at("ts").asNumber();
    double iEnd = iTs + hostInner[0]->at("dur").asNumber();
    EXPECT_GE(iTs, oTs - 1e-6);
    EXPECT_LE(iEnd, oEnd + 1e-6);
}

TEST(TimelineSpans, HostSpanRespectsCategoryFilter)
{
    ObsReset guard;
    obs::setRecording(true);
    obs::parseCatList("Driver");

    { obs::HostSpan filtered(obs::Cat::Audit, "filtered.span"); }
    { obs::HostSpan kept(obs::Cat::Driver, "kept.span"); }
    obs::hostInstant(obs::Cat::Check, "filtered.instant");
    obs::hostInstant(obs::Cat::Driver, "kept.instant");

    obs::setRecording(false);
    obs::parseCatList("All");

    json::Value doc = json::parse(obs::exportChromeJson());
    EXPECT_EQ(eventsNamed(doc, "filtered.span").size(), 0u);
    EXPECT_EQ(eventsNamed(doc, "filtered.instant").size(), 0u);
    EXPECT_EQ(eventsNamed(doc, "kept.span").size(), 1u);
    EXPECT_EQ(eventsNamed(doc, "kept.instant").size(), 1u);
}

TEST(TimelineExport, ChromeSchemaRoundTrip)
{
    ObsReset guard;
    obs::setRecording(true);

    OBS_SIM_SPAN(Mesh, "schema.span", 10, 5, 1);
    OBS_SIM_INSTANT(SMC, "schema.instant", 12, 2);
    OBS_SIM_COUNTER(Cache, "schema.counter", 14, 0.25);
    { obs::HostSpan h(obs::Cat::Driver, "schema.host"); }
    obs::setRecording(false);

    std::set<std::string, std::less<>> knownCats;
    for (unsigned i = 0; i < obs::numCats; ++i)
        knownCats.insert(obs::catName(static_cast<obs::Cat>(i)));

    json::Value doc = json::parse(obs::exportChromeJson());
    EXPECT_EQ(doc.at("displayTimeUnit").asString(), "ms");

    bool sawSpan = false, sawInstant = false, sawCounter = false;
    std::set<int> metadataPids;
    for (const auto &ev : doc.at("traceEvents").items()) {
        const std::string_view ph = ev.at("ph").asString();
        const double pid = ev.at("pid").asNumber();
        EXPECT_TRUE(pid == 1.0 || pid == 2.0);
        EXPECT_GE(ev.at("tid").asNumber(), 0.0);
        if (ph == "M") {
            const std::string_view what = ev.at("name").asString();
            metadataPids.insert(static_cast<int>(pid));
            if (what == "ring") {
                const json::Value &args = ev.at("args");
                EXPECT_GE(args.at("capacity").asNumber(), 16.0);
                EXPECT_GE(args.at("written").asNumber(),
                          args.at("dropped").asNumber());
                continue;
            }
            EXPECT_TRUE(what == "process_name" || what == "thread_name");
            EXPECT_FALSE(ev.at("args").at("name").asString().empty());
            continue;
        }
        EXPECT_TRUE(knownCats.count(ev.at("cat").asString()))
            << ev.at("cat").asString();
        EXPECT_GE(ev.at("ts").asNumber(), 0.0);
        if (ph == "X") {
            EXPECT_GE(ev.at("dur").asNumber(), 0.0);
            sawSpan = true;
        } else if (ph == "i") {
            EXPECT_EQ(ev.at("s").asString(), "t");
            sawInstant = true;
        } else if (ph == "C") {
            ev.at("args").at("value").asNumber();
            sawCounter = true;
        } else {
            ADD_FAILURE() << "unexpected phase " << ph;
        }
    }
    EXPECT_TRUE(sawSpan);
    EXPECT_TRUE(sawInstant);
    EXPECT_TRUE(sawCounter);
    // Both clock-domain processes are named.
    EXPECT_TRUE(metadataPids.count(1));
    EXPECT_TRUE(metadataPids.count(2));
}

TEST(TimelineText, OneSiteFeedsRingAndText)
{
    ObsReset guard;
    obs::clearTimeline();
    std::ostringstream text;
    obs::setTextStream(&text);

    // Both sinks off: the sites record and print nothing.
    noc::MeshNetwork mesh(4, 4);
    auto routeSome = [&mesh](Tick t) {
        mesh.route({0, 0}, {2, 3}, t);
        mesh.route({1, 1}, {1, 1}, t); // local bypass: no flit
        mesh.route({3, 0}, {0, 2}, t + 1);
        mesh.routeToEdge({2, 2}, t + 2);
        mesh.routeFromEdge(1, {3, 3}, t + 3);
    };
    routeSome(10);
    EXPECT_EQ(obs::timelineCounts().recorded, 0u);
    EXPECT_TRUE(text.str().empty());

    // The ring on with its category filter, plus Mesh's text bit.
    obs::setRecording(true);
    obs::setByName("Mesh", obs::textSink);
    routeSome(20);
    obs::setRecording(false);
    obs::setByName("-Mesh", obs::textSink);

    std::multiset<std::string> lines;
    std::istringstream in(text.str());
    for (std::string line; std::getline(in, line);)
        lines.insert(line);

    auto num = [](const json::Value &v) {
        return std::to_string(uint64_t(v.asNumber()));
    };
    json::Value doc = json::parse(obs::exportChromeJson());
    size_t events = 0;
    for (const char *name : {"flit", "toEdge", "fromEdge"}) {
        for (const json::Value *ev : eventsNamed(doc, name)) {
            ++events;
            std::string want = num(ev->at("ts")) + ": Mesh: " + name +
                               " dur=" + num(ev->at("dur"));
            if (ev->has("args"))
                want += " arg=" + num(ev->at("args").at("arg"));
            EXPECT_EQ(lines.count(want), 1u) << want;
            lines.erase(want);
        }
    }
    EXPECT_EQ(events, 4u);
    EXPECT_TRUE(lines.empty()) << *lines.begin();
}

TEST(SignatureHashTest, DeterministicOrderSensitiveResettable)
{
    obs::SignatureHash a, b;
    for (uint64_t v : {3u, 1u, 4u, 1u, 5u}) {
        a.add(v);
        b.add(v);
    }
    EXPECT_EQ(a.digest(), b.digest());

    // Order matters: a permuted schedule is a different signature.
    obs::SignatureHash c;
    for (uint64_t v : {1u, 3u, 4u, 1u, 5u})
        c.add(v);
    EXPECT_NE(a.digest(), c.digest());

    // reset() restores the fresh digest.
    obs::SignatureHash fresh;
    a.reset();
    EXPECT_EQ(a.digest(), fresh.digest());
}

TEST(StatSamplerTest, DeltaRowsConserveAggregates)
{
    StatGroup g("obs.test");
    Stat &ops = g.scalar("ops");
    Distribution &lat = g.distribution("lat", 0.0, 10.0, 5);
    g.formula("opsTwice", [&] { return ops.get() * 2.0; });

    obs::StatSampler s(100, {&g});
    EXPECT_EQ(s.intervalTicks(), 100u);
    EXPECT_FALSE(s.due(99));
    EXPECT_TRUE(s.due(100));

    ops += 3;
    lat.sample(2.0);
    s.maybeSample(50); // before the first boundary: no row
    EXPECT_EQ(s.rows(), 0u);
    s.maybeSample(120); // first boundary crossed at tick 120
    EXPECT_EQ(s.rows(), 1u);

    ops += 5;
    lat.sample(4.0);
    lat.sample(6.0);
    s.maybeSample(130); // next boundary is 200: no row
    EXPECT_EQ(s.rows(), 1u);
    s.maybeSample(350); // crosses 200 and 300: the deltas collapse
    EXPECT_EQ(s.rows(), 2u);

    ops += 2;
    obs::TimeSeries ts = s.finalize(400);

    ASSERT_TRUE(ts.present());
    EXPECT_EQ(ts.intervalTicks, 100u);
    EXPECT_EQ(ts.ticks, (std::vector<uint64_t>{120, 350, 400}));
    ASSERT_EQ(ts.samples.size(), 3u);

    std::map<std::string, size_t> col;
    for (size_t c = 0; c < ts.statNames.size(); ++c)
        col[ts.statNames[c]] = c;
    ASSERT_TRUE(col.count("obs.test.ops"));
    ASSERT_TRUE(col.count("obs.test.lat::samples"));
    ASSERT_TRUE(col.count("obs.test.lat::sum"));
    ASSERT_TRUE(col.count("obs.test.opsTwice"));
    EXPECT_FALSE(ts.isLevel[col["obs.test.ops"]]);
    EXPECT_FALSE(ts.isLevel[col["obs.test.lat::samples"]]);
    EXPECT_TRUE(ts.isLevel[col["obs.test.opsTwice"]]);

    // Per-row deltas land where the counters moved...
    EXPECT_DOUBLE_EQ(ts.samples[0][col["obs.test.ops"]], 3.0);
    EXPECT_DOUBLE_EQ(ts.samples[1][col["obs.test.ops"]], 5.0);
    EXPECT_DOUBLE_EQ(ts.samples[2][col["obs.test.ops"]], 2.0);

    // ...and the conservation law holds: delta columns sum to the
    // final aggregates, formulas report instantaneous levels.
    auto columnSum = [&](const std::string &name) {
        double sum = 0.0;
        for (const auto &row : ts.samples)
            sum += row[col[name]];
        return sum;
    };
    EXPECT_DOUBLE_EQ(columnSum("obs.test.ops"), 10.0);
    EXPECT_DOUBLE_EQ(columnSum("obs.test.lat::samples"), 3.0);
    EXPECT_DOUBLE_EQ(columnSum("obs.test.lat::sum"), 12.0);
    EXPECT_DOUBLE_EQ(ts.samples[2][col["obs.test.opsTwice"]], 20.0);
}

TEST(StatSamplerTest, RejectsTimeGoingBackwards)
{
    StatGroup g("obs.back");
    g.scalar("x");
    obs::StatSampler s(10, {&g});
    s.sample(100);
    EXPECT_THROW(s.sample(50), PanicError);
}

TEST(StatSamplerTest, ZeroIntervalIsInert)
{
    StatGroup g("obs.off");
    g.scalar("x") += 5;
    obs::StatSampler s(0, {&g});
    EXPECT_FALSE(s.due(1000000));
    s.maybeSample(1000);
    s.sample(2000);
    obs::TimeSeries ts = s.finalize(3000);
    EXPECT_FALSE(ts.present());
    EXPECT_TRUE(ts.ticks.empty());
    EXPECT_TRUE(ts.statNames.empty());
}

/**
 * The whole point of the observability layer: switching it on must not
 * change a single simulated number, the sampled time-series must
 * conserve against the final aggregates, and the captured timeline must
 * be a valid Chrome trace.
 */
TEST(ObsIntegration, TracingAndSamplingDoNotPerturbResults)
{
    ObsReset guard;
    setQuietLogging(true);
    auto plain = analysis::runExperiment("convert", "baseline", 64);

    obs::setRingCapacity(1 << 15);
    obs::clearTimeline();
    obs::setTimeseriesInterval(256);
    obs::setRecording(true);
    auto traced = analysis::runExperiment("convert", "baseline", 64);
    obs::setRecording(false);
    obs::setTimeseriesInterval(0);
    setQuietLogging(false);

    ASSERT_TRUE(plain.verified);
    ASSERT_TRUE(traced.verified);
    EXPECT_EQ(plain.cycles, traced.cycles);
    EXPECT_EQ(plain.usefulOps, traced.usefulOps);
    EXPECT_EQ(plain.instsExecuted, traced.instsExecuted);
    EXPECT_EQ(plain.records, traced.records);
    EXPECT_EQ(plain.activations, traced.activations);
    EXPECT_EQ(plain.mappings, traced.mappings);
    ASSERT_EQ(plain.statGroups.size(), traced.statGroups.size());
    for (size_t i = 0; i < plain.statGroups.size(); ++i) {
        EXPECT_EQ(plain.statGroups[i].scalars, traced.statGroups[i].scalars)
            << plain.statGroups[i].name;
        EXPECT_EQ(plain.statGroups[i].formulas,
                  traced.statGroups[i].formulas)
            << plain.statGroups[i].name;
    }

    // Sampling off: no series. Sampling on: a series whose delta
    // columns conserve against the end-of-run aggregates.
    EXPECT_FALSE(plain.timeseries.present());
    ASSERT_TRUE(traced.timeseries.present());
    const obs::TimeSeries &ts = traced.timeseries;
    ASSERT_FALSE(ts.ticks.empty());
    EXPECT_TRUE(std::is_sorted(ts.ticks.begin(), ts.ticks.end()));

    for (size_t c = 0; c < ts.statNames.size(); ++c) {
        if (ts.isLevel[c])
            continue;
        double sum = 0.0;
        for (const auto &row : ts.samples)
            sum += row[c];

        double agg = 0.0;
        bool found = false;
        for (const auto &g : traced.statGroups) {
            const std::string prefix = g.name + ".";
            if (ts.statNames[c].rfind(prefix, 0) != 0)
                continue;
            std::string key = ts.statNames[c].substr(prefix.size());
            size_t pos;
            if ((pos = key.rfind("::samples")) != std::string::npos &&
                pos + 9 == key.size()) {
                auto it = g.distributions.find(key.substr(0, pos));
                if (it != g.distributions.end()) {
                    agg = double(it->second.samples());
                    found = true;
                }
            } else if ((pos = key.rfind("::sum")) != std::string::npos &&
                       pos + 5 == key.size()) {
                auto it = g.distributions.find(key.substr(0, pos));
                if (it != g.distributions.end()) {
                    agg = it->second.sum();
                    found = true;
                }
            } else {
                auto it = g.scalars.find(key);
                if (it != g.scalars.end()) {
                    agg = it->second;
                    found = true;
                }
            }
            if (found)
                break;
        }
        ASSERT_TRUE(found) << "no aggregate for " << ts.statNames[c];
        EXPECT_NEAR(sum, agg, 1e-9 * std::max(1.0, std::abs(agg)))
            << ts.statNames[c];
    }

    // The run left behind a loadable timeline with simulated spans.
    json::Value doc = json::parse(obs::exportChromeJson());
    bool sawSimSpan = false;
    for (const auto &ev : doc.at("traceEvents").items()) {
        if (ev.at("ph").asString() == "X" &&
            ev.at("pid").asNumber() == 1.0) {
            sawSimSpan = true;
            break;
        }
    }
    EXPECT_TRUE(sawSimSpan);

    // The exporter carries the series only when present.
    json::Value tracedDoc = analysis::toJson(traced);
    ASSERT_TRUE(tracedDoc.has("timeseries"));
    EXPECT_EQ(tracedDoc.at("timeseries").at("stats").size(),
              ts.statNames.size());
    EXPECT_EQ(tracedDoc.at("timeseries").at("ticks").size(),
              ts.ticks.size());
    EXPECT_EQ(tracedDoc.at("timeseries").at("intervalTicks").asNumber(),
              256.0);
    json::Value plainDoc = analysis::toJson(plain);
    EXPECT_FALSE(plainDoc.has("timeseries"));
}


/**
 * A traced quick grid at the default ring capacity: its Exec instants
 * wrap the simulated-domain ring, and every cell span survives in the
 * host ring.
 */
TEST(ObsIntegration, TracedQuickGridKeepsEveryCellSpan)
{
    ObsReset guard;
    setQuietLogging(true);
    driver::clearResultCache();
    driver::SweepOptions serial;
    serial.jobs = 1;
    obs::setRecording(true);
    analysis::Grid grid = analysis::runGrid(8, 1234, serial);
    obs::setRecording(false);
    setQuietLogging(false);

    size_t cells = 0;
    for (const auto &[kernel, configs] : grid)
        cells += configs.size();
    json::Value doc = json::parse(obs::exportChromeJson());
    std::set<std::string, std::less<>> labels;
    for (const json::Value *ev : eventsNamed(doc, "cell")) {
        EXPECT_EQ(ev->at("ph").asString(), "X");
        labels.insert(std::string(ev->at("args").at("label").asString()));
    }
    EXPECT_EQ(labels.size(), cells);
    EXPECT_EQ(eventsNamed(doc, "cell").size(), cells);

    unsigned simWrapped = 0;
    for (const auto &ev : doc.at("traceEvents").items()) {
        if (ev.at("ph").asString() != "M" ||
            ev.at("name").asString() != "ring")
            continue;
        EXPECT_EQ(ev.at("args").at("host").at("dropped").asNumber(), 0.0);
        simWrapped += ev.at("args").at("dropped").asNumber() > 0;
    }
    EXPECT_GE(simWrapped, 1u);
}
