#include "analysis/export.hh"

#include <fstream>

#include "common/logging.hh"

namespace dlp::analysis {

namespace {

json::Value
toJson(const Distribution &d)
{
    json::Value obj = json::Value::object();
    obj.set("samples", d.samples());
    // Zero-sample distributions omit their moments and extrema, in
    // lockstep with StatGroup::dump.
    if (d.samples() > 0) {
        obj.set("mean", d.mean());
        obj.set("stdev", d.stdev());
        obj.set("min", d.minValue());
        obj.set("max", d.maxValue());
    }
    obj.set("low", d.low());
    obj.set("high", d.high());
    obj.set("underflow", d.underflow());
    obj.set("overflow", d.overflow());
    json::Value buckets = json::Value::array();
    for (size_t i = 0; i < d.numBuckets(); ++i)
        buckets.push(d.bucket(i));
    obj.set("buckets", std::move(buckets));
    return obj;
}

json::Value
toJson(const VectorStat &v)
{
    json::Value arr = json::Value::array();
    for (double x : v.all())
        arr.push(x);
    return arr;
}

json::Value
auditToJson(const std::vector<arch::AuditFinding> &violations)
{
    json::Value audit = json::Value::object();
    audit.set("violations", violations.size());
    json::Value findings = json::Value::array();
    for (const auto &f : violations) {
        json::Value entry = json::Value::object();
        entry.set("invariant", f.invariant);
        entry.set("detail", f.detail);
        findings.push(std::move(entry));
    }
    audit.set("findings", std::move(findings));
    return audit;
}

json::Value
timeseriesToJson(const obs::TimeSeries &ts)
{
    json::Value series = json::Value::object();
    series.set("intervalTicks", ts.intervalTicks);
    json::Value names = json::Value::array();
    for (const auto &n : ts.statNames)
        names.push(n);
    series.set("stats", std::move(names));
    json::Value levels = json::Value::array();
    for (bool level : ts.isLevel)
        levels.push(level);
    series.set("isLevel", std::move(levels));
    json::Value ticks = json::Value::array();
    for (uint64_t t : ts.ticks)
        ticks.push(t);
    series.set("ticks", std::move(ticks));
    json::Value rows = json::Value::array();
    for (const auto &row : ts.samples) {
        json::Value vals = json::Value::array();
        for (double v : row)
            vals.push(v);
        rows.push(std::move(vals));
    }
    series.set("samples", std::move(rows));
    return series;
}

} // namespace

json::Value
toJson(const GroupSnapshot &group)
{
    json::Value obj = json::Value::object();
    obj.set("name", group.name);

    json::Value scalars = json::Value::object();
    for (const auto &[n, v] : group.scalars)
        scalars.set(n, v);
    obj.set("scalars", std::move(scalars));

    json::Value formulas = json::Value::object();
    for (const auto &[n, v] : group.formulas)
        formulas.set(n, v);
    obj.set("formulas", std::move(formulas));

    json::Value dists = json::Value::object();
    for (const auto &[n, d] : group.distributions)
        dists.set(n, toJson(d));
    obj.set("distributions", std::move(dists));

    json::Value vectors = json::Value::object();
    for (const auto &[n, v] : group.vectors)
        vectors.set(n, toJson(v));
    obj.set("vectors", std::move(vectors));

    return obj;
}

json::Value
toJson(const arch::ExperimentResult &result)
{
    json::Value obj = json::Value::object();
    obj.set("kernel", result.kernel);
    obj.set("config", result.config);
    obj.set("verified", result.verified);
    if (!result.error.empty())
        obj.set("error", result.error);
    obj.set("cycles", result.cycles);
    obj.set("usefulOps", result.usefulOps);
    obj.set("instsExecuted", result.instsExecuted);
    obj.set("records", result.records);
    obj.set("activations", result.activations);
    obj.set("mappings", result.mappings);
    obj.set("opsPerCycle", result.opsPerCycle());

    // Host (simulator) performance of this run. Kept in its own object
    // because it is measurement noise, not simulated state: regression
    // tooling diffing simulated output drops the "host" key and
    // compares everything else bit for bit.
    json::Value host = json::Value::object();
    host.set("events", result.hostEvents);
    host.set("eventsPerSec", result.hostEventsPerSec());
    host.set("seconds", result.hostSeconds);
    // Epoch fast-forwarding accounting: exact counters (the auditor's
    // conservation laws hold on them), but host-side execution strategy
    // rather than simulated state, so they live under "host" too.
    host.set("ffEpochs", result.ffEpochs);
    host.set("ffIterations", result.ffIterations);
    host.set("ffEventsSaved", result.ffEventsSaved);
    host.set("eventActivations", result.eventActivations);
    obj.set("host", std::move(host));

    // Post-run invariant audit, present only when auditing ran so
    // unaudited documents (and their golden diffs) keep their shape.
    if (result.audited)
        obj.set("audit", auditToJson(result.auditViolations));

    // Pre-run static verification, present only when checking ran (the
    // same shape-stability contract as "audit" above).
    if (result.checked) {
        json::Value chk = json::Value::object();
        chk.set("errors", result.checkErrors);
        chk.set("warnings", result.checkWarnings);
        json::Value findings = json::Value::array();
        for (const auto &f : result.checkFindings) {
            json::Value entry = json::Value::object();
            entry.set("rule", f.rule);
            entry.set("severity", f.severity);
            entry.set("location", f.location);
            entry.set("detail", f.detail);
            findings.push(std::move(entry));
        }
        chk.set("findings", std::move(findings));
        obj.set("check", std::move(chk));
    }

    // Static cost-model predictions. Always present: the analysis is
    // pure, so the processor populates it unconditionally. Bound-side
    // fields feed verify::costInvariants; the rest are estimates.
    {
        json::Value cost = json::Value::object();
        cost::visitFields(result.cost, [&](const char *key, const auto &f) {
            cost.set(key, f);
        });
        obj.set("cost", std::move(cost));
    }

    // Periodic stat samples over simulated time, present only when a
    // sampling interval was configured (same shape-stability contract
    // as "audit"/"check"). Delta columns (isLevel false) sum to the
    // corresponding final aggregates in "statGroups"; level columns are
    // instantaneous formula values.
    if (result.timeseries.present())
        obj.set("timeseries", timeseriesToJson(result.timeseries));

    json::Value groups = json::Value::array();
    for (const auto &g : result.statGroups)
        groups.push(toJson(g));
    obj.set("statGroups", std::move(groups));
    return obj;
}

json::Value
toJson(const arch::ServiceResult &result)
{
    json::Value obj = json::Value::object();
    obj.set("kind", "service");
    obj.set("config", result.config);
    obj.set("cores", result.cores);
    obj.set("bandwidthWordsPerTick", result.bandwidthWordsPerTick);
    obj.set("offeredRps", result.offeredRps);
    obj.set("arrival", result.arrival);
    obj.set("batch", result.batch);
    obj.set("seed", result.seed);
    obj.set("seedPool", result.seedPool);
    obj.set("ticksPerSec", result.ticksPerSec);

    obj.set("injected", result.injected);
    obj.set("completed", result.completed);
    obj.set("inFlightAtDrain", result.inFlightAtDrain);
    obj.set("systemActivations", result.systemActivations);
    obj.set("drainTick", result.drainTick);
    obj.set("sustainedRps", result.sustainedRps);

    json::Value lat = json::Value::object();
    lat.set("p50", result.p50);
    lat.set("p95", result.p95);
    lat.set("p99", result.p99);
    lat.set("mean", result.meanLatency);
    lat.set("max", result.maxLatency);
    lat.set("histogram", toJson(result.latency));
    obj.set("latencyTicks", std::move(lat));

    obj.set("meanQueueWait", result.meanQueueWait);
    obj.set("maxQueueDepth", result.maxQueueDepth);

    json::Value perCore = json::Value::array();
    for (const auto &c : result.perCore) {
        json::Value core = json::Value::object();
        core.set("requests", c.requests);
        core.set("busyTicks", c.busyTicks);
        core.set("workTicks", c.workTicks);
        core.set("activations", c.activations);
        perCore.push(std::move(core));
    }
    obj.set("perCore", std::move(perCore));

    json::Value profiles = json::Value::array();
    for (const auto &p : result.profiles) {
        json::Value prof = json::Value::object();
        prof.set("kernel", p.kernel);
        prof.set("scale", p.scale);
        prof.set("seed", p.seed);
        prof.set("isolatedTicks", p.isolatedTicks);
        prof.set("demandWordsPerTick", p.demandWordsPerTick);
        prof.set("activations", p.activations);
        prof.set("usefulOps", p.usefulOps);
        profiles.push(std::move(prof));
    }
    obj.set("profiles", std::move(profiles));

    // Every request object is built in place in the array's arena, its
    // members set through keys interned once for the whole array.
    json::Value requests = json::Value::array();
    requests.reserve(result.requests.size());
    std::vector<json::Key> keys;
    const arch::RequestRecord shape;
    arch::visitFields(shape, [&](const char *key, const auto &) {
        keys.push_back(requests.intern(key));
    });
    for (const auto &r : result.requests) {
        json::Value &req = requests.push(json::Value::object());
        req.reserve(keys.size());
        const json::Key *key = keys.data();
        arch::visitFields(r, [&](const char *, const auto &f) {
            req.set(*key++, f);
        });
    }
    obj.set("requests", std::move(requests));

    if (result.audited)
        obj.set("audit", auditToJson(result.auditViolations));
    if (result.timeseries.present())
        obj.set("timeseries", timeseriesToJson(result.timeseries));

    json::Value groups = json::Value::array();
    for (const auto &g : result.statGroups)
        groups.push(toJson(g));
    obj.set("statGroups", std::move(groups));
    return obj;
}

namespace {

json::Value
document()
{
    json::Value doc = json::Value::object();
    doc.set("generator", "dlp-sim");
    doc.set("paper",
            "Universal Mechanisms for Data-Parallel Architectures "
            "(MICRO 2003)");
    return doc;
}

} // namespace

json::Value
toJson(const std::vector<arch::ExperimentResult> &results)
{
    json::Value doc = document();
    json::Value experiments = json::Value::array();
    for (const auto &r : results)
        experiments.push(toJson(r));
    doc.set("experiments", std::move(experiments));
    return doc;
}

json::Value
toJson(const Grid &grid)
{
    json::Value doc = document();
    json::Value experiments = json::Value::array();
    for (const auto &[kernel, byConfig] : grid)
        for (const auto &[config, result] : byConfig)
            experiments.push(toJson(result));
    doc.set("experiments", std::move(experiments));
    return doc;
}

void
writeJsonFile(const std::string &path, const json::Value &doc)
{
    std::ofstream out(path, std::ios::binary);
    fatal_if(!out, "cannot open '%s' for writing", path.c_str());
    out << json::write(doc);
    out.close();
    fatal_if(!out, "failed writing '%s'", path.c_str());
}

} // namespace dlp::analysis
