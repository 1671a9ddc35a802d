#include "store/codec.hh"

#include <type_traits>

#include "common/logging.hh"

namespace dlp::store {

namespace {

uint64_t
asU64(const json::Value &v)
{
    // Exact even above 2^53: cycle counts and distribution
    // accumulators of very long simulations round-trip bit-identically.
    return v.asUInt64();
}

/** Decode one cost-summary field of whatever type the table gives. */
template <class T>
void
readField(const json::Value &v, T &out)
{
    if constexpr (std::is_same_v<T, bool>)
        out = v.asBool();
    else if constexpr (std::is_same_v<T, double>)
        out = v.asNumber();
    else if constexpr (std::is_same_v<T, std::string>)
        out = v.asString();
    else
        out = T(asU64(v));
}

json::Value
distToJson(const Distribution &d)
{
    json::Value obj = json::Value::object();
    obj.set("low", d.low());
    obj.set("high", d.high());
    json::Value buckets = json::Value::array();
    for (size_t i = 0; i < d.numBuckets(); ++i)
        buckets.push(d.bucket(i));
    obj.set("buckets", std::move(buckets));
    obj.set("underflow", d.underflow());
    obj.set("overflow", d.overflow());
    obj.set("samples", d.samples());
    // Raw accumulators, not derived moments: the whole point.
    obj.set("sum", d.sum());
    obj.set("sumSq", d.sumSq());
    obj.set("min", d.minValue());
    obj.set("max", d.maxValue());
    return obj;
}

Distribution
distFromJson(const std::string &name, const json::Value &v)
{
    std::vector<uint64_t> buckets;
    for (const auto &b : v.at("buckets").items())
        buckets.push_back(asU64(b));
    Distribution d(name, v.at("low").asNumber(), v.at("high").asNumber(),
                   unsigned(buckets.size()));
    d.restore(v.at("low").asNumber(), v.at("high").asNumber(),
              std::move(buckets), asU64(v.at("underflow")),
              asU64(v.at("overflow")), asU64(v.at("samples")),
              v.at("sum").asNumber(), v.at("sumSq").asNumber(),
              v.at("min").asNumber(), v.at("max").asNumber());
    return d;
}

json::Value
snapshotToJson(const GroupSnapshot &g)
{
    json::Value obj = json::Value::object();
    obj.set("name", g.name);
    json::Value scalars = json::Value::object();
    for (const auto &[n, v] : g.scalars)
        scalars.set(n, v);
    obj.set("scalars", std::move(scalars));
    json::Value formulas = json::Value::object();
    for (const auto &[n, v] : g.formulas)
        formulas.set(n, v);
    obj.set("formulas", std::move(formulas));
    json::Value dists = json::Value::object();
    for (const auto &[n, d] : g.distributions)
        dists.set(n, distToJson(d));
    obj.set("distributions", std::move(dists));
    json::Value vectors = json::Value::object();
    for (const auto &[n, v] : g.vectors) {
        json::Value arr = json::Value::array();
        for (double x : v.all())
            arr.push(x);
        vectors.set(n, std::move(arr));
    }
    obj.set("vectors", std::move(vectors));
    return obj;
}

GroupSnapshot
snapshotFromJson(const json::Value &v)
{
    GroupSnapshot g;
    g.name = v.at("name").asString();
    for (const auto &[n, s] : v.at("scalars").members())
        g.scalars[n] = s.asNumber();
    for (const auto &[n, f] : v.at("formulas").members())
        g.formulas[n] = f.asNumber();
    for (const auto &[n, d] : v.at("distributions").members())
        g.distributions.emplace(n, distFromJson(n, d));
    for (const auto &[n, arr] : v.at("vectors").members()) {
        VectorStat vec(n, arr.items().size());
        for (size_t i = 0; i < arr.items().size(); ++i)
            vec.set(i, arr.at(i).asNumber());
        g.vectors.emplace(n, std::move(vec));
    }
    return g;
}

json::Value
timeseriesToJson(const obs::TimeSeries &ts)
{
    json::Value obj = json::Value::object();
    obj.set("intervalTicks", ts.intervalTicks);
    json::Value names = json::Value::array();
    for (const auto &n : ts.statNames)
        names.push(n);
    obj.set("statNames", std::move(names));
    json::Value levels = json::Value::array();
    for (bool level : ts.isLevel)
        levels.push(level);
    obj.set("isLevel", std::move(levels));
    json::Value ticks = json::Value::array();
    for (uint64_t t : ts.ticks)
        ticks.push(t);
    obj.set("ticks", std::move(ticks));
    json::Value rows = json::Value::array();
    for (const auto &row : ts.samples) {
        json::Value vals = json::Value::array();
        for (double v : row)
            vals.push(v);
        rows.push(std::move(vals));
    }
    obj.set("samples", std::move(rows));
    return obj;
}

obs::TimeSeries
timeseriesFromJson(const json::Value &v)
{
    obs::TimeSeries ts;
    ts.intervalTicks = asU64(v.at("intervalTicks"));
    for (const auto &n : v.at("statNames").items())
        ts.statNames.push_back(n.asString());
    for (const auto &b : v.at("isLevel").items())
        ts.isLevel.push_back(b.asBool());
    for (const auto &t : v.at("ticks").items())
        ts.ticks.push_back(asU64(t));
    for (const auto &row : v.at("samples").items()) {
        std::vector<double> vals;
        vals.reserve(row.items().size());
        for (const auto &x : row.items())
            vals.push_back(x.asNumber());
        ts.samples.push_back(std::move(vals));
    }
    return ts;
}

} // namespace

json::Value
resultToJson(const arch::ExperimentResult &result)
{
    json::Value obj = json::Value::object();
    obj.set("kernel", result.kernel);
    obj.set("config", result.config);
    obj.set("verified", result.verified);
    obj.set("error", result.error);
    obj.set("cycles", result.cycles);
    obj.set("usefulOps", result.usefulOps);
    obj.set("instsExecuted", result.instsExecuted);
    obj.set("records", result.records);
    obj.set("activations", result.activations);
    obj.set("mappings", result.mappings);
    obj.set("hostSeconds", result.hostSeconds);
    obj.set("hostEvents", result.hostEvents);
    obj.set("ffEpochs", result.ffEpochs);
    obj.set("ffIterations", result.ffIterations);
    obj.set("ffEventsSaved", result.ffEventsSaved);
    obj.set("eventActivations", result.eventActivations);

    obj.set("audited", result.audited);
    if (result.audited) {
        json::Value arr = json::Value::array();
        for (const auto &f : result.auditViolations) {
            json::Value e = json::Value::object();
            e.set("invariant", f.invariant);
            e.set("detail", f.detail);
            arr.push(std::move(e));
        }
        obj.set("auditViolations", std::move(arr));
    }

    obj.set("checked", result.checked);
    if (result.checked) {
        obj.set("checkErrors", result.checkErrors);
        obj.set("checkWarnings", result.checkWarnings);
        json::Value arr = json::Value::array();
        for (const auto &f : result.checkFindings) {
            json::Value e = json::Value::object();
            e.set("rule", f.rule);
            e.set("severity", f.severity);
            e.set("location", f.location);
            e.set("detail", f.detail);
            arr.push(std::move(e));
        }
        obj.set("checkFindings", std::move(arr));
    }

    // Static cost model. Flat u64/double/bool/string fields; written
    // raw so the round-trip is exact.
    {
        json::Value cost = json::Value::object();
        cost::visitFields(result.cost, [&](const char *key, const auto &f) {
            cost.set(key, f);
        });
        obj.set("cost", std::move(cost));
    }

    if (result.timeseries.present())
        obj.set("timeseries", timeseriesToJson(result.timeseries));

    json::Value groups = json::Value::array();
    for (const auto &g : result.statGroups)
        groups.push(snapshotToJson(g));
    obj.set("statGroups", std::move(groups));
    return obj;
}

arch::ExperimentResult
resultFromJson(const json::Value &doc)
{
    arch::ExperimentResult r;
    r.kernel = doc.at("kernel").asString();
    r.config = doc.at("config").asString();
    r.verified = doc.at("verified").asBool();
    r.error = doc.at("error").asString();
    r.cycles = asU64(doc.at("cycles"));
    r.usefulOps = asU64(doc.at("usefulOps"));
    r.instsExecuted = asU64(doc.at("instsExecuted"));
    r.records = asU64(doc.at("records"));
    r.activations = asU64(doc.at("activations"));
    r.mappings = asU64(doc.at("mappings"));
    r.hostSeconds = doc.at("hostSeconds").asNumber();
    r.hostEvents = asU64(doc.at("hostEvents"));
    // Fast-forwarding counters: absent in pre-epoch documents, which by
    // construction simulated every activation through the event queue.
    if (const json::Value *v = doc.find("ffEpochs"))
        r.ffEpochs = asU64(*v);
    if (const json::Value *v = doc.find("ffIterations"))
        r.ffIterations = asU64(*v);
    if (const json::Value *v = doc.find("ffEventsSaved"))
        r.ffEventsSaved = asU64(*v);
    if (const json::Value *v = doc.find("eventActivations"))
        r.eventActivations = asU64(*v);
    else
        r.eventActivations = r.activations;

    r.audited = doc.at("audited").asBool();
    if (r.audited) {
        for (const auto &e : doc.at("auditViolations").items()) {
            arch::AuditFinding f;
            f.invariant = e.at("invariant").asString();
            f.detail = e.at("detail").asString();
            r.auditViolations.push_back(std::move(f));
        }
    }

    r.checked = doc.at("checked").asBool();
    if (r.checked) {
        r.checkErrors = asU64(doc.at("checkErrors"));
        r.checkWarnings = asU64(doc.at("checkWarnings"));
        for (const auto &e : doc.at("checkFindings").items()) {
            arch::CheckFinding f;
            f.rule = e.at("rule").asString();
            f.severity = e.at("severity").asString();
            f.location = e.at("location").asString();
            f.detail = e.at("detail").asString();
            r.checkFindings.push_back(std::move(f));
        }
    }

    // Cost summary: absent in pre-cost-model documents, which keep the
    // default (analyzed == false) summary.
    if (const json::Value *v = doc.find("cost")) {
        cost::visitFields(r.cost, [&](const char *key, auto &f) {
            readField(v->at(key), f);
        });
    }

    if (const json::Value *ts = doc.find("timeseries"))
        r.timeseries = timeseriesFromJson(*ts);

    for (const auto &g : doc.at("statGroups").items())
        r.statGroups.push_back(snapshotFromJson(g));
    return r;
}

} // namespace dlp::store
