#include "store/codec.hh"

#include <type_traits>

#include "common/logging.hh"

namespace dlp::store {

namespace {

/** Decode obj[key] into a table field of whatever type the table gives. */
template <class T>
void
readField(const json::Value &obj, const char *key, T &out)
{
    using Kind = json::Value::Kind;
    if constexpr (std::is_same_v<T, bool>)
        out = documentField(obj, key, Kind::Bool).asBool();
    else if constexpr (std::is_same_v<T, double>)
        out = documentField(obj, key, Kind::Number).asNumber();
    else if constexpr (std::is_same_v<T, std::string>)
        out = documentField(obj, key, Kind::String).asString();
    else // exact above 2^53: long runs' counters round-trip bit for bit
        out = T(documentField(obj, key, Kind::Number).asUInt64());
}

/** A field-table visitor that reads field = obj[key]; raises if absent. */
auto
reader(const json::Value &obj)
{
    return [&obj](const char *key, auto &f) { readField(obj, key, f); };
}

template <class Finding>
json::Value
findingsToJson(const std::vector<Finding> &findings)
{
    json::Value arr = json::Value::array();
    for (const auto &f : findings) {
        json::Value &entry = arr.push(json::Value::object());
        arch::visitFields(f, json::fieldSetter(entry));
    }
    return arr;
}

template <class Finding>
void
findingsFromJson(const json::Value &arr, std::vector<Finding> &out)
{
    for (const auto &e : arr.items())
        arch::visitFields(out.emplace_back(), reader(e));
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
        buckets.push_back(b.asUInt64());
    Distribution d(name, v.at("low").asNumber(), v.at("high").asNumber(),
                   unsigned(buckets.size()));
    d.restore(v.at("low").asNumber(), v.at("high").asNumber(),
              std::move(buckets), v.at("underflow").asUInt64(),
              v.at("overflow").asUInt64(), v.at("samples").asUInt64(),
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
    for (const auto &m : v.at("scalars").members())
        g.scalars[std::string(m.key())] = m.value().asNumber();
    for (const auto &m : v.at("formulas").members())
        g.formulas[std::string(m.key())] = m.value().asNumber();
    for (const auto &m : v.at("distributions").members()) {
        std::string n(m.key());
        g.distributions.emplace(n, distFromJson(n, m.value()));
    }
    for (const auto &m : v.at("vectors").members()) {
        const json::Value &arr = m.value();
        std::string n(m.key());
        VectorStat vec(n, arr.size());
        for (size_t i = 0; i < arr.size(); ++i)
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
    ts.intervalTicks = v.at("intervalTicks").asUInt64();
    for (const auto &n : v.at("statNames").items())
        ts.statNames.emplace_back(n.asString());
    for (const auto &b : v.at("isLevel").items())
        ts.isLevel.push_back(b.asBool());
    for (const auto &t : v.at("ticks").items())
        ts.ticks.push_back(t.asUInt64());
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

const json::Value &
documentField(const json::Value &obj, const char *key, json::Value::Kind kind)
{
    const json::Value *v = obj.isObject() ? obj.find(key) : nullptr;
    fatal_if(!v || v->kind() != kind,
             "store document: \"%s\" is missing or mistyped", key);
    return *v;
}

json::Value
resultToJson(const arch::ExperimentResult &result)
{
    json::Value obj = json::Value::object();
    arch::visitFields(result, json::fieldSetter(obj));
    arch::visitHostFields(result, json::fieldSetter(obj));

    obj.set("audited", result.audited);
    if (result.audited)
        obj.set("auditViolations", findingsToJson(result.auditViolations));

    obj.set("checked", result.checked);
    if (result.checked) {
        obj.set("checkErrors", result.checkErrors);
        obj.set("checkWarnings", result.checkWarnings);
        obj.set("checkFindings", findingsToJson(result.checkFindings));
    }

    json::Value cost = json::Value::object();
    cost::visitFields(result.cost, json::fieldSetter(cost));
    obj.set("cost", std::move(cost));

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
    arch::visitFields(r, reader(doc));
    arch::visitHostFields(r, reader(doc));

    readField(doc, "audited", r.audited);
    if (r.audited)
        findingsFromJson(doc.at("auditViolations"), r.auditViolations);

    readField(doc, "checked", r.checked);
    if (r.checked) {
        readField(doc, "checkErrors", r.checkErrors);
        readField(doc, "checkWarnings", r.checkWarnings);
        findingsFromJson(doc.at("checkFindings"), r.checkFindings);
    }

    cost::visitFields(
        r.cost, reader(documentField(doc, "cost", json::Value::Kind::Object)));

    if (const json::Value *ts = doc.find("timeseries"))
        r.timeseries = timeseriesFromJson(*ts);

    for (const auto &g : doc.at("statGroups").items())
        r.statGroups.push_back(snapshotFromJson(g));
    return r;
}

std::string
simulatedJson(arch::ExperimentResult result)
{
    arch::visitHostFields(result, [](const char *, auto &f) { f = {}; });
    return json::write(resultToJson(result));
}

} // namespace dlp::store
