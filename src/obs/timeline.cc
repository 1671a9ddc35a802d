#include "obs/timeline.hh"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.hh"

namespace dlp::obs {

namespace detail {

std::atomic<uint8_t> sinks[numCats] = {};

} // namespace detail

namespace {

const char *const catNames[numCats] = {
    "EventQ", "Mesh", "SMC", "Cache", "Mem", "Engine", "Revit", "Exec",
    "Epoch", "Driver", "Audit", "Check", "Store",
};

/// Sink configuration: the bits each category asks for, the master ring
/// switch, and the names already warned about. Changes are rare, so one
/// mutex serializes them and publish() writes the gates.
std::mutex configMutex;
uint8_t wanted[numCats] = {};
bool recordingOn = false;
std::unordered_set<std::string> warnedNames;

/** Write every category's gate byte. Caller holds configMutex. */
void
publish()
{
    const auto mask = uint8_t(recordingOn ? 0xff : ~ringSink);
    for (unsigned i = 0; i < numCats; ++i)
        detail::sinks[i].store(wanted[i] & mask, std::memory_order_relaxed);
}

/**
 * Apply one "Mesh" / "-Mesh" / "All" token to sink s's wanted bits,
 * warning once per unknown name. Caller holds configMutex.
 */
bool
applyName(const std::string &spec, Sink s)
{
    const bool on = spec.empty() || spec[0] != '-';
    const std::string_view name = std::string_view(spec).substr(on ? 0 : 1);
    const bool all = name == "All";
    bool found = false;
    for (unsigned i = 0; i < numCats; ++i) {
        if (all || name == catNames[i]) {
            wanted[i] = on ? wanted[i] | s : wanted[i] & ~s;
            found = true;
        }
    }
    const char *noun = s == textSink ? "trace flag" : "timeline category";
    if (!found &&
        warnedNames.insert(std::string(noun) + ":" + std::string(name))
            .second) {
        std::string known;
        for (const char *n : catNames)
            known += std::string(n) + ", ";
        warn("unknown %s '%s' (known: %sAll)", noun, spec.c_str(),
             known.c_str());
    }
    return found;
}

/// The text sink's stream (nullptr = std::cout); the mutex also keeps
/// concurrent simulations from shearing a line.
std::mutex textMutex;
std::ostream *textStream = nullptr;

/**
 * One recorded event. Spans ('X') use ts+dur, instants ('i') use ts,
 * counters ('C') use ts+value. Kept flat and trivially copyable so the
 * ring is a plain vector overwritten in place.
 */
struct TraceEvent
{
    uint64_t ts = 0;
    uint64_t dur = 0;
    double value = 0.0;
    uint64_t arg = 0;
    uint32_t nameId = 0;
    uint32_t labelId = 0;
    Cat cat = Cat::Driver;
    Domain domain = Domain::Sim;
    char phase = 'X';
};
static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "ring events must relocate with memcpy");

/** A fixed-capacity ring of events; a full ring overwrites its oldest. */
struct Ring
{
    std::vector<TraceEvent> events;
    uint64_t total = 0; ///< events ever written (head = total % size)

    void
    reset(size_t cap)
    {
        events.assign(cap, TraceEvent{});
        total = 0;
    }

    void
    push(const TraceEvent &ev)
    {
        events[total % events.size()] = ev;
        ++total;
    }

    uint64_t held() const { return std::min<uint64_t>(total, events.size()); }
    uint64_t dropped() const { return total - held(); }
};

/// Each thread's host-domain ring. Host events (cells, jobs, fixtures,
/// gates, store lookups) are few and coarse, so a small ring of their
/// own keeps them when per-instruction simulated events wrap theirs.
constexpr size_t hostRingCap = 1 << 12;

/**
 * Per-thread ring buffers, one per clock domain. Owned by the global
 * registry (not the thread) so events survive thread exit and export
 * can run after a JobPool has wound down. The owning thread writes
 * lock-free; the registry mutex is taken only for registration, clear
 * and export.
 */
struct ThreadBuffer
{
    ThreadBuffer(size_t simCap, uint32_t id) : tid(id) { reset(simCap); }

    Ring sim;
    Ring host;
    uint32_t tid;

    void
    reset(size_t simCap)
    {
        sim.reset(simCap);
        host.reset(hostRingCap);
    }

    Ring &ring(Domain d) { return d == Domain::Host ? host : sim; }
};

std::mutex registryMutex;
std::vector<std::unique_ptr<ThreadBuffer>> buffers;
size_t ringCap = 1 << 16;

thread_local ThreadBuffer *myBuffer = nullptr;

ThreadBuffer &
threadBuffer()
{
    if (!myBuffer) {
        std::lock_guard<std::mutex> lock(registryMutex);
        buffers.push_back(std::make_unique<ThreadBuffer>(
            std::max<size_t>(ringCap, 16),
            static_cast<uint32_t>(buffers.size() + 1)));
        myBuffer = buffers.back().get();
    }
    return *myBuffer;
}

/// Name interning: id 0 is the empty string; ids are stable for the
/// process lifetime (call sites cache them in function-local statics,
/// so the table must never shrink).
std::mutex nameMutex;
std::vector<std::string> nameTable = {""};
std::unordered_map<std::string, uint32_t> nameIds = {{"", 0}};

std::mutex pathMutex;
std::string tracePath;
bool atexitArmed = false;

std::atomic<uint64_t> sampleIntervalTicks = 0;

/** Steady-clock epoch captured at first use (static init). */
const std::chrono::steady_clock::time_point processEpoch =
    std::chrono::steady_clock::now();

void
escapeJson(std::string &out, const std::string &s)
{
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

void
appendMetadata(std::string &out, int pid, int tid, const char *what,
               const std::string &name, bool &first)
{
    if (!first)
        out += ",\n";
    first = false;
    out += "{\"ph\":\"M\",\"pid\":";
    out += std::to_string(pid);
    out += ",\"tid\":";
    out += std::to_string(tid);
    out += ",\"name\":\"";
    out += what;
    out += "\",\"args\":{\"name\":\"";
    escapeJson(out, name);
    out += "\"}}";
}

/** A ring's "capacity", "written" and "dropped" JSON members. */
void
appendRingArgs(std::string &out, const Ring &ring)
{
    out += "\"capacity\":";
    out += std::to_string(ring.events.size());
    out += ",\"written\":";
    out += std::to_string(ring.total);
    out += ",\"dropped\":";
    out += std::to_string(ring.dropped());
}

void
appendEvent(std::string &out, const TraceEvent &ev, uint32_t tid,
            bool &first)
{
    if (!first)
        out += ",\n";
    first = false;

    const int pid = ev.domain == Domain::Sim ? 1 : 2;
    out += "{\"ph\":\"";
    out += ev.phase;
    out += "\",\"pid\":";
    out += std::to_string(pid);
    out += ",\"tid\":";
    out += std::to_string(tid);
    out += ",\"cat\":\"";
    out += catNames[static_cast<unsigned>(ev.cat)];
    out += "\",\"name\":\"";
    {
        std::lock_guard<std::mutex> lock(nameMutex);
        escapeJson(out, nameTable[ev.nameId]);
    }
    out += "\",\"ts\":";
    if (ev.domain == Domain::Sim) {
        // One simulated tick renders as one microsecond.
        out += std::to_string(ev.ts);
    } else {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.3f", double(ev.ts) / 1000.0);
        out += buf;
    }
    if (ev.phase == 'X') {
        out += ",\"dur\":";
        if (ev.domain == Domain::Sim) {
            out += std::to_string(ev.dur);
        } else {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.3f",
                          double(ev.dur) / 1000.0);
            out += buf;
        }
    }
    if (ev.phase == 'i')
        out += ",\"s\":\"t\"";
    if (ev.phase == 'C') {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", ev.value);
        out += ",\"args\":{\"value\":";
        out += buf;
        out += "}";
    } else if (ev.arg != 0 || ev.labelId != 0) {
        out += ",\"args\":{\"arg\":";
        out += std::to_string(ev.arg);
        if (ev.labelId != 0) {
            out += ",\"label\":\"";
            std::lock_guard<std::mutex> lock(nameMutex);
            escapeJson(out, nameTable[ev.labelId]);
            out += "\"";
        }
        out += "}";
    }
    out += "}";
}

/** One text-sink line: "<ts>: <Cat>: <name>[ dur=][ arg=| value=][ label]". */
void
printLine(const TraceEvent &ev)
{
    std::string line = std::to_string(ev.ts);
    line += ": ";
    line += catNames[static_cast<unsigned>(ev.cat)];
    line += ": ";
    std::string label;
    {
        std::lock_guard<std::mutex> lock(nameMutex);
        line += nameTable[ev.nameId];
        label = nameTable[ev.labelId];
    }
    if (ev.phase == 'X')
        line += " dur=" + std::to_string(ev.dur);
    if (ev.phase == 'C') {
        char buf[48];
        std::snprintf(buf, sizeof(buf), " value=%.17g", ev.value);
        line += buf;
    } else if (ev.arg != 0) {
        line += " arg=" + std::to_string(ev.arg);
    }
    if (!label.empty())
        line += " " + label;
    line += '\n';
    std::lock_guard<std::mutex> lock(textMutex);
    (textStream ? *textStream : std::cout) << line;
}

/** Hand one event to every sink its category's gate names. */
void
record(const TraceEvent &ev)
{
    const uint8_t s = detail::sinks[static_cast<unsigned>(ev.cat)].load(
        std::memory_order_relaxed);
    if (s & ringSink)
        threadBuffer().ring(ev.domain).push(ev);
    if ((s & textSink) && ev.domain == Domain::Sim)
        printLine(ev);
}

void atexitWriter();

} // namespace

const char *
catName(Cat c)
{
    return catNames[static_cast<unsigned>(c)];
}

bool
sinkEnabled(Cat c, Sink s)
{
    return detail::sinks[static_cast<unsigned>(c)].load(
               std::memory_order_relaxed) & s;
}

void
setRecording(bool on)
{
    std::lock_guard<std::mutex> lock(configMutex);
    recordingOn = on;
    publish();
}

bool
setByName(const std::string &spec, Sink s)
{
    std::lock_guard<std::mutex> lock(configMutex);
    bool found = applyName(spec, s);
    publish();
    return found;
}

void
setTextStream(std::ostream *os)
{
    std::lock_guard<std::mutex> lock(textMutex);
    textStream = os;
}

void
parseCatList(const std::string &list, Sink s)
{
    std::vector<std::string> specs;
    bool anyPositive = false;
    std::string token;
    std::istringstream in(list);
    while (std::getline(in, token, ',')) {
        // Trim surrounding spaces so "Mesh, SMC" works too.
        size_t b = token.find_first_not_of(" \t");
        size_t e = token.find_last_not_of(" \t");
        if (b == std::string::npos)
            continue;
        specs.push_back(token.substr(b, e - b + 1));
        anyPositive |= specs.back()[0] != '-';
    }
    std::lock_guard<std::mutex> lock(configMutex);
    for (uint8_t &w : wanted)
        w = anyPositive ? w & ~s : w | s;
    for (const std::string &spec : specs)
        applyName(spec, s);
    publish();
}

void
setRingCapacity(size_t events)
{
    std::lock_guard<std::mutex> lock(registryMutex);
    ringCap = std::max<size_t>(events, 16);
}

size_t
ringCapacity()
{
    std::lock_guard<std::mutex> lock(registryMutex);
    return ringCap;
}

void
setOutputPath(const std::string &path)
{
    std::lock_guard<std::mutex> lock(pathMutex);
    tracePath = path;
    if (!tracePath.empty() && !atexitArmed) {
        atexitArmed = true;
        std::atexit(atexitWriter);
    }
}

std::string
outputPath()
{
    std::lock_guard<std::mutex> lock(pathMutex);
    return tracePath;
}

uint64_t
hostNowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - processEpoch)
            .count());
}

uint32_t
internName(const std::string &name)
{
    std::lock_guard<std::mutex> lock(nameMutex);
    auto it = nameIds.find(name);
    if (it != nameIds.end())
        return it->second;
    auto id = static_cast<uint32_t>(nameTable.size());
    nameTable.push_back(name);
    nameIds.emplace(name, id);
    return id;
}

void
recordSpan(Cat c, uint32_t nameId, Domain d, uint64_t ts, uint64_t dur,
           uint64_t arg, uint32_t labelId)
{
    record({.ts = ts, .dur = dur, .arg = arg, .nameId = nameId,
            .labelId = labelId, .cat = c, .domain = d, .phase = 'X'});
}

void
recordInstant(Cat c, uint32_t nameId, Domain d, uint64_t ts, uint64_t arg,
              uint32_t labelId)
{
    record({.ts = ts, .arg = arg, .nameId = nameId, .labelId = labelId,
            .cat = c, .domain = d, .phase = 'i'});
}

void
recordCounter(Cat c, uint32_t nameId, Domain d, uint64_t ts, double value)
{
    record({.ts = ts, .value = value, .nameId = nameId, .cat = c,
            .domain = d, .phase = 'C'});
}

void
hostInstant(Cat c, const char *name, const std::string &label)
{
    if (!enabled(c))
        return;
    recordInstant(c, internName(name), Domain::Host, hostNowNs(), 0,
                  label.empty() ? 0 : internName(label));
}

HostSpan::HostSpan(Cat c, const char *name, const std::string &label,
                   uint64_t arg)
{
    if (!enabled(c))
        return;
    cat = c;
    nameId = internName(name);
    labelId = label.empty() ? 0 : internName(label);
    argValue = arg;
    startNs = hostNowNs();
    active = true;
}

HostSpan::~HostSpan()
{
    if (!active)
        return;
    uint64_t end = hostNowNs();
    recordSpan(cat, nameId, Domain::Host, startNs,
               end > startNs ? end - startNs : 0, argValue, labelId);
}

std::string
exportChromeJson()
{
    std::string out;
    out += "{\"displayTimeUnit\":\"ms\",\n\"traceEvents\":[\n";
    bool first = true;

    std::lock_guard<std::mutex> lock(registryMutex);
    appendMetadata(out, 1, 0, "process_name", "simulated ticks", first);
    appendMetadata(out, 2, 0, "process_name", "host wall clock", first);
    for (const auto &buf : buffers) {
        std::string tname = "thread " + std::to_string(buf->tid);
        appendMetadata(out, 1, int(buf->tid), "thread_name", tname, first);
        appendMetadata(out, 2, int(buf->tid), "thread_name", tname, first);
        // Ring accounting: a wrapped ring says how much it lost. The
        // simulated-domain ring's figures come first, the host ring's
        // in "host".
        out += ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":";
        out += std::to_string(buf->tid);
        out += ",\"name\":\"ring\",\"args\":{";
        appendRingArgs(out, buf->sim);
        out += ",\"host\":{";
        appendRingArgs(out, buf->host);
        out += "}}}";
    }
    for (const auto &buf : buffers) {
        for (const Ring *ring : {&buf->host, &buf->sim}) {
            // Oldest surviving event first: when the ring has wrapped
            // the write head is also the oldest slot.
            const size_t size = ring->events.size();
            const uint64_t start = ring->dropped();
            for (uint64_t i = 0; i < ring->held(); ++i)
                appendEvent(out, ring->events[(start + i) % size], buf->tid,
                            first);
        }
    }
    out += "\n]}\n";
    return out;
}

void
writeChromeTrace(const std::string &path)
{
    std::string text = exportChromeJson();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    fatal_if(!out, "cannot open timeline output '%s'", path.c_str());
    out << text;
    out.flush();
    fatal_if(!out, "failed writing timeline output '%s'", path.c_str());
}

std::string
finish()
{
    std::string path;
    {
        std::lock_guard<std::mutex> lock(pathMutex);
        path = tracePath;
        tracePath.clear();
    }
    if (path.empty())
        return "";
    writeChromeTrace(path);
    TimelineCounts counts = timelineCounts();
    inform("timeline: wrote %" PRIu64 " events to %s (%" PRIu64
           " dropped by ring wrap)",
           counts.recorded, path.c_str(), counts.dropped);
    return path;
}

void
clearTimeline()
{
    std::lock_guard<std::mutex> lock(registryMutex);
    for (auto &buf : buffers)
        buf->reset(std::max<size_t>(ringCap, 16));
}

TimelineCounts
timelineCounts()
{
    TimelineCounts counts;
    std::lock_guard<std::mutex> lock(registryMutex);
    counts.threads = buffers.size();
    for (const auto &buf : buffers) {
        for (const Ring *ring : {&buf->sim, &buf->host}) {
            counts.recorded += ring->held();
            counts.dropped += ring->dropped();
        }
    }
    return counts;
}

void
setTimeseriesInterval(uint64_t ticks)
{
    sampleIntervalTicks.store(ticks, std::memory_order_relaxed);
}

uint64_t
timeseriesInterval()
{
    return sampleIntervalTicks.load(std::memory_order_relaxed);
}

void
initFromEnv()
{
    if (const char *cap = std::getenv("DLP_TIMELINE_CAP")) {
        char *end = nullptr;
        unsigned long long v = std::strtoull(cap, &end, 10);
        if (end && *end == '\0' && v > 0)
            setRingCapacity(static_cast<size_t>(v));
        else
            warn("ignoring malformed DLP_TIMELINE_CAP '%s'", cap);
    }
    if (const char *flags = std::getenv("DLP_TRACE"); flags && *flags)
        parseCatList(flags, textSink);
    const char *cats = std::getenv("DLP_TIMELINE_CATS");
    parseCatList(cats ? cats : "All");
    if (const char *path = std::getenv("DLP_TIMELINE")) {
        if (*path) {
            setOutputPath(path);
            setRecording(true);
        }
    }
    if (const char *iv = std::getenv("DLP_TIMESERIES")) {
        char *end = nullptr;
        unsigned long long v = std::strtoull(iv, &end, 10);
        if (end && *end == '\0')
            setTimeseriesInterval(v);
        else
            warn("ignoring malformed DLP_TIMESERIES '%s'", iv);
    }
}

namespace {

/** Parses DLP_TRACE, DLP_TIMELINE et al. before main(). */
struct EnvInit
{
    EnvInit() { initFromEnv(); }
} envInit;

/**
 * At-exit backstop: if an output path is still armed when the process
 * exits (a binary that never calls finish()), write the trace anyway so
 * DLP_TIMELINE works on every tool and test without cooperation.
 */
void
atexitWriter()
{
    finish();
}

} // namespace

} // namespace dlp::obs
