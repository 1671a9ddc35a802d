#include "obs/timeline.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.hh"

namespace dlp::obs {

namespace detail {

std::atomic<bool> recording = false;
std::atomic<bool> catBits[numCats] = {};

} // namespace detail

namespace {

const char *const catNames[numCats] = {
    "EventQ", "Mesh", "SMC", "Cache", "Mem", "Engine", "Revit", "Exec",
    "Epoch", "Driver", "Audit", "Check", "Store",
};

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

/**
 * Per-thread ring buffer. Owned by the global registry (not the thread)
 * so events survive thread exit and export can run after a JobPool has
 * wound down. The owning thread writes lock-free; the registry mutex is
 * taken only for registration, clear and export.
 */
struct ThreadBuffer
{
    explicit ThreadBuffer(size_t cap, uint32_t id) : ring(cap), tid(id) {}

    std::vector<TraceEvent> ring;
    uint64_t total = 0; ///< events ever written (head = total % size)
    uint32_t tid;

    void
    push(const TraceEvent &ev)
    {
        ring[total % ring.size()] = ev;
        ++total;
    }
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

void atexitWriter();

} // namespace

const char *
catName(Cat c)
{
    return catNames[static_cast<unsigned>(c)];
}

void
setRecording(bool on)
{
    detail::recording.store(on, std::memory_order_relaxed);
}

void
enableAllCats()
{
    for (unsigned i = 0; i < numCats; ++i)
        detail::catBits[i].store(true, std::memory_order_relaxed);
}

void
parseCatList(const std::string &list)
{
    if (list.empty()) {
        enableAllCats();
        return;
    }
    // Listing any positive category starts from all-off; a pure
    // subtraction list ("-Exec") starts from all-on.
    bool anyPositive = false;
    {
        std::string token;
        std::istringstream in(list);
        while (std::getline(in, token, ',')) {
            size_t b = token.find_first_not_of(" \t");
            if (b != std::string::npos && token[b] != '-')
                anyPositive = true;
        }
    }
    for (unsigned i = 0; i < numCats; ++i)
        detail::catBits[i].store(!anyPositive, std::memory_order_relaxed);

    static std::mutex warnedMutex;
    static std::unordered_set<std::string> warnedNames;

    std::string token;
    std::istringstream in(list);
    while (std::getline(in, token, ',')) {
        size_t b = token.find_first_not_of(" \t");
        size_t e = token.find_last_not_of(" \t");
        if (b == std::string::npos)
            continue;
        std::string spec = token.substr(b, e - b + 1);
        bool on = true;
        std::string name = spec;
        if (!name.empty() && name[0] == '-') {
            on = false;
            name = name.substr(1);
        }
        if (name == "All") {
            for (unsigned i = 0; i < numCats; ++i)
                detail::catBits[i].store(on, std::memory_order_relaxed);
            continue;
        }
        bool found = false;
        for (unsigned i = 0; i < numCats; ++i) {
            if (name == catNames[i]) {
                detail::catBits[i].store(on, std::memory_order_relaxed);
                found = true;
                break;
            }
        }
        if (!found) {
            std::lock_guard<std::mutex> lock(warnedMutex);
            if (warnedNames.insert(name).second) {
                warn("unknown timeline category '%s' (known: EventQ, Mesh, "
                     "SMC, Cache, Mem, Engine, Revit, Exec, Epoch, Driver, "
                     "Audit, Check, Store, All)", spec.c_str());
            }
        }
    }
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
    TraceEvent ev;
    ev.ts = ts;
    ev.dur = dur;
    ev.arg = arg;
    ev.nameId = nameId;
    ev.labelId = labelId;
    ev.cat = c;
    ev.domain = d;
    ev.phase = 'X';
    threadBuffer().push(ev);
}

void
recordInstant(Cat c, uint32_t nameId, Domain d, uint64_t ts, uint64_t arg,
              uint32_t labelId)
{
    TraceEvent ev;
    ev.ts = ts;
    ev.arg = arg;
    ev.nameId = nameId;
    ev.labelId = labelId;
    ev.cat = c;
    ev.domain = d;
    ev.phase = 'i';
    threadBuffer().push(ev);
}

void
recordCounter(Cat c, uint32_t nameId, Domain d, uint64_t ts, double value)
{
    TraceEvent ev;
    ev.ts = ts;
    ev.value = value;
    ev.nameId = nameId;
    ev.cat = c;
    ev.domain = d;
    ev.phase = 'C';
    threadBuffer().push(ev);
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
    // Recording may have been switched off mid-span; still emit, so a
    // span straddling the switch is not silently lost.
    if (!active || !recordingEnabled())
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
    }
    for (const auto &buf : buffers) {
        const size_t size = buf->ring.size();
        const uint64_t held = std::min<uint64_t>(buf->total, size);
        // Oldest surviving event first: when the ring has wrapped the
        // write head is also the oldest slot.
        const uint64_t start = buf->total - held;
        for (uint64_t i = 0; i < held; ++i) {
            appendEvent(out, buf->ring[(start + i) % size], buf->tid,
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
    for (auto &buf : buffers) {
        buf->ring.assign(std::max<size_t>(ringCap, 16), TraceEvent{});
        buf->total = 0;
    }
}

TimelineCounts
timelineCounts()
{
    TimelineCounts counts;
    std::lock_guard<std::mutex> lock(registryMutex);
    counts.threads = buffers.size();
    for (const auto &buf : buffers) {
        uint64_t held = std::min<uint64_t>(buf->total, buf->ring.size());
        counts.recorded += held;
        counts.dropped += buf->total - held;
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
    if (const char *cats = std::getenv("DLP_TIMELINE_CATS"))
        parseCatList(cats);
    else
        enableAllCats();
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

/** Parses DLP_TIMELINE et al. before main(), mirroring trace::EnvInit. */
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
