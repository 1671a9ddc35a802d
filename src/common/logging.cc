#include "common/logging.hh"

#include <atomic>
#include <cstdarg>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace dlp {

namespace {

std::atomic<bool> quietFlag{false};

/**
 * Occurrence counts of distinct warn() messages, for rate limiting.
 * Bounded by LRU eviction at warnTableLimit entries: a pathological
 * stream of unique messages (long fuzz runs) evicts the
 * least-recently-warned message instead of growing without limit or
 * dropping the whole table (which would reset suppression for every
 * live message at once). An evicted message that recurs is treated as
 * new and warns again -- the acceptable failure mode. Guarded by its
 * mutex: warn() is called from the sweep driver's worker threads.
 */
struct WarnEntry
{
    std::string msg;
    uint64_t count;
};
struct WarnTable
{
    std::mutex mutex;
    std::list<WarnEntry> lru; ///< most recently warned at the front
    std::unordered_map<std::string, std::list<WarnEntry>::iterator> index;
};

/** Built on first use: static initializers elsewhere (the DLP_TRACE and
 *  DLP_TIMELINE_CATS parsers) may warn before this file's globals exist. */
WarnTable &
warnTable()
{
    static WarnTable table;
    return table;
}

} // namespace

namespace logging_detail {

std::string
format(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args2;
    va_copy(args2, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    if (needed < 0) {
        va_end(args2);
        return std::string(fmt);
    }
    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args2);
    va_end(args2);
    return std::string(buf.data(), static_cast<size_t>(needed));
}

} // namespace logging_detail

void
panicMsg(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    throw PanicError(msg);
}

void
fatalMsg(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    throw FatalError(msg);
}

void
usageMsg(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    throw UsageError(msg);
}

int
guardedMain(int argc, char **argv, int (*body)(int, char **))
{
    try {
        return body(argc, argv);
    } catch (const UsageError &) {
        return 2;
    } catch (const FatalError &) {
        return 1;
    }
}

void
warnMsg(const std::string &msg)
{
    if (quietFlag.load(std::memory_order_relaxed))
        return;
    WarnTable &t = warnTable();
    std::lock_guard<std::mutex> lock(t.mutex);
    uint64_t n;
    auto it = t.index.find(msg);
    if (it != t.index.end()) {
        // Refresh recency and bump the count.
        t.lru.splice(t.lru.begin(), t.lru, it->second);
        n = ++t.lru.front().count;
    } else {
        if (t.index.size() >= warnTableLimit) {
            t.index.erase(t.lru.back().msg);
            t.lru.pop_back();
        }
        t.lru.push_front(WarnEntry{msg, 1});
        t.index[msg] = t.lru.begin();
        n = 1;
    }
    if (n > warnRepeatLimit)
        return;
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
    if (n == warnRepeatLimit) {
        std::fprintf(stderr,
                     "warn: (message repeated %u times; further identical "
                     "warnings suppressed)\n", warnRepeatLimit);
    }
}

void
resetWarnDeduplication()
{
    WarnTable &t = warnTable();
    std::lock_guard<std::mutex> lock(t.mutex);
    t.lru.clear();
    t.index.clear();
}

size_t
warnTableSize()
{
    WarnTable &t = warnTable();
    std::lock_guard<std::mutex> lock(t.mutex);
    return t.index.size();
}

uint64_t
warnOccurrences(const std::string &msg)
{
    WarnTable &t = warnTable();
    std::lock_guard<std::mutex> lock(t.mutex);
    auto it = t.index.find(msg);
    return it != t.index.end() ? it->second->count : 0;
}

void
informMsg(const std::string &msg)
{
    if (!quietFlag.load(std::memory_order_relaxed))
        std::fprintf(stderr, "info: %s\n", msg.c_str());
}

void
setQuietLogging(bool quiet)
{
    quietFlag.store(quiet, std::memory_order_relaxed);
}

bool
quietLogging()
{
    return quietFlag.load(std::memory_order_relaxed);
}

} // namespace dlp
