/**
 * @file
 * The one instrumentation API: simulated-tick and host-wall-clock
 * spans, instants and counters, each tagged with a category and fed to
 * two sinks.
 *
 *  - The **ring** records events into fixed-capacity per-thread ring
 *    buffers (no locks, no allocation after the ring fills; when a ring
 *    wraps, the oldest events are overwritten and counted as dropped)
 *    and exports them as Chrome trace-event JSON loadable in Perfetto
 *    or chrome://tracing. Each thread has one ring per clock domain, so
 *    per-instruction simulated events never wrap away a host span.
 *  - The **text** sink prints one line per simulated-domain event,
 *    stamped with the event's own tick:
 *
 *        1234: Mesh: flit dur=6 arg=3
 *
 *    that is `<ts>: <Cat>: <name>`, then ` dur=` (spans), ` arg=`
 *    (when non-zero) or ` value=` (counters), then the label if any.
 *    Lines go to std::cout under one mutex, so concurrent simulations
 *    never shear a line.
 *
 * Simulated-domain sites are engine activations, mesh flit journeys,
 * SMC bursts, cache-miss episodes, epoch replays and per-instruction
 * fires; host-domain sites are JobPool jobs, sweep cells, fixture
 * builds, audit/check gates and result-store lookups.
 *
 * Each category has one atomic byte of sink bits, so a site costs one
 * relaxed load and a branch while its sinks are off; defining
 * DLP_TRACE_DISABLED at compile time removes even that. Both sinks take
 * the same category lists ("Mesh,SMC", "All,-Exec"):
 *
 *     DLP_TRACE=Mesh,SMC ./build/examples/quickstart           # text
 *     DLP_TIMELINE=trace.json DLP_TIMELINE_CATS=All,-Exec ...  # ring
 *
 * or programmatically:
 *
 *     obs::setOutputPath("trace.json");
 *     obs::setRecording(true);
 *     ... run ...
 *     obs::finish();   // writes the Chrome trace JSON
 *
 * DLP_TIMELINE_CAP=N sets the per-thread simulated-domain ring capacity
 * in events; each thread's host-domain ring holds 4096.
 *
 * Clock domains map to Chrome trace *processes*: pid 1 is simulated
 * time (one "microsecond" per tick), pid 2 is host wall time; each
 * recording thread is a Chrome trace *thread* within both, so parallel
 * sweep workers render as parallel tracks.
 *
 * The recorder also hosts the per-iteration occupancy-signature hash
 * (SignatureHash below): the execution engines fold every instruction
 * fire (index, tick offset) plus the activation's occupancy envelope
 * into one 64-bit digest per activation. Identical digests mean the
 * iteration replayed the same schedule -- the steady-state detection
 * hook epoch fast-forwarding consumes.
 */

#ifndef DLP_OBS_TIMELINE_HH
#define DLP_OBS_TIMELINE_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "common/types.hh"

namespace dlp::obs {

/** Event categories: the simulated machine's, then host-side ones. */
enum class Cat : uint8_t
{
    EventQ,  ///< event-kernel visibility (queue occupancy counters)
    Mesh,    ///< operand-network flit journeys
    SMC,     ///< SMC bursts, store-buffer accepts, DMA transfers
    Cache,   ///< L1/L2 miss episodes
    Mem,     ///< memory-system facade accesses
    Engine,  ///< activations, mappings, chunk runs
    Revit,   ///< revitalization broadcasts
    Exec,    ///< per-instruction fires (very verbose)
    Epoch,   ///< epoch fast-forwarding: replay spans, bail-outs
    Driver,  ///< host: sweep cells, fixtures, JobPool jobs, experiments
    Audit,   ///< host: post-run invariant audit gate
    Check,   ///< host: pre-run static verification gate
    Store,   ///< host: result-store lookups, hits/misses, inserts
    NumCats
};

constexpr unsigned numCats = static_cast<unsigned>(Cat::NumCats);

/** Canonical category name ("Mesh", "Driver", ...). */
const char *catName(Cat c);

/** Which clock a timestamp belongs to. */
enum class Domain : uint8_t
{
    Sim,  ///< simulated half-cycle ticks
    Host  ///< wall-clock nanoseconds since process start
};

/** Where a category's events go: one bit each in its gate byte. */
enum Sink : uint8_t
{
    ringSink = 1, ///< the timeline rings (setRecording, DLP_TIMELINE_CATS)
    textSink = 2, ///< one line per simulated-domain event (DLP_TRACE)
};

namespace detail {

/** Per-category sink bits: the one hot-path gate. */
extern std::atomic<uint8_t> sinks[numCats];

} // namespace detail

#ifdef DLP_TRACE_DISABLED
inline bool enabled(Cat) { return false; }
#else
/** Hot-path gate: does any sink take this category right now? */
inline bool
enabled(Cat c)
{
    return detail::sinks[static_cast<unsigned>(c)].load(
               std::memory_order_relaxed) != 0;
}
#endif

/** Does sink s currently take category c? */
bool sinkEnabled(Cat c, Sink s);

/** Master ring switch (categories keep their ring filter settings). */
void setRecording(bool on);

/**
 * Turn one category on ("Mesh") or off ("-Mesh") for sink s; "All"
 * matches every category. Names are case-sensitive.
 * @return false if the name is unknown, warning once per name ("unknown
 *         timeline category" for the ring, "unknown trace flag" for
 *         text).
 */
bool setByName(const std::string &spec, Sink s);

/**
 * Set sink s's categories from a comma-separated list ("Mesh,SMC",
 * "All,-Exec"). A list naming any category positively starts from
 * all-off; a pure subtraction list ("-Exec") starts from all-on.
 */
void parseCatList(const std::string &list, Sink s = ringSink);

/** Redirect the text sink (nullptr restores the default, std::cout). */
void setTextStream(std::ostream *os);

/**
 * Per-thread simulated-domain ring capacity in events for buffers
 * created (or cleared) from now on. Power of two not required. Minimum
 * 16.
 */
void setRingCapacity(size_t events);
size_t ringCapacity();

/**
 * Export destination used by finish() and the at-exit backstop; setting
 * a non-empty path the first time arms the backstop so DLP_TIMELINE
 * works on any binary without explicit cooperation.
 */
void setOutputPath(const std::string &path);
std::string outputPath();

/** Wall time in nanoseconds since the process epoch (steady clock). */
uint64_t hostNowNs();

/**
 * Intern a name string, returning a stable id. Interning is
 * mutex-guarded: hot sites cache the id in a function-local static
 * (the OBS_* macros below do this automatically).
 */
uint32_t internName(const std::string &name);

/**
 * Record one complete span ('X') into every sink that takes category c
 * (the text sink prints simulated-domain events only). Sites check
 * enabled() first, so a disabled site never calls in.
 */
void recordSpan(Cat c, uint32_t nameId, Domain d, uint64_t ts,
                uint64_t dur, uint64_t arg = 0, uint32_t labelId = 0);

/** Record one instant ('i'), as recordSpan does. */
void recordInstant(Cat c, uint32_t nameId, Domain d, uint64_t ts,
                   uint64_t arg = 0, uint32_t labelId = 0);

/** Record one counter sample ('C'), as recordSpan does. */
void recordCounter(Cat c, uint32_t nameId, Domain d, uint64_t ts,
                   double value);

/** Convenience: host-domain instant, name/label interned if enabled. */
void hostInstant(Cat c, const char *name, const std::string &label = {});

/**
 * RAII host-wall-clock span. Does nothing when the category is off;
 * the label string (kernel/config names and the like) is interned only
 * when it is on. Host-domain events go to the ring only.
 */
class HostSpan
{
  public:
    HostSpan(Cat c, const char *name, const std::string &label = {},
             uint64_t arg = 0);
    ~HostSpan();

    HostSpan(const HostSpan &) = delete;
    HostSpan &operator=(const HostSpan &) = delete;

  private:
    Cat cat = Cat::Driver;
    uint32_t nameId = 0;
    uint32_t labelId = 0;
    uint64_t argValue = 0;
    uint64_t startNs = 0;
    bool active = false;
};

/// @name Export and lifecycle.
/// @{

/**
 * Serialize everything recorded so far as a Chrome trace JSON text,
 * with one "ring" metadata record per thread giving its simulated-domain
 * ring's capacity and the events written to and dropped from it, and
 * the same three figures for its host-domain ring under "host".
 */
std::string exportChromeJson();

/** Write exportChromeJson() to a file; fatal on I/O failure. */
void writeChromeTrace(const std::string &path);

/**
 * If an output path is set: write the trace there, clear the path (so
 * the at-exit backstop does not write twice) and return the path;
 * otherwise return "".
 */
std::string finish();

/** Drop all recorded events and re-apply the ring capacity. */
void clearTimeline();

/** Parse DLP_TRACE / DLP_TIMELINE / DLP_TIMELINE_CATS /
 *  DLP_TIMELINE_CAP / DLP_TIMESERIES. Called automatically before
 *  main() (harmless to call again, e.g. after setenv in tests). */
void initFromEnv();

/**
 * Default stat time-series sampling interval in simulated ticks
 * (0 = sampling off). Set by DLP_TIMESERIES or the --timeseries CLI
 * flag; the engines consult it when an experiment starts.
 */
void setTimeseriesInterval(uint64_t ticks);
uint64_t timeseriesInterval();

struct TimelineCounts
{
    uint64_t recorded = 0; ///< events currently held in the rings
    uint64_t dropped = 0;  ///< overwritten by ring wrap
    size_t threads = 0;    ///< thread buffers ever registered
};

TimelineCounts timelineCounts();

/// @}

/**
 * FNV-1a-style running hash over an iteration's event schedule, built
 * on the shared word-folding step from common/hash.hh (same constants
 * as the byte-stream hashers the result store keys with). The block
 * engine feeds (instruction index, issue-tick offset) for every fire
 * plus the activation's occupancy envelope; equal digests across
 * activations identify steady state (ROADMAP item 1's trigger).
 * Always-on: two multiplies per instruction, no atomics, deterministic.
 */
class SignatureHash
{
  public:
    void reset() { h = fnv64OffsetBasis; }

    void add(uint64_t v) { h = fnv1aStep(h, v); }

    uint64_t digest() const { return h; }

  private:
    uint64_t h = fnv64OffsetBasis;
};

} // namespace dlp::obs

#ifdef DLP_TRACE_DISABLED
namespace dlp::obs::detail {
template <typename... Args>
inline void discard(const Args &...) {}
} // namespace dlp::obs::detail

/**
 * A compiled-out site: its arguments are type-checked and count as
 * used, so a variable only a site reads draws no warning, but they are
 * never evaluated.
 */
#define OBS_DISCARD_(...)                                                     \
    do {                                                                      \
        if (false)                                                            \
            ::dlp::obs::detail::discard(__VA_ARGS__);                         \
    } while (0)
#define OBS_SIM_SPAN(cat, name, ts, dur, arg)                                 \
    OBS_DISCARD_(::dlp::obs::Cat::cat, name, ts, dur, arg)
#define OBS_SIM_INSTANT(cat, name, ts, arg)                                   \
    OBS_DISCARD_(::dlp::obs::Cat::cat, name, ts, arg)
#define OBS_SIM_COUNTER(cat, name, ts, value)                                 \
    OBS_DISCARD_(::dlp::obs::Cat::cat, name, ts, value)
#else
/**
 * The site-static interning idiom: the lambda gives every expansion its
 * own static, so the name is interned once per call site, not per event.
 */
#define OBS_NAME_ID_(name)                                                    \
    ([]() -> uint32_t {                                                       \
        static const uint32_t obsId = ::dlp::obs::internName(name);           \
        return obsId;                                                         \
    }())

/** Record a simulated-tick span if its category is being recorded. */
#define OBS_SIM_SPAN(cat, name, ts, dur, arg)                                 \
    do {                                                                      \
        if (::dlp::obs::enabled(::dlp::obs::Cat::cat)) {                      \
            ::dlp::obs::recordSpan(::dlp::obs::Cat::cat,                      \
                                   OBS_NAME_ID_(name),                        \
                                   ::dlp::obs::Domain::Sim,                   \
                                   uint64_t(ts), uint64_t(dur),               \
                                   uint64_t(arg));                            \
        }                                                                     \
    } while (0)

/** Record a simulated-tick instant if its category is being recorded. */
#define OBS_SIM_INSTANT(cat, name, ts, arg)                                   \
    do {                                                                      \
        if (::dlp::obs::enabled(::dlp::obs::Cat::cat)) {                      \
            ::dlp::obs::recordInstant(::dlp::obs::Cat::cat,                   \
                                      OBS_NAME_ID_(name),                     \
                                      ::dlp::obs::Domain::Sim,                \
                                      uint64_t(ts), uint64_t(arg));           \
        }                                                                     \
    } while (0)

/** Record a simulated-tick counter sample if its category is on. */
#define OBS_SIM_COUNTER(cat, name, ts, value)                                 \
    do {                                                                      \
        if (::dlp::obs::enabled(::dlp::obs::Cat::cat)) {                      \
            ::dlp::obs::recordCounter(::dlp::obs::Cat::cat,                   \
                                      OBS_NAME_ID_(name),                     \
                                      ::dlp::obs::Domain::Sim,                \
                                      uint64_t(ts), double(value));           \
        }                                                                     \
    } while (0)
#endif

#endif // DLP_OBS_TIMELINE_HH
