#include "arch/multicore.hh"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <deque>
#include <limits>

#include "common/logging.hh"
#include "mem/params.hh"
#include "mem/shared_smc.hh"

namespace dlp::arch {

double
MultiCoreSystem::defaultBandwidth()
{
    // One core's worth of SMC banks: rows * smcWordsPerCycle words per
    // cycle. A single core can just saturate the shared pool, so every
    // core added beyond the first contends — the scale-out experiments
    // measure how gracefully.
    mem::MemParams mp;
    return double(mp.rows) * double(mp.smcWordsPerCycle) /
           double(ticksPerCycle);
}

namespace {

/** The index of the nearest-rank `pct` percentile among n > 0 sorted
 *  samples: the ceil(pct/100 * n)-th, clamped to the first and last. */
size_t
rankIndex(size_t n, double pct)
{
    double rank = std::ceil(pct / 100.0 * double(n));
    size_t idx = rank < 1.0 ? 0 : size_t(rank) - 1;
    return std::min(idx, n - 1);
}

} // namespace

double
nearestRank(const std::vector<double> &sorted, double pct)
{
    return sorted.empty() ? 0.0 : sorted[rankIndex(sorted.size(), pct)];
}

std::vector<double>
nearestRanks(std::vector<double> samples, const std::vector<double> &pcts)
{
    panic_if(!std::is_sorted(pcts.begin(), pcts.end()),
             "nearestRanks: percentiles must ascend");
    if (samples.empty())
        return std::vector<double>(pcts.size(), 0.0);
    std::vector<double> out;
    out.reserve(pcts.size());
    // Each selection leaves every sample ranked at or above its pick in
    // [pick, end), so the next (higher) percentile selects there.
    auto from = samples.begin();
    for (double pct : pcts) {
        auto nth = samples.begin() + rankIndex(samples.size(), pct);
        std::nth_element(from, nth, samples.end());
        out.push_back(*nth);
        from = nth;
    }
    return out;
}

MultiCoreSystem::MultiCoreSystem(const SystemParams &params,
                                 std::vector<RequestProfile> reqProfiles,
                                 uint64_t pool)
    : p(params), profiles(std::move(reqProfiles)), seedPool(pool)
{
    fatal_if(p.cores == 0, "multi-core system needs at least one core");
    fatal_if(p.ticksPerSec <= 0.0, "ticksPerSec must be positive");
    fatal_if(seedPool == 0, "seed pool must be nonzero");
    fatal_if(profiles.empty() || profiles.size() % seedPool != 0,
             "profile table size %zu is not a nonzero multiple of the "
             "seed pool %" PRIu64, profiles.size(), seedPool);
    if (p.bandwidthWordsPerTick <= 0.0)
        p.bandwidthWordsPerTick = defaultBandwidth();
    for (const auto &prof : profiles) {
        fatal_if(prof.isolatedTicks <= 0.0,
                 "profile for %s has non-positive service time",
                 prof.kernel.c_str());
    }
}

namespace {

/** One core's in-flight request, in isolated-equivalent work ticks. */
struct ActiveSlot
{
    bool busy = false;
    uint64_t request = 0;   ///< index into the record vector
    size_t profile = 0;     ///< index into the profile table
    double remaining = 0.0; ///< isolated ticks of work left
};

} // namespace

ServiceResult
MultiCoreSystem::serve(const std::vector<traffic::Request> &schedule)
{
    ServiceResult res;
    res.cores = p.cores;
    res.bandwidthWordsPerTick = p.bandwidthWordsPerTick;
    res.seedPool = seedPool;
    res.ticksPerSec = p.ticksPerSec;
    res.perCore.assign(p.cores, {});
    res.profiles = profiles;

    mem::SharedSmcArbiter arbiter(p.cores, p.bandwidthWordsPerTick);

    // System flow counters (deltas for the sampler) and instantaneous
    // levels (formulas). The lambdas read loop state declared below;
    // the group never outlives this frame.
    StatGroup sys("sys.mc");
    Stat &injectedStat = sys.scalar("injected");
    Stat &completedStat = sys.scalar("completed");

    std::vector<ActiveSlot> core(p.cores);
    std::deque<uint64_t> waiting;
    unsigned activeCores = 0;

    sys.formula("queueDepth", [&] { return double(waiting.size()); });
    sys.formula("activeCores", [&] { return double(activeCores); });

    obs::StatSampler sampler(p.timeseriesInterval,
                             {&sys, &arbiter.statsGroup()});

    res.requests.resize(schedule.size());
    std::vector<double> latencies;
    latencies.reserve(schedule.size());
    std::vector<double> demands;
    demands.reserve(p.cores);

    double now = 0.0;
    double queueWaitSum = 0.0;
    constexpr double inf = std::numeric_limits<double>::infinity();

    auto slowdown = [&] {
        double total = 0.0;
        for (const auto &c : core)
            if (c.busy)
                total += profiles[c.profile].demandWordsPerTick;
        return arbiter.slowdown(total);
    };

    // Advance simulated time to `to` under the current (constant)
    // active set: charge the arbiter and burn down remaining work at
    // the stretched rate 1/f.
    auto advance = [&](double to, double f) {
        if (to <= now)
            return;
        double elapsed = to - now;
        if (activeCores > 0) {
            demands.clear();
            for (auto &c : core) {
                if (!c.busy)
                    continue;
                demands.push_back(profiles[c.profile].demandWordsPerTick);
                c.remaining -= elapsed / f;
            }
            arbiter.charge(elapsed, demands, f);
        }
        now = to;
    };

    auto dispatch = [&](unsigned ci, uint64_t reqIdx) {
        RequestRecord &rec = res.requests[reqIdx];
        rec.start = now;
        rec.core = ci;
        queueWaitSum += rec.start - rec.arrival;
        core[ci].busy = true;
        core[ci].request = reqIdx;
        core[ci].profile = rec.mixIndex * seedPool + rec.seedSlot;
        core[ci].remaining = profiles[core[ci].profile].isolatedTicks;
        ++activeCores;
    };

    size_t nextArrival = 0;
    while (nextArrival < schedule.size() || !waiting.empty() ||
           activeCores > 0) {
        double f = slowdown();

        double tArrival = nextArrival < schedule.size()
                              ? double(schedule[nextArrival].arrival)
                              : inf;
        double tComplete = inf;
        unsigned completeCore = 0;
        for (unsigned ci = 0; ci < p.cores; ++ci) {
            if (!core[ci].busy)
                continue;
            double t = now + std::max(core[ci].remaining, 0.0) * f;
            if (t < tComplete) {
                tComplete = t;
                completeCore = ci;
            }
        }

        if (tComplete <= tArrival) {
            // Completions first at ties so the freed core can take the
            // simultaneous arrival.
            advance(tComplete, f);
            ActiveSlot &slot = core[completeCore];
            const RequestProfile &prof = profiles[slot.profile];
            RequestRecord &rec = res.requests[slot.request];
            rec.finish = now;
            latencies.push_back(rec.latency());

            CoreServiceStats &cs = res.perCore[completeCore];
            ++cs.requests;
            cs.busyTicks += rec.finish - rec.start;
            cs.workTicks += prof.isolatedTicks;
            cs.activations += prof.activations;
            res.systemActivations += prof.activations;

            ++res.completed;
            ++completedStat;
            slot.busy = false;
            --activeCores;
            if (!waiting.empty()) {
                uint64_t next = waiting.front();
                waiting.pop_front();
                dispatch(completeCore, next);
            }
        } else {
            advance(tArrival, f);
            const traffic::Request &arr = schedule[nextArrival];
            size_t profIdx = size_t(arr.mixIndex) * seedPool + arr.seedSlot;
            panic_if(profIdx >= profiles.size(),
                     "request %" PRIu64 " draws profile %zu of %zu",
                     arr.index, profIdx, profiles.size());
            RequestRecord &rec = res.requests[arr.index];
            rec.index = arr.index;
            rec.mixIndex = arr.mixIndex;
            rec.seedSlot = arr.seedSlot;
            rec.arrival = double(arr.arrival);
            ++res.injected;
            ++injectedStat;

            unsigned idle = p.cores;
            for (unsigned ci = 0; ci < p.cores; ++ci) {
                if (!core[ci].busy) {
                    idle = ci;
                    break;
                }
            }
            if (idle < p.cores) {
                dispatch(idle, arr.index);
            } else {
                waiting.push_back(arr.index);
                res.maxQueueDepth =
                    std::max(res.maxQueueDepth, double(waiting.size()));
            }
            ++nextArrival;
        }
        sampler.maybeSample(Tick(now));
    }

    res.inFlightAtDrain = uint64_t(activeCores) + waiting.size();
    res.drainTick = now;
    res.sustainedRps = res.drainTick > 0.0
                           ? double(res.completed) /
                                 (res.drainTick / p.ticksPerSec)
                           : 0.0;
    res.meanQueueWait = res.completed
                            ? queueWaitSum / double(res.completed)
                            : 0.0;

    auto ranks = nearestRanks(latencies, {50.0, 95.0, 99.0, 100.0});
    res.p50 = ranks[0];
    res.p95 = ranks[1];
    res.p99 = ranks[2];
    res.maxLatency = ranks[3];

    double latencySum = 0.0;
    for (double l : latencies)
        latencySum += l;
    res.meanLatency =
        latencies.empty() ? 0.0 : latencySum / double(latencies.size());

    // Histogram over [0, max] — the range depends only on the (fully
    // deterministic) latencies, so reruns bucket identically.
    double hi = res.maxLatency > 0.0 ? res.maxLatency * (1.0 + 1e-9) : 1.0;
    res.latency = Distribution("latencyTicks", 0.0, hi, 64);
    for (double l : latencies)
        res.latency.sample(l);

    res.timeseries = sampler.finalize(Tick(now));
    res.statGroups.push_back(sys.snapshot());
    res.statGroups.push_back(arbiter.statsGroup().snapshot());
    return res;
}

} // namespace dlp::arch
