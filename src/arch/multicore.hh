/**
 * @file
 * Multi-core scale-out top level: N grid cores behind a shared L2/SMC.
 *
 * A MultiCoreSystem serves an open-loop request schedule (see
 * src/traffic/generator.hh) on N TRIPS grid cores. Each core runs one
 * request at a time; the request's core-level execution is *not*
 * re-simulated here — it is characterized once per distinct
 * (kernel, seed-slot) pair by the existing single-core simulation
 * (driver::runService does that through the ordinary sweep machinery,
 * so per-core behavior is bit-identical to the single-core grid and
 * benefits from the result cache and store). The system level then
 * composes those per-request profiles with a fluid shared-bandwidth
 * contention model (mem/shared_smc.hh): between system events the
 * active set is constant, every active core is stretched by the same
 * factor f = max(1, sum(demand)/B), and the event loop advances from
 * arrival to completion exactly — a strictly serial, reproducible
 * queueing simulation on top of exact core-level profiles.
 *
 * Requests are dispatched to the lowest-numbered idle core; when all
 * cores are busy they wait in a single FIFO queue (the open-loop
 * generator keeps injecting, so overload shows up as queue growth and
 * tail latency, not as throttled offered load). Per-request latency
 * (completion - arrival) lands in a Distribution plus a raw vector for
 * exact nearest-rank percentiles; queue depth and injection/completion
 * flows are sampled into an obs::TimeSeries; shared-memory contention
 * is the arbiter's "mem.shared" group.
 */

#ifndef DLP_ARCH_MULTICORE_HH
#define DLP_ARCH_MULTICORE_HH

#include <concepts>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "arch/processor.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "obs/sampler.hh"
#include "traffic/generator.hh"

namespace dlp::arch {

/**
 * The core-level characterization of one distinct request class
 * (kernel drawn from the mix x dataset-seed slot): what the request
 * does to a core in isolation. Produced by driver::runService from an
 * ordinary single-core ExperimentResult.
 */
struct RequestProfile
{
    std::string kernel;
    uint64_t scale = 0;  ///< records per request (the traffic batch)
    uint64_t seed = 0;   ///< concrete dataset seed of this slot

    double isolatedTicks = 0.0;  ///< service time alone on a core
    /** Shared L2/SMC structure words per tick the request moves when
     *  running alone: SMC stream reads + writes + L1 miss line fills. */
    double demandWordsPerTick = 0.0;

    uint64_t activations = 0;  ///< engine activations of one request
    uint64_t usefulOps = 0;
};

/** System-level knobs of the multi-core composition. */
struct SystemParams
{
    unsigned cores = 1;
    /**
     * Aggregate shared L2/SMC bandwidth in words per tick. 0 derives
     * the default from MemParams: one core's worth of SMC banks,
     * rows * smcWordsPerCycle words per cycle — so a single core can
     * just saturate the shared pool and every added core contends.
     */
    double bandwidthWordsPerTick = 0.0;
    double ticksPerSec = 1e9;      ///< converts ticks to wall seconds
    uint64_t timeseriesInterval = 0;  ///< queue-depth sampling, 0 = off
};

/** What happened to one request of the schedule. */
struct RequestRecord
{
    uint64_t index = 0;     ///< injection order
    uint32_t mixIndex = 0;  ///< kernel mix entry it drew
    uint32_t seedSlot = 0;  ///< dataset slot it drew
    unsigned core = 0;      ///< core that served it
    double arrival = 0.0;   ///< ticks
    double start = 0.0;     ///< dispatch tick (>= arrival)
    double finish = 0.0;    ///< completion tick

    double latency() const { return finish - arrival; }
    double queueWait() const { return start - arrival; }
};

/**
 * The request record's one field table: calls v(key, member) for every
 * field, keyed and ordered as an exported request object. `Record` is
 * RequestRecord or const RequestRecord.
 */
template <class Record, class Visitor>
    requires std::same_as<std::remove_const_t<Record>, RequestRecord>
void
visitFields(Record &r, Visitor &&v)
{
    v("index", r.index);
    v("mixIndex", r.mixIndex);
    v("seedSlot", r.seedSlot);
    v("core", r.core);
    v("arrival", r.arrival);
    v("start", r.start);
    v("finish", r.finish);
}

/** Per-core accounting of one service run. */
struct CoreServiceStats
{
    uint64_t requests = 0;     ///< requests this core completed
    double busyTicks = 0.0;    ///< stretched (wall) ticks serving them
    double workTicks = 0.0;    ///< isolated-equivalent ticks of work
    uint64_t activations = 0;  ///< summed profile activations
};

/** Outcome of serving one traffic schedule on a multi-core system. */
struct ServiceResult
{
    std::string config;  ///< machine configuration of every core
    unsigned cores = 0;
    double bandwidthWordsPerTick = 0.0;
    double offeredRps = 0.0;  ///< the generator's target load
    std::string arrival;      ///< arrival discipline name
    uint64_t batch = 0;
    uint64_t seed = 0;
    uint64_t seedPool = 0;
    double ticksPerSec = 0.0;

    /// @name Conservation totals (the service auditor's subject).
    /// @{
    uint64_t injected = 0;
    uint64_t completed = 0;
    uint64_t inFlightAtDrain = 0;  ///< 0 after a full drain
    uint64_t systemActivations = 0;  ///< summed over completed requests
    /// @}

    double drainTick = 0.0;  ///< makespan: last completion tick
    /** Completions per wall second over the makespan. */
    double sustainedRps = 0.0;

    /// @name Latency, in ticks. Percentiles are exact nearest-rank over
    /// the raw per-request latencies (p50 <= p95 <= p99 by construction).
    /// @{
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double meanLatency = 0.0;
    double maxLatency = 0.0;
    Distribution latency;  ///< histogram of the same samples
    /// @}

    double meanQueueWait = 0.0;  ///< ticks from arrival to dispatch
    double maxQueueDepth = 0.0;  ///< peak waiting requests

    std::vector<RequestRecord> requests;  ///< injection order
    std::vector<CoreServiceStats> perCore;
    std::vector<RequestProfile> profiles;  ///< mixIndex-major x seedSlot

    /** "sys.mc" and "mem.shared" group snapshots (contention counters). */
    std::vector<GroupSnapshot> statGroups;

    /** Queue depth / flow samples (empty unless sampling configured). */
    obs::TimeSeries timeseries;

    /// @name Post-run service audit (verify::auditAndRecordService).
    /// @{
    bool audited = false;
    std::vector<AuditFinding> auditViolations;
    /// @}

    const GroupSnapshot &
    group(const std::string &name) const
    {
        for (const auto &g : statGroups)
            if (g.name == name)
                return g;
        panic("no stat group '%s' in service result (%s, %u cores)",
              name.c_str(), config.c_str(), cores);
    }
};

/**
 * The system-level composition. Construct with the per-request-class
 * profiles (indexed mixIndex * seedPool + seedSlot, matching the
 * schedule's draws), then serve() a schedule to completion.
 */
class MultiCoreSystem
{
  public:
    MultiCoreSystem(const SystemParams &params,
                    std::vector<RequestProfile> profiles,
                    uint64_t seedPool);

    /**
     * Serve every request of the schedule to completion (full drain)
     * and return the aggregated result. Strictly serial and
     * deterministic: same schedule + profiles + params => bit-identical
     * result.
     */
    ServiceResult serve(const std::vector<traffic::Request> &schedule);

    /** The default shared bandwidth a params struct resolves to. */
    static double defaultBandwidth();

  private:
    SystemParams p;
    std::vector<RequestProfile> profiles;
    uint64_t seedPool;
};

/** Exact nearest-rank percentile of an ascending-sorted sample vector. */
double nearestRank(const std::vector<double> &sorted, double pct);

} // namespace dlp::arch

#endif // DLP_ARCH_MULTICORE_HH
