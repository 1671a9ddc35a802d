/**
 * @file
 * The parallel sweep driver: plan, execute and cache independent
 * kernel × configuration simulations.
 *
 * A SweepPlan is an ordered list of SweepTasks. runSweep() executes
 * the plan on a JobPool and returns results *in plan order*: every
 * task owns an output slot, so the aggregated vector is bit-identical
 * to a serial run regardless of worker count or completion order (the
 * simulations themselves are deterministic and fully isolated — each
 * job instantiates its own workload from a shared immutable fixture
 * and its own processor).
 *
 * Three tiers amortize repeated work:
 *
 *  - a per-sweep fixture cache: dataset generation and golden-model
 *    evaluation run once per (kernel, scale, seed), and every config's
 *    job reads the shared immutable fixture;
 *  - a process-wide result cache keyed by the content-addressed
 *    experiment key (store/key.hh) — canonical kernel-IR digest,
 *    machine-config digest, code version, resolved scale, seed — so a
 *    stale entry cannot outlive the code or configuration that
 *    produced it: repeated sweeps (explore_configs refinement passes,
 *    a bench rerun in the same process) skip finished simulations;
 *  - an optional persistent result store (store/result_store.hh) under
 *    the same key, consulted on every in-process cache miss and filled
 *    after every simulation, so a rerun in a *new* process — or on
 *    another machine sharing the directory — is near-instant and
 *    bit-identical. Enable it with SweepOptions::storeDir or the
 *    DLP_STORE environment variable (storeDirFor()).
 */

#ifndef DLP_DRIVER_SWEEP_HH
#define DLP_DRIVER_SWEEP_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "arch/processor.hh"
#include "common/json.hh"
#include "store/result_store.hh"

namespace dlp::driver {

/** One independent simulation: a kernel on a machine configuration. */
struct SweepTask
{
    std::string kernel;
    std::string config;
    uint64_t scaleDiv = 1;  ///< divide the kernel's default scale
    uint64_t seed = 1234;   ///< dataset seed
    uint64_t scale = 0;     ///< absolute problem scale; 0 = derive from
                            ///< defaultScale(kernel) / scaleDiv
};

/** The problem scale a task resolves to (explicit scale wins). */
uint64_t resolvedScale(const SweepTask &task);

/** An ordered list of sweep tasks with cross-product helpers. */
struct SweepPlan
{
    std::vector<SweepTask> tasks;

    void
    add(std::string kernel, std::string config, uint64_t scaleDiv = 1,
        uint64_t seed = 1234)
    {
        tasks.push_back({std::move(kernel), std::move(config), scaleDiv,
                         seed});
    }

    /** Append the full kernels × configs cross product. */
    void addGrid(const std::vector<std::string> &kernels,
                 const std::vector<std::string> &configs,
                 uint64_t scaleDiv = 1, uint64_t seed = 1234);

    size_t size() const { return tasks.size(); }
    bool empty() const { return tasks.empty(); }
};

/** Progress report delivered as tasks finish (serialized; any thread). */
struct SweepProgress
{
    const SweepTask *task = nullptr;  ///< the task that just finished
    size_t done = 0;                  ///< finished so far (incl. cached)
    size_t total = 0;                 ///< plan size
    bool cached = false;              ///< satisfied from the result cache
};

struct SweepOptions
{
    /**
     * Worker threads: 0 means the DLP_JOBS environment default (which
     * itself defaults to 1). With an effective count of 1 the sweep
     * runs strictly serially on the calling thread — that is the
     * reference path the parallel path must match bit-for-bit.
     */
    unsigned jobs = 0;

    /** Consult and fill the process-wide result cache. */
    bool useCache = true;

    /**
     * Directory of the persistent result store. Empty means the
     * DLP_STORE environment variable, else no store at all.
     */
    std::string storeDir;

    /** Invoked (under a lock) after each task completes. */
    std::function<void(const SweepProgress &)> progress;
};

/** The worker count an options struct resolves to. */
unsigned effectiveJobs(const SweepOptions &opts);

/**
 * Problem scale for a kernel at a scale divisor (the FFT transform
 * length stays a power of two; everything else has a floor of 16).
 */
uint64_t scaleFor(const std::string &kernel, uint64_t scaleDiv);

/**
 * Run one task in isolation, bypassing both caches. Fatal if the
 * simulated outputs fail golden-model verification.
 */
arch::ExperimentResult runTask(const SweepTask &task);

/**
 * Execute a plan; results are returned in plan order independent of
 * worker count and completion order.
 */
std::vector<arch::ExperimentResult> runSweep(const SweepPlan &plan,
                                             const SweepOptions &opts = {});

/// @name Process-wide result cache introspection and control.
/// @{
size_t resultCacheSize();
uint64_t resultCacheHits();
uint64_t resultCacheMisses();
void clearResultCache();
/// @}

/// @name Persistent result-store wiring.
/// @{

/**
 * The store directory a sweep uses: `dir` (an option's value), else
 * the DLP_STORE environment variable, else "" for no store.
 */
std::string storeDirFor(const std::string &dir);

/**
 * Store traffic aggregated across every store handle runSweep has
 * opened in this process (all zero when no store was ever active).
 */
store::StoreStats storeTraffic();

/**
 * Cache and store counters as the sweep documents' "store" object:
 * { cacheHits, cacheMisses, storeHits, storeMisses, storeInserts,
 *   storeCorrupt, and — when a store is active — storeDir, entries,
 *   bytes }. Every cell of every sweep lands in exactly one cache
 * counter, and the store counters tally only cache misses, so
 * cacheHits + cacheMisses == cells swept and
 * storeHits + storeMisses <= cacheMisses (== when a store was active
 * throughout).
 */
json::Value storeStatsJson();
/// @}

} // namespace dlp::driver

#endif // DLP_DRIVER_SWEEP_HH
