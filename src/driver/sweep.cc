#include "driver/sweep.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "arch/configs.hh"
#include "common/logging.hh"
#include "driver/job_pool.hh"
#include "kernels/workload.hh"
#include "obs/timeline.hh"
#include "store/key.hh"
#include "verify/audit.hh"

namespace dlp::driver {

namespace {

using FixtureKey = std::tuple<std::string, uint64_t, uint64_t>;

/// Process-wide result cache, keyed by the content-addressed experiment
/// key so entries invalidate with the code version, kernel IR or
/// machine config. Guarded by cacheMutex; values are copied in and out
/// so callers never hold references into the table.
std::mutex cacheMutex;
std::map<std::string, arch::ExperimentResult> resultCacheTable;
std::atomic<uint64_t> cacheHitCount{0};
std::atomic<uint64_t> cacheMissCount{0};

std::string
keyOf(const SweepTask &t)
{
    return store::experimentKey(t.kernel, t.config, resolvedScale(t),
                                t.seed);
}

bool
cacheLookup(const std::string &key, arch::ExperimentResult &out)
{
    std::lock_guard<std::mutex> lock(cacheMutex);
    auto it = resultCacheTable.find(key);
    if (it == resultCacheTable.end())
        return false;
    out = it->second;
    return true;
}

void
cacheStore(const std::string &key, const arch::ExperimentResult &result)
{
    std::lock_guard<std::mutex> lock(cacheMutex);
    resultCacheTable.emplace(key, result);
}

/// Persistent store handles, one per directory, living for the whole
/// process so their traffic counters accumulate across sweeps.
std::mutex storeMutex;
std::map<std::string, std::unique_ptr<store::ResultStore>> storeHandles;

store::ResultStore *
storeFor(const SweepOptions &opts)
{
    std::string dir = storeDirFor(opts.storeDir);
    if (dir.empty())
        return nullptr;
    std::lock_guard<std::mutex> lock(storeMutex);
    auto it = storeHandles.find(dir);
    if (it == storeHandles.end())
        it = storeHandles
                 .emplace(dir, std::make_unique<store::ResultStore>(dir))
                 .first;
    return it->second.get();
}

/** Run one instantiation of a fixture on one machine configuration. */
arch::ExperimentResult
runOnFixture(const kernels::WorkloadFixture &fixture, const SweepTask &t)
{
    obs::HostSpan cellSpan(obs::Cat::Driver, "cell",
                           t.kernel + "/" + t.config);
    auto wl = fixture.instantiate();
    arch::TripsProcessor cpu(arch::configByName(t.config));
    auto res = cpu.run(*wl);
    fatal_if(!res.verified, "%s on %s failed verification: %s",
             t.kernel.c_str(), t.config.c_str(), res.error.c_str());
    // Under --audit / DLP_AUDIT=1, evaluate the conservation-law
    // registry on every completed run. Violations ride in the result
    // (and its JSON form) rather than aborting the sweep: a full grid's
    // worth of findings beats dying on the first one.
    if (verify::auditEnabled()) {
        obs::HostSpan auditSpan(obs::Cat::Audit, "audit",
                                t.kernel + "/" + t.config);
        verify::auditAndRecord(res);
    }
    return res;
}

} // namespace

void
SweepPlan::addGrid(const std::vector<std::string> &kernels,
                   const std::vector<std::string> &configs,
                   uint64_t scaleDiv, uint64_t seed)
{
    for (const auto &kernel : kernels)
        for (const auto &config : configs)
            add(kernel, config, scaleDiv, seed);
}

unsigned
effectiveJobs(const SweepOptions &opts)
{
    return opts.jobs ? opts.jobs : JobPool::defaultWorkers();
}

uint64_t
scaleFor(const std::string &kernel, uint64_t scaleDiv)
{
    uint64_t scale = kernels::defaultScale(kernel);
    if (scaleDiv > 1) {
        if (kernel == "fft") {
            // Transform length must stay a power of two.
            while (scaleDiv > 1 && scale > 32) {
                scale /= 2;
                scaleDiv /= 2;
            }
        } else {
            scale = std::max<uint64_t>(scale / scaleDiv, 16);
        }
    }
    return scale;
}

uint64_t
resolvedScale(const SweepTask &task)
{
    return task.scale ? task.scale : scaleFor(task.kernel, task.scaleDiv);
}

arch::ExperimentResult
runTask(const SweepTask &task)
{
    auto fixture = kernels::makeFixture(task.kernel, resolvedScale(task),
                                        task.seed);
    return runOnFixture(*fixture, task);
}

std::vector<arch::ExperimentResult>
runSweep(const SweepPlan &plan, const SweepOptions &opts)
{
    const size_t total = plan.size();
    std::vector<arch::ExperimentResult> results(total);

    obs::HostSpan sweepSpan(obs::Cat::Driver, "sweep", "", total);

    std::mutex progressMutex;
    size_t done = 0;
    auto report = [&](const SweepTask &task, bool cached) {
        std::lock_guard<std::mutex> lock(progressMutex);
        ++done;
        if (opts.progress) {
            SweepProgress p;
            p.task = &task;
            p.done = done;
            p.total = total;
            p.cached = cached;
            opts.progress(p);
        }
    };

    store::ResultStore *st = storeFor(opts);

    // Satisfy what we can without simulating — first the in-process
    // cache, then (on a miss) the persistent store — so fixtures are
    // only built for kernels that still have live simulations. Every
    // cell lands in exactly one cache counter here, and the store is
    // consulted exactly once per cache miss: those conservation laws
    // are what storeStatsJson() documents and the tests assert.
    std::vector<std::string> keys(total);
    std::vector<size_t> pending;
    pending.reserve(total);
    for (size_t i = 0; i < total; ++i) {
        const SweepTask &task = plan.tasks[i];
        keys[i] = keyOf(task);
        if (opts.useCache && cacheLookup(keys[i], results[i])) {
            cacheHitCount.fetch_add(1, std::memory_order_relaxed);
            obs::hostInstant(obs::Cat::Driver, "cacheHit",
                             task.kernel + "/" + task.config);
            report(task, true);
            continue;
        }
        cacheMissCount.fetch_add(1, std::memory_order_relaxed);
        if (st && st->lookup(keys[i], results[i])) {
            if (opts.useCache)
                cacheStore(keys[i], results[i]);
            report(task, true);
            continue;
        }
        pending.push_back(i);
    }
    if (pending.empty())
        return results;

    // One immutable fixture per distinct (kernel, scale, seed): the
    // dataset and golden model are generated once, then shared
    // read-only by every configuration's job.
    std::map<FixtureKey, std::shared_ptr<const kernels::WorkloadFixture>>
        fixtures;
    for (size_t i : pending) {
        const SweepTask &task = plan.tasks[i];
        fixtures.try_emplace({task.kernel, resolvedScale(task), task.seed});
    }

    auto runOne = [&](size_t i) {
        const SweepTask &task = plan.tasks[i];
        const auto &fixture =
            fixtures.at({task.kernel, resolvedScale(task), task.seed});
        results[i] = runOnFixture(*fixture, task);
        if (opts.useCache)
            cacheStore(keys[i], results[i]);
        if (st)
            st->insert(keys[i], results[i]);
        report(task, false);
    };

    unsigned jobs = effectiveJobs(opts);
    if (jobs <= 1) {
        // The strictly serial reference path: everything on the
        // calling thread, in plan order.
        for (auto &[key, fixture] : fixtures) {
            obs::HostSpan fixSpan(obs::Cat::Driver, "fixture",
                                  std::get<0>(key));
            fixture = kernels::makeFixture(std::get<0>(key),
                                           std::get<1>(key),
                                           std::get<2>(key));
        }
        for (size_t i : pending)
            runOne(i);
        return results;
    }

    JobPool pool(jobs);

    // Phase 1: build the distinct fixtures in parallel. Each job
    // assigns one pre-inserted map slot, so the map never rehashes or
    // rebalances while jobs run.
    std::vector<std::pair<const FixtureKey *,
                          std::shared_ptr<const kernels::WorkloadFixture> *>>
        slots;
    slots.reserve(fixtures.size());
    for (auto &[key, fixture] : fixtures)
        slots.emplace_back(&key, &fixture);
    parallelFor(pool, slots.size(), [&](size_t s) {
        const FixtureKey &key = *slots[s].first;
        obs::HostSpan fixSpan(obs::Cat::Driver, "fixture",
                              std::get<0>(key));
        *slots[s].second = kernels::makeFixture(
            std::get<0>(key), std::get<1>(key), std::get<2>(key));
    });

    // Phase 2: the simulations, one job per pending task, each writing
    // its own output slot.
    parallelFor(pool, pending.size(),
                [&](size_t p) { runOne(pending[p]); });
    return results;
}

size_t
resultCacheSize()
{
    std::lock_guard<std::mutex> lock(cacheMutex);
    return resultCacheTable.size();
}

uint64_t
resultCacheHits()
{
    return cacheHitCount.load(std::memory_order_relaxed);
}

uint64_t
resultCacheMisses()
{
    return cacheMissCount.load(std::memory_order_relaxed);
}

void
clearResultCache()
{
    std::lock_guard<std::mutex> lock(cacheMutex);
    resultCacheTable.clear();
    cacheHitCount.store(0, std::memory_order_relaxed);
    cacheMissCount.store(0, std::memory_order_relaxed);
}

std::string
storeDirFor(const std::string &dir)
{
    if (!dir.empty())
        return dir;
    const char *env = std::getenv("DLP_STORE");
    return env ? env : "";
}

store::StoreStats
storeTraffic()
{
    store::StoreStats total;
    std::lock_guard<std::mutex> lock(storeMutex);
    for (auto &[dir, handle] : storeHandles) {
        store::StoreStats s = handle->stats();
        total.hits += s.hits;
        total.misses += s.misses;
        total.inserts += s.inserts;
        total.corrupt += s.corrupt;
        total.entries += s.entries;
        total.bytes += s.bytes;
    }
    return total;
}

json::Value
storeStatsJson()
{
    json::Value obj = json::Value::object();
    obj.set("cacheHits", resultCacheHits());
    obj.set("cacheMisses", resultCacheMisses());

    store::StoreStats s = storeTraffic();
    obj.set("storeHits", s.hits);
    obj.set("storeMisses", s.misses);
    obj.set("storeInserts", s.inserts);
    obj.set("storeCorrupt", s.corrupt);

    bool anyStore = false;
    {
        std::lock_guard<std::mutex> lock(storeMutex);
        anyStore = !storeHandles.empty();
        if (storeHandles.size() == 1)
            obj.set("storeDir", storeHandles.begin()->first);
    }
    if (anyStore) {
        obj.set("entries", s.entries);
        obj.set("bytes", s.bytes);
    }
    return obj;
}

} // namespace dlp::driver
