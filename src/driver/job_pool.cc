#include "driver/job_pool.hh"

#include <cstdlib>

#include "common/logging.hh"
#include "obs/timeline.hh"

namespace dlp::driver {

JobPool::JobPool(unsigned workers)
{
    unsigned n = workers ? workers : defaultWorkers();
    if (n == 0)
        n = 1;
    queues.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        queues.push_back(std::make_unique<WorkerQueue>());
    threads.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        threads.emplace_back([this, i] { workerLoop(i); });
}

JobPool::~JobPool()
{
    // Drain outstanding work; the caller's wait() should already have
    // consumed any job exception, so a leftover one is dropped here
    // (destructors must not throw).
    try {
        wait();
    } catch (...) {
    }
    {
        std::lock_guard<std::mutex> lock(poolMutex);
        stopping = true;
    }
    workCv.notify_all();
    for (auto &t : threads)
        t.join();
}

void
JobPool::submit(Job job)
{
    unsigned target;
    {
        std::lock_guard<std::mutex> lock(poolMutex);
        panic_if(stopping, "submit() on a stopping JobPool");
        ++unfinished;
        ++queuedJobs;
        target = nextQueue++ % unsigned(queues.size());
    }
    {
        std::lock_guard<std::mutex> lock(queues[target]->mutex);
        queues[target]->jobs.push_back(std::move(job));
    }
    workCv.notify_one();
}

void
JobPool::wait()
{
    std::unique_lock<std::mutex> lock(poolMutex);
    idleCv.wait(lock, [this] { return unfinished == 0; });
    if (firstError) {
        std::exception_ptr err = firstError;
        firstError = nullptr;
        lock.unlock();
        std::rethrow_exception(err);
    }
}

size_t
JobPool::pending() const
{
    std::lock_guard<std::mutex> lock(poolMutex);
    return unfinished;
}

unsigned
JobPool::defaultWorkers()
{
    const char *env = std::getenv("DLP_JOBS");
    if (!env || !*env)
        return 1;
    std::optional<unsigned> n = parseWorkers(env);
    if (!n) {
        warn("ignoring malformed DLP_JOBS='%s'", env);
        return 1;
    }
    return *n;
}

std::optional<unsigned>
JobPool::parseWorkers(const char *text)
{
    char *end = nullptr;
    long v = std::strtol(text, &end, 10);
    if (end == text || *end || v < 0)
        return std::nullopt;
    if (v == 0) {
        unsigned hw = std::thread::hardware_concurrency();
        return hw ? hw : 1;
    }
    return v > 256 ? 256u : unsigned(v);
}

bool
JobPool::popLocal(unsigned self, Job &job)
{
    auto &q = *queues[self];
    std::lock_guard<std::mutex> lock(q.mutex);
    if (q.jobs.empty())
        return false;
    job = std::move(q.jobs.back());
    q.jobs.pop_back();
    return true;
}

bool
JobPool::stealRemote(unsigned self, Job &job)
{
    unsigned n = unsigned(queues.size());
    for (unsigned d = 1; d < n; ++d) {
        auto &q = *queues[(self + d) % n];
        std::lock_guard<std::mutex> lock(q.mutex);
        if (q.jobs.empty())
            continue;
        // Steal the oldest job: long jobs submitted early migrate to
        // idle workers instead of serializing behind their submitter.
        job = std::move(q.jobs.front());
        q.jobs.pop_front();
        return true;
    }
    return false;
}

void
JobPool::workerLoop(unsigned self)
{
    for (;;) {
        Job job;
        if (popLocal(self, job) || stealRemote(self, job)) {
            {
                std::lock_guard<std::mutex> lock(poolMutex);
                --queuedJobs;
            }
            try {
                obs::HostSpan jobSpan(obs::Cat::Driver, "job");
                job();
            } catch (...) {
                std::lock_guard<std::mutex> lock(poolMutex);
                if (!firstError)
                    firstError = std::current_exception();
            }
            std::lock_guard<std::mutex> lock(poolMutex);
            if (--unfinished == 0)
                idleCv.notify_all();
            continue;
        }
        std::unique_lock<std::mutex> lock(poolMutex);
        workCv.wait(lock,
                    [this] { return stopping || queuedJobs > 0; });
        if (stopping)
            return;
    }
}

void
parallelFor(JobPool &pool, size_t n, const std::function<void(size_t)> &fn)
{
    for (size_t i = 0; i < n; ++i)
        pool.submit([&fn, i] { fn(i); });
    pool.wait();
}

} // namespace dlp::driver
