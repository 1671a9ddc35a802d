/**
 * @file
 * A work-stealing thread-pool job engine for the experiment sweep
 * driver.
 *
 * Every worker owns a deque of jobs: it pushes and pops work at the
 * back (LIFO, cache-friendly for jobs that spawn jobs) and steals from
 * the *front* of a victim's deque when its own runs dry, so long jobs
 * submitted early migrate to idle workers instead of serializing
 * behind their submitter. Submission round-robins across the worker
 * deques to seed initial balance.
 *
 * The pool is a pure execution engine: it knows nothing about
 * simulations. Determinism is the caller's job — see driver::runSweep,
 * which gives every job an output slot so completion order never
 * affects aggregated results.
 *
 * Exceptions thrown by jobs are captured; the first one is rethrown
 * from wait() (subsequent ones are dropped, matching the "first
 * failure wins" convention of ctest -j). The pool stays usable after
 * a failed batch.
 */

#ifndef DLP_DRIVER_JOB_POOL_HH
#define DLP_DRIVER_JOB_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace dlp::driver {

class JobPool
{
  public:
    using Job = std::function<void()>;

    /**
     * Start the pool.
     *
     * @param workers worker-thread count; 0 means defaultWorkers().
     *                A pool of 1 still runs jobs on a worker thread
     *                (callers wanting a strictly serial path should
     *                not use a pool at all).
     */
    explicit JobPool(unsigned workers = 0);

    /** Drains remaining jobs, then joins all workers. */
    ~JobPool();

    JobPool(const JobPool &) = delete;
    JobPool &operator=(const JobPool &) = delete;

    /** Enqueue one job. Never blocks. */
    void submit(Job job);

    /**
     * Block until every submitted job has finished. If any job threw,
     * rethrows the first captured exception (and clears it, leaving
     * the pool reusable).
     */
    void wait();

    /** Number of worker threads. */
    unsigned workers() const { return unsigned(queues.size()); }

    /** Jobs submitted but not yet finished (approximate while running). */
    size_t pending() const;

    /**
     * The worker count requested by the environment: parseWorkers() of
     * DLP_JOBS if set and well formed, else 1 (a malformed value warns).
     */
    static unsigned defaultWorkers();

    /**
     * The one rule for a worker count, shared by DLP_JOBS and every
     * `--jobs` flag: a non-negative decimal integer, where 0 means one
     * worker per hardware thread and values above 256 are capped at
     * 256. Returns nullopt for anything else (empty, negative, or
     * trailing characters).
     */
    static std::optional<unsigned> parseWorkers(const char *text);

  private:
    struct WorkerQueue
    {
        std::mutex mutex;
        std::deque<Job> jobs;
    };

    void workerLoop(unsigned self);
    bool popLocal(unsigned self, Job &job);
    bool stealRemote(unsigned self, Job &job);

    std::vector<std::unique_ptr<WorkerQueue>> queues;
    std::vector<std::thread> threads;

    /// Guards submission round-robin cursor, unfinished count, idle
    /// bookkeeping and the captured exception.
    mutable std::mutex poolMutex;
    std::condition_variable workCv;  ///< signaled on submit / shutdown
    std::condition_variable idleCv;  ///< signaled when unfinished hits 0
    size_t unfinished = 0;  ///< submitted, not yet completed
    size_t queuedJobs = 0;  ///< sitting in a deque, not yet picked up
    unsigned nextQueue = 0;
    bool stopping = false;
    std::exception_ptr firstError;
};

/**
 * Run fn(0..n-1) on the pool and wait. Convenience for flat sweeps;
 * exceptions propagate per JobPool::wait().
 */
void parallelFor(JobPool &pool, size_t n,
                 const std::function<void(size_t)> &fn);

} // namespace dlp::driver

#endif // DLP_DRIVER_JOB_POOL_HH
