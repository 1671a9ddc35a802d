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
 *
 * Beside the pool's own `--jobs` parser live the checked parsers every
 * bench and example binary uses for its other numeric flags
 * (parseUintFlag, parseRealFlag, parseUintListFlag).
 */

#ifndef DLP_DRIVER_JOB_POOL_HH
#define DLP_DRIVER_JOB_POOL_HH

#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
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

    /** parseWorkers() of a `--jobs` value; usage_error() if malformed. */
    static unsigned parseJobsFlag(const char *text);

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

/**
 * The checked integer parser of every bench and example flag: the
 * decimal value of `text`, which must not exceed max. usage_error(),
 * naming the flag, when the text is empty, not a number (trailing
 * characters included), negative or out of range.
 */
uint64_t parseUintFlag(const char *flag, const std::string &text,
                       uint64_t max = UINT64_MAX);

/**
 * The same for a real value (rates, bandwidths, thresholds):
 * usage_error(), naming the flag, unless `text` is a whole finite
 * decimal number in [lo, hi]. The default range is every non-negative
 * number.
 */
double parseRealFlag(const char *flag, const std::string &text,
                     double lo = 0.0, double hi = HUGE_VAL);

/** The items of a comma-separated flag value, empty items dropped. */
std::vector<std::string> splitList(const std::string &text);

/**
 * A flag's list of integers: comma-separated items, each a value or an
 * inclusive range "lo..hi" of at most maxSpan + 1 values, every value
 * checked as parseUintFlag checks it. usage_error() on an empty list or
 * a bad range.
 */
std::vector<uint64_t> parseUintListFlag(const char *flag,
                                        const std::string &text,
                                        uint64_t maxSpan = 4096);

} // namespace dlp::driver

#endif // DLP_DRIVER_JOB_POOL_HH
