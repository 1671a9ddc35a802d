/**
 * @file
 * The discrete-event simulation kernel.
 *
 * All timing in the simulator is driven by one EventQueue. Components
 * schedule callbacks at absolute ticks; the queue executes them in tick
 * order (FIFO within a tick). One tick is half a clock cycle (see
 * common/types.hh).
 *
 * The queue is a two-tier calendar (bucket) queue in the gem5/NS-2
 * tradition, tuned for the engines' traffic pattern -- almost every
 * event lands within a few ticks of the current time:
 *
 *  - a ring of `numBuckets` one-tick buckets covers the near-future
 *    window [bucketBase, bucketBase + numBuckets). Insertion is an O(1)
 *    append; FIFO order inside a bucket is exactly FIFO order within a
 *    tick, so the historical (when, seq) total order is preserved by
 *    construction. A bitmap of non-empty buckets (slot_occupancy.hh,
 *    shared with the MIMD ready set) makes the advance to the next
 *    populated tick a couple of bit scans, never a tick-by-tick crawl;
 *
 *  - events beyond the window go to an overflow min-heap ordered by
 *    (when, seq) and migrate into the ring as the window slides over
 *    them. Migration pops in (when, seq) order, so same-tick overflow
 *    events enter their bucket already in seq order and anything
 *    scheduled at that tick afterwards appends behind them.
 *
 * Events are allocation-free: the callback is an InlineFn (small-buffer
 * only, no heap fallback -- see inline_fn.hh) and event nodes live by
 * value inside bucket vectors and the overflow heap, which retain their
 * capacity across activations and reset(). After warm-up the
 * schedule/fire path performs zero heap allocations (asserted by the
 * counting-allocator test in tests/test_sim.cpp).
 */

#ifndef DLP_SIM_EVENTQ_HH
#define DLP_SIM_EVENTQ_HH

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "sim/inline_fn.hh"
#include "sim/slot_occupancy.hh"

namespace dlp::sim {

/** Callback type executed when an event fires. */
using EventFn = InlineFn;

/** A single time-ordered event queue. */
class EventQueue
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time in ticks. */
    Tick curTick() const { return now; }

    /** Current simulated time in whole cycles (rounded down). */
    Cycles curCycle() const { return now / ticksPerCycle; }

    /** Schedule fn at absolute tick when (must not be in the past). */
    void
    schedule(Tick when, EventFn fn)
    {
        panic_if(when < now,
                 "scheduling event in the past (%" PRIu64 " < %" PRIu64 ")",
                 when, now);
        if (pendingCount == 0) {
            // Empty queue: re-anchor the window at the present so the
            // ring covers the ticks about to be scheduled.
            bucketBase = now;
        }
        Event ev{when, nextSeq++, fn};
        ++scheduledCount;
        if (when < bucketBase + numBuckets) {
            auto idx = static_cast<size_t>(when & bucketMask);
            if (buckets[idx].empty())
                occupied.mark(idx);
            buckets[idx].push_back(ev);
            ++ringCount;
        } else {
            overflow.push_back(ev);
            std::push_heap(overflow.begin(), overflow.end(), EventLater{});
        }
        ++pendingCount;
    }

    /** Schedule fn delay ticks from now. */
    void
    scheduleIn(Tick delay, EventFn fn)
    {
        schedule(now + delay, fn);
    }

    /** Schedule fn a number of full cycles from now. */
    void
    scheduleInCycles(Cycles delay, EventFn fn)
    {
        schedule(now + cyclesToTicks(delay), fn);
    }

    bool empty() const { return pendingCount == 0; }
    size_t pending() const { return pendingCount; }

    /**
     * Host-side count of events executed over the queue's lifetime.
     * Survives reset() (which rewinds *simulated* time) so a whole
     * multi-activation run can report its event throughput.
     */
    uint64_t executedEvents() const { return executedCount; }

    /**
     * Host-side count of events ever scheduled, the dual of
     * executedEvents(). Also survives reset(): the auditor checks the
     * conservation law scheduled == executed + pending over a whole
     * run, which only holds if both counters age at the same rate.
     */
    uint64_t scheduledEvents() const { return scheduledCount; }

    /**
     * Run events until the queue drains or limit ticks elapse.
     *
     * @param limit Absolute tick bound; exceeding it is a fatal error
     *              because it almost always means the simulated machine
     *              deadlocked (an operand never arrived, a block never
     *              committed).
     * @return The tick of the last executed event.
     */
    Tick
    run(Tick limit = maxTick)
    {
        while (pendingCount > 0) {
            if (ringCount == 0) {
                // Ring empty: jump the window straight to the earliest
                // overflow event and pull the newly covered ticks in.
                bucketBase = overflow.front().when;
                migrateOverflow();
            }
            // Advance to the next populated tick inside the window.
            Tick t = nextPopulatedTick();
            fatal_if(t > limit,
                     "simulation exceeded tick limit %" PRIu64 "; "
                     "the simulated machine probably deadlocked", limit);
            bucketBase = t;
            // The window just widened to [t, t + numBuckets): admit the
            // overflow events it now covers *before* running callbacks,
            // or a callback scheduling at the same tick would slot in
            // ahead of an earlier-scheduled (smaller-seq) overflow event.
            migrateOverflow();
            now = t;
            auto &bucket = buckets[static_cast<size_t>(t & bucketMask)];
            // Index-based walk: an event may append to this very bucket
            // by scheduling at its own tick.
            for (size_t i = 0; i < bucket.size(); ++i) {
                // Copy out: the append above may reallocate the bucket.
                EventFn fn = bucket[i].fn;
                --pendingCount;
                ++executedCount;
                fn();
            }
            ringCount -= bucket.size();
            bucket.clear();
            occupied.clear(static_cast<size_t>(t & bucketMask));
            // Slide the window past the finished tick and admit any
            // overflow events it now covers.
            bucketBase = t + 1;
            migrateOverflow();
        }
        return now;
    }

    /**
     * Events dropped unexecuted by reset(). Together the three lifetime
     * counters obey scheduled == executed + pending + discarded; the
     * auditor checks that law and, for engine runs (which only reset a
     * drained queue), that discarded stays zero.
     */
    uint64_t discardedEvents() const { return discardedCount; }

    /** Discard all pending events and reset time to zero. */
    void
    reset()
    {
        discardedCount += pendingCount;
        if (ringCount > 0) {
            for (auto &bucket : buckets)
                bucket.clear(); // keeps capacity
        }
        occupied.reset();
        overflow.clear(); // keeps capacity
        ringCount = 0;
        pendingCount = 0;
        now = 0;
        bucketBase = 0;
        nextSeq = 0;
    }

  private:
    struct Event
    {
        Tick when;
        uint64_t seq;
        EventFn fn;
    };
    static_assert(std::is_trivially_copyable_v<Event>,
                  "event nodes must relocate with memcpy");
    static_assert(sizeof(Event) == 48, "an event node is 48 bytes");

    /** Min-heap comparator over (when, seq). */
    struct EventLater
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };

    /// Ring size in ticks (one bucket per tick). Must be a power of two.
    static constexpr size_t numBuckets = 256;
    static constexpr Tick bucketMask = numBuckets - 1;

    /**
     * Earliest tick >= bucketBase with a non-empty bucket. Every
     * populated bucket maps to exactly one tick inside the window, so a
     * wrapped bit scan starting at bucketBase's slot finds it.
     * Precondition: ringCount > 0.
     */
    Tick
    nextPopulatedTick() const
    {
        return bucketBase +
               occupied.distanceFrom(static_cast<size_t>(bucketBase &
                                                         bucketMask));
    }

    /** Pull overflow events now covered by the window into the ring. */
    void
    migrateOverflow()
    {
        while (!overflow.empty() &&
               overflow.front().when < bucketBase + numBuckets) {
            std::pop_heap(overflow.begin(), overflow.end(), EventLater{});
            const Event &ev = overflow.back();
            auto idx = static_cast<size_t>(ev.when & bucketMask);
            if (buckets[idx].empty())
                occupied.mark(idx);
            buckets[idx].push_back(ev);
            ++ringCount;
            overflow.pop_back();
        }
    }

    std::array<std::vector<Event>, numBuckets> buckets;
    SlotOccupancy<numBuckets> occupied;
    std::vector<Event> overflow; ///< min-heap by (when, seq)

    size_t ringCount = 0;     ///< events currently in the ring
    size_t pendingCount = 0;  ///< ring + overflow
    uint64_t executedCount = 0;
    uint64_t scheduledCount = 0;
    uint64_t discardedCount = 0;
    Tick now = 0;
    Tick bucketBase = 0;      ///< first tick the ring covers
    uint64_t nextSeq = 0;
};

/**
 * A ClockedObject-style reusable member event: bound once to a queue
 * and a callback (typically capturing just `this`), then (re)scheduled
 * arbitrarily often with no per-schedule binding work. The
 * highest-frequency callers keep one of these per recurring action.
 */
class MemberEvent
{
  public:
    MemberEvent() = default;

    template <typename F>
    MemberEvent(EventQueue &q, F &&f)
    {
        bind(q, std::forward<F>(f));
    }

    template <typename F>
    void
    bind(EventQueue &q, F &&f)
    {
        queue = &q;
        fn.bind(std::forward<F>(f));
    }

    bool bound() const { return queue != nullptr; }

    /** Enqueue one firing at absolute tick when. */
    void
    schedule(Tick when)
    {
        panic_if(!queue, "scheduling an unbound MemberEvent");
        queue->schedule(when, fn);
    }

    /** Enqueue one firing delay ticks from now. */
    void
    scheduleIn(Tick delay)
    {
        panic_if(!queue, "scheduling an unbound MemberEvent");
        queue->scheduleIn(delay, fn);
    }

  private:
    EventQueue *queue = nullptr;
    InlineFn fn;
};

} // namespace dlp::sim

#endif // DLP_SIM_EVENTQ_HH
