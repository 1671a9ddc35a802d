/**
 * @file
 * Occupancy bookkeeping for contended hardware resources.
 *
 * Router ports, cache-bank ports, register-file ports, ALU issue slots
 * and DMA engines are all "one grant every N ticks" resources. Each
 * resource keeps a calendar of busy intervals: a request is granted the
 * first idle window of the required length at or after its ready time.
 * Unlike a simple next-free-tick watermark, the calendar serves requests
 * that arrive out of simulation order correctly -- a late-simulated but
 * early-in-machine-time request can claim an idle window before a
 * previously granted later one, which is what a real FCFS queue would
 * have done.
 *
 * The calendar is a flat sorted small-vector of disjoint merged
 * intervals rather than a node-based map. The common case -- acquire
 * at or after the end of the last interval -- is recognized in O(1)
 * and either extends the tail interval in place or appends, with zero
 * allocations. Out-of-order acquires binary-search the flat array and
 * insert with memmove, which beats map node churn at these sizes.
 *
 * Calendars do not stay small on their own. Instruction revitalization
 * starts activation a+1 before activation a drains, so link, bank and
 * port calendars fill with short gaps that never merge: on the full
 * Figure-5/Table-4 grid 42% of acquires took the out-of-order path,
 * over calendars of 3,341 intervals on average and 37,883 at most.
 * Hence the floor: an engine binds each resource to a tick that no
 * future request falls below (BlockEngine: the current activation's
 * start; MimdEngine: the tick it last popped). An interval ending
 * before the floor can neither delay nor merge with any later grant,
 * so the calendar drops such leading intervals before an out-of-order
 * search and before its storage would grow. That cut the same grid's
 * out-of-order calendars to 59 intervals on average, about 3 k at most.
 * Unbound resources keep their whole history, as tests and benches
 * expect.
 *
 * Retirement is lazy, so which intervals below the floor are still
 * resident depends on when a calendar last retired. Anything that
 * compares calendars -- epoch recording diffs tailSince() between two
 * units -- must retire() first.
 */

#ifndef DLP_SIM_RESOURCE_HH
#define DLP_SIM_RESOURCE_HH

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace dlp::sim {

/**
 * Panic on a request at tick earliest below a resource's floor. Kept
 * out of line so the hot acquire path carries only the comparison.
 */
[[noreturn, gnu::cold]] void floorViolation(Tick earliest, Tick floor);

/**
 * A minimal small-buffer vector for trivially copyable elements:
 * `Inline` slots live inside the object; longer sequences spill to a
 * geometrically grown heap block. Exactly the operations the interval
 * calendar needs -- indexed access, push_back, insert, erase, clear.
 */
template <typename T, size_t Inline>
class SmallVec
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "SmallVec relocates with memcpy");

  public:
    SmallVec() = default;

    SmallVec(const SmallVec &o) { assignFrom(o); }

    SmallVec &
    operator=(const SmallVec &o)
    {
        if (this != &o) {
            releaseHeap();
            assignFrom(o);
        }
        return *this;
    }

    SmallVec(SmallVec &&o) noexcept { stealFrom(o); }

    SmallVec &
    operator=(SmallVec &&o) noexcept
    {
        if (this != &o) {
            releaseHeap();
            stealFrom(o);
        }
        return *this;
    }

    ~SmallVec() { releaseHeap(); }

    size_t size() const { return count; }
    bool empty() const { return count == 0; }

    T &operator[](size_t i) { return data_[i]; }
    const T &operator[](size_t i) const { return data_[i]; }

    T &back() { return data_[count - 1]; }
    const T &back() const { return data_[count - 1]; }

    const T *begin() const { return data_; }
    const T *end() const { return data_ + count; }
    T *begin() { return data_; }
    T *end() { return data_ + count; }

    void
    push_back(const T &v)
    {
        if (count == cap)
            grow();
        data_[count++] = v;
    }

    /** Insert v before index at. */
    void
    insert(size_t at, const T &v)
    {
        if (count == cap)
            grow();
        std::memmove(data_ + at + 1, data_ + at,
                     (count - at) * sizeof(T));
        data_[at] = v;
        ++count;
    }

    /** Erase the element at index at. */
    void
    erase(size_t at)
    {
        std::memmove(data_ + at, data_ + at + 1,
                     (count - at - 1) * sizeof(T));
        --count;
    }

    /** Erase the first n elements. */
    void
    eraseFront(size_t n)
    {
        std::memmove(data_, data_ + n, (count - n) * sizeof(T));
        count -= n;
    }

    /** Drop all elements; keeps the heap block, if any. */
    void clear() { count = 0; }

    /** Would the next push_back or insert have to grow the storage? */
    bool full() const { return count == cap; }

  private:
    void
    grow()
    {
        size_t newCap = cap * 2;
        T *block = static_cast<T *>(std::malloc(newCap * sizeof(T)));
        panic_if(!block, "SmallVec allocation failure");
        std::memcpy(block, data_, count * sizeof(T));
        if (data_ != inline_)
            std::free(data_);
        data_ = block;
        cap = newCap;
    }

    void
    assignFrom(const SmallVec &o)
    {
        if (o.count <= Inline) {
            data_ = inline_;
            cap = Inline;
        } else {
            data_ = static_cast<T *>(std::malloc(o.count * sizeof(T)));
            panic_if(!data_, "SmallVec allocation failure");
            cap = o.count;
        }
        count = o.count;
        std::memcpy(data_, o.data_, count * sizeof(T));
    }

    void
    stealFrom(SmallVec &o)
    {
        if (o.data_ != o.inline_) {
            data_ = o.data_;
            cap = o.cap;
            count = o.count;
            o.data_ = o.inline_;
            o.cap = Inline;
            o.count = 0;
        } else {
            data_ = inline_;
            cap = Inline;
            count = o.count;
            std::memcpy(data_, o.data_, count * sizeof(T));
        }
    }

    void
    releaseHeap()
    {
        if (data_ != inline_) {
            std::free(data_);
            data_ = inline_;
            cap = Inline;
        }
        count = 0;
    }

    T inline_[Inline];
    T *data_ = inline_;
    size_t count = 0;
    size_t cap = Inline;
};

/** A single-server FCFS resource with a fixed service interval. */
class Resource
{
  public:
    /**
     * @param interval Ticks between successive grants (service time).
     */
    explicit Resource(Tick interval = 1) : serviceInterval(interval) {}

    /**
     * Acquire the resource no earlier than earliest.
     * @return The tick at which the grant happens.
     */
    Tick
    acquire(Tick earliest)
    {
        return acquireMany(earliest, 1);
    }

    /**
     * Acquire the resource for a burst of units back-to-back service
     * intervals (e.g. a wide load occupying a bank port for several
     * ticks). @return the tick of the first grant.
     */
    Tick
    acquireMany(Tick earliest, uint64_t units)
    {
        if (earliest < *floor) [[unlikely]]
            floorViolation(earliest, *floor);
        if (units == 0)
            return earliest;
        Tick len = serviceInterval * units;
        Tick grant;
        // Fast path (the last-insert hint): the request lands at or
        // after the calendar's tail, which is where in-order traffic
        // always lands. Extend the tail interval in place (touching)
        // or append -- O(1), no search, no allocation.
        if (busy.empty() || earliest >= busy.back().end) {
            grant = earliest;
            if (!busy.empty() && busy.back().end == earliest) {
                busy.back().end = earliest + len;
            } else {
                if (busy.full())
                    retire();
                busy.push_back({earliest, earliest + len});
            }
        } else {
            retire();
            size_t pos;
            grant = findWindow(earliest, len, pos);
            insertBusy(pos, grant, grant + len);
        }
        totalGrants += units;
        totalWait += grant - earliest;
        lastEnd = std::max(lastEnd, grant + len);
        return grant;
    }

    /** Would a request at tick earliest be granted without waiting? */
    bool
    idleAt(Tick earliest) const
    {
        // O(1) answer for the common case: nothing is scheduled at or
        // after earliest, so the window trivially starts there.
        if (busy.empty() || earliest >= busy.back().end)
            return true;
        size_t pos;
        return findWindow(earliest, serviceInterval, pos) == earliest;
    }

    /** End of the last scheduled busy interval. */
    Tick nextFree() const { return lastEnd; }

    Tick interval() const { return serviceInterval; }
    void setInterval(Tick t) { serviceInterval = t; }

    uint64_t grants() const { return totalGrants; }
    Tick waitedTicks() const { return totalWait; }

    /**
     * Bind the floor: a tick, owned and raised by the caller, below
     * which no future request falls. acquire() panics on a request
     * below it.
     */
    void bindFloor(const Tick *tick) { floor = tick; }

    /**
     * Drop the leading intervals that end before the floor. Exact: a
     * grant at or after the floor can neither overlap such an interval
     * nor touch it, so no answer changes.
     */
    void
    retire()
    {
        size_t n = 0;
        while (n < busy.size() && busy[n].end < *floor)
            ++n;
        if (n)
            busy.eraseFront(n);
    }

    /** Busy intervals currently held (merged, not yet retired). */
    size_t intervals() const { return busy.size(); }

    void
    reset()
    {
        busy.clear();
        lastEnd = 0;
        totalGrants = 0;
        totalWait = 0;
    }

    /// @name Epoch fast-forward support.
    /// @{

    /**
     * Credit the grant/wait totals for `grantsDelta` grants that were
     * never individually simulated (a replayed epoch's worth). The
     * calendar is not touched -- see shiftCalendar().
     */
    void
    fastForwardCounters(uint64_t grantsDelta, Tick waitDelta)
    {
        totalGrants += grantsDelta;
        totalWait += waitDelta;
    }

    /**
     * Translate the whole busy calendar `shift` ticks into the future.
     * After replaying K periodic iterations arithmetically, the calendar
     * a real simulation would have left behind is exactly the recorded
     * one shifted by K*period: the pre-epoch prefix is never consulted
     * again (future requests arrive at or after the new tail), and the
     * tail lands where periodicity places it.
     */
    void
    shiftCalendar(Tick shift)
    {
        for (auto &iv : busy) {
            iv.start += shift;
            iv.end += shift;
        }
        lastEnd += shift;
    }

    /**
     * The busy intervals still extending past `origin`, as signed
     * offsets relative to it. Two iterations of a periodic schedule are
     * indistinguishable to all future requests iff these relative tails
     * (plus the relative calendar end) match -- the epoch pass pipeline
     * compares them between consecutive recorded iterations.
     *
     * Interval starts clamp at origin: grants never land before their
     * request tick and every future request arrives at or after origin,
     * so how far back a merged busy interval stretches is invisible to
     * all future behavior. Without the clamp a saturated resource --
     * one continuous interval growing by a period per iteration --
     * would never compare tail-equal.
     *
     * With a bound floor above origin, the intervals ending between
     * the two are reported only until the next retirement; call
     * retire() first for an answer that does not depend on when that
     * was.
     */
    void
    tailSince(Tick origin,
              std::vector<std::pair<int64_t, int64_t>> &out) const
    {
        out.clear();
        for (const auto &iv : busy) {
            if (iv.end > origin) {
                out.emplace_back(int64_t(std::max(iv.start, origin) -
                                         origin),
                                 int64_t(iv.end - origin));
            }
        }
    }

    /// @}

  private:
    struct Interval
    {
        Tick start;
        Tick end;
    };

    /**
     * First start >= earliest of an idle window of length len; pos
     * receives the index of the first interval starting at or after the
     * window (the insertion point).
     */
    Tick
    findWindow(Tick earliest, Tick len, size_t &pos) const
    {
        Tick t = earliest;
        // First interval with start > t.
        size_t idx = upperBound(t);
        if (idx > 0 && busy[idx - 1].end > t)
            t = busy[idx - 1].end;
        while (idx < busy.size() && busy[idx].start < t + len) {
            t = std::max(t, busy[idx].end);
            ++idx;
        }
        pos = idx;
        return t;
    }

    /** Index of the first interval with start > t. */
    size_t
    upperBound(Tick t) const
    {
        size_t lo = 0, hi = busy.size();
        while (lo < hi) {
            size_t mid = (lo + hi) / 2;
            if (busy[mid].start > t)
                hi = mid;
            else
                lo = mid + 1;
        }
        return lo;
    }

    /**
     * Insert [start, end) before index pos, merging with a touching
     * predecessor and/or successor. The window search guarantees the
     * new interval overlaps no existing interior, so at most one merge
     * on each side.
     */
    void
    insertBusy(size_t pos, Tick start, Tick end)
    {
        bool mergePrev = pos > 0 && busy[pos - 1].end >= start;
        bool mergeNext = pos < busy.size() && busy[pos].start <= end;
        if (mergePrev && mergeNext) {
            busy[pos - 1].end = busy[pos].end;
            busy.erase(pos);
        } else if (mergePrev) {
            busy[pos - 1].end = end;
        } else if (mergeNext) {
            busy[pos].start = start;
        } else {
            busy.insert(pos, {start, end});
        }
    }

    static constexpr Tick noFloor = 0;

    Tick serviceInterval;
    const Tick *floor = &noFloor;
    /// Disjoint merged busy intervals, sorted by start.
    SmallVec<Interval, 4> busy;
    Tick lastEnd = 0;
    uint64_t totalGrants = 0;
    Tick totalWait = 0;
};

} // namespace dlp::sim

#endif // DLP_SIM_RESOURCE_HH
