/**
 * @file
 * Occupancy bookkeeping for contended hardware resources.
 *
 * Router ports, cache-bank ports, register-file ports, ALU issue slots
 * and DMA engines are all "one grant every N ticks" resources. Each
 * resource keeps a calendar of busy ticks: a request is granted the
 * first idle window of the required length at or after its ready time.
 * Unlike a simple next-free-tick watermark, the calendar serves requests
 * that arrive out of simulation order correctly -- a late-simulated but
 * early-in-machine-time request can claim an idle window before a
 * previously granted later one, which is what a real FCFS queue would
 * have done.
 *
 * The calendar is an occupancy bitmap: a ring of 64-tick words (four
 * inline, more on the heap) whose word 0 starts at a base tick, one bit
 * per tick, busy when set. Ticks at or after `lastEnd`, the end of the
 * latest grant, are all idle. An acquire at or after `lastEnd` -- where
 * in-order traffic always lands -- just sets its bits. The busy run that
 * ends at `lastEnd` -- a saturated resource's queue -- starts at
 * `tailStart`: a request inside it is granted at `lastEnd` at once. A
 * one-unit acquire of either kind whose grant lies inside one ring word
 * is handled inline in acquire(): one OR, no call.
 *
 * Instruction revitalization starts activation a+1 before activation a
 * drains, so on the Figure-5/Table-4 grid 42% of acquires land before
 * `tailStart` instead and scan for their window. A one-tick window is
 * the first idle tick, one count-trailing-zeros scan (`firstFree`). A
 * window of up to 64 ticks is found word-parallel: one shift-and-AND
 * round per doubling of the run length marks every start in a word
 * whose window is idle. Longer windows, and requests below the base,
 * alternate `firstBusy` and `firstFree`. Every scan stops at
 * `tailStart` and skips the tail run whole.
 *
 * The base moves forward, one word at a time, when a grant needs room
 * past the ring's end. It slides past a leading word that lies wholly
 * below the floor (see below), or that is fully busy: in both cases one
 * tick, `belowStart`, keeps everything a later request can see of it --
 * where the busy run that reaches the base began. The ring doubles only
 * when neither applies. A calendar whose every grant ends below the
 * floor restarts its window at the floor. The base moves back only for
 * a grant below it, which only shiftCalendar() makes possible.
 *
 * The floor: an engine binds each resource to a tick that no future
 * request falls below (BlockEngine: the current activation's start;
 * MimdEngine: the tick it last popped). A busy run ending before the
 * floor can neither delay nor merge with any later grant, so it is
 * retired: dropped from memory when its word slides out, and never
 * counted by intervals() or reported by tailSince(), whether or not its
 * word has slid yet. Bound calendars therefore span about the window
 * between the floor and the latest grant. Unbound resources keep their
 * whole history, as tests and benches expect.
 */

#ifndef DLP_SIM_RESOURCE_HH
#define DLP_SIM_RESOURCE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

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
 * geometrically grown heap block. Exactly what the calendar's word
 * ring needs: push_back, indexed access, copy and move.
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

    T &operator[](size_t i) { return data_[i]; }
    const T &operator[](size_t i) const { return data_[i]; }

    T *begin() { return data_; }
    T *end() { return data_ + count; }

    void
    push_back(const T &v)
    {
        if (count == cap)
            grow();
        data_[count++] = v;
    }

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
class alignas(64) Resource
{
  public:
    /**
     * @param interval Ticks between successive grants (service time).
     */
    explicit Resource(Tick interval = 1) : serviceInterval(interval)
    {
        for (size_t i = 0; i < inlineWords; ++i)
            ring.push_back(0);
    }

    /**
     * Acquire the resource no earlier than earliest.
     * @return The tick at which the grant happens.
     */
    Tick
    acquire(Tick earliest)
    {
        if (earliest < *floor) [[unlikely]]
            floorViolation(earliest, *floor);
        // Inline grant: a request at or after tailStart is granted at
        // max(earliest, lastEnd) without a scan, and when that interval
        // lies inside one ring word it takes one OR into that word.
        if (earliest >= tailStart) {
            Tick grant = std::max(earliest, lastEnd);
            Tick off = grant - base;
            unsigned bit = unsigned(off % 64);
            // off wraps past span() when grant is below the base.
            if (off < span() && bit + serviceInterval <= 64) [[likely]] {
                word(size_t(off / 64)) |= lowBits(serviceInterval) << bit;
                ++totalGrants;
                totalWait += grant - earliest;
                if (grant > lastEnd)
                    tailStart = grant;
                lastEnd = grant + serviceInterval;
                return grant;
            }
        }
        return acquireMany(earliest, 1);
    }

    /**
     * Acquire the resource for a burst of units back-to-back service
     * intervals (e.g. a wide load occupying a bank port for several
     * ticks). @return the tick of the first grant.
     */
    [[gnu::noinline]] Tick
    acquireMany(Tick earliest, uint64_t units)
    {
        if (earliest < *floor) [[unlikely]]
            floorViolation(earliest, *floor);
        if (units == 0)
            return earliest;
        Tick len = serviceInterval * units;
        // Nothing is scheduled at or after lastEnd, so an in-order
        // request is granted at once, and one inside the tail run at
        // lastEnd; any other scans the bitmap.
        Tick grant = earliest >= lastEnd    ? earliest
                     : earliest >= tailStart ? lastEnd
                                             : freeWindow(earliest, len);
        markBusy(grant, grant + len);
        totalGrants += units;
        totalWait += grant - earliest;
        // A grant past lastEnd starts at or after it (lastEnd - 1 is
        // busy): it extends the tail run or starts a new one. One that
        // ends where the tail run starts extends it downward.
        if (grant + len > lastEnd) {
            if (grant > lastEnd)
                tailStart = grant;
            lastEnd = grant + len;
        } else if (grant + len == tailStart) {
            tailStart = grant;
        }
        return grant;
    }

    /** Would a request at tick earliest be granted without waiting? */
    bool
    idleAt(Tick earliest) const
    {
        Tick end = earliest + serviceInterval;
        return earliest >= lastEnd || firstBusy(earliest, end) == end;
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
     * Free the storage of busy intervals that end before the floor:
     * slide the base past leading words wholly below the floor or fully
     * busy. Exact: no answer changes, because a grant at or after the
     * floor can neither overlap nor touch a retired interval, and
     * intervals() and tailSince() skip those intervals anyway.
     */
    void
    retire()
    {
        const Tick top = ~uint64_t(0);
        for (size_t n = ring.size(); n > 0; --n) {
            uint64_t &first = ring[head];
            if (first != top && base + 64 > *floor)
                break;
            Tick next = base + 64;
            // A fully busy word extends the run reaching the base (or
            // starts one at it); otherwise the run reaching the new base
            // begins inside this word, or there is none.
            if (first != top)
                belowStart = next - Tick(std::countl_one(first));
            first = 0;
            head = (head + 1) & (ring.size() - 1);
            base = next;
        }
        // Every grant ended below the floor: restart the window there.
        if (lastEnd <= base && base < *floor)
            base = belowStart = *floor;
    }

    /**
     * Busy intervals held: merged runs of busy ticks that end at or
     * after the floor (every run, when unbound).
     */
    size_t
    intervals() const
    {
        size_t n = 0;
        forEachLiveRun([&n](Tick, Tick) { ++n; });
        return n;
    }

    void
    reset()
    {
        for (uint64_t &w : ring)
            w = 0;
        head = 0;
        base = 0;
        belowStart = 0;
        tailStart = 0;
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
     * tail lands where periodicity places it. The bitmap is relative to
     * its base, so only the base ticks move.
     */
    void
    shiftCalendar(Tick shift)
    {
        base += shift;
        belowStart += shift;
        tailStart += shift;
        lastEnd += shift;
    }

    /**
     * The busy intervals extending past `origin` and ending at or after
     * the floor, as signed offsets relative to origin. Two iterations of
     * a periodic schedule are indistinguishable to all future requests
     * iff these relative tails (plus the relative calendar end) match --
     * the epoch pass pipeline compares them between consecutive
     * recorded iterations.
     *
     * Interval starts clamp at origin: grants never land before their
     * request tick and every future request arrives at or after origin,
     * so how far back a merged busy interval stretches is invisible to
     * all future behavior. Without the clamp a saturated resource --
     * one continuous interval growing by a period per iteration --
     * would never compare tail-equal.
     */
    void
    tailSince(Tick origin,
              std::vector<std::pair<int64_t, int64_t>> &out) const
    {
        out.clear();
        forEachLiveRun([&](Tick start, Tick end) {
            if (end > origin)
                out.emplace_back(int64_t(std::max(start, origin) - origin),
                                 int64_t(end - origin));
        });
    }

    /// @}

  private:
    static constexpr size_t inlineWords = 4;

    /** Word i of the ring, covering ticks [base + 64i, base + 64i + 64). */
    uint64_t &word(size_t i) { return ring[(head + i) & (ring.size() - 1)]; }
    uint64_t
    word(size_t i) const
    {
        return ring[(head + i) & (ring.size() - 1)];
    }

    /** Ticks the ring covers from the base. */
    Tick span() const { return Tick(ring.size()) * 64; }

    /*
     * The two scans below read a tick as busy if it lies in
     * [belowStart, base) or [tailStart, lastEnd) or its bit is set.
     * Ticks below belowStart are idle or below the floor; ticks at or
     * after lastEnd are idle.
     */

    /** First busy tick in [from, to), or to if there is none. */
    Tick
    firstBusy(Tick from, Tick to) const
    {
        if (from < base) {
            if (belowStart < base) {
                Tick hit = std::max(from, belowStart);
                return hit < to ? hit : to;
            }
            from = base;
        }
        Tick limit = std::min(to, lastEnd);
        if (from >= limit)
            return to;
        Tick off = from - base;
        size_t w = off / 64;
        Tick wordStart = base + w * 64;
        uint64_t bits = word(w) & (~uint64_t(0) << (off % 64));
        while (!bits) {
            wordStart += 64;
            if (wordStart >= limit)
                return to;
            bits = word(++w);
        }
        Tick hit = wordStart + Tick(std::countr_zero(bits));
        return hit < limit ? hit : to;
    }

    /** First idle tick at or after from. */
    Tick
    firstFree(Tick from) const
    {
        if (from < base) {
            if (from < belowStart)
                return from;
            from = base;
        }
        // A saturated resource's queue is one long tail run: skip it
        // whole instead of word by word.
        if (from >= tailStart)
            return std::max(from, lastEnd);
        Tick off = from - base;
        size_t w = off / 64;
        Tick wordStart = base + w * 64;
        uint64_t bits = ~word(w) & (~uint64_t(0) << (off % 64));
        while (!bits) {
            wordStart += 64;
            if (wordStart >= tailStart)
                return lastEnd;
            bits = ~word(++w);
        }
        return wordStart + Tick(std::countr_zero(bits));
    }

    /** The low n bits set, for n from 1 to 64. */
    static uint64_t
    lowBits(Tick n)
    {
        return n >= 64 ? ~uint64_t(0) : (uint64_t(1) << n) - 1;
    }

    /**
     * Bit i set iff the len ticks from bit i of the 128-tick idle mask
     * lo:hi are all idle (len from 1 to 64). Each round doubles the run
     * length a bit vouches for, capped at len: at most six rounds.
     */
    static uint64_t
    windowStarts(uint64_t lo, uint64_t hi, Tick len)
    {
        for (Tick covered = 1; covered < len;) {
            unsigned s = unsigned(std::min(covered, len - covered));
            lo &= (lo >> s) | (hi << (64 - s));
            hi &= hi >> s;
            covered += s;
        }
        return lo;
    }

    /**
     * First start >= t of an idle window of length len, for t below
     * tailStart (acquireMany grants any later request directly).
     */
    Tick
    freeWindow(Tick t, Tick len) const
    {
        // One tick: the first idle tick is the window.
        if (len <= 1)
            return len ? firstFree(t) : t;
        // Below the base or longer than a word: alternate the scans.
        if (t < base || len > 64) {
            for (;;) {
                Tick hit = firstBusy(t, t + len);
                if (hit == t + len)
                    return t;
                t = firstFree(hit);
            }
        }
        // A short window: test every start in a word at once. The tail
        // run is busy, so a window below it ends before tailStart, and
        // past it the first window starts at lastEnd. The scan stops at
        // the word holding tailStart, which lies inside the ring (below
        // lastEnd), so a window reaching past the ring's end holds that
        // busy tick: the wrapped word it reads as `hi` cannot matter.
        Tick off = t - base;
        size_t w = size_t(off / 64);
        Tick wordStart = base + Tick(w) * 64;
        uint64_t starts = ~uint64_t(0) << (off % 64);
        for (;;) {
            uint64_t fit = windowStarts(~word(w), ~word(w + 1), len) & starts;
            if (fit)
                return wordStart + Tick(std::countr_zero(fit));
            wordStart += 64;
            if (wordStart >= tailStart)
                return lastEnd;
            ++w;
            starts = ~uint64_t(0);
        }
    }

    /** Set the bits of [start, end), making room for them first. */
    void
    markBusy(Tick start, Tick end)
    {
        if (start < base || end - base > span()) [[unlikely]]
            makeRoom(start, end);
        fill(start, end);
    }

    /** Set the bits of [start, end), which the ring covers. */
    void
    fill(Tick start, Tick end)
    {
        Tick off = start - base;
        size_t w = off / 64;
        unsigned bit = unsigned(off % 64);
        Tick n = end - start;
        // A run inside one word: one OR.
        if (bit + n <= 64) {
            word(w) |= lowBits(n) << bit;
            return;
        }
        for (; n > 0; bit = 0) {
            Tick take = std::min<Tick>(64 - bit, n);
            word(w++) |= lowBits(take) << bit;
            n -= take;
        }
    }

    /** Move or grow the ring so that it covers [start, end). */
    void
    makeRoom(Tick start, Tick end)
    {
        if (start < base)
            extendDown(start);
        retire();
        if (end - base > span()) {
            size_t words = ring.size() * 2;
            while (Tick(words) * 64 < end - base)
                words *= 2;
            regrow(0, words);
        }
    }

    /**
     * Lower the base to start, or to the start of the run below the
     * base if that is earlier, so that the ring holds every busy tick
     * again. A grant below the base happens only after shiftCalendar()
     * moved the calendar past a tick a later request may ask for.
     */
    void
    extendDown(Tick start)
    {
        Tick oldBase = base;
        Tick bits = base - std::min(start, belowStart);
        base -= bits;
        Tick held = std::max(lastEnd, start + 1) - base;
        regrow(bits, std::bit_ceil(std::max(inlineWords,
                                            size_t((held + 63) / 64))));
        fill(belowStart, oldBase);
        belowStart = base;
    }

    /**
     * Copy the ring into `words` words (a power of two), unwrapped so
     * that word 0 is at index 0, and `bits` ticks later: the first
     * `bits` ticks of the copy are idle.
     */
    void
    regrow(Tick bits, size_t words)
    {
        size_t lead = size_t(bits / 64);
        unsigned up = unsigned(bits % 64);
        auto old = [&](size_t i) {
            return i >= lead && i - lead < ring.size() ? word(i - lead) : 0;
        };
        SmallVec<uint64_t, inlineWords> grown;
        for (size_t i = 0; i < words; ++i) {
            uint64_t w = old(i) << up;
            if (up && i > 0)
                w |= old(i - 1) >> (64 - up);
            grown.push_back(w);
        }
        ring = std::move(grown);
        head = 0;
    }

    /**
     * Call fn(start, end) for every merged busy run that ends at or
     * after the floor, in order: the run reaching the base, then the
     * runs in the ring.
     */
    template <typename Fn>
    void
    forEachLiveRun(Fn &&fn) const
    {
        Tick t = base;
        if (belowStart < base) {
            t = firstFree(base);
            if (t >= *floor)
                fn(belowStart, t);
        }
        for (;;) {
            Tick start = firstBusy(t, lastEnd);
            if (start >= lastEnd)
                return;
            t = firstFree(start);
            if (t >= *floor)
                fn(start, t);
        }
    }

    static constexpr Tick noFloor = 0;

    // What an inline grant reads and writes comes first: one cache line
    // of an aligned Resource, plus the ring's inline words in the next.
    Tick serviceInterval;
    const Tick *floor = &noFloor;
    size_t head = 0;     ///< ring index of word 0
    Tick base = 0;       ///< first tick of word 0
    Tick tailStart = 0;  ///< [tailStart, lastEnd) is busy
    Tick lastEnd = 0;    ///< every tick from here on is idle
    uint64_t totalGrants = 0;
    Tick totalWait = 0;
    /// Occupancy bits, one per tick from base; a power-of-two ring.
    SmallVec<uint64_t, inlineWords> ring;
    Tick belowStart = 0; ///< [belowStart, base) is busy; == base if idle
};

} // namespace dlp::sim

#endif // DLP_SIM_RESOURCE_HH
