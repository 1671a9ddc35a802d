/**
 * @file
 * Unit tests for the simulation kernel: event-queue ordering, the MIMD
 * ready set and the calendar-based resource model (idle-window grants
 * are what keep the engines' out-of-order acquisitions honest).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <new>
#include <queue>
#include <vector>

#include "sim/eventq.hh"
#include "sim/ready_set.hh"
#include "sim/resource.hh"

using namespace dlp;
using namespace dlp::sim;

TEST(EventQueue, ExecutesInTickOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoWithinATick)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(1); });
    eq.schedule(5, [&] { order.push_back(2); });
    eq.schedule(5, [&] { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EventsMayScheduleAtOwnTick)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(7, [&] {
        eq.schedule(7, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.curTick(), 7u);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_THROW(eq.schedule(5, [] {}), PanicError);
}

TEST(EventQueue, ResetRewindsClock)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    eq.reset();
    EXPECT_EQ(eq.curTick(), 0u);
    eq.schedule(1, [] {}); // would panic without the reset
    eq.run();
}

TEST(EventQueue, RunHonorsTickLimit)
{
    EventQueue eq;
    eq.schedule(1000, [] {});
    EXPECT_THROW(eq.run(/*limit=*/100), FatalError);
}

// ---------------------------------------------------------------------
// Calendar resources
// ---------------------------------------------------------------------

TEST(Resource, BackToBackGrantsQueue)
{
    Resource r(2);
    EXPECT_EQ(r.acquire(10), 10u);
    EXPECT_EQ(r.acquire(10), 12u);
    EXPECT_EQ(r.acquire(10), 14u);
}

TEST(Resource, LateRequestClaimsIdleWindow)
{
    Resource r(1);
    // A grant far in the future must not block an earlier idle window.
    EXPECT_EQ(r.acquire(1000), 1000u);
    EXPECT_EQ(r.acquire(10), 10u);
    EXPECT_EQ(r.acquire(10), 11u);
}

TEST(Resource, WindowBetweenGrantsIsUsed)
{
    Resource r(1);
    EXPECT_EQ(r.acquire(5), 5u);
    EXPECT_EQ(r.acquire(8), 8u);
    // The gap [6, 8) is free.
    EXPECT_EQ(r.acquire(6), 6u);
    EXPECT_EQ(r.acquire(6), 7u);
    // Now everything up to 9 is busy.
    EXPECT_EQ(r.acquire(5), 9u);
}

TEST(Resource, BurstNeedsContiguousWindow)
{
    Resource r(1);
    r.acquire(4); // busy [4,5)
    // A 3-tick burst at 2 would overlap tick 4; first fit is 5.
    EXPECT_EQ(r.acquireMany(2, 3), 5u);
    // A 2-tick burst fits exactly in [2,4).
    EXPECT_EQ(r.acquireMany(2, 2), 2u);
}

TEST(Resource, GrantAndWaitAccounting)
{
    Resource r(1);
    r.acquire(0);
    r.acquire(0);
    r.acquireMany(0, 3);
    EXPECT_EQ(r.grants(), 5u);
    EXPECT_GT(r.waitedTicks(), 0u);
}

TEST(Resource, ResetClearsCalendar)
{
    Resource r(1);
    r.acquire(3);
    r.reset();
    EXPECT_EQ(r.acquire(3), 3u);
    EXPECT_EQ(r.grants(), 1u);
}

TEST(Resource, MergedIntervalsStaySmall)
{
    // Dense in-order usage must not blow up the interval map: after N
    // adjacent grants the calendar is a single interval, so another
    // grant at the front must queue to the very end.
    Resource r(1);
    for (int i = 0; i < 1000; ++i)
        r.acquire(static_cast<Tick>(i));
    EXPECT_EQ(r.acquire(0), 1000u);
}

// ---------------------------------------------------------------------
// Calendar queue mechanics (ring buckets + overflow heap)
// ---------------------------------------------------------------------

TEST(CalendarQueue, SameTickFifoAcrossManyEvents)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 100; ++i)
        eq.schedule(42, [&order, i] { order.push_back(i); });
    eq.run();
    ASSERT_EQ(order.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(CalendarQueue, BucketRolloverAtRingBoundaries)
{
    // Ticks straddling multiples of the ring size (256) land in the
    // same bucket slots across windows; order must stay by tick.
    EventQueue eq;
    std::vector<Tick> fired;
    const std::vector<Tick> ticks = {0,   1,   255, 256, 257, 511,
                                     512, 513, 767, 768, 1023, 1024};
    // Schedule in reverse so insertion order disagrees with tick order.
    for (auto it = ticks.rbegin(); it != ticks.rend(); ++it) {
        Tick t = *it;
        eq.schedule(t, [&fired, &eq] { fired.push_back(eq.curTick()); });
    }
    eq.run();
    EXPECT_EQ(fired, ticks);
}

TEST(CalendarQueue, FarFutureOverflowPreservesOrder)
{
    // Events far beyond the ring window route through the overflow
    // heap and must interleave correctly with near-future events,
    // including FIFO among same-tick overflow events.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(1'000'000, [&] { order.push_back(10); });
    eq.schedule(1'000'000, [&] { order.push_back(11); });
    eq.schedule(5, [&] { order.push_back(1); });
    eq.schedule(500'000, [&] { order.push_back(5); });
    eq.schedule(6, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 5, 10, 11}));
}

TEST(CalendarQueue, EventChainsAcrossTheWindow)
{
    // An event that keeps rescheduling itself far beyond the current
    // window exercises window jumps with an otherwise empty ring.
    EventQueue eq;
    int hops = 0;
    std::function<void()> hop; // test-side recursion helper
    hop = [&] {
        if (++hops < 10)
            eq.scheduleIn(10'000, [&] { hop(); });
    };
    eq.schedule(0, [&] { hop(); });
    eq.run();
    EXPECT_EQ(hops, 10);
    EXPECT_EQ(eq.curTick(), 90'000u);
}

TEST(CalendarQueue, ResetReusesRetainedStorage)
{
    EventQueue eq;
    for (int round = 0; round < 3; ++round) {
        int fired = 0;
        for (Tick t = 0; t < 600; t += 3)
            eq.schedule(t, [&fired] { ++fired; });
        eq.schedule(100'000, [&fired] { ++fired; });
        eq.run();
        EXPECT_EQ(fired, 201);
        EXPECT_EQ(eq.curTick(), 100'000u);
        eq.reset();
        EXPECT_EQ(eq.curTick(), 0u);
        EXPECT_TRUE(eq.empty());
    }
}

TEST(CalendarQueue, ResetDiscardsPendingEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&fired] { ++fired; });
    eq.schedule(10'000'000, [&fired] { ++fired; }); // overflow tier
    eq.reset();
    eq.run();
    EXPECT_EQ(fired, 0);
    eq.schedule(1, [&fired] { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 1);
}

TEST(CalendarQueue, CountsExecutedEventsAcrossResets)
{
    EventQueue eq;
    eq.schedule(1, [] {});
    eq.schedule(2, [] {});
    eq.run();
    eq.reset();
    eq.schedule(1, [] {});
    eq.run();
    EXPECT_EQ(eq.executedEvents(), 3u);
}

TEST(MemberEvent, ReschedulesWithoutRebinding)
{
    EventQueue eq;
    int fired = 0;
    MemberEvent ev(eq, [&fired] { ++fired; });
    ev.schedule(5);
    eq.run();
    eq.reset();
    ev.schedule(7);
    ev.schedule(9);
    eq.run();
    EXPECT_EQ(fired, 3);
}

// ---------------------------------------------------------------------
// Bitmap-calendar Resource vs the node-based std::map oracle
// ---------------------------------------------------------------------

namespace {

/**
 * The original std::map<Tick, Tick> interval calendar, kept as a
 * behavioral oracle: the occupancy-bitmap calendar must produce the
 * exact same grant sequence for any acquire history.
 */
class MapOracleResource
{
  public:
    explicit MapOracleResource(Tick interval = 1) : serviceInterval(interval)
    {
    }

    Tick acquire(Tick earliest) { return acquireMany(earliest, 1); }

    Tick
    acquireMany(Tick earliest, uint64_t units)
    {
        if (units == 0)
            return earliest;
        Tick len = serviceInterval * units;
        Tick grant = findWindow(earliest, len);
        insertBusy(grant, grant + len);
        totalGrants += units;
        totalWait += grant - earliest;
        lastEnd = std::max(lastEnd, grant + len);
        return grant;
    }

    bool
    idleAt(Tick earliest) const
    {
        return findWindow(earliest, serviceInterval) == earliest;
    }

    Tick nextFree() const { return lastEnd; }
    uint64_t grants() const { return totalGrants; }
    Tick waitedTicks() const { return totalWait; }

    void
    tailSince(Tick origin,
              std::vector<std::pair<int64_t, int64_t>> &out) const
    {
        out.clear();
        for (const auto &[start, end] : busy)
            if (end > origin)
                out.emplace_back(int64_t(std::max(start, origin) - origin),
                                 int64_t(end - origin));
    }

    /** The calendar moved shift ticks later, as Resource's. */
    void
    shiftCalendar(Tick shift)
    {
        std::map<Tick, Tick> moved;
        for (const auto &[start, end] : busy)
            moved.emplace(start + shift, end + shift);
        busy.swap(moved);
        lastEnd += shift;
    }

    /**
     * tailSince() and the interval count as a calendar bound to floor
     * reports them: intervals that end before the floor are retired.
     */
    void
    tailSince(Tick origin, Tick floor,
              std::vector<std::pair<int64_t, int64_t>> &out) const
    {
        tailSince(origin, out);
        std::erase_if(out, [&](const auto &iv) {
            return Tick(iv.second + int64_t(origin)) < floor;
        });
    }

    size_t
    intervals(Tick floor) const
    {
        size_t n = 0;
        for (const auto &[start, end] : busy)
            n += end >= floor;
        return n;
    }

  private:
    Tick
    findWindow(Tick earliest, Tick len) const
    {
        Tick t = earliest;
        auto it = busy.upper_bound(t);
        if (it != busy.begin()) {
            auto prev = std::prev(it);
            if (prev->second > t)
                t = prev->second;
        }
        while (it != busy.end() && it->first < t + len) {
            t = std::max(t, it->second);
            ++it;
        }
        return t;
    }

    void
    insertBusy(Tick start, Tick end)
    {
        auto it = busy.lower_bound(start);
        if (it != busy.begin()) {
            auto prev = std::prev(it);
            if (prev->second >= start) {
                start = prev->first;
                end = std::max(end, prev->second);
                it = busy.erase(prev);
            }
        }
        while (it != busy.end() && it->first <= end) {
            end = std::max(end, it->second);
            it = busy.erase(it);
        }
        busy.emplace(start, end);
    }

    Tick serviceInterval;
    std::map<Tick, Tick> busy;
    Tick lastEnd = 0;
    uint64_t totalGrants = 0;
    Tick totalWait = 0;
};

} // namespace

TEST(ResourceOracle, OutOfOrderAcquiresMatchMapCalendar)
{
    for (Tick interval : {Tick(1), Tick(2), Tick(7)}) {
        Resource flat(interval);
        MapOracleResource oracle(interval);
        uint64_t s = 12345;
        for (int i = 0; i < 20000; ++i) {
            s = s * 6364136223846793005ULL + 1442695040888963407ULL;
            Tick earliest = (s >> 33) % 4096;
            EXPECT_EQ(flat.acquire(earliest), oracle.acquire(earliest))
                << "interval " << interval << " step " << i;
        }
        EXPECT_EQ(flat.waitedTicks(), oracle.waitedTicks());
        EXPECT_EQ(flat.nextFree(), oracle.nextFree());
    }
}

TEST(ResourceOracle, AdjacentIntervalMergeMatches)
{
    Resource flat(1);
    MapOracleResource oracle(1);
    // Touching grants left-to-right and right-to-left, then probe the
    // fully merged calendar from the front.
    for (Tick t : {Tick(10), Tick(11), Tick(9), Tick(13), Tick(12)})
        EXPECT_EQ(flat.acquire(t), oracle.acquire(t));
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(flat.acquire(0), oracle.acquire(0));
    EXPECT_EQ(flat.idleAt(0), oracle.idleAt(0));
    EXPECT_EQ(flat.nextFree(), oracle.nextFree());
}

TEST(ResourceOracle, BurstAcquiresSpanningMergesMatch)
{
    Resource flat(2);
    MapOracleResource oracle(2);
    uint64_t s = 999;
    for (int i = 0; i < 20000; ++i) {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        Tick earliest = (s >> 33) % 2048;
        uint64_t units = 1 + ((s >> 20) % 5);
        EXPECT_EQ(flat.acquireMany(earliest, units),
                  oracle.acquireMany(earliest, units))
            << "step " << i;
        if (i % 7 == 0) {
            Tick probe = (s >> 40) % 2048;
            EXPECT_EQ(flat.idleAt(probe), oracle.idleAt(probe))
                << "probe step " << i;
        }
    }
    EXPECT_EQ(flat.grants(), oracle.grants());
    EXPECT_EQ(flat.waitedTicks(), oracle.waitedTicks());
}

TEST(ResourceOracle, RetirementBelowARisingFloorMatchesMapCalendar)
{
    // The engines' pattern: requests land anywhere in a window above a
    // floor that only rises. A calendar bound to that floor must answer
    // exactly as the never-retiring map does, while holding only the
    // window's worth of intervals.
    const Tick window = 512;
    for (Tick interval : {Tick(1), Tick(3)}) {
        Tick floor = 0;
        Resource retiring(interval);
        retiring.bindFloor(&floor);
        Resource unbound(interval);
        MapOracleResource oracle(interval);
        std::vector<std::pair<int64_t, int64_t>> tail, oracleTail;
        size_t peak = 0;
        uint64_t s = 4242;
        for (int i = 0; i < 20000; ++i) {
            s = s * 6364136223846793005ULL + 1442695040888963407ULL;
            // Units average 1.5 per step and the floor rises 2 service
            // intervals per step on average: three-quarters utilization.
            floor += (s >> 40) % (4 * interval + 1);
            Tick earliest = floor + (s >> 20) % window;
            uint64_t units = 1 + ((s >> 10) % 2);
            Tick grant = oracle.acquireMany(earliest, units);
            ASSERT_EQ(retiring.acquireMany(earliest, units), grant)
                << "interval " << interval << " step " << i;
            unbound.acquireMany(earliest, units);
            peak = std::max(peak, retiring.intervals());

            Tick probe = floor + (s >> 50) % window;
            EXPECT_EQ(retiring.idleAt(probe), oracle.idleAt(probe))
                << "probe step " << i;
            if (i % 16 == 0) {
                Tick origin = floor + (s >> 56) % 8;
                retiring.tailSince(origin, tail);
                oracle.tailSince(origin, oracleTail);
                EXPECT_EQ(tail, oracleTail) << "tail step " << i;
            }
        }
        EXPECT_EQ(retiring.grants(), oracle.grants());
        EXPECT_EQ(retiring.waitedTicks(), oracle.waitedTicks());
        EXPECT_EQ(retiring.nextFree(), oracle.nextFree());
        // Bounded by the window while the unbound calendar keeps every
        // interval since tick 0.
        EXPECT_LE(peak, window / interval);
        EXPECT_GT(unbound.intervals(), 10 * peak);
    }
}

namespace {

/** The oracle tests' generator step (Knuth's MMIX LCG). */
uint64_t
nextRand(uint64_t &s)
{
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return s >> 11;
}

/** Compare tails, counts and nextFree() of a calendar bound to floor. */
void
expectSameCalendar(const Resource &res, const MapOracleResource &oracle,
                   Tick origin, Tick floor)
{
    std::vector<std::pair<int64_t, int64_t>> tail, oracleTail;
    res.tailSince(origin, tail);
    oracle.tailSince(origin, floor, oracleTail);
    EXPECT_EQ(tail, oracleTail) << "origin " << origin << " floor " << floor;
    EXPECT_EQ(res.intervals(), oracle.intervals(floor));
    EXPECT_EQ(res.nextFree(), oracle.nextFree());
}

} // namespace

TEST(ResourceOracle, ShiftByNonMultiplesOf64ThenAcquireAboveTheBase)
{
    // Epoch fast-forward moves a calendar by K*period ticks: rarely a
    // whole number of 64-tick words. A bound calendar's floor moves with
    // it; an unbound one's stays at 0, so later requests may also land
    // below the moved calendar.
    for (bool bound : {true, false}) {
        Tick floor = 0;
        Resource res(1);
        if (bound)
            res.bindFloor(&floor);
        MapOracleResource oracle(1);
        // A saturated start: fully busy words that the base slides past.
        for (Tick t = 0; t < 200; ++t)
            ASSERT_EQ(res.acquire(t), oracle.acquire(t));
        uint64_t s = bound ? 64064 : 46046;
        for (int round = 0; round < 300; ++round) {
            Tick shift = 1 + nextRand(s) % 1000;
            Tick origin = oracle.nextFree() + shift;
            for (int i = 0; i < 40; ++i) {
                if (bound)
                    floor += nextRand(s) % 3;
                Tick earliest = floor + nextRand(s) % 300;
                if (!bound && i % 4 == 0)
                    earliest = nextRand(s) % origin;
                uint64_t units = 1 + nextRand(s) % 3;
                ASSERT_EQ(res.acquireMany(earliest, units),
                          oracle.acquireMany(earliest, units))
                    << "round " << round << " step " << i;
            }
            res.shiftCalendar(shift);
            oracle.shiftCalendar(shift);
            if (bound)
                floor += shift;
            Tick tailOrigin = floor > 500 ? floor - 500 : 0;
            expectSameCalendar(res, oracle, tailOrigin, floor);
            for (Tick d = 0; d < 6; ++d)
                ASSERT_EQ(res.acquire(floor + d), oracle.acquire(floor + d))
                    << "round " << round << " offset " << d;
            expectSameCalendar(res, oracle, floor, floor);
        }
        EXPECT_EQ(res.waitedTicks(), oracle.waitedTicks());
    }
}

TEST(ResourceOracle, TailSinceAnOriginBelowTheFloor)
{
    // Runs ending before the floor are retired whether or not their
    // storage has been freed yet; a run ending at or after it is
    // reported whole, however far below the floor it began.
    for (Tick interval : {Tick(1), Tick(2)}) {
        Tick floor = 0;
        Resource res(interval);
        res.bindFloor(&floor);
        MapOracleResource oracle(interval);
        uint64_t s = 1717 + interval;
        for (int i = 0; i < 20000; ++i) {
            floor += nextRand(s) % (3 * interval + 1);
            Tick earliest = floor + nextRand(s) % 400;
            uint64_t units = 1 + nextRand(s) % 3;
            ASSERT_EQ(res.acquireMany(earliest, units),
                      oracle.acquireMany(earliest, units))
                << "interval " << interval << " step " << i;
            if (i % 50 == 0) {
                Tick below = nextRand(s) % 700;
                expectSameCalendar(res, oracle,
                                   floor > below ? floor - below : 0,
                                   floor);
            }
            if (i % 333 == 0)
                res.retire();
        }
    }

    // A run that ends exactly at the floor is still live: a grant at
    // the floor would touch it. One tick later it is retired.
    Tick floor = 0;
    Resource res(1);
    res.bindFloor(&floor);
    MapOracleResource oracle(1);
    for (Tick t = 40; t < 100; ++t)
        ASSERT_EQ(res.acquire(t), oracle.acquire(t));
    floor = 100;
    expectSameCalendar(res, oracle, 60, floor);
    EXPECT_EQ(res.intervals(), 1u);
    floor = 101;
    res.retire();
    expectSameCalendar(res, oracle, 60, floor);
    EXPECT_EQ(res.intervals(), 0u);
}

TEST(ResourceOracle, BurstsLongerThanAWordMatch)
{
    // Interval 7 and up to 16 units: bursts of up to 112 ticks, which
    // span two or three bitmap words.
    Tick floor = 0;
    Resource res(7);
    res.bindFloor(&floor);
    MapOracleResource oracle(7);
    uint64_t s = 7716;
    for (int i = 0; i < 20000; ++i) {
        floor += nextRand(s) % 40;
        Tick earliest = floor + nextRand(s) % 1500;
        uint64_t units = 1 + nextRand(s) % 16;
        ASSERT_EQ(res.acquireMany(earliest, units),
                  oracle.acquireMany(earliest, units))
            << "step " << i;
        Tick probe = floor + nextRand(s) % 1500;
        ASSERT_EQ(res.idleAt(probe), oracle.idleAt(probe)) << "step " << i;
        if (i % 100 == 0)
            expectSameCalendar(res, oracle, floor, floor);
    }
    EXPECT_EQ(res.waitedTicks(), oracle.waitedTicks());
}

TEST(ResourceOracle, GrantsMoreThanAMillionTicksAheadMatch)
{
    // Far-ahead grants leave a gap the window must not fill word by
    // word when bound, and must still answer exactly when unbound.
    for (bool bound : {true, false}) {
        Tick floor = 0;
        Resource res(2);
        if (bound)
            res.bindFloor(&floor);
        MapOracleResource oracle(2);
        uint64_t s = bound ? 1000001 : 2000002;
        for (int i = 0; i < 3000; ++i) {
            if (bound)
                floor += nextRand(s) % 5;
            Tick earliest = floor + nextRand(s) % 200;
            if (i % 97 == 0)
                earliest += 1000000 + nextRand(s) % 2000000;
            else if (!bound)
                earliest = nextRand(s) % (oracle.nextFree() + 50);
            uint64_t units = 1 + nextRand(s) % 4;
            ASSERT_EQ(res.acquireMany(earliest, units),
                      oracle.acquireMany(earliest, units))
                << (bound ? "bound" : "unbound") << " step " << i;
            if (i % 200 == 0)
                expectSameCalendar(res, oracle, floor, floor);
        }
        if (bound) {
            EXPECT_LT(res.intervals(), 500u);
        }
    }
}

TEST(ResourceOracle, CopyAndMoveOfASpilledCalendar)
{
    // Enough scattered grants that the ring has left inline storage;
    // a copy and a moved-to calendar then evolve independently and
    // each still matches the oracle.
    Resource original(1);
    MapOracleResource oracle(1);
    uint64_t s = 5150;
    for (int i = 0; i < 400; ++i) {
        Tick earliest = nextRand(s) % 5000;
        ASSERT_EQ(original.acquire(earliest), oracle.acquire(earliest));
    }
    Resource copy(original);
    MapOracleResource copyOracle = oracle;
    Resource moved(std::move(original));
    Resource assigned(3);
    assigned = copy;
    MapOracleResource assignedOracle = oracle;
    for (int i = 0; i < 2000; ++i) {
        Tick earliest = nextRand(s) % 9000;
        ASSERT_EQ(moved.acquire(earliest), oracle.acquire(earliest));
        Tick other = nextRand(s) % 9000;
        ASSERT_EQ(copy.acquire(other), copyOracle.acquire(other));
        ASSERT_EQ(assigned.acquire(earliest + other),
                  assignedOracle.acquire(earliest + other));
    }
    expectSameCalendar(moved, oracle, 0, 0);
    expectSameCalendar(copy, copyOracle, 100, 0);
    expectSameCalendar(assigned, assignedOracle, 4000, 0);
}

TEST(ResourceOracle, SparseUnboundHistoryMatches)
{
    // An unbound calendar keeps every run of a long, mostly idle
    // history: isolated grants hundreds of ticks apart, then requests
    // back into the gaps.
    Resource res(3);
    MapOracleResource oracle(3);
    uint64_t s = 31337;
    Tick t = 0;
    for (int i = 0; i < 3000; ++i) {
        t += 100 + nextRand(s) % 900;
        ASSERT_EQ(res.acquire(t), oracle.acquire(t)) << "step " << i;
    }
    for (int i = 0; i < 3000; ++i) {
        Tick earliest = nextRand(s) % (t + 1);
        uint64_t units = 1 + nextRand(s) % 5;
        ASSERT_EQ(res.acquireMany(earliest, units),
                  oracle.acquireMany(earliest, units))
            << "backfill " << i;
        ASSERT_EQ(res.idleAt(earliest), oracle.idleAt(earliest));
    }
    for (Tick origin : {Tick(0), t / 3, t / 2, t})
        expectSameCalendar(res, oracle, origin, 0);
    EXPECT_GT(res.intervals(), 3000u);
}

TEST(ResourceOracle, InlineGrantsAtAndInsideTheTailMatch)
{
    // Mostly the inline path: requests at or after the tail run's start,
    // granted at max(earliest, lastEnd) with one OR when the grant fits
    // a word. Intervals 2 and 3 put grants across word boundaries; a
    // jump now and then lands past the ring's end; a request back into
    // a gap now and then checks that tailStart stayed exact.
    for (Tick interval : {Tick(1), Tick(2), Tick(3)}) {
        Tick floor = 0;
        Resource res(interval);
        res.bindFloor(&floor);
        MapOracleResource oracle(interval);
        uint64_t s = 2200 + interval;
        for (int i = 0; i < 20000; ++i) {
            uint64_t r = nextRand(s) % 100;
            Tick end = oracle.nextFree();
            Tick earliest;
            if (r < 40)
                earliest = end + nextRand(s) % 4; // at or after lastEnd
            else if (r < 70)
                earliest = end - std::min(end - floor,
                                          nextRand(s) % (2 * interval + 1));
            else if (r < 75)
                earliest = end + 200 + nextRand(s) % 400; // past the ring
            else
                earliest = floor + nextRand(s) % (end - floor + 1);
            ASSERT_EQ(res.acquire(earliest), oracle.acquire(earliest))
                << "interval " << interval << " step " << i;
            if (i % 8 == 0)
                floor += nextRand(s) % (8 * interval);
            floor = std::min(floor, oracle.nextFree());
            Tick probe = floor + nextRand(s) % 300;
            ASSERT_EQ(res.idleAt(probe), oracle.idleAt(probe))
                << "interval " << interval << " probe step " << i;
            if (i % 64 == 0)
                expectSameCalendar(res, oracle, floor, floor);
        }
        EXPECT_EQ(res.grants(), oracle.grants());
        EXPECT_EQ(res.waitedTicks(), oracle.waitedTicks());
    }
}

TEST(ResourceOracle, ShortWindowSearchesMatch)
{
    // Out-of-order requests into a half-busy window above a rising
    // floor: one-tick windows (interval 1), two-tick windows (interval
    // 2, the issue and register ports) and windows of 3 to 66 ticks,
    // so that word-parallel searches meet runs that straddle words and
    // the alternating search takes the windows longer than a word.
    for (Tick interval : {Tick(1), Tick(2), Tick(3)}) {
        Tick floor = 0;
        Resource res(interval);
        res.bindFloor(&floor);
        MapOracleResource oracle(interval);
        uint64_t s = 3300 + interval;
        for (int i = 0; i < 30000; ++i) {
            floor += nextRand(s) % (3 * interval + 1);
            Tick earliest = floor + nextRand(s) % 700;
            uint64_t units = nextRand(s) % 4 == 0
                                 ? 1 + nextRand(s) % (66 / interval)
                                 : 1 + nextRand(s) % 2;
            ASSERT_EQ(res.acquireMany(earliest, units),
                      oracle.acquireMany(earliest, units))
                << "interval " << interval << " step " << i;
            if (i % 100 == 0)
                expectSameCalendar(res, oracle, floor, floor);
        }
        EXPECT_EQ(res.waitedTicks(), oracle.waitedTicks());
    }
}

TEST(ResourceOracle, WindowsAtEveryOffsetOfAWordMatch)
{
    // One idle gap of exactly len ticks starting at or near a word's
    // last bit, then a request from tick 0 for len ticks: the gap is
    // the answer only if the word-parallel search sees windows that
    // start late in one word and end in the next. Lengths run past a
    // word, into the alternating search.
    for (Tick len = 1; len <= 70; ++len) {
        for (Tick gap : {Tick(1), Tick(62), Tick(63), Tick(64), Tick(127)}) {
            Resource res(1);
            MapOracleResource oracle(1);
            ASSERT_EQ(res.acquireMany(0, gap), oracle.acquireMany(0, gap));
            ASSERT_EQ(res.acquireMany(gap + len, 5),
                      oracle.acquireMany(gap + len, 5));
            ASSERT_EQ(res.acquireMany(0, len), oracle.acquireMany(0, len))
                << "len " << len << " gap at " << gap;
            ASSERT_EQ(res.acquireMany(0, len), oracle.acquireMany(0, len))
                << "len " << len << " after the gap filled, at " << gap;
        }
    }
}

TEST(ResourceOracle, FastPathsAfterShiftCalendarMatch)
{
    // A shifted calendar keeps its bits and moves its base: inline
    // grants and window searches must read it at the new base. The
    // unbound calendar also takes requests below the moved base.
    for (bool bound : {true, false}) {
        for (Tick interval : {Tick(1), Tick(2), Tick(3)}) {
            Tick floor = 0;
            Resource res(interval);
            if (bound)
                res.bindFloor(&floor);
            MapOracleResource oracle(interval);
            uint64_t s = (bound ? 4400 : 5500) + interval;
            for (int round = 0; round < 200; ++round) {
                for (int i = 0; i < 30; ++i) {
                    if (bound)
                        floor += nextRand(s) % (2 * interval + 1);
                    Tick end = oracle.nextFree();
                    Tick earliest = i % 3 == 0
                                        ? std::max(floor, end)
                                        : floor + nextRand(s) % 200;
                    if (!bound && i % 5 == 0)
                        earliest = nextRand(s) % (end + 1);
                    uint64_t units = 1 + nextRand(s) % 3;
                    ASSERT_EQ(res.acquireMany(earliest, units),
                              oracle.acquireMany(earliest, units))
                        << "round " << round << " step " << i;
                }
                Tick shift = 1 + nextRand(s) % 700;
                res.shiftCalendar(shift);
                oracle.shiftCalendar(shift);
                if (bound)
                    floor += shift;
                for (Tick d = 0; d < 4; ++d) {
                    Tick earliest = floor + d * interval;
                    ASSERT_EQ(res.acquire(earliest), oracle.acquire(earliest))
                        << "round " << round << " offset " << d;
                }
                expectSameCalendar(res, oracle, floor, floor);
            }
            EXPECT_EQ(res.waitedTicks(), oracle.waitedTicks());
        }
    }
}

TEST(ResourceOracle, ShortWindowsBehindFarAheadGrantsMatch)
{
    // A grant far ahead leaves one long tail run beyond a wide idle
    // gap: short windows below it must be found in the gap, never at
    // the far lastEnd, and requests inside the far run wait for it.
    for (Tick interval : {Tick(1), Tick(2), Tick(3)}) {
        Tick floor = 0;
        Resource res(interval);
        res.bindFloor(&floor);
        MapOracleResource oracle(interval);
        uint64_t s = 6600 + interval;
        for (int i = 0; i < 6000; ++i) {
            floor += nextRand(s) % (2 * interval + 1);
            Tick earliest = floor + nextRand(s) % 300;
            if (i % 50 == 0)
                earliest += 5000 + nextRand(s) % 100000;
            else if (i % 7 == 0 && oracle.nextFree() > floor)
                earliest = oracle.nextFree() - 1;
            uint64_t units = 1 + nextRand(s) % 3;
            ASSERT_EQ(res.acquireMany(earliest, units),
                      oracle.acquireMany(earliest, units))
                << "interval " << interval << " step " << i;
            if (i % 100 == 0)
                expectSameCalendar(res, oracle, floor, floor);
        }
        EXPECT_EQ(res.waitedTicks(), oracle.waitedTicks());
    }
}

TEST(Resource, AcquireBelowTheFloorPanics)
{
    Tick floor = 100;
    Resource port(1);
    port.bindFloor(&floor);
    EXPECT_EQ(port.acquire(100), 100u);
    EXPECT_THROW(port.acquire(99), PanicError);
}

// ---------------------------------------------------------------------
// ReadySet against the min-heap of (tick, tile) pairs it replaced in
// MimdEngine::run
// ---------------------------------------------------------------------

namespace {

using TickTile = std::pair<Tick, unsigned>;
using PairHeap = std::priority_queue<TickTile, std::vector<TickTile>,
                                     std::greater<TickTile>>;

uint64_t
lcg(uint64_t s)
{
    return s * 6364136223846793005ULL + 1442695040888963407ULL;
}

/**
 * Drive a ReadySet and the heap oracle the way MimdEngine::run drives
 * its scheduler: pop the lowest (tick, tile), peek the next tick, then
 * push the tile back delay(s) ticks after the popped one -- or, about
 * once in retireOdds pops, retire it -- and finally drain both.
 */
template <typename Delay>
void
matchHeap(unsigned tiles, uint64_t seed, int steps, Delay delay,
          uint64_t retireOdds = 1000)
{
    SCOPED_TRACE(testing::Message() << tiles << " tiles, seed " << seed);
    ReadySet set(tiles);
    PairHeap heap;
    const Tick start = 1000;
    set.reset(start);
    for (unsigned t = 0; t < tiles; ++t) {
        set.push(start, t);
        heap.emplace(start, t);
    }
    uint64_t s = seed;
    for (int i = 0; i < steps && !heap.empty(); ++i) {
        ASSERT_EQ(set.pop(), heap.top()) << "step " << i;
        auto [when, tile] = heap.top();
        heap.pop();
        ASSERT_EQ(set.empty(), heap.empty()) << "step " << i;
        if (!heap.empty()) {
            ASSERT_EQ(set.minTick(), heap.top().first) << "step " << i;
        }
        s = lcg(s);
        if ((s >> 50) % retireOdds == 0)
            continue;
        Tick again = when + delay(s);
        set.push(again, tile);
        heap.emplace(again, tile);
    }
    while (!heap.empty()) {
        ASSERT_FALSE(set.empty());
        ASSERT_EQ(set.minTick(), heap.top().first);
        ASSERT_EQ(set.pop(), heap.top());
        heap.pop();
    }
    EXPECT_TRUE(set.empty());
}

const unsigned tileCounts[] = {1, 63, 64, 65, 130};

} // namespace

TEST(ReadySetOracle, SameTickTiesPopLowestTileFirst)
{
    // Push-backs 0-2 ticks out: many tiles share each tick, and a tile
    // pushed back at the tick it was popped at re-enters the same mask.
    for (unsigned tiles : tileCounts)
        matchHeap(tiles, 11, 20000, [](uint64_t s) { return (s >> 33) % 3; });
}

TEST(ReadySetOracle, PushesPastTheWindowMigrateInOrder)
{
    // One push-back in four lands 255 ticks out or more, at and across
    // the ring's edge and far past it, into the overflow heap.
    for (unsigned tiles : tileCounts) {
        matchHeap(tiles, 23, 20000, [](uint64_t s) -> Tick {
            if ((s >> 33) % 4)
                return (s >> 35) % 8;
            const Tick edge[] = {255, 256, 257, 511, 512};
            uint64_t pick = (s >> 40) % 8;
            return pick < 5 ? edge[pick] : 256 + (s >> 44) % 5000;
        });
    }
}

TEST(ReadySetOracle, LongRandomTapeMatchesHeap)
{
    // The engine's shape: mostly one-cycle steps, dependency stalls of
    // tens of ticks, and the odd load that returns past the window.
    matchHeap(64, 77, 1'000'000, [](uint64_t s) -> Tick {
        uint64_t r = (s >> 33) % 100;
        if (r < 70)
            return 2;
        if (r < 95)
            return 1 + (s >> 40) % 64;
        return (s >> 40) % 1500;
    }, 20000);
}

TEST(ReadySet, ResetEmptiesAndRebasesTheWindow)
{
    ReadySet set(70);
    set.reset(500);
    set.push(500, 69);
    set.push(900, 3); // overflow
    set.push(510, 0);
    EXPECT_EQ(set.pop(), TickTile(500, 69));
    set.reset(10); // with entries in the ring and the overflow
    EXPECT_TRUE(set.empty());
    set.push(10, 5);
    set.push(10, 2);
    EXPECT_EQ(set.minTick(), 10u);
    EXPECT_EQ(set.pop(), TickTile(10, 2));
    EXPECT_EQ(set.pop(), TickTile(10, 5));
    EXPECT_TRUE(set.empty());
}

TEST(ReadySet, PushBelowTheLastPoppedTickPanics)
{
    ReadySet set(4);
    set.reset(100);
    set.push(100, 0);
    set.push(140, 1);
    EXPECT_EQ(set.pop(), TickTile(100, 0));
    EXPECT_EQ(set.pop(), TickTile(140, 1));
    set.push(140, 1); // at the last popped tick: allowed
    EXPECT_THROW(set.push(139, 0), PanicError);
}

// ---------------------------------------------------------------------
// Steady-state allocation behaviour. Each test binary is its own
// executable (see tests/CMakeLists.txt), so overriding the global
// allocator here observes only this file's activity.
// ---------------------------------------------------------------------

namespace {

uint64_t gAllocs = 0;

} // namespace

void *
operator new(std::size_t size)
{
    ++gAllocs;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc{};
}

void *
operator new[](std::size_t size)
{
    ++gAllocs;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc{};
}

// The replaced operator new above allocates with malloc, so free() is
// the matching deallocator; GCC cannot see the pairing across the
// replaced operators and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

TEST(EventQueueAllocation, SteadyStateScheduleAndFireIsAllocationFree)
{
    EventQueue q;
    uint64_t fired = 0;
    // Warm-up: populate bucket and overflow capacity with the same
    // traffic shape the measurement loop uses, across a reset() to
    // prove storage survives it.
    auto churn = [&] {
        for (int rep = 0; rep < 4; ++rep) {
            for (Tick t = 0; t < 64; ++t) {
                q.schedule(q.curTick() + t, [&fired] { ++fired; });
                q.schedule(q.curTick() + t + 1000, [&fired] { ++fired; });
            }
            q.run();
        }
    };
    churn();
    q.reset();
    churn();

    uint64_t before = gAllocs;
    q.reset();
    churn();
    EXPECT_EQ(gAllocs, before)
        << "schedule/fire steady state must not touch the heap";
    EXPECT_GT(fired, 0u);
}

TEST(ResourceAllocation, InlineCalendarAcquiresAreAllocationFree)
{
    Resource port(1);
    // The serial acquire pattern every issue port sees: each grant
    // extends the trailing interval in place, so the calendar stays at
    // one interval and never leaves inline storage.
    uint64_t before = gAllocs;
    Tick t = 0;
    for (int i = 0; i < 10000; ++i)
        t = port.acquire(t);
    EXPECT_EQ(gAllocs, before)
        << "in-order acquires must stay in inline interval storage";
    EXPECT_EQ(port.grants(), 10000u);
}

} // namespace

// ---------------------------------------------------------------------
// Event conservation counters
// ---------------------------------------------------------------------

TEST(EventQueue, ConservesEventsAcrossLifetime)
{
    EventQueue eq;
    eq.schedule(1, [] {});
    eq.schedule(2, [] {});
    eq.schedule(3, [] {});
    eq.run();
    EXPECT_EQ(eq.scheduledEvents(), 3u);
    EXPECT_EQ(eq.executedEvents(), 3u);
    EXPECT_EQ(eq.discardedEvents(), 0u);
    EXPECT_EQ(eq.scheduledEvents(),
              eq.executedEvents() + eq.pending() + eq.discardedEvents());
}

TEST(EventQueue, ResetAccountsDroppedEventsAsDiscarded)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(5, [&fired] { ++fired; });
    eq.run();
    // Two near events and one far beyond the calendar window (the
    // overflow heap) are dropped together by the reset.
    eq.schedule(10, [&fired] { ++fired; });
    eq.schedule(20, [&fired] { ++fired; });
    eq.schedule(50'000'000, [&fired] { ++fired; });
    eq.reset();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.discardedEvents(), 3u);

    // The queue stays fully usable after the discard, and the books
    // keep balancing: scheduled == executed + pending + discarded.
    eq.schedule(1, [&fired] { ++fired; });
    eq.schedule(30'000'000, [&fired] { ++fired; }); // overflow tier again
    eq.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.scheduledEvents(), 6u);
    EXPECT_EQ(eq.executedEvents(), 3u);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.scheduledEvents(),
              eq.executedEvents() + eq.pending() + eq.discardedEvents());
}

// ---------------------------------------------------------------------
// SmallVec vs std::vector differential
// ---------------------------------------------------------------------

TEST(SmallVec, MatchesStdVectorThroughMixedOperations)
{
    // Deterministic operation tape crossing the inline->heap boundary
    // (Inline = 4) in both directions, mirrored against std::vector:
    // appends grow it, and copies and moves of shorter or longer
    // snapshots replace it.
    SmallVec<int, 4> sv;
    std::vector<int> ref;
    SmallVec<int, 4> saved;
    std::vector<int> savedRef;
    uint64_t x = 0x9e3779b97f4a7c15ull;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    for (int step = 0; step < 2000; ++step) {
        uint64_t roll = next() % 100;
        int v = static_cast<int>(next() % 1000);
        if (roll < 80) {
            sv.push_back(v);
            ref.push_back(v);
        } else if (roll < 88) {
            saved = sv;
            savedRef = ref;
        } else if (roll < 94) {
            sv = saved;
            ref = savedRef;
        } else {
            SmallVec<int, 4> fresh;
            std::vector<int> freshRef;
            for (int i = 0; i < v % 9; ++i) {
                fresh.push_back(i);
                freshRef.push_back(i);
            }
            sv = std::move(fresh);
            ref = freshRef;
        }
        ASSERT_EQ(sv.size(), ref.size()) << "step " << step;
        for (size_t i = 0; i < ref.size(); ++i)
            ASSERT_EQ(sv[i], ref[i]) << "step " << step << " index " << i;
    }
}

TEST(SmallVec, CopyAndMovePreserveContents)
{
    SmallVec<int, 4> small;
    for (int i = 0; i < 3; ++i)
        small.push_back(i); // stays inline
    SmallVec<int, 4> big;
    for (int i = 0; i < 64; ++i)
        big.push_back(i); // spills to the heap

    SmallVec<int, 4> copy(big);
    ASSERT_EQ(copy.size(), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(copy[i], i);

    copy = small; // shrink heap -> inline source
    ASSERT_EQ(copy.size(), 3u);
    EXPECT_EQ(copy[2], 2);

    SmallVec<int, 4> moved(std::move(big));
    ASSERT_EQ(moved.size(), 64u);
    EXPECT_EQ(moved[63], 63);

    moved = std::move(small);
    ASSERT_EQ(moved.size(), 3u);
    EXPECT_EQ(moved[0], 0);

    // Self-assignment must be a no-op, not a double free.
    SmallVec<int, 4> &alias = moved;
    moved = alias;
    ASSERT_EQ(moved.size(), 3u);
    EXPECT_EQ(moved[1], 1);
}
