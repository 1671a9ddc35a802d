/**
 * @file
 * The MIMD engine's tile scheduler: a set of (tick, member) entries
 * popped in ascending (tick, member) order.
 *
 * MimdEngine steps its tiles one instruction at a time in global
 * simulated-time order, lower tile index first within a tick. Its use
 * has two properties a general priority queue cannot exploit:
 *
 *  - every member sits in the set at most once, so the members ready
 *    at one tick are a bitmask, and the lowest of them is one
 *    count-trailing-zeros;
 *  - every push is at or after the last popped tick, so ticks only move
 *    forward through a window, like the event queue's.
 *
 * The set is therefore the event queue's two-tier calendar with a tile
 * mask per slot in place of an event list: a ring of `numSlots`
 * one-tick slots covers [base, base + numSlots), each slot holding
 * ceil(members / 64) mask words, and a slot-occupancy bitmap (shared
 * with EventQueue, slot_occupancy.hh) finds the next populated tick.
 * Entries beyond the window wait in an overflow min-heap of
 * (tick, member) and migrate into the ring on every base advance --
 * EventQueue's invariant: with it, every ring entry precedes every
 * overflow entry, so the ring's minimum is the set's.
 *
 * The (tick, member) order is exactly that of a min-heap of pairs, which
 * tests/test_sim.cpp checks against one. EventQueue itself would not
 * do: it breaks same-tick ties first-in first-out, so a tile yielding
 * at its stall tick would re-enter ahead of lower-numbered tiles.
 */

#ifndef DLP_SIM_READY_SET_HH
#define DLP_SIM_READY_SET_HH

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/bitutils.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "sim/slot_occupancy.hh"

namespace dlp::sim {

class ReadySet
{
  public:
    using Entry = std::pair<Tick, unsigned>; ///< (tick, member)

    /** An empty set over members [0, members), its window at tick 0. */
    explicit ReadySet(unsigned members)
        : words(size_t(divCeil(std::max(members, 1u), 64))),
          masks(numSlots * words, 0)
    {
    }

    /** Empty the set and start its window at tick start. */
    void
    reset(Tick start)
    {
        if (ringCount > 0)
            std::fill(masks.begin(), masks.end(), 0);
        occupied.reset();
        overflow.clear();
        ringCount = 0;
        base = start;
    }

    bool empty() const { return ringCount == 0 && overflow.empty(); }

    /**
     * Add member at tick when. Preconditions: the member is not in the
     * set, and when is at or after the last popped tick (or the reset
     * base).
     */
    void
    push(Tick when, unsigned member)
    {
        panic_if(when < base,
                 "ready-set push at %" PRIu64 " below its window %" PRIu64,
                 when, base);
        if (when < base + numSlots) {
            insert(when, member);
        } else {
            overflow.emplace_back(when, member);
            std::push_heap(overflow.begin(), overflow.end(),
                           std::greater<Entry>{});
        }
    }

    /** The lowest tick in the set. Precondition: !empty(). */
    Tick
    minTick() const
    {
        return ringCount > 0 ? nextPopulatedTick() : overflow.front().first;
    }

    /**
     * Remove and return the lowest member at the lowest tick.
     * Precondition: !empty().
     */
    Entry
    pop()
    {
        if (ringCount == 0) {
            // Ring empty: jump the window to the earliest overflow entry.
            base = overflow.front().first;
            migrate();
        }
        Tick t = nextPopulatedTick();
        if (t != base) {
            base = t;
            migrate();
        }
        auto slot = static_cast<size_t>(t & slotMask);
        uint64_t *mask = &masks[slot * words];
        size_t w = 0;
        while (!mask[w])
            ++w;
        auto member = unsigned(w * 64 + size_t(std::countr_zero(mask[w])));
        mask[w] &= mask[w] - 1;
        if (!mask[w] && std::all_of(mask, mask + words,
                                    [](uint64_t m) { return m == 0; }))
            occupied.clear(slot);
        --ringCount;
        return {t, member};
    }

  private:
    /// Ring size in ticks (one slot per tick). Must be a power of two.
    static constexpr size_t numSlots = 256;
    static constexpr Tick slotMask = numSlots - 1;

    void
    insert(Tick when, unsigned member)
    {
        auto slot = static_cast<size_t>(when & slotMask);
        masks[slot * words + member / 64] |= uint64_t(1) << (member % 64);
        occupied.mark(slot);
        ++ringCount;
    }

    Tick
    nextPopulatedTick() const
    {
        return base +
               occupied.distanceFrom(static_cast<size_t>(base & slotMask));
    }

    /** Pull overflow entries now covered by the window into the ring. */
    void
    migrate()
    {
        while (!overflow.empty() &&
               overflow.front().first < base + numSlots) {
            std::pop_heap(overflow.begin(), overflow.end(),
                          std::greater<Entry>{});
            insert(overflow.back().first, overflow.back().second);
            overflow.pop_back();
        }
    }

    const size_t words;          ///< mask words per slot
    std::vector<uint64_t> masks; ///< numSlots x words member bits
    SlotOccupancy<numSlots> occupied;
    std::vector<Entry> overflow; ///< min-heap of entries past the window
    size_t ringCount = 0;        ///< entries in the ring
    Tick base = 0;             ///< first tick the ring covers
};

} // namespace dlp::sim

#endif // DLP_SIM_READY_SET_HH
