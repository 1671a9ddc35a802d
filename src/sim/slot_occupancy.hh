/**
 * @file
 * The occupancy bitmap of a ring of one-tick slots.
 *
 * Both tick-indexed rings of the simulation kernel -- the calendar
 * event queue (eventq.hh) and the MIMD tile ready set (ready_set.hh) --
 * map tick t to slot t mod Slots over a window of exactly Slots ticks
 * and keep one bit per non-empty slot. Finding the next populated tick
 * is then a wrapped count-trailing-zeros scan from the window base's
 * slot, never a tick-by-tick crawl.
 */

#ifndef DLP_SIM_SLOT_OCCUPANCY_HH
#define DLP_SIM_SLOT_OCCUPANCY_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "common/logging.hh"

namespace dlp::sim {

template <size_t Slots>
class SlotOccupancy
{
    static_assert(Slots >= 64 && std::has_single_bit(Slots),
                  "the ring must be a power-of-two number of words");

  public:
    void mark(size_t slot) { words[slot >> 6] |= bit(slot); }
    void clear(size_t slot) { words[slot >> 6] &= ~bit(slot); }
    void reset() { words.fill(0); }

    /**
     * Ring distance from slot `start` to the first marked slot at or
     * after it, wrapping past the last slot. The window spans exactly
     * Slots ticks, so the distance is unambiguous.
     * Precondition: some slot is marked.
     */
    size_t
    distanceFrom(size_t start) const
    {
        size_t w = start >> 6;
        uint64_t word = words[w] & (~uint64_t(0) << (start & 63));
        // numWords + 1 words: the start word's upper part, the others,
        // then the start word again for the slots below start.
        for (size_t n = 0; n <= numWords; ++n) {
            if (word) {
                size_t slot = (w << 6) + size_t(std::countr_zero(word));
                return (slot - start) & (Slots - 1);
            }
            w = (w + 1) & (numWords - 1);
            word = words[w];
        }
        panic("slot ring scanned with no occupied slot");
    }

  private:
    static constexpr size_t numWords = Slots / 64;

    static uint64_t bit(size_t slot) { return uint64_t(1) << (slot & 63); }

    std::array<uint64_t, numWords> words{};
};

} // namespace dlp::sim

#endif // DLP_SIM_SLOT_OCCUPANCY_HH
