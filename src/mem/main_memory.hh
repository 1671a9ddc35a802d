/**
 * @file
 * Flat functional backing store with a simple bandwidth/latency model.
 *
 * Storage is sparse (allocated in 64 KB frames on first touch) so multi-
 * megabyte texture and matrix datasets cost only what they touch.
 */

#ifndef DLP_MEM_MAIN_MEMORY_HH
#define DLP_MEM_MAIN_MEMORY_HH

#include <cinttypes>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "mem/params.hh"
#include "sim/resource.hh"

namespace dlp::mem {

class MainMemory
{
  public:
    explicit MainMemory(const MemParams &params)
        : latency(cyclesToTicks(params.memLatency)),
          // One grant moves one word; words-per-cycle sets the interval.
          port(ticksPerCycle / params.memWordsPerCycle
                   ? ticksPerCycle / params.memWordsPerCycle : 1)
    {}

    /** Functional word read (byte address must be word aligned). */
    Word
    readWord(Addr addr) const
    {
        panic_if(addr % wordBytes != 0, "unaligned word read 0x%" PRIx64,
                 addr);
        const Frame *f = findFrame(addr);
        if (!f)
            return 0;
        Word w;
        std::memcpy(&w, f->data() + frameOffset(addr), wordBytes);
        return w;
    }

    /** Functional word write. */
    void
    writeWord(Addr addr, Word value)
    {
        panic_if(addr % wordBytes != 0, "unaligned word write 0x%" PRIx64,
                 addr);
        Frame &f = frame(addr);
        std::memcpy(f.data() + frameOffset(addr), &value, wordBytes);
    }

    /**
     * Timing access: a burst of words starting when the port grants.
     * @return completion tick.
     */
    Tick
    access(Tick start, unsigned words)
    {
        Tick grant = port.acquireMany(start, words);
        return grant + latency;
    }

    uint64_t accesses() const { return port.grants(); }

    /** The off-chip port (engines bind it to their floor). */
    sim::Resource &portResource() { return port; }

    void resetTiming() { port.reset(); }

  private:
    static constexpr Addr frameBytes = 64 * 1024;

    using Frame = std::vector<uint8_t>;

    static Addr frameBase(Addr addr) { return addr / frameBytes; }
    static size_t frameOffset(Addr addr)
    {
        return static_cast<size_t>(addr % frameBytes);
    }

    const Frame *
    findFrame(Addr addr) const
    {
        auto it = frames.find(frameBase(addr));
        return it == frames.end() ? nullptr : &it->second;
    }

    Frame &
    frame(Addr addr)
    {
        auto it = frames.find(frameBase(addr));
        if (it == frames.end())
            it = frames.emplace(frameBase(addr), Frame(frameBytes, 0)).first;
        return it->second;
    }

    std::unordered_map<Addr, Frame> frames;
    Tick latency;
    sim::Resource port;
};

} // namespace dlp::mem

#endif // DLP_MEM_MAIN_MEMORY_HH
